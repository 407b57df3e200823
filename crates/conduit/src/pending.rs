//! Outstanding-operation tracking: the machinery behind `quiet`, `fence`
//! and the ordering-hazard detector.
//!
//! OpenSHMEM's completion model (§IV-B of the paper): a put returns after
//! *local* completion only; remote writes may complete out of order with
//! respect to other remote accesses. Coarray Fortran, in contrast, requires
//! accesses to the same location from the same image to complete in program
//! order. The paper's translation therefore inserts `shmem_quiet` after puts
//! and before gets.
//!
//! We track every un-quieted put issued by a PE. When the same PE then reads
//! or rewrites an overlapping region of the same target without an
//! intervening quiet, that is exactly the situation where a real OpenSHMEM
//! implementation could return stale data — we record it as a [`Hazard`]
//! (and optionally panic, as failure injection for runtime-correctness
//! tests).

use pgas_machine::machine::PeId;
use std::collections::HashMap;

/// The kind of ordering violation detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// A get overlapped an outstanding (un-quieted) put to the same target:
    /// OpenSHMEM does not guarantee the get observes the put.
    ReadAfterUnquietedWrite,
    /// A put overlapped an outstanding put to the same target: deliveries
    /// may be reordered, leaving the *older* data in memory.
    WriteAfterUnquietedWrite,
    /// An atomic overlapped an outstanding (non-atomic) put: the atomic may
    /// execute on the pre-put value. Atomics racing other *atomics* are
    /// fine — the network serializes them — so only puts are conflicting.
    AmoOverUnquietedWrite,
}

/// A detected ordering violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hazard {
    pub kind: HazardKind,
    pub dst: PeId,
    pub offset: usize,
    pub len: usize,
    /// The ranges overlap but neither contains the other, so the access can
    /// observe a mix of old and new bytes (a torn transfer), not merely a
    /// stale-but-whole value.
    pub torn: bool,
    /// Remote completion time of the conflicting outstanding put.
    pub pending_complete: u64,
}

impl std::fmt::Display for Hazard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            HazardKind::ReadAfterUnquietedWrite => "get overlaps un-quieted put",
            HazardKind::WriteAfterUnquietedWrite => "put overlaps un-quieted put",
            HazardKind::AmoOverUnquietedWrite => "atomic overlaps un-quieted put",
        };
        let class = if self.torn { ", partial overlap: torn transfer" } else { "" };
        write!(
            f,
            "ordering hazard: {what} (target PE {}, bytes [{}, {}){class})",
            self.dst,
            self.offset,
            self.offset + self.len
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingPut {
    dst: PeId,
    offset: usize,
    len: usize,
    remote_complete: u64,
    /// Was this obligation created by a (non-fetching) atomic?
    amo: bool,
}

/// Per-PE outstanding-put set. Owned by one PE's [`crate::Ctx`]; never
/// shared.
#[derive(Debug, Default)]
pub struct PendingSet {
    puts: Vec<PendingPut>,
    /// Completion times of outstanding non-blocking gets (`shmem_get_nbi`):
    /// their data is only guaranteed valid after `quiet`.
    nbi_gets: Vec<u64>,
    /// Delivery floors established by `fence`: data to `dst` may not land
    /// before this virtual time.
    floors: HashMap<PeId, u64>,
}

#[inline]
fn overlaps(a_off: usize, a_len: usize, b_off: usize, b_len: usize) -> bool {
    a_len > 0 && b_len > 0 && a_off < b_off + b_len && b_off < a_off + a_len
}

impl PendingSet {
    /// Record an issued put that remotely completes at `remote_complete`.
    pub fn record_put(&mut self, dst: PeId, offset: usize, len: usize, remote_complete: u64) {
        self.puts.push(PendingPut { dst, offset, len, remote_complete, amo: false });
    }

    /// Record an issued non-fetching atomic (an 8-byte completion
    /// obligation that other atomics may legally race).
    pub fn record_amo(&mut self, dst: PeId, offset: usize, remote_complete: u64) {
        self.puts.push(PendingPut { dst, offset, len: 8, remote_complete, amo: true });
    }

    /// Record an active-message handler's write: an atomic completion
    /// obligation of arbitrary length. The handler runs inside the
    /// target's apply section, so other atomics (and other handlers) may
    /// legally race it — only plain puts conflict.
    pub fn record_am_write(&mut self, dst: PeId, offset: usize, len: usize, remote_complete: u64) {
        self.puts.push(PendingPut { dst, offset, len, remote_complete, amo: true });
    }

    /// Record an issued non-blocking get completing at `complete_at`.
    pub fn record_nbi_get(&mut self, complete_at: u64) {
        self.nbi_gets.push(complete_at);
    }

    /// Latest outstanding remote completion (what `quiet` must wait for).
    pub fn max_outstanding(&self) -> u64 {
        self.puts
            .iter()
            .map(|p| p.remote_complete)
            .chain(self.nbi_gets.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Number of outstanding puts.
    pub fn outstanding(&self) -> usize {
        self.puts.len()
    }

    /// Outstanding put obligations as `(dst, offset, len, remote_complete)`.
    #[cfg(test)]
    pub(crate) fn put_spans(&self) -> Vec<(PeId, usize, usize, u64)> {
        self.puts.iter().map(|p| (p.dst, p.offset, p.len, p.remote_complete)).collect()
    }

    /// Drop all completion obligations (after `quiet`). Floors are also
    /// cleared: quiet is strictly stronger than fence.
    pub fn clear(&mut self) {
        self.puts.clear();
        self.nbi_gets.clear();
        self.floors.clear();
    }

    /// `fence`: future deliveries to each target must start after everything
    /// outstanding to that target. Obligations stay outstanding (fence does
    /// not imply completion).
    pub fn fence(&mut self) {
        for p in &self.puts {
            let f = self.floors.entry(p.dst).or_insert(0);
            *f = (*f).max(p.remote_complete);
        }
    }

    /// The delivery floor currently in force for `dst`.
    pub fn floor_for(&self, dst: PeId) -> u64 {
        self.floors.get(&dst).copied().unwrap_or(0)
    }

    /// Is `[offset, offset+len)` a strict partial overlap of the pending
    /// put (neither range contains the other)?
    fn is_torn(p: &PendingPut, offset: usize, len: usize) -> bool {
        let covers_new = p.offset <= offset && offset + len <= p.offset + p.len;
        let covered_by_new = offset <= p.offset && p.offset + p.len <= offset + len;
        !(covers_new || covered_by_new)
    }

    fn hazard(kind: HazardKind, p: &PendingPut, offset: usize, len: usize) -> Hazard {
        Hazard {
            kind,
            dst: p.dst,
            offset,
            len,
            torn: Self::is_torn(p, offset, len),
            pending_complete: p.remote_complete,
        }
    }

    /// Would reading `[offset, offset+len)` of `dst` race an outstanding put?
    pub fn check_get(&self, dst: PeId, offset: usize, len: usize) -> Option<Hazard> {
        self.puts
            .iter()
            .find(|p| p.dst == dst && overlaps(p.offset, p.len, offset, len))
            .map(|p| Self::hazard(HazardKind::ReadAfterUnquietedWrite, p, offset, len))
    }

    /// Would writing `[offset, offset+len)` of `dst` race an outstanding put?
    /// A `fence` suppresses this hazard (deliveries are ordered after it).
    pub fn check_put(&self, dst: PeId, offset: usize, len: usize) -> Option<Hazard> {
        let floor = self.floor_for(dst);
        self.puts
            .iter()
            .find(|p| {
                p.dst == dst && p.remote_complete > floor && overlaps(p.offset, p.len, offset, len)
            })
            .map(|p| Self::hazard(HazardKind::WriteAfterUnquietedWrite, p, offset, len))
    }

    /// Would an atomic on the word at `offset` of `dst` race an outstanding
    /// *non-atomic* put? (Atomics racing pending atomics are legal — the
    /// target serializes them.) Fence floors apply as for puts.
    pub fn check_amo(&self, dst: PeId, offset: usize) -> Option<Hazard> {
        self.check_atomic_range(dst, offset, 8)
    }

    /// Range-valued sibling of [`PendingSet::check_amo`], for active-message
    /// handler writes: would an *atomic* write of `[offset, offset+len)` of
    /// `dst` race an outstanding non-atomic put?
    pub fn check_atomic_range(&self, dst: PeId, offset: usize, len: usize) -> Option<Hazard> {
        let floor = self.floor_for(dst);
        self.puts
            .iter()
            .find(|p| {
                p.dst == dst
                    && !p.amo
                    && p.remote_complete > floor
                    && overlaps(p.offset, p.len, offset, len)
            })
            .map(|p| Self::hazard(HazardKind::AmoOverUnquietedWrite, p, offset, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_obligations() {
        let s = PendingSet::default();
        assert_eq!(s.max_outstanding(), 0);
        assert_eq!(s.outstanding(), 0);
        assert!(s.check_get(0, 0, 100).is_none());
        assert!(s.check_put(0, 0, 100).is_none());
    }

    #[test]
    fn quiet_clears_obligations() {
        let mut s = PendingSet::default();
        s.record_put(1, 0, 64, 5000);
        s.record_put(2, 64, 64, 7000);
        assert_eq!(s.max_outstanding(), 7000);
        assert_eq!(s.outstanding(), 2);
        s.clear();
        assert_eq!(s.max_outstanding(), 0);
        assert!(s.check_get(1, 0, 64).is_none());
    }

    #[test]
    fn get_overlap_is_a_hazard_only_on_same_target() {
        let mut s = PendingSet::default();
        s.record_put(3, 100, 50, 1000);
        let h = s.check_get(3, 120, 8).expect("overlap must be detected");
        assert_eq!(h.kind, HazardKind::ReadAfterUnquietedWrite);
        assert!(s.check_get(4, 120, 8).is_none(), "different PE, same range: fine");
        assert!(s.check_get(3, 150, 8).is_none(), "adjacent, non-overlapping: fine");
        assert!(s.check_get(3, 92, 8).is_none(), "ends exactly at start: fine");
    }

    #[test]
    fn waw_is_a_hazard_until_fence() {
        let mut s = PendingSet::default();
        s.record_put(1, 0, 8, 9000);
        assert_eq!(s.check_put(1, 0, 8).unwrap().kind, HazardKind::WriteAfterUnquietedWrite);
        s.fence();
        assert_eq!(s.floor_for(1), 9000);
        assert!(s.check_put(1, 0, 8).is_none(), "fence orders deliveries");
        // But the completion obligation is still alive.
        assert_eq!(s.max_outstanding(), 9000);
    }

    #[test]
    fn fence_floor_is_per_target() {
        let mut s = PendingSet::default();
        s.record_put(1, 0, 8, 4000);
        s.record_put(2, 0, 8, 6000);
        s.fence();
        assert_eq!(s.floor_for(1), 4000);
        assert_eq!(s.floor_for(2), 6000);
        assert_eq!(s.floor_for(3), 0);
    }

    #[test]
    fn zero_length_never_overlaps() {
        let mut s = PendingSet::default();
        s.record_put(1, 0, 0, 100);
        assert!(s.check_get(1, 0, 8).is_none());
        s.record_put(1, 0, 8, 100);
        assert!(s.check_get(1, 4, 0).is_none());
    }

    #[test]
    fn amo_over_pending_put_is_a_hazard_but_amo_over_amo_is_not() {
        let mut s = PendingSet::default();
        s.record_amo(1, 0, 500);
        assert!(s.check_amo(1, 0).is_none(), "the target serializes atomics");
        s.record_put(1, 0, 8, 900);
        let h = s.check_amo(1, 0).expect("amo over pending non-atomic put");
        assert_eq!(h.kind, HazardKind::AmoOverUnquietedWrite);
        assert_eq!(h.pending_complete, 900);
        // Fence floors apply as for puts.
        s.fence();
        assert!(s.check_amo(1, 0).is_none());
    }

    #[test]
    fn strict_partial_overlap_is_classified_torn() {
        let mut s = PendingSet::default();
        s.record_put(1, 0, 16, 700);
        // Contained in the pending range: stale but whole.
        assert!(!s.check_get(1, 4, 8).unwrap().torn);
        // Containing the pending range: also whole.
        assert!(!s.check_put(1, 0, 32).unwrap().torn);
        // Straddling one edge: a mix of old and new bytes is possible.
        let h = s.check_put(1, 8, 16).unwrap();
        assert!(h.torn);
        assert!(h.to_string().contains("torn transfer"), "got: {h}");
        assert_eq!(h.pending_complete, 700);
    }
}
