//! Per-destination-node coalescing buffers: batch small puts and
//! non-fetching AMOs into single wire transfers.
//!
//! DART-MPI-style small-op aggregation: every eligible op is *staged* into
//! the buffer of its destination node instead of reserving NIC lanes
//! immediately. A buffer flushes as one wire transfer (payload plus
//! [`crate::cost::AM_HEADER_BYTES`] per op, applied by a software handler
//! at the target) when
//!
//! - `quiet` / `fence` / a barrier / `wait_until` runs (flush *all*
//!   buffers, ordered by `(first_enqueue_ns, node)` — the same
//!   virtual-time-then-id key the NIC arbiter parks on, so flush order is
//!   deterministic under contention);
//! - a non-stageable op (get, fetching AMO, large put, strided, active
//!   message) targets the node — the flush lands strictly before it, which
//!   preserves read-your-writes and program order per node;
//! - staging one more op would exceed `max_bytes` / `max_ops`, or the
//!   buffer's oldest op is older than `max_age_ns` of virtual time.
//!
//! Within one buffer, ops apply FIFO at the target, so program order per
//! destination is preserved exactly. The only compaction is last-op
//! write combining: a put whose `(dst, offset, len)` exactly matches the
//! *most recently staged* op (itself a put) overwrites that op's payload
//! in place — back-to-back rewrites of one location (the Figure 3 pattern)
//! collapse to a single wire message. Merging deeper than the last op
//! could reorder a write across a staged AMO to the same word, so it is
//! not attempted.
//!
//! The `Coalescer` is pure bookkeeping: `Ctx` owns the cost charging,
//! heap application, sanitizer records and pending-set obligations of a
//! flush (see `Ctx::flush_coalesced`).

use crate::ctx::AmoOp;
use pgas_machine::machine::PeId;
use std::collections::BTreeMap;

/// Whether (and how) a context coalesces small ops.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum CoalescePolicy {
    /// Defer to the machine: a `with_forced_aggregation` scope, then the
    /// `PGAS_COALESCE` environment variable (off when neither speaks).
    #[default]
    Auto,
    /// Never coalesce, whatever `PGAS_COALESCE` says (only a
    /// `with_forced_aggregation(true)` scope overrides it). Pinned by
    /// timing-exact tests the same way `with_faults(FaultPlan::none())`
    /// pins the fault path.
    Off,
    /// Coalesce with this configuration. A machine-level *force-off*
    /// (`with_forced_aggregation(false)`) still wins, so a suite-wide
    /// kill switch stays conclusive.
    On(CoalescingConfig),
}

/// Tuning knobs of the coalescing buffers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoalescingConfig {
    /// Largest stageable put, and per-node buffer payload capacity, bytes.
    pub max_bytes: usize,
    /// Most staged ops per node buffer before a forced flush.
    pub max_ops: usize,
    /// Oldest a buffer's first op may grow (virtual ns) before the next
    /// stage to that node flushes it first. There is no background timer —
    /// age is checked at op boundaries, and `quiet`/fences/barriers bound
    /// staleness anyway.
    pub max_age_ns: u64,
}

impl Default for CoalescingConfig {
    fn default() -> Self {
        // 64 KiB covers every "small put" of the paper's figures (Figure 3
        // streams 64 KiB messages) while still refusing genuinely large
        // transfers that saturate a lane on their own.
        CoalescingConfig { max_bytes: 65536, max_ops: 64, max_age_ns: 100_000 }
    }
}

/// One staged operation, applied FIFO at the target when its buffer
/// flushes.
#[derive(Debug)]
pub(crate) struct StagedOp {
    pub dst: PeId,
    pub off: usize,
    pub payload: StagedPayload,
}

#[derive(Debug)]
pub(crate) enum StagedPayload {
    Put(Vec<u8>),
    Amo(AmoOp),
}

impl StagedOp {
    /// Bytes this op contributes to the wire payload (headers are charged
    /// separately, per op).
    pub fn payload_bytes(&self) -> usize {
        match &self.payload {
            StagedPayload::Put(data) => data.len(),
            StagedPayload::Amo(_) => 8,
        }
    }

    /// The heap range this op writes.
    pub fn write_range(&self) -> (usize, usize) {
        match &self.payload {
            StagedPayload::Put(data) => (self.off, data.len()),
            StagedPayload::Amo(_) => (self.off, 8),
        }
    }
}

/// The staged ops bound for one destination node.
#[derive(Debug)]
pub(crate) struct NodeBuf {
    /// Virtual time the oldest op was staged — the flush-order key.
    pub first_enqueue_ns: u64,
    pub total_bytes: usize,
    pub ops: Vec<StagedOp>,
}

/// Per-destination-node staging buffers (bookkeeping only; see the module
/// docs for the split of responsibilities with `Ctx`).
#[derive(Debug)]
pub(crate) struct Coalescer {
    cfg: CoalescingConfig,
    bufs: BTreeMap<usize, NodeBuf>,
}

impl Coalescer {
    pub fn new(cfg: CoalescingConfig) -> Self {
        Coalescer { cfg, bufs: BTreeMap::new() }
    }

    /// Is a put of `len` bytes stageable at all under this configuration?
    pub fn put_eligible(&self, len: usize) -> bool {
        len <= self.cfg.max_bytes
    }

    /// Total staged-but-unflushed ops across all buffers (they count as
    /// outstanding for `outstanding_puts` — staged is even less complete
    /// than in-flight).
    pub fn staged_ops(&self) -> usize {
        self.bufs.values().map(|b| b.ops.len()).sum()
    }

    /// Must `node`'s buffer flush before staging `new_ops` more ops of
    /// `payload_bytes` at virtual time `now`? (Capacity and age; an empty
    /// buffer never needs a flush.) A write-combining caller passes
    /// `(0, 0)` — an exact-range rewrite grows neither count nor bytes, so
    /// only the age bound can force a flush first.
    pub fn needs_flush_before(
        &self,
        node: usize,
        new_ops: usize,
        payload_bytes: usize,
        now: u64,
    ) -> bool {
        match self.bufs.get(&node) {
            None => false,
            Some(b) => {
                b.ops.len() + new_ops > self.cfg.max_ops
                    || b.total_bytes + payload_bytes > self.cfg.max_bytes
                    || now.saturating_sub(b.first_enqueue_ns) > self.cfg.max_age_ns
            }
        }
    }

    /// Would [`Coalescer::try_merge_put`] succeed right now? Probed before
    /// the capacity check so a same-range rewrite is never broken up by a
    /// needless flush.
    pub fn can_merge_put(&self, node: usize, dst: PeId, off: usize, len: usize) -> bool {
        let Some(buf) = self.bufs.get(&node) else { return false };
        let Some(last) = buf.ops.last() else { return false };
        last.dst == dst
            && last.off == off
            && matches!(&last.payload, StagedPayload::Put(d) if d.len() == len)
    }

    /// Write-combine `data` into the most recently staged op of `node`'s
    /// buffer if that op is a put to exactly `(dst, off, data.len())`.
    /// Returns whether the merge happened.
    pub fn try_merge_put(&mut self, node: usize, dst: PeId, off: usize, data: &[u8]) -> bool {
        let Some(buf) = self.bufs.get_mut(&node) else { return false };
        let Some(last) = buf.ops.last_mut() else { return false };
        if last.dst != dst || last.off != off {
            return false;
        }
        match &mut last.payload {
            StagedPayload::Put(staged) if staged.len() == data.len() => {
                staged.copy_from_slice(data);
                true
            }
            _ => false,
        }
    }

    /// Append an op to `node`'s buffer (the caller already handled
    /// capacity, age, and merging).
    pub fn push(&mut self, node: usize, op: StagedOp, now: u64) {
        let buf = self.bufs.entry(node).or_insert_with(|| NodeBuf {
            first_enqueue_ns: now,
            total_bytes: 0,
            ops: Vec::new(),
        });
        buf.total_bytes += op.payload_bytes();
        buf.ops.push(op);
    }

    /// Detach `node`'s buffer for flushing, if it has anything staged.
    pub fn take_node(&mut self, node: usize) -> Option<NodeBuf> {
        self.bufs.remove(&node)
    }

    /// Detach every buffer, ordered by `(first_enqueue_ns, node)` — the
    /// deterministic flush order `quiet`/fences/barriers use.
    pub fn take_all(&mut self) -> Vec<(usize, NodeBuf)> {
        let mut all: Vec<(usize, NodeBuf)> = std::mem::take(&mut self.bufs).into_iter().collect();
        all.sort_by_key(|(node, buf)| (buf.first_enqueue_ns, *node));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_last_op_merge_combines_writes() {
        let mut c = Coalescer::new(CoalescingConfig::default());
        c.push(1, StagedOp { dst: 3, off: 0, payload: StagedPayload::Put(vec![1; 8]) }, 10);
        assert!(c.try_merge_put(1, 3, 0, &[2; 8]));
        assert_eq!(c.staged_ops(), 1);
        let buf = c.take_node(1).unwrap();
        match &buf.ops[0].payload {
            StagedPayload::Put(d) => assert_eq!(d, &vec![2; 8]),
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn merge_refuses_non_matching_and_non_last_ops() {
        let mut c = Coalescer::new(CoalescingConfig::default());
        c.push(1, StagedOp { dst: 3, off: 0, payload: StagedPayload::Put(vec![1; 8]) }, 10);
        assert!(!c.try_merge_put(1, 3, 8, &[2; 8]), "different offset");
        assert!(!c.try_merge_put(1, 4, 0, &[2; 8]), "different dst");
        assert!(!c.try_merge_put(1, 3, 0, &[2; 4]), "different length");
        c.push(1, StagedOp { dst: 3, off: 0, payload: StagedPayload::Amo(AmoOp::Add(1)) }, 11);
        assert!(!c.try_merge_put(1, 3, 0, &[2; 8]), "last op is an AMO: merging would reorder");
        assert_eq!(c.staged_ops(), 2);
    }

    #[test]
    fn capacity_and_age_force_flushes() {
        let cfg = CoalescingConfig { max_bytes: 16, max_ops: 2, max_age_ns: 100 };
        let mut c = Coalescer::new(cfg);
        assert!(!c.needs_flush_before(1, 1, 8, 0), "empty buffer never flushes");
        c.push(1, StagedOp { dst: 3, off: 0, payload: StagedPayload::Put(vec![1; 8]) }, 10);
        assert!(!c.needs_flush_before(1, 1, 8, 20));
        assert!(c.needs_flush_before(1, 1, 16, 20), "payload capacity");
        assert!(c.needs_flush_before(1, 1, 8, 200), "age");
        c.push(1, StagedOp { dst: 3, off: 8, payload: StagedPayload::Put(vec![1; 8]) }, 20);
        assert!(c.needs_flush_before(1, 1, 1, 20), "op-count capacity");
        assert!(!c.needs_flush_before(2, 1, 8, 20), "other nodes unaffected");
        // A write-combining caller (0 new ops, 0 new bytes) is exempt from
        // both capacity bounds; only age still forces the flush.
        assert!(!c.needs_flush_before(1, 0, 0, 20), "merge skips capacity");
        assert!(c.needs_flush_before(1, 0, 0, 200), "merge still honors age");
        assert!(c.can_merge_put(1, 3, 8, 8), "last op is a matching put");
        assert!(!c.can_merge_put(1, 3, 0, 8), "not the last op");
        assert!(!c.can_merge_put(2, 3, 8, 8), "wrong node");
    }

    #[test]
    fn take_all_orders_by_first_enqueue_then_node() {
        let mut c = Coalescer::new(CoalescingConfig::default());
        c.push(2, StagedOp { dst: 9, off: 0, payload: StagedPayload::Put(vec![0; 4]) }, 50);
        c.push(0, StagedOp { dst: 1, off: 0, payload: StagedPayload::Put(vec![0; 4]) }, 70);
        c.push(1, StagedOp { dst: 5, off: 0, payload: StagedPayload::Put(vec![0; 4]) }, 50);
        let order: Vec<usize> = c.take_all().into_iter().map(|(node, _)| node).collect();
        assert_eq!(order, vec![1, 2, 0], "ties broken by node id");
        assert_eq!(c.staged_ops(), 0);
    }
}
