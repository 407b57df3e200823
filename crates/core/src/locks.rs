//! CAF per-image locks: the paper's adaptation of the MCS queue lock
//! (§IV-D).
//!
//! CAF locks are coarrays: `type(lock_type) :: lck[*]` declares one lock
//! *variable per image*, and `lock(lck[j])` acquires the instance living on
//! image `j`. OpenSHMEM's own locks are global entities, unusable here; the
//! naive alternative (an N-element array per lock) wastes space. Instead:
//!
//! * Each lock instance is a symmetric 2-word block on its home image: a
//!   **tail** word holding a packed [`RemotePtr`] to the last queue node,
//!   and a **holder** word (1-based image of the current owner; 0 = none)
//!   that is only maintained while a fault plan is active — it lets a
//!   waiter behind a *failed* image distinguish a dead lock holder (evict
//!   it and take over: a lock repair) from a dead queued waiter (whose
//!   thread, still running under the cooperative death model, will pass
//!   the lock along normally).
//! * Each contender allocates a 16-byte **qnode** (`locked`, `next` words)
//!   from its non-symmetric remotely-accessible buffer space.
//! * `lock`: fetch-and-store (swap) the tail with a pointer to your qnode;
//!   if there was a predecessor, point its `next` at you and spin on your
//!   *local* `locked` word (no remote polling — the MCS property).
//! * `unlock`: compare-and-swap the tail from yourself to NIL; if someone
//!   queued behind you, wait for your `next` to be set and reset the
//!   successor's `locked` word.
//! * A per-image hash table keyed by (lock variable, home image) finds the
//!   qnode of a held lock at `unlock` (an image may hold up to M locks plus
//!   one it is waiting on).

use crate::image::{Image, ImageId};
use crate::remote_ptr::{RemotePtr, NIL};
use openshmem::data::SymPtr;
use openshmem::shmem::Cmp;
use openshmem::{AmHandler, AmTarget};
use pgas_conduit::ctx::AmoOp;
use pgas_conduit::ConduitError;
use std::sync::atomic::Ordering;

/// Size of a queue node in the non-symmetric buffer: `locked` + `next`.
pub(crate) const QNODE_BYTES: usize = 16;

/// Active-message handler behind the MCS protocol's remote word writes
/// (chain link, handoff, holder publication): `arg` is `[offset, value]`
/// as two little-endian u64s, stored into the target heap word. Registered
/// once per image at construction (SPMD-symmetric, like the symmetric
/// allocations the protocol lives in).
pub(crate) struct QnodeSetAm;

impl AmHandler for QnodeSetAm {
    fn execute(&self, t: &mut AmTarget<'_>, arg: &[u8]) -> Option<Vec<u8>> {
        let off = u64::from_le_bytes(arg[0..8].try_into().expect("qnode-set arg")) as usize;
        let val = u64::from_le_bytes(arg[8..16].try_into().expect("qnode-set arg"));
        t.write_u64(off, val);
        None
    }
}

/// Virtual time charged per re-poll while a waiter sits behind a dead
/// queued (non-holder) image, waiting for the handoff chain upstream of it
/// to drain.
const REPAIR_POLL_NS: f64 = 200.0;

/// Pack a [`QnodeSetAm`] argument: target heap word offset + value.
fn qnode_set_arg(word: SymPtr<u64>, val: u64) -> [u8; 16] {
    let mut arg = [0u8; 16];
    arg[0..8].copy_from_slice(&(word.offset() as u64).to_le_bytes());
    arg[8..16].copy_from_slice(&val.to_le_bytes());
    arg
}

/// Ignore a dead target on a fault-aware protocol write (the holder word
/// and the repair path cover it); any other conduit failure is a runtime
/// bug. The one tolerance rule both the chain-write and handoff sites use.
fn tolerate_dead_target(r: Result<(), ConduitError>, what: &str, pe: usize) {
    match r {
        Ok(()) | Err(ConduitError::TargetFailed { .. }) => {}
        Err(e) => panic!("{what} to image {}: {e}", pe + 1),
    }
}

/// A CAF lock variable: one lockable instance per image.
#[derive(Debug, Clone, Copy)]
pub struct CafLock {
    tail: SymPtr<u64>,
    /// 1-based image currently holding this instance (0 = none). Written
    /// only when a fault plan is active, by whoever transfers ownership:
    /// the acquirer on an uncontended acquire / `try_lock` win / repair
    /// steal, the releaser on unlock and handoff.
    holder: SymPtr<u64>,
    /// Allocation generation. Symmetric-heap offsets are recycled by
    /// `shmem_free`, so the tail offset alone cannot identify a lock
    /// variable for the lifetime of an image: a held-lock table entry made
    /// against one variable would alias a different variable allocated
    /// later at the same offset. The generation — unique per `lock_var`
    /// call on each image — disambiguates (0 is reserved for the hidden
    /// `critical` lock, which is allocated once and never freed).
    gen: u64,
}

impl CafLock {
    /// Wrap a pre-allocated 2-word `[tail, holder]` block (the hidden
    /// `critical` lock).
    pub(crate) fn from_raw(words: SymPtr<u64>) -> CafLock {
        CafLock { tail: words.slice(0, 1), holder: words.slice(1, 1), gen: 0 }
    }

    /// The symmetric tail word.
    pub fn tail_ptr(&self) -> SymPtr<u64> {
        self.tail
    }

    /// Table key for the instance on PE `home`.
    fn key(&self, home: usize) -> (usize, u64, usize) {
        (self.tail.offset(), self.gen, home)
    }
}

impl<'m> Image<'m> {
    /// Declare a lock coarray (`type(lock_type) :: lck[*]`). Collective;
    /// returns with every image's instance initialized to unlocked.
    pub fn lock_var(&self) -> CafLock {
        let words = self.shmem().shmalloc::<u64>(2).expect("symmetric heap exhausted for lock");
        self.shmem().write_local(words, &[NIL, 0]);
        self.sync_all();
        let lck = CafLock {
            tail: words.slice(0, 1),
            holder: words.slice(1, 1),
            gen: self.next_lock_gen(),
        };
        self.lock_offsets.borrow_mut().insert(lck.tail.offset(), (lck.gen, words.offset()));
        lck
    }

    /// An array of lock variables (`type(lock_type) :: lck(n)[*]`).
    pub fn lock_vars(&self, n: usize) -> Vec<CafLock> {
        let words =
            self.shmem().shmalloc::<u64>(2 * n).expect("symmetric heap exhausted for locks");
        self.shmem().write_local(words, &vec![NIL; 2 * n]);
        self.sync_all();
        (0..n)
            .map(|i| {
                let lck = CafLock {
                    tail: words.slice(2 * i, 1),
                    holder: words.slice(2 * i + 1, 1),
                    gen: self.next_lock_gen(),
                };
                self.lock_offsets.borrow_mut().insert(lck.tail.offset(), (lck.gen, words.offset()));
                lck
            })
            .collect()
    }

    fn next_lock_gen(&self) -> u64 {
        let g = self.lock_gen.get() + 1;
        self.lock_gen.set(g);
        g
    }

    fn qnode_ptrs(&self, offset: usize) -> (SymPtr<u64>, SymPtr<u64>) {
        let abs = self.nonsym_abs(offset);
        (SymPtr::from_raw_parts(abs, 1), SymPtr::from_raw_parts(abs + 8, 1))
    }

    /// The MCS protocol's remote word write (chain link, handoff, holder
    /// publication). With aggregation on, a remote `atomic_set` would be
    /// *staged* in a coalescing buffer — correct for data, but the lock
    /// protocol needs these control words visible promptly (a waiter spins
    /// on the handoff; the repair path reads the holder word) — so it ships
    /// as one active message instead, executed at the target immediately
    /// and remote-complete at `quiet` like any put. With aggregation off
    /// this is exactly the pre-AM remote atomic.
    fn remote_word_set(&self, pe: usize, word: SymPtr<u64>, val: u64) {
        if self.shmem().ctx().coalescing() {
            self.shmem().am_send(pe, self.qnode_set_am(), &qnode_set_arg(word, val));
        } else {
            self.shmem().atomic_set(word, val, pe);
        }
    }

    /// Fallible [`Self::remote_word_set`], for the fault-aware paths that
    /// tolerate a dead target.
    fn try_remote_word_set(
        &self,
        pe: usize,
        word: SymPtr<u64>,
        val: u64,
    ) -> Result<(), ConduitError> {
        if self.shmem().ctx().coalescing() {
            self.shmem().try_am_send(pe, self.qnode_set_am(), &qnode_set_arg(word, val))
        } else {
            self.shmem().try_amo::<u64>(pe, word, AmoOp::Set(val)).map(|_| ())
        }
    }

    /// The Cray CAF runtime's lock path performs a remote state check
    /// (an extra fetch of the lock word) before mutating it — one reason the
    /// paper measures UHCAF-over-SHMEM locks ~22% faster than Cray CAF's.
    /// We model that behaviour when running as the Cray-CAF baseline.
    fn vendor_lock_overhead(&self, lck: &CafLock, home: usize) {
        if matches!(self.config().backend, crate::config::Backend::CrayCaf) {
            let _ = self.shmem().atomic_fetch(lck.tail, home);
        }
    }

    /// `lock(lck[image])`: acquire the lock instance on `image` (1-based).
    pub fn lock(&self, lck: &CafLock, image: ImageId) {
        let home = self.pe_of(image);
        let key = lck.key(home);
        assert!(
            !self.lock_table.borrow().contains_key(&key),
            "image {} already holds lock {:?} on image {image} (STAT_LOCKED)",
            self.this_image(),
            lck.tail
        );
        self.vendor_lock_overhead(lck, home);
        let q = self
            .alloc_nonsym(QNODE_BYTES)
            .expect("non-symmetric buffer exhausted allocating a lock qnode");
        let (locked, next) = self.qnode_ptrs(q.offset);
        self.shmem().write_local(locked, &[1]);
        self.shmem().write_local(next, &[NIL]);
        let me = RemotePtr::new(self.this_image() - 1, q.offset).pack();
        let prev = self.shmem().swap(lck.tail, me, home);
        match RemotePtr::unpack(prev) {
            Some(pred) => {
                // Chain behind the predecessor and spin locally.
                let pred_next = SymPtr::from_raw_parts(self.nonsym_abs(pred.offset) + 8, 1);
                if self.machine().faults_active() {
                    // The predecessor may already be marked dead (it can
                    // still be the lock holder): the link write is then
                    // undeliverable and unneeded — the repair path observes
                    // ownership through the holder word instead.
                    tolerate_dead_target(
                        self.try_remote_word_set(pred.image, pred_next, me),
                        "lock chain write",
                        pred.image,
                    );
                    self.shmem().quiet();
                    self.wait_or_repair(lck, home, locked, pred);
                } else {
                    self.remote_word_set(pred.image, pred_next, me);
                    self.shmem().quiet();
                    self.shmem().wait_until(locked, Cmp::Eq, 0);
                }
            }
            None => {
                // Uncontended: we are the holder; publish that (fault runs
                // only) so a successor can tell a dead holder from a dead
                // queued waiter.
                if self.machine().faults_active() {
                    self.remote_word_set(home, lck.holder, self.this_image() as u64);
                }
            }
        }
        self.lock_table.borrow_mut().insert(key, q.offset);
    }

    /// Failure-aware MCS spin: wait for the handoff that clears our local
    /// `locked` word, but also wake when the predecessor dies. A dead
    /// predecessor named by the lock's holder word is evicted and the lock
    /// taken over (a *lock repair*, counted and logged); a dead predecessor
    /// that was merely queued keeps its place — under the cooperative death
    /// model its thread still runs and will pass the lock along — so we
    /// re-poll after a charged delay until the chain upstream drains.
    fn wait_or_repair(&self, lck: &CafLock, home: usize, locked: SymPtr<u64>, pred: RemotePtr) {
        let m = self.machine();
        let me0 = self.this_image() - 1;
        let word = m.heap(me0).atomic64(locked.offset());
        // Once the predecessor's clock has passed this image's deadline, its
        // handoff can only come later and is dropped: this image dies
        // waiting. Its clock is read before the local word, so a handoff it
        // issued earlier is already visible.
        let deadline = m.pe_deadline(me0);
        let dies_waiting = || {
            deadline.is_some_and(|d| m.clock(pred.image) >= d) && word.load(Ordering::Acquire) != 0
        };
        loop {
            m.wait_on(me0, || {
                dies_waiting()
                    || word.load(Ordering::Acquire) == 0
                    || m.pe_failed(pred.image)
                    || m.pe_failed(me0)
            });
            if dies_waiting() || (m.pe_failed(me0) && word.load(Ordering::Acquire) != 0) {
                // This image has failed while queued: stop waiting (at its
                // deadline, if its own clock had not reached it) so its
                // thread can observe the death and return. The table entry
                // it keeps is the expected leak of a failed image.
                m.lift_clock(me0, deadline.unwrap_or(0));
                return;
            }
            if word.load(Ordering::Acquire) == 0 {
                // Normal handoff arrived: charge the wait through the
                // ordinary path (clock lift + sanitizer sync edge).
                self.shmem().wait_until(locked, Cmp::Eq, 0);
                return;
            }
            let holder = self.shmem().atomic_fetch(lck.holder, home);
            if holder == pred.image as u64 + 1 {
                // The dead predecessor owns the lock: evict it.
                self.remote_word_set(home, lck.holder, me0 as u64 + 1);
                self.shmem().quiet();
                let stats = m.stats();
                pgas_machine::stats::Stats::bump(&stats.lock_repairs);
                if m.metrics().enabled() {
                    m.metrics().count(me0, "lock_repair", Some(m.node_of(home)), 1);
                }
                stats.record_fault(pgas_machine::stats::FaultEvent {
                    pe: me0,
                    op: "lock",
                    target: pred.image,
                    kind: "lock-repair",
                    attempt: 0,
                    delay_ns: 0,
                    at_ns: m.clock(me0),
                });
                return;
            }
            // The dead predecessor was only queued; the handoff is still
            // somewhere upstream. Charge a poll interval and re-check.
            m.advance(me0, REPAIR_POLL_NS);
        }
    }

    /// `lock(lck[image], acquired_lock=ok)`: non-blocking attempt; returns
    /// whether the lock was acquired.
    pub fn try_lock(&self, lck: &CafLock, image: ImageId) -> bool {
        let home = self.pe_of(image);
        let key = lck.key(home);
        if self.lock_table.borrow().contains_key(&key) {
            // Fortran: acquired_lock=.false. if this image already holds it.
            return false;
        }
        let q = self
            .alloc_nonsym(QNODE_BYTES)
            .expect("non-symmetric buffer exhausted allocating a lock qnode");
        let (locked, next) = self.qnode_ptrs(q.offset);
        self.shmem().write_local(locked, &[0]);
        self.shmem().write_local(next, &[NIL]);
        let me = RemotePtr::new(self.this_image() - 1, q.offset).pack();
        if self.shmem().cswap(lck.tail, NIL, me, home) == NIL {
            if self.machine().faults_active() {
                self.remote_word_set(home, lck.holder, self.this_image() as u64);
            }
            self.lock_table.borrow_mut().insert(key, q.offset);
            true
        } else {
            self.free_nonsym(q).expect("qnode free");
            false
        }
    }

    /// `unlock(lck[image])`.
    pub fn unlock(&self, lck: &CafLock, image: ImageId) {
        let home = self.pe_of(image);
        let key = lck.key(home);
        let q_off = self.lock_table.borrow_mut().remove(&key).unwrap_or_else(|| {
            panic!(
                "image {} does not hold lock {:?} on image {image} (STAT_UNLOCKED)",
                self.this_image(),
                lck.tail
            )
        });
        if self.this_image_failed() {
            // A failed holder releases nothing. A successor's link write to
            // a dead image is dropped, so waiting for it would never end,
            // and a live waiter may already have evicted this image. The
            // holder word names this image or its evictor, so the next
            // waiter takes the lock through the repair path. The qnode is
            // the expected leak of a failed image.
            return;
        }
        self.vendor_lock_overhead(lck, home);
        let (_, next) = self.qnode_ptrs(q_off);
        let me = RemotePtr::new(self.this_image() - 1, q_off).pack();
        let faults = self.machine().faults_active();
        if faults {
            // Renounce ownership *before* releasing the tail: between the
            // clear and the next owner's claim the holder word reads 0,
            // which the repair path treats as "no eviction" — safe on both
            // sides of the window.
            self.remote_word_set(home, lck.holder, 0);
            self.shmem().quiet();
        }
        let old = self.shmem().cswap(lck.tail, me, NIL, home);
        if old != me {
            // A successor swapped the tail: wait for it to link itself,
            // then hand the lock over by clearing its local spin word.
            let next_val = self.shmem().wait_until(next, Cmp::Ne, NIL);
            let succ = RemotePtr::unpack(next_val).expect("corrupt qnode next pointer");
            if faults {
                // Transfer ownership before waking the successor so the
                // holder word never lags the actual owner.
                self.remote_word_set(home, lck.holder, succ.image as u64 + 1);
            }
            let succ_locked = SymPtr::from_raw_parts(self.nonsym_abs(succ.offset), 1);
            if faults {
                // A successor that died while queued cannot be handed the
                // lock; the holder word (set to it above) already publishes
                // the transfer, so a live waiter behind it can repair. Wake
                // it to find out that it died waiting.
                let handoff = self.try_remote_word_set(succ.image, succ_locked, 0);
                if matches!(handoff, Err(ConduitError::TargetFailed { .. })) {
                    self.machine().apply_and_notify(succ.image, || ());
                }
                tolerate_dead_target(handoff, "lock handoff", succ.image);
            } else {
                self.remote_word_set(succ.image, succ_locked, 0);
            }
            self.shmem().quiet();
        }
        self.free_nonsym(crate::image::NonSymHandle { offset: q_off, len: QNODE_BYTES })
            .expect("qnode free");
    }

    /// Does this image currently hold `lck[image]`?
    pub fn holds_lock(&self, lck: &CafLock, image: ImageId) -> bool {
        let home = self.pe_of(image);
        self.lock_table.borrow().contains_key(&lck.key(home))
    }

    /// `lock(lck[image], stat=s)`: like [`Self::lock`] but reporting the
    /// Fortran error condition instead of panicking when this image already
    /// holds the lock.
    pub fn lock_stat(&self, lck: &CafLock, image: ImageId) -> Result<(), LockStat> {
        if self.machine().pe_failed(self.pe_of(image)) {
            return Err(LockStat::StatFailedImage);
        }
        if self.holds_lock(lck, image) {
            return Err(LockStat::StatLocked);
        }
        self.lock(lck, image);
        Ok(())
    }

    /// `unlock(lck[image], stat=s)`: error-reporting unlock. A lock homed
    /// on a failed image cannot be released; the held-table entry remains
    /// (and is counted as a leak at teardown).
    pub fn unlock_stat(&self, lck: &CafLock, image: ImageId) -> Result<(), LockStat> {
        if self.machine().pe_failed(self.pe_of(image)) {
            return Err(LockStat::StatFailedImage);
        }
        if !self.holds_lock(lck, image) {
            return Err(LockStat::StatUnlocked);
        }
        self.unlock(lck, image);
        Ok(())
    }
}

/// Fortran lock statement error conditions (ISO_FORTRAN_ENV's STAT_LOCKED /
/// STAT_UNLOCKED).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockStat {
    /// The image already holds this lock (lock statement).
    StatLocked,
    /// The image does not hold this lock (unlock statement).
    StatUnlocked,
    /// The lock's home image has failed (Fortran 2018 STAT_FAILED_IMAGE).
    StatFailedImage,
}

impl std::fmt::Display for LockStat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockStat::StatLocked => write!(f, "STAT_LOCKED: image already holds the lock"),
            LockStat::StatUnlocked => write!(f, "STAT_UNLOCKED: image does not hold the lock"),
            LockStat::StatFailedImage => {
                write!(f, "STAT_FAILED_IMAGE: the lock's home image has failed")
            }
        }
    }
}

impl std::error::Error for LockStat {}

impl From<crate::failure::CafStat> for LockStat {
    fn from(s: crate::failure::CafStat) -> LockStat {
        match s {
            crate::failure::CafStat::FailedImage { .. }
            | crate::failure::CafStat::CommFailure { .. } => LockStat::StatFailedImage,
        }
    }
}

impl From<ConduitError> for LockStat {
    /// One conversion chain for every layer: `ConduitError` (from the
    /// conduit's `submit` path) → [`crate::failure::CafStat`] → `LockStat`,
    /// so `RetriesExhausted`/`TargetFailed`/STAT_FAILED_IMAGE never get
    /// re-interpreted by per-method match arms.
    fn from(e: ConduitError) -> LockStat {
        crate::failure::CafStat::from(e).into()
    }
}

#[cfg(test)]
mod tests {

    use crate::config::{Backend, CafConfig};
    use crate::runtime::{run_caf, run_caf_result};
    use pgas_machine::{generic_smp, titan, Platform};

    fn cfg() -> CafConfig {
        CafConfig::new(Backend::Shmem, Platform::GenericSmp)
    }

    fn mcfg(n: usize) -> pgas_machine::MachineConfig {
        generic_smp(n).with_heap_bytes(1 << 18)
    }

    #[test]
    fn mutual_exclusion_counter_torture() {
        let iters = 100;
        let out = run_caf(mcfg(8), cfg(), |img| {
            let lck = img.lock_var();
            let c = img.coarray::<i64>(&[1]).unwrap();
            img.sync_all();
            for _ in 0..iters {
                img.lock(&lck, 1);
                // Unprotected RMW on image 1 — only correct under the lock.
                let v = c.get_elem(img, 1, &[0]);
                c.put_elem(img, 1, &[0], v + 1);
                img.unlock(&lck, 1);
            }
            img.sync_all();
            c.get_elem(img, 1, &[0])
        });
        for r in out.results {
            assert_eq!(r, 8 * iters);
        }
    }

    #[test]
    fn per_image_instances_are_independent() {
        // Image 1 holds lck[1]; image 2 can still take lck[2] without
        // blocking — the property OpenSHMEM's global locks lack.
        let out = run_caf(mcfg(2), cfg(), |img| {
            let lck = img.lock_var();
            img.sync_all();
            let mine = img.this_image();
            img.lock(&lck, mine);
            img.sync_all(); // both hold simultaneously: no deadlock
            let held = img.holds_lock(&lck, mine);
            img.unlock(&lck, mine);
            img.sync_all();
            held
        });
        assert_eq!(out.results, vec![true, true]);
    }

    #[test]
    fn one_image_can_hold_many_locks() {
        run_caf(mcfg(3), cfg(), |img| {
            let locks = img.lock_vars(5);
            if img.this_image() == 1 {
                for (i, l) in locks.iter().enumerate() {
                    img.lock(l, i % 3 + 1);
                }
                // M held locks -> M live qnodes.
                assert_eq!(img.nonsym_in_use(), 5 * 16);
                for (i, l) in locks.iter().enumerate() {
                    img.unlock(l, i % 3 + 1);
                }
                assert_eq!(img.nonsym_in_use(), 0);
            }
            img.sync_all();
        });
    }

    #[test]
    fn try_lock_contention() {
        let out = run_caf(mcfg(4), cfg(), |img| {
            let lck = img.lock_var();
            img.sync_all();
            let got = img.try_lock(&lck, 1);
            img.sync_all();
            let held_count_probe = got; // collect per-image outcome
            if got {
                img.unlock(&lck, 1);
            }
            img.sync_all();
            // After release, try again: exactly one winner per round.
            let second = img.try_lock(&lck, 1);
            img.sync_all();
            if second {
                img.unlock(&lck, 1);
            }
            img.sync_all();
            (held_count_probe, second)
        });
        assert_eq!(out.results.iter().filter(|r| r.0).count(), 1, "one first-round winner");
        assert_eq!(out.results.iter().filter(|r| r.1).count(), 1, "one second-round winner");
    }

    #[test]
    fn try_lock_on_held_lock_by_self_is_false() {
        run_caf(mcfg(1), cfg(), |img| {
            let lck = img.lock_var();
            assert!(img.try_lock(&lck, 1));
            assert!(!img.try_lock(&lck, 1), "re-acquire by holder must fail");
            img.unlock(&lck, 1);
            assert!(img.try_lock(&lck, 1));
            img.unlock(&lck, 1);
        });
    }

    #[test]
    fn relock_already_held_is_an_error() {
        let err = run_caf_result(mcfg(1), cfg(), |img| {
            let lck = img.lock_var();
            img.lock(&lck, 1);
            img.lock(&lck, 1);
        })
        .unwrap_err();
        assert!(err.message.contains("STAT_LOCKED"), "got: {}", err.message);
    }

    #[test]
    fn unlock_without_holding_is_an_error() {
        let err = run_caf_result(mcfg(1), cfg(), |img| {
            let lck = img.lock_var();
            img.unlock(&lck, 1);
        })
        .unwrap_err();
        assert!(err.message.contains("STAT_UNLOCKED"), "got: {}", err.message);
    }

    #[test]
    fn fifo_handoff_under_queueing() {
        // With everyone queued before the holder releases, MCS hands the
        // lock over in queue order; we verify every image got the lock
        // exactly once per round (fairness proxy: the counter never skips).
        let out = run_caf(mcfg(6), cfg(), |img| {
            let lck = img.lock_var();
            let c = img.coarray::<i64>(&[1]).unwrap();
            img.sync_all();
            let mut observed = Vec::new();
            for _ in 0..10 {
                img.lock(&lck, 1);
                let v = c.get_elem(img, 1, &[0]);
                observed.push(v);
                c.put_elem(img, 1, &[0], v + 1);
                img.unlock(&lck, 1);
            }
            img.sync_all();
            (observed, c.get_elem(img, 1, &[0]))
        });
        for (obs, total) in out.results {
            assert_eq!(total, 60);
            // Each image's observations are strictly increasing.
            assert!(obs.windows(2).all(|w| w[1] > w[0]), "lock handoffs went backwards: {obs:?}");
        }
    }

    #[test]
    fn locks_on_remote_home_images_work_across_nodes() {
        let out = run_caf(
            titan(2, 2).with_heap_bytes(1 << 18),
            CafConfig::new(Backend::Shmem, Platform::Titan),
            |img| {
                let lck = img.lock_var();
                let c = img.coarray::<i64>(&[1]).unwrap();
                img.sync_all();
                // Everyone locks the instance on the *last* image (other node).
                let home = img.num_images();
                for _ in 0..20 {
                    img.lock(&lck, home);
                    let v = c.get_elem(img, home, &[0]);
                    c.put_elem(img, home, &[0], v + 1);
                    img.unlock(&lck, home);
                }
                img.sync_all();
                c.get_elem(img, home, &[0])
            },
        );
        for r in out.results {
            assert_eq!(r, 80);
        }
    }

    #[test]
    fn lock_stat_reports_error_conditions() {
        run_caf(mcfg(2), cfg(), |img| {
            let lck = img.lock_var();
            img.sync_all();
            assert_eq!(img.unlock_stat(&lck, 1), Err(super::LockStat::StatUnlocked));
            assert_eq!(img.lock_stat(&lck, img.this_image()), Ok(()));
            assert_eq!(img.lock_stat(&lck, img.this_image()), Err(super::LockStat::StatLocked));
            assert_eq!(img.unlock_stat(&lck, img.this_image()), Ok(()));
            img.sync_all();
        });
    }

    #[test]
    fn freed_and_reallocated_lock_slot_does_not_alias_held_entry() {
        // Deallocating a held lock variable is a program error per the
        // Fortran standard, but it must not corrupt *other* lock
        // variables: when the symmetric allocator recycles the freed tail
        // word for a new lock variable, the stale held-lock table entry
        // must not make the new lock appear held. Before the generation
        // key, the table was keyed by (offset, home) alone, so the new
        // variable aliased the old entry and `lock` died with a false
        // STAT_LOCKED.
        run_caf(mcfg(2), cfg(), |img| {
            let lck1 = img.lock_var();
            if img.this_image() == 1 {
                img.lock(&lck1, 1);
            }
            img.sync_all();
            // Erroneously deallocate while image 1 still holds it, then
            // allocate afresh: the allocator reuses the slot.
            img.shmem().shfree(lck1.tail_ptr()).unwrap();
            let lck2 = img.lock_var();
            assert_eq!(
                lck2.tail_ptr().offset(),
                lck1.tail_ptr().offset(),
                "repro requires the allocator to recycle the tail slot"
            );
            assert!(!img.holds_lock(&lck2, 1), "new lock variable must start unheld");
            if img.this_image() == 1 {
                img.lock(&lck2, 1);
                img.unlock(&lck2, 1);
            }
            img.sync_all();
        });
    }

    #[test]
    fn qnodes_come_from_nonsym_space_and_are_recycled() {
        run_caf(mcfg(2), cfg(), |img| {
            let lck = img.lock_var();
            img.sync_all();
            let before = img.nonsym_in_use();
            for _ in 0..100 {
                img.lock(&lck, 2);
                img.unlock(&lck, 2);
            }
            assert_eq!(img.nonsym_in_use(), before, "qnode leak");
            img.sync_all();
        });
    }
}
