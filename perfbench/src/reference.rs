//! A fixed host-speed reference, timed on either side of every workload
//! call.
//!
//! The host is shared, and its speed drifts by tens of percent within half
//! an hour. CPU time drifts with wall time, so the drift is in how fast the
//! host runs the process, not in how long the process waits. The reference
//! is a fixed piece of work written here, in the benchmark, so no change to
//! the program can move it. Dividing a call's time by the mean reference
//! time measured just before and just after it cancels the drift, as far
//! as the two meet the same host. A call's CPU time is divided by the pass's CPU time, so
//! that time the host takes from the process (steal) cancels too.
//!
//! The reference is what the simulator's host time is mostly made of: PE
//! threads waking each other through a mutex and a condition variable.
//! Here `threads` threads pass a token round a ring. When the benchmark was
//! sized, this tracked the workloads' wall and CPU time better than array
//! compute, thread spawns or fresh-page faults did.

use crate::host::Usage;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Token passes round the ring in one reference pass (about 55 ms on a
/// 2-vCPU host).
const PASSES: usize = 8_000;

/// Host wall and CPU seconds of one reference pass.
#[derive(Debug, Clone, Copy)]
pub struct RefPass {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl RefPass {
    /// The mean of two passes.
    pub fn mean(self, other: RefPass) -> RefPass {
        RefPass {
            wall_s: (self.wall_s + other.wall_s) / 2.0,
            cpu_s: (self.cpu_s + other.cpu_s) / 2.0,
        }
    }
}

/// One reference pass with `threads` (at least 2) threads. Nothing else
/// runs in the process meanwhile, so its CPU time is the pass's own.
pub fn measure(threads: usize) -> RefPass {
    let threads = threads.max(2);
    let turn = Mutex::new(0usize);
    let cv = Condvar::new();
    let u0 = Usage::now();
    let t = Instant::now();
    std::thread::scope(|s| {
        for me in 0..threads {
            let (turn, cv) = (&turn, &cv);
            s.spawn(move || {
                for _ in 0..PASSES.div_ceil(threads) {
                    let mut t = turn.lock().expect("token lock");
                    while *t % threads != me {
                        t = cv.wait(t).expect("token lock");
                    }
                    *t += 1;
                    cv.notify_all();
                }
            });
        }
    });
    RefPass { wall_s: t.elapsed().as_secs_f64(), cpu_s: Usage::now().since(u0).cpu_s() }
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_pass_hands_the_token_round_every_thread() {
        for threads in [1, 2, 3] {
            let r = super::measure(threads);
            assert!(r.wall_s > 0.0 && r.wall_s < 60.0, "{threads} threads: {r:?}");
            assert!(r.cpu_s > 0.0, "{threads} threads: {r:?}");
        }
    }
}
