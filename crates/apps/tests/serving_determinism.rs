//! Property: the open-loop serving pipeline is deterministic end to end.
//! The arrival schedule is fixed before the run starts, every admission
//! decision branches on the virtual clock, and completions land in
//! virtual-time windows — so for any drawn seed the same config must
//! produce bit-identical request records ([`ReqRecord`], phase tilings
//! included), windowed
//! metrics snapshot and SLO report run to run AND across scheduler worker
//! counts {1, 8} under the deterministic NIC. The property must also hold
//! under a transient-drop fault plan (`drop1`): retries stretch latencies,
//! but they stretch them identically for every worker count.

use caf::{Backend, SanitizerMode};
use caf_apps::serve::{run_serve_outcome, ServeConfig, ServeResult};
use caf_apps::DhtUpdateMode;
use pgas_machine::metrics::MetricsSnapshot;
use pgas_machine::{
    with_forced_metrics, with_forced_mode, with_forced_plan, with_forced_tracing,
    with_forced_workers, FaultPlan, Platform, ReqRecord,
};
use proptest::prelude::*;

/// One traced open-loop run: eight workers + a spare, deterministic NIC,
/// tracing and metrics pinned on, sanitizer pinned off.
fn serving_run(
    workers: usize,
    cfg: ServeConfig,
    plan: FaultPlan,
) -> (ServeResult, Vec<ReqRecord>, MetricsSnapshot, String) {
    with_forced_tracing(true, || {
        with_forced_metrics(true, || {
            with_forced_mode(SanitizerMode::Off, || {
                with_forced_workers(workers, || {
                    with_forced_plan(plan, || {
                        let (r, out) =
                            run_serve_outcome(Platform::Titan, Backend::Shmem, 9, cfg, true);
                        let log = out.req_paths().to_vec();
                        let slo_json = r.slo.to_json().pretty();
                        (r, log, out.metrics, slo_json)
                    })
                })
            })
        })
    })
}

fn small(seed: u64, mode: DhtUpdateMode) -> ServeConfig {
    ServeConfig {
        keyspace: 5_000,
        requests_per_image: 16,
        epochs: 2,
        slots_per_shard: 32,
        mean_gap_ns: 1_200.0,
        mode,
        seed,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn open_loop_serving_reproduces_bit_identically(seed in any::<u64>()) {
        // AM mode only, like every determinism suite in this repo: locked
        // mode's lock-queue order is whoever swaps first on the host, which
        // is exactly the nondeterminism the MCS lock models on purpose.
        let cfg = small(seed, DhtUpdateMode::Am);
        let plan = FaultPlan::new(cfg.seed);
        let (r1, l1, m1, s1) = serving_run(1, cfg, plan.clone());
        let (r8, l8, m8, s8) = serving_run(8, cfg, plan.clone());
        prop_assert_eq!(&l1, &l8, "worker count must be invisible in the request records");
        prop_assert_eq!(&m1, &m8, "worker count must be invisible in the windowed metrics");
        prop_assert_eq!(&s1, &s8, "worker count must be invisible in the SLO report");
        prop_assert_eq!(r1.slo.windows, r8.slo.windows);
        prop_assert_eq!(r1.slo.alerts, r8.slo.alerts);
        prop_assert_eq!(r1.checksum, r8.checksum);
        prop_assert_eq!(r1.completed, r8.completed);
        // Tail attribution rides the same guarantee: per-window profiles,
        // dominant causes and the seeded exemplar reservoirs (ids included)
        // must be bit-identical across worker counts — the sampler's keyed
        // order is offer-order independent by construction.
        let (t1, t8) = (r1.tail.as_ref().unwrap(), r8.tail.as_ref().unwrap());
        prop_assert_eq!(t1, t8, "tail attribution must be bit-identical across worker counts");
        for (p1, p8) in t1.profiles.iter().zip(&t8.profiles) {
            prop_assert_eq!(p1.dominant_cause(), p8.dominant_cause());
            let ids1: Vec<u64> = p1.exemplars.iter().map(|e| e.id).collect();
            let ids8: Vec<u64> = p8.exemplars.iter().map(|e| e.id).collect();
            prop_assert_eq!(ids1, ids8, "exemplar ids must not see the worker count");
        }
        let (_, l1b, m1b, s1b) = serving_run(1, cfg, plan);
        prop_assert_eq!(&l1, &l1b, "same seed must reproduce bit-identically");
        prop_assert_eq!(&m1, &m1b);
        prop_assert_eq!(&s1, &s1b);
        // The records are complete: one per completed request, and the
        // phase tiling always sums back to the end-to-end latency.
        prop_assert_eq!(l1.len() as u64, r1.completed + r1.drained);
        for req in &l1 {
            prop_assert_eq!(req.phase_ns.iter().sum::<u64>(), req.total_ns());
        }
    }

    #[test]
    fn tracing_moves_no_virtual_clock(seed in any::<u64>()) {
        // The tail attributor only exists when tracing is on; the PR 4
        // observability contract says turning it on must not move a single
        // virtual clock — so the windowed metrics, latency percentiles and
        // completion counts of a traced and an untraced run are identical,
        // and only the annotations (dominant causes, exemplars, `tail`)
        // differ.
        let cfg = small(seed, DhtUpdateMode::Am);
        let plan = FaultPlan::new(cfg.seed);
        let (rt, _, mt, _) = serving_run(1, cfg, plan.clone());
        let (ru, mu) = with_forced_tracing(false, || {
            with_forced_metrics(true, || {
                with_forced_mode(SanitizerMode::Off, || {
                    with_forced_workers(1, || {
                        with_forced_plan(plan, || {
                            let (r, out) =
                                run_serve_outcome(Platform::Titan, Backend::Shmem, 9, cfg, true);
                            let m = out.metrics;
                            (r, m)
                        })
                    })
                })
            })
        });
        prop_assert_eq!(&mt, &mu, "tracing must move no virtual clock");
        prop_assert_eq!(rt.checksum, ru.checksum);
        prop_assert_eq!(rt.completed, ru.completed);
        prop_assert_eq!(rt.slo.windows.len(), ru.slo.windows.len());
        for (tw, uw) in rt.slo.windows.iter().zip(&ru.slo.windows) {
            prop_assert_eq!(
                (tw.start_ns, tw.count, tw.violations, tw.p50, tw.p99, tw.p999),
                (uw.start_ns, uw.count, uw.violations, uw.p50, uw.p99, uw.p999)
            );
            prop_assert_eq!(
                (tw.fast_burn_x1000, tw.slow_burn_x1000),
                (uw.fast_burn_x1000, uw.slow_burn_x1000)
            );
        }
        prop_assert!(rt.tail.is_some(), "the traced run attributes its tail");
        prop_assert!(ru.tail.is_none(), "the untraced run has no requests to attribute");
    }

    #[test]
    fn serving_determinism_survives_transient_drops(seed in any::<u64>()) {
        let cfg = small(seed, DhtUpdateMode::Am);
        let plan = FaultPlan::transient_drops(0xFA01, 0.01);
        let (r1, l1, m1, s1) = serving_run(1, cfg, plan.clone());
        let (r8, l8, m8, s8) = serving_run(8, cfg, plan);
        prop_assert_eq!(&l1, &l8, "drop retries must replay identically per worker count");
        prop_assert_eq!(&m1, &m8);
        prop_assert_eq!(&s1, &s8);
        prop_assert_eq!(r1.checksum, r8.checksum);
        prop_assert_eq!(r1.acked_sum, r8.acked_sum);
    }
}
