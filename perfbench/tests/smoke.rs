//! Tiny-size smoke runs of every workload: the emitted metrics match
//! `BENCHMARK.json` by name and unit, every output check passes, and the
//! virtual outputs do not depend on the worker limit or on repetition.

use perfbench::measure::{self, Opts};
use perfbench::workloads::{Bench, Scale, Workload, ALL};
use pgas_machine::json::{parse, Json};

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let entries = doc.get(list).and_then(Json::as_array).expect("metric list");
    entries
        .iter()
        .map(|e| {
            let field =
                |k: &str| e.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: Workload, seed: u64, trace: bool, workers: usize) -> Opts {
    Opts { workload, seed, seconds: 0.0, trace, scale: Scale::Tiny, workers: Some(workers) }
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(list);
        let mut moved = vec![false; want.len()];
        for w in ALL {
            let r = measure::run(tiny(w, 3, trace, 2));
            assert!(r.correct(), "{}: {} of {} outputs failed", w.name(), r.failed, r.attempted);
            assert!(r.attempted >= 1);
            let got: Vec<(String, String)> =
                r.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
            assert_eq!(got, want, "{} {list}", w.name());
            assert!(r.metrics.iter().all(|m| m.value.is_finite()), "{}: {:?}", w.name(), r.metrics);
            if !trace {
                assert!(r.metrics.iter().all(|m| m.value > 0.0), "{}: {:?}", w.name(), r.metrics);
            }
            for (seen, m) in moved.iter_mut().zip(&r.metrics) {
                *seen |= m.value != 0.0;
            }
        }
        // A per-layer metric may read 0 on workloads it does not apply to,
        // but a metric that is 0 on every workload measures nothing.
        let dead: Vec<&str> =
            want.iter().zip(&moved).filter(|(_, &m)| !m).map(|(w, _)| w.0.as_str()).collect();
        assert!(dead.is_empty(), "{list}: 0 on every workload: {dead:?}");
    }
}

#[test]
fn virtual_outputs_are_identical_at_worker_limits_1_and_2() {
    for w in ALL {
        let run = |workers| {
            let b = Bench::new(w, Scale::Tiny, 5, workers);
            let run = b.run(&b.oracle(), false, None, None);
            assert_eq!(run.failed, 0, "{}", w.name());
            run
        };
        let (one, two) = (run(1), run(2));
        if w.deterministic() {
            assert_eq!(one.virtual_digest(), two.virtual_digest(), "{}", w.name());
        } else {
            // First-come NIC grants may order contended transfers either
            // way; the work done may not change.
            assert_eq!(one.stats, two.stats, "{}", w.name());
        }
    }
}

#[test]
fn a_second_seed_passes_every_check_and_repeats_exactly() {
    for w in ALL {
        let b = Bench::new(w, Scale::Tiny, 77, 2);
        let oracle = b.oracle();
        let first = b.run(&oracle, false, None, None);
        let again = b.run(&oracle, false, None, None);
        assert_eq!((first.failed, again.failed), (0, 0), "{}", w.name());
        if w.deterministic() {
            assert_eq!(first.virtual_digest(), again.virtual_digest(), "{}", w.name());
            let other = Bench::new(w, Scale::Tiny, 78, 2);
            let other = other.run(&other.oracle(), false, None, None);
            assert_ne!(first.virtual_digest(), other.virtual_digest(), "{}: seed unused", w.name());
        }
    }
}

#[test]
fn traced_runs_keep_their_spans() {
    let r = measure::run(tiny(Workload::RmaRing, 1, true, 2));
    let spans = r.spans.expect("traced run keeps spans").spans();
    for name in ["pgas_machine.run", "pe.body", "openshmem.put_nbi", "ring.round", "setup"] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    assert!(spans.iter().filter_map(|s| s.parent).all(|p| ids.contains(&p)), "dangling parent");
}
