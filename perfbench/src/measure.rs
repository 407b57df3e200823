//! The two kinds of run: end-to-end metrics with tracing off, and per-layer
//! metrics from separate traced calls (each paired with an untraced call,
//! whose difference is the tracing overhead).

use crate::host::{nproc, peak_rss_mb, Usage};
use crate::reference::{self, RefPass};
use crate::spans::{Span, SpanLog};
use crate::workloads::{input_seed, quantile, Bench, Launch, Oracle, Run, Scale, Workload};
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub nproc: usize,
    pub workers: usize,
    /// Measured workload calls (untraced calls in a traced run).
    pub calls: usize,
    pub setup_launches: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Calls whose virtual outputs differed from the first call's, on a
    /// workload whose virtual outputs must repeat exactly.
    pub nondeterministic: u64,
    pub metrics: Vec<Metric>,
    /// The end-to-end host metrics as measured, before scaling to the
    /// reference (empty for a traced run).
    pub raw: Vec<Metric>,
    /// The traced run's spans (empty for an untraced run).
    pub spans: Option<SpanLog>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What to run and for how long.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Measured workload time, after set-up and one warm-up call.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Worker limit; `None` = the host's core count.
    pub workers: Option<usize>,
}

/// Set-up is launched in a block before every workload call, so that the
/// launches sample the allocator and scheduler states the calls leave
/// behind, not the one state a process happens to start in. A block is at
/// least `SETUP_BLOCK_LAUNCHES` launches and, up to `SETUP_BLOCK_MAX`, at
/// least `SETUP_BLOCK_SECONDS` long.
const SETUP_BLOCK_LAUNCHES: usize = 2;
const SETUP_BLOCK_SECONDS: f64 = 0.15;
const SETUP_BLOCK_MAX: usize = 50;

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn setup_block(bench: &Bench, out: &mut Vec<Launch>) {
    let (min_launches, min_time) = match bench.scale {
        Scale::Full => (SETUP_BLOCK_LAUNCHES, SETUP_BLOCK_SECONDS),
        Scale::Tiny => (1, 0.0),
    };
    let t = Instant::now();
    let mut n = 0;
    while n < min_launches || (t.elapsed().as_secs_f64() < min_time && n < SETUP_BLOCK_MAX) {
        out.push(bench.setup());
        n += 1;
    }
}

/// End-to-end host times are given in *reference seconds*: a wall time
/// divided by the wall time of the reference passes around it (a CPU time
/// by their CPU time), times `REF_S`. That is how long the same work takes
/// on a host where the reference pass takes `REF_S`, so the host's speed
/// drift cancels out. A call is scaled by the mean of the passes just
/// before and just after it; a set-up launch by the pass after its block.
pub const REF_S: f64 = 0.05;

/// A set-up block, then a reference pass. Pushes the block's launches to
/// `launches` and their totals in reference seconds to `scaled`, and
/// returns the reference pass.
fn setup_then_reference(
    bench: &Bench,
    launches: &mut Vec<Launch>,
    scaled: &mut Vec<f64>,
) -> RefPass {
    let from = launches.len();
    setup_block(bench, launches);
    let r = reference::measure(bench.workers);
    scaled.extend(launches[from..].iter().map(|l| l.total_s * REF_S / r.wall_s));
    r
}

/// A timed call: the run plus its host wall and CPU usage.
struct Timed {
    run: Run,
    wall_s: f64,
    usage: Usage,
}

fn timed_call(f: impl FnOnce() -> Run) -> Timed {
    let u0 = Usage::now();
    let t0 = Instant::now();
    let run = f();
    let wall_s = t0.elapsed().as_secs_f64();
    Timed { run, wall_s, usage: Usage::now().since(u0) }
}

/// Each run cycles through this many input sets derived from its seed, and
/// reports each virtual metric as the mean over the sets: one unlucky draw
/// (a burst in the serve tail, say) then moves it a quarter as much.
pub const INPUT_SETS: usize = 4;

/// The run's input sets: one bench and its oracle per derived seed. The
/// oracles are computed here, once, each timed as an `oracle` span.
fn input_sets(opts: Opts, workers: usize, log: Option<&SpanLog>) -> Vec<(Bench, Oracle)> {
    (0..INPUT_SETS)
        .map(|set| {
            let bench = Bench::new(opts.workload, opts.scale, input_seed(opts.seed, set), workers);
            let oracle = match log {
                Some(log) => log.time("oracle", None, || bench.oracle()),
                None => bench.oracle(),
            };
            (bench, oracle)
        })
        .collect()
}

/// Counts the outputs of every call, keeps each input set's first virtual
/// outputs, and flags later calls whose virtual outputs differ from them on
/// a workload where they must repeat.
struct Tally {
    deterministic: bool,
    first: Vec<Option<Run>>,
    attempted: u64,
    failed: u64,
    nondeterministic: u64,
}

impl Tally {
    fn new(workload: Workload) -> Tally {
        Tally {
            deterministic: workload.deterministic(),
            first: vec![None; INPUT_SETS],
            attempted: 0,
            failed: 0,
            nondeterministic: 0,
        }
    }

    fn add(&mut self, set: usize, run: &Run) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        match &self.first[set] {
            None => self.first[set] = Some(run.clone()),
            Some(first) if self.deterministic && first.virtual_digest() != run.virtual_digest() => {
                self.nondeterministic += 1
            }
            Some(_) => {}
        }
    }

    /// Mean of `f` over the input sets' first runs.
    fn virtual_mean(&self, f: impl Fn(&Run) -> f64) -> f64 {
        let runs: Vec<&Run> = self.first.iter().flatten().collect();
        runs.iter().map(|r| f(r)).sum::<f64>() / runs.len().max(1) as f64
    }
}

pub fn run(opts: Opts) -> Report {
    let workers = opts.workers.unwrap_or_else(nproc);
    if opts.trace {
        traced(opts, workers)
    } else {
        end_to_end(opts, workers)
    }
}

/// One warm-up call, then calls for `opts.seconds` (and at least until
/// every input set has run), each after a set-up block and a reference
/// pass, and followed by another reference pass. Every host metric is the
/// median over the timed calls or the set-up launches, each scaled to its
/// reference passes.
fn end_to_end(opts: Opts, workers: usize) -> Report {
    let sets = input_sets(opts, workers, None);
    let mut setups = Vec::new();
    let mut setups_scaled = Vec::new();
    let mut tally = Tally::new(opts.workload);
    let (bench, oracle) = &sets[0];
    setup_then_reference(bench, &mut setups, &mut setups_scaled);
    tally.add(0, &bench.run(oracle, false, None, None));
    let budget = Duration::from_secs_f64(opts.seconds);
    let t = Instant::now();
    // Each timed call with the mean of the reference passes around it.
    let mut calls: Vec<(Timed, RefPass)> = Vec::new();
    while calls.len() + 1 < INPUT_SETS || t.elapsed() < budget {
        let set = (calls.len() + 1) % INPUT_SETS;
        let (bench, oracle) = &sets[set];
        let before = setup_then_reference(bench, &mut setups, &mut setups_scaled);
        let c = timed_call(|| bench.run(oracle, false, None, None));
        // Passes on both sides also follow drift during the call.
        let r = before.mean(reference::measure(workers));
        tally.add(set, &c.run);
        calls.push((c, r));
    }
    let med = |f: &dyn Fn(&Timed, &RefPass) -> f64| {
        median(&calls.iter().map(|(c, r)| f(c, r)).collect::<Vec<_>>())
    };
    // A call's wall and CPU time in reference seconds.
    let wall = |c: &Timed, r: &RefPass| c.wall_s * REF_S / r.wall_s;
    let cpu = |c: &Timed, r: &RefPass| c.usage.cpu_s() * REF_S / r.cpu_s;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let raw = vec![
        m("wall_s", med(&|c, _| c.wall_s), "s"),
        m("setup_s", median(&setups.iter().map(|l| l.total_s).collect::<Vec<_>>()), "s"),
        m("cpu_s", med(&|c, _| c.usage.cpu_s()), "s"),
        m("sim_ops_per_s", med(&|c, _| c.run.sim_ops() as f64 / c.wall_s), "op/s"),
        m("reference_wall_s", med(&|_, r| r.wall_s), "s"),
        m("reference_cpu_s", med(&|_, r| r.cpu_s), "s"),
    ];
    let metrics = vec![
        m("wall_s", med(&wall), "s"),
        m("setup_s", median(&setups_scaled), "s"),
        m("cpu_s", med(&cpu), "s"),
        m("sim_ops_per_s", med(&|c, r| c.run.sim_ops() as f64 / wall(c, r)), "op/s"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
        m("virt_makespan_ms", tally.virtual_mean(|r| r.makespan_ns as f64 / 1e6), "ms"),
        m("virt_req_p50_us", tally.virtual_mean(|r| r.req_p50_ns / 1e3), "us"),
        m("virt_req_p999_us", tally.virtual_mean(|r| r.req_p999_ns / 1e3), "us"),
    ];
    Report {
        workload: opts.workload,
        seed: opts.seed,
        nproc: nproc(),
        workers,
        calls: calls.len(),
        setup_launches: setups.len(),
        attempted: tally.attempted,
        failed: tally.failed + tally.nondeterministic,
        nondeterministic: tally.nondeterministic,
        metrics,
        raw,
        spans: None,
    }
}

/// Pairs of one untraced and one traced call on the same input set, each
/// after a set-up block, for `opts.seconds`. Host-time metrics are medians
/// over pairs; counts come from the last traced call.
fn traced(opts: Opts, workers: usize) -> Report {
    let log = SpanLog::new(opts.workload.name());
    let sets = input_sets(opts, workers, Some(&log));
    let serial_s = quantile(&log.durations("oracle"), 0.5) * 1e-9;
    let mut setups = Vec::new();
    let mut tally = Tally::new(opts.workload);
    let budget = Duration::from_secs_f64(opts.seconds);
    let t = Instant::now();
    let mut plain: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let mut trace_rss_mb = 0.0;
    while plain.is_empty() || t.elapsed() < budget {
        let set = plain.len() % INPUT_SETS;
        let (bench, oracle) = &sets[set];
        log.time("setup", None, || setup_block(bench, &mut setups));
        let p = timed_call(|| bench.run(oracle, false, None, None));
        let rss_before = peak_rss_mb();
        let id = log.id();
        let start_ns = log.now_ns();
        let tr = timed_call(|| bench.run(oracle, true, Some(&log), Some(id)));
        let end_ns = log.now_ns();
        log.push(Span { id, parent: None, name: "workload.traced", pe: None, start_ns, end_ns });
        if traced.is_empty() {
            trace_rss_mb = peak_rss_mb() - rss_before;
        }
        tally.add(set, &p.run);
        tally.add(set, &tr.run);
        plain.push(p);
        traced.push(tr);
    }
    let last = &traced.last().expect("at least one traced call").run;
    let pair_med = |f: &dyn Fn(&Timed, &Timed) -> f64| {
        median(&plain.iter().zip(&traced).map(|(p, t)| f(p, t)).collect::<Vec<_>>())
    };
    let plain_med = |f: &dyn Fn(&Timed) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let setup_med = |f: &dyn Fn(&Launch) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let us = |name: &str, q: f64| quantile(&log.durations(name), q) / 1e3;
    let ring = opts.workload == Workload::RmaRing;
    let ring_only = |v: f64| if ring { v } else { 0.0 };
    let sim_ops = last.sim_ops().max(1) as f64;
    let nic_msgs: u64 = last.nics.iter().map(|n| n.messages).sum();
    let nprocs = nproc() as f64;
    let [compute, wire, contention, sync] = last.critpath_frac;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("machine.launch_ms", setup_med(&|l| l.launch_s) * 1e3, "ms"),
        m("machine.join_ms", setup_med(&|l| l.join_s) * 1e3, "ms"),
        m(
            "machine.cpu_sys_frac",
            plain_med(&|c| c.usage.sys_s / c.usage.cpu_s().max(1e-9)),
            "fraction",
        ),
        m(
            "machine.idle_frac",
            plain_med(&|c| 1.0 - c.usage.cpu_s() / (nprocs * c.wall_s)),
            "fraction",
        ),
        m(
            "machine.ctx_switches_per_op",
            plain_med(&|c| c.usage.ctx_switches as f64 / c.run.sim_ops().max(1) as f64),
            "count/op",
        ),
        m("machine.nic_msgs", nic_msgs as f64, "count"),
        m("machine.nic_bytes", last.nics.iter().map(|n| n.bytes).sum::<u64>() as f64, "B"),
        m(
            "machine.nic_busy_ms_virt",
            last.nics.iter().map(|n| n.busy_ns).sum::<u64>() as f64 / 1e6,
            "ms",
        ),
        m("machine.heap_bytes", (last.stats.bytes_put + last.stats.bytes_get) as f64, "B"),
        m(
            "machine.critical_path_ms",
            median(&traced.iter().map(|t| t.run.critical_path_s).collect::<Vec<_>>()) * 1e3,
            "ms",
        ),
        m(
            "machine.req_paths_ms",
            median(&traced.iter().map(|t| t.run.req_paths_s).collect::<Vec<_>>()) * 1e3,
            "ms",
        ),
        m("machine.trace_overhead_frac", pair_med(&|p, t| t.wall_s / p.wall_s - 1.0), "fraction"),
        m("machine.trace_overhead_s", pair_med(&|p, t| t.wall_s - p.wall_s), "s"),
        m("machine.trace_rss_mb", trace_rss_mb, "MB"),
        m("openshmem.init_ms", ring_only(setup_med(&|l| l.shmem_init_s) * 1e3), "ms"),
        m("openshmem.put_nbi_us_p50", us("openshmem.put_nbi", 0.5), "us"),
        m("openshmem.put_nbi_us_p99", us("openshmem.put_nbi", 0.99), "us"),
        m("openshmem.get_us_p50", us("openshmem.get", 0.5), "us"),
        m("openshmem.get_us_p99", us("openshmem.get", 0.99), "us"),
        m("openshmem.quiet_us_p50", us("openshmem.quiet", 0.5), "us"),
        m("openshmem.quiet_us_p99", us("openshmem.quiet", 0.99), "us"),
        m("openshmem.barrier_all_us_p50", us("openshmem.barrier_all", 0.5), "us"),
        m("openshmem.barrier_all_us_p99", us("openshmem.barrier_all", 0.99), "us"),
        m("openshmem.round_ms_p50", us("ring.round", 0.5) / 1e3, "ms"),
        m("openshmem.round_ms_p90", us("ring.round", 0.9) / 1e3, "ms"),
        m("conduit.ops", sim_ops, "count"),
        m("conduit.ams", last.stats.ams as f64, "count"),
        m("conduit.msgs_per_op", nic_msgs as f64 / sim_ops, "msg/op"),
        m(
            "caf.rma_ops_per_iter",
            if opts.workload == Workload::Himeno {
                last.stats.rma_ops() as f64 / last.units.max(1) as f64
            } else {
                0.0
            },
            "op/iter",
        ),
        m(
            "caf.lock_amos_per_update",
            if opts.workload == Workload::DhtLocked {
                last.stats.amos as f64 / last.units.max(1) as f64
            } else {
                0.0
            },
            "op/update",
        ),
        m(
            "apps.himeno.serial_s",
            if opts.workload == Workload::Himeno { serial_s } else { 0.0 },
            "s",
        ),
        m("apps.serve.queue_us_p999", last.queue_p999_ns / 1e3, "us"),
        m("critpath.compute_frac", compute, "fraction"),
        m("critpath.wire_frac", wire, "fraction"),
        m("critpath.nic_contention_frac", contention, "fraction"),
        m("critpath.synchronization_frac", sync, "fraction"),
    ];
    Report {
        workload: opts.workload,
        seed: opts.seed,
        nproc: nproc(),
        workers,
        calls: plain.len(),
        setup_launches: setups.len(),
        attempted: tally.attempted,
        failed: tally.failed + tally.nondeterministic,
        nondeterministic: tally.nondeterministic,
        metrics,
        raw: Vec::new(),
        spans: Some(log),
    }
}
