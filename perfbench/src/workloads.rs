//! The four workloads, their inputs (derived from the benchmark seed), the
//! output checks, and the init-only launch that `setup_s` times.
//!
//! Every call goes through the layers' public entry points only:
//! `pgas_machine::run` + `openshmem::Shmem` for the ring, `caf::run_caf` for
//! the init-only launches of the applications, and the `caf_apps`
//! `run_*_outcome` functions for the applications themselves. Each result is
//! reduced at once to a [`Run`] read from the returned `SimOutcome`.

use crate::spans::{PeSpans, Span, SpanLog};
use caf::{run_caf, Backend, CafConfig};
use caf_apps::dht::expected_checksum;
use caf_apps::{
    expected_write_sum, run_dht_outcome, run_himeno_outcome, run_serve_outcome, serial_gosa,
    DhtConfig, DhtResult, DhtUpdateMode, HimenoConfig, ServeConfig, ServeResult,
};
use openshmem::{Shmem, ShmemConfig};
use pgas_conduit::ConduitProfile;
use pgas_machine::stats::StatsSnapshot;
use pgas_machine::{
    with_forced_aggregation, with_forced_metrics, with_forced_plan, with_forced_tracing,
    with_forced_workers, FaultPlan, HistogramEntry, MachineConfig, MetricsSnapshot, NicSnapshot,
    PathCategory, Platform, SimOutcome,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RmaRing,
    Himeno,
    Serve,
    DhtLocked,
}

pub const ALL: [Workload; 4] =
    [Workload::RmaRing, Workload::Himeno, Workload::Serve, Workload::DhtLocked];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::RmaRing => "rma_ring",
            Workload::Himeno => "himeno",
            Workload::Serve => "serve",
            Workload::DhtLocked => "dht_locked",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs under the virtual-time NIC arbiter, so its
    /// virtual outputs are a pure function of config and seed. Himeno's
    /// entry point takes no NIC-order option and grants first come.
    pub fn deterministic(self) -> bool {
        self != Workload::Himeno
    }
}

/// `Full` is what the benchmark measures; `Tiny` is the smoke-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Ring geometry: `nodes` × `cores` PEs on Stampede, `rounds` rounds.
#[derive(Debug, Clone, Copy)]
struct RingSize {
    nodes: usize,
    cores: usize,
    rounds: usize,
}

/// Each ring PE puts to the PE this far ahead: one full node away.
const RING_STRIDE: usize = 16;
/// Ring payloads are 4..=12 words (32..96 B, mean 64 B), drawn per PE and
/// round from the seed, so the seed shapes the virtual schedule too.
const RING_MIN_WORDS: usize = 4;
const RING_MAX_WORDS: usize = 12;
/// In traced ring runs, PEs whose id is a multiple of this record op spans.
const RING_SPAN_EVERY: usize = 8;

/// One workload at one scale, seed and worker limit.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    /// At most this many PE threads are runnable at once.
    pub workers: usize,
}

/// The host-side answer a workload's output is checked against, computed
/// once per process.
#[derive(Debug, Clone, Copy)]
pub enum Oracle {
    /// The ring's expected values are a function of the seed alone.
    Ring,
    /// `serial_gosa`'s final residual.
    Himeno { gosa: f64 },
    /// `expected_write_sum` and the number of scheduled requests.
    Serve { write_sum: u64, scheduled: u64 },
    /// `dht::expected_checksum`.
    Dht { checksum: u64 },
}

/// Host times of one init-only launch, seconds.
#[derive(Debug, Clone, Copy)]
pub struct Launch {
    /// The whole `run` / `run_caf` call.
    pub total_s: f64,
    /// From the call to the first PE body entry.
    pub launch_s: f64,
    /// From the last PE body exit to the call returning.
    pub join_s: f64,
    /// Median over PEs of `Shmem::new` (ring only; 0 otherwise).
    pub shmem_init_s: f64,
}

/// What one workload call produced, reduced from its `SimOutcome`.
#[derive(Debug, Clone)]
pub struct Run {
    /// Largest final PE virtual clock, ns.
    pub makespan_ns: u64,
    /// Virtual latency of the workload's request, ns: a served request
    /// (`serve`), one PE's `put_nbi` + `quiet` (`rma_ring`), or an image's
    /// mean virtual time per iteration (`himeno`) or per update
    /// (`dht_locked`), whose entry points expose no single request.
    pub req_p50_ns: f64,
    pub req_p999_ns: f64,
    pub stats: StatsSnapshot,
    pub nics: Vec<NicSnapshot>,
    /// Outputs checked, and how many of them were wrong or missing.
    pub attempted: u64,
    pub failed: u64,
    /// Useful work done: ring gets, Himeno iterations, served requests or
    /// DHT updates.
    pub units: u64,
    /// Merged `serve_queue_ns` p99.9 (serve only), ns.
    pub queue_p999_ns: f64,
    /// Traced runs only: the critical path's compute, wire, NIC contention
    /// and synchronization shares of the makespan, and the host time of
    /// `critical_path()` and `req_paths()`.
    pub critpath_frac: [f64; 4],
    pub critical_path_s: f64,
    pub req_paths_s: f64,
}

impl Run {
    /// Simulated remote operations.
    pub fn sim_ops(&self) -> u64 {
        self.stats.puts + self.stats.gets + self.stats.amos + self.stats.ams
    }

    /// The virtual outputs that must repeat exactly for a fixed seed.
    pub fn virtual_digest(&self) -> (u64, u64, u64, u64) {
        (self.makespan_ns, self.req_p50_ns.to_bits(), self.req_p999_ns.to_bits(), self.sim_ops())
    }
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A value derived from `seed` for `salt`. The seed is mixed before the salt
/// goes in, so no two (seed, salt) pairs collide by XOR.
fn derive(seed: u64, salt: u64) -> u64 {
    mix(mix(seed) ^ salt)
}

/// The seed of input set `set` of a run with benchmark seed `seed`.
pub fn input_seed(seed: u64, set: usize) -> u64 {
    derive(seed, 0x1_0000 + set as u64)
}

/// Payload length in words of `pe`'s put in `round`.
pub fn ring_words(seed: u64, pe: usize, round: usize) -> usize {
    let span = (RING_MAX_WORDS - RING_MIN_WORDS + 1) as u64;
    RING_MIN_WORDS + (derive(seed, ((pe as u64) << 24) ^ round as u64) % span) as usize
}

/// Word `word` of `pe`'s payload in `round`.
pub fn ring_value(seed: u64, pe: usize, round: usize, word: usize) -> u64 {
    derive(seed.rotate_left(17), ((pe as u64) << 32) ^ ((round as u64) << 8) ^ word as u64)
}

fn ring_size(scale: Scale) -> RingSize {
    match scale {
        Scale::Full => RingSize { nodes: 64, cores: 16, rounds: 12 },
        Scale::Tiny => RingSize { nodes: 2, cores: 16, rounds: 3 },
    }
}

/// Himeno has no random input; the seed trims the grid's i extent by 0..=2
/// cells (under 2% of the work), so the halo pencils, and with them the
/// virtual op latencies, differ between seeds.
fn himeno_size(scale: Scale, seed: u64) -> (usize, HimenoConfig) {
    let (images, cfg) = match scale {
        Scale::Full => (64, HimenoConfig { iters: 4, ..HimenoConfig::size_m() }),
        Scale::Tiny => (4, HimenoConfig::tiny()),
    };
    (images, HimenoConfig { imax: cfg.imax - (derive(seed, 0x41) % 3) as usize, ..cfg })
}

fn serve_size(scale: Scale, seed: u64) -> (usize, ServeConfig) {
    let seed = derive(seed, 0x5E21);
    match scale {
        Scale::Full => (
            80,
            ServeConfig {
                keyspace: 2_000_000,
                zipf_exponent: 1.1,
                read_fraction: 0.5,
                mean_gap_ns: 40_000.0,
                requests_per_image: 1_000,
                epochs: 4,
                slots_per_shard: 2_048,
                seed,
                mode: DhtUpdateMode::Am,
                window_ns: 10_000_000,
                slo_threshold_ns: 150_000,
                slo_objective: 0.999,
            },
        ),
        Scale::Tiny => (
            9,
            ServeConfig {
                keyspace: 10_000,
                requests_per_image: 40,
                epochs: 4,
                slots_per_shard: 64,
                mean_gap_ns: 1_500.0,
                seed,
                ..ServeConfig::default()
            },
        ),
    }
}

fn dht_size(scale: Scale, seed: u64) -> (usize, DhtConfig) {
    let (images, slots_per_image, updates_per_image) = match scale {
        Scale::Full => (64, 1_024, 256),
        Scale::Tiny => (8, 64, 16),
    };
    let cfg = DhtConfig {
        slots_per_image,
        updates_per_image,
        seed: derive(seed, 0xD47),
        locks_per_image: 1,
        update: DhtUpdateMode::Locked,
    };
    (images, cfg)
}

/// The machine the applications' entry points build for `images` images:
/// 16 cores per node, the heap rounded up to a power of two.
fn app_machine(platform: Platform, images: usize, heap: usize) -> MachineConfig {
    let cores = 16.min(images);
    platform.config(images.div_ceil(cores), cores).with_heap_bytes(heap.next_power_of_two())
}

// ---------------------------------------------------------------------------
// Output checks: each returns the number of wrong or missing outputs.
// ---------------------------------------------------------------------------

/// Rounds whose `get` did not return what that PE's `put_nbi` wrote.
/// `got[pe]` holds the PE's fetched words of every round, concatenated.
pub fn ring_failures(seed: u64, rounds: usize, got: &[Vec<u64>]) -> u64 {
    let mut failed = 0;
    for (pe, words) in got.iter().enumerate() {
        let mut at = 0;
        for round in 0..rounds {
            let len = ring_words(seed, pe, round);
            let ok = words.get(at..at + len).is_some_and(|w| {
                w.iter().enumerate().all(|(i, &v)| v == ring_value(seed, pe, round, i))
            });
            failed += u64::from(!ok);
            at += len;
        }
        failed += u64::from(at != words.len());
    }
    failed
}

/// 1 unless `gosa` equals the serial oracle within 1e-6 relative.
pub fn himeno_failures(gosa: f64, serial: f64) -> u64 {
    let rel = (gosa - serial).abs() / serial.abs();
    u64::from(rel.is_nan() || rel > 1e-6)
}

/// Requests not completed in line (dropped, parked or missing), plus one
/// for each broken table invariant: `checksum == acked_sum` and
/// `acked_sum == expected_write_sum`.
pub fn serve_failures(r: &ServeResult, scheduled: u64, write_sum: u64) -> u64 {
    r.completed.abs_diff(scheduled)
        + r.dropped
        + r.drained
        + u64::from(r.checksum != r.acked_sum)
        + u64::from(r.acked_sum != write_sum)
}

/// Skipped updates, plus one if the table checksum misses the oracle.
pub fn dht_failures(r: &DhtResult, checksum: u64) -> u64 {
    r.skipped as u64 + u64::from(r.checksum != checksum)
}

// ---------------------------------------------------------------------------
// Reductions of a SimOutcome.
// ---------------------------------------------------------------------------

/// Every histogram named `name` (all PEs and peers) merged into one.
fn merged_histogram(m: &MetricsSnapshot, name: &str) -> HistogramEntry {
    let mut buckets: BTreeMap<u8, (u64, u64)> = BTreeMap::new();
    let mut h = HistogramEntry {
        name: "merged",
        pe: 0,
        peer_node: None,
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
        buckets: Vec::new(),
    };
    for e in m.histograms.iter().filter(|e| e.name == name) {
        h.count += e.count;
        h.sum += e.sum;
        h.min = h.min.min(e.min);
        h.max = h.max.max(e.max);
        for &(i, c, s) in &e.buckets {
            let b = buckets.entry(i).or_default();
            b.0 += c;
            b.1 += s;
        }
    }
    h.buckets = buckets.into_iter().map(|(i, (c, s))| (i, c, s)).collect();
    h
}

/// Each image's virtual time (`elapsed` ns) per unit of work, ascending.
fn per_unit_ns(elapsed: impl Iterator<Item = u64>, units: usize) -> Vec<u64> {
    let mut v: Vec<u64> = elapsed.map(|ns| ns / units.max(1) as u64).collect();
    v.sort_unstable();
    v
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The fields every workload reads the same way. When the run was traced,
/// the critical path and request paths are walked here, each timed as a
/// span.
fn reduce<R>(out: &SimOutcome<R>, traced: bool, log: Option<&SpanLog>, parent: Option<u64>) -> Run {
    let mut run = Run {
        makespan_ns: out.makespan_ns(),
        req_p50_ns: 0.0,
        req_p999_ns: 0.0,
        stats: out.stats,
        nics: out.nics.clone(),
        attempted: 0,
        failed: 0,
        units: 0,
        queue_p999_ns: 0.0,
        critpath_frac: [0.0; 4],
        critical_path_s: 0.0,
        req_paths_s: 0.0,
    };
    if traced {
        let t = Instant::now();
        let report = timed(log, "machine.critical_path", parent, || out.critical_path());
        run.critical_path_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let paths = timed(log, "machine.req_paths", parent, || out.req_paths());
        run.req_paths_s = t.elapsed().as_secs_f64();
        std::hint::black_box(paths);
        let makespan = report.makespan_ns.max(1) as f64;
        let totals = report.totals_ns();
        let share = |c: PathCategory| {
            totals.iter().find(|(k, _)| *k == c).map_or(0.0, |(_, ns)| *ns as f64 / makespan)
        };
        run.critpath_frac = [
            share(PathCategory::Compute),
            share(PathCategory::Wire),
            share(PathCategory::NicContention),
            share(PathCategory::Synchronization),
        ];
    }
    run
}

fn timed<R>(
    log: Option<&SpanLog>,
    name: &'static str,
    parent: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    match log {
        Some(log) => log.time(name, parent, f),
        None => f(),
    }
}

/// Run `f` under the benchmark's machine settings: the worker limit, and
/// tracing forced on or off. A traced call also forces metrics on; an
/// untraced one leaves them at the entry point's own choice.
fn scoped<R>(workers: usize, traced: bool, f: impl FnOnce() -> R) -> R {
    with_forced_workers(workers, || {
        with_forced_tracing(traced, || if traced { with_forced_metrics(true, f) } else { f() })
    })
}

/// Records the host time of the first PE body entry and the last body exit
/// of one launch, relative to the launch call.
struct LaunchClock {
    start: Instant,
    first_entry_ns: AtomicU64,
    last_exit_ns: AtomicU64,
}

impl LaunchClock {
    fn new() -> LaunchClock {
        LaunchClock {
            start: Instant::now(),
            first_entry_ns: AtomicU64::new(u64::MAX),
            last_exit_ns: AtomicU64::new(0),
        }
    }

    fn since_start_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn enter(&self) {
        self.first_entry_ns.fetch_min(self.since_start_ns(), Ordering::Relaxed);
    }

    fn exit(&self) {
        self.last_exit_ns.fetch_max(self.since_start_ns(), Ordering::Relaxed);
    }

    fn finish(self, shmem_init_s: f64) -> Launch {
        let total_ns = self.since_start_ns();
        let entry = self.first_entry_ns.load(Ordering::Relaxed);
        let exit = self.last_exit_ns.load(Ordering::Relaxed);
        Launch {
            total_s: total_ns as f64 * 1e-9,
            launch_s: entry as f64 * 1e-9,
            join_s: total_ns.saturating_sub(exit) as f64 * 1e-9,
            shmem_init_s,
        }
    }
}

// ---------------------------------------------------------------------------
// The workloads.
// ---------------------------------------------------------------------------

impl Bench {
    pub fn new(workload: Workload, scale: Scale, seed: u64, workers: usize) -> Bench {
        Bench { workload, scale, seed, workers }
    }

    /// Compute the oracle the outputs are checked against.
    pub fn oracle(&self) -> Oracle {
        match self.workload {
            Workload::RmaRing => Oracle::Ring,
            Workload::Himeno => {
                let (_, cfg) = himeno_size(self.scale, self.seed);
                let gosa = *serial_gosa(&cfg).last().expect("Himeno runs at least one iteration");
                Oracle::Himeno { gosa }
            }
            Workload::Serve => {
                let (images, cfg) = serve_size(self.scale, self.seed);
                let workers = images - 1;
                Oracle::Serve {
                    write_sum: expected_write_sum(workers, &cfg),
                    scheduled: (workers * cfg.requests_per_image) as u64,
                }
            }
            Workload::DhtLocked => {
                let (images, cfg) = dht_size(self.scale, self.seed);
                Oracle::Dht { checksum: expected_checksum(images, &cfg) }
            }
        }
    }

    fn ring_machine(&self) -> MachineConfig {
        let s = ring_size(self.scale);
        Platform::Stampede
            .config(s.nodes, s.cores)
            .with_heap_bytes(1 << 15)
            .with_deterministic_nic()
    }

    /// One launch of the workload's machine and runtime config whose body
    /// only initialises (the runtime, the coarray, shard or ring buffer
    /// allocation) and passes one barrier.
    pub fn setup(&self) -> Launch {
        scoped(self.workers, false, || match self.workload {
            Workload::RmaRing => {
                let clock = LaunchClock::new();
                let out = pgas_machine::run(self.ring_machine(), |pe| {
                    clock.enter();
                    let t = Instant::now();
                    let shmem = Shmem::new(pe, ShmemConfig::new(ConduitProfile::mvapich_shmem()));
                    let init_s = t.elapsed().as_secs_f64();
                    shmem.shmalloc::<u64>(RING_MAX_WORDS).expect("ring buffer fits the heap");
                    shmem.barrier_all();
                    clock.exit();
                    init_s
                });
                let mut init: Vec<u64> = out.results.iter().map(|s| (s * 1e9) as u64).collect();
                init.sort_unstable();
                clock.finish(quantile(&init, 0.5) * 1e-9)
            }
            Workload::Himeno => {
                let (images, cfg) = himeno_size(self.scale, self.seed);
                let ghost_bytes = cfg.imax * 2 * cfg.kmax * 4;
                let mcfg = app_machine(Platform::CrayXc30, images, 4 * ghost_bytes + (1 << 16));
                let caf =
                    CafConfig::new(Backend::Shmem, Platform::CrayXc30).with_nonsym_bytes(4096);
                let clock = LaunchClock::new();
                run_caf(mcfg, caf, |img| {
                    clock.enter();
                    img.coarray::<f32>(&[cfg.imax, 2, cfg.kmax]).expect("ghost planes fit");
                    img.sync_all();
                    clock.exit();
                });
                clock.finish(0.0)
            }
            Workload::Serve => {
                let (images, cfg) = serve_size(self.scale, self.seed);
                let mcfg =
                    app_machine(Platform::Titan, images, cfg.slots_per_shard * 8 + (1 << 16))
                        .with_metrics(true)
                        .with_metrics_window(cfg.window_ns)
                        .with_deterministic_nic();
                let caf = CafConfig::new(Backend::Shmem, Platform::Titan).with_nonsym_bytes(4096);
                let clock = LaunchClock::new();
                with_forced_aggregation(true, || {
                    with_forced_plan(FaultPlan::new(cfg.seed), || {
                        run_caf(mcfg, caf, |img| {
                            clock.enter();
                            img.coarray::<u64>(&[cfg.slots_per_shard]).expect("shard fits");
                            img.lock_vars(1);
                            img.sync_all();
                            clock.exit();
                        })
                    })
                });
                clock.finish(0.0)
            }
            Workload::DhtLocked => {
                let (images, cfg) = dht_size(self.scale, self.seed);
                let mcfg =
                    app_machine(Platform::Titan, images, cfg.slots_per_image * 8 + (1 << 16))
                        .with_deterministic_nic();
                let caf = CafConfig::new(Backend::Shmem, Platform::Titan).with_nonsym_bytes(4096);
                let clock = LaunchClock::new();
                run_caf(mcfg, caf, |img| {
                    clock.enter();
                    img.coarray::<u64>(&[cfg.slots_per_image]).expect("table fits");
                    img.lock_vars(cfg.locks_per_image);
                    img.sync_all();
                    clock.exit();
                });
                clock.finish(0.0)
            }
        })
    }

    /// One call of the workload, its outputs checked against `oracle`.
    /// `traced` turns the machine's tracing and metrics on; `log` (if any)
    /// receives the benchmark's spans, under `parent`.
    pub fn run(
        &self,
        oracle: &Oracle,
        traced: bool,
        log: Option<&SpanLog>,
        parent: Option<u64>,
    ) -> Run {
        match (self.workload, *oracle) {
            (Workload::RmaRing, Oracle::Ring) => self.ring(traced, log, parent),
            (Workload::Himeno, Oracle::Himeno { gosa }) => {
                let (images, cfg) = himeno_size(self.scale, self.seed);
                let (result, out) = scoped(self.workers, traced, || {
                    timed(log, "caf_apps.run_himeno_outcome", parent, || {
                        run_himeno_outcome(Platform::CrayXc30, Backend::Shmem, None, images, cfg)
                    })
                });
                let mut run = reduce(&out, traced, log, parent);
                let per_iter = per_unit_ns(out.results.iter().map(|r| r.0), cfg.iters);
                run.req_p50_ns = quantile(&per_iter, 0.5);
                run.req_p999_ns = quantile(&per_iter, 0.999);
                run.attempted = 1;
                run.failed = himeno_failures(result.gosa, gosa);
                run.units = cfg.iters as u64;
                run
            }
            (Workload::Serve, Oracle::Serve { write_sum, scheduled }) => {
                let (images, cfg) = serve_size(self.scale, self.seed);
                let (result, out) = scoped(self.workers, traced, || {
                    with_forced_aggregation(true, || {
                        with_forced_plan(FaultPlan::new(cfg.seed), || {
                            timed(log, "caf_apps.run_serve_outcome", parent, || {
                                run_serve_outcome(
                                    Platform::Titan,
                                    Backend::Shmem,
                                    images,
                                    cfg,
                                    true,
                                )
                            })
                        })
                    })
                });
                let mut run = reduce(&out, traced, log, parent);
                let lat = merged_histogram(&out.metrics, "serve_latency_ns");
                run.req_p50_ns = lat.percentile(0.5) as f64;
                run.req_p999_ns = lat.percentile(0.999) as f64;
                run.queue_p999_ns =
                    merged_histogram(&out.metrics, "serve_queue_ns").percentile(0.999) as f64;
                run.attempted = scheduled;
                run.failed = serve_failures(&result, scheduled, write_sum);
                run.units = result.completed;
                run
            }
            (Workload::DhtLocked, Oracle::Dht { checksum }) => {
                let (images, cfg) = dht_size(self.scale, self.seed);
                let (result, out) = scoped(self.workers, traced, || {
                    timed(log, "caf_apps.run_dht_outcome", parent, || {
                        run_dht_outcome(Platform::Titan, Backend::Shmem, images, cfg, true)
                    })
                });
                let mut run = reduce(&out, traced, log, parent);
                let per_update =
                    per_unit_ns(out.results.iter().map(|r| r.0), cfg.updates_per_image);
                run.req_p50_ns = quantile(&per_update, 0.5);
                run.req_p999_ns = quantile(&per_update, 0.999);
                run.attempted = result.updates_total as u64;
                run.failed = dht_failures(&result, checksum);
                run.units = (result.updates_total - result.skipped) as u64;
                run
            }
            (w, o) => panic!("oracle {o:?} does not belong to workload {}", w.name()),
        }
    }

    /// The ring: each round every PE `put_nbi`s a seeded payload to the PE
    /// one node ahead, `quiet`s, passes a barrier, `get`s the payload back,
    /// and passes a second barrier.
    fn ring(&self, traced: bool, log: Option<&SpanLog>, parent: Option<u64>) -> Run {
        let RingSize { rounds, .. } = ring_size(self.scale);
        let seed = self.seed;
        let run_span = log.map(|l| (l.id(), l.now_ns()));
        let run_id = run_span.map(|s| s.0);
        let out = scoped(self.workers, traced, || {
            pgas_machine::run(self.ring_machine(), |pe| {
                let mut spans = PeSpans::new(log, pe.id());
                let body = spans.open();
                let body_id = body.map(|b| b.0);
                let shmem = spans.time("openshmem.init", body_id, || {
                    Shmem::new(pe, ShmemConfig::new(ConduitProfile::mvapich_shmem()))
                });
                let inbox = shmem.shmalloc::<u64>(RING_MAX_WORDS).expect("ring buffer fits");
                shmem.barrier_all();
                let (me, n) = (shmem.my_pe(), shmem.n_pes());
                let dst = (me + RING_STRIDE) % n;
                let mut got = Vec::with_capacity(rounds * RING_MAX_WORDS);
                let mut put_ns = Vec::with_capacity(rounds);
                let mut payload = [0u64; RING_MAX_WORDS];
                let mut back = [0u64; RING_MAX_WORDS];
                // Op spans on every RING_SPAN_EVERY-th PE keep the span file
                // small; the ring is symmetric, so the sample is unbiased.
                let mut op_spans = PeSpans::new(log.filter(|_| me % RING_SPAN_EVERY == 0), me);
                for round in 0..rounds {
                    let round_span = if me == 0 { spans.open() } else { None };
                    let len = ring_words(seed, me, round);
                    for (i, v) in payload[..len].iter_mut().enumerate() {
                        *v = ring_value(seed, me, round, i);
                    }
                    let t0 = pe.now();
                    op_spans.time("openshmem.put_nbi", body_id, || {
                        shmem.put_nbi(inbox, &payload[..len], dst)
                    });
                    op_spans.time("openshmem.quiet", body_id, || shmem.quiet());
                    put_ns.push(pe.now() - t0);
                    op_spans.time("openshmem.barrier_all", body_id, || shmem.barrier_all());
                    op_spans
                        .time("openshmem.get", body_id, || shmem.get(inbox, &mut back[..len], dst));
                    op_spans.time("openshmem.barrier_all", body_id, || shmem.barrier_all());
                    got.extend_from_slice(&back[..len]);
                    spans.close(round_span, "ring.round", body_id);
                }
                spans.close(body, "pe.body", run_id);
                spans.flush();
                op_spans.flush();
                (got, put_ns)
            })
        });
        if let (Some(l), Some((id, start_ns))) = (log, run_span) {
            let end_ns = l.now_ns();
            l.push(Span { id, parent, name: "pgas_machine.run", pe: None, start_ns, end_ns });
        }
        let mut run = reduce(&out, traced, log, parent);
        let got: Vec<Vec<u64>> = out.results.iter().map(|r| r.0.clone()).collect();
        let mut put_ns: Vec<u64> = out.results.iter().flat_map(|r| r.1.iter().copied()).collect();
        put_ns.sort_unstable();
        run.req_p50_ns = quantile(&put_ns, 0.5);
        run.req_p999_ns = quantile(&put_ns, 0.999);
        run.attempted = (got.len() * rounds) as u64;
        run.failed = ring_failures(seed, rounds, &got);
        run.units = run.attempted;
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_payloads_average_64_bytes_and_depend_on_the_seed() {
        let words: Vec<usize> = (0..4096).map(|pe| ring_words(1, pe, 0)).collect();
        assert!(words.iter().all(|&w| (RING_MIN_WORDS..=RING_MAX_WORDS).contains(&w)));
        let mean_bytes = words.iter().sum::<usize>() as f64 * 8.0 / words.len() as f64;
        assert!((mean_bytes - 64.0).abs() < 2.0, "{mean_bytes}");
        assert_ne!(ring_value(1, 0, 0, 0), ring_value(2, 0, 0, 0));
        assert_ne!(
            (0..64).map(|pe| ring_words(1, pe, 0)).collect::<Vec<_>>(),
            (0..64).map(|pe| ring_words(2, pe, 0)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ring_check_fires_on_a_corrupted_get() {
        let seed = 9;
        let rounds = 3;
        let mut got: Vec<Vec<u64>> = (0..4)
            .map(|pe| {
                (0..rounds)
                    .flat_map(|r| {
                        (0..ring_words(seed, pe, r)).map(move |i| ring_value(seed, pe, r, i))
                    })
                    .collect()
            })
            .collect();
        assert_eq!(ring_failures(seed, rounds, &got), 0);
        got[2][1] ^= 1;
        assert_eq!(ring_failures(seed, rounds, &got), 1);
        got[3].pop();
        assert_eq!(
            ring_failures(seed, rounds, &got),
            3,
            "a short output fails its round and length"
        );
    }

    #[test]
    fn himeno_check_fires_on_a_perturbed_residual() {
        assert_eq!(himeno_failures(9.881053e-5, 9.881053e-5), 0);
        assert_eq!(himeno_failures(9.881053e-5 * (1.0 + 1e-7), 9.881053e-5), 0);
        assert_eq!(himeno_failures(9.881053e-5 * (1.0 + 1e-5), 9.881053e-5), 1);
        assert_eq!(himeno_failures(f64::NAN, 9.881053e-5), 1);
    }

    #[test]
    fn serve_check_fires_on_corrupted_output() {
        let (images, cfg) = serve_size(Scale::Tiny, 4);
        let scheduled = ((images - 1) * cfg.requests_per_image) as u64;
        let write_sum = expected_write_sum(images - 1, &cfg);
        let ok = with_forced_workers(2, || {
            caf_apps::run_serve(Platform::Titan, Backend::Shmem, images, cfg)
        });
        assert_eq!(serve_failures(&ok, scheduled, write_sum), 0);
        let mut bad = ok.clone();
        bad.checksum ^= 1;
        assert_eq!(serve_failures(&bad, scheduled, write_sum), 1);
        let mut bad = ok.clone();
        bad.completed -= 2;
        bad.dropped = 2;
        assert_eq!(serve_failures(&bad, scheduled, write_sum), 4);
        assert_eq!(serve_failures(&ok, scheduled, write_sum ^ 1), 1);
    }

    #[test]
    fn dht_check_fires_on_corrupted_output() {
        let (images, cfg) = dht_size(Scale::Tiny, 4);
        let checksum = expected_checksum(images, &cfg);
        let ok = with_forced_workers(2, || {
            caf_apps::run_dht(Platform::Titan, Backend::Shmem, images, cfg)
        });
        assert_eq!(dht_failures(&ok, checksum), 0);
        let mut bad = ok;
        bad.checksum = bad.checksum.wrapping_add(1);
        assert_eq!(dht_failures(&bad, checksum), 1);
        let mut bad = ok;
        bad.skipped = 3;
        assert_eq!(dht_failures(&bad, checksum), 3);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.999), 999.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
