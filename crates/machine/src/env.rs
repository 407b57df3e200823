//! One configuration surface for the simulator's run-time settings.
//!
//! Nine settings change how a machine runs without changing the program:
//! the sanitizer mode, the fault plan, tracing, metrics, the worker-pool
//! limit, conduit coalescing, conduit payload checksums, the live stream
//! and the tuned planner's cache directory. Each is resolved once, in
//! [`crate::Machine::new`], by one rule; the first layer that speaks wins:
//!
//! 1. the **scope**: a `with_forced_*` call around the code that builds the
//!    machine, on the building thread;
//! 2. an explicit **config** choice on [`MachineConfig`] (only the
//!    sanitizer, trace, metrics and fault plan have one; an `Off`/`false`
//!    config is no choice, so it cannot switch off an environment default,
//!    while an explicit [`FaultPlan::none`] can);
//! 3. the process **environment**, `PGAS_*`, read once per process;
//! 4. the built-in **default** (everything off, one thread per PE).
//!
//! Every layer reads the result through [`crate::Machine::env`], so PE
//! threads see what the scope set on the launching thread. Coalescing is
//! the one setting a conduit context refines: its own `CoalescePolicy` sits
//! between the scope and the environment ([`SimEnv::coalesce_scoped`]).
//!
//! An unrecognised `PGAS_*` value panics at the first machine build, naming
//! the variable, the value and the accepted values; an empty value counts
//! as unset. DESIGN.md ("Configuration") tabulates every setting.

use crate::config::MachineConfig;
use crate::fault::FaultPlan;
use crate::sanitizer::SanitizerMode;
use crate::stream::StreamConfig;
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The resolved settings of one machine ([`crate::Machine::env`]).
#[derive(Debug, Clone, Default)]
pub struct SimEnv {
    pub sanitizer: SanitizerMode,
    /// The fault plan; `None` when no layer set one or it is the zero plan.
    pub faults: Option<FaultPlan>,
    pub trace: bool,
    pub metrics: bool,
    /// At most this many PE threads runnable at once; `None` is one thread
    /// per PE (a limit of `0`, or one covering every PE, resolves to it).
    pub workers: Option<usize>,
    /// Conduit small-op coalescing for contexts whose policy is `Auto`.
    pub coalesce: bool,
    /// `coalesce` came from the scope, so it also beats a context's
    /// explicit `CoalescePolicy` (a suite-wide switch stays conclusive).
    pub coalesce_scoped: bool,
    /// Conduit end-to-end payload checksums.
    pub checksum: bool,
    pub stream: Option<StreamConfig>,
    /// Directory where the tuned planner persists its calibrations.
    pub planner_cache: Option<PathBuf>,
}

/// One layer of the rule: `None` where the layer does not speak.
#[derive(Debug, Clone, Default)]
struct Layer {
    sanitizer: Option<SanitizerMode>,
    faults: Option<FaultPlan>,
    trace: Option<bool>,
    metrics: Option<bool>,
    workers: Option<usize>,
    coalesce: Option<bool>,
    checksum: Option<bool>,
    stream: Option<StreamConfig>,
    planner_cache: Option<PathBuf>,
}

impl Layer {
    /// This layer over `lower`: each setting from the first that speaks.
    fn or(self, lower: Layer) -> Layer {
        Layer {
            sanitizer: self.sanitizer.or(lower.sanitizer),
            faults: self.faults.or(lower.faults),
            trace: self.trace.or(lower.trace),
            metrics: self.metrics.or(lower.metrics),
            workers: self.workers.or(lower.workers),
            coalesce: self.coalesce.or(lower.coalesce),
            checksum: self.checksum.or(lower.checksum),
            stream: self.stream.or(lower.stream),
            planner_cache: self.planner_cache.or(lower.planner_cache),
        }
    }

    /// The choices a config makes explicitly.
    fn of_config(cfg: &MachineConfig) -> Layer {
        Layer {
            sanitizer: (cfg.sanitizer != SanitizerMode::Off).then_some(cfg.sanitizer),
            faults: cfg.faults.clone(),
            trace: cfg.trace.then_some(true),
            metrics: cfg.metrics.then_some(true),
            ..Layer::default()
        }
    }

    /// Parse `PGAS_*` variables (other names are ignored). An empty value
    /// is unset; any other value a variable does not accept is an error
    /// naming the variable, the value and the accepted values.
    fn parse<'a>(vars: impl IntoIterator<Item = (&'a str, &'a str)>) -> Result<Layer, String> {
        const FLAG: &str = "1, true, on, yes, 0, false, off, no";
        let mut layer = Layer::default();
        for (name, value) in vars {
            let v = value.trim();
            if v.is_empty() {
                continue;
            }
            let need = |accepted: &str| {
                format!("{name}={value:?} is not recognised; accepted values: {accepted}")
            };
            let flag = || match v.to_ascii_lowercase().as_str() {
                "1" | "true" | "on" | "yes" => Ok(true),
                "0" | "false" | "off" | "no" => Ok(false),
                _ => Err(need(FLAG)),
            };
            match name {
                "PGAS_SANITIZER" => {
                    layer.sanitizer =
                        Some(SanitizerMode::parse(v).ok_or_else(|| need("off, record, panic"))?)
                }
                "PGAS_FAULT_PLAN" => {
                    layer.faults = Some(
                        FaultPlan::parse(v)
                            .ok_or_else(|| need("off, none, drop1, drop5, flaky"))?,
                    )
                }
                "PGAS_TRACE" => layer.trace = Some(flag()?),
                "PGAS_METRICS" => layer.metrics = Some(flag()?),
                "PGAS_WORKERS" => {
                    layer.workers = Some(
                        v.parse().map_err(|_| need("a worker count, 0 for one thread per PE"))?,
                    )
                }
                "PGAS_COALESCE" => layer.coalesce = Some(flag()?),
                "PGAS_CHECKSUM" => layer.checksum = Some(flag()?),
                "PGAS_PLANNER_CACHE" => layer.planner_cache = Some(PathBuf::from(v)),
                _ => {}
            }
        }
        Ok(layer)
    }
}

/// The environment layer, read once per process (so parallel test threads
/// all see the same answer). Panics on an unrecognised value.
fn process_env() -> &'static Layer {
    static PROCESS: OnceLock<Layer> = OnceLock::new();
    PROCESS.get_or_init(|| {
        let vars: Vec<(String, String)> = std::env::vars_os()
            .filter_map(|(name, value)| Some((name.into_string().ok()?, value.into_string().ok()?)))
            .filter(|(name, _)| name.starts_with("PGAS_"))
            .collect();
        Layer::parse(vars.iter().map(|(n, v)| (n.as_str(), v.as_str())))
            .unwrap_or_else(|e| panic!("{e}"))
    })
}

thread_local! {
    static SCOPE: RefCell<Layer> = RefCell::new(Layer::default());
}

impl SimEnv {
    /// Resolve every setting for a machine built from `cfg` on this thread.
    pub(crate) fn resolve(cfg: &MachineConfig) -> SimEnv {
        let scope = SCOPE.with(|s| s.borrow().clone());
        SimEnv::from_layers(scope, cfg, process_env().clone())
    }

    /// The rule itself: scope, then config, then environment, then default.
    fn from_layers(scope: Layer, cfg: &MachineConfig, process: Layer) -> SimEnv {
        let coalesce_scoped = scope.coalesce.is_some();
        let l = scope.or(Layer::of_config(cfg)).or(process);
        let n = cfg.total_pes();
        SimEnv {
            sanitizer: l.sanitizer.unwrap_or_default(),
            faults: l.faults.filter(|p| !p.is_zero()),
            trace: l.trace.unwrap_or(false),
            metrics: l.metrics.unwrap_or(false),
            workers: l.workers.filter(|&w| w > 0 && w < n),
            coalesce: l.coalesce.unwrap_or(false),
            coalesce_scoped,
            checksum: l.checksum.unwrap_or(false),
            stream: l.stream,
            planner_cache: l.planner_cache,
        }
    }
}

/// Run `f` with `set` applied to the scope of every machine built on this
/// thread. The previous scope is restored on exit, including on unwind.
fn scoped<R>(set: impl FnOnce(&mut Layer), f: impl FnOnce() -> R) -> R {
    struct Restore(Layer);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE.with(|s| *s.borrow_mut() = std::mem::take(&mut self.0));
        }
    }
    let _restore = Restore(SCOPE.with(|s| {
        let prev = s.borrow().clone();
        set(&mut s.borrow_mut());
        prev
    }));
    f()
}

/// Scope the sanitizer mode.
pub fn with_forced_mode<R>(mode: SanitizerMode, f: impl FnOnce() -> R) -> R {
    scoped(|l| l.sanitizer = Some(mode), f)
}

/// Scope the fault plan ([`FaultPlan::none`] switches faults off).
pub fn with_forced_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    scoped(|l| l.faults = Some(plan), f)
}

/// Scope tracing on or off.
pub fn with_forced_tracing<R>(on: bool, f: impl FnOnce() -> R) -> R {
    scoped(|l| l.trace = Some(on), f)
}

/// Scope metrics recording on or off.
pub fn with_forced_metrics<R>(on: bool, f: impl FnOnce() -> R) -> R {
    scoped(|l| l.metrics = Some(on), f)
}

/// Scope the worker-pool limit (`0` = one thread per PE).
pub fn with_forced_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    scoped(|l| l.workers = Some(workers), f)
}

/// Scope conduit coalescing on or off, beating contexts' own policies.
pub fn with_forced_aggregation<R>(on: bool, f: impl FnOnce() -> R) -> R {
    scoped(|l| l.coalesce = Some(on), f)
}

/// Scope conduit payload checksums on or off.
pub fn with_forced_checksums<R>(on: bool, f: impl FnOnce() -> R) -> R {
    scoped(|l| l.checksum = Some(on), f)
}

/// Scope a live streaming channel.
pub fn with_forced_stream<R>(cfg: StreamConfig, f: impl FnOnce() -> R) -> R {
    scoped(|l| l.stream = Some(cfg), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::generic_smp;

    fn scope() -> Layer {
        SCOPE.with(|s| s.borrow().clone())
    }

    #[test]
    fn scope_restores_on_exit() {
        assert!(scope().trace.is_none() && scope().faults.is_none());
        with_forced_tracing(true, || {
            with_forced_plan(FaultPlan::transient_drops(1, 0.5), || {
                with_forced_tracing(false, || {
                    assert_eq!(scope().trace, Some(false));
                    assert_eq!(scope().faults.as_ref().map(|p| p.drop_prob), Some(0.5));
                });
                assert_eq!(scope().trace, Some(true), "the inner scope is undone");
            });
            assert!(scope().faults.is_none());
            with_forced_stream(StreamConfig::new(500, 8), || {
                assert_eq!(scope().stream.map(|s| s.cadence_ns()), Some(500));
            });
        });
        assert!(scope().trace.is_none() && scope().stream.is_none());
    }

    #[test]
    fn scope_restores_on_unwind() {
        let r = std::panic::catch_unwind(|| {
            with_forced_checksums(true, || with_forced_aggregation(true, || panic!("boom")));
        });
        assert!(r.is_err());
        assert!(scope().checksum.is_none() && scope().coalesce.is_none());
    }

    #[test]
    fn precedence_is_scope_then_config_then_environment_then_default() {
        // One row per case: resolve(scope, config, environment).
        let resolve = |set: &dyn Fn(&mut Layer), cfg: MachineConfig, vars: &[(&str, &str)]| {
            let mut scope = Layer::default();
            set(&mut scope);
            SimEnv::from_layers(scope, &cfg, Layer::parse(vars.iter().copied()).unwrap())
        };
        let (no, smp) = (&|_: &mut Layer| {}, || generic_smp(4));
        let e = resolve(no, smp(), &[]);
        assert!(e.sanitizer == SanitizerMode::Off && e.faults.is_none() && !e.trace && !e.metrics);
        assert!(e.workers.is_none() && !e.coalesce && !e.coalesce_scoped && !e.checksum);
        assert!(e.stream.is_none() && e.planner_cache.is_none(), "nothing set: every default");
        // Sanitizer: an Off config is no choice; an explicit mode is.
        let (off, record, panic) =
            (SanitizerMode::Off, SanitizerMode::Record, SanitizerMode::Panic);
        let san = [("PGAS_SANITIZER", "record")];
        assert_eq!(resolve(no, smp(), &san).sanitizer, record);
        assert_eq!(resolve(no, smp().with_sanitizer(panic), &san).sanitizer, panic);
        let scoped_off = |l: &mut Layer| l.sanitizer = Some(off);
        assert_eq!(resolve(&scoped_off, smp().with_sanitizer(panic), &san).sanitizer, off);
        // Faults: an explicit zero plan is a choice, and resolves to none.
        let drop1 = [("PGAS_FAULT_PLAN", "drop1")];
        let prob = |e: SimEnv| e.faults.map(|p| p.drop_prob);
        assert_eq!(prob(resolve(no, smp(), &drop1)), Some(0.01));
        assert_eq!(prob(resolve(no, smp().with_faults(FaultPlan::none()), &drop1)), None);
        let quarter = || smp().with_faults(FaultPlan::transient_drops(9, 0.25));
        assert_eq!(prob(resolve(no, quarter(), &drop1)), Some(0.25));
        assert_eq!(prob(resolve(&|l| l.faults = Some(FaultPlan::none()), quarter(), &[])), None);
        // Trace and metrics: a false config is no choice.
        let on = [("PGAS_TRACE", "1"), ("PGAS_METRICS", "yes")];
        let both = |e: SimEnv| (e.trace, e.metrics);
        assert_eq!(both(resolve(no, smp(), &on)), (true, true));
        let traced = || smp().with_trace(true).with_metrics(true);
        assert_eq!(both(resolve(no, traced(), &[("PGAS_TRACE", "0")])), (true, true));
        let quiet = |l: &mut Layer| (l.trace, l.metrics) = (Some(false), Some(false));
        assert_eq!(both(resolve(&quiet, traced(), &on)), (false, false));
        // Workers: 0, or a limit covering every PE, is one thread per PE.
        assert_eq!(resolve(no, smp(), &[("PGAS_WORKERS", "2")]).workers, Some(2));
        assert_eq!(
            resolve(&|l| l.workers = Some(0), smp(), &[("PGAS_WORKERS", "2")]).workers,
            None
        );
        assert_eq!(resolve(no, smp(), &[("PGAS_WORKERS", "4")]).workers, None);
        // Coalescing: only a scoped value beats a context's own policy.
        let agg = |e: SimEnv| (e.coalesce, e.coalesce_scoped);
        assert_eq!(agg(resolve(no, smp(), &[("PGAS_COALESCE", "on")])), (true, false));
        let unagg = |l: &mut Layer| l.coalesce = Some(false);
        assert_eq!(agg(resolve(&unagg, smp(), &[("PGAS_COALESCE", "on")])), (false, true));
        // Checksums, stream, planner cache, and empty values.
        assert!(resolve(no, smp(), &[("PGAS_CHECKSUM", "1")]).checksum);
        assert!(!resolve(&|l| l.checksum = Some(false), smp(), &[("PGAS_CHECKSUM", "1")]).checksum);
        let stream = |l: &mut Layer| l.stream = Some(StreamConfig::new(100, 4));
        assert_eq!(resolve(&stream, smp(), &[]).stream.map(|s| s.cadence_ns()), Some(100));
        let cache = resolve(no, smp(), &[("PGAS_PLANNER_CACHE", "/cache")]).planner_cache;
        assert_eq!(cache, Some(PathBuf::from("/cache")));
        let empty = [("PGAS_TRACE", ""), ("PGAS_WORKERS", " "), ("PGAS_FAULT_PLAN", "")];
        let e = resolve(no, smp(), &empty);
        assert!(!e.trace && e.workers.is_none() && e.faults.is_none(), "empty values are unset");
    }

    #[test]
    fn unrecognised_values_name_the_variable_the_value_and_the_accepted_values() {
        for (name, value, accepted) in [
            ("PGAS_FAULT_PLAN", "drop2", "drop1, drop5, flaky"),
            ("PGAS_SANITIZER", "tsan", "off, record, panic"),
            ("PGAS_TRACE", "maybe", "1, true, on"),
            ("PGAS_METRICS", "2", "0, false, off"),
            ("PGAS_WORKERS", "-1", "a worker count"),
            ("PGAS_COALESCE", "agg", "on"),
            ("PGAS_CHECKSUM", "crc", "yes"),
        ] {
            let err = Layer::parse([(name, value)]).expect_err(name);
            assert!(err.contains(name), "{err}");
            assert!(err.contains(&format!("{value:?}")), "{err}");
            assert!(err.contains(accepted), "{err}");
        }
        let ok = Layer::parse([("PGAS_FAULT_PLAN", " DROP5 "), ("PGAS_WORKERS", "8")]).unwrap();
        assert_eq!(ok.faults.map(|p| p.drop_prob), Some(0.05));
        assert_eq!(ok.workers, Some(8));
    }
}
