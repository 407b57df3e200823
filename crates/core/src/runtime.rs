//! SPMD entry points for CAF programs.

use crate::config::{CafConfig, StridedAlgorithm};
use crate::image::Image;
use pgas_machine::config::MachineConfig;
use pgas_machine::launch::{SimError, SimOutcome};

/// The planner-cache key a Tuned run will calibrate under, or `None` when
/// the run doesn't use the tuned planner at all.
fn tuned_cache_key(machine: &MachineConfig, caf: &CafConfig) -> Option<String> {
    (caf.strided_algorithm() == StridedAlgorithm::Tuned)
        .then(|| crate::planner::cache_key_for(machine, caf.backend.profile(caf.platform).label()))
}

/// Post-run planner hygiene: feed the run's `plan_cost_ratio_pct`
/// misprediction histogram back into the tuned planner's cache — a skewed
/// mean flags the memoised/persisted calibration stale so the *next* run
/// re-probes the cost model (see `planner::invalidate_if_skewed`).
fn recalibrate_if_skewed<R>(key: Option<String>, out: &SimOutcome<R>) {
    if let Some(key) = key {
        if let Some(mean) = crate::planner::invalidate_if_skewed(&key, &out.metrics) {
            eprintln!(
                "[caf] tuned-planner calibration `{key}` flagged stale \
                 (mean plan_cost_ratio_pct {mean}); next run re-probes"
            );
        }
    }
}

/// Launch a CAF program: one image per simulated core, each running `f`.
/// Panics if any image fails.
pub fn run_caf<R, F>(machine: MachineConfig, caf: CafConfig, f: F) -> SimOutcome<R>
where
    F: Fn(&Image<'_>) -> R + Send + Sync,
    R: Send,
{
    let recal = tuned_cache_key(&machine, &caf);
    let out = pgas_machine::run(machine, move |pe| {
        let img = Image::new(pe, caf);
        f(&img)
    });
    recalibrate_if_skewed(recal, &out);
    out
}

/// Like [`run_caf`] but reporting failures as values (used by tests that
/// expect runtime errors such as STAT_LOCKED).
pub fn run_caf_result<R, F>(
    machine: MachineConfig,
    caf: CafConfig,
    f: F,
) -> Result<SimOutcome<R>, SimError>
where
    F: Fn(&Image<'_>) -> R + Send + Sync,
    R: Send,
{
    let recal = tuned_cache_key(&machine, &caf);
    let out = pgas_machine::run_with_result(machine, move |pe| {
        let img = Image::new(pe, caf);
        f(&img)
    });
    if let Ok(out) = &out {
        recalibrate_if_skewed(recal, out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Backend;
    use pgas_machine::{generic_smp, Platform};

    #[test]
    fn run_caf_returns_per_image_results_and_stats() {
        let out = run_caf(
            generic_smp(3).with_heap_bytes(1 << 17),
            CafConfig::new(Backend::Shmem, Platform::GenericSmp),
            |img| {
                let a = img.coarray::<i64>(&[2]).unwrap();
                img.sync_all();
                a.put_to(img, img.this_image() % img.num_images() + 1, &[1, 2]);
                img.sync_all();
                img.this_image()
            },
        );
        assert_eq!(out.results, vec![1, 2, 3]);
        assert_eq!(out.stats.puts, 3);
        assert!(out.stats.barriers >= 2);
    }

    #[test]
    fn tuned_run_records_healthy_misprediction_ratios() {
        use crate::section::{DimRange, Section};
        let mcfg = generic_smp(2).with_heap_bytes(1 << 17);
        // The planner's calibration predicts *direct* wire costs; pin
        // coalescing off so an ambient PGAS_COALESCE=on (the
        // aggregated CI preset) cannot re-time the strided puts it
        // calibrated against.
        let ccfg = CafConfig::new(Backend::Shmem, Platform::GenericSmp)
            .with_strided(crate::config::StridedAlgorithm::Tuned)
            .with_aggregation(pgas_conduit::CoalescePolicy::Off);
        let out = pgas_machine::with_forced_metrics(true, || {
            run_caf(mcfg, ccfg, |img| {
                let a = img.coarray::<i32>(&[16, 16]).unwrap();
                let sec = Section::new(vec![
                    DimRange { start: 0, count: 8, step: 2 },
                    DimRange { start: 0, count: 8, step: 2 },
                ]);
                let data = vec![7i32; sec.total()];
                img.sync_all();
                if img.this_image() == 1 {
                    a.put_section(img, 2, &sec, &data);
                }
                img.sync_all();
            })
        });
        // The post-run hook judged these same numbers: a calibrated planner
        // on an unchanged machine must land inside the healthy band, i.e.
        // its calibration survives for the next run.
        let (mut count, mut sum) = (0u64, 0u64);
        for h in out.metrics.histograms_named("plan_cost_ratio_pct") {
            count += h.count;
            sum += h.sum;
        }
        assert!(count > 0, "tuned run records misprediction ratios");
        let mean = (sum as f64 / count as f64).round() as u64;
        assert!(
            (crate::planner::RATIO_HEALTHY_MIN_PCT..=crate::planner::RATIO_HEALTHY_MAX_PCT)
                .contains(&mean),
            "calibrated planner should predict its own cost model well, mean {mean}%"
        );
    }

    #[test]
    fn failures_propagate_with_image_context() {
        let err = run_caf_result(
            generic_smp(2).with_heap_bytes(1 << 17),
            CafConfig::new(Backend::Shmem, Platform::GenericSmp),
            |img| {
                if img.this_image() == 2 {
                    panic!("image 2 exploded");
                }
                img.sync_all();
            },
        )
        .unwrap_err();
        assert_eq!(err.pe, 1);
        assert!(err.message.contains("exploded"));
    }
}
