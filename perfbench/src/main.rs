//! Benchmark command line.
//!
//! ```text
//! perfbench --workload <rma_ring|himeno|serve|dht_locked|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints `#`-prefixed human-readable lines, then as its last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones, and also
//! writes the spans and the per-layer table under `--out`
//! (default `perfbench/out`). `--workload all` runs every workload in its
//! own process, one after the other.

use perfbench::measure::{self, Opts, Report};
use perfbench::workloads::{Scale, Workload, ALL};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("a number of seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Run every workload in a child process of this executable.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running executable");
    let rest: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for w in ALL {
        let mut child_args = rest.clone();
        let at = child_args.iter().position(|a| a == "--workload").expect("--workload given");
        child_args[at + 1] = w.name().to_string();
        let out = Command::new(&exe).args(&child_args).output().expect("run workload child");
        std::io::stdout().write_all(&out.stdout).expect("write stdout");
        std::io::stderr().write_all(&out.stderr).expect("write stderr");
        let last = String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or("").to_string();
        ok &= out.status.success() && last.starts_with("{\"correct\": true");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_line(r: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &r.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        metrics
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    ))
}

/// Write the spans and the per-layer table of a traced run.
fn write_trace(r: &Report, out: &std::path::Path) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(out)?;
    // One file pair per workload: a later run overwrites the last one.
    let stem = r.workload.name();
    let spans = out.join(format!("{stem}.spans.jsonl"));
    r.spans.as_ref().expect("a traced run keeps its spans").write_jsonl(&spans)?;
    let table = out.join(format!("{stem}.layers.tsv"));
    let mut t = format!(
        "# workload={stem} seed={} workers={}\nlayer\tmetric\tvalue\tunit\n",
        r.seed, r.workers
    );
    for m in &r.metrics {
        let layer = m.name.split('.').next().unwrap_or(m.name);
        t.push_str(&format!("{layer}\t{}\t{}\t{}\n", m.name, m.value, m.unit));
    }
    std::fs::write(&table, t)?;
    Ok((spans, table))
}

fn main() -> ExitCode {
    perfbench::host::pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let r = measure::run(Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
        workers: None,
    });
    println!(
        "# perfbench workload={} seed={} trace={} nproc={} workers={} calls={} setup_launches={}",
        workload.name(),
        r.seed,
        u8::from(args.trace),
        r.nproc,
        r.workers,
        r.calls,
        r.setup_launches
    );
    println!(
        "# error_rate={} ({} failed of {} attempted; {} calls with non-repeating virtual outputs)",
        r.error_rate(),
        r.failed,
        r.attempted,
        r.nondeterministic
    );
    for m in &r.metrics {
        println!("# {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &r.raw {
        println!("# raw {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        match write_trace(&r, &args.out) {
            Ok((spans, table)) => {
                println!("# spans: {}  layers: {}", spans.display(), table.display())
            }
            Err(e) => {
                eprintln!("perfbench: writing the trace to {}: {e}", args.out.display());
                return ExitCode::FAILURE;
            }
        }
    }
    match json_line(&r) {
        Ok(line) => {
            println!("{line}");
            exit_status(&r)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A run with a failed output check still prints its JSON line, but exits
/// with a failure, as `--workload all` counts it.
fn exit_status(r: &Report) -> ExitCode {
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfbench::measure::Metric;

    fn report(failed: u64) -> Report {
        Report {
            workload: Workload::RmaRing,
            seed: 1,
            nproc: 2,
            workers: 2,
            calls: 1,
            setup_launches: 1,
            attempted: 10,
            failed,
            nondeterministic: 0,
            metrics: vec![Metric { name: "wall_s", value: 1.5, unit: "s" }],
            raw: Vec::new(),
            spans: None,
        }
    }

    #[test]
    fn a_failed_check_exits_with_failure_after_its_json_line() {
        let code = |r: &Report| format!("{:?}", exit_status(r));
        assert_eq!(code(&report(0)), format!("{:?}", ExitCode::SUCCESS));
        assert_eq!(code(&report(1)), format!("{:?}", ExitCode::FAILURE));
        let line = json_line(&report(1)).expect("finite metrics");
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"),
            "{line}"
        );
    }
}
