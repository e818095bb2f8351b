//! `steady` — run each workload repeatedly and check that every
//! end-to-end metric is steady enough for its bound.
//!
//! ```text
//! steady [--workload <name>]... [--runs 10] [--traced]
//!        [--benchmark BENCHMARK.json]
//! ```
//!
//! Run `i` uses seed `i` (1 to `runs`) and measures for the benchmark's
//! `run_seconds`. For every end-to-end metric the report gives the
//! median, the quartiles
//! (Python's `statistics.quantiles(values, n=4)`), min and max, and the
//! spread `(q3 - q1) / median` against the metric's bound from
//! `BENCHMARK.json`. A spread above the bound is flagged `OVER`, above a
//! third of it `warn`. `--traced` adds one traced run per workload and
//! reports the tracing overhead: how far each end-to-end metric measured
//! under tracing lies from the untraced median. Exits 1 when a run fails
//! or any metric is `OVER`.

use perfbench::stats::{median, quartiles};
use perfbench::WORKLOADS;
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workloads: Vec<String>,
    runs: usize,
    traced: bool,
    benchmark: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        runs: 10,
        traced: false,
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            a.traced = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workloads.push(v),
            "--runs" => a.runs = v.parse().map_err(|e| format!("--runs: {e}"))?,
            "--benchmark" => a.benchmark = PathBuf::from(v),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if a.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    Ok(a)
}

/// One run of the benchmark binary; returns its metrics by name.
fn run_once(
    bin: &PathBuf,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Vec<(String, f64)>, String> {
    let out = Command::new(bin)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let v: Value = serde_json::from_str(last).map_err(|e| format!("bad result line: {e:?}"))?;
    if v.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed} reported incorrect answers"));
    }
    let metrics = v.get("metrics").and_then(Value::as_object).ok_or("result has no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, m)| m.get("value").and_then(Value::as_f64).map(|x| (k.clone(), x)))
        .collect())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("steady: {e}");
            return ExitCode::from(2);
        }
    };
    let bench: Value = match std::fs::read_to_string(&args.benchmark)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(&s).map_err(|e| format!("{e:?}")))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("steady: cannot read {}: {e}", args.benchmark.display());
            return ExitCode::from(2);
        }
    };
    let Some(seconds) = bench.get("run_seconds").and_then(Value::as_f64) else {
        eprintln!("steady: {} has no run_seconds", args.benchmark.display());
        return ExitCode::from(2);
    };
    let bounds: Vec<(String, f64)> = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|m| {
                    Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?))
                })
                .collect()
        })
        .unwrap_or_default();
    let bin = match std::env::current_exe() {
        Ok(p) => p.with_file_name("perfbench"),
        Err(e) => {
            eprintln!("steady: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failed = false;
    for w in &args.workloads {
        let mut runs = Vec::new();
        for i in 0..args.runs {
            let seed = i as u64 + 1;
            match run_once(&bin, w, seed, seconds, false) {
                Ok(m) => runs.push(m),
                Err(e) => {
                    eprintln!("steady: {e}");
                    failed = true;
                }
            }
        }
        if runs.len() < 2 {
            eprintln!("steady: {w}: fewer than two successful runs");
            failed = true;
            continue;
        }
        let traced = if args.traced {
            match run_once(&bin, w, 1, seconds, true) {
                Ok(m) => Some(m),
                Err(e) => {
                    eprintln!("steady: {e}");
                    failed = true;
                    None
                }
            }
        } else {
            None
        };
        println!("{w}: {} runs of {seconds} s, seeds 1..{}", runs.len(), args.runs);
        println!(
            "  {:<16} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}  status",
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound"
        );
        for (name, bound) in &bounds {
            let xs: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(k, _)| k == name).map(|&(_, v)| v))
                .collect();
            if xs.len() != runs.len() {
                println!("  {name:<16} missing from some runs");
                failed = true;
                continue;
            }
            let med = median(&xs);
            let [q1, _, q3] = quartiles(&xs);
            let spread = if med != 0.0 { (q3 - q1) / med } else { f64::INFINITY };
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let status = if spread > *bound {
                failed = true;
                "OVER"
            } else if spread > bound / 3.0 {
                "warn"
            } else {
                "ok"
            };
            let overhead = traced
                .as_ref()
                .and_then(|t| t.iter().find(|(k, _)| *k == format!("traced.{name}")))
                .map(|&(_, v)| format!("  traced {:+.1}%", (v / med - 1.0) * 100.0))
                .unwrap_or_default();
            println!(
                "  {name:<16} {med:>12.4} {q1:>12.4} {q3:>12.4} {min:>12.4} {max:>12.4} {:>7.2}% {:>5.0}%  {status}{overhead}",
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
