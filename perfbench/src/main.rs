//! `perfbench --workload <lookup|churn|retrain> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics (`--trace 0`) or the per-layer breakdown (`--trace 1`). The
//! two lines before it are the environment stamp and a detail object
//! (sample counts, medians, tail percentiles). Exits 1 when any answer
//! was wrong, 2 on a usage or measurement error.

use perfbench::metrics::{metrics_json, object_json};
use perfbench::{envinfo, run, RunConfig, Scale, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<RunConfig, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let work_dir = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    Ok(RunConfig {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
        scale: Scale::full(),
        work_dir,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(2);
    }
    let fs = envinfo::fs_type(&cfg.work_dir);
    let result = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    if let Some(parent) = cfg.work_dir.parent() {
        // Only removes the parent once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            return ExitCode::from(2);
        }
    };

    println!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"persist_fs\": \"{fs}\"}}}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        envinfo::nproc(),
        envinfo::rustc_version(),
        envinfo::commit(),
    );
    println!("{{\"detail\": {}}}", object_json(&out.detail));
    for why in &out.checks.reasons {
        eprintln!("perfbench: FAIL {why}");
    }
    let metrics = match metrics_json(&out, cfg.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let c = &out.checks;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        c.failed == 0,
        c.attempted.max(1),
        c.failed
    );
    if c.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
