//! The repository benchmark: three workloads (`lookup`, `churn`,
//! `retrain`) that drive the repository's crates through their public
//! functions, check every answer against the linear scan, and report
//! end-to-end metrics (untraced run) or a per-layer breakdown (traced
//! run). See `WORKLOADS.md` for why each workload exists.

#![warn(missing_docs)]

pub mod envinfo;
pub mod metrics;
pub mod stats;
pub mod tracer;
pub mod workloads;

use metrics::Outcome;
use std::path::PathBuf;
use tracer::{self_times, span_cost_ns, Layer, Tracer};

/// Workload names, in report order.
pub const WORKLOADS: [&str; 3] = ["lookup", "churn", "retrain"];

/// Input sizes and budgets. [`Scale::full`] is what the benchmark
/// measures; [`Scale::tiny`] runs the same code paths in well under a
/// second for the benchmark's own tests.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Rules served by `lookup` (ACL, seed 0).
    pub lookup_rules: usize,
    /// Packets in the uniform traces of `lookup` and `retrain`.
    pub trace_len: usize,
    /// Packets per `classify_batch` call.
    pub batch: usize,
    /// Set-ups per `lookup` run, spread over the measured time.
    pub setups: usize,
    /// Rules of the `churn` classifier (ACL, seed 1).
    pub churn_rules: usize,
    /// Donor rules the `churn` inserts are drawn from.
    pub churn_donors: usize,
    /// Updates per `churn` cycle.
    pub churn_updates: usize,
    /// Batches served between two updates.
    pub churn_batches: usize,
    /// Packets in the `churn` Zipf trace.
    pub churn_trace: usize,
    /// Updates between two divergence checks.
    pub check_every: usize,
    /// Rules of the `retrain` classifier (ACL, seed 1).
    pub retrain_rules: usize,
    /// Timestep budget of one retrain, which is also its batch size and
    /// rollout cap: a retrain is one short training iteration.
    pub retrain_timesteps: usize,
    /// Lockstep environments of the retrain's rollout collector (fixed:
    /// unlike the worker count, it changes the trained tree). The
    /// collector runs one thread per environment at most.
    pub retrain_envs: usize,
    /// Hidden widths of the retrained policy network. Narrower than the
    /// paper's 512 so the weights, gradients and optimiser state stay in
    /// a core's L2 cache: at 512 they spill to the shared L3 and the
    /// training rate follows the co-tenants' load.
    pub hidden: [usize; 2],
    /// Minimum repeats of a `retrain` run (set-up, retrain, serve).
    pub min_repeats: usize,
    /// Seconds of multi-thread engine serving per algorithm (traced).
    pub engine_secs: f64,
}

impl Scale {
    /// The measured configuration.
    pub fn full() -> Self {
        Scale {
            lookup_rules: 1_000,
            trace_len: 16_384,
            batch: 256,
            setups: 100,
            churn_rules: 1_000,
            churn_donors: 4_000,
            churn_updates: 1_024,
            churn_batches: 4,
            churn_trace: 16_384,
            check_every: 256,
            retrain_rules: 300,
            retrain_timesteps: 32,
            retrain_envs: 1,
            hidden: [128, 128],
            min_repeats: 3,
            engine_secs: 0.25,
        }
    }

    /// A seconds-scale configuration for tests.
    pub fn tiny() -> Self {
        Scale {
            lookup_rules: 200,
            trace_len: 2_048,
            batch: 256,
            setups: 2,
            churn_rules: 120,
            churn_donors: 200,
            churn_updates: 600,
            churn_batches: 2,
            churn_trace: 1_024,
            check_every: 32,
            retrain_rules: 80,
            retrain_timesteps: 32,
            retrain_envs: 1,
            hidden: [16, 16],
            min_repeats: 2,
            engine_secs: 0.01,
        }
    }
}

/// One invocation of the benchmark.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: String,
    /// Seed the workload's traffic derives from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Sizes and budgets.
    pub scale: Scale,
    /// Scratch directory for persistence files; created and removed by
    /// the run.
    pub work_dir: PathBuf,
}

/// Fill the traced run's accounting: wall time, per-layer self times,
/// the untraced remainder, span count and estimated tracing overhead.
fn trace_accounting(t: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let spans = t.spans();
    let wall = spans.first().map_or(0.0, |root| root.dur_ns() as f64 / 1e9);
    let selfs = self_times(&spans);
    let total: f64 = selfs.iter().map(|(_, s)| s).sum();
    if (total - wall).abs() > 1e-6 * wall.max(1.0) {
        return Err(format!("layer self times sum to {total} s, wall time is {wall} s"));
    }
    for (layer, s) in selfs {
        if layer == Layer::Bench {
            out.layer("trace.untraced_s", s);
        } else {
            out.layer(format!("self_s.{}", layer.name()), s);
        }
    }
    out.layer("trace.wall_s", wall);
    out.layer("trace.spans", spans.len() as f64);
    out.layer("trace.overhead_pct", spans.len() as f64 * span_cost_ns() / (wall * 1e9) * 100.0);
    let traced: Vec<(String, f64)> =
        out.e2e.iter().map(|(k, v)| (format!("traced.{k}"), *v)).collect();
    for (k, v) in traced {
        out.layer(k, v);
    }
    out.layer("process.peak_rss_mb", envinfo::peak_rss_mb());
    Ok(())
}

/// Run one workload under a root span; a traced run also gets its
/// per-layer accounting.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let t = Tracer::new(cfg.trace);
    let (result, _) = t.time(Layer::Bench, "workload", || workloads::run(cfg, &t));
    let mut out = result?;
    if cfg.trace {
        trace_accounting(&t, &mut out)?;
    }
    out.detail("process.peak_rss_mb", envinfo::peak_rss_mb());
    Ok(out)
}
