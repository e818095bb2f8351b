//! Metric names, units, and the result line.
//!
//! Every workload reports every metric declared here: the end-to-end
//! set in an untraced run and the per-layer set in a traced run. A
//! per-layer metric of a layer the workload bypasses reads 0 (no time
//! spent, no work done); an end-to-end metric is never 0.

use crate::tracer::Layer;
use std::collections::BTreeMap;

/// The five baselines served by `lookup`: builder name and metric key.
pub const BASELINES: [(&str, &str); 5] = [
    ("HiCuts", "hicuts"),
    ("HyperCuts", "hypercuts"),
    ("HyperSplit", "hypersplit"),
    ("EffiCuts", "efficuts"),
    ("CutSplit", "cutsplit"),
];

/// Metric keys of every algorithm whose compiled tree a workload
/// serves straight from `dtree::flat` (the baselines in `lookup`, the
/// adopted NeuroCuts tree in `retrain`).
pub const FLAT_ALGOS: [&str; 6] =
    ["hicuts", "hypercuts", "hypersplit", "efficuts", "cutsplit", "neurocuts"];

/// End-to-end metrics: name, unit. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("serve_mpps", "Mpps"),
    ("work_per_s", "1/s"),
    ("resident_mb", "MB"),
    ("tree_accesses", "count"),
    ("bytes_per_rule", "B"),
];

/// Per-layer metrics: name, unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("classbench.generate_s".into(), "s")];
    for (_, a) in BASELINES {
        v.push((format!("baselines.build_s.{a}"), "s"));
    }
    for a in FLAT_ALGOS {
        v.push((format!("dtree.flat.ns_per_pkt.{a}"), "ns"));
        v.push((format!("dtree.flat.batch_p99_us.{a}"), "us"));
        v.push((format!("dtree.tree.nodes_per_pkt.{a}"), "count"));
        v.push((format!("dtree.flat.resident_bytes.{a}"), "B"));
    }
    v.push(("dtree.flat.compile_ms".into(), "ms"));
    for (_, a) in BASELINES {
        v.push((format!("dtree.engine.mpps_2t.{a}"), "Mpps"));
    }
    for (name, unit) in [
        ("dtree.serve.insert_us.p50", "us"),
        ("dtree.serve.insert_us.p99", "us"),
        ("dtree.serve.delete_us.p50", "us"),
        ("dtree.serve.delete_us.p99", "us"),
        ("dtree.serve.rebuilds", "count"),
        ("dtree.serve.rebuild_update_us", "us"),
        ("dtree.serve.overlay_len.mean", "count"),
        ("dtree.serve.snapshot_ns", "ns"),
        ("dtree.serve.classify_ns_per_pkt", "ns"),
        ("dtree.serve.adopt_ms", "ms"),
        ("dtree.wal.append_us", "us"),
        ("dtree.wal.sync_ms.p50", "ms"),
        ("dtree.wal.sync_ms.p99", "ms"),
        ("dtree.wal.read_ms", "ms"),
        ("core.persist.checkpoint_ms", "ms"),
        ("core.persist.checkpoints", "count"),
        ("core.persist.read_checkpoint_ms", "ms"),
        ("core.persist.proof_ms", "ms"),
        ("core.persist.recover_other_ms", "ms"),
        ("core.persist.recover_ms", "ms"),
        ("core.lifecycle.poll_s", "s"),
        ("core.vecenv.collect_s", "s"),
        ("rl.ppo.update_s", "s"),
        ("nn.policy_value.infer_us", "us"),
        ("core.env.steps", "count"),
        ("core.env.episodes", "count"),
        ("core.trainer.iterations", "count"),
        ("process.peak_rss_mb", "MB"),
        ("trace.wall_s", "s"),
        ("trace.untraced_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_pct", "%"),
    ] {
        v.push((name.into(), unit));
    }
    for layer in Layer::ALL.into_iter().filter(|&l| l != Layer::Bench) {
        v.push((format!("self_s.{}", layer.name()), "s"));
    }
    for (name, unit) in END_TO_END {
        v.push((format!("traced.{name}"), unit));
    }
    v
}

/// True for a name the result format accepts: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Correctness bookkeeping: every verified operation counts as
/// attempted, every wrong one as failed (with a reason kept for the
/// error report).
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why, for the first few failures.
    pub reasons: Vec<String>,
}

impl Checks {
    /// Count one operation; a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 16 {
                self.reasons.push(why());
            }
        }
    }
}

/// What a workload run produces: checks, metrics and detail.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness bookkeeping.
    pub checks: Checks,
    /// End-to-end values by name (untraced and traced runs alike).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs; absent = bypassed = 0).
    pub layer: BTreeMap<String, f64>,
    /// Extra context for the detail line: sample counts, tails.
    pub detail: BTreeMap<String, f64>,
}

impl Outcome {
    /// Set a per-layer value.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layer.insert(name.into(), value);
    }

    /// Set a detail value.
    pub fn detail(&mut self, name: impl Into<String>, value: f64) {
        self.detail.insert(name.into(), value);
    }
}

/// The metrics object of the result line for a run: the end-to-end
/// set, or with `traced` the per-layer set. Errors name a metric that
/// is missing, not finite, or (end-to-end) not positive.
pub fn metrics_json(out: &Outcome, traced: bool) -> Result<String, String> {
    let defs: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut parts = Vec::with_capacity(defs.len());
    for (name, unit) in defs {
        let value = if traced {
            out.layer.get(&name).copied().unwrap_or(0.0)
        } else {
            let v =
                *out.e2e.get(name.as_str()).ok_or_else(|| format!("{name} was not measured"))?;
            if v <= 0.0 {
                return Err(format!("{name} = {v}: end-to-end metrics are never 0"));
            }
            v
        };
        if !value.is_finite() {
            return Err(format!("{name} = {value} is not a finite number"));
        }
        parts.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// A flat JSON object of numbers, for the detail line.
pub fn object_json(values: &BTreeMap<String, f64>) -> String {
    let parts: Vec<String> = values
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let unique: BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("dtree.wal.sync_ms.p99"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn result_metrics_refuse_missing_or_zero_end_to_end_values() {
        let mut out = Outcome::default();
        assert!(metrics_json(&out, false).is_err());
        for (n, _) in END_TO_END {
            out.e2e.insert(n, 1.5);
        }
        let json = metrics_json(&out, false).unwrap();
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        out.e2e.insert("serve_mpps", 0.0);
        assert!(metrics_json(&out, false).is_err());
        // Per-layer metrics of bypassed layers read 0.
        let traced = metrics_json(&out, true).unwrap();
        assert!(traced.contains("\"rl.ppo.update_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "wrong answer".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.reasons, vec!["wrong answer".to_string()]);
    }
}
