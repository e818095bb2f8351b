//! The benchmark's own contract: `BENCHMARK.json` names exactly the
//! metrics the code emits, and every workload, run at a tiny scale
//! through the same code paths, produces every one of them correctly.

use perfbench::metrics::{metrics_json, per_layer, valid_name, Outcome, END_TO_END};
use perfbench::{run, RunConfig, Scale, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_units(v: &Value, key: &str) -> Vec<(String, String)> {
    v[key]
        .as_array()
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| (m["name"].as_str().unwrap().to_string(), m["unit"].as_str().unwrap().to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let b = benchmark_json();
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(names_units(&b, "end_to_end"), e2e);
    let layer: Vec<(String, String)> =
        per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(names_units(&b, "per_layer"), layer);
    let workloads: Vec<&str> =
        b["workloads"].as_array().unwrap().iter().map(|w| w["name"].as_str().unwrap()).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn benchmark_json_keeps_the_format_limits() {
    let b = benchmark_json();
    let mut seen = BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for m in b[key].as_array().unwrap() {
            let name = m["name"].as_str().unwrap();
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.to_string()), "{name} used twice");
            if key == "workloads" {
                assert!(m["why"].as_str().unwrap().len() <= 200, "{name}: why too long");
                continue;
            }
            let unit = m["unit"].as_str().unwrap();
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["higher", "lower"].contains(&m["better"].as_str().unwrap()));
            if key == "end_to_end" {
                let bound = m["bound"].as_f64().unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            }
        }
    }
    let setup =
        b["end_to_end"].as_array().unwrap().iter().find(|m| m["name"].as_str() == Some("setup_s"));
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(setup["unit"].as_str(), Some("s"));
    assert_eq!(setup["better"].as_str(), Some("lower"));
    let largest = b["end_to_end"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|m| m["bound"].as_f64())
        .fold(0.0, f64::max);
    assert_eq!(setup["bound"].as_f64(), Some(largest), "setup_s has the largest bound");
    let secs = b["run_seconds"].as_u64().unwrap();
    assert!((1..=60).contains(&secs));
}

fn tiny(workload: &str, trace: bool) -> Outcome {
    let work_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir).unwrap();
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::tiny(),
        work_dir: work_dir.clone(),
    };
    let out = run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    let _ = std::fs::remove_dir_all(&work_dir);
    assert_eq!(out.checks.failed, 0, "{workload}: {:?}", out.checks.reasons);
    assert!(out.checks.attempted > 0);
    out
}

/// Per-layer metrics each workload must drive above zero: the layers
/// it exists to exercise.
fn exercised(workload: &str) -> Vec<String> {
    let mut v: Vec<String> = [
        "classbench.generate_s",
        "dtree.flat.compile_ms",
        "self_s.classbench",
        "trace.wall_s",
        "trace.spans",
        "process.peak_rss_mb",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let algos = ["hicuts", "hypercuts", "hypersplit", "efficuts", "cutsplit"];
    match workload {
        "lookup" => {
            for a in algos {
                for m in [
                    "baselines.build_s",
                    "dtree.flat.ns_per_pkt",
                    "dtree.flat.batch_p99_us",
                    "dtree.tree.nodes_per_pkt",
                    "dtree.flat.resident_bytes",
                    "dtree.engine.mpps_2t",
                ] {
                    v.push(format!("{m}.{a}"));
                }
            }
            v.extend(
                ["self_s.dtree.flat", "self_s.dtree.engine", "self_s.baselines"].map(String::from),
            );
        }
        "churn" => v.extend(
            [
                "dtree.serve.insert_us.p50",
                "dtree.serve.delete_us.p99",
                "dtree.serve.snapshot_ns",
                "dtree.serve.classify_ns_per_pkt",
                "dtree.wal.append_us",
                "dtree.wal.sync_ms.p50",
                "dtree.wal.read_ms",
                "core.persist.checkpoint_ms",
                "core.persist.read_checkpoint_ms",
                "core.persist.proof_ms",
                "core.persist.recover_ms",
                "self_s.dtree.serve",
                "self_s.dtree.wal",
                "self_s.core.persist",
            ]
            .map(String::from),
        ),
        "retrain" => v.extend(
            [
                "core.lifecycle.poll_s",
                "core.vecenv.collect_s",
                "rl.ppo.update_s",
                "nn.policy_value.infer_us",
                "core.env.steps",
                "core.env.episodes",
                "core.trainer.iterations",
                "dtree.serve.adopt_ms",
                "dtree.flat.ns_per_pkt.neurocuts",
                "dtree.tree.nodes_per_pkt.neurocuts",
                "self_s.core.lifecycle",
                "self_s.core.vecenv",
                "self_s.rl.ppo",
                "self_s.nn",
            ]
            .map(String::from),
        ),
        other => panic!("no expectations for {other}"),
    }
    v
}

#[test]
fn every_workload_produces_every_metric_at_tiny_scale() {
    let mut nonzero_anywhere = BTreeSet::new();
    for w in WORKLOADS {
        let plain = tiny(w, false);
        for (name, _) in END_TO_END {
            let v = plain.e2e.get(name).copied().unwrap_or(0.0);
            assert!(v > 0.0 && v.is_finite(), "{w}: {name} = {v}");
        }
        metrics_json(&plain, false).unwrap();

        let traced = tiny(w, true);
        metrics_json(&traced, true).unwrap();
        for name in exercised(w) {
            let v = traced.layer.get(&name).copied().unwrap_or(0.0);
            assert!(v > 0.0, "{w}: per-layer {name} = {v}");
        }
        // Layer self times plus the untraced remainder are the wall time.
        let selfs: f64 =
            traced.layer.iter().filter(|(k, _)| k.starts_with("self_s.")).map(|(_, v)| v).sum();
        let wall = traced.layer["trace.wall_s"];
        assert!(
            (selfs + traced.layer["trace.untraced_s"] - wall).abs() < 1e-6 * wall.max(1.0),
            "{w}"
        );
        for (k, v) in &traced.layer {
            if *v != 0.0 {
                nonzero_anywhere.insert(k.clone());
            }
        }
    }
    // Every declared per-layer metric is measured by some workload.
    for (name, _) in per_layer() {
        // Greedy fallbacks and policy rebuilds need more churn than the
        // tiny scale makes; the recovery remainder is 0 whenever the
        // separately timed parts take as long as the tiny recovery.
        let tiny_zero = [
            "self_s.core.env",
            "dtree.serve.rebuilds",
            "dtree.serve.rebuild_update_us",
            "core.persist.recover_other_ms",
        ];
        if tiny_zero.contains(&name.as_str()) {
            continue;
        }
        assert!(nonzero_anywhere.contains(&name), "{name} is never measured");
    }
}
