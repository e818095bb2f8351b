//! A sharded, multi-core serving engine over a [`FlatTree`] or a live [`Snapshot`].
//!
//! The paper's end product classifies packets on the datapath; this
//! module is the deployment harness around it: a trace is sharded into
//! contiguous chunks, one per worker, and each worker drives the
//! batched wavefront lookup over its shard. Both classifiers go through
//! one loop: shared read-only, scoped workers, results in disjoint
//! sub-slices of the caller's buffer, so the output is
//! **bit-identical** to the scalar lookup over the trace in order. A
//! live caller passes `&*handle.snapshot()`, so every shard serves one
//! epoch; [`serve_during`](crate::replay::serve_during) is the loop
//! that re-fetches on epoch changes. [`run_engine`] times the sharded
//! lookup and reports aggregate packets/sec.

use crate::flat::FlatTree;
use crate::node::RuleId;
use crate::serve::Snapshot;
use classbench::Packet;

/// A read-only classifier the engine can shard a trace across.
pub trait BatchClassifier: Sync {
    /// Classify `packets` into `out` exactly as the per-packet lookup would.
    fn classify_batch(&self, packets: &[Packet], out: &mut [Option<RuleId>]);
}

impl BatchClassifier for FlatTree {
    fn classify_batch(&self, packets: &[Packet], out: &mut [Option<RuleId>]) {
        FlatTree::classify_batch(self, packets, out)
    }
}

impl BatchClassifier for Snapshot {
    fn classify_batch(&self, packets: &[Packet], out: &mut [Option<RuleId>]) {
        Snapshot::classify_batch(self, packets, out)
    }
}

/// How a serving run is sharded and measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads the trace is sharded across (min 1).
    pub threads: usize,
    /// Times the whole trace is classified; the report aggregates all
    /// passes. More passes smooth out scheduler noise on short traces.
    pub passes: usize,
}

impl EngineConfig {
    /// `threads` workers, one timing pass.
    pub fn new(threads: usize) -> Self {
        EngineConfig { threads: threads.max(1), passes: 1 }
    }

    /// Set the number of timing passes (min 1).
    pub fn with_passes(mut self, passes: usize) -> Self {
        self.passes = passes.max(1);
        self
    }
}

/// Aggregate result of a timed [`run_engine`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineReport {
    /// Worker threads used.
    pub threads: usize,
    /// Total packets classified across all passes.
    pub packets: usize,
    /// Wall-clock seconds for all passes.
    pub seconds: f64,
    /// Aggregate throughput: `packets / seconds`.
    pub packets_per_sec: f64,
}

/// The one sharding loop. Workers spawn **once** and loop their `passes`
/// internally, amortising thread start-up as a long-lived server would.
fn serve_sharded<T: BatchClassifier>(
    tree: &T,
    trace: &[Packet],
    out: &mut [Option<RuleId>],
    threads: usize,
    passes: usize,
) {
    let serve = |pkts: &[Packet], results: &mut [Option<RuleId>]| {
        for _ in 0..passes {
            tree.classify_batch(pkts, results);
        }
    };
    if threads <= 1 || trace.len() < 2 {
        return serve(trace, out);
    }
    // Ceiling division so every packet lands in one of <= `threads`
    // contiguous shards (the last shard may be short).
    let shard = trace.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (pkts, results) in trace.chunks(shard).zip(out.chunks_mut(shard)) {
            scope.spawn(move || serve(pkts, results));
        }
    });
}

/// Classify `trace` into `out` using `threads` workers over the shared
/// tree. Shards are contiguous chunks, so `out[i]` is exactly what
/// `tree.classify(&trace[i])` returns regardless of the thread count.
///
/// # Panics
/// Panics if `trace` and `out` have different lengths.
pub fn classify_sharded<T: BatchClassifier>(
    tree: &T,
    trace: &[Packet],
    out: &mut [Option<RuleId>],
    threads: usize,
) {
    // nc-lint: allow(no-panic-in-serving, error-taxonomy, reason = "documented length-contract guard (see # Panics); misuse is a caller bug, not runtime input")
    assert_eq!(trace.len(), out.len(), "output slice must match the trace");
    serve_sharded(tree, trace, out, threads, 1);
}

/// Time a sharded serving run over `cfg.passes` passes and report the
/// aggregate packets/sec. Returns the classification results (which
/// are identical on every pass, and identical to the scalar lookup)
/// alongside the report.
pub fn run_engine<T: BatchClassifier>(
    tree: &T,
    trace: &[Packet],
    cfg: EngineConfig,
) -> (Vec<Option<RuleId>>, EngineReport) {
    let threads = cfg.threads.max(1);
    let mut out = vec![None; trace.len()];
    let start = std::time::Instant::now();
    serve_sharded(tree, trace, &mut out, threads, cfg.passes);
    let seconds = start.elapsed().as_secs_f64();
    let packets = trace.len() * cfg.passes;
    let report = EngineReport {
        threads,
        packets,
        seconds,
        packets_per_sec: if seconds > 0.0 { packets as f64 / seconds } else { 0.0 },
    };
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{ClassifierHandle, RebuildPolicy};
    use crate::tree::DecisionTree;
    use classbench::{
        generate_rules, generate_trace, ClassifierFamily, Dim, GeneratorConfig, TraceConfig,
    };

    fn compiled_tree() -> (FlatTree, classbench::RuleSet) {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 200).with_seed(7));
        let mut tree = DecisionTree::new(&rules);
        let kids = tree.cut_node(tree.root(), Dim::SrcIp, 8);
        for k in kids {
            if !tree.is_terminal(k, 8) {
                tree.cut_node(k, Dim::DstPort, 4);
            }
        }
        (FlatTree::compile(&tree), rules)
    }

    #[test]
    fn sharded_results_match_scalar_for_any_thread_count() {
        let (flat, rules) = compiled_tree();
        let trace = generate_trace(&rules, &TraceConfig::new(333).with_seed(8));
        let expect: Vec<_> = trace.iter().map(|p| flat.classify(p)).collect();
        for threads in [1, 2, 3, 4, 8, 64, 1000] {
            let mut out = vec![None; trace.len()];
            classify_sharded(&flat, &trace, &mut out, threads);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn sharded_handles_degenerate_traces() {
        let (flat, rules) = compiled_tree();
        for len in [0usize, 1, 2] {
            let trace = generate_trace(&rules, &TraceConfig::new(len).with_seed(9));
            let mut out = vec![None; len];
            classify_sharded(&flat, &trace, &mut out, 4);
            for (p, got) in trace.iter().zip(&out) {
                assert_eq!(*got, flat.classify(p));
            }
        }
    }

    #[test]
    fn run_engine_reports_all_passes() {
        let (flat, rules) = compiled_tree();
        let trace = generate_trace(&rules, &TraceConfig::new(100).with_seed(10));
        let (out, report) = run_engine(&flat, &trace, EngineConfig::new(2).with_passes(3));
        assert_eq!(report.threads, 2);
        assert_eq!(report.packets, 300);
        assert!(report.seconds >= 0.0);
        assert!(report.packets_per_sec > 0.0);
        let expect: Vec<_> = trace.iter().map(|p| flat.classify(p)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn config_clamps_to_sane_minimums() {
        let cfg = EngineConfig::new(0).with_passes(0);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.passes, 1);
    }

    fn live_handle() -> (ClassifierHandle, classbench::RuleSet) {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 150).with_seed(50));
        let mut tree = DecisionTree::new(&rules);
        for k in tree.cut_node(tree.root(), Dim::SrcIp, 8) {
            if !tree.is_terminal(k, 8) {
                tree.cut_node(k, Dim::DstPort, 4);
            }
        }
        (ClassifierHandle::new(tree, RebuildPolicy::default_policy()), rules)
    }

    #[test]
    fn live_sharded_matches_static_engine_when_idle() {
        let (handle, rules) = live_handle();
        let trace = generate_trace(&rules, &TraceConfig::new(257).with_seed(51));
        let flat = handle.with_tree(FlatTree::compile);
        let expect: Vec<_> = trace.iter().map(|p| flat.classify(p)).collect();
        for threads in [1, 2, 5] {
            let mut out = vec![None; trace.len()];
            classify_sharded(&*handle.snapshot(), &trace, &mut out, threads);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn live_engine_picks_up_published_updates() {
        let (handle, rules) = live_handle();
        let trace = generate_trace(&rules, &TraceConfig::new(120).with_seed(52));
        // Serve a run, apply updates, serve again from a fresh
        // snapshot: the second run must see the post-update epoch.
        let cfg = EngineConfig::new(2).with_passes(2);
        let snap = handle.snapshot();
        assert_eq!(snap.epoch(), 0);
        let (before, _) = run_engine(&*snap, &trace, cfg);
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        let id = handle.insert(classbench::Rule::default_rule(top + 1)).unwrap();
        let snap = handle.snapshot();
        assert!(snap.epoch() >= 1, "a fresh snapshot must carry the new epoch");
        let (after, _) = run_engine(&*snap, &trace, cfg);
        assert!(after.iter().all(|&m| m == Some(id)), "shadowing insert must win everywhere");
        assert_ne!(before, after);
        // And the results equal a from-scratch rebuild of the tree.
        let rebuilt = handle.with_tree(FlatTree::compile);
        let want: Vec<_> = trace.iter().map(|p| rebuilt.classify(p)).collect();
        assert_eq!(after, want);
    }

    #[test]
    fn held_snapshot_serves_its_own_epoch_on_every_shard() {
        let (handle, rules) = live_handle();
        let trace = generate_trace(&rules, &TraceConfig::new(301).with_seed(54));
        let held = handle.snapshot();
        let want: Vec<_> = trace.iter().map(|p| held.classify(p)).collect();
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        let id = handle.insert(classbench::Rule::default_rule(top + 1)).unwrap();
        assert_ne!(handle.epoch(), held.epoch(), "the handle must have moved on");
        for threads in [2, 3, 7] {
            let (out, report) = run_engine(&*held, &trace, EngineConfig::new(threads));
            assert_eq!(report.threads, threads);
            assert_eq!(out, want, "threads={threads}: every shard serves the held epoch");
        }
        assert!(want.iter().all(|&m| m != Some(id)), "the held epoch predates the insert");
        let (now, _) = run_engine(&*handle.snapshot(), &trace, EngineConfig::new(2));
        assert!(now.iter().all(|&m| m == Some(id)), "the current epoch serves the insert");
    }

    #[test]
    fn live_engine_survives_concurrent_churn() {
        let (handle, rules) = live_handle();
        let trace = generate_trace(&rules, &TraceConfig::new(400).with_seed(53));
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        std::thread::scope(|scope| {
            let h = &handle;
            let t = &trace;
            let reader = scope.spawn(move || {
                let mut total = 0usize;
                for _ in 0..20 {
                    // Each run serves one consistent snapshot on every
                    // shard, whatever the writer does meanwhile.
                    let snap = h.snapshot();
                    let (out, _) = run_engine(&*snap, t, EngineConfig::new(2));
                    assert!(t.iter().zip(&out).all(|(p, &got)| got == snap.classify(p)));
                    total += out.len();
                }
                total
            });
            let mut inserted = Vec::new();
            for i in 0..30 {
                inserted.push(h.insert(classbench::Rule::default_rule(top + 1 + i)).unwrap());
                if i % 3 == 0 {
                    h.delete(inserted[inserted.len() - 1]).unwrap();
                }
            }
            assert_eq!(reader.join().unwrap(), 20 * trace.len());
        });
        // After the dust settles, the handle serves exactly a rebuild.
        let rebuilt = handle.with_tree(FlatTree::compile);
        let snap = handle.snapshot();
        for p in &trace {
            assert_eq!(snap.classify(p), rebuilt.classify(p), "post-churn at {p}");
        }
    }
}
