//! `lookup`: five baseline trees over ACL 1k, each served by a live
//! handle with no updates, one closed-loop caller at a time.

use super::{acl, build_baseline, check_batches, linear_truth, serve_pass, timing_detail, trace};
use crate::metrics::{Outcome, BASELINES};
use crate::stats::{fast_rate, geomean, mean, median, percentile};
use crate::tracer::{Layer, Tracer};
use crate::{envinfo, RunConfig};
use classbench::{RuleSet, TrafficSkew};
use dtree::{
    average_lookup_cost, run_engine, ClassifierHandle, EngineConfig, RebuildPolicy, TreeStats,
};
use std::time::{Duration, Instant};

/// Rule-set seed: the served rules are the same on every run; the
/// run's seed picks the traffic.
const RULES_SEED: u64 = 0;

/// Set-up timings, one entry per set-up.
#[derive(Default)]
struct SetUps {
    setup_s: Vec<f64>,
    gen_s: Vec<f64>,
    /// Build seconds per set-up, per baseline.
    build_s: Vec<[f64; BASELINES.len()]>,
    compile_ms: Vec<f64>,
}

impl SetUps {
    /// Generate the rules, build and compile the five trees.
    fn run(&mut self, t: &Tracer, rules: usize) -> (RuleSet, Vec<ClassifierHandle>) {
        let start = Instant::now();
        let (rules, g) = acl(t, rules, RULES_SEED);
        let mut build = [0.0; BASELINES.len()];
        let mut handles = Vec::with_capacity(BASELINES.len());
        for (b, (name, _)) in build.iter_mut().zip(BASELINES) {
            let (tree, secs) =
                t.secs(Layer::Baselines, "baselines.build", || build_baseline(name, &rules));
            let (h, c) = t.secs(Layer::DtreeFlat, "dtree.flat.compile", || {
                ClassifierHandle::new(tree, RebuildPolicy::never())
            });
            *b = secs;
            self.compile_ms.push(c * 1e3);
            handles.push(h);
        }
        self.setup_s.push(start.elapsed().as_secs_f64());
        self.gen_s.push(g);
        self.build_s.push(build);
        (rules, handles)
    }
}

pub(super) fn run(cfg: &RunConfig, t: &Tracer, out: &mut Outcome) {
    let s = &cfg.scale;
    let n_algos = BASELINES.len();

    // Serve from the first set-up; the others are spread over the
    // measured time (between serving rounds, untimed by them), so that
    // set-up is sampled across the whole run rather than only its start.
    let mut setups = SetUps::default();
    let (rules, handles) = setups.run(t, s.lookup_rules);
    let setup_every = Duration::from_secs_f64(cfg.seconds / s.setups.max(1) as f64);

    let packets = trace(t, &rules, s.trace_len, TrafficSkew::Uniform, cfg.seed);
    let truth = linear_truth(t, &rules, None, &packets);
    let mut answers = vec![None; packets.len()];
    let (mut batch_ns, mut fetch_ns) = (Vec::new(), Vec::new());

    // Every tree answers the whole trace correctly before timing.
    for (h, (_, key)) in handles.iter().zip(BASELINES) {
        serve_pass(
            t,
            h,
            &packets,
            &mut answers,
            s.batch,
            Layer::Bench,
            "verify.classify_batch",
            &mut batch_ns,
            &mut fetch_ns,
        );
        check_batches(&mut out.checks, &answers, &truth, s.batch, &format!("{key} before timing"));
    }
    batch_ns.clear();
    fetch_ns.clear();

    // Measure: whole-trace passes, round-robin over the five trees, so
    // machine noise spreads evenly across them.
    let mut mpps = vec![Vec::new(); n_algos];
    let mut per_algo_batch_ns = vec![Vec::new(); n_algos];
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut next_setup = Instant::now() + setup_every;
    while Instant::now() < deadline {
        if Instant::now() >= next_setup {
            let (again, _) = setups.run(t, s.lookup_rules);
            if again != rules {
                out.checks.check(false, || "rule generation is not deterministic".into());
            }
            next_setup += setup_every;
        }
        for (i, h) in handles.iter().enumerate() {
            let took = serve_pass(
                t,
                h,
                &packets,
                &mut answers,
                s.batch,
                Layer::DtreeFlat,
                "dtree.flat.classify_batch",
                &mut per_algo_batch_ns[i],
                &mut fetch_ns,
            );
            mpps[i].push(packets.len() as f64 / took.as_secs_f64() / 1e6);
            check_batches(&mut out.checks, &answers, &truth, s.batch, BASELINES[i].1);
        }
    }

    let mut rates = Vec::with_capacity(n_algos);
    let mut resident = 0usize;
    let mut tree_stats = Vec::with_capacity(n_algos);
    let threads = envinfo::nproc().min(2);
    for (i, (h, (_, key))) in handles.iter().zip(BASELINES).enumerate() {
        let m = fast_rate(&mpps[i]);
        rates.push(m);
        timing_detail(out, &format!("lookup.mpps.{key}"), &mpps[i]);
        let snap = h.snapshot();
        let bytes = snap.flat().resident_bytes();
        resident += bytes;
        let (st, _) =
            t.time(Layer::DtreeTree, "dtree.tree.stats", || h.with_tree(TreeStats::compute));
        tree_stats.push(st);
        out.detail(format!("lookup.tree_accesses.{key}"), st.time as f64);
        if t.enabled() {
            let b = &per_algo_batch_ns[i];
            let pkts = (b.len() * s.batch).max(1) as f64;
            out.layer(format!("dtree.flat.ns_per_pkt.{key}"), b.iter().sum::<f64>() / pkts);
            out.layer(format!("dtree.flat.batch_p99_us.{key}"), percentile(b, 99.0) / 1e3);
            out.layer(format!("dtree.flat.resident_bytes.{key}"), bytes as f64);
            out.layer(
                format!("baselines.build_s.{key}"),
                median(&setups.build_s.iter().map(|b| b[i]).collect::<Vec<_>>()),
            );
            let (cost, _) = t.time(Layer::DtreeTree, "dtree.tree.average_lookup_cost", || {
                h.with_tree(|tree| average_lookup_cost(tree, &packets))
            });
            out.layer(format!("dtree.tree.nodes_per_pkt.{key}"), cost);
            // Multi-thread serving, reported only: passes sized from the
            // single-thread rate to take about `engine_secs`.
            let passes = (s.engine_secs * m * 1e6 / packets.len() as f64).ceil().max(1.0) as usize;
            let ((got, report), _) = t.time(Layer::DtreeEngine, "dtree.engine.run_engine", || {
                run_engine(snap.flat(), &packets, EngineConfig::new(threads).with_passes(passes))
            });
            check_batches(&mut out.checks, &got, &truth, s.batch, &format!("{key} engine"));
            out.layer(format!("dtree.engine.mpps_2t.{key}"), report.packets_per_sec / 1e6);
        }
    }

    let rules_built = (n_algos * rules.len()) as f64;
    let build_rates: Vec<f64> =
        setups.build_s.iter().map(|b| rules_built / b.iter().sum::<f64>()).collect();
    out.e2e.insert("setup_s", percentile(&setups.setup_s, 1.0));
    out.e2e.insert("serve_mpps", geomean(&rates));
    // Every set-up builds the same trees: each builder at its fastest.
    let fastest_builds: f64 = (0..n_algos)
        .map(|i| setups.build_s.iter().map(|b| b[i]).fold(f64::INFINITY, f64::min))
        .sum();
    out.e2e.insert("work_per_s", rules_built / fastest_builds);
    out.e2e.insert("resident_mb", resident as f64 / 1e6);
    out.e2e.insert(
        "tree_accesses",
        mean(&tree_stats.iter().map(|s| s.time as f64).collect::<Vec<_>>()),
    );
    out.e2e.insert(
        "bytes_per_rule",
        mean(&tree_stats.iter().map(|s| s.bytes_per_rule).collect::<Vec<_>>()),
    );
    timing_detail(out, "lookup.setup_s", &setups.setup_s);
    timing_detail(out, "lookup.build_rules_per_s", &build_rates);
    if t.enabled() {
        out.layer("classbench.generate_s", median(&setups.gen_s));
        out.layer("dtree.flat.compile_ms", median(&setups.compile_ms));
        out.layer("dtree.serve.snapshot_ns", mean(&fetch_ns));
    }
}
