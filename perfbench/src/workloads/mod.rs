//! The three workloads and the pieces they share.

mod churn;
mod lookup;
mod retrain;

use crate::metrics::{Checks, Outcome};
use crate::stats;
use crate::tracer::{Layer, Tracer};
use crate::RunConfig;
use baselines::{
    build_cutsplit, build_efficuts, build_hicuts, build_hypercuts, build_hypersplit,
    CutSplitConfig, EffiCutsConfig, HiCutsConfig, HyperCutsConfig, HyperSplitConfig,
};
use classbench::{
    generate_rules, generate_skewed_trace, ClassifierFamily, GeneratorConfig, Packet, Rule,
    RuleSet, SkewedTraceConfig, TrafficSkew,
};
use dtree::{ClassifierHandle, DecisionTree, RuleId, UpdateError, WalRecord};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Run the workload `cfg.workload` names.
pub fn run(cfg: &RunConfig, t: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match cfg.workload.as_str() {
        "lookup" => lookup::run(cfg, t, &mut out),
        "churn" => churn::run(cfg, t, &mut out)?,
        "retrain" => retrain::run(cfg, t, &mut out)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(out)
}

/// ACL rules from the ClassBench-style generator.
fn acl(t: &Tracer, size: usize, seed: u64) -> (RuleSet, f64) {
    t.secs(Layer::Classbench, "classbench.generate_rules", || {
        generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, size).with_seed(seed))
    })
}

/// A trace of `len` packets over `rules` with the given skew.
fn trace(t: &Tracer, rules: &RuleSet, len: usize, skew: TrafficSkew, seed: u64) -> Vec<Packet> {
    t.time(Layer::Classbench, "classbench.generate_skewed_trace", || {
        generate_skewed_trace(rules, &SkewedTraceConfig::new(len, skew).with_seed(seed))
    })
    .0
}

/// Build one baseline with its default configuration.
fn build_baseline(name: &str, rules: &RuleSet) -> DecisionTree {
    match name {
        "HiCuts" => build_hicuts(rules, &HiCutsConfig::default()),
        "HyperCuts" => build_hypercuts(rules, &HyperCutsConfig::default()),
        "HyperSplit" => build_hypersplit(rules, &HyperSplitConfig::default()),
        "EffiCuts" => build_efficuts(rules, &EffiCutsConfig::default()),
        "CutSplit" => build_cutsplit(rules, &CutSplitConfig::default()),
        other => unreachable!("no baseline called {other}"),
    }
}

/// Ground truth by linear scan: the matching rule of every packet, as
/// a handle rule id through `map` (a [`dtree::RuleSnapshot`] id map),
/// or as the rule's index when the handle was built from `rules`.
fn linear_truth(
    t: &Tracer,
    rules: &RuleSet,
    map: Option<&[RuleId]>,
    packets: &[Packet],
) -> Vec<Option<RuleId>> {
    t.time(Layer::Bench, "verify.linear_scan", || {
        packets.iter().map(|p| rules.classify(p).map(|i| map.map_or(i, |m| m[i]))).collect()
    })
    .0
}

/// Compare answers batch by batch: each batch is one checked operation.
fn check_batches(
    checks: &mut Checks,
    got: &[Option<RuleId>],
    want: &[Option<RuleId>],
    batch: usize,
    what: &str,
) {
    for (i, (g, w)) in got.chunks(batch).zip(want.chunks(batch)).enumerate() {
        checks.check(g == w, || {
            let k = g.iter().zip(w).position(|(a, b)| a != b).unwrap_or(0);
            format!(
                "{what}: packet {} answered {:?}, linear scan says {:?}",
                i * batch + k,
                g[k],
                w[k]
            )
        });
    }
}

/// Classify `packets` through the handle's current snapshot, one
/// snapshot fetch per batch: the serving loop of a single closed-loop
/// caller. Returns the pass's wall time; in a traced run per-batch
/// classify and fetch times are appended to `batch_ns` / `fetch_ns`.
#[allow(clippy::too_many_arguments)]
fn serve_pass(
    t: &Tracer,
    handle: &ClassifierHandle,
    packets: &[Packet],
    out: &mut [Option<RuleId>],
    batch: usize,
    layer: Layer,
    name: &'static str,
    batch_ns: &mut Vec<f64>,
    fetch_ns: &mut Vec<f64>,
) -> Duration {
    let start = Instant::now();
    for (pk, o) in packets.chunks(batch).zip(out.chunks_mut(batch)) {
        let (snap, fetch) = t.time(Layer::DtreeServe, "dtree.serve.snapshot", || handle.snapshot());
        let ((), d) = t.time(layer, name, || snap.classify_batch(pk, o));
        if t.enabled() {
            batch_ns.push(d.as_nanos() as f64);
            fetch_ns.push(fetch.as_nanos() as f64);
        }
    }
    start.elapsed()
}

/// Record a timing sample set in the detail line: median, sample count,
/// extremes and the highest percentile with at least ten samples beyond
/// it.
fn timing_detail(out: &mut Outcome, name: &str, samples: &[f64]) {
    out.detail(format!("{name}.median"), stats::median(samples));
    out.detail(format!("{name}.n"), samples.len() as f64);
    out.detail(format!("{name}.min"), stats::percentile(samples, 0.0));
    out.detail(format!("{name}.max"), stats::percentile(samples, 100.0));
    if let Some(p) = stats::tail_percentile(samples.len()) {
        out.detail(format!("{name}.p{p}"), stats::percentile(samples, p));
    }
}

/// Outcome of one update from an [`UpdateStream`].
struct Update {
    insert: bool,
    took: Duration,
    result: Result<(), UpdateError>,
    /// The WAL record the handle logged for it (admitted updates only).
    record: Option<WalRecord>,
}

/// A seeded stream of admissible updates against one live handle:
/// inserts of donor rules under fresh priorities and deletes of live
/// ids. Inserts are 60% of updates while the live rule count is at or
/// below its starting size and 40% above it, so the count hovers
/// around the starting size however long the stream runs.
struct UpdateStream {
    rng: ChaCha8Rng,
    donors: Vec<Rule>,
    live: Vec<RuleId>,
    used: HashSet<i32>,
    target: usize,
    max_priority: i32,
}

impl UpdateStream {
    /// A stream for a handle freshly built from `rules` (so rule index
    /// = handle id). The default rule is never deleted.
    fn new(rules: &RuleSet, donors: &RuleSet, seed: u64) -> Self {
        let live: Vec<RuleId> =
            rules.iter().filter(|(_, r)| !r.is_default()).map(|(i, _)| i).collect();
        UpdateStream {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x7570_6461), // "upda"
            donors: donors.rules().iter().filter(|r| !r.is_default()).cloned().collect(),
            target: live.len(),
            live,
            used: rules.rules().iter().map(|r| r.priority).collect(),
            max_priority: (8 * rules.len()).max(64) as i32,
        }
    }

    /// Apply the next update to `handle`.
    fn step(&mut self, t: &Tracer, handle: &ClassifierHandle) -> Update {
        let p_insert = if self.live.len() <= self.target { 0.6 } else { 0.4 };
        if self.live.is_empty() || self.rng.gen_bool(p_insert) {
            let mut rule = self.donors[self.rng.gen_range(0..self.donors.len())].clone();
            rule.priority = loop {
                let p = self.rng.gen_range(1..self.max_priority);
                if self.used.insert(p) {
                    break p;
                }
            };
            let logged = rule.clone();
            let (r, took) = t.time(Layer::DtreeServe, "dtree.serve.insert", || handle.insert(rule));
            let record = r.as_ref().ok().map(|&id| WalRecord::Insert { id, rule: logged });
            if let Ok(id) = r {
                self.live.push(id);
            }
            Update { insert: true, took, result: r.map(|_| ()), record }
        } else {
            let id = self.live.swap_remove(self.rng.gen_range(0..self.live.len()));
            let (r, took) = t.time(Layer::DtreeServe, "dtree.serve.delete", || handle.delete(id));
            let record = r.is_ok().then_some(WalRecord::Delete { id });
            Update { insert: false, took, result: r, record }
        }
    }
}
