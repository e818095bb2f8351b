//! `retrain`: a HiCuts-served live handle over ACL 300 takes churn past
//! the retrain trigger; one synchronous `LifecycleWorker::poll` then
//! retrains (one short training iteration on one environment), adopts
//! the result, and the adopted snapshot serves a uniform trace. Repeated
//! (set-up, retrain, serve) until the measured time is used up, so the
//! training rate is the fast tail of about a thousand identical retrains.
//!
//! The traced run replaces the poll's internal train-then-adopt with
//! the same public calls in the same order (rule snapshot, per
//! iteration `VecEnv::collect` then `Ppo::update` on a net built as
//! `Trainer::new` builds it, then `adopt`) so each gets its own span,
//! and checks that the replica adopts exactly the tree the real poll
//! adopted.

use super::{
    acl, build_baseline, check_batches, linear_truth, serve_pass, timing_detail, trace,
    UpdateStream,
};
use crate::metrics::Outcome;
use crate::stats::{fast_rate, mean, median, percentile};
use crate::tracer::{Layer, Tracer};
use crate::{envinfo, RunConfig};
use classbench::{Packet, TrafficSkew};
use dtree::{average_lookup_cost, ClassifierHandle, RebuildPolicy, TreeStats};
use neurocuts::{LifecycleConfig, LifecycleWorker, NeuroCutsConfig, NeuroCutsEnv, VecEnv};
use nn::{InferBuffer, Matrix, NetConfig, PolicyValueNet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rl::Ppo;
use std::time::{Duration, Instant};

/// Seed of the served rules, the donors and the pre-retrain churn: the
/// retrained rule set, and so the adopted tree, is the same every run.
const RULES_SEED: u64 = 1;
const DONOR_SEED: u64 = 2;
const CHURN_SEED: u64 = 3;
/// Base training seed; the worker's first retrain uses base + 1.
const TRAIN_SEED: u64 = 0x7EA1;
/// Set-ups per repeat, all timed; the last one is retrained. A set-up
/// takes about a millisecond, so a run times several hundred.
const SETUPS: usize = 4;
/// Timed passes over the serving trace per repeat: a pass takes about
/// a millisecond, and the serving rate is the fast tail of them all.
const PASSES: usize = 4;

/// What one repeat measured.
struct Repeat {
    /// Every set-up of the repeat.
    setup_s: Vec<f64>,
    steps: usize,
    train_s: f64,
    resident_bytes: usize,
    stats: TreeStats,
}

/// Per-layer figures of one replica retrain.
#[derive(Default)]
struct Replica {
    collect_s: f64,
    update_s: f64,
    adopt_ms: f64,
    infer_us: f64,
    steps: usize,
    episodes: usize,
    iterations: usize,
}

fn train_config(cfg: &RunConfig) -> NeuroCutsConfig {
    let s = &cfg.scale;
    let mut train = NeuroCutsConfig::small(s.retrain_timesteps);
    train.hidden = s.hidden;
    train.num_envs = s.retrain_envs;
    train.timesteps_per_batch = s.retrain_timesteps;
    train.max_timesteps_per_rollout = s.retrain_timesteps;
    train.workers = envinfo::nproc();
    train.patience = 0;
    train.seed = TRAIN_SEED;
    train
}

pub(super) fn run(cfg: &RunConfig, t: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let s = &cfg.scale;
    let lcfg = LifecycleConfig::new(train_config(cfg));
    let (rules, _) = acl(t, s.retrain_rules, RULES_SEED);
    let (donors, _) = acl(t, s.retrain_rules, DONOR_SEED);
    let spot = trace(t, &rules, 1_024, TrafficSkew::Uniform, RULES_SEED);

    let mut repeats: Vec<Repeat> = Vec::new();
    let mut replicas: Vec<Replica> = Vec::new();
    let mut poll_s = Vec::new();
    let (mut gen_s, mut build_s, mut compile_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut insert_us, mut delete_us) = (Vec::new(), Vec::new());
    let (mut batch_ns, mut fetch_ns) = (Vec::new(), Vec::new());
    let mut serve_trace: Option<(Vec<Packet>, Vec<Option<usize>>)> = None;
    let mut nodes_per_pkt = 0.0;
    let mut pass_mpps = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while repeats.len() < s.min_repeats || Instant::now() < deadline {
        // Set-up: generate, build, compile, attach the worker, churn
        // until the trigger fires; `SETUPS` times.
        let mut setup = Vec::with_capacity(SETUPS);
        let mut ready = None;
        for _ in 0..SETUPS {
            let start = Instant::now();
            let (r, g) = acl(t, s.retrain_rules, RULES_SEED);
            let (tree, b) =
                t.secs(Layer::Baselines, "baselines.build", || build_baseline("HiCuts", &r));
            let (handle, c) = t.secs(Layer::DtreeFlat, "dtree.flat.compile", || {
                ClassifierHandle::new(tree, RebuildPolicy::default_policy())
            });
            let (worker, _) = t.time(Layer::CoreLifecycle, "core.lifecycle.worker_new", || {
                LifecycleWorker::new(lcfg.clone(), &handle)
            });
            let mut stream = UpdateStream::new(&r, &donors, CHURN_SEED);
            let needed = churn_to_trigger(&lcfg, r.len());
            for _ in 0..needed {
                let u = stream.step(t, &handle);
                out.checks.check(u.result.is_ok(), || {
                    format!("admissible update refused: {:?}", u.result)
                });
                let us = u.took.as_secs_f64() * 1e6;
                if u.insert { &mut insert_us } else { &mut delete_us }.push(us);
            }
            setup.push(start.elapsed().as_secs_f64());
            gen_s.push(g);
            build_s.push(b);
            compile_ms.push(c * 1e3);
            if r != rules {
                return Err("rule generation is not deterministic".into());
            }
            ready = Some((handle, worker));
        }
        let Some((handle, mut worker)) = ready else { unreachable!("at least one set-up") };

        // Correct before the retrain: the churned snapshot against the
        // linear scan over the handle's current rules.
        let snap_rules = handle.rule_snapshot();
        let truth = linear_truth(t, snap_rules.rules(), Some(snap_rules.map()), &spot);
        let mut got = vec![None; spot.len()];
        handle.snapshot().classify_batch(&spot, &mut got);
        check_batches(&mut out.checks, &got, &truth, s.batch, "pre-retrain snapshot");

        // The retrain: the real poll, except in traced repeats after
        // the first, which run the replica.
        let (steps, train_s) = if t.enabled() && !repeats.is_empty() {
            let started = Instant::now();
            let rep = replica(t, &lcfg, &handle, &spot)?;
            let took = started.elapsed().as_secs_f64();
            let steps = rep.steps;
            replicas.push(rep);
            (steps, took)
        } else {
            let (event, took) = t.secs(Layer::CoreLifecycle, "core.lifecycle.poll", || {
                worker.poll(&handle, &spot).cloned()
            });
            poll_s.push(took);
            let adopted = event.as_ref().is_some_and(|e| e.adopted);
            out.checks.check(adopted, || {
                format!("retrain not adopted: {:?}", event.as_ref().map(|e| &e.skipped))
            });
            (event.map_or(0, |e| e.timesteps), took)
        };
        let (stats, _) =
            t.time(Layer::DtreeTree, "dtree.tree.stats", || handle.with_tree(TreeStats::compute));
        if let Some(first) = repeats.first() {
            // Fixed rules, churn and seed: every retrain adopts the same
            // tree, whether through the poll or the traced replica.
            out.checks.check(stats == first.stats, || {
                format!("retrain is not deterministic: {stats:?} vs {:?}", first.stats)
            });
        }

        // The adopted snapshot against the linear scan, then served.
        let adopted_rules = handle.rule_snapshot();
        let (packets, truth) = serve_trace.get_or_insert_with(|| {
            let p = trace(t, adopted_rules.rules(), s.trace_len, TrafficSkew::Uniform, cfg.seed);
            let truth = linear_truth(t, adopted_rules.rules(), Some(adopted_rules.map()), &p);
            (p, truth)
        });
        let mut answers = vec![None; packets.len()];
        serve_pass(
            t,
            &handle,
            packets,
            &mut answers,
            s.batch,
            Layer::Bench,
            "verify.classify_batch",
            &mut Vec::new(),
            &mut Vec::new(),
        );
        check_batches(&mut out.checks, &answers, truth, s.batch, "adopted snapshot");
        for _ in 0..PASSES {
            let took = serve_pass(
                t,
                &handle,
                packets,
                &mut answers,
                s.batch,
                Layer::DtreeFlat,
                "dtree.flat.classify_batch",
                &mut batch_ns,
                &mut fetch_ns,
            );
            pass_mpps.push(packets.len() as f64 / took.as_secs_f64() / 1e6);
            check_batches(&mut out.checks, &answers, truth, s.batch, "adopted snapshot");
        }
        if t.enabled() && repeats.is_empty() {
            nodes_per_pkt = t
                .time(Layer::DtreeTree, "dtree.tree.average_lookup_cost", || {
                    handle.with_tree(|tr| average_lookup_cost(tr, packets))
                })
                .0;
        }
        repeats.push(Repeat {
            setup_s: setup,
            steps,
            train_s,
            resident_bytes: handle.snapshot().flat().resident_bytes(),
            stats,
        });
    }

    let col = |f: &dyn Fn(&Repeat) -> f64| repeats.iter().map(f).collect::<Vec<f64>>();
    let first = &repeats[0];
    let setups: Vec<f64> = repeats.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    out.e2e.insert("setup_s", percentile(&setups, 1.0));
    out.e2e.insert("serve_mpps", fast_rate(&pass_mpps));
    out.e2e.insert("work_per_s", fast_rate(&col(&|r| r.steps as f64 / r.train_s)));
    out.e2e.insert("resident_mb", first.resident_bytes as f64 / 1e6);
    out.e2e.insert("tree_accesses", first.stats.time as f64);
    out.e2e.insert("bytes_per_rule", first.stats.bytes_per_rule);
    out.detail("retrain.repeats", repeats.len() as f64);
    out.detail("retrain.timesteps", first.steps as f64);
    timing_detail(out, "retrain.train_s", &col(&|r| r.train_s));
    timing_detail(out, "retrain.setup_s", &setups);
    if t.enabled() {
        let rcol =
            |f: &dyn Fn(&Replica) -> f64| median(&replicas.iter().map(f).collect::<Vec<f64>>());
        out.layer("classbench.generate_s", median(&gen_s));
        out.layer("baselines.build_s.hicuts", median(&build_s));
        out.layer("dtree.flat.compile_ms", median(&compile_ms));
        out.layer("dtree.serve.insert_us.p50", percentile(&insert_us, 50.0));
        out.layer("dtree.serve.insert_us.p99", percentile(&insert_us, 99.0));
        out.layer("dtree.serve.delete_us.p50", percentile(&delete_us, 50.0));
        out.layer("dtree.serve.delete_us.p99", percentile(&delete_us, 99.0));
        out.layer("dtree.serve.snapshot_ns", mean(&fetch_ns));
        let pkts = (batch_ns.len() * s.batch).max(1) as f64;
        out.layer("dtree.flat.ns_per_pkt.neurocuts", batch_ns.iter().sum::<f64>() / pkts);
        out.layer("dtree.flat.batch_p99_us.neurocuts", percentile(&batch_ns, 99.0) / 1e3);
        out.layer("dtree.tree.nodes_per_pkt.neurocuts", nodes_per_pkt);
        out.layer("dtree.flat.resident_bytes.neurocuts", first.resident_bytes as f64);
        out.layer("core.lifecycle.poll_s", median(&poll_s));
        out.layer("core.vecenv.collect_s", rcol(&|r| r.collect_s));
        out.layer("rl.ppo.update_s", rcol(&|r| r.update_s));
        out.layer("dtree.serve.adopt_ms", rcol(&|r| r.adopt_ms));
        out.layer("nn.policy_value.infer_us", rcol(&|r| r.infer_us));
        out.layer("core.env.steps", rcol(&|r| r.steps as f64));
        out.layer("core.env.episodes", rcol(&|r| r.episodes as f64));
        out.layer("core.trainer.iterations", rcol(&|r| r.iterations as f64));
    }
    Ok(())
}

/// Updates that take a freshly attached worker's trigger over its
/// churn fraction (with a margin), and never fewer than its minimum.
fn churn_to_trigger(lcfg: &LifecycleConfig, rules: usize) -> usize {
    let trig = lcfg.trigger;
    ((trig.min_churn * 1.2 * rules as f64).ceil() as usize).max(trig.min_updates)
}

/// The poll's retrain-then-adopt through public calls, in order.
fn replica(
    t: &Tracer,
    lcfg: &LifecycleConfig,
    handle: &ClassifierHandle,
    spot: &[Packet],
) -> Result<Replica, String> {
    let mut rep = Replica::default();
    let (snap, _) =
        t.time(Layer::DtreeServe, "dtree.serve.rule_snapshot", || handle.rule_snapshot());
    let mut cfg = lcfg.train.clone();
    // The worker's first retrain trains with base seed + 1.
    cfg.seed = cfg.seed.wrapping_add(1);
    let (env, _) = t.time(Layer::CoreEnv, "core.env.new", || {
        NeuroCutsEnv::new(snap.rules().clone(), cfg.clone())
    });
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x006e_6574); // "net", as Trainer::new
    let (mut net, _) = t.time(Layer::Nn, "nn.policy_value.new", || {
        PolicyValueNet::new(
            NetConfig {
                obs_dim: env.encoder.obs_dim(),
                dim_actions: env.action_space.dim_actions(),
                num_actions: env.action_space.num_actions(),
                hidden: cfg.hidden,
            },
            &mut rng,
        )
    });
    let mut ppo = Ppo::new(cfg.ppo, cfg.seed);
    let mut venv = VecEnv::new(env.clone(), cfg.num_envs.max(1), cfg.seed.wrapping_add(1));
    while rep.steps < cfg.max_timesteps {
        let (batch, d) = t.secs(Layer::CoreVecenv, "core.vecenv.collect", || {
            venv.collect(&net, cfg.timesteps_per_batch, cfg.workers)
        });
        if batch.is_empty() {
            return Err("replica collected an empty batch".into());
        }
        rep.collect_s += d;
        rep.steps += batch.len();
        rep.episodes += batch.episodes;
        let (_, u) = t.secs(Layer::RlPpo, "rl.ppo.update", || ppo.update(&mut net, &batch));
        rep.update_s += u;
        rep.iterations += 1;
    }
    rep.infer_us = infer_us(t, &env, &net, cfg.num_envs.max(1));
    // As `Trainer::train_to_tree`: the best completed tree, else greedy.
    let tree = match env.best() {
        Some(best) => best.tree,
        None => {
            t.time(Layer::CoreEnv, "core.env.build_tree", || env.build_tree(&net, 0, true)).0.tree
        }
    };
    let probes: Vec<Packet> =
        spot.iter().copied().chain(snap.rules().rules().iter().map(|r| r.low_corner())).collect();
    let (adopted, d) =
        t.time(Layer::DtreeServe, "dtree.serve.adopt", || handle.adopt(&tree, &snap, &probes));
    adopted.map_err(|e| format!("replica adopt refused: {e}"))?;
    rep.adopt_ms = d.as_secs_f64() * 1e3;
    Ok(rep)
}

/// Median time of one batched forward over `n` root observations.
fn infer_us(t: &Tracer, env: &NeuroCutsEnv, net: &PolicyValueNet, n: usize) -> f64 {
    let mut st = env.start_episode(0, true);
    if !env.next_decision(&mut st) {
        return 0.0;
    }
    let obs = st.pending().map(|p| p.obs.clone()).unwrap_or_default();
    let mut x = Matrix::default();
    x.reset(obs.len());
    for _ in 0..n {
        x.push_row(&obs);
    }
    let mut buf = InferBuffer::default();
    let samples: Vec<f64> = (0..32)
        .map(|_| {
            t.time(Layer::Nn, "nn.policy_value.infer", || net.infer(&x, &mut buf)).1.as_secs_f64()
                * 1e6
        })
        .collect();
    median(&samples)
}
