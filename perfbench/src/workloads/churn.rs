//! `churn`: a HiCuts handle over ACL 1k taking a seeded insert/delete
//! stream from one closed-loop caller that also serves Zipf traffic.
//!
//! The run is a sequence of cycles (set-up, a fixed number of updates),
//! repeated until the measured time is used up. The first cycle is the
//! durable one: persistence attached with the default configuration, a
//! checkpoint whenever the WAL asks for it, and at the end a recovery
//! from disk proven equal to the live state. The cycles after it replay
//! the same update stream on a handle without persistence and are the
//! timed ones: each window of `WINDOW` updates at its fastest over them.
//! (Timed with persistence, the rates followed the host's shared,
//! throttled disk rather than the code; see `WORKLOADS.md`.)

use super::{acl, build_baseline, check_batches, linear_truth, timing_detail, trace, UpdateStream};
use crate::metrics::Outcome;
use crate::stats::{mean, median, percentile};
use crate::tracer::{Layer, Tracer};
use crate::RunConfig;
use classbench::{Packet, RuleSet, TrafficSkew};
use dtree::wal::{read_wal, WalWriter};
use dtree::{ClassifierHandle, RebuildPolicy, RuleId, TreeStats, WalRecord};
use neurocuts::persist::{
    checkpoint_path, list_checkpoint_generations, list_wal_generations, read_checkpoint, wal_path,
};
use neurocuts::{recover, PersistConfig, Persistence};
use std::path::Path;
use std::time::{Duration, Instant};

/// Seed of the served rules (the same every run).
const RULES_SEED: u64 = 1;
/// Seed of the donor rules inserts are drawn from (the same every run).
const DONOR_SEED: u64 = 2;
/// Seed of the update stream every cycle replays.
const STREAM_SEED: u64 = 3;
/// Updates per window the rates are timed over.
const WINDOW: usize = 32;
/// Set-ups per timed cycle, all timed; the last one is used. A set-up
/// without persistence takes about 2 ms, too short to time steadily once
/// per cycle.
const SETUPS: usize = 4;

/// Samples gathered across cycles.
#[derive(Default)]
struct Samples {
    /// Every set-up of the timed cycles.
    setup_s: Vec<f64>,
    /// Admitted updates per second of update-call time, and served
    /// Mpps, per window of `WINDOW` updates.
    update_rate: Vec<f64>,
    read_mpps: Vec<f64>,
    /// Every cycle replays the same update stream, so window `j` is the
    /// same work in every cycle: its admitted updates and served packets,
    /// and the fastest update-call and read time seen for it.
    window_updates: Vec<usize>,
    window_pkts: Vec<usize>,
    window_update_s: Vec<f64>,
    window_read_s: Vec<f64>,
    read_pkts: usize,
    /// The durable cycle: set-up with the attach checkpoint, update
    /// calls (WAL append and fsync included) and their total time.
    durable_setup_s: f64,
    durable_update_us: Vec<f64>,
    durable_admitted: usize,
    durable_update_s: f64,
    gen_s: Vec<f64>,
    build_s: Vec<f64>,
    compile_ms: Vec<f64>,
    insert_us: Vec<f64>,
    delete_us: Vec<f64>,
    update_us: Vec<f64>,
    rebuild_update_us: Vec<f64>,
    rebuilds: u64,
    overlay: Vec<f64>,
    fetch_ns: Vec<f64>,
    classify_ns: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    read_checkpoint_ms: Vec<f64>,
    wal_read_ms: Vec<f64>,
    proof_ms: Vec<f64>,
    append_us: Vec<f64>,
    sync_ms: Vec<f64>,
    /// The served state, sampled at every divergence check.
    resident_mb: Vec<f64>,
    accesses: Vec<f64>,
    bytes_per_rule: Vec<f64>,
}

pub(super) fn run(cfg: &RunConfig, t: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let s = &cfg.scale;
    // Inputs: the served rules, the donors and the update stream are the
    // same every run and every cycle, so all cycles do the same write
    // work; the traffic comes from the run's seed.
    let (rules, _) = acl(t, s.churn_rules, RULES_SEED);
    let (donors, _) = acl(t, s.churn_donors, DONOR_SEED);
    let zipf = trace(t, &rules, s.churn_trace, TrafficSkew::ZIPF, cfg.seed);
    let probes = trace(t, &rules, s.churn_trace / 4, TrafficSkew::Uniform, cfg.seed ^ 0x5052);
    // Every cycle starts from these rules (checked), so the answers
    // they give before the stream are the same every cycle.
    let zipf_truth = linear_truth(t, &rules, None, &zipf);
    let inputs = Inputs { rules, donors, zipf, zipf_truth, probes };

    let mut smp = Samples::default();
    let dir = cfg.work_dir.join("churn");
    let _ = std::fs::remove_dir_all(&dir);
    let durable = run_cycle(cfg, t, out, &mut smp, &inputs, Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    durable?;
    let mut cycles = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while cycles == 0 || Instant::now() < deadline {
        run_cycle(cfg, t, out, &mut smp, &inputs, None)?;
        cycles += 1;
    }

    // The fast tail of the set-ups, not their median: a 2 ms set-up over
    // ACL 1k runs at one of two speeds depending on the host's phase,
    // and the median flipped between them from one set of ten runs to
    // the next (1.7 vs 2.3 ms).
    out.e2e.insert("setup_s", percentile(&smp.setup_s, 1.0));
    // Each window at its fastest: the work of one cycle over the least
    // time the host let each part of it take.
    let total = |v: &[usize]| v.iter().sum::<usize>() as f64;
    let best = |v: &[f64]| v.iter().sum::<f64>();
    out.e2e.insert("serve_mpps", total(&smp.window_pkts) / best(&smp.window_read_s) / 1e6);
    out.e2e.insert("work_per_s", total(&smp.window_updates) / best(&smp.window_update_s));
    // The served state changes with every update: report its mean over
    // the samples taken along the stream rather than one end state.
    out.e2e.insert("resident_mb", mean(&smp.resident_mb));
    out.e2e.insert("tree_accesses", mean(&smp.accesses));
    out.e2e.insert("bytes_per_rule", mean(&smp.bytes_per_rule));

    out.detail("churn.cycles", cycles as f64);
    timing_detail(out, "churn.setup_s", &smp.setup_s);
    timing_detail(out, "churn.updates_per_s", &smp.update_rate);
    timing_detail(out, "churn.mpps", &smp.read_mpps);
    timing_detail(out, "churn.update_us", &smp.update_us);
    // The durable cycle: its update rate with and without the
    // checkpoints charged to the updates, per-call times, recovery.
    out.detail("churn.durable.setup_s", smp.durable_setup_s);
    timing_detail(out, "churn.durable.update_us", &smp.durable_update_us);
    let checkpoint_s: f64 = smp.checkpoint_ms.iter().sum::<f64>() / 1e3;
    let (n, secs) = (smp.durable_admitted as f64, smp.durable_update_s);
    out.detail("churn.durable.updates_per_s", n / secs);
    out.detail("churn.durable.checkpointed_updates_per_s", n / (secs + checkpoint_s));
    timing_detail(out, "churn.durable.checkpoint_ms", &smp.checkpoint_ms);
    timing_detail(out, "churn.durable.recovery_ms", &smp.recover_ms);
    if t.enabled() {
        let n = (cycles + 1) as f64;
        out.layer("classbench.generate_s", median(&smp.gen_s));
        out.layer("baselines.build_s.hicuts", median(&smp.build_s));
        out.layer("dtree.flat.compile_ms", median(&smp.compile_ms));
        out.layer("dtree.serve.insert_us.p50", percentile(&smp.insert_us, 50.0));
        out.layer("dtree.serve.insert_us.p99", percentile(&smp.insert_us, 99.0));
        out.layer("dtree.serve.delete_us.p50", percentile(&smp.delete_us, 50.0));
        out.layer("dtree.serve.delete_us.p99", percentile(&smp.delete_us, 99.0));
        out.layer("dtree.serve.rebuilds", smp.rebuilds as f64 / n);
        out.layer("dtree.serve.rebuild_update_us", median(&smp.rebuild_update_us));
        out.layer("dtree.serve.overlay_len.mean", mean(&smp.overlay));
        out.layer("dtree.serve.snapshot_ns", mean(&smp.fetch_ns));
        out.layer(
            "dtree.serve.classify_ns_per_pkt",
            smp.classify_ns.iter().sum::<f64>() / smp.read_pkts.max(1) as f64,
        );
        out.layer("dtree.wal.append_us", median(&smp.append_us));
        out.layer("dtree.wal.sync_ms.p50", percentile(&smp.sync_ms, 50.0));
        out.layer("dtree.wal.sync_ms.p99", percentile(&smp.sync_ms, 99.0));
        out.layer("dtree.wal.read_ms", median(&smp.wal_read_ms));
        out.layer("core.persist.checkpoint_ms", median(&smp.checkpoint_ms));
        out.layer("core.persist.checkpoints", smp.checkpoint_ms.len() as f64);
        let (rec, ck, wal, proof) = (
            median(&smp.recover_ms),
            median(&smp.read_checkpoint_ms),
            median(&smp.wal_read_ms),
            median(&smp.proof_ms),
        );
        out.layer("core.persist.recover_ms", rec);
        out.layer("core.persist.read_checkpoint_ms", ck);
        out.layer("core.persist.proof_ms", proof);
        out.layer("core.persist.recover_other_ms", (rec - ck - wal - proof).max(0.0));
    }
    Ok(())
}

/// What every cycle of a run starts from.
struct Inputs {
    rules: RuleSet,
    donors: RuleSet,
    zipf: Vec<Packet>,
    /// Linear-scan answers for `zipf` under `rules`.
    zipf_truth: Vec<Option<RuleId>>,
    probes: Vec<Packet>,
}

fn run_cycle(
    cfg: &RunConfig,
    t: &Tracer,
    out: &mut Outcome,
    smp: &mut Samples,
    inputs: &Inputs,
    durable: Option<&Path>,
) -> Result<(), String> {
    let s = &cfg.scale;
    let (zipf, probes) = (&inputs.zipf[..], &inputs.probes[..]);

    // Set-up: generate, build, compile; the durable cycle then attaches
    // persistence. A timed cycle sets up `SETUPS` times back to back and
    // keeps the last.
    let mut ready = None;
    for _ in 0..if durable.is_some() { 1 } else { SETUPS } {
        let start = Instant::now();
        let (rules, g) = acl(t, s.churn_rules, RULES_SEED);
        let (tree, b) =
            t.secs(Layer::Baselines, "baselines.build", || build_baseline("HiCuts", &rules));
        let (handle, c) = t.secs(Layer::DtreeFlat, "dtree.flat.compile", || {
            ClassifierHandle::new(tree, RebuildPolicy::default_policy())
        });
        if durable.is_none() {
            smp.setup_s.push(start.elapsed().as_secs_f64());
        }
        smp.gen_s.push(g);
        smp.build_s.push(b);
        smp.compile_ms.push(c * 1e3);
        if rules != inputs.rules {
            return Err("rule generation is not deterministic".into());
        }
        ready = Some((rules, handle, start));
    }
    let Some((rules, handle, start)) = ready else { unreachable!("at least one set-up") };
    let persistence = durable.map(Persistence::new);
    if let Some(p) = &persistence {
        let (attached, _) = t.time(Layer::CorePersist, "core.persist.checkpoint", || {
            p.checkpoint(&handle, cfg.seed)
        });
        smp.durable_setup_s = start.elapsed().as_secs_f64();
        attached.map_err(|e| format!("attaching persistence: {e}"))?;
    }

    // Correct before timing.
    let mut answers = vec![None; zipf.len()];
    handle.snapshot().classify_batch(zipf, &mut answers);
    check_batches(&mut out.checks, &answers, &inputs.zipf_truth, s.batch, "churn before timing");

    // One closed loop: an update, then a few batches from the latest
    // snapshot; when durable, a checkpoint whenever the WAL has outgrown
    // its bound.
    let mut stream = UpdateStream::new(&rules, &inputs.donors, STREAM_SEED);
    let mut records: Vec<WalRecord> = Vec::new();
    let mut cursor = 0usize;
    let mut rebuilds = handle.stats().rebuilds;
    let (mut admitted, mut update_time) = (0usize, Duration::ZERO);
    let (mut read_pkts, mut read_time) = (0usize, Duration::ZERO);
    for k in 0..s.churn_updates {
        let u = stream.step(t, &handle);
        out.checks.check(u.result.is_ok(), || format!("admissible update refused: {:?}", u.result));
        let us = u.took.as_secs_f64() * 1e6;
        if persistence.is_some() {
            smp.durable_update_us.push(us);
        } else {
            smp.update_us.push(us);
        }
        if u.result.is_ok() {
            admitted += 1;
            update_time += u.took;
        }
        if t.enabled() {
            if u.insert { &mut smp.insert_us } else { &mut smp.delete_us }.push(us);
            let now = handle.stats().rebuilds;
            if now != rebuilds {
                smp.rebuild_update_us.push(us);
                smp.rebuilds += now - rebuilds;
                rebuilds = now;
            }
            records.extend(u.record);
        }
        if let Some(p) = persistence.as_ref().filter(|p| p.wants_checkpoint(&handle)) {
            let (r, d) = t.time(Layer::CorePersist, "core.persist.checkpoint", || {
                p.checkpoint(&handle, cfg.seed)
            });
            out.checks.check(r.is_ok(), || format!("checkpoint failed: {r:?}"));
            smp.checkpoint_ms.push(d.as_secs_f64() * 1e3);
        }
        for _ in 0..s.churn_batches {
            if cursor + s.batch > zipf.len() {
                cursor = 0;
            }
            let pk = &zipf[cursor..cursor + s.batch];
            let o = &mut answers[cursor..cursor + s.batch];
            cursor += s.batch;
            let (snap, fetch) =
                t.time(Layer::DtreeServe, "dtree.serve.snapshot", || handle.snapshot());
            let ((), d) = t.time(Layer::DtreeServe, "dtree.serve.classify_batch", || {
                snap.classify_batch(pk, o)
            });
            read_time += fetch + d;
            read_pkts += pk.len();
            if t.enabled() {
                smp.fetch_ns.push(fetch.as_nanos() as f64);
                smp.classify_ns.push(d.as_nanos() as f64);
                smp.overlay.push(snap.overlay_len() as f64);
            }
        }
        if (k + 1) % WINDOW == 0 {
            smp.read_pkts += read_pkts;
            if persistence.is_some() {
                smp.durable_admitted += admitted;
                smp.durable_update_s += update_time.as_secs_f64();
            } else {
                let j = k / WINDOW;
                if smp.window_updates.len() == j {
                    smp.window_updates.push(admitted);
                    smp.window_pkts.push(read_pkts);
                    smp.window_update_s.push(f64::INFINITY);
                    smp.window_read_s.push(f64::INFINITY);
                }
                smp.window_update_s[j] = smp.window_update_s[j].min(update_time.as_secs_f64());
                smp.window_read_s[j] = smp.window_read_s[j].min(read_time.as_secs_f64());
                smp.update_rate.push(admitted as f64 / update_time.as_secs_f64());
                smp.read_mpps.push(read_pkts as f64 / read_time.as_secs_f64() / 1e6);
            }
            (admitted, update_time, read_pkts, read_time) = (0, Duration::ZERO, 0, Duration::ZERO);
        }
        if (k + 1) % s.check_every == 0 {
            divergence_check(t, out, &handle, &zipf[..zipf.len().min(4 * s.batch)], k + 1);
            // No update since the last served batch: its answers must
            // match the linear scan over the current rules.
            let last = cursor - s.batch..cursor;
            let snap = t.time(Layer::Bench, "verify.rule_snapshot", || handle.rule_snapshot()).0;
            let truth = linear_truth(t, snap.rules(), Some(snap.map()), &zipf[last.clone()]);
            check_batches(&mut out.checks, &answers[last], &truth, s.batch, "churn served batch");
            sample_state(t, smp, &handle);
        }
    }

    // End of the stream: the live state must match a fresh compile and
    // the linear scan over the current rule set.
    divergence_check(t, out, &handle, zipf, s.churn_updates);
    let live_answers = verify_live(t, out, &handle, zipf, probes, s.batch);
    let Some(dir) = durable else {
        return Ok(());
    };
    let live_epoch = handle.epoch();
    let (live_stats, _) =
        t.time(Layer::DtreeTree, "dtree.tree.stats", || handle.with_tree(TreeStats::compute));
    drop(handle);

    // Recovery, timed whole; the traced run also times its parts
    // through the same public reads recovery itself makes.
    if t.enabled() {
        recovery_parts(t, smp, dir)?;
    }
    let (recovered, took) = t.time(Layer::CorePersist, "core.persist.recover", || {
        recover(dir, RebuildPolicy::default_policy(), zipf, &PersistConfig::default())
    });
    smp.recover_ms.push(took.as_secs_f64() * 1e3);
    out.checks
        .check(recovered.is_ok(), || format!("recovery failed: {:?}", recovered.as_ref().err()));
    if let Ok((rec, _)) = recovered {
        out.checks.check(rec.epoch() == live_epoch, || {
            format!("recovered epoch {} != live epoch {live_epoch}", rec.epoch())
        });
        let rec_stats = rec.with_tree(TreeStats::compute);
        out.checks.check(rec_stats == live_stats, || "recovered tree statistics diverged".into());
        let mut got = vec![None; zipf.len() + probes.len()];
        let snap = rec.snapshot();
        snap.classify_batch(zipf, &mut got[..zipf.len()]);
        snap.classify_batch(probes, &mut got[zipf.len()..]);
        check_batches(&mut out.checks, &got, &live_answers, s.batch, "recovered vs live");
        if t.enabled() {
            proof_replica(t, smp, &rec, zipf);
            wal_replica(t, smp, &records, &dir.with_extension("replica-wal"))?;
        }
    }
    Ok(())
}

fn sample_state(t: &Tracer, smp: &mut Samples, handle: &ClassifierHandle) {
    smp.resident_mb.push(handle.snapshot().flat().resident_bytes() as f64 / 1e6);
    let (st, _) =
        t.time(Layer::DtreeTree, "dtree.tree.stats", || handle.with_tree(TreeStats::compute));
    smp.accesses.push(st.time as f64);
    smp.bytes_per_rule.push(st.bytes_per_rule);
}

fn divergence_check(
    t: &Tracer,
    out: &mut Outcome,
    handle: &ClassifierHandle,
    packets: &[Packet],
    after: usize,
) {
    let (diverged, _) =
        t.time(Layer::Bench, "verify.check_divergence", || handle.check_divergence(packets));
    out.checks.check(diverged.is_none(), || {
        format!("snapshot diverged after {after} updates at {diverged:?}")
    });
}

/// Check the live snapshot against the linear scan over the handle's
/// current rules; returns its answers (Zipf trace, then probes).
fn verify_live(
    t: &Tracer,
    out: &mut Outcome,
    handle: &ClassifierHandle,
    zipf: &[Packet],
    probes: &[Packet],
    batch: usize,
) -> Vec<Option<RuleId>> {
    let all: Vec<Packet> = zipf.iter().chain(probes).copied().collect();
    let snap = t.time(Layer::Bench, "verify.rule_snapshot", || handle.rule_snapshot()).0;
    let truth = linear_truth(t, snap.rules(), Some(snap.map()), &all);
    let mut got = vec![None; all.len()];
    handle.snapshot().classify_batch(&all, &mut got);
    check_batches(&mut out.checks, &got, &truth, batch, "churn after updates");
    got
}

/// Time the reads recovery starts with: the newest checkpoint and the
/// WAL generations after it.
fn recovery_parts(t: &Tracer, smp: &mut Samples, dir: &Path) -> Result<(), String> {
    let newest = list_checkpoint_generations(dir).map_err(|e| e.to_string())?.into_iter().max();
    let Some(base) = newest else {
        return Err("no checkpoint to recover from".into());
    };
    let (ck, d) = t.time(Layer::CorePersist, "core.persist.read_checkpoint", || {
        read_checkpoint(&checkpoint_path(dir, base))
    });
    ck.map_err(|e| format!("reading checkpoint: {e}"))?;
    smp.read_checkpoint_ms.push(d.as_secs_f64() * 1e3);
    let mut wal_ms = 0.0;
    for g in
        list_wal_generations(dir).map_err(|e| e.to_string())?.into_iter().filter(|&g| g >= base)
    {
        let (r, d) = t.time(Layer::DtreeWal, "dtree.wal.read_wal", || read_wal(&wal_path(dir, g)));
        r.map_err(|e| format!("reading wal: {e}"))?;
        wal_ms += d.as_secs_f64() * 1e3;
    }
    smp.wal_read_ms.push(wal_ms);
    Ok(())
}

/// Time recovery's linear-scan proof on the recovered handle: one
/// low-corner probe per active rule plus the caller's trace, checked
/// against a fresh compile and the linear scan.
fn proof_replica(t: &Tracer, smp: &mut Samples, handle: &ClassifierHandle, extra: &[Packet]) {
    let ((), d) = t.time(Layer::CorePersist, "core.persist.proof", || {
        let mut probes: Vec<Packet> = handle.with_tree(|tr| {
            tr.rules()
                .iter()
                .enumerate()
                .filter(|&(id, _)| tr.is_active(id))
                .map(|(_, r)| r.low_corner())
                .collect()
        });
        probes.extend_from_slice(extra);
        std::hint::black_box(handle.check_divergence(&probes));
        std::hint::black_box(handle.with_tree(|tr| {
            probes.iter().find(|p| tr.classify(p) != tr.linear_classify(p)).copied()
        }));
    });
    smp.proof_ms.push(d.as_secs_f64() * 1e3);
}

/// Drive a fresh WAL writer with the cycle's logged records at the
/// default fsync batch: appends that close a batch pay the fsync.
fn wal_replica(
    t: &Tracer,
    smp: &mut Samples,
    records: &[WalRecord],
    path: &Path,
) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let sync_every = PersistConfig::default().sync_every;
    let mut w = WalWriter::create(path, 0, sync_every).map_err(|e| format!("replica wal: {e}"))?;
    for rec in records {
        let (r, d) = t.time(Layer::DtreeWal, "dtree.wal.append", || w.append(rec));
        r.map_err(|e| format!("replica wal append: {e}"))?;
        if w.appended() % sync_every as u64 == 0 {
            smp.sync_ms.push(d.as_secs_f64() * 1e3);
        } else {
            smp.append_us.push(d.as_secs_f64() * 1e6);
        }
    }
    drop(w);
    let _ = std::fs::remove_file(path);
    Ok(())
}
