//! Deletes on a live handle are carried as retired table ranks over a
//! frozen compiled tree. After every delete, the published snapshot must
//! serve exactly what a fresh `FlatTree::compile` of the handle's current
//! tree serves — on every baseline's tree shape (EffiCuts and CutSplit
//! put a `Partition` at the root), on the scalar and the batched path.

use classbench::{generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, TraceConfig};
use dtree::{ClassifierHandle, FlatTree, RebuildPolicy};
use rand::seq::SliceRandom;
use rand::SeedableRng;

mod common;
use common::{build, ALL_BASELINES};

#[test]
fn retired_deletes_serve_what_a_fresh_compile_serves_on_every_baseline() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 300).with_seed(500));
    let trace = generate_trace(&rules, &TraceConfig::new(400).with_seed(501));
    for (i, name) in ALL_BASELINES.into_iter().enumerate() {
        let handle = ClassifierHandle::new(build(name, &rules), RebuildPolicy::never());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(502 + i as u64);
        let mut victims: Vec<usize> = (0..rules.len()).collect();
        victims.shuffle(&mut rng);
        let mut probes = trace.clone();
        for &victim in &victims[..60] {
            handle.delete(victim).unwrap();
            // A low-corner probe of every deleted rule lands where the
            // retired rank used to win, so the runner-up must take over.
            probes.push(rules.rule(victim).low_corner());
            let snap = handle.snapshot();
            let fresh = handle.with_tree(FlatTree::compile);
            let mut batch = vec![None; probes.len()];
            snap.classify_batch(&probes, &mut batch);
            for (p, &batched) in probes.iter().zip(&batch) {
                let want = fresh.classify(p);
                assert_eq!(snap.classify(p), want, "{name}: scalar, deleted {victim}, at {p}");
                assert_eq!(batched, want, "{name}: batch, deleted {victim}, at {p}");
            }
        }
        assert_eq!(handle.stats().rebuilds, 0, "{name}: deletes never recompiled");
        assert_eq!(handle.snapshot().num_rules(), rules.len() - 60);
    }
}
