//! Span recording around calls into the repository's modules.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Tracer::time`], which always returns the call's duration (the
//! end-to-end metrics are built from those) and, in a traced run, also
//! records a span: name, layer, start, end and the enclosing span.
//! Spans stay in memory until the run ends. A layer's self time is the
//! duration of its spans minus the part covered by their child spans,
//! so the self times of all layers plus the benchmark's own remainder
//! add up to the root span, which is the workload's wall time.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// A module of the repository whose calls the benchmark times, plus
/// [`Layer::Bench`] for the benchmark's own code between those calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark itself: orchestration, input generation glue,
    /// answer comparison. Its self time is the untraced remainder.
    Bench,
    /// `classbench`: rule and trace generation, linear-scan ground truth.
    Classbench,
    /// `baselines`: the five hand-tuned tree builders.
    Baselines,
    /// `dtree::tree` and `dtree::stats`: the arena tree.
    DtreeTree,
    /// `dtree::flat`: compile and the lookup kernel.
    DtreeFlat,
    /// `dtree::engine`: sharded multi-thread serving.
    DtreeEngine,
    /// `dtree::serve`: the live handle (updates, snapshots, overlay).
    DtreeServe,
    /// `dtree::wal`: the write-ahead log.
    DtreeWal,
    /// `core::persist`: checkpoints and recovery.
    CorePersist,
    /// `core::lifecycle`: the retrain worker.
    CoreLifecycle,
    /// `core::env`: episode set-up and greedy tree builds.
    CoreEnv,
    /// `core::vecenv`: rollout collection.
    CoreVecenv,
    /// `rl::ppo`: the PPO update.
    RlPpo,
    /// `nn`: network construction and batched inference.
    Nn,
}

impl Layer {
    /// Every layer, report order.
    pub const ALL: [Layer; 14] = [
        Layer::Bench,
        Layer::Classbench,
        Layer::Baselines,
        Layer::DtreeTree,
        Layer::DtreeFlat,
        Layer::DtreeEngine,
        Layer::DtreeServe,
        Layer::DtreeWal,
        Layer::CorePersist,
        Layer::CoreLifecycle,
        Layer::CoreEnv,
        Layer::CoreVecenv,
        Layer::RlPpo,
        Layer::Nn,
    ];

    /// The layer's metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Classbench => "classbench",
            Layer::Baselines => "baselines",
            Layer::DtreeTree => "dtree.tree",
            Layer::DtreeFlat => "dtree.flat",
            Layer::DtreeEngine => "dtree.engine",
            Layer::DtreeServe => "dtree.serve",
            Layer::DtreeWal => "dtree.wal",
            Layer::CorePersist => "core.persist",
            Layer::CoreLifecycle => "core.lifecycle",
            Layer::CoreEnv => "core.env",
            Layer::CoreVecenv => "core.vecenv",
            Layer::RlPpo => "rl.ppo",
            Layer::Nn => "nn",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The module it belongs to.
    pub layer: Layer,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; always measures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<Option<u32>>,
}

impl Tracer {
    /// A tracer; `enabled = false` only measures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(None),
        }
    }

    /// True in a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f`, returning its result and how long it took; in a traced
    /// run also record it as a span of `layer` under the enclosing span.
    pub fn time<R>(
        &self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed());
        }
        let parent = self.current.get();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span { name, layer, start_ns: 0, end_ns: 0, parent });
            (spans.len() - 1) as u32
        };
        self.current.set(Some(idx));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.current.set(parent);
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[idx as usize];
        span.start_ns = self.nanos(start);
        span.end_ns = self.nanos(end);
        (out, end - start)
    }

    /// [`Self::time`] returning seconds.
    pub fn secs<R>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let (out, d) = self.time(layer, name, f);
        (out, d.as_secs_f64())
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time per layer, in seconds, over a set of properly nested spans
/// (every child lies inside its parent). Layers without spans read 0.
pub fn self_times(spans: &[Span]) -> Vec<(Layer, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    Layer::ALL
        .iter()
        .map(|&layer| {
            let ns: u64 = spans
                .iter()
                .zip(&child_ns)
                .filter(|(s, _)| s.layer == layer)
                .map(|(s, c)| s.dur_ns().saturating_sub(*c))
                .sum();
            (layer, ns as f64 / 1e9)
        })
        .collect()
}

/// Cost in nanoseconds of recording one empty span, measured on a
/// scratch tracer: multiplied by the span count it estimates how much
/// of a traced run's wall time went to tracing itself.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let t = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..N {
        t.time(Layer::Bench, "calibrate", || std::hint::black_box(0u8));
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name: "x", layer, start_ns: start, end_ns: end, parent }
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_root() {
        let spans = vec![
            span(Layer::Bench, 0, 1_000, None),
            span(Layer::DtreeServe, 100, 500, Some(0)),
            span(Layer::DtreeWal, 200, 300, Some(1)),
            span(Layer::Classbench, 600, 900, Some(0)),
        ];
        let st: Vec<(Layer, f64)> = self_times(&spans);
        let get = |l: Layer| st.iter().find(|(x, _)| *x == l).unwrap().1;
        assert_eq!(get(Layer::Bench), 300e-9);
        assert_eq!(get(Layer::DtreeServe), 300e-9);
        assert_eq!(get(Layer::DtreeWal), 100e-9);
        assert_eq!(get(Layer::Classbench), 300e-9);
        assert_eq!(get(Layer::RlPpo), 0.0);
        let total: f64 = st.iter().map(|(_, s)| s).sum();
        assert!((total - 1_000e-9).abs() < 1e-15);
    }

    #[test]
    fn recorded_spans_nest_under_the_enclosing_call() {
        let t = Tracer::new(true);
        t.time(Layer::Bench, "root", || {
            t.time(Layer::DtreeFlat, "inner", || {
                t.time(Layer::Nn, "leaf", || ());
            });
            t.time(Layer::Classbench, "second", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        for s in &spans[1..] {
            let p = spans[s.parent.unwrap() as usize];
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
        }
        let total: f64 = self_times(&spans).iter().map(|(_, s)| s).sum();
        assert!((total - spans[0].dur_ns() as f64 / 1e9).abs() < 1e-12);
    }

    #[test]
    fn untraced_runs_measure_without_recording() {
        let t = Tracer::new(false);
        let (v, d) = t.time(Layer::Nn, "work", || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.spans().is_empty());
    }
}
