//! Spans recorded from outside the program, around calls into each
//! layer's public API.
//!
//! Nothing here reaches inside the crates: [`TracedOracle`] wraps an
//! [`Oracle`], [`PhaseTrace`] is a [`SynthesisObserver`], and
//! [`TimedTarget`]/[`TimedFuzzer`] wrap the fuzz layer's traits. Spans
//! stay in memory ([`Recorder`]) and are written out once, when the
//! benchmark ends. A layer's self time is its span minus the union of its
//! child spans ([`self_time`]), which counts overlapping children (the
//! query engine's two worker threads) once.

use glade_core::{Oracle, SynthEvent, SynthPhase, SynthesisObserver};
use glade_fuzz::Fuzzer;
use glade_targets::{RunOutcome, Target};
use rand::rngs::StdRng;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Parent index of a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval, in seconds since the recorder was created.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// The synthesis run (or campaign) the span belongs to.
    pub run: u32,
}

impl Span {
    pub fn interval(&self) -> (f64, f64) {
        (self.start, self.end)
    }

    pub fn len(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span store shared by every traced layer of one process.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    next_run: AtomicU32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { t0: Instant::now(), spans: Mutex::new(Vec::new()), next_run: AtomicU32::new(1) }
    }
}

impl Recorder {
    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// A fresh run id; run 0 tags spans outside any run (such as oracle
    /// calls a traced wrapper answers before its first `set_context`).
    pub fn new_run(&self) -> u32 {
        self.next_run.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a span and returns its index.
    pub fn push(&self, name: &'static str, start: f64, end: f64, parent: u32, run: u32) -> u32 {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span { name, start, end, parent, run });
        u32::try_from(spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Opens a span that [`Recorder::close`] ends, so spans recorded in
    /// between can name it as their parent.
    pub fn open(&self, name: &'static str, parent: u32, run: u32) -> u32 {
        let now = self.now();
        self.push(name, now, now, parent, run)
    }

    /// Ends the span `idx` now.
    pub fn close(&self, idx: u32) {
        let now = self.now();
        self.spans.lock().expect("span store poisoned")[idx as usize].end = now;
    }

    /// Runs `f` inside a span and returns its result and the span index.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u32,
        run: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.now();
        let out = f();
        let idx = self.push(name, start, self.now(), parent, run);
        (out, idx)
    }

    /// Every span of `run`, in recording order.
    pub fn run_spans(&self, run: u32) -> Vec<Span> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans.iter().filter(|s| s.run == run).copied().collect()
    }

    /// The span at `idx`.
    pub fn get(&self, idx: u32) -> Span {
        self.spans.lock().expect("span store poisoned")[idx as usize]
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Writes every span as CSV (`name,start_s,end_s,parent,run`; parent
    /// `-1` for none).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_s,end_s,parent,run")?;
        for s in spans.iter() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(out, "{},{:.9},{:.9},{},{}", s.name, s.start, s.end, parent, s.run)?;
        }
        out.flush()
    }
}

/// Total length covered by the union of `intervals`.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in v {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    total + current.map_or(0.0, |(a, b)| b - a)
}

/// `parent`'s length minus the part of it covered by the union of
/// `children` (each clipped to `parent`).
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let clipped: Vec<(f64, f64)> =
        children.iter().map(|&(a, b)| (a.max(parent.0), b.min(parent.1))).collect();
    (parent.1 - parent.0) - union_len(&clipped)
}

/// Oracle spans: `oracle` per single query, `oracle.batch` per batch.
pub const ORACLE_SPAN: &str = "oracle";
pub const ORACLE_BATCH_SPAN: &str = "oracle.batch";

/// Counters a [`TracedOracle`] keeps next to its spans.
#[derive(Debug, Default)]
pub struct OracleCounts {
    /// Calls of any verdict method.
    pub calls: AtomicUsize,
    /// Inputs answered (a batch call counts its size).
    pub queries: AtomicUsize,
    /// `accepts_batch_checked` calls.
    pub batch_calls: AtomicUsize,
    /// Inputs answered through `accepts_batch_checked`.
    pub batch_queries: AtomicUsize,
}

impl OracleCounts {
    /// `[calls, queries, batch_calls, batch_queries]` now.
    pub fn snapshot(&self) -> [usize; 4] {
        [&self.calls, &self.queries, &self.batch_calls, &self.batch_queries]
            .map(|c| c.load(Ordering::Relaxed))
    }
}

/// An [`Oracle`] that forwards every trait method to `inner` and records
/// one span per verdict call. It poses exactly the queries the engine
/// asks for, so traced runs learn the same grammar with the same counts.
#[derive(Debug)]
pub struct TracedOracle<O> {
    inner: O,
    rec: Arc<Recorder>,
    run: AtomicU32,
    parent: AtomicU32,
    pub counts: OracleCounts,
}

impl<O: Oracle> TracedOracle<O> {
    pub fn new(inner: O, rec: Arc<Recorder>) -> Self {
        TracedOracle {
            inner,
            rec,
            run: AtomicU32::new(0),
            parent: AtomicU32::new(NO_PARENT),
            counts: OracleCounts::default(),
        }
    }

    /// Tags the spans of later calls with `run` and `parent`.
    pub fn set_context(&self, run: u32, parent: u32) {
        self.run.store(run, Ordering::Relaxed);
        self.parent.store(parent, Ordering::Relaxed);
    }

    pub fn inner(&self) -> &O {
        &self.inner
    }

    fn traced<T>(&self, name: &'static str, inputs: usize, f: impl FnOnce() -> T) -> T {
        self.counts.calls.fetch_add(1, Ordering::Relaxed);
        self.counts.queries.fetch_add(inputs, Ordering::Relaxed);
        let (run, parent) = (self.run.load(Ordering::Relaxed), self.parent.load(Ordering::Relaxed));
        self.rec.time(name, parent, run, f).0
    }
}

impl<O: Oracle> Oracle for TracedOracle<O> {
    fn accepts(&self, input: &[u8]) -> bool {
        self.traced(ORACLE_SPAN, 1, || self.inner.accepts(input))
    }

    fn accepts_checked(&self, input: &[u8]) -> Option<bool> {
        self.traced(ORACLE_SPAN, 1, || self.inner.accepts_checked(input))
    }

    fn accepts_batch_checked(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
        self.counts.batch_calls.fetch_add(1, Ordering::Relaxed);
        self.counts.batch_queries.fetch_add(inputs.len(), Ordering::Relaxed);
        self.traced(ORACLE_BATCH_SPAN, inputs.len(), || self.inner.accepts_batch_checked(inputs))
    }

    fn native_batching(&self) -> bool {
        self.inner.native_batching()
    }

    fn failure_count(&self) -> usize {
        self.inner.failure_count()
    }

    fn configure_timeout(&self, timeout: Option<Duration>) {
        self.inner.configure_timeout(timeout)
    }

    fn timed_out_count(&self) -> usize {
        self.inner.timed_out_count()
    }

    fn tripped_worker_count(&self) -> usize {
        self.inner.tripped_worker_count()
    }

    fn recovered_worker_count(&self) -> usize {
        self.inner.recovered_worker_count()
    }
}

/// Phase spans and event counts of one synthesis run, from the engine's
/// [`SynthEvent`] stream (a [`SynthesisObserver`] for local sessions; the
/// serve client feeds it the events it receives).
#[derive(Debug)]
pub struct PhaseTrace {
    rec: Arc<Recorder>,
    run: u32,
    parent: u32,
    state: Mutex<PhaseState>,
}

/// Phase times and query-batch tallies of one run (the other counts come
/// from the run's `SynthesisStats`).
#[derive(Debug, Default, Clone)]
pub struct PhaseState {
    /// Engine-reported wall time per phase (phase1, chargen, phase2).
    pub elapsed: [f64; 3],
    /// Recorder indices of the phase spans.
    pub spans: Vec<u32>,
    pub batches: usize,
    pub checks: usize,
    pub cached: usize,
    pub posed: usize,
}

/// Phase span names, indexed like [`PhaseState::elapsed`].
pub const PHASE_SPANS: [&str; 3] = ["phase1", "chargen", "phase2"];

fn phase_index(phase: SynthPhase) -> Option<usize> {
    match phase {
        SynthPhase::Phase1 => Some(0),
        SynthPhase::CharGeneralization => Some(1),
        SynthPhase::Phase2 => Some(2),
        _ => None,
    }
}

impl PhaseTrace {
    pub fn new(rec: Arc<Recorder>, run: u32, parent: u32) -> Self {
        PhaseTrace { rec, run, parent, state: Mutex::new(PhaseState::default()) }
    }

    pub fn state(&self) -> PhaseState {
        self.state.lock().expect("phase trace poisoned").clone()
    }
}

impl SynthesisObserver for PhaseTrace {
    fn on_event(&self, event: &SynthEvent) {
        let now = self.rec.now();
        let mut s = self.state.lock().expect("phase trace poisoned");
        match event {
            // A phase span ends when its `PhaseFinished` arrives and lasts
            // the engine-reported time, which stays exact when events cross
            // the serve socket.
            SynthEvent::PhaseFinished { phase, elapsed, .. } => {
                if let Some(i) = phase_index(*phase) {
                    let secs = elapsed.as_secs_f64();
                    s.elapsed[i] += secs;
                    let idx = self.rec.push(PHASE_SPANS[i], now - secs, now, self.parent, self.run);
                    s.spans.push(idx);
                }
            }
            SynthEvent::QueryBatch { checks, cached, posed } => {
                s.batches += 1;
                s.checks += checks;
                s.cached += cached;
                s.posed += posed;
            }
            _ => {}
        }
    }
}

/// Time spent generating and executing fuzz inputs.
#[derive(Debug, Default)]
pub struct FuzzClock {
    gen_ns: AtomicU64,
    exec_ns: AtomicU64,
}

impl FuzzClock {
    pub fn gen_s(&self) -> f64 {
        self.gen_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    pub fn exec_s(&self) -> f64 {
        self.exec_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

fn add_elapsed(counter: &AtomicU64, start: Instant) {
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(ns, Ordering::Relaxed);
}

/// A [`Target`] whose executions are timed into a [`FuzzClock`].
pub struct TimedTarget<'a> {
    pub inner: &'a dyn Target,
    pub clock: &'a FuzzClock,
}

impl Target for TimedTarget<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, input: &[u8]) -> RunOutcome {
        let start = Instant::now();
        let out = self.inner.run(input);
        add_elapsed(&self.clock.exec_ns, start);
        out
    }

    fn coverable_lines(&self) -> usize {
        self.inner.coverable_lines()
    }

    fn source_lines(&self) -> usize {
        self.inner.source_lines()
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        self.inner.seeds()
    }

    fn corpus(&self) -> Vec<Vec<u8>> {
        self.inner.corpus()
    }
}

/// A [`Fuzzer`] whose input generation is timed into a [`FuzzClock`].
pub struct TimedFuzzer<'a> {
    pub inner: &'a mut dyn Fuzzer,
    pub clock: &'a FuzzClock,
}

impl Fuzzer for TimedFuzzer<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_input(&mut self, rng: &mut StdRng) -> Vec<u8> {
        let start = Instant::now();
        let out = self.inner.next_input(rng);
        add_elapsed(&self.clock.gen_ns, start);
        out
    }

    fn observe(&mut self, input: &[u8], outcome: &RunOutcome) {
        self.inner.observe(input, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glade_core::GladeBuilder;
    use glade_targets::languages::toy_xml;

    #[test]
    fn union_merges_overlaps_and_ignores_empty() {
        assert_eq!(union_len(&[]), 0.0);
        assert_eq!(union_len(&[(0.0, 1.0), (2.0, 3.0)]), 2.0);
        // Two workers overlapping: [0,2] ∪ [1,3] ∪ [5,6] = 4.
        assert_eq!(union_len(&[(1.0, 3.0), (0.0, 2.0), (5.0, 6.0)]), 4.0);
        // Nested and touching intervals; an inverted one counts as empty.
        assert_eq!(union_len(&[(0.0, 4.0), (1.0, 2.0), (4.0, 5.0), (9.0, 8.0)]), 5.0);
    }

    #[test]
    fn self_time_subtracts_clipped_child_union() {
        // Parent [0,10]; children from two workers overlap on [2,4] and one
        // sticks out past the parent's end.
        let children = [(1.0, 4.0), (2.0, 5.0), (8.0, 12.0)];
        assert_eq!(self_time((0.0, 10.0), &children), 10.0 - (4.0 + 2.0));
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 1.0), &[(2.0, 3.0)]), 1.0);
    }

    #[test]
    fn recorder_keeps_parent_and_run() {
        let rec = Recorder::default();
        let run = rec.new_run();
        let ((), outer) = rec.time("outer", NO_PARENT, run, || {});
        let inner = rec.push("inner", 0.0, 0.0, outer, run);
        let spans = rec.run_spans(run);
        assert_eq!(spans.len(), 2);
        assert_eq!(rec.get(inner).parent, outer);
        assert!(rec.run_spans(run + 1).is_empty());
    }

    #[test]
    fn traced_oracle_is_transparent() {
        let lang = toy_xml();
        let oracle = lang.oracle();
        let seeds = vec![b"<a>hi</a>".to_vec(), b"x<a><a>y</a></a>".to_vec()];
        let plain = GladeBuilder::new().worker_threads(2).synthesize(&seeds, &oracle).unwrap();

        let rec = Arc::new(Recorder::default());
        let traced = TracedOracle::new(lang.oracle(), Arc::clone(&rec));
        let run = rec.new_run();
        let synth = rec.open("synth", NO_PARENT, run);
        traced.set_context(run, synth);
        let phases = Arc::new(PhaseTrace::new(Arc::clone(&rec), run, synth));
        let got = GladeBuilder::new()
            .worker_threads(2)
            .observer_shared(phases.clone())
            .synthesize(&seeds, &traced)
            .unwrap();
        rec.close(synth);

        assert_eq!(
            glade_grammar::grammar_to_text(&got.grammar),
            glade_grammar::grammar_to_text(&plain.grammar)
        );
        assert_eq!(got.stats.unique_queries, plain.stats.unique_queries);
        assert_eq!(got.stats.total_queries, plain.stats.total_queries);
        // Every distinct miss reached the oracle exactly once, as a span.
        let calls = traced.counts.calls.load(Ordering::Relaxed);
        assert_eq!(calls, plain.stats.unique_queries);
        let oracle_spans = rec.run_spans(run).iter().filter(|s| s.name == ORACLE_SPAN).count();
        assert_eq!(oracle_spans, calls);
        let state = phases.state();
        // Seed validation queries the oracle outside any reported batch.
        assert_eq!(state.posed + seeds.len(), plain.stats.unique_queries);
        assert_eq!(state.spans.len(), 3, "one span per phase");
        let outer = rec.get(synth);
        for &idx in &state.spans {
            let phase = rec.get(idx);
            assert_eq!(phase.parent, synth);
            assert!(outer.start <= phase.start && phase.end <= outer.end);
        }
    }
}
