//! Per-layer numbers of traced synthesis runs.
//!
//! A [`SynthTally`] adds up the raw counts and times of every traced
//! synthesis in one round; [`SynthTally::layers`] turns the sums into the
//! per-layer metrics, so ratios are taken over the whole round rather than
//! averaged across subjects.

use crate::common::{learn, Layers, Learned};
use crate::trace::{
    self_time, union_len, PhaseState, PhaseTrace, Recorder, TracedOracle, NO_PARENT,
    ORACLE_BATCH_SPAN, ORACLE_SPAN,
};
use glade_core::{GladeBuilder, Oracle, SynthesisStats};
use std::sync::Arc;

/// [`learn`] with tracing: a `synth` span around the run, phase spans
/// from its events, oracle spans from `oracle`; the run's numbers are
/// added to `tally`.
pub fn learn_traced<O: Oracle>(
    rec: &Arc<Recorder>,
    oracle: &TracedOracle<O>,
    builder: GladeBuilder,
    seeds: &[Vec<u8>],
    tally: &mut SynthTally,
) -> Result<Learned, String> {
    let run = rec.new_run();
    let synth = rec.open("synth", NO_PARENT, run);
    oracle.set_context(run, synth);
    let phases = Arc::new(PhaseTrace::new(Arc::clone(rec), run, synth));
    let before = oracle.counts.snapshot();
    let learned = learn(builder.observer_shared(phases.clone()), oracle, seeds);
    rec.close(synth);
    if let Ok(l) = &learned {
        let after = oracle.counts.snapshot();
        let d: Vec<usize> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        let span = rec.get(synth).interval();
        tally.add_run(rec, run, span, &phases.state(), l.secs, &l.stats, l.cache);
        tally.add_oracle_counts(d[0], d[1], (d[2], d[3]));
    }
    learned
}

/// Raw sums over the traced syntheses of one round.
#[derive(Debug, Default, Clone)]
pub struct SynthTally {
    pub synth_s: f64,
    pub phase_s: [f64; 3],
    pub phase1_self_s: f64,
    pub waves_self_s: f64,
    pub seeds: usize,
    pub stars: usize,
    pub chars: usize,
    pub pairs_tried: usize,
    pub merges: usize,
    pub probes_elided: usize,
    pub memo_hits: usize,
    pub batches: usize,
    pub checks: usize,
    pub cached: usize,
    pub posed: usize,
    pub resident: usize,
    pub filter_negatives: usize,
    pub evictions: usize,
    pub oracle_calls: usize,
    pub oracle_queries: usize,
    pub oracle_busy_s: f64,
    pub oracle_union_s: f64,
    pub oracle_failures: usize,
    pub batch_calls: usize,
    pub batch_queries: usize,
    pub batch_busy_s: f64,
    /// Length of each pool's first oracle call (worker spawn and
    /// handshake included).
    pub first_batch_s: Vec<f64>,
    pub respawns: usize,
    pub timeouts: usize,
}

impl SynthTally {
    /// Adds one traced synthesis: its spans in `rec` under `run`, its
    /// event tallies, its seeds-to-grammar time, statistics, and `Session`
    /// cache accessors. `synth` is the run's outer interval.
    #[allow(clippy::too_many_arguments)]
    pub fn add_run(
        &mut self,
        rec: &Recorder,
        run: u32,
        synth: (f64, f64),
        events: &PhaseState,
        secs: f64,
        stats: &SynthesisStats,
        cache: [usize; 3],
    ) {
        let spans = rec.run_spans(run);
        let oracle: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.name == ORACLE_SPAN || s.name == ORACLE_BATCH_SPAN)
            .map(|s| s.interval())
            .collect();
        for &idx in &events.spans {
            let span = rec.get(idx);
            let own = self_time(span.interval(), &oracle);
            if span.name == crate::trace::PHASE_SPANS[0] {
                self.phase1_self_s += own;
            } else {
                self.waves_self_s += own;
            }
        }
        let batches: Vec<f64> =
            spans.iter().filter(|s| s.name == ORACLE_BATCH_SPAN).map(|s| s.len()).collect();
        if !batches.is_empty() {
            // A fresh pool spawns its workers on its first call, whether a
            // batch or a single seed check.
            let first = spans.iter().find(|s| s.name == ORACLE_SPAN || s.name == ORACLE_BATCH_SPAN);
            self.first_batch_s.extend(first.map(|s| s.len()));
        }
        self.batch_busy_s += batches.iter().sum::<f64>();
        self.oracle_busy_s += oracle.iter().map(|(a, b)| b - a).sum::<f64>();
        let clipped: Vec<(f64, f64)> =
            oracle.iter().map(|&(a, b)| (a.max(synth.0), b.min(synth.1))).collect();
        self.oracle_union_s += union_len(&clipped);
        self.synth_s += secs;
        for (sum, s) in self.phase_s.iter_mut().zip(events.elapsed) {
            *sum += s;
        }
        self.batches += events.batches;
        self.checks += events.checks;
        self.cached += events.cached;
        self.posed += events.posed;
        self.seeds += stats.seeds_used;
        self.stars += stats.star_count;
        self.chars += stats.chars_generalized;
        self.pairs_tried += stats.merge_pairs_tried;
        self.merges += stats.merges_accepted;
        self.probes_elided += stats.probes_elided;
        self.memo_hits += stats.memo_hits;
        self.oracle_failures += stats.oracle_failures;
        self.resident += cache[0];
        self.filter_negatives += cache[1];
        self.evictions += cache[2];
    }

    /// Adds the oracle wrapper's call counters (deltas over the round's
    /// traced runs).
    pub fn add_oracle_counts(&mut self, calls: usize, queries: usize, batch: (usize, usize)) {
        self.oracle_calls += calls;
        self.oracle_queries += queries;
        self.batch_calls += batch.0;
        self.batch_queries += batch.1;
    }

    /// The per-layer metrics of the round.
    pub fn layers(&self) -> Layers {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut l = Layers::new();
        l.insert("phase1.s", self.phase_s[0]);
        l.insert("phase1.self_s", self.phase1_self_s);
        l.insert("phase1.wall_share", ratio(self.phase_s[0], self.synth_s));
        l.insert("phase1.seeds", self.seeds as f64);
        l.insert("phase1.stars", self.stars as f64);
        l.insert("chargen.s", self.phase_s[1]);
        l.insert("phase2.s", self.phase_s[2]);
        l.insert("waves.self_s", self.waves_self_s);
        l.insert("chargen.chars", self.chars as f64);
        l.insert("phase2.pairs_tried", self.pairs_tried as f64);
        l.insert("phase2.merges", self.merges as f64);
        l.insert("reduce.probes_elided", self.probes_elided as f64);
        l.insert("reduce.memo_hits", self.memo_hits as f64);
        l.insert("runner.batches", self.batches as f64);
        l.insert("runner.checks", self.checks as f64);
        l.insert("runner.cached", self.cached as f64);
        l.insert("runner.posed", self.posed as f64);
        l.insert("runner.hit_ratio", ratio(self.cached as f64, self.checks as f64));
        l.insert("runner.checks_per_batch", ratio(self.checks as f64, self.batches as f64));
        l.insert("cache.resident", self.resident as f64);
        l.insert("cache.filter_negatives", self.filter_negatives as f64);
        l.insert(
            "cache.filter_negative_ratio",
            ratio(self.filter_negatives as f64, self.checks as f64),
        );
        l.insert("cache.evictions", self.evictions as f64);
        l.insert("oracle.calls", self.oracle_calls as f64);
        l.insert("oracle.busy_s", self.oracle_busy_s);
        l.insert("oracle.wall_share", ratio(self.oracle_union_s, self.synth_s));
        l.insert(
            "oracle.us_per_query",
            1e6 * ratio(self.oracle_busy_s, self.oracle_queries as f64),
        );
        l.insert("oracle.failures", self.oracle_failures as f64);
        l.insert("pool.batch_calls", self.batch_calls as f64);
        l.insert(
            "pool.queries_per_batch",
            ratio(self.batch_queries as f64, self.batch_calls as f64),
        );
        l.insert("pool.us_per_query", 1e6 * ratio(self.batch_busy_s, self.batch_queries as f64));
        l.insert("pool.first_batch_s", crate::stats::median(&self.first_batch_s));
        l.insert("pool.respawns", self.respawns as f64);
        l.insert("pool.timeouts", self.timeouts as f64);
        l
    }
}
