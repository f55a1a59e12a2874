//! `fig6-pooled`: the eight Fig 6 program targets with their bundled
//! seeds, learned through a fresh `PooledProcessOracle` of
//! `glade-oracle-worker <target>` processes per synthesis (as
//! `glade synth --pool N` runs them); each learned grammar then drives a
//! fixed-size fuzz campaign against its program.

use crate::common::{
    builder, fig4_inputs, language_quality, learn, learn_languages, learn_targets, progress,
    synthesis_problems, Ctx, Layers, Outcome, Reference, Targets,
};
use crate::layers::{learn_traced, SynthTally};
use crate::report::{peak_rss_mb, reset_peak_rss, synth_key};
use crate::trace::{FuzzClock, TracedOracle};
use glade_core::{Oracle, PooledProcessOracle};
use std::sync::Arc;
use std::time::Instant;

/// Programs fuzzed per round; every program gets its turn each
/// `8 / FUZZ_PER_ROUND` rounds, which keeps rounds short and many.
const FUZZ_PER_ROUND: usize = 2;
/// Rounds every run makes, enough for every program's fuzz turn.
const MIN_ROUNDS: usize = 4;
/// Set-up repetitions (target loading and one worker probe per target).
const SETUP_REPS: usize = 11;

/// A fresh pool of `ctx.workers` workers serving `subject`.
fn pool(ctx: &Ctx, subject: &str) -> PooledProcessOracle {
    PooledProcessOracle::new(&ctx.worker_bin).arg(subject).pool_size(ctx.workers)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let mut t = Targets { targets: Vec::new(), seeds: Vec::new() };
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        t = Targets::load(ctx.seed);
        // Each target's worker must start and accept the target's first seed.
        let probes: Vec<bool> = t
            .targets
            .iter()
            .zip(&t.seeds)
            .map(|(target, s)| {
                PooledProcessOracle::new(&ctx.worker_bin).arg(target.name()).accepts(&s[0])
            })
            .collect();
        out.setup_s.push(start.elapsed().as_secs_f64());
        if rep == 0 {
            for (target, ok) in t.targets.iter().zip(probes) {
                let problems = if ok { Vec::new() } else { vec!["worker probe failed".into()] };
                out.checks.op(target.name(), problems);
            }
        }
    }
    progress(ctx, "set-up done");

    let mut timed = Vec::new();
    let clock = FuzzClock::default();
    let mut clocked = 0;
    let start = Instant::now();
    let mut round = 0;
    while ctx.more_rounds(start, round, MIN_ROUNDS) {
        let is_traced = ctx.traced_round(round);
        // The programs take turns at fuzzing, FUZZ_PER_ROUND a round (a
        // traced run gives each turn to one untraced and one traced round).
        let turn = round / if ctx.trace { 2 } else { 1 };
        let n = t.targets.len();
        let fuzzed = |i: usize| (i + n - turn * FUZZ_PER_ROUND % n) % n < FUZZ_PER_ROUND;
        round += 1;
        let mut tally = SynthTally::default();
        let mut layers = Layers::new();
        let (mut round_s, mut unique) = (0.0, 0);
        reset_peak_rss();
        for (i, target) in t.targets.iter().enumerate() {
            let name = target.name();
            let learned = if is_traced {
                let traced = TracedOracle::new(pool(ctx, name), Arc::clone(&ctx.rec));
                let b = builder(ctx.workers);
                let l = learn_traced(&ctx.rec, &traced, b, &t.seeds[i], &mut tally);
                tally.respawns += traced.inner().respawn_count();
                tally.timeouts += traced.inner().timed_out_count();
                l
            } else {
                learn(builder(ctx.workers), &pool(ctx, name), &t.seeds[i])
            };
            let l = match learned {
                Ok(l) => l,
                Err(e) => {
                    out.checks.op(name, vec![e]);
                    continue;
                }
            };
            round_s += l.secs;
            unique += l.stats.unique_queries;
            if is_traced {
                layers.insert(synth_key(name), l.secs);
            } else {
                out.ops.push((name, l.secs));
                out.ops_wall_s += l.secs;
            }
            if fuzzed(i) {
                let problems = out.fuzz.run(&t, i, &l.grammar, is_traced.then_some(&clock));
                out.checks.op(name, problems);
                clocked += usize::from(is_traced);
            }
            timed.push((i, l));
        }
        out.peak_rss_mb.push(peak_rss_mb());
        out.unique_queries = unique as f64;
        if is_traced {
            out.traced_rounds.push(round_s);
            layers.extend(tally.layers());
            out.layers.push(layers);
        } else {
            out.rounds.push(round_s);
        }
    }
    if ctx.trace {
        out.fuzz.add_layers(&mut out.run_layers, &clock, clocked);
    }
    progress(ctx, "timed rounds done");

    // In-process references, after the timed loop so they stay out of its
    // timings and peak memory: the pooled grammars must equal them.
    let Some(refs) = learn_targets(ctx, out, &t) else { return };
    let refs: Vec<Reference> = refs.iter().map(Reference::of).collect();
    progress(ctx, "references done");

    for (i, l) in &timed {
        let problems = synthesis_problems(l, &t.seeds[*i], Some(&refs[*i]));
        out.checks.op(t.targets[*i].name(), problems);
    }
    language_f1(ctx, out);
}

/// F1 of the Fig 4 languages, learned once per run in-process outside the
/// timed rounds: the grammars are the learner's at this seed, whichever
/// oracle path answers (the rounds check that pooled and in-process
/// grammars agree on the programs).
fn language_f1(ctx: &Ctx, out: &mut Outcome) {
    let inputs = fig4_inputs(ctx.seed);
    let learned = learn_languages(ctx, out, &inputs, 1);
    progress(ctx, "languages learned");
    if let Some(learned) = learned {
        let grammars: Vec<_> = learned.iter().map(|l| &l.grammar).collect();
        language_quality(ctx, out, &inputs, &grammars);
    }
}
