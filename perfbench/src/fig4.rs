//! `fig4-cold`: Fig 4 GLADE on url, grep, lisp and xml at paper scale,
//! in-process oracles, a fresh session per language per round.

use crate::common::{
    builder, fig4_inputs, language_quality, learn, learn_languages, progress, synthesis_problems,
    Ctx, Layers, Outcome, Reference, TargetFuzz, MIN_ROUNDS,
};
use crate::layers::{learn_traced, SynthTally};
use crate::report::{peak_rss_mb, reset_peak_rss, synth_key};
use crate::trace::TracedOracle;
use glade_targets::GrammarOracle;
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions: the fuzz grammars, seed sampling and oracle
/// construction.
const SETUP_REPS: usize = 3;

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let mut fuzz = None;
    let mut inputs = Vec::new();
    let mut oracles: Vec<GrammarOracle> = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        fuzz = TargetFuzz::learn(ctx, out);
        inputs = fig4_inputs(ctx.seed);
        oracles = inputs.iter().map(|i| i.lang.oracle()).collect();
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    progress(ctx, "set-up done");
    let Some(mut fuzz) = fuzz else { return };
    fuzz.pass(ctx, out);

    let traced: Vec<_> =
        oracles.iter().map(|o| TracedOracle::new(o, Arc::clone(&ctx.rec))).collect();
    let mut timed = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while ctx.more_rounds(start, round, MIN_ROUNDS) {
        let is_traced = ctx.traced_round(round);
        round += 1;
        let mut tally = SynthTally::default();
        let mut layers = Layers::new();
        let mut round_s = 0.0;
        let mut learned = Vec::new();
        reset_peak_rss();
        for (i, input) in inputs.iter().enumerate() {
            let result = if is_traced {
                let b = builder(ctx.workers);
                let l = learn_traced(&ctx.rec, &traced[i], b, &input.seeds, &mut tally);
                if let Ok(l) = &l {
                    layers.insert(synth_key(input.lang.name()), l.secs);
                }
                l
            } else {
                learn(builder(ctx.workers), &oracles[i], &input.seeds)
            };
            match result {
                Ok(l) => {
                    round_s += l.secs;
                    if !is_traced {
                        out.ops.push((input.lang.name(), l.secs));
                        out.ops_wall_s += l.secs;
                    }
                    learned.push((i, l));
                }
                Err(e) => out.checks.op(input.lang.name(), vec![e]),
            }
        }
        out.peak_rss_mb.push(peak_rss_mb());
        out.unique_queries =
            learned.iter().map(|(_, l)| l.stats.unique_queries).sum::<usize>() as f64;
        if is_traced {
            out.traced_rounds.push(round_s);
            layers.extend(tally.layers());
            out.layers.push(layers);
        } else {
            out.rounds.push(round_s);
        }
        timed.extend(learned);
    }
    progress(ctx, "timed rounds done");
    fuzz.pass(ctx, out);

    // One-worker references: every timed grammar must equal its
    // language's reference.
    let Some(refs) = learn_languages(ctx, out, &inputs, 1) else { return };
    let refs: Vec<Reference> = refs.iter().map(Reference::of).collect();
    progress(ctx, "references done");

    // Checks run after the timed loop, so the benchmark's own work stays
    // out of its timings and its peak memory.
    for (i, l) in &timed {
        let input = &inputs[*i];
        let problems = synthesis_problems(l, &input.seeds, Some(&refs[*i]));
        out.checks.op(input.lang.name(), problems);
    }
    // F1 of each language's last timed grammar.
    let mut last = vec![None; inputs.len()];
    for (i, l) in &timed {
        last[*i] = Some(&l.grammar);
    }
    if let Some(grammars) = last.into_iter().collect::<Option<Vec<_>>>() {
        language_quality(ctx, out, &inputs, &grammars);
    }
}
