//! Inputs, synthesis runs, output checks, and quality measurements shared
//! by the workloads.

use crate::trace::FuzzClock;
use glade_core::{GladeBuilder, Oracle, SynthesisStats};
use glade_eval::{evaluate_grammar, sample_seeds, Quality};
use glade_fuzz::{run_campaign, CampaignResult, Fuzzer, GrammarFuzzer};
use glade_grammar::{grammar_to_text, Earley, Grammar};
use glade_targets::languages::section82_languages;
use glade_targets::{Language, Target};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Seeds per Fig 4 language (the paper's scale).
pub const FIG4_SEEDS: usize = 50;
/// Samples per precision and per recall estimate (the paper's scale).
pub const EVAL_SAMPLES: usize = 1000;
/// Distinct-query budget of every synthesis (never reached; it matches the
/// Fig 4/Fig 6 benches so the runs are the same runs).
pub const MAX_QUERIES: usize = 300_000;
/// Inputs per fuzz campaign.
pub const FUZZ_INPUTS: usize = 2000;
/// Base RNG seed of the fuzz campaigns (the Fig 7 bench's), salted per
/// target: coverage then moves only when a grammar does.
pub const FUZZ_SEED: u64 = 0xF17_000;

/// Per-layer values of one round (or one run), by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One Fig 4 language with its sampled seeds.
pub struct LangInput {
    pub lang: Language,
    pub seeds: Vec<Vec<u8>>,
    /// The sampler's RNG state after drawing the seeds; precision/recall
    /// sampling continues from it, exactly as the Fig 4 bench does.
    pub eval_rng: StdRng,
}

/// RNG seed of the Fig 4 seed suites: the Fig 4 bench's own draw, and the
/// workload seed that keeps that draw's order.
pub const CORPUS_SEED: u64 = 0xF164A;

/// The Fig 4 languages with `FIG4_SEEDS` seeds each. The suites are the
/// Fig 4 bench's draw at `CORPUS_SEED`; the workload seed decides the
/// order in which they are submitted (drawn order for `CORPUS_SEED`).
/// Fresh suites per workload seed would change the learning work itself
/// from seed to seed by more than a regression bound can absorb.
pub fn fig4_inputs(seed: u64) -> Vec<LangInput> {
    section82_languages()
        .into_iter()
        .map(|lang| {
            let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
            let mut seeds = sample_seeds(&lang, FIG4_SEEDS, &mut rng);
            shuffle(&mut seeds, seed);
            LangInput { lang, seeds, eval_rng: rng }
        })
        .collect()
}

/// Reorders `items` by a Fisher–Yates shuffle driven by `seed`; the
/// default seed `CORPUS_SEED` leaves the order alone.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    if seed == CORPUS_SEED {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// A finished synthesis.
pub struct Learned {
    pub grammar: Grammar,
    pub text: String,
    pub stats: SynthesisStats,
    /// Seeds-to-grammar wall time (session creation included).
    pub secs: f64,
    /// `Session` cache accessors after the run: resident entries, filter
    /// negatives, evictions.
    pub cache: [usize; 3],
}

/// The builder every local synthesis starts from.
pub fn builder(workers: usize) -> GladeBuilder {
    GladeBuilder::new().worker_threads(workers).max_queries(MAX_QUERIES)
}

/// Runs one fresh session over `seeds`; only session creation and
/// `add_seeds` are timed. Seeds come from the target, so an error means
/// the oracle path is broken and counts as a failed operation.
pub fn learn(
    builder: GladeBuilder,
    oracle: &dyn Oracle,
    seeds: &[Vec<u8>],
) -> Result<Learned, String> {
    let start = Instant::now();
    let mut session = builder.session(oracle);
    let result = session.add_seeds(seeds).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    let cache =
        [session.cache_resident(), session.cache_filter_negatives(), session.cache_evictions()];
    Ok(Learned {
        text: grammar_to_text(&result.grammar),
        grammar: result.grammar,
        stats: result.stats,
        secs,
        cache,
    })
}

/// Output checks, counted per operation (one synthesis, one campaign).
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one operation that passed when `problems` is empty.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{what}: {}", problems.join("; ")));
            }
        }
    }
}

/// What a learned grammar must match: the reference run's grammar text
/// and unique-query count.
#[derive(Debug, Clone)]
pub struct Reference {
    pub text: String,
    pub unique_queries: usize,
}

impl Reference {
    pub fn of(learned: &Learned) -> Reference {
        Reference { text: learned.text.clone(), unique_queries: learned.stats.unique_queries }
    }
}

/// Problems with one synthesis result: seeds its grammar rejects, oracle
/// failures, a blown budget, and — given a reference from an independent
/// run — any disagreement with it. A grammar equal to its reference is not
/// parsed again: [`learn_checked`] parsed the reference's seeds.
pub fn synthesis_problems(
    l: &Learned,
    seeds: &[Vec<u8>],
    reference: Option<&Reference>,
) -> Vec<String> {
    let (stats, mut problems) = (&l.stats, Vec::new());
    let same = reference.is_some_and(|r| r.text == l.text);
    if !same {
        let earley = Earley::new(&l.grammar);
        let rejected = seeds.iter().filter(|s| !earley.accepts(s)).count();
        if rejected > 0 {
            problems.push(format!("grammar rejects {rejected} of its seeds"));
        }
    }
    if let Some(reference) = reference {
        if !same {
            problems.push("grammar differs from the reference".into());
        }
        if stats.unique_queries != reference.unique_queries {
            problems.push(format!(
                "{} unique queries, reference {}",
                stats.unique_queries, reference.unique_queries
            ));
        }
    }
    if stats.oracle_failures > 0 || stats.timed_out_queries > 0 {
        problems.push(format!(
            "{} oracle failures, {} timeouts",
            stats.oracle_failures, stats.timed_out_queries
        ));
    }
    if stats.budget_exhausted || stats.cancelled {
        problems.push("run was cut short".into());
    }
    problems
}

/// A subject to learn: its name, oracle and seeds.
type Subject<'a> = (&'static str, &'a dyn Oracle, &'a [Vec<u8>]);

/// Learns each subject in a fresh session with `workers` query workers,
/// outside any timed work (subjects run side by side when `workers` leaves
/// cores free), and checks each result on its own: one operation per
/// subject. `None` when any synthesis failed outright.
fn learn_checked(
    ctx: &Ctx,
    out: &mut Outcome,
    workers: usize,
    subjects: &[Subject],
) -> Option<Vec<Learned>> {
    let threads = (ctx.workers / workers).max(1);
    let results =
        par_map(threads, subjects, |(_, oracle, seeds)| learn(builder(workers), *oracle, seeds));
    let mut learned = Vec::new();
    for ((name, _, seeds), result) in subjects.iter().zip(results) {
        match result {
            Ok(l) => {
                out.checks.op(name, synthesis_problems(&l, seeds, None));
                learned.push(l);
            }
            Err(e) => out.checks.op(name, vec![e]),
        }
    }
    (learned.len() == subjects.len()).then_some(learned)
}

/// Precision and recall of `grammar` against `input`'s language, sampled
/// from the RNG state the seed sampling left behind.
pub fn quality(grammar: &Grammar, input: &LangInput) -> Quality {
    let mut rng = input.eval_rng.clone();
    // The verdicts of `input.lang.oracle()`, which rebuilds this recognizer
    // on every query.
    let target = Earley::new(input.lang.grammar());
    let oracle = glade_core::FnOracle::new(|s: &[u8]| target.accepts(s));
    evaluate_grammar(grammar, input.lang.grammar(), &oracle, EVAL_SAMPLES, &mut rng)
}

/// One fuzz campaign: `grammar` drives a `GrammarFuzzer` against `target`
/// for `FUZZ_INPUTS` inputs. Returns the result and its wall time
/// (fuzzer construction included).
pub fn fuzz(
    target: &dyn Target,
    grammar: &Grammar,
    seeds: &[Vec<u8>],
    rng_seed: u64,
    clock: Option<&FuzzClock>,
) -> (CampaignResult, f64) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let start = Instant::now();
    let mut fuzzer = GrammarFuzzer::new(grammar.clone(), seeds);
    let result = match clock {
        None => run_campaign(target, &mut fuzzer, FUZZ_INPUTS, &mut rng),
        Some(clock) => {
            let timed = crate::trace::TimedTarget { inner: target, clock };
            let mut timed_fuzzer =
                crate::trace::TimedFuzzer { inner: &mut fuzzer as &mut dyn Fuzzer, clock };
            run_campaign(&timed, &mut timed_fuzzer, FUZZ_INPUTS, &mut rng)
        }
    };
    (result, start.elapsed().as_secs_f64())
}

/// FNV-1a: the serve daemon's cache-file naming hash, and a stable
/// per-subject salt for derived RNG seeds.
pub fn fnv1a64(data: &[u8]) -> u64 {
    data.iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Mean of `xs` (0 for none).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// What every workload gets from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Query-engine worker threads and serve clients (2, capped at nproc).
    pub workers: usize,
    /// The workspace's `glade-oracle-worker` binary.
    pub worker_bin: std::path::PathBuf,
    /// Scratch directory for this run's files.
    pub out_dir: std::path::PathBuf,
    pub rec: std::sync::Arc<crate::trace::Recorder>,
}

impl Ctx {
    /// Whether timed round `round` runs traced: in a traced run, odd
    /// rounds are traced and even rounds are not, so the tracing overhead
    /// is measured on alternating rounds of the same process.
    pub fn traced_round(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }

    /// Whether a timed loop that has run `done` rounds should run
    /// another: until the deadline, and at least `min` rounds (twice as
    /// many in a traced run, half of them untraced).
    pub fn more_rounds(&self, start: Instant, done: usize, min: usize) -> bool {
        let min = if self.trace { 2 * min } else { min };
        done < min || start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Prints a progress line to stderr, stamped with seconds since start.
pub fn progress(ctx: &Ctx, what: &str) {
    eprintln!("perfbench [{:7.2}s] {what}", ctx.rec.now());
}

/// Rounds every timed loop runs even past its deadline.
pub const MIN_ROUNDS: usize = 3;

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Seeds-to-grammar time of each untraced round.
    pub rounds: Vec<f64>,
    /// The same for traced rounds.
    pub traced_rounds: Vec<f64>,
    /// Latency of each untraced operation (one subject's synthesis, or one
    /// served campaign), with its subject.
    pub ops: Vec<(&'static str, f64)>,
    /// Wall time over which `ops` completed.
    pub ops_wall_s: f64,
    /// Unique queries of one round, summed over subjects.
    pub unique_queries: f64,
    /// Precision/recall per Fig 4 language.
    pub quality: Vec<(&'static str, Quality)>,
    /// The fuzz campaigns.
    pub fuzz: FuzzLog,
    pub checks: Checks,
    /// Per-layer metrics of each traced round.
    pub layers: Vec<Layers>,
    /// Per-layer metrics measured once per run.
    pub run_layers: Layers,
    /// Peak resident set size of each timed round, in MB.
    pub peak_rss_mb: Vec<f64>,
    /// Facts about the run recorded with the result.
    pub notes: Vec<(&'static str, String)>,
}

/// Maps `f` over `items` on `workers` threads, keeping order. Used only
/// for the benchmark's own untimed work (references, F1 sampling).
pub fn par_map<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.clamp(1, items.len().max(1));
    let f = &f;
    let mut slots: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(i, x)| (i, f(x)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("benchmark helper thread panicked"))
            .collect()
    });
    slots.sort_by_key(|(i, _)| *i);
    slots.into_iter().map(|(_, r)| r).collect()
}

/// F1 of the grammars learned for `inputs` (same order), 1000 samples
/// each way, sampled on `ctx.workers` threads.
pub fn language_quality(ctx: &Ctx, out: &mut Outcome, inputs: &[LangInput], grammars: &[&Grammar]) {
    let pairs: Vec<(&LangInput, &Grammar)> = inputs.iter().zip(grammars.iter().copied()).collect();
    let qualities = par_map(ctx.workers, &pairs, |(input, grammar)| quality(grammar, input));
    for (input, q) in inputs.iter().zip(qualities) {
        out.run_layers.insert(eval_key("precision", input.lang.name()), q.precision);
        out.run_layers.insert(eval_key("recall", input.lang.name()), q.recall);
        out.quality.push((input.lang.name(), q));
    }
    progress(ctx, "F1 done");
}

/// The Fig 6 targets with their bundled seeds.
pub struct Targets {
    pub targets: Vec<Box<dyn Target>>,
    pub seeds: Vec<Vec<Vec<u8>>>,
}

impl Targets {
    /// The targets, each with its bundled seeds in the order `seed` picks.
    pub fn load(seed: u64) -> Targets {
        let targets = glade_targets::programs::all_targets();
        let seeds = targets
            .iter()
            .map(|t| {
                let mut s = t.seeds();
                shuffle(&mut s, seed);
                s
            })
            .collect();
        Targets { targets, seeds }
    }
}

/// Fuzz campaigns of the Fig 6 programs, pooled over passes or rounds.
#[derive(Default)]
pub struct FuzzLog {
    /// Valid incremental coverage of each target's first campaign.
    covs: Vec<Option<f64>>,
    /// Each target's campaigns, inputs and wall seconds.
    work: Vec<(usize, f64)>,
    valid: usize,
    samples: usize,
}

impl FuzzLog {
    /// Runs target `i`'s campaign with `grammar`; returns the output check's
    /// problems (coverage must repeat across a target's campaigns).
    pub fn run(
        &mut self,
        t: &Targets,
        i: usize,
        grammar: &Grammar,
        clock: Option<&FuzzClock>,
    ) -> Vec<String> {
        let target = t.targets[i].as_ref();
        let rng_seed = FUZZ_SEED ^ fnv1a64(target.name().as_bytes());
        let (result, secs) = fuzz(target, grammar, &t.seeds[i], rng_seed, clock);
        if self.covs.len() <= i {
            self.covs.resize(i + 1, None);
            self.work.resize(i + 1, (0, 0.0));
        }
        self.valid += result.valid;
        self.samples += result.samples;
        self.work[i].0 += FUZZ_INPUTS;
        self.work[i].1 += secs;
        let cov = result.valid_incremental_coverage();
        match *self.covs[i].get_or_insert(cov) {
            first if first == cov => Vec::new(),
            first => vec![format!("{} coverage {cov}, earlier {first}", target.name())],
        }
    }

    /// Geometric mean over targets of each target's inputs per second over
    /// all its campaigns: every program weighs the same however slow its
    /// interpreter, and single campaigns (which scatter by about a
    /// quarter, the fuzzer allocating heavily) average out.
    pub fn inputs_per_s(&self) -> f64 {
        let logs: Vec<f64> = self
            .work
            .iter()
            .filter(|(_, secs)| *secs > 0.0)
            .map(|(inputs, secs)| (*inputs as f64 / secs).ln())
            .collect();
        if logs.is_empty() {
            return 0.0;
        }
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }

    /// Mean valid incremental coverage over the targets.
    pub fn cov(&self) -> f64 {
        let covs: Vec<f64> = self.covs.iter().flatten().copied().collect();
        mean(&covs)
    }

    /// Adds the `fuzz.*` per-layer metrics: the times `clock` took over
    /// `clocked` campaigns, per campaign.
    pub fn add_layers(&self, l: &mut Layers, clock: &FuzzClock, clocked: usize) {
        let per = clocked.max(1) as f64;
        l.insert("fuzz.gen_s", clock.gen_s() / per);
        l.insert("fuzz.exec_s", clock.exec_s() / per);
        l.insert("fuzz.valid_rate", self.valid as f64 / self.samples.max(1) as f64);
    }
}

/// Fuzz seconds each target gets in each [`TargetFuzz::pass`], in whole
/// campaigns (at least one): short campaigns repeat, so every program's
/// rate rests on a comparable stretch of time.
pub const FUZZ_PASS_S: f64 = 0.4;

/// The fuzz measurement of workloads that learn languages. The Fig 6
/// targets are learned in-process from their bundled seeds (untimed); each
/// grammar then drives campaigns against its program — the campaigns
/// `fig6-pooled` times in its rounds. They run in two passes, one before
/// the workload's timed rounds (so every run times it from the same process
/// state, and its memory is part of every timed round's baseline) and one
/// after them: the rate then averages over both ends of the run, as the
/// other timings average over its middle.
pub struct TargetFuzz {
    t: Targets,
    grammars: Vec<Grammar>,
    clock: Option<FuzzClock>,
    campaigns: usize,
}

impl TargetFuzz {
    /// Learns the targets' grammars; `None` (with the failures counted)
    /// when one cannot be learned.
    pub fn learn(ctx: &Ctx, out: &mut Outcome) -> Option<TargetFuzz> {
        let t = Targets::load(ctx.seed);
        let grammars = learn_targets(ctx, out, &t)?;
        Some(TargetFuzz {
            t,
            grammars: grammars.into_iter().map(|l| l.grammar).collect(),
            clock: ctx.trace.then(FuzzClock::default),
            campaigns: 0,
        })
    }

    /// Runs `FUZZ_PASS_S` of campaigns per target into `out`; a traced
    /// run also updates the `fuzz.*` layers.
    pub fn pass(&mut self, ctx: &Ctx, out: &mut Outcome) {
        for (i, grammar) in self.grammars.iter().enumerate() {
            let start = Instant::now();
            loop {
                let problems = out.fuzz.run(&self.t, i, grammar, self.clock.as_ref());
                out.checks.op(self.t.targets[i].name(), problems);
                self.campaigns += 1;
                if start.elapsed().as_secs_f64() >= FUZZ_PASS_S {
                    break;
                }
            }
        }
        if let Some(clock) = &self.clock {
            out.fuzz.add_layers(&mut out.run_layers, clock, self.campaigns);
        }
        progress(ctx, "fuzz pass done");
    }
}

/// [`learn_checked`] on the targets `t`, each through an in-process
/// `TargetOracle` with `ctx.workers` query workers.
pub fn learn_targets(ctx: &Ctx, out: &mut Outcome, t: &Targets) -> Option<Vec<Learned>> {
    let oracles: Vec<_> =
        t.targets.iter().map(|t| glade_targets::TargetOracle::new(t.as_ref())).collect();
    let subjects: Vec<Subject> = t
        .targets
        .iter()
        .zip(&oracles)
        .zip(&t.seeds)
        .map(|((t, o), s)| (t.name(), o as &dyn Oracle, s.as_slice()))
        .collect();
    learn_checked(ctx, out, ctx.workers, &subjects)
}

/// [`learn_checked`] on the Fig 4 languages, each through its in-process
/// oracle with `workers` query workers.
pub fn learn_languages(
    ctx: &Ctx,
    out: &mut Outcome,
    inputs: &[LangInput],
    workers: usize,
) -> Option<Vec<Learned>> {
    let oracles: Vec<_> = inputs.iter().map(|i| i.lang.oracle()).collect();
    let subjects: Vec<Subject> = inputs
        .iter()
        .zip(&oracles)
        .map(|(i, o)| (i.lang.name(), o as &dyn Oracle, i.seeds.as_slice()))
        .collect();
    learn_checked(ctx, out, workers, &subjects)
}

/// `eval.<what>.<language>` as a static metric name.
pub fn eval_key(what: &str, lang: &str) -> &'static str {
    crate::report::PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| *name == format!("eval.{what}.{lang}"))
        .expect("every Fig 4 language has eval metrics")
}

#[cfg(test)]
mod tests {
    use super::*;
    use glade_targets::languages::toy_xml;

    #[test]
    fn problems_need_an_independent_reference_to_compare() {
        let seeds = vec![b"<a>hi</a>".to_vec(), b"x<a><a>y</a></a>".to_vec()];
        let l = learn(builder(1), &toy_xml().oracle(), &seeds).unwrap();
        assert!(synthesis_problems(&l, &seeds, None).is_empty());
        assert!(synthesis_problems(&l, &seeds, Some(&Reference::of(&l))).is_empty());
        // A different reference: the text and the unique-query count differ.
        let other = Reference { text: String::new(), unique_queries: l.stats.unique_queries + 1 };
        assert_eq!(synthesis_problems(&l, &seeds, Some(&other)).len(), 2);
        // A seed outside the learned language is found by the parse.
        let mut rejected = seeds.clone();
        rejected.push(vec![0xff]);
        assert_eq!(synthesis_problems(&l, &rejected, None).len(), 1);
    }

    #[test]
    fn fuzz_rate_is_total_inputs_over_total_time_per_target() {
        // 2000 inputs/s and 8000 inputs/s: geometric mean 4000.
        let mut log = FuzzLog { work: vec![(4000, 2.0), (4000, 0.5)], ..FuzzLog::default() };
        assert!((log.inputs_per_s() - 4000.0).abs() < 1e-9);
        // A target without campaigns is left out.
        log.work.push((0, 0.0));
        assert!((log.inputs_per_s() - 4000.0).abs() < 1e-9);
        assert_eq!(FuzzLog::default().inputs_per_s(), 0.0);
    }
}
