//! `serve-warm`: an in-process `Server` with a cache directory, serving the
//! Fig 4 languages. Set-up fills the daemon's caches with one cold pass;
//! then `ctx.workers` clients run closed loops of `cache on` campaigns (one
//! per language per round), each waiting for its RESULT before the next.

use crate::common::{
    builder, fig4_inputs, fnv1a64, language_quality, learn_languages, progress, Ctx, LangInput,
    Layers, Outcome, Reference, TargetFuzz, MAX_QUERIES, MIN_ROUNDS,
};
use crate::layers::SynthTally;
use crate::report::{peak_rss_mb, reset_peak_rss, synth_key};
use crate::stats::median;
use crate::trace::{PhaseTrace, TracedOracle, NO_PARENT};
use glade_core::serve::{OpenRequest, RunOutcome, ServeClient, ServeConfig, Server, ServerHandle};
use glade_core::{CacheFormat, Oracle, SynthesisObserver};
use glade_grammar::grammar_from_text;
use glade_targets::languages::section82_languages;
use glade_targets::GrammarOracle;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Set-up repetitions (server start plus a cold fill, each in a fresh
/// cache directory).
const SETUP_REPS: usize = 3;
/// Load/save repetitions of each checkpoint file.
const PERSIST_REPS: usize = 3;

type Traced = Arc<TracedOracle<GrammarOracle>>;

/// The oracle spec of a language, and the fingerprint the factory gives it.
fn spec(lang: &str) -> String {
    format!("lang:{lang}")
}

fn fingerprint(lang: &str) -> String {
    format!("perfbench-lang:{lang}")
}

/// Starts a server over a fresh `dir` whose factory serves `lang:<name>`
/// specs; in a traced run each oracle is wrapped and kept in `traced`.
fn start_server(
    ctx: &Ctx,
    dir: &Path,
    traced: &Arc<Mutex<Vec<Traced>>>,
) -> std::io::Result<ServerHandle> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let rec = ctx.trace.then(|| Arc::clone(&ctx.rec));
    let traced = Arc::clone(traced);
    let factory = move |spec_line: &str| -> Result<(Arc<dyn Oracle>, String), String> {
        let lang = section82_languages()
            .into_iter()
            .find(|l| spec(l.name()) == spec_line)
            .ok_or_else(|| format!("unknown spec {spec_line}"))?;
        let oracle: Arc<dyn Oracle> = match &rec {
            Some(rec) => {
                let t = Arc::new(TracedOracle::new(lang.oracle(), Arc::clone(rec)));
                traced.lock().expect("traced list poisoned").push(Arc::clone(&t));
                t
            }
            None => Arc::new(lang.oracle()),
        };
        Ok((oracle, fingerprint(lang.name())))
    };
    let config = ServeConfig { cache_dir: Some(dir.to_path_buf()), ..ServeConfig::default() };
    Server::new(Arc::new(factory), config).spawn(dir.join("s.sock"))
}

/// Client-side timings of one campaign.
struct Campaign {
    outcome: RunOutcome,
    open_s: f64,
    run_s: f64,
    close_s: f64,
    events: usize,
}

/// One `cache on` campaign: connect and open, submit the seeds and read
/// events until RESULT, close. Events go to `observer`.
fn campaign(
    socket: &Path,
    lang: &str,
    seeds: &[Vec<u8>],
    observer: Option<&PhaseTrace>,
) -> std::io::Result<Campaign> {
    let t0 = Instant::now();
    let mut client = ServeClient::connect(socket)?;
    let mut req = OpenRequest::new(spec(lang));
    req.cache = true;
    req.max_queries = Some(MAX_QUERIES);
    client.open(&req)?;
    let t1 = Instant::now();
    let mut events = 0;
    let outcome = client.synthesize(seeds, |event| {
        events += 1;
        if let Some(o) = observer {
            o.on_event(&event);
        }
    })?;
    let t2 = Instant::now();
    client.close()?;
    let t3 = Instant::now();
    Ok(Campaign {
        outcome,
        open_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        close_s: (t3 - t2).as_secs_f64(),
        events,
    })
}

/// Problems with a served result, against the direct-session reference;
/// a `warm` campaign must also have paid no new oracle queries.
fn served_problems(outcome: &RunOutcome, reference: &Reference, warm: bool) -> Vec<String> {
    let stats = &outcome.stats;
    let mut problems = Vec::new();
    if outcome.grammar_text != reference.text {
        problems.push("served grammar differs from the direct session".into());
    }
    if stats.unique_queries != reference.unique_queries {
        problems.push(format!(
            "{} unique queries, direct session {}",
            stats.unique_queries, reference.unique_queries
        ));
    }
    if warm && stats.new_unique_queries != 0 {
        problems.push(format!("warm campaign paid {} new queries", stats.new_unique_queries));
    }
    if stats.oracle_failures > 0 || stats.budget_exhausted || stats.cancelled {
        problems.push("campaign degraded".into());
    }
    problems
}

/// A served campaign's result (language index, warm?, outcome), checked
/// once the direct-session references exist.
type Served = (usize, bool, std::io::Result<RunOutcome>);

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    rounds: Vec<f64>,
    traced_rounds: Vec<f64>,
    ops: Vec<(&'static str, f64)>,
    layers: Vec<Layers>,
    served: Vec<Served>,
    end_s: f64,
}

/// Cold fill: each client runs its share of the languages once.
fn fill(ctx: &Ctx, socket: &Path, inputs: &[LangInput]) -> Vec<Served> {
    let per_client: Vec<Vec<Served>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.workers)
            .map(|c| {
                s.spawn(move || {
                    (c..inputs.len())
                        .step_by(ctx.workers)
                        .map(|i| {
                            let input = &inputs[i];
                            let result = campaign(socket, input.lang.name(), &input.seeds, None);
                            (i, false, result.map(|c| c.outcome))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("fill client panicked")).collect()
    });
    per_client.into_iter().flatten().collect()
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let Some(mut fuzz) = TargetFuzz::learn(ctx, out) else { return };
    fuzz.pass(ctx, out);
    let inputs = fig4_inputs(ctx.seed);
    let traced: Arc<Mutex<Vec<Traced>>> = Arc::default();
    let mut served = Vec::new();
    let mut server = None;
    let mut dir = PathBuf::new();
    for rep in 0..SETUP_REPS {
        dir = ctx.out_dir.join(format!("serve{rep}"));
        let start = Instant::now();
        let handle = match start_server(ctx, &dir, &traced) {
            Ok(h) => h,
            Err(e) => {
                out.checks.op("server start", vec![e.to_string()]);
                return;
            }
        };
        served.extend(fill(ctx, handle.socket_path(), &inputs));
        out.setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            if let Err(e) = handle.shutdown() {
                out.checks.op("server shutdown", vec![e.to_string()]);
            }
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            server = Some(handle);
        }
    }
    progress(ctx, "set-up done");
    let server = server.expect("the last set-up keeps its server");
    let calls_before = oracle_calls(&traced);
    let journal = dir.join("serve.journal");
    let journal_before = file_len(&journal);

    let start = Instant::now();
    let step = Lockstep {
        barrier: Barrier::new(ctx.workers),
        go: AtomicBool::new(true),
        peaks: Mutex::new(Vec::new()),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.workers)
            .map(|_| {
                let (inputs, socket, step) = (&inputs, server.socket_path(), &step);
                s.spawn(move || client_loop(ctx, socket, inputs, start, step))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("serve client panicked")).collect()
    });
    out.peak_rss_mb = step.peaks.into_inner().expect("peak list poisoned");
    progress(ctx, "timed rounds done");
    let calls = oracle_calls(&traced) - calls_before;
    let journal_growth = file_len(&journal).saturating_sub(journal_before);
    if let Err(e) = server.shutdown() {
        out.checks.op("server shutdown", vec![e.to_string()]);
    }
    fuzz.pass(ctx, out);
    let mut campaigns = 0;
    for log in logs {
        campaigns += log.served.len();
        out.rounds.extend(log.rounds);
        out.traced_rounds.extend(log.traced_rounds);
        out.ops.extend(log.ops);
        out.layers.extend(log.layers);
        out.ops_wall_s = out.ops_wall_s.max(log.end_s);
        served.extend(log.served);
    }

    // Direct-session references (1 worker), after the timed loop so they
    // stay out of its timings and peak memory; then every served result is
    // checked against them.
    let Some(direct) = learn_languages(ctx, out, &inputs, 1) else { return };
    let refs: Vec<Reference> = direct.iter().map(Reference::of).collect();
    progress(ctx, "references done");
    // Each language's last warm campaign: its grammar for F1, and its
    // unique queries for one round's count.
    let mut last: Vec<Option<&RunOutcome>> = vec![None; inputs.len()];
    for (i, warm, result) in &served {
        let problems = match result {
            Ok(outcome) => {
                if *warm {
                    last[*i] = Some(outcome);
                }
                served_problems(outcome, &refs[*i], *warm)
            }
            Err(e) => vec![e.to_string()],
        };
        out.checks.op(inputs[*i].lang.name(), problems);
    }
    out.unique_queries =
        last.iter().flatten().map(|o| o.stats.unique_queries).sum::<usize>() as f64;
    if ctx.trace {
        let per_campaign = journal_growth as f64 / campaigns.max(1) as f64;
        out.run_layers.insert("oracle.calls", calls as f64);
        out.run_layers.insert("serve.journal_bytes", per_campaign);
        persist_layers(ctx, &dir, &inputs, out);
    }

    // F1 of each language's last served grammar.
    let grammars: Option<Vec<_>> =
        last.into_iter().map(|o| o.and_then(|o| grammar_from_text(&o.grammar_text).ok())).collect();
    if let Some(grammars) = grammars {
        let grammars: Vec<_> = grammars.iter().collect();
        language_quality(ctx, out, &inputs, &grammars);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn oracle_calls(traced: &Mutex<Vec<Traced>>) -> usize {
    let traced = traced.lock().expect("traced list poisoned");
    traced.iter().map(|t| t.counts.snapshot()[0]).sum()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Keeps the clients in step: every round starts for all of them at once.
struct Lockstep {
    barrier: Barrier,
    /// Whether another round runs, decided by the barrier's leader.
    go: AtomicBool,
    /// The process's peak RSS in each finished round, in MB.
    peaks: Mutex<Vec<f64>>,
}

impl Lockstep {
    /// Waits for every client; true while rounds remain. The barrier's
    /// leader also closes the finished round's peak-RSS count.
    fn next_round(&self, ctx: &Ctx, start: Instant, done: usize) -> bool {
        if self.barrier.wait().is_leader() {
            if done > 0 {
                self.peaks.lock().expect("peak list poisoned").push(peak_rss_mb());
            }
            let more = done < MIN_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds;
            self.go.store(more, Ordering::SeqCst);
            reset_peak_rss();
        }
        self.barrier.wait();
        self.go.load(Ordering::SeqCst)
    }
}

/// One client's closed loop: rounds of one campaign per language, in the
/// same order for every client and started together, until the deadline.
/// Lockstep keeps which campaigns overlap — and so the daemon's memory
/// peak — the same from run to run. In a traced run odd rounds record
/// spans and event tallies.
fn client_loop(
    ctx: &Ctx,
    socket: &Path,
    inputs: &[LangInput],
    start: Instant,
    step: &Lockstep,
) -> ClientLog {
    let mut log = ClientLog::default();
    let rec = &ctx.rec;
    let mut round = 0;
    while step.next_round(ctx, start, round) {
        let is_traced = ctx.traced_round(round);
        round += 1;
        let mut tally = SynthTally::default();
        let mut layers = Layers::new();
        let (mut round_s, mut open_s, mut run_s, mut close_s, mut events) = (0.0, 0.0, 0.0, 0.0, 0);
        for (i, input) in inputs.iter().enumerate() {
            let lang = input.lang.name();
            let run = rec.new_run();
            let outer = is_traced.then(|| rec.open("serve.campaign", NO_PARENT, run));
            let phases = outer.map(|p| PhaseTrace::new(Arc::clone(rec), run, p));
            let c = match campaign(socket, lang, &input.seeds, phases.as_ref()) {
                Ok(c) => c,
                Err(e) => {
                    log.served.push((i, true, Err(e)));
                    continue;
                }
            };
            let secs = c.open_s + c.run_s + c.close_s;
            round_s += secs;
            if let (Some(outer), Some(phases)) = (outer, &phases) {
                rec.close(outer);
                let span = rec.get(outer);
                let open_end = span.start + c.open_s;
                let run_end = open_end + c.run_s;
                rec.push("serve.open", span.start, open_end, outer, run);
                rec.push("serve.run", open_end, run_end, outer, run);
                rec.push("serve.close", run_end, span.end, outer, run);
                let stats = &c.outcome.stats;
                tally.add_run(rec, run, span.interval(), &phases.state(), secs, stats, [0; 3]);
                layers.insert(synth_key(lang), secs);
                (open_s, run_s, close_s) =
                    (open_s + c.open_s, run_s + c.run_s, close_s + c.close_s);
                events += c.events;
            } else {
                log.ops.push((lang, secs));
            }
            log.served.push((i, true, Ok(c.outcome)));
        }
        log.end_s = start.elapsed().as_secs_f64();
        if is_traced {
            log.traced_rounds.push(round_s);
            layers.extend(tally.layers());
            layers.insert("serve.open_s", open_s);
            layers.insert("serve.run_s", run_s);
            layers.insert("serve.close_s", close_s);
            layers.insert("serve.events", events as f64);
            log.layers.push(layers);
        } else {
            log.rounds.push(round_s);
        }
    }
    log
}

/// Times `Session::load_cache` and `save_cache_as` on the daemon's own
/// checkpoint files: per-round sums over the languages of median times.
fn persist_layers(ctx: &Ctx, dir: &Path, inputs: &[LangInput], out: &mut Outcome) {
    let (mut load_s, mut save_s, mut bytes, mut resident) = (0.0, 0.0, 0, 0);
    for input in inputs {
        let name = input.lang.name();
        let path = dir.join(format!("{:016x}.glade-cache", fnv1a64(fingerprint(name).as_bytes())));
        let tmp = ctx.out_dir.join(format!("{name}.resave"));
        bytes += file_len(&path);
        let oracle = input.lang.oracle();
        let (mut loads, mut saves, mut problems) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..PERSIST_REPS {
            let session =
                builder(ctx.workers).oracle_fingerprint(fingerprint(name)).session(&oracle);
            let t = Instant::now();
            let loaded = session.load_cache(&path);
            loads.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let saved = session.save_cache_as(&tmp, CacheFormat::Binary);
            saves.push(t.elapsed().as_secs_f64());
            if let Err(e) = loaded.and(saved.map(|()| 0)) {
                problems.push(format!("checkpoint round trip: {e}"));
            }
            resident = session.cache_resident();
        }
        out.checks.op(name, problems);
        load_s += median(&loads);
        save_s += median(&saves);
        let _ = std::fs::remove_file(&tmp);
        out.run_layers
            .entry("cache.resident")
            .and_modify(|r| *r += resident as f64)
            .or_insert(resident as f64);
    }
    out.run_layers.insert("persist.load_s", load_s);
    out.run_layers.insert("persist.save_s", save_s);
    out.run_layers.insert("persist.bytes", bytes as f64);
}
