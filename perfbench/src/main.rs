//! `perfbench` — the repository benchmark: end-to-end metrics of three
//! workloads, and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <fig4-cold|fig6-pooled|serve-warm> [--seed N]
//!           [--seconds S] [--trace 0|1] [--worker PATH] [--out DIR]
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric
//! instead. `perfbench/run.py` builds the workspace and this package and
//! runs it; see `BENCHMARK.json` for what each workload and metric means.

mod common;
mod fig4;
mod fig6;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use common::{Ctx, Outcome};
use report::{json_num, json_str, metrics_json, END_TO_END, PER_LAYER};
use stats::{median, percentile, sorted, subject_percentile, Summary};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const WORKLOADS: [&str; 3] = ["fig4-cold", "fig6-pooled", "serve-warm"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: common::CORPUS_SEED,
        seconds: 20.0,
        trace: false,
        worker: PathBuf::from(".bench_build/release/glade-oracle-worker"),
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                args.seed = parsed.map_err(|_| format!("bad --seed {value}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--worker" => args.worker = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn main() -> ExitCode {
    report::trim_freed_memory();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
                 [--worker PATH] [--out DIR]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "fig6-pooled" && !args.worker.is_file() {
        eprintln!("perfbench: oracle worker {} not found", args.worker.display());
        return ExitCode::FAILURE;
    }
    let run_dir = args.out.join(format!(
        "{}-seed{}-trace{}-{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        workers: report::nproc().unwrap_or(available).clamp(1, 2),
        worker_bin: args.worker.clone(),
        out_dir: run_dir.clone(),
        rec: Arc::new(trace::Recorder::default()),
    };
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "fig4-cold" => fig4::run(&ctx, &mut out),
        "fig6-pooled" => fig6::run(&ctx, &mut out),
        _ => serve::run(&ctx, &mut out),
    }

    out.notes.push(("process_cpu_s", json_num(report::process_cpu_s())));
    out.notes.push(("process_wall_s", json_num(ctx.rec.now())));
    let e2e = end_to_end(&out);
    let per_layer = per_layer(&out, &ctx);
    let shown: Vec<(&str, &str, f64)> = if args.trace { per_layer.clone() } else { e2e.clone() };
    for (name, unit, value) in &shown {
        println!("{:<28} {:>16} {}", name, json_num(*value), unit);
    }
    for failure in &out.checks.failures {
        println!("check failed: {failure}");
    }
    let mut record = provenance_and_details(&args, &ctx, &out, &e2e, &per_layer);
    if args.trace {
        let spans = run_dir.join("spans.csv");
        match ctx.rec.write_csv(&spans) {
            Ok(()) => record.push(("spans_csv", json_str(&spans.display().to_string()))),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", spans.display()),
        }
    }
    let details = format!(
        "{{{}}}\n",
        record.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect::<Vec<_>>().join(", ")
    );
    let details_path = run_dir.join("result.json");
    if let Err(e) = std::fs::write(&details_path, details) {
        eprintln!("perfbench: cannot write {}: {e}", details_path.display());
    }
    println!("details: {}", details_path.display());
    let correct = out.checks.failed == 0 && out.checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.checks.attempted.max(1),
        out.checks.failed,
        metrics_json(&shown)
    );
    ExitCode::SUCCESS
}

/// Every end-to-end metric, in catalog order.
fn end_to_end(out: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let latencies: Vec<f64> = out.ops.iter().map(|(_, s)| *s).collect();
    let f1 = |lang: &str| out.quality.iter().find(|(l, _)| *l == lang).map_or(0.0, |(_, q)| q.f1());
    let ok = if out.checks.attempted == 0 {
        0.0
    } else {
        1.0 - out.checks.failed as f64 / out.checks.attempted as f64
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup_s" => median(&out.setup_s),
                "synth_s" => median(&out.rounds),
                "unique_queries" => out.unique_queries,
                "fuzz_valid_cov" => out.fuzz.cov(),
                "fuzz_inputs_per_s" => out.fuzz.inputs_per_s(),
                "campaign_s_p50" => subject_percentile(&out.ops, 50.0),
                "campaign_s_p90" if !latencies.is_empty() => percentile(&sorted(&latencies), 90.0),
                "campaigns_per_s" if out.ops_wall_s > 0.0 => {
                    latencies.len() as f64 / out.ops_wall_s
                }
                "ok_frac" => ok,
                "peak_rss_mb" => median(&out.peak_rss_mb),
                f if f.starts_with("f1.") => f1(&f[3..]),
                _ => 0.0,
            };
            (name, unit, value)
        })
        .collect()
}

/// Every per-layer metric, in catalog order: medians over traced rounds,
/// then the once-per-run values, then the tracing overhead.
fn per_layer(out: &Outcome, ctx: &Ctx) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.overhead" if !out.rounds.is_empty() => {
                    median(&out.traced_rounds) / median(&out.rounds)
                }
                "trace.spans" => ctx.rec.len() as f64,
                _ => out.run_layers.get(name).copied().unwrap_or_else(|| {
                    let vals: Vec<f64> =
                        out.layers.iter().filter_map(|l| l.get(name).copied()).collect();
                    median(&vals)
                }),
            };
            (name, unit, value)
        })
        .collect()
}

/// The detailed record written next to the result: provenance, each
/// timing's median/quartiles/sample count, checks, and notes.
fn provenance_and_details(
    args: &Args,
    ctx: &Ctx,
    out: &Outcome,
    e2e: &[(&str, &str, f64)],
    per_layer: &[(&str, &str, f64)],
) -> Vec<(&'static str, String)> {
    let latencies: Vec<f64> = out.ops.iter().map(|(_, s)| *s).collect();
    let mut prov: Vec<(&str, String)> =
        report::provenance(&ctx.out_dir).into_iter().map(|(k, v)| (k, json_str(&v))).collect();
    prov.push(("workload_seed", args.seed.to_string()));
    prov.push(("workers", ctx.workers.to_string()));
    let obj = |pairs: &[(&str, String)]| {
        format!(
            "{{{}}}",
            pairs
                .iter()
                .map(|(k, v)| format!("{}: {v}", json_str(k)))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    let summary = |samples: &[f64]| match Summary::of(samples) {
        None => "null".to_owned(),
        Some(s) => {
            let tail = s.tail.map_or("null".to_owned(), |(p, v)| {
                format!("{{\"percentile\": {p}, \"value\": {}}}", json_num(v))
            });
            format!(
                "{{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"tail\": {tail}}}",
                s.n,
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3)
            )
        }
    };
    let notes: Vec<(&str, String)> = out.notes.iter().map(|(k, v)| (*k, json_str(v))).collect();
    let failures: Vec<String> = out.checks.failures.iter().map(|f| json_str(f)).collect();
    vec![
        ("workload", json_str(&args.workload)),
        ("trace", args.trace.to_string()),
        ("seconds", json_num(args.seconds)),
        ("provenance", obj(&prov)),
        ("end_to_end", metrics_json(e2e)),
        ("per_layer", if args.trace { metrics_json(per_layer) } else { "null".into() }),
        (
            "samples",
            obj(&[
                ("setup_s", summary(&out.setup_s)),
                ("synth_s", summary(&out.rounds)),
                ("synth_s_traced", summary(&out.traced_rounds)),
                ("campaign_s", summary(&latencies)),
                ("peak_rss_mb", summary(&out.peak_rss_mb)),
            ]),
        ),
        (
            "checks",
            format!(
                "{{\"attempted\": {}, \"failed\": {}, \"failures\": [{}]}}",
                out.checks.attempted,
                out.checks.failed,
                failures.join(", ")
            ),
        ),
        ("notes", obj(&notes)),
    ]
}
