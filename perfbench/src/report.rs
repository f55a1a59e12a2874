//! Metric catalogs, the machine/provenance record, and JSON output.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a test
//! keeps the two in step.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them
/// with tracing off.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("synth_s", "s"),
    ("unique_queries", "count"),
    ("f1.url", "ratio"),
    ("f1.grep", "ratio"),
    ("f1.lisp", "ratio"),
    ("f1.xml", "ratio"),
    ("fuzz_valid_cov", "ratio"),
    ("fuzz_inputs_per_s", "1/s"),
    ("campaign_s_p50", "s"),
    ("campaign_s_p90", "s"),
    ("campaigns_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of them
/// in a traced run; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("phase1.s", "s"),
    ("phase1.self_s", "s"),
    ("phase1.wall_share", "ratio"),
    ("phase1.seeds", "count"),
    ("phase1.stars", "count"),
    ("chargen.s", "s"),
    ("phase2.s", "s"),
    ("waves.self_s", "s"),
    ("chargen.chars", "count"),
    ("phase2.pairs_tried", "count"),
    ("phase2.merges", "count"),
    ("reduce.probes_elided", "count"),
    ("reduce.memo_hits", "count"),
    ("runner.batches", "count"),
    ("runner.checks", "count"),
    ("runner.cached", "count"),
    ("runner.posed", "count"),
    ("runner.hit_ratio", "ratio"),
    ("runner.checks_per_batch", "count"),
    ("cache.resident", "count"),
    ("cache.filter_negatives", "count"),
    ("cache.filter_negative_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("oracle.calls", "count"),
    ("oracle.busy_s", "s"),
    ("oracle.wall_share", "ratio"),
    ("oracle.us_per_query", "us"),
    ("oracle.failures", "count"),
    ("pool.batch_calls", "count"),
    ("pool.queries_per_batch", "count"),
    ("pool.us_per_query", "us"),
    ("pool.first_batch_s", "s"),
    ("pool.respawns", "count"),
    ("pool.timeouts", "count"),
    ("persist.load_s", "s"),
    ("persist.save_s", "s"),
    ("persist.bytes", "bytes"),
    ("serve.open_s", "s"),
    ("serve.run_s", "s"),
    ("serve.close_s", "s"),
    ("serve.events", "count"),
    ("serve.journal_bytes", "bytes"),
    ("fuzz.gen_s", "s"),
    ("fuzz.exec_s", "s"),
    ("fuzz.valid_rate", "ratio"),
    ("eval.precision.url", "ratio"),
    ("eval.precision.grep", "ratio"),
    ("eval.precision.lisp", "ratio"),
    ("eval.precision.xml", "ratio"),
    ("eval.recall.url", "ratio"),
    ("eval.recall.grep", "ratio"),
    ("eval.recall.lisp", "ratio"),
    ("eval.recall.xml", "ratio"),
    ("synth.url_s", "s"),
    ("synth.grep_s", "s"),
    ("synth.lisp_s", "s"),
    ("synth.xml_s", "s"),
    ("synth.sed_s", "s"),
    ("synth.flex_s", "s"),
    ("synth.bison_s", "s"),
    ("synth.ruby_s", "s"),
    ("synth.python_s", "s"),
    ("synth.javascript_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// `synth.<subject>_s` as a static metric name.
pub fn synth_key(subject: &str) -> &'static str {
    let wanted = format!("synth.{subject}_s");
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| *name == wanted)
        .expect("every subject has a synth metric")
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (never expected) become 0.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for `metrics`.
pub fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Facts about the machine and the build that every result carries.
pub fn provenance(serve_dir: &std::path::Path) -> Vec<(&'static str, String)> {
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc().map_or_else(|| "unknown".into(), |n| n.to_string())),
        ("available_parallelism", available.to_string()),
        ("cpu_model", cpu_model()),
        ("rustc", command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ("git_commit", env_or_unknown("PERFBENCH_GIT_COMMIT")),
        ("source_digest", env_or_unknown("PERFBENCH_SOURCE_DIGEST")),
        ("serve_cache_fs", filesystem_of(serve_dir)),
    ]
}

/// Processors this process may run on (`nproc`), which unlike
/// `available_parallelism` ignores the cgroup CPU quota.
pub fn nproc() -> Option<usize> {
    command_line("nproc", &[])?.trim().parse().ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).ok().filter(|v| !v.is_empty()).unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// File system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else { return "unknown".into() };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), format!("{fs} on {mount}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Makes glibc give freed heap memory back to the kernel once more than
/// 128 KiB of it sits at the top of an arena (`M_TRIM_THRESHOLD`; setting it
/// also pins the mmap threshold at its 128 KiB default). Left to its dynamic
/// thresholds, glibc keeps up to tens of MB of freed memory resident at the
/// top of each per-thread arena, where `malloc_trim` does not reach: RSS then
/// depends on which arenas earlier threads happened to use, and serve-warm's
/// per-round peak differed by up to a third between processes of the same
/// code. With prompt trimming RSS follows the memory the program uses. Call
/// it before any thread starts; every workload runs under it.
pub fn trim_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        const M_TRIM_THRESHOLD: c_int = -1;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // SAFETY: `mallopt` only changes the allocator's tuning parameters.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, 128 * 1024);
        }
    }
}

/// Restarts the peak-RSS count at the current RSS (Linux `clear_refs`
/// code 5), so [`peak_rss_mb`] covers only what runs after it — one timed
/// round. Free heap pages are handed back to the kernel first (glibc
/// `malloc_trim`), so the count starts from the memory the process holds
/// rather than from what earlier work left in the allocator's per-thread
/// free lists, which differs from run to run. Where the kernel refuses,
/// the peak stays the process lifetime's.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` only returns free pages to the kernel and
        // takes the allocator's own locks.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time this process has used (user plus system), in seconds; next to
/// wall time it shows whether a slow run waited or computed slowly.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesized command name; utime and stime are the
    // 12th and 13th of them, in clock ticks (100 per second on Linux).
    let fields: Vec<&str> = stat.rsplit(')').next().unwrap_or("").split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034567891), "1.2034567891");
        assert_eq!(json_num(3.0), "3");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(metrics_json(&[("a", "s", 0.5)]), "{\"a\": {\"value\": 0.5, \"unit\": \"s\"}}");
    }

    #[test]
    fn catalog_names_are_unique_and_valid() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn benchmark_json_declares_the_catalogs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {name} ({unit})");
        }
    }
}
