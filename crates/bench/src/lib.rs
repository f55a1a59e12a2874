//! Shared scaffolding for the figure-regeneration benches.
//!
//! Every bench target in this crate regenerates one table or figure of the
//! paper's evaluation and is named after it (`benches/fig4_language_inference.rs`
//! is Fig 4, `benches/fig7_fuzzing.rs` is Fig 7, and so on; `ablations.rs`
//! and `criterion_pipeline.rs` are the exceptions). Scale knobs are
//! read from the environment so `cargo bench` finishes in minutes by
//! default while `GLADE_SCALE=paper` reproduces the paper's sample sizes:
//!
//! | Variable | Meaning | default | `paper` |
//! |---|---|---|---|
//! | `GLADE_SEEDS` | seeds per language (Fig 4) | 20 | 50 |
//! | `GLADE_EVAL_SAMPLES` | precision/recall samples | 300 | 1000 |
//! | `GLADE_FUZZ_SAMPLES` | inputs per fuzzer (Fig 7) | 2000 | 50000 |
//! | `GLADE_RUNS` | repetitions to average | 1 | 5 |
//! | `GLADE_TIME_LIMIT_SECS` | per-learner budget | 20 | 300 |

use glade_eval::EvalConfig;
use std::time::Duration;

/// Scale parameters for the benches.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Seeds per language in the Fig 4 experiment.
    pub seeds: usize,
    /// Samples per precision/recall estimate.
    pub eval_samples: usize,
    /// Inputs per fuzzer per target in the Fig 7 experiment.
    pub fuzz_samples: usize,
    /// Repetitions to average over (paper: 5).
    pub runs: usize,
    /// Per-learner time budget.
    pub time_limit: Duration,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        let paper = std::env::var("GLADE_SCALE").is_ok_and(|v| v == "paper");
        let get = |name: &str, dflt: usize, paper_v: usize| {
            std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(if paper {
                paper_v
            } else {
                dflt
            })
        };
        Scale {
            seeds: get("GLADE_SEEDS", 20, 50),
            eval_samples: get("GLADE_EVAL_SAMPLES", 300, 1000),
            fuzz_samples: get("GLADE_FUZZ_SAMPLES", 2000, 50_000),
            runs: get("GLADE_RUNS", 1, 5),
            time_limit: Duration::from_secs(get("GLADE_TIME_LIMIT_SECS", 20, 300) as u64),
        }
    }

    /// The matching learner-evaluation config.
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            num_seeds: self.seeds,
            eval_samples: self.eval_samples,
            time_limit: self.time_limit,
            equivalence_samples: 50,
            num_negatives: 50,
            max_queries: 300_000,
        }
    }
}

/// Prints a figure banner.
pub fn banner(title: &str) {
    println!("\n==============================================================");
    println!("{title}");
    println!("==============================================================");
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_small() {
        // Only check the defaults when the env leaves them alone.
        if std::env::var("GLADE_SCALE").is_err() && std::env::var("GLADE_SEEDS").is_err() {
            let s = Scale::from_env();
            assert_eq!(s.seeds, 20);
            assert!(s.fuzz_samples <= 50_000);
        }
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
