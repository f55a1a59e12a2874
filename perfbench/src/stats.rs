//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so spreads computed here match the ones a
//! reader recomputes from the raw samples.

/// Median, quartiles, and tail of one set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest whole percentile with at least ten samples beyond it,
    /// and its value (nearest rank); `None` below 20 samples.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        let (q1, median, q3) = quartiles(&sorted);
        Some(Summary { n: sorted.len(), median, q1, q3, tail: tail_percentile(&sorted) })
    }
}

/// A sorted copy of `samples` (NaN-free input assumed).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median, and third quartile of sorted samples, by
/// Python's exclusive method. One sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile from 50 to 99 that still leaves at least
/// ten samples above it, with its nearest-rank value.
pub fn tail_percentile(sorted: &[f64]) -> Option<(u32, f64)> {
    let n = sorted.len();
    (50..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, sorted[rank - 1]))
    })
}

/// Operation latency percentile `p` across subjects: each subject's
/// nearest-rank percentile over its own samples, then the geometric mean
/// over subjects. Subjects differ in size by up to 20×, so the pooled
/// median would sit in a gap between two subjects and jump with the sample
/// counts; this weighs every subject equally.
pub fn subject_percentile(ops: &[(&str, f64)], p: f64) -> f64 {
    let mut subjects: Vec<&str> = ops.iter().map(|(s, _)| *s).collect();
    subjects.sort_unstable();
    subjects.dedup();
    if subjects.is_empty() {
        return 0.0;
    }
    let logs: f64 = subjects
        .iter()
        .map(|subject| {
            let own: Vec<f64> = ops.iter().filter(|(s, _)| s == subject).map(|(_, x)| *x).collect();
            percentile(&sorted(&own), p).ln()
        })
        .sum();
    (logs / subjects.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99, 990.0)));
        // 20 samples: only the median leaves ten beyond it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50, 10.0)));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[4.0], 90.0), 4.0);
    }

    #[test]
    fn subject_percentile_weighs_subjects_equally() {
        // Two subjects 100x apart; one has more samples than the other.
        let ops = [("a", 1.0), ("a", 2.0), ("a", 3.0), ("b", 100.0), ("b", 200.0)];
        // Medians 2 and 100 (nearest rank), geometric mean sqrt(200).
        assert!((subject_percentile(&ops, 50.0) - 200f64.sqrt()).abs() < 1e-9);
        // p90: 3 and 200.
        assert!((subject_percentile(&ops, 90.0) - 600f64.sqrt()).abs() < 1e-9);
        assert_eq!(subject_percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_reports_sample_count() {
        let s = Summary::of(&[2.0, 1.0, 3.0]).expect("non-empty");
        assert_eq!((s.n, s.median, s.tail), (3, 2.0, None));
        assert!(Summary::of(&[]).is_none());
    }
}
