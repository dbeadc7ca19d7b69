//! Order statistics for the reported timings: medians, quartiles as
//! Python's `statistics.quantiles(values, n=4)` computes them, and the
//! tail percentile rule (the highest percentile with at least
//! [`MIN_BEYOND`] samples beyond it).

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Values sorted ascending (NaN-free input assumed; NaNs sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; the mean of the two middle values for an even count. 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `[q1, q2, q3]` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a bound is compared against. `None` without quartiles or with a zero
/// median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p * n / 100)`, at least 1.
pub fn nearest_rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The highest whole percentile from 50 to 99 whose nearest-rank sample
/// has at least [`MIN_BEYOND`] samples after it, or `None` when even the
/// median has fewer (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n >= nearest_rank(p, n) + MIN_BEYOND)
}

/// Value at percentile `p` by nearest rank. `sorted` must be ascending
/// and non-empty.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// A timing summary: median, optional tail percentile, run-to-run
/// spread, sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median of the samples.
    pub median: f64,
    /// `(percentile, value)` of the tail, when [`tail_percentile`] allows one.
    pub tail: Option<(u32, f64)>,
    /// Interquartile range over the median ([`spread`]).
    pub spread: Option<f64>,
}

impl Summary {
    /// Summarise `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        let v = sorted(xs);
        Summary {
            n: v.len(),
            median: median(&v),
            tail: tail_percentile(v.len()).map(|p| (p, percentile(&v, p))),
            spread: spread(&v),
        }
    }

    /// For example `median 1.2340, p86 2.5000, IQR/median 0.031 (n=72)`.
    pub fn describe(&self, digits: usize) -> String {
        let mut out = format!("median {:.*}", digits, self.median);
        match self.tail {
            Some((p, x)) => out += &format!(", p{p} {x:.digits$}"),
            None => out += ", no tail (fewer than 20 samples)",
        }
        if let Some(s) = self.spread {
            out += &format!(", IQR/median {s:.3}");
        }
        out + &format!(" (n={})", self.n)
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some([4.5, 6.0, 7.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&xs).expect("ten values");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None, "zero median has no share");
    }

    #[test]
    fn tail_percentile_leaves_at_least_ten_samples_beyond() {
        for n in 1..2000 {
            match tail_percentile(n) {
                None => assert!(n < 20, "n={n} should allow at least the median"),
                Some(p) => {
                    let r = nearest_rank(p, n);
                    assert!(n - r >= MIN_BEYOND, "n={n} p={p} leaves {}", n - r);
                    if p < 99 {
                        let r1 = nearest_rank(p + 1, n);
                        assert!(n - r1 < MIN_BEYOND, "n={n}: p{} also qualifies", p + 1);
                    }
                }
            }
        }
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn summary_reports_tail_only_when_allowed() {
        let few = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!((few.n, few.median, few.tail), (3, 2.0, None));
        assert_eq!(few.spread, Some((3.0 - 1.0) / 2.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let many = Summary::of(&xs);
        assert_eq!(many.tail, Some((90, 90.0)));
        assert_eq!(xs.iter().filter(|&&x| x > 90.0).count(), 10);
    }

    #[test]
    fn ratio_of_empty_base_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
