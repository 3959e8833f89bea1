//! Order statistics for timing samples: median, quartile, and the highest
//! conventional percentile that still has at least ten samples beyond it.

/// Percentiles a tail may be reported at, highest first, in per mille
/// (so that "ten samples beyond" is decided in whole numbers).
const TAIL_LADDER: [u64; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: u64 = 10;

/// Linear-interpolated percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples beyond it, or `None` when even p75 has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|pm| n as u64 * (1000 - pm) >= TAIL_MIN_BEYOND * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// What is printed beside every timing: median, lower quartile, the tail
/// the sample count supports, and the count itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    /// `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            p25: percentile(&s, 25.0),
            p50: percentile(&s, 50.0),
            tail: tail_percentile(s.len()).map(|p| (p, percentile(&s, p))),
        }
    }

    /// `p50 17.2 (p25 16.9, p90 19.0, n 104)`.
    pub fn render(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v:.4}"),
            None => "tail n/a (fewer than 10 samples beyond p75)".to_string(),
        };
        format!(
            "p50 {:.4} {unit} (p25 {:.4}, {tail}, n {})",
            self.p50, self.p25, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 25.0), 20.0);
        assert_eq!(percentile(&s, 90.0), 46.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail.map(|t| t.0), Some(90.0));
        assert!(Summary::of(&xs[..20]).tail.is_none());
    }
}
