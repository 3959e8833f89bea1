//! The log-scale histogram every metric distribution in the crate is made of.
//!
//! There is one metrics registry, [`crate::Live`]; this module is the
//! sample shape it (and the SLO monitor) stores. [`Histogram`] uses
//! logarithmic buckets (4 per octave, covering `[2^-30, 2^34)`), so a
//! single shape serves microsecond queue waits and kilosecond makespans
//! with bounded error: any quantile estimate brackets the true sample
//! quantile within one bucket (≈ ±9 %), a property the crate's proptests
//! pin down.

use crate::json::Json;

/// Buckets per powers-of-two octave.
const BUCKETS_PER_OCTAVE: i32 = 4;
/// Exponent (base 2) of the smallest finite bucket boundary.
const MIN_EXP: i32 = -30;
/// Exponent (base 2) one past the largest finite bucket boundary.
const MAX_EXP: i32 = 34;
/// Number of finite buckets.
const N_BUCKETS: usize = ((MAX_EXP - MIN_EXP) * BUCKETS_PER_OCTAVE) as usize;

/// A log-scale histogram of non-negative samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// `buckets[0]` holds underflow (including zero); `buckets[1 + k]`
    /// holds samples in `[bound(k), bound(k + 1))`; the final slot holds
    /// overflow.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Lower boundary of finite bucket `k`.
fn bucket_bound(k: i32) -> f64 {
    2f64.powf(MIN_EXP as f64 + k as f64 / BUCKETS_PER_OCTAVE as f64)
}

/// Finite bucket index for a positive sample, or `None` for under/overflow.
fn bucket_of(v: f64) -> Option<usize> {
    let k = ((v.log2() - MIN_EXP as f64) * BUCKETS_PER_OCTAVE as f64).floor() as i64;
    if k < 0 || k as usize >= N_BUCKETS {
        None
    } else {
        Some(k as usize)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; N_BUCKETS + 2],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Negative and non-finite samples are clamped
    /// into the underflow/overflow buckets rather than dropped.
    pub fn record(&mut self, v: f64) {
        let v = if v.is_nan() { 0.0 } else { v };
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let slot = if v <= 0.0 {
            0
        } else {
            match bucket_of(v) {
                Some(k) => 1 + k,
                None if v < 1.0 => 0,
                None => N_BUCKETS + 1,
            }
        };
        self.buckets[slot] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Bounds `(lo, hi)` of the bucket holding the `q`-quantile sample
    /// (`0 < q <= 1`): the true sample quantile is guaranteed to lie in
    /// `lo <= x <= hi`. Bounds are additionally clamped to the recorded
    /// min/max. `None` when the histogram is empty.
    pub fn quantile_bounds(&self, q: f64) -> Option<(f64, f64)> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Rank of the q-quantile under the "smallest x with
        // count(samples <= x) >= ceil(q n)" definition.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (slot, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let (lo, hi) = if slot == 0 {
                    (f64::NEG_INFINITY, bucket_bound(0))
                } else if slot == N_BUCKETS + 1 {
                    (bucket_bound(N_BUCKETS as i32), f64::INFINITY)
                } else {
                    (bucket_bound(slot as i32 - 1), bucket_bound(slot as i32))
                };
                return Some((lo.max(self.min), hi.min(self.max)));
            }
        }
        None
    }

    /// Point estimate of the `q`-quantile: the upper bound of its bucket
    /// (a conservative estimate — never below the true sample quantile).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantile_bounds(q).map(|(_, hi)| hi)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// JSON summary (count/sum/mean/min/max/p50/p90/p99).
    pub fn to_json(&self) -> Json {
        let q = |p: f64| Json::Num(self.quantile(p).unwrap_or(0.0));
        Json::obj(vec![
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum)),
            ("mean", Json::Num(self.mean())),
            ("min", Json::Num(self.min().unwrap_or(0.0))),
            ("max", Json::Num(self.max().unwrap_or(0.0))),
            ("p50", q(0.50)),
            ("p90", q(0.90)),
            ("p99", q(0.99)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = Histogram::new();
        let samples = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0];
        for &s in &samples {
            h.record(s);
        }
        // Median of 7 samples is the 4th (= 1.0).
        let (lo, hi) = h.quantile_bounds(0.5).unwrap();
        assert!(lo <= 1.0 && 1.0 <= hi, "[{lo}, {hi}]");
        // Max quantile equals the max sample.
        let (lo, hi) = h.quantile_bounds(1.0).unwrap();
        assert!(lo <= 1000.0 && 1000.0 <= hi);
        assert_eq!(h.max(), Some(1000.0));
        assert_eq!(h.min(), Some(0.001));
    }

    #[test]
    fn histogram_handles_degenerate_samples() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-4.0);
        h.record(f64::NAN);
        h.record(1e300);
        assert_eq!(h.count(), 4);
        assert!(h.quantile(0.5).is_some());
        let (_, hi) = h.quantile_bounds(1.0).unwrap();
        assert!(hi >= 1e300);
    }

    #[test]
    fn merge_adds_distributions() {
        let mut a = Histogram::new();
        a.record(1.0);
        let mut b = Histogram::new();
        b.record(4.0);
        b.record(16.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(16.0));
        assert!((a.sum() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile_bounds(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), 0.0);
    }
}
