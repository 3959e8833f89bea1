//! Property tests: histogram quantile bounds always bracket the true
//! sample quantile.

use proptest::prelude::*;
use tlp_obs::Histogram;

/// The true q-quantile under the histogram's rank definition: the
/// `ceil(q n)`-th smallest sample (1-based), clamped to rank >= 1.
fn true_quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Log-uniform positive samples spanning microseconds to kiloseconds.
fn samples_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-7.0f64..5.0).prop_map(|e| 10f64.powf(e)), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn quantile_bounds_bracket_true_quantile(
        samples in samples_strategy(),
        q in 0.01f64..1.0,
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let truth = true_quantile(&samples, q);
        let (lo, hi) = h.quantile_bounds(q).expect("non-empty histogram");
        prop_assert!(
            lo <= truth && truth <= hi,
            "q={} truth={} not in [{}, {}]", q, truth, lo, hi
        );
        // The point estimate is the conservative upper bound.
        prop_assert!(h.quantile(q).unwrap() >= truth);
    }

    #[test]
    fn extreme_quantiles_equal_min_and_max(samples in samples_strategy()) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let (lo, hi) = h.quantile_bounds(1.0).unwrap();
        prop_assert!(lo <= max && max <= hi);
        prop_assert!(hi <= max + 1e-12, "upper bound clamps to recorded max");
        let (lo, _) = h.quantile_bounds(1e-9).unwrap();
        prop_assert!(lo >= min - 1e-12, "lower bound clamps to recorded min");
    }

    #[test]
    fn merged_histogram_matches_pooled_samples(
        a in samples_strategy(),
        b in samples_strategy(),
        q in 0.05f64..1.0,
    ) {
        let mut ha = Histogram::new();
        for &s in &a { ha.record(s); }
        let mut hb = Histogram::new();
        for &s in &b { hb.record(s); }
        ha.merge(&hb);

        let mut pooled = a.clone();
        pooled.extend_from_slice(&b);
        let truth = true_quantile(&pooled, q);
        let (lo, hi) = ha.quantile_bounds(q).unwrap();
        prop_assert!(lo <= truth && truth <= hi);
        prop_assert_eq!(ha.count(), pooled.len() as u64);
    }
}
