//! Property tests for the registry's merge: samples and increments spread
//! over several shards must read back exactly as one histogram fed every
//! sample, and one counter fed every increment.

use proptest::prelude::*;
use tlp_obs::{Histogram, Live, LiveValue};

/// The true q-quantile under the histogram's rank definition.
fn true_quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn shards_merge_into_the_whole_runs_series(
        run in prop::collection::vec(
            (0usize..4, (-7.0f64..5.0).prop_map(|e| 10f64.powf(e)), 1u64..100),
            1..200,
        ),
        q in 0.01f64..1.0,
    ) {
        let live = Live::new(0);
        let shards: Vec<_> = (0..4).map(|_| live.handle()).collect();
        let mut reference = Histogram::new();
        let mut total = 0u64;
        for &(shard, sample, n) in &run {
            shards[shard].observe("lat", sample);
            shards[shard].inc("c", n);
            reference.record(sample);
            total += n;
        }
        let snap = live.snapshot();
        prop_assert_eq!(snap.series.get("c"), Some(&LiveValue::Counter(total)));
        let Some(LiveValue::Histogram(merged)) = snap.series.get("lat") else {
            return Err(TestCaseError::fail("lat is not a histogram"));
        };
        // Nothing lost or counted twice. The sum may differ in the last ulp
        // (the merge adds per-shard partials in a different order), so it
        // gets a relative tolerance; everything else is exact.
        prop_assert_eq!(merged.count(), reference.count());
        prop_assert_eq!(merged.min(), reference.min());
        prop_assert_eq!(merged.max(), reference.max());
        prop_assert!(
            (merged.sum() - reference.sum()).abs() <= 1e-12 * reference.sum().abs().max(1.0)
        );
        // And the merged quantile bounds bracket the true sample quantile —
        // the same guarantee a single histogram gives.
        let samples: Vec<f64> = run.iter().map(|r| r.1).collect();
        let truth = true_quantile(&samples, q);
        let (lo, hi) = merged.quantile_bounds(q).expect("non-empty");
        prop_assert!(lo <= truth && truth <= hi, "q={} truth={} not in [{}, {}]", q, truth, lo, hi);
        prop_assert_eq!((lo, hi), reference.quantile_bounds(q).unwrap());
    }
}
