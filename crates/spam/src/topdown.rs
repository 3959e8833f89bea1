//! Top-down re-entry: FA predictions drive new RTF hypotheses and LCC work.
//!
//! §2.2: "the context of a runway functional area then predicts that
//! certain sub-areas within that functional area are good candidates for
//! finding grassy areas or tarmac regions. ... prediction of a fragment
//! interpretation in functional-area phase will automatically cause SPAM
//! to reenter local-consistency check phase for that fragment."
//!
//! Given the FA phase's open predictions, this module searches each area's
//! spatial window for still-unclaimed regions that *loosely* fit the
//! predicted class (the context justifies a weaker envelope than bottom-up
//! RTF used), creates prediction-driven fragment hypotheses, and re-enters
//! LCC for exactly those fragments.

use crate::fa::FaResult;
use crate::fragments::{FragmentHypothesis, FragmentKind};
use crate::lcc::{run_lcc_unit, ConsistentRec, LccUnit};
use crate::rules::SpamProgram;
use crate::scene::Scene;
use crate::task::TaskProcess;
use ops5::WorkCounters;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Result of a top-down re-entry pass.
#[derive(Debug)]
pub struct TopDownResult {
    /// Prediction-driven hypotheses (appended after the bottom-up ids).
    pub predicted: Vec<FragmentHypothesis>,
    /// Fragments (bottom-up + predicted) with supports updated by the
    /// re-entered LCC tasks.
    pub fragments: Vec<FragmentHypothesis>,
    /// Consistency records found by the re-entry tasks.
    pub consistents: Vec<ConsistentRec>,
    /// How many predicted hypotheses found support (context confirmed).
    pub confirmed: usize,
    /// Work of the re-entered tasks.
    pub work: WorkCounters,
    /// Firings of the re-entered tasks.
    pub firings: u64,
}

/// Relaxed descriptor envelope for a predicted kind: the functional-area
/// context substitutes for the evidence bottom-up classification demanded.
fn loosely_fits(kind: FragmentKind, region: &crate::scene::Region) -> bool {
    let d = &region.descriptors;
    match kind {
        FragmentKind::GrassyArea => (100.0..175.0).contains(&region.intensity) && d.area > 1200.0,
        FragmentKind::ParkingApron => {
            (50.0..145.0).contains(&region.intensity) && d.area > 15_000.0 && d.elongation < 6.0
        }
        FragmentKind::Tarmac => (50.0..135.0).contains(&region.intensity) && d.area > 1_500.0,
        _ => false,
    }
}

/// Runs the top-down pass: predictions → new hypotheses → LCC re-entry.
pub fn run_topdown(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &[FragmentHypothesis],
    fa: &FaResult,
    predictions: &[(i64, FragmentKind)],
) -> TopDownResult {
    // Regions already carrying any hypothesis are not re-hypothesised.
    let claimed: BTreeSet<u32> = fragments.iter().map(|f| f.region).collect();

    // Window per predicting area: the seed fragment's bbox, inflated.
    let mut predicted: Vec<FragmentHypothesis> = Vec::new();
    let mut next_id = fragments.iter().map(|f| f.id + 1).max().unwrap_or(0);
    let mut taken: BTreeSet<u32> = BTreeSet::new();
    for &(area_id, kind) in predictions {
        let Some(area) = fa.areas.iter().find(|a| a.id == area_id) else {
            continue;
        };
        let Some(seed) = fragments.iter().find(|f| f.id == area.seed) else {
            continue;
        };
        let window = scene.region(seed.region).polygon.bbox().inflated(300.0);
        for region in &scene.regions {
            if claimed.contains(&region.id) || taken.contains(&region.id) {
                continue;
            }
            if !window.intersects(&region.polygon.bbox()) {
                continue;
            }
            if loosely_fits(kind, region) {
                taken.insert(region.id);
                predicted.push(FragmentHypothesis {
                    id: next_id,
                    region: region.id,
                    kind,
                    confidence: 0.25, // context-driven, weak prior
                    support: 0,
                });
                next_id += 1;
            }
        }
    }

    // Re-enter LCC for exactly the predicted fragments.
    let mut all: Vec<FragmentHypothesis> = fragments.to_vec();
    all.extend(predicted.iter().cloned());
    let table = Arc::new(all.clone());
    let mut work = WorkCounters::default();
    let mut firings = 0;
    let mut consistents = Vec::new();
    let mut supports = vec![0i64; table.len()];
    // On the thread's task process, its engine re-wired for the extended
    // table.
    TaskProcess::with_thread(|tp| {
        for f in &predicted {
            let r = run_lcc_unit(tp, sp, scene, &table, &LccUnit::Object(f.id));
            work.add(&r.work);
            firings += r.firings;
            consistents.extend(r.consistents.iter().copied());
            for &(id, s) in &r.supports {
                supports[id as usize] += s;
            }
        }
    });
    for f in &mut all {
        f.support += supports[f.id as usize];
    }
    let confirmed = predicted
        .iter()
        .filter(|f| all[f.id as usize].support > 0)
        .count();
    let predicted_updated: Vec<FragmentHypothesis> = predicted
        .iter()
        .map(|f| all[f.id as usize].clone())
        .collect();

    TopDownResult {
        predicted: predicted_updated,
        fragments: all,
        consistents,
        confirmed,
        work,
        firings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fa::run_fa;
    use crate::lcc::{run_lcc, Level};
    use crate::rtf::run_rtf;

    #[test]
    fn predictions_recover_unclaimed_context_regions() {
        let sp = SpamProgram::build();
        let scene = Arc::new(crate::generate_scene(&crate::datasets::moff().spec));
        let rtf = run_rtf(&sp, &scene);
        let frags = Arc::new(rtf.fragments);
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let fa = run_fa(
            &sp,
            &scene,
            &Arc::new(lcc.fragments.clone()),
            &lcc.consistents,
        );

        // Use the FA rules' own prediction records.
        let predictions = fa.prediction_list.clone();
        assert!(!predictions.is_empty(), "FA opened no predictions");

        let td = run_topdown(&sp, &scene, &lcc.fragments, &fa, &predictions);
        assert!(
            !td.predicted.is_empty(),
            "the context should nominate unclaimed regions"
        );
        assert!(
            td.confirmed > 0,
            "some predicted fragments must find consistency support"
        );
        assert!(td.confirmed <= td.predicted.len());
        assert!(td.firings > 0 && td.work.total_units() > 0);
        // Predicted ids extend the bottom-up table densely.
        for (i, f) in td.fragments.iter().enumerate() {
            assert_eq!(f.id as usize, i);
        }
        // Re-entry never decreases a bottom-up fragment's support.
        for (a, b) in lcc.fragments.iter().zip(&td.fragments) {
            assert!(b.support >= a.support);
        }
    }
}
