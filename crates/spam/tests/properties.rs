//! Property-based tests for the SPAM system.

use proptest::prelude::*;
use spam::constraints::{constraints_for, Relation, CONSTRAINTS};
use spam::externals::{eval_relation, relation_radius};
use spam::fragments::FragmentHypothesis;
use spam::generate::AirportSpec;
use spam::lcc::{decompose, neighbourhood, LccPlan, LccUnit, Level, RegionIndex};
use spam::scene::{Region, Scene};
use spam_geometry::{Point, Polygon};
use std::sync::{Arc, OnceLock};

fn rect() -> impl Strategy<Value = Polygon> {
    (
        -500.0..500.0f64,
        -500.0..500.0f64,
        5.0..400.0f64,
        5.0..100.0f64,
        0.0..std::f64::consts::PI,
    )
        .prop_map(|(x, y, l, w, a)| Polygon::oriented_rect(Point::new(x, y), l, w, a))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-relation locality radius is sound: beyond it, positive
    /// relations can never hold (far-from is excluded — it holds trivially
    /// out there, which is why the guard rejects it as uninformative).
    #[test]
    fn relation_radius_is_a_sound_reject(a in rect(), b in rect()) {
        for c in CONSTRAINTS {
            if c.relation == Relation::FarFrom {
                continue;
            }
            let d = a.bbox().distance_to(&b.bbox());
            if d > relation_radius(c) {
                let (holds, _) = eval_relation(c.relation, c.param, &a, &b);
                prop_assert!(
                    !holds,
                    "{:?} param {} held at bbox distance {d:.1} (> radius {:.1})",
                    c.relation, c.param, relation_radius(c)
                );
            }
        }
    }

    /// Relations are deterministic and their reported cost is stable.
    #[test]
    fn eval_relation_is_deterministic(a in rect(), b in rect()) {
        for c in CONSTRAINTS.iter().take(12) {
            let r1 = eval_relation(c.relation, c.param, &a, &b);
            let r2 = eval_relation(c.relation, c.param, &a, &b);
            prop_assert_eq!(r1, r2);
            prop_assert!(r1.1 > 0);
        }
    }

    /// Scene generation never produces degenerate regions, for any seed.
    #[test]
    fn generator_is_robust_across_seeds(seed in 0u64..5000) {
        let spec = AirportSpec { seed, ..spam::datasets::dc().spec };
        let scene = spam::generate_scene(&spec);
        prop_assert!(scene.len() > 50);
        for r in &scene.regions {
            prop_assert!(r.polygon.area() > 0.5, "region {} area {}", r.id, r.polygon.area());
            prop_assert!(r.intensity >= 0.0 && r.intensity <= 255.0);
            prop_assert!(r.descriptors.elongation >= 1.0);
            prop_assert!(r.descriptors.compactness > 0.0 && r.descriptors.compactness <= 1.0);
        }
    }
}

/// DC and its RTF fragments.
fn dc() -> &'static (Scene, Vec<FragmentHypothesis>) {
    static DC: OnceLock<(Scene, Vec<FragmentHypothesis>)> = OnceLock::new();
    DC.get_or_init(|| {
        let sp = spam::rules::SpamProgram::build();
        let scene = std::sync::Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
        let frags = spam::rtf::run_rtf(&sp, &scene).fragments;
        (
            std::sync::Arc::into_inner(scene).expect("RTF keeps no scene"),
            frags,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The task path's neighbourhood — the grid query's regions looked up
    /// in the region index — is the definition's, a scan of the fragment
    /// table, for every fragment of DC however its regions are numbered
    /// (the fragment table is in id order, never region order), and a
    /// plan's queue is `decompose`'s list at every level: Level 1's, built
    /// through the index, is the one the scan gives.
    #[test]
    fn the_indexed_neighbourhood_is_the_scan_under_any_region_numbering(seed in 0u64..u64::MAX) {
        let (dc, dc_frags) = dc();
        // A seeded shuffle of the region ids (Fisher–Yates on an LCG).
        let n = dc.len();
        let mut new_id: Vec<u32> = (0..n as u32).collect();
        let mut x = seed | 1;
        for i in (1..n).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            new_id.swap(i, (x >> 33) as usize % (i + 1));
        }
        let mut regions: Vec<Region> = dc.regions.clone();
        for r in &dc.regions {
            regions[new_id[r.id as usize] as usize] = Region { id: new_id[r.id as usize], ..r.clone() };
        }
        let scene = Scene::new("DC, renumbered", regions);
        let frags: Vec<FragmentHypothesis> = (dc_frags.iter())
            .map(|f| FragmentHypothesis { region: new_id[f.region as usize], ..f.clone() })
            .collect();
        prop_assert!(frags.windows(2).any(|w| w[0].region > w[1].region), "not region-sorted");

        let index = RegionIndex::new(&scene, &frags);
        let mut pairs = Vec::new();
        for f in &frags {
            let want = neighbourhood(&scene, &frags, f);
            prop_assert_eq!(&index.neighbourhood(&scene, &frags, f), &want, "fragment {}", f.id);
            for c in constraints_for(f.kind) {
                let partners = want.iter().filter(|&&g| frags[g as usize].kind == c.object);
                pairs.extend(partners.map(|&other| LccUnit::Pair { frag: f.id, constraint: c.id, other }));
            }
        }
        let queue = |units: &[LccUnit]| -> Vec<String> { units.iter().map(LccUnit::label).collect() };
        let (sp, scene, frags) = (spam::rules::SpamProgram::build(), Arc::new(scene), Arc::new(frags));
        for level in [Level::L4, Level::L3, Level::L2, Level::L1] {
            let plan = LccPlan::new(&sp, &scene, &frags, level);
            prop_assert_eq!(queue(&plan.units), queue(&decompose(&scene, &frags, level)));
            if level == Level::L1 {
                prop_assert_eq!(queue(&plan.units), queue(&pairs));
            }
        }
    }
}

/// Decomposition invariants hold on a real scene at every level (not a
/// proptest — generation + RTF dominate the cost, one case suffices and is
/// fully deterministic).
#[test]
fn decomposition_partitions_the_work() {
    let sp = spam::rules::SpamProgram::build();
    let scene = std::sync::Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
    let rtf = spam::rtf::run_rtf(&sp, &scene);
    let frags = rtf.fragments;

    // L3: exactly one task per fragment, ids distinct.
    let l3 = decompose(&scene, &frags, Level::L3);
    assert_eq!(l3.len(), frags.len());

    // L2: exactly Σ constraints_for(kind) tasks, and the (frag, constraint)
    // pairs are unique.
    let l2 = decompose(&scene, &frags, Level::L2);
    let expected: usize = frags.iter().map(|f| constraints_for(f.kind).count()).sum();
    assert_eq!(l2.len(), expected);
    let mut pairs: Vec<(u32, u32)> = l2
        .iter()
        .map(|u| match u {
            spam::lcc::LccUnit::ObjectConstraint(f, c) => (*f, *c),
            other => panic!("unexpected unit {other:?}"),
        })
        .collect();
    pairs.sort_unstable();
    let n = pairs.len();
    pairs.dedup();
    assert_eq!(pairs.len(), n, "L2 units must be unique");

    // L1: every pair unit's constraint subject matches the fragment's kind
    // and the partner's kind matches the constraint object.
    let l1 = decompose(&scene, &frags, Level::L1);
    assert!(l1.len() > l2.len());
    for u in &l1 {
        if let spam::lcc::LccUnit::Pair {
            frag,
            constraint,
            other,
        } = u
        {
            let c = &CONSTRAINTS[*constraint as usize];
            assert_eq!(frags[*frag as usize].kind, c.subject);
            assert_eq!(frags[*other as usize].kind, c.object);
            assert_ne!(frag, other);
        } else {
            panic!("unexpected unit {u:?}");
        }
    }

    // L4: one task per kind present, covering all fragments.
    let l4 = decompose(&scene, &frags, Level::L4);
    let kinds: std::collections::BTreeSet<_> = frags.iter().map(|f| f.kind).collect();
    assert_eq!(l4.len(), kinds.len());
}
