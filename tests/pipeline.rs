//! Cross-crate integration: the full SPAM pipeline on every dataset must
//! reproduce the paper's workload shape (Tables 1–3).

use spam::phases::run_pipeline;
use spam::rules::SpamProgram;
use std::sync::OnceLock;

/// The one rule base every test here interprets with.
fn program() -> &'static SpamProgram {
    static PROGRAM: OnceLock<SpamProgram> = OnceLock::new();
    PROGRAM.get_or_init(SpamProgram::build)
}

#[test]
fn all_three_airports_interpret_with_the_papers_shape() {
    for dataset in spam::datasets::all() {
        let name = dataset.spec.name;
        let paper_rtf_hyps = dataset.paper.hypotheses_rtf;
        let r = run_pipeline(program(), &dataset);

        // One scene model, several functional areas.
        assert_eq!(r.model.models, 1, "{name}: one scene model");
        // The model explains a substantial share of the segmentation and
        // its area windows are mostly compatible (low overlap).
        assert!(
            r.model.metrics.coverage > 0.25,
            "{name}: model coverage {:.2}",
            r.model.metrics.coverage
        );
        assert!(
            r.model.metrics.window_overlap < 0.6,
            "{name}: window overlap {:.2}",
            r.model.metrics.window_overlap
        );
        assert!(
            r.fa.areas.len() >= 5,
            "{name}: expected several functional areas, got {}",
            r.fa.areas.len()
        );

        // LCC dominates time and firings (the premise of the whole paper).
        let [rtf, lcc, fa, model] = r.stats;
        assert!(lcc.seconds > rtf.seconds, "{name}: LCC time > RTF time");
        assert!(lcc.seconds > fa.seconds, "{name}: LCC time > FA time");
        assert!(lcc.seconds > model.seconds, "{name}: LCC time > MODEL time");
        assert!(
            lcc.firings > rtf.firings + fa.firings + model.firings,
            "{name}: LCC fires more than all other phases combined"
        );

        // Match fractions sit in the calibrated bands: RTF ≈ 0.6 (§6.5),
        // LCC 0.30–0.50 (§1).
        assert!(
            (0.50..0.80).contains(&rtf.match_fraction),
            "{name}: RTF match fraction {:.2}",
            rtf.match_fraction
        );
        assert!(
            (0.25..0.55).contains(&lcc.match_fraction),
            "{name}: LCC match fraction {:.2}",
            lcc.match_fraction
        );

        // Hypothesis counts land near the paper's (where readable).
        if let Some(p) = paper_rtf_hyps {
            let got = r.rtf.fragments.len() as f64;
            let want = p as f64;
            assert!(
                (got - want).abs() / want < 0.45,
                "{name}: {got} RTF hypotheses vs paper's {want}"
            );
        }

        // The interpretation is grounded: supported hypotheses mostly agree
        // with the generator's ground truth.
        let mut right = 0u32;
        let mut wrong = 0u32;
        for f in r.fragments.iter().filter(|f| f.support >= 3) {
            match r.scene.region(f.region).truth {
                Some(t) if t == f.kind => right += 1,
                Some(_) => wrong += 1,
                None => {}
            }
        }
        // "Wrong" includes deliberate classify/subclassify ambiguity (a
        // runway region also hypothesised as taxiway gains support from the
        // same real structure; FA/MODEL disambiguate later), so majority
        // agreement is the right bar here.
        assert!(
            right > wrong,
            "{name}: supported hypotheses should mostly match truth ({right} vs {wrong})"
        );
    }
}

#[test]
fn pipeline_is_deterministic_across_runs() {
    let a = run_pipeline(program(), &spam::datasets::dc());
    let b = run_pipeline(program(), &spam::datasets::dc());
    assert_eq!(a.total_firings(), b.total_firings());
    assert_eq!(a.rtf.fragments, b.rtf.fragments);
    assert_eq!(a.lcc.consistents.len(), b.lcc.consistents.len());
    assert_eq!(a.fa.areas, b.fa.areas);
    assert_eq!(a.model.score, b.model.score);
    assert!((a.total_seconds() - b.total_seconds()).abs() < 1e-9);
}

#[test]
fn suburban_domain_interprets_with_the_same_architecture() {
    // The paper's second task area (§2.2): same rule base, same phases,
    // different scene-type knowledge.
    use spam::fragments::FragmentKind;
    let scene = std::sync::Arc::new(spam::generate_suburb(&spam::generate::SuburbSpec::demo()));
    let r = spam::run_pipeline_scene(program(), std::sync::Arc::clone(&scene));
    assert_eq!(r.model.models, 1);
    // Every true street must be hypothesised as a street and end up
    // well-supported (streets anchor the suburban constraint web).
    for region in &scene.regions {
        if region.truth == Some(FragmentKind::Street) {
            let f = r
                .fragments
                .iter()
                .find(|f| f.region == region.id && f.kind == FragmentKind::Street)
                .unwrap_or_else(|| panic!("street region {} missed", region.id));
            assert!(f.support >= 3, "street support {}", f.support);
        }
    }
    // House lots dominate the functional areas.
    let lots = r.fa.areas.iter().filter(|a| a.kind == "house-lot").count();
    assert!(lots >= 10, "expected many house lots, got {lots}");
    // LCC still dominates the profile.
    assert!(r.stats[1].seconds > r.stats[0].seconds);
    // No airport-class hypotheses leak into a suburban scene.
    assert!(r
        .fragments
        .iter()
        .all(|f| f.kind >= FragmentKind::House || f.kind <= FragmentKind::FuelTank));
    assert!(!r
        .fragments
        .iter()
        .any(|f| f.kind == FragmentKind::Runway || f.kind == FragmentKind::TerminalBuilding));
}
