//! Cross-crate integration: SPAM/PSM task-level parallelism — real threads
//! against sequential ground truth, and the simulated Encore sweeps.

use spam::lcc::{run_lcc, Level};
use spam::rtf::run_rtf;
use spam::rules::SpamProgram;
use spam_psm::exec::{ExecConfig, PhaseRun};
use spam_psm::tlp::{run_parallel_lcc, simulated_tlp_curve};
use spam_psm::trace::lcc_trace;
use std::sync::Arc;

fn prepared(
    d: spam::datasets::Dataset,
) -> (
    SpamProgram,
    Arc<spam::scene::Scene>,
    Arc<Vec<spam::fragments::FragmentHypothesis>>,
) {
    let sp = SpamProgram::build();
    let scene = Arc::new(spam::generate_scene(&d.spec));
    let rtf = run_rtf(&sp, &scene);
    let frags = Arc::new(rtf.fragments);
    (sp, scene, frags)
}

#[test]
fn threaded_psm_equals_sequential_on_both_chosen_levels() {
    let (sp, scene, frags) = prepared(spam::datasets::dc());
    for level in [Level::L3, Level::L2] {
        let seq = run_lcc(&sp, &scene, &frags, level);
        let how = PhaseRun::new(ExecConfig::central_queue(3));
        let (par, _) = run_parallel_lcc(&sp, &scene, &frags, level, &how).unwrap();
        assert_eq!(seq.firings, par.firings, "{level:?}");
        let key = |c: &spam::lcc::ConsistentRec| (c.a, c.b, c.rel.name().to_owned());
        let mut s: Vec<_> = seq.consistents.iter().map(key).collect();
        let mut p: Vec<_> = par.consistents.iter().map(key).collect();
        s.sort();
        p.sort();
        assert_eq!(s, p, "{level:?}: consistency sets must match");
        assert_eq!(
            seq.fragments.iter().map(|f| f.support).collect::<Vec<_>>(),
            par.fragments.iter().map(|f| f.support).collect::<Vec<_>>(),
            "{level:?}: supports must match"
        );
    }
}

#[test]
fn figure_6_shape_on_the_largest_dataset() {
    // SF is the paper's headline dataset: near-linear to >11x at Level 3
    // and Level 2 consistently above Level 3.
    let (sp, scene, frags) = prepared(spam::datasets::sf());
    let l3 = lcc_trace(&run_lcc(&sp, &scene, &frags, Level::L3));
    let l2 = lcc_trace(&run_lcc(&sp, &scene, &frags, Level::L2));
    let c3 = simulated_tlp_curve(&l3, 14);
    let c2 = simulated_tlp_curve(&l2, 14);
    assert!(
        c3[13].1 > 11.0,
        "SF Level 3 at 14 processes: {:.2} (paper 11.90)",
        c3[13].1
    );
    assert!(
        c2[13].1 > 12.0,
        "SF Level 2 at 14 processes: {:.2} (paper 12.58)",
        c2[13].1
    );
    // Level 2 consistently at or above Level 3 (§6.2).
    for (a, b) in c3.iter().zip(&c2) {
        assert!(b.1 >= a.1 * 0.97, "Level 2 below Level 3 at {}", a.0);
    }
    // Near-linearity: every step up to 10 processes gains ≥ 70 % of a
    // processor.
    for w in c3.windows(2).take(9) {
        assert!(w[1].1 - w[0].1 > 0.7, "non-linear step at {}", w[1].0);
    }
}

#[test]
fn total_work_is_independent_of_decomposition_and_schedule() {
    let (sp, scene, frags) = prepared(spam::datasets::dc());
    let l3 = run_lcc(&sp, &scene, &frags, Level::L3);
    let how = PhaseRun::new(ExecConfig::central_queue(2));
    let (par, _) = run_parallel_lcc(&sp, &scene, &frags, Level::L3, &how).unwrap();
    assert_eq!(l3.work, par.work);
    // And the simulator conserves it.
    let trace = lcc_trace(&l3);
    let r1 = multimax_sim::simulate(&multimax_sim::SimConfig::encore(1), &trace.tasks.tasks);
    let r14 = multimax_sim::simulate(&multimax_sim::SimConfig::encore(14), &trace.tasks.tasks);
    assert!((r1.total_work - r14.total_work).abs() < 1e-9);
}
