//! Cross-crate integration: every experiment's headline claim, asserted.
//!
//! These are the shape checks the bench binaries print; here they gate the
//! test suite, so a regression in any subsystem that would bend a figure
//! fails loudly.

use paraops5::costmodel::{amdahl_limit, match_speedup, match_speedup_curve, CostModel};
use paraops5::suites::{rubik, suite_engine, tourney, weaver};
use spam::lcc::Level;
use spam::rtf::{merge_rtf_batches, rtf_task_batches, RtfPhase, RtfResult};
use spam::task::{drain, TaskProcess};
use spam_psm::baseline::port_factor;
use spam_psm::combined::combined_cell;
use spam_psm::trace::{lcc_trace, rtf_trace};
use tlp_bench::Prepared;

#[test]
fn figure_3_rubik_weaver_beat_tourney() {
    let model = CostModel::default();
    let mut speeds = Vec::new();
    for s in [rubik(), weaver(), tourney()] {
        let mut e = suite_engine(&s);
        assert!(e.run(s.firings + 10).quiescent());
        speeds.push(match_speedup(&e.take_cycle_log(), 11, &model));
    }
    assert!(speeds[0] > speeds[1] && speeds[1] > speeds[2]);
    assert!(speeds[0] > 5.0, "rubik {:.2}", speeds[0]);
    assert!(speeds[2] < 3.0, "tourney {:.2}", speeds[2]);
}

#[test]
fn figure_7_match_parallelism_saturates_early_near_its_limit() {
    let p = Prepared::new(spam::datasets::moff());
    let trace = lcc_trace(&p.lcc(Level::L3));
    let model = CostModel::default();
    let curve = match_speedup_curve(&trace.cycle_log, 13, &model);
    let limit = amdahl_limit(&trace.cycle_log);
    let peak = curve
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    assert!(
        (1.2..2.2).contains(&limit),
        "LCC asymptote should sit near the paper's 1.36-1.95 band: {limit:.2}"
    );
    assert!(
        peak.0 <= 8,
        "peaks by ~6 match processes (paper), got {}",
        peak.0
    );
    assert!(
        peak.1 / limit > 0.75,
        "achieves most of the asymptote: {:.2} of {limit:.2}",
        peak.1
    );
    // Far below the task-level speed-ups at the same processor counts.
    assert!(peak.1 < 3.0);
}

#[test]
fn figure_8_rtf_profile() {
    let p = Prepared::new(spam::datasets::dc());
    let batch = (p.scene.len() / 70).max(1);
    let batches = rtf_task_batches(&p.scene, batch);
    let (sp, scene) = (p.sp.clone(), std::sync::Arc::clone(&p.scene));
    let phase = RtfPhase { sp, scene, batches };
    let results: Vec<RtfResult> = (drain(&mut TaskProcess::default(), &phase, false))
        .map(|(r, _)| r)
        .collect();
    let merged = merge_rtf_batches(results.iter().map(|r| Some(r.fragments.clone())));
    assert!(!merged.is_empty());
    let trace = rtf_trace(&results);
    // 60-100ish tasks, low CV (paper: ~0.3).
    assert!(
        (40..=160).contains(&trace.tasks.len()),
        "RTF task count {}",
        trace.tasks.len()
    );
    assert!(trace.tasks.coeff_of_variance() < 0.5);
    // Match-parallelism limited near 2 (paper: ≈2.5, asymptote ≈2.3).
    let limit = amdahl_limit(&trace.cycle_log);
    assert!((1.5..2.8).contains(&limit), "RTF asymptote {limit:.2}");
    // TLP still near-linear.
    let curve = spam_psm::tlp::simulated_tlp_curve(&trace, 14);
    assert!(curve[13].1 > 9.0, "RTF TLP at 14: {:.2}", curve[13].1);
}

#[test]
fn table_9_multiplicativity_on_sf_level_2() {
    let p = Prepared::new(spam::datasets::sf());
    let trace = lcc_trace(&p.lcc(Level::L2));
    let model = CostModel::default();
    let cell = combined_cell(&trace, 4, 2, &model);
    assert!(
        (cell.achieved - cell.predicted).abs() / cell.predicted < 0.1,
        "(Task4, Match2): achieved {:.2} vs predicted {:.2}",
        cell.achieved,
        cell.predicted
    );
    assert!(
        cell.achieved > 4.0,
        "combined beats TLP alone: {:.2}",
        cell.achieved
    );
    assert_eq!(cell.processors, 13);
}

#[test]
fn figure_9_translational_loss_band() {
    use multimax_sim::{simulate, Machine, SimConfig, SvmConfig};
    let p = Prepared::new(spam::datasets::moff());
    let trace = lcc_trace(&p.lcc(Level::L3));
    let big = |n: u32| SimConfig {
        machine: Machine {
            local: multimax_sim::ClusterConfig {
                processors: 32,
                reserved: 2,
            },
            remote: None,
        },
        task_processes: n,
        ..SimConfig::encore(1)
    };
    let svm = |n: u32| SimConfig {
        machine: Machine::dual_encore_svm(),
        task_processes: n,
        svm: SvmConfig::tuned(),
        ..SimConfig::encore(1)
    };
    let base = simulate(&big(1), &trace.tasks.tasks).makespan;
    let s20_svm = base / simulate(&svm(20), &trace.tasks.tasks).makespan;
    let s20_pure = base / simulate(&big(20), &trace.tasks.tasks).makespan;
    let s13 = base / simulate(&svm(13), &trace.tasks.tasks).makespan;
    // Remote processors help…
    assert!(
        s20_svm > s13 + 0.5,
        "remote processors must help: {s20_svm:.2} vs {s13:.2}"
    );
    // …but at a visible translational cost (paper ≈ 1.5 processors).
    let s19_pure = base / simulate(&big(19), &trace.tasks.tasks).makespan;
    assert!(s20_svm < s20_pure, "SVM below pure TLP");
    assert!(
        s20_svm < s19_pure,
        "loss of at least ~1 processor: svm(20)={s20_svm:.2} pure(19)={s19_pure:.2}"
    );
}

#[test]
fn baseline_port_factor_in_band() {
    let p = Prepared::new(spam::datasets::moff());
    let pf = port_factor(&p.sp, &p.scene, &p.fragments, 12);
    let f = pf.factor();
    assert!(
        (5.0..40.0).contains(&f),
        "port factor {f:.1} should be near the paper's 10-20x"
    );
}

#[test]
fn multiplied_sources_exceed_best_single_source() {
    // §1: "task-level parallelism ... will multiply with the speed-ups
    // obtained from match parallelism" — combined > either alone.
    let p = Prepared::new(spam::datasets::dc());
    let trace = lcc_trace(&p.lcc(Level::L2));
    let model = CostModel::default();
    let tlp = combined_cell(&trace, 4, 0, &model).achieved;
    let mat = combined_cell(&trace, 1, 3, &model).achieved;
    let both = combined_cell(&trace, 4, 3, &model).achieved;
    assert!(both > tlp && both > mat);
    assert!(both > tlp * mat * 0.85, "roughly multiplicative");
}
