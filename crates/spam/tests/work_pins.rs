//! The exact counts of the benchmark's inputs, pinned.
//!
//! Every optimisation of the match path promises the same thing: a change
//! to how fast the engine goes, none to what it does. These are the work
//! totals of the LCC phase over SF+DC+MOFF (seed 0) at the two
//! decomposition levels `benchmarks/e2e` runs them at (`coarse_l4`,
//! `level3`), as recorded in `benchmarks/e2e/baseline.md` — one firing
//! more or one join test fewer anywhere in 24 111 firings moves them —
//! and of DC alone at Level 1 (`fine_l1`), where 1 282 tasks of a firing
//! or so each make the per-task paths (reset, load) the whole phase.
//!
//! `shared_test_hits` is pinned beside the work units because the alpha
//! network charges the constant tests of the memories its dispatch table
//! skips in closed form: units and memo hits both have to come out as if
//! every memory of the class had been walked.
//!
//! `instantiations_emitted` / `instantiations_netted` are the evidence for
//! the once-per-firing conflict feed: of the 47 961 instantiations the LCC
//! match finds satisfied, 14 139 are retracted again before the RHS that
//! satisfied them has finished (a `modify` un-blocks a negated element and
//! re-blocks it) and never reach the conflict set; the decomposition moves
//! neither count. At Level 1 a task is a firing or so and nothing nets.

use ops5::{NetStats, WorkCounters};
use spam::datasets::{dc, moff, sf, Dataset};
use spam::lcc::{run_lcc_profiled, Level};
use spam::rules::SpamProgram;
use std::sync::Arc;

/// LCC totals over the three airports at `level`.
fn totals(level: Level) -> (WorkCounters, NetStats, usize) {
    totals_over(&[sf(), dc(), moff()], level)
}

/// LCC totals over `datasets` at `level`.
fn totals_over(datasets: &[Dataset], level: Level) -> (WorkCounters, NetStats, usize) {
    let sp = SpamProgram::build();
    let mut work = WorkCounters::default();
    let mut net = NetStats::default();
    let mut tasks = 0;
    for dataset in datasets {
        let scene = Arc::new(spam::generate_scene(&dataset.spec));
        let frags = Arc::new(spam::rtf::run_rtf(&sp, &scene).fragments);
        let (phase, profile) = run_lcc_profiled(&sp, &scene, &frags, level);
        assert_eq!(phase.work.firings, phase.firings);
        work.add(&phase.work);
        net.merge(&profile.expect("the phase has tasks").net);
        tasks += phase.units.len();
    }
    (work, net, tasks)
}

#[test]
fn level_4_counts_are_exact() {
    let (work, net, tasks) = totals(Level::L4);
    assert_eq!(tasks, 30);
    assert_eq!(work.firings, 24_111);
    assert_eq!(work.match_units, 15_120_426);
    assert_eq!(work.resolve_units, 1_129_310);
    assert_eq!(work.act_units, 3_222_666);
    assert_eq!(work.external_units, 19_429_490);
    assert_eq!(work.wme_adds, 37_859);
    assert_eq!(net.index_probes, 36_873);
    assert_eq!(net.linear_scans, 148_308);
    assert_eq!(net.shared_node_hits, 2_934);
    assert_eq!(net.shared_test_hits, 16_303);
    assert_eq!(net.instantiations_emitted, 47_961);
    assert_eq!(net.instantiations_netted, 14_139);
}

#[test]
fn level_3_counts_are_exact() {
    let (work, net, tasks) = totals(Level::L3);
    assert_eq!(tasks, 630);
    // The decomposition changes who does the work, not the work: the RHS
    // side is Level 4's to the unit.
    assert_eq!(work.firings, 24_111);
    assert_eq!(work.act_units, 3_222_666);
    assert_eq!(work.external_units, 19_429_490);
    assert_eq!(work.match_units, 15_710_932);
    assert_eq!(work.resolve_units, 739_770);
    assert_eq!(work.wme_adds, 78_087);
    assert_eq!(net.index_probes, 31_681);
    assert_eq!(net.linear_scans, 391_922);
    assert_eq!(net.shared_node_hits, 4_734);
    assert_eq!(net.shared_test_hits, 18_556);
    assert_eq!(net.instantiations_emitted, 47_961);
    assert_eq!(net.instantiations_netted, 14_139);
}

#[test]
fn level_1_counts_on_dc_are_exact() {
    let (work, net, tasks) = totals_over(&[dc()], Level::L1);
    assert_eq!(tasks, 1_282);
    assert_eq!(work.firings, 1_536);
    assert_eq!(work.match_units, 1_069_938);
    assert_eq!(work.resolve_units, 43_540);
    assert_eq!(work.act_units, 256_524);
    assert_eq!(work.external_units, 1_399_440);
    assert_eq!(work.wme_adds, 8_454);
    assert_eq!(net.index_probes, 254);
    assert_eq!(net.linear_scans, 154_522);
    assert_eq!(net.shared_node_hits, 3_846);
    assert_eq!(net.shared_test_hits, 4_699);
    assert_eq!(net.instantiations_emitted, 1_536);
    assert_eq!(net.instantiations_netted, 0);
}
