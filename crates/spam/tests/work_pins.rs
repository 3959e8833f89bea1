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
//!
//! `retractions_delivered` counts the other way out of the conflict set:
//! the retractions the Rete writes of instantiations a drain handed over,
//! each naming its instantiation by the token's slot. With the pins above
//! it splits the set's traffic exactly. An instantiation the set was given
//! is fired or not, and retracted or not, so the 33 822 insertions
//! (47 961 − 14 139) are A (fired, then retracted) + B (retracted while
//! ranked) + C (fired, never retracted) + D (never either), the 24 111
//! firings are A + C, and the 33 822 retractions are A + B. Retractions
//! equal insertions, so C = D = 0: every firing's instantiation is
//! retracted later, 24 111 retractions name one `select` has already taken
//! (the set's no-op), and 9 711 remove a ranked one. At Level 1 the 1 536
//! retractions equal the 1 536 firings: each names a fired instantiation.
//!
//! `fingerprint_skips` counts the candidates a right-index probe retrieved
//! and a fingerprint of their node's other equality keys ruled out: at
//! Levels 4 and 3 they are the 116 652 that fail `lcc-gen-pair`'s and
//! `lcc-gen-check`'s negated second key, each charged its join tests as if
//! evaluated, so no count beside it moves; at Level 1 no probe retrieves
//! one.
//!
//! The `NetStats` pins above read a profiled run. The ParaOPS5 model reads
//! Σ `match_chunks` of the cycle logs, which the benchmark's unprofiled
//! `seq` arm produces, so that is pinned too, with the unprofiled phase held
//! equal to the profiled one; and the serial RTF / FA / MODEL phases, whose
//! tasks meet the same rule base, are pinned in work and chunks. A right
//! activation that cannot pair is charged in closed form, as if made: every
//! one of these numbers has to come out as if it had been.

use ops5::rete::alpha::AlphaMemories;
use ops5::{CycleStats, NetStats, WorkCounters};
use spam::datasets::{dc, moff, sf, Dataset};
use spam::fa::run_fa;
use spam::lcc::{run_lcc, run_lcc_profiled, LccPhaseResult, Level};
use spam::model::run_model;
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
    assert_eq!(net.fingerprint_skips, 116_652);
    assert_eq!(net.retractions_delivered, 33_822);
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
    assert_eq!(net.fingerprint_skips, 116_652);
    assert_eq!(net.retractions_delivered, 33_822);
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
    assert_eq!(net.fingerprint_skips, 0);
    assert_eq!(net.retractions_delivered, 1_536);
}

/// Σ `match_chunks` over cycle logs: the ParaOPS5 model's input, one chunk
/// per alpha classification and per beta activation.
fn chunks<'a>(logs: impl IntoIterator<Item = &'a Vec<CycleStats>>) -> u64 {
    logs.into_iter()
        .flatten()
        .map(|c| u64::from(c.match_chunks))
        .sum()
}

/// The LCC phase over `datasets` at `level` twice: profiled, as the pins
/// above read it, and unprofiled, as the benchmark's `seq` arm runs it. The
/// two must agree in work and in Σ `match_chunks`; returns those and the
/// profiled run's statistics.
fn lcc_both_ways(datasets: &[Dataset], level: Level) -> (WorkCounters, u64, NetStats) {
    let sp = SpamProgram::build();
    let (mut work, mut net, mut sum) = (WorkCounters::default(), NetStats::default(), 0);
    for dataset in datasets {
        let scene = Arc::new(spam::generate_scene(&dataset.spec));
        let frags = Arc::new(spam::rtf::run_rtf(&sp, &scene).fragments);
        let (profiled, profile) = run_lcc_profiled(&sp, &scene, &frags, level);
        let plain = run_lcc(&sp, &scene, &frags, level);
        let logs = |phase: &LccPhaseResult| chunks(phase.units.iter().map(|u| &u.cycle_log));
        assert_eq!(plain.work, profiled.work, "{} {level:?}", dataset.spec.name);
        assert_eq!(
            logs(&plain),
            logs(&profiled),
            "{} {level:?}",
            dataset.spec.name
        );
        work.add(&plain.work);
        net.merge(&profile.expect("the phase has tasks").net);
        sum += logs(&plain);
    }
    (work, sum, net)
}

#[test]
fn lcc_match_chunks_are_exact_and_unprofiled_runs_equal_profiled_ones() {
    let all = [sf(), dc(), moff()];
    let (work, sum, _) = lcc_both_ways(&all, Level::L4);
    assert_eq!((work.match_units, sum), (15_120_426, 286_835));
    let (work, sum, _) = lcc_both_ways(&all, Level::L3);
    assert_eq!((work.match_units, sum), (15_710_932, 566_085));
    let (work, sum, _) = lcc_both_ways(&[dc()], Level::L1);
    assert_eq!((work.match_units, sum), (1_069_938, 173_946));
}

/// SPAM's phases gate every rule on `(control ^phase X)`, so most joins a
/// task's WMEs reach belong to another phase's rules and have no token to
/// pair with. Those right activations are charged as if made and not made;
/// the count says how many there are, so the null path cannot silently
/// shrink back into visits. (A task's statistics include its base's, as a
/// rollback restores them: the Level-3 bases count once per task here.)
#[test]
fn null_right_activations_are_counted() {
    let (_, _, net) = lcc_both_ways(&[dc()], Level::L1);
    assert_eq!(net.null_right_activations, 82_428);
    let (_, _, net) = lcc_both_ways(&[sf(), dc(), moff()], Level::L3);
    assert_eq!(net.null_right_activations, 334_782);
}

/// An alpha memory's hash index is built by the first join that probes it
/// and kept up only while the memory holds anything: the WMEs an LCC phase
/// puts into indexes, outside the work model, are that upkeep, pinned so it
/// cannot grow back unnoticed. Indexes kept up from the first WME on took
/// 15 497 (DC Level 1) and 75 815 (SF+DC+MOFF Level 3), for the 254 and
/// 31 681 probes pinned above.
#[test]
fn alpha_index_insertions_are_counted() {
    let sp = SpamProgram::build();
    let insertions = |datasets: &[Dataset], level: Level| {
        let mut n = 0;
        for dataset in datasets {
            let scene = Arc::new(spam::generate_scene(&dataset.spec));
            let frags = Arc::new(spam::rtf::run_rtf(&sp, &scene).fragments);
            let before = AlphaMemories::index_insertions_on_this_thread();
            run_lcc(&sp, &scene, &frags, level);
            n += AlphaMemories::index_insertions_on_this_thread() - before;
        }
        n
    };
    assert_eq!(insertions(&[dc()], Level::L1), 762);
    assert_eq!(insertions(&[sf(), dc(), moff()], Level::L3), 25_454);
}

/// The serial phases around LCC on the same inputs: RTF over the whole
/// scene, FA and MODEL over what a Level-3 LCC phase leaves. Their work and
/// Σ `match_chunks`, summed over SF+DC+MOFF.
#[test]
fn rtf_fa_and_model_counts_are_exact() {
    let sp = SpamProgram::build();
    let mut got = [(WorkCounters::default(), 0); 3];
    for dataset in [sf(), dc(), moff()] {
        let scene = Arc::new(spam::generate_scene(&dataset.spec));
        let rtf = spam::rtf::run_rtf(&sp, &scene);
        let frags = Arc::new(rtf.fragments.clone());
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let supported = Arc::new(lcc.fragments.clone());
        let fa = run_fa(&sp, &scene, &supported, &lcc.consistents);
        let model = run_model(&sp, &scene, &supported, &fa.areas, &fa.members);
        let phases = [
            (&rtf.work, &rtf.cycle_log),
            (&fa.work, &fa.cycle_log),
            (&model.work, &model.cycle_log),
        ];
        for ((work, sum), (w, log)) in got.iter_mut().zip(phases) {
            work.add(w);
            *sum += chunks([log]);
        }
    }
    let [rtf, fa, model] = got;
    let rtf_work = WorkCounters {
        match_units: 2_857_268,
        resolve_units: 74_900,
        act_units: 220_176,
        external_units: 1_992_240,
        firings: 1_163,
        rhs_actions: 2_323,
        wme_adds: 1_735,
        wme_removes: 533,
    };
    assert_eq!(rtf, (rtf_work, 29_531));
    let fa_work = WorkCounters {
        match_units: 579_850,
        resolve_units: 15_810,
        act_units: 71_418,
        external_units: 404_400,
        firings: 318,
        rhs_actions: 853,
        wme_adds: 2_546,
        wme_removes: 450,
    };
    assert_eq!(fa, (fa_work, 47_885));
    let model_work = WorkCounters {
        match_units: 53_541,
        resolve_units: 1_660,
        act_units: 12_924,
        external_units: 3_504_500,
        firings: 49,
        rhs_actions: 135,
        wme_adds: 208,
        wme_removes: 89,
    };
    assert_eq!(model, (model_work, 691));
}
