//! The decomposition-selection methodology of §4.
//!
//! "In order to choose the right level of decomposition at which to
//! parallelize the SPAM LCC phase, we instrumented the SPAM system to
//! obtain measurements at each level for the number of tasks and their
//! run-time average, standard deviation, and coefficient of variance"
//! (Tables 5–7), plus the Table 8 baseline characterisation.

use crate::trace::lcc_trace;
use multimax_sim::LevelStats;
use spam::fragments::FragmentHypothesis;
use spam::lcc::{run_lcc, run_lcc_profiled, LccPhaseResult, Level};
use spam::phases::MIPS;
use spam::rules::SpamProgram;
use spam::scene::Scene;
use std::sync::Arc;

/// One measured row of Tables 5–7.
#[derive(Clone, Copy, Debug)]
pub struct LevelRowMeasured {
    /// The decomposition level.
    pub level: Level,
    /// Mean / σ / CV / count statistics.
    pub stats: LevelStats,
}

/// One measured row of Table 8.
#[derive(Clone, Copy, Debug)]
pub struct Table8Row {
    /// The decomposition level.
    pub level: Level,
    /// Total time for all tasks (simulated seconds).
    pub total_seconds: f64,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Average time per task.
    pub avg_seconds: f64,
    /// Productions fired.
    pub prods_fired: u64,
    /// RHS actions performed.
    pub rhs_actions: u64,
}

/// Measures the per-level task statistics (one Tables 5–7 block) by
/// actually executing every task at every level and timing it.
pub fn level_rows(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
) -> Vec<LevelRowMeasured> {
    [Level::L4, Level::L3, Level::L2, Level::L1]
        .into_iter()
        .map(|level| {
            let phase = run_lcc(sp, scene, fragments, level);
            let trace = lcc_trace(&phase);
            LevelRowMeasured {
                level,
                stats: LevelStats::of(&trace.tasks),
            }
        })
        .collect()
}

/// Measures one Table 8 row (the BASELINE: a single task process executing
/// the whole queue).
pub fn table8_row(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
) -> Table8Row {
    let phase = run_lcc(sp, scene, fragments, level);
    let total = phase.work.seconds_at(MIPS);
    let n = phase.units.len();
    Table8Row {
        level,
        total_seconds: total,
        tasks: n,
        avg_seconds: if n == 0 { 0.0 } else { total / n as f64 },
        prods_fired: phase.firings,
        rhs_actions: phase.units.iter().map(|u| u.rhs_actions).sum(),
    }
}

/// Runs the LCC phase at `level` with match-level profiling enabled and
/// returns the Table 8 row, the merged per-production/per-node profile
/// (`None` when the phase has no tasks), and the raw phase result (for
/// trace building). The profiled run performs byte-identical
/// work to [`table8_row`]'s — the profiler only reads the deterministic
/// counters — so the row is interchangeable with the unprofiled one.
pub fn profiled_lcc(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
) -> (Table8Row, Option<ops5::MatchProfile>, LccPhaseResult) {
    let (phase, profile) = run_lcc_profiled(sp, scene, fragments, level);
    let total = phase.work.seconds_at(MIPS);
    let n = phase.units.len();
    let row = Table8Row {
        level,
        total_seconds: total,
        tasks: n,
        avg_seconds: if n == 0 { 0.0 } else { total / n as f64 },
        prods_fired: phase.firings,
        rhs_actions: phase.units.iter().map(|u| u.rhs_actions).sum(),
    };
    (row, profile, phase)
}

/// §4 factor 2 — *ratio of tasks to processors*: "at lower task to
/// processor ratios, a large variance in task processing time will have a
/// negative impact on processor utilization ... with higher ratios, the
/// impact is less pronounced." Measures utilisation as a function of the
/// ratio for a given coefficient of variance (synthetic workload, mean 1 s).
pub fn utilization_by_ratio(
    cv: f64,
    ratios: &[f64],
    processors: u32,
    seed: u64,
) -> Vec<(f64, f64)> {
    use multimax_sim::{simulate, SimConfig, TaskSet};
    const REPS: u64 = 24; // average out workload-draw noise, deterministically
    ratios
        .iter()
        .map(|&r| {
            let n = ((r * processors as f64).round() as usize).max(1);
            let mut total = 0.0;
            for k in 0..REPS {
                let ts = TaskSet::lognormal(n, 1.0, cv, seed.wrapping_add(k));
                let mut cfg = SimConfig::encore(processors);
                cfg.dequeue_overhead = 0.0;
                cfg.fork_overhead = 0.0;
                total += simulate(&cfg, &ts.tasks).utilization();
            }
            (r, total / REPS as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spam::rtf::run_rtf;

    fn setup() -> (SpamProgram, Arc<Scene>, Arc<Vec<FragmentHypothesis>>) {
        let sp = SpamProgram::build();
        let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
        let rtf = run_rtf(&sp, &scene);
        let frags = Arc::new(rtf.fragments);
        (sp, scene, frags)
    }

    #[test]
    fn level_statistics_follow_the_papers_structure() {
        let (sp, scene, frags) = setup();
        let rows = level_rows(&sp, &scene, &frags);
        assert_eq!(rows.len(), 4);
        let (l4, l3, l2, l1) = (rows[0].stats, rows[1].stats, rows[2].stats, rows[3].stats);

        // Counts nest: L4 < L3 < L2 < L1 (Figure 4).
        assert!(l4.count < l3.count && l3.count < l2.count && l2.count < l1.count);
        // L4 has a handful of tasks (the paper: 9) — fewer than processors.
        assert!(l4.count <= 10);
        // Granularity decreases monotonically.
        assert!(l4.mean > l3.mean && l3.mean > l2.mean && l2.mean > l1.mean);
        // Level 1 is the most uniform (the paper's CVs: ~0.13-0.16 at L1
        // vs ~0.39-0.49 at the upper levels).
        assert!(l1.cv < l3.cv, "L1 cv {:.2} < L3 cv {:.2}", l1.cv, l3.cv);
        assert!(l1.cv < l2.cv);
        // Levels 2 and 3 have enough tasks to feed 14 processors.
        assert!(l3.count >= 50 && l2.count >= 100);
    }

    #[test]
    fn utilization_grows_with_task_to_processor_ratio() {
        // §4 factor 2, quantified: with CV ≈ 0.5 (the paper's workload),
        // utilisation climbs from poor at ratio ~1 to near-full at ~20.
        let curve = utilization_by_ratio(0.5, &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0], 14, 11);
        for w in curve.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 0.02,
                "utilisation should not fall as the ratio grows: {curve:?}"
            );
        }
        assert!(
            curve[0].1 < 0.85,
            "ratio 1 wastes processors: {:.2}",
            curve[0].1
        );
        assert!(
            curve[5].1 > 0.95,
            "ratio 50 nearly saturates: {:.2}",
            curve[5].1
        );

        // And higher variance hurts more at low ratios (the synchronous-vs-
        // asynchronous argument's quantitative core).
        let calm = utilization_by_ratio(0.1, &[1.5], 14, 11)[0].1;
        let wild = utilization_by_ratio(1.2, &[1.5], 14, 11)[0].1;
        assert!(
            wild < calm,
            "variance must cost utilisation: {wild:.2} vs {calm:.2}"
        );
    }

    #[test]
    fn profiled_row_is_interchangeable_with_plain_row() {
        let (sp, scene, frags) = setup();
        let plain = table8_row(&sp, &scene, &frags, Level::L3);
        let (row, profile, phase) = profiled_lcc(&sp, &scene, &frags, Level::L3);
        assert_eq!(row.tasks, plain.tasks);
        assert_eq!(row.prods_fired, plain.prods_fired);
        assert_eq!(row.rhs_actions, plain.rhs_actions);
        assert!((row.total_seconds - plain.total_seconds).abs() < 1e-12);
        assert_eq!(phase.units.len(), row.tasks);
        // Profiler firings reconcile with the row.
        let profile = profile.expect("the phase has tasks");
        let fired: u64 = profile.productions.iter().map(|x| x.firings).sum();
        assert_eq!(fired, row.prods_fired);
    }

    #[test]
    fn table8_rows_are_consistent() {
        let (sp, scene, frags) = setup();
        let r3 = table8_row(&sp, &scene, &frags, Level::L3);
        let r2 = table8_row(&sp, &scene, &frags, Level::L2);
        assert_eq!(r3.tasks, frags.len());
        assert!(r2.tasks > r3.tasks);
        // Total time is nearly level-independent (§6.1: "there is a small
        // difference in the total execution time between the two levels").
        let rel = (r3.total_seconds - r2.total_seconds).abs() / r3.total_seconds;
        assert!(rel < 0.25, "levels differ by {:.0}%", rel * 100.0);
        assert!((r3.avg_seconds * r3.tasks as f64 - r3.total_seconds).abs() < 1e-6);
        assert!(r3.prods_fired > 0 && r3.rhs_actions > 0);
    }
}
