//! Crash-recovery scenarios, end to end through the checkpointed LCC phase
//! (`spam_psm::run_parallel_lcc` with `PhaseRun::checkpoint` set) on DC at
//! Level 3: a fault-free checkpointed run, a mid-cycle kill, a torn and an
//! intact WAL with no checkpoint, a kill inside the checkpoint-store lock,
//! the seeded chaos schedule on both placements, and what recovery tells the
//! live registry and the flight recorder. Every scenario must return the fault-free phase,
//! every unit whole (`==`, cycle log included). The same guarantee per task
//! of every phase is `recovery_differential.rs`.

use spam::fragments::FragmentHypothesis;
use spam::lcc::{run_lcc, LccPhaseResult, Level};
use spam::rules::SpamProgram;
use spam::scene::Scene;
use spam_psm::exec::{ExecConfig, PhaseRun};
use spam_psm::{run_parallel_lcc, CheckpointConfig, RecoveryReport};
use std::sync::Arc;
use std::time::Duration;
use tlp_fault::{FaultPlan, SupervisorConfig};
use tlp_obs::{Category, Live, ObsLevel, Recorder, SloMonitor};

/// DC's fault-free LCC phase at Level 3 and its longest unit — the
/// victim of most scenarios, killed one cycle before its end so the kill
/// lands well past several checkpoints.
struct Fixture {
    sp: SpamProgram,
    scene: Arc<Scene>,
    frags: Arc<Vec<FragmentHypothesis>>,
    seq: LccPhaseResult,
    victim: usize,
    span: u64,
}

fn fixture() -> Fixture {
    let sp = SpamProgram::build();
    let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
    let frags = Arc::new(spam::rtf::run_rtf(&sp, &scene).fragments);
    let seq = run_lcc(&sp, &scene, &frags, Level::L3);
    let spans = seq.units.iter().map(|u| u.firings).enumerate();
    let (victim, span) = spans.max_by_key(|&(_, f)| f).unwrap();
    assert!(span >= 8, "need a long unit for these scenarios: {span}");
    Fixture {
        sp,
        scene,
        frags,
        seq,
        victim,
        span,
    }
}

impl Fixture {
    fn task_cycles(&self) -> Vec<u64> {
        self.seq.units.iter().map(|u| u.firings).collect()
    }

    /// The phase as `how` says, checkpointing every `interval` cycles: no
    /// unit may be lost, and the phase must equal the fault-free one —
    /// every unit whole, cycle log included.
    fn recover(&self, how: &PhaseRun<'_>, interval: u64) -> (LccPhaseResult, RecoveryReport) {
        let how = PhaseRun {
            checkpoint: Some(CheckpointConfig::every(interval)),
            ..how.clone()
        };
        let (par, measured) =
            run_parallel_lcc(&self.sp, &self.scene, &self.frags, Level::L3, &how).unwrap();
        let recovery = measured.recovery;
        let plan = how.plan.describe();
        assert_eq!(
            par.report.dead_letters().len(),
            0,
            "no unit may be lost\n{plan}"
        );
        assert_eq!(par.units, self.seq.units, "{plan}");
        assert_eq!(par.consistents, self.seq.consistents, "{plan}");
        assert_eq!(par.fragments, self.seq.fragments, "supports\n{plan}");
        assert_eq!((par.work, par.firings), (self.seq.work, self.seq.firings));
        (par, recovery)
    }
}

/// The central queue at `workers` threads under `plan`, three quick
/// retries a task.
fn central(workers: usize, plan: FaultPlan) -> PhaseRun<'static> {
    let cfg = SupervisorConfig::default()
        .with_retries(3)
        .with_backoff(Duration::from_millis(1));
    PhaseRun {
        cfg,
        plan,
        ..PhaseRun::new(ExecConfig::central_queue(workers))
    }
}

#[test]
fn checkpointed_fault_free_run_equals_sequential() {
    let (par, recovery) = fixture().recover(&central(3, FaultPlan::none()), 4);
    assert!(par.report.is_clean());
    assert_eq!(recovery.recovered_tasks(), 0);
}

#[test]
fn mid_cycle_kill_resumes_from_checkpoint_with_fewer_cycles() {
    let fx = fixture();
    let plan = FaultPlan::seeded(5).with_cycle_kill(fx.victim, 0, fx.span - 1);
    let (_, recovery) = fx.recover(&central(3, plan.clone()), 2);
    // The victim recovered from a checkpoint, replaying strictly fewer
    // cycles than a from-scratch retry would have.
    assert_eq!(recovery.recovered_tasks(), 1);
    let info = &recovery.recoveries[0];
    assert_eq!(info.task, fx.victim);
    assert!(info.recovered_from_cycle.is_some(), "{info:?}");
    assert!(info.cycles_saved > 0, "{info:?}");
    assert!(
        info.cycles_replayed < fx.span,
        "resume must replay fewer than the full {} cycles: {info:?}",
        fx.span
    );
    assert_eq!(info.cycles_saved + info.cycles_replayed, fx.span);
    assert_eq!(recovery.check(&plan, &fx.task_cycles(), 2), Ok(fx.span));
}

#[test]
fn live_recoverable_runner_publishes_recovery_series() {
    use tlp_obs::{Health, LiveValue, SloConfig};
    let fx = fixture();
    let plan = FaultPlan::seeded(11).with_cycle_kill(fx.victim, 0, fx.span - 1);
    let live = Live::new(8);
    let slo = Arc::new(SloMonitor::new(SloConfig::default(), live.handle()));
    let mut how = central(3, plan);
    how.obs.live = Arc::clone(&live);
    how.obs.slo = Some(Arc::clone(&slo));
    let (_, recovery) = fx.recover(&how, 2);
    assert_eq!(recovery.recovered_tasks(), 1);
    let snap = live.snapshot();
    match snap.series.get("spam_live_recoveries") {
        Some(LiveValue::Counter { total, .. }) => assert_eq!(*total, 1),
        other => panic!("recoveries counter missing: {other:?}"),
    }
    match snap.series.get("spam_live_recovery_latency_seconds") {
        Some(LiveValue::Histogram(h)) => assert!(h.count() >= 1),
        other => panic!("recovery latency histogram missing: {other:?}"),
    }
    // The supervisor's retry of the killed attempt is also visible.
    match snap.series.get("spam_live_task_retries") {
        Some(LiveValue::Counter { total, .. }) => assert_eq!(*total, 1),
        other => panic!("retry counter missing: {other:?}"),
    }
    // One crash absorbed by recovery must never read as degraded.
    assert_ne!(slo.health(), Health::Degraded);
}

#[test]
fn recovery_emits_flight_recorder_spans() {
    let fx = fixture();
    let plan = FaultPlan::seeded(6).with_cycle_kill(fx.victim, 0, fx.span - 1);
    let rec = Recorder::new(ObsLevel::Full);
    let mut how = central(2, plan);
    how.obs.rec = Arc::clone(&rec);
    fx.recover(&how, 2);
    let events = rec.events();
    let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"checkpoint.save"), "{names:?}");
    assert!(names.contains(&"recover.restore"), "{names:?}");
    assert!(names.contains(&"recover.complete"), "{names:?}");
    assert!(events
        .iter()
        .any(|e| e.cat == Category::Recovery && e.name == "recover.restore"));
}

#[test]
fn torn_wal_without_checkpoint_falls_back_to_scratch() {
    // Kill at cycle 1 with checkpointing effectively disabled: the
    // retry finds only a WAL — and a torn one at that.
    let plan = FaultPlan::seeded(7)
        .with_cycle_kill(0, 0, 1)
        .with_torn_log(0, 5);
    let (_, recovery) = fixture().recover(&central(2, plan), 1_000_000);
    assert_eq!(recovery.recovered_tasks(), 1);
    let info = &recovery.recoveries[0];
    assert_eq!(info.recovered_from_cycle, None);
    assert_eq!(info.cycles_saved, 0);
    assert_eq!(
        info.wal_records_replayed, 0,
        "a torn log with no checkpoint must be discarded, not replayed"
    );
}

#[test]
fn intact_wal_without_checkpoint_rebuilds_from_the_log() {
    // Checkpointing disabled outright: the WAL is all a retry can find.
    let plan = FaultPlan::seeded(8).with_cycle_kill(1, 0, 1);
    let (_, recovery) = fixture().recover(&central(2, plan), 0);
    assert_eq!(recovery.recovered_tasks(), 1);
    let info = &recovery.recoveries[0];
    assert_eq!(info.recovered_from_cycle, None);
    assert!(
        info.wal_records_replayed > 0,
        "the intact WAL must drive the rebuild: {info:?}"
    );
}

#[test]
fn hold_kill_poisons_the_store_but_the_phase_still_completes() {
    let fx = fixture();
    // Attempt 0 dies mid-cycle; attempt 1 dies at its first checkpoint
    // *while holding the store lock*; attempt 2 must recover from the
    // checkpoint that hold-kill still managed to save.
    let plan = FaultPlan::seeded(9)
        .with_cycle_kill(fx.victim, 0, fx.span - 1)
        .with_checkpoint_hold_kill(fx.victim, 1);
    let (par, recovery) = fx.recover(&central(2, plan), 2);
    assert_eq!(recovery.recovered_tasks(), 1);
    let info = &recovery.recoveries[0];
    assert_eq!(info.attempt, 2, "two crashes, third execution succeeds");
    assert!(info.recovered_from_cycle.is_some());
    assert_eq!(par.report.outcomes[fx.victim].attempts, 3);
}

#[test]
fn chaos_schedule_with_three_kills_loses_no_scene_results() {
    // The module-level chaos acceptance scenario (the CI job and
    // `spamctl chaos` run bigger variants): three distinct victims
    // killed mid-cycle, one torn log, equal results, and strictly
    // fewer replayed cycles than from-scratch retries would cost.
    let fx = fixture();
    let (task_cycles, interval) = (fx.task_cycles(), 2);
    let plan = tlp_fault::chaos_schedule(42, 3, &task_cycles, interval);
    let victims = (0..task_cycles.len()).filter(|&t| plan.cycle_kill(t, 0).is_some());
    assert_eq!(victims.count(), 3, "{}", plan.describe());
    // On both placements: recovery is the task closure's business, not
    // the queue's.
    let placements = [
        ("central queue", ExecConfig::central_queue(3)),
        ("chunked deques", ExecConfig::new(3)),
    ];
    for (name, exec) in placements {
        let how = PhaseRun {
            exec,
            ..central(3, plan.clone())
        };
        let (_, recovery) = fx.recover(&how, interval);
        assert_eq!(recovery.recovered_tasks(), 3, "{name}\n{}", plan.describe());
        let verdict = recovery.check(&plan, &task_cycles, interval);
        let scratch_cost = verdict.unwrap_or_else(|f| panic!("{name}: {f:?}\n{}", plan.describe()));
        assert!(recovery.cycles_replayed < scratch_cost, "{name}");
    }
}
