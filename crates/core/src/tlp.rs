//! Task-level parallelism: the SPAM/PSM execution model.
//!
//! * [`run_phase`] — the real thing (§5.1), one entry for every phase: the
//!   control process (the calling thread) queues a [`TaskList`]'s tasks;
//!   `n` task processes — the calling thread itself and `n − 1` resident
//!   threads, each keeping a [`TaskProcess`] for the phase — pull chunks
//!   of them and fire asynchronously. A [`PhaseRun`]
//!   says where tasks go, under which policy and fault plan, and who
//!   watches. A task killed mid-run is a panic like any other: the
//!   supervisor retries it from scratch. [`run_parallel_lcc`] / [`run_parallel_rtf`] are plan →
//!   [`run_phase`] → merge. The results are exactly the sequential ones
//!   ([`spam::task::drain`]) on either placement, at any worker count.
//! * [`simulated_tlp_curve`] — replays a measured trace on the simulated
//!   Encore Multimax at 1..=14 task processes (Figure 6 / Figure 8): the
//!   paper's machine and processor counts, whatever the host has.

use crate::attribution::GapAttribution;
use crate::exec::{
    execute, ExecConfig, ExecReport, Observer, PhaseOutcome, PhaseRun, ESTIMATE_UNITS_PER_WME,
};
use crate::trace::PhaseTrace;
use multimax_sim::{simulate, Schedule, SimConfig};
use spam::fragments::FragmentHypothesis;
use spam::lcc::{merge_lcc_units, LccPhaseResult, LccPlan, Level};
use spam::rtf::{merge_rtf_batches, RtfPhase};
use spam::rules::SpamProgram;
use spam::scene::Scene;
use spam::task::{TaskList, TaskProcess};
use spam::watch::Watch;
use std::sync::Arc;
use tlp_fault::{FaultPlan, SuperviseError, SupervisorConfig, TaskReport};
use tlp_obs::{Live, Recorder, SloMonitor, TraceId};

/// Runs `list` as `how` says, tasks weighed for chunking by their
/// [estimates](TaskList::estimate). An attempt is `tp.run(&task, watch)`,
/// the [`Watch`] publishing its engine's work when the run ends and
/// delivering the fault plan's mid-cycle kill of that attempt, if any. A
/// task whose list [observes](TaskList::observed) its work has its
/// simulated latency (at the paper's 1.5 MIPS) judged against the scene's
/// objective.
pub fn run_phase<L>(
    how: &PhaseRun,
    list: &Arc<L>,
) -> Result<PhaseOutcome<L::Output>, SuperviseError>
where
    L: TaskList + Send + Sync + 'static,
    L::Output: Send + 'static,
{
    let estimates: Vec<u64> = (0..list.len())
        .map(|i| list.estimate(i) * ESTIMATE_UNITS_PER_WME)
        .collect();
    let obs = &how.obs;
    let observe = |_: usize, r: &L::Output| {
        if let (Some(work), Some(slo)) = (list.observed(r), &obs.slo) {
            slo.observe(work.seconds_at(spam::phases::MIPS));
        }
    };
    let (tasks, live, plan) = (Arc::clone(list), Arc::clone(&obs.live), how.plan.clone());
    execute(
        how,
        (list.len(), |i| list.label(i)),
        &estimates,
        observe,
        move |tp: &mut TaskProcess, a| {
            let kill_at = plan.cycle_kill(a.task, a.attempt);
            let watch = Watch::new(Some(&live)).with_kill_at(kill_at);
            tp.run(&tasks.task(a.task), watch).0
        },
    )
}

/// Result of a supervised parallel RTF phase: the merged fragments plus the
/// per-batch supervision outcomes.
#[derive(Clone, Debug)]
pub struct RtfParallelResult {
    /// Merged fragments, renumbered densely in batch order (dead-lettered
    /// batches contribute nothing).
    pub fragments: Vec<FragmentHypothesis>,
    /// Per-batch supervision outcomes.
    pub report: TaskReport,
    /// The measured schedule.
    pub measured: ExecReport,
}

/// Runs the LCC phase at `level` as `how` describes: [`run_phase`] over its
/// [`LccPlan`], merged in unit order ([`merge_lcc_units`]) — bit-identical
/// to the sequential run whatever the placement, except that units whose
/// every attempt failed are dead-lettered in the report and contribute
/// nothing. The [`ExecReport`] is the measured wall-clock schedule.
pub fn run_parallel_lcc(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
    how: &PhaseRun,
) -> Result<(LccPhaseResult, ExecReport), SuperviseError> {
    let plan = Arc::new(LccPlan::new(sp, scene, fragments, level));
    let (slots, report, measured) = run_phase(how, &plan)?;
    Ok((merge_lcc_units(level, fragments, slots, report), measured))
}

/// [`run_parallel_lcc`] on the central queue, argument by argument.
/// **Pinned by `benchmarks/e2e`**, which is frozen and calls exactly this
/// signature; it goes when a `benchmark` PR moves that call to
/// [`run_parallel_lcc`]. Nothing else should call it.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_lcc_scene(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
    n_workers: usize,
    cfg: &SupervisorConfig,
    plan: &FaultPlan,
    rec: &Arc<Recorder>,
    live: &Arc<Live>,
    slo: Option<&Arc<SloMonitor>>,
    trace: Option<TraceId>,
) -> Result<LccPhaseResult, SuperviseError> {
    let exec = ExecConfig::central_queue(n_workers);
    run_parallel_lcc_exec(
        sp, scene, fragments, level, &exec, cfg, plan, rec, live, slo, trace,
    )
    .map(|(phase, _)| phase)
}

/// [`run_parallel_lcc`] on `exec`'s placement, argument by argument.
/// **Pinned by `benchmarks/e2e`**, which is frozen and calls exactly this
/// signature; it goes when a `benchmark` PR moves that call to
/// [`run_parallel_lcc`]. Nothing else should call it.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_lcc_exec(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
    exec: &ExecConfig,
    cfg: &SupervisorConfig,
    plan: &FaultPlan,
    rec: &Arc<Recorder>,
    live: &Arc<Live>,
    slo: Option<&Arc<SloMonitor>>,
    trace: Option<TraceId>,
) -> Result<(LccPhaseResult, ExecReport), SuperviseError> {
    let obs = Observer {
        rec: Arc::clone(rec),
        live: Arc::clone(live),
        slo: slo.cloned(),
        trace,
    };
    let how = PhaseRun {
        exec: *exec,
        cfg: cfg.clone(),
        plan: plan.clone(),
        obs,
    };
    run_parallel_lcc(sp, scene, fragments, level, &how)
}

/// Runs the RTF phase as `how` describes over region batches: [`run_phase`]
/// over an [`RtfPhase`], merged by [`merge_rtf_batches`].
pub fn run_parallel_rtf(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    batches: &[Vec<u32>],
    how: &PhaseRun,
) -> Result<RtfParallelResult, SuperviseError> {
    let (sp, scene, batches) = (sp.clone(), Arc::clone(scene), batches.to_vec());
    let (slots, report, measured) = run_phase(how, &Arc::new(RtfPhase { sp, scene, batches }))?;
    let fragments = merge_rtf_batches(slots.into_iter().map(|s| s.map(|r| r.fragments)));
    Ok(RtfParallelResult {
        fragments,
        report,
        measured,
    })
}

/// Simulated task-level-parallelism speed-up curve for a measured trace,
/// on the standard Encore configuration (Figure 6 / Figure 8).
pub fn simulated_tlp_curve(trace: &PhaseTrace, max_workers: u32) -> Vec<(u32, f64)> {
    multimax_sim::speedup_curve(SimConfig::encore, &trace.tasks, max_workers)
        .into_iter()
        .map(|p| (p.n, p.speedup))
        .collect()
}

/// Simulated TLP curve with full gap attribution at each worker count:
/// where the ideal-vs-measured speed-up went, per
/// [`crate::attribution::GapAttribution`] (the `spamctl profile` view of
/// Figure 6).
pub fn attributed_tlp_curve(trace: &PhaseTrace, workers: &[u32]) -> Vec<GapAttribution> {
    let base = simulate(&SimConfig::encore(1), &trace.tasks.tasks).makespan;
    workers
        .iter()
        .map(|&n| {
            let r = simulate(&SimConfig::encore(n), &trace.tasks.tasks);
            GapAttribution::attribute(base, &r, n)
        })
        .collect()
}

/// Simulated speed-up curve with LPT ("big tasks first") scheduling — the
/// tail-end-effect fix §6.2 proposes as future work.
pub fn simulated_tlp_curve_lpt(trace: &PhaseTrace, max_workers: u32) -> Vec<(u32, f64)> {
    multimax_sim::speedup_curve(
        |n| SimConfig {
            schedule: Schedule::Lpt,
            ..SimConfig::encore(n)
        },
        &trace.tasks,
        max_workers,
    )
    .into_iter()
    .map(|p| (p.n, p.speedup))
    .collect()
}

/// Makespan of a *synchronous* task-parallel system: tasks execute in
/// lock-step rounds of `n` with a barrier after each round (§3.2:
/// "synchronous systems are less capable of handling variances in
/// processing times ... a synchronous system quickly reaches saturation
/// speed-ups"). Used by the sync-vs-async ablation bench.
pub fn synchronous_makespan(trace: &PhaseTrace, n: u32) -> f64 {
    let cfg = SimConfig::encore(n);
    cfg.fork_overhead
        + trace
            .tasks
            .tasks
            .chunks(n as usize)
            .map(|round| {
                round
                    .iter()
                    .map(|t| t.service + cfg.dequeue_overhead)
                    .fold(0.0f64, f64::max)
            })
            .sum::<f64>()
}

/// Asynchronous makespan of the same configuration (for the ablation).
pub fn asynchronous_makespan(trace: &PhaseTrace, n: u32) -> f64 {
    simulate(&SimConfig::encore(n), &trace.tasks.tasks).makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::placements;
    use crate::trace::lcc_trace;
    use spam::fa::{run_fa, FaTask};
    use spam::lcc::{run_lcc, ConsistentRec};
    use spam::model::ModelTask;
    use spam::rtf::run_rtf;
    use spam::task::drain;

    fn setup() -> (SpamProgram, Arc<Scene>, Arc<Vec<FragmentHypothesis>>) {
        let sp = SpamProgram::build();
        let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
        let rtf = run_rtf(&sp, &scene);
        let frags = Arc::new(rtf.fragments);
        (sp, scene, frags)
    }

    fn canonical(c: &[ConsistentRec]) -> Vec<(u32, u32, &'static str)> {
        let mut v: Vec<_> = c.iter().map(|r| (r.a, r.b, r.rel.name())).collect();
        v.sort();
        v
    }

    /// Acceptance scenario: either placement produces the sequential
    /// results bit-for-bit at every worker count, while the measured report
    /// stays internally consistent (task conservation, utilization in
    /// range, a gap-free Gantt).
    #[test]
    fn parallel_equals_sequential_at_any_worker_count() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        for n in [1, 2, 4] {
            for (name, exec) in placements(n) {
                let how = PhaseRun::new(exec);
                let (par, measured) =
                    run_parallel_lcc(&sp, &scene, &frags, Level::L3, &how).unwrap();
                let at = format!("{name}, workers={n}");
                assert!(par.report.is_clean(), "{at}");
                assert_eq!(par.firings, seq.firings, "{at}");
                assert_eq!(
                    canonical(&par.consistents),
                    canonical(&seq.consistents),
                    "{at}"
                );
                assert_eq!(par.fragments, seq.fragments, "{at}: supports");
                assert_eq!(
                    par.work, seq.work,
                    "{at}: total work is schedule-independent"
                );
                assert_eq!(par.units, seq.units, "{at}: unit results, in unit order");
                // Measured-schedule sanity.
                let executed: u64 = measured.workers.iter().map(|w| w.executed).sum();
                assert_eq!(executed, seq.units.len() as u64, "{at}: task conservation");
                let u = measured.utilization();
                assert!(u > 0.0 && u <= 1.0 + 1e-9, "{at}: utilization {u}");
                assert!(
                    measured.timeline("lcc-exec").coverage() > 0.999,
                    "{at}: measured Gantt must be gap-free"
                );
            }
        }
    }

    #[test]
    fn simulated_curve_is_near_linear_on_lcc() {
        let (sp, scene, frags) = setup();
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let trace = lcc_trace(&lcc);
        let curve = simulated_tlp_curve(&trace, 14);
        assert!((curve[0].1 - 1.0).abs() < 1e-9);
        let s14 = curve[13].1;
        // DC is the smallest dataset (fewest tasks per processor); the
        // figure_6 bench exercises the full three-airport sweep where SF
        // reaches the paper's ~12x.
        assert!(
            s14 > 9.0 && s14 <= 14.0,
            "Figure 6 band (DC): expected near-linear speed-up at 14 processes, got {s14:.2}"
        );
    }

    #[test]
    fn synchronous_lags_asynchronous_under_variance() {
        let (sp, scene, frags) = setup();
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let trace = lcc_trace(&lcc);
        let sync = synchronous_makespan(&trace, 8);
        let asyn = asynchronous_makespan(&trace, 8);
        assert!(
            sync > asyn * 1.05,
            "sync {sync:.1}s should lag async {asyn:.1}s"
        );
    }

    /// `list` on either placement at 1 and 3 workers, fault-free: every slot
    /// is the sequential drain's result whole (`==`, cycle log included),
    /// the report is clean, and every task ran once. Returns the drain's
    /// results.
    fn equals_its_drain<L>(name: &str, list: L) -> Vec<L::Output>
    where
        L: TaskList + Send + Sync + 'static,
        L::Output: PartialEq + std::fmt::Debug + Send + 'static,
    {
        let list = Arc::new(list);
        let seq: Vec<L::Output> = (drain(&mut TaskProcess::default(), &*list, false))
            .map(|(r, _)| r)
            .collect();
        for n in [1, 3] {
            for (place, exec) in placements(n) {
                let at = format!("{name}, {place}, workers={n}");
                let (slots, report, measured) = run_phase(&PhaseRun::new(exec), &list).unwrap();
                assert!(report.is_clean(), "{at}");
                assert_eq!(measured.attempts.len(), seq.len(), "{at}");
                assert_eq!(slots.len(), seq.len(), "{at}");
                for (i, (got, want)) in slots.iter().zip(&seq).enumerate() {
                    assert_eq!(got.as_ref(), Some(want), "{at}: task {i}");
                }
            }
        }
        seq
    }

    /// Every phase, as its task list, runs through [`run_phase`] into
    /// exactly its sequential results; RTF's batches also merge, through
    /// [`run_parallel_rtf`], into the sequential fragment table.
    #[test]
    fn every_phase_on_the_pool_equals_its_sequential_drain() {
        let (sp, scene, frags) = setup();
        let batches = spam::rtf::rtf_task_batches(&scene, 9);
        let (sp_, scene_) = (|| sp.clone(), || Arc::clone(&scene));
        let rtf = RtfPhase {
            sp: sp_(),
            scene: scene_(),
            batches: batches.clone(),
        };
        let seq = equals_its_drain("RTF", rtf);
        let seq = merge_rtf_batches(seq.into_iter().map(|r| Some(r.fragments)));
        for n in [1, 3] {
            for (name, exec) in placements(n) {
                let par = run_parallel_rtf(&sp, &scene, &batches, &PhaseRun::new(exec)).unwrap();
                assert!(par.report.is_clean(), "{name}, workers={n}");
                assert_eq!(seq, par.fragments, "{name}, workers={n}");
                assert_eq!(par.measured.attempts.len(), batches.len());
            }
        }
        equals_its_drain("LCC L1", LccPlan::new(&sp, &scene, &frags, Level::L1));
        let units = equals_its_drain("LCC L3", LccPlan::new(&sp, &scene, &frags, Level::L3));
        let lcc = merge_lcc_units(
            Level::L3,
            &frags,
            units.into_iter().map(Some),
            <_>::default(),
        );
        let fragments = Arc::new(lcc.fragments);
        let fa = run_fa(&sp, &scene, &fragments, &lcc.consistents);
        let fa_phase = FaTask {
            sp: sp_(),
            scene: scene_(),
            fragments: Arc::clone(&fragments),
            consistents: lcc.consistents,
        };
        assert_eq!(equals_its_drain("FA", fa_phase), std::slice::from_ref(&fa));
        let model = ModelTask {
            sp: sp_(),
            scene: scene_(),
            fragments,
            areas: fa.areas,
            members: fa.members,
        };
        equals_its_drain("MODEL", model);
    }

    #[test]
    fn zero_workers_rejected_without_panicking() {
        let (sp, scene, frags) = setup();
        let batches = spam::rtf::rtf_task_batches(&scene, 9);
        for (name, exec) in placements(0) {
            let how = PhaseRun::new(exec);
            let err = match run_parallel_lcc(&sp, &scene, &frags, Level::L3, &how) {
                Ok(_) => panic!("{name}: zero workers must be a typed error"),
                Err(e) => e,
            };
            assert_eq!(err, SuperviseError::NoWorkers, "{name}");
            assert_eq!(
                run_parallel_rtf(&sp, &scene, &batches, &how).err(),
                Some(SuperviseError::NoWorkers),
                "{name}"
            );
        }
    }

    /// Acceptance scenario: inject a panic into one LCC task of N; the
    /// phase completes with N-1 unit results and the report names the
    /// failed task.
    #[test]
    fn panicking_unit_yields_partial_phase_with_named_dead_letter() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        let n_units = seq.units.len();
        assert!(n_units > 2, "need a few units for the scenario");
        let victim = 1usize;
        let plan = LccPlan::new(&sp, &scene, &frags, Level::L3);
        for (name, exec) in placements(3) {
            let how = PhaseRun {
                plan: FaultPlan::none().with_task_panic(victim, u32::MAX),
                ..PhaseRun::new(exec)
            };
            let (par, measured) = run_parallel_lcc(&sp, &scene, &frags, Level::L3, &how).unwrap();
            assert_eq!(par.units.len(), n_units - 1, "{name}: partial results");
            let dead = par.report.dead_letters();
            assert_eq!(dead.len(), 1, "{name}");
            assert_eq!(dead[0].task, victim, "{name}");
            assert_eq!(dead[0].label, plan.label(victim), "{name}");
            assert!(dead[0].error.as_deref().unwrap().contains("injected fault"));
            assert_eq!(measured.lost_tasks, 1, "{name}");
            // Exactly the victim's share is missing.
            assert_eq!(
                par.firings,
                seq.firings - seq.units[victim].firings,
                "{name}"
            );
        }
    }

    /// Acceptance scenario: the same single-task fault, and another task
    /// killed mid-run, with one retry allowed recover completely — the
    /// phase equals the sequential run — and are deterministic under the
    /// fixed plan.
    #[test]
    fn retry_recovers_injected_fault_deterministically() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        for (name, exec) in placements(3) {
            let how = PhaseRun {
                cfg: SupervisorConfig::default()
                    .with_retries(1)
                    .with_backoff(std::time::Duration::from_millis(1)),
                plan: FaultPlan::seeded(42)
                    .with_task_panic(1, 1)
                    .with_cycle_kill(2, 0, 2),
                ..PhaseRun::new(exec)
            };
            let run = || {
                run_parallel_lcc(&sp, &scene, &frags, Level::L3, &how)
                    .unwrap()
                    .0
            };
            let a = run();
            assert_eq!(a.firings, seq.firings, "{name}");
            assert_eq!(
                canonical(&a.consistents),
                canonical(&seq.consistents),
                "{name}"
            );
            assert_eq!(a.report.dead_letters().len(), 0, "{name}");
            assert_eq!(a.units, seq.units, "{name}: cycle logs included");
            assert_eq!(a.report.total_retries(), 2, "{name}");
            for t in [1, 2] {
                let status = &a.report.outcomes[t].status;
                assert_eq!(*status, tlp_fault::TaskStatus::Retried(1), "{name}");
            }
            let b = run();
            let statuses = |r: &LccPhaseResult| {
                r.report
                    .outcomes
                    .iter()
                    .map(|o| (o.task, o.status.clone(), o.attempts))
                    .collect::<Vec<_>>()
            };
            assert_eq!(statuses(&a), statuses(&b), "{name}: fixed plan must replay");
            assert_eq!(
                canonical(&a.consistents),
                canonical(&b.consistents),
                "{name}"
            );
        }
    }

    /// Acceptance scenario: with live telemetry attached the runner
    /// produces exactly the sequential results while publishing the full
    /// series set — engine work, supervisor counters, and SLO health —
    /// into one registry.
    #[test]
    fn live_runner_matches_sequential_and_publishes_everything() {
        use tlp_obs::{Health, LiveValue, SloConfig};
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        for (name, exec) in placements(3) {
            let live = Live::new(0);
            let slo = Arc::new(SloMonitor::new(SloConfig::default(), live.handle()));
            let mut how = PhaseRun::new(exec);
            how.obs.live = Arc::clone(&live);
            how.obs.slo = Some(Arc::clone(&slo));
            let (par, _) = run_parallel_lcc(&sp, &scene, &frags, Level::L3, &how).unwrap();
            assert!(par.report.is_clean(), "{name}");
            assert_eq!(par.firings, seq.firings, "{name}");
            assert_eq!(
                canonical(&par.consistents),
                canonical(&seq.consistents),
                "{name}"
            );
            assert_eq!(par.work, seq.work, "{name}: telemetry must not change work");

            let snap = live.snapshot();
            let total = |name: &str| match snap.series.get(name) {
                Some(LiveValue::Counter(total)) => *total,
                other => panic!("{name}: expected counter, got {other:?}"),
            };
            // Engine work adds up to the phase totals.
            assert_eq!(total("spam_live_match_units"), par.work.match_units);
            assert_eq!(total("spam_live_firings"), par.firings);
            assert_eq!(total("spam_live_rhs_actions"), par.work.rhs_actions);
            // Supervisor counters.
            assert_eq!(total("spam_live_tasks_completed"), par.units.len() as u64);
            assert!(snap.series.contains_key("spam_live_queue_depth"));
            assert!((snap.series.keys()).any(|k| k.starts_with("spam_live_worker_busy_us{")));
            // SLO series, fed with simulated latencies.
            match snap.series.get("spam_slo_latency_seconds") {
                Some(LiveValue::Histogram(h)) => {
                    // One sample per completed task, every one of them.
                    assert_eq!(h.count(), par.units.len() as u64, "{name}");
                    assert!(h.sum() > 0.0, "simulated latencies are positive");
                }
                other => panic!("{name}: slo latency histogram missing: {other:?}"),
            }
            assert_eq!(slo.health(), Health::Healthy, "DC L3 meets its objective");
        }
    }

    /// The two benchmark-pinned shims are `run_parallel_lcc` and nothing
    /// else: same phase, the scene shim on the central placement.
    #[test]
    fn the_pinned_shims_are_run_parallel_lcc() {
        let (sp, scene, frags) = setup();
        let (cfg, plan) = (SupervisorConfig::default(), FaultPlan::none());
        let (rec, live) = (Recorder::new(tlp_obs::ObsLevel::Full), Live::off());
        let direct = PhaseRun::new(ExecConfig::central_queue(2));
        let (want, _) = run_parallel_lcc(&sp, &scene, &frags, Level::L4, &direct).unwrap();
        let got = run_parallel_lcc_scene(
            &sp,
            &scene,
            &frags,
            Level::L4,
            2,
            &cfg,
            &plan,
            &rec,
            &live,
            None,
            None,
        )
        .unwrap();
        assert_eq!(got.units, want.units);
        assert_eq!(got.fragments, want.fragments);
        let spilled = |rec: &Arc<Recorder>| {
            let events = rec.events();
            events.iter().filter(|e| e.name == "exec.overflow").count()
        };
        assert_eq!(
            spilled(&rec),
            want.units.len(),
            "central: every task spills"
        );
        let rec = Recorder::new(tlp_obs::ObsLevel::Full);
        let exec = ExecConfig::new(2);
        let (got, measured) = run_parallel_lcc_exec(
            &sp,
            &scene,
            &frags,
            Level::L4,
            &exec,
            &cfg,
            &plan,
            &rec,
            &live,
            None,
            None,
        )
        .unwrap();
        assert_eq!(got.units, want.units);
        assert_eq!(spilled(&rec), 0, "deques: ten class tasks fit");
        assert_eq!(measured.overflowed, 0);
    }

    #[test]
    fn lpt_no_worse_than_fifo() {
        let (sp, scene, frags) = setup();
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let trace = lcc_trace(&lcc);
        let fifo = simulated_tlp_curve(&trace, 14);
        let lpt = simulated_tlp_curve_lpt(&trace, 14);
        assert!(lpt[13].1 >= fifo[13].1 * 0.999);
    }
}
