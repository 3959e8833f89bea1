//! Task-level parallelism: the SPAM/PSM execution model.
//!
//! * [`run_parallel_lcc`] / [`run_parallel_rtf`] — the real thing (§5.1):
//!   a control process (the calling thread) builds the task queue; `n` task
//!   processes (resident threads, forked once and leased per phase), each
//!   a complete independent OPS5 engine, pull chunks of tasks and fire
//!   asynchronously; the control process collects the results. Both are
//!   one call into the supervised phase runner ([`crate::exec::execute`])
//!   with [`TaskProcess`] as each worker's per-phase state — the engine a
//!   worker keeps from task to task, dropped when the phase is over — and
//!   the phase's task closure, which owns `Arc` clones of its inputs
//!   because a resident thread cannot borrow them; a [`PhaseRun`] says
//!   where tasks are placed, under which policy, and who watches. Verified
//!   to produce exactly the sequential results on either placement at any
//!   worker count.
//! * [`simulated_tlp_curve`] — replays a measured trace on the simulated
//!   Encore Multimax at 1..=14 task processes (Figure 6 / Figure 8): the
//!   paper's machine and processor counts, whatever the host has.

use crate::attribution::GapAttribution;
use crate::exec::{execute, ExecConfig, ExecReport, Observer, PhaseRun, ESTIMATE_UNITS_PER_WME};
use crate::trace::PhaseTrace;
use multimax_sim::{simulate, Schedule, SimConfig};
use ops5::WorkCounters;
use spam::fragments::FragmentHypothesis;
use spam::lcc::{merge_lcc_units, LccPhaseResult, LccPlan, LccUnit, LccUnitResult, Level};
use spam::rules::SpamProgram;
use spam::scene::Scene;
use spam::task::TaskProcess;
use spam::watch::Watch;
use std::sync::Arc;
use tlp_fault::{FaultPlan, SuperviseError, SupervisorConfig, TaskReport};
use tlp_obs::{Live, Recorder, SceneSpan, SloMonitor};

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

/// The labels and a-priori work estimates of an LCC task list, for
/// [`execute`]. Estimates are in cost-model units and steer the dynamic
/// chunker: class units match every fragment of their kind (the level-4
/// "big task"); finer levels shrink toward a single candidate pair. The
/// absolute scale does not matter — only the ratios move chunk boundaries.
pub(crate) fn lcc_task_list(
    units: &[LccUnit],
    fragments: &[FragmentHypothesis],
) -> (Vec<String>, Vec<u64>) {
    let estimate = |unit: &LccUnit| {
        let wmes = match unit {
            LccUnit::Class(kind) => fragments.iter().filter(|f| f.kind == *kind).count() as u64 + 1,
            LccUnit::Object(_) => 4,
            LccUnit::ObjectConstraint(..) => 2,
            LccUnit::Pair { .. } => 1,
        };
        wmes * ESTIMATE_UNITS_PER_WME
    };
    (
        units.iter().map(LccUnit::label).collect(),
        units.iter().map(estimate).collect(),
    )
}

/// What a completed LCC unit tells the observers, from the control thread:
/// its *simulated* latency (work units at the paper's 1.5 MIPS — the SLO
/// clock stays deterministic across hosts) is judged against the scene's
/// latency objective, and the same service time plus the unit's match
/// fraction land in the scene trace's service table — the model `lcc_trace`
/// feeds the simulator, keyed by task index — so `spamctl trace` can
/// rebuild the phase's critical path.
pub(crate) fn observe_unit(obs: &Observer<'_>, task: usize, work: &WorkCounters) {
    let sim_s = work.seconds_at(spam::phases::MIPS);
    if let Some(slo) = &obs.slo {
        slo.observe(sim_s, true);
    }
    if let Some(span) = obs.span {
        span.record_service(task as u32, sim_s, work.match_fraction());
    }
}

/// Runs the LCC phase at `level` as `how` describes: real task-process
/// threads on the central queue or the chunked deques, under `how`'s
/// supervision policy and fault plan, with `how`'s observers looking on —
/// each task's [`Watch`] mirrors its engine's counters into the live
/// registry and groups its recognize–act cycles into `engine.cycles` spans
/// under its attempt; completed units feed the SLO monitor and the scene
/// trace ([`observe_unit`]). The control process plans the phase once
/// ([`LccPlan`]: the task queue and the region index every task's working
/// memory is partitioned through) and the task processes share the plan.
///
/// The phase completes with partial results: units whose every attempt
/// failed are dead-lettered in the returned report and contribute no
/// consistency records or support. Otherwise the merged result is
/// bit-identical to the sequential run, whatever the placement, because
/// results merge in unit order ([`merge_lcc_units`]). The
/// [`ExecReport`] is the measured wall-clock schedule (per-worker
/// utilization, steal and overflow counters; convertible to a simulator
/// result for gap attribution).
pub fn run_parallel_lcc(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
    how: &PhaseRun<'_>,
) -> Result<(LccPhaseResult, ExecReport), SuperviseError> {
    let plan = LccPlan::new(scene, fragments, level);
    let (labels, estimates) = lcc_task_list(&plan.units, fragments);
    let obs = &how.obs;
    let (sp, scene, frags, live) = (
        sp.clone(),
        Arc::clone(scene),
        Arc::clone(fragments),
        Arc::clone(&obs.live),
    );
    let (slots, report, measured) = execute(
        how,
        labels,
        &estimates,
        |i, r: &LccUnitResult| observe_unit(obs, i, &r.work),
        move |tp: &mut TaskProcess, a| {
            let watch = Watch::new(Some(&live), a.trace);
            tp.run(&plan.task(&sp, &scene, &frags, a.task), watch).0
        },
    )?;
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
    span: Option<&SceneSpan>,
) -> Result<LccPhaseResult, SuperviseError> {
    let exec = ExecConfig::central_queue(n_workers);
    run_parallel_lcc_exec(
        sp, scene, fragments, level, &exec, cfg, plan, rec, live, slo, span,
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
    span: Option<&SceneSpan>,
) -> Result<(LccPhaseResult, ExecReport), SuperviseError> {
    let obs = Observer {
        rec: Arc::clone(rec),
        live: Arc::clone(live),
        slo: slo.cloned(),
        span,
    };
    let how = PhaseRun {
        exec: *exec,
        cfg: cfg.clone(),
        plan: plan.clone(),
        obs,
    };
    run_parallel_lcc(sp, scene, fragments, level, &how)
}

/// Runs the RTF phase as `how` describes over region batches (the paper's
/// RTF decomposition: 60–100 tasks, §4), merged by the same
/// [`spam::rtf::merge_rtf_batches`] as the sequential
/// [`spam::rtf::run_rtf_tasks`].
pub fn run_parallel_rtf(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    batches: &[Vec<u32>],
    how: &PhaseRun<'_>,
) -> Result<RtfParallelResult, SuperviseError> {
    let labels: Vec<String> = (0..batches.len())
        .map(|i| format!("rtf batch {i} ({} regions)", batches[i].len()))
        .collect();
    // One region is one WME of the batch's working memory.
    let estimates: Vec<u64> = (batches.iter())
        .map(|b| b.len() as u64 * ESTIMATE_UNITS_PER_WME)
        .collect();
    let (sp, scene, batches) = (sp.clone(), Arc::clone(scene), batches.to_vec());
    let (slots, report, measured) = execute(
        how,
        labels,
        &estimates,
        |_, _| {},
        move |tp: &mut TaskProcess, a| {
            spam::rtf::run_rtf_task(tp, &sp, &scene, &batches[a.task]).fragments
        },
    )?;
    Ok(RtfParallelResult {
        fragments: spam::rtf::merge_rtf_batches(slots),
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
    use spam::lcc::{run_lcc, ConsistentRec};
    use spam::rtf::run_rtf;

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

    #[test]
    fn parallel_rtf_equals_sequential() {
        let (sp, scene, _) = setup();
        let batches = spam::rtf::rtf_task_batches(&scene, 9);
        let (seq, _) = spam::rtf::run_rtf_tasks(&sp, &scene, &batches);
        for n in [1, 3] {
            for (name, exec) in placements(n) {
                let par = run_parallel_rtf(&sp, &scene, &batches, &PhaseRun::new(exec)).unwrap();
                assert!(par.report.is_clean(), "{name}, workers={n}");
                assert_eq!(seq, par.fragments, "{name}, workers={n}");
                assert_eq!(par.measured.attempts.len(), batches.len());
            }
        }
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
            assert_eq!(dead[0].label, seq.report.outcomes[victim].label, "{name}");
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

    /// Acceptance scenario: the same single-task fault with one retry
    /// allowed recovers completely — the phase equals the sequential run —
    /// and is deterministic under the fixed plan.
    #[test]
    fn retry_recovers_injected_fault_deterministically() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        for (name, exec) in placements(3) {
            let how = PhaseRun {
                cfg: SupervisorConfig::default()
                    .with_retries(1)
                    .with_backoff(std::time::Duration::from_millis(1)),
                plan: FaultPlan::seeded(42).with_task_panic(1, 1),
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
            assert_eq!(a.report.total_retries(), 1, "{name}");
            assert_eq!(
                a.report.outcomes[1].status,
                tlp_fault::TaskStatus::Retried(1),
                "{name}"
            );
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
    /// series set — engine mirrors, supervisor counters, and SLO health —
    /// into one registry.
    #[test]
    fn live_runner_matches_sequential_and_publishes_everything() {
        use tlp_obs::{Health, LiveValue, SloConfig};
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        for (name, exec) in placements(3) {
            let live = Live::new(8);
            let slo = Arc::new(SloMonitor::new(SloConfig::for_scene("dc"), live.handle()));
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
            assert_eq!(live.epoch(), par.units.len() as u64, "{name}");

            let snap = live.snapshot();
            let total = |name: &str| match snap.series.get(name) {
                Some(LiveValue::Counter { total, .. }) => *total,
                other => panic!("{name}: expected counter, got {other:?}"),
            };
            // Engine mirrors add up to the phase totals.
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
                    // Windowed: holds the last `window` epochs' observations.
                    assert!(h.count() >= 1);
                    assert!(h.count() <= par.units.len() as u64);
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
