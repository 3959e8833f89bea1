//! Measured-trace extraction: engine work → simulator task sets.
//!
//! §5.2: the paper measures task-level parallelism by timing task
//! executions against the 1-task-process BASELINE. Our engine counts work
//! units per task deterministically; at the Encore's ~1.5 MIPS those become
//! the per-task service times the multiprocessor simulator replays.

use multimax_sim::{SimResult, Task, TaskSet};
use spam::lcc::LccPhaseResult;
use spam::phases::MIPS;
use spam::rtf::RtfResult;
use tlp_fault::TaskReport;
use tlp_obs::{series_key, LiveHandle};

/// A phase execution converted to a simulator workload.
#[derive(Clone, Debug)]
pub struct PhaseTrace {
    /// Per-task service times + match fractions.
    pub tasks: TaskSet,
    /// Aggregate per-cycle statistics (for the match-parallelism model).
    pub cycle_log: Vec<ops5::CycleStats>,
    /// Total firings across tasks.
    pub firings: u64,
    /// Total RHS actions across tasks.
    pub rhs_actions: u64,
}

/// Builds the trace of an LCC phase run: one simulator task per LCC task.
pub fn lcc_trace(phase: &LccPhaseResult) -> PhaseTrace {
    let tasks = phase
        .units
        .iter()
        .enumerate()
        .map(|(i, u)| Task::with_match(i as u32, u.work.seconds_at(MIPS), u.work.match_fraction()))
        .collect();
    PhaseTrace {
        tasks: TaskSet::new(tasks),
        cycle_log: phase
            .units
            .iter()
            .flat_map(|u| u.cycle_log.clone())
            .collect(),
        firings: phase.firings,
        rhs_actions: phase.units.iter().map(|u| u.rhs_actions).sum(),
    }
}

/// Builds the trace of an RTF phase executed as task batches.
pub fn rtf_trace(results: &[RtfResult]) -> PhaseTrace {
    let tasks = results
        .iter()
        .enumerate()
        .map(|(i, r)| Task::with_match(i as u32, r.work.seconds_at(MIPS), r.work.match_fraction()))
        .collect();
    PhaseTrace {
        tasks: TaskSet::new(tasks),
        cycle_log: results.iter().flat_map(|r| r.cycle_log.clone()).collect(),
        firings: results.iter().map(|r| r.firings).sum(),
        rhs_actions: results.iter().map(|r| r.work.rhs_actions).sum(),
    }
}

/// Publishes a finished phase's per-task distributions into the run's
/// registry as `spam_phase_*{phase="…"}` series: simulated service-time and
/// match-fraction histograms plus task/firing totals, and — when a
/// supervision [`TaskReport`] is supplied — wall-clock queue-wait and
/// retry-latency histograms and the retry and dead-letter counters. Emitted
/// in one epoch after the phase, so the registry's next snapshot holds all
/// of it whatever the window.
pub fn record_phase_metrics(
    reg: &LiveHandle,
    phase: &str,
    trace: &PhaseTrace,
    report: Option<&TaskReport>,
) {
    let key = |name: &str| series_key(&format!("spam_phase_{name}"), &[("phase", phase)]);
    let (service, match_fraction) = (key("service_time_seconds"), key("match_fraction_ratio"));
    for t in &trace.tasks.tasks {
        reg.observe(&service, t.service);
        reg.observe(&match_fraction, t.match_fraction);
    }
    reg.inc(&key("tasks"), trace.tasks.len() as u64);
    reg.inc(&key("firings"), trace.firings);
    reg.inc(&key("rhs_actions"), trace.rhs_actions);
    if let Some(report) = report {
        let (wait, retry) = (key("queue_wait_seconds"), key("retry_latency_seconds"));
        for o in &report.outcomes {
            reg.observe(&wait, o.queue_wait.as_secs_f64());
            if o.attempts > 1 {
                reg.observe(&retry, o.retry_latency.as_secs_f64());
            }
        }
        reg.inc(&key("retries"), u64::from(report.total_retries()));
        reg.inc(&key("dead_letters"), report.dead_letters().len() as u64);
    }
}

/// Publishes a simulated run's queueing behaviour as `spam_sim_*{phase="…"}`
/// series: per-task simulated queue-wait and service-time histograms plus
/// makespan and worker-utilization gauges.
pub fn record_sim_metrics(reg: &LiveHandle, phase: &str, result: &SimResult) {
    let key = |name: &str| series_key(&format!("spam_sim_{name}"), &[("phase", phase)]);
    let (wait, service) = (key("queue_wait_seconds"), key("service_time_seconds"));
    for x in &result.executions {
        reg.observe(&wait, x.acquired - x.queued_at);
        reg.observe(&service, x.finished - x.started);
    }
    reg.gauge(&key("makespan_seconds"), result.makespan);
    reg.gauge(&key("utilization_ratio"), result.utilization());
    reg.inc(&key("task_retries"), u64::from(result.task_retries));
}

#[cfg(test)]
mod tests {
    use super::*;
    use spam::lcc::{run_lcc, Level};
    use spam::rtf::run_rtf;
    use spam::rules::SpamProgram;
    use std::sync::Arc;

    #[test]
    fn lcc_trace_preserves_totals() {
        let sp = SpamProgram::build();
        let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
        let rtf = run_rtf(&sp, &scene);
        let frags = Arc::new(rtf.fragments);
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let trace = lcc_trace(&lcc);
        assert_eq!(trace.tasks.len(), lcc.units.len());
        assert_eq!(trace.firings, lcc.firings);
        let total: f64 = trace.tasks.total_service();
        assert!((total - lcc.work.seconds_at(MIPS)).abs() / total < 1e-9);
        // Per-task match fractions sit in the calibrated LCC band on
        // average (individual tasks vary).
        let mean_mf: f64 = trace
            .tasks
            .tasks
            .iter()
            .map(|t| t.match_fraction)
            .sum::<f64>()
            / trace.tasks.len() as f64;
        assert!((0.2..0.7).contains(&mean_mf), "mean task mf {mean_mf:.2}");
    }

    #[test]
    fn phase_and_sim_metrics_snapshot() {
        use multimax_sim::{simulate, SimConfig};
        use tlp_obs::{Live, LiveValue};
        let sp = SpamProgram::build();
        let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
        let rtf = run_rtf(&sp, &scene);
        let frags = Arc::new(rtf.fragments);
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let trace = lcc_trace(&lcc);
        // A window of one epoch: the snapshot must still hold every task.
        let live = Live::new(1);
        record_phase_metrics(&live.handle(), "lcc", &trace, Some(&lcc.report));
        let result = simulate(&SimConfig::encore(8), &trace.tasks.tasks);
        record_sim_metrics(&live.handle(), "lcc", &result);
        let snap = live.snapshot();
        match snap
            .series
            .get("spam_phase_service_time_seconds{phase=\"lcc\"}")
        {
            Some(LiveValue::Histogram(h)) => {
                assert_eq!(h.count(), trace.tasks.len() as u64);
                assert!((h.sum() - trace.tasks.total_service()).abs() < 1e-6);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        match snap
            .series
            .get("spam_sim_queue_wait_seconds{phase=\"lcc\"}")
        {
            Some(LiveValue::Histogram(h)) => assert_eq!(h.count(), trace.tasks.len() as u64),
            other => panic!("expected histogram, got {other:?}"),
        }
        assert!(matches!(
            snap.series.get("spam_sim_utilization_ratio{phase=\"lcc\"}"),
            Some(LiveValue::Gauge(_))
        ));
        assert!(matches!(
            snap.series.get("spam_phase_firings{phase=\"lcc\"}"),
            Some(LiveValue::Counter { total, .. }) if *total == lcc.firings
        ));
        // Legal OpenMetrics: the file `--metrics-snapshot` writes validates.
        tlp_obs::validate_openmetrics(&tlp_obs::openmetrics(&snap)).unwrap();
    }
}
