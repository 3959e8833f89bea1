//! The supervision vocabulary shared by the phase runner
//! ([`crate::exec::execute`]) and the runners above it: the
//! [`TaskAttempt`] a task closure receives, the quiet panic hook that keeps
//! caught worker panics out of stderr, and the [`SupervisionOverhead`]
//! summary of a [`TaskReport`]. The supervised loop itself — workers,
//! `catch_unwind`, retry, deadline, dead letter — lives in `exec` and
//! nowhere else.

use std::sync::Once;
use tlp_fault::TaskReport;
use tlp_obs::SpanSink;

/// Name prefix of task worker threads (`psm-task-{w}`); the quiet panic
/// hook uses it to keep injected/caught panics out of test output.
pub(crate) const WORKER_NAME: &str = "psm-task";

/// Installs (once) a panic hook that suppresses default printing for
/// panics on supervised worker threads — those panics are caught and
/// reported through the [`TaskReport`], so the default stderr dump is
/// noise. Other threads keep the previous hook behaviour.
pub(crate) fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let suppress = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_NAME));
            if !suppress {
                prev(info);
            }
        }));
    });
}

pub(crate) fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One scheduled execution of a task, handed to the task closure. Carries
/// the structural coordinates the supervisor knows — which task, which
/// attempt — plus, when a scene trace is active, a [`SpanSink`] whose
/// children parent under this attempt's `task.exec` span. The attempt
/// number lets recovery paths distinguish a fresh run from a re-run
/// without keeping their own counters.
pub struct TaskAttempt {
    /// Task index within the phase.
    pub task: usize,
    /// Zero-based attempt number (0 = first execution, >0 = retry).
    pub attempt: u32,
    /// Aux-span sink parented under this attempt's span, when tracing.
    pub trace: Option<SpanSink>,
}

/// Aggregate supervision overhead of one supervised phase — the
/// wall-clock cost of fault tolerance, summarised for the speed-up doctor
/// (`spamctl profile` folds these into its attribution narrative: retry
/// latency and dead letters explain measured-vs-simulated divergence that
/// the fault-free simulator cannot).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SupervisionOverhead {
    /// Tasks in the phase.
    pub tasks: usize,
    /// Total seconds tasks spent enqueued before their first attempt.
    pub queue_wait_s: f64,
    /// Total seconds of extra latency from retried attempts.
    pub retry_latency_s: f64,
    /// Total retry attempts across all tasks.
    pub retries: u32,
    /// Tasks that exhausted every attempt.
    pub dead_letters: usize,
}

/// Summarises a [`TaskReport`] into its supervision overhead totals.
pub fn supervision_overhead(report: &TaskReport) -> SupervisionOverhead {
    SupervisionOverhead {
        tasks: report.outcomes.len(),
        queue_wait_s: report
            .outcomes
            .iter()
            .map(|o| o.queue_wait.as_secs_f64())
            .sum(),
        retry_latency_s: report
            .outcomes
            .iter()
            .map(|o| o.retry_latency.as_secs_f64())
            .sum(),
        retries: report.total_retries(),
        dead_letters: report.dead_letters().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecConfig, PhaseRun};
    use tlp_fault::{FaultPlan, SupervisorConfig};

    #[test]
    fn overhead_summary_totals_match_the_report() {
        let how = PhaseRun {
            cfg: SupervisorConfig::default().with_retries(2),
            plan: FaultPlan::none().with_task_panic(2, 1),
            ..PhaseRun::new(ExecConfig::central_queue(2))
        };
        let labels = (0..6).map(|i| format!("t{i}")).collect();
        let (_, report, _) = execute(&how, labels, &[], |_, _| {}, |a| a.task).unwrap();
        let oh = supervision_overhead(&report);
        assert_eq!(oh.tasks, 6);
        assert_eq!(oh.retries, report.total_retries());
        assert_eq!(oh.retries, 1);
        assert_eq!(oh.dead_letters, 0);
        let qw: f64 = report
            .outcomes
            .iter()
            .map(|o| o.queue_wait.as_secs_f64())
            .sum();
        assert!((oh.queue_wait_s - qw).abs() < 1e-12);
        assert!(oh.retry_latency_s >= 0.0);
    }
}
