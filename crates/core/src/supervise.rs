//! The supervision vocabulary shared by the phase runner
//! ([`crate::exec::execute`]) and the runners above it: the
//! [`TaskAttempt`] a task closure receives and the quiet panic hook that
//! keeps caught worker panics out of stderr. The supervised loop itself —
//! workers, `catch_unwind`, retry, deadline, dead letter — lives in `exec`
//! and nowhere else.

use std::sync::Once;
use tlp_obs::SpanSink;

/// Name prefix of task worker threads (`psm-task-{w}`); the quiet panic
/// hook uses it to keep injected/caught panics out of test output.
pub(crate) const WORKER_NAME: &str = "psm-task";

/// Installs (once) a panic hook that suppresses default printing for
/// panics on supervised worker threads — those panics are caught and
/// reported through the [`tlp_fault::TaskReport`], so the default stderr
/// dump is noise. Other threads keep the previous hook behaviour.
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
/// number lets a fault plan fate one attempt of a task and not its retry.
pub struct TaskAttempt {
    /// Task index within the phase.
    pub task: usize,
    /// Zero-based attempt number (0 = first execution, >0 = retry).
    pub attempt: u32,
    /// Aux-span sink parented under this attempt's span, when tracing.
    pub trace: Option<SpanSink>,
}
