//! The supervision vocabulary shared by the phase runner
//! ([`crate::exec::execute`]) and the runners above it: the
//! [`TaskAttempt`] a task closure receives and the quiet panic hook that
//! keeps caught worker panics out of stderr. The supervised loop itself —
//! workers, `catch_unwind`, retry, dead letter — lives in `exec`
//! and nowhere else.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Name prefix of task worker threads (`psm-task-{w}`); the quiet panic
/// hook uses it to keep injected/caught panics out of test output.
pub(crate) const WORKER_NAME: &str = "psm-task";

thread_local! {
    /// Whether this thread is inside a supervised attempt ([`catch_attempt`]).
    static IN_ATTEMPT: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once) a panic hook that suppresses default printing for
/// panics on supervised worker threads and inside any supervised attempt
/// (the calling thread is task process 0 and runs attempts too) — those
/// panics are caught and reported through the [`tlp_fault::TaskReport`],
/// so the default stderr dump is noise. Other panics keep the previous
/// hook behaviour.
pub(crate) fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let suppress = IN_ATTEMPT.get()
                || std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with(WORKER_NAME));
            if !suppress {
                prev(info);
            }
        }));
    });
}

/// Runs one supervised attempt under [`catch_unwind`], its panic (the
/// payload as a string) kept out of stderr by the quiet hook on whichever
/// thread it runs.
pub(crate) fn catch_attempt<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    let outer = IN_ATTEMPT.replace(true);
    let result = catch_unwind(AssertUnwindSafe(f)).map_err(payload_to_string);
    IN_ATTEMPT.set(outer);
    result
}

fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One scheduled execution of a task, handed to the task closure: which
/// task, which attempt. The attempt number lets a fault plan fate one
/// attempt of a task and not its retry.
pub struct TaskAttempt {
    /// Task index within the phase.
    pub task: usize,
    /// Zero-based attempt number (0 = first execution, >0 = retry).
    pub attempt: u32,
}
