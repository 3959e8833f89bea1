//! Supervised task execution for the PSM thread pool.
//!
//! The paper's runs simply died when a task process did: one rogue rule or
//! one bad WME took down the whole phase. This module is the control
//! process acting as a *supervisor* (§5.1's control process, hardened):
//!
//! * every task attempt runs under [`std::panic::catch_unwind`], so a
//!   panicking task is isolated — the phase completes with the results of
//!   the surviving tasks;
//! * a task failure is retried up to [`SupervisorConfig::max_retries`]
//!   times with linear backoff; tasks that exhaust their budget go to the
//!   dead-letter list in the [`TaskReport`];
//! * an optional *soft* deadline is enforced post-hoc: task threads cannot
//!   be preempted, so an attempt that returns after the deadline has its
//!   result discarded and is treated as a failure;
//! * deterministic fault injection: a [`FaultPlan`] can fate specific
//!   `(task, attempt)` pairs to panic, making the whole retry machinery
//!   reproducible under test.
//!
//! The runner keeps the seed architecture: the calling thread is the
//! control process; `n` worker threads drain a shared closeable queue;
//! results stream back over a channel. Retry decisions are made by the
//! control process, which pushes the repeat attempt back onto the queue.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, Once, PoisonError};
use std::time::{Duration, Instant};
use tlp_fault::{FaultPlan, SuperviseError, SupervisorConfig, TaskOutcome, TaskReport, TaskStatus};
use tlp_obs::{
    series_key, Category, Live, ObsLevel, Recorder, SceneSpan, SloMonitor, SpanId, SpanKind,
    SpanRecord, SpanSink,
};

/// Name prefix of supervised worker threads; the quiet panic hook uses it
/// to keep injected/caught panics out of test output. Shared with the
/// work-stealing executor (`crate::exec`), whose workers take the same
/// prefix so one hook covers both runners.
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

/// A closeable multi-producer work queue of `(task, attempt)` jobs.
///
/// Queue state is a plain `(jobs, closed)` pair — no invariant can be left
/// half-updated by a panicking holder — so every lock acquisition recovers
/// from poisoning with [`PoisonError::into_inner`] instead of unwrapping.
/// Before this, a panic *outside* `catch_unwind` while holding the lock
/// (e.g. an allocation failure, or a chaos fault injected in the push path)
/// poisoned the mutex and every subsequent `push`/`pop` panicked in turn,
/// deadlocking the control process behind a dead queue.
struct JobQueue {
    state: Mutex<(VecDeque<(usize, u32)>, bool)>,
    cv: Condvar,
}

impl JobQueue {
    fn new(n_tasks: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(((0..n_tasks).map(|i| (i, 0)).collect(), false)),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (VecDeque<(usize, u32)>, bool)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, job: (usize, u32)) {
        let mut st = self.lock();
        st.0.push_back(job);
        drop(st);
        self.cv.notify_one();
    }

    fn close(&self) {
        self.lock().1 = true;
        self.cv.notify_all();
    }

    /// Blocks for the next job; `None` once the queue is closed and empty.
    fn pop(&self) -> Option<(usize, u32)> {
        let mut st = self.lock();
        loop {
            if let Some(job) = st.0.pop_front() {
                return Some(job);
            }
            if st.1 {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct AttemptMsg<T> {
    task: usize,
    attempt: u32,
    result: Result<T, String>,
    /// When the attempt began executing on a worker (after any backoff).
    started: Instant,
    elapsed: Duration,
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

/// Why the last attempt of a task failed (drives the final dead-letter
/// status).
#[derive(Clone, Copy, PartialEq, Eq)]
enum FailKind {
    Panic,
    Deadline,
}

/// Runs `labels.len()` tasks on `n_workers` supervised worker threads.
///
/// Returns one `Option<T>` slot per task (in task order; `None` marks a
/// dead-lettered task) plus the [`TaskReport`]. Fails fast with
/// [`SuperviseError::NoWorkers`] when `n_workers` is zero.
///
/// `task` must be pure with respect to retries: attempt `k+1` re-runs the
/// same closure with the same index. The spam phase runners satisfy this
/// by running every attempt on an engine in its just-built state — new,
/// or reset and out of its thread's slot while the attempt runs, so an
/// attempt that unwinds drops it (`spam::lcc`'s task-engine lifecycle,
/// DESIGN.md §21) — over shared immutable inputs. That is also what makes
/// `AssertUnwindSafe` sound here: a half-updated state cannot leak across
/// attempts.
pub fn supervise<T: Send>(
    n_workers: usize,
    labels: Vec<String>,
    cfg: &SupervisorConfig,
    plan: &FaultPlan,
    task: impl Fn(usize) -> T + Sync,
) -> Result<(Vec<Option<T>>, TaskReport), SuperviseError> {
    supervise_traced(n_workers, labels, cfg, plan, &Recorder::off(), task)
}

/// [`supervise`] with a flight recorder attached.
///
/// Every worker thread registers its own [`tlp_obs::ThreadSink`]; the
/// control process registers a `supervisor` sink. At `Summary` level the
/// phase is one span; at `Full` level each attempt is a `task.exec` span on
/// its worker's track and every supervisor decision (retry, deadline
/// rejection, dead-letter, completion) is an instant event. Work-unit
/// accounting never flows through the recorder, so results are identical at
/// every level.
pub fn supervise_traced<T: Send>(
    n_workers: usize,
    labels: Vec<String>,
    cfg: &SupervisorConfig,
    plan: &FaultPlan,
    rec: &Arc<Recorder>,
    task: impl Fn(usize) -> T + Sync,
) -> Result<(Vec<Option<T>>, TaskReport), SuperviseError> {
    supervise_observed(
        n_workers,
        labels,
        cfg,
        plan,
        rec,
        &Live::off(),
        None,
        None,
        |_, _| {},
        |a: TaskAttempt| task(a.task),
    )
}

/// [`supervise_traced`] with live telemetry attached.
///
/// When `live` is enabled the supervisor publishes its runtime health into
/// the sliding-window registry while the phase runs:
///
/// * `spam_live_tasks_completed` / `spam_live_task_retries` /
///   `spam_live_dead_letters` — control-process counters mirroring every
///   terminal decision;
/// * `spam_live_task_latency_seconds` — wall-clock latency histogram of
///   successful attempts;
/// * `spam_live_queue_depth` — gauge of tasks still outstanding
///   (queued or in flight);
/// * `spam_live_worker_busy_us{worker="w"}` /
///   `spam_live_worker_tasks{worker="w"}` — per-worker busy time and
///   attempt counts, emitted from each worker's own shard.
///
/// Logical time advances one epoch per *terminal* task (success or dead
/// letter), so window widths read as "the last N finished tasks". When an
/// [`SloMonitor`] is attached it is advanced on the same clock, and a
/// dead-lettered task is charged to it as a breach (failed work burns
/// error budget even though no latency sample exists for it).
///
/// `on_complete` runs on the control thread once per successful task,
/// before the epoch advances — callers mirror task results (work counters,
/// SLO latency observations) into `live` from there. With `live` disabled
/// every emit is a single branch and behaviour is identical to
/// [`supervise_traced`].
///
/// When `scene` is an enabled [`SceneSpan`], the supervisor propagates its
/// trace context through every scheduling decision: each attempt becomes a
/// `task.exec` span under the scene root (recorded by the worker that ran
/// it, so worker hops are visible), retries and dead letters become marker
/// spans recorded by the control thread, and the task closure receives a
/// [`SpanSink`] parented under the attempt span for engine/recovery
/// emissions. Span ids are derived from `(trace, task, attempt)`, so both
/// sides of the channel agree on them without coordination. The closure
/// now receives a [`TaskAttempt`] rather than a bare index — the attempt
/// number rides along, which is what the recovery runner needs to decide
/// whether to restore from a checkpoint.
#[allow(clippy::too_many_arguments)]
pub fn supervise_observed<T: Send>(
    n_workers: usize,
    labels: Vec<String>,
    cfg: &SupervisorConfig,
    plan: &FaultPlan,
    rec: &Arc<Recorder>,
    live: &Arc<Live>,
    slo: Option<&Arc<SloMonitor>>,
    scene: Option<&SceneSpan>,
    on_complete: impl Fn(usize, &T),
    task: impl Fn(TaskAttempt) -> T + Sync,
) -> Result<(Vec<Option<T>>, TaskReport), SuperviseError> {
    if n_workers == 0 {
        return Err(SuperviseError::NoWorkers);
    }
    // A disabled scene handle records nothing; drop it so the hot path
    // sees one branch.
    let scene = scene.filter(|sc| sc.enabled());
    install_quiet_hook();
    let phase_start = Instant::now();
    let n_tasks = labels.len();
    let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
    let mut outcomes: Vec<TaskOutcome> = labels
        .into_iter()
        .enumerate()
        .map(|(task, label)| TaskOutcome {
            task,
            label,
            status: TaskStatus::Ok,
            attempts: 0,
            elapsed: Duration::ZERO,
            queue_wait: Duration::ZERO,
            retry_latency: Duration::ZERO,
            error: None,
        })
        .collect();
    if n_tasks == 0 {
        return Ok((slots, TaskReport { outcomes }));
    }

    let queue = JobQueue::new(n_tasks);
    let (tx, rx) = mpsc::channel::<AttemptMsg<T>>();
    let mut last_fail: Vec<Option<FailKind>> = vec![None; n_tasks];
    let mut first_start: Vec<Option<Instant>> = vec![None; n_tasks];
    let mut remaining = n_tasks;

    let mut ctl = rec.sink("supervisor");
    if ctl.enabled(ObsLevel::Summary) {
        ctl.begin(
            Category::Supervisor,
            "supervise.phase",
            vec![
                ("tasks", (n_tasks as u64).into()),
                ("workers", (n_workers as u64).into()),
            ],
        );
        if ctl.enabled(ObsLevel::Full) {
            for i in 0..n_tasks {
                ctl.instant(
                    Category::Task,
                    "task.enqueue",
                    vec![("task", (i as u64).into())],
                );
            }
        }
    }

    let ctl_live = live.handle();
    std::thread::scope(|s| {
        for w in 0..n_workers.min(n_tasks) {
            let tx = tx.clone();
            let queue = &queue;
            let task = &task;
            let wlive = Arc::clone(live);
            std::thread::Builder::new()
                .name(format!("{WORKER_NAME}-{w}"))
                .spawn_scoped(s, move || {
                    // Each worker owns a private sink; it flushes on drop
                    // when the queue closes and the thread exits.
                    let mut sink = rec.sink(format!("{WORKER_NAME}-{w}"));
                    if let Some(sc) = scene {
                        // Tag recorder events with the scene's trace id so
                        // flight-recorder output joins against the retained
                        // span trees.
                        sink.set_trace(sc.trace_id());
                    }
                    // And a private live shard, with its series keys built
                    // once — the per-attempt emits must not allocate.
                    let wh = wlive.handle();
                    let worker = w.to_string();
                    let busy_key = series_key("spam_live_worker_busy_us", &[("worker", &worker)]);
                    let tasks_key = series_key("spam_live_worker_tasks", &[("worker", &worker)]);
                    while let Some((i, attempt)) = queue.pop() {
                        if attempt > 0 {
                            // Linear backoff before a retry attempt.
                            std::thread::sleep(cfg.backoff * attempt);
                        }
                        if sink.enabled(ObsLevel::Full) {
                            sink.begin(
                                Category::Task,
                                format!("task.exec t{i}"),
                                vec![
                                    ("task", (i as u64).into()),
                                    ("attempt", (attempt as u64).into()),
                                ],
                            );
                        }
                        // Derive this attempt's span id up front: the sink
                        // handed to the task parents engine/recovery spans
                        // under it, and the span itself is recorded below
                        // once the outcome is known.
                        let attempt_span = scene.map(|sc| {
                            (
                                SpanId::derive(
                                    sc.trace_id(),
                                    "task.exec",
                                    i as u64,
                                    u64::from(attempt),
                                ),
                                sc.now_us(),
                            )
                        });
                        let invocation = TaskAttempt {
                            task: i,
                            attempt,
                            trace: scene
                                .zip(attempt_span)
                                .map(|(sc, (span, _))| sc.sink_under(span)),
                        };
                        let start = Instant::now();
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            if plan.task_panics(i, attempt) {
                                panic!("injected fault: task {i} attempt {attempt}");
                            }
                            task(invocation)
                        }))
                        .map_err(payload_to_string);
                        if sink.enabled(ObsLevel::Full) {
                            sink.end(
                                Category::Task,
                                format!("task.exec t{i}"),
                                vec![("ok", u64::from(result.is_ok()).into())],
                            );
                        }
                        let elapsed = start.elapsed();
                        if let (Some(sc), Some((span, start_us))) = (scene, attempt_span) {
                            sc.record_span(SpanRecord {
                                id: span,
                                parent: Some(sc.root()),
                                kind: SpanKind::Task,
                                name: format!("task.exec t{i} a{attempt}"),
                                worker: format!("{WORKER_NAME}-{w}"),
                                start_us,
                                end_us: sc.now_us(),
                                error: result.as_ref().err().cloned(),
                            });
                        }
                        if wh.enabled() {
                            wh.inc(&busy_key, elapsed.as_micros() as u64);
                            wh.inc(&tasks_key, 1);
                        }
                        let msg = AttemptMsg {
                            task: i,
                            attempt,
                            result,
                            started: start,
                            elapsed,
                        };
                        if tx.send(msg).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn supervised worker");
        }
        drop(tx);

        // Control process: collect attempts, decide retries, fill slots.
        while remaining > 0 {
            let msg = rx.recv().expect("workers alive while tasks outstanding");
            let i = msg.task;
            if msg.attempt == 0 {
                first_start[i] = Some(msg.started);
                outcomes[i].queue_wait = msg.started.duration_since(phase_start);
            } else if let Some(first) = first_start[i] {
                outcomes[i].retry_latency = msg.started.duration_since(first);
            }
            let o = &mut outcomes[i];
            o.attempts = msg.attempt + 1;
            o.elapsed = msg.elapsed;
            let failure = match msg.result {
                Err(err) => {
                    last_fail[i] = Some(FailKind::Panic);
                    Some(err)
                }
                Ok(value) => match cfg.deadline {
                    Some(d) if msg.elapsed > d => {
                        last_fail[i] = Some(FailKind::Deadline);
                        if ctl.enabled(ObsLevel::Full) {
                            ctl.instant(
                                Category::Supervisor,
                                "task.deadline",
                                vec![
                                    ("task", (i as u64).into()),
                                    ("attempt", (msg.attempt as u64).into()),
                                    ("elapsed_s", msg.elapsed.as_secs_f64().into()),
                                ],
                            );
                        }
                        Some(format!(
                            "deadline exceeded: {:.1?} > {:.1?}; result discarded",
                            msg.elapsed, d
                        ))
                    }
                    _ => {
                        if ctl_live.enabled() {
                            ctl_live.inc("spam_live_tasks_completed", 1);
                            ctl_live
                                .observe(tlp_obs::TASK_LATENCY_FAMILY, msg.elapsed.as_secs_f64());
                        }
                        // Mirror the task's result before its epoch closes,
                        // so caller-side series land in the window of the
                        // task that produced them.
                        on_complete(i, &value);
                        let epoch = live.advance_epoch();
                        if let Some(slo) = slo {
                            slo.advance(epoch);
                        }
                        slots[i] = Some(value);
                        o.status = if msg.attempt == 0 {
                            TaskStatus::Ok
                        } else {
                            TaskStatus::Retried(msg.attempt)
                        };
                        o.error = None;
                        remaining -= 1;
                        if ctl.enabled(ObsLevel::Full) {
                            ctl.instant(
                                Category::Task,
                                "task.complete",
                                vec![
                                    ("task", (i as u64).into()),
                                    ("attempts", ((msg.attempt + 1) as u64).into()),
                                ],
                            );
                        }
                        None
                    }
                },
            };
            if let Some(err) = failure {
                o.error = Some(err);
                if msg.attempt < cfg.max_retries {
                    queue.push((i, msg.attempt + 1));
                    ctl_live.inc("spam_live_task_retries", 1);
                    if let Some(sc) = scene {
                        sc.tracing().note_retry(sc.trace_id());
                        let now = sc.now_us();
                        sc.record_span(SpanRecord {
                            id: SpanId::derive(
                                sc.trace_id(),
                                "supervisor.retry",
                                i as u64,
                                u64::from(msg.attempt),
                            ),
                            parent: Some(sc.root()),
                            kind: SpanKind::Aux,
                            name: format!("supervisor.retry t{i} a{}", msg.attempt + 1),
                            worker: "psm-control".into(),
                            start_us: now,
                            end_us: now,
                            error: None,
                        });
                    }
                    if ctl.enabled(ObsLevel::Full) {
                        ctl.instant(
                            Category::Supervisor,
                            "supervisor.retry",
                            vec![
                                ("task", (i as u64).into()),
                                ("next_attempt", ((msg.attempt + 1) as u64).into()),
                            ],
                        );
                    }
                } else {
                    o.status = match last_fail[i] {
                        Some(FailKind::Deadline) => TaskStatus::TimedOut,
                        _ => TaskStatus::Panicked,
                    };
                    ctl_live.inc("spam_live_dead_letters", 1);
                    if let Some(sc) = scene {
                        sc.tracing().note_dead_letter(sc.trace_id());
                        let now = sc.now_us();
                        sc.record_span(SpanRecord {
                            id: SpanId::derive(
                                sc.trace_id(),
                                "supervisor.dead_letter",
                                i as u64,
                                u64::from(msg.attempt),
                            ),
                            parent: Some(sc.root()),
                            kind: SpanKind::Aux,
                            name: format!("supervisor.dead_letter t{i}"),
                            worker: "psm-control".into(),
                            start_us: now,
                            end_us: now,
                            error: o.error.clone(),
                        });
                    }
                    if let Some(slo) = slo {
                        // A dead letter is a breach: the work never
                        // completed, so it burns error budget.
                        slo.observe(msg.elapsed.as_secs_f64(), false);
                    }
                    let epoch = live.advance_epoch();
                    if let Some(slo) = slo {
                        slo.advance(epoch);
                    }
                    remaining -= 1;
                    if ctl.enabled(ObsLevel::Full) {
                        ctl.instant(
                            Category::Supervisor,
                            "supervisor.dead_letter",
                            vec![
                                ("task", (i as u64).into()),
                                ("attempts", ((msg.attempt + 1) as u64).into()),
                            ],
                        );
                    }
                }
            }
            ctl_live.gauge("spam_live_queue_depth", remaining as f64);
        }
        queue.close();
    });

    if ctl.enabled(ObsLevel::Summary) {
        let dead = outcomes.iter().filter(|o| !o.status.succeeded()).count();
        let retries: u32 = outcomes.iter().map(|o| o.attempts.saturating_sub(1)).sum();
        ctl.end(
            Category::Supervisor,
            "supervise.phase",
            vec![
                ("ok", ((n_tasks - dead) as u64).into()),
                ("retries", (retries as u64).into()),
                ("dead_letters", (dead as u64).into()),
            ],
        );
    }
    ctl.flush();

    Ok((slots, TaskReport { outcomes }))
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

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("t{i}")).collect()
    }

    #[test]
    fn all_tasks_succeed_cleanly() {
        let (slots, report) = supervise(
            4,
            labels(10),
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            |i| i * 2,
        )
        .unwrap();
        assert!(report.is_clean());
        assert_eq!(
            slots.into_iter().map(Option::unwrap).collect::<Vec<_>>(),
            (0..10).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_task_list_is_fine() {
        let (slots, report) = supervise(
            3,
            labels(0),
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            |i| i,
        )
        .unwrap();
        assert!(slots.is_empty());
        assert!(report.outcomes.is_empty());
        assert!(report.is_clean());
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let (slots, report) = supervise(
            16,
            labels(3),
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            |i| i,
        )
        .unwrap();
        assert_eq!(slots.iter().flatten().count(), 3);
        assert!(report.is_clean());
    }

    #[test]
    fn zero_workers_rejected() {
        let r = supervise(
            0,
            labels(3),
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            |i| i,
        );
        assert_eq!(r.err(), Some(SuperviseError::NoWorkers));
    }

    #[test]
    fn overhead_summary_totals_match_the_report() {
        let plan = FaultPlan::none().with_task_panic(2, 1);
        let cfg = SupervisorConfig::default().with_retries(2);
        let (_, report) = supervise(2, labels(6), &cfg, &plan, |i| i).unwrap();
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

    #[test]
    fn panicking_task_is_dead_lettered_and_others_complete() {
        let plan = FaultPlan::none().with_task_panic(3, u32::MAX);
        let (slots, report) =
            supervise(2, labels(8), &SupervisorConfig::default(), &plan, |i| i).unwrap();
        assert_eq!(slots.iter().flatten().count(), 7);
        assert!(slots[3].is_none());
        assert_eq!(report.succeeded(), 7);
        let dead = report.dead_letters();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].task, 3);
        assert_eq!(dead[0].status, TaskStatus::Panicked);
        assert!(dead[0].error.as_deref().unwrap().contains("injected fault"));
    }

    #[test]
    fn retry_recovers_a_single_fault() {
        // Task 5 panics only on attempt 0; one retry must fully recover.
        let plan = FaultPlan::none().with_task_panic(5, 1);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(Duration::from_millis(1));
        let (slots, report) = supervise(3, labels(8), &cfg, &plan, |i| i).unwrap();
        assert_eq!(slots.iter().flatten().count(), 8);
        assert_eq!(report.outcomes[5].status, TaskStatus::Retried(1));
        assert_eq!(report.outcomes[5].attempts, 2);
        assert_eq!(report.total_retries(), 1);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let plan = FaultPlan::none().with_task_panic(0, u32::MAX);
        let cfg = SupervisorConfig::default()
            .with_retries(2)
            .with_backoff(Duration::from_millis(1));
        let (slots, report) = supervise(2, labels(2), &cfg, &plan, |i| i).unwrap();
        assert!(slots[0].is_none());
        assert_eq!(report.outcomes[0].status, TaskStatus::Panicked);
        assert_eq!(report.outcomes[0].attempts, 3); // initial + 2 retries
    }

    #[test]
    fn soft_deadline_times_out_slow_tasks() {
        let cfg = SupervisorConfig::default().with_deadline(Duration::from_millis(20));
        let (slots, report) = supervise(2, labels(4), &cfg, &FaultPlan::none(), |i| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(80));
            }
            i
        })
        .unwrap();
        assert!(slots[2].is_none(), "late result must be discarded");
        assert_eq!(report.outcomes[2].status, TaskStatus::TimedOut);
        assert_eq!(slots.iter().flatten().count(), 3);
    }

    #[test]
    fn queue_wait_and_retry_latency_are_recorded() {
        let plan = FaultPlan::none().with_task_panic(1, 1);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(Duration::from_millis(5));
        let (_, report) = supervise(2, labels(3), &cfg, &plan, |i| {
            std::thread::sleep(Duration::from_millis(2));
            i
        })
        .unwrap();
        for o in &report.outcomes {
            // queue_wait is measured from phase start, so it is always
            // well-defined (and tiny for the first tasks grabbed).
            assert!(o.queue_wait < Duration::from_secs(5), "{o:?}");
        }
        // The retried task's retry latency spans first-attempt exec (2 ms)
        // plus backoff (5 ms); the clean tasks report zero.
        assert!(report.outcomes[1].retry_latency >= Duration::from_millis(5));
        assert_eq!(report.outcomes[0].retry_latency, Duration::ZERO);
        let text = report.display(true).to_string();
        assert!(text.contains("queue-wait"), "{text}");
    }

    #[test]
    fn scene_traced_supervision_builds_a_wellformed_span_tree() {
        use tlp_obs::{validate_span_tree, RetainReason, SampleVerdict, SamplerConfig, Tracing};
        let tracing = Tracing::new(SamplerConfig::default());
        let scene = tracing.start_scene(42, "dc");
        // Task 1 fails once and recovers; task 2 dies for good.
        let plan = FaultPlan::none()
            .with_task_panic(1, 1)
            .with_task_panic(2, u32::MAX);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(Duration::from_millis(1));
        let live = Live::off();
        let (slots, report) = supervise_observed(
            2,
            labels(4),
            &cfg,
            &plan,
            &Recorder::off(),
            &live,
            None,
            Some(&scene),
            |_, _| {},
            |a: TaskAttempt| {
                // Stand-in for the engine's cycle mirror: record one aux
                // span through the handed sink.
                if let Some(mut tr) = a.trace {
                    let t0 = tr.now_us();
                    tr.record_aux("engine.cycles x1", t0, tr.now_us(), None);
                }
                a.task
            },
        )
        .unwrap();
        assert_eq!(slots.iter().flatten().count(), 3);
        assert_eq!(report.dead_letters().len(), 1);
        let verdict = scene.finish();
        assert_eq!(
            verdict,
            SampleVerdict::Retained(RetainReason::Errored),
            "a scene with retries and dead letters must be retained"
        );
        let retained = tracing.retained();
        assert_eq!(retained.len(), 1);
        let t = &retained[0];
        assert_eq!(t.retries, 2, "t1's recovery retry + t2's doomed retry");
        assert_eq!(t.dead_letters, 1);
        // One task.exec span per attempt (4 first + 1 retry of t1 + 1
        // retry of t2), one retry marker per re-enqueue, one dead-letter
        // marker, plus the root and the per-attempt engine aux spans.
        let count = |prefix: &str| {
            t.spans
                .iter()
                .filter(|s| s.name.starts_with(prefix))
                .count()
        };
        assert_eq!(count("task.exec"), 6);
        assert_eq!(count("supervisor.retry"), 2);
        assert_eq!(count("supervisor.dead_letter"), 1);
        // Injected panics fire before the task body runs, so only the
        // successful attempts reach the engine stand-in.
        assert_eq!(count("engine.cycles"), 3);
        // Failed attempts carry their panic payload.
        let failed: Vec<_> = t
            .spans
            .iter()
            .filter(|s| s.name.starts_with("task.exec") && s.error.is_some())
            .collect();
        assert_eq!(failed.len(), 3, "t1 a0, t2 a0, t2 a1");
        // The whole tree validates: unique ids, one root, parents exist,
        // intervals nest.
        let doc = t.to_json().write();
        validate_span_tree(&doc).expect("retained trace must be a well-formed span tree");
        // Deterministic ids: a rerun of the same seed + scene yields the
        // same trace id.
        assert_eq!(
            t.trace,
            tlp_obs::TraceId::derive(42, "dc"),
            "trace ids must be derivable for benchdiff comparison"
        );
    }

    #[test]
    fn traced_supervision_emits_phase_and_task_events() {
        use tlp_obs::EventKind;
        let rec = Recorder::new(ObsLevel::Full);
        let plan = FaultPlan::none()
            .with_task_panic(1, 1)
            .with_task_panic(2, u32::MAX);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(Duration::from_millis(1));
        let (slots, report) = supervise_traced(2, labels(4), &cfg, &plan, &rec, |i| i).unwrap();
        assert_eq!(slots.iter().flatten().count(), 3);
        assert_eq!(report.dead_letters().len(), 1);
        let events = rec.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"supervise.phase"));
        assert!(names.contains(&"task.enqueue"));
        assert!(names.contains(&"task.complete"));
        assert!(names.contains(&"supervisor.retry"));
        assert!(names.contains(&"supervisor.dead_letter"));
        // One exec span pair per attempt: 4 first attempts + 1 retry of
        // task 1 + 1 retry of task 2.
        let begins = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin && e.name.starts_with("task.exec"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd && e.name.starts_with("task.exec"))
            .count();
        assert_eq!(begins, 6);
        assert_eq!(ends, 6);
        let threads = rec.threads();
        assert!(threads.iter().any(|t| t == "supervisor"));
        assert!(threads.iter().any(|t| t.starts_with(WORKER_NAME)));
    }

    #[test]
    fn untraced_supervision_records_no_events() {
        let rec = Recorder::off();
        let (slots, _) = supervise_traced(
            2,
            labels(4),
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            &rec,
            |i| i,
        )
        .unwrap();
        assert_eq!(slots.iter().flatten().count(), 4);
        assert!(rec.is_empty());
    }

    #[test]
    fn job_queue_survives_a_poisoned_lock() {
        // Regression: a panic while holding the queue mutex used to poison
        // it, after which every push/pop/close unwrapped a PoisonError and
        // the control process deadlocked behind a dead queue. The queue
        // must now recover the guard and keep serving jobs.
        let queue = Arc::new(JobQueue::new(0));
        let q = Arc::clone(&queue);
        let _ = std::thread::Builder::new()
            // Worker-name prefix keeps the injected panic out of test output.
            .name(format!("{WORKER_NAME}-poisoner"))
            .spawn(move || {
                let _guard = q.state.lock().unwrap();
                panic!("injected: die while holding the queue lock");
            })
            .unwrap()
            .join();
        assert!(queue.state.is_poisoned(), "setup must actually poison");
        queue.push((7, 2));
        assert_eq!(queue.pop(), Some((7, 2)));
        queue.close();
        assert_eq!(queue.pop(), None, "closed empty queue still drains");
    }

    #[test]
    fn supervision_proceeds_after_queue_poisoning() {
        // End-to-end flavour of the regression above: a full supervised
        // phase with retries (which exercises push from the control loop)
        // must complete even though an earlier holder poisoned the lock.
        // We cannot reach the private queue of a running phase from here,
        // so instead verify a phase that retries and dead-letters right
        // after the unit-level poisoning ran in this process still works.
        let plan = FaultPlan::none().with_task_panic(1, 1);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(Duration::from_millis(1));
        let (slots, report) = supervise(2, labels(4), &cfg, &plan, |i| i).unwrap();
        assert_eq!(slots.iter().flatten().count(), 4);
        assert_eq!(report.outcomes[1].status, TaskStatus::Retried(1));
    }

    #[test]
    fn dead_letter_details_survive_death_during_retry() {
        // Task 2 dies on the first attempt AND again on its only retry.
        // The dead-letter entry must still carry the full post-mortem:
        // the final error string, the true attempt count, and a non-zero
        // retry latency — details recorded across the retry boundary, not
        // just from the first failure.
        let plan = FaultPlan::none().with_task_panic(2, 2);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(Duration::from_millis(5));
        let (slots, report) = supervise(2, labels(5), &cfg, &plan, |i| i).unwrap();
        assert!(slots[2].is_none());
        assert_eq!(slots.iter().flatten().count(), 4);
        let dead = report.dead_letters();
        assert_eq!(dead.len(), 1);
        let o = dead[0];
        assert_eq!(o.task, 2);
        assert_eq!(o.status, TaskStatus::Panicked);
        assert_eq!(o.attempts, 2, "initial attempt + the fatal retry");
        // The error must be the *retry's* panic payload (attempt 1), not a
        // stale copy from attempt 0.
        assert_eq!(o.error.as_deref(), Some("injected fault: task 2 attempt 1"));
        // retry_latency spans first-attempt start → retry start, which
        // includes the 5 ms backoff.
        assert!(
            o.retry_latency >= Duration::from_millis(5),
            "retry latency must be recorded for dead letters too: {:?}",
            o.retry_latency
        );
        // And the report renders those details.
        let text = report.display(true).to_string();
        assert!(text.contains("task 2 [t2] after 2 attempts"), "{text}");
        assert!(text.contains("attempt 1"), "{text}");
        assert!(text.contains("retry-latency"), "{text}");
    }

    #[test]
    fn observed_supervision_publishes_live_series() {
        use tlp_obs::LiveValue;
        let live = Live::new(8);
        let plan = FaultPlan::none()
            .with_task_panic(1, 1)
            .with_task_panic(2, u32::MAX);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(Duration::from_millis(1));
        let completed = std::sync::atomic::AtomicUsize::new(0);
        let (slots, report) = supervise_observed(
            2,
            labels(5),
            &cfg,
            &plan,
            &Recorder::off(),
            &live,
            None,
            None,
            |_, _| {
                completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            },
            |a: TaskAttempt| a.task,
        )
        .unwrap();
        assert_eq!(slots.iter().flatten().count(), 4);
        assert_eq!(report.dead_letters().len(), 1);
        assert_eq!(completed.load(std::sync::atomic::Ordering::Relaxed), 4);
        // Logical time: one epoch per terminal task, dead letters included.
        assert_eq!(live.epoch(), 5);
        let snap = live.snapshot();
        let counter_total = |name: &str| match snap.series.get(name) {
            Some(LiveValue::Counter { total, .. }) => *total,
            other => panic!("{name}: expected counter, got {other:?}"),
        };
        assert_eq!(counter_total("spam_live_tasks_completed"), 4);
        assert_eq!(counter_total("spam_live_task_retries"), 2);
        assert_eq!(counter_total("spam_live_dead_letters"), 1);
        assert_eq!(
            snap.series.get("spam_live_queue_depth"),
            Some(&LiveValue::Gauge(0.0)),
            "phase ended with nothing outstanding"
        );
        // Worker shards published busy time and per-attempt counts; total
        // attempts = 5 first attempts + 2 retries.
        assert!(snap
            .series
            .keys()
            .any(|k| k.starts_with("spam_live_worker_busy_us{")));
        let attempts: u64 = snap
            .series
            .iter()
            .filter(|(k, _)| k.starts_with("spam_live_worker_tasks{"))
            .map(|(_, v)| match v {
                LiveValue::Counter { total, .. } => *total,
                _ => 0,
            })
            .sum();
        assert_eq!(attempts, 7);
        match snap.series.get("spam_live_task_latency_seconds") {
            Some(LiveValue::Histogram(h)) => assert_eq!(h.count(), 4),
            other => panic!("latency histogram missing: {other:?}"),
        }
    }

    #[test]
    fn observed_supervision_drives_the_slo_clock() {
        use tlp_obs::{Health, SloConfig, SloMonitor};
        let live = Live::new(8);
        let slo = Arc::new(SloMonitor::new(
            SloConfig::for_scene("test").with_target(10.0),
            live.handle(),
        ));
        let (slots, _) = supervise_observed(
            2,
            labels(6),
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            &Recorder::off(),
            &live,
            Some(&slo),
            None,
            |_i, _v| slo.observe(0.5, true),
            |a: TaskAttempt| a.task,
        )
        .unwrap();
        assert_eq!(slots.iter().flatten().count(), 6);
        assert_eq!(slo.health(), Health::Healthy);
        let snap = live.snapshot();
        assert!(snap.series.contains_key("spam_slo_burn_rate_fast"));
        assert!(snap
            .series
            .contains_key("spam_slo_error_budget_remaining_ratio"));
    }

    #[test]
    fn dead_letters_burn_slo_budget_via_the_supervisor() {
        use tlp_obs::{Health, SloConfig, SloMonitor};
        let live = Live::new(8);
        let slo = Arc::new(SloMonitor::new(
            SloConfig::for_scene("test").with_target(10.0),
            live.handle(),
        ));
        let mut plan = FaultPlan::none();
        for i in 0..40 {
            plan = plan.with_task_panic(i, u32::MAX);
        }
        let cfg = SupervisorConfig::default()
            .with_retries(0)
            .with_backoff(Duration::from_millis(1));
        let (slots, report) = supervise_observed(
            4,
            labels(40),
            &cfg,
            &plan,
            &Recorder::off(),
            &live,
            Some(&slo),
            None,
            |_, _| {},
            |a: TaskAttempt| a.task,
        )
        .unwrap();
        assert_eq!(slots.iter().flatten().count(), 0);
        assert_eq!(report.dead_letters().len(), 40);
        assert_eq!(live.epoch(), 40, "dead letters still advance the clock");
        assert_eq!(
            slo.health(),
            Health::Degraded,
            "a phase of pure failures must trip the burn-rate alert"
        );
        let (_, ok) = slo.healthz_json();
        assert!(!ok, "healthz reports not-ok while degraded");
    }

    #[test]
    fn observed_with_disabled_live_publishes_nothing() {
        let live = Live::off();
        let (slots, report) = supervise_observed(
            2,
            labels(4),
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            &Recorder::off(),
            &live,
            None,
            None,
            |_, _| {},
            |a: TaskAttempt| a.task,
        )
        .unwrap();
        assert_eq!(slots.iter().flatten().count(), 4);
        assert!(report.is_clean());
        assert!(live.snapshot().series.is_empty());
    }

    #[test]
    fn rate_driven_faults_are_deterministic() {
        let plan = FaultPlan::seeded(99).with_task_panic_rate(0.4);
        let cfg = SupervisorConfig::default()
            .with_retries(2)
            .with_backoff(Duration::from_millis(1));
        let run = || {
            let (slots, report) = supervise(4, labels(20), &cfg, &plan, |i| i).unwrap();
            let ok: Vec<usize> = slots.into_iter().flatten().collect();
            let statuses: Vec<TaskStatus> =
                report.outcomes.iter().map(|o| o.status.clone()).collect();
            (ok, statuses)
        };
        let (ok_a, st_a) = run();
        let (ok_b, st_b) = run();
        assert_eq!(ok_a, ok_b, "survivors must be plan-determined");
        assert_eq!(st_a, st_b, "statuses must be plan-determined");
        assert!(st_a.iter().any(|s| !matches!(s, TaskStatus::Ok)));
    }
}
