//! The real work-stealing task executor — "Multimax on real cores".
//!
//! Every TLP number the repo reports elsewhere comes from the Multimax
//! cost-model simulator ([`multimax_sim`]): simulated seconds on a
//! simulated Encore. This module runs the same task set on *real* worker
//! threads and measures wall-clock nanoseconds, so the paper's central
//! claim — near-linear task-level speed-up for hundreds of independent
//! OPS5 engines — can be checked against hardware, not just the model.
//!
//! # Scheduling
//!
//! The seed architecture (and [`crate::supervise`]) uses one shared FIFO
//! queue: every dequeue contends on one lock, which is exactly the
//! task-queue bottleneck §6.2 budgets. Here each worker owns a
//! *deque* in the Chase–Lev discipline — the owner pushes and pops at the
//! back (LIFO, cache-warm), thieves steal from the front (FIFO, the
//! oldest and typically largest chunks) — plus one shared overflow queue
//! (the *injector*) fed by bounded-deque spill-over at distribution time
//! and by the supervisor's retries. The deques are `Mutex<VecDeque>`
//! rather than the lock-free original: this crate forbids `unsafe`, and
//! at SPAM's task granularity (whole OPS5 engine runs, ~milliseconds) a
//! per-deque lock is uncontended noise while preserving the Chase–Lev
//! access pattern that matters for distribution and steal accounting.
//!
//! Initial placement is *dynamically chunked*: tasks are grouped into
//! contiguous chunks whose estimated work reaches the cost model's
//! scheduler granularity ([`paraops5::CostModel::granularity`], via
//! [`ExecConfig::with_cost_model`]) — the OpenMP `schedule(dynamic,k)`
//! idea applied to SPAM's highly skewed task sizes (Tables 5–8). Chunks
//! are dealt round-robin across the worker deques, so each worker's
//! initial working-set of WMEs arrives in batches rather than one task at
//! a time.
//!
//! # Supervision, observability, attribution
//!
//! Nothing is lost relative to the simulator path. Every attempt runs
//! under `catch_unwind` with the same retry/deadline/dead-letter policy
//! as [`crate::supervise::supervise_observed`]; the flight recorder sees
//! `task.exec` spans plus `task.steal` instants; live telemetry gets the
//! per-worker busy/task series plus steal and overflow counters; scene
//! traces get the same derived `task.exec` span ids. The measured
//! schedule is returned as an [`ExecReport`] which converts to a
//! [`multimax_sim::SimResult`] ([`ExecReport::to_sim_result`]) — so the
//! gap accountant ([`crate::attribution::GapAttribution`]) and the Gantt
//! timeline work on measured traces exactly as on simulated ones.

use crate::supervise::{install_quiet_hook, TaskAttempt, WORKER_NAME};
use multimax_sim::{SimResult, TaskExec};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use tlp_fault::{FaultPlan, SuperviseError, SupervisorConfig, TaskOutcome, TaskReport, TaskStatus};
use tlp_obs::{
    series_key, Category, Live, ObsLevel, Recorder, SceneSpan, SloMonitor, SpanId, SpanKind,
    SpanRecord, Timeline,
};

/// Nominal work units per WME a task loads, used to put caller-side task
/// estimates (WME counts) on the same scale as the cost model's
/// `chunk_units` (ParaOPS5's ~100-instruction granularity).
pub const ESTIMATE_UNITS_PER_WME: u64 = 10;

/// Work-stealing executor configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads (capped at the task count when spawning).
    pub workers: usize,
    /// Estimated work units per scheduling chunk: consecutive tasks are
    /// batched until their summed estimate reaches this target. Zero
    /// reads as one (the [`paraops5::CostModel::granularity`] guard).
    pub chunk_target: u64,
    /// Bound on each worker deque at distribution time; chunks beyond it
    /// spill to the shared overflow queue (and are counted).
    pub deque_capacity: usize,
}

impl ExecConfig {
    /// Config for `workers` threads with the default cost model's
    /// scheduler granularity as the chunk target.
    pub fn new(workers: usize) -> ExecConfig {
        ExecConfig::with_cost_model(workers, &paraops5::CostModel::default())
    }

    /// Config whose dynamic chunking is driven by `model`:
    /// `chunk_target = model.granularity()` (the validated, zero-guarded
    /// reading of `chunk_units`).
    pub fn with_cost_model(workers: usize, model: &paraops5::CostModel) -> ExecConfig {
        ExecConfig {
            workers,
            chunk_target: model.granularity(),
            deque_capacity: 64,
        }
    }
}

/// Per-worker scheduling statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// Attempts this worker executed.
    pub executed: u64,
    /// Attempts acquired by stealing from another worker's deque.
    pub stolen: u64,
    /// Attempts taken from the shared overflow queue.
    pub overflow_taken: u64,
    /// Full sweeps (own deque + overflow + every victim) that found
    /// nothing and sent the worker to sleep.
    pub steal_misses: u64,
    /// Seconds spent executing task bodies.
    pub busy_s: f64,
}

/// One measured task attempt: the four schedule timestamps (seconds from
/// phase start) mirror [`multimax_sim::TaskExec`] so the measured run
/// converts losslessly into the simulator's result shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecAttempt {
    /// Task index.
    pub task: usize,
    /// Zero-based attempt number.
    pub attempt: u32,
    /// Worker that ran it.
    pub worker: usize,
    /// Whether the job was stolen from another worker's deque.
    pub stolen: bool,
    /// When the worker began looking for this job (its previous job's
    /// finish, or its spawn).
    pub queued_s: f64,
    /// When the job was acquired (popped, stolen, or taken from
    /// overflow).
    pub acquired_s: f64,
    /// When the task body started (immediately after acquisition; retry
    /// backoff delays the re-enqueue, so it shows up in the
    /// queued→acquired interval, not here).
    pub started_s: f64,
    /// When the task body returned or panicked.
    pub finished_s: f64,
    /// Whether this attempt terminally succeeded (filled its task's
    /// slot): false for panics, deadline rejections, and retried
    /// attempts.
    pub ok: bool,
}

/// The measured schedule of one executed phase.
#[derive(Clone, Debug, Default)]
pub struct ExecReport {
    /// Per-worker scheduling statistics, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// When each worker's thread entered its scheduling loop (seconds
    /// from phase start) — the measured fork overhead.
    pub spawn_ready_s: Vec<f64>,
    /// Scheduling chunks formed at distribution.
    pub chunks: u64,
    /// Jobs that spilled to the shared overflow queue at distribution
    /// (bounded deques were full).
    pub overflowed: u64,
    /// Phase wall-clock seconds (spawn to last terminal decision).
    pub wall_s: f64,
    /// Every attempt, in completion order.
    pub attempts: Vec<ExecAttempt>,
    /// Tasks that dead-lettered (never completed).
    pub lost_tasks: u32,
}

impl ExecReport {
    /// Total steals across workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Total overflow-queue acquisitions across workers.
    pub fn overflow_taken(&self) -> u64 {
        self.workers.iter().map(|w| w.overflow_taken).sum()
    }

    /// Mean worker utilisation over the wall clock (busy seconds over
    /// capacity).
    pub fn utilization(&self) -> f64 {
        if self.wall_s <= 0.0 || self.workers.is_empty() {
            return 0.0;
        }
        self.workers.iter().map(|w| w.busy_s).sum::<f64>()
            / (self.wall_s * self.workers.len() as f64)
    }

    /// Converts the measured schedule into the simulator's result shape,
    /// with wall-clock seconds where the simulator has simulated seconds:
    /// the gap accountant ([`crate::attribution::GapAttribution`]) and
    /// [`multimax_sim::SimResult::timeline`] then work on measured runs
    /// unchanged. Queue-wait is the workers' job-search time (incl. steal
    /// sweeps, idle parking between jobs, and retry backoff — the
    /// re-enqueue is delayed, so the backoff is queue time on otherwise
    /// idle workers, never a stalled pool slot), dequeue is
    /// acquisition-to-start (span bookkeeping only), so the identity
    /// `busy + fork + queue_wait + dequeue + idle = capacity` holds
    /// exactly as it does for simulated results.
    pub fn to_sim_result(&self) -> SimResult {
        let n_workers = self.workers.len();
        let mut executions: Vec<TaskExec> = self
            .attempts
            .iter()
            .map(|a| TaskExec {
                task: a.task as u32,
                worker: a.worker as u32,
                queued_at: a.queued_s,
                acquired: a.acquired_s,
                started: a.started_s,
                finished: a.finished_s,
            })
            .collect();
        executions.sort_by(|a, b| a.started.total_cmp(&b.started));
        let mut busy = vec![0.0; n_workers];
        let mut tasks_executed = vec![0u32; n_workers];
        let mut per_worker_finish = self.spawn_ready_s.clone();
        per_worker_finish.resize(n_workers, 0.0);
        let mut queue_wait = 0.0;
        let mut queue_service = 0.0;
        for e in &executions {
            let w = e.worker as usize;
            busy[w] += e.finished - e.started;
            tasks_executed[w] += 1;
            per_worker_finish[w] = per_worker_finish[w].max(e.finished);
            queue_wait += e.acquired - e.queued_at;
            queue_service += e.started - e.acquired;
        }
        // Completions: the successful attempt per task. Dead letters
        // never complete; they are `lost_tasks`.
        let mut completions: Vec<(u32, f64)> = self
            .attempts
            .iter()
            .filter(|a| a.ok)
            .map(|a| (a.task as u32, a.finished_s))
            .collect();
        completions.sort_by(|a, b| a.1.total_cmp(&b.1));
        let task_retries = self.attempts.iter().filter(|a| a.attempt > 0).count() as u32;
        SimResult {
            makespan: self.wall_s,
            total_work: busy.iter().sum(),
            busy,
            tasks_executed,
            queue_wait,
            queue_service,
            completions,
            per_worker_finish,
            failed_workers: Vec::new(),
            task_retries,
            lost_tasks: self.lost_tasks,
            executions,
            deaths: Vec::new(),
            fork_ready: {
                let mut f = self.spawn_ready_s.clone();
                f.resize(n_workers, 0.0);
                f
            },
        }
    }

    /// Per-worker Gantt timeline of the measured schedule (fork,
    /// wait-queue, dequeue, `exec t{N}`, idle), via the simulator's
    /// timeline builder — every wall-clock instant on every worker is
    /// covered, so `tracecheck`'s coverage gate applies to measured
    /// traces too.
    pub fn timeline(&self, name: &str) -> Timeline {
        self.to_sim_result().timeline(name)
    }
}

/// Greedy dynamic chunking: consecutive tasks batch together until the
/// chunk's summed estimate reaches `chunk_target` (zero reads as one).
/// Every task lands in exactly one chunk; a task whose own estimate
/// exceeds the target forms a singleton chunk.
pub fn chunk_tasks(estimates: &[u64], chunk_target: u64) -> Vec<std::ops::Range<usize>> {
    let target = chunk_target.max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &e) in estimates.iter().enumerate() {
        acc = acc.saturating_add(e.max(1));
        if acc >= target {
            chunks.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < estimates.len() {
        chunks.push(start..estimates.len());
    }
    chunks
}

/// A scheduled job: `(task, attempt)`.
type Job = (usize, u32);

/// How a worker acquired a job — drives the steal/overflow counters.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Source {
    Own,
    Overflow,
    Stolen(usize),
}

/// The work-stealing pool: per-worker deques (owner back, thieves
/// front), a shared overflow/injector queue, and a parking lot.
///
/// Like the supervisor's `JobQueue`, every lock recovers from poisoning:
/// queue state is a plain collection with no half-updatable invariant.
/// The `pending` count under the `sync` lock tracks jobs enqueued
/// anywhere; it rises *before* the job becomes visible in its queue, so
/// a worker that pops a job always decrements a count that already
/// includes it — the counter can never underflow, even when a sweep
/// races a `push_overflow` from the control loop mid-phase. The price
/// is a brief window where `pending > 0` with the job not yet visible:
/// a worker that sweeps empty during the window re-reads the count
/// under the sync lock and retries the sweep instead of sleeping, so no
/// job is ever missed.
struct StealPool {
    deques: Vec<Mutex<VecDeque<Job>>>,
    overflow: Mutex<VecDeque<Job>>,
    sync: Mutex<(u64, bool)>,
    cv: Condvar,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl StealPool {
    fn new(n_workers: usize) -> StealPool {
        StealPool {
            deques: (0..n_workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            overflow: Mutex::new(VecDeque::new()),
            sync: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }

    /// Raises `pending` *before* the caller makes the job visible
    /// (count-then-push is what keeps the decrement in [`Self::acquire`]
    /// underflow-proof; see the struct doc).
    fn announce(&self) {
        relock(self.sync.lock()).0 += 1;
    }

    /// Seeds worker `w`'s deque (distribution time, before workers run).
    fn seed_local(&self, w: usize, job: Job) {
        self.announce();
        relock(self.deques[w].lock()).push_back(job);
        self.cv.notify_one();
    }

    /// Pushes a job to the shared overflow queue (distribution spill or a
    /// supervisor retry).
    fn push_overflow(&self, job: Job) {
        self.announce();
        relock(self.overflow.lock()).push_back(job);
        self.cv.notify_one();
    }

    fn close(&self) {
        relock(self.sync.lock()).1 = true;
        self.cv.notify_all();
    }

    /// One full acquisition sweep for worker `w`: own deque (back), then
    /// overflow (front), then every victim's deque front.
    fn sweep(&self, w: usize) -> Option<(Job, Source)> {
        if let Some(job) = relock(self.deques[w].lock()).pop_back() {
            return Some((job, Source::Own));
        }
        if let Some(job) = relock(self.overflow.lock()).pop_front() {
            return Some((job, Source::Overflow));
        }
        let n = self.deques.len();
        for off in 1..n {
            let v = (w + off) % n;
            if let Some(job) = relock(self.deques[v].lock()).pop_front() {
                return Some((job, Source::Stolen(v)));
            }
        }
        None
    }

    /// Blocks until a job is acquirable or the pool closes empty. Returns
    /// `None` to terminate the worker. The number of failed full sweeps is
    /// added to `misses`; `before_wait` runs after each of them, before
    /// the worker may sleep (workers hand over their held completions
    /// there, so the control loop is never waiting on a sleeping worker's
    /// batch).
    fn acquire(
        &self,
        w: usize,
        misses: &mut u64,
        mut before_wait: impl FnMut(),
    ) -> Option<(Job, Source)> {
        loop {
            if let Some(got) = self.sweep(w) {
                relock(self.sync.lock()).0 -= 1;
                return Some(got);
            }
            *misses += 1;
            before_wait();
            let mut st = relock(self.sync.lock());
            loop {
                if st.0 > 0 {
                    break; // something was announced since the sweep — retry
                }
                if st.1 {
                    return None;
                }
                st = relock(self.cv.wait(st));
            }
        }
    }
}

struct ExecMsg<T> {
    task: usize,
    attempt: u32,
    worker: usize,
    stolen: bool,
    result: Result<T, String>,
    /// Worker-side schedule instants.
    queued: Instant,
    acquired: Instant,
    started: Instant,
    elapsed: Duration,
}

/// Most completions a worker holds before handing them to the control
/// loop. Every hand-over wakes the control thread, which on a small box
/// preempts a worker (~20 µs of worker time each); at SPAM's finest
/// decomposition a task is about as long as that, so workers report in
/// batches. A batch also goes early whenever waiting could matter: on a
/// failed attempt (its retry must re-enter the pool now) and before the
/// worker sleeps. Small enough that live telemetry and the SLO clock,
/// which advance per completion on the control side, lag by well under a
/// millisecond of fine-grained work.
const COMPLETION_BATCH: usize = 32;

/// Sends a worker's held completions, if any, to the control loop as one
/// message. The receiver outlives the worker scope, so the send cannot
/// fail while a worker runs.
fn hand_over<T>(tx: &mpsc::Sender<Vec<ExecMsg<T>>>, held: &mut Vec<ExecMsg<T>>) {
    if !held.is_empty() {
        let _ = tx.send(std::mem::take(held));
    }
}

/// Why the last attempt of a task failed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FailKind {
    Panic,
    Deadline,
}

/// Runs `labels.len()` tasks on the work-stealing pool without
/// observability attached. See [`execute_observed`].
pub fn execute<T: Send>(
    exec: &ExecConfig,
    labels: Vec<String>,
    cfg: &SupervisorConfig,
    plan: &FaultPlan,
    task: impl Fn(usize) -> T + Sync,
) -> Result<(Vec<Option<T>>, TaskReport, ExecReport), SuperviseError> {
    execute_observed(
        exec,
        labels,
        &[],
        cfg,
        plan,
        &Recorder::off(),
        &Live::off(),
        None,
        None,
        |_, _| {},
        |a: TaskAttempt| task(a.task),
    )
}

/// Runs `labels.len()` tasks as real jobs on the work-stealing pool, with
/// the full supervision and observability contract of
/// [`crate::supervise::supervise_observed`] — same retry/deadline/
/// dead-letter policy, same fault injection, same recorder/live/SLO/scene
/// wiring, same derived `task.exec` span ids — plus the measured
/// [`ExecReport`].
///
/// `estimates` gives each task's a-priori work estimate for dynamic
/// chunking (WME counts scaled by [`ESTIMATE_UNITS_PER_WME`], or any
/// consistent unit); empty means uniform. Results are deterministic —
/// identical to the sequential run regardless of worker count, steal
/// order, or scheduling noise — because every result lands in its task's
/// slot and merging is slot-ordered; only the *schedule* in the
/// [`ExecReport`] is machine-dependent.
#[allow(clippy::too_many_arguments)]
pub fn execute_observed<T: Send>(
    exec: &ExecConfig,
    labels: Vec<String>,
    estimates: &[u64],
    cfg: &SupervisorConfig,
    plan: &FaultPlan,
    rec: &Arc<Recorder>,
    live: &Arc<Live>,
    slo: Option<&Arc<SloMonitor>>,
    scene: Option<&SceneSpan>,
    on_complete: impl Fn(usize, &T),
    task: impl Fn(TaskAttempt) -> T + Sync,
) -> Result<(Vec<Option<T>>, TaskReport, ExecReport), SuperviseError> {
    if exec.workers == 0 {
        return Err(SuperviseError::NoWorkers);
    }
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
        return Ok((slots, TaskReport { outcomes }, ExecReport::default()));
    }
    let n_workers = exec.workers.min(n_tasks);

    // Dynamic chunking + round-robin distribution: contiguous chunks of
    // tasks (batched WME arrival) dealt across the bounded deques; spill
    // goes to the shared overflow queue.
    let uniform = vec![1u64; n_tasks];
    let est = if estimates.len() == n_tasks {
        estimates
    } else {
        &uniform
    };
    let chunks = chunk_tasks(est, exec.chunk_target);
    let pool = StealPool::new(n_workers);
    let mut deque_fill = vec![0usize; n_workers];
    let mut overflowed = 0u64;
    let mut ctl = rec.sink("executor");
    if ctl.enabled(ObsLevel::Summary) {
        ctl.begin(
            Category::Supervisor,
            "exec.phase",
            vec![
                ("tasks", (n_tasks as u64).into()),
                ("workers", (n_workers as u64).into()),
                ("chunks", (chunks.len() as u64).into()),
            ],
        );
    }
    for (c, chunk) in chunks.iter().enumerate() {
        let w = c % n_workers;
        for i in chunk.clone() {
            if deque_fill[w] < exec.deque_capacity {
                pool.seed_local(w, (i, 0));
                deque_fill[w] += 1;
            } else {
                pool.push_overflow((i, 0));
                overflowed += 1;
                if ctl.enabled(ObsLevel::Full) {
                    ctl.instant(
                        Category::Task,
                        "exec.overflow",
                        vec![("task", (i as u64).into())],
                    );
                }
            }
        }
    }

    let (tx, rx) = mpsc::channel::<Vec<ExecMsg<T>>>();
    let stats: Vec<Mutex<WorkerStats>> = (0..n_workers)
        .map(|_| Mutex::new(WorkerStats::default()))
        .collect();
    let spawn_ready: Vec<Mutex<f64>> = (0..n_workers).map(|_| Mutex::new(0.0)).collect();
    let mut last_fail: Vec<Option<FailKind>> = vec![None; n_tasks];
    let mut first_start: Vec<Option<Instant>> = vec![None; n_tasks];
    let mut remaining = n_tasks;
    let mut attempts_log: Vec<ExecAttempt> = Vec::with_capacity(n_tasks);
    let ctl_live = live.handle();

    std::thread::scope(|s| {
        for w in 0..n_workers {
            let tx = tx.clone();
            let pool = &pool;
            let task = &task;
            let stats = &stats;
            let spawn_ready = &spawn_ready;
            let wlive = Arc::clone(live);
            std::thread::Builder::new()
                .name(format!("{WORKER_NAME}-ws-{w}"))
                .spawn_scoped(s, move || {
                    let mut sink = rec.sink(format!("{WORKER_NAME}-ws-{w}"));
                    if let Some(sc) = scene {
                        sink.set_trace(sc.trace_id());
                    }
                    let wh = wlive.handle();
                    let worker = w.to_string();
                    let busy_key = series_key("spam_live_worker_busy_us", &[("worker", &worker)]);
                    let tasks_key = series_key("spam_live_worker_tasks", &[("worker", &worker)]);
                    let steals_key = series_key("spam_live_worker_steals", &[("worker", &worker)]);
                    let overflow_key =
                        series_key("spam_live_worker_overflow", &[("worker", &worker)]);
                    *relock(spawn_ready[w].lock()) = phase_start.elapsed().as_secs_f64();
                    let mut my = WorkerStats::default();
                    let mut queued = Instant::now();
                    // Completions not yet handed to the control loop.
                    let mut held: Vec<ExecMsg<T>> = Vec::new();
                    while let Some(((i, attempt), source)) =
                        pool.acquire(w, &mut my.steal_misses, || hand_over(&tx, &mut held))
                    {
                        let acquired = Instant::now();
                        match source {
                            Source::Own => {}
                            Source::Overflow => {
                                my.overflow_taken += 1;
                                if wh.enabled() {
                                    wh.inc(&overflow_key, 1);
                                }
                            }
                            Source::Stolen(victim) => {
                                my.stolen += 1;
                                if wh.enabled() {
                                    wh.inc(&steals_key, 1);
                                }
                                if sink.enabled(ObsLevel::Full) {
                                    sink.instant(
                                        Category::Task,
                                        "task.steal",
                                        vec![
                                            ("task", (i as u64).into()),
                                            ("victim", (victim as u64).into()),
                                            ("thief", (w as u64).into()),
                                        ],
                                    );
                                }
                            }
                        }
                        if sink.enabled(ObsLevel::Full) {
                            sink.begin(
                                Category::Task,
                                format!("task.exec t{i}"),
                                vec![
                                    ("task", (i as u64).into()),
                                    ("attempt", (attempt as u64).into()),
                                    (
                                        "stolen",
                                        u64::from(matches!(source, Source::Stolen(_))).into(),
                                    ),
                                ],
                            );
                        }
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
                        .map_err(crate::supervise::payload_to_string);
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
                                worker: format!("{WORKER_NAME}-ws-{w}"),
                                start_us,
                                end_us: sc.now_us(),
                                error: result.as_ref().err().cloned(),
                            });
                        }
                        if wh.enabled() {
                            wh.inc(&busy_key, elapsed.as_micros() as u64);
                            wh.inc(&tasks_key, 1);
                        }
                        my.executed += 1;
                        my.busy_s += elapsed.as_secs_f64();
                        // What the control loop will rule a failure: its
                        // retry (or dead letter) must not wait for the
                        // batch to fill.
                        let failed = result.is_err() || cfg.deadline.is_some_and(|d| elapsed > d);
                        held.push(ExecMsg {
                            task: i,
                            attempt,
                            worker: w,
                            stolen: matches!(source, Source::Stolen(_)),
                            result,
                            queued,
                            acquired,
                            started: start,
                            elapsed,
                        });
                        if failed || held.len() >= COMPLETION_BATCH {
                            hand_over(&tx, &mut held);
                        }
                        queued = Instant::now();
                    }
                    *relock(stats[w].lock()) = my;
                })
                .expect("spawn executor worker");
        }
        drop(tx);

        // Control process: same decision loop as the supervisor; retries
        // go to the shared overflow queue (cold by definition). Linear
        // backoff delays the *re-enqueue* on a timer thread — a worker
        // sleeping through the backoff would stall a pool slot that
        // could be running other queued work.
        // Workers report completions in batches (`COMPLETION_BATCH`).
        let mut inbox = Vec::new().into_iter();
        while remaining > 0 {
            let Some(msg) = inbox.next() else {
                inbox = rx
                    .recv()
                    .expect("workers alive while tasks outstanding")
                    .into_iter();
                continue;
            };
            let i = msg.task;
            if msg.attempt == 0 {
                first_start[i] = Some(msg.started);
                outcomes[i].queue_wait = msg.started.duration_since(phase_start);
            } else if let Some(first) = first_start[i] {
                outcomes[i].retry_latency = msg.started.duration_since(first);
            }
            let off = |t: Instant| t.duration_since(phase_start).as_secs_f64();
            let mut attempt_rec = ExecAttempt {
                task: i,
                attempt: msg.attempt,
                worker: msg.worker,
                stolen: msg.stolen,
                queued_s: off(msg.queued),
                acquired_s: off(msg.acquired),
                started_s: off(msg.started),
                finished_s: off(msg.started) + msg.elapsed.as_secs_f64(),
                ok: false,
            };
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
            attempt_rec.ok = failure.is_none();
            attempts_log.push(attempt_rec);
            if let Some(err) = failure {
                o.error = Some(err);
                if msg.attempt < cfg.max_retries {
                    let next = msg.attempt + 1;
                    let delay = cfg.backoff * next;
                    if delay.is_zero() {
                        pool.push_overflow((i, next));
                    } else {
                        let pool = &pool;
                        s.spawn(move || {
                            std::thread::sleep(delay);
                            pool.push_overflow((i, next));
                        });
                    }
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
        pool.close();
    });

    let wall_s = phase_start.elapsed().as_secs_f64();
    let worker_stats: Vec<WorkerStats> = stats
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let spawn_ready_s: Vec<f64> = spawn_ready
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let report = ExecReport {
        workers: worker_stats,
        spawn_ready_s,
        chunks: chunks.len() as u64,
        overflowed,
        wall_s,
        lost_tasks: outcomes.iter().filter(|o| !o.status.succeeded()).count() as u32,
        attempts: attempts_log,
    };
    if ctl.enabled(ObsLevel::Summary) {
        let dead = report.lost_tasks;
        let retries: u32 = outcomes.iter().map(|o| o.attempts.saturating_sub(1)).sum();
        ctl.end(
            Category::Supervisor,
            "exec.phase",
            vec![
                ("ok", (n_tasks as u64 - u64::from(dead)).into()),
                ("retries", (retries as u64).into()),
                ("dead_letters", u64::from(dead).into()),
                ("steals", report.steals().into()),
                ("overflow", report.overflowed.into()),
            ],
        );
    }
    ctl.flush();

    Ok((slots, TaskReport { outcomes }, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("t{i}")).collect()
    }

    fn cfg1() -> ExecConfig {
        ExecConfig::new(3)
    }

    #[test]
    fn all_tasks_succeed_in_slot_order() {
        let (slots, report, exec) = execute(
            &cfg1(),
            labels(20),
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            |i| i * 2,
        )
        .unwrap();
        assert!(report.is_clean());
        assert_eq!(
            slots.into_iter().map(Option::unwrap).collect::<Vec<_>>(),
            (0..20).map(|i| i * 2).collect::<Vec<_>>()
        );
        let executed: u64 = exec.workers.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 20, "every task attempted exactly once");
        assert_eq!(exec.attempts.len(), 20);
        assert!(exec.chunks >= 1);
        assert_eq!(exec.lost_tasks, 0);
    }

    #[test]
    fn zero_workers_rejected() {
        let exec = ExecConfig {
            workers: 0,
            ..cfg1()
        };
        let r = execute(
            &exec,
            labels(3),
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            |i| i,
        );
        assert_eq!(r.err(), Some(SuperviseError::NoWorkers));
    }

    #[test]
    fn empty_task_list_is_fine() {
        let (slots, report, exec) = execute(
            &cfg1(),
            labels(0),
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            |i| i,
        )
        .unwrap();
        assert!(slots.is_empty());
        assert!(report.outcomes.is_empty());
        assert!(exec.attempts.is_empty());
    }

    #[test]
    fn phases_around_the_batch_bound_terminate() {
        // One worker, so every completion of the phase goes through one
        // held batch: a single task (handed over before the worker
        // sleeps), exactly one full batch, and one more than that.
        let one = ExecConfig {
            workers: 1,
            ..cfg1()
        };
        for n in [1, COMPLETION_BATCH, COMPLETION_BATCH + 1] {
            let (slots, report, exec) = execute(
                &one,
                labels(n),
                &SupervisorConfig::default(),
                &FaultPlan::none(),
                |i| i,
            )
            .unwrap();
            assert!(report.is_clean());
            assert_eq!(slots.into_iter().flatten().count(), n);
            assert_eq!(exec.attempts.len(), n);
            assert_eq!(exec.workers[0].executed, n as u64);
        }
    }

    #[test]
    fn batched_completions_conserve_attempts_and_close_the_books() {
        // Far more tiny tasks per worker than the batch bound, a third of
        // first attempts failing: every attempt must still be reported
        // exactly once, and the schedule must still add up.
        let plan = FaultPlan::seeded(11).with_task_panic_rate(0.3);
        let cfg = SupervisorConfig::default().with_retries(3);
        let n = 600;
        let (slots, report, exec) = execute(
            &ExecConfig {
                workers: 2,
                chunk_target: 8,
                deque_capacity: 64,
            },
            labels(n),
            &cfg,
            &plan,
            |i| i,
        )
        .unwrap();
        let retries = report.total_retries() as u64;
        assert!(retries > 0, "the plan must make some attempts fail");
        let executed: u64 = exec.workers.iter().map(|w| w.executed).sum();
        let dead = report.dead_letters().len();
        // Every task's last attempt is either its success or its dead
        // letter; every earlier one is a retry.
        assert_eq!(executed, n as u64 + retries);
        assert_eq!(exec.attempts.len() as u64, executed);
        assert_eq!(exec.attempts.iter().filter(|a| a.ok).count(), n - dead);
        assert_eq!(slots.iter().flatten().count(), n - dead);
        assert_eq!(exec.lost_tasks as usize, dead);
        let mut seen: Vec<(usize, u32)> =
            exec.attempts.iter().map(|a| (a.task, a.attempt)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len() as u64, executed, "no attempt reported twice");
        // busy + fork + queue wait + dequeue + idle = workers × makespan.
        let sim = exec.to_sim_result();
        let attr = crate::attribution::GapAttribution::attribute(
            sim.makespan,
            &sim,
            sim.busy.len() as u32,
        );
        let gaps: f64 = attr.components().iter().map(|c| c.1).sum();
        assert!(
            (gaps + attr.busy - attr.capacity()).abs() < attr.capacity().max(1e-9) * 1e-6,
            "busy {} + gap components {gaps} must sum to capacity {}",
            attr.busy,
            attr.capacity()
        );
        assert!(exec.timeline("batched").coverage() > 0.999);
    }

    #[test]
    fn a_failure_inside_a_batch_is_reported_at_once_and_retried_via_overflow() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // One worker pops its deque from the back: t5, t4, t3, ... With
        // six tasks the batch bound is never reached, so without the
        // early hand-over nothing would reach the control loop before the
        // worker runs dry. t3's first attempt panics; t2, which runs
        // next on the same worker, waits until the control loop has
        // processed t5's completion — which travels in the batch the
        // failure pushed out.
        let first_reported = AtomicBool::new(false);
        let waited_in_vain = AtomicBool::new(false);
        let plan = FaultPlan::none().with_task_panic(3, 1);
        let cfg = SupervisorConfig::default().with_retries(1);
        let (slots, report, exec) = execute_observed(
            &ExecConfig {
                workers: 1,
                ..cfg1()
            },
            labels(6),
            &[],
            &cfg,
            &plan,
            &Recorder::off(),
            &Live::off(),
            None,
            None,
            |i, _: &usize| {
                if i == 5 {
                    first_reported.store(true, Ordering::SeqCst);
                }
            },
            |a: TaskAttempt| {
                if a.task == 2 {
                    let give_up = Instant::now() + Duration::from_secs(20);
                    while !first_reported.load(Ordering::SeqCst) {
                        if Instant::now() > give_up {
                            waited_in_vain.store(true, Ordering::SeqCst);
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                a.task
            },
        )
        .unwrap();
        assert!(
            !waited_in_vain.load(Ordering::SeqCst),
            "the failed attempt must hand its batch over without waiting for the bound"
        );
        assert_eq!(slots.iter().flatten().count(), 6);
        assert_eq!(report.outcomes[3].status, TaskStatus::Retried(1));
        let retry = exec
            .attempts
            .iter()
            .find(|a| a.task == 3 && a.attempt == 1)
            .expect("the retry ran");
        assert!(retry.ok);
        assert_eq!(
            exec.overflow_taken(),
            1,
            "the retry re-entered via overflow"
        );
        assert_eq!(exec.attempts.len(), 7);
    }

    #[test]
    fn chunking_respects_the_target() {
        // Uniform unit estimates, target 4: chunks of 4 tasks.
        let chunks = chunk_tasks(&[1; 10], 4);
        assert_eq!(chunks, vec![0..4, 4..8, 8..10]);
        // A huge task forms a singleton chunk.
        let chunks = chunk_tasks(&[1, 100, 1, 1], 4);
        assert_eq!(chunks, vec![0..2, 2..4]);
        // Zero target reads as one: every task is its own chunk.
        let chunks = chunk_tasks(&[1, 1, 1], 0);
        assert_eq!(chunks.len(), 3);
        // Zero estimates read as one, so chunking still terminates with
        // full coverage.
        let chunks = chunk_tasks(&[0, 0, 0, 0], 2);
        let covered: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(covered, 4);
    }

    #[test]
    fn pending_counter_survives_racing_overflow_pushes() {
        // Regression: push_overflow used to make the job visible before
        // raising `pending`, so a worker racing the push could consume
        // the job and decrement the counter through zero (u64 underflow:
        // panic in debug, transient u64::MAX in release). Hammer
        // concurrent pushes against spinning consumers — under the buggy
        // ordering this trips the debug overflow check almost instantly.
        use std::sync::atomic::{AtomicU64, Ordering};
        const PUSHERS: usize = 2;
        const JOBS: usize = 2000;
        let pool = StealPool::new(2);
        let consumed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for w in 0..2 {
                let pool = &pool;
                let consumed = &consumed;
                s.spawn(move || {
                    let mut misses = 0u64;
                    while pool.acquire(w, &mut misses, || {}).is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let pushers: Vec<_> = (0..PUSHERS)
                .map(|p| {
                    let pool = &pool;
                    s.spawn(move || {
                        for j in 0..JOBS {
                            pool.push_overflow((p * JOBS + j, 0));
                        }
                    })
                })
                .collect();
            for h in pushers {
                h.join().unwrap();
            }
            pool.close();
        });
        assert_eq!(consumed.load(Ordering::Relaxed), (PUSHERS * JOBS) as u64);
    }

    #[test]
    fn retry_backoff_delays_the_reenqueue_not_a_worker() {
        // Regression: the backoff used to be slept by the worker after
        // popping the retry, stalling a pool slot for the whole delay.
        // Now the control loop delays the re-enqueue, so the backoff is
        // queue time (queued→acquired), not dequeue time
        // (acquired→started).
        let plan = FaultPlan::none().with_task_panic(0, 1);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(Duration::from_millis(40));
        let (slots, report, exec) = execute(&cfg1(), labels(1), &cfg, &plan, |i| i).unwrap();
        assert_eq!(slots[0], Some(0));
        assert!(report.outcomes[0].retry_latency >= Duration::from_millis(40));
        let retry = exec
            .attempts
            .iter()
            .find(|a| a.attempt == 1)
            .expect("retry attempt recorded");
        assert!(
            retry.acquired_s - retry.queued_s >= 0.035,
            "backoff must surface as queue wait, got {:.4}s",
            retry.acquired_s - retry.queued_s
        );
        assert!(
            retry.started_s - retry.acquired_s < 0.020,
            "no worker may sleep through the backoff, got {:.4}s",
            retry.started_s - retry.acquired_s
        );
    }

    #[test]
    fn retry_recovers_and_dead_letters_are_reported() {
        let plan = FaultPlan::none()
            .with_task_panic(5, 1)
            .with_task_panic(2, u32::MAX);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(Duration::from_millis(1));
        let (slots, report, exec) = execute(&cfg1(), labels(10), &cfg, &plan, |i| i).unwrap();
        assert_eq!(slots.iter().flatten().count(), 9);
        assert!(slots[2].is_none());
        assert_eq!(report.outcomes[5].status, TaskStatus::Retried(1));
        assert_eq!(report.dead_letters().len(), 1);
        assert_eq!(exec.lost_tasks, 1);
        // 10 first attempts + t5 retry + t2 retry.
        assert_eq!(exec.attempts.len(), 12);
    }

    #[test]
    fn deterministic_results_under_seeded_faults() {
        let plan = FaultPlan::seeded(7).with_task_panic_rate(0.3);
        let cfg = SupervisorConfig::default()
            .with_retries(2)
            .with_backoff(Duration::from_millis(1));
        let run = || {
            let (slots, report, _) = execute(&cfg1(), labels(24), &cfg, &plan, |i| i).unwrap();
            let ok: Vec<usize> = slots.into_iter().flatten().collect();
            let st: Vec<TaskStatus> = report.outcomes.iter().map(|o| o.status.clone()).collect();
            (ok, st)
        };
        let a = run();
        let b = run();
        assert_eq!(
            a, b,
            "results must be plan-determined, not schedule-determined"
        );
    }

    #[test]
    fn measured_report_converts_to_a_covered_sim_result() {
        let (_, _, exec) = execute(
            &ExecConfig {
                workers: 4,
                chunk_target: 2,
                deque_capacity: 2,
            },
            labels(40),
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            |i| {
                // A little real work so spans have width.
                let mut acc = 0u64;
                for k in 0..((i as u64 % 7) + 1) * 1000 {
                    acc = acc.wrapping_add(k);
                }
                acc
            },
        )
        .unwrap();
        // Bounded deques (capacity 2/worker, 40 singleton-ish chunks)
        // must have spilled to the overflow queue.
        assert!(exec.overflowed > 0, "distribution must overflow");
        let conservation: u64 = exec.workers.iter().map(|w| w.executed).sum();
        assert_eq!(conservation, 40);
        let sim = exec.to_sim_result();
        assert_eq!(sim.executions.len(), 40);
        assert_eq!(sim.completions.len(), 40);
        assert_eq!(sim.tasks_executed.iter().sum::<u32>(), 40);
        assert!((sim.makespan - exec.wall_s).abs() < 1e-12);
        // The measured timeline covers every instant on every worker —
        // the same invariant the simulator's timeline holds.
        let tl = exec.timeline("exec-real");
        assert!(
            tl.coverage() > 0.999,
            "measured Gantt must be gap-free: {}",
            tl.coverage()
        );
        // And the gap accountant closes its books on the measured run.
        let attr = crate::attribution::GapAttribution::attribute(
            sim.makespan,
            &sim,
            sim.busy.len() as u32,
        );
        let total: f64 = attr.components().iter().map(|c| c.1).sum();
        assert!(
            (total + attr.busy - attr.capacity()).abs() < attr.capacity().max(1e-9) * 1e-6,
            "busy {} + gap components {total} must sum to capacity {}",
            attr.busy,
            attr.capacity()
        );
        assert!(
            (total - attr.gap()).abs() < attr.capacity().max(1e-9) * 1e-6,
            "components {total} must sum to the gap {}",
            attr.gap()
        );
    }

    #[test]
    fn live_and_recorder_wiring_matches_the_supervisor_contract() {
        use tlp_obs::LiveValue;
        let live = Live::new(8);
        let rec = Recorder::new(ObsLevel::Full);
        let plan = FaultPlan::none().with_task_panic(1, 1);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(Duration::from_millis(1));
        let (slots, report, _) = execute_observed(
            &ExecConfig {
                workers: 2,
                chunk_target: 1,
                deque_capacity: 64,
            },
            labels(6),
            &[],
            &cfg,
            &plan,
            &rec,
            &live,
            None,
            None,
            |_, _| {},
            |a: TaskAttempt| a.task,
        )
        .unwrap();
        assert_eq!(slots.iter().flatten().count(), 6);
        assert_eq!(report.total_retries(), 1);
        assert_eq!(live.epoch(), 6);
        let snap = live.snapshot();
        let total = |name: &str| match snap.series.get(name) {
            Some(LiveValue::Counter { total, .. }) => *total,
            other => panic!("{name}: expected counter, got {other:?}"),
        };
        assert_eq!(total("spam_live_tasks_completed"), 6);
        assert_eq!(total("spam_live_task_retries"), 1);
        assert!(snap
            .series
            .keys()
            .any(|k| k.starts_with("spam_live_worker_busy_us{")));
        let names: Vec<String> = rec.events().into_iter().map(|e| e.name).collect();
        assert!(names.iter().any(|n| n == "exec.phase"), "{names:?}");
        assert!(
            names.iter().any(|n| n.starts_with("task.exec")),
            "{names:?}"
        );
        assert!(names.iter().any(|n| n == "supervisor.retry"), "{names:?}");
    }

    #[test]
    fn scene_traced_execution_builds_a_wellformed_span_tree() {
        use tlp_obs::{validate_span_tree, SamplerConfig, Tracing};
        let tracing = Tracing::new(SamplerConfig::default());
        let scene = tracing.start_scene(42, "dc");
        let plan = FaultPlan::none().with_task_panic(1, 1);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(Duration::from_millis(1));
        let live = Live::off();
        let (slots, _, _) = execute_observed(
            &cfg1(),
            labels(4),
            &[],
            &cfg,
            &plan,
            &Recorder::off(),
            &live,
            None,
            Some(&scene),
            |_, _| {},
            |a: TaskAttempt| a.task,
        )
        .unwrap();
        assert_eq!(slots.iter().flatten().count(), 4);
        scene.finish();
        let retained = tracing.retained();
        assert_eq!(retained.len(), 1);
        let t = &retained[0];
        let execs = t
            .spans
            .iter()
            .filter(|s| s.name.starts_with("task.exec"))
            .count();
        assert_eq!(execs, 5, "4 first attempts + 1 retry");
        let doc = t.to_json().write();
        validate_span_tree(&doc).expect("executor trace must be a well-formed span tree");
    }
}
