//! The supervised phase runner — the paper's execution model (§5.1) on
//! real threads: a control process (the calling thread), a task queue, and
//! `n` task processes (workers), each running whole OPS5 engine tasks.
//!
//! There is one runner, [`execute`], and it is the only place in the crate
//! that forks task workers, catches a task's panic, or decides a retry. Its
//! one product caller is [`crate::tlp::run_phase`], which supplies the task
//! closure for any SPAM phase; everything above that (`spamctl`, the
//! benches) describes *how* a phase is to be run with one [`PhaseRun`]
//! value — where tasks are placed, the supervision policy, the fault plan,
//! the observers.
//!
//! # Task processes are resident
//!
//! The paper forks its task processes once, outside the measured region.
//! So does this module: `psm-task-*` threads live in a process-wide
//! registry, parked between phases, and [`execute`] *leases* as many as the
//! phase has workers. The registry grows on demand to the largest
//! concurrent lease and is sized by nothing else. A lease hands a parked
//! thread the whole phase as one type-erased `Arc` — which is why the task
//! closure and its result are `'static`: a resident thread outlives every
//! caller's stack frame, and this crate forbids the `unsafe` that would let
//! it borrow from one. What a task process keeps from task to task — for
//! the SPAM phases, its OPS5 engine — is a value `S: Default` the worker
//! makes when it picks the phase up and lends to every task it runs; it
//! does not outlive the phase. The control process wakes its workers
//! *before* it deals the tasks (their wake-up overlaps the deal), and when
//! the phase is over waits on a completion latch rather than joining
//! threads: a worker flushes its recorder sink, writes its statistics,
//! parks itself in the registry and only then counts the latch down — so
//! back-to-back phases reuse the same threads — and drops its `S` after
//! that, off the control process's critical path. A resident thread that
//! died (a panic outside `catch_unwind`) is replaced at the next lease; the
//! phase it died in fails loudly.
//!
//! # Placement: central FIFO vs chunked deques
//!
//! The pool is per-worker *deques* in the Chase–Lev discipline — the owner
//! pops at the back (LIFO, cache-warm), thieves steal from the front (FIFO,
//! the oldest and typically largest chunks) — plus one shared overflow FIFO
//! (the *injector*) that every worker drains front-first before it steals.
//! Chunks that do not fit a deque at distribution time spill to the
//! overflow queue in task order, and every retry re-enters at its back.
//!
//! * **Chunked deques** ([`ExecConfig::new`] / [`ExecConfig::with_cost_model`]):
//!   tasks are grouped into contiguous chunks whose estimated work reaches
//!   the cost model's scheduler granularity
//!   ([`paraops5::CostModel::granularity`]) — OpenMP `schedule(dynamic,k)`
//!   applied to SPAM's highly skewed task sizes (Tables 5–8) — and dealt
//!   round-robin across the deques.
//! * **Central queue** ([`ExecConfig::central_queue`]): the same pool with
//!   zero-capacity deques and one task per chunk. Every task spills, so the
//!   overflow FIFO *is* the paper's single task queue: workers take tasks
//!   in task order, a retry goes to the back, nothing is ever stolen. It is
//!   a placement, not a second implementation — §6.2's task-queue
//!   bottleneck on one lock.
//!
//! **The chunk is the job.** A chunk is dealt, spilled, popped and stolen
//! whole; a worker that acquires one runs its tasks in order. Dynamic
//! scheduling pays only while the unit of work *and its dispatch* are
//! cheap, and at SPAM's finest decomposition a task is a few microseconds:
//! lock round-trips, the `pending` count and wake-ups are therefore paid
//! per chunk, never per task; the control process deals privately and
//! publishes the whole distribution at once, with one wake-up. A retry is
//! a job of one task. Counters still count tasks.
//!
//! The deques are `Mutex<VecDeque>` rather than the lock-free original:
//! this crate forbids `unsafe`, and at chunk granularity a per-deque lock
//! is uncontended noise while preserving the access pattern that matters
//! for distribution and steal accounting.
//!
//! # Supervision
//!
//! The paper's runs simply died when a task process did. Here the control
//! process is a *supervisor*:
//!
//! * every attempt runs under [`std::panic::catch_unwind`], so a panicking
//!   task is isolated — the phase completes with the surviving results;
//! * a failed attempt is retried up to [`SupervisorConfig::max_retries`]
//!   times with linear backoff. The backoff delays the *re-enqueue*: the
//!   control loop keeps the retries that are not yet due and never waits
//!   for a completion past the earliest of them. No worker ever sleeps
//!   through a backoff, so it reads as queue time, never as a stalled pool
//!   slot. Tasks that exhaust their budget go to the dead-letter list in
//!   the [`TaskReport`];
//! * an optional *soft* deadline is enforced post-hoc: task threads cannot
//!   be preempted, so an attempt that returns after the deadline has its
//!   result discarded and is treated as a failure;
//! * a [`FaultPlan`] can fate specific `(task, attempt)` pairs to panic,
//!   making the whole retry machinery reproducible under test.
//!
//! # Observability, attribution
//!
//! The flight recorder sees one `exec.phase` span, `task.exec` spans on
//! each worker's track, `task.steal` instants and every control decision;
//! live telemetry gets task/queue health and per-worker series; scene
//! traces get derived `task.exec` span ids (see [`Observer`]). Sinks and
//! live shards are per phase, not per thread: nothing a worker recorded in
//! one phase can surface in the next. The measured schedule comes back as
//! an [`ExecReport`], which converts to a [`multimax_sim::SimResult`]
//! ([`ExecReport::to_sim_result`]) — so the gap accountant
//! ([`crate::attribution::GapAttribution`]) and the Gantt timeline work on
//! measured runs exactly as on simulated ones. A worker reads the clock at
//! task boundaries only: a task's finish instant is the next one's
//! `queued` (and, inside a chunk, its `acquired`). And it reads *one*
//! clock: the recorder's `task.exec` span, the scene trace's, the live
//! busy counter and the [`ExecAttempt`] are all stamped from the attempt's
//! own start and finish instants, so the four accounts of a run's busy
//! time agree (`tests/cross_source_agreement.rs` holds them within 1 %).

use crate::supervise::{install_quiet_hook, payload_to_string, TaskAttempt, WORKER_NAME};
use multimax_sim::{SimResult, TaskExec};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use tlp_fault::{FaultPlan, SuperviseError, SupervisorConfig, TaskOutcome, TaskReport, TaskStatus};
use tlp_obs::{
    series_key, Category, EventKind, Live, ObsLevel, Recorder, SceneSpan, SloMonitor, SpanId,
    SpanKind, SpanRecord, Timeline,
};

/// Nominal work units per WME a task loads, used to put caller-side task
/// estimates (WME counts) on the same scale as the cost model's
/// `chunk_units` (ParaOPS5's ~100-instruction granularity).
pub const ESTIMATE_UNITS_PER_WME: u64 = 10;

/// Where a phase's tasks are placed: worker count, chunking, deque bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Task processes leased for the phase (capped at the task count).
    pub workers: usize,
    /// Estimated work units per scheduling chunk: consecutive tasks are
    /// batched until their summed estimate reaches this target. Zero
    /// reads as one (the [`paraops5::CostModel::granularity`] guard).
    pub chunk_target: u64,
    /// Bound on each worker deque at distribution time, in tasks: a deque
    /// with room takes its next chunk whole, a chunk dealt to a full one
    /// spills to the shared overflow queue (and its tasks are counted).
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

    /// The paper's central task queue (§5.1) as a placement: no task is
    /// dealt to a worker, every task spills in task order to the shared
    /// overflow FIFO, and `workers` threads drain it front-first (module
    /// docs, "Placement"). Each task is its own chunk.
    pub fn central_queue(workers: usize) -> ExecConfig {
        ExecConfig {
            workers,
            chunk_target: 1,
            deque_capacity: 0,
        }
    }
}

/// What watches a phase while it runs. Every observer only reads: results
/// are bit-identical with any of them attached, disabled or absent, and a
/// disabled one costs a branch per emit.
///
/// * `rec` — the flight recorder. The control process registers an
///   `executor` sink and every worker its own `psm-task-{w}` sink; at
///   `Summary` level the phase is one `exec.phase` span, at `Full` level
///   each attempt is a `task.exec` span on its worker's track and every
///   control decision (spill, steal, retry, deadline rejection, dead
///   letter, completion) is an instant event.
/// * `live` — the sliding-window registry. The control process publishes
///   `spam_live_tasks_completed` / `spam_live_task_retries` /
///   `spam_live_dead_letters`, the `spam_live_task_latency_seconds`
///   histogram of successful attempts and the `spam_live_queue_depth`
///   gauge of tasks still outstanding; each worker publishes
///   `spam_live_worker_{busy_us,tasks,steals,overflow}{worker="w"}` from
///   its own shard, once per job (busy time is kept in nanoseconds and
///   published in whole microseconds, so nothing is rounded away per
///   task). Logical time advances one epoch per *terminal* task
///   (success or dead letter), so window widths read as "the last N
///   finished tasks".
/// * `slo` — advanced on the same clock; a dead-lettered task is charged
///   to it as a breach (failed work burns error budget even though no
///   latency sample exists for it).
/// * `span` — an enabled [`SceneSpan`] makes each attempt a `task.exec`
///   span under the scene root (recorded by the worker that ran it, so
///   worker hops are visible), retries and dead letters marker spans
///   recorded by the control thread, and hands the task closure a
///   [`tlp_obs::SpanSink`] parented under its attempt
///   ([`TaskAttempt::trace`]). Span ids are derived from
///   `(trace, task, attempt)`, so both sides of the channel agree on them
///   without coordination.
#[derive(Clone)]
pub struct Observer<'a> {
    /// Flight recorder.
    pub rec: Arc<Recorder>,
    /// Live telemetry registry.
    pub live: Arc<Live>,
    /// SLO monitor driven by the phase's logical clock.
    pub slo: Option<Arc<SloMonitor>>,
    /// Scene-scoped trace the phase's attempts record under.
    pub span: Option<&'a SceneSpan>,
}

impl Observer<'static> {
    /// Nothing attached: a disabled recorder and registry, no SLO, no span.
    pub fn off() -> Observer<'static> {
        Observer {
            rec: Recorder::off(),
            live: Live::off(),
            slo: None,
            span: None,
        }
    }
}

/// How one phase is run: the single value [`crate::tlp::run_phase`] takes
/// instead of re-threading placement, policy, plan and observers. Build it
/// with [`PhaseRun::new`] and struct-update what differs.
#[derive(Clone)]
pub struct PhaseRun<'a> {
    /// Task placement.
    pub exec: ExecConfig,
    /// Supervision policy (retries, backoff, soft deadline).
    pub cfg: SupervisorConfig,
    /// Deterministic fault injection.
    pub plan: FaultPlan,
    /// What watches the phase.
    pub obs: Observer<'a>,
}

impl PhaseRun<'static> {
    /// `exec`'s placement under the default policy (no deadline, no
    /// retries), no injected faults, nothing observing. A
    /// panicking task is still isolated and reported, not fatal.
    pub fn new(exec: ExecConfig) -> PhaseRun<'static> {
        PhaseRun {
            exec,
            cfg: SupervisorConfig::default(),
            plan: FaultPlan::none(),
            obs: Observer::off(),
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
    /// Clock reads this worker made (the budget is two per task plus one
    /// per acquired job; see `the_clock_is_read_at_task_boundaries_only`).
    #[cfg(test)]
    pub(crate) clock_reads: u64,
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
    /// Whether the task's chunk was stolen from another worker's deque.
    pub stolen: bool,
    /// When the worker became free for this task: its previous task's
    /// finish, or its pick-up of the phase.
    pub queued_s: f64,
    /// When the task's job was acquired (popped, stolen, or taken from
    /// overflow); for a task inside a chunk, the finish of the one before
    /// it — the chunk was already in hand.
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
    /// Seconds from phase start until worker *w* picked the phase up: the
    /// wake-up latency of a parked task process (or, for the first phase
    /// that needs it, its fork). The workers are woken before the tasks
    /// are dealt, so none of the distribution is charged here.
    pub spawn_ready_s: Vec<f64>,
    /// Scheduling chunks formed at distribution.
    pub chunks: u64,
    /// Tasks that spilled to the shared overflow queue at distribution
    /// (bounded deques were full).
    pub overflowed: u64,
    /// Phase wall-clock seconds (lease to the last worker counted out).
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
    /// unchanged. Fork is each worker's pick-up latency
    /// ([`ExecReport::spawn_ready_s`]: waking a parked task process, not
    /// creating one, and none of the distribution). Queue-wait is the
    /// workers' job-search time (incl. steal sweeps, idle parking between
    /// jobs, and retry backoff — the re-enqueue is delayed, so the backoff
    /// is queue time on otherwise idle workers, never a stalled pool
    /// slot), dequeue is acquisition-to-start (span bookkeeping only), so
    /// the identity `busy + fork + queue_wait + dequeue + idle = capacity`
    /// holds exactly as it does for simulated results.
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

/// A phase's slots in task order (`None`: dead-lettered), report, schedule.
pub type PhaseOutcome<T> = (Vec<Option<T>>, TaskReport, ExecReport);

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

/// A scheduled job — what the pool deals, spills, pops and steals, always
/// whole: a chunk of first attempts (what [`chunk_tasks`] formed), or a
/// single retry (`attempt > 0`, one task).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Job {
    tasks: Range<usize>,
    attempt: u32,
}

impl Job {
    fn retry(task: usize, attempt: u32) -> Job {
        Job {
            tasks: task..task + 1,
            attempt,
        }
    }
}

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
/// Every lock recovers from poisoning ([`relock`]): queue state is a plain
/// collection with no invariant a panicking holder could leave
/// half-updated, so a panic *outside* `catch_unwind` while holding one
/// (an allocation failure, a chaos fault in the push path) must not turn
/// every later push/pop into a panic and deadlock the control process
/// behind a dead queue.
/// The `pending` count under the `sync` lock tracks jobs enqueued
/// anywhere; it rises *before* the job becomes visible in its queue, so
/// a worker that pops a job always decrements a count that already
/// includes it — the counter can never underflow, even when a sweep
/// races a push from the control loop mid-phase. The price is a brief
/// window where `pending > 0` with the job not yet visible: a worker that
/// sweeps empty during the window re-reads the count under the sync lock
/// and retries the sweep instead of sleeping, so no job is ever missed.
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

    /// Publishes a whole distribution — one queue per worker deque and the
    /// spill for the shared overflow queue, dealt privately by the control
    /// process — and wakes every sleeping worker, once. A worker that is
    /// already awake sees none of the deal or all of its own queue, never a
    /// deal in progress: on a small box a worker that found the first
    /// chunks would run them on the dealer's processor. `pending` rises
    /// before any job becomes visible (count-then-push is what keeps the
    /// decrement in [`Self::acquire`] underflow-proof; see the struct doc).
    fn publish(&self, dealt: Vec<VecDeque<Job>>, spilled: VecDeque<Job>) {
        let jobs = dealt.iter().map(VecDeque::len).sum::<usize>() + spilled.len();
        relock(self.sync.lock()).0 += jobs as u64;
        for (deque, mut queue) in self.deques.iter().zip(dealt) {
            relock(deque.lock()).append(&mut queue);
        }
        relock(self.overflow.lock()).extend(spilled);
        self.cv.notify_all();
    }

    /// Pushes one job to the shared overflow queue mid-phase (a supervisor
    /// retry) and wakes a worker for it.
    fn push_overflow(&self, job: Job) {
        relock(self.sync.lock()).0 += 1;
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
    finished: Instant,
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
/// message. The control process keeps the receiver until every worker has
/// counted the latch down, so the send cannot fail while a worker runs.
fn hand_over<T>(tx: &mpsc::Sender<Vec<ExecMsg<T>>>, held: &mut Vec<ExecMsg<T>>) {
    if !held.is_empty() {
        let _ = tx.send(std::mem::take(held));
    }
}

/// Counts a phase's workers out: the control process waits here, where
/// `thread::scope` used to join. `died` remembers a worker that unwound
/// out of its loop instead of finishing it.
struct Latch {
    left: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Latch {
    fn new(workers: usize) -> Latch {
        Latch {
            left: Mutex::new((workers, false)),
            cv: Condvar::new(),
        }
    }

    fn count_down(&self, died: bool) {
        let mut st = relock(self.left.lock());
        st.0 -= 1;
        st.1 |= died;
        if st.0 == 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until every worker has counted down; whether one died.
    fn wait(&self) -> bool {
        let mut st = relock(self.left.lock());
        while st.0 > 0 {
            st = relock(self.cv.wait(st));
        }
        st.1
    }
}

/// A running phase as a resident task process sees it, type-erased.
trait PhaseWork: Send + Sync {
    /// Worker `w`'s whole share of the phase: acquire jobs until the pool
    /// closes empty, then flush and file the worker's statistics. Returns
    /// the worker's per-phase state, for the worker to drop once it has
    /// counted out.
    fn work(&self, w: usize) -> Box<dyn Any>;
    /// Counts the worker out; `died` if it is unwinding.
    fn done(&self, died: bool);
}

/// What a lease hands a parked task process: the phase and the worker
/// index it is to be in it.
type Lease = (Arc<dyn PhaseWork>, usize);

/// The parked task processes, each by the sender of its private channel.
/// Grown by [`lease`] when it runs short, never shrunk: its size is the
/// largest number of workers ever leased at once.
static PARKED: Mutex<Vec<mpsc::Sender<Lease>>> = Mutex::new(Vec::new());

/// Task processes forked so far (names them).
static FORKED: AtomicUsize = AtomicUsize::new(0);

/// Leases `n` task processes to `phase`, waking each with its worker
/// index. Parked threads are taken first and the shortfall is forked —
/// which is also how a thread that died is replaced: it never parked
/// again ([`resident`]).
fn lease(phase: &Arc<dyn PhaseWork>, n: usize) {
    let mut parked = {
        let mut all = relock(PARKED.lock());
        let keep = all.len().saturating_sub(n);
        all.split_off(keep)
    };
    for w in 0..n {
        let process = parked.pop().unwrap_or_else(fork);
        let sent = process.send((Arc::clone(phase), w));
        assert!(sent.is_ok(), "a parked task process is alive");
    }
}

/// Forks one resident task process and returns the sender it is leased
/// through. The thread is detached on purpose — it lives as long as the
/// process does; a phase observes its death through the [`Latch`].
fn fork() -> mpsc::Sender<Lease> {
    let (tx, rx) = mpsc::channel::<Lease>();
    let me = tx.clone();
    let k = FORKED.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    let alive = census::Alive::enter();
    std::thread::Builder::new()
        .name(format!("{WORKER_NAME}-{k}"))
        .spawn(move || {
            #[cfg(test)]
            let _alive = alive;
            resident(&rx, &me);
        })
        .expect("spawn task process");
    tx
}

/// The life of a resident task process: wait for a lease, work the phase,
/// park, count out, tidy up, wait again. A panic that escapes
/// [`PhaseWork::work`] ends the thread before it parks (its per-phase
/// state goes with the unwind); [`CountOut`] still releases
/// the control process, and the next lease that runs short forks a
/// replacement. Once parked a thread can be leased at any moment, so
/// nothing after that point may end it: a lease sent to a dying thread
/// would be lost, and its phase would wait for that worker forever.
fn resident(leases: &mpsc::Receiver<Lease>, me: &mpsc::Sender<Lease>) {
    while let Ok((phase, w)) = leases.recv() {
        let state = {
            let _count_out = CountOut(&*phase);
            let state = phase.work(w);
            // Parked *before* the latch opens, so the control process's
            // next phase finds this thread instead of forking another.
            relock(PARKED.lock()).push(me.clone());
            state
        };
        // After the latch, off the control process's critical path: this
        // thread's share of the phase goes, and so does what it kept from
        // task to task — kept for the next phase it could not serve it,
        // and would pin its share of the heap.
        let _ = catch_unwind(AssertUnwindSafe(move || drop((phase, state))));
    }
}

/// Counts a worker out of its phase when dropped — also while unwinding.
struct CountOut<'a>(&'a dyn PhaseWork);

impl Drop for CountOut<'_> {
    fn drop(&mut self) {
        self.0.done(std::thread::panicking());
    }
}

/// One running phase: everything its workers need, owned rather than
/// borrowed, so a resident thread can hold it (module docs).
struct Phase<T, S, F> {
    task: F,
    /// Makes a worker's per-phase state.
    new_state: fn() -> S,
    pool: StealPool,
    tx: mpsc::Sender<Vec<ExecMsg<T>>>,
    plan: FaultPlan,
    deadline: Option<Duration>,
    rec: Arc<Recorder>,
    live: Arc<Live>,
    scene: Option<SceneSpan>,
    start: Instant,
    /// Per worker: seconds until it picked the phase up, and its final
    /// statistics. Written once, before the worker counts out.
    filed: Vec<Mutex<(f64, WorkerStats)>>,
    latch: Latch,
}

impl<T, S, F> PhaseWork for Phase<T, S, F>
where
    T: Send + 'static,
    S: 'static,
    F: Fn(&mut S, TaskAttempt) -> T + Send + Sync + 'static,
{
    fn work(&self, w: usize) -> Box<dyn Any> {
        // The worker's clock. Read at task boundaries only: twice per task
        // (start, finish) and once per acquired job.
        #[cfg(test)]
        let reads = std::cell::Cell::new(0u64);
        let now = || {
            #[cfg(test)]
            reads.set(reads.get() + 1);
            Instant::now()
        };
        let picked_up = now();
        // What this worker keeps from task to task. An attempt that
        // unwinds leaves it as the task left it: a task keeps nothing in
        // it that a half-run attempt could have damaged (`execute`).
        let mut state = (self.new_state)();
        let scene = self.scene.as_ref();
        // The worker is `psm-task-{w}` to every observer, whichever
        // resident thread it runs on. Its sink is private to the phase and
        // flushes on drop, before the worker counts out.
        let name = format!("{WORKER_NAME}-{w}");
        let mut sink = self.rec.sink(name.as_str());
        if let Some(sc) = scene {
            // Tag recorder events with the scene's trace id so
            // flight-recorder output joins against the retained span trees.
            sink.set_trace(sc.trace_id());
        }
        // And a private live shard, with its series keys built once — the
        // per-attempt emits must not allocate.
        let wh = self.live.handle();
        let worker = w.to_string();
        let key = |family: &str| series_key(family, &[("worker", &worker)]);
        let busy_key = key("spam_live_worker_busy_us");
        let tasks_key = key("spam_live_worker_tasks");
        let steals_key = key("spam_live_worker_steals");
        let overflow_key = key("spam_live_worker_overflow");
        let mut my = WorkerStats::default();
        // Busy nanoseconds the live counter has not been told of yet: it
        // gets the whole microseconds once per job, the rest carries over.
        let mut unpublished_ns = 0u64;
        // When this worker last became free: the next task's `queued`.
        let mut free = picked_up;
        // Completions not yet handed to the control loop.
        let mut held: Vec<ExecMsg<T>> = Vec::new();
        while let Some((job, source)) = self
            .pool
            .acquire(w, &mut my.steal_misses, || hand_over(&self.tx, &mut held))
        {
            // Inside a chunk, a task's `acquired` is the previous finish.
            let mut acquired = now();
            let n = job.tasks.len() as u64;
            let attempt = job.attempt;
            let stolen_from = match source {
                Source::Own => None,
                Source::Overflow => {
                    my.overflow_taken += n;
                    if wh.enabled() {
                        wh.inc(&overflow_key, n);
                    }
                    None
                }
                Source::Stolen(victim) => {
                    my.stolen += n;
                    if wh.enabled() {
                        wh.inc(&steals_key, n);
                    }
                    Some(victim)
                }
            };
            for i in job.tasks {
                // Derive this attempt's span id up front: the sink handed
                // to the task parents engine spans under it, and
                // the span itself is recorded below once the outcome is
                // known.
                let attempt_span = scene.map(|sc| {
                    SpanId::derive(sc.trace_id(), "task.exec", i as u64, u64::from(attempt))
                });
                let invocation = TaskAttempt {
                    task: i,
                    attempt,
                    trace: scene
                        .zip(attempt_span)
                        .map(|(sc, span)| sc.sink_under(span)),
                };
                let started = now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if self.plan.task_panics(i, attempt) {
                        panic!("injected fault: task {i} attempt {attempt}");
                    }
                    (self.task)(&mut state, invocation)
                }))
                .map_err(payload_to_string);
                let finished = now();
                let elapsed = finished.duration_since(started);
                // One clock per attempt: every record of it — the recorder's
                // span, the scene trace's, the live busy counter, the
                // `ExecAttempt` — is stamped from `started` / `finished` /
                // `acquired`, never from a clock read of its own, so no two
                // of them can disagree about how long the task ran.
                if sink.enabled(ObsLevel::Full) {
                    let rec = &self.rec;
                    if let Some(victim) = stolen_from {
                        sink.emit_at(
                            rec.us_at(acquired),
                            Category::Task,
                            "task.steal",
                            EventKind::Instant,
                            vec![
                                ("task", (i as u64).into()),
                                ("victim", (victim as u64).into()),
                                ("thief", (w as u64).into()),
                            ],
                        );
                    }
                    let exec_span = format!("task.exec t{i}");
                    sink.emit_at(
                        rec.us_at(started),
                        Category::Task,
                        exec_span.as_str(),
                        EventKind::SpanBegin,
                        vec![
                            ("task", (i as u64).into()),
                            ("attempt", (attempt as u64).into()),
                            ("stolen", u64::from(stolen_from.is_some()).into()),
                        ],
                    );
                    sink.emit_at(
                        rec.us_at(finished),
                        Category::Task,
                        exec_span,
                        EventKind::SpanEnd,
                        vec![("ok", u64::from(result.is_ok()).into())],
                    );
                }
                if let (Some(sc), Some(span)) = (scene, attempt_span) {
                    sc.record_span(SpanRecord {
                        id: span,
                        parent: Some(sc.root()),
                        kind: SpanKind::Task,
                        name: format!("task.exec t{i} a{attempt}"),
                        worker: name.clone(),
                        start_us: sc.us_at(started),
                        end_us: sc.us_at(finished),
                        error: result.as_ref().err().cloned(),
                    });
                }
                my.executed += 1;
                my.busy_s += elapsed.as_secs_f64();
                unpublished_ns += elapsed.as_nanos() as u64;
                // What the control loop will rule a failure: its retry (or
                // dead letter) must not wait for the batch to fill.
                let failed = result.is_err() || self.deadline.is_some_and(|d| elapsed > d);
                held.push(ExecMsg {
                    task: i,
                    attempt,
                    worker: w,
                    stolen: stolen_from.is_some(),
                    result,
                    queued: free,
                    acquired,
                    started,
                    finished,
                });
                if failed || held.len() >= COMPLETION_BATCH {
                    hand_over(&self.tx, &mut held);
                }
                free = finished;
                acquired = finished;
            }
            if wh.enabled() {
                wh.inc(&busy_key, unpublished_ns / 1_000);
                unpublished_ns %= 1_000;
                wh.inc(&tasks_key, n);
            }
        }
        #[cfg(test)]
        {
            my.clock_reads = reads.get();
        }
        let ready_s = picked_up.duration_since(self.start).as_secs_f64();
        *relock(self.filed[w].lock()) = (ready_s, my);
        Box::new(state)
    }

    fn done(&self, died: bool) {
        self.latch.count_down(died);
    }
}

/// Why the last attempt of a task failed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FailKind {
    Panic,
    Deadline,
}

/// Records a control-side marker span (a retry or dead-letter decision
/// on `task`'s `attempt`) under the scene root. `kind` names the decision
/// and seeds the span id; `detail` is appended to the span's name.
fn control_marker(
    sc: &SceneSpan,
    kind: &str,
    (task, attempt): (usize, u32),
    detail: &str,
    error: Option<String>,
) {
    let now = sc.now_us();
    sc.record_span(SpanRecord {
        id: SpanId::derive(sc.trace_id(), kind, task as u64, u64::from(attempt)),
        parent: Some(sc.root()),
        kind: SpanKind::Aux,
        name: format!("{kind} t{task}{detail}"),
        worker: "psm-control".into(),
        start_us: now,
        end_us: now,
        error,
    });
}

/// A phase's tasks as [`execute`] counts and names them. A label is
/// formatted only once its task's outcome stops being clean — retried or
/// dead-lettered — the only outcomes a [`TaskReport`] prints one for.
pub trait TaskLabels {
    /// How many tasks.
    fn count(&self) -> usize;
    /// Task `i`'s label.
    fn label(&self, i: usize) -> String;
}

/// Labels formatted up front.
impl TaskLabels for Vec<String> {
    fn count(&self) -> usize {
        self.len()
    }
    fn label(&self, i: usize) -> String {
        self[i].clone()
    }
}

/// A task count and the function that formats task `i`'s label.
impl<F: Fn(usize) -> String> TaskLabels for (usize, F) {
    fn count(&self) -> usize {
        self.0
    }
    fn label(&self, i: usize) -> String {
        (self.1)(i)
    }
}

/// Runs `labels.count()` tasks as supervised jobs on the pool `how`
/// describes (module docs: resident task processes, placement,
/// supervision, observers).
///
/// Returns the [`PhaseOutcome`]; fails fast with
/// [`SuperviseError::NoWorkers`] when `how.exec.workers` is zero.
///
/// `estimates` gives each task's a-priori work estimate for dynamic
/// chunking (WME counts scaled by [`ESTIMATE_UNITS_PER_WME`], or any
/// consistent unit), one per task; empty means uniform, any other length
/// is a caller's bug. `on_complete` runs on the control thread once per
/// successful task, before the task's epoch closes — callers mirror task
/// results (work counters, SLO latency observations) into the observers.
///
/// `task` and its result are `'static` because the workers are resident
/// threads, not scoped ones: a caller shares its inputs by `Arc` (every
/// SPAM input already is one) instead of lending them. Each worker makes
/// one `S` when it picks the phase up, lends it to every task it runs and
/// drops it after it has counted out of the phase (module docs); a phase
/// whose tasks keep nothing runs with `S = ()`.
///
/// `task` must be pure with respect to retries: attempt `k+1` re-runs the
/// same closure with the same index (the [`TaskAttempt`] carries the
/// attempt number, which is what a fault plan keys a kill on), on whichever
/// worker's `S`. The SPAM phase runners satisfy this by running every
/// attempt on an engine in its just-built state — new, or reset and taken
/// *out of* `S` while the attempt runs, so an attempt that unwinds (a task
/// killed mid-run among them) drops it and leaves `S` empty (DESIGN.md §21)
/// — over shared immutable inputs. That is also what makes
/// `AssertUnwindSafe` sound here: a half-updated state cannot leak across
/// attempts.
///
/// Results are deterministic — identical to the sequential run regardless
/// of placement, worker count, steal order or scheduling noise — because
/// every result lands in its task's slot and merging is slot-ordered; only
/// the *schedule* in the [`ExecReport`] is machine-dependent.
pub fn execute<T: Send + 'static, S: Default + 'static>(
    how: &PhaseRun<'_>,
    labels: impl TaskLabels,
    estimates: &[u64],
    on_complete: impl Fn(usize, &T),
    task: impl Fn(&mut S, TaskAttempt) -> T + Send + Sync + 'static,
) -> Result<PhaseOutcome<T>, SuperviseError> {
    let PhaseRun {
        exec,
        cfg,
        plan,
        obs,
        ..
    } = how;
    let (rec, live, slo) = (&obs.rec, &obs.live, obs.slo.as_ref());
    if exec.workers == 0 {
        return Err(SuperviseError::NoWorkers);
    }
    let n_tasks = labels.count();
    let n_est = estimates.len();
    debug_assert!(
        n_est == 0 || n_est == n_tasks,
        "{n_est} estimates for {n_tasks} tasks"
    );
    if n_tasks == 0 {
        let report = TaskReport { outcomes: vec![] };
        return Ok((Vec::new(), report, ExecReport::default()));
    }
    // A disabled scene handle records nothing; drop it so the hot path
    // sees one branch.
    let scene = obs.span.filter(|sc| sc.enabled());
    install_quiet_hook();
    let phase_start = Instant::now();
    let n_workers = exec.workers.min(n_tasks);
    #[cfg(test)]
    let _demand = census::Demand::enter(n_workers);

    // The control process registers with the recorder first, then wakes
    // the task processes: their wake-up (or fork) overlaps the chunking and
    // the deal below.
    let mut ctl = rec.sink("executor");
    let (tx, rx) = mpsc::channel::<Vec<ExecMsg<T>>>();
    let phase = Arc::new(Phase {
        task,
        new_state: S::default,
        pool: StealPool::new(n_workers),
        tx,
        plan: plan.clone(),
        deadline: cfg.deadline,
        rec: Arc::clone(rec),
        live: Arc::clone(live),
        scene: scene.cloned(),
        start: phase_start,
        filed: (0..n_workers).map(|_| Mutex::default()).collect(),
        latch: Latch::new(n_workers),
    });
    lease(&(Arc::clone(&phase) as Arc<dyn PhaseWork>), n_workers);
    let pool = &phase.pool;

    // Dynamic chunking + round-robin distribution: contiguous chunks of
    // tasks dealt whole across the bounded deques; spill goes to the
    // shared overflow queue, in task order. The deal is private until it
    // is published, with one wake-up.
    let uniform;
    let est = if estimates.is_empty() {
        uniform = vec![1u64; n_tasks];
        &uniform
    } else {
        estimates
    };
    let chunks = chunk_tasks(est, exec.chunk_target);
    let n_chunks = chunks.len() as u64;
    let mut dealt = vec![VecDeque::new(); n_workers];
    let mut spilled = VecDeque::new();
    let mut deque_fill = vec![0usize; n_workers];
    let mut overflowed = 0u64;
    if ctl.enabled(ObsLevel::Summary) {
        ctl.begin(
            Category::Supervisor,
            "exec.phase",
            vec![
                ("tasks", (n_tasks as u64).into()),
                ("workers", (n_workers as u64).into()),
                ("chunks", n_chunks.into()),
            ],
        );
    }
    for (c, chunk) in chunks.into_iter().enumerate() {
        let w = c % n_workers;
        let queue = if deque_fill[w] < exec.deque_capacity {
            deque_fill[w] += chunk.len();
            &mut dealt[w]
        } else {
            overflowed += chunk.len() as u64;
            if ctl.enabled(ObsLevel::Full) {
                for i in chunk.clone() {
                    ctl.instant(
                        Category::Task,
                        "exec.overflow",
                        vec![("task", (i as u64).into())],
                    );
                }
            }
            &mut spilled
        };
        queue.push_back(Job {
            tasks: chunk,
            attempt: 0,
        });
    }
    pool.publish(dealt, spilled);

    // The control process's own books, set up while the workers start.
    let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
    let mut outcomes: Vec<TaskOutcome> = (0..n_tasks)
        .map(|task| TaskOutcome {
            task,
            label: String::new(),
            status: TaskStatus::Ok,
            attempts: 0,
            elapsed: Duration::ZERO,
            queue_wait: Duration::ZERO,
            retry_latency: Duration::ZERO,
            error: None,
        })
        .collect();
    let mut last_fail: Vec<Option<FailKind>> = vec![None; n_tasks];
    let mut first_start: Vec<Option<Instant>> = vec![None; n_tasks];
    let mut remaining = n_tasks;
    let mut attempts_log: Vec<ExecAttempt> = Vec::with_capacity(n_tasks);
    // Retries whose backoff is not over yet, earliest due first.
    let mut backing_off: BinaryHeap<Reverse<(Instant, usize, u32)>> = BinaryHeap::new();
    let ctl_live = live.handle();
    // A terminal decision (success or dead letter) closes the task's epoch.
    let close_epoch = || {
        let epoch = live.advance_epoch();
        if let Some(slo) = slo {
            slo.advance(epoch);
        }
    };

    // Control process: collect attempts (workers report them in batches,
    // `COMPLETION_BATCH`), decide retries, fill slots.
    let mut inbox = Vec::new().into_iter();
    while remaining > 0 {
        let Some(msg) = inbox.next() else {
            // Between batches: re-enqueue the retries that are due, then
            // wait for the next batch — no longer than until the next
            // retry is. The phase holds a sender, so the channel cannot
            // disconnect under the wait.
            let batch = if backing_off.is_empty() {
                rx.recv().ok()
            } else {
                let now = Instant::now();
                while let Some(&Reverse((due, i, next))) = backing_off.peek() {
                    if due > now {
                        break;
                    }
                    backing_off.pop();
                    pool.push_overflow(Job::retry(i, next));
                }
                match backing_off.peek() {
                    Some(&Reverse((due, ..))) => rx.recv_timeout(due - now).ok(),
                    None => rx.recv().ok(),
                }
            };
            inbox = batch.unwrap_or_default().into_iter();
            continue;
        };
        let i = msg.task;
        let elapsed = msg.finished.duration_since(msg.started);
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
            finished_s: off(msg.finished),
            ok: false,
        };
        let o = &mut outcomes[i];
        o.attempts = msg.attempt + 1;
        o.elapsed = elapsed;
        let failure = match msg.result {
            Err(err) => {
                last_fail[i] = Some(FailKind::Panic);
                Some(err)
            }
            Ok(value) => match cfg.deadline {
                Some(d) if elapsed > d => {
                    last_fail[i] = Some(FailKind::Deadline);
                    if ctl.enabled(ObsLevel::Full) {
                        ctl.instant(
                            Category::Supervisor,
                            "task.deadline",
                            vec![
                                ("task", (i as u64).into()),
                                ("attempt", (msg.attempt as u64).into()),
                                ("elapsed_s", elapsed.as_secs_f64().into()),
                            ],
                        );
                    }
                    Some(format!(
                        "deadline exceeded: {elapsed:.1?} > {d:.1?}; result discarded"
                    ))
                }
                _ => {
                    if ctl_live.enabled() {
                        ctl_live.inc("spam_live_tasks_completed", 1);
                        ctl_live.observe("spam_live_task_latency_seconds", elapsed.as_secs_f64());
                    }
                    // Mirror the task's result before its epoch closes,
                    // so caller-side series land in the window of the
                    // task that produced them.
                    on_complete(i, &value);
                    close_epoch();
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
            if o.label.is_empty() {
                o.label = labels.label(i);
            }
            if msg.attempt < cfg.max_retries {
                // The retry re-enters at the back of the shared overflow
                // queue (cold by definition) once its linear backoff is
                // over. The control loop holds it until then — a worker
                // sleeping through the delay would stall a pool slot that
                // could be running other queued work.
                let next = msg.attempt + 1;
                let delay = cfg.backoff * next;
                if delay.is_zero() {
                    pool.push_overflow(Job::retry(i, next));
                } else {
                    backing_off.push(Reverse((Instant::now() + delay, i, next)));
                }
                ctl_live.inc("spam_live_task_retries", 1);
                if let Some(sc) = scene {
                    sc.tracing().note_retry(sc.trace_id());
                    let to = format!(" a{next}");
                    control_marker(sc, "supervisor.retry", (i, msg.attempt), &to, None);
                }
                if ctl.enabled(ObsLevel::Full) {
                    ctl.instant(
                        Category::Supervisor,
                        "supervisor.retry",
                        vec![
                            ("task", (i as u64).into()),
                            ("next_attempt", (next as u64).into()),
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
                    let (job, error) = ((i, msg.attempt), o.error.clone());
                    control_marker(sc, "supervisor.dead_letter", job, "", error);
                }
                if let Some(slo) = slo {
                    // A dead letter is a breach: the work never
                    // completed, so it burns error budget.
                    slo.observe(elapsed.as_secs_f64(), false);
                }
                close_epoch();
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
    // Every worker has flushed its sink and filed its statistics once the
    // latch opens — what joining the scoped threads used to guarantee.
    let died = phase.latch.wait();
    assert!(!died, "a task process died outside supervision");

    let (spawn_ready_s, workers) = (phase.filed.iter())
        .map(|cell| *relock(cell.lock()))
        .unzip();
    let report = ExecReport {
        workers,
        spawn_ready_s,
        chunks: n_chunks,
        overflowed,
        wall_s: phase_start.elapsed().as_secs_f64(),
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

/// Test-only census of the registry: how many resident threads are alive,
/// and the most workers any set of concurrent [`execute`] calls has asked
/// for — the bound the registry must never outgrow.
#[cfg(test)]
mod census {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static ALIVE: AtomicUsize = AtomicUsize::new(0);
    static DEMAND: AtomicUsize = AtomicUsize::new(0);
    static PEAK_DEMAND: AtomicUsize = AtomicUsize::new(0);

    pub(super) fn resident_threads() -> usize {
        ALIVE.load(Ordering::SeqCst)
    }

    pub(super) fn peak_demand() -> usize {
        PEAK_DEMAND.load(Ordering::SeqCst)
    }

    /// A resident thread, from fork to exit (also by panic).
    pub(super) struct Alive;

    impl Alive {
        pub(super) fn enter() -> Alive {
            ALIVE.fetch_add(1, Ordering::SeqCst);
            Alive
        }
    }

    impl Drop for Alive {
        fn drop(&mut self) {
            ALIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// One phase's workers, from before its lease until after its latch.
    pub(super) struct Demand(usize);

    impl Demand {
        pub(super) fn enter(n: usize) -> Demand {
            let now = DEMAND.fetch_add(n, Ordering::SeqCst) + n;
            PEAK_DEMAND.fetch_max(now, Ordering::SeqCst);
            Demand(n)
        }
    }

    impl Drop for Demand {
        fn drop(&mut self) {
            DEMAND.fetch_sub(self.0, Ordering::SeqCst);
        }
    }
}

/// Both placements at `workers` threads, named, for tests that hold the
/// runner's contract on each.
#[cfg(test)]
pub(crate) fn placements(workers: usize) -> [(&'static str, ExecConfig); 2] {
    [
        ("central queue", ExecConfig::central_queue(workers)),
        ("chunked deques", ExecConfig::new(workers)),
    ]
}

#[cfg(test)]
mod tests {
    //! One contract, two placements: every supervision and observability
    //! test runs on the central queue and on the chunked deques. Tests of
    //! the pool's own mechanics (chunking, batching, stealing, poisoning)
    //! and of the resident registry's phase-boundary protocol follow.
    use super::*;
    use std::sync::atomic::AtomicBool;
    use tlp_obs::{Health, LiveValue, SloConfig};

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("t{i}")).collect()
    }

    /// `exec`'s placement under `cfg` and `plan`, nothing observing.
    fn under(exec: ExecConfig, cfg: SupervisorConfig, plan: FaultPlan) -> PhaseRun<'static> {
        PhaseRun {
            cfg,
            plan,
            ..PhaseRun::new(exec)
        }
    }

    /// Retries allowed, with a backoff short enough not to slow the suite.
    fn retries(k: u32) -> SupervisorConfig {
        SupervisorConfig::default()
            .with_retries(k)
            .with_backoff(Duration::from_millis(1))
    }

    /// `n` tasks under `how`, the task a function of its index alone.
    fn run<T: Send + 'static>(
        how: &PhaseRun<'_>,
        n: usize,
        task: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> PhaseOutcome<T> {
        execute(
            how,
            labels(n),
            &[],
            |_, _| {},
            move |_: &mut (), a| task(a.task),
        )
        .unwrap()
    }

    fn executed(exec: &ExecReport) -> u64 {
        exec.workers.iter().map(|w| w.executed).sum()
    }

    fn counter(snap: &tlp_obs::LiveSnapshot, name: &str) -> u64 {
        match snap.series.get(name) {
            Some(LiveValue::Counter { total, .. }) => *total,
            other => panic!("{name}: expected counter, got {other:?}"),
        }
    }

    #[test]
    fn all_tasks_succeed_in_slot_order() {
        for (name, exec) in placements(3) {
            let (slots, report, exec) = run(&PhaseRun::new(exec), 20, |i| i * 2);
            assert!(report.is_clean(), "{name}");
            assert_eq!(
                slots.into_iter().map(Option::unwrap).collect::<Vec<_>>(),
                (0..20).map(|i| i * 2).collect::<Vec<_>>(),
                "{name}"
            );
            assert_eq!(executed(&exec), 20, "{name}: every task attempted once");
            assert_eq!(exec.attempts.len(), 20, "{name}");
            assert!(exec.chunks >= 1, "{name}");
            assert_eq!(exec.lost_tasks, 0, "{name}");
        }
    }

    #[test]
    fn empty_task_list_is_fine() {
        for (name, exec) in placements(3) {
            let (slots, report, exec) = run(&PhaseRun::new(exec), 0, |i| i);
            assert!(slots.is_empty(), "{name}");
            assert!(report.outcomes.is_empty() && report.is_clean(), "{name}");
            assert!(exec.attempts.is_empty(), "{name}");
        }
    }

    #[test]
    fn zero_workers_rejected() {
        for (name, exec) in placements(0) {
            let r = execute(
                &PhaseRun::new(exec),
                labels(3),
                &[],
                |_, _| {},
                |_: &mut (), a| a.task,
            );
            assert_eq!(r.err(), Some(SuperviseError::NoWorkers), "{name}");
        }
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        for (name, exec) in placements(16) {
            let (slots, report, exec) = run(&PhaseRun::new(exec), 3, |i| i);
            assert_eq!(slots.iter().flatten().count(), 3, "{name}");
            assert!(report.is_clean(), "{name}");
            assert_eq!(exec.workers.len(), 3, "{name}: one thread per task at most");
        }
    }

    #[test]
    fn panicking_task_is_dead_lettered_and_others_complete() {
        for (name, exec) in placements(2) {
            let plan = FaultPlan::none().with_task_panic(3, u32::MAX);
            let how = under(exec, SupervisorConfig::default(), plan);
            let (slots, report, exec) = run(&how, 8, |i| i);
            assert_eq!(slots.iter().flatten().count(), 7, "{name}");
            assert!(slots[3].is_none(), "{name}");
            assert_eq!(report.succeeded(), 7, "{name}");
            let dead = report.dead_letters();
            assert_eq!(dead.len(), 1, "{name}");
            assert_eq!(dead[0].task, 3, "{name}");
            assert_eq!(dead[0].status, TaskStatus::Panicked, "{name}");
            assert!(dead[0].error.as_deref().unwrap().contains("injected fault"));
            assert_eq!(exec.lost_tasks, 1, "{name}");
        }
    }

    #[test]
    fn retry_recovers_and_dead_letters_are_reported() {
        for (name, exec) in placements(3) {
            // Task 5 panics only on attempt 0: one retry fully recovers it.
            // Task 2 panics on every attempt.
            let plan = FaultPlan::none()
                .with_task_panic(5, 1)
                .with_task_panic(2, u32::MAX);
            let (slots, report, exec) = run(&under(exec, retries(1), plan), 10, |i| i);
            assert_eq!(slots.iter().flatten().count(), 9, "{name}");
            assert!(slots[2].is_none(), "{name}");
            assert_eq!(report.outcomes[5].status, TaskStatus::Retried(1), "{name}");
            assert_eq!(report.outcomes[5].attempts, 2, "{name}");
            assert_eq!(report.total_retries(), 2, "{name}");
            assert_eq!(report.dead_letters().len(), 1, "{name}");
            assert_eq!(exec.lost_tasks, 1, "{name}");
            // 10 first attempts + t5 retry + t2 retry.
            assert_eq!(exec.attempts.len(), 12, "{name}");
            assert_eq!(executed(&exec), 12, "{name}");
        }
    }

    #[test]
    fn retry_budget_is_bounded() {
        for (name, exec) in placements(2) {
            let plan = FaultPlan::none().with_task_panic(0, u32::MAX);
            let (slots, report, _) = run(&under(exec, retries(2), plan), 2, |i| i);
            assert!(slots[0].is_none(), "{name}");
            assert_eq!(report.outcomes[0].status, TaskStatus::Panicked, "{name}");
            assert_eq!(report.outcomes[0].attempts, 3, "{name}: initial + 2");
        }
    }

    #[test]
    fn soft_deadline_times_out_slow_tasks() {
        for (name, exec) in placements(2) {
            let cfg = SupervisorConfig::default().with_deadline(Duration::from_millis(20));
            let (slots, report, _) = run(&under(exec, cfg, FaultPlan::none()), 4, |i| {
                if i == 2 {
                    std::thread::sleep(Duration::from_millis(80));
                }
                i
            });
            assert!(slots[2].is_none(), "{name}: late result must be discarded");
            assert_eq!(report.outcomes[2].status, TaskStatus::TimedOut, "{name}");
            assert_eq!(slots.iter().flatten().count(), 3, "{name}");
        }
    }

    #[test]
    fn queue_wait_and_retry_latency_are_recorded() {
        for (name, exec) in placements(2) {
            let plan = FaultPlan::none().with_task_panic(1, 1);
            let cfg = retries(1).with_backoff(Duration::from_millis(5));
            let (_, report, _) = run(&under(exec, cfg, plan), 3, |i| {
                std::thread::sleep(Duration::from_millis(2));
                i
            });
            for o in &report.outcomes {
                // queue_wait is measured from phase start, so it is always
                // well-defined (and tiny for the first tasks grabbed).
                assert!(o.queue_wait < Duration::from_secs(5), "{name}: {o:?}");
            }
            // The retried task's retry latency spans its first attempt plus
            // the backoff (5 ms); the clean tasks report zero.
            assert!(report.outcomes[1].retry_latency >= Duration::from_millis(5));
            assert_eq!(report.outcomes[0].retry_latency, Duration::ZERO, "{name}");
            // The report's totals: one retry, nothing lost.
            assert_eq!(report.total_retries(), 1, "{name}");
            assert_eq!(report.succeeded(), 3, "{name}");
            assert!(report.dead_letters().is_empty(), "{name}");
            let text = report.display(true).to_string();
            assert!(text.contains("queue-wait"), "{name}: {text}");
        }
    }

    #[test]
    fn dead_letter_details_survive_death_during_retry() {
        for (name, exec) in placements(2) {
            // Task 2 dies on the first attempt AND again on its only retry.
            // The dead-letter entry must still carry the full post-mortem:
            // the final error string, the true attempt count, and a
            // non-zero retry latency — details recorded across the retry
            // boundary, not just from the first failure.
            let plan = FaultPlan::none().with_task_panic(2, 2);
            let cfg = retries(1).with_backoff(Duration::from_millis(5));
            let (slots, report, _) = run(&under(exec, cfg, plan), 5, |i| i);
            assert!(slots[2].is_none(), "{name}");
            assert_eq!(slots.iter().flatten().count(), 4, "{name}");
            let dead = report.dead_letters();
            assert_eq!(dead.len(), 1, "{name}");
            let o = dead[0];
            assert_eq!(o.task, 2, "{name}");
            assert_eq!(o.status, TaskStatus::Panicked, "{name}");
            assert_eq!(o.attempts, 2, "{name}: initial attempt + the fatal retry");
            // The error must be the *retry's* panic payload (attempt 1),
            // not a stale copy from attempt 0.
            assert_eq!(o.error.as_deref(), Some("injected fault: task 2 attempt 1"));
            // retry_latency spans first-attempt start → retry start, which
            // includes the 5 ms backoff.
            assert!(
                o.retry_latency >= Duration::from_millis(5),
                "{name}: retry latency must be recorded for dead letters too: {:?}",
                o.retry_latency
            );
            // And the report renders those details.
            let text = report.display(true).to_string();
            assert!(text.contains("task 2 [t2] after 2 attempts"), "{text}");
            assert!(text.contains("attempt 1"), "{text}");
            assert!(text.contains("retry-latency"), "{text}");
        }
    }

    #[test]
    fn retry_backoff_delays_the_reenqueue_not_a_worker() {
        // Regression, per placement and with one worker or several: the
        // backoff used to be slept by the worker after popping the retry,
        // stalling a pool slot for the whole delay while other tasks were
        // queued. The control loop holds the retry until it is due instead
        // (no timer thread either), so the backoff is queue time
        // (queued→acquired), not dequeue time (acquired→started), and the
        // rest of the phase does not wait for it.
        for workers in [1, 3] {
            for (name, exec) in placements(workers) {
                let plan = FaultPlan::none().with_task_panic(0, 1);
                let cfg = retries(1).with_backoff(Duration::from_millis(40));
                let (slots, report, exec) = run(&under(exec, cfg, plan), 4, |i| i);
                assert_eq!(slots, [Some(0), Some(1), Some(2), Some(3)], "{name}");
                assert!(report.outcomes[0].retry_latency >= Duration::from_millis(40));
                let attempt_of_t0 = |k: u32| {
                    (exec.attempts.iter())
                        .find(|a| a.task == 0 && a.attempt == k)
                        .expect("attempt recorded")
                };
                let (first, retry) = (attempt_of_t0(0), attempt_of_t0(1));
                assert!(
                    retry.acquired_s - first.finished_s >= 0.040,
                    "{name}: the retry re-entered {:.4}s after its failure, before its delay",
                    retry.acquired_s - first.finished_s
                );
                assert!(
                    retry.started_s - retry.acquired_s < 0.020,
                    "{name}: no worker may sleep through the backoff, got {:.4}s",
                    retry.started_s - retry.acquired_s
                );
                for a in exec.attempts.iter().filter(|a| a.task != 0) {
                    assert!(
                        a.finished_s < retry.acquired_s,
                        "{name}: t{} waited for the backoff",
                        a.task
                    );
                }
            }
        }
    }

    #[test]
    fn rate_driven_faults_are_deterministic() {
        let plan = FaultPlan::seeded(99).with_task_panic_rate(0.4);
        let run_on = |exec: ExecConfig| {
            let (slots, report, _) = run(&under(exec, retries(2), plan.clone()), 24, |i| i);
            let ok: Vec<usize> = slots.into_iter().flatten().collect();
            let st: Vec<TaskStatus> = report.outcomes.iter().map(|o| o.status.clone()).collect();
            (ok, st)
        };
        let [(_, central), (_, deques)] = placements(4);
        let a = run_on(central);
        assert_eq!(
            a,
            run_on(central),
            "plan-determined, not schedule-determined"
        );
        assert_eq!(a, run_on(deques), "and not placement-determined either");
        assert!(a.1.iter().any(|s| !matches!(s, TaskStatus::Ok)));
    }

    #[test]
    fn the_recorder_sees_the_phase_its_tasks_and_every_decision() {
        use tlp_obs::EventKind;
        for (name, exec) in placements(2) {
            let rec = Recorder::new(ObsLevel::Full);
            let plan = FaultPlan::none()
                .with_task_panic(1, 1)
                .with_task_panic(2, u32::MAX);
            let mut how = under(exec, retries(1), plan);
            how.obs.rec = Arc::clone(&rec);
            let (slots, report, _) = run(&how, 4, |i| i);
            assert_eq!(slots.iter().flatten().count(), 3, "{name}");
            assert_eq!(report.dead_letters().len(), 1, "{name}");
            let events = rec.events();
            let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
            for expected in [
                "exec.phase",
                "task.complete",
                "supervisor.retry",
                "supervisor.dead_letter",
            ] {
                assert!(names.contains(&expected), "{name}: {expected} in {names:?}");
            }
            // One enqueue instant per task that went to the shared queue:
            // all of them on the central queue, none of these four on the
            // deques.
            let spilled = names.iter().filter(|n| **n == "exec.overflow").count();
            assert_eq!(spilled, if exec.deque_capacity == 0 { 4 } else { 0 });
            // One exec span pair per attempt: 4 first attempts + 1 retry of
            // task 1 + 1 retry of task 2.
            let spans = |kind: EventKind| {
                (events.iter())
                    .filter(|e| e.kind == kind && e.name.starts_with("task.exec"))
                    .count()
            };
            assert_eq!(spans(EventKind::SpanBegin), 6, "{name}");
            assert_eq!(spans(EventKind::SpanEnd), 6, "{name}");
            let threads = rec.threads();
            assert!(threads.iter().any(|t| t == "executor"), "{threads:?}");
            assert!(threads.iter().any(|t| t == "psm-task-0"), "{threads:?}");
        }
    }

    #[test]
    fn an_off_recorder_and_a_disabled_registry_see_nothing() {
        for (name, exec) in placements(2) {
            let how = PhaseRun::new(exec);
            let (slots, report, _) = run(&how, 4, |i| i);
            assert_eq!(slots.iter().flatten().count(), 4, "{name}");
            assert!(report.is_clean(), "{name}");
            assert!(how.obs.rec.is_empty(), "{name}");
            assert!(how.obs.live.snapshot().series.is_empty(), "{name}");
        }
    }

    #[test]
    fn live_series_are_published() {
        for (name, exec) in placements(2) {
            let live = Live::new(8);
            let plan = FaultPlan::none()
                .with_task_panic(1, 1)
                .with_task_panic(2, u32::MAX);
            let mut how = under(exec, retries(1), plan);
            how.obs.live = Arc::clone(&live);
            let completed = AtomicUsize::new(0);
            let on_complete = |_, _: &usize| {
                completed.fetch_add(1, Ordering::Relaxed);
            };
            let (slots, report, _) =
                execute(&how, labels(5), &[], on_complete, |_: &mut (), a| a.task).unwrap();
            assert_eq!(slots.iter().flatten().count(), 4, "{name}");
            assert_eq!(report.dead_letters().len(), 1, "{name}");
            assert_eq!(completed.load(Ordering::Relaxed), 4, "{name}");
            // Logical time: one epoch per terminal task, dead letters included.
            assert_eq!(live.epoch(), 5, "{name}");
            let snap = live.snapshot();
            assert_eq!(counter(&snap, "spam_live_tasks_completed"), 4, "{name}");
            assert_eq!(counter(&snap, "spam_live_task_retries"), 2, "{name}");
            assert_eq!(counter(&snap, "spam_live_dead_letters"), 1, "{name}");
            assert_eq!(
                snap.series.get("spam_live_queue_depth"),
                Some(&LiveValue::Gauge(0.0)),
                "{name}: phase ended with nothing outstanding"
            );
            // Worker shards published busy time and per-attempt counts;
            // total attempts = 5 first attempts + 2 retries.
            assert!((snap.series.keys()).any(|k| k.starts_with("spam_live_worker_busy_us{")));
            let attempts: u64 = (snap.series.keys())
                .filter(|k| k.starts_with("spam_live_worker_tasks{"))
                .map(|k| counter(&snap, k))
                .sum();
            assert_eq!(attempts, 7, "{name}");
            match snap.series.get("spam_live_task_latency_seconds") {
                Some(LiveValue::Histogram(h)) => assert_eq!(h.count(), 4, "{name}"),
                other => panic!("{name}: latency histogram missing: {other:?}"),
            }
        }
    }

    fn slo_on(live: &Arc<Live>) -> Arc<SloMonitor> {
        let cfg = SloConfig {
            latency_target_s: 10.0,
            ..SloConfig::default()
        };
        Arc::new(SloMonitor::new(cfg, live.handle()))
    }

    #[test]
    fn the_slo_clock_is_driven_by_completions() {
        for (name, exec) in placements(2) {
            let live = Live::new(8);
            let slo = slo_on(&live);
            let mut how = PhaseRun::new(exec);
            how.obs.live = Arc::clone(&live);
            how.obs.slo = Some(Arc::clone(&slo));
            let on_complete = |_, _: &usize| slo.observe(0.5, true);
            let (slots, _, _) =
                execute(&how, labels(6), &[], on_complete, |_: &mut (), a| a.task).unwrap();
            assert_eq!(slots.iter().flatten().count(), 6, "{name}");
            assert_eq!(slo.health(), Health::Healthy, "{name}");
            let snap = live.snapshot();
            assert!(snap.series.contains_key("spam_slo_burn_rate_fast"));
            assert!((snap.series).contains_key("spam_slo_error_budget_remaining_ratio"));
        }
    }

    #[test]
    fn dead_letters_burn_slo_budget() {
        for (name, exec) in placements(4) {
            let live = Live::new(8);
            let slo = slo_on(&live);
            let plan = (0..40).fold(FaultPlan::none(), |p, i| p.with_task_panic(i, u32::MAX));
            let mut how = under(exec, retries(0), plan);
            how.obs.live = Arc::clone(&live);
            how.obs.slo = Some(Arc::clone(&slo));
            let (slots, report, _) = run(&how, 40, |i| i);
            assert_eq!(slots.iter().flatten().count(), 0, "{name}");
            assert_eq!(report.dead_letters().len(), 40, "{name}");
            assert_eq!(live.epoch(), 40, "{name}: dead letters advance the clock");
            assert_eq!(
                slo.health(),
                Health::Degraded,
                "{name}: a phase of pure failures must trip the burn-rate alert"
            );
        }
    }

    #[test]
    fn a_scene_span_yields_a_wellformed_span_tree() {
        use tlp_obs::{validate_span_tree, Tracing};
        for (name, exec) in placements(2) {
            let tracing = Tracing::new();
            let scene = tracing.start_scene(42, "dc");
            // Task 1 fails once and recovers; task 2 dies for good.
            let plan = FaultPlan::none()
                .with_task_panic(1, 1)
                .with_task_panic(2, u32::MAX);
            let mut how = under(exec, retries(1), plan);
            how.obs.span = Some(&scene);
            let (slots, report, _) = execute(
                &how,
                labels(4),
                &[],
                |_, _| {},
                |_: &mut (), a| {
                    // Stand-in for the engine's cycle mirror: record one
                    // aux span through the handed sink.
                    if let Some(mut tr) = a.trace {
                        let t0 = tr.now_us();
                        tr.record_aux("engine.cycles x1", t0, tr.now_us(), None);
                    }
                    a.task
                },
            )
            .unwrap();
            assert_eq!(slots.iter().flatten().count(), 3, "{name}");
            assert_eq!(report.dead_letters().len(), 1, "{name}");
            scene.finish();
            let retained = tracing.retained();
            assert_eq!(retained.len(), 1, "{name}");
            let t = &retained[0];
            assert_eq!(t.retries, 2, "t1's recovery retry + t2's doomed retry");
            assert_eq!(t.dead_letters, 1, "{name}");
            // One task.exec span per attempt (4 first + 1 retry of t1 + 1
            // retry of t2), one retry marker per re-enqueue, one
            // dead-letter marker, plus the root and the per-attempt engine
            // aux spans.
            let named =
                |prefix: &'static str| t.spans.iter().filter(move |s| s.name.starts_with(prefix));
            assert_eq!(named("task.exec").count(), 6, "{name}");
            assert_eq!(named("supervisor.retry").count(), 2, "{name}");
            assert_eq!(named("supervisor.dead_letter").count(), 1, "{name}");
            // Injected panics fire before the task body runs, so only the
            // successful attempts reach the engine stand-in.
            assert_eq!(named("engine.cycles").count(), 3, "{name}");
            // Failed attempts carry their panic payload: t1 a0, t2 a0, t2 a1.
            assert_eq!(named("task.exec").filter(|s| s.error.is_some()).count(), 3);
            assert!(named("task.exec").all(|s| s.worker.starts_with("psm-task-")
                && s.worker["psm-task-".len()..].parse::<usize>().is_ok()));
            // The whole tree validates: unique ids, one root, parents
            // exist, intervals nest.
            let doc = t.to_json().write();
            validate_span_tree(&doc).expect("retained trace must be a well-formed span tree");
            // Deterministic ids: a rerun of the same seed + scene yields
            // the same trace id.
            assert_eq!(t.trace, tlp_obs::TraceId::derive(42, "dc"), "{name}");
        }
    }

    #[test]
    fn phases_around_the_batch_bound_terminate() {
        // One worker, so every completion of the phase goes through one
        // held batch: a single task (handed over before the worker
        // sleeps), exactly one full batch, and one more than that.
        for (name, exec) in placements(1) {
            for n in [1, COMPLETION_BATCH, COMPLETION_BATCH + 1] {
                let (slots, report, exec) = run(&PhaseRun::new(exec), n, |i| i);
                assert!(report.is_clean(), "{name}");
                assert_eq!(slots.into_iter().flatten().count(), n, "{name}");
                assert_eq!(exec.attempts.len(), n, "{name}");
                assert_eq!(exec.workers[0].executed, n as u64, "{name}");
            }
        }
    }

    #[test]
    fn batched_completions_conserve_attempts_and_close_the_books() {
        // Far more tiny tasks per worker than the batch bound, a third of
        // first attempts failing: every attempt must still be reported
        // exactly once, and the schedule must still add up.
        let deques = ExecConfig {
            workers: 2,
            chunk_target: 8,
            deque_capacity: 64,
        };
        for exec in [ExecConfig::central_queue(2), deques] {
            let plan = FaultPlan::seeded(11).with_task_panic_rate(0.3);
            let cfg = SupervisorConfig::default().with_retries(3);
            let n = 600;
            let (slots, report, exec) = run(&under(exec, cfg, plan), n, |i| i);
            let retries = report.total_retries() as u64;
            assert!(retries > 0, "the plan must make some attempts fail");
            let dead = report.dead_letters().len();
            // Every task's last attempt is either its success or its dead
            // letter; every earlier one is a retry.
            assert_eq!(executed(&exec), n as u64 + retries);
            assert_eq!(exec.attempts.len() as u64, executed(&exec));
            assert_eq!(exec.attempts.iter().filter(|a| a.ok).count(), n - dead);
            assert_eq!(slots.iter().flatten().count(), n - dead);
            assert_eq!(exec.lost_tasks as usize, dead);
            let mut seen: Vec<(usize, u32)> =
                exec.attempts.iter().map(|a| (a.task, a.attempt)).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len() as u64, executed(&exec), "no attempt twice");
            assert_attempts_are_ordered(&exec);
            assert_books_close(&exec);
            assert!(exec.timeline("batched").coverage() > 0.999);
            // The shared clock's budget: two reads per attempt, one per
            // acquired job (a chunk, or a retry), one per worker's pick-up.
            let reads: u64 = exec.workers.iter().map(|w| w.clock_reads).sum();
            let jobs = exec.chunks + retries;
            let workers = exec.workers.len() as u64;
            assert_eq!(reads, 2 * executed(&exec) + jobs + workers);
        }
    }

    /// On every worker: `queued ≤ acquired ≤ started ≤ finished` for each
    /// attempt, and no attempt is queued before the one before it finished
    /// — a worker's timeline is a sequence, with every instant of it read
    /// from the clock once.
    fn assert_attempts_are_ordered(exec: &ExecReport) {
        for w in 0..exec.workers.len() {
            let mut mine: Vec<&ExecAttempt> =
                exec.attempts.iter().filter(|a| a.worker == w).collect();
            mine.sort_by(|a, b| a.started_s.total_cmp(&b.started_s));
            for a in &mine {
                assert!(
                    a.queued_s <= a.acquired_s
                        && a.acquired_s <= a.started_s
                        && a.started_s <= a.finished_s,
                    "{a:?}"
                );
            }
            assert!(exec.spawn_ready_s[w] <= mine.first().map_or(f64::MAX, |a| a.queued_s));
            for pair in mine.windows(2) {
                assert!(
                    pair[0].finished_s <= pair[1].queued_s,
                    "worker {w}: {:?} overlaps {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    /// busy + fork + queue wait + dequeue + idle = workers × makespan: the
    /// gap accountant closes its books on the measured run.
    fn assert_books_close(exec: &ExecReport) {
        let sim = exec.to_sim_result();
        let attr = crate::attribution::GapAttribution::attribute(
            sim.makespan,
            &sim,
            sim.busy.len() as u32,
        );
        let gaps: f64 = attr.components().iter().map(|c| c.1).sum();
        let eps = attr.capacity().max(1e-9) * 1e-6;
        assert!(
            (gaps + attr.busy - attr.capacity()).abs() < eps,
            "busy {} + gap components {gaps} must sum to capacity {}",
            attr.busy,
            attr.capacity()
        );
        assert!(
            (gaps - attr.gap()).abs() < eps,
            "components {gaps} must sum to the gap {}",
            attr.gap()
        );
    }

    #[test]
    fn measured_report_converts_to_a_covered_sim_result() {
        // Bounded deques (capacity 2/worker, 40 singleton-ish chunks) must
        // spill to the overflow queue; the central queue spills everything.
        let bounded = ExecConfig {
            workers: 4,
            chunk_target: 2,
            deque_capacity: 2,
        };
        for exec in [ExecConfig::central_queue(4), bounded] {
            let (_, _, exec) = run(&PhaseRun::new(exec), 40, |i| {
                // A little real work so spans have width.
                (0..((i as u64 % 7) + 1) * 1000).fold(0u64, u64::wrapping_add)
            });
            assert!(exec.overflowed > 0, "distribution must overflow");
            assert_eq!(executed(&exec), 40);
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
            assert_books_close(&exec);
        }
    }

    #[test]
    fn the_central_queue_is_fifo_and_retries_reenter_at_the_back() {
        // One worker on the central placement takes tasks in task order;
        // t1's first attempt fails and its retry — re-enqueued at once, no
        // backoff — still runs after every first attempt, because those
        // were all queued before it.
        let plan = FaultPlan::none().with_task_panic(1, 1);
        let cfg = retries(1).with_backoff(Duration::ZERO);
        let how = under(ExecConfig::central_queue(1), cfg, plan);
        let (slots, report, exec) = run(&how, 5, |i| i);
        assert_eq!(slots.iter().flatten().count(), 5);
        assert_eq!(report.outcomes[1].status, TaskStatus::Retried(1));
        let mut ran = exec.attempts.clone();
        ran.sort_by(|a, b| a.started_s.total_cmp(&b.started_s));
        let order: Vec<(usize, u32)> = ran.iter().map(|a| (a.task, a.attempt)).collect();
        assert_eq!(order, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (1, 1)]);
        assert_eq!(exec.overflowed, 5, "every task spilled");
        assert_eq!(exec.chunks, 5, "each its own chunk");
        assert_eq!(exec.overflow_taken(), 6, "and so did the retry");
        assert_eq!(exec.steals(), 0, "there is nothing to steal");
    }

    #[test]
    fn a_failure_inside_a_batch_is_reported_at_once_and_retried_via_overflow() {
        // One worker, six tasks in one chunk: it runs them in order. The
        // batch bound is never reached, so without the early hand-over
        // nothing would reach the control loop before the worker runs dry.
        // t2's first attempt panics; t3, which runs next on the same
        // worker, waits until the control loop has processed t0's
        // completion — which travels in the batch the failure pushed out.
        let first_reported = Arc::new(AtomicBool::new(false));
        let waited_in_vain = Arc::new(AtomicBool::new(false));
        let plan = FaultPlan::none().with_task_panic(2, 1);
        let cfg = SupervisorConfig::default().with_retries(1);
        let (reported, in_vain) = (Arc::clone(&first_reported), Arc::clone(&waited_in_vain));
        let (slots, report, exec) = execute(
            &under(ExecConfig::new(1), cfg, plan),
            labels(6),
            &[],
            |i, _: &usize| {
                if i == 0 {
                    first_reported.store(true, Ordering::SeqCst);
                }
            },
            move |_: &mut (), a| {
                if a.task == 3 {
                    let give_up = Instant::now() + Duration::from_secs(20);
                    while !reported.load(Ordering::SeqCst) {
                        if Instant::now() > give_up {
                            in_vain.store(true, Ordering::SeqCst);
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
        assert_eq!(exec.chunks, 1, "six unit estimates make one chunk");
        assert_eq!(slots.iter().flatten().count(), 6);
        assert_eq!(report.outcomes[2].status, TaskStatus::Retried(1));
        let retry = (exec.attempts.iter())
            .find(|a| a.task == 2 && a.attempt == 1)
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
    fn a_steal_moves_a_whole_chunk() {
        // Twelve tasks in three chunks of four, two workers: chunks 0 and
        // 2 are dealt to worker 0, chunk 1 to worker 1. A task of chunk 0
        // refuses to finish before chunk 2 has started, and the other way
        // round — so worker 0, whichever of its two chunks it takes first,
        // is stuck in it until a thief has started the other. Worker 1
        // must steal one of them, and it takes the chunk whole.
        let exec = ExecConfig {
            workers: 2,
            chunk_target: 4,
            deque_capacity: 64,
        };
        let started = Arc::new([const { AtomicBool::new(false) }; 3]);
        let (slots, report, exec) = run(&PhaseRun::new(exec), 12, move |i| {
            let chunk = i / 4;
            started[chunk].store(true, Ordering::SeqCst);
            let give_up = Instant::now() + Duration::from_secs(20);
            while chunk != 1 && !started[2 - chunk].load(Ordering::SeqCst) {
                assert!(Instant::now() < give_up, "nobody stole chunk {}", 2 - chunk);
                std::thread::yield_now();
            }
            i
        });
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(slots.iter().flatten().count(), 12);
        assert_eq!(exec.chunks, 3);
        // Every chunk ran on one worker and was stolen whole or not at all.
        let of = |task: usize| exec.attempts.iter().find(|a| a.task == task).unwrap();
        let ran = |chunk: usize| {
            let first = of(4 * chunk);
            for task in 4 * chunk..4 * chunk + 4 {
                assert_eq!(
                    of(task).worker,
                    first.worker,
                    "t{task}: a chunk is not split"
                );
                assert_eq!(of(task).stolen, first.stolen, "t{task} rode with its chunk");
            }
            (first.worker, first.stolen)
        };
        let (c0, c1, c2) = (ran(0), ran(1), ran(2));
        assert_ne!(c0.0, c2.0, "worker 0's two chunks ran side by side");
        assert_ne!(c0.1, c2.1, "exactly one of them was stolen");
        // The counter counts the tasks that rode along.
        let stolen_chunks = [c0, c1, c2].iter().filter(|c| c.1).count() as u64;
        assert_eq!(exec.steals(), 4 * stolen_chunks);
        assert_attempts_are_ordered(&exec);
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

    /// `estimates` is one per task or none: none chunks uniformly, a full
    /// slice as [`chunk_tasks`] does (a task past the target closes a chunk).
    #[test]
    fn estimates_are_one_per_task_or_none() {
        let how = PhaseRun::new(ExecConfig {
            chunk_target: 4,
            ..ExecConfig::new(1)
        });
        let chunks = |n, estimates: &[u64]| {
            let (slots, report, exec) = execute(
                &how,
                labels(n),
                estimates,
                |_, _| {},
                |_: &mut (), a| a.task,
            )
            .unwrap();
            assert!(report.is_clean() && slots.iter().flatten().count() == n);
            exec.chunks
        };
        assert_eq!(chunks(10, &[]), 3, "uniform: 4 + 4 + 2 tasks");
        assert_eq!(chunks(4, &[1, 100, 1, 1]), 2, "weighed: 0..2, 2..4");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "2 estimates for 3 tasks")]
    fn a_wrong_number_of_estimates_is_a_caller_bug() {
        let how = PhaseRun::new(ExecConfig::new(1));
        let _ = execute(&how, labels(3), &[1, 2], |_, _| {}, |_: &mut (), a| a.task);
    }

    #[test]
    fn pending_counter_survives_racing_overflow_pushes() {
        // Regression: push_overflow used to make the job visible before
        // raising `pending`, so a worker racing the push could consume
        // the job and decrement the counter through zero (u64 underflow:
        // panic in debug, transient u64::MAX in release). Hammer
        // concurrent pushes against spinning consumers — under the buggy
        // ordering this trips the debug overflow check almost instantly.
        use std::sync::atomic::AtomicU64;
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
                            pool.push_overflow(Job::retry(p * JOBS + j, 1));
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

    /// Runs a `psm-task-*` thread (the quiet hook keeps its panic out of
    /// the test output) that panics while holding `lock`.
    fn die_holding<T: Send + 'static>(pool: &Arc<StealPool>, lock: fn(&StealPool) -> &Mutex<T>) {
        install_quiet_hook();
        let pool = Arc::clone(pool);
        let died = std::thread::Builder::new()
            .name(format!("{WORKER_NAME}-poisoner"))
            .spawn(move || {
                let _guard = lock(&pool).lock().unwrap();
                panic!("injected: die while holding a pool lock");
            })
            .unwrap()
            .join();
        assert!(died.is_err());
    }

    #[test]
    fn the_pool_survives_poisoned_locks() {
        // Regression (from the central queue this pool replaced): a panic
        // while holding a queue mutex used to poison it, after which every
        // push/pop/close unwrapped a PoisonError and the control process
        // deadlocked behind a dead queue. Every pool lock — the overflow
        // FIFO, a worker's deque, the pending/closed pair — must recover
        // the guard and keep serving jobs.
        let pool = Arc::new(StealPool::new(2));
        die_holding(&pool, |p| &p.overflow);
        die_holding(&pool, |p| &p.deques[0]);
        die_holding(&pool, |p| &p.sync);
        assert!(pool.overflow.is_poisoned(), "setup must actually poison");
        assert!(pool.deques[0].is_poisoned(), "setup must actually poison");
        assert!(pool.sync.is_poisoned(), "setup must actually poison");

        let chunk = Job {
            tasks: 1..4,
            attempt: 0,
        };
        pool.publish(
            vec![VecDeque::from([chunk.clone()]), VecDeque::new()],
            VecDeque::new(),
        );
        pool.push_overflow(Job::retry(7, 2));
        pool.push_overflow(Job::retry(8, 1));
        let mut misses = 0;
        // Worker 1 owns nothing: the shared queue front-first, then a steal.
        let took = |m: &mut u64| {
            pool.acquire(1, m, || {})
                .map(|(job, src)| (job, src == Source::Overflow))
        };
        assert_eq!(took(&mut misses), Some((Job::retry(7, 2), true)));
        assert_eq!(took(&mut misses), Some((Job::retry(8, 1), true)));
        assert_eq!(took(&mut misses), Some((chunk, false)), "stolen from 0");
        // A worker asleep on the (poisoned) condition pair still wakes for
        // a late push, and for the close.
        std::thread::scope(|s| {
            let sleeper = s.spawn(|| {
                let mut misses = 0;
                let got = pool.acquire(0, &mut misses, || {}).map(|(job, _)| job);
                (got, pool.acquire(0, &mut misses, || {}).is_none(), misses)
            });
            std::thread::sleep(Duration::from_millis(20));
            pool.push_overflow(Job::retry(9, 1));
            std::thread::sleep(Duration::from_millis(20));
            pool.close();
            let (got, drained, misses) = sleeper.join().unwrap();
            assert_eq!(got, Some(Job::retry(9, 1)));
            assert!(drained, "a closed empty pool still drains");
            assert!(misses >= 1, "it slept at least once");
        });
        assert_eq!(misses, 0);
    }

    /// A phase that is not one: whatever `work` does, on whichever
    /// resident thread the registry leases it.
    struct Stunt<W: Fn() + Send + Sync> {
        work: W,
        latch: Arc<Latch>,
    }

    impl<W: Fn() + Send + Sync> PhaseWork for Stunt<W> {
        fn work(&self, _: usize) -> Box<dyn Any> {
            (self.work)();
            Box::new(())
        }
        fn done(&self, died: bool) {
            self.latch.count_down(died);
        }
    }

    /// Leases one task process to `work` and waits for it to count out;
    /// whether it died.
    fn lease_one(work: impl Fn() + Send + Sync + 'static) -> bool {
        let _demand = census::Demand::enter(1);
        let latch = Arc::new(Latch::new(1));
        // The leased thread holds the last reference to the stunt: it does
        // not start on it before this thread has let go of its own.
        let (let_go, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let stunt: Arc<dyn PhaseWork> = Arc::new(Stunt {
            work: move || {
                let _ = relock(gate.lock()).recv();
                work()
            },
            latch: Arc::clone(&latch),
        });
        lease(&stunt, 1);
        drop(stunt);
        drop(let_go);
        latch.wait()
    }

    #[test]
    fn back_to_back_phases_reuse_the_resident_task_processes() {
        // The phase-boundary protocol under churn: two thousand tiny
        // phases back to back, cycling worker counts over both placements,
        // one in seven with a retry — while two more threads run phases
        // of their own. Every slot is filled, every attempt accounted for,
        // and the registry never holds more threads than the most workers
        // the process has wanted at once: a worker is parked again before
        // its phase's latch opens, so the next lease finds it.
        fn churn(phases: usize) {
            for k in 0..phases {
                let exec = placements(1 + k % 5)[k % 2].1;
                let retry = k % 7 == 0;
                let plan = FaultPlan::none().with_task_panic(1, u32::from(retry));
                let cfg = retries(1).with_backoff(Duration::ZERO);
                let (slots, report, exec) = run(&under(exec, cfg, plan), 3, move |i| i + k);
                assert_eq!(slots, [Some(k), Some(k + 1), Some(k + 2)], "phase {k}");
                assert_eq!(report.total_retries(), u32::from(retry), "phase {k}");
                assert_eq!(executed(&exec), 3 + u64::from(retry), "phase {k}");
                assert_eq!(exec.workers.len(), (1 + k % 5).min(3), "phase {k}");
            }
        }
        std::thread::scope(|s| {
            s.spawn(|| churn(300));
            s.spawn(|| churn(300));
            churn(2000);
        });
        let (threads, wanted) = (census::resident_threads(), census::peak_demand());
        assert!(wanted >= 3, "this test alone wants three workers at once");
        assert!(
            threads <= wanted,
            "{threads} resident task processes, but never more than {wanted} wanted at once"
        );
    }

    #[test]
    fn a_dead_task_process_is_replaced_at_the_next_lease() {
        install_quiet_hook();
        // Killed in the middle of a phase, outside `catch_unwind`: the
        // thread unwinds, still counts out (reporting its death), and
        // never parks again.
        let died = lease_one(|| panic!("injected: a task process dies outside supervision"));
        assert!(died, "the latch must open, and say why");
        // A panic while tidying up after the latch (here: the thread's
        // reference to the phase, its last, panics on drop) must not end a
        // thread that is already parked — a lease could be on its way.
        struct PanicsOnDrop;
        impl Drop for PanicsOnDrop {
            fn drop(&mut self) {
                let here = std::thread::current();
                assert!(here.name().is_some_and(|n| n.starts_with(WORKER_NAME)));
                panic!("injected: tidying up after the phase panics");
            }
        }
        let cargo = PanicsOnDrop;
        let died = lease_one(move || {
            let _dropped_with_the_phase = &cargo;
        });
        assert!(!died, "it had counted out");
        // Either way the next phases complete, on every worker they ask
        // for: the lease forks what the registry cannot supply.
        for _ in 0..4 {
            for (name, exec) in placements(4) {
                let (slots, report, exec) = run(&PhaseRun::new(exec), 8, |i| i);
                assert!(report.is_clean(), "{name}");
                assert_eq!(slots.iter().flatten().count(), 8, "{name}");
                assert_eq!(exec.workers.len(), 4, "{name}");
            }
        }
    }

    /// A worker's `S` is the task process's memory: made once when the
    /// worker picks the phase up, lent to every attempt the worker runs —
    /// across chunks, and after an attempt that panicked half-way through
    /// using it — and dropped by the worker itself once it has counted out,
    /// so the control process never waits for the drop.
    #[test]
    fn a_workers_state_spans_its_phase_and_is_dropped_after_the_latch() {
        /// What one state was lent to, in order, and where it ended.
        struct Ended {
            seen: Vec<(usize, u32)>,
            on_thread: String,
            execute_had_returned: bool,
        }
        static MADE: AtomicUsize = AtomicUsize::new(0);
        static RETURNED: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());
        static ENDED: Mutex<Option<mpsc::Sender<Ended>>> = Mutex::new(None);

        struct Memory(Vec<(usize, u32)>);
        impl Default for Memory {
            fn default() -> Memory {
                MADE.fetch_add(1, Ordering::SeqCst);
                Memory(Vec::new())
            }
        }
        impl Drop for Memory {
            fn drop(&mut self) {
                // Were this drop ahead of the latch, `execute` could not
                // return while it waits, and the wait would time out.
                let (flag, cv) = &RETURNED;
                let (returned, _) = cv
                    .wait_timeout_while(relock(flag.lock()), Duration::from_secs(5), |r| !*r)
                    .unwrap_or_else(PoisonError::into_inner);
                if let Some(tx) = &*relock(ENDED.lock()) {
                    let _ = tx.send(Ended {
                        seen: std::mem::take(&mut self.0),
                        on_thread: std::thread::current().name().unwrap_or("").to_owned(),
                        execute_had_returned: *returned,
                    });
                }
            }
        }

        // Four chunks of two tasks on the deques, eight of one centrally.
        let deques = ExecConfig {
            chunk_target: 2,
            ..ExecConfig::new(2)
        };
        for (name, exec) in [
            ("central queue", ExecConfig::central_queue(2)),
            ("deques", deques),
        ] {
            MADE.store(0, Ordering::SeqCst);
            *relock(RETURNED.0.lock()) = false;
            let (tx, ended) = mpsc::channel();
            *relock(ENDED.lock()) = Some(tx);

            let how = under(exec, retries(1), FaultPlan::none());
            let (slots, report, measured) = execute(
                &how,
                labels(8),
                &[],
                |_, _| {},
                |m: &mut Memory, a| {
                    m.0.push((a.task, a.attempt));
                    assert!((a.task, a.attempt) != (3, 0), "mid-task, state in hand");
                    a.task
                },
            )
            .unwrap();
            *relock(RETURNED.0.lock()) = true;
            RETURNED.1.notify_all();

            assert_eq!(slots.iter().flatten().count(), 8, "{name}");
            assert_eq!(report.total_retries(), 1, "{name}");
            let mut ends: Vec<Ended> = (0..2)
                .map(|_| {
                    ended
                        .recv_timeout(Duration::from_secs(10))
                        .expect("dropped")
                })
                .collect();
            assert_eq!(MADE.load(Ordering::SeqCst), 2, "{name}: one per worker");
            for end in &ends {
                assert!(
                    end.on_thread.starts_with(WORKER_NAME),
                    "{name}: {}",
                    end.on_thread
                );
                assert!(
                    end.execute_had_returned,
                    "{name}: dropped ahead of the latch"
                );
            }
            // Each state saw exactly its worker's attempts, in the order
            // the worker ran them — the panicked one included.
            let mut ran: Vec<Vec<(usize, u32)>> = (0..2)
                .map(|w| {
                    let mut mine: Vec<_> =
                        measured.attempts.iter().filter(|a| a.worker == w).collect();
                    mine.sort_by(|a, b| a.started_s.total_cmp(&b.started_s));
                    mine.iter().map(|a| (a.task, a.attempt)).collect()
                })
                .collect();
            ran.sort();
            ends.sort_by(|a, b| a.seen.cmp(&b.seen));
            let seen: Vec<_> = ends.into_iter().map(|e| e.seen).collect();
            assert_eq!(seen, ran, "{name}");
            assert!(seen.concat().contains(&(3, 0)), "{name}: {seen:?}");
        }
        *relock(ENDED.lock()) = None;
    }

    #[test]
    fn a_phases_worker_events_stay_in_its_own_recorder() {
        // Worker sinks and live shards belong to the phase, not to the
        // resident thread: what phase k's workers recorded is all in phase
        // k's recorder when `execute` returns, and none of it can surface
        // in phase k+1's.
        for (name, exec) in placements(2) {
            let recorders: Vec<Arc<Recorder>> =
                (0..3).map(|_| Recorder::new(ObsLevel::Full)).collect();
            let mut counts = Vec::new();
            for (k, rec) in recorders.iter().enumerate() {
                let mut how = PhaseRun::new(exec);
                how.obs.rec = Arc::clone(rec);
                // Phase k runs tasks whose names no other phase uses.
                let n = 2 + k;
                let (slots, _, _) = run(&how, n, |i| i);
                assert_eq!(slots.iter().flatten().count(), n, "{name}");
                counts.push(rec.len());
            }
            for (k, rec) in recorders.iter().enumerate() {
                assert_eq!(
                    rec.len(),
                    counts[k],
                    "{name}: phase {k} grew after it ended"
                );
                let events = rec.events();
                let execs = |task: usize| {
                    let span = format!("task.exec t{task}");
                    events.iter().filter(|e| e.name == span).count()
                };
                for task in 0..2 + k {
                    assert_eq!(execs(task), 2, "{name}: phase {k} t{task} begin + end");
                }
                assert_eq!(
                    execs(2 + k),
                    0,
                    "{name}: phase {k} saw a later phase's task"
                );
                let completed = events.iter().filter(|e| e.name == "task.complete");
                assert_eq!(completed.count(), 2 + k, "{name}: phase {k}");
            }
        }
    }

    #[test]
    fn a_phase_proceeds_after_pool_poisoning() {
        // End-to-end flavour of the regression above. The pool of a
        // running phase is private to it, so instead: a phase that retries
        // (which pushes from the control loop) and dead-letters, right
        // after the unit-level poisoning ran in this process, still works —
        // the quiet hook and the lock recovery carry no state between
        // pools.
        the_pool_survives_poisoned_locks();
        for (name, exec) in placements(2) {
            let plan = FaultPlan::none()
                .with_task_panic(1, 1)
                .with_task_panic(3, u32::MAX);
            let (slots, report, _) = run(&under(exec, retries(1), plan), 4, |i| i);
            assert_eq!(slots.iter().flatten().count(), 3, "{name}");
            assert_eq!(report.outcomes[1].status, TaskStatus::Retried(1), "{name}");
            assert_eq!(report.dead_letters().len(), 1, "{name}");
        }
    }
}
