//! The supervised phase runner — the paper's execution model (§5.1) on
//! real threads: a control process (the calling thread), a task queue, and
//! `n` task processes (workers), each running whole OPS5 engine tasks. The
//! control process is task process 0 itself, so `n` task processes run on
//! the calling thread and `n − 1` resident threads.
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
//! registry, parked between phases, and [`execute`] *leases* workers
//! 1..`n` of a phase of `n`. The registry grows on demand to the largest
//! concurrent lease and is sized by nothing else. A lease hands a parked
//! thread the whole phase as one type-erased `Arc` — which is why the task
//! closure and its result are `'static`: a resident thread outlives every
//! caller's stack frame, and this crate forbids the `unsafe` that would let
//! it borrow from one. What a task process keeps from task to task — for
//! the SPAM phases, its OPS5 engine — is a value `S: Default` the worker
//! makes when it picks the phase up and lends to every task it runs; it
//! does not outlive the phase. The control process wakes its residents
//! *before* it deals the tasks (their wake-up overlaps the deal), and when
//! the phase is over waits on a completion latch rather than joining
//! threads: a resident hands over its last completions, writes its
//! statistics, parks itself in the registry and only then counts the latch down — so
//! back-to-back phases reuse the same threads — and drops its `S` after
//! that, off the control process's critical path. A resident thread that
//! died (a panic outside `catch_unwind`) is replaced at the next lease; the
//! phase it died in fails loudly.
//!
//! Worker 0 is the calling thread. The paper's control process had a
//! processor of its own; here it would otherwise block while the residents
//! work, a third thread on a two-core box, and a phase whose resident was
//! slow to wake (a halted core takes milliseconds) would wait for it while
//! the one thread surely running did nothing. So after the deal the
//! control process works the pool like any worker — own deque, overflow,
//! steal — one job at a time, through the same per-job step the residents
//! run, and between jobs it does its control duties: re-enqueue the retries
//! that are due, take completions, decide retries and dead letters. It
//! blocks only when a sweep finds nothing to run. A phase of one worker
//! leases no resident and runs on the caller with no hand-off at all.
//! Worker 0's `S` is made on the calling thread after the lease and dropped
//! there once the pool is closed, while the residents count out.
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
//! process is a *supervisor* (and, between its duties, task process 0):
//!
//! * every attempt runs under [`std::panic::catch_unwind`], so a panicking
//!   task is isolated — the phase completes with the surviving results;
//! * a failed attempt is retried up to [`SupervisorConfig::max_retries`]
//!   times with linear backoff. The backoff delays the *re-enqueue*: the
//!   control loop keeps the retries that are not yet due and never waits
//!   for a completion past the earliest of them. No worker ever sleeps
//!   through a backoff, so it reads as queue time, never as a stalled pool
//!   slot. The control process re-enqueues between jobs, so a due retry
//!   (or the decision on a failure the caller ran itself) may also wait
//!   for the one chunk in the caller's hand: that too is queue time. Tasks
//!   that exhaust their budget go to the dead-letter list in the
//!   [`TaskReport`];
//! * a [`FaultPlan`] can fate specific `(task, attempt)` pairs to panic,
//!   making the whole retry machinery reproducible under test.
//!
//! # Observability, attribution
//!
//! A task attempt is recorded once: a worker writes its [`ExecAttempt`]
//! (where its job came from, its four instants, its panic text) into the
//! completion it hands the control process, and counts its empty sweeps —
//! nothing else. Its per-attempt path has no telemetry. When the phase is
//! over, the control process derives every other account from the
//! [`ExecReport`] ([`ExecReport::render`]): the flight recorder's
//! `task.exec` spans and `task.steal` instants on each worker's track, the
//! live registry's per-worker series, and the [`WorkerStats`] themselves —
//! so they agree by construction (`tests/one_account.rs`). With a scene's
//! [`TraceId`] in the [`Observer`], every event the phase records carries
//! it. The control process's own decisions
//! (completions, retries, dead letters, queue depth) it records as it
//! makes them (see [`Observer`]). The measured schedule converts to a
//! [`multimax_sim::SimResult`] ([`ExecReport::to_sim_result`]) — so the
//! gap accountant ([`crate::attribution::GapAttribution`]) and the Gantt
//! timeline work on measured runs exactly as on simulated ones. A worker
//! reads the clock at task boundaries only: a task's finish instant is the
//! next one's `queued` (and, inside a chunk, its `acquired`).

use crate::supervise::{catch_attempt, install_quiet_hook, TaskAttempt, WORKER_NAME};
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
    series_key, Category, EventKind, Live, ObsLevel, Recorder, SloMonitor, Timeline, TraceId,
};

/// Nominal work units per WME a task loads, used to put caller-side task
/// estimates (WME counts) on the same scale as the cost model's
/// `chunk_units` (ParaOPS5's ~100-instruction granularity).
pub const ESTIMATE_UNITS_PER_WME: u64 = 10;

/// Where a phase's tasks are placed: worker count, chunking, deque bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Task processes in the phase (capped at the task count): the calling
    /// thread and `workers − 1` leased residents.
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
///   `executor` sink; at `Summary` level the phase is one `exec.phase`
///   span, at `Full` level every control decision (spill, retry, dead
///   letter, completion) is an instant event, and the
///   phase's end renders each attempt as a `task.exec` span (and each
///   stolen one as a `task.steal` instant) on its worker's `psm-task-{w}`
///   track ([`ExecReport::render`]).
/// * `live` — the metrics registry. The control process publishes
///   `spam_live_tasks_completed` / `spam_live_task_retries` /
///   `spam_live_dead_letters`, the `spam_live_task_latency_seconds`
///   histogram of successful attempts and the `spam_live_queue_depth`
///   gauge of tasks still outstanding as it decides; the phase's end
///   renders `spam_live_worker_{busy_us,tasks,steals,overflow}{worker="w"}`
///   (busy time summed in nanoseconds and published in whole
///   microseconds, so nothing is rounded away per task).
/// * `slo` — its clock advances once per *terminal* task (success or dead
///   letter); a dead-lettered task is charged to it as a breach (failed
///   work burns error budget) with no latency sample, for none exists.
/// * `trace` — the scene's [`TraceId`]: the `executor` sink and every
///   worker's track are tagged with it, so each event the phase records
///   (its attempts, retries and dead letters among them) carries a
///   `trace_id` argument, and one scene is the trace's events under its id
///   (`spamctl trace`).
#[derive(Clone)]
pub struct Observer {
    /// Flight recorder.
    pub rec: Arc<Recorder>,
    /// Live telemetry registry.
    pub live: Arc<Live>,
    /// SLO monitor, advanced once per terminal task.
    pub slo: Option<Arc<SloMonitor>>,
    /// The scene's id, tagged on every event the phase records.
    pub trace: Option<TraceId>,
}

impl Observer {
    /// Nothing attached: a disabled recorder and registry, no SLO, no id.
    pub fn off() -> Observer {
        Observer {
            rec: Recorder::off(),
            live: Live::off(),
            slo: None,
            trace: None,
        }
    }
}

/// How one phase is run: the single value [`crate::tlp::run_phase`] takes
/// instead of re-threading placement, policy, plan and observers. Build it
/// with [`PhaseRun::new`] and struct-update what differs.
#[derive(Clone)]
pub struct PhaseRun {
    /// Task placement.
    pub exec: ExecConfig,
    /// Supervision policy (retries, backoff).
    pub cfg: SupervisorConfig,
    /// Deterministic fault injection.
    pub plan: FaultPlan,
    /// What watches the phase.
    pub obs: Observer,
}

impl PhaseRun {
    /// `exec`'s placement under the default policy (no retries), no
    /// injected faults, nothing observing. A
    /// panicking task is still isolated and reported, not fatal.
    pub fn new(exec: ExecConfig) -> PhaseRun {
        PhaseRun {
            exec,
            cfg: SupervisorConfig::default(),
            plan: FaultPlan::none(),
            obs: Observer::off(),
        }
    }
}

/// Per-worker scheduling statistics. All but `steal_misses` are sums over
/// the worker's [`ExecAttempt`]s, taken when the phase ends.
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

/// How a worker acquired an attempt's job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Popped from the worker's own deque.
    Own,
    /// Taken from the shared overflow queue.
    Overflow,
    /// Stolen from the deque of the worker it names.
    Stolen(usize),
}

/// One measured task attempt, the one record of it: the four schedule
/// timestamps (seconds from phase start) mirror [`multimax_sim::TaskExec`]
/// so the measured run converts losslessly into the simulator's result
/// shape, and every other account of the attempt is rendered from it
/// ([`ExecReport::render`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ExecAttempt {
    /// Task index.
    pub task: usize,
    /// Zero-based attempt number.
    pub attempt: u32,
    /// Worker that ran it.
    pub worker: usize,
    /// Where the worker took the attempt's job from.
    pub source: Source,
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
    /// slot): false for panics.
    pub ok: bool,
    /// The attempt's panic text, if it panicked.
    pub error: Option<String>,
}

impl ExecAttempt {
    /// Nanoseconds the task body ran.
    pub fn busy_ns(&self) -> u64 {
        ((self.finished_s - self.started_s) * 1e9).round() as u64
    }
}

/// The measured schedule of one executed phase.
#[derive(Clone, Debug, Default)]
pub struct ExecReport {
    /// The instant the phase started, which every `_s` offset counts from
    /// (`None` for a phase of no tasks).
    pub start: Option<Instant>,
    /// Per-worker scheduling statistics, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Seconds from phase start until worker *w* picked the phase up: the
    /// wake-up latency of a parked task process (or, for the first phase
    /// that needs it, its fork). The workers are woken before the tasks
    /// are dealt, so none of the distribution is charged here. Worker 0 is
    /// the calling thread, ready as soon as it has leased the others (≈ 0;
    /// its deal reads as its first task's queue wait), so the fork term
    /// counts `n − 1` pick-ups.
    pub spawn_ready_s: Vec<f64>,
    /// Scheduling chunks formed at distribution.
    pub chunks: u64,
    /// Tasks that spilled to the shared overflow queue at distribution
    /// (bounded deques were full).
    pub overflowed: u64,
    /// Phase wall-clock seconds (lease to the last worker counted out).
    pub wall_s: f64,
    /// Seconds the calling thread spent blocked: waiting for a batch of
    /// completions (or the next retry's due time), and on the latch.
    pub control_blocked_s: f64,
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
    /// creating one, and none of the distribution; ≈ 0 for worker 0, the
    /// calling thread, whose control duties between jobs read as its queue
    /// wait). Queue-wait is the
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

    /// Renders the phase's attempts into `obs`, worker by worker, each
    /// stamped with the instants its [`ExecAttempt`] holds: at `Full`
    /// level, a `task.exec t{i}` span per attempt (and a `task.steal`
    /// instant per stolen one) on the worker's `psm-task-{w}` recorder
    /// track; the worker's `spam_live_worker_{busy_us,tasks,steals,overflow}`
    /// counters. A failed attempt's end event carries its panic text as
    /// `error`, and with a scene's id in `obs` every event carries it.
    /// [`execute`] calls this once the phase is over; it is the only writer
    /// of these records.
    pub fn render(&self, obs: &Observer) {
        let Some(start) = self.start else { return };
        let at = |s: f64| start + Duration::from_secs_f64(s);
        let rec = &obs.rec;
        let live = obs.live.handle();
        for (w, my) in self.workers.iter().enumerate() {
            let mut sink = rec.enabled(ObsLevel::Full).then(|| {
                let mut sink = rec.sink(format!("{WORKER_NAME}-{w}").as_str());
                if let Some(id) = obs.trace {
                    sink.set_trace(id);
                }
                sink
            });
            let mut busy_ns = 0;
            for a in self.attempts.iter().filter(|a| a.worker == w) {
                busy_ns += a.busy_ns();
                let (i, k) = (a.task as u64, u64::from(a.attempt));
                if let Some(sink) = &mut sink {
                    if let Source::Stolen(victim) = a.source {
                        let args = vec![
                            ("task", i.into()),
                            ("victim", (victim as u64).into()),
                            ("thief", (w as u64).into()),
                        ];
                        let us = rec.us_at(at(a.acquired_s));
                        sink.emit_at(us, Category::Task, "task.steal", EventKind::Instant, args);
                    }
                    let span = format!("task.exec t{i}");
                    let stolen = matches!(a.source, Source::Stolen(_));
                    let args = vec![
                        ("task", i.into()),
                        ("attempt", k.into()),
                        ("stolen", u64::from(stolen).into()),
                    ];
                    let (begin, end) = (rec.us_at(at(a.started_s)), rec.us_at(at(a.finished_s)));
                    sink.emit_at(begin, Category::Task, &span, EventKind::SpanBegin, args);
                    let mut args = vec![("ok", u64::from(a.error.is_none()).into())];
                    if let Some(error) = &a.error {
                        args.push(("error", error.as_str().into()));
                    }
                    sink.emit_at(end, Category::Task, span, EventKind::SpanEnd, args);
                }
            }
            if live.enabled() && my.executed > 0 {
                let worker = w.to_string();
                let key = |family: &str| series_key(family, &[("worker", &worker)]);
                live.inc(&key("spam_live_worker_busy_us"), busy_ns / 1_000);
                live.inc(&key("spam_live_worker_tasks"), my.executed);
                for (family, n) in [("steals", my.stolen), ("overflow", my.overflow_taken)] {
                    if n > 0 {
                        live.inc(&key(&format!("spam_live_worker_{family}")), n);
                    }
                }
            }
        }
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

    /// One sweep for worker `w` that takes the job it finds off the
    /// `pending` count.
    fn take(&self, w: usize) -> Option<(Job, Source)> {
        let got = self.sweep(w)?;
        relock(self.sync.lock()).0 -= 1;
        Some(got)
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
            if let Some(got) = self.take(w) {
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
    source: Source,
    result: Result<T, String>,
    /// Worker-side schedule instants.
    queued: Instant,
    acquired: Instant,
    started: Instant,
    finished: Instant,
}

/// Most completions a resident worker holds before handing them to the
/// control loop. Every hand-over wakes the calling thread, which on a small
/// box preempts a worker (~20 µs of worker time each); at SPAM's finest
/// decomposition a task is about as long as that, so residents report in
/// batches. A batch also goes early whenever waiting could matter: on a
/// failed attempt (its retry must re-enter the pool now) and before the
/// worker sleeps. Small enough that the control process's decisions — and
/// the series and SLO clock they advance — lag a completion by well under
/// a millisecond of fine-grained work. Worker 0 is the calling thread itself:
/// it takes its own completions after every job, never through the
/// channel, so the bound is a resident's.
const COMPLETION_BATCH: usize = 32;

/// Sends a worker's held completions, if any, to the control loop as one
/// message. The control process keeps the receiver until every resident
/// has counted the latch down, so the send cannot fail while a worker runs.
fn hand_over<T>(tx: &mpsc::Sender<Vec<ExecMsg<T>>>, held: &mut Vec<ExecMsg<T>>) {
    if !held.is_empty() {
        let _ = tx.send(std::mem::take(held));
    }
}

/// Counts a phase's resident workers out: the control process waits here,
/// where `thread::scope` used to join. `died` remembers a worker that
/// unwound out of its loop instead of finishing it.
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
    /// closes empty, then file the worker's statistics. Returns
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
/// largest number of residents ever leased at once.
static PARKED: Mutex<Vec<mpsc::Sender<Lease>>> = Mutex::new(Vec::new());

/// Task processes forked so far (names them).
static FORKED: AtomicUsize = AtomicUsize::new(0);

/// Leases one task process to `phase` per worker index in `workers`, waking
/// each with its index. Parked threads are taken first and the shortfall
/// is forked — which is also how a thread that died is replaced: it never
/// parked again ([`resident`]).
fn lease(phase: &Arc<dyn PhaseWork>, workers: Range<usize>) {
    #[cfg(test)]
    census::note_lease(workers.len());
    let mut parked = {
        let mut all = relock(PARKED.lock());
        let keep = all.len().saturating_sub(workers.len());
        all.split_off(keep)
    };
    for w in workers {
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

/// Closes a phase's pool when the control process leaves [`execute`] —
/// also by unwinding, so that its residents finish, park and count out
/// instead of waiting for jobs that will never come.
struct CloseOnDrop<'a>(&'a StealPool);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
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
    start: Instant,
    /// Per worker: seconds until it picked the phase up, and its final
    /// statistics. Written once, before the worker counts out.
    filed: Vec<Mutex<(f64, WorkerStats)>>,
    /// Counts the residents — workers 1.. — out.
    latch: Latch,
}

/// One worker's side of a phase between jobs: what it keeps from task to
/// task, its sweep statistics and the completions it has not handed over.
/// A resident makes one when it picks the phase up, the calling thread
/// (worker 0) when it has leased the residents; both run every job through
/// [`Phase::step`].
struct Worker<S, T> {
    w: usize,
    /// What this worker keeps from task to task. An attempt that unwinds
    /// leaves it as the task left it: a task keeps nothing in it that a
    /// half-run attempt could have damaged (`execute`).
    state: S,
    /// Its empty sweeps (and, under test, clock reads); the rest of its
    /// statistics are sums over its attempts, taken when the phase ends.
    my: WorkerStats,
    picked_up: Instant,
    /// When this worker last became free: the next task's `queued`.
    free: Instant,
    /// Completions not yet handed to the control loop.
    held: Vec<ExecMsg<T>>,
}

impl<S, T> Worker<S, T> {
    /// The worker's clock. Read at task boundaries only: twice per task
    /// (start, finish) and once per acquired job — besides the pick-up
    /// read in [`Phase::worker`].
    fn now(&mut self) -> Instant {
        #[cfg(test)]
        {
            self.my.clock_reads += 1;
        }
        Instant::now()
    }
}

impl<T, S, F> Phase<T, S, F>
where
    T: Send + 'static,
    S: 'static,
    F: Fn(&mut S, TaskAttempt) -> T + Send + Sync + 'static,
{
    /// Worker `w` picks the phase up and makes its state.
    fn worker(&self, w: usize) -> Worker<S, T> {
        let picked_up = Instant::now();
        Worker {
            w,
            state: (self.new_state)(),
            my: WorkerStats {
                // The pick-up read above.
                #[cfg(test)]
                clock_reads: 1,
                ..WorkerStats::default()
            },
            picked_up,
            free: picked_up,
            held: Vec::new(),
        }
    }

    /// Runs one acquired job on worker `wk`, task by task, each attempt
    /// under `catch_unwind`; the completions land in `wk.held`. A resident
    /// hands them over on a failure and at the batch bound; worker 0, the
    /// control process, takes them itself once the job is done. The
    /// completion is the attempt's one record: nothing here writes to an
    /// observer.
    fn step(&self, wk: &mut Worker<S, T>, job: Job, source: Source) {
        // Inside a chunk, a task's `acquired` is the previous finish.
        let mut acquired = wk.now();
        let attempt = job.attempt;
        for i in job.tasks {
            let invocation = TaskAttempt { task: i, attempt };
            let started = wk.now();
            let state = &mut wk.state;
            let result = catch_attempt(|| {
                if self.plan.task_panics(i, attempt) {
                    panic!("injected fault: task {i} attempt {attempt}");
                }
                (self.task)(state, invocation)
            });
            let finished = wk.now();
            // A failure's retry (or dead letter) must not wait for the
            // batch to fill.
            let failed = result.is_err();
            wk.held.push(ExecMsg {
                task: i,
                attempt,
                worker: wk.w,
                source,
                result,
                queued: wk.free,
                acquired,
                started,
                finished,
            });
            if wk.w > 0 && (failed || wk.held.len() >= COMPLETION_BATCH) {
                hand_over(&self.tx, &mut wk.held);
            }
            wk.free = finished;
            acquired = finished;
        }
    }

    /// Files worker `wk`'s pick-up and statistics; returns its state, for
    /// its thread to drop.
    fn file(&self, wk: Worker<S, T>) -> S {
        let ready_s = wk.picked_up.duration_since(self.start).as_secs_f64();
        *relock(self.filed[wk.w].lock()) = (ready_s, wk.my);
        wk.state
    }
}

impl<T, S, F> PhaseWork for Phase<T, S, F>
where
    T: Send + 'static,
    S: 'static,
    F: Fn(&mut S, TaskAttempt) -> T + Send + Sync + 'static,
{
    fn work(&self, w: usize) -> Box<dyn Any> {
        let mut wk = self.worker(w);
        while let Some((job, source)) = self.pool.acquire(w, &mut wk.my.steal_misses, || {
            hand_over(&self.tx, &mut wk.held)
        }) {
            self.step(&mut wk, job, source);
        }
        Box::new(self.file(wk))
    }

    fn done(&self, died: bool) {
        self.latch.count_down(died);
    }
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
/// successful task, before the SLO clock advances past it — callers mirror
/// task results (work counters, SLO latency observations) into the
/// observers.
///
/// `task` and its result are `'static` because workers 1.. are resident
/// threads, not scoped ones: a caller shares its inputs by `Arc` (every
/// SPAM input already is one) instead of lending them. Worker 0 is the
/// calling thread: `task` runs on it too, as does `S::default()`. Each
/// worker makes one `S` when it picks the phase up, lends it to every task
/// it runs and drops it — a resident after it has counted out of the
/// phase, the calling thread before `execute` returns (module docs); a
/// phase whose tasks keep nothing runs with `S = ()`.
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
    how: &PhaseRun,
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
    let slo = obs.slo.as_ref();
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
    install_quiet_hook();
    let phase_start = Instant::now();
    let n_workers = exec.workers.min(n_tasks);
    #[cfg(test)]
    let _demand = census::Demand::enter(n_workers - 1);

    // The control process registers with the recorder first, then wakes
    // the resident task processes — workers 1.., it is worker 0 itself:
    // their wake-up (or fork) overlaps the chunking and the deal below.
    let mut ctl = obs.rec.sink("executor");
    if let Some(id) = obs.trace {
        ctl.set_trace(id);
    }
    let (tx, rx) = mpsc::channel::<Vec<ExecMsg<T>>>();
    let phase = Arc::new(Phase {
        task,
        new_state: S::default,
        pool: StealPool::new(n_workers),
        tx,
        plan: plan.clone(),
        start: phase_start,
        filed: (0..n_workers).map(|_| Mutex::default()).collect(),
        latch: Latch::new(n_workers - 1),
    });
    lease(&(Arc::clone(&phase) as Arc<dyn PhaseWork>), 1..n_workers);
    let pool = &phase.pool;
    let closing = CloseOnDrop(pool);
    let mut me = phase.worker(0);

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
    let mut first_start: Vec<Option<Instant>> = vec![None; n_tasks];
    let mut remaining = n_tasks;
    let mut attempts_log: Vec<ExecAttempt> = Vec::with_capacity(n_tasks);
    // Retries whose backoff is not over yet, earliest due first.
    let mut backing_off: BinaryHeap<Reverse<(Instant, usize, u32)>> = BinaryHeap::new();
    let ctl_live = obs.live.handle();
    // A terminal decision (success or dead letter) ticks the SLO clock.
    let tick_slo = || {
        if let Some(slo) = slo {
            slo.advance();
        }
    };

    // The control process is task process 0. Between jobs it does its
    // control duties: re-enqueue the retries that are due, take the
    // completions residents have handed over (in batches,
    // `COMPLETION_BATCH`) or it made itself, decide retries and fill
    // slots. It blocks only when there is nothing it could run.
    let mut inbox = Vec::new().into_iter();
    let mut blocked = Duration::ZERO;
    while remaining > 0 {
        let Some(msg) = inbox.next() else {
            if !backing_off.is_empty() {
                let now = Instant::now();
                while let Some(&Reverse((due, i, next))) = backing_off.peek() {
                    if due > now {
                        break;
                    }
                    backing_off.pop();
                    pool.push_overflow(Job::retry(i, next));
                }
            }
            if let Ok(batch) = rx.try_recv() {
                inbox = batch.into_iter();
                continue;
            }
            if let Some((job, source)) = pool.take(0) {
                phase.step(&mut me, job, source);
                inbox = std::mem::take(&mut me.held).into_iter();
                continue;
            }
            // Nothing to run: wait for the next batch — no longer than
            // until the next retry is due. The phase holds a sender, so the
            // channel cannot disconnect under the wait.
            me.my.steal_misses += 1;
            let t0 = Instant::now();
            let batch = match backing_off.peek() {
                Some(&Reverse((due, ..))) => {
                    rx.recv_timeout(due.saturating_duration_since(t0)).ok()
                }
                None => rx.recv().ok(),
            };
            blocked += t0.elapsed();
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
            source: msg.source,
            queued_s: off(msg.queued),
            acquired_s: off(msg.acquired),
            started_s: off(msg.started),
            finished_s: off(msg.finished),
            ok: false,
            error: msg.result.as_ref().err().cloned(),
        };
        let o = &mut outcomes[i];
        o.attempts = msg.attempt + 1;
        o.elapsed = elapsed;
        let failure = match msg.result {
            Err(err) => Some(err),
            Ok(value) => {
                if ctl_live.enabled() {
                    ctl_live.inc("spam_live_tasks_completed", 1);
                    ctl_live.observe("spam_live_task_latency_seconds", elapsed.as_secs_f64());
                }
                // Mirror the task's result before the SLO clock
                // ticks, so its latency lands in the task's epoch.
                on_complete(i, &value);
                tick_slo();
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
                o.status = TaskStatus::Panicked;
                ctl_live.inc("spam_live_dead_letters", 1);
                if let Some(slo) = slo {
                    // A dead letter is a breach: the work never
                    // completed, so it burns error budget.
                    slo.dead_letter();
                }
                tick_slo();
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
    drop(closing);
    // Worker 0 files its statistics and drops its state here, on the
    // calling thread, while the residents count out.
    drop(phase.file(me));
    // Every resident has handed over its completions and filed its
    // statistics once the latch opens.
    let t0 = Instant::now();
    let died = phase.latch.wait();
    blocked += t0.elapsed();
    assert!(!died, "a task process died outside supervision");

    let (spawn_ready_s, mut workers): (_, Vec<WorkerStats>) = (phase.filed.iter())
        .map(|cell| *relock(cell.lock()))
        .unzip();
    for a in &attempts_log {
        let my = &mut workers[a.worker];
        my.executed += 1;
        my.busy_s += a.finished_s - a.started_s;
        my.stolen += u64::from(matches!(a.source, Source::Stolen(_)));
        my.overflow_taken += u64::from(a.source == Source::Overflow);
    }
    let report = ExecReport {
        start: Some(phase_start),
        workers,
        spawn_ready_s,
        chunks: n_chunks,
        overflowed,
        wall_s: phase_start.elapsed().as_secs_f64(),
        control_blocked_s: blocked.as_secs_f64(),
        lost_tasks: outcomes.iter().filter(|o| !o.status.succeeded()).count() as u32,
        attempts: attempts_log,
    };
    report.render(obs);
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

    use std::cell::Cell;

    static ALIVE: AtomicUsize = AtomicUsize::new(0);
    static DEMAND: AtomicUsize = AtomicUsize::new(0);
    static PEAK_DEMAND: AtomicUsize = AtomicUsize::new(0);

    pub(super) fn resident_threads() -> usize {
        ALIVE.load(Ordering::SeqCst)
    }

    pub(super) fn peak_demand() -> usize {
        PEAK_DEMAND.load(Ordering::SeqCst)
    }

    thread_local! {
        static LEASED_HERE: Cell<usize> = const { Cell::new(0) };
    }

    /// Residents this thread has leased so far.
    pub(super) fn leased_here() -> usize {
        LEASED_HERE.get()
    }

    pub(super) fn note_lease(n: usize) {
        LEASED_HERE.set(LEASED_HERE.get() + n);
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

    /// One phase's leased residents, from before its lease until after
    /// its latch.
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
    fn under(exec: ExecConfig, cfg: SupervisorConfig, plan: FaultPlan) -> PhaseRun {
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
        how: &PhaseRun,
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
            Some(LiveValue::Counter(total)) => *total,
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
        use tlp_obs::{ArgValue, EventKind};
        let id = TraceId::derive(42, "dc");
        for (name, exec) in placements(2) {
            let rec = Recorder::new(ObsLevel::Full);
            let plan = FaultPlan::none()
                .with_task_panic(1, 1)
                .with_task_panic(2, u32::MAX);
            let mut how = under(exec, retries(1), plan);
            (how.obs.rec, how.obs.trace) = (Arc::clone(&rec), Some(id));
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
            // Every event carries the scene's id; a failed attempt's end,
            // its panic text: t1 a0, t2 a0 and t2 a1.
            let tag = ("trace_id", ArgValue::Str(id.to_string()));
            assert!(events.iter().all(|e| e.args.contains(&tag)), "{name}");
            let errors = (events.iter())
                .filter_map(|e| e.args.iter().find(|(k, _)| *k == "error"))
                .count();
            assert_eq!(errors, 3, "{name}");
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
            let live = Live::new(0);
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
            let snap = live.snapshot();
            assert_eq!(counter(&snap, "spam_live_tasks_completed"), 4, "{name}");
            assert_eq!(counter(&snap, "spam_live_task_retries"), 2, "{name}");
            assert_eq!(counter(&snap, "spam_live_dead_letters"), 1, "{name}");
            assert_eq!(
                snap.series.get("spam_live_queue_depth"),
                Some(&LiveValue::Gauge(0.0)),
                "{name}: phase ended with nothing outstanding"
            );
            // The rendered per-worker series: busy time and attempt counts,
            // 5 first attempts + 2 retries.
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
            let live = Live::new(0);
            let slo = slo_on(&live);
            let mut how = PhaseRun::new(exec);
            how.obs.live = Arc::clone(&live);
            how.obs.slo = Some(Arc::clone(&slo));
            let on_complete = |_, _: &usize| slo.observe(0.5);
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
            let live = Live::new(0);
            let slo = slo_on(&live);
            let plan = (0..40).fold(FaultPlan::none(), |p, i| p.with_task_panic(i, u32::MAX));
            let mut how = under(exec, retries(0), plan);
            how.obs.live = Arc::clone(&live);
            how.obs.slo = Some(Arc::clone(&slo));
            let (slots, report, _) = run(&how, 40, |i| i);
            assert_eq!(slots.iter().flatten().count(), 0, "{name}");
            assert_eq!(report.dead_letters().len(), 40, "{name}");
            // Each is a breach with no latency sample.
            let snap = live.snapshot();
            assert_eq!(counter(&snap, "spam_slo_breaches"), 40, "{name}");
            assert!(!snap.series.contains_key("spam_slo_latency_seconds"));
            assert_eq!(
                slo.health(),
                Health::Degraded,
                "{name}: a phase of pure failures must trip the burn-rate alert"
            );
        }
    }

    #[test]
    fn a_step_writes_to_no_observer() {
        // An attempt is recorded once, in the completion its worker holds:
        // a phase has no recorder or registry for a step to write to.
        let (tx, _rx) = mpsc::channel();
        let phase = Phase {
            task: |_: &mut (), a: TaskAttempt| a.task,
            new_state: || (),
            pool: StealPool::new(2),
            tx,
            plan: FaultPlan::none().with_task_panic(1, 1),
            start: Instant::now(),
            filed: Vec::new(),
            latch: Latch::new(0),
        };
        let (mut wk, stolen) = (phase.worker(0), Source::Stolen(1));
        for task in [0, 1] {
            phase.step(&mut wk, Job::retry(task, 0), stolen);
        }
        let held: Vec<_> = (wk.held.iter())
            .map(|m| (m.task, m.source, m.result.is_ok()))
            .collect();
        assert_eq!(held, [(0, stolen, true), (1, stolen, false)]);

        // And while a whole phase runs, with every observer on, no worker
        // has a recorder track or a registry series: both are rendered
        // once the phase is over.
        for (name, exec) in placements(2) {
            let (rec, live) = (Recorder::new(ObsLevel::Full), Live::new(0));
            let mut how = PhaseRun::new(exec);
            (how.obs.rec, how.obs.live) = (Arc::clone(&rec), Arc::clone(&live));
            let (r, l) = (Arc::clone(&rec), Arc::clone(&live));
            let (slots, _, _) = run(&how, 6, move |_| {
                let series = l.snapshot().series;
                let mut keys = series.keys();
                r.threads().iter().any(|t| t.starts_with(WORKER_NAME))
                    || keys.any(|k| k.starts_with("spam_live_worker"))
            });
            assert_eq!(slots, [Some(false); 6], "{name}: a worker recorded");
            let track = format!("{WORKER_NAME}-0");
            assert!(rec.threads().contains(&track), "{name}");
        }
    }

    #[test]
    fn phases_around_the_batch_bound_terminate() {
        // A single task, exactly one full batch, and one more than that. At
        // one worker the calling thread runs them all and takes its own
        // completions; at two, what the resident runs goes through its
        // held batch (handed over when full, and before it sleeps).
        for workers in [1, 2] {
            for (name, exec) in placements(workers) {
                for n in [1, COMPLETION_BATCH, COMPLETION_BATCH + 1] {
                    let (slots, report, exec) = run(&PhaseRun::new(exec), n, |i| i);
                    assert!(report.is_clean(), "{name}");
                    assert_eq!(slots.into_iter().flatten().count(), n, "{name}");
                    assert_eq!(exec.attempts.len(), n, "{name}");
                    assert_eq!(executed(&exec), n as u64, "{name}");
                }
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
        // Two workers, twelve tasks in two chunks of six: chunk 0 (t0..t5)
        // is dealt to the calling thread, chunk 1 (t6..t11) to the
        // resident, which runs it in order. t0 holds the calling thread
        // until the resident has started chunk 1, so chunk 1 cannot be
        // stolen. The batch bound is never reached, so without the early
        // hand-over nothing of the resident's would reach the control loop
        // before it runs dry. t8's first attempt panics; t9, which runs next
        // on the resident, waits until the control loop has processed t6's
        // completion — which travels in the batch the failure pushed out.
        let chunk_1_started = Arc::new(AtomicBool::new(false));
        let sixth_reported = Arc::new(AtomicBool::new(false));
        let waited_in_vain = Arc::new(AtomicBool::new(false));
        let plan = FaultPlan::none().with_task_panic(8, 1);
        let cfg = SupervisorConfig::default().with_retries(1);
        let exec = ExecConfig {
            workers: 2,
            chunk_target: 6,
            deque_capacity: 64,
        };
        let (started, reported, in_vain) = (
            Arc::clone(&chunk_1_started),
            Arc::clone(&sixth_reported),
            Arc::clone(&waited_in_vain),
        );
        let (slots, report, exec) = execute(
            &under(exec, cfg, plan),
            labels(12),
            &[],
            |i, _: &usize| {
                if i == 6 {
                    sixth_reported.store(true, Ordering::SeqCst);
                }
            },
            move |_: &mut (), a| {
                let wait_for = |flag: &AtomicBool| {
                    let give_up = Instant::now() + Duration::from_secs(20);
                    while !flag.load(Ordering::SeqCst) {
                        if Instant::now() > give_up {
                            in_vain.store(true, Ordering::SeqCst);
                            break;
                        }
                        std::thread::yield_now();
                    }
                };
                match (a.task, a.attempt) {
                    (0, _) => wait_for(&started),
                    (6, _) => started.store(true, Ordering::SeqCst),
                    (9, _) => wait_for(&reported),
                    _ => {}
                }
                a.task
            },
        )
        .unwrap();
        assert!(
            !waited_in_vain.load(Ordering::SeqCst),
            "the failed attempt must hand its batch over without waiting for the bound"
        );
        assert_eq!(exec.chunks, 2, "twelve unit estimates make two chunks");
        for a in exec.attempts.iter().filter(|a| a.attempt == 0) {
            let w = usize::from(a.task >= 6);
            let ran = (a.worker, a.source);
            assert_eq!(ran, (w, Source::Own), "t{} ran where dealt", a.task);
        }
        assert_eq!(slots.iter().flatten().count(), 12);
        assert_eq!(report.outcomes[8].status, TaskStatus::Retried(1));
        let retry = (exec.attempts.iter())
            .find(|a| a.task == 8 && a.attempt == 1)
            .expect("the retry ran");
        assert!(retry.ok);
        assert_eq!(
            exec.overflow_taken(),
            1,
            "the retry re-entered via overflow"
        );
        assert_eq!(exec.attempts.len(), 13);
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
                assert_eq!(of(task).source, first.source, "t{task} rode with its chunk");
            }
            (first.worker, matches!(first.source, Source::Stolen(_)))
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
    fn one_worker_leases_no_resident_and_runs_on_the_calling_thread() {
        // N = 1 is no handoff at all: the phase runs where `execute` was
        // called, the retry of t2 included.
        let caller = std::thread::current().id();
        for (name, exec) in placements(1) {
            let leased = census::leased_here();
            let plan = FaultPlan::none().with_task_panic(2, 1);
            let how = under(exec, retries(1), plan);
            let (slots, report, measured) = run(&how, 6, |_| std::thread::current().id());
            assert_eq!(
                census::leased_here(),
                leased,
                "{name}: a resident was leased"
            );
            assert_eq!(report.total_retries(), 1, "{name}");
            assert!(slots.iter().all(|s| *s == Some(caller)), "{name}");
            assert_eq!(measured.attempts.len(), 7, "{name}");
            assert!(measured.attempts.iter().all(|a| a.worker == 0), "{name}");
            assert_eq!(measured.spawn_ready_s.len(), 1, "{name}");
        }
    }

    #[test]
    fn a_phase_completes_on_the_caller_while_its_resident_is_held_up() {
        // The calling thread works the pool, so a phase never waits for a
        // resident to pick up. Here the leased resident is held up making
        // its state until every task has completed: the phase — its retry
        // of t5 included — runs on the caller alone, and the resident,
        // once it gets there, finds the pool closed and runs nothing.
        static RELEASED: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());
        struct HeldUp;
        impl Default for HeldUp {
            fn default() -> HeldUp {
                let here = std::thread::current();
                if here.name().is_some_and(|n| n.starts_with(WORKER_NAME)) {
                    let (flag, cv) = &RELEASED;
                    let timeout = Duration::from_secs(20);
                    let _ = cv.wait_timeout_while(relock(flag.lock()), timeout, |r| !*r);
                }
                HeldUp
            }
        }
        for (name, exec) in placements(2) {
            *relock(RELEASED.0.lock()) = false;
            let n = 12;
            let completed = AtomicUsize::new(0);
            let on_complete = |_, _: &usize| {
                if completed.fetch_add(1, Ordering::SeqCst) + 1 == n {
                    *relock(RELEASED.0.lock()) = true;
                    RELEASED.1.notify_all();
                }
            };
            let plan = FaultPlan::none().with_task_panic(5, 1);
            let how = under(exec, retries(1), plan);
            let (slots, report, measured) =
                execute(&how, labels(n), &[], on_complete, |_: &mut HeldUp, a| {
                    a.task
                })
                .unwrap();
            assert_eq!(slots.iter().flatten().count(), n, "{name}");
            assert_eq!(report.outcomes[5].status, TaskStatus::Retried(1), "{name}");
            assert_eq!(measured.attempts.len(), n + 1, "{name}");
            assert!(
                measured.attempts.iter().all(|a| a.worker == 0),
                "{name}: {:?}",
                measured.attempts
            );
            assert_eq!(measured.workers.len(), 2, "{name}");
            assert_eq!(measured.workers[1].executed, 0, "{name}");
            assert_eq!(measured.workers[0].executed, n as u64 + 1, "{name}");
        }
    }

    #[test]
    fn a_caller_that_unwinds_still_releases_its_residents() {
        // `on_complete` panics on the calling thread, outside any attempt,
        // so `execute` unwinds mid-phase. The two residents it leased must
        // still finish, park and drop their state — the pool closes as the
        // caller leaves — rather than wait for jobs forever.
        static DROPPED: Mutex<Option<mpsc::Sender<()>>> = Mutex::new(None);
        #[derive(Default)]
        struct Noted;
        impl Drop for Noted {
            fn drop(&mut self) {
                let here = std::thread::current();
                if here.name().is_some_and(|n| n.starts_with(WORKER_NAME)) {
                    if let Some(tx) = &*relock(DROPPED.lock()) {
                        let _ = tx.send(());
                    }
                }
            }
        }
        let (tx, dropped) = mpsc::channel();
        *relock(DROPPED.lock()) = Some(tx);
        let how = PhaseRun::new(ExecConfig::central_queue(3));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            execute(
                &how,
                labels(6),
                &[],
                |_, _: &usize| panic!("injected: on_complete panics"),
                |_: &mut Noted, a| a.task,
            )
        }));
        assert!(unwound.is_err());
        for k in 0..2 {
            let released = dropped.recv_timeout(Duration::from_secs(10));
            assert!(released.is_ok(), "resident {k} of 2 never left the phase");
        }
        *relock(DROPPED.lock()) = None;
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
        lease(&stunt, 1..2);
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
        // and the registry never holds more threads than the most residents
        // the process has leased at once — N − 1 per phase of N workers,
        // the calling thread being worker 0: a worker is parked again
        // before its phase's latch opens, so the next lease finds it.
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
        assert!(wanted >= 2, "this test alone leases two residents at once");
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
    /// using it — and dropped by the thread that ran it. A resident drops
    /// its own once it has counted out, so the control process never waits
    /// for that drop; worker 0's is the calling thread's, dropped by it
    /// inside `execute` once the pool is closed, before the latch.
    #[test]
    fn a_workers_state_spans_its_phase_and_is_dropped_by_its_own_thread() {
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
                // Were a resident's drop ahead of the latch, `execute`
                // could not return while it waits, and the wait would time
                // out. The calling thread's cannot wait for `execute`.
                let here = std::thread::current().name().unwrap_or("").to_owned();
                let (flag, cv) = &RETURNED;
                let returned = if here.starts_with(WORKER_NAME) {
                    let timeout = Duration::from_secs(5);
                    let (returned, _) = cv
                        .wait_timeout_while(relock(flag.lock()), timeout, |r| !*r)
                        .unwrap_or_else(PoisonError::into_inner);
                    *returned
                } else {
                    *relock(flag.lock())
                };
                if let Some(tx) = &*relock(ENDED.lock()) {
                    let _ = tx.send(Ended {
                        seen: std::mem::take(&mut self.0),
                        on_thread: here,
                        execute_had_returned: returned,
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
            // One state per thread: the resident's dropped on it after
            // `execute` returned, worker 0's on this thread before.
            let caller = std::thread::current().name().unwrap_or("").to_owned();
            let (mut on_resident, mut on_caller) = (0, 0);
            for end in &ends {
                if end.on_thread == caller {
                    on_caller += 1;
                    assert!(
                        !end.execute_had_returned,
                        "{name}: worker 0's state outlived execute"
                    );
                } else {
                    on_resident += 1;
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
            }
            assert_eq!((on_caller, on_resident), (1, 1), "{name}");
            // Each state saw exactly its worker's attempts, in the order
            // the worker ran them — the panicked one included; the one this
            // thread dropped, worker 0's.
            let ran: Vec<Vec<(usize, u32)>> = (0..2)
                .map(|w| {
                    let mut mine: Vec<_> =
                        measured.attempts.iter().filter(|a| a.worker == w).collect();
                    mine.sort_by(|a, b| a.started_s.total_cmp(&b.started_s));
                    mine.iter().map(|a| (a.task, a.attempt)).collect()
                })
                .collect();
            ends.sort_by_key(|e| e.on_thread != caller);
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
