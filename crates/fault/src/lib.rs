//! Failure model for the SPAM/PSM reproduction.
//!
//! The paper's machines (Encore Multimax, VAX clusters) lost processors,
//! dropped messages, and suffered page-fault storms; the original SPAM/PSM
//! runs simply died. This crate provides the pieces that let both the real
//! task-process thread pool (`spam-psm`, `paraops5`) and the Multimax
//! simulator (`multimax-sim`) run *under* injected faults and report what
//! happened instead of panicking:
//!
//! - [`FaultPlan`]: a seeded, deterministic description of which faults
//!   fire. Every decision is a pure hash of `(seed, domain, a, b)` — a
//!   function of the *identity* of the task/worker/message, never of
//!   thread interleaving — so two runs under the same plan inject exactly
//!   the same faults.
//! - [`TaskReport`] / [`TaskOutcome`] / [`TaskStatus`]: per-task result of
//!   a supervised phase (ok, retried, or panicked and dead-lettered).
//! - [`SupervisorConfig`]: bounded retry and backoff policy.
//! - [`SuperviseError`]: typed configuration errors (e.g. zero workers)
//!   replacing `assert!` panics.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Namespaces for hash-based fault decisions. Distinct domains guarantee
/// that, e.g., the draw deciding whether task 3 panics is independent of
/// the draw deciding whether message 3 is lost.
#[derive(Clone, Copy, Debug)]
enum Domain {
    TaskPanic = 1,
    WorkerDeath = 2,
    Straggler = 3,
    MessageLoss = 4,
    PageStorm = 5,
}

/// SplitMix64 finalizer — good avalanche, cheap, stable across platforms.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, deterministic plan of which faults fire during a run.
///
/// A plan combines *explicit* faults (this task panics on its first two
/// attempts, this worker dies after its third flush) with *rate-driven*
/// faults (each task panics with probability `task_panic_rate`). Both are
/// pure functions of the plan and the fault site's identity, so a plan
/// replays identically regardless of scheduling.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Explicit panics: task index -> number of leading attempts that panic.
    panic_attempts: BTreeMap<usize, u32>,
    /// Explicit worker deaths: worker index -> dies after this many flushes
    /// (death takes effect while serving flush number `after` counted from 1).
    worker_deaths: BTreeMap<usize, u64>,
    /// Probability that a given (task, attempt) panics.
    task_panic_rate: f64,
    /// Probability that a given worker dies (at a hash-chosen flush).
    worker_death_rate: f64,
    /// Probability that a task is a straggler.
    straggler_rate: f64,
    /// Service-time multiplier applied to stragglers.
    straggler_factor: f64,
    /// Probability that a given message transmission is lost.
    message_loss_rate: f64,
    /// Probability that a task suffers a page-fault storm.
    page_storm_rate: f64,
    /// Multiplier on per-task page-fault count during a storm.
    page_storm_factor: f64,
    /// Mid-cycle kills: `(task, attempt)` -> recognize–act cycle number at
    /// which the attempt panics (counted in firings the engine has done;
    /// the kill fires once the count reaches the value).
    cycle_kills: BTreeMap<(usize, u32), u64>,
}

impl FaultPlan {
    /// A plan that injects nothing. `FaultPlan::default()` is the same.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A fault-free plan carrying a seed, ready for rate builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            straggler_factor: 4.0,
            page_storm_factor: 8.0,
            ..FaultPlan::default()
        }
    }

    /// Returns the plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True if this plan can never inject a fault.
    pub fn is_benign(&self) -> bool {
        self.panic_attempts.is_empty()
            && self.worker_deaths.is_empty()
            && self.task_panic_rate == 0.0
            && self.worker_death_rate == 0.0
            && self.straggler_rate == 0.0
            && self.message_loss_rate == 0.0
            && self.page_storm_rate == 0.0
            && self.cycle_kills.is_empty()
    }

    /// Explicitly panic `task` on its first `attempts` attempts. With
    /// `attempts = 1` and one retry allowed, the retry succeeds.
    pub fn with_task_panic(mut self, task: usize, attempts: u32) -> Self {
        self.panic_attempts.insert(task, attempts);
        self
    }

    /// Explicitly kill `worker` after it has served `after_flushes`
    /// flush barriers (counted from 1; 0 kills it before any flush).
    pub fn with_worker_death(mut self, worker: usize, after_flushes: u64) -> Self {
        self.worker_deaths.insert(worker, after_flushes);
        self
    }

    /// Each (task, attempt) panics with probability `rate`.
    pub fn with_task_panic_rate(mut self, rate: f64) -> Self {
        self.task_panic_rate = check_rate(rate);
        self
    }

    /// Each worker dies with probability `rate`, at a hash-chosen flush
    /// in `1..=8`.
    pub fn with_worker_death_rate(mut self, rate: f64) -> Self {
        self.worker_death_rate = check_rate(rate);
        self
    }

    /// Each task straggles (service time multiplied by `factor`) with
    /// probability `rate`.
    pub fn with_stragglers(mut self, rate: f64, factor: f64) -> Self {
        assert!(factor >= 1.0, "straggler factor must be >= 1");
        self.straggler_rate = check_rate(rate);
        self.straggler_factor = factor;
        self
    }

    /// Each message transmission is lost (and must be retransmitted) with
    /// probability `rate`.
    pub fn with_message_loss(mut self, rate: f64) -> Self {
        self.message_loss_rate = check_rate(rate);
        self
    }

    /// Each task suffers a page-fault storm (fault count multiplied by
    /// `factor`) with probability `rate`.
    pub fn with_page_storms(mut self, rate: f64, factor: f64) -> Self {
        assert!(factor >= 1.0, "page storm factor must be >= 1");
        self.page_storm_rate = check_rate(rate);
        self.page_storm_factor = factor;
        self
    }

    /// Kill `task`'s attempt number `attempt` mid-run, once its engine has
    /// completed `cycle` recognize–act cycles. Unlike [`with_task_panic`]
    /// (which panics *before* any work), a mid-cycle kill panics with a
    /// half-finished engine, which the attempt drops; a retry starts over.
    ///
    /// [`with_task_panic`]: FaultPlan::with_task_panic
    pub fn with_cycle_kill(mut self, task: usize, attempt: u32, cycle: u64) -> Self {
        assert!(cycle > 0, "a cycle kill fires after at least one cycle");
        self.cycle_kills.insert((task, attempt), cycle);
        self
    }

    /// The cycle at which `(task, attempt)` is fated to be killed mid-run,
    /// if any.
    pub fn cycle_kill(&self, task: usize, attempt: u32) -> Option<u64> {
        self.cycle_kills.get(&(task, attempt)).copied()
    }

    /// A human-readable dump of every fault this plan schedules, for
    /// failure reports: when a chaos run goes wrong, the exact seed and
    /// schedule printed here are all that is needed to replay it.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("fault plan (seed {}):\n", self.seed);
        if self.is_benign() {
            s.push_str("  benign: no faults scheduled\n");
            return s;
        }
        for (&task, &attempts) in &self.panic_attempts {
            let _ = writeln!(
                s,
                "  task {task}: panics on its first {attempts} attempt(s)"
            );
        }
        for (&(task, attempt), &cycle) in &self.cycle_kills {
            let _ = writeln!(
                s,
                "  task {task} attempt {attempt}: killed mid-run at cycle {cycle}"
            );
        }
        for (&worker, &after) in &self.worker_deaths {
            let _ = writeln!(s, "  worker {worker}: dies after {after} flush(es)");
        }
        for (name, rate) in [
            ("task panic", self.task_panic_rate),
            ("worker death", self.worker_death_rate),
            ("straggler", self.straggler_rate),
            ("message loss", self.message_loss_rate),
            ("page storm", self.page_storm_rate),
        ] {
            if rate > 0.0 {
                let _ = writeln!(s, "  {name} rate: {rate}");
            }
        }
        s
    }

    /// One deterministic draw in `[0, 1)` for a fault site.
    fn draw(&self, domain: Domain, a: u64, b: u64) -> f64 {
        let h = mix(self
            .seed
            .wrapping_add(mix((domain as u64) << 56 ^ a))
            .wrapping_add(mix(b.wrapping_mul(0x9e37_79b9_7f4a_7c15))));
        // 53 uniform mantissa bits, same construction rand uses for f64.
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Does this (task, attempt) panic? Deterministic in its arguments.
    pub fn task_panics(&self, task: usize, attempt: u32) -> bool {
        if let Some(&n) = self.panic_attempts.get(&task) {
            if attempt < n {
                return true;
            }
        }
        self.task_panic_rate > 0.0
            && self.draw(Domain::TaskPanic, task as u64, attempt as u64) < self.task_panic_rate
    }

    /// If `worker` is fated to die, the number of flush barriers it serves
    /// first (counted from 1; `Some(0)` means it dies immediately).
    pub fn worker_death(&self, worker: usize) -> Option<u64> {
        if let Some(&after) = self.worker_deaths.get(&worker) {
            return Some(after);
        }
        if self.worker_death_rate > 0.0
            && self.draw(Domain::WorkerDeath, worker as u64, 0) < self.worker_death_rate
        {
            // Hash-chosen death point in 1..=8 so rate-driven deaths land
            // mid-run rather than all at startup.
            let h = mix(self.seed ^ mix(0xdead ^ worker as u64));
            return Some(1 + h % 8);
        }
        None
    }

    /// Service-time multiplier for `task`: 1.0, or the straggler factor.
    pub fn service_factor(&self, task: usize) -> f64 {
        if self.straggler_rate > 0.0
            && self.draw(Domain::Straggler, task as u64, 0) < self.straggler_rate
        {
            self.straggler_factor
        } else {
            1.0
        }
    }

    /// Is transmission number `attempt` of message `msg` lost?
    pub fn message_lost(&self, msg: u64, attempt: u32) -> bool {
        self.message_loss_rate > 0.0
            && self.draw(Domain::MessageLoss, msg, attempt as u64) < self.message_loss_rate
    }

    /// Page-fault multiplier for `task`: 1.0, or the storm factor.
    pub fn page_fault_factor(&self, task: usize) -> f64 {
        if self.page_storm_rate > 0.0
            && self.draw(Domain::PageStorm, task as u64, 0) < self.page_storm_rate
        {
            self.page_storm_factor
        } else {
            1.0
        }
    }
}

/// Builds a seeded chaos schedule over a phase of `task_cycles.len()` tasks
/// whose fault-free runs take the given per-task cycle counts.
///
/// Picks `kills` distinct victim tasks (hash-probed from `seed`) and fates
/// each one's first attempt to a mid-cycle kill somewhere inside its
/// fault-free cycle span, so every kill lands on a genuinely half-finished
/// engine. Only attempt 0 is killed: one retry recovers every victim.
///
/// The schedule is a pure function of its arguments: the same seed against
/// the same baseline replays the identical fault sequence.
pub fn chaos_schedule(seed: u64, kills: u32, task_cycles: &[u64]) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed);
    let n = task_cycles.len();
    if n == 0 || kills == 0 {
        return plan;
    }
    let kills = kills.min(n as u32);
    let mut victims: Vec<usize> = Vec::with_capacity(kills as usize);
    for k in 0..u64::from(kills) {
        // Hash-probe for a not-yet-chosen victim (linear probe on collision).
        let mut t = (mix(seed ^ (0xC11C_0000 + k)) % n as u64) as usize;
        while victims.contains(&t) {
            t = (t + 1) % n;
        }
        // Kill after at least one cycle, at or before the task's natural
        // end, so the attempt always leaves a half-finished engine behind.
        let span = task_cycles[t].max(1);
        let cycle = 1 + mix(seed ^ 0x5EED ^ ((t as u64) << 8)) % span;
        plan = plan.with_cycle_kill(t, 0, cycle);
        victims.push(t);
    }
    plan
}

fn check_rate(rate: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&rate) && rate.is_finite(),
        "fault rate must be in [0, 1], got {rate}"
    );
    rate
}

/// Supervision policy for a parallel phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Retries allowed per task after its first attempt fails.
    pub max_retries: u32,
    /// Base backoff before a retry; attempt `k` waits `k * backoff`.
    pub backoff: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 0,
            backoff: Duration::from_millis(5),
        }
    }
}

impl SupervisorConfig {
    /// Policy allowing `max_retries` retries per task.
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Policy with a given base backoff.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }
}

/// Final status of one supervised task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskStatus {
    /// Succeeded on the first attempt.
    Ok,
    /// Succeeded after this many retries.
    Retried(u32),
    /// All attempts panicked; dead-lettered.
    Panicked,
}

impl TaskStatus {
    /// Did the task ultimately produce a result?
    pub fn succeeded(&self) -> bool {
        matches!(self, TaskStatus::Ok | TaskStatus::Retried(_))
    }
}

impl fmt::Display for TaskStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskStatus::Ok => write!(f, "ok"),
            TaskStatus::Retried(n) => write!(f, "ok after {n} retr{}", plural_y(*n)),
            TaskStatus::Panicked => write!(f, "panicked"),
        }
    }
}

fn plural_y(n: u32) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

/// What happened to one task of a supervised phase.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskOutcome {
    /// Task index within the phase (submission order).
    pub task: usize,
    /// Human-readable task label (e.g. the LCC unit description). A
    /// supervised phase formats it only for a task that retried or was
    /// dead-lettered, the tasks a report prints it for; empty otherwise.
    pub label: String,
    /// Final status.
    pub status: TaskStatus,
    /// Total attempts made (>= 1).
    pub attempts: u32,
    /// Wall-clock time of the last attempt.
    pub elapsed: Duration,
    /// Time from phase start (enqueue) until the first attempt began
    /// executing on a worker.
    pub queue_wait: Duration,
    /// Extra latency attributable to retries: time from the first attempt's
    /// start until the last attempt's start (zero when `attempts == 1`).
    pub retry_latency: Duration,
    /// Panic payload from the last failed attempt.
    pub error: Option<String>,
}

/// Per-task accounting for a supervised parallel phase: which tasks
/// succeeded, which needed retries, and which were dead-lettered.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TaskReport {
    /// One outcome per task, in task-index order.
    pub outcomes: Vec<TaskOutcome>,
}

impl TaskReport {
    /// A report marking `n` tasks as cleanly succeeded (used by the
    /// sequential path, which cannot fail partially). Their labels stay
    /// empty: the report prints a label only for a task that retried or was
    /// dead-lettered.
    pub fn clean(n: usize) -> TaskReport {
        TaskReport::all_ok(std::iter::repeat_n("", n))
    }

    /// A report marking `labels` tasks as cleanly succeeded, labelled.
    pub fn all_ok<S: Into<String>, I: IntoIterator<Item = S>>(labels: I) -> TaskReport {
        TaskReport {
            outcomes: labels
                .into_iter()
                .enumerate()
                .map(|(task, label)| TaskOutcome {
                    task,
                    label: label.into(),
                    status: TaskStatus::Ok,
                    attempts: 1,
                    elapsed: Duration::ZERO,
                    queue_wait: Duration::ZERO,
                    retry_latency: Duration::ZERO,
                    error: None,
                })
                .collect(),
        }
    }

    /// Tasks that ultimately produced a result.
    pub fn succeeded(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status.succeeded())
            .count()
    }

    /// Dead-lettered tasks: every attempt failed.
    pub fn dead_letters(&self) -> Vec<&TaskOutcome> {
        self.outcomes
            .iter()
            .filter(|o| !o.status.succeeded())
            .collect()
    }

    /// Total retry attempts across all tasks.
    pub fn total_retries(&self) -> u32 {
        self.outcomes.iter().map(|o| o.attempts - 1).sum()
    }

    /// True when every task succeeded on its first attempt.
    pub fn is_clean(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| o.status == TaskStatus::Ok && o.attempts == 1)
    }

    /// Report formatter. With `latencies` the per-task lines include
    /// wall-clock queue-wait/retry-latency figures; those vary between
    /// otherwise-identical runs, so the plain [`fmt::Display`] (which must
    /// stay byte-identical for same-seed runs) omits them.
    pub fn display(&self, latencies: bool) -> TaskReportDisplay<'_> {
        TaskReportDisplay {
            report: self,
            latencies,
        }
    }
}

/// [`TaskReport`] formatter returned by [`TaskReport::display`].
pub struct TaskReportDisplay<'a> {
    report: &'a TaskReport,
    latencies: bool,
}

impl fmt::Display for TaskReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.display(false).fmt(f)
    }
}

impl fmt::Display for TaskReportDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let this = self.report;
        let dead = this.dead_letters().len();
        writeln!(
            f,
            "task report: {}/{} ok, {} retr{}, {} dead-letter{}",
            this.succeeded(),
            this.outcomes.len(),
            this.total_retries(),
            plural_y(this.total_retries()),
            dead,
            if dead == 1 { "" } else { "s" },
        )?;
        for o in &this.outcomes {
            if o.status == TaskStatus::Ok && o.attempts == 1 {
                continue;
            }
            write!(f, "  task {} [{}]: {}", o.task, o.label, o.status)?;
            if let Some(err) = &o.error {
                write!(f, " ({err})")?;
            }
            if self.latencies {
                write!(
                    f,
                    " [queue-wait {:.1} ms, retry-latency {:.1} ms]",
                    o.queue_wait.as_secs_f64() * 1e3,
                    o.retry_latency.as_secs_f64() * 1e3,
                )?;
            }
            writeln!(f)?;
        }
        let dead = this.dead_letters();
        if !dead.is_empty() {
            writeln!(f, "  dead letters:")?;
            for o in dead {
                writeln!(
                    f,
                    "    task {} [{}] after {} attempt{}: {}",
                    o.task,
                    o.label,
                    o.attempts,
                    if o.attempts == 1 { "" } else { "s" },
                    o.error.as_deref().unwrap_or("no error recorded"),
                )?;
            }
        }
        Ok(())
    }
}

/// Configuration errors from supervised execution, replacing `assert!`
/// panics on bad arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SuperviseError {
    /// A worker pool needs at least one worker.
    NoWorkers,
}

impl fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperviseError::NoWorkers => write!(f, "need at least one worker"),
        }
    }
}

impl std::error::Error for SuperviseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let a = FaultPlan::seeded(42)
            .with_task_panic_rate(0.3)
            .with_stragglers(0.2, 5.0)
            .with_message_loss(0.1)
            .with_page_storms(0.15, 6.0)
            .with_worker_death_rate(0.25);
        let b = a.clone();
        for t in 0..200 {
            assert_eq!(a.task_panics(t, 0), b.task_panics(t, 0));
            assert_eq!(a.task_panics(t, 1), b.task_panics(t, 1));
            assert_eq!(a.service_factor(t), b.service_factor(t));
            assert_eq!(a.page_fault_factor(t), b.page_fault_factor(t));
            assert_eq!(a.worker_death(t), b.worker_death(t));
            assert_eq!(a.message_lost(t as u64, 0), b.message_lost(t as u64, 0));
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::seeded(7).with_task_panic_rate(0.3);
        let hits = (0..10_000).filter(|&t| plan.task_panics(t, 0)).count();
        assert!(
            (2500..3500).contains(&hits),
            "got {hits} panics at rate 0.3"
        );
    }

    #[test]
    fn domains_are_independent() {
        // The same (task) identity must not force correlated decisions
        // across fault kinds.
        let plan = FaultPlan::seeded(9)
            .with_task_panic_rate(0.5)
            .with_stragglers(0.5, 2.0);
        let both = (0..1000)
            .filter(|&t| plan.task_panics(t, 0) && plan.service_factor(t) > 1.0)
            .count();
        assert!((150..350).contains(&both), "correlated domains: {both}");
    }

    #[test]
    fn explicit_faults_override_rates() {
        let plan = FaultPlan::seeded(3).with_task_panic(5, 2);
        assert!(plan.task_panics(5, 0));
        assert!(plan.task_panics(5, 1));
        assert!(!plan.task_panics(5, 2));
        assert!(!plan.task_panics(4, 0));
        assert_eq!(plan.worker_death(0), None);
        let plan = plan.with_worker_death(1, 3);
        assert_eq!(plan.worker_death(1), Some(3));
    }

    #[test]
    fn benign_plans_inject_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_benign());
        for t in 0..100 {
            assert!(!plan.task_panics(t, 0));
            assert_eq!(plan.service_factor(t), 1.0);
            assert_eq!(plan.page_fault_factor(t), 1.0);
            assert_eq!(plan.worker_death(t), None);
            assert!(!plan.message_lost(t as u64, 0));
        }
        assert!(!FaultPlan::seeded(1).with_message_loss(0.5).is_benign());
    }

    #[test]
    fn cycle_kills_are_recorded_and_queried() {
        let plan = FaultPlan::seeded(11).with_cycle_kill(3, 0, 17);
        assert!(!plan.is_benign());
        assert_eq!(plan.cycle_kill(3, 0), Some(17));
        assert_eq!(plan.cycle_kill(3, 1), None);
        assert_eq!(plan.cycle_kill(2, 0), None);
    }

    #[test]
    fn describe_lists_every_scheduled_fault() {
        let plan = FaultPlan::seeded(42)
            .with_task_panic(1, 2)
            .with_cycle_kill(3, 0, 17)
            .with_worker_death(0, 2)
            .with_message_loss(0.1);
        let text = plan.describe();
        assert!(text.contains("seed 42"), "{text}");
        assert!(text.contains("task 1: panics on its first 2"), "{text}");
        assert!(
            text.contains("task 3 attempt 0: killed mid-run at cycle 17"),
            "{text}"
        );
        assert!(text.contains("worker 0: dies after 2"), "{text}");
        assert!(text.contains("message loss rate: 0.1"), "{text}");
        assert!(
            FaultPlan::none().describe().contains("benign"),
            "benign plans say so"
        );
    }

    #[test]
    fn chaos_schedule_is_deterministic_and_well_formed() {
        let cycles = [40u64, 25, 60, 10, 35, 50];
        let a = chaos_schedule(7, 3, &cycles);
        let b = chaos_schedule(7, 3, &cycles);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, chaos_schedule(8, 3, &cycles), "seed matters");

        // Exactly 3 distinct victims, each killed inside its cycle span.
        let victims: Vec<usize> = (0..cycles.len())
            .filter(|&t| a.cycle_kill(t, 0).is_some())
            .collect();
        assert_eq!(victims.len(), 3);
        for &t in &victims {
            let c = a.cycle_kill(t, 0).unwrap();
            assert!(c >= 1 && c <= cycles[t], "kill at {c} outside span");
            assert_eq!(a.cycle_kill(t, 1), None, "only attempt 0 is killed");
        }
    }

    #[test]
    fn chaos_schedule_caps_kills_and_handles_empty_phases() {
        assert!(chaos_schedule(1, 3, &[]).is_benign());
        assert!(chaos_schedule(1, 0, &[10, 10]).is_benign());
        let plan = chaos_schedule(1, 99, &[10, 10, 10]);
        let victims = (0..3).filter(|&t| plan.cycle_kill(t, 0).is_some()).count();
        assert_eq!(victims, 3, "kills are capped at the task count");
    }

    #[test]
    fn report_accounting() {
        let mut report = TaskReport::all_ok(["a", "b", "c"]);
        assert!(report.is_clean());
        assert_eq!(report.succeeded(), 3);
        report.outcomes[1].status = TaskStatus::Retried(2);
        report.outcomes[1].attempts = 3;
        report.outcomes[2].status = TaskStatus::Panicked;
        report.outcomes[2].attempts = 2;
        report.outcomes[2].error = Some("boom".into());
        assert!(!report.is_clean());
        assert_eq!(report.succeeded(), 2);
        assert_eq!(report.total_retries(), 3);
        assert_eq!(report.dead_letters().len(), 1);
        let text = report.to_string();
        assert!(text.contains("2/3 ok"), "{text}");
        assert!(text.contains("task 2 [c]: panicked (boom)"), "{text}");
        assert!(text.contains("dead letters:"), "{text}");
        assert!(text.contains("after 2 attempts: boom"), "{text}");
        // The plain Display must stay byte-identical across same-seed runs,
        // so the wall-clock latency figures live behind display(true).
        assert!(!text.contains("queue-wait"), "{text}");
        let detailed = report.display(true).to_string();
        assert!(detailed.contains("queue-wait"), "{detailed}");
        assert!(detailed.contains("retry-latency"), "{detailed}");
    }

    #[test]
    fn status_display() {
        assert_eq!(TaskStatus::Retried(1).to_string(), "ok after 1 retry");
        assert_eq!(TaskStatus::Retried(2).to_string(), "ok after 2 retries");
        assert_eq!(
            SuperviseError::NoWorkers.to_string(),
            "need at least one worker"
        );
    }
}
