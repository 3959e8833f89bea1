//! Crash-consistent checkpoints and deterministic replay recovery, per
//! *task*, for a phase run with [`PhaseRun::checkpoint`] set (DESIGN §16).
//! An attempt begun from nothing writes its initial working memory to a
//! **write-ahead log** in the phase's `CheckpointStore` before its first
//! cycle, then every `interval` cycles a checksummed **engine snapshot**
//! with the cycles logged since the last; a retry restores the last
//! snapshot, replays the WAL past it and re-executes only the cycles since.
//! It is the lifecycle of [`spam::task`] all the same — entered through
//! [`TaskProcess::resume`] or [`TaskProcess::begin_empty`], driven by the
//! one loop in [`spam::watch`] under a [`DrivePolicy`] that stops at each
//! checkpoint and at the fault plan's kill — so a resumed attempt returns
//! exactly the fault-free result, whole cycle log included. This module owns
//! the store, that policy, the recovery ladder (checkpoint + WAL → WAL
//! rebuild → scratch) with its recorder events, and the report. The store's
//! mutex is poison-tolerant ([`PoisonError::into_inner`]), so a kill while
//! holding it wedges nothing, and a torn WAL tail is truncated: subsumed by
//! a snapshot or, with none, proof the crash came before the first cycle.

use crate::exec::PhaseRun;
use crate::supervise::TaskAttempt;
use ops5::snapshot::apply_record;
use ops5::{CycleStats, Engine, Wal, WalOp, WalRecord};
use spam::task::{Task, TaskProcess};
use spam::watch::{DrivePolicy, Watch};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tlp_fault::FaultPlan;
use tlp_obs::{Category, ObsLevel, Recorder, ThreadSink};

/// Checkpoint policy for a phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Cycles between snapshots; `0` disables checkpointing (recovery then
    /// falls back to WAL replay from cycle 0).
    pub interval: u64,
}

impl CheckpointConfig {
    /// Policy checkpointing every `interval` cycles.
    pub fn every(interval: u64) -> CheckpointConfig {
        CheckpointConfig { interval }
    }
}

/// Persisted crash-recovery state of one task.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Saved {
    /// The write-ahead log of the task's load.
    pub wal: Vec<u8>,
    /// The most recent snapshot, with the cycle it was taken at.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// The task's cycle log up to that cycle (snapshots do not carry it).
    pub logged: Vec<CycleStats>,
}

/// Where checkpoints and WALs survive worker death: the phase's, outside
/// the workers' `catch_unwind`. Every lock recovers from poisoning; the
/// state is a plain value never left half-updated.
#[derive(Debug, Default)]
pub(crate) struct CheckpointStore {
    state: Mutex<HashMap<usize, Saved>>,
}

impl CheckpointStore {
    fn lock(&self) -> MutexGuard<'_, HashMap<usize, Saved>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Persists `task`'s write-ahead log (replacing any previous one).
    pub fn save_wal(&self, task: usize, wal: Vec<u8>) {
        self.lock().entry(task).or_default().wal = wal;
    }

    /// Persists `task`'s snapshot taken at `cycle` with `logged`, the cycles
    /// logged since the checkpoint before (appended: the stored log ends at
    /// `cycle`), then runs `and_then` *still holding the lock* — where chaos
    /// kills a holder. The data is in before, so a panicking hook poisons
    /// the mutex but loses nothing.
    pub fn save_checkpoint_with(
        &self,
        task: usize,
        cycle: u64,
        snapshot: Vec<u8>,
        logged: &[CycleStats],
        and_then: impl FnOnce(),
    ) {
        let mut st = self.lock();
        let saved = st.entry(task).or_default();
        saved.checkpoint = Some((cycle, snapshot));
        // Whatever an earlier attempt left past this one's starting point.
        (saved.logged).truncate((cycle as usize).saturating_sub(logged.len()));
        saved.logged.extend_from_slice(logged);
        and_then();
    }

    /// `task`'s persisted state, if any attempt got far enough to save some.
    pub fn load(&self, task: usize) -> Option<Saved> {
        self.lock().get(&task).cloned()
    }

    /// Has a lock holder died while holding the store mutex?
    #[cfg(test)]
    fn is_poisoned(&self) -> bool {
        self.state.is_poisoned()
    }
}

/// How one task attempt started: from scratch, or resumed from persisted
/// crash-recovery state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Task index within the phase.
    pub task: usize,
    /// Which execution of the task this was (0 = first).
    pub attempt: u32,
    /// Cycle of the snapshot this attempt resumed from; `None` when it
    /// (re)built working memory from the WAL or from scratch.
    pub recovered_from_cycle: Option<u64>,
    /// Recognize–act cycles this attempt executed (for a resumed attempt:
    /// only the cycles since the checkpoint).
    pub cycles_replayed: u64,
    /// Cycles the checkpoint saved this attempt from re-executing.
    pub cycles_saved: u64,
    /// WAL records replayed into the engine by this attempt.
    pub wal_records_replayed: u64,
    /// Bytes dropped from a torn WAL tail during this attempt's replay.
    pub wal_bytes_dropped: u64,
}

/// Aggregated recovery accounting for one phase: every successful attempt
/// that resumed (or rebuilt) a previously crashed task.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Final (successful) attempt info for each task that crashed at
    /// least once, in completion order.
    pub recoveries: Vec<RecoveryInfo>,
    /// Total cycles re-executed by recovery attempts.
    pub cycles_replayed: u64,
    /// Total cycles checkpoints saved from re-execution.
    pub cycles_saved: u64,
    /// Total WAL records replayed.
    pub wal_records_replayed: u64,
    /// Total torn-tail bytes dropped.
    pub wal_bytes_dropped: u64,
}

impl RecoveryReport {
    pub(crate) fn add(&mut self, info: RecoveryInfo) {
        self.cycles_replayed += info.cycles_replayed;
        self.cycles_saved += info.cycles_saved;
        self.wal_records_replayed += info.wal_records_replayed;
        self.wal_bytes_dropped += info.wal_bytes_dropped;
        self.recoveries.push(info);
    }

    /// Tasks that crashed and were recovered.
    pub fn recovered_tasks(&self) -> usize {
        self.recoveries.len()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "recovered {} task(s): {} cycles replayed, {} cycles saved by checkpoints, \
             {} WAL records replayed, {} torn bytes dropped",
            self.recovered_tasks(),
            self.cycles_replayed,
            self.cycles_saved,
            self.wal_records_replayed,
            self.wal_bytes_dropped,
        )
    }

    /// Judges the accounting against the `plan` injected into a phase whose
    /// tasks take `task_cycles` fault-free: every killed task recovered, and
    /// replayed + saved cycles are exactly what retries from scratch would
    /// cost (returned) — replayed *strictly* less only where a kill falls
    /// past a checkpoint every `interval` (a kill at `k` precedes the
    /// checkpoint at `k`). The results' `==` is the caller's.
    pub fn check(
        &self,
        plan: &FaultPlan,
        task_cycles: &[u64],
        interval: u64,
    ) -> Result<u64, Vec<String>> {
        let kills: Vec<(u64, u64)> = (task_cycles.iter().enumerate())
            .filter_map(|(t, &span)| Some((span, plan.cycle_kill(t, 0)?)))
            .collect();
        let (victims, scratch_cost) = (kills.len(), kills.iter().map(|k| k.0).sum::<u64>());
        let savable = interval > 0 && kills.iter().any(|&(_, kill)| kill > interval);
        let (n, replayed, saved) = (
            self.recovered_tasks(),
            self.cycles_replayed,
            self.cycles_saved,
        );
        let failures: Vec<String> = [
            (n < victims).then(|| format!("only {n} of {victims} killed tasks recovered")),
            (replayed + saved != scratch_cost).then(|| {
                format!("{replayed} cycles replayed + {saved} saved != {scratch_cost} from scratch")
            }),
            (savable && replayed >= scratch_cost).then(|| {
                format!(
                    "recovery replayed {replayed} cycles; from-scratch retries cost {scratch_cost}"
                )
            }),
        ]
        .into_iter()
        .flatten()
        .collect();
        if failures.is_empty() {
            Ok(scratch_cost)
        } else {
            Err(failures)
        }
    }
}

/// What the attempts of one checkpointed phase share.
pub(crate) struct Recovery {
    store: CheckpointStore,
    ckpt: CheckpointConfig,
    plan: FaultPlan,
    rec: Arc<Recorder>,
}

/// One attempt's checkpoint policy: control before the first cycle of an
/// attempt begun from nothing (WAL), at every multiple of the interval, and
/// at the cycle the plan kills it at.
struct Checkpointing<'a> {
    cx: &'a Recovery,
    task: usize,
    attempt: u32,
    kill_at: Option<u64>,
    hold_kill: bool,
    wal_due: bool,
    /// Entries of the engine's cycle log the store already has.
    logged: usize,
    sink: ThreadSink,
}

impl DrivePolicy for Checkpointing<'_> {
    fn due_in(&self, e: &Engine) -> u64 {
        if self.wal_due {
            return 0;
        }
        let (now, every) = (e.work().firings, self.cx.ckpt.interval);
        let checkpoint = if every > 0 {
            every - now % every
        } else {
            u64::MAX
        };
        let kill = self.kill_at.map_or(u64::MAX, |k| k.saturating_sub(now));
        checkpoint.min(kill)
    }

    fn at(&mut self, e: &Engine) {
        let (task, attempt) = (self.task, self.attempt);
        if std::mem::take(&mut self.wal_due) {
            // All of a task's inputs are loaded up front, so the whole WAL
            // is cycle-0 assert records; replaying them through
            // `insert_fields` reproduces the identical ids and time tags.
            let mut wal = Wal::new();
            for (_, w) in e.wm().iter() {
                let (class, fields) = (w.class, w.fields.to_vec());
                let op = WalOp::Assert { class, fields };
                wal.append(&WalRecord { cycle: 0, op });
            }
            return self.cx.store.save_wal(task, wal.into_bytes());
        }
        // Kill first: a kill at a checkpoint cycle precedes the checkpoint.
        let cycles = e.work().firings;
        if self.kill_at.is_some_and(|k| cycles >= k) {
            panic!("injected mid-cycle kill: task {task} attempt {attempt} at cycle {cycles}");
        }
        let snap = e.snapshot();
        if self.sink.enabled(ObsLevel::Full) {
            let fields = vec![
                ("task", (task as u64).into()),
                ("cycle", cycles.into()),
                ("bytes", (snap.len() as u64).into()),
            ];
            (self.sink).instant(Category::Recovery, "checkpoint.save", fields);
        }
        let (log, hold_kill) = (e.cycle_log(), self.hold_kill);
        let logged = &log[std::mem::replace(&mut self.logged, log.len())..];
        (self.cx.store).save_checkpoint_with(task, cycles, snap, logged, || {
            if hold_kill {
                panic!(
                    "injected kill while holding the checkpoint lock: \
                     task {task} attempt {attempt} at cycle {cycles}"
                );
            }
        });
    }
}

impl Recovery {
    /// An empty store for a phase run as `how` says.
    pub(crate) fn new(ckpt: CheckpointConfig, how: &PhaseRun<'_>) -> Recovery {
        Recovery {
            store: CheckpointStore::default(),
            ckpt,
            plan: how.plan.clone(),
            rec: Arc::clone(&how.obs.rec),
        }
    }

    /// Attempt `a` of `task` on `tp` under the checkpoint protocol. Attempt 0
    /// begins from nothing; a retry resumes from the last snapshot + the WAL
    /// past it, rebuilds from an intact WAL without one, or begins from
    /// nothing. The plan's `cycle_kill`, `checkpoint_hold_kill` and
    /// `torn_log` faults strike here. The result equals the uninterrupted
    /// task's, `==`.
    pub(crate) fn run<K: Task>(
        &self,
        tp: &mut TaskProcess,
        task: &K,
        a: TaskAttempt,
    ) -> (K::Output, RecoveryInfo) {
        let (cx, t, attempt, mut trace) = (self, a.task, a.attempt, a.trace);
        let mut sink = cx.rec.sink(format!("recover-t{t}"));
        let mut info = RecoveryInfo {
            task: t,
            attempt,
            ..RecoveryInfo::default()
        };
        let wiring = task.wiring();

        let mut resumed = None;
        let saved = if attempt > 0 { cx.store.load(t) } else { None };
        if let Some(mut saved) = saved {
            let restore_start_us = trace.as_ref().map(|t| t.now_us());
            let fields = vec![
                ("task", (t as u64).into()),
                ("attempt", u64::from(attempt).into()),
            ];
            sink.begin(Category::Recovery, "recover.restore", fields);
            // The torn-log fault models a crash mid-append: the tail of
            // the log as recovery reads it is incomplete.
            if let Some(torn) = cx.plan.torn_log(t) {
                let keep = saved.wal.len().saturating_sub(torn as usize);
                saved.wal.truncate(keep);
            }
            match (saved.checkpoint, Wal::replay(&saved.wal).ok()) {
                // A damaged snapshot degrades to a from-scratch rebuild,
                // never wedges the retry.
                (Some((cycle, snap)), Some(rep)) => {
                    if let Ok(mut a) = tp.resume(&wiring, &snap, saved.logged) {
                        info.recovered_from_cycle = Some(cycle);
                        info.cycles_saved = cycle;
                        info.wal_bytes_dropped = rep.dropped_bytes as u64;
                        // Records at or before the checkpoint cycle are
                        // subsumed by the snapshot; replay the rest.
                        for r in rep.records.iter().filter(|r| r.cycle > cycle) {
                            apply_record(a.engine(), r);
                            info.wal_records_replayed += 1;
                        }
                        resumed = Some(a);
                    }
                }
                // No checkpoint yet, intact WAL: rebuild the initial
                // working memory from the log.
                (None, Some(rep)) if !rep.torn() => {
                    let mut a = tp.begin_empty(&wiring);
                    for r in &rep.records {
                        apply_record(a.engine(), r);
                    }
                    info.wal_records_replayed = rep.records.len() as u64;
                    resumed = Some(a);
                }
                // Torn WAL and no checkpoint: the crash happened while the
                // log itself was being persisted, before the run loop ever
                // started — a fresh rebuild loses nothing.
                _ => {}
            }
            let from_cycle = info.recovered_from_cycle.unwrap_or(0);
            let fields = vec![
                ("from_cycle", from_cycle.into()),
                ("wal_records", info.wal_records_replayed.into()),
                ("torn_bytes", info.wal_bytes_dropped.into()),
            ];
            sink.end(Category::Recovery, "recover.restore", fields);
            if let (Some(tr), Some(start_us)) = (trace.as_mut(), restore_start_us) {
                // Restore cost shows up in the retained span tree as an aux
                // leaf under the recovering attempt.
                let wal_records = info.wal_records_replayed;
                let name =
                    format!("recover.restore from_cycle={from_cycle} wal_records={wal_records}");
                tr.record_aux(&name, start_us, tr.now_us(), None);
            }
        }
        let (a, loaded) = match resumed {
            Some(a) => (a, true),
            None => (tp.begin(task, false), false),
        };
        // The attempt's cycle windows only: no live mirror, a restored
        // engine's counters are not new work.
        let watch = Watch::new(None, trace);
        let mut policy = Checkpointing {
            cx,
            task: t,
            attempt,
            kill_at: cx.plan.cycle_kill(t, attempt),
            hold_kill: cx.plan.checkpoint_hold_kill(t, attempt),
            wal_due: !loaded,
            logged: 0,
            sink,
        };
        let (result, fired, _) = a.run(task, watch, loaded, &mut policy);
        info.cycles_replayed = fired;
        if attempt > 0 {
            let fields = vec![
                ("task", (t as u64).into()),
                ("cycles_replayed", info.cycles_replayed.into()),
                ("cycles_saved", info.cycles_saved.into()),
            ];
            (policy.sink).instant(Category::Recovery, "recover.complete", fields);
        }
        (result, info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_store_is_poison_tolerant() {
        crate::supervise::install_quiet_hook();
        let store = Arc::new(CheckpointStore::default());
        let s = Arc::clone(&store);
        let logged = [CycleStats::default(); 8];
        let _ = std::thread::Builder::new()
            .name("psm-task-poison".into())
            .spawn(move || {
                s.save_checkpoint_with(3, 8, vec![1, 2, 3], &logged, || {
                    panic!("injected: die holding the checkpoint store lock");
                });
            })
            .unwrap()
            .join();
        assert!(store.is_poisoned(), "setup must actually poison the store");
        // The checkpoint inserted before the hook panicked is intact, its
        // log with it, and the store keeps accepting saves and loads.
        store.save_wal(3, vec![9]);
        let saved = store.load(3).unwrap();
        assert_eq!(saved.wal, vec![9]);
        assert_eq!(saved.checkpoint, Some((8, vec![1, 2, 3])));
        assert_eq!(saved.logged, logged);
        // A later checkpoint appends what was logged since: the log ends at
        // the checkpoint's cycle, whoever took it.
        store.save_checkpoint_with(3, 12, vec![7], &logged[..4], || {});
        let saved = store.load(3).unwrap();
        assert_eq!(
            (saved.checkpoint, saved.logged.len()),
            (Some((12, vec![7])), 12)
        );
        assert!(store.load(4).is_none());
    }

    /// What `check` demands follows from where the plan's kills fall: the
    /// sums always, fewer cycles replayed only if a checkpoint can precede a
    /// kill.
    #[test]
    fn a_report_is_judged_on_what_its_plan_can_show() {
        let recovered = |replayed, saved| {
            let info = RecoveryInfo {
                attempt: 1,
                cycles_replayed: replayed,
                cycles_saved: saved,
                ..RecoveryInfo::default()
            };
            let mut report = RecoveryReport::default();
            report.add(info);
            report
        };
        let plan = |kill| FaultPlan::seeded(1).with_cycle_kill(0, 0, kill);
        // Level 1's shape: one-cycle tasks, the kill at cycle 1 = interval.
        assert_eq!(recovered(2, 0).check(&plan(1), &[2, 9], 1), Ok(2));
        assert_eq!(recovered(2, 0).check(&plan(8), &[2, 9], 8), Ok(2));
        // A kill past a checkpoint must have been saved something...
        assert_eq!(recovered(1, 1).check(&plan(2), &[2, 9], 1), Ok(2));
        assert!(recovered(2, 0).check(&plan(2), &[2, 9], 1).is_err());
        // ... the sums must add up to the victims' spans, and every victim
        // must have come back.
        assert!(recovered(1, 0).check(&plan(1), &[2, 9], 1).is_err());
        assert!(RecoveryReport::default().check(&plan(1), &[0], 1).is_err());
    }
}
