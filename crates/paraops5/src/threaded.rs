//! The threaded parallel matcher.
//!
//! Production-partitioned match parallelism: `n` dedicated match workers
//! each own a Rete over a disjoint subset of the productions plus a private
//! working-memory replica. The subset's network is built once, when the
//! pool is, and kept beside the slot: a worker — the first, a replacement,
//! an inline replica after a degrade — is an instance of it
//! ([`Rete::instantiate`]). Every WME delta is broadcast; workers
//! match concurrently; [`ThreadedMatcher::drain_events`] is the flush
//! barrier that collects their conflict-set events. The engine drains once
//! per firing, when the RHS has run, so a cycle has one barrier however
//! many WME changes its RHS makes — as ParaOPS5 synchronises once, at the
//! resolve phase (the first limit on match parallelism the paper names in
//! §3.1) — plus one per WME loaded from outside a firing. A worker found
//! dead is found there, with every change of the RHS already in the log it
//! is rebuilt from.
//!
//! Working-memory ids stay aligned across replicas because every replica
//! sees the same add/remove stream and [`ops5::wme::WmStore`] assigns dense
//! sequential ids.
//!
//! # Failure model
//!
//! Workers are threads; threads die. The control side keeps a delta log of
//! the full WME add/remove stream, detects dead workers at the flush
//! barrier (the only point where an answer is required), and recovers per
//! [`RecoveryPolicy`]:
//!
//! - **Respawn** (default): start a replacement worker for the same
//!   production subset, replay the delta log to rebuild its replica, and
//!   reconcile its match state against what the dead worker had already
//!   delivered — the replayed Rete re-emits its entire match history, so
//!   the control side folds events into per-worker *delivered* net state
//!   and forwards only the difference (new inserts, missed retracts).
//!   Anything else would re-deliver old instantiations and break
//!   refraction.
//! - **Degrade**: fold the dead worker's subset into an in-control inline
//!   Rete (same replay + reconcile) and continue with fewer threads,
//!   recording a warning.
//! - **Fail**: stop matching and surface a typed failure through
//!   [`ops5::matcher::Matcher::failure`]; the engine reports it in
//!   `RunOutcome::error` instead of panicking.
//!
//! Deterministic worker deaths can be injected through a
//! [`tlp_fault::FaultPlan`] for testing: a fated worker exits after serving
//! its planned number of flush barriers.

use ops5::conflict::Instantiation;
use ops5::instrument::WorkCounters;
use ops5::matcher::{MatchEvent, MatchEvents, Matcher};
use ops5::rete::compile::CompiledProduction;
use ops5::rete::{Network, Rete, ReteConfig};
use ops5::wme::{WmStore, Wme, WmeId};
use ops5::Program;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use tlp_fault::{FaultPlan, SuperviseError};
use tlp_obs::{Category, ObsLevel, ThreadSink};

enum Req {
    Add(WmeId, Arc<Wme>),
    Remove(WmeId),
    Flush,
    /// Forget every WME: empty the replica store and `Rete::reset`.
    Reset,
}

struct Resp {
    events: MatchEvents,
    work: WorkCounters,
    /// Widened from the Rete's per-flush `u32`: long streaming runs
    /// aggregate these across millions of flush barriers, and the pool's
    /// lifetime total must not wrap.
    chunks: u64,
}

/// What the pool does when it finds a match worker dead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Respawn a replacement worker and replay the WME stream to it.
    #[default]
    Respawn,
    /// Fold the dead worker's productions into the control thread and
    /// continue with fewer workers.
    Degrade,
    /// Stop matching and surface the failure to the engine.
    Fail,
}

/// Construction options for [`ThreadedMatcher`].
#[derive(Clone, Debug)]
pub struct MatchPoolOptions {
    /// Deterministic fault injection (worker deaths). Benign by default.
    pub fault_plan: FaultPlan,
    /// Recovery policy for dead workers.
    pub recovery: RecoveryPolicy,
    /// Respawn budget for the pool's lifetime; exhausted respawns degrade.
    pub max_respawns: u32,
}

impl Default for MatchPoolOptions {
    fn default() -> Self {
        MatchPoolOptions {
            fault_plan: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
            max_respawns: 8,
        }
    }
}

/// What the pool survived: deaths detected, recoveries taken, warnings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchPoolReport {
    /// Dead workers detected at flush barriers.
    pub deaths: u32,
    /// Replacement workers spawned.
    pub respawns: u32,
    /// Production subsets folded into the control thread.
    pub degraded: u32,
    /// Human-readable recovery log.
    pub warnings: Vec<String>,
}

/// Net match state: the fold of a worker's delivered events.
type NetState = HashMap<(u32, Vec<WmeId>), Instantiation>;

fn fold_events(net: &mut NetState, events: &MatchEvents) {
    for e in events.iter() {
        match e {
            MatchEvent::Insert(inst) => {
                net.insert((inst.production, inst.wmes.to_vec()), inst.into());
            }
            MatchEvent::Retract { production, wmes } => {
                net.remove(&(production, wmes.to_vec()));
            }
        }
    }
}

/// Events turning delivered state `have` into replayed state `want`:
/// inserts for instantiations the replacement found that were never
/// delivered, retracts for delivered instantiations the replacement no
/// longer has.
fn reconcile(have: &NetState, want: &NetState) -> MatchEvents {
    let mut out = MatchEvents::new();
    for (key, inst) in want {
        if !have.contains_key(key) {
            out.push_insert(inst.view());
        }
    }
    for key in have.keys() {
        if !want.contains_key(key) {
            out.push_retract(key.0, &key.1);
        }
    }
    out
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Live,
    Dead,
    Retired,
}

struct WorkerSlot {
    tx: Sender<Req>,
    rx: Receiver<Resp>,
    handle: Option<JoinHandle<()>>,
    /// The network of this slot's production subset, built once: a
    /// replacement worker or an inline replica is another instance of it.
    network: Arc<Network>,
    /// Net fold of every event this slot has delivered to the engine.
    delivered: NetState,
    state: SlotState,
}

/// A production subset matched on the control thread after a degrade.
struct InlineWorker {
    rete: Rete,
    wm: WmStore,
}

#[derive(Clone)]
enum Delta {
    Add(WmeId, Arc<Wme>),
    Remove(WmeId),
}

/// A parallel match backend over `n` dedicated match worker threads.
pub struct ThreadedMatcher {
    slots: Vec<WorkerSlot>,
    inline: Vec<InlineWorker>,
    /// Full WME delta history, for replaying to replacement workers.
    log: Vec<Delta>,
    opts: MatchPoolOptions,
    /// Fault-plan identity handed to the next spawned worker.
    next_fault_id: usize,
    report: MatchPoolReport,
    failure: Option<String>,
    work: WorkCounters,
    /// Lifetime match-chunk total across all workers. `u64` (not the
    /// trait's `u32`) so long streaming runs can't wrap it; aggregation
    /// saturates and [`Matcher::take_chunks`] clamps at the boundary.
    chunks: u64,
    /// Optional flight-recorder sink (control side). Match-work accounting
    /// never flows through it, so results are identical with or without it.
    obs: Option<ThreadSink>,
}

impl ThreadedMatcher {
    /// Spawns `n_workers` match workers for `program`, partitioning the
    /// productions round-robin. Returns [`SuperviseError::NoWorkers`] when
    /// `n_workers` is zero.
    pub fn new(
        program: &Arc<Program>,
        compiled: &Arc<Vec<CompiledProduction>>,
        n_workers: usize,
    ) -> Result<ThreadedMatcher, SuperviseError> {
        ThreadedMatcher::with_options(program, compiled, n_workers, MatchPoolOptions::default())
    }

    /// [`ThreadedMatcher::new`] with explicit fault-injection and recovery
    /// options.
    pub fn with_options(
        program: &Arc<Program>,
        compiled: &Arc<Vec<CompiledProduction>>,
        n_workers: usize,
        opts: MatchPoolOptions,
    ) -> Result<ThreadedMatcher, SuperviseError> {
        if n_workers == 0 {
            return Err(SuperviseError::NoWorkers);
        }
        let mut pool = ThreadedMatcher {
            slots: Vec::with_capacity(n_workers),
            inline: Vec::new(),
            log: Vec::new(),
            opts,
            next_fault_id: 0,
            report: MatchPoolReport::default(),
            failure: None,
            work: WorkCounters::default(),
            chunks: 0,
            obs: None,
        };
        for w in 0..n_workers {
            let subset: Vec<CompiledProduction> = compiled
                .iter()
                .enumerate()
                .filter(|(i, _)| i % n_workers == w)
                .map(|(_, c)| c.clone())
                .collect();
            let network = Network::build(&subset, program, ReteConfig::default());
            let slot = pool.spawn_slot(Arc::new(network));
            pool.slots.push(slot);
        }
        Ok(pool)
    }

    fn spawn_slot(&mut self, network: Arc<Network>) -> WorkerSlot {
        let fault_id = self.next_fault_id;
        self.next_fault_id += 1;
        let death_after = self.opts.fault_plan.worker_death(fault_id);
        let (req_tx, req_rx) = channel::<Req>();
        let (resp_tx, resp_rx) = channel::<Resp>();
        let net = Arc::clone(&network);
        let handle = std::thread::spawn(move || {
            worker_loop(req_rx, resp_tx, net, death_after);
        });
        WorkerSlot {
            tx: req_tx,
            rx: resp_rx,
            handle: Some(handle),
            network,
            delivered: NetState::new(),
            state: SlotState::Live,
        }
    }

    /// Number of match workers still carrying productions (threads plus
    /// control-inlined subsets).
    pub fn workers(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state == SlotState::Live)
            .count()
            + self.inline.len()
    }

    /// What the pool has survived so far.
    pub fn report(&self) -> &MatchPoolReport {
        &self.report
    }

    /// Attaches a flight-recorder sink. Flush barriers and worker
    /// deaths/recoveries become `Match`-category events at `Full` level.
    pub fn set_obs(&mut self, sink: ThreadSink) {
        self.obs = Some(sink);
    }

    /// Detaches the flight-recorder sink, flushing its buffered events.
    pub fn take_obs(&mut self) -> Option<ThreadSink> {
        let mut sink = self.obs.take();
        if let Some(s) = sink.as_mut() {
            s.flush();
        }
        sink
    }

    fn broadcast(&mut self, delta: Delta) {
        self.log.push(delta.clone());
        for slot in &mut self.slots {
            if slot.state != SlotState::Live {
                continue;
            }
            let req = match &delta {
                Delta::Add(id, wme) => Req::Add(*id, Arc::clone(wme)),
                Delta::Remove(id) => Req::Remove(*id),
            };
            if slot.tx.send(req).is_err() {
                // Hung up; recovery happens at the flush barrier.
                slot.state = SlotState::Dead;
            }
        }
        for iw in &mut self.inline {
            apply_delta(&mut iw.rete, &mut iw.wm, &delta);
        }
    }

    /// Replays the delta log into a fresh Rete replica and returns the
    /// replica plus its net match state.
    fn replay_inline(&self, network: &Arc<Network>) -> (InlineWorker, NetState) {
        let mut iw = InlineWorker {
            rete: Rete::instantiate(Arc::clone(network)),
            wm: WmStore::new(),
        };
        for delta in &self.log {
            apply_delta(&mut iw.rete, &mut iw.wm, delta);
        }
        let mut net = NetState::new();
        fold_events(&mut net, &iw.rete.drain_events(&iw.wm));
        (iw, net)
    }

    /// Replaces a dead worker with a fresh thread: replay the log, flush,
    /// and return the replacement's net match state. `None` if the
    /// replacement died during replay (a fault plan can fate it too) — the
    /// failed replacement is joined before returning, never leaked.
    fn respawn(&mut self, network: Arc<Network>) -> Option<(WorkerSlot, NetState)> {
        let slot = self.spawn_slot(network);
        match replay_log(&slot, &self.log) {
            Some(resp) => {
                let mut net = NetState::new();
                fold_events(&mut net, &resp.events);
                Some((slot, net))
            }
            None => {
                // The replacement died during replay. Join its thread here:
                // dropping the slot would abandon the `JoinHandle` and leak
                // a detached (if still unwinding) thread.
                reap_slot(slot);
                None
            }
        }
    }

    /// Recovers one dead slot per the policy, returning the reconciliation
    /// events to forward to the engine.
    fn recover(&mut self, idx: usize) -> MatchEvents {
        self.report.deaths += 1;
        if let Some(s) = self.obs.as_mut().filter(|s| s.enabled(ObsLevel::Full)) {
            s.instant(
                Category::Match,
                "match.death",
                vec![("worker", (idx as u64).into())],
            );
        }
        let network = Arc::clone(&self.slots[idx].network);
        let n_prods = network.productions();
        let mut policy = self.opts.recovery;
        if policy == RecoveryPolicy::Respawn && self.report.respawns >= self.opts.max_respawns {
            self.report.warnings.push(format!(
                "respawn budget ({}) exhausted; degrading",
                self.opts.max_respawns
            ));
            policy = RecoveryPolicy::Degrade;
        }
        match policy {
            RecoveryPolicy::Respawn => {
                if let Some((slot, net)) = self.respawn(network) {
                    // Charge the budget only for a replacement that took
                    // over the subset. A failed respawn falls through to
                    // degrade below; charging it too would double-count one
                    // death against `max_respawns` (burned respawn *and*
                    // degraded slot), starving a later death of the respawn
                    // the budget still owes it.
                    self.report.respawns += 1;
                    if let Some(s) = self.obs.as_mut().filter(|s| s.enabled(ObsLevel::Full)) {
                        s.instant(
                            Category::Match,
                            "match.respawn",
                            vec![
                                ("worker", (idx as u64).into()),
                                ("deltas_replayed", (self.log.len() as u64).into()),
                            ],
                        );
                    }
                    self.report.warnings.push(format!(
                        "worker {idx} died; respawned and replayed {} deltas ({n_prods} productions)",
                        self.log.len()
                    ));
                    let events = reconcile(&self.slots[idx].delivered, &net);
                    let old = std::mem::replace(&mut self.slots[idx], slot);
                    drop(old.tx);
                    if let Some(h) = { old.handle } {
                        let _ = h.join();
                    }
                    self.slots[idx].delivered = net;
                    events
                } else {
                    // The replacement died too (fated). Degrade now to
                    // guarantee progress; the respawn budget was not
                    // charged, so a later death can still use it.
                    self.report.warnings.push(format!(
                        "worker {idx} replacement died during replay; degrading"
                    ));
                    self.degrade_slot(idx)
                }
            }
            RecoveryPolicy::Degrade => self.degrade_slot(idx),
            RecoveryPolicy::Fail => {
                self.failure = Some(format!(
                    "match worker {idx} died ({n_prods} productions unmatched); policy=Fail"
                ));
                self.report
                    .warnings
                    .push(format!("worker {idx} died; failing the match pool"));
                self.retire_slot(idx);
                MatchEvents::new()
            }
        }
    }

    fn degrade_slot(&mut self, idx: usize) -> MatchEvents {
        self.report.degraded += 1;
        if let Some(s) = self.obs.as_mut().filter(|s| s.enabled(ObsLevel::Full)) {
            s.instant(
                Category::Match,
                "match.degrade",
                vec![("worker", (idx as u64).into())],
            );
        }
        let network = Arc::clone(&self.slots[idx].network);
        let (iw, net) = self.replay_inline(&network);
        self.report.warnings.push(format!(
            "worker {idx} died; {} productions folded into the control thread",
            network.productions()
        ));
        let events = reconcile(&self.slots[idx].delivered, &net);
        self.inline.push(iw);
        self.retire_slot(idx);
        events
    }

    fn retire_slot(&mut self, idx: usize) {
        self.slots[idx].state = SlotState::Retired;
        self.slots[idx].delivered = NetState::new();
        if let Some(h) = self.slots[idx].handle.take() {
            let _ = h.join();
        }
    }

    /// The flush barrier: appends every replica's pending events to
    /// `out`. A pool that has failed (or fails here) appends nothing.
    fn flush(&mut self, out: &mut MatchEvents) {
        if self.failure.is_some() {
            return;
        }
        let mut events = MatchEvents::new();
        for slot in &mut self.slots {
            if slot.state == SlotState::Live && slot.tx.send(Req::Flush).is_err() {
                slot.state = SlotState::Dead;
            }
        }
        let mut total = WorkCounters::default();
        for slot in &mut self.slots {
            if slot.state != SlotState::Live {
                continue;
            }
            match slot.rx.recv() {
                Ok(mut resp) => {
                    fold_events(&mut slot.delivered, &resp.events);
                    events.append(&mut resp.events);
                    total.add(&resp.work);
                    self.chunks = self.chunks.saturating_add(resp.chunks);
                }
                Err(_) => slot.state = SlotState::Dead,
            }
        }
        // Dead-worker recovery, at the barrier where absence is provable.
        for idx in 0..self.slots.len() {
            if self.slots[idx].state == SlotState::Dead {
                let mut recovered = self.recover(idx);
                events.append(&mut recovered);
                if self.failure.is_some() {
                    return;
                }
            }
        }
        for iw in &mut self.inline {
            iw.rete.drain_events_into(&iw.wm, &mut events);
            total.add(&iw.rete.work);
            self.chunks = self.chunks.saturating_add(u64::from(iw.rete.take_chunks()));
        }
        self.work = total;
        if let Some(s) = self.obs.as_mut().filter(|s| s.enabled(ObsLevel::Full)) {
            let live = self
                .slots
                .iter()
                .filter(|sl| sl.state == SlotState::Live)
                .count()
                + self.inline.len();
            s.instant(
                Category::Match,
                "match.flush",
                vec![
                    ("events", (events.len() as u64).into()),
                    ("workers", (live as u64).into()),
                ],
            );
        }
        out.append(&mut events);
    }
}

/// Replays the full delta log to a freshly spawned slot and flushes it.
/// `None` if the slot dies at any point (send or receive fails).
fn replay_log(slot: &WorkerSlot, log: &[Delta]) -> Option<Resp> {
    for delta in log {
        let req = match delta {
            Delta::Add(id, wme) => Req::Add(*id, Arc::clone(wme)),
            Delta::Remove(id) => Req::Remove(*id),
        };
        slot.tx.send(req).ok()?;
    }
    slot.tx.send(Req::Flush).ok()?;
    slot.rx.recv().ok()
}

/// Hangs up a slot's request channel and joins its thread. Used for
/// replacements that died during replay — they must still be joined, or
/// the `JoinHandle` leaks with the dropped slot.
fn reap_slot(mut slot: WorkerSlot) {
    let (dead_tx, _) = channel();
    slot.tx = dead_tx;
    if let Some(h) = slot.handle.take() {
        let _ = h.join();
    }
}

fn apply_delta(rete: &mut Rete, wm: &mut WmStore, delta: &Delta) {
    match delta {
        Delta::Add(id, wme) => {
            let got = wm.add((**wme).clone());
            debug_assert_eq!(got, *id, "replica ids must align");
            rete.add_wme(*id, wm);
        }
        Delta::Remove(id) => {
            if wm.get(*id).is_some() {
                rete.remove_wme(*id, wm);
                wm.remove(*id);
            }
        }
    }
}

impl Matcher for ThreadedMatcher {
    fn add_wme(&mut self, id: WmeId, wm: &WmStore) {
        let wme = Arc::new(wm.get(id).expect("live wme").clone());
        self.broadcast(Delta::Add(id, wme));
    }

    fn remove_wme(&mut self, id: WmeId, _wm: &WmStore) {
        self.broadcast(Delta::Remove(id));
    }

    fn drain_events(&mut self, _wm: &WmStore, out: &mut MatchEvents) {
        self.flush(out)
    }

    fn take_chunks(&mut self) -> u32 {
        // The pool counts in u64 so its lifetime total can't wrap; the
        // trait boundary is u32, so a drained total beyond u32::MAX clamps
        // rather than truncating bits.
        let drained = std::mem::take(&mut self.chunks);
        u32::try_from(drained).unwrap_or(u32::MAX)
    }

    fn work(&self) -> WorkCounters {
        self.work
    }

    /// Every live replica (thread or control-inlined) forgets its WMEs and
    /// the replay log empties with them, so a worker found dead later is
    /// rebuilt from the deltas sent *after* the reset only. What the pool
    /// has survived stays: retired slots stay retired, a failed pool stays
    /// failed, and [`ThreadedMatcher::report`] keeps its history.
    fn reset(&mut self) {
        self.log.clear();
        for slot in &mut self.slots {
            slot.delivered.clear();
            if slot.state == SlotState::Live && slot.tx.send(Req::Reset).is_err() {
                // Hung up; recovery happens at the flush barrier.
                slot.state = SlotState::Dead;
            }
        }
        for iw in &mut self.inline {
            iw.rete.reset();
            iw.wm.clear();
        }
        self.work = WorkCounters::default();
        self.chunks = 0;
    }

    fn failure(&self) -> Option<String> {
        self.failure.clone()
    }
}

impl Drop for ThreadedMatcher {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            // Hang up; workers exit their recv loops.
            let (dead_tx, _) = channel();
            slot.tx = dead_tx;
            if let Some(h) = slot.handle.take() {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(
    rx: Receiver<Req>,
    tx: Sender<Resp>,
    network: Arc<Network>,
    death_after: Option<u64>,
) {
    if death_after == Some(0) {
        return; // fated to die before serving anything
    }
    let mut rete = Rete::instantiate(network);
    let mut wm = WmStore::new();
    let mut flushes_served = 0u64;
    while let Ok(req) = rx.recv() {
        match req {
            Req::Add(id, wme) => {
                let got = wm.add((*wme).clone());
                debug_assert_eq!(got, id, "replica ids must align");
                rete.add_wme(id, &wm);
            }
            Req::Remove(id) => {
                if wm.get(id).is_some() {
                    rete.remove_wme(id, &wm);
                    wm.remove(id);
                }
            }
            Req::Reset => {
                rete.reset();
                wm.clear();
            }
            Req::Flush => {
                let resp = Resp {
                    events: rete.drain_events(&wm),
                    work: rete.work,
                    chunks: u64::from(rete.take_chunks()),
                };
                if tx.send(resp).is_err() {
                    break;
                }
                flushes_served += 1;
                if death_after == Some(flushes_served) {
                    return; // injected death: exit after serving this barrier
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{Engine, Value};

    const SRC: &str = "
        (literalize region id kind)
        (literalize fragment region kind counted)
        (literalize summary n)
        (p classify-linear (region ^id <r> ^kind linear) -(fragment ^region <r>)
           -->
           (make fragment ^region <r> ^kind runway))
        (p classify-compact (region ^id <r> ^kind compact) -(fragment ^region <r>)
           -->
           (make fragment ^region <r> ^kind building))
        (p count (fragment ^region <r> ^kind <k> ^counted nil) (summary ^n <n>)
           -->
           (modify 2 ^n (compute <n> + 1))
           (modify 1 ^counted yes))
    ";

    fn drive(e: &mut Engine) -> (u64, Vec<String>) {
        e.make_wme("summary", &[("n", 0.into())]).unwrap();
        for i in 0..12 {
            let kind = if i % 3 == 0 { "compact" } else { "linear" };
            e.make_wme("region", &[("id", i.into()), ("kind", Value::symbol(kind))])
                .unwrap();
        }
        let out = e.run(10_000);
        assert!(out.quiescent(), "{out:?}");
        let mut wm: Vec<String> = e.wm().iter().map(|(_, w)| w.to_string()).collect();
        wm.sort();
        (out.firings, wm)
    }

    fn run_with(n_workers: Option<usize>) -> (u64, Vec<String>) {
        run_with_options(n_workers, MatchPoolOptions::default())
    }

    fn run_with_options(n_workers: Option<usize>, opts: MatchPoolOptions) -> (u64, Vec<String>) {
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let mut e = match n_workers {
            None => Engine::with_compiled(Arc::clone(&program), compiled),
            Some(n) => {
                let m = ThreadedMatcher::with_options(&program, &compiled, n, opts).unwrap();
                Engine::with_matcher(Arc::clone(&program), compiled, Box::new(m))
            }
        };
        drive(&mut e)
    }

    #[test]
    fn parallel_match_equals_sequential() {
        let (seq_firings, seq_wm) = run_with(None);
        for n in [1, 2, 3, 5, 8] {
            let (par_firings, par_wm) = run_with(Some(n));
            assert_eq!(par_firings, seq_firings, "workers={n}");
            assert_eq!(par_wm, seq_wm, "workers={n}");
        }
    }

    #[test]
    fn reset_pool_replays_like_a_new_one() {
        // One engine over a pool that degrades (worker 0 dies after its
        // second flush and is folded into the control thread): run, reset,
        // run again. The second run must equal a sequential engine's, with
        // the inline replica and the replay log reset along with the
        // threads.
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let opts = MatchPoolOptions {
            fault_plan: FaultPlan::none().with_worker_death(0, 2),
            recovery: RecoveryPolicy::Degrade,
            ..MatchPoolOptions::default()
        };
        let m = ThreadedMatcher::with_options(&program, &compiled, 3, opts).unwrap();
        let mut e = Engine::with_matcher(Arc::clone(&program), compiled, Box::new(m));
        let first = drive(&mut e);
        let first_work = e.work();
        e.reset();
        assert_eq!(e.wm().len(), 0);
        assert_eq!(e.work(), WorkCounters::default());
        let second = drive(&mut e);
        assert_eq!(second, first);
        assert_eq!(second, run_with(None));
        assert_eq!(e.work(), first_work, "no work carried over the reset");
    }

    #[test]
    fn more_workers_than_productions_is_fine() {
        let (f, _) = run_with(Some(16));
        assert!(f > 0);
    }

    #[test]
    fn work_counters_aggregate_across_workers() {
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let m = ThreadedMatcher::new(&program, &compiled, 3).unwrap();
        let mut e = Engine::with_matcher(Arc::clone(&program), compiled, Box::new(m));
        e.make_wme("summary", &[("n", 0.into())]).unwrap();
        e.make_wme(
            "region",
            &[("id", 1.into()), ("kind", Value::symbol("linear"))],
        )
        .unwrap();
        e.run(100);
        assert!(e.work().match_units > 0);
    }

    #[test]
    fn zero_workers_rejected() {
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let err = match ThreadedMatcher::new(&program, &compiled, 0) {
            Ok(_) => panic!("zero workers must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err, SuperviseError::NoWorkers);
    }

    /// WMEs `drive` loads through the engine's public entry points, one
    /// flush barrier each.
    const LOADS: u64 = 13;

    /// One barrier per cycle: a run of F firings over C WME changes (here
    /// `count`'s RHS alone makes four) flushes F times plus once per loaded
    /// WME, not C times — and still fires what the sequential engine fires.
    /// A single worker carries the whole network, so there the cycle log
    /// (match units and chunks per cycle) and the work agree to the unit.
    #[test]
    fn one_flush_barrier_per_firing() {
        use tlp_obs::{ObsLevel, Recorder};
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let mut seq = Engine::with_compiled(Arc::clone(&program), Arc::clone(&compiled));
        seq.enable_cycle_log();
        let seq_run = drive(&mut seq);
        let seq_log = seq.take_cycle_log();
        for n in [1, 3] {
            let rec = Recorder::new(ObsLevel::Full);
            let mut m = ThreadedMatcher::new(&program, &compiled, n).unwrap();
            m.set_obs(rec.sink("match-pool"));
            let mut e =
                Engine::with_matcher(Arc::clone(&program), Arc::clone(&compiled), Box::new(m));
            e.enable_cycle_log();
            assert_eq!(drive(&mut e), seq_run, "workers={n}");
            let (log, work) = (e.take_cycle_log(), e.work());
            drop(e); // drops the matcher; its sink flushes
            let flushes = rec
                .events()
                .iter()
                .filter(|ev| ev.name == "match.flush")
                .count() as u64;
            assert_eq!(flushes, work.firings + LOADS, "workers={n}");
            assert!(work.wme_adds + work.wme_removes > flushes, "{work:?}");
            let fired = |log: &[ops5::CycleStats]| -> Vec<u32> {
                log.iter().map(|c| c.production).collect()
            };
            assert_eq!(fired(&log), fired(&seq_log), "workers={n}");
            if n == 1 {
                assert_eq!(log, seq_log);
                assert_eq!(work, seq.work());
            }
        }
    }

    /// A worker killed mid-run is respawned, and the run converges to the
    /// same result as the sequential engine — at whichever barrier it dies,
    /// those before a `count` firing included: all four WME changes of that
    /// RHS go out to a dead worker, and the barrier after them finds it.
    #[test]
    fn respawn_after_worker_death_matches_sequential() {
        let (seq_firings, seq_wm) = run_with(None);
        for die_after in 0..=LOADS + seq_firings {
            let opts = MatchPoolOptions {
                fault_plan: FaultPlan::seeded(11).with_worker_death(1, die_after),
                recovery: RecoveryPolicy::Respawn,
                ..MatchPoolOptions::default()
            };
            let (par_firings, par_wm) = run_with_options(Some(3), opts);
            assert_eq!(par_firings, seq_firings, "die_after={die_after}");
            assert_eq!(par_wm, seq_wm, "die_after={die_after}");
        }
    }

    /// Degrade keeps the run correct with fewer worker threads.
    #[test]
    fn degrade_after_worker_death_matches_sequential() {
        let (seq_firings, seq_wm) = run_with(None);
        let opts = MatchPoolOptions {
            fault_plan: FaultPlan::seeded(5).with_worker_death(0, 2),
            recovery: RecoveryPolicy::Degrade,
            ..MatchPoolOptions::default()
        };
        let (par_firings, par_wm) = run_with_options(Some(3), opts);
        assert_eq!(par_firings, seq_firings);
        assert_eq!(par_wm, seq_wm);
    }

    /// Even a worker whose replacement is also fated to die converges,
    /// because the pool degrades after the failed respawn.
    #[test]
    fn repeated_deaths_eventually_degrade() {
        let (seq_firings, seq_wm) = run_with(None);
        let opts = MatchPoolOptions {
            // Worker 1 dies after flush 1; its replacement (fault id 3)
            // dies immediately during replay.
            fault_plan: FaultPlan::seeded(13)
                .with_worker_death(1, 1)
                .with_worker_death(3, 0),
            recovery: RecoveryPolicy::Respawn,
            ..MatchPoolOptions::default()
        };
        let (par_firings, par_wm) = run_with_options(Some(3), opts);
        assert_eq!(par_firings, seq_firings);
        assert_eq!(par_wm, seq_wm);
    }

    /// Under the Fail policy the engine stops with a typed error instead of
    /// panicking or silently dropping productions.
    #[test]
    fn fail_policy_surfaces_error_to_engine() {
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let opts = MatchPoolOptions {
            fault_plan: FaultPlan::seeded(3).with_worker_death(0, 1),
            recovery: RecoveryPolicy::Fail,
            ..MatchPoolOptions::default()
        };
        let m = ThreadedMatcher::with_options(&program, &compiled, 2, opts).unwrap();
        let mut e = Engine::with_matcher(Arc::clone(&program), compiled, Box::new(m));
        e.make_wme("summary", &[("n", 0.into())]).unwrap();
        for i in 0..12 {
            e.make_wme(
                "region",
                &[("id", i.into()), ("kind", Value::symbol("linear"))],
            )
            .unwrap();
        }
        let out = e.run(10_000);
        let err = out.error.expect("fail policy must surface an error");
        assert!(err.contains("died"), "{err}");
    }

    /// With a flight recorder attached, flush barriers and recoveries
    /// appear as Match-category events — and the run result is unchanged.
    #[test]
    fn obs_records_flushes_and_recoveries() {
        use tlp_obs::{ObsLevel, Recorder};
        let (seq_firings, seq_wm) = run_with(None);
        let rec = Recorder::new(ObsLevel::Full);
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let opts = MatchPoolOptions {
            fault_plan: FaultPlan::seeded(11).with_worker_death(1, 1),
            recovery: RecoveryPolicy::Respawn,
            ..MatchPoolOptions::default()
        };
        let mut m = ThreadedMatcher::with_options(&program, &compiled, 3, opts).unwrap();
        m.set_obs(rec.sink("match-pool"));
        let mut e = Engine::with_matcher(Arc::clone(&program), compiled, Box::new(m));
        let (firings, wm) = drive(&mut e);
        assert_eq!(firings, seq_firings);
        assert_eq!(wm, seq_wm);
        drop(e); // drops the matcher; its sink flushes
        let names: Vec<String> = rec.events().into_iter().map(|ev| ev.name).collect();
        assert!(names.iter().any(|n| n == "match.flush"), "{names:?}");
        assert!(names.iter().any(|n| n == "match.death"), "{names:?}");
        assert!(names.iter().any(|n| n == "match.respawn"), "{names:?}");
    }

    /// Regression: a *failed* respawn (the fated replacement dies during
    /// replay) must not burn the respawn budget — the slot degrades
    /// instead, and a later death is still entitled to the respawn. The
    /// old accounting charged `respawns` before knowing the outcome, so
    /// one death could both burn a respawn and degrade a slot, and with
    /// `max_respawns = 1` the next death was forced to degrade too.
    #[test]
    fn failed_respawn_does_not_burn_the_budget() {
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let opts = MatchPoolOptions {
            // Worker 1 dies after flush 1; its replacement (fault id 3)
            // dies immediately during replay. Worker 2 dies after flush 2.
            fault_plan: FaultPlan::seeded(17)
                .with_worker_death(1, 1)
                .with_worker_death(3, 0)
                .with_worker_death(2, 2),
            recovery: RecoveryPolicy::Respawn,
            max_respawns: 1,
        };
        let mut m = ThreadedMatcher::with_options(&program, &compiled, 3, opts.clone()).unwrap();
        let mut wm = WmStore::new();
        let class = ops5::symbol::sym("region");
        let n_slots = program.n_slots(class).unwrap();
        for tag in 1..=3u64 {
            let id = wm.add(Wme::new(class, n_slots, tag));
            m.add_wme(id, &wm);
            m.drain_events(&wm, &mut MatchEvents::new());
        }
        assert_eq!(m.report().deaths, 2);
        // Flush 2: worker 1's failed respawn degrades without charging the
        // budget. Flush 3: worker 2's death still gets the one respawn.
        assert_eq!(m.report().respawns, 1, "{:?}", m.report().warnings);
        assert_eq!(m.report().degraded, 1, "{:?}", m.report().warnings);
        assert_eq!(m.workers(), 3);
        drop(m);

        // The same fault plan through the full engine still converges to
        // the sequential result.
        let (seq_firings, seq_wm) = run_with(None);
        let (par_firings, par_wm) = run_with_options(Some(3), opts);
        assert_eq!(par_firings, seq_firings);
        assert_eq!(par_wm, seq_wm);
    }

    /// Regression: the pool's lifetime chunk counter is `u64` and
    /// saturates instead of wrapping; the `u32` trait boundary clamps.
    #[test]
    fn chunk_counter_saturates_instead_of_wrapping() {
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let mut m = ThreadedMatcher::new(&program, &compiled, 2).unwrap();
        let mut wm = WmStore::new();
        let class = ops5::symbol::sym("region");
        let n_slots = program.n_slots(class).unwrap();
        let id = wm.add(Wme::new(class, n_slots, 1));
        m.add_wme(id, &wm);
        m.drain_events(&wm, &mut MatchEvents::new());
        assert!(m.chunks > 0, "matching a WME must produce chunks");
        // Pretend a long streaming run already drove the total to the top:
        // the next flush's aggregation must saturate, not wrap or panic.
        m.chunks = u64::MAX;
        let id2 = wm.add(Wme::new(class, n_slots, 2));
        m.add_wme(id2, &wm);
        m.drain_events(&wm, &mut MatchEvents::new());
        assert_eq!(m.chunks, u64::MAX);
        assert_eq!(m.take_chunks(), u32::MAX, "trait boundary clamps");
        assert_eq!(m.chunks, 0, "take_chunks drains the counter");
    }

    /// The pool's report records deaths and recoveries; driving the
    /// matcher directly through the trait exercises the flush barrier.
    #[test]
    fn report_records_recoveries() {
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let opts = MatchPoolOptions {
            fault_plan: FaultPlan::seeded(7).with_worker_death(2, 1),
            recovery: RecoveryPolicy::Respawn,
            ..MatchPoolOptions::default()
        };
        let mut m = ThreadedMatcher::with_options(&program, &compiled, 3, opts).unwrap();
        assert_eq!(m.workers(), 3);
        let mut wm = WmStore::new();
        let class = ops5::symbol::sym("region");
        let n_slots = program.n_slots(class).unwrap();
        // Feed a couple of deltas and flush twice: the fated worker serves
        // flush 1 and dies; flush 2 detects and respawns it.
        let id = wm.add(Wme::new(class, n_slots, 1));
        m.add_wme(id, &wm);
        m.drain_events(&wm, &mut MatchEvents::new());
        let id2 = wm.add(Wme::new(class, n_slots, 2));
        m.add_wme(id2, &wm);
        m.drain_events(&wm, &mut MatchEvents::new());
        assert_eq!(m.report().deaths, 1);
        assert_eq!(m.report().respawns, 1);
        assert!(!m.report().warnings.is_empty());
        assert_eq!(m.workers(), 3);
    }
}
