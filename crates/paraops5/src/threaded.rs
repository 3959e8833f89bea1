//! The threaded parallel matcher.
//!
//! Production-partitioned match parallelism: `n` dedicated match workers
//! each own a Rete over a disjoint subset of the productions plus a private
//! working-memory replica. The subset's network is built once, when the
//! pool is, and the worker is an instance of it ([`Rete::instantiate`]).
//! Every WME delta is broadcast; workers match concurrently;
//! [`ThreadedMatcher::drain_events`] is the flush barrier that collects
//! their conflict-set events. The engine drains once per firing, when the
//! RHS has run, so a cycle has one barrier however many WME changes its RHS
//! makes — as ParaOPS5 synchronises once, at the resolve phase (the first
//! limit on match parallelism the paper names in §3.1) — plus one per WME
//! loaded from outside a firing.
//!
//! Working-memory ids stay aligned across replicas because every replica
//! sees the same add/remove stream and [`ops5::wme::WmStore`] assigns dense
//! sequential ids.
//!
//! # Failure model
//!
//! Workers are threads; threads die, and in the paper a match process died
//! with its run. A send to a dead worker, or a flush barrier it does not
//! answer, fails the pool: [`Matcher::failure`] names the worker, no event
//! is delivered from that barrier on, and the engine ends its run with
//! `RunOutcome::error`. The pool does not recover: whoever runs the engine
//! — in practice a task under the phase supervisor, which retries a failed
//! attempt from scratch — recovers by running again on a fresh matcher.
//!
//! Deterministic worker deaths can be injected through a
//! [`tlp_fault::FaultPlan`] for testing: worker `w` (its slot index) exits
//! after serving its planned number of flush barriers.
//!
//! # Names
//!
//! A worker's Rete names its instantiations by its own token slots
//! ([`ops5::matcher`]'s naming contract), and two workers hand out the same
//! slots, so no worker name reaches the engine. Every event the pool hands
//! over goes through one map per production subset, key → the pool's name
//! for it: an insert takes a name from the pool's [`SlotCursor`], a
//! retraction finds the insert's name by key and gives it back, and
//! [`Matcher::reset`] frees them all.

use ops5::instrument::WorkCounters;
use ops5::matcher::{MatchEvent, MatchEvents, Matcher, SlotCursor};
use ops5::rete::compile::CompiledProduction;
use ops5::rete::{Network, Rete, ReteConfig};
use ops5::wme::{WmStore, Wme, WmeId};
use ops5::Program;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use tlp_fault::{FaultPlan, SuperviseError};

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

/// A production subset's key.
type Key = (u32, Vec<WmeId>);

/// What a production subset has delivered to the engine, net: each live
/// key with the pool's name for it.
type Delivered = HashMap<Key, u32>;

/// Hands a subset's `events` to `out` under the pool's names, folding them
/// into what the subset has `delivered`: an insert takes a name, a
/// retraction carries and gives back the one its insert took.
fn deliver(
    delivered: &mut Delivered,
    names: &mut SlotCursor,
    events: &MatchEvents,
    out: &mut MatchEvents,
) {
    for e in events.iter() {
        match e {
            MatchEvent::Insert { inst, .. } => {
                let name = names.take();
                delivered.insert((inst.production, inst.wmes.to_vec()), name);
                out.push_insert(name, inst);
            }
            MatchEvent::Retract {
                production, wmes, ..
            } => {
                if let Some(name) = delivered.remove(&(production, wmes.to_vec())) {
                    out.push_retract(name, production, wmes);
                    names.give(name);
                }
            }
        }
    }
}

struct WorkerSlot {
    tx: Sender<Req>,
    rx: Receiver<Resp>,
    handle: Option<JoinHandle<()>>,
    /// Net fold of every event this slot has delivered to the engine.
    delivered: Delivered,
}

/// A parallel match backend over `n` dedicated match worker threads.
pub struct ThreadedMatcher {
    slots: Vec<WorkerSlot>,
    /// The names of the instantiations delivered to the engine.
    names: SlotCursor,
    /// Set by the first send or barrier that finds a worker dead; never
    /// cleared.
    failure: Option<String>,
    work: WorkCounters,
    /// Lifetime match-chunk total across all workers. `u64` (not the
    /// trait's `u32`) so long streaming runs can't wrap it; aggregation
    /// saturates and [`Matcher::take_chunks`] clamps at the boundary.
    chunks: u64,
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
        ThreadedMatcher::with_fault_plan(program, compiled, n_workers, &FaultPlan::none())
    }

    /// [`ThreadedMatcher::new`] with deterministic worker deaths: worker
    /// `w` dies as `plan.worker_death(w)` says.
    pub fn with_fault_plan(
        program: &Arc<Program>,
        compiled: &Arc<Vec<CompiledProduction>>,
        n_workers: usize,
        plan: &FaultPlan,
    ) -> Result<ThreadedMatcher, SuperviseError> {
        if n_workers == 0 {
            return Err(SuperviseError::NoWorkers);
        }
        let slots = (0..n_workers)
            .map(|w| {
                let subset: Vec<CompiledProduction> = compiled
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % n_workers == w)
                    .map(|(_, c)| c.clone())
                    .collect();
                let network = Arc::new(Network::build(&subset, program, ReteConfig::default()));
                let death_after = plan.worker_death(w);
                let (req_tx, req_rx) = channel::<Req>();
                let (resp_tx, resp_rx) = channel::<Resp>();
                let handle =
                    std::thread::spawn(move || worker_loop(req_rx, resp_tx, network, death_after));
                WorkerSlot {
                    tx: req_tx,
                    rx: resp_rx,
                    handle: Some(handle),
                    delivered: Delivered::new(),
                }
            })
            .collect();
        Ok(ThreadedMatcher {
            slots,
            names: SlotCursor::default(),
            failure: None,
            work: WorkCounters::default(),
            chunks: 0,
        })
    }

    fn fail(&mut self, w: usize) {
        self.failure = Some(format!("match worker {w} died"));
    }

    /// Sends `req()` to every worker; the first that has hung up fails the
    /// pool. A failed pool sends nothing.
    fn broadcast(&mut self, req: impl Fn() -> Req) {
        if self.failure.is_some() {
            return;
        }
        if let Some(w) = self
            .slots
            .iter()
            .position(|slot| slot.tx.send(req()).is_err())
        {
            self.fail(w);
        }
    }
}

impl Matcher for ThreadedMatcher {
    fn add_wme(&mut self, id: WmeId, wm: &WmStore) {
        let wme = Arc::new(wm.get(id).expect("live wme").clone());
        self.broadcast(|| Req::Add(id, Arc::clone(&wme)));
    }

    fn remove_wme(&mut self, id: WmeId, _wm: &WmStore) {
        self.broadcast(|| Req::Remove(id));
    }

    /// The flush barrier: appends every replica's pending events to
    /// `out`. A pool that has failed (or fails here) appends nothing.
    fn drain_events(&mut self, _wm: &WmStore, out: &mut MatchEvents) {
        self.broadcast(|| Req::Flush);
        if self.failure.is_some() {
            return;
        }
        let mut resps = Vec::with_capacity(self.slots.len());
        for (w, slot) in self.slots.iter().enumerate() {
            match slot.rx.recv() {
                Ok(resp) => resps.push(resp),
                Err(_) => return self.fail(w),
            }
        }
        let mut total = WorkCounters::default();
        for (slot, resp) in self.slots.iter_mut().zip(&resps) {
            deliver(&mut slot.delivered, &mut self.names, &resp.events, out);
            total.add(&resp.work);
            self.chunks = self.chunks.saturating_add(resp.chunks);
        }
        self.work = total;
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

    /// Every replica forgets its WMEs and every delivered name is free
    /// again, as the engine empties its set. A failed pool stays failed:
    /// its run is over, and a fresh matcher is what runs again.
    fn reset(&mut self) {
        self.names.restart();
        for slot in &mut self.slots {
            slot.delivered.clear();
        }
        self.broadcast(|| Req::Reset);
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
    use ops5::{ConflictSet, CycleStats, Engine, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// Loads `drive`'s WMEs and runs to the end, whatever the end is.
    fn load_and_run(e: &mut Engine) -> ops5::RunOutcome {
        e.make_wme("summary", &[("n", 0.into())]).unwrap();
        for i in 0..12 {
            let kind = if i % 3 == 0 { "compact" } else { "linear" };
            e.make_wme("region", &[("id", i.into()), ("kind", Value::symbol(kind))])
                .unwrap();
        }
        e.run(10_000)
    }

    fn drive(e: &mut Engine) -> (u64, Vec<String>) {
        let out = load_and_run(e);
        assert!(out.quiescent(), "{out:?}");
        let mut wm: Vec<String> = e.wm().iter().map(|(_, w)| w.to_string()).collect();
        wm.sort();
        (out.firings, wm)
    }

    fn seq_engine() -> Engine {
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        Engine::with_compiled(program, compiled)
    }

    fn pool_engine(n_workers: usize, plan: &FaultPlan) -> Engine {
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let m = ThreadedMatcher::with_fault_plan(&program, &compiled, n_workers, plan).unwrap();
        Engine::with_matcher(Arc::clone(&program), compiled, Box::new(m))
    }

    fn run_with(n_workers: Option<usize>) -> (u64, Vec<String>) {
        let mut e = match n_workers {
            None => seq_engine(),
            Some(n) => pool_engine(n, &FaultPlan::none()),
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
        // One engine over a pool of three: run, reset, run again. The
        // second run must equal the first and a sequential engine's, with
        // every replica and every delivered name reset along with the
        // engine.
        let mut e = pool_engine(3, &FaultPlan::none());
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
        let mut e = pool_engine(3, &FaultPlan::none());
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

    /// A pool that counts the flush barriers the engine asks of it.
    struct Counted(ThreadedMatcher, Arc<AtomicU64>);

    impl Matcher for Counted {
        fn add_wme(&mut self, id: WmeId, wm: &WmStore) {
            self.0.add_wme(id, wm)
        }
        fn remove_wme(&mut self, id: WmeId, wm: &WmStore) {
            self.0.remove_wme(id, wm)
        }
        fn drain_events(&mut self, wm: &WmStore, out: &mut MatchEvents) {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.drain_events(wm, out)
        }
        fn take_chunks(&mut self) -> u32 {
            self.0.take_chunks()
        }
        fn work(&self) -> WorkCounters {
            self.0.work()
        }
        fn reset(&mut self) {
            self.0.reset()
        }
    }

    fn fired(log: &[CycleStats]) -> Vec<u32> {
        log.iter().map(|c| c.production).collect()
    }

    /// One barrier per cycle: a run of F firings over C WME changes (here
    /// `count`'s RHS alone makes four) flushes F times plus once per loaded
    /// WME, not C times — and still fires what the sequential engine fires.
    /// A single worker carries the whole network, so there the cycle log
    /// (match units and chunks per cycle) and the work agree to the unit.
    #[test]
    fn one_flush_barrier_per_firing() {
        let program = Arc::new(Program::parse(SRC).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let mut seq = Engine::with_compiled(Arc::clone(&program), Arc::clone(&compiled));
        seq.enable_cycle_log();
        let seq_run = drive(&mut seq);
        let seq_log = seq.take_cycle_log();
        for n in [1, 3] {
            let flushes = Arc::new(AtomicU64::new(0));
            let m = Counted(
                ThreadedMatcher::new(&program, &compiled, n).unwrap(),
                Arc::clone(&flushes),
            );
            let mut e =
                Engine::with_matcher(Arc::clone(&program), Arc::clone(&compiled), Box::new(m));
            e.enable_cycle_log();
            assert_eq!(drive(&mut e), seq_run, "workers={n}");
            let (log, work) = (e.take_cycle_log(), e.work());
            let flushes = flushes.load(Ordering::Relaxed);
            assert_eq!(flushes, work.firings + LOADS, "workers={n}");
            assert!(work.wme_adds + work.wme_removes > flushes, "{work:?}");
            assert_eq!(fired(&log), fired(&seq_log), "workers={n}");
            if n == 1 {
                assert_eq!(log, seq_log);
                assert_eq!(work, seq.work());
            }
        }
    }

    /// A worker killed at any barrier of the run fails it: the engine
    /// stops with an error naming the worker, having fired a prefix of what
    /// the sequential engine fires, and the pool delivers nothing from that
    /// barrier on — those before a `count` firing included, whose four WME
    /// changes all go out to a dead worker. A worker that dies after the
    /// run's last barrier costs the run nothing: no answer of its was
    /// needed.
    #[test]
    fn a_dead_worker_fails_the_run() {
        let mut seq = seq_engine();
        seq.enable_cycle_log();
        let seq_run = drive(&mut seq);
        let seq_fired = fired(&seq.take_cycle_log());
        let barriers = LOADS + seq_run.0;
        for die_after in 0..=barriers {
            let mut e = pool_engine(3, &FaultPlan::none().with_worker_death(1, die_after));
            e.enable_cycle_log();
            let out = load_and_run(&mut e);
            let got = fired(&e.take_cycle_log());
            if die_after == barriers {
                assert_eq!((out.error, got), (None, seq_fired.clone()));
                continue;
            }
            let err = out.error.expect("a dead worker must fail the run");
            assert!(
                err.contains("match worker 1 died"),
                "die_after={die_after}: {err}"
            );
            assert!(
                seq_fired.starts_with(&got),
                "die_after={die_after}: {got:?} is not a prefix of {seq_fired:?}"
            );
            e.reset();
            assert!(e.run(10).error.is_some(), "a failed pool stays failed");
        }
    }

    /// Three joins, one per worker of a pool of three: worker 1 carries
    /// `ac`.
    const JOINS: &str = "
        (literalize a x)
        (literalize b x)
        (literalize c x)
        (p ab (a ^x <v>) (b ^x <v>) --> (halt))
        (p ac (a ^x <v>) (c ^x <v>) --> (halt))
        (p bc (b ^x <v>) (c ^x <v>) --> (halt))
    ";

    /// Worker 1 delivers `ac`'s `(a1, c1)` at barrier 2 under a name of the
    /// pool's; barrier 5 removes `a1`, and the retraction must carry that
    /// name and free it. After every barrier the set the pool's names feed
    /// equals the one a sequential Rete feeds.
    #[test]
    fn a_retraction_names_what_its_worker_delivered() {
        let program = Arc::new(Program::parse(JOINS).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let mut pool = ThreadedMatcher::new(&program, &compiled, 3).unwrap();
        let network = Network::build(&compiled, &program, ReteConfig::default());
        let mut seq = Rete::instantiate(Arc::new(network));
        let (mut pool_set, mut seq_set) = (ConflictSet::new(), ConflictSet::new());
        let keys = |cs: &ConflictSet| {
            let mut v: Vec<_> = cs.iter().map(|i| (i.production, i.wmes.to_vec())).collect();
            v.sort();
            v
        };
        let mut wm = WmStore::new();
        let mut made = Vec::new();
        let steps = [("a", 1), ("c", 1), ("b", 1), ("a", 2), ("-", 0), ("a", 1)];
        for (barrier, (class, x)) in (1..).zip(steps) {
            if class == "-" {
                let id = made.remove(0);
                pool.remove_wme(id, &wm);
                seq.remove_wme(id, &wm);
                wm.remove(id);
            } else {
                let class = ops5::symbol::sym(class);
                let mut w = Wme::new(class, program.n_slots(class).unwrap(), barrier);
                w.set(0, x.into());
                let id = wm.add(w);
                made.push(id);
                pool.add_wme(id, &wm);
                seq.add_wme(id, &wm);
            }
            let mut events = MatchEvents::new();
            pool.drain_events(&wm, &mut events);
            pool_set.apply(&events);
            seq_set.apply(&seq.drain_events(&wm));
            assert_eq!(keys(&pool_set), keys(&seq_set), "barrier {barrier}");
            assert_eq!(pool_set.len(), seq_set.len(), "barrier {barrier}");
            let subset = &pool.slots[1].delivered;
            match barrier {
                2..=4 => assert_eq!(subset.len(), 1, "barrier {barrier}: {subset:?}"),
                5 => assert!(subset.is_empty(), "the retraction freed {subset:?}"),
                _ => {}
            }
        }
        assert_eq!(pool.failure(), None);
        assert_eq!(pool_set.len(), 3, "ab, ac and bc over a1, b1, c1");
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
}
