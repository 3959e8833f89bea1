//! The OPS5 interpreter: working memory + Rete + recognize–act cycle.
//!
//! The cycle is match → resolve → act with one synchronisation: every WME
//! change of a firing's RHS goes through the matcher as it is made, and the
//! conflict set is fed once, from one [`Matcher::drain_events`], when the
//! RHS has run — so an instantiation that a `modify`'s remove satisfies and
//! its add blocks again is never built or ranked. WM changes made from
//! outside a firing (task set-up) each feed before they return:
//! between calls the conflict set is always that of the current WM.
//!
//! The engine only counts. A run leaves plain numbers behind — the merged
//! [`Engine::work`], and the two per-run records a caller may switch on,
//! [`Engine::enable_cycle_log`] and [`Engine::enable_profile`] — and whoever
//! wants to watch a run reads them from outside, between [`Engine::step`]s
//! or [`Engine::run`] slices (`spam::watch` does, for task engines). There
//! is no observer, sink or callback in here and this crate names no
//! telemetry type.

use crate::ast::{Action, Expr, SlotIdx};
use crate::conflict::{ConflictSet, Instantiation, Strategy};
use crate::instrument::{cost, CycleStats, WorkCounters};
use crate::matcher::{Matcher, NaiveMatcher};
use crate::profile::{MatchProfile, ProductionProfile};
use crate::program::Program;
use crate::rete::compile::{compile_production, CompiledProduction, VarSource};
use crate::rete::{MatchEvent, Network, Rete, ReteConfig};
use crate::rhs::eval_expr;
use crate::static_sym;
use crate::symbol::{sym, Symbol};
use crate::value::Value;
use crate::wme::{TimeTag, WmStore, Wme, WmeId};
use crate::{Error, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Side effects collected from an external-function call.
///
/// SPAM's RHS runs geometric computations outside OPS5 (forked Lisp
/// processes originally, C function calls in the ported baseline). External
/// functions in this engine mirror that: they receive argument values and
/// may report simulated cost, queue WMEs to create, produce output, or halt.
///
/// The engine owns one and hands it, emptied, to every call.
#[derive(Debug, Default)]
pub struct Effects {
    /// Work units the external computation consumed (task-related cost,
    /// counted separately from match cost — the paper's key distinction).
    pub cost: u64,
    /// Queued WMEs: `(class, number of its entries in `sets`)`.
    makes: Vec<(Symbol, usize)>,
    /// The slot assignments of the queued WMEs, back to back.
    sets: Vec<(SlotIdx, Value)>,
    /// Text to append to the engine output.
    pub output: String,
    /// Halt the engine after this firing.
    pub halt: bool,
}

impl Effects {
    /// Queues a WME to create after the call returns, as
    /// [`Engine::make_wme_slots`] would create it.
    pub fn make(&mut self, class: Symbol, sets: &[(SlotIdx, Value)]) {
        self.makes.push((class, sets.len()));
        self.sets.extend_from_slice(sets);
    }

    fn clear(&mut self) {
        self.cost = 0;
        self.makes.clear();
        self.sets.clear();
        self.output.clear();
        self.halt = false;
    }
}

/// Buffers the recognize–act cycle fills on every firing, kept between
/// firings (and over [`Engine::reset`]) so a firing allocates only what it
/// leaves behind in working memory and the conflict set.
#[derive(Default)]
struct Scratch {
    /// The matcher's pending conflict-set changes.
    events: Vec<MatchEvent>,
    /// Variable bindings of the firing instantiation.
    vals: Vec<Value>,
    /// Evaluated call arguments; nested calls stack theirs on top.
    argv: Vec<Value>,
    /// Evaluated `modify` assignments / resolved `make_wme` slots.
    sets: Vec<(SlotIdx, Value)>,
    effects: Effects,
}

/// An external (RHS) function.
pub type ExternalFn = Arc<dyn Fn(&[Value], &mut Effects) -> Option<Value> + Send + Sync>;

/// Outcome of a [`Engine::run`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Number of productions fired.
    pub firings: u64,
    /// True when a `(halt)` was executed.
    pub halted: bool,
    /// True when the firing limit stopped the run.
    pub limit_reached: bool,
    /// Runtime error, if one stopped the run.
    pub error: Option<String>,
}

impl RunOutcome {
    /// True when the run ended because the conflict set emptied.
    pub fn quiescent(&self) -> bool {
        !self.halted && !self.limit_reached && self.error.is_none()
    }
}

/// An OPS5 engine instance: one complete production system.
///
/// SPAM/PSM runs many of these concurrently — each task process owns a full
/// engine with its own working memory, conflict set, and Rete memories,
/// sharing what is immutable: the program, its compiled chains and the
/// [`Network`] built from them (working-memory distribution, §5.1). An
/// engine *is* its memories: making one allocates a handful of empty lists,
/// dropping one frees what its runs grew.
pub struct Engine {
    program: Arc<Program>,
    compiled: Arc<Vec<CompiledProduction>>,
    matcher: Box<dyn Matcher>,
    wm: WmStore,
    conflict: ConflictSet,
    time: TimeTag,
    /// Accumulated interpreter work (match work lives in the matcher; use
    /// [`Engine::work`] for the merged view).
    base_work: WorkCounters,
    externals: HashMap<Symbol, ExternalFn>,
    /// Named counters behind stateful external functions (id allocators),
    /// registered via [`Engine::external_counter`]. They are engine state in
    /// disguise — the ids they hand out land in working memory — so each
    /// keeps its `init` for [`Engine::reset`] to rewind it to, and
    /// [`Engine::image`] carries their values.
    ext_counters: Vec<(String, i64, Arc<AtomicI64>)>,
    halted: bool,
    /// Accumulated `write` output.
    pub output: String,
    cycle_log: Option<Vec<CycleStats>>,
    /// Matcher-work snapshot at the start of the cycle being logged (WM
    /// changes made outside the recognize–act loop — e.g. task set-up —
    /// charge to the next cycle, as they would run on the match processes).
    log_snapshot: WorkCounters,
    gensym: u64,
    strategy: Strategy,
    /// Interpreter-side profiling state (per-production firings and RHS
    /// cost, conflict-set sizes); `Some` only while profiling. It only
    /// reads the deterministic counters — work totals are identical with
    /// profiling on or off.
    profile: Option<EngineProfile>,
    scratch: Scratch,
    /// What [`Engine::rollback`] returns to, once [`Engine::mark`] has
    /// taken it.
    mark: Option<Mark>,
}

/// The interpreter's side of a mark: what [`Engine::reset`] zeroes, as it
/// stood when [`Engine::mark`] was called. (The matcher keeps its own.)
struct Mark {
    wm_len: usize,
    time: TimeTag,
    base_work: WorkCounters,
    gensym: u64,
    output: String,
    /// The named external counters' values, in registration order.
    counters: Vec<i64>,
    log_snapshot: WorkCounters,
    cycle_log: Option<Vec<CycleStats>>,
}

/// Interpreter-side collection state behind [`Engine::enable_profile`].
#[derive(Debug, Default)]
struct EngineProfile {
    /// `(firings, act_units, external_units)` per production index.
    per_prod: Vec<(u64, u64, u64)>,
    conflict_sizes: Vec<u32>,
    cycles: u64,
}

impl Engine {
    /// Compiles `program` into sharable chain specifications.
    pub fn compile(program: &Program) -> Result<Arc<Vec<CompiledProduction>>> {
        let compiled: Vec<CompiledProduction> = program
            .productions
            .iter()
            .enumerate()
            .map(|(i, p)| compile_production(i as u32, p))
            .collect::<Result<_>>()?;
        Ok(Arc::new(compiled))
    }

    /// Creates an engine for `program`.
    ///
    /// # Panics
    /// Panics if the program fails to compile (the parser rejects all such
    /// programs already, so this only fires on hand-built ASTs).
    pub fn new(program: Arc<Program>) -> Engine {
        let compiled = Self::compile(&program).expect("program compiles");
        Self::with_compiled(program, compiled)
    }

    /// Creates an engine from pre-compiled chains, building their default
    /// network for it ([`Engine::with_compiled_config`]).
    pub fn with_compiled(program: Arc<Program>, compiled: Arc<Vec<CompiledProduction>>) -> Engine {
        Self::with_compiled_config(program, compiled, ReteConfig::default())
    }

    /// Builds the network of `compiled` under `config`
    /// ([`ReteConfig::unshared()`] is the historical one-chain-per-production
    /// network for baseline comparisons) and creates an engine on it. For
    /// the one engine of a program; whoever makes many builds the network
    /// once ([`Network::build`]) and uses [`Engine::with_network`].
    pub fn with_compiled_config(
        program: Arc<Program>,
        compiled: Arc<Vec<CompiledProduction>>,
        config: ReteConfig,
    ) -> Engine {
        let network = Arc::new(Network::build(&compiled, &program, config));
        Self::with_network(program, compiled, network)
    }

    /// Creates an engine on a network built earlier from `compiled` (cheap:
    /// how the hundreds of task-process engines of a SPAM/PSM run are made).
    /// Engines on one network are independent of one another — the network
    /// is immutable — and each is exactly the engine a privately built
    /// network would give.
    pub fn with_network(
        program: Arc<Program>,
        compiled: Arc<Vec<CompiledProduction>>,
        network: Arc<Network>,
    ) -> Engine {
        Self::with_matcher(program, compiled, Box::new(Rete::instantiate(network)))
    }

    /// Creates an engine around an arbitrary match backend (how ParaOPS5's
    /// threaded parallel matcher plugs in).
    pub fn with_matcher(
        program: Arc<Program>,
        compiled: Arc<Vec<CompiledProduction>>,
        matcher: Box<dyn Matcher>,
    ) -> Engine {
        let strategy = program.strategy;
        Engine {
            program,
            compiled,
            matcher,
            wm: WmStore::new(),
            conflict: ConflictSet::new(),
            time: 0,
            base_work: WorkCounters::default(),
            externals: HashMap::new(),
            ext_counters: Vec::new(),
            halted: false,
            output: String::new(),
            cycle_log: None,
            log_snapshot: WorkCounters::default(),
            gensym: 0,
            strategy,
            profile: None,
            scratch: Scratch::default(),
            mark: None,
        }
    }

    /// Creates an engine using the naive (non-Rete) matcher — the
    /// unoptimised-baseline configuration standing in for the original Lisp
    /// OPS5 of §6 ("approximately a 10-20 fold speed-up over the original
    /// Lisp-based implementation").
    pub fn new_naive(program: Arc<Program>) -> Engine {
        let compiled = Self::compile(&program).expect("program compiles");
        let naive = NaiveMatcher::new(Arc::clone(&program), Arc::clone(&compiled));
        Self::with_matcher(program, compiled, Box::new(naive))
    }

    /// The program this engine runs.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The shared compiled chains (pass to [`Engine::with_compiled`]).
    pub fn compiled(&self) -> Arc<Vec<CompiledProduction>> {
        Arc::clone(&self.compiled)
    }

    /// Registers an external function callable from the RHS.
    pub fn register_external(&mut self, name: &str, f: ExternalFn) {
        self.externals.insert(sym(name), f);
    }

    /// Returns a named shared counter for stateful external functions (id
    /// allocators), creating it at `init` on first registration.
    ///
    /// Idempotent by name: re-registering returns the existing counter. The
    /// engine owns it because [`Engine::reset`] must rewind it: a kept
    /// engine that serves another task must allocate the ids a new engine
    /// would, or the task's working memory (and match work) would differ
    /// from a fresh run's.
    pub fn external_counter(&mut self, name: &str, init: i64) -> Arc<AtomicI64> {
        if let Some((_, _, c)) = self.ext_counters.iter().find(|(n, _, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(AtomicI64::new(init));
        self.ext_counters
            .push((name.to_string(), init, Arc::clone(&c)));
        c
    }

    /// Returns the engine to the state [`Engine::with_matcher`] left it in,
    /// keeping what a new one would have to get again: the capacity its
    /// memories grew (via [`Matcher::reset`]), the registered external
    /// functions, and the strategy override.
    ///
    /// Everything a run can observe starts over — working memory (ids and
    /// time tags count from the beginning again), the conflict set, work
    /// counters, `gensym`, output, the halt flag — and every named external
    /// counter rewinds to the `init` it was registered with, so a replay on
    /// a reset engine is indistinguishable from the same replay on a new
    /// one: same firing sequence, [`Engine::work`], [`Engine::net_stats`],
    /// cycle log and final working memory. The cycle log and the profile
    /// belong to one run and are detached; callers re-enable what the next
    /// run wants.
    ///
    /// This is how a task process serves many tasks with one engine (one
    /// OPS5 instance per task process, as in the paper) instead of wiring
    /// one per task.
    pub fn reset(&mut self) {
        self.matcher.reset();
        self.wm.clear();
        self.conflict.clear();
        self.time = 0;
        self.base_work = WorkCounters::default();
        for (_, init, c) in &self.ext_counters {
            c.store(*init, Ordering::Relaxed);
        }
        self.halted = false;
        self.output.clear();
        self.cycle_log = None;
        self.log_snapshot = WorkCounters::default();
        self.gensym = 0;
        self.profile = None;
        self.mark = None;
    }

    /// Makes the engine's state now — working memory loaded, nothing fired
    /// that is still to be undone — the *base* that [`Engine::rollback`]
    /// returns to: how a task process loads the part of working memory its
    /// tasks share once, instead of once per task. Declines (`false`, and
    /// the engine is left unmarked) when the conflict set is not empty, the
    /// engine has halted, or the match backend does not mark
    /// ([`Matcher::mark`]: the Rete does, unless an instantiation is on its
    /// way to the conflict set).
    ///
    /// **The mark contract.** After a rollback the engine is in the state it
    /// was marked in — working memory (the next id and time tag follow the
    /// base's), an empty conflict set, work counters, `gensym`, output, the
    /// named external counters, and the cycle log as it was: enabled then,
    /// it is enabled and holds what it held, so match work the base cost is
    /// charged to the first cycle after it, as on an engine that loaded base
    /// and task itself. A replay on it is therefore indistinguishable from
    /// the same replay on a new engine that first loaded the base: same
    /// firing sequence, [`Engine::work`], [`Engine::net_stats`], cycle log
    /// and final working memory. Only the profile is detached, as by
    /// [`Engine::reset`].
    ///
    /// Removing a base WME after the mark (or, in the Rete, deleting a
    /// token the base made) *breaks* it: the next rollback declines and the
    /// caller resets and loads the base again. [`Engine::reset`] and a
    /// declined `mark` drop it.
    pub fn mark(&mut self) -> bool {
        self.mark = None;
        if self.halted || !self.conflict.is_empty() || !self.matcher.mark(&self.wm) {
            return false;
        }
        self.mark = Some(Mark {
            wm_len: self.wm.next_id().0 as usize,
            time: self.time,
            base_work: self.base_work,
            gensym: self.gensym,
            output: self.output.clone(),
            counters: (self.ext_counters.iter())
                .map(|(_, _, c)| c.load(Ordering::Relaxed))
                .collect(),
            log_snapshot: self.log_snapshot,
            cycle_log: self.cycle_log.clone(),
        });
        true
    }

    /// Returns the engine to its last [`Engine::mark`] (see there for what
    /// that promises). `false` — and the engine is unmarked, in no
    /// particular state, to be [`reset`](Engine::reset) — when there is no
    /// mark or it is broken.
    pub fn rollback(&mut self) -> bool {
        let Some(mark) = &self.mark else {
            return false;
        };
        if !self.matcher.rollback() {
            self.mark = None;
            return false;
        }
        self.wm.truncate(mark.wm_len);
        self.conflict.clear();
        self.time = mark.time;
        self.base_work = mark.base_work;
        self.gensym = mark.gensym;
        self.output.clone_from(&mark.output);
        for (i, (_, init, c)) in self.ext_counters.iter().enumerate() {
            // One registered since starts over.
            c.store(*mark.counters.get(i).unwrap_or(init), Ordering::Relaxed);
        }
        self.halted = false;
        self.log_snapshot = mark.log_snapshot;
        self.cycle_log.clone_from(&mark.cycle_log);
        self.profile = None;
        true
    }

    /// Overrides the program's conflict-resolution strategy.
    pub fn set_strategy(&mut self, s: Strategy) {
        self.strategy = s;
    }

    /// Starts match-level profiling: per-production match cost and firing
    /// counts, alpha-memory heat, token totals, and conflict-set sizes.
    /// The profiler only *reads* the deterministic work counters, so
    /// work-unit totals are bit-identical with profiling enabled or not.
    pub fn enable_profile(&mut self) {
        self.matcher.enable_profile();
        self.profile = Some(EngineProfile {
            per_prod: vec![(0, 0, 0); self.program.productions.len()],
            ..Default::default()
        });
    }

    /// Takes the accumulated match profile (profiling continues with fresh
    /// counters). `None` unless [`Engine::enable_profile`] was called.
    /// Production names are resolved from the program; `work` carries the
    /// engine's merged counters.
    pub fn take_profile(&mut self) -> Option<MatchProfile> {
        let eng = self.profile.take()?;
        self.profile = Some(EngineProfile {
            per_prod: vec![(0, 0, 0); self.program.productions.len()],
            ..Default::default()
        });
        let mut mp = self.matcher.take_profile().unwrap_or_default();
        if mp.productions.len() < self.program.productions.len() {
            mp.productions
                .resize(self.program.productions.len(), ProductionProfile::default());
        }
        for (i, p) in mp.productions.iter_mut().enumerate() {
            p.name = self.program.productions[i].name.to_string();
            if let Some(&(firings, act, ext)) = eng.per_prod.get(i) {
                p.firings += firings;
                p.act_units += act;
                p.external_units += ext;
            }
        }
        mp.conflict_sizes = eng.conflict_sizes;
        mp.cycles = eng.cycles;
        mp.work = self.work();
        Some(mp)
    }

    /// Starts recording per-cycle statistics. Match work done between this
    /// call and the first cycle (initial WM loading) is charged to the
    /// first cycle.
    pub fn enable_cycle_log(&mut self) {
        self.cycle_log = Some(Vec::new());
        self.log_snapshot = self.matcher.work();
        self.matcher.take_chunks();
    }

    /// The per-cycle statistics recorded so far (none unless logging).
    pub fn cycle_log(&self) -> &[CycleStats] {
        self.cycle_log.as_deref().unwrap_or(&[])
    }

    /// Takes the recorded per-cycle statistics (logging stays enabled).
    pub fn take_cycle_log(&mut self) -> Vec<CycleStats> {
        match &mut self.cycle_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Merged work counters (interpreter + match).
    pub fn work(&self) -> WorkCounters {
        let mut w = self.base_work;
        w.add(&self.matcher.work());
        w
    }

    /// Working-memory view.
    pub fn wm(&self) -> &WmStore {
        &self.wm
    }

    /// Network sharing/indexing statistics of the match backend (all-zero
    /// for the naive matcher).
    pub fn net_stats(&self) -> crate::profile::NetStats {
        self.matcher.net_stats()
    }

    /// Current conflict-set size.
    pub fn conflict_len(&self) -> usize {
        self.conflict.len()
    }

    /// True when a `(halt)` has been executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Creates a WME by class and attribute names: resolves them and calls
    /// [`Engine::make_wme_slots`].
    pub fn make_wme(&mut self, class: &str, sets: &[(&str, Value)]) -> Result<WmeId> {
        let class_sym = sym(class);
        if self.program.class(class_sym).is_none() {
            return Err(Error::Runtime(format!("make: unknown class '{class}'")));
        }
        let mut slots = std::mem::take(&mut self.scratch.sets);
        slots.clear();
        let resolved = sets.iter().try_for_each(|(attr, v)| {
            let slot = self.program.slot_of(class_sym, sym(attr)).ok_or_else(|| {
                Error::Runtime(format!("class '{class}' has no attribute '{attr}'"))
            })?;
            slots.push((slot, *v));
            Ok(())
        });
        let made = resolved.and_then(|()| self.make_wme_slots(class_sym, &slots));
        self.scratch.sets = slots;
        made
    }

    /// Creates a WME from a class symbol and slot indices resolved ahead of
    /// time ([`Program::slot_of`]) — what a caller that makes many WMEs of
    /// the same few classes should hold on to instead of their names. Slots
    /// not mentioned are nil; a later assignment to a slot wins.
    pub fn make_wme_slots(&mut self, class: Symbol, sets: &[(SlotIdx, Value)]) -> Result<WmeId> {
        let made = self.make_slots(class, sets);
        self.sync_conflict();
        made
    }

    /// [`Engine::make_wme_slots`] without the conflict-set feed, for WMEs
    /// made inside a firing.
    fn make_slots(&mut self, class: Symbol, sets: &[(SlotIdx, Value)]) -> Result<WmeId> {
        let n = self
            .program
            .n_slots(class)
            .ok_or_else(|| Error::Runtime(format!("make: unknown class '{class}'")))?;
        let mut fields = vec![Value::Nil; n].into_boxed_slice();
        for &(slot, v) in sets {
            *fields.get_mut(slot as usize).ok_or_else(|| {
                Error::Runtime(format!("class '{class}' has no slot {slot} (of {n})"))
            })? = v;
        }
        Ok(self.insert_wme(class, fields))
    }

    /// Inserts a WME from raw slot values (working-memory distribution path:
    /// the PSM control process copies WMEs into task engines this way).
    /// A fresh local time tag is assigned.
    pub fn insert_fields(&mut self, class: Symbol, fields: Vec<Value>) -> WmeId {
        let id = self.insert_wme(class, fields.into_boxed_slice());
        self.sync_conflict();
        id
    }

    /// Adds a WME to the store and the matcher; the conflict set hears of
    /// it at the next [`Engine::sync_conflict`].
    fn insert_wme(&mut self, class: Symbol, fields: Box<[Value]>) -> WmeId {
        self.time += 1;
        let wme = Wme {
            class,
            fields,
            time_tag: self.time,
        };
        let id = self.wm.add(wme);
        self.base_work.wme_adds += 1;
        self.matcher.add_wme(id, &self.wm);
        id
    }

    /// Removes a WME by id (no-op on dead ids).
    pub fn remove_wme_id(&mut self, id: WmeId) {
        if self.take_wme(id).is_some() {
            self.sync_conflict();
        }
    }

    /// Removes a WME by id from the store and the matcher and returns it
    /// (`None` for a dead id); the conflict set hears of it at the next
    /// [`Engine::sync_conflict`].
    fn take_wme(&mut self, id: WmeId) -> Option<Wme> {
        self.wm.get(id)?;
        self.matcher.remove_wme(id, &self.wm);
        let wme = self.wm.remove(id);
        self.base_work.wme_removes += 1;
        wme
    }

    /// The cycle's one synchronisation with the matcher: drains its net
    /// changes since the last call into the conflict set.
    fn sync_conflict(&mut self) {
        let mut events = std::mem::take(&mut self.scratch.events);
        self.matcher.drain_events(&self.wm, &mut events);
        for e in events.drain(..) {
            match e {
                MatchEvent::Insert(i) => self.conflict.insert(i),
                MatchEvent::Retract { production, wmes } => {
                    self.conflict.remove(production, &wmes);
                }
            }
        }
        self.scratch.events = events;
    }

    /// Runs the recognize–act cycle for at most `limit` firings.
    pub fn run(&mut self, limit: u64) -> RunOutcome {
        let mut firings = 0;
        while firings < limit {
            match self.step() {
                Ok(Some(_)) => firings += 1,
                Ok(None) => {
                    return RunOutcome {
                        firings,
                        halted: self.halted,
                        limit_reached: false,
                        error: None,
                    }
                }
                Err(e) => {
                    return RunOutcome {
                        firings,
                        halted: self.halted,
                        limit_reached: false,
                        error: Some(e.to_string()),
                    }
                }
            }
        }
        RunOutcome {
            firings,
            halted: self.halted,
            limit_reached: true,
            error: None,
        }
    }

    /// Executes one recognize–act cycle. Returns the fired production index,
    /// or `None` at quiescence / after halt.
    pub fn step(&mut self) -> Result<Option<u32>> {
        if self.halted {
            return Ok(None);
        }
        if let Some(err) = self.matcher.failure() {
            return Err(Error::Runtime(format!("match backend failed: {err}")));
        }
        // Resolve.
        let match_before = if self.cycle_log.is_some() {
            self.log_snapshot
        } else {
            self.matcher.work()
        };
        let conflict_len = self.conflict.len();
        self.base_work.resolve_units += cost::resolve_cost(conflict_len);
        let Some(inst) = self.conflict.select(self.strategy) else {
            return Ok(None);
        };
        let prod_idx = inst.production;
        let act_before = self.base_work;
        // Act.
        self.fire(&inst)?;
        self.base_work.firings += 1;
        if let Some(p) = &mut self.profile {
            let d = self.base_work.since(&act_before);
            if let Some(slot) = p.per_prod.get_mut(prod_idx as usize) {
                slot.0 += 1;
                slot.1 += d.act_units;
                slot.2 += d.external_units;
            }
            p.conflict_sizes.push(conflict_len as u32);
            p.cycles += 1;
        }
        if self.cycle_log.is_some() {
            self.log_snapshot = self.matcher.work();
        }
        if let Some(log) = &mut self.cycle_log {
            let match_delta = self.log_snapshot.since(&match_before);
            let act_delta = self.base_work.since(&act_before);
            let chunks = self.matcher.take_chunks();
            log.push(CycleStats {
                production: prod_idx,
                match_units: match_delta.match_units,
                match_chunks: chunks,
                resolve_units: cost::resolve_cost(conflict_len),
                act_units: act_delta.act_units,
                external_units: act_delta.external_units,
            });
        }
        Ok(Some(prod_idx))
    }

    /// Executes the RHS of `inst`, with the engine's scratch buffers taken
    /// out for the duration (an error leaves them emptied, not lost), then
    /// feeds the conflict set what the RHS's WME changes — all of them, or
    /// those made before an error — amount to.
    fn fire(&mut self, inst: &Instantiation) -> Result<()> {
        let mut vals = std::mem::take(&mut self.scratch.vals);
        let mut argv = std::mem::take(&mut self.scratch.argv);
        let mut sets = std::mem::take(&mut self.scratch.sets);
        argv.clear();
        let fired = self.fire_with(inst, &mut vals, &mut argv, &mut sets);
        self.scratch.vals = vals;
        self.scratch.argv = argv;
        self.scratch.sets = sets;
        self.sync_conflict();
        fired
    }

    fn fire_with(
        &mut self,
        inst: &Instantiation,
        vals: &mut Vec<Value>,
        argv: &mut Vec<Value>,
        sets: &mut Vec<(SlotIdx, Value)>,
    ) -> Result<()> {
        let compiled = Arc::clone(&self.compiled);
        let cp = &compiled[inst.production as usize];
        let program = Arc::clone(&self.program);
        let prod = &program.productions[inst.production as usize];

        // Extract variable bindings from the matched WMEs.
        vals.clear();
        vals.resize(prod.n_vars as usize, Value::Nil);
        for (val, src) in vals.iter_mut().zip(&cp.var_sources) {
            if let VarSource::Lhs { slot, pos, .. } = *src {
                if let Some(w) = self.wm.get(inst.wmes[pos as usize]) {
                    *val = w.get(slot as usize);
                }
            }
        }

        for action in &prod.actions {
            self.base_work.rhs_actions += 1;
            self.base_work.act_units += cost::RHS_ACTION;
            match action {
                Action::Make { class, sets: exprs } => {
                    sets.clear();
                    for (slot, e) in exprs {
                        sets.push((*slot, self.eval(e, vals, argv)?));
                    }
                    self.make_slots(*class, sets)?;
                }
                Action::Modify { ce, sets: exprs } => {
                    let pos = cp.ce_to_positive[(*ce - 1) as usize]
                        .expect("modify target is positive") as usize;
                    let id = inst.wmes[pos];
                    if self.wm.get(id).is_none() {
                        // Already removed earlier in this RHS; OPS5 would
                        // signal an error — we skip, deterministically.
                        continue;
                    }
                    // Evaluate first (expressions may read the old values
                    // via variables), then swap.
                    sets.clear();
                    for (slot, e) in exprs {
                        sets.push((*slot, self.eval(e, vals, argv)?));
                    }
                    // OPS5 modify = remove + make with changed slots; the
                    // new element moves into the old one's field storage.
                    let mut wme = self
                        .take_wme(id)
                        .expect("live above, and evaluation only adds WMEs");
                    for &(slot, v) in sets.iter() {
                        wme.fields[slot as usize] = v;
                    }
                    self.insert_wme(wme.class, wme.fields);
                }
                Action::Remove { ce } => {
                    let pos = cp.ce_to_positive[(*ce - 1) as usize]
                        .expect("remove target is positive") as usize;
                    self.take_wme(inst.wmes[pos]);
                }
                Action::Bind { var, expr } => {
                    let v = self.eval(expr, vals, argv)?;
                    vals[*var as usize] = v;
                }
                Action::Write { parts } => {
                    let crlf = static_sym!("crlf");
                    let mut first = true;
                    let mut line = String::new();
                    for p in parts {
                        let v = self.eval(p, vals, argv)?;
                        if v.as_sym() == Some(crlf) {
                            line.push('\n');
                            first = true;
                            continue;
                        }
                        if !first {
                            line.push(' ');
                        }
                        line.push_str(&v.to_string());
                        first = false;
                    }
                    self.output.push_str(&line);
                }
                Action::Call { name, args } => {
                    self.eval_call(*name, args, vals, argv)?;
                }
                Action::Halt => {
                    self.halted = true;
                }
            }
        }
        Ok(())
    }

    /// Evaluates `args` onto the top of the `argv` stack, calls external
    /// `name` with them, and pops them.
    fn eval_call(
        &mut self,
        name: Symbol,
        args: &[Expr],
        vals: &[Value],
        argv: &mut Vec<Value>,
    ) -> Result<Value> {
        let base = argv.len();
        for a in args {
            let v = self.eval(a, vals, argv)?;
            argv.push(v);
        }
        let ret = self.call_external(name, &argv[base..]);
        argv.truncate(base);
        ret
    }

    /// Evaluates an RHS expression, dispatching `(call ...)` sub-expressions
    /// to the external registry.
    fn eval(&mut self, expr: &Expr, vals: &[Value], argv: &mut Vec<Value>) -> Result<Value> {
        self.base_work.act_units += cost::RHS_EXPR;
        match expr {
            Expr::Call(name, args) => self.eval_call(*name, args, vals, argv),
            Expr::Compute(first, rest) => {
                let mut acc = self.eval(first, vals, argv)?;
                for (op, e) in rest {
                    let rhs = self.eval(e, vals, argv)?;
                    acc = crate::rhs::arith(*op, acc, rhs)?;
                }
                Ok(acc)
            }
            other => {
                let mut nocall = |n: Symbol, _: &[Value]| -> Result<Value> {
                    Err(Error::Runtime(format!("unexpected call {n}")))
                };
                let mut work = 0;
                let v = eval_expr(other, vals, &mut nocall, &mut work);
                self.base_work.act_units += work;
                v
            }
        }
    }

    /// The complete engine state, canonically ordered: working memory (exact
    /// slot layout, time tags), conflict-set entry keys, recency/gensym
    /// counters, work counters, named external counters, halt flag, and
    /// accumulated output. The property tests compare engines by it,
    /// through [`Engine::snapshot`].
    pub fn image(&self) -> crate::snapshot::EngineImage {
        let mut conflict: Vec<_> = (self.conflict.iter())
            .map(|i| (i.production, Box::from(&*i.wmes)))
            .collect();
        conflict.sort();
        let mut counters: Vec<_> = (self.ext_counters.iter())
            .map(|(n, _, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect();
        counters.sort();
        crate::snapshot::EngineImage {
            strategy: self.strategy,
            halted: self.halted,
            time: self.time,
            gensym: self.gensym,
            output: self.output.clone(),
            base_work: self.base_work,
            match_work: self.matcher.work(),
            slots: self.wm.raw_slots().to_vec(),
            conflict,
            counters,
        }
    }

    /// [`Engine::image`] as bytes: the canonical encoding tests compare
    /// engines by. Equal bytes, equal state.
    pub fn snapshot(&self) -> Vec<u8> {
        self.image().encode()
    }

    fn call_external(&mut self, name: Symbol, args: &[Value]) -> Result<Value> {
        // Builtin: genatom — a fresh unique symbol.
        if name == static_sym!("genatom") {
            self.gensym += 1;
            return Ok(Value::Sym(sym(&format!("g#{}", self.gensym))));
        }
        let Some(f) = self.externals.get(&name).cloned() else {
            return Err(Error::Runtime(format!(
                "unknown external function '{name}'"
            )));
        };
        let mut eff = std::mem::take(&mut self.scratch.effects);
        eff.clear();
        let ret = f(args, &mut eff);
        self.base_work.external_units += eff.cost;
        self.output.push_str(&eff.output);
        let mut made = Ok(());
        let mut sets = &eff.sets[..];
        for &(class, n) in &eff.makes {
            let (mine, rest) = sets.split_at(n);
            sets = rest;
            if let Err(e) = self.make_slots(class, mine) {
                made = Err(e);
                break;
            }
        }
        if eff.halt {
            self.halted = true;
        }
        self.scratch.effects = eff;
        made.map(|()| ret.unwrap_or(Value::Nil))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(src: &str) -> Engine {
        Engine::new(Arc::new(Program::parse(src).unwrap()))
    }

    #[test]
    fn counter_runs_to_quiescence() {
        let mut e = engine(
            "(literalize count n)
             (p up (count ^n { <n> <= 3 }) --> (modify 1 ^n (compute <n> + 1)))",
        );
        e.make_wme("count", &[("n", 0.into())]).unwrap();
        let out = e.run(100);
        assert_eq!(out.firings, 4);
        assert!(out.quiescent());
        let (_, w) = e.wm().iter().next().unwrap();
        assert_eq!(w.get(0), Value::Int(4));
    }

    #[test]
    fn halt_stops_the_run() {
        let mut e = engine(
            "(literalize tick n)
             (p stop (tick ^n 2) --> (halt))
             (p up (tick ^n <n>) --> (modify 1 ^n (compute <n> + 1)))",
        );
        e.make_wme("tick", &[("n", 0.into())]).unwrap();
        let out = e.run(100);
        assert!(out.halted);
        // n reaches 2, `stop` wins on specificity... both match at n=2;
        // `stop` has specificity 1 (const test) vs `up` 1 (binding) — tie
        // broken by recency (same wme) then production order. `stop` is
        // production 0 → wins the final tie-break.
        assert!(out.firings >= 3);
    }

    #[test]
    fn make_and_remove_track_wm() {
        let mut e = engine(
            "(literalize seed n)
             (literalize out n)
             (p expand (seed ^n <n>) --> (make out ^n <n>) (remove 1))",
        );
        e.make_wme("seed", &[("n", 7.into())]).unwrap();
        let out = e.run(10);
        assert_eq!(out.firings, 1);
        let classes: Vec<String> = e.wm().iter().map(|(_, w)| w.class.to_string()).collect();
        assert_eq!(classes, vec!["out"]);
    }

    #[test]
    fn write_produces_output() {
        let mut e = engine(
            "(literalize msg text)
             (p say (msg ^text <t>) --> (write |hello| <t> (crlf)) (remove 1))",
        );
        e.make_wme("msg", &[("text", Value::symbol("world"))])
            .unwrap();
        e.run(10);
        assert_eq!(e.output, "hello world\n");
    }

    #[test]
    fn external_function_called_with_args() {
        let mut e = engine(
            "(literalize region id)
             (literalize fragment region kind)
             (p classify (region ^id <r>)
                -->
                (make fragment ^region <r> ^kind (call classify-region <r>))
                (remove 1))",
        );
        e.register_external(
            "classify-region",
            Arc::new(|args, eff| {
                eff.cost = 1000;
                let id = args[0].as_int().unwrap();
                Some(if id % 2 == 0 {
                    Value::symbol("runway")
                } else {
                    Value::symbol("taxiway")
                })
            }),
        );
        e.make_wme("region", &[("id", 4.into())]).unwrap();
        e.make_wme("region", &[("id", 5.into())]).unwrap();
        let out = e.run(10);
        assert_eq!(out.firings, 2);
        assert_eq!(e.work().external_units, 2000);
        let kinds: Vec<String> = e.wm().iter().map(|(_, w)| w.get(1).to_string()).collect();
        assert!(kinds.contains(&"runway".to_string()));
        assert!(kinds.contains(&"taxiway".to_string()));
    }

    #[test]
    fn external_effects_make_wmes() {
        let mut e = engine(
            "(literalize trigger x)
             (literalize result v)
             (p go (trigger) --> (call emit) (remove 1))",
        );
        e.register_external(
            "emit",
            Arc::new(|_, eff| {
                eff.make(sym("result"), &[(0, Value::Int(42))]);
                None
            }),
        );
        e.make_wme("trigger", &[]).unwrap();
        e.run(10);
        let (_, w) = e.wm().iter().next().unwrap();
        assert_eq!(w.class, sym("result"));
        assert_eq!(w.get(0), Value::Int(42));
    }

    #[test]
    fn unknown_external_is_a_run_error() {
        let mut e = engine(
            "(literalize t x)
             (p go (t) --> (call no-such-fn))",
        );
        e.make_wme("t", &[]).unwrap();
        let out = e.run(10);
        assert!(out.error.is_some());
        assert!(out.error.unwrap().contains("no-such-fn"));
    }

    #[test]
    fn bind_and_genatom() {
        let mut e = engine(
            "(literalize t x)
             (literalize named id copy)
             (p go (t ^x <x>)
                -->
                (bind <g>)
                (make named ^id <g> ^copy <x>)
                (remove 1))",
        );
        e.make_wme("t", &[("x", 3.into())]).unwrap();
        e.run(10);
        let (_, w) = e.wm().iter().next().unwrap();
        assert!(w.get(0).as_sym().is_some(), "gensym bound");
        assert_eq!(w.get(1), Value::Int(3));
    }

    #[test]
    fn negation_driven_loop_terminates() {
        // Fires once per region lacking a fragment; creating the fragment
        // retracts the instantiation.
        let mut e = engine(
            "(literalize region id)
             (literalize fragment region)
             (p cover (region ^id <r>) -(fragment ^region <r>)
                -->
                (make fragment ^region <r>))",
        );
        for i in 0..5 {
            e.make_wme("region", &[("id", i.into())]).unwrap();
        }
        let out = e.run(100);
        assert_eq!(out.firings, 5);
        assert!(out.quiescent());
        assert_eq!(e.wm().len(), 10);
    }

    #[test]
    fn refraction_prevents_refiring() {
        // A production whose RHS does not change its own match must fire
        // exactly once per instantiation, not loop.
        let mut e = engine(
            "(literalize a x)
             (literalize log n)
             (p note (a ^x <x>) --> (make log ^n <x>))",
        );
        e.make_wme("a", &[("x", 1.into())]).unwrap();
        let out = e.run(100);
        assert_eq!(out.firings, 1);
    }

    #[test]
    fn lex_prefers_recent_wmes() {
        let mut e = engine(
            "(literalize a x)
             (literalize pick x)
             (p choose (a ^x <x>) --> (make pick ^x <x>) (remove 1))",
        );
        e.make_wme("a", &[("x", 1.into())]).unwrap();
        e.make_wme("a", &[("x", 2.into())]).unwrap();
        e.step().unwrap();
        // The more recent (x=2) fires first under LEX.
        let picks: Vec<Value> = e
            .wm()
            .iter()
            .filter(|(_, w)| w.class == sym("pick"))
            .map(|(_, w)| w.get(0))
            .collect();
        assert_eq!(picks, vec![Value::Int(2)]);
    }

    #[test]
    fn cycle_log_records_work() {
        let mut e = engine(
            "(literalize count n)
             (p up (count ^n { <n> <= 2 }) --> (modify 1 ^n (compute <n> + 1)))",
        );
        e.enable_cycle_log();
        e.make_wme("count", &[("n", 0.into())]).unwrap();
        e.run(100);
        let log = e.take_cycle_log();
        assert_eq!(log.len(), 3);
        assert!(log.iter().all(|c| c.match_units > 0));
        assert!(log.iter().all(|c| c.match_chunks > 0));
        assert!(log.iter().all(|c| c.act_units > 0));
    }

    #[test]
    fn work_counters_accumulate() {
        let mut e = engine(
            "(literalize count n)
             (p up (count ^n { <n> <= 9 }) --> (modify 1 ^n (compute <n> + 1)))",
        );
        e.make_wme("count", &[("n", 0.into())]).unwrap();
        e.run(100);
        let w = e.work();
        assert_eq!(w.firings, 10);
        assert!(w.match_units > 0);
        assert!(w.act_units > 0);
        assert!(w.resolve_units > 0);
        assert!(w.total_units() > 0);
        assert!(w.match_fraction() > 0.0 && w.match_fraction() < 1.0);
    }

    #[test]
    fn profiler_never_touches_work_counters() {
        let src = "(literalize count n)
             (p up (count ^n { <n> <= 5 }) --> (modify 1 ^n (compute <n> + 1)))";

        let mut plain = engine(src);
        plain.make_wme("count", &[("n", 0.into())]).unwrap();
        let out_plain = plain.run(100);

        let mut profiled = engine(src);
        profiled.enable_profile();
        profiled.make_wme("count", &[("n", 0.into())]).unwrap();
        let out_profiled = profiled.run(100);

        // Work accounting is bit-identical with the profiler collecting.
        assert_eq!(out_plain, out_profiled);
        assert_eq!(plain.work(), profiled.work());

        let p = profiled.take_profile().expect("profiling was enabled");
        assert_eq!(p.cycles, out_profiled.firings);
        assert_eq!(p.conflict_sizes.len() as u64, p.cycles);
        assert_eq!(p.productions.len(), 1);
        assert_eq!(p.productions[0].name, "up");
        assert_eq!(p.productions[0].firings, out_profiled.firings);
        assert!(p.productions[0].match_units > 0);
        assert!(p.productions[0].act_units > 0);
        assert!(p.tokens_created > 0);
        assert!(p.tokens_deleted > 0, "modify removes old tokens");
        assert!(!p.alpha_mems.is_empty());
        assert!(p.alpha_mems.iter().any(|a| a.activations > 0));
        assert_eq!(p.work, profiled.work());
        // Attribution is conservative: attributed match work never exceeds
        // the measured total.
        assert!(p.beta_units() + p.alpha_units() <= p.work.match_units);
    }

    #[test]
    fn take_profile_without_enable_is_none() {
        let mut e = engine(
            "(literalize count n)
             (p up (count ^n { <n> <= 2 }) --> (modify 1 ^n (compute <n> + 1)))",
        );
        e.make_wme("count", &[("n", 0.into())]).unwrap();
        e.run(100);
        assert!(e.take_profile().is_none());
    }

    #[test]
    fn profile_attributes_cost_to_hot_productions() {
        // `busy` joins two classes and fires repeatedly; `quiet` never can.
        let src = "
            (literalize a x)
            (literalize b y)
            (literalize done n)
            (literalize never z)
            (p busy (a ^x <v>) (b ^y <v>) --> (make done ^n <v>) (remove 2))
            (p quiet (never ^z 1) --> (halt))
        ";
        let mut e = engine(src);
        e.enable_profile();
        for i in 0..4 {
            e.make_wme("a", &[("x", i.into())]).unwrap();
            e.make_wme("b", &[("y", i.into())]).unwrap();
        }
        let out = e.run(100);
        assert_eq!(out.firings, 4);
        let p = e.take_profile().unwrap();
        let hot = p.hot_productions(10);
        assert_eq!(hot[0].1.name, "busy");
        assert_eq!(hot[0].1.firings, 4);
        assert!(hot[0].1.match_units > 0);
        // `quiet` never fired and its chain never activated.
        let quiet = p.productions.iter().find(|q| q.name == "quiet").unwrap();
        assert_eq!(quiet.firings, 0);
        // Alpha heat is labelled by class.
        let hot_alpha = p.hot_alpha_mems(10);
        assert!(!hot_alpha.is_empty());
        assert!(hot_alpha.iter().any(|(_, a)| a.label.starts_with('a')
            || a.label.starts_with('b')
            || a.label.starts_with("done")));
    }

    #[test]
    fn shared_compiled_engines_are_independent() {
        let program = Arc::new(
            Program::parse(
                "(literalize a x)
                 (literalize b x)
                 (p copy (a ^x <x>) --> (make b ^x <x>) (remove 1))",
            )
            .unwrap(),
        );
        let compiled = Engine::compile(&program).unwrap();
        for config in [ReteConfig::shared(), ReteConfig::unshared()] {
            // Two engines on one network, their moves interleaved, and for
            // each the engine a network of its own gives.
            let network = Arc::new(Network::build(&compiled, &program, config));
            let on =
                |network| Engine::with_network(Arc::clone(&program), compiled.clone(), network);
            let alone =
                || Engine::with_compiled_config(Arc::clone(&program), compiled.clone(), config);
            let (mut e1, mut e2) = (on(Arc::clone(&network)), on(Arc::clone(&network)));
            assert_eq!(Arc::strong_count(&network), 3, "one network, three owners");
            let (mut a1, mut a2) = (alone(), alone());
            for e in [&mut e1, &mut e2, &mut a1, &mut a2] {
                e.enable_cycle_log();
            }
            for x in [1, 3] {
                for (e, x) in [
                    (&mut e1, x),
                    (&mut e2, x + 1),
                    (&mut a1, x),
                    (&mut a2, x + 1),
                ] {
                    e.make_wme("a", &[("x", x.into())]).unwrap();
                }
                assert_eq!(e1.step().unwrap(), Some(0));
                assert_eq!(a1.step().unwrap(), Some(0));
            }
            assert_eq!(e2.run(10).firings, 2);
            assert_eq!(a2.run(10).firings, 2);
            let values =
                |e: &Engine| -> Vec<Value> { e.wm().iter().map(|(_, w)| w.get(0)).collect() };
            assert_eq!(values(&e1), [Value::Int(1), Value::Int(3)]);
            assert_eq!(
                values(&e2),
                [Value::Int(4), Value::Int(2)],
                "LEX: the later first"
            );
            for (on_shared, alone) in [(&e1, &a1), (&e2, &a2)] {
                assert_eq!(on_shared.work(), alone.work());
                assert_eq!(on_shared.net_stats(), alone.net_stats());
                assert_eq!(on_shared.cycle_log(), alone.cycle_log());
                assert_eq!(on_shared.snapshot(), alone.snapshot());
            }
            drop((e1, e2));
            assert_eq!(
                Arc::strong_count(&network),
                1,
                "an engine takes none of it along"
            );
        }
    }
}
