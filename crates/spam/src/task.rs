//! The task process as a value. The paper's task process is "a complete
//! OPS5 system" that draws tasks from the queue (§5.1); a [`TaskProcess`]
//! is that system's engine, owned by whoever runs the tasks — a phase loop
//! on its own stack, a pool worker for the length of a phase — and every
//! RTF, LCC, FA and MODEL task is a [`Task`] — what to wire, which phase,
//! a *base*, a *load* and a *harvest* — that [`TaskProcess::run`] takes
//! through the same seven steps:
//!
//! 1. **wire** — [`TaskProcess::begin`] takes the kept engine out if it was
//!    made for this very [`Wiring`], else makes one: an instance of the
//!    program's network ([`SpamProgram::engine`]) + [`register`] — no
//!    network is built here, by any path;
//! 2. **watch** — the cycle log (and the profiler, if the [`Watch`] asks)
//!    is switched on; the watch itself stays outside the engine;
//! 3. **base | load** — working-memory distribution (§5.1), in two parts.
//!    The *base* is what every task of the phase starts from: the `control`
//!    element that puts the rule base in [`Task::phase`], then
//!    [`Task::base`] (LCC's constraint records, RTF's prototypes). It is
//!    loaded once per process, not once per task: the engine is
//!    [marked](ops5::Engine::mark) when it is in, and a later task of the
//!    same phase and [`Task::base_variant`] *rolls back* to the mark
//!    ([`ops5::Engine::rollback`]) where it would have reset and loaded it
//!    again. The process falls back to reset + base when the engine
//!    declines the mark (RTF's `control` alone satisfies `rtf-done`) or a
//!    task broke it by removing a base element (RTF modifies `control`),
//!    and whenever a profile is wanted — a profile covers the base's match
//!    work too. Then [`Task::load`] adds the task's own part. Either way
//!    the engine is the one a new engine that loaded base and task itself
//!    would be;
//! 4. **drive** — the watch drives the engine to quiescence
//!    ([`crate::watch`]: the one loop), handing control to a
//!    [`DrivePolicy`] where it asks (`()` never does), and
//! 5. **publishes** what its cadence had not yet;
//! 6. **harvest** — [`Task::harvest`] reads the results out of the engine;
//! 7. **put back** — [`Attempt::finish`] returns the engine to the process.
//!
//! Steps 1, 2 and the base are [`TaskProcess::begin`], the load and steps
//! 4–7 [`Attempt::run`]; neither is written anywhere else.
//!
//! A task that died mid-run and left a snapshot behind re-enters at step 1
//! through [`TaskProcess::resume`] — the engine is restored, not reset — or,
//! with only its write-ahead log left, through [`TaskProcess::begin_empty`];
//! either skips step 3 ([`Attempt::run`] with `loaded`) and from there is an
//! attempt like any other, its engine kept for the next task (which finds
//! no mark on it, and loads its base).
//!
//! Between *wire* and *put back* the engine belongs to the [`Attempt`], so
//! a task that panics — tasks run under `catch_unwind` with injected
//! faults — drops its half-run engine with its attempt and the process is
//! left empty; the next task builds a new one. A process that goes out of
//! scope drops its engine. There is no state a failed task can leave behind
//! for the next, nothing to poison and nothing to release by hand.

use crate::externals::{register, ExternalCtx};
use crate::fragments::FragmentHypothesis;
use crate::rules::{enter_phase, SpamProgram};
use crate::scene::Scene;
use crate::watch::{DrivePolicy, Watch};
use ops5::{CycleStats, Engine, MatchProfile, Symbol};
use std::sync::Arc;

/// What a task's engine is wired with: the program, the scene and fragment
/// table its externals read, and where its id allocators start.
pub struct Wiring<'a> {
    /// The compiled rule base.
    pub sp: &'a SpamProgram,
    /// The scene.
    pub scene: &'a Arc<Scene>,
    /// The fragment table (RTF's is empty: it makes the fragments).
    pub fragments: &'a Arc<Vec<FragmentHypothesis>>,
    /// See [`ExternalCtx::id_base`].
    pub id_base: i64,
}

/// One task, described to the lifecycle: everything else about running it —
/// which engine, who watches, what interrupts, whether it starts over or
/// resumes — is the caller's and the process's.
pub trait Task {
    /// What the task computes.
    type Output;
    /// What its engine is wired with.
    fn wiring(&self) -> Wiring<'_>;
    /// The phase its rules run in (`rtf`, `lcc`, `fa`, `model`).
    fn phase(&self) -> Symbol;
    /// Which of its phase's bases the task starts from, for a phase with
    /// more than one (LCC: with the constraint records at Levels 4 and 3,
    /// without at Levels 2 and 1).
    fn base_variant(&self) -> u8 {
        0
    }
    /// Step 3, the shared part: what every task that agrees with this one
    /// on wiring, phase and [`base_variant`](Task::base_variant) loads
    /// first, into an engine holding only the `control` element. It must
    /// depend on nothing else about the task: the process loads it once and
    /// serves all of them from it.
    fn base(&self, _e: &mut Engine) {}
    /// Step 3, the task's own part: fills the working memory of an engine
    /// holding the base.
    fn load(&self, e: &mut Engine);
    /// Step 6: reads the result out of the quiescent engine. `cycle_log` is
    /// the task's whole log, the cycles of a dead attempt it resumed from
    /// included.
    fn harvest(&self, e: &mut Engine, cycle_log: Vec<CycleStats>) -> Self::Output;
}

/// An engine with the inputs it was wired for. Holding the `Arc`s (not
/// bare addresses) is what makes the pointer comparison in [`Kept::serves`]
/// sound: an address cannot be reused for other inputs while the old ones
/// are still owned here.
struct Kept {
    network: Arc<ops5::Network>,
    ctx: ExternalCtx,
    engine: Engine,
    /// The `(phase, base variant)` whose base the engine holds under a
    /// mark, if any.
    based: Option<(Symbol, u8)>,
}

impl Kept {
    fn serves(&self, w: &Wiring<'_>) -> bool {
        Arc::ptr_eq(&self.network, &w.sp.network)
            && Arc::ptr_eq(&self.ctx.scene, w.scene)
            && Arc::ptr_eq(&self.ctx.fragments, w.fragments)
            && self.ctx.id_base == w.id_base
    }
}

/// One task process: the engine it keeps between tasks, if any.
#[derive(Default)]
pub struct TaskProcess {
    kept: Option<Kept>,
    /// Engines built so far: the *wire* steps that missed, and the resumes.
    #[cfg(test)]
    pub(crate) engines_built: u32,
    /// Bases loaded so far: the tasks that found no mark to roll back to.
    #[cfg(test)]
    pub(crate) bases_loaded: u32,
}

impl TaskProcess {
    /// The lifecycle, whole: `task` from *wire* to *put back* under `watch`.
    /// Returns the task's profile too if the watch asked for one.
    pub fn run<K: Task>(&mut self, task: &K, watch: Watch) -> (K::Output, Option<MatchProfile>) {
        let attempt = self.begin(task, watch.profile);
        let (result, _, profile) = attempt.run(task, watch, false, &mut ());
        (result, profile)
    }

    /// Steps 1, 2 and the first half of 3: an engine wired as `task` says,
    /// logging its cycles (and profiling, if `profile`), in the state of a
    /// just-built one that loaded `task`'s base — by rolling back to the
    /// mark the last task of the kind left, or else by loading it.
    pub fn begin<K: Task>(&mut self, task: &K, profile: bool) -> Attempt<'_> {
        let w = task.wiring();
        let mut kept = self.take(&w);
        let key = (task.phase(), task.base_variant());
        let e = &mut kept.engine;
        if profile || kept.based != Some(key) || !e.rollback() {
            e.reset();
            e.enable_cycle_log();
            if profile {
                e.enable_profile();
            }
            enter_phase(e, key.0);
            task.base(e);
            kept.based = e.mark().then_some(key);
            #[cfg(test)]
            (self.bases_loaded += 1);
        }
        self.attempt(kept, Vec::new())
    }

    /// Steps 1 and 2 for an attempt whose working memory comes from a log:
    /// an engine in its just-built state, wired as `w` says and logging its
    /// cycles; its working memory is empty.
    pub fn begin_empty(&mut self, w: &Wiring<'_>) -> Attempt<'_> {
        let mut kept = self.take(w);
        kept.engine.reset();
        kept.based = None;
        kept.engine.enable_cycle_log();
        self.attempt(kept, Vec::new())
    }

    /// Step 1 for a task that died mid-run: an engine restored from the
    /// `snapshot` the dead attempt took, holding the working memory,
    /// conflict set and counters of that cycle (external functions are
    /// code, not state: they are registered again, as `w` says). `logged` is
    /// the cycle log up to it, which the snapshot does not carry. Fails on a
    /// damaged snapshot; the process is then as it was.
    pub fn resume(
        &mut self,
        w: &Wiring<'_>,
        snapshot: &[u8],
        logged: Vec<CycleStats>,
    ) -> ops5::Result<Attempt<'_>> {
        let (program, compiled) = (Arc::clone(&w.sp.program), Arc::clone(&w.sp.compiled));
        let network = Arc::clone(&w.sp.network);
        let mut engine = Engine::restore_with_network(program, compiled, network, snapshot)?;
        engine.enable_cycle_log();
        let kept = self.wire(w, engine);
        Ok(self.attempt(kept, logged))
    }

    /// The kept engine if it serves `w`, else a new one.
    fn take(&mut self, w: &Wiring<'_>) -> Kept {
        match self.kept.take() {
            Some(kept) if kept.serves(w) => kept,
            _ => self.wire(w, w.sp.engine()),
        }
    }

    /// A new engine — empty, or restored — gets its externals.
    fn wire(&mut self, w: &Wiring<'_>, mut engine: Engine) -> Kept {
        #[cfg(test)]
        (self.engines_built += 1);
        let ctx = ExternalCtx {
            scene: Arc::clone(w.scene),
            fragments: Arc::clone(w.fragments),
            id_base: w.id_base,
        };
        register(&mut engine, ctx.clone());
        Kept {
            network: Arc::clone(&w.sp.network),
            ctx,
            engine,
            based: None,
        }
    }

    fn attempt(&mut self, kept: Kept, logged: Vec<CycleStats>) -> Attempt<'_> {
        Attempt {
            home: self,
            kept,
            logged,
        }
    }

    /// Whether the process keeps an engine right now.
    #[cfg(test)]
    pub(crate) fn keeps_an_engine(&self) -> bool {
        self.kept.is_some()
    }
}

/// One task on a [`TaskProcess`]'s engine, from *wire* to *put back*.
/// Dropped before [`Attempt::finish`] — an unwinding task, or a runner that
/// does not want the engine kept — it takes the engine with it.
pub struct Attempt<'p> {
    home: &'p mut TaskProcess,
    kept: Kept,
    /// The cycles a dead attempt logged before the snapshot this one was
    /// resumed from; empty for an attempt begun from nothing.
    logged: Vec<CycleStats>,
}

impl Attempt<'_> {
    /// The task's engine.
    pub fn engine(&mut self) -> &mut Engine {
        &mut self.kept.engine
    }

    /// Steps 3–7 of `task`'s lifecycle on this attempt, `watch` looking on.
    /// `loaded` says the engine already holds the task's working memory —
    /// restored with it ([`TaskProcess::resume`]) or filled from a log
    /// ([`TaskProcess::begin_empty`]) — and skips the load. `policy` gets
    /// control between cycles where it asks to (`&mut ()`: nowhere).
    /// Returns the result, the cycles this attempt fired, and the profile if
    /// [`TaskProcess::begin`] was asked for one.
    pub fn run<K: Task>(
        mut self,
        task: &K,
        mut watch: Watch,
        loaded: bool,
        policy: &mut impl DrivePolicy,
    ) -> (K::Output, u64, Option<MatchProfile>) {
        let e = &mut self.kept.engine;
        if !loaded {
            task.load(e);
        }
        let out = watch.drive(e, policy);
        debug_assert!(out.quiescent(), "a task must reach quiescence: {out:?}");
        let mut cycle_log = std::mem::take(&mut self.logged);
        if cycle_log.is_empty() {
            cycle_log = e.take_cycle_log();
        } else {
            cycle_log.extend(e.take_cycle_log());
        }
        let result = task.harvest(e, cycle_log);
        (result, out.firings, self.finish())
    }

    /// Step 7: the engine goes back to its process. Returns the task's
    /// profile if one was taken (`None` otherwise: `reset` detached the last
    /// task's).
    pub fn finish(mut self) -> Option<MatchProfile> {
        let profile = self.kept.engine.take_profile();
        self.home.kept = Some(self.kept);
        profile
    }
}

// Task runners execute attempts under `std::panic::catch_unwind`; that is
// only sound because an engine is built from shared *immutable* state and,
// when kept, is out of its process for as long as the attempt runs. Keep
// these types unwind-safe.
const _: () = {
    const fn assert_ref_unwind_safe<T: std::panic::RefUnwindSafe>() {}
    assert_ref_unwind_safe::<SpamProgram>();
    assert_ref_unwind_safe::<Scene>();
    assert_ref_unwind_safe::<FragmentHypothesis>();
    assert_ref_unwind_safe::<crate::lcc::LccUnit>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fa::run_fa_task;
    use crate::lcc::{run_lcc, run_lcc_unit, LccTask, LccUnit, Level};
    use crate::model::run_model_task;
    use crate::rtf::{run_rtf, run_rtf_task};
    use ops5::ReteConfig;

    /// What *wire* compares, seen from outside: one process through a
    /// scene's pipeline builds an engine where the inputs change and
    /// nowhere else.
    #[test]
    fn a_process_builds_an_engine_only_when_its_inputs_change() {
        let sp = SpamProgram::build();
        let scene = |d: crate::Dataset| Arc::new(crate::generate_scene(&d.spec));
        let (dc, moff) = (scene(crate::dc()), scene(crate::moff()));
        let frags = Arc::new(run_rtf(&sp, &dc).fragments);
        let lcc = run_lcc(&sp, &dc, &frags, Level::L4);
        let supported = Arc::new(lcc.fragments);

        let tp = &mut TaskProcess::default();
        run_rtf_task(tp, &sp, &dc, &[0, 1]);
        run_rtf_task(tp, &sp, &dc, &[2, 3]);
        assert_eq!(tp.engines_built, 1, "RTF batches share an engine");
        run_rtf_task(tp, &sp, &moff, &[0, 1]);
        assert_eq!(tp.engines_built, 2, "another scene");
        for f in 0..3 {
            run_lcc_unit(tp, &sp, &dc, &frags, &LccUnit::Object(f));
        }
        assert_eq!(tp.engines_built, 3, "LCC units share one, not RTF's");
        let unshared = sp.clone().with_config(ReteConfig::unshared());
        run_lcc_unit(tp, &unshared, &dc, &frags, &LccUnit::Object(0));
        assert_eq!(tp.engines_built, 4, "another network");
        let fa = run_fa_task(tp, &sp, &dc, &supported, &lcc.consistents);
        assert_eq!(tp.engines_built, 5, "another fragment table");
        run_model_task(tp, &sp, &dc, &supported, &fa.areas, &fa.members);
        assert_eq!(tp.engines_built, 5, "MODEL runs on FA's engine");
        // The same table under another id base is another wiring.
        let wiring = Wiring {
            sp: &sp,
            scene: &dc,
            fragments: &supported,
            id_base: 7,
        };
        tp.begin_empty(&wiring).finish();
        assert_eq!(tp.engines_built, 6);
        assert!(tp.keeps_an_engine());
    }

    /// What *base* saves, counted: a sequential Level-3 pass over the three
    /// airports loads `control` + the 56 constraint records once per scene —
    /// 3 bases, 168 constraint elements made where 630 tasks used to make
    /// 35 280 — and every other task rolls back to the mark. A phase whose
    /// `control` alone satisfies a rule (RTF: `rtf-done`) cannot be marked
    /// and loads its base per task, as before.
    #[test]
    fn a_base_is_loaded_once_per_engine_where_the_engine_can_mark_it() {
        let sp = SpamProgram::build();
        let (mut bases, mut tasks) = (0, 0);
        for d in [crate::sf(), crate::dc(), crate::moff()] {
            let scene = Arc::new(crate::generate_scene(&d.spec));
            let frags = Arc::new(run_rtf(&sp, &scene).fragments);
            let tp = &mut TaskProcess::default();
            let (phase, _) = crate::lcc::run_lcc_on(tp, &sp, &scene, &frags, Level::L3, false);
            assert_eq!(
                (tp.engines_built, tp.bases_loaded),
                (1, 1),
                "{}",
                d.spec.name
            );
            bases += tp.bases_loaded;
            tasks += phase.units.len();
            if d.spec.name == "DC" {
                // Another level's tasks start from another base — once.
                crate::lcc::run_lcc_on(tp, &sp, &scene, &frags, Level::L2, false);
                crate::lcc::run_lcc_on(tp, &sp, &scene, &frags, Level::L1, false);
                assert_eq!((tp.engines_built, tp.bases_loaded), (1, 2));
                // A profile covers the base's match work: no mark serves it.
                let (profiled, _) =
                    crate::lcc::run_lcc_on(tp, &sp, &scene, &frags, Level::L4, true);
                assert_eq!(tp.bases_loaded, 2 + profiled.units.len() as u32);
                run_rtf_task(tp, &sp, &scene, &[0, 1]);
                run_rtf_task(tp, &sp, &scene, &[2, 3]);
                assert_eq!(
                    (tp.engines_built, tp.bases_loaded),
                    (2, 14),
                    "RTF: per task"
                );
            }
        }
        assert_eq!((bases, tasks), (3, 630));
    }

    /// Networks built on this thread so far (`engines_built` and
    /// `bases_loaded` are a process's; a network is a program's).
    fn networks_built() -> u64 {
        ops5::Network::built_on_this_thread()
    }

    /// What one network per program saves, counted so it cannot grow back:
    /// a sequential SF+DC+MOFF interpretation — a task process per phase
    /// call, as `run_rtf` / `run_lcc` / `run_fa` / `run_model` make them —
    /// wires 12 engines at every LCC level and builds no network; the
    /// program built its one.
    #[test]
    fn a_whole_interpretation_runs_on_the_one_network_its_program_built() {
        let start = networks_built();
        let sp = SpamProgram::build();
        assert_eq!(networks_built() - start, 1);
        let scenes = [crate::sf(), crate::dc(), crate::moff()]
            .map(|d| Arc::new(crate::generate_scene(&d.spec)));
        for level in [Level::L4, Level::L3, Level::L2, Level::L1] {
            let mut engines = 0;
            for scene in &scenes {
                let regions: Vec<u32> = (0..scene.len() as u32).collect();
                let [mut rtf, mut lcc, mut fa, mut model]: [TaskProcess; 4] = Default::default();
                let frags = Arc::new(run_rtf_task(&mut rtf, &sp, scene, &regions).fragments);
                let (phase, _) = crate::lcc::run_lcc_on(&mut lcc, &sp, scene, &frags, level, false);
                let supported = Arc::new(phase.fragments);
                let areas = run_fa_task(&mut fa, &sp, scene, &supported, &phase.consistents);
                run_model_task(
                    &mut model,
                    &sp,
                    scene,
                    &supported,
                    &areas.areas,
                    &areas.members,
                );
                engines += [rtf, lcc, fa, model]
                    .iter()
                    .map(|tp| tp.engines_built)
                    .sum::<u32>();
            }
            assert_eq!(engines, 12, "{}", level.name());
        }
        assert_eq!(networks_built() - start, 1, "12 engines a round, 1 network");
        // The other network is built when a program is moved to it, once.
        let unshared = sp.clone().with_config(ReteConfig::unshared());
        assert_eq!(networks_built() - start, 2);
        let tp = &mut TaskProcess::default();
        run_rtf_task(tp, &unshared, &scenes[1], &[0, 1]);
        run_rtf_task(tp, &sp, &scenes[1], &[0, 1]);
        assert_eq!((tp.engines_built, networks_built() - start), (2, 2));
    }

    /// Takes a snapshot at cycle `at`, as a checkpoint would.
    struct SnapshotAt {
        at: u64,
        taken: Option<(Vec<u8>, Vec<CycleStats>)>,
    }

    impl DrivePolicy for SnapshotAt {
        fn due_in(&self, e: &Engine) -> u64 {
            match self.taken {
                None => self.at.saturating_sub(e.work().firings),
                Some(_) => u64::MAX,
            }
        }
        fn at(&mut self, e: &Engine) {
            self.taken = Some((e.snapshot(), e.cycle_log().to_vec()));
        }
    }

    /// Interrupted units put their engine back like any other, a resumed
    /// attempt builds the one engine it restores, returns the uninterrupted
    /// unit's result whole, and leaves behind an engine that, reset, is as
    /// good as a built one.
    #[test]
    fn a_resumed_attempt_is_an_ordinary_one_and_its_engine_serves_the_next_task() {
        let dc = Arc::new(crate::generate_scene(&crate::dc().spec));
        let shared = SpamProgram::build();
        let frags = Arc::new(run_rtf(&shared, &dc).fragments);
        for sp in [shared.clone().with_config(ReteConfig::unshared()), shared] {
            let units: Vec<LccUnit> = (0..4).map(LccUnit::Object).collect();
            let index = &crate::lcc::RegionIndex::new(&dc, &frags);
            let task = |unit| LccTask {
                sp: &sp,
                scene: &dc,
                fragments: &frags,
                index,
                unit,
            };
            let fresh = |unit| run_lcc_unit(&mut TaskProcess::default(), &sp, &dc, &frags, unit);

            let tp = &mut TaskProcess::default();
            let mut snapshots = Vec::new();
            for unit in &units {
                let mut policy = SnapshotAt { at: 2, taken: None };
                let (task, watch) = (task(unit), Watch::default());
                let (r, fired, _) = tp.begin(&task, false).run(&task, watch, false, &mut policy);
                assert_eq!((&r, fired), (&fresh(unit), r.firings));
                snapshots.push(policy.taken.expect("every unit fires past cycle 2"));
            }
            assert_eq!(
                tp.engines_built, 1,
                "a checkpointed unit puts its engine back"
            );

            let (snapshot, logged) = snapshots.swap_remove(1);
            let (task, watch) = (task(&units[1]), Watch::default());
            let resumed = tp.resume(&task.wiring(), &snapshot, logged).unwrap();
            let (r, fired, _) = resumed.run(&task, watch, true, &mut ());
            assert_eq!(r, fresh(&units[1]), "cycle log included");
            assert_eq!(fired, r.firings - 2, "only the cycles past the snapshot");
            assert_eq!(tp.engines_built, 2, "a restore is a construction");

            let next = run_lcc_unit(tp, &sp, &dc, &frags, &units[3]);
            assert_eq!(tp.engines_built, 2, "and the restored engine is kept");
            assert_eq!(
                next,
                fresh(&units[3]),
                "reset, it is as good as a built one"
            );
        }
    }
}
