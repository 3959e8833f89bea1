//! Tasks, phases and the task process (DESIGN §21). The paper has one
//! mechanism for every phase (§5.1): a control process queues the phase's
//! tasks and task processes — each "a complete OPS5 system" — draw them. A
//! phase is a [`TaskList`]; [`drain`] runs it on one [`TaskProcess`],
//! `core::tlp::run_phase` on a pool of them. A task is a [`Task`] — what to
//! wire, which phase, a *base*, a *load* and a *harvest* — and
//! [`TaskProcess::run`] takes every task through the same steps:
//!
//! 1. **wire** — [`TaskProcess::begin`] takes the kept engine out if it was
//!    made for this very [`Wiring`], else instantiates the program's network
//!    ([`SpamProgram::engine`]) and [`register`]s its externals;
//! 2. **watch** — the cycle log (and profiler, if the [`Watch`] asks) goes on;
//! 3. **base | load** — working-memory distribution (§5.1). The *base* (the
//!    `control` element of [`Task::phase`], then [`Task::base`]) is loaded
//!    once per process under an [engine mark](ops5::Engine::mark) that later
//!    tasks of the same phase and [`Task::base_variant`] roll back to; a
//!    declined or broken mark, or a wanted profile, resets and loads it
//!    again. [`Task::load`] adds the task's own part. Either way the engine
//!    is the one a new engine that loaded base and task would be;
//! 4. **drive** — the watch drives the engine to quiescence ([`crate::watch`]:
//!    the one loop), or to the cycle a fault plan kills it at,
//! 5. and **publishes** what its cadence had not yet;
//! 6. **harvest** — [`Task::harvest`] reads the results out;
//! 7. **put back** — [`Attempt::finish`] returns the engine to the process.
//!
//! Steps 1–3's base are [`TaskProcess::begin`], the rest [`Attempt::run`].
//! Between *wire* and *put back* the engine belongs to the [`Attempt`]: a
//! task that panics — killed mid-run, say — drops its half-run engine with
//! it, and its retry wires a new one and starts from step 1. A task's
//! working memory is its input, so a retry from scratch is the task.

use crate::externals::{register, ExternalCtx};
use crate::fragments::FragmentHypothesis;
use crate::rules::{enter_phase, SpamProgram};
use crate::scene::Scene;
use crate::watch::Watch;
use ops5::{CycleStats, Engine, MatchProfile, Symbol, WorkCounters};
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

/// One task, described to the lifecycle; which engine runs it and who
/// watches are the caller's and the process's business.
pub trait Task {
    /// What the task computes.
    type Output;
    /// What its engine is wired with.
    fn wiring(&self) -> Wiring<'_>;
    /// The phase its rules run in (`rtf`, `lcc`, `fa`, `model`).
    fn phase(&self) -> Symbol;
    /// Which of its phase's bases the task starts from (LCC: with the
    /// constraint records at Levels 4 and 3, without at Levels 2 and 1).
    fn base_variant(&self) -> u8 {
        0
    }
    /// Step 3, the shared part, loaded after `control` by every task that
    /// agrees with this one on wiring, phase and
    /// [`base_variant`](Task::base_variant): it may depend on nothing else.
    fn base(&self, _e: &mut Engine) {}
    /// Step 3, the task's own part, on top of the base.
    fn load(&self, e: &mut Engine);
    /// Step 6: the result, out of the quiescent engine; `cycle_log` is the
    /// task's whole cycle log.
    fn harvest(&self, e: &mut Engine, cycle_log: Vec<CycleStats>) -> Self::Output;
}

/// A phase: its tasks in queue order. It owns its inputs — a pool's
/// resident task processes share it and cannot borrow — and lends them to
/// each task.
pub trait TaskList {
    /// What each task computes.
    type Output;
    /// A task, borrowing the list's inputs.
    type Task<'a>: Task<Output = Self::Output>
    where
        Self: 'a;
    /// How many tasks the phase has.
    fn len(&self) -> usize;
    /// Whether it has none.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Task `i`'s name in supervision reports.
    fn label(&self, i: usize) -> String;
    /// Task `i`'s a-priori size for a pool's chunker, in working-memory
    /// elements it loads; only the ratios matter (default: all alike).
    fn estimate(&self, _i: usize) -> u64 {
        1
    }
    /// Task `i`.
    fn task(&self, i: usize) -> Self::Task<'_>;
    /// The work a completed task reports to the phase's latency objective
    /// and trace service table; `None`: the phase feeds neither.
    fn observed<'r>(&self, _result: &'r Self::Output) -> Option<&'r WorkCounters> {
        None
    }
}

/// A sequential phase: `tp` runs `list`'s tasks in queue order, yielding
/// each result — with its profile if `profile` — as it finishes. Callers
/// drop the process with the phase (kept, its engine only pins heap).
pub fn drain<'a, L: TaskList>(
    tp: &'a mut TaskProcess,
    list: &'a L,
    profile: bool,
) -> impl Iterator<Item = (L::Output, Option<MatchProfile>)> + 'a {
    (0..list.len()).map(move |i| {
        let mut watch = Watch::default();
        watch.profile = profile;
        tp.run(&list.task(i), watch)
    })
}

/// An engine with the inputs it was wired for; holding the `Arc`s keeps the
/// pointer comparison in [`Kept::serves`] sound.
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
    /// Engines built so far: the *wire* steps that missed.
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
        self.begin(task, watch.profile).run(task, watch)
    }

    /// Steps 1, 2 and the base: an engine wired as `task` says, logging its
    /// cycles (profiling, if `profile`), holding `task`'s base — rolled back
    /// to, or loaded.
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
        Attempt { home: self, kept }
    }

    /// The kept engine if it serves `w`, else a new one.
    fn take(&mut self, w: &Wiring<'_>) -> Kept {
        match self.kept.take() {
            Some(kept) if kept.serves(w) => kept,
            _ => self.wire(w),
        }
    }

    /// A new engine, its externals registered.
    fn wire(&mut self, w: &Wiring<'_>) -> Kept {
        let mut engine = w.sp.engine();
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
}

impl Attempt<'_> {
    /// The task's engine.
    pub fn engine(&mut self) -> &mut Engine {
        &mut self.kept.engine
    }

    /// The rest of `task`'s lifecycle on this attempt, `watch` looking on.
    /// Returns the result and the profile if one was asked for.
    pub fn run<K: Task>(mut self, task: &K, mut watch: Watch) -> (K::Output, Option<MatchProfile>) {
        let e = &mut self.kept.engine;
        task.load(e);
        let out = watch.drive(e);
        debug_assert!(out.quiescent(), "a task must reach quiescence: {out:?}");
        let cycle_log = e.take_cycle_log();
        let result = task.harvest(e, cycle_log);
        (result, self.finish())
    }

    /// Step 7: the engine goes back to its process. Returns the task's
    /// profile, if one was taken.
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
    use crate::fa::FaTask;
    use crate::lcc::{merge_lcc_units, run_lcc, run_lcc_unit, LccPlan, LccUnit, Level};
    use crate::model::ModelTask;
    use crate::rtf::{run_rtf, RtfPhase, RtfTask};
    use ops5::ReteConfig;

    /// An RTF task over `regions` on `tp`.
    fn rtf(tp: &mut TaskProcess, sp: &SpamProgram, scene: &Arc<Scene>, regions: &[u32]) {
        tp.run(&RtfTask { sp, scene, regions }, Watch::default());
    }

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
        rtf(tp, &sp, &dc, &[0, 1]);
        rtf(tp, &sp, &dc, &[2, 3]);
        assert_eq!(tp.engines_built, 1, "RTF batches share an engine");
        rtf(tp, &sp, &moff, &[0, 1]);
        assert_eq!(tp.engines_built, 2, "another scene");
        for f in 0..3 {
            run_lcc_unit(tp, &sp, &dc, &frags, &LccUnit::Object(f));
        }
        assert_eq!(tp.engines_built, 3, "LCC units share one, not RTF's");
        let unshared = sp.clone().with_config(ReteConfig::unshared());
        run_lcc_unit(tp, &unshared, &dc, &frags, &LccUnit::Object(0));
        assert_eq!(tp.engines_built, 4, "another network");
        let fa = FaTask {
            sp: sp.clone(),
            scene: Arc::clone(&dc),
            fragments: Arc::clone(&supported),
            consistents: lcc.consistents,
        };
        let fa = tp.run(&fa, Watch::default()).0;
        assert_eq!(tp.engines_built, 5, "another fragment table");
        let model = ModelTask {
            sp: sp.clone(),
            scene: Arc::clone(&dc),
            fragments: Arc::clone(&supported),
            areas: fa.areas,
            members: fa.members,
        };
        tp.run(&model, Watch::default());
        assert_eq!(tp.engines_built, 5, "MODEL runs on FA's engine");
        // The same table under another id base is another wiring.
        let idle = Idle(Wiring {
            sp: &sp,
            scene: &dc,
            fragments: &supported,
            id_base: 7,
        });
        tp.begin(&idle, false).finish();
        assert_eq!(tp.engines_built, 6);
        assert!(tp.keeps_an_engine());
    }

    /// A task that loads nothing, on the wiring it is given.
    struct Idle<'a>(Wiring<'a>);

    impl Task for Idle<'_> {
        type Output = ();
        fn wiring(&self) -> Wiring<'_> {
            Wiring { ..self.0 }
        }
        fn phase(&self) -> Symbol {
            ops5::sym("fa")
        }
        fn load(&self, _: &mut Engine) {}
        fn harvest(&self, _: &mut Engine, _: Vec<CycleStats>) {}
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
            let plan = |level| LccPlan::new(&sp, &scene, &frags, level);
            let units = drain(tp, &plan(Level::L3), false).count();
            assert_eq!(
                (tp.engines_built, tp.bases_loaded),
                (1, 1),
                "{}",
                d.spec.name
            );
            bases += tp.bases_loaded;
            tasks += units;
            if d.spec.name == "DC" {
                // Another level's tasks start from another base — once.
                drain(tp, &plan(Level::L2), false).count();
                drain(tp, &plan(Level::L1), false).count();
                assert_eq!((tp.engines_built, tp.bases_loaded), (1, 2));
                // A profile covers the base's match work: no mark serves it.
                let profiled = drain(tp, &plan(Level::L4), true).count();
                assert_eq!(tp.bases_loaded, 2 + profiled as u32);
                rtf(tp, &sp, &scene, &[0, 1]);
                rtf(tp, &sp, &scene, &[2, 3]);
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
                // Each phase as its list, drained on a process of its own.
                let (sp_, scene_) = (|| sp.clone(), || Arc::clone(scene));
                let [mut rtf, mut lcc, mut fa, mut model]: [TaskProcess; 4] = Default::default();
                let batches = vec![(0..scene.len() as u32).collect()];
                let whole = RtfPhase {
                    sp: sp_(),
                    scene: scene_(),
                    batches,
                };
                let (r, _) = drain(&mut rtf, &whole, false).next().unwrap();
                let frags = Arc::new(r.fragments);
                let plan = LccPlan::new(&sp, scene, &frags, level);
                let units = drain(&mut lcc, &plan, false);
                let phase =
                    merge_lcc_units(level, &frags, units.map(|(r, _)| Some(r)), <_>::default());
                let areas = FaTask {
                    sp: sp_(),
                    scene: scene_(),
                    fragments: Arc::new(phase.fragments),
                    consistents: phase.consistents,
                };
                let (r, _) = drain(&mut fa, &areas, false).next().unwrap();
                let selection = ModelTask {
                    sp: sp_(),
                    scene: scene_(),
                    fragments: areas.fragments,
                    areas: r.areas,
                    members: r.members,
                };
                drain(&mut model, &selection, false).count();
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
        rtf(tp, &unshared, &scenes[1], &[0, 1]);
        rtf(tp, &sp, &scenes[1], &[0, 1]);
        assert_eq!((tp.engines_built, networks_built() - start), (2, 2));
    }

    /// A kill drops the attempt's engine with it: the process keeps none,
    /// the retry wires one more, and returns the uninterrupted task's
    /// result whole, cycle log included — on either network.
    #[test]
    fn a_killed_attempt_takes_its_engine_and_the_retry_builds_another() {
        let dc = Arc::new(crate::generate_scene(&crate::dc().spec));
        let shared = SpamProgram::build();
        let frags = Arc::new(run_rtf(&shared, &dc).fragments);
        for sp in [shared.clone().with_config(ReteConfig::unshared()), shared] {
            let plan = LccPlan::new(&sp, &dc, &frags, Level::L3);
            let want: Vec<_> = drain(&mut TaskProcess::default(), &plan, false)
                .map(|(r, _)| r)
                .take(4)
                .collect();
            let tp = &mut TaskProcess::default();
            tp.run(&plan.task(0), Watch::default());
            for (i, want) in want.iter().enumerate() {
                let (task, built) = (plan.task(i), tp.engines_built);
                let watch = Watch::default().with_kill_at(Some(want.firings));
                let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    tp.run(&task, watch);
                }));
                assert!(killed.is_err(), "unit {i} is killed at its last cycle");
                assert!(!tp.keeps_an_engine(), "the engine went with the attempt");
                let (got, _) = tp.run(&task, Watch::default());
                assert_eq!(tp.engines_built, built + 1, "the retry wires one more");
                assert_eq!(&got, want, "unit {i}");
            }
        }
    }
}
