//! Tasks, phases and the task process (DESIGN §21). The paper has one
//! mechanism for every phase (§5.1): a control process queues the phase's
//! tasks and task processes — each "a complete OPS5 system" — draw them. A
//! phase is a [`TaskList`]; [`drain`] runs it on one [`TaskProcess`],
//! `core::tlp::run_phase` on a pool of them. A task process is its
//! thread's: [`TaskProcess::with_thread`] lends the calling thread's, which
//! keeps its engine from phase to phase, scene to scene and round to round,
//! as the paper's task processes each keep "a complete OPS5 system". A task
//! is a [`Task`] — what to wire, which phase, a *base*, a *load* and a
//! *harvest* — and [`TaskProcess::run`] takes every task through the same
//! steps:
//!
//! 1. **wire** — [`TaskProcess::begin`] takes the kept engine out: as it is
//!    if it was wired for this very [`Wiring`]; *re-wired* — reset, its
//!    externals [`register`]ed again over the new scene, fragment table and
//!    id base — if it runs on the same network; else it instantiates the
//!    program's network ([`SpamProgram::engine`]) and registers the
//!    externals on that;
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
//! 5. and **publishes** the engine's work, once;
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
use std::cell::Cell;
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
    /// The work a completed task reports to the phase's latency objective;
    /// `None`: the phase feeds none.
    fn observed<'r>(&self, _result: &'r Self::Output) -> Option<&'r WorkCounters> {
        None
    }
}

/// A sequential phase: `tp` runs `list`'s tasks in queue order, yielding
/// each result — with its profile if `profile` — as it finishes. The
/// product's sequential runners drain on their thread's process
/// ([`TaskProcess::with_thread`]).
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
/// pointer comparisons in [`Kept::serves`] and [`TaskProcess::take`] sound.
struct Kept {
    network: Arc<ops5::Network>,
    ctx: ExternalCtx,
    engine: Engine,
    /// The `(phase, base variant)` whose base the engine holds under a
    /// mark, if any.
    based: Option<(Symbol, u8)>,
}

impl ExternalCtx {
    fn of(w: &Wiring<'_>) -> ExternalCtx {
        ExternalCtx {
            scene: Arc::clone(w.scene),
            fragments: Arc::clone(w.fragments),
            id_base: w.id_base,
        }
    }
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
    /// Engines built so far: the *wire* steps that found no engine on the
    /// task's network.
    #[cfg(test)]
    pub(crate) engines_built: u32,
    /// Engines re-wired so far: the *wire* steps that found one on the
    /// task's network, wired for other inputs.
    #[cfg(test)]
    pub(crate) rewires: u32,
    /// Bases loaded so far: the tasks that found no mark to roll back to.
    #[cfg(test)]
    pub(crate) bases_loaded: u32,
}

thread_local! {
    /// This thread's task process, while no call has it out.
    static MINE: Cell<TaskProcess> = Cell::default();
}

impl TaskProcess {
    /// Runs `f` on the calling thread's task process — the one every phase
    /// runner and pool worker on this thread shares, so its engine outlives
    /// the call. The process is taken out of the thread for the call and
    /// put back after it: a nested call on the same thread is lent an empty
    /// process (and what it keeps is replaced by the outer call's), and a
    /// call that unwinds drops the process, engine and all, so the thread's
    /// next task wires a new one — as a retry must (module docs).
    pub fn with_thread<R>(f: impl FnOnce(&mut TaskProcess) -> R) -> R {
        let mut tp = MINE.take();
        let out = f(&mut tp);
        MINE.set(tp);
        out
    }

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

    /// The kept engine if it serves `w`; re-wired for `w` if it runs on
    /// `w`'s network; else a new one.
    fn take(&mut self, w: &Wiring<'_>) -> Kept {
        match self.kept.take() {
            Some(kept) if kept.serves(w) => kept,
            Some(kept) if Arc::ptr_eq(&kept.network, &w.sp.network) => self.rewire(kept, w),
            _ => self.wire(w),
        }
    }

    /// A new engine, its externals registered.
    fn wire(&mut self, w: &Wiring<'_>) -> Kept {
        #[cfg(test)]
        (self.engines_built += 1);
        let mut kept = Kept {
            network: Arc::clone(&w.sp.network),
            ctx: ExternalCtx::of(w),
            engine: w.sp.engine(),
            based: None,
        };
        register(&mut kept.engine, kept.ctx.clone());
        kept
    }

    /// `kept`, reset — which drops its mark and the base under it — and its
    /// externals registered again for `w`: the engine a new one wired for
    /// `w` would be, with the capacity its memories grew. Its spare lists go
    /// ([`Engine::release_spares`]), so a thread's engine retains what its
    /// current tasks grow, not what every task it ever ran did.
    fn rewire(&mut self, mut kept: Kept, w: &Wiring<'_>) -> Kept {
        #[cfg(test)]
        (self.rewires += 1);
        kept.engine.reset();
        kept.engine.release_spares();
        kept.ctx = ExternalCtx::of(w);
        kept.based = None;
        register(&mut kept.engine, kept.ctx.clone());
        kept
    }

    /// Whether the process keeps an engine right now.
    pub fn keeps_an_engine(&self) -> bool {
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
    pub fn run<K: Task>(mut self, task: &K, watch: Watch) -> (K::Output, Option<MatchProfile>) {
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
    use crate::lcc::{run_lcc, run_lcc_unit, LccPlan, LccUnit, Level};
    use crate::model::ModelTask;
    use crate::rtf::{run_rtf, RtfTask};
    use ops5::ReteConfig;

    /// An RTF task over `regions` on `tp`.
    fn rtf(tp: &mut TaskProcess, sp: &SpamProgram, scene: &Arc<Scene>, regions: &[u32]) {
        tp.run(&RtfTask { sp, scene, regions }, Watch::default());
    }

    /// What *wire* compares, seen from outside: one process through a
    /// scene's pipeline builds an engine where the network changes, re-wires
    /// the one it keeps where another input does, and does neither where
    /// nothing does.
    #[test]
    fn a_process_builds_an_engine_only_when_the_network_changes() {
        let sp = SpamProgram::build();
        let scene = |d: crate::Dataset| Arc::new(crate::generate_scene(&d.spec));
        let (dc, moff) = (scene(crate::dc()), scene(crate::moff()));
        let frags = Arc::new(run_rtf(&sp, &dc).fragments);
        let lcc = run_lcc(&sp, &dc, &frags, Level::L4);
        let supported = Arc::new(lcc.fragments);

        let tp = &mut TaskProcess::default();
        let counts = |tp: &TaskProcess| (tp.engines_built, tp.rewires);
        rtf(tp, &sp, &dc, &[0, 1]);
        rtf(tp, &sp, &dc, &[2, 3]);
        assert_eq!(counts(tp), (1, 0), "RTF batches share an engine");
        rtf(tp, &sp, &moff, &[0, 1]);
        assert_eq!(counts(tp), (1, 1), "another scene");
        for f in 0..3 {
            run_lcc_unit(tp, &sp, &dc, &frags, &LccUnit::Object(f));
        }
        assert_eq!(counts(tp), (1, 2), "LCC units share RTF's, re-wired");
        let unshared = sp.clone().with_config(ReteConfig::unshared());
        run_lcc_unit(tp, &unshared, &dc, &frags, &LccUnit::Object(0));
        assert_eq!(counts(tp), (2, 2), "another network");
        let fa = FaTask {
            sp: sp.clone(),
            scene: Arc::clone(&dc),
            fragments: Arc::clone(&supported),
            consistents: lcc.consistents,
        };
        let fa = tp.run(&fa, Watch::default()).0;
        assert_eq!(counts(tp), (3, 2), "back on the shared network");
        let model = ModelTask {
            sp: sp.clone(),
            scene: Arc::clone(&dc),
            fragments: Arc::clone(&supported),
            areas: fa.areas,
            members: fa.members,
        };
        tp.run(&model, Watch::default());
        assert_eq!(counts(tp), (3, 2), "MODEL runs on FA's engine");
        run_lcc_unit(tp, &sp, &dc, &frags, &LccUnit::Object(0));
        assert_eq!(counts(tp), (3, 3), "another fragment table");
        // The same table under another id base is another wiring.
        let idle = Idle(Wiring {
            sp: &sp,
            scene: &dc,
            fragments: &supported,
            id_base: 7,
        });
        tp.begin(&idle, false).finish();
        assert_eq!(counts(tp), (3, 4));
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
                    (tp.engines_built, tp.rewires, tp.bases_loaded),
                    (1, 1, 14),
                    "RTF: per task, on LCC's engine re-wired"
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

    /// What one network per program and one process per thread save,
    /// counted so they cannot grow back: sequential SF+DC+MOFF rounds at
    /// every LCC level — `run_rtf` / `run_lcc` / `run_fa` / `run_model`, on
    /// a fresh thread's process — build one engine and no network (the
    /// program built its one), and re-wire the engine at each change of
    /// wiring: RTF → LCC → FA (MODEL shares FA's) per scene, 3 × 3 a round,
    /// less the first one, which builds.
    #[test]
    fn a_whole_interpretation_runs_on_the_one_network_its_program_built() {
        std::thread::spawn(|| {
            let start = networks_built();
            let sp = SpamProgram::build();
            assert_eq!(networks_built() - start, 1);
            let scenes = [crate::sf(), crate::dc(), crate::moff()]
                .map(|d| Arc::new(crate::generate_scene(&d.spec)));
            let counts = || TaskProcess::with_thread(|tp| (tp.engines_built, tp.rewires));
            for (round, level) in [Level::L4, Level::L3, Level::L2, Level::L1]
                .into_iter()
                .enumerate()
            {
                for scene in &scenes {
                    let frags = Arc::new(run_rtf(&sp, scene).fragments);
                    let lcc = run_lcc(&sp, scene, &frags, level);
                    let supported = Arc::new(lcc.fragments);
                    let fa = crate::fa::run_fa(&sp, scene, &supported, &lcc.consistents);
                    crate::model::run_model(&sp, scene, &supported, &fa.areas, &fa.members);
                }
                let rewires = 9 * (round as u32 + 1) - 1;
                assert_eq!(counts(), (1, rewires), "{}", level.name());
            }
            assert_eq!(networks_built() - start, 1, "1 engine, 1 network");
            // The other network is built when a program is moved to it,
            // once.
            let unshared = sp.clone().with_config(ReteConfig::unshared());
            assert_eq!(networks_built() - start, 2);
            let tp = &mut TaskProcess::default();
            rtf(tp, &unshared, &scenes[1], &[0, 1]);
            rtf(tp, &sp, &scenes[1], &[0, 1]);
            assert_eq!((tp.engines_built, networks_built() - start), (2, 2));
        })
        .join()
        .unwrap();
    }

    /// The pipeline runs on the program it is given, so on one program a
    /// thread's second `run_pipeline_scene` finds its engine, and the two
    /// calls build one network (the program's) and one engine between them.
    #[test]
    fn pipeline_calls_on_one_program_build_one_network_and_one_engine() {
        std::thread::spawn(|| {
            let start = networks_built();
            let sp = SpamProgram::build();
            let scene = Arc::new(crate::generate_scene(&crate::dc().spec));
            let first = crate::run_pipeline_scene(&sp, Arc::clone(&scene));
            let second = crate::run_pipeline_scene(&sp, scene);
            assert_eq!(networks_built() - start, 1);
            assert_eq!(TaskProcess::with_thread(|tp| tp.engines_built), 1);
            assert_eq!(first.stats, second.stats);
        })
        .join()
        .unwrap();
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
