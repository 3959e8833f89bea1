//! The task process as a value. The paper's task process is "a complete
//! OPS5 system" that draws tasks from the queue (§5.1); a [`TaskProcess`]
//! is that system's engine, owned by whoever runs the tasks — a phase loop
//! on its own stack, a pool worker for the length of a phase — and every
//! RTF, LCC, FA and MODEL task takes the same seven steps on it:
//!
//! 1. **wire** — [`TaskProcess::begin`] takes the kept engine out and
//!    [`ops5::Engine::reset`]s it if it was built for these very inputs,
//!    else builds one ([`SpamProgram::engine_for`]);
//! 2. **watch** — the cycle log (and the profiler, if the [`Watch`] asks)
//!    is switched on, and the `control` element puts the rule base in the
//!    task's phase; the watch itself stays outside the engine;
//! 3. **load** — the caller fills [`Attempt::engine`]'s working memory;
//! 4. **drive** — [`Attempt::drive`] to quiescence, which also
//! 5. **publishes** what the watch's cadence had not yet;
//! 6. **harvest** — the caller reads the results out of the engine;
//! 7. **put back** — [`Attempt::finish`] returns the engine to the process.
//!
//! Between *wire* and *put back* the engine belongs to the [`Attempt`], so
//! a task that panics — tasks run under `catch_unwind` with injected
//! faults — drops its half-run engine with its attempt and the process is
//! left empty; the next task builds a new one. A process that goes out of
//! scope drops its engine. There is no state a failed task can leave behind
//! for the next, nothing to poison and nothing to release by hand.

use crate::fragments::FragmentHypothesis;
use crate::rules::{enter_phase, SpamProgram};
use crate::scene::Scene;
use crate::watch::Watch;
use ops5::{Engine, MatchProfile, ReteConfig, RunOutcome, Symbol};
use std::sync::Arc;

/// An engine with the inputs it was wired for. Holding the `Arc`s (not
/// bare addresses) is what makes the pointer comparison in [`Kept::serves`]
/// sound: an address cannot be reused for other inputs while the old ones
/// are still owned here.
struct Kept {
    compiled: Arc<Vec<ops5::rete::compile::CompiledProduction>>,
    config: ReteConfig,
    scene: Arc<Scene>,
    fragments: Arc<Vec<FragmentHypothesis>>,
    id_base: i64,
    engine: Engine,
}

impl Kept {
    fn serves(
        &self,
        sp: &SpamProgram,
        scene: &Arc<Scene>,
        fragments: &Arc<Vec<FragmentHypothesis>>,
        id_base: i64,
    ) -> bool {
        Arc::ptr_eq(&self.compiled, &sp.compiled)
            && self.config == sp.config
            && Arc::ptr_eq(&self.scene, scene)
            && Arc::ptr_eq(&self.fragments, fragments)
            && self.id_base == id_base
    }
}

/// One task process: the engine it keeps between tasks, if any.
#[derive(Default)]
pub struct TaskProcess {
    kept: Option<Kept>,
    /// Engines built so far: the *wire* steps that missed.
    #[cfg(test)]
    pub(crate) engines_built: u32,
}

impl TaskProcess {
    /// Steps 1–2: an engine in its just-built state, wired to these inputs
    /// and allocating ids from `id_base`, logging its cycles, in `phase`.
    pub fn begin<'p>(
        &'p mut self,
        sp: &SpamProgram,
        scene: &Arc<Scene>,
        fragments: &Arc<Vec<FragmentHypothesis>>,
        id_base: i64,
        phase: Symbol,
        watch: Watch,
    ) -> Attempt<'p> {
        let mut kept = match self.kept.take() {
            Some(mut kept) if kept.serves(sp, scene, fragments, id_base) => {
                kept.engine.reset();
                kept
            }
            _ => {
                #[cfg(test)]
                (self.engines_built += 1);
                Kept {
                    compiled: Arc::clone(&sp.compiled),
                    config: sp.config,
                    scene: Arc::clone(scene),
                    fragments: Arc::clone(fragments),
                    id_base,
                    engine: sp.engine_for(scene, fragments, id_base),
                }
            }
        };
        let e = &mut kept.engine;
        e.enable_cycle_log();
        if watch.profile {
            e.enable_profile();
        }
        enter_phase(e, phase);
        Attempt {
            home: self,
            kept,
            watch,
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
    watch: Watch,
}

impl Attempt<'_> {
    /// The task's engine, for the caller's *load* and *harvest*.
    pub fn engine(&mut self) -> &mut Engine {
        &mut self.kept.engine
    }

    /// Steps 4–5: runs the engine to quiescence under the attempt's watch.
    pub fn drive(&mut self) -> RunOutcome {
        let out = self.watch.drive(&mut self.kept.engine);
        debug_assert!(out.quiescent(), "a task must reach quiescence: {out:?}");
        out
    }

    /// Step 7: the engine goes back to its process. Returns the task's
    /// profile if the watch asked for one (`None` otherwise: `reset`
    /// detached the last task's).
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
    use crate::lcc::{run_lcc, run_lcc_unit, LccUnit, Level};
    use crate::model::run_model_task;
    use crate::rtf::{run_rtf, run_rtf_task};

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
        let phase = ops5::static_sym!("lcc");
        tp.begin(&sp, &dc, &supported, 7, phase, Watch::default())
            .finish();
        assert_eq!(tp.engines_built, 6);
        assert!(tp.keeps_an_engine());
    }
}
