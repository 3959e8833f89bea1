//! Task-engine reuse ≡ a fresh engine per task.
//!
//! `run_lcc_unit` and `tp.run(&LccTask { .. }, watch)` run on a
//! `TaskProcess`'s kept engine, rolled back between units to the mark its phase's base — the
//! `control` element and, at Levels 4 and 3, the constraint records — was
//! loaded under, or reset and loaded with it again where there is no mark
//! to return to. The reference here builds a new engine for
//! each unit from the public pieces (`lcc_engine` → control element →
//! `load_unit_wm` → `Engine::run` → `harvest_lcc_unit`), and any sequence
//! of units — any levels, any order, anyone watching along the way,
//! alternating between inputs so the kept engine is also re-wired (another
//! scene) or replaced (another network) — must
//! give the same `LccUnitResult`s: consistents, supports, work, firings,
//! RHS actions and the whole cycle log. So must RTF batches, LCC units, FA
//! and MODEL tasks interleaved on one process, against each task on a
//! process of its own. And so must whatever follows a task that left the
//! process without a mark: one that panicked mid-run (the engine went with
//! it), one a fault plan killed mid-cycle (likewise), one that removed a
//! base element (the mark is broken).

use ops5::Value;
use proptest::prelude::*;
use spam::fa::{FaResult, FaTask};
use spam::fragments::FragmentHypothesis;
use spam::lcc::{
    decompose, harvest_lcc_unit, lcc_engine, load_unit_wm, run_lcc, run_lcc_unit, ConsistentRec,
    LccTask, LccUnit, LccUnitResult, Level, RegionIndex,
};
use spam::model::{ModelResult, ModelTask};
use spam::rtf::{rtf_task_batches, RtfResult, RtfTask};
use spam::rules::SpamProgram;
use spam::scene::Scene;
use spam::task::{Task, TaskList, TaskProcess, Wiring};
use spam::watch::Watch;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One (program, scene, fragments) triple a kept engine is keyed on.
struct Inputs {
    sp: SpamProgram,
    scene: Arc<Scene>,
    frags: Arc<Vec<FragmentHypothesis>>,
}

struct Fixture {
    /// `[0]` DC on the shared network; `[1]` the same `compiled` chains and
    /// scene under `ReteConfig::unshared()` (only the config differs, and
    /// so does the match work); `[2]` MOFF.
    inputs: [Inputs; 3],
    /// Per input, the Level 4, 3, 2 and 1 queues.
    units: [[Vec<LccUnit>; 4]; 3],
    /// Fresh-engine results by `(input, level, unit)`, computed on first use.
    fresh: Mutex<HashMap<(usize, usize, usize), LccUnitResult>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let sp = SpamProgram::build();
        let load = |sp: &SpamProgram, d: spam::datasets::Dataset| {
            let scene = Arc::new(spam::generate_scene(&d.spec));
            let frags = Arc::new(spam::rtf::run_rtf(sp, &scene).fragments);
            (scene, frags)
        };
        let (dc, dc_frags) = load(&sp, spam::datasets::dc());
        let (moff, moff_frags) = load(&sp, spam::datasets::moff());
        let inputs = [
            Inputs {
                sp: sp.clone(),
                scene: Arc::clone(&dc),
                frags: Arc::clone(&dc_frags),
            },
            Inputs {
                sp: sp.clone().with_config(ops5::ReteConfig::unshared()),
                scene: dc,
                frags: dc_frags,
            },
            Inputs {
                sp,
                scene: moff,
                frags: moff_frags,
            },
        ];
        let units = [0, 1, 2].map(|i| {
            [Level::L4, Level::L3, Level::L2, Level::L1]
                .map(|l| decompose(&inputs[i].scene, &inputs[i].frags, l))
        });
        Fixture {
            inputs,
            units,
            fresh: Mutex::new(HashMap::new()),
        }
    })
}

/// The reference: one unit on an engine built for it and dropped after.
fn fresh_unit(i: &Inputs, unit: &LccUnit) -> LccUnitResult {
    let mut e = lcc_engine(&i.sp, &i.scene, &i.frags);
    e.enable_cycle_log();
    e.make_wme(
        "control",
        &[
            ("phase", Value::symbol("lcc")),
            ("status", Value::symbol("running")),
        ],
    )
    .expect("control");
    load_unit_wm(&mut e, &i.scene, &i.frags, unit);
    let out = e.run(1_000_000);
    assert!(out.quiescent(), "{out:?}");
    harvest_lcc_unit(&mut e, out.firings)
}

fn fresh(input: usize, level: usize, unit: usize) -> LccUnitResult {
    let f = fixture();
    let mut cache = f.fresh.lock().unwrap();
    cache
        .entry((input, level, unit))
        .or_insert_with(|| fresh_unit(&f.inputs[input], &f.units[input][level][unit]))
        .clone()
}

/// How a unit of the sequence is run.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Plain,
    Live,
    Profiled,
}

/// `(input, level, unit pick, mode)`.
fn step() -> impl Strategy<Value = (usize, usize, usize, Mode)> {
    (0usize..6, 0usize..4, 0usize..100_000, 0usize..5).prop_map(|(input, level, pick, mode)| {
        (
            // Mostly the first input, so runs of units share one engine.
            input.saturating_sub(3),
            level,
            pick,
            [Mode::Plain, Mode::Live, Mode::Profiled][mode.saturating_sub(2)],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn any_unit_sequence_on_a_reused_engine_equals_fresh_engines(
        steps in prop::collection::vec(step(), 1..10),
    ) {
        let f = fixture();
        let live = tlp_obs::Live::new(0);
        let tp = &mut TaskProcess::default();
        for (n, &(input, level, pick, mode)) in steps.iter().enumerate() {
            let i = &f.inputs[input];
            let unit_idx = pick % f.units[input][level].len();
            let unit = &f.units[input][level][unit_idx];
            let index = &RegionIndex::new(&i.scene, &i.frags);
            let (sp, scene, fragments) = (&i.sp, &i.scene, &i.frags);
            let task = LccTask { sp, scene, fragments, index, unit };
            let mut watched = |w: Watch| tp.run(&task, w);
            let got = match mode {
                Mode::Plain => watched(Watch::default()).0,
                Mode::Live => watched(Watch::new(Some(&live))).0,
                Mode::Profiled => {
                    let (r, prof) = watched(Watch::default().with_profile());
                    let prof = prof.expect("profiling was enabled");
                    // The profile is this unit's alone, not the engine's
                    // lifetime: its totals are the unit's totals.
                    prop_assert_eq!(prof.cycles, r.firings);
                    prop_assert_eq!(prof.work, r.work);
                    r
                }
            };
            prop_assert_eq!(
                &got, &fresh(input, level, unit_idx),
                "step {} ({:?} on input {}): {:?}", n, mode, input, unit
            );
        }
    }
}

/// A whole phase on one engine: `run_lcc` keeps one task process's engine
/// across its loop, and its per-unit results are the fresh ones at every
/// level (Level 4's class tasks leave the most behind to reset).
#[test]
fn run_lcc_units_equal_fresh_engines_at_every_level() {
    let f = fixture();
    let i = &f.inputs[0];
    for level in [Level::L4, Level::L3, Level::L2] {
        let phase = run_lcc(&i.sp, &i.scene, &i.frags, level);
        let units = decompose(&i.scene, &i.frags, level);
        assert_eq!(phase.units.len(), units.len());
        for (got, unit) in phase.units.iter().zip(&units) {
            assert_eq!(got, &fresh_unit(i, unit), "{level:?} {unit:?}");
        }
    }
}

/// What the phases after LCC run on, per input, and every non-LCC task of
/// the pipeline on a task process of its own.
struct Downstream {
    /// The Level-3 phase's fragments (support accumulated) and records.
    supported: Arc<Vec<FragmentHypothesis>>,
    consistents: Vec<ConsistentRec>,
    /// Region batches of seven, and each on a fresh engine.
    batches: Vec<Vec<u32>>,
    rtf: Vec<RtfResult>,
    fa: FaResult,
    model: ModelResult,
}

fn downstream() -> &'static [Downstream; 3] {
    static DOWNSTREAM: OnceLock<[Downstream; 3]> = OnceLock::new();
    DOWNSTREAM.get_or_init(|| {
        [0, 1, 2].map(|input| {
            let i = &fixture().inputs[input];
            let own = TaskProcess::default;
            let lcc = run_lcc(&i.sp, &i.scene, &i.frags, Level::L3);
            let supported = Arc::new(lcc.fragments);
            let batches = rtf_task_batches(&i.scene, 7);
            let (sp, scene, fragments) = (&i.sp, &i.scene, &supported);
            let rtf = (batches.iter())
                .map(|regions| {
                    own()
                        .run(&RtfTask { sp, scene, regions }, Watch::default())
                        .0
                })
                .collect();
            let (sp, scene, fragments) = (sp.clone(), Arc::clone(scene), Arc::clone(fragments));
            let consistents = lcc.consistents.clone();
            let fa = FaTask {
                sp,
                scene,
                fragments,
                consistents,
            };
            let fa = own().run(&fa, Watch::default()).0;
            let (sp, scene, fragments) =
                (i.sp.clone(), Arc::clone(&i.scene), Arc::clone(&supported));
            let (areas, members) = (fa.areas.clone(), fa.members.clone());
            let model = ModelTask {
                sp,
                scene,
                fragments,
                areas,
                members,
            };
            let model = own().run(&model, Watch::default()).0;
            Downstream {
                supported,
                consistents: lcc.consistents,
                batches,
                rtf,
                fa,
                model,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One task process through the whole pipeline's task kinds in any
    /// order, which is what a thread's process sees: RTF batches share an
    /// engine (the process-wide empty fragment table), an LCC unit re-wires
    /// it (other table, other id base — its id counters rebound), FA
    /// re-wires that and MODEL after FA on the same input finds FA's; a
    /// change of scene re-wires whatever is kept, and a change of network
    /// (input 1 is DC unshared) builds another engine.
    #[test]
    fn any_task_sequence_on_one_process_equals_a_process_per_task(
        steps in prop::collection::vec((0usize..6, 0usize..6, 0usize..100_000), 1..14),
    ) {
        let f = fixture();
        let tp = &mut TaskProcess::default();
        for (n, &(input, kind, pick)) in steps.iter().enumerate() {
            let input = input.saturating_sub(3);
            let (i, d) = (&f.inputs[input], &downstream()[input]);
            let (sp, scene, fragments) = (&i.sp, &i.scene, &d.supported);
            let at = format!("step {n} (kind {kind} on input {input})");
            match kind {
                0 | 1 => {
                    let b = pick % d.batches.len();
                    let regions = &d.batches[b];
                    let got = tp.run(&RtfTask { sp, scene, regions }, Watch::default()).0;
                    prop_assert_eq!(&got, &d.rtf[b], "{}: batch {}", at, b);
                }
                2 | 3 => {
                    let level = pick % 4;
                    let u = (pick / 4) % f.units[input][level].len();
                    let unit = &f.units[input][level][u];
                    let got = run_lcc_unit(tp, &i.sp, &i.scene, &i.frags, unit);
                    prop_assert_eq!(&got, &fresh(input, level, u), "{}: {:?}", at, unit);
                }
                4 => {
                    let (sp, scene, fragments) = (sp.clone(), Arc::clone(scene), Arc::clone(fragments));
                    let consistents = d.consistents.clone();
                    let got = tp.run(&FaTask { sp, scene, fragments, consistents }, Watch::default()).0;
                    prop_assert_eq!(&got, &d.fa, "{}", at);
                }
                _ => {
                    let (sp, scene, fragments) = (sp.clone(), Arc::clone(scene), Arc::clone(fragments));
                    let (areas, members) = (d.fa.areas.clone(), d.fa.members.clone());
                    let model = ModelTask { sp, scene, fragments, areas, members };
                    let got = tp.run(&model, Watch::default()).0;
                    prop_assert_eq!(&got, &d.model, "{}", at);
                }
            }
        }
    }
}

/// DC's first few Level-3 units and a Level-2 one: enough for a process to
/// load a base, lose it, and load it again.
fn some_units() -> (&'static Inputs, Vec<(usize, usize)>) {
    (
        &fixture().inputs[0],
        vec![(1, 0), (1, 1), (2, 0), (1, 2), (0, 0)],
    )
}

#[test]
fn the_unit_after_one_that_panicked_mid_run_loads_its_base_again() {
    let (i, picks) = some_units();
    // A pair whose partner sits on a region the scene does not have: loading
    // it never looks the region up, the external does, mid-run.
    let pairs = &fixture().units[0][3];
    let LccUnit::Pair { other: bad, .. } = pairs[0] else {
        panic!("Level 1 decomposes into pairs");
    };
    let mut damaged = i.frags.as_ref().clone();
    damaged[bad as usize].region = u32::MAX;
    let damaged = Inputs {
        sp: i.sp.clone(),
        scene: Arc::clone(&i.scene),
        frags: Arc::new(damaged),
    };
    let units: Vec<&LccUnit> = (picks.iter())
        .map(|&(level, u)| &fixture().units[0][level][u])
        .filter(|u| !matches!(u, LccUnit::Object(f) | LccUnit::ObjectConstraint(f, _) if *f == bad))
        .collect();
    let tp = &mut TaskProcess::default();
    let run = |tp: &mut TaskProcess, unit| {
        run_lcc_unit(tp, &damaged.sp, &damaged.scene, &damaged.frags, unit)
    };
    for &unit in &units {
        assert_eq!(
            run(tp, unit),
            fresh_unit(&damaged, unit),
            "before: {unit:?}"
        );
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(tp, &pairs[0])));
        assert!(crashed.is_err(), "the external indexes a missing region");
        assert_eq!(run(tp, unit), fresh_unit(&damaged, unit), "after: {unit:?}");
    }
}

#[test]
fn the_unit_after_a_killed_one_loads_its_base_again() {
    let (i, picks) = some_units();
    for i in [i, &fixture().inputs[1]] {
        let plan = spam::lcc::LccPlan::new(&i.sp, &i.scene, &i.frags, Level::L3);
        let tp = &mut TaskProcess::default();
        for &(level, u) in &picks {
            // Unit 3 of Level 3, killed at cycle 2 on the marked engine…
            let task = plan.task(3);
            let killed = Watch::default().with_kill_at(Some(2));
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                tp.run(&task, killed);
            }));
            assert!(run.is_err(), "the unit fires past cycle 2");
            // … run again from scratch…
            let (r, _) = tp.run(&task, Watch::default());
            assert_eq!(r, fresh_unit(i, &plan.units[3]), "cycle log included");
            // … and whatever comes next is served from its base.
            let unit = &fixture().units[0][level][u];
            let got = run_lcc_unit(tp, &i.sp, &i.scene, &i.frags, unit);
            assert_eq!(got, fresh_unit(i, unit), "{unit:?}");
        }
    }
}

/// An LCC unit that removes the first constraint record — a base element —
/// when its own working memory is in.
struct Vandal<'a>(spam::lcc::LccTask<'a>);

impl Task for Vandal<'_> {
    type Output = LccUnitResult;
    fn wiring(&self) -> Wiring<'_> {
        self.0.wiring()
    }
    fn phase(&self) -> ops5::Symbol {
        self.0.phase()
    }
    fn base_variant(&self) -> u8 {
        self.0.base_variant()
    }
    fn base(&self, e: &mut ops5::Engine) {
        self.0.base(e);
    }
    fn load(&self, e: &mut ops5::Engine) {
        self.0.load(e);
        e.remove_wme_id(ops5::WmeId(1));
    }
    fn harvest(&self, e: &mut ops5::Engine, log: Vec<ops5::CycleStats>) -> LccUnitResult {
        self.0.harvest(e, log)
    }
}

#[test]
fn the_unit_after_one_that_removed_a_base_element_loads_its_base_again() {
    let (i, picks) = some_units();
    for i in [i, &fixture().inputs[1]] {
        let plan = spam::lcc::LccPlan::new(&i.sp, &i.scene, &i.frags, Level::L3);
        let vandal = |u| Vandal(plan.task(u));
        let alone = TaskProcess::default().run(&vandal(5), Watch::default()).0;
        assert_ne!(
            alone,
            fresh_unit(i, &plan.units[5]),
            "constraint 0 mattered"
        );
        let tp = &mut TaskProcess::default();
        for &(level, u) in &picks {
            // On the marked engine the vandal is what it is on its own…
            assert_eq!(tp.run(&vandal(5), Watch::default()).0, alone);
            // … and the next unit has all 56 constraints again.
            let unit = &fixture().units[0][level][u];
            let got = run_lcc_unit(tp, &i.sp, &i.scene, &i.frags, unit);
            assert_eq!(got, fresh_unit(i, unit), "{unit:?}");
        }
    }
}
