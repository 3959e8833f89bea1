//! The LCC (local-consistency check) phase: constraint satisfaction over
//! fragment hypotheses, decomposed into the paper's task levels (Figure 4).
//!
//! * **Level 4** — one task applies all constraints to one *class* of
//!   objects;
//! * **Level 3** — one task applies all constraints to one object;
//! * **Level 2** — one task applies one constraint to one object;
//! * **Level 1** — one task checks one constraint *component* (one
//!   candidate pair).
//!
//! Every task is an independent OPS5 program whose working memory holds the
//! subject fragment(s), their spatial neighbourhood, the applicable
//! constraint records and the task element (working-memory distribution,
//! §5.1); results never cross task boundaries, so the tasks run
//! asynchronously. A unit is an [`LccTask`] on the lifecycle of
//! [`crate::task`] (*base* and *load*: [`load_unit_wm`]), the phase the
//! [`LccPlan`] the control process works out once.

use crate::constraints::{constraints_for, Constraint, Relation, CONSTRAINTS};
use crate::fragments::{FragmentHypothesis, FragmentKind, ALL_KINDS};
use crate::rules::{schema, SpamProgram};
use crate::scene::Scene;
use crate::task::{drain, Task, TaskList, TaskProcess, Wiring};
use crate::watch::Watch;
use ops5::{static_sym, CycleStats, MatchProfile, Value, WorkCounters};
use std::sync::{Arc, OnceLock};
use tlp_fault::TaskReport;

/// Candidate-search radius (metres): partners beyond this bounding-box
/// distance never enter a task's working memory. (The per-relation guard in
/// the external predicate is tighter still.)
pub const NEIGHBOURHOOD_RADIUS: f64 = 700.0;

/// The candidate radius for partners of kind `object` seen from a subject
/// of kind `subject`: the widest reach among the applicable constraints
/// ([`crate::externals::relation_radius`]), or `None` when no constraint
/// relates the two kinds (such partners never enter the task's working
/// memory).
///
/// Tabulated once per process: [`neighbourhood`] asks for every candidate
/// fragment of every subject, and the answer is a property of the
/// constraint table alone.
pub fn kind_radius(subject: FragmentKind, object: FragmentKind) -> Option<f64> {
    static RADII: OnceLock<[[Option<f64>; 16]; 16]> = OnceLock::new();
    // `ALL_KINDS` is in declaration (= discriminant) order.
    let radii = RADII.get_or_init(|| {
        ALL_KINDS.map(|s| {
            ALL_KINDS.map(|o| {
                constraints_for(s)
                    .filter(|c| c.object == o)
                    .map(crate::externals::relation_radius)
                    .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
            })
        })
    });
    radii[subject as usize][object as usize]
}

/// A decomposition level. Level 3 is the one the paper settles on for its
/// headline runs, and every tool's default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Level {
    /// All constraints × one class.
    L4,
    /// All constraints × one object.
    #[default]
    L3,
    /// One constraint × one object.
    L2,
    /// One constraint component (one candidate pair).
    L1,
}

impl Level {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Level::L4 => "Level 4",
            Level::L3 => "Level 3",
            Level::L2 => "Level 2",
            Level::L1 => "Level 1",
        }
    }
}

/// One independent LCC task.
#[derive(Clone, Debug)]
pub enum LccUnit {
    /// Level 4: every fragment of one kind.
    Class(FragmentKind),
    /// Level 3: one fragment.
    Object(u32),
    /// Level 2: one fragment × one constraint.
    ObjectConstraint(u32, u32),
    /// Level 1: one candidate pair under one constraint.
    Pair {
        /// Subject fragment.
        frag: u32,
        /// Constraint id.
        constraint: u32,
        /// Partner fragment.
        other: u32,
    },
}

impl LccUnit {
    /// Short human-readable task label, used in supervision reports.
    pub fn label(&self) -> String {
        match self {
            LccUnit::Class(kind) => format!("class {kind:?}"),
            LccUnit::Object(f) => format!("object {f}"),
            LccUnit::ObjectConstraint(f, c) => format!("object {f} constraint {c}"),
            LccUnit::Pair {
                frag,
                constraint,
                other,
            } => format!("pair {frag}-{other} constraint {constraint}"),
        }
    }
}

/// A successful constraint application.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConsistentRec {
    /// Subject fragment.
    pub a: u32,
    /// Partner fragment.
    pub b: u32,
    /// Relation that held.
    pub rel: Relation,
    /// Support weight.
    pub weight: i64,
}

/// Result of executing one LCC task.
#[derive(Clone, Debug, PartialEq)]
pub struct LccUnitResult {
    /// Consistency records produced.
    pub consistents: Vec<ConsistentRec>,
    /// `(fragment, support)` totals accumulated within the task.
    pub supports: Vec<(u32, i64)>,
    /// Work performed.
    pub work: WorkCounters,
    /// Productions fired.
    pub firings: u64,
    /// RHS actions executed.
    pub rhs_actions: u64,
    /// Per-cycle log.
    pub cycle_log: Vec<CycleStats>,
}

/// Result of a whole LCC phase run at one decomposition level.
#[derive(Clone, Debug, PartialEq)]
pub struct LccPhaseResult {
    /// The decomposition level used.
    pub level: Level,
    /// Fragments with accumulated support.
    pub fragments: Vec<FragmentHypothesis>,
    /// All consistency records.
    pub consistents: Vec<ConsistentRec>,
    /// Per-task results, in queue order.
    pub units: Vec<LccUnitResult>,
    /// Total work.
    pub work: WorkCounters,
    /// Total firings.
    pub firings: u64,
    /// Per-task supervision outcomes. The sequential runner marks every
    /// unit ok; the supervised parallel runner records retries, timeouts,
    /// and dead-lettered tasks here.
    pub report: TaskReport,
}

/// Fragment ids in the spatial neighbourhood of `f` (excluding `f`), in id
/// order: partners whose kind some constraint relates to `f.kind`
/// ([`kind_radius`] is `Some` — used as that test only) and whose region's
/// bounding box lies within [`NEIGHBOURHOOD_RADIUS`] of `f`'s, whatever the
/// relating constraints' own reach (the external predicates guard that; every
/// pinned count rests on the wider candidate set).
///
/// The definition, by a scan of the whole fragment table: the task path
/// derives the same list from the grid query's regions through a
/// [`RegionIndex`], and is held to this one.
pub fn neighbourhood(
    scene: &Scene,
    fragments: &[FragmentHypothesis],
    f: &FragmentHypothesis,
) -> Vec<u32> {
    let bb = scene.region(f.region).polygon.bbox();
    let near_regions = scene.neighbours(f.region, NEIGHBOURHOOD_RADIUS);
    fragments
        .iter()
        .filter(|g| {
            g.id != f.id && (g.region == f.region || near_regions.binary_search(&g.region).is_ok())
        })
        .filter(|g| {
            kind_radius(f.kind, g.kind).is_some()
                && scene.region(g.region).polygon.bbox().distance_to(&bb) <= NEIGHBOURHOOD_RADIUS
        })
        .map(|g| g.id)
        .collect()
}

/// Which fragments are hypothesised on which region, as one flat table
/// (compressed sparse rows): the fragment table is in id order, not region
/// order, and a task's neighbourhood is a handful of regions' worth of it.
/// Built in one pass over the fragments; a fragment on a region the scene
/// does not have is on no row.
#[derive(Clone, Debug)]
pub struct RegionIndex {
    /// Row `r` is `frags[starts[r]..starts[r + 1]]`, ids ascending.
    starts: Vec<u32>,
    frags: Vec<u32>,
}

impl RegionIndex {
    /// Indexes `fragments` over `scene`'s regions.
    pub fn new(scene: &Scene, fragments: &[FragmentHypothesis]) -> RegionIndex {
        let n = scene.len();
        let on_scene = |f: &&FragmentHypothesis| (f.region as usize) < n;
        let mut starts = vec![0u32; n + 1];
        for f in fragments.iter().filter(on_scene) {
            starts[f.region as usize + 1] += 1;
        }
        for r in 0..n {
            starts[r + 1] += starts[r];
        }
        let mut next = starts.clone();
        let mut frags = vec![0u32; starts[n] as usize];
        for f in fragments.iter().filter(on_scene) {
            let at = &mut next[f.region as usize];
            frags[*at as usize] = f.id;
            *at += 1;
        }
        RegionIndex { starts, frags }
    }

    /// The fragments hypothesised on `region`, ids ascending.
    fn on(&self, region: u32) -> &[u32] {
        let r = region as usize;
        &self.frags[self.starts[r] as usize..self.starts[r + 1] as usize]
    }

    /// [`neighbourhood`]`(scene, fragments, f)` for the fragment table this
    /// index was built from, at the cost of the partners found instead of a
    /// scan of the table.
    pub fn neighbourhood(
        &self,
        scene: &Scene,
        fragments: &[FragmentHypothesis],
        f: &FragmentHypothesis,
    ) -> Vec<u32> {
        let bb = scene.region(f.region).polygon.bbox();
        let mut out = Vec::new();
        let partner =
            |g: &&u32| **g != f.id && kind_radius(f.kind, fragments[**g as usize].kind).is_some();
        let mut take = |region: u32| out.extend(self.on(region).iter().filter(partner));
        take(f.region);
        for r in scene.neighbours(f.region, NEIGHBOURHOOD_RADIUS) {
            if scene.region(r).polygon.bbox().distance_to(&bb) <= NEIGHBOURHOOD_RADIUS {
                take(r);
            }
        }
        out.sort_unstable();
        out
    }
}

/// The LCC phase as a [`TaskList`]: what the control process works out once
/// and shares with the task processes (§5.1: it "precomputes" each task's
/// partition) — the task queue and the [`RegionIndex`] every task derives
/// its spatial window from — over the inputs it owns.
pub struct LccPlan {
    /// The task queue, in order: [`decompose`]'s list.
    pub units: Vec<LccUnit>,
    index: RegionIndex,
    sp: SpamProgram,
    scene: Arc<Scene>,
    fragments: Arc<Vec<FragmentHypothesis>>,
}

impl LccPlan {
    /// Plans the phase at `level` over `fragments`.
    pub fn new(
        sp: &SpamProgram,
        scene: &Arc<Scene>,
        fragments: &Arc<Vec<FragmentHypothesis>>,
        level: Level,
    ) -> LccPlan {
        LccPlan {
            units: decompose(scene, fragments, level),
            index: RegionIndex::new(scene, fragments),
            sp: sp.clone(),
            scene: Arc::clone(scene),
            fragments: Arc::clone(fragments),
        }
    }
}

impl TaskList for LccPlan {
    type Output = LccUnitResult;
    type Task<'a> = LccTask<'a>;

    fn len(&self) -> usize {
        self.units.len()
    }

    fn label(&self, i: usize) -> String {
        self.units[i].label()
    }

    /// A class unit matches every fragment of its kind (the level-4 "big
    /// task"); finer levels shrink toward a single candidate pair.
    fn estimate(&self, i: usize) -> u64 {
        match &self.units[i] {
            LccUnit::Class(k) => self.fragments.iter().filter(|f| f.kind == *k).count() as u64 + 1,
            LccUnit::Object(_) => 4,
            LccUnit::ObjectConstraint(..) => 2,
            LccUnit::Pair { .. } => 1,
        }
    }

    fn task(&self, i: usize) -> LccTask<'_> {
        LccTask {
            sp: &self.sp,
            scene: &self.scene,
            fragments: &self.fragments,
            index: &self.index,
            unit: &self.units[i],
        }
    }

    /// A unit's work is its simulated latency and match fraction.
    fn observed<'r>(&self, r: &'r LccUnitResult) -> Option<&'r WorkCounters> {
        Some(&r.work)
    }
}

/// Decomposes the phase into tasks at `level` (the task queue, in order).
pub fn decompose(scene: &Scene, fragments: &[FragmentHypothesis], level: Level) -> Vec<LccUnit> {
    match level {
        Level::L4 => ALL_KINDS
            .iter()
            .filter(|k| fragments.iter().any(|f| f.kind == **k))
            .map(|&k| LccUnit::Class(k))
            .collect(),
        Level::L3 => fragments.iter().map(|f| LccUnit::Object(f.id)).collect(),
        Level::L2 => fragments
            .iter()
            .flat_map(|f| {
                constraints_for(f.kind).map(move |c| LccUnit::ObjectConstraint(f.id, c.id))
            })
            .collect(),
        Level::L1 => {
            let (index, mut out) = (RegionIndex::new(scene, fragments), Vec::new());
            for f in fragments {
                let nbh = index.neighbourhood(scene, fragments, f);
                for c in constraints_for(f.kind) {
                    for &g in &nbh {
                        if fragments[g as usize].kind == c.object {
                            out.push(LccUnit::Pair {
                                frag: f.id,
                                constraint: c.id,
                                other: g,
                            });
                        }
                    }
                }
            }
            out
        }
    }
}

fn constraint_fields(c: &Constraint) -> [Value; 6] {
    [
        Value::Int(c.id as i64),
        c.subject.value(),
        c.object.value(),
        Value::Sym(c.relation.symbol()),
        Value::Float(c.param),
        Value::Int(c.weight),
    ]
}

/// A `fragment` element's fields for `f` with `support` — zero when a task
/// is to accumulate it (LCC), the accumulated total downstream (FA).
pub(crate) fn fragment_fields(f: &FragmentHypothesis, support: i64) -> [Value; 6] {
    [
        Value::Int(f.id as i64),
        Value::Int(f.region as i64),
        f.kind.value(),
        Value::Float(f.confidence),
        Value::Int(support),
        Value::Sym(static_sym!("hypothesised")),
    ]
}

/// Loads one task's working memory into an engine that holds `control`
/// ([`crate::rules::enter_phase`]): the constraint records its level
/// applies, then its own partition — subject fragment(s), their spatial
/// neighbourhoods, the task element. [`LccTask`]'s *base* and *load* in one
/// call, for a caller with an engine of its own.
pub fn load_unit_wm(
    e: &mut ops5::Engine,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    unit: &LccUnit,
) {
    load_base(e, unit);
    load_partition(
        e,
        scene,
        fragments,
        &RegionIndex::new(scene, fragments),
        unit,
    );
}

/// Whether `unit` applies every constraint (Levels 4 and 3) — its base then
/// holds the whole table — or names the one it applies (Levels 2 and 1).
fn applies_every_constraint(unit: &LccUnit) -> bool {
    matches!(unit, LccUnit::Class(_) | LccUnit::Object(_))
}

/// The part of a task's working memory that is the same for every task of
/// its level: at Levels 4 and 3 the constraint table, else nothing.
fn load_base(e: &mut ops5::Engine, unit: &LccUnit) {
    if applies_every_constraint(unit) {
        for c in CONSTRAINTS {
            schema().constraint.make(e, constraint_fields(c));
        }
    }
}

/// The part of a task's working memory that is its own, on top of
/// [`load_base`]'s; `index` is of `fragments` over `scene`.
fn load_partition(
    e: &mut ops5::Engine,
    scene: &Scene,
    fragments: &[FragmentHypothesis],
    index: &RegionIndex,
    unit: &LccUnit,
) {
    // Subjects of this task.
    let subjects: Vec<u32> = match unit {
        LccUnit::Class(k) => fragments
            .iter()
            .filter(|f| f.kind == *k)
            .map(|f| f.id)
            .collect(),
        LccUnit::Object(f) => vec![*f],
        LccUnit::ObjectConstraint(f, _) => vec![*f],
        LccUnit::Pair { frag, .. } => vec![*frag],
    };

    // Working-memory distribution: subjects + their spatial neighbourhoods
    // (computed once per subject; the "near" elements below reuse them).
    let nbhs: Vec<Vec<u32>> = match unit {
        LccUnit::Pair { .. } => Vec::new(),
        _ => subjects
            .iter()
            .map(|&s| index.neighbourhood(scene, fragments, &fragments[s as usize]))
            .collect(),
    };
    let mut wm_frags = subjects.clone();
    match unit {
        LccUnit::Pair { other, .. } => wm_frags.push(*other),
        _ => wm_frags.extend(nbhs.iter().flatten()),
    }
    wm_frags.sort_unstable();
    wm_frags.dedup();
    let s = schema();
    let pending = Value::Sym(static_sym!("pending"));
    for &fid in &wm_frags {
        s.fragment
            .make(e, fragment_fields(&fragments[fid as usize], 0));
    }

    // Spatial windows: which partners lie in each subject's neighbourhood
    // ("near" elements, derived above through the region index the control
    // process built for the phase: `LccPlan`), so pair generation stays
    // local no matter how many subjects share the task's WM (this is what
    // bounds the Level-4 class tasks).
    let mut near = |a: u32, b: u32| {
        let kind = fragments[b as usize].kind.value();
        s.near
            .make(e, [Value::Int(a as i64), Value::Int(b as i64), kind]);
    };
    match unit {
        LccUnit::Pair { frag, other, .. } => near(*frag, *other),
        _ => {
            for (&subject, nbh) in subjects.iter().zip(&nbhs) {
                for &g in nbh {
                    near(subject, g);
                }
            }
        }
    }

    // Task elements (and below Level 3 the one constraint record), per level.
    match unit {
        LccUnit::Class(_) | LccUnit::Object(_) => {
            for &f in &subjects {
                let id = Value::Int(f as i64);
                let kind = fragments[f as usize].kind.value();
                s.task.make(e, [id, id, kind, pending]);
            }
        }
        LccUnit::ObjectConstraint(f, c) => {
            s.constraint
                .make(e, constraint_fields(&CONSTRAINTS[*c as usize]));
            let id = Value::Int(((*f as i64) << 8) | *c as i64);
            let (frag, con) = (Value::Int(*f as i64), Value::Int(*c as i64));
            s.check.make(e, [id, Value::Int(-1), frag, con, pending]);
        }
        LccUnit::Pair {
            frag,
            constraint,
            other,
        } => {
            let (frag, other) = (Value::Int(*frag as i64), Value::Int(*other as i64));
            let con = Value::Int(*constraint as i64);
            s.pair.make(e, [Value::Int(-1), frag, other, con, pending]);
        }
    }
}

/// Executes one LCC task on `tp`'s engine, indexing the fragment table for
/// itself (a phase does that once: [`LccPlan`]).
pub fn run_lcc_unit(
    tp: &mut TaskProcess,
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    unit: &LccUnit,
) -> LccUnitResult {
    let index = &RegionIndex::new(scene, fragments);
    let task = LccTask {
        sp,
        scene,
        fragments,
        index,
        unit,
    };
    tp.run(&task, Watch::default()).0
}

/// One LCC unit as a [`Task`]: [`load_unit_wm`]'s two halves and
/// [`harvest_lcc_unit`]'s harvest, ids from [`LCC_ID_BASE`].
pub struct LccTask<'a> {
    /// The rule base.
    pub sp: &'a SpamProgram,
    /// The scene.
    pub scene: &'a Arc<Scene>,
    /// RTF's fragment table.
    pub fragments: &'a Arc<Vec<FragmentHypothesis>>,
    /// `fragments` by region.
    pub index: &'a RegionIndex,
    /// The unit.
    pub unit: &'a LccUnit,
}

impl Task for LccTask<'_> {
    type Output = LccUnitResult;

    fn wiring(&self) -> Wiring<'_> {
        Wiring {
            sp: self.sp,
            scene: self.scene,
            fragments: self.fragments,
            id_base: LCC_ID_BASE,
        }
    }

    fn phase(&self) -> ops5::Symbol {
        static_sym!("lcc")
    }

    fn base_variant(&self) -> u8 {
        u8::from(applies_every_constraint(self.unit))
    }

    fn base(&self, e: &mut ops5::Engine) {
        load_base(e, self.unit);
    }

    fn load(&self, e: &mut ops5::Engine) {
        load_partition(e, self.scene, self.fragments, self.index, self.unit);
    }

    fn harvest(&self, e: &mut ops5::Engine, cycle_log: Vec<CycleStats>) -> LccUnitResult {
        harvest(e, e.work().firings, cycle_log)
    }
}

/// Where an LCC task engine's id allocators start: clear of every id the
/// RTF phase handed out.
pub const LCC_ID_BASE: i64 = 1 << 30;

/// A fresh engine wired for LCC tasks on this scene, its working memory
/// empty.
pub fn lcc_engine(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
) -> ops5::Engine {
    sp.engine_for(scene, fragments, LCC_ID_BASE)
}

/// Harvests one finished LCC task out of its quiescent engine: records and
/// supports, work, `firings` ([`ops5::RunOutcome::firings`]) and cycle log.
pub fn harvest_lcc_unit(e: &mut ops5::Engine, firings: u64) -> LccUnitResult {
    let cycle_log = e.take_cycle_log();
    harvest(e, firings, cycle_log)
}

fn harvest(e: &ops5::Engine, firings: u64, cycle_log: Vec<CycleStats>) -> LccUnitResult {
    let s = schema();
    let consistents = (s.consistent.rows(e))
        .map(|[a, b, rel, weight, _]| ConsistentRec {
            a: a.as_int().unwrap_or(0) as u32,
            b: b.as_int().unwrap_or(0) as u32,
            rel: (rel.as_sym())
                .and_then(Relation::from_symbol)
                .unwrap_or(Relation::Near),
            weight: weight.as_int().unwrap_or(0),
        })
        .collect();
    let supports = (s.fragment.rows(e))
        .filter_map(|[id, _, _, _, support, _]| {
            let s = support.as_int()?;
            (s > 0).then_some((id.as_int()? as u32, s))
        })
        .collect();

    let work = e.work();
    LccUnitResult {
        consistents,
        supports,
        rhs_actions: work.rhs_actions,
        work,
        firings,
        cycle_log,
    }
}

/// Runs the whole LCC phase at `level`, sequentially (the Table 8 BASELINE
/// configuration: one task process [`drain`]ing the queue).
pub fn run_lcc(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
) -> LccPhaseResult {
    let plan = LccPlan::new(sp, scene, fragments, level);
    let report = TaskReport::clean(plan.len());
    let tp = &mut TaskProcess::default();
    let units = drain(tp, &plan, false).map(|(r, _)| Some(r));
    merge_lcc_units(level, fragments, units, report)
}

/// Runs the whole LCC phase at `level` sequentially with match-level
/// profiling, merging every task's profile into one phase-wide
/// [`MatchProfile`] (tasks share the compiled program, so profiles are
/// index-aligned). `None` when the phase has no tasks.
pub fn run_lcc_profiled(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
) -> (LccPhaseResult, Option<MatchProfile>) {
    let plan = LccPlan::new(sp, scene, fragments, level);
    let report = TaskReport::clean(plan.len());
    let tp = &mut TaskProcess::default();
    let mut merged: Option<MatchProfile> = None;
    // The merge pulls the units through one at a time, so each profile is
    // folded in while it is still warm.
    let units = drain(tp, &plan, true).map(|(r, prof)| {
        if let Some(p) = prof {
            match &mut merged {
                Some(m) => m.merge(&p),
                None => merged = Some(p),
            }
        }
        Some(r)
    });
    (merge_lcc_units(level, fragments, units, report), merged)
}

/// Merges per-unit results, in unit order, into the phase result, the
/// sequential phase's and the parallel one's alike. A `None` slot (a
/// dead-lettered unit, named in `report`) contributes nothing.
pub fn merge_lcc_units(
    level: Level,
    fragments: &[FragmentHypothesis],
    slots: impl IntoIterator<Item = Option<LccUnitResult>>,
    report: TaskReport,
) -> LccPhaseResult {
    let slots = slots.into_iter();
    let mut units = Vec::with_capacity(slots.size_hint().0);
    let mut work = WorkCounters::default();
    let mut firings = 0;
    let mut consistents = Vec::new();
    let mut supports = vec![0i64; fragments.len()];
    for r in slots.flatten() {
        work.add(&r.work);
        firings += r.firings;
        consistents.extend(r.consistents.iter().copied());
        for &(f, s) in &r.supports {
            supports[f as usize] += s;
        }
        units.push(r);
    }
    let mut updated = fragments.to_vec();
    for f in &mut updated {
        f.support = supports[f.id as usize];
    }
    LccPhaseResult {
        level,
        fragments: updated,
        consistents,
        units,
        work,
        firings,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::generate::generate_scene;
    use crate::rtf::run_rtf;

    fn setup() -> (SpamProgram, Arc<Scene>, Arc<Vec<FragmentHypothesis>>) {
        let sp = SpamProgram::build();
        let scene = Arc::new(generate_scene(&datasets::dc().spec));
        let rtf = run_rtf(&sp, &scene);
        (sp, scene, Arc::new(rtf.fragments))
    }

    #[test]
    fn decomposition_counts_nest() {
        let (_, scene, frags) = setup();
        let l4 = decompose(&scene, &frags, Level::L4).len();
        let l3 = decompose(&scene, &frags, Level::L3).len();
        let l2 = decompose(&scene, &frags, Level::L2).len();
        let l1 = decompose(&scene, &frags, Level::L1).len();
        assert!(l4 <= 10, "at most one task per class: {l4}");
        assert_eq!(l3, frags.len());
        assert!(l2 > l3, "L2 ({l2}) refines L3 ({l3})");
        assert!(l1 > l2, "L1 ({l1}) refines L2 ({l2})");
    }

    #[test]
    fn single_object_task_produces_consistencies() {
        let (sp, scene, frags) = setup();
        // Pick a runway fragment — the scene guarantees taxiway crossings.
        let runway = frags
            .iter()
            .find(|f| f.kind == FragmentKind::Runway)
            .expect("a runway hypothesis");
        let tp = &mut TaskProcess::default();
        let r = run_lcc_unit(tp, &sp, &scene, &frags, &LccUnit::Object(runway.id));
        assert!(r.firings >= 3, "tasks fire at least a few productions");
        assert!(
            !r.consistents.is_empty(),
            "a real runway should find consistent partners"
        );
        assert!(r.consistents.iter().all(|c| c.a == runway.id));
        assert!(r.work.external_units > 0, "geometry ran outside the match");
    }

    #[test]
    fn live_unit_matches_plain_unit_and_publishes_work() {
        use tlp_obs::{Live, LiveValue};
        let (sp, scene, frags) = setup();
        let unit = LccUnit::Object(frags[0].id);
        let tp = &mut TaskProcess::default();
        let plain = run_lcc_unit(tp, &sp, &scene, &frags, &unit);
        let plan = LccPlan::new(&sp, &scene, &frags, Level::L3);
        assert_eq!(plan.units[0].label(), unit.label());
        let live = Live::new(0);
        let watch = Watch::new(Some(&live));
        let (watched, _) = tp.run(&plan.task(0), watch);
        assert_eq!(plain.consistents, watched.consistents);
        assert_eq!(plain.supports, watched.supports);
        assert_eq!(plain.work, watched.work, "a watch must not change work");
        assert_eq!(plain.firings, watched.firings);
        let snap = live.snapshot();
        let total = |name: &str| match snap.series.get(name) {
            Some(LiveValue::Counter(total)) => *total,
            other => panic!("{name}: expected counter, got {other:?}"),
        };
        let w = &watched.work;
        assert_eq!(total("spam_live_match_units"), w.match_units);
        assert_eq!(total("spam_live_firings"), watched.firings);
        assert_eq!(total("spam_live_rhs_actions"), w.rhs_actions);
        // The gauges are read once, from the quiescent engine.
        assert_eq!(
            snap.series.get("spam_live_wm_size"),
            Some(&LiveValue::Gauge((w.wme_adds - w.wme_removes) as f64))
        );
        assert_eq!(
            snap.series.get("spam_live_conflict_set_depth"),
            Some(&LiveValue::Gauge(0.0))
        );

        // With a disabled registry the live runner publishes nothing and
        // still computes the same results.
        let off = Live::off();
        let watch = Watch::new(Some(&off));
        let (silent, _) = tp.run(&plan.task(0), watch);
        assert_eq!(plain.consistents, silent.consistents);
        assert!(off.snapshot().series.is_empty());
    }

    #[test]
    fn a_unit_that_panics_mid_run_leaves_no_engine_behind() {
        let (sp, scene, frags) = setup();
        // A pair the rules will hand to `lcc-check-pair`, and a copy of the
        // fragment table in which the partner points at a region the scene
        // does not have: loading the pair's WM never looks the region up,
        // the external does — it panics inside `Engine::run`, mid-task.
        let pairs = decompose(&scene, &frags, Level::L1);
        let LccUnit::Pair { other: bad, .. } = pairs[0] else {
            panic!("Level 1 decomposes into pairs");
        };
        let good = pairs
            .iter()
            .find(
                |u| matches!(u, LccUnit::Pair { frag, other, .. } if *frag != bad && *other != bad),
            )
            .expect("a pair not involving the damaged fragment");
        let mut damaged = frags.as_ref().clone();
        damaged[bad as usize].region = u32::MAX;
        let damaged = Arc::new(damaged);
        let mut tp = TaskProcess::default();

        // The process's engine is built for the damaged table and kept.
        let before = run_lcc_unit(&mut tp, &sp, &scene, &damaged, good);
        assert!(tp.keeps_an_engine(), "a finished unit puts its engine back");

        // The same engine, reset, runs the poisoned pair and unwinds.
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_lcc_unit(&mut tp, &sp, &scene, &damaged, &pairs[0])
        }));
        assert!(crashed.is_err(), "the external indexes a missing region");
        assert!(!tp.keeps_an_engine(), "the half-run engine went with it");

        // The process's next unit builds a new engine and is unaffected.
        let after = run_lcc_unit(&mut tp, &sp, &scene, &damaged, good);
        assert_eq!(after, before);
        assert!(after.firings > 0 && tp.keeps_an_engine());
        // ... and equals the unit on the undamaged inputs (the damaged
        // fragment is not in its working memory).
        assert_eq!(after, run_lcc_unit(&mut tp, &sp, &scene, &frags, good));
    }

    #[test]
    fn levels_agree_on_consistency_set() {
        let (sp, scene, frags) = setup();
        let norm = |mut v: Vec<ConsistentRec>| {
            v.sort_by_key(|c| (c.a, c.b, c.rel.name()));
            v
        };
        let l3 = run_lcc(&sp, &scene, &frags, Level::L3);
        let l2 = run_lcc(&sp, &scene, &frags, Level::L2);
        assert_eq!(
            norm(l3.consistents.clone()),
            norm(l2.consistents.clone()),
            "Level 3 and Level 2 must compute identical consistency sets"
        );
        let l1 = run_lcc(&sp, &scene, &frags, Level::L1);
        assert_eq!(norm(l3.consistents.clone()), norm(l1.consistents));
        let l4 = run_lcc(&sp, &scene, &frags, Level::L4);
        assert_eq!(norm(l3.consistents), norm(l4.consistents));
    }

    #[test]
    fn supports_match_consistency_weights() {
        let (sp, scene, frags) = setup();
        let r = run_lcc(&sp, &scene, &frags, Level::L3);
        for f in &r.fragments {
            let expected: i64 = r
                .consistents
                .iter()
                .filter(|c| c.a == f.id)
                .map(|c| c.weight)
                .sum();
            assert_eq!(f.support, expected, "fragment {}", f.id);
        }
    }

    #[test]
    fn merging_every_unit_is_run_lcc_field_for_field() {
        let (sp, scene, frags) = setup();
        for level in [Level::L4, Level::L3] {
            let seq = run_lcc(&sp, &scene, &frags, level);
            let slots = seq.units.iter().cloned().map(Some);
            let merged = merge_lcc_units(level, &frags, slots, seq.report.clone());
            assert_eq!(merged, seq, "{}", level.name());
        }
    }

    #[test]
    fn merge_is_the_sequential_phase_minus_its_dead_lettered_units() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        let n = seq.units.len();
        // Level 3: unit i is fragment i, and every record it produces has
        // that fragment as its subject.
        let dead = [1usize, n / 2, n - 1];
        let slots =
            (seq.units.iter().cloned().enumerate()).map(|(i, u)| (!dead.contains(&i)).then_some(u));
        let part = merge_lcc_units(Level::L3, &frags, slots, seq.report.clone());

        let survivors: Vec<LccUnitResult> = (seq.units.iter().enumerate())
            .filter(|(i, _)| !dead.contains(i))
            .map(|(_, u)| u.clone())
            .collect();
        assert_eq!(part.units, survivors, "unit order is kept, holes closed");
        let lost =
            |f: fn(&LccUnitResult) -> u64| dead.iter().map(|&i| f(&seq.units[i])).sum::<u64>();
        assert_eq!(part.firings, seq.firings - lost(|u| u.firings));
        assert_eq!(
            part.work.total_units(),
            seq.work.total_units() - lost(|u| u.work.total_units())
        );
        assert_eq!(
            part.work.match_units,
            seq.work.match_units - lost(|u| u.work.match_units)
        );
        let kept: Vec<ConsistentRec> = (seq.consistents.iter().copied())
            .filter(|c| !dead.contains(&(c.a as usize)))
            .collect();
        assert!(
            kept.len() < seq.consistents.len(),
            "the victims had records"
        );
        assert_eq!(part.consistents, kept);
        for (f, g) in part.fragments.iter().zip(&seq.fragments) {
            let expected = if dead.contains(&(f.id as usize)) {
                0
            } else {
                g.support
            };
            assert_eq!(f.support, expected, "fragment {}", f.id);
        }
        assert_eq!(part.report, seq.report, "the report passes through");
    }

    #[test]
    fn profiled_run_matches_plain_run_and_attributes_cost() {
        let (sp, scene, frags) = setup();
        let plain = run_lcc(&sp, &scene, &frags, Level::L3);
        let (profiled, prof) = run_lcc_profiled(&sp, &scene, &frags, Level::L3);
        // Work accounting is bit-identical with the profiler collecting.
        assert_eq!(plain.work, profiled.work);
        assert_eq!(plain.firings, profiled.firings);

        let p = prof.expect("the phase has tasks");
        assert_eq!(p.cycles, profiled.firings);
        assert_eq!(p.work.total_units(), profiled.work.total_units());
        assert!(
            (0.25..0.60).contains(&p.match_fraction()),
            "profiled match fraction {:.2}",
            p.match_fraction()
        );
        // Per-production firings sum to the phase total and the hot list is
        // populated with named productions.
        let fired: u64 = p.productions.iter().map(|q| q.firings).sum();
        assert_eq!(fired, profiled.firings);
        let hot = p.hot_productions(5);
        assert!(!hot.is_empty());
        assert!(hot.iter().all(|(_, q)| !q.name.is_empty()));
        assert!(!p.hot_alpha_mems(5).is_empty());
        assert!(p.tokens_created > 0);
    }

    #[test]
    fn lcc_match_fraction_in_paper_band() {
        // §1: "SPAM spends only about 30-50% of its time [in match]".
        let (sp, scene, frags) = setup();
        let r = run_lcc(&sp, &scene, &frags, Level::L3);
        let f = r.work.match_fraction();
        assert!(
            (0.25..0.60).contains(&f),
            "LCC match fraction {f:.2} outside the calibrated band"
        );
    }
}
