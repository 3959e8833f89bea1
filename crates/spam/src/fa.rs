//! The FA (functional-area) phase: aggregation of consistent fragments. One
//! [`Task`] ([`FaTask`]) on the lifecycle of [`crate::task`]; this module
//! supplies its *load* (supported fragments, consistency records) and
//! *harvest* (areas, members, predictions).

use crate::fragments::{FragmentHypothesis, FragmentKind};
use crate::lcc::{fragment_fields, ConsistentRec};
use crate::rules::{schema, SpamProgram};
use crate::scene::Scene;
use crate::task::{Task, TaskList, TaskProcess, Wiring};
use crate::watch::Watch;
use ops5::{static_sym, CycleStats, Engine, Value, WorkCounters};
use std::sync::Arc;

/// One functional area.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionalArea {
    /// Area id.
    pub id: i64,
    /// Area kind (`runway-area`, `terminal-area`, ...).
    pub kind: String,
    /// Seed fragment.
    pub seed: u32,
    /// Member count (including the seed).
    pub members: i64,
}

/// Result of the FA phase.
#[derive(Clone, Debug, PartialEq)]
pub struct FaResult {
    /// The functional areas.
    pub areas: Vec<FunctionalArea>,
    /// Open predictions (context-driven top-down work the paper feeds back
    /// into LCC — see [`crate::topdown`]).
    pub predictions: usize,
    /// The prediction records: `(predicting area, predicted kind)`.
    pub prediction_list: Vec<(i64, FragmentKind)>,
    /// Membership records `(area id, fragment id)` (seeds included).
    pub members: Vec<(i64, u32)>,
    /// Work performed.
    pub work: WorkCounters,
    /// Productions fired.
    pub firings: u64,
    /// Per-cycle log.
    pub cycle_log: Vec<CycleStats>,
}

/// Loads fragments + consistency records and runs the FA rules.
pub fn run_fa(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    consistents: &[ConsistentRec],
) -> FaResult {
    let task = FaTask {
        sp: sp.clone(),
        scene: Arc::clone(scene),
        fragments: Arc::clone(fragments),
        consistents: consistents.to_vec(),
    };
    TaskProcess::default().run(&task, Watch::default()).0
}

/// The FA phase as a [`Task`]: loads the supported fragments and the
/// consistency records, harvests areas, members and predictions. It owns its
/// inputs and is its own [`TaskList`], of one task.
#[derive(Clone)]
pub struct FaTask {
    /// The rule base.
    pub sp: SpamProgram,
    /// The scene.
    pub scene: Arc<Scene>,
    /// LCC's fragment table, supports accumulated.
    pub fragments: Arc<Vec<FragmentHypothesis>>,
    /// LCC's consistency records.
    pub consistents: Vec<ConsistentRec>,
}

impl TaskList for FaTask {
    type Output = FaResult;
    type Task<'a> = FaTask;

    fn len(&self) -> usize {
        1
    }

    fn label(&self, _: usize) -> String {
        "fa".into()
    }

    fn task(&self, _: usize) -> FaTask {
        self.clone()
    }
}

impl Task for FaTask {
    type Output = FaResult;

    fn wiring(&self) -> Wiring<'_> {
        Wiring {
            sp: &self.sp,
            scene: &self.scene,
            fragments: &self.fragments,
            id_base: 0,
        }
    }

    fn phase(&self) -> ops5::Symbol {
        static_sym!("fa")
    }

    fn load(&self, e: &mut Engine) {
        let s = schema();
        for f in self.fragments.iter() {
            s.fragment.make(e, fragment_fields(f, f.support));
        }
        let counted = Value::Sym(static_sym!("yes"));
        for c in &self.consistents {
            let (a, b) = (Value::Int(c.a as i64), Value::Int(c.b as i64));
            let (rel, weight) = (Value::Sym(c.rel.symbol()), Value::Int(c.weight));
            s.consistent.make(e, [a, b, rel, weight, counted]);
        }
    }

    fn harvest(&self, e: &mut Engine, cycle_log: Vec<CycleStats>) -> FaResult {
        let s = schema();
        let mut areas: Vec<FunctionalArea> = (s.area.rows(e))
            .map(|[id, kind, seed, nmembers, _]| FunctionalArea {
                id: id.as_int().unwrap_or(-1),
                kind: kind.to_string(),
                seed: seed.as_int().unwrap_or(0) as u32,
                members: nmembers.as_int().unwrap_or(1),
            })
            .collect();
        areas.sort_by_key(|a| a.id);
        let mut members: Vec<(i64, u32)> = (s.member.rows(e))
            .filter_map(|[area, frag]| Some((area.as_int()?, frag.as_int()? as u32)))
            .collect();
        // Seeds are members of their own areas.
        members.extend(areas.iter().map(|a| (a.id, a.seed)));
        members.sort();
        members.dedup();
        let mut prediction_list: Vec<(i64, FragmentKind)> = (s.prediction.rows(e))
            .filter_map(|[area, kind]| {
                let kind = FragmentKind::from_symbol(kind.as_sym()?)?;
                Some((area.as_int()?, kind))
            })
            .collect();
        prediction_list.sort();

        let work = e.work();
        FaResult {
            areas,
            predictions: prediction_list.len(),
            prediction_list,
            members,
            work,
            firings: work.firings,
            cycle_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::generate::generate_scene;
    use crate::lcc::{run_lcc, Level};
    use crate::rtf::run_rtf;

    #[test]
    fn fa_builds_areas_from_supported_fragments() {
        let sp = SpamProgram::build();
        let scene = Arc::new(generate_scene(&datasets::dc().spec));
        let rtf = run_rtf(&sp, &scene);
        let frags = Arc::new(rtf.fragments);
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let fa = run_fa(
            &sp,
            &scene,
            &Arc::new(lcc.fragments.clone()),
            &lcc.consistents,
        );
        assert!(fa.firings > 0);
        assert!(
            !fa.areas.is_empty(),
            "a real airport scene must yield functional areas"
        );
        assert!(
            fa.areas.iter().any(|a| a.kind == "runway-area"),
            "kinds: {:?}",
            fa.areas.iter().map(|a| &a.kind).collect::<Vec<_>>()
        );
        // Grown areas must have their seed plus members counted.
        assert!(fa.areas.iter().all(|a| a.members >= 1));
        // Predictions only exist for grown areas.
        let grown = fa.areas.iter().filter(|a| a.members >= 1).count();
        assert!(fa.predictions <= 2 * grown);
    }
}
