//! The MODEL phase: scene-model assembly and stereo verification. One
//! [`Task`] ([`ModelTask`]) on the lifecycle of [`crate::task`]; this module
//! supplies its *load* (the grown functional areas) and *harvest* (the model
//! and its areas).

use crate::fa::FunctionalArea;
use crate::fragments::FragmentHypothesis;
use crate::rules::{schema, SpamProgram};
use crate::scene::Scene;
use crate::task::{Task, TaskList, TaskProcess, Wiring};
use crate::watch::Watch;
use ops5::{static_sym, CycleStats, Engine, Value, WorkCounters};
use spam_geometry::{convex_hull, intersection_area, Point, Polygon};
use std::sync::Arc;

/// Spatial metrics of a scene model: how much of the scene the selected
/// areas explain, and how compatible (non-overlapping) their windows are
/// (§2.2: "consistent and compatible collections").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModelMetrics {
    /// Fraction of the total region area claimed by area members.
    pub coverage: f64,
    /// Pairwise overlap of the areas' convex windows, as a fraction of the
    /// total window area (0 = perfectly compatible).
    pub window_overlap: f64,
}

/// Convex spatial window of a functional area: the hull of its members'
/// region vertices.
pub fn area_window(
    scene: &Scene,
    fragments: &[FragmentHypothesis],
    members: &[(i64, u32)],
    area_id: i64,
) -> Option<Polygon> {
    let mut pts: Vec<Point> = Vec::new();
    for &(a, f) in members {
        if a == area_id {
            if let Some(frag) = fragments.iter().find(|x| x.id == f) {
                pts.extend(scene.region(frag.region).polygon.vertices());
            }
        }
    }
    let hull = convex_hull(&pts);
    if hull.len() < 3 {
        None
    } else {
        Some(Polygon::new(hull))
    }
}

/// Computes the spatial metrics for the areas selected into the model.
pub fn model_metrics(
    scene: &Scene,
    fragments: &[FragmentHypothesis],
    members: &[(i64, u32)],
    selected_areas: &[i64],
) -> ModelMetrics {
    let windows: Vec<Polygon> = selected_areas
        .iter()
        .filter_map(|&a| area_window(scene, fragments, members, a))
        .collect();
    // Coverage: area of member regions over total region area.
    let mut member_regions: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for &(a, f) in members {
        if selected_areas.contains(&a) {
            if let Some(frag) = fragments.iter().find(|x| x.id == f) {
                member_regions.insert(frag.region);
            }
        }
    }
    let explained: f64 = member_regions
        .iter()
        .map(|&r| scene.region(r).polygon.area())
        .sum();
    let total = scene.covered_area().max(1e-9);
    // Window compatibility: pairwise convex intersection over window area.
    let window_area: f64 = windows.iter().map(|w| w.area()).sum();
    let mut overlap = 0.0;
    for i in 0..windows.len() {
        for j in (i + 1)..windows.len() {
            overlap += intersection_area(&windows[i], &windows[j]);
        }
    }
    ModelMetrics {
        coverage: (explained / total).clamp(0.0, 1.0),
        window_overlap: if window_area > 0.0 {
            (overlap / window_area).clamp(0.0, 1.0)
        } else {
            0.0
        },
    }
}

/// Result of the MODEL phase.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelResult {
    /// Number of scene models produced (the paper's runs produce 1).
    pub models: usize,
    /// Functional areas included in the model.
    pub areas_used: i64,
    /// Model score (sum of area scores).
    pub score: i64,
    /// Spatial metrics of the selected areas (coverage, compatibility).
    pub metrics: ModelMetrics,
    /// Area ids selected into the model.
    pub selected: Vec<i64>,
    /// Work performed.
    pub work: WorkCounters,
    /// Productions fired.
    pub firings: u64,
    /// Per-cycle log.
    pub cycle_log: Vec<CycleStats>,
}

/// Runs model generation over the FA output. `members` is the FA phase's
/// membership table (used for the spatial metrics; pass `&[]` to skip).
pub fn run_model(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    areas: &[FunctionalArea],
    members: &[(i64, u32)],
) -> ModelResult {
    let task = ModelTask {
        sp: sp.clone(),
        scene: Arc::clone(scene),
        fragments: Arc::clone(fragments),
        areas: areas.to_vec(),
        members: members.to_vec(),
    };
    TaskProcess::default().run(&task, Watch::default()).0
}

/// The MODEL phase as a [`Task`]: loads the grown functional areas,
/// harvests the model and the areas selected into it. It owns its inputs and
/// is its own [`TaskList`], of one task.
#[derive(Clone)]
pub struct ModelTask {
    /// The rule base.
    pub sp: SpamProgram,
    /// The scene.
    pub scene: Arc<Scene>,
    /// LCC's fragment table (FA's wiring: MODEL runs on FA's engine).
    pub fragments: Arc<Vec<FragmentHypothesis>>,
    /// FA's areas.
    pub areas: Vec<FunctionalArea>,
    /// FA's membership table, for the spatial metrics (empty skips them).
    pub members: Vec<(i64, u32)>,
}

impl TaskList for ModelTask {
    type Output = ModelResult;
    type Task<'a> = ModelTask;

    fn len(&self) -> usize {
        1
    }

    fn label(&self, _: usize) -> String {
        "model".into()
    }

    fn task(&self, _: usize) -> ModelTask {
        self.clone()
    }
}

impl Task for ModelTask {
    type Output = ModelResult;

    fn wiring(&self) -> Wiring<'_> {
        Wiring {
            sp: &self.sp,
            scene: &self.scene,
            fragments: &self.fragments,
            id_base: 0,
        }
    }

    fn phase(&self) -> ops5::Symbol {
        static_sym!("model")
    }

    fn load(&self, e: &mut Engine) {
        let s = schema();
        let grown = Value::Sym(static_sym!("grown"));
        for a in &self.areas {
            let (id, kind) = (Value::Int(a.id), Value::symbol(&a.kind));
            let (seed, nmembers) = (Value::Int(a.seed as i64), Value::Int(a.members));
            s.area.make(e, [id, kind, seed, nmembers, grown]);
        }
    }

    fn harvest(&self, e: &mut Engine, cycle_log: Vec<CycleStats>) -> ModelResult {
        let s = schema();
        let mut models = 0;
        let mut areas_used = 0;
        let mut score = 0;
        for [model_score, model_areas] in s.model.rows(e) {
            models += 1;
            areas_used = model_areas.as_int().unwrap_or(0);
            score = model_score.as_int().unwrap_or(0);
        }
        // Selected areas: the model-area records.
        let mut selected: Vec<i64> = (s.model_area.rows(e))
            .filter_map(|[area]| area.as_int())
            .collect();
        selected.sort_unstable();
        let work = e.work();
        ModelResult {
            models,
            areas_used,
            score,
            metrics: model_metrics(&self.scene, &self.fragments, &self.members, &selected),
            selected,
            work,
            firings: work.firings,
            cycle_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_selects_multi_member_areas() {
        let sp = SpamProgram::build();
        let scene = Arc::new(crate::generate::generate_scene(&crate::datasets::dc().spec));
        let frags: Arc<Vec<FragmentHypothesis>> = Arc::new(vec![]);
        let areas = vec![
            FunctionalArea {
                id: 1,
                kind: "runway-area".into(),
                seed: 0,
                members: 4,
            },
            FunctionalArea {
                id: 2,
                kind: "terminal-area".into(),
                seed: 1,
                members: 3,
            },
            FunctionalArea {
                id: 3,
                kind: "hangar-area".into(),
                seed: 2,
                members: 1,
            },
        ];
        let m = run_model(&sp, &scene, &frags, &areas, &[]);
        assert_eq!(m.models, 1, "exactly one scene model");
        assert_eq!(m.areas_used, 2, "single-member areas are not selected");
        assert_eq!(m.selected, vec![1, 2]);
        assert!(m.work.external_units > 0, "stereo verification ran");
    }
}
