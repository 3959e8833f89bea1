//! The RTF (region-to-fragment) phase: heuristic classification.

use crate::fragments::{FragmentHypothesis, FragmentKind};
use crate::rules::{enter_phase, SpamProgram};
use crate::scene::{Region, Scene};
use ops5::{sym, CycleStats, Engine, Value, WorkCounters};
use std::sync::Arc;

/// Result of an RTF run (full phase or one task).
#[derive(Debug)]
pub struct RtfResult {
    /// The fragment hypotheses, indexed by id.
    pub fragments: Vec<FragmentHypothesis>,
    /// Work performed.
    pub work: WorkCounters,
    /// Productions fired.
    pub firings: u64,
    /// Per-cycle log (for the match-parallelism model).
    pub cycle_log: Vec<CycleStats>,
}

/// Field list for a region WME.
pub fn region_fields(r: &Region) -> Vec<(&'static str, Value)> {
    let d = &r.descriptors;
    vec![
        ("id", Value::Int(r.id as i64)),
        ("status", Value::symbol("pending")),
        ("elongation", Value::Float(d.elongation)),
        ("length", Value::Float(d.length)),
        ("width", Value::Float(d.width)),
        ("compactness", Value::Float(d.compactness)),
        ("rectangularity", Value::Float(d.rectangularity)),
        ("intensity", Value::Float(r.intensity)),
        ("area", Value::Float(d.area)),
    ]
}

fn fresh_engine(sp: &SpamProgram, scene: &Arc<Scene>, id_base: i64) -> Engine {
    let mut e = sp.engine_for(scene, &Arc::new(Vec::new()), id_base);
    e.enable_cycle_log();
    enter_phase(&mut e, sym("rtf"));
    // Classification prototypes (the class envelopes live in WM; the
    // classification work is join work — see rules::rtf_rules).
    for (name, p) in crate::rules::prototypes() {
        if p.domain != scene.domain {
            continue; // scene-type knowledge gates the class envelopes
        }
        let b = p.bounds;
        e.make_wme(
            "proto",
            &[
                ("kind", Value::symbol(name)),
                ("out", Value::symbol(p.out)),
                ("eln", Value::Float(b[0])),
                ("elx", Value::Float(b[1])),
                ("lnn", Value::Float(b[2])),
                ("lnx", Value::Float(b[3])),
                ("wdn", Value::Float(b[4])),
                ("wdx", Value::Float(b[5])),
                ("inn", Value::Float(b[6])),
                ("inx", Value::Float(b[7])),
                ("arn", Value::Float(b[8])),
                ("arx", Value::Float(b[9])),
                ("cpn", Value::Float(b[10])),
                ("rcn", Value::Float(b[11])),
                ("conf", Value::Float(p.conf)),
            ],
        )
        .expect("proto class");
    }
    e
}

/// Extracts fragment hypotheses from an engine's working memory.
pub fn collect_fragments(e: &Engine) -> Vec<FragmentHypothesis> {
    let program = e.program();
    let frag = sym("fragment");
    let slot = |attr: &str| program.slot_of(frag, sym(attr)).expect("fragment slot") as usize;
    let (s_id, s_region, s_kind, s_conf, s_support) = (
        slot("id"),
        slot("region"),
        slot("kind"),
        slot("conf"),
        slot("support"),
    );
    let mut out: Vec<FragmentHypothesis> = e
        .wm()
        .iter()
        .filter(|(_, w)| w.class == frag)
        .map(|(_, w)| FragmentHypothesis {
            id: w.get(s_id).as_int().unwrap_or(0) as u32,
            region: w.get(s_region).as_int().unwrap_or(0) as u32,
            kind: w
                .get(s_kind)
                .as_sym()
                .and_then(|s| FragmentKind::from_name(&s.name()))
                .unwrap_or(FragmentKind::Tarmac),
            confidence: w.get(s_conf).as_f64().unwrap_or(0.0),
            support: w.get(s_support).as_int().unwrap_or(0),
        })
        .collect();
    out.sort_by_key(|f| f.id);
    out
}

/// Runs the complete RTF phase sequentially over `scene`.
pub fn run_rtf(sp: &SpamProgram, scene: &Arc<Scene>) -> RtfResult {
    let regions: Vec<u32> = (0..scene.len() as u32).collect();
    run_rtf_task(sp, scene, &regions, 0)
}

/// Runs RTF over a subset of regions — one RTF task of the task-level
/// decomposition (§4: "a decomposition level providing approximately 60-100
/// tasks ... at roughly the same granularity as Level 2 of the LCC phase").
/// `id_base` gives the task a disjoint fragment-id range.
pub fn run_rtf_task(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    regions: &[u32],
    id_base: i64,
) -> RtfResult {
    let mut e = fresh_engine(sp, scene, id_base);
    for &rid in regions {
        let fields = region_fields(&scene.regions[rid as usize]);
        e.make_wme("region", &fields).expect("region class");
    }
    let out = e.run(1_000_000);
    debug_assert!(out.quiescent(), "RTF must reach quiescence: {out:?}");
    RtfResult {
        fragments: collect_fragments(&e),
        work: e.work(),
        firings: out.firings,
        cycle_log: e.take_cycle_log(),
    }
}

/// Splits the scene's regions into RTF task batches of `batch` regions.
pub fn rtf_task_batches(scene: &Scene, batch: usize) -> Vec<Vec<u32>> {
    let batch = batch.max(1);
    (0..scene.len() as u32)
        .collect::<Vec<u32>>()
        .chunks(batch)
        .map(|c| c.to_vec())
        .collect()
}

/// Runs RTF as a sequence of tasks and merges the results (fragment ids are
/// renumbered densely in task order, preserving per-task relative order).
pub fn run_rtf_tasks(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    batches: &[Vec<u32>],
) -> (Vec<FragmentHypothesis>, Vec<RtfResult>) {
    let mut merged = Vec::new();
    let mut results = Vec::new();
    for (i, b) in batches.iter().enumerate() {
        let r = run_rtf_task(sp, scene, b, (i as i64) << 20);
        for mut f in r.fragments.clone() {
            f.id = merged.len() as u32;
            merged.push(f);
        }
        results.push(r);
    }
    (merged, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::generate::generate_scene;

    fn dc_scene() -> Arc<Scene> {
        Arc::new(generate_scene(&datasets::dc().spec))
    }

    #[test]
    fn rtf_produces_hypotheses_for_true_objects() {
        let sp = SpamProgram::build();
        let scene = dc_scene();
        let r = run_rtf(&sp, &scene);
        assert!(r.firings > 0);
        assert!(!r.fragments.is_empty());
        // Every true runway region must receive a runway hypothesis.
        for region in &scene.regions {
            if region.truth == Some(FragmentKind::Runway) {
                assert!(
                    r.fragments
                        .iter()
                        .any(|f| f.region == region.id && f.kind == FragmentKind::Runway),
                    "region {} is a runway but got no runway hypothesis \
                     (elong {:.1}, len {:.0}, width {:.0}, rect {:.2})",
                    region.id,
                    region.descriptors.elongation,
                    region.descriptors.length,
                    region.descriptors.width,
                    region.descriptors.rectangularity,
                );
            }
        }
    }

    #[test]
    fn rtf_is_deterministic() {
        let sp = SpamProgram::build();
        let scene = dc_scene();
        let a = run_rtf(&sp, &scene);
        let b = run_rtf(&sp, &scene);
        assert_eq!(a.fragments, b.fragments);
        assert_eq!(a.firings, b.firings);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn task_split_produces_same_hypothesis_multiset() {
        let sp = SpamProgram::build();
        let scene = dc_scene();
        let full = run_rtf(&sp, &scene);
        let batches = rtf_task_batches(&scene, 7);
        let (merged, results) = run_rtf_tasks(&sp, &scene, &batches);
        assert_eq!(results.len(), batches.len());
        // Same (region, kind) multiset regardless of task decomposition —
        // RTF tasks are independent.
        let key = |f: &FragmentHypothesis| (f.region, f.kind);
        let mut a: Vec<_> = full.fragments.iter().map(key).collect();
        let mut b: Vec<_> = merged.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn rtf_match_fraction_is_substantial() {
        // §6.5: "measurements revealed that match constituted 60% of the
        // [RTF] execution time". Ours should be match-heavy too (45-80%).
        let sp = SpamProgram::build();
        let scene = dc_scene();
        let r = run_rtf(&sp, &scene);
        let f = r.work.match_fraction();
        assert!((0.50..0.80).contains(&f), "RTF match fraction {f:.2}");
    }
}
