//! The RTF (region-to-fragment) phase: heuristic classification. An RTF
//! task — the whole scene, or one batch of its regions — is a [`Task`]
//! ([`RtfTask`]) on the lifecycle of [`crate::task`]; this module supplies
//! its *base* (the scene domain's prototypes), *load* (the task's regions)
//! and *harvest* (the fragments made); [`RtfPhase`] is the batched phase.

use crate::fragments::{FragmentHypothesis, FragmentKind};
use crate::rules::{schema, SpamProgram};
use crate::scene::{Region, Scene};
use crate::task::{Task, TaskList, TaskProcess, Wiring};
use crate::watch::Watch;
use ops5::{static_sym, CycleStats, Engine, Value, WorkCounters};
use std::sync::{Arc, OnceLock};

/// Result of an RTF run (full phase or one task).
#[derive(Debug, PartialEq)]
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

/// The fields of a `region` element.
fn region_fields(r: &Region) -> [Value; 9] {
    let d = &r.descriptors;
    [
        Value::Int(r.id as i64),
        Value::Sym(static_sym!("pending")),
        Value::Float(d.elongation),
        Value::Float(d.length),
        Value::Float(d.width),
        Value::Float(d.compactness),
        Value::Float(d.rectangularity),
        Value::Float(r.intensity),
        Value::Float(d.area),
    ]
}

/// The fragment table RTF engines are wired with: RTF *creates* the
/// fragments. One per process, so that every RTF task on a scene finds the
/// engine its task process kept for the last one.
fn no_fragments() -> &'static Arc<Vec<FragmentHypothesis>> {
    static NONE: OnceLock<Arc<Vec<FragmentHypothesis>>> = OnceLock::new();
    NONE.get_or_init(Arc::default)
}

/// One RTF task — the whole scene, or one batch of its regions. Its *base*
/// is the scene domain's class envelopes (classification is join work:
/// `rules::rtf_rules`), loaded per task all the same: `control` alone
/// satisfies `rtf-done`, so the engine declines the mark, and `rtf-done`
/// modifies `control`, which would break one ([`crate::task`]).
pub struct RtfTask<'a> {
    /// The rule base.
    pub sp: &'a SpamProgram,
    /// The scene.
    pub scene: &'a Arc<Scene>,
    /// The regions to classify, by id.
    pub regions: &'a [u32],
}

impl Task for RtfTask<'_> {
    type Output = RtfResult;

    fn wiring(&self) -> Wiring<'_> {
        Wiring {
            sp: self.sp,
            scene: self.scene,
            fragments: no_fragments(),
            id_base: 0,
        }
    }

    fn phase(&self) -> ops5::Symbol {
        static_sym!("rtf")
    }

    fn base(&self, e: &mut Engine) {
        let s = schema();
        for (name, p) in crate::rules::prototypes() {
            if p.domain != self.scene.domain {
                continue; // scene-type knowledge gates the class envelopes
            }
            let (kind, out, conf) = (Value::symbol(name), Value::symbol(p.out), p.conf.into());
            let [eln, elx, lnn, lnx, wdn, wdx, inn, inx, arn, arx, cpn, rcn] =
                p.bounds.map(Value::Float);
            let envelope = [
                kind, out, eln, elx, lnn, lnx, wdn, wdx, inn, inx, arn, arx, cpn, rcn, conf,
            ];
            s.proto.make(e, envelope);
        }
    }

    fn load(&self, e: &mut Engine) {
        let s = schema();
        for &rid in self.regions {
            s.region
                .make(e, region_fields(&self.scene.regions[rid as usize]));
        }
    }

    fn harvest(&self, e: &mut Engine, cycle_log: Vec<CycleStats>) -> RtfResult {
        let work = e.work();
        RtfResult {
            fragments: collect_fragments(e),
            work,
            firings: work.firings,
            cycle_log,
        }
    }
}

/// Extracts fragment hypotheses from an engine's working memory, by id.
pub fn collect_fragments(e: &Engine) -> Vec<FragmentHypothesis> {
    let mut out: Vec<FragmentHypothesis> = (schema().fragment.rows(e))
        .map(|[id, region, kind, conf, support, _]| FragmentHypothesis {
            id: id.as_int().unwrap_or(0) as u32,
            region: region.as_int().unwrap_or(0) as u32,
            kind: (kind.as_sym())
                .and_then(FragmentKind::from_symbol)
                .unwrap_or(FragmentKind::Tarmac),
            confidence: conf.as_f64().unwrap_or(0.0),
            support: support.as_int().unwrap_or(0),
        })
        .collect();
    out.sort_by_key(|f| f.id);
    out
}

/// Runs the complete RTF phase sequentially over `scene`.
pub fn run_rtf(sp: &SpamProgram, scene: &Arc<Scene>) -> RtfResult {
    let regions = &(0..scene.len() as u32).collect::<Vec<u32>>();
    let task = RtfTask { sp, scene, regions };
    TaskProcess::default().run(&task, Watch::default()).0
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

/// The RTF phase as the paper decomposes it (§4: "approximately 60-100
/// tasks"): one task per region batch, each numbering its fragments from
/// zero until [`merge_rtf_batches`] renumbers them.
pub struct RtfPhase {
    /// The rule base.
    pub sp: SpamProgram,
    /// The scene.
    pub scene: Arc<Scene>,
    /// The batches ([`rtf_task_batches`]), region ids each.
    pub batches: Vec<Vec<u32>>,
}

impl TaskList for RtfPhase {
    type Output = RtfResult;
    type Task<'a> = RtfTask<'a>;

    fn len(&self) -> usize {
        self.batches.len()
    }

    fn label(&self, i: usize) -> String {
        format!("rtf batch {i} ({} regions)", self.batches[i].len())
    }

    /// One region is one WME of the batch's working memory.
    fn estimate(&self, i: usize) -> u64 {
        self.batches[i].len() as u64
    }

    fn task(&self, i: usize) -> RtfTask<'_> {
        RtfTask {
            sp: &self.sp,
            scene: &self.scene,
            regions: &self.batches[i],
        }
    }
}

/// Merges per-batch fragments, in batch order, into the scene's fragment
/// table, renumbered densely; a `None` slot (a dead-lettered batch)
/// contributes nothing.
pub fn merge_rtf_batches(
    slots: impl IntoIterator<Item = Option<Vec<FragmentHypothesis>>>,
) -> Vec<FragmentHypothesis> {
    let mut merged: Vec<FragmentHypothesis> = slots.into_iter().flatten().flatten().collect();
    for (id, f) in merged.iter_mut().enumerate() {
        f.id = id as u32;
    }
    merged
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
        let (n, phase) = (batches.len(), RtfPhase { sp, scene, batches });
        let results: Vec<RtfResult> =
            (crate::task::drain(&mut TaskProcess::default(), &phase, false))
                .map(|(r, _)| r)
                .collect();
        let merged = merge_rtf_batches(results.iter().map(|r| Some(r.fragments.clone())));
        assert_eq!(results.len(), n);
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
