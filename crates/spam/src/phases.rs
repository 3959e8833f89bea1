//! The full interpretation pipeline and per-phase statistics (Tables 1–3).

use crate::datasets::Dataset;
use crate::fa::{run_fa, FaResult};
use crate::fragments::FragmentHypothesis;
use crate::generate::generate_scene;
use crate::lcc::{run_lcc, LccPhaseResult, Level};
use crate::model::{run_model, ModelResult};
use crate::rtf::{run_rtf, RtfResult};
use crate::rules::SpamProgram;
use crate::scene::Scene;
use ops5::WorkCounters;
use std::sync::Arc;

/// Native NS32332 instructions per abstract engine work unit.
///
/// The engine's work units count primitive operations (a join test, a token
/// operation, an RHS action); on the paper-era software stack each such
/// operation costs on the order of a hundred machine instructions. The
/// constant is calibrated so the Table 8 baseline lands at the paper's
/// scale (average Level-3 task ≈ 5 s on the 1.5 MIPS Encore).
pub const INSTRUCTIONS_PER_UNIT: f64 = 100.0;

/// The effective unit rate used to convert work units to simulated seconds:
/// the Encore Multimax NS32332 was "rated at approximately 1.5 MIPS" (§5),
/// and each work unit costs [`INSTRUCTIONS_PER_UNIT`] instructions.
pub const MIPS: f64 = 1.5 / INSTRUCTIONS_PER_UNIT;

/// Statistics for one phase (one column of Tables 1–3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseStats {
    /// Simulated CPU seconds at [`MIPS`].
    pub seconds: f64,
    /// Production firings.
    pub firings: u64,
    /// Hypotheses produced (RTF: fragments; FA: areas; MODEL: models).
    pub hypotheses: Option<u64>,
    /// Match fraction of the phase's work.
    pub match_fraction: f64,
}

impl PhaseStats {
    fn of(work: &WorkCounters, firings: u64, hypotheses: Option<u64>) -> PhaseStats {
        PhaseStats {
            seconds: work.seconds_at(MIPS),
            firings,
            hypotheses,
            match_fraction: work.match_fraction(),
        }
    }

    /// Effective productions per (simulated) second — the Tables 1–3 row.
    pub fn prods_per_second(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.firings as f64 / self.seconds
        }
    }
}

/// Result of a full pipeline run on one dataset.
#[derive(Debug)]
pub struct PipelineResult {
    /// The scene interpreted.
    pub scene: Arc<Scene>,
    /// RTF output.
    pub rtf: RtfResult,
    /// LCC output (Level 3 baseline decomposition).
    pub lcc: LccPhaseResult,
    /// FA output.
    pub fa: FaResult,
    /// MODEL output.
    pub model: ModelResult,
    /// Fragments with accumulated support (post-LCC).
    pub fragments: Arc<Vec<FragmentHypothesis>>,
    /// Per-phase statistics `[RTF, LCC, FA, MODEL]`.
    pub stats: [PhaseStats; 4],
}

impl PipelineResult {
    /// Total simulated seconds.
    pub fn total_seconds(&self) -> f64 {
        self.stats.iter().map(|s| s.seconds).sum()
    }

    /// Total firings.
    pub fn total_firings(&self) -> u64 {
        self.stats.iter().map(|s| s.firings).sum()
    }
}

/// Runs the complete SPAM pipeline (RTF → LCC → FA → MODEL) on a dataset.
pub fn run_pipeline(sp: &SpamProgram, dataset: &Dataset) -> PipelineResult {
    run_pipeline_scene(sp, Arc::new(generate_scene(&dataset.spec)))
}

/// Runs the pipeline on an already-built scene (any domain: the same rule
/// base interprets airports and suburban housing developments, §2.2).
/// Every phase runs on the calling thread's task process, which keeps its
/// engine from call to call as long as `sp` is the same program.
pub fn run_pipeline_scene(sp: &SpamProgram, scene: Arc<Scene>) -> PipelineResult {
    let rtf = run_rtf(sp, &scene);
    let rtf_frags = Arc::new(rtf.fragments.clone());

    let lcc = run_lcc(sp, &scene, &rtf_frags, Level::L3);
    let fragments = Arc::new(lcc.fragments.clone());

    let fa = run_fa(sp, &scene, &fragments, &lcc.consistents);
    let model = run_model(sp, &scene, &fragments, &fa.areas, &fa.members);

    let stats = [
        PhaseStats::of(&rtf.work, rtf.firings, Some(rtf.fragments.len() as u64)),
        PhaseStats::of(&lcc.work, lcc.firings, None),
        PhaseStats::of(&fa.work, fa.firings, Some(fa.areas.len() as u64)),
        PhaseStats::of(&model.work, model.firings, Some(model.models as u64)),
    ];

    PipelineResult {
        scene,
        rtf,
        lcc,
        fa,
        model,
        fragments,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn pipeline_runs_end_to_end_on_dc() {
        let r = run_pipeline(&SpamProgram::build(), &datasets::dc());
        assert!(r.stats[0].firings > 0, "RTF fired");
        assert!(r.stats[1].firings > 0, "LCC fired");
        assert!(r.stats[2].firings > 0, "FA fired");
        assert!(r.stats[3].firings > 0, "MODEL fired");
        assert_eq!(r.model.models, 1, "one scene model");
        // The paper's headline workload shape: LCC dominates both time and
        // firings (Tables 1-3).
        assert!(
            r.stats[1].seconds > r.stats[0].seconds,
            "LCC ({:.1}s) must dominate RTF ({:.1}s)",
            r.stats[1].seconds,
            r.stats[0].seconds
        );
        assert!(r.stats[1].firings > r.stats[0].firings);
        assert!(r.stats[1].firings > r.stats[2].firings);
        assert!(r.total_firings() > 1000);
    }
}
