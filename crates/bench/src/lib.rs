//! Shared plumbing for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it and prints the paper's published values next to the
//! measured ones. See `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded runs.

use spam::datasets::Dataset;
use spam::fragments::FragmentHypothesis;
use spam::lcc::{run_lcc, LccPhaseResult, Level};
use spam::rtf::{run_rtf, RtfResult};
use spam::rules::SpamProgram;
use spam::scene::Scene;
use std::sync::Arc;

/// A dataset prepared for experiments: scene generated, RTF executed.
pub struct Prepared {
    /// The dataset (spec + paper numbers).
    pub dataset: Dataset,
    /// The generated scene.
    pub scene: Arc<Scene>,
    /// The shared compiled program.
    pub sp: SpamProgram,
    /// RTF result.
    pub rtf: RtfResult,
    /// RTF fragments (input to LCC).
    pub fragments: Arc<Vec<FragmentHypothesis>>,
}

impl Prepared {
    /// Generates the scene and runs RTF for a dataset.
    pub fn new(dataset: Dataset) -> Prepared {
        let sp = SpamProgram::build();
        let scene = Arc::new(spam::generate_scene(&dataset.spec));
        let rtf = run_rtf(&sp, &scene);
        let fragments = Arc::new(rtf.fragments.clone());
        Prepared {
            dataset,
            scene,
            sp,
            rtf,
            fragments,
        }
    }

    /// Runs the LCC phase at `level`.
    pub fn lcc(&self, level: Level) -> LccPhaseResult {
        run_lcc(&self.sp, &self.scene, &self.fragments, level)
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Formats an `Option<f64>` paper value.
pub fn paper_f(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "n/a".into())
}

/// Formats an `Option<u64>`-ish paper value.
pub fn paper_u(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "n/a".into())
}

/// Renders a speed-up curve as `p: s` pairs on one line.
pub fn curve_line(curve: &[(u32, f64)]) -> String {
    curve
        .iter()
        .map(|(p, s)| format!("{p}:{s:.2}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// The `q`-quantile (`0 <= q <= 1`) of a sample, interpolating linearly
/// between order statistics — so `quantile(xs, 0.5)` of an even-sized
/// sample is the mean of its two middle values. Sorts a copy: the input
/// order is usually the measurement order. `xs` must not be empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (at - lo as f64)
}

/// Median of a sample ([`quantile`] at 0.5).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub mod plot;
