//! The unoptimised-baseline comparison (§6).
//!
//! "The original SPAM system is implemented in Lisp, using an unoptimized
//! Lisp-based OPS5. ... We ported this entire system to C and ParaOPS5 and
//! replaced the forked computational processes with C function calls. This
//! baseline system itself provides approximately a 10-20 fold speed-up over
//! the original Lisp-based implementation."
//!
//! Stand-in: the engine's naive-match backend re-matches every production
//! from scratch on each WM change (the unoptimised cost profile — per
//! change, not per conflict-set feed, of which a firing has one), while the
//! optimised baseline uses the incremental Rete. Both run the *same* LCC
//! tasks; the ratio of their deterministic work counts is the port factor.

use ops5::matcher::NaiveMatcher;
use ops5::Engine;
use spam::externals::{register, ExternalCtx};
use spam::fragments::FragmentHypothesis;
use spam::lcc::{decompose, load_unit_wm, run_lcc_unit, LccUnit, Level, LCC_ID_BASE};
use spam::rules::{enter_phase, SpamProgram};
use spam::scene::Scene;
use spam::task::TaskProcess;
use std::sync::Arc;

/// Result of the port-factor measurement.
#[derive(Clone, Copy, Debug)]
pub struct PortFactor {
    /// Total work units of the naive ("Lisp") configuration.
    pub naive_units: u64,
    /// Total work units of the Rete ("C/ParaOPS5") configuration.
    pub rete_units: u64,
}

impl PortFactor {
    /// The speed-up factor of the port.
    pub fn factor(&self) -> f64 {
        self.naive_units as f64 / self.rete_units as f64
    }
}

/// Runs `max_tasks` Level-3 LCC tasks under both matchers and reports the
/// work ratio. (A slice keeps the naive configuration's quadratic blow-up
/// affordable — the ratio is stable across slices.)
pub fn port_factor(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    max_tasks: usize,
) -> PortFactor {
    let units = decompose(scene, fragments, Level::L3);
    let slice: Vec<&LccUnit> = units.iter().take(max_tasks).collect();

    let mut naive_units = 0;
    let mut rete_units = 0;
    for unit in slice {
        let fast = run_one(sp, scene, fragments, unit, false);
        let slow = run_one(sp, scene, fragments, unit, true);
        assert_eq!(
            fast.1, slow.1,
            "both matchers must fire identically on {unit:?}"
        );
        rete_units += fast.0;
        naive_units += slow.0;
    }
    PortFactor {
        naive_units,
        rete_units,
    }
}

fn run_one(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    unit: &LccUnit,
    naive: bool,
) -> (u64, u64) {
    if !naive {
        let r = TaskProcess::with_thread(|tp| run_lcc_unit(tp, sp, scene, fragments, unit));
        return (r.work.total_units(), r.firings);
    }
    // The same task on the naive matcher — an engine no task process
    // builds, so its steps are spelt out.
    let m = NaiveMatcher::new(Arc::clone(&sp.program), Arc::clone(&sp.compiled));
    let mut e = Engine::with_matcher(
        Arc::clone(&sp.program),
        Arc::clone(&sp.compiled),
        Box::new(m),
    );
    register(
        &mut e,
        ExternalCtx {
            scene: Arc::clone(scene),
            fragments: Arc::clone(fragments),
            id_base: LCC_ID_BASE,
        },
    );
    enter_phase(&mut e, ops5::static_sym!("lcc"));
    load_unit_wm(&mut e, scene, fragments, unit);
    let out = e.run(1_000_000);
    assert!(out.quiescent(), "{out:?}");
    (e.work().total_units(), out.firings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spam::rtf::run_rtf;

    #[test]
    fn port_factor_is_large() {
        let sp = SpamProgram::build();
        let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
        let rtf = run_rtf(&sp, &scene);
        let frags = Arc::new(rtf.fragments);
        let pf = port_factor(&sp, &scene, &frags, 8);
        let f = pf.factor();
        assert!(
            f > 4.0,
            "the Rete port should win by a large factor, got {f:.1}"
        );
        // To the unit: the naive side pays one full re-match per WME change
        // and the Rete side one conflict operation per emission, whenever
        // and however often the engine feeds its conflict set. (The naive
        // side also depends on the *order* working memory is loaded in — a
        // re-match costs what is in WM at the time — and read 7 548 503
        // while the 56 constraint records went in after the fragments and
        // `near` elements instead of before them; the Rete side does not.)
        assert_eq!((pf.naive_units, pf.rete_units), (6_546_327, 382_808));
    }
}
