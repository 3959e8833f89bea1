//! The four workloads: their inputs, one interpretation of a scene with
//! either arm, and the oracle every round is checked against.

use spam::datasets::{dc, moff, sf, Dataset};
use spam::fa::{run_fa, FaResult, FunctionalArea};
use spam::fragments::FragmentHypothesis;
use spam::lcc::{run_lcc, ConsistentRec, LccPhaseResult, Level};
use spam::model::{run_model, ModelResult};
use spam::rtf::run_rtf;
use spam::rules::SpamProgram;
use spam::scene::{Region, Scene};
use spam_geometry::{Point, Polygon};
use spam_psm::exec::{ExecConfig, ExecReport};
use std::sync::Arc;
use std::time::Instant;
use tlp_fault::{FaultPlan, SupervisorConfig};
use tlp_obs::{Live, ObsLevel, Recorder};

/// Which runner the `par` arm calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParRunner {
    /// `run_parallel_lcc_exec`: the work-stealing pool, observers off.
    Pool,
    /// `run_parallel_lcc_scene`: the central queue (`spamctl run
    /// --workers N`'s path) with a full recorder and live registry.
    ObservedQueue,
}

/// One workload: the names are the contract with `BENCHMARK.json`.
pub struct Workload {
    pub name: &'static str,
    pub level: Level,
    datasets: &'static [fn() -> Dataset],
    pub par: ParRunner,
    /// `(tasks, LCC firings)` per scene at seed 0, pinned by the oracle;
    /// `None` pins the task count only.
    pinned: &'static [(usize, Option<u64>)],
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "level3",
        level: Level::L3,
        datasets: &[sf, dc, moff],
        par: ParRunner::Pool,
        pinned: &[(282, Some(11_601)), (148, Some(4_689)), (200, Some(7_821))],
    },
    Workload {
        name: "fine_l1",
        level: Level::L1,
        datasets: &[dc],
        par: ParRunner::Pool,
        pinned: &[(1_282, Some(1_536))],
    },
    Workload {
        name: "coarse_l4",
        level: Level::L4,
        datasets: &[sf, dc, moff],
        par: ParRunner::Pool,
        pinned: &[(10, None), (10, None), (10, None)],
    },
    Workload {
        name: "observed_l3",
        level: Level::L3,
        datasets: &[sf, dc, moff],
        par: ParRunner::ObservedQueue,
        pinned: &[(282, Some(11_601)), (148, Some(4_689)), (200, Some(7_821))],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What set-up builds: the compiled rule base and the generated scenes.
/// The product only ever sees these, never the seed.
pub struct Inputs {
    pub sp: SpamProgram,
    pub scenes: Vec<Arc<Scene>>,
}

impl Workload {
    /// One set-up: `SpamProgram::build()` plus `generate_scene` per scene,
    /// with `seed` XORed into each preset's own (0 = the canonical
    /// SF/DC/MOFF). Returns the inputs and `(build, generate)` seconds.
    pub fn set_up(&self, seed: u64) -> (Inputs, f64, f64) {
        let t = Instant::now();
        let sp = SpamProgram::build();
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let scenes = self
            .datasets
            .iter()
            .map(|d| Arc::new(present(spam::generate_scene(&d().spec), seed)))
            .collect();
        let generate_s = t.elapsed().as_secs_f64();
        (Inputs { sp, scenes }, build_s, generate_s)
    }
}

/// Another image of the same ground: the scene under a seeded rigid
/// motion (quarter-turns, a mirror, a translation in whole metres) with
/// its regions renumbered by a seeded permutation. Seed 0 is the scene
/// itself.
fn present(scene: Scene, seed: u64) -> Scene {
    if seed == 0 {
        return scene;
    }
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let (turns, mirror) = (next() % 4, next() % 2 == 1);
    let shift = |r: u64| (r % 8_193) as f64 - 4_096.0;
    let (dx, dy) = (shift(next()), shift(next()));
    let place = |p: &Point| {
        let (mut px, mut py) = (if mirror { -p.x } else { p.x }, p.y);
        for _ in 0..turns {
            (px, py) = (-py, px);
        }
        Point::new(px + dx, py + dy)
    };
    let mut order: Vec<usize> = (0..scene.regions.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let regions = order
        .iter()
        .enumerate()
        .map(|(id, &old)| {
            let r = &scene.regions[old];
            let ring = r.polygon.vertices().iter().map(place).collect();
            Region::new(id as u32, Polygon::new(ring), r.intensity, r.truth)
        })
        .collect();
    let mut moved = Scene::new(scene.name.clone(), regions);
    moved.domain = scene.domain;
    moved
}

/// Times named calls. The untraced pass reads the wall clock
/// ([`Wall`]); the traced pass records a span per call
/// ([`crate::spans::Tracer`]). `f` gets the clock back so calls nest.
pub trait Clock {
    /// Runs `f` as the call `name`; returns its result and nanoseconds.
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, u64);
}

/// The clock of the untraced pass: `Instant` and nothing else.
pub struct Wall;

impl Clock for Wall {
    fn timed<R>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, u64) {
        let t = Instant::now();
        let r = f(self);
        (r, t.elapsed().as_nanos() as u64)
    }
}

/// Wall nanoseconds of the four phases of one scene's interpretation.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseNs {
    pub rtf: u64,
    pub lcc: u64,
    pub fa: u64,
    pub model: u64,
}

impl PhaseNs {
    pub fn add(&mut self, o: &PhaseNs) {
        self.rtf += o.rtf;
        self.lcc += o.lcc;
        self.fa += o.fa;
        self.model += o.model;
    }
}

/// One scene interpreted end to end.
pub struct Interpretation {
    pub lcc: LccPhaseResult,
    pub fa: FaResult,
    pub model: ModelResult,
    pub phase_ns: PhaseNs,
}

/// `run_rtf` → `lcc` → `run_fa` → `run_model`, exactly as
/// `spam::run_pipeline_scene` chains them, with the LCC runner supplied
/// by the arm. `Err` carries the runner's own error.
pub fn interpret<C: Clock, E>(
    clock: &mut C,
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    lcc: impl FnOnce(&mut C, &Arc<Vec<FragmentHypothesis>>) -> Result<LccPhaseResult, E>,
) -> Result<Interpretation, E> {
    let (rtf_frags, rtf) = clock.timed("spam.rtf", |_| Arc::new(run_rtf(sp, scene).fragments));
    let (lcc, lcc_ns) = clock.timed("spam.lcc", |c| {
        lcc(c, &rtf_frags).map(|r| {
            let fragments = Arc::new(r.fragments.clone());
            (r, fragments)
        })
    });
    let (lcc, fragments) = lcc?;
    let (fa, fa_ns) = clock.timed("spam.fa", |_| {
        run_fa(sp, scene, &fragments, &lcc.consistents)
    });
    let (model, model_ns) = clock.timed("spam.model", |_| {
        run_model(sp, scene, &fragments, &fa.areas, &fa.members)
    });
    Ok(Interpretation {
        lcc,
        fa,
        model,
        phase_ns: PhaseNs {
            rtf,
            lcc: lcc_ns,
            fa: fa_ns,
            model: model_ns,
        },
    })
}

/// What the `par` arm's runner reported besides the phase result.
#[derive(Default)]
pub struct ParSide {
    /// The pool's measured schedule ([`ParRunner::Pool`] only).
    pub exec: Option<ExecReport>,
    /// Wall nanoseconds of the runner call itself.
    pub runner_ns: u64,
    /// From the runner's `TaskReport`: summed queue wait, attempts,
    /// retries and dead letters.
    pub queue_wait_ms: f64,
    pub attempts: u64,
    pub retries: u64,
    pub dead_letters: u64,
    /// Recorder events and live series ([`ParRunner::ObservedQueue`]).
    pub recorder_events: usize,
    pub live_series: usize,
}

/// The `par` arm's LCC: the workload's parallel runner at `workers`
/// threads, as the call `core.par_phase`. `observe = false` detaches the
/// observers from the central queue (the `obs.overhead_ratio`
/// denominator); the pool never has any.
pub fn par_lcc<C: Clock>(
    clock: &mut C,
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    frags: &Arc<Vec<FragmentHypothesis>>,
    w: &Workload,
    workers: usize,
    observe: bool,
) -> Result<(LccPhaseResult, ParSide), String> {
    let mut side = ParSide::default();
    let (cfg, plan) = (SupervisorConfig::default(), FaultPlan::none());
    let (phase, runner_ns) = clock.timed("core.par_phase", |_| match w.par {
        ParRunner::Pool => spam_psm::run_parallel_lcc_exec(
            sp,
            scene,
            frags,
            w.level,
            &ExecConfig::new(workers),
            &cfg,
            &plan,
            &Recorder::off(),
            &Live::off(),
            None,
            None,
        )
        .map(|(phase, exec)| {
            side.exec = Some(exec);
            phase
        }),
        ParRunner::ObservedQueue => {
            let (rec, live) = if observe {
                (Recorder::new(ObsLevel::Full), Live::new(8))
            } else {
                (Recorder::off(), Live::off())
            };
            let phase = spam_psm::run_parallel_lcc_scene(
                sp, scene, frags, w.level, workers, &cfg, &plan, &rec, &live, None, None,
            );
            side.recorder_events = rec.len();
            side.live_series = live.snapshot().series.len();
            phase
        }
    });
    let phase = phase.map_err(|e| e.to_string())?;
    side.runner_ns = runner_ns;
    side.queue_wait_ms = phase
        .report
        .outcomes
        .iter()
        .map(|o| o.queue_wait.as_secs_f64() * 1e3)
        .sum();
    side.attempts = phase
        .report
        .outcomes
        .iter()
        .map(|o| o.attempts as u64)
        .sum();
    side.retries = phase.report.total_retries() as u64;
    side.dead_letters = phase.report.dead_letters().len() as u64;
    Ok((phase, side))
}

/// The `seq` arm's LCC: `spam::lcc::run_lcc`.
pub fn seq_lcc(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    frags: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
) -> Result<LccPhaseResult, String> {
    Ok(run_lcc(sp, scene, frags, level))
}

/// One untraced sequential interpretation (the oracle's own).
fn seq(sp: &SpamProgram, scene: &Arc<Scene>, level: Level) -> Interpretation {
    interpret(&mut Wall, sp, scene, |_, frags| {
        seq_lcc(sp, scene, frags, level)
    })
    .expect("run_lcc cannot fail")
}

/// Everything a round's output must reproduce bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub tasks: usize,
    pub lcc_firings: u64,
    pub lcc_units: u64,
    /// Post-LCC fragments (the accumulated supports).
    pub fragments: Vec<FragmentHypothesis>,
    pub consistents: Vec<ConsistentRec>,
    pub areas: Vec<FunctionalArea>,
    pub selected: Vec<i64>,
    pub score: i64,
    pub models: usize,
}

impl Fingerprint {
    pub fn of(i: &Interpretation) -> Fingerprint {
        Fingerprint {
            tasks: i.lcc.units.len(),
            lcc_firings: i.lcc.firings,
            lcc_units: i.lcc.work.total_units(),
            fragments: i.lcc.fragments.clone(),
            consistents: i.lcc.consistents.clone(),
            areas: i.fa.areas.clone(),
            selected: i.model.selected.clone(),
            score: i.model.score,
            models: i.model.models,
        }
    }
}

/// The sequential reference per scene, computed once at set-up.
pub struct Oracle {
    pub scenes: Vec<Fingerprint>,
}

impl Oracle {
    /// Interprets every scene sequentially and checks the reference
    /// itself: exactly one scene model each, and at seed 0 the pinned
    /// task counts and firings.
    pub fn build(w: &Workload, inputs: &Inputs, seed: u64) -> Result<Oracle, String> {
        let scenes: Vec<Fingerprint> = inputs
            .scenes
            .iter()
            .map(|s| Fingerprint::of(&seq(&inputs.sp, s, w.level)))
            .collect();
        for (i, f) in scenes.iter().enumerate() {
            let name = &inputs.scenes[i].name;
            if f.models != 1 {
                return Err(format!("{name}: {} scene models, want 1", f.models));
            }
            if seed == 0 {
                let (tasks, firings) = w.pinned[i];
                if f.tasks != tasks || firings.is_some_and(|n| n != f.lcc_firings) {
                    return Err(format!(
                        "{name}: {} tasks / {} firings, pinned {tasks} / {firings:?}",
                        f.tasks, f.lcc_firings
                    ));
                }
            }
        }
        Ok(Oracle { scenes })
    }

    /// Whether scene `i`'s interpretation is the reference, bit for bit.
    pub fn matches(&self, i: usize, interp: &Interpretation) -> bool {
        self.scenes[i] == Fingerprint::of(interp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(s: &Scene) -> Vec<Vec<spam_geometry::Point>> {
        s.regions
            .iter()
            .map(|r| r.polygon.vertices().to_vec())
            .collect()
    }

    fn par(
        inputs: &Inputs,
        scene: usize,
        w: &Workload,
        observe: bool,
    ) -> (Interpretation, ParSide) {
        let (sp, scene) = (&inputs.sp, &inputs.scenes[scene]);
        let mut side = None;
        let interp = interpret(&mut Wall, sp, scene, |c, frags| {
            par_lcc(c, sp, scene, frags, w, 2, observe).map(|(p, s)| {
                side = Some(s);
                p
            })
        })
        .unwrap();
        (interp, side.unwrap())
    }

    #[test]
    fn seed_zero_is_canonical_and_other_seeds_change_the_scene() {
        let w = find("fine_l1").unwrap();
        let (a, _, _) = w.set_up(0);
        let (b, _, _) = w.set_up(0);
        let (c, _, _) = w.set_up(1);
        let canonical = spam::generate_scene(&dc().spec);
        assert_eq!(shape(&a.scenes[0]), shape(&canonical));
        assert_eq!(shape(&a.scenes[0]), shape(&b.scenes[0]));
        assert_ne!(shape(&a.scenes[0]), shape(&c.scenes[0]));
    }

    #[test]
    fn oracle_accepts_both_arms_and_rejects_a_changed_output() {
        let w = find("coarse_l4").unwrap();
        let (inputs, _, _) = w.set_up(0);
        let oracle = Oracle::build(w, &inputs, 0).unwrap();
        let mut s = seq(&inputs.sp, &inputs.scenes[1], w.level);
        assert!(oracle.matches(1, &s));
        let (p, side) = par(&inputs, 1, w, true);
        assert!(oracle.matches(1, &p));
        assert!(side.exec.is_some() && side.recorder_events == 0);
        assert_eq!((side.attempts, side.retries, side.dead_letters), (10, 0, 0));
        s.lcc.fragments[0].support += 1;
        assert!(!oracle.matches(1, &s));
        assert!(!oracle.matches(0, &p), "another scene's reference");
    }

    #[test]
    fn oracle_pins_the_canonical_task_counts_and_firings() {
        let w = find("fine_l1").unwrap();
        let (inputs, _, _) = w.set_up(0);
        let oracle = Oracle::build(w, &inputs, 0).unwrap();
        assert_eq!(oracle.scenes[0].tasks, 1_282);
        assert_eq!(oracle.scenes[0].lcc_firings, 1_536);
        // The same scene under another workload's pins must be refused.
        let l3 = find("level3").unwrap();
        assert!(Oracle::build(l3, &inputs, 0).is_err());
    }

    #[test]
    fn observed_queue_records_events_only_when_observed() {
        let w = find("observed_l3").unwrap();
        let (inputs, _, _) = w.set_up(0);
        let (_, on) = par(&inputs, 1, w, true);
        let (_, off) = par(&inputs, 1, w, false);
        assert!(on.recorder_events > 0 && on.live_series > 0 && on.exec.is_none());
        assert_eq!((off.recorder_events, off.live_series), (0, 0));
    }
}
