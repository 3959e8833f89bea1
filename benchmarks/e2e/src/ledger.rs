//! The untraced pass: set-up, oracle, and the closed loop of rounds the
//! end-to-end metrics come from.

use crate::calib::{kernel_ms, normalise};
use crate::host::{peak_rss_mb, Host};
use crate::stats::{median, Summary};
use crate::workload::{
    interpret, par_lcc, seq_lcc, Clock, Inputs, Oracle, ParSide, PhaseNs, Wall, Workload,
};
use crate::{Metric, Outcome, END_TO_END};
use spam::fragments::FragmentHypothesis;
use spam::lcc::LccPhaseResult;
use spam::scene::Scene;
use std::sync::Arc;
use std::time::Instant;

/// Timed set-ups per run (after one warm call); `--quick` takes fewer.
const SETUP_REPS: usize = 20;
const SETUP_REPS_QUICK: usize = 3;

/// Rounds of `--quick`, whatever `--seconds` says.
pub const QUICK_ROUNDS: u64 = 2;

/// Set-up, measured: the inputs of the last repetition and, per
/// repetition, the `(build, generate)` seconds and the reference
/// kernel's milliseconds before and after.
pub struct SetUp {
    pub inputs: Inputs,
    pub build_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub calibs: Vec<f64>,
}

impl SetUp {
    pub fn measure(w: &Workload, seed: u64, quick: bool) -> SetUp {
        let reps = if quick { SETUP_REPS_QUICK } else { SETUP_REPS };
        // One warm call: the first build pays for interning every symbol
        // of the rule base, which no later build in this process repeats.
        let (mut inputs, _, _) = w.set_up(seed);
        let (mut build_s, mut generate_s) = (Vec::new(), Vec::new());
        let mut calibs = vec![kernel_ms()];
        for _ in 0..reps {
            let (i, b, g) = w.set_up(seed);
            calibs.push(kernel_ms());
            inputs = i;
            build_s.push(b);
            generate_s.push(g);
        }
        SetUp {
            inputs,
            build_s,
            generate_s,
            calibs,
        }
    }

    /// The `setup_s` samples: build + generate per repetition, normalised.
    pub fn total_s(&self) -> Vec<f64> {
        (0..self.build_s.len())
            .map(|i| {
                let wall = self.build_s[i] + self.generate_s[i];
                normalise(wall, self.calibs[i], self.calibs[i + 1])
            })
            .collect()
    }
}

/// One arm of one round, timed as a whole and checked afterwards.
pub struct ArmRun {
    pub wall_ms: f64,
    /// Every scene's output was the oracle's, bit for bit.
    pub ok: bool,
    /// Phase times summed over the scenes.
    pub phase_ns: PhaseNs,
}

/// Runs one arm as the call `name`: every scene of the workload
/// interpreted end to end once, its LCC phase by `lcc`, which may hand
/// back something of its own per scene. Outputs are compared with the
/// oracle after the clock has stopped; an `lcc` error fails the arm.
pub fn arm<C: Clock, S>(
    clock: &mut C,
    name: &'static str,
    inputs: &Inputs,
    oracle: &Oracle,
    mut lcc: impl FnMut(
        &mut C,
        &Arc<Scene>,
        &Arc<Vec<FragmentHypothesis>>,
    ) -> Result<(LccPhaseResult, S), String>,
) -> (ArmRun, Vec<S>) {
    let (runs, ns) = clock.timed(name, |c| {
        let mut runs = Vec::with_capacity(inputs.scenes.len());
        for scene in &inputs.scenes {
            let mut side = None;
            let (interp, _) = c.timed("scene", |c| {
                interpret(c, &inputs.sp, scene, |c, frags| {
                    lcc(c, scene, frags).map(|(phase, s)| {
                        side = Some(s);
                        phase
                    })
                })
            });
            runs.push((interp, side));
        }
        runs
    });
    let mut run = ArmRun {
        wall_ms: ns as f64 / 1e6,
        ok: true,
        phase_ns: PhaseNs::default(),
    };
    let mut sides = Vec::new();
    for (i, (interp, side)) in runs.into_iter().enumerate() {
        match interp {
            Ok(interp) => {
                run.phase_ns.add(&interp.phase_ns);
                run.ok &= oracle.matches(i, &interp);
                sides.extend(side);
            }
            Err(e) => {
                eprintln!("{name}: scene {i} failed: {e}");
                run.ok = false;
            }
        }
    }
    (run, sides)
}

/// The `seq` arm: `spam::lcc::run_lcc`.
pub fn seq_arm<C: Clock>(clock: &mut C, w: &Workload, inputs: &Inputs, oracle: &Oracle) -> ArmRun {
    arm(clock, "seq_round", inputs, oracle, |_, scene, frags| {
        seq_lcc(&inputs.sp, scene, frags, w.level).map(|p| (p, ()))
    })
    .0
}

/// The `par` arm: the workload's parallel runner, plus what each scene's
/// runner reported.
pub fn par_arm<C: Clock>(
    clock: &mut C,
    w: &Workload,
    inputs: &Inputs,
    oracle: &Oracle,
    workers: usize,
    observe: bool,
) -> (ArmRun, Vec<ParSide>) {
    arm(clock, "par_round", inputs, oracle, |c, scene, frags| {
        par_lcc(c, &inputs.sp, scene, frags, w, workers, observe)
    })
}

/// The oracle plus one unrecorded `par` arm, so lazy allocation and
/// thread start-up are behind us before anything is timed. Returns the
/// oracle and the seconds this took (`harness.warmup_s`, reported apart
/// from `setup_s`).
pub fn warm_up(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    host: &Host,
) -> Result<(Oracle, f64), String> {
    let t = Instant::now();
    let oracle = Oracle::build(w, inputs, seed)?;
    let (warm, _) = par_arm(&mut Wall, w, inputs, &oracle, host.workers, true);
    if !warm.ok {
        return Err("the par arm does not reproduce the sequential reference".into());
    }
    Ok((oracle, t.elapsed().as_secs_f64()))
}

/// Runs the untraced pass of `w` and returns the end-to-end metrics.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    quick: bool,
    host: &Host,
) -> Result<Outcome, String> {
    let setup = SetUp::measure(w, seed, quick);
    let setup_s = Summary::of(&setup.total_s());
    let inputs = &setup.inputs;
    let (oracle, warmup_s) = warm_up(w, inputs, seed, host)?;

    // Closed loop, one client: rounds back to back, each arm once per
    // round, order alternating, the kernel timed around every sample.
    const SEQ: usize = 0;
    const PAR: usize = 1;
    let mut raw_ms: [Vec<f64>; 2] = Default::default();
    let mut norm_ms: [Vec<f64>; 2] = Default::default();
    let mut calibs = setup.calibs.clone();
    let (mut rounds, mut failed) = (0u64, 0u64);
    let t0 = Instant::now();
    loop {
        let order = if rounds % 2 == 0 {
            [SEQ, PAR]
        } else {
            [PAR, SEQ]
        };
        let mut before = kernel_ms();
        calibs.push(before);
        let mut ok = true;
        for which in order {
            let run = if which == SEQ {
                seq_arm(&mut Wall, w, inputs, &oracle)
            } else {
                par_arm(&mut Wall, w, inputs, &oracle, host.workers, true).0
            };
            let after = kernel_ms();
            calibs.push(after);
            raw_ms[which].push(run.wall_ms);
            norm_ms[which].push(normalise(run.wall_ms, before, after));
            ok &= run.ok;
            before = after;
        }
        rounds += 1;
        failed += u64::from(!ok);
        let more = if quick {
            rounds < QUICK_ROUNDS
        } else {
            t0.elapsed().as_secs() < seconds
        };
        if !more {
            break;
        }
    }
    let timed_s = t0.elapsed().as_secs_f64();

    let (seq, par) = (Summary::of(&norm_ms[SEQ]), Summary::of(&norm_ms[PAR]));
    // Paired: each round's own two arms, so drift between rounds cancels.
    let speedups: Vec<f64> = norm_ms[SEQ]
        .iter()
        .zip(&norm_ms[PAR])
        .map(|(s, p)| s / p)
        .collect();
    let speedup = Summary::of(&speedups);
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    host.print(median(&calibs));
    println!("harness.warmup_s = {warmup_s:.3}");
    println!("harness.timed_s = {timed_s:.3}");
    println!("rounds_attempted = {rounds}");
    println!("failed_rounds = {failed}");
    println!("setup_s normalised: {}", setup_s.render("s"));
    println!("seq_round_ms normalised: {}", seq.render("ms"));
    println!(
        "seq_round_ms raw:        {}",
        Summary::of(&raw_ms[SEQ]).render("ms")
    );
    println!("par_round_ms normalised: {}", par.render("ms"));
    println!(
        "par_round_ms raw:        {}",
        Summary::of(&raw_ms[PAR]).render("ms")
    );
    println!("calib_ms: {}", Summary::of(&calibs).render("ms"));
    println!(
        "tlp_speedup per round, seq / par: {} at {} workers (base: the same round's seq arm){}",
        speedup.render("x"),
        host.workers,
        if host.single_core() {
            "  host.single_core = true: one core, not a parallel speed-up"
        } else {
            ""
        }
    );
    println!("peak_rss_mb = {rss:.2} MB");

    Ok(Outcome {
        attempted: rounds,
        failed,
        metrics: END_TO_END
            .iter()
            .zip([setup_s.p50, seq.p50, par.p50, speedup.p50, rss])
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect(),
    })
}
