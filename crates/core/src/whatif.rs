//! Causal what-if profiling on recorded traces (TASKPROF-style).
//!
//! The attribution layer (`crate::attribution`) explains where time *went*;
//! this module predicts where time *could go*. Given a recorded
//! [`PhaseTrace`] and (optionally) a per-production [`MatchProfile`], it
//! applies a **virtual speedup** of X% to a selected [`Target`] — a single
//! production's match cost, one task, the whole decomposition level, a gap
//! component of the scheduler, or the whole-phase match fraction — then
//! re-simulates under the same cost model and reports how the makespan, the
//! critical chain, and the gap decomposition move. Ranked over a candidate
//! set this becomes the "optimize this next" report behind `spamctl whatif`,
//! with a diminishing-returns curve (X ∈ {10, 25, 50, 75, 100}%) per
//! candidate.
//!
//! The predictions are *causal* in the profiler sense: nothing is
//! extrapolated from percentages alone — the perturbed workload is replayed
//! through the discrete-event scheduler, so queueing, tail-end, and
//! overhead effects all respond to the perturbation. `bench_whatif`
//! validates the whole chain against a real optimization: replaying the
//! unshared-Rete trace with match virtually sped up by the measured sharing
//! ratio must land within a gated tolerance of the measured shared run.

use crate::attribution::{critical_path_of, perturbed_attribution, CriticalPath, GapAttribution};
use crate::trace::PhaseTrace;
use multimax_sim::{simulate, speedup_curve, SimConfig, SpeedupPoint, Task, TaskSet};
use ops5::MatchProfile;
use std::fmt;
use tlp_obs::json::Json;

/// The diminishing-returns curve sampled for every candidate.
pub const CURVE_SCALES: [f64; 5] = [10.0, 25.0, 50.0, 75.0, 100.0];

/// A gap component the scheduler's cost model can virtually shrink.
///
/// Only *actionable* components are targets: fork and dequeue are direct
/// cost-model knobs; queue-wait and idle/tail are emergent (they shrink as
/// a *consequence* of other perturbations and cannot be dialled directly),
/// and fault time only exists under an injected plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GapComponent {
    /// Per-task-process fork / initialisation cost.
    Fork,
    /// Per-task dequeue critical section.
    Dequeue,
}

impl GapComponent {
    /// The component's report name.
    pub fn name(self) -> &'static str {
        match self {
            GapComponent::Fork => "fork",
            GapComponent::Dequeue => "dequeue",
        }
    }
}

/// What the virtual speedup applies to.
#[derive(Clone, Debug, PartialEq)]
pub enum Target {
    /// The whole-phase match component: every task's match fraction.
    Match,
    /// One production's share of the match work (needs a profile).
    Production(String),
    /// One task's entire service time.
    Task(u32),
    /// Every task in the recorded decomposition level. A [`PhaseTrace`] is
    /// recorded at a single level, so this scales the whole task set; the
    /// CLI checks the requested number names the level actually recorded.
    Level(u32),
    /// A scheduler cost-model component.
    Component(GapComponent),
}

impl Target {
    /// Parses the `spamctl whatif --target` syntax:
    /// `match | prod:<name> | task:<id> | level:<n> | component:<fork|dequeue>`.
    pub fn parse(s: &str) -> Result<Target, String> {
        if s == "match" {
            return Ok(Target::Match);
        }
        if let Some(name) = s.strip_prefix("prod:") {
            if name.is_empty() {
                return Err("prod: needs a production name".into());
            }
            return Ok(Target::Production(name.to_string()));
        }
        if let Some(id) = s.strip_prefix("task:") {
            let id = id.parse().map_err(|e| format!("bad task id '{id}': {e}"))?;
            return Ok(Target::Task(id));
        }
        if let Some(n) = s.strip_prefix("level:") {
            let n: u32 = n.parse().map_err(|e| format!("bad level '{n}': {e}"))?;
            if !(1..=4).contains(&n) {
                return Err(format!("level:{n} out of range (1..=4)"));
            }
            return Ok(Target::Level(n));
        }
        if let Some(c) = s.strip_prefix("component:") {
            return match c {
                "fork" => Ok(Target::Component(GapComponent::Fork)),
                "dequeue" => Ok(Target::Component(GapComponent::Dequeue)),
                "queue-wait" | "idle" | "idle/tail" | "fault" => Err(format!(
                    "component:{c} is not directly actionable — queue-wait, idle/tail and \
                     fault time are consequences of the schedule, not cost-model knobs; \
                     try component:fork, component:dequeue, or a prod:/task:/match target"
                )),
                other => Err(format!("unknown component '{other}' (want fork|dequeue)")),
            };
        }
        Err(format!(
            "bad target '{s}' (want match | prod:<name> | task:<id> | level:<n> | \
             component:<fork|dequeue>)"
        ))
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Match => write!(f, "match"),
            Target::Production(n) => write!(f, "prod:{n}"),
            Target::Task(id) => write!(f, "task:{id}"),
            Target::Level(n) => write!(f, "level:{n}"),
            Target::Component(c) => write!(f, "component:{}", c.name()),
        }
    }
}

/// A virtually-perturbed workload: the task set and configuration to
/// re-simulate. Produced by [`apply_virtual_speedup`].
#[derive(Clone, Debug)]
pub struct Perturbed {
    /// The (possibly rescaled) task set.
    pub tasks: TaskSet,
    /// The (possibly rescaled) cost model.
    pub cfg: SimConfig,
}

/// Scales a task's match component by `s ∈ [0, 1]`, keeping the non-match
/// component fixed — the Amdahl decomposition the simulator itself uses.
fn scale_match(t: &Task, s: f64) -> Task {
    // Bit-exact identity at s = 1: `(service − m) + m` is not guaranteed
    // to round back to `service`, and a 0% what-if must be a true no-op.
    if s == 1.0 {
        return *t;
    }
    let m = t.service * t.match_fraction;
    let rest = t.service - m;
    let service = rest + m * s;
    let mf = if service > 0.0 {
        (m * s / service).clamp(0.0, 1.0)
    } else {
        0.0
    };
    Task::with_match(t.id, service, mf)
}

/// Applies a virtual speedup of `pct`% (`0..=100`) to `target`, returning
/// the perturbed workload to re-simulate. `pct = 0` is the identity;
/// `pct = 100` removes the target's cost entirely.
///
/// Production targets need `profile`; the production's share of the total
/// match work (a lower bound — shared alpha work is not credited, see
/// [`MatchProfile::production_match_share`]) scales every task's match
/// component, since per-production cost is not recorded per task.
pub fn apply_virtual_speedup(
    trace: &PhaseTrace,
    profile: Option<&MatchProfile>,
    cfg: &SimConfig,
    target: &Target,
    pct: f64,
) -> Result<Perturbed, String> {
    if !(0.0..=100.0).contains(&pct) || !pct.is_finite() {
        return Err(format!("scale {pct}% out of range (0..=100)"));
    }
    let s = 1.0 - pct / 100.0;
    let tasks = &trace.tasks.tasks;
    let (tasks, cfg) = match target {
        Target::Match => (tasks.iter().map(|t| scale_match(t, s)).collect(), *cfg),
        Target::Production(name) => {
            let profile = profile.ok_or("prod: targets need a match profile")?;
            let idx = profile
                .find_production(name)
                .ok_or_else(|| format!("no production named '{name}' in the profile"))?;
            let share = profile.production_match_share(idx);
            // The production owns `share` of the match work: removing
            // pct% of *its* cost scales the match component by this.
            let sp = 1.0 - share * pct / 100.0;
            (tasks.iter().map(|t| scale_match(t, sp)).collect(), *cfg)
        }
        Target::Task(id) => {
            if !tasks.iter().any(|t| t.id == *id) {
                return Err(format!("no task {id} in the trace"));
            }
            (
                tasks
                    .iter()
                    .map(|t| {
                        if t.id == *id {
                            Task::with_match(t.id, t.service * s, t.match_fraction)
                        } else {
                            *t
                        }
                    })
                    .collect(),
                *cfg,
            )
        }
        Target::Level(_) => (
            tasks
                .iter()
                .map(|t| Task::with_match(t.id, t.service * s, t.match_fraction))
                .collect(),
            *cfg,
        ),
        Target::Component(c) => {
            let mut cfg = *cfg;
            match c {
                GapComponent::Fork => cfg.fork_overhead *= s,
                GapComponent::Dequeue => cfg.dequeue_overhead *= s,
            }
            (tasks.clone(), cfg)
        }
    };
    Ok(Perturbed {
        tasks: TaskSet::new(tasks),
        cfg,
    })
}

/// One causal prediction: the re-simulated outcome of a virtual speedup.
#[derive(Clone, Debug)]
pub struct WhatifPrediction {
    /// The target, rendered (`prod:mh-…`, `match`, …).
    pub target: String,
    /// Virtual speedup percentage applied (0..=100).
    pub scale_pct: f64,
    /// Task-process count both runs were simulated at.
    pub workers: u32,
    /// Unperturbed makespan at `workers` (seconds).
    pub base_makespan: f64,
    /// Predicted makespan after the virtual speedup (seconds).
    pub predicted_makespan: f64,
    /// Critical chain of the unperturbed workload.
    pub base_critical: CriticalPath,
    /// Critical chain after the virtual speedup.
    pub critical: CriticalPath,
    /// Full gap decomposition of the perturbed run.
    pub attribution: GapAttribution,
}

impl WhatifPrediction {
    /// Predicted wall-clock saving, seconds (≥ 0 up to float rounding).
    pub fn saved(&self) -> f64 {
        self.base_makespan - self.predicted_makespan
    }

    /// Predicted saving as a fraction of the base makespan, in percent.
    pub fn saved_pct(&self) -> f64 {
        if self.base_makespan <= 0.0 {
            return 0.0;
        }
        100.0 * self.saved() / self.base_makespan
    }

    /// Predicted phase speedup, `base / predicted`.
    pub fn speedup(&self) -> f64 {
        if self.predicted_makespan <= 0.0 {
            return 0.0;
        }
        self.base_makespan / self.predicted_makespan
    }
}

/// Predicts the effect of virtually speeding `target` up by `pct`% on the
/// recorded `trace` under `cfg`: perturbs the workload, replays it through
/// the scheduler, and re-runs the attribution. The whatif entry point.
pub fn predict(
    trace: &PhaseTrace,
    profile: Option<&MatchProfile>,
    cfg: &SimConfig,
    target: &Target,
    pct: f64,
) -> Result<WhatifPrediction, String> {
    let p = apply_virtual_speedup(trace, profile, cfg, target, pct)?;
    let base_makespan = simulate(cfg, &trace.tasks.tasks).makespan;
    let (attribution, critical) = perturbed_attribution(&p.tasks, &p.cfg);
    Ok(WhatifPrediction {
        target: target.to_string(),
        scale_pct: pct,
        workers: cfg.task_processes,
        base_makespan,
        predicted_makespan: attribution.makespan,
        base_critical: critical_path_of(&trace.tasks.tasks, cfg),
        critical,
        attribution,
    })
}

/// One point of a diminishing-returns curve.
#[derive(Clone, Copy, Debug)]
pub struct CurvePoint {
    /// Virtual speedup percentage.
    pub scale_pct: f64,
    /// Predicted makespan at that speedup (seconds).
    pub predicted_makespan: f64,
    /// Predicted saving over the unperturbed makespan (seconds).
    pub saved: f64,
}

/// Samples the diminishing-returns curve for `target` at [`CURVE_SCALES`].
pub fn diminishing_returns(
    trace: &PhaseTrace,
    profile: Option<&MatchProfile>,
    cfg: &SimConfig,
    target: &Target,
) -> Result<Vec<CurvePoint>, String> {
    let base = simulate(cfg, &trace.tasks.tasks).makespan;
    CURVE_SCALES
        .iter()
        .map(|&pct| {
            let p = apply_virtual_speedup(trace, profile, cfg, target, pct)?;
            let predicted = simulate(&p.cfg, &p.tasks.tasks).makespan;
            Ok(CurvePoint {
                scale_pct: pct,
                predicted_makespan: predicted,
                saved: base - predicted,
            })
        })
        .collect()
}

/// One ranked candidate of a [`WhatifReport`].
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The target.
    pub target: Target,
    /// Prediction at the report's reference scale.
    pub prediction: WhatifPrediction,
    /// Diminishing-returns curve at [`CURVE_SCALES`].
    pub curve: Vec<CurvePoint>,
}

/// The ranked "optimize this next" report behind `spamctl whatif`.
#[derive(Clone, Debug)]
pub struct WhatifReport {
    /// Dataset name (e.g. `DC`).
    pub dataset: String,
    /// Phase / level label (e.g. `LCC Level 4`).
    pub level: String,
    /// Task-process count the predictions are simulated at.
    pub workers: u32,
    /// Reference virtual-speedup percentage candidates are ranked at.
    pub scale_pct: f64,
    /// Unperturbed makespan at `workers` (seconds).
    pub base_makespan: f64,
    /// Critical chain of the unperturbed workload.
    pub base_critical: CriticalPath,
    /// Candidates ranked by predicted saving at `scale_pct`, descending.
    pub candidates: Vec<Candidate>,
    /// TLP speedup curve of the unperturbed workload, 1..=`workers`.
    pub base_curve: Vec<SpeedupPoint>,
    /// TLP speedup curve of the top candidate's perturbed workload.
    pub best_curve: Vec<SpeedupPoint>,
}

/// Builds the candidate list for a ranked report: the whole-phase match
/// component, the `top` hottest productions by match cost (when a profile
/// is available), both actionable cost-model components, and the critical
/// task chain's task.
fn candidate_targets(
    trace: &PhaseTrace,
    profile: Option<&MatchProfile>,
    cfg: &SimConfig,
    top: usize,
) -> Vec<Target> {
    let mut targets = vec![Target::Match];
    if let Some(p) = profile {
        for (_, prod) in p.hot_productions(top) {
            if prod.match_units > 0 {
                targets.push(Target::Production(prod.name.clone()));
            }
        }
    }
    targets.push(Target::Component(GapComponent::Fork));
    targets.push(Target::Component(GapComponent::Dequeue));
    if !trace.tasks.is_empty() {
        targets.push(Target::Task(critical_path_of(&trace.tasks.tasks, cfg).task));
    }
    targets
}

/// Builds a ranked [`WhatifReport`]: evaluates every candidate at
/// `scale_pct`, samples its diminishing-returns curve, and sorts by
/// predicted saving. `top` bounds the productions considered (when a
/// profile is available).
pub fn build_whatif_report(
    dataset: impl Into<String>,
    level: impl Into<String>,
    trace: &PhaseTrace,
    profile: Option<&MatchProfile>,
    cfg: &SimConfig,
    scale_pct: f64,
    top: usize,
) -> Result<WhatifReport, String> {
    let targets = candidate_targets(trace, profile, cfg, top);
    build_report_for(dataset, level, trace, profile, cfg, scale_pct, &targets)
}

/// [`build_whatif_report`] over an explicit target list — the single-target
/// path of `spamctl whatif --target`.
pub fn build_report_for(
    dataset: impl Into<String>,
    level: impl Into<String>,
    trace: &PhaseTrace,
    profile: Option<&MatchProfile>,
    cfg: &SimConfig,
    scale_pct: f64,
    targets: &[Target],
) -> Result<WhatifReport, String> {
    let mut candidates = Vec::with_capacity(targets.len());
    for t in targets {
        candidates.push(Candidate {
            target: t.clone(),
            prediction: predict(trace, profile, cfg, t, scale_pct)?,
            curve: diminishing_returns(trace, profile, cfg, t)?,
        });
    }
    candidates.sort_by(|a, b| {
        b.prediction
            .saved()
            .total_cmp(&a.prediction.saved())
            .then_with(|| a.target.to_string().cmp(&b.target.to_string()))
    });

    let workers = cfg.task_processes;
    let base_curve = speedup_curve(
        |n| SimConfig {
            task_processes: n,
            ..*cfg
        },
        &trace.tasks,
        workers,
    );
    let best_curve = match candidates.first() {
        Some(c) => {
            let p = apply_virtual_speedup(trace, profile, cfg, &c.target, scale_pct)?;
            speedup_curve(
                |n| SimConfig {
                    task_processes: n,
                    ..p.cfg
                },
                &p.tasks,
                workers,
            )
        }
        None => Vec::new(),
    };
    Ok(WhatifReport {
        dataset: dataset.into(),
        level: level.into(),
        workers,
        scale_pct,
        base_makespan: simulate(cfg, &trace.tasks.tasks).makespan,
        base_critical: critical_path_of(&trace.tasks.tasks, cfg),
        candidates,
        base_curve,
        best_curve,
    })
}

impl WhatifReport {
    /// The machine-readable report (`spamctl whatif --json`,
    /// `bench_whatif`).
    pub fn to_json(&self) -> Json {
        let curve_json = |c: &[SpeedupPoint]| {
            Json::Arr(
                c.iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("n", Json::Num(p.n as f64)),
                            ("speedup", Json::Num(p.speedup)),
                            ("utilization", Json::Num(p.utilization)),
                        ])
                    })
                    .collect(),
            )
        };
        let candidates: Vec<Json> = self
            .candidates
            .iter()
            .map(|c| {
                let pred = &c.prediction;
                let comps: Vec<Json> = pred
                    .attribution
                    .components()
                    .iter()
                    .map(|(name, v)| {
                        Json::obj(vec![("name", Json::str(*name)), ("seconds", Json::Num(*v))])
                    })
                    .collect();
                let curve: Vec<Json> = c
                    .curve
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("scale_pct", Json::Num(p.scale_pct)),
                            ("predicted_makespan_s", Json::Num(p.predicted_makespan)),
                            ("saved_s", Json::Num(p.saved)),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("target", Json::str(pred.target.clone())),
                    ("predicted_makespan_s", Json::Num(pred.predicted_makespan)),
                    ("saved_s", Json::Num(pred.saved())),
                    ("saved_pct", Json::Num(pred.saved_pct())),
                    ("speedup", Json::Num(pred.speedup())),
                    (
                        "critical_path",
                        Json::obj(vec![
                            ("task", Json::Num(pred.critical.task as f64)),
                            ("length_s", Json::Num(pred.critical.length)),
                        ]),
                    ),
                    ("gap_components", Json::Arr(comps)),
                    ("curve", Json::Arr(curve)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("dataset", Json::str(self.dataset.clone())),
            ("level", Json::str(self.level.clone())),
            ("workers", Json::Num(self.workers as f64)),
            ("scale_pct", Json::Num(self.scale_pct)),
            ("base_makespan_s", Json::Num(self.base_makespan)),
            (
                "base_critical_path",
                Json::obj(vec![
                    ("task", Json::Num(self.base_critical.task as f64)),
                    ("length_s", Json::Num(self.base_critical.length)),
                ]),
            ),
            ("candidates", Json::Arr(candidates)),
            ("base_curve", curve_json(&self.base_curve)),
            ("best_curve", curve_json(&self.best_curve)),
        ])
    }
}

impl fmt::Display for WhatifReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "causal what-if — {} {} ({} task processes, base makespan {:.1}s, \
             critical chain task {} @ {:.1}s)",
            self.dataset,
            self.level,
            self.workers,
            self.base_makespan,
            self.base_critical.task,
            self.base_critical.length,
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "optimize this next (virtual speedup {:.0}%, ranked by predicted saving):",
            self.scale_pct
        )?;
        writeln!(
            f,
            "  {:<4} {:<28} {:>10} {:>8} {:>10} {:>9}  curve 10/25/50/75/100%",
            "rank", "target", "makespan", "speedup", "saved", "saved%"
        )?;
        for (i, c) in self.candidates.iter().enumerate() {
            let p = &c.prediction;
            let curve = c
                .curve
                .iter()
                .map(|pt| format!("{:.1}", pt.saved))
                .collect::<Vec<_>>()
                .join("/");
            writeln!(
                f,
                "  {:<4} {:<28} {:>9.1}s {:>7.2}x {:>9.1}s {:>8.1}%  {curve}",
                i + 1,
                p.target,
                p.predicted_makespan,
                p.speedup(),
                p.saved(),
                p.saved_pct(),
            )?;
        }
        if let Some(best) = self.candidates.first() {
            writeln!(f)?;
            writeln!(
                f,
                "top candidate {} — predicted critical chain task {} @ {:.1}s \
                 (was task {} @ {:.1}s)",
                best.prediction.target,
                best.prediction.critical.task,
                best.prediction.critical.length,
                self.base_critical.task,
                self.base_critical.length,
            )?;
            writeln!(f, "TLP speedup curve (n: base -> predicted):")?;
            for (b, p) in self.base_curve.iter().zip(self.best_curve.iter()) {
                writeln!(
                    f,
                    "  {:>3}: {:>5.2}x -> {:>5.2}x",
                    b.n, b.speedup, p.speedup
                )?;
            }
        }
        Ok(())
    }
}

/// One worker-count point of a predicted-vs-measured validation.
#[derive(Clone, Copy, Debug)]
pub struct ValidationPoint {
    /// Task-process count.
    pub workers: u32,
    /// Makespan predicted by the what-if replay (seconds).
    pub predicted: f64,
    /// Makespan measured from the real (optimized) trace (seconds).
    pub measured: f64,
}

impl ValidationPoint {
    /// Relative error of the prediction, `|pred − meas| / meas`.
    pub fn rel_err(&self) -> f64 {
        if self.measured <= 0.0 {
            return 0.0;
        }
        (self.predicted - self.measured).abs() / self.measured
    }
}

/// Validates the what-if chain against a *real* optimization: virtually
/// speeds up the match component of `before` (the unoptimized trace) by
/// `match_ratio` — the measured aggregate `after/before` match-work ratio —
/// and compares the predicted makespan with the `after` trace actually
/// measured, at each worker count. Used by `bench_whatif` with the PR 5
/// Rete-sharing win as ground truth.
pub fn validate_against_measured(
    before: &PhaseTrace,
    after: &PhaseTrace,
    match_ratio: f64,
    workers: &[u32],
) -> Result<Vec<ValidationPoint>, String> {
    if !(0.0..=1.0).contains(&match_ratio) || !match_ratio.is_finite() {
        return Err(format!("match ratio {match_ratio} out of [0, 1]"));
    }
    let pct = (1.0 - match_ratio) * 100.0;
    workers
        .iter()
        .map(|&w| {
            let cfg = SimConfig::encore(w);
            let pred = predict(before, None, &cfg, &Target::Match, pct)?;
            let measured = simulate(&cfg, &after.tasks.tasks).makespan;
            Ok(ValidationPoint {
                workers: w,
                predicted: pred.predicted_makespan,
                measured,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimax_sim::Task;

    fn trace_of(tasks: Vec<Task>) -> PhaseTrace {
        PhaseTrace {
            tasks: TaskSet::new(tasks),
            cycle_log: vec![],
            firings: 0,
            rhs_actions: 0,
        }
    }

    fn demo_trace() -> PhaseTrace {
        trace_of(vec![
            Task::with_match(0, 10.0, 0.5),
            Task::with_match(1, 30.0, 0.4),
            Task::with_match(2, 5.0, 0.0),
        ])
    }

    #[test]
    fn target_parsing_round_trips() {
        for s in [
            "match",
            "prod:mh-alpha",
            "task:7",
            "level:3",
            "component:fork",
        ] {
            assert_eq!(Target::parse(s).unwrap().to_string(), s);
        }
        assert!(Target::parse("component:idle")
            .unwrap_err()
            .contains("not directly actionable"));
        assert!(Target::parse("level:9").is_err());
        assert!(Target::parse("prod:").is_err());
        assert!(Target::parse("bogus").is_err());
    }

    #[test]
    fn zero_scale_is_identity() {
        let trace = demo_trace();
        let cfg = SimConfig::encore(4);
        for t in [
            Target::Match,
            Target::Task(1),
            Target::Level(3),
            Target::Component(GapComponent::Fork),
        ] {
            let pred = predict(&trace, None, &cfg, &t, 0.0).unwrap();
            assert_eq!(pred.predicted_makespan, pred.base_makespan, "{t}");
            assert_eq!(pred.critical.length, pred.base_critical.length, "{t}");
        }
    }

    #[test]
    fn full_match_speedup_leaves_the_serial_rest() {
        let trace = demo_trace();
        let p = apply_virtual_speedup(&trace, None, &SimConfig::encore(1), &Target::Match, 100.0)
            .unwrap();
        // Amdahl floor: only the non-match components remain.
        let rest: f64 = trace
            .tasks
            .tasks
            .iter()
            .map(|t| t.service * (1.0 - t.match_fraction))
            .sum();
        assert!((p.tasks.total_service() - rest).abs() < 1e-9);
        assert!(p.tasks.tasks.iter().all(|t| t.match_fraction == 0.0));
    }

    #[test]
    fn task_target_scales_only_that_task() {
        let trace = demo_trace();
        let p = apply_virtual_speedup(&trace, None, &SimConfig::encore(1), &Target::Task(1), 50.0)
            .unwrap();
        assert_eq!(p.tasks.tasks[0].service, 10.0);
        assert!((p.tasks.tasks[1].service - 15.0).abs() < 1e-12);
        assert_eq!(p.tasks.tasks[2].service, 5.0);
        assert!(apply_virtual_speedup(
            &trace,
            None,
            &SimConfig::encore(1),
            &Target::Task(99),
            50.0
        )
        .is_err());
    }

    #[test]
    fn component_target_scales_the_cost_model() {
        let trace = demo_trace();
        let cfg = SimConfig::encore(4);
        let p = apply_virtual_speedup(
            &trace,
            None,
            &cfg,
            &Target::Component(GapComponent::Dequeue),
            100.0,
        )
        .unwrap();
        assert_eq!(p.cfg.dequeue_overhead, 0.0);
        assert_eq!(p.cfg.fork_overhead, cfg.fork_overhead);
        assert_eq!(p.tasks.tasks, trace.tasks.tasks);
    }

    #[test]
    fn production_target_needs_profile_and_uses_share() {
        let trace = demo_trace();
        let cfg = SimConfig::encore(1);
        let t = Target::Production("p0".into());
        assert!(apply_virtual_speedup(&trace, None, &cfg, &t, 50.0)
            .unwrap_err()
            .contains("profile"));
        let mut profile = MatchProfile::default();
        profile.productions.push(ops5::ProductionProfile {
            name: "p0".into(),
            match_units: 40,
            ..Default::default()
        });
        profile.work.match_units = 100;
        // 100% speedup on a production owning 40% of the match: each match
        // component scales by 0.6.
        let p = apply_virtual_speedup(&trace, Some(&profile), &cfg, &t, 100.0).unwrap();
        let expect: f64 = trace
            .tasks
            .tasks
            .iter()
            .map(|x| x.service * (1.0 - x.match_fraction) + x.service * x.match_fraction * 0.6)
            .sum();
        assert!((p.tasks.total_service() - expect).abs() < 1e-9);
        assert!(apply_virtual_speedup(
            &trace,
            Some(&profile),
            &cfg,
            &Target::Production("nope".into()),
            10.0
        )
        .is_err());
    }

    #[test]
    fn predictions_respect_the_critical_path_bound() {
        let trace = demo_trace();
        let cfg = SimConfig::encore(8);
        for pct in CURVE_SCALES {
            let pred = predict(&trace, None, &cfg, &Target::Match, pct).unwrap();
            assert!(
                pred.predicted_makespan >= pred.critical.length - 1e-9,
                "pct {pct}: {} < {}",
                pred.predicted_makespan,
                pred.critical.length
            );
        }
    }

    #[test]
    fn ranked_report_sorted_and_rendered() {
        let trace = demo_trace();
        let cfg = SimConfig::encore(4);
        let report =
            build_whatif_report("demo", "LCC Level 3", &trace, None, &cfg, 100.0, 5).unwrap();
        // match + fork + dequeue + critical task.
        assert_eq!(report.candidates.len(), 4);
        for w in report.candidates.windows(2) {
            assert!(w[0].prediction.saved() >= w[1].prediction.saved() - 1e-12);
        }
        // Task 1 (service 30 of 45 total) IS the makespan at 4 workers:
        // virtually eliminating it must outrank every other candidate.
        assert_eq!(report.candidates[0].prediction.target, "task:1");
        assert_eq!(report.base_curve.len(), 4);
        assert_eq!(report.best_curve.len(), 4);
        let text = report.to_string();
        assert!(text.contains("optimize this next"));
        assert!(text.contains("match"));
        let json = report.to_json().write();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("dataset").and_then(|d| d.as_str()), Some("demo"));
        assert_eq!(
            parsed
                .get("candidates")
                .and_then(|c| c.as_arr())
                .map(|c| c.len()),
            Some(4)
        );
    }

    #[test]
    fn validation_is_exact_on_one_worker_uniform_scaling() {
        // A synthetic "optimization" that scales every task's match
        // component by exactly 0.4: the aggregate-ratio replay must predict
        // the one-worker makespan to float precision, since uniform
        // scaling and aggregate scaling coincide.
        let before = demo_trace();
        let after = trace_of(
            before
                .tasks
                .tasks
                .iter()
                .map(|t| scale_match(t, 0.4))
                .collect(),
        );
        let points = validate_against_measured(&before, &after, 0.4, &[1, 4]).unwrap();
        assert!(
            points[0].rel_err() < 1e-9,
            "w=1 err {}",
            points[0].rel_err()
        );
        assert!(
            points[1].rel_err() < 1e-9,
            "w=4 err {}",
            points[1].rel_err()
        );
        assert!(validate_against_measured(&before, &after, 1.5, &[1]).is_err());
    }

    #[test]
    fn empty_trace_yields_zero_report() {
        let trace = trace_of(vec![]);
        let cfg = SimConfig::encore(2);
        let pred = predict(&trace, None, &cfg, &Target::Match, 50.0).unwrap();
        assert_eq!(pred.critical.length, 0.0);
        assert!(pred.predicted_makespan.is_finite());
        let report = build_whatif_report("x", "y", &trace, None, &cfg, 50.0, 3).unwrap();
        // No tasks: match + the two components, no task candidate.
        assert_eq!(report.candidates.len(), 3);
        assert_eq!(report.base_critical.length, 0.0);
    }
}
