//! Speed-up attribution — the "speedup doctor" (§6.2, Table 9).
//!
//! The paper explains its sub-linear speed-ups by naming the overheads:
//! task-management time, the tail-end effect, and the serial match/RHS
//! fraction that Amdahl's law turns into a ceiling. This module makes that
//! explanation executable: given a measured phase trace, a match-level
//! profile (`ops5::Engine::enable_profile`) and simulated runs, it
//! decomposes the ideal-vs-measured speed-up gap into named components that
//! **sum exactly to the gap by construction**, predicts the combined
//! TLP × match speed-up from the profiler's measured match fraction, and
//! identifies the critical task chain bounding the makespan.
//!
//! The output is a [`ProfileReport`] — rendered as text by `spamctl
//! profile` and as JSON by its `--json`.

use crate::combined::{combined_cell, match_axis_speedup, CombinedCell};
use crate::trace::PhaseTrace;
use multimax_sim::{
    simulate, speedup_curve, ClusterConfig, Machine, PageStats, SimConfig, SimResult, SpeedupPoint,
    SvmSimResult, TaskSet,
};
use ops5::instrument::WorkCounters;
use ops5::MatchProfile;
use paraops5::costmodel::CostModel;
use spam::phases::MIPS;
use std::fmt;
use tlp_obs::json::Json;

/// Amdahl's law: overall speed-up when a `parallel_fraction` of the work is
/// sped up by `component_speedup` and the rest is untouched (§3.1: with the
/// match 30–50% of LCC run time, even an infinitely fast match caps the
/// match-parallel speed-up at 2×).
pub fn amdahl_speedup(parallel_fraction: f64, component_speedup: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&parallel_fraction),
        "bad parallel fraction"
    );
    assert!(component_speedup >= 1.0, "bad component speedup");
    1.0 / ((1.0 - parallel_fraction) + parallel_fraction / component_speedup)
}

/// Where the ideal-vs-measured speed-up gap of one simulated run went.
///
/// All components are **processor-seconds**: with `n` workers over a
/// makespan `T`, the run had `n·T` processor-seconds of capacity; `busy` of
/// them executed tasks and the rest — the gap — is attributed here. The
/// five components sum to the gap *exactly* (idle is defined as the
/// remainder), so the decomposition can never silently lose time.
#[derive(Clone, Copy, Debug)]
pub struct GapAttribution {
    /// Worker (task-process) count.
    pub workers: u32,
    /// One-worker baseline makespan (seconds).
    pub base_makespan: f64,
    /// Measured makespan at `workers` (seconds).
    pub makespan: f64,
    /// Processor-seconds spent executing tasks.
    pub busy: f64,
    /// Processor-seconds spent forking / initialising task processes.
    pub fork: f64,
    /// Processor-seconds spent waiting on the task-queue lock.
    pub queue_wait: f64,
    /// Processor-seconds spent inside dequeue critical sections.
    pub dequeue: f64,
    /// Processor-seconds lost to worker deaths: fatal dispatches plus the
    /// control process's detection window (zero without fault injection).
    pub fault: f64,
    /// Remaining idle processor-seconds: load imbalance and the §6.2
    /// tail-end effect. Defined as the gap minus the other components, so
    /// the sum is exact.
    pub idle: f64,
}

impl GapAttribution {
    /// Attributes one simulated run. `base_makespan` is the one-worker
    /// baseline the speed-up is measured against.
    pub fn attribute(base_makespan: f64, result: &SimResult, workers: u32) -> GapAttribution {
        let busy: f64 = result.busy.iter().sum();
        let fork: f64 = result.fork_ready.iter().sum();
        let queue_wait: f64 = result
            .executions
            .iter()
            .map(|e| e.acquired - e.queued_at)
            .sum();
        let dequeue: f64 = result
            .executions
            .iter()
            .map(|e| e.started - e.acquired)
            .sum();
        // `+ 0.0` normalises the empty sum's -0.0 for display.
        let fault: f64 = result
            .deaths
            .iter()
            .map(|d| d.detected - d.acquired)
            .sum::<f64>()
            + 0.0;
        let capacity = workers as f64 * result.makespan;
        let idle = capacity - busy - fork - queue_wait - dequeue - fault;
        GapAttribution {
            workers,
            base_makespan,
            makespan: result.makespan,
            busy,
            fork,
            queue_wait,
            dequeue,
            fault,
            idle,
        }
    }

    /// Total processor-seconds of capacity, `workers × makespan`.
    pub fn capacity(&self) -> f64 {
        self.workers as f64 * self.makespan
    }

    /// The gap: capacity not spent executing tasks.
    pub fn gap(&self) -> f64 {
        self.capacity() - self.busy
    }

    /// The named components, in report order. Sums to [`Self::gap`]
    /// exactly (up to float rounding).
    pub fn components(&self) -> [(&'static str, f64); 5] {
        [
            ("fork", self.fork),
            ("queue-wait", self.queue_wait),
            ("dequeue", self.dequeue),
            ("fault", self.fault),
            ("idle/tail", self.idle),
        ]
    }

    /// Ideal speed-up: the worker count.
    pub fn ideal_speedup(&self) -> f64 {
        self.workers as f64
    }

    /// Measured speed-up over the one-worker baseline.
    pub fn measured_speedup(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.base_makespan / self.makespan
    }

    /// Parallel efficiency, measured / ideal.
    pub fn efficiency(&self) -> f64 {
        self.measured_speedup() / self.ideal_speedup()
    }
}

/// Where the cross-machine (SVM) gap of one two-machine run went — the
/// "overhead accountant" behind `spamctl svm-report` (§7: remote processors
/// cost "about 1.5 processors" of throughput).
///
/// [`GapAttribution`] of the same run with the SVM traffic split out of it:
/// warmup out of `fork`, page-wait and transfer out of `busy` (the
/// simulator folds per-task fault service into busy time; the accountant
/// takes it back out so page traffic cannot hide inside "useful work").
/// Capacity, queue-wait, dequeue, fault and idle are the plain
/// attribution's, so the eight components still sum to [`Self::gap`]
/// **exactly**.
#[derive(Clone, Copy, Debug)]
pub struct SvmGapAttribution {
    /// The one-machine attribution of the underlying run, against the
    /// one-worker pure-TLP baseline.
    pub sim: GapAttribution,
    /// Workers placed on the remote cluster.
    pub remote_workers: u32,
    /// One-time SVM warmup paid by each remote worker at fork.
    pub warmup: f64,
    /// Request + directory-service share of remote page-fault service.
    pub page_wait: f64,
    /// Data-wire share of remote page-fault service.
    pub transfer: f64,
}

impl SvmGapAttribution {
    /// Attributes one two-machine run. `base_makespan` is the one-worker
    /// pure-TLP baseline.
    pub fn attribute(base_makespan: f64, r: &SvmSimResult) -> SvmGapAttribution {
        SvmGapAttribution {
            sim: GapAttribution::attribute(base_makespan, &r.sim, r.cfg.sim.task_processes),
            remote_workers: r.remote_workers(),
            warmup: r.overheads.warmup_s,
            page_wait: r.overheads.page_wait_s,
            transfer: r.overheads.transfer_s,
        }
    }

    /// Processor-seconds executing tasks, net of SVM fault service.
    pub fn busy_net(&self) -> f64 {
        self.sim.busy - self.page_wait - self.transfer
    }

    /// Fork / task-process start-up, excluding SVM warmup.
    pub fn fork(&self) -> f64 {
        self.sim.fork - self.warmup
    }

    /// The cross-machine gap: capacity not spent on net task execution.
    pub fn gap(&self) -> f64 {
        self.sim.capacity() - self.busy_net()
    }

    /// The named components, in report order. Sums to [`Self::gap`]
    /// exactly (up to float rounding).
    pub fn components(&self) -> [(&'static str, f64); 8] {
        let s = &self.sim;
        [
            ("fork", self.fork()),
            ("queue-wait", s.queue_wait),
            ("dequeue", s.dequeue),
            ("fault", s.fault),
            ("warmup", self.warmup),
            ("page-wait", self.page_wait),
            ("transfer", self.transfer),
            ("idle/tail", s.idle),
        ]
    }

    /// The SVM-specific components (warmup + page-wait + transfer)
    /// expressed as processors over the makespan — the part of the gap a
    /// one-machine run would not have paid. This is the accountant's
    /// decomposition of the headline processors-lost figure.
    pub fn svm_processors(&self) -> f64 {
        if self.sim.makespan <= 0.0 {
            return 0.0;
        }
        (self.warmup + self.page_wait + self.transfer) / self.sim.makespan
    }
}

/// Inverts a pure-TLP speed-up curve at `measured_speedup`: the fractional
/// processor count `n_eq` a *single* shared-memory machine would need to
/// match it, by piecewise-linear interpolation between curve points (below
/// the first point: through the origin; above the last: extrapolated along
/// the final segment).
pub fn equivalent_processors(measured_speedup: f64, pure_curve: &[SpeedupPoint]) -> f64 {
    assert!(!pure_curve.is_empty(), "empty speed-up curve");
    let s = measured_speedup;
    let first = &pure_curve[0];
    if s <= first.speedup {
        return if first.speedup > 0.0 {
            s / first.speedup * first.n as f64
        } else {
            0.0
        };
    }
    for w in pure_curve.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if s <= b.speedup {
            let ds = b.speedup - a.speedup;
            if ds <= f64::EPSILON {
                return a.n as f64;
            }
            return a.n as f64 + (s - a.speedup) / ds * (b.n - a.n) as f64;
        }
    }
    let last = &pure_curve[pure_curve.len() - 1];
    if pure_curve.len() >= 2 {
        let prev = &pure_curve[pure_curve.len() - 2];
        let slope = (last.speedup - prev.speedup) / (last.n - prev.n).max(1) as f64;
        if slope > f64::EPSILON {
            return last.n as f64 + (s - last.speedup) / slope;
        }
    }
    last.n as f64
}

/// The paper's translational cost (§7): how many of the `workers`
/// processors the SVM coupling effectively forfeits, measured against a
/// pure-TLP curve on one hypothetical large machine. ≈1.5 for the tuned
/// configuration.
pub fn effective_processors_lost(
    measured_speedup: f64,
    pure_curve: &[SpeedupPoint],
    workers: u32,
) -> f64 {
    workers as f64 - equivalent_processors(measured_speedup, pure_curve)
}

/// A pure-TLP reference configuration: the same overheads as `svm_sim`,
/// but all `n` workers on one (hypothetically large) local cluster — no
/// remote cluster, so no SVM costs. The denominator of the
/// effective-processors-lost comparison.
pub fn pure_tlp_config(svm_sim: &SimConfig, n: u32) -> SimConfig {
    SimConfig {
        machine: Machine {
            local: ClusterConfig {
                processors: n,
                reserved: 0,
            },
            remote: None,
        },
        task_processes: n,
        ..*svm_sim
    }
}

/// The full SVM accountant report behind `spamctl svm-report`: gap
/// decomposition, coherence traffic, and the headline
/// effective-processors-lost figure. `Display` renders the
/// text report; [`SvmReport::to_json`] the machine-readable one.
#[derive(Clone, Debug)]
pub struct SvmReport {
    /// Dataset name (e.g. `DC`).
    pub dataset: String,
    /// Phase / level label (e.g. `LCC L3`).
    pub level: String,
    /// SVM cost-model name (`tuned` or `naive`).
    pub mode: String,
    /// The exact gap decomposition.
    pub attribution: SvmGapAttribution,
    /// Aggregate page-coherence counters.
    pub totals: PageStats,
    /// Hottest pages by fault count (page id, stats), most faults first.
    pub top_pages: Vec<(u64, PageStats)>,
    /// The pure-TLP reference curve at 1..=workers processors.
    pub pure_curve: Vec<SpeedupPoint>,
    /// Fractional pure-TLP processor count matching the measured speed-up.
    pub equivalent: f64,
    /// The headline: `workers − equivalent` (paper: ≈1.5).
    pub lost: f64,
}

/// Builds the [`SvmReport`] for one two-machine run: computes the pure-TLP
/// reference curve on the same task set and attributes the gap. `top`
/// bounds the hot-page table.
pub fn build_svm_report(
    dataset: impl Into<String>,
    level: impl Into<String>,
    mode: impl Into<String>,
    r: &SvmSimResult,
    tasks: &TaskSet,
    top: usize,
) -> SvmReport {
    let workers = r.cfg.sim.task_processes;
    let pure_curve = speedup_curve(|n| pure_tlp_config(&r.cfg.sim, n), tasks, workers.max(1));
    let base = simulate(&pure_tlp_config(&r.cfg.sim, 1), &tasks.tasks).makespan;

    let attribution = SvmGapAttribution::attribute(base, r);
    let measured = attribution.sim.measured_speedup();
    let equivalent = equivalent_processors(measured, &pure_curve);
    let mut top_pages: Vec<(u64, PageStats)> = r.pages.iter().map(|(&p, &s)| (p, s)).collect();
    top_pages.sort_by(|a, b| b.1.faults.cmp(&a.1.faults).then(a.0.cmp(&b.0)));
    top_pages.truncate(top);
    SvmReport {
        dataset: dataset.into(),
        level: level.into(),
        mode: mode.into(),
        attribution,
        totals: r.totals,
        top_pages,
        pure_curve,
        equivalent,
        lost: workers as f64 - equivalent,
    }
}

impl SvmReport {
    /// The machine-readable report (`spamctl svm-report --json`; CI keeps
    /// one as `BENCH_svm.json`).
    pub fn to_json(&self) -> Json {
        let a = &self.attribution;
        let s = &a.sim;
        let comps: Vec<Json> = a
            .components()
            .iter()
            .map(|(name, v)| {
                Json::obj(vec![("name", Json::str(*name)), ("seconds", Json::Num(*v))])
            })
            .collect();
        let pages: Vec<Json> = self
            .top_pages
            .iter()
            .map(|(p, s)| {
                Json::obj(vec![
                    ("page", Json::Num(*p as f64)),
                    ("faults", Json::Num(s.faults as f64)),
                    ("transfers", Json::Num(s.transfers as f64)),
                    ("bytes", Json::Num(s.bytes as f64)),
                    ("invalidations", Json::Num(s.invalidations as f64)),
                ])
            })
            .collect();
        let curve: Vec<Json> = self
            .pure_curve
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("n", Json::Num(p.n as f64)),
                    ("speedup", Json::Num(p.speedup)),
                    ("utilization", Json::Num(p.utilization)),
                    ("idle_s", Json::Num(p.idle)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("dataset", Json::str(self.dataset.clone())),
            ("level", Json::str(self.level.clone())),
            ("svm_mode", Json::str(self.mode.clone())),
            ("workers", Json::Num(s.workers as f64)),
            ("remote_workers", Json::Num(a.remote_workers as f64)),
            ("base_makespan_s", Json::Num(s.base_makespan)),
            ("makespan_s", Json::Num(s.makespan)),
            ("measured_speedup", Json::Num(s.measured_speedup())),
            ("ideal_speedup", Json::Num(s.ideal_speedup())),
            ("efficiency", Json::Num(s.efficiency())),
            ("equivalent_processors", Json::Num(self.equivalent)),
            ("effective_processors_lost", Json::Num(self.lost)),
            ("svm_processors", Json::Num(a.svm_processors())),
            ("busy_net_s", Json::Num(a.busy_net())),
            ("gap_s", Json::Num(a.gap())),
            ("components", Json::Arr(comps)),
            ("page_faults", Json::Num(self.totals.faults as f64)),
            ("page_transfers", Json::Num(self.totals.transfers as f64)),
            ("bytes_shipped", Json::Num(self.totals.bytes as f64)),
            ("invalidations", Json::Num(self.totals.invalidations as f64)),
            ("hot_pages", Json::Arr(pages)),
            ("pure_tlp_curve", Json::Arr(curve)),
        ])
    }
}

impl fmt::Display for SvmReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = &self.attribution;
        let s = &a.sim;
        writeln!(
            f,
            "svm accountant — {} {}, {} netmemory, {} task processes ({} local + {} remote)",
            self.dataset,
            self.level,
            self.mode,
            s.workers,
            s.workers - a.remote_workers,
            a.remote_workers,
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "speed-up : base {:.2}s -> makespan {:.2}s = {:.2}x of ideal {:.0}x ({:.0}% efficient)",
            s.base_makespan,
            s.makespan,
            s.measured_speedup(),
            s.ideal_speedup(),
            s.efficiency() * 100.0,
        )?;
        writeln!(
            f,
            "headline : pure-TLP equivalent {:.2} processors -> effective processors lost {:.2} (paper: ~1.5)",
            self.equivalent, self.lost,
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "gap decomposition ({:.2} proc-s over {} x {:.2}s observed capacity; sums exactly):",
            a.gap(),
            s.workers,
            s.makespan,
        )?;
        let cap = s.capacity();
        for (name, v) in a.components() {
            writeln!(
                f,
                "  {name:<14} {v:>10.2} proc-s  ({:>5.1}%)  = {:>5.2} processors",
                100.0 * v / cap,
                v / s.makespan,
            )?;
        }
        writeln!(
            f,
            "  svm-specific subtotal (warmup + page-wait + transfer): {:.2} processors",
            a.svm_processors(),
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "coherence: {} faults, {} transfers ({:.2} MB shipped), {} invalidations",
            self.totals.faults,
            self.totals.transfers,
            self.totals.bytes as f64 / 1e6,
            self.totals.invalidations,
        )?;
        if !self.top_pages.is_empty() {
            writeln!(
                f,
                "  {:>8} {:>8} {:>10} {:>10} {:>14}",
                "page", "faults", "transfers", "bytes", "invalidations"
            )?;
            for (p, s) in &self.top_pages {
                writeln!(
                    f,
                    "  {p:>8} {:>8} {:>10} {:>10} {:>14}",
                    s.faults, s.transfers, s.bytes, s.invalidations
                )?;
            }
        }
        Ok(())
    }
}

/// The critical task chain: in the asynchronous task-queue model every task
/// is independent, so the longest dependent path is fork → one dequeue →
/// the longest task. Its length lower-bounds the makespan of *any*
/// schedule on any number of processors.
#[derive(Clone, Copy, Debug)]
pub struct CriticalPath {
    /// The task on the chain (longest effective service time).
    pub task: u32,
    /// Chain length in seconds: fork + dequeue + the task's service time
    /// under the configuration's match speed-up.
    pub length: f64,
}

/// Computes the critical task chain for `trace` under `cfg` (the
/// `match_speedup` field scales each task's match component per Amdahl).
pub fn critical_path(trace: &PhaseTrace, cfg: &SimConfig) -> CriticalPath {
    critical_path_of(&trace.tasks.tasks, cfg)
}

/// [`critical_path`] over a bare task slice — the form the what-if engine
/// uses after perturbing a task set it no longer has a full trace for.
pub fn critical_path_of(tasks: &[multimax_sim::Task], cfg: &SimConfig) -> CriticalPath {
    let longest = tasks
        .iter()
        .map(|t| (t.id, t.service_with_match_speedup(cfg.match_speedup)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    match longest {
        Some((task, service)) => CriticalPath {
            task,
            length: cfg.fork_overhead + cfg.dequeue_overhead + service,
        },
        // No tasks: the empty schedule completes instantly, so the lower
        // bound is zero (charging fork overhead here would exceed the true
        // makespan of a zero-task phase).
        None => CriticalPath {
            task: 0,
            length: 0.0,
        },
    }
}

/// The `whatif` entry point into the attribution layer: simulates a
/// *perturbed* task set under `cfg` and re-runs both the gap decomposition
/// and the critical-chain bound on it. The caller (core::whatif) applies a
/// virtual speedup to a target first; this function answers how the
/// makespan, the five gap components, and the lower bound move in response.
pub fn perturbed_attribution(tasks: &TaskSet, cfg: &SimConfig) -> (GapAttribution, CriticalPath) {
    let base = simulate(
        &SimConfig {
            task_processes: 1,
            ..*cfg
        },
        &tasks.tasks,
    )
    .makespan;
    let result = simulate(cfg, &tasks.tasks);
    let gap = GapAttribution::attribute(base, &result, cfg.task_processes);
    (gap, critical_path_of(&tasks.tasks, cfg))
}

/// Predicted combined speed-up for `(Task n, Match m)` computed from an
/// **aggregate measured match fraction** (the profiler's, or Table 3's
/// 30–50% band) instead of the per-task annotations: the TLP axis comes
/// from the simulator, the match axis folds [`match_axis_speedup`] through
/// [`amdahl_speedup`] over that single fraction. Comparing this against
/// [`combined_cell`]'s `achieved` checks the paper's multiplicative-
/// speed-up claim using only profiler counters.
pub fn predicted_from_match_fraction(
    trace: &PhaseTrace,
    task_processes: u32,
    match_processes: u32,
    match_fraction: f64,
    model: &CostModel,
) -> f64 {
    let base = simulate(&SimConfig::encore(1), &trace.tasks.tasks).makespan;
    let tlp_only = base / simulate(&SimConfig::encore(task_processes), &trace.tasks.tasks).makespan;
    let match_component = match_axis_speedup(trace, match_processes, model);
    tlp_only * amdahl_speedup(match_fraction, match_component)
}

/// One Table 9 cell with the profiler-driven prediction alongside the
/// per-task one.
#[derive(Clone, Copy, Debug)]
pub struct SpeedupCheck {
    /// The cell: measured (`achieved`) and per-task-predicted speed-ups.
    pub cell: CombinedCell,
    /// Prediction from the profiler's aggregate match fraction.
    pub predicted_from_profile: f64,
}

impl SpeedupCheck {
    /// Relative error of the profiler-driven prediction against the
    /// measured speed-up.
    pub fn rel_err(&self) -> f64 {
        (self.predicted_from_profile - self.cell.achieved).abs() / self.cell.achieved
    }
}

/// One phase's Amdahl decomposition from its deterministic work counters.
#[derive(Clone, Debug)]
pub struct PhaseAmdahl {
    /// Phase label (e.g. `RTF`, `LCC L2`).
    pub phase: String,
    /// Measured match fraction of total work.
    pub match_fraction: f64,
    /// Serial (resolve + RHS + external) fraction of total work.
    pub serial_fraction: f64,
    /// Amdahl ceiling on match-parallel speed-up: total / serial work.
    pub amdahl_limit: f64,
    /// Total simulated seconds at the paper's 1.5 MIPS.
    pub total_seconds: f64,
}

impl PhaseAmdahl {
    /// Builds the row from a phase's accumulated [`WorkCounters`].
    pub fn from_work(phase: impl Into<String>, work: &WorkCounters) -> PhaseAmdahl {
        let total = work.total_units();
        let serial_fraction = if total == 0 {
            0.0
        } else {
            work.serial_units() as f64 / total as f64
        };
        PhaseAmdahl {
            phase: phase.into(),
            match_fraction: work.match_fraction(),
            serial_fraction,
            amdahl_limit: work.amdahl_limit(),
            total_seconds: work.seconds_at(MIPS),
        }
    }
}

/// The full speed-up-doctor report: profiler heat, per-phase Amdahl rows,
/// per-worker-count gap attributions, the critical chain, and the
/// predicted-vs-measured Table 9 checks. `Display` renders the text
/// report; [`ProfileReport::to_json`] the machine-readable one.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Dataset name (e.g. `DC`).
    pub dataset: String,
    /// Phase / level label (e.g. `LCC L2`).
    pub level: String,
    /// How many hot productions / alpha memories the text report shows.
    pub top: usize,
    /// The merged match-level profile.
    pub profile: MatchProfile,
    /// Per-phase Amdahl rows.
    pub phases: Vec<PhaseAmdahl>,
    /// Gap attribution at each requested worker count.
    pub attributions: Vec<GapAttribution>,
    /// The critical task chain at the largest worker count.
    pub critical: CriticalPath,
    /// Predicted-vs-measured combined-speed-up checks.
    pub checks: Vec<SpeedupCheck>,
}

/// Builds a [`ProfileReport`] from a measured trace and its match profile:
/// simulates the TLP runs at `workers`, attributes each gap, computes the
/// critical chain at the largest worker count, and evaluates every
/// `(task, match)` cell in `cells` both ways.
#[allow(clippy::too_many_arguments)]
pub fn build_report(
    dataset: impl Into<String>,
    level: impl Into<String>,
    profile: MatchProfile,
    trace: &PhaseTrace,
    workers: &[u32],
    cells: &[(u32, u32)],
    model: &CostModel,
    top: usize,
) -> ProfileReport {
    let level = level.into();
    let attributions = crate::tlp::attributed_tlp_curve(trace, workers);
    let max_workers = workers.iter().copied().max().unwrap_or(1);
    let critical = critical_path(trace, &SimConfig::encore(max_workers));
    let mf = profile.match_fraction();
    let checks = cells
        .iter()
        .map(|&(n, m)| SpeedupCheck {
            cell: combined_cell(trace, n, m, model),
            predicted_from_profile: predicted_from_match_fraction(trace, n, m, mf, model),
        })
        .collect();
    let phases = vec![PhaseAmdahl::from_work(level.clone(), &profile.work)];
    ProfileReport {
        dataset: dataset.into(),
        level,
        top,
        profile,
        phases,
        attributions,
        critical,
        checks,
    }
}

impl ProfileReport {
    /// Aggregate measured match fraction from the profiler counters.
    pub fn match_fraction(&self) -> f64 {
        self.profile.match_fraction()
    }

    /// The machine-readable report (`spamctl profile --json`).
    pub fn to_json(&self) -> Json {
        let prods: Vec<Json> = self
            .profile
            .hot_productions(self.top)
            .into_iter()
            .map(|(_, p)| {
                Json::obj(vec![
                    ("name", Json::str(p.name.clone())),
                    ("match_units", Json::Num(p.match_units as f64)),
                    ("firings", Json::Num(p.firings as f64)),
                    ("activations", Json::Num(p.activations as f64)),
                    ("tokens", Json::Num(p.tokens as f64)),
                ])
            })
            .collect();
        let mems: Vec<Json> = self
            .profile
            .hot_alpha_mems(self.top)
            .into_iter()
            .map(|(_, m)| {
                Json::obj(vec![
                    ("label", Json::str(m.label.clone())),
                    ("match_units", Json::Num(m.match_units as f64)),
                    ("activations", Json::Num(m.activations as f64)),
                    ("peak_wmes", Json::Num(m.peak_wmes as f64)),
                ])
            })
            .collect();
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("phase", Json::str(p.phase.clone())),
                    ("match_fraction", Json::Num(p.match_fraction)),
                    ("serial_fraction", Json::Num(p.serial_fraction)),
                    ("amdahl_limit", Json::Num(p.amdahl_limit)),
                    ("total_seconds", Json::Num(p.total_seconds)),
                ])
            })
            .collect();
        let attributions: Vec<Json> = self
            .attributions
            .iter()
            .map(|a| {
                let comps: Vec<Json> = a
                    .components()
                    .iter()
                    .map(|(name, v)| {
                        Json::obj(vec![("name", Json::str(*name)), ("seconds", Json::Num(*v))])
                    })
                    .collect();
                Json::obj(vec![
                    ("workers", Json::Num(a.workers as f64)),
                    ("makespan_s", Json::Num(a.makespan)),
                    ("ideal_speedup", Json::Num(a.ideal_speedup())),
                    ("measured_speedup", Json::Num(a.measured_speedup())),
                    ("efficiency", Json::Num(a.efficiency())),
                    ("busy_s", Json::Num(a.busy)),
                    ("gap_s", Json::Num(a.gap())),
                    ("components", Json::Arr(comps)),
                ])
            })
            .collect();
        let checks: Vec<Json> = self
            .checks
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("task_processes", Json::Num(c.cell.task_processes as f64)),
                    ("match_processes", Json::Num(c.cell.match_processes as f64)),
                    ("processors", Json::Num(c.cell.processors as f64)),
                    ("measured", Json::Num(c.cell.achieved)),
                    ("predicted_per_task", Json::Num(c.cell.predicted)),
                    (
                        "predicted_from_profile",
                        Json::Num(c.predicted_from_profile),
                    ),
                    ("rel_err", Json::Num(c.rel_err())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("dataset", Json::str(self.dataset.clone())),
            ("level", Json::str(self.level.clone())),
            ("match_fraction", Json::Num(self.match_fraction())),
            ("amdahl_limit", Json::Num(self.profile.work.amdahl_limit())),
            ("cycles", Json::Num(self.profile.cycles as f64)),
            (
                "tokens_created",
                Json::Num(self.profile.tokens_created as f64),
            ),
            (
                "tokens_deleted",
                Json::Num(self.profile.tokens_deleted as f64),
            ),
            (
                "mean_conflict_size",
                Json::Num(self.profile.mean_conflict_size()),
            ),
            (
                "max_conflict_size",
                Json::Num(self.profile.max_conflict_size() as f64),
            ),
            ("hot_productions", Json::Arr(prods)),
            ("hot_alpha_mems", Json::Arr(mems)),
            ("phases", Json::Arr(phases)),
            ("attributions", Json::Arr(attributions)),
            (
                "critical_path",
                Json::obj(vec![
                    ("task", Json::Num(self.critical.task as f64)),
                    ("length_s", Json::Num(self.critical.length)),
                ]),
            ),
            ("speedup_checks", Json::Arr(checks)),
        ])
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "speedup doctor — {} {} (match fraction {:.1}%, Amdahl match limit {:.2}x)",
            self.dataset,
            self.level,
            self.match_fraction() * 100.0,
            self.profile.work.amdahl_limit(),
        )?;
        writeln!(f)?;

        writeln!(f, "hot productions (top {} by match cost):", self.top)?;
        writeln!(
            f,
            "  {:<44} {:>12} {:>8} {:>12} {:>8}",
            "production", "match units", "firings", "activations", "tokens"
        )?;
        for (_, p) in self.profile.hot_productions(self.top) {
            writeln!(
                f,
                "  {:<44} {:>12} {:>8} {:>12} {:>8}",
                p.name, p.match_units, p.firings, p.activations, p.tokens
            )?;
        }
        writeln!(f)?;

        writeln!(f, "hot alpha memories (top {}):", self.top)?;
        writeln!(
            f,
            "  {:<44} {:>12} {:>12} {:>10}",
            "memory", "match units", "activations", "peak WMEs"
        )?;
        for (_, m) in self.profile.hot_alpha_mems(self.top) {
            writeln!(
                f,
                "  {:<44} {:>12} {:>12} {:>10}",
                m.label, m.match_units, m.activations, m.peak_wmes
            )?;
        }
        writeln!(f)?;

        writeln!(
            f,
            "match statistics: {} cycles, {} tokens created / {} deleted, conflict set mean {:.1} max {}, \
             {} instantiations emitted / {} netted before the cycle's feed",
            self.profile.cycles,
            self.profile.tokens_created,
            self.profile.tokens_deleted,
            self.profile.mean_conflict_size(),
            self.profile.max_conflict_size(),
            self.profile.net.instantiations_emitted,
            self.profile.net.instantiations_netted,
        )?;
        writeln!(f)?;

        writeln!(f, "per-phase Amdahl decomposition:")?;
        writeln!(
            f,
            "  {:<10} {:>8} {:>9} {:>13} {:>10}",
            "phase", "match%", "serial%", "amdahl limit", "seconds"
        )?;
        for p in &self.phases {
            writeln!(
                f,
                "  {:<10} {:>7.1}% {:>8.1}% {:>12.2}x {:>10.2}",
                p.phase,
                p.match_fraction * 100.0,
                p.serial_fraction * 100.0,
                p.amdahl_limit,
                p.total_seconds
            )?;
        }
        writeln!(f)?;

        writeln!(
            f,
            "speedup attribution (ideal vs measured, per worker count):"
        )?;
        for a in &self.attributions {
            writeln!(
                f,
                "  {} workers: measured {:.2}x of ideal {:.0}x ({:.0}% efficient), makespan {:.2}s",
                a.workers,
                a.measured_speedup(),
                a.ideal_speedup(),
                a.efficiency() * 100.0,
                a.makespan,
            )?;
            let cap = a.capacity();
            write!(f, "    gap {:.2} proc-s:", a.gap())?;
            for (name, v) in a.components() {
                write!(f, " {name} {:.2}s ({:.1}%);", v, 100.0 * v / cap)?;
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "  critical chain: task {} bounds the makespan at >= {:.2}s",
            self.critical.task, self.critical.length
        )?;
        writeln!(f)?;

        writeln!(f, "predicted vs measured combined speedup (Table 9):")?;
        writeln!(
            f,
            "  {:<18} {:>6} {:>10} {:>10} {:>12} {:>8}",
            "config", "procs", "measured", "per-task", "profiler", "rel err"
        )?;
        for c in &self.checks {
            writeln!(
                f,
                "  (Task{:>2}, Match{:>2}) {:>6} {:>9.2}x {:>9.2}x {:>11.2}x {:>7.1}%",
                c.cell.task_processes,
                c.cell.match_processes,
                c.cell.processors,
                c.cell.achieved,
                c.cell.predicted,
                c.predicted_from_profile,
                c.rel_err() * 100.0,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::lcc_trace;
    use spam::lcc::{run_lcc_profiled, Level};
    use spam::rtf::run_rtf;
    use spam::rules::SpamProgram;
    use std::sync::Arc;

    fn setup() -> (PhaseTrace, Option<MatchProfile>) {
        let sp = SpamProgram::build();
        let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
        let rtf = run_rtf(&sp, &scene);
        let frags = Arc::new(rtf.fragments);
        let (phase, profile) = run_lcc_profiled(&sp, &scene, &frags, Level::L2);
        (lcc_trace(&phase), profile)
    }

    #[test]
    fn amdahl_speedup_limits() {
        assert!((amdahl_speedup(0.0, 10.0) - 1.0).abs() < 1e-12);
        assert!((amdahl_speedup(0.5, 2.0) - 1.0 / 0.75).abs() < 1e-12);
        // 40% match, infinitely fast: capped at 1/0.6.
        assert!((amdahl_speedup(0.4, 1e12) - 1.0 / 0.6).abs() < 1e-6);
    }

    #[test]
    fn gap_components_sum_exactly() {
        let (trace, _) = setup();
        let base = simulate(&SimConfig::encore(1), &trace.tasks.tasks).makespan;
        for n in [2, 6, 12] {
            let r = simulate(&SimConfig::encore(n), &trace.tasks.tasks);
            let a = GapAttribution::attribute(base, &r, n);
            let sum: f64 = a.components().iter().map(|(_, v)| v).sum();
            assert!(
                (sum - a.gap()).abs() < 1e-9 * a.capacity().max(1.0),
                "components {sum} != gap {}",
                a.gap()
            );
            assert!(a.idle >= -1e-9, "negative idle remainder: {}", a.idle);
            assert!(a.measured_speedup() > 1.0 && a.measured_speedup() <= a.ideal_speedup());
        }
    }

    #[test]
    fn critical_path_bounds_makespan() {
        let (trace, _) = setup();
        for n in [1, 4, 14] {
            let cfg = SimConfig::encore(n);
            let cp = critical_path(&trace, &cfg);
            let r = simulate(&cfg, &trace.tasks.tasks);
            assert!(
                cp.length <= r.makespan + 1e-9,
                "critical path {:.3} > makespan {:.3} at n={n}",
                cp.length,
                r.makespan
            );
        }
    }

    #[test]
    fn zero_task_phase_yields_zero_critical_path_and_finite_gap() {
        // A level can legitimately decompose to zero tasks (nothing to
        // check at that granularity): every derived figure must be zero or
        // finite, never NaN, and the critical-path lower bound must be 0 —
        // the empty schedule completes instantly.
        let trace = PhaseTrace {
            tasks: TaskSet::new(vec![]),
            cycle_log: vec![],
            firings: 0,
            rhs_actions: 0,
        };
        for n in [1, 4] {
            let cfg = SimConfig::encore(n);
            let cp = critical_path(&trace, &cfg);
            assert_eq!(cp.length, 0.0);
            assert_eq!(cp.task, 0);
            let (gap, cp2) = perturbed_attribution(&trace.tasks, &cfg);
            assert_eq!(cp2.length, 0.0);
            assert!(gap.makespan.is_finite());
            assert!(gap.gap().is_finite());
            assert_eq!(gap.measured_speedup(), 0.0); // zero makespan guard
            for (name, v) in gap.components() {
                assert!(v.is_finite(), "{name} not finite");
            }
            assert!(cp.length <= gap.makespan + 1e-9);
        }
    }

    #[test]
    fn perturbed_attribution_matches_direct_computation() {
        let (trace, _) = setup();
        let cfg = SimConfig::encore(6);
        let (gap, cp) = perturbed_attribution(&trace.tasks, &cfg);
        let base = simulate(&SimConfig::encore(1), &trace.tasks.tasks).makespan;
        let direct = GapAttribution::attribute(base, &simulate(&cfg, &trace.tasks.tasks), 6);
        assert_eq!(gap.makespan, direct.makespan);
        assert_eq!(gap.base_makespan, direct.base_makespan);
        assert_eq!(cp.length, critical_path(&trace, &cfg).length);
    }

    #[test]
    fn equivalent_processors_inverts_the_curve() {
        let curve: Vec<SpeedupPoint> = [(1u32, 1.0f64), (2, 2.0), (3, 3.0), (4, 3.5)]
            .iter()
            .map(|&(n, speedup)| SpeedupPoint {
                n,
                speedup,
                utilization: 1.0,
                idle: 0.0,
            })
            .collect();
        assert!((equivalent_processors(2.5, &curve) - 2.5).abs() < 1e-12);
        assert!((equivalent_processors(1.0, &curve) - 1.0).abs() < 1e-12);
        // Below one processor: through the origin.
        assert!((equivalent_processors(0.5, &curve) - 0.5).abs() < 1e-12);
        // Above the last point: extrapolated along the final segment
        // (slope 0.5/processor), so 4.0x needs 5 equivalent processors.
        assert!((equivalent_processors(4.0, &curve) - 5.0).abs() < 1e-12);
        // Interpolation inside the flattening segment.
        assert!((equivalent_processors(3.25, &curve) - 3.5).abs() < 1e-12);
        assert!((effective_processors_lost(3.5, &curve, 4) - 0.0).abs() < 1e-12);
        assert!((effective_processors_lost(3.0, &curve, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tuned_svm_report_brackets_the_papers_loss() {
        use multimax_sim::{simulate_svm, SvmSimConfig};
        // The paper's Figure 9 platform: SF at Level 3, 13 + 7 processes.
        let sp = SpamProgram::build();
        let scene = Arc::new(spam::generate_scene(&spam::datasets::sf().spec));
        let rtf = run_rtf(&sp, &scene);
        let frags = Arc::new(rtf.fragments);
        let lcc = spam::lcc::run_lcc(&sp, &scene, &frags, Level::L3);
        let trace = lcc_trace(&lcc);
        let r = simulate_svm(&SvmSimConfig::dual_encore(20), &trace.tasks.tasks);
        let report = build_svm_report("SF", "LCC L3", "tuned", &r, &trace.tasks, 5);
        // The acceptance criterion: effective processors lost brackets the
        // paper's ≈1.5 figure.
        assert!(
            (1.0..=2.0).contains(&report.lost),
            "effective processors lost {:.3} (equivalent {:.3})",
            report.lost,
            report.equivalent
        );
        // Text + JSON render and carry the headline.
        let text = report.to_string();
        assert!(text.contains("effective processors lost"), "{text}");
        assert!(text.contains("svm accountant"), "{text}");
        let json = report.to_json();
        assert!(json.get("effective_processors_lost").is_some());
    }

    #[test]
    fn report_builds_and_predictions_track_measured() {
        let (trace, profile) = setup();
        let profile = profile.expect("the phase has tasks");
        let report = build_report(
            "DC",
            "LCC L2",
            profile,
            &trace,
            &[2, 6, 12],
            &[(2, 1), (4, 2)],
            &CostModel::default(),
            5,
        );
        // Profiler match fraction in the paper's Table 3 LCC band.
        let mf = report.match_fraction();
        assert!((0.3..=0.5).contains(&mf), "match fraction {mf:.3}");
        // The profiler-driven prediction tracks the measured combined
        // speed-up about as well as the per-task one (§6.4 tolerance).
        for c in &report.checks {
            assert!(
                c.rel_err() < 0.15,
                "(Task{}, Match{}): profiler-predicted {:.2} vs measured {:.2}",
                c.cell.task_processes,
                c.cell.match_processes,
                c.predicted_from_profile,
                c.cell.achieved
            );
        }
        // Text + JSON render without panicking and carry the headline data.
        let text = report.to_string();
        assert!(text.contains("speedup doctor"));
        assert!(text.contains("critical chain"));
        let json = report.to_json();
        assert_eq!(json.get("dataset").and_then(Json::as_str), Some("DC"));
        assert!(json
            .get("speedup_checks")
            .and_then(Json::as_arr)
            .is_some_and(|a| a.len() == 2));
    }
}
