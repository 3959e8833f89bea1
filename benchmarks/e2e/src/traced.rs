//! The traced pass: the benchmark drives every LCC unit step by step,
//! one span per call into a layer, and derives the per-layer metrics.
//!
//! End-to-end metrics never come from here. Blind spot: inside
//! `Engine::run` the match / resolve / act / external split is visible
//! only as unit counts (and the NNLS fit over them) until the engine has
//! timers of its own; `paraops5::ThreadedMatcher`, `svm_sim` and
//! `core::recover` are not on the interpretation path and not measured.

use crate::calib::kernel_ms;
use crate::host::Host;
use crate::ledger::{arm, par_arm, seq_arm, warm_up, SetUp, QUICK_ROUNDS};
use crate::nnls;
use crate::spans::{self, Span, Tracer};
use crate::stats::median;
use crate::workload::{Clock, Inputs, Oracle, ParRunner, ParSide, PhaseNs, Wall, Workload};
use crate::{Metric, Outcome};
use multimax_sim::{simulate, SimConfig};
use ops5::{Value, WorkCounters};
use spam::constraints::CONSTRAINTS;
use spam::externals::eval_relation;
use spam::fragments::FragmentHypothesis;
use spam::lcc::{
    decompose, harvest_lcc_unit, lcc_engine, load_unit_wm, run_lcc_profiled, LccPhaseResult,
    LccUnit, Level,
};
use spam::rules::SpamProgram;
use spam::scene::Scene;
use spam_geometry::{Obb, Polygon, ADJACENCY_GAP};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tlp_fault::TaskReport;
use tlp_obs::json::Json;

/// Rounds of the traced pass.
const TRACE_ROUNDS: u64 = 5;

/// Repetitions of each micro-measurement (median reported).
const MICRO_REPS: usize = 5;

/// Every per-layer metric and its unit, in output order. A metric that
/// does not apply to a workload (the pool's schedule on the central
/// queue, the recorder's events on the pool) reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ops5.compile_ms", "ms"),
    ("ops5.engine_new_us", "us"),
    ("ops5.run_ms", "ms"),
    ("ops5.ns_per_firing", "ns"),
    ("ops5.make_wme_ns", "ns"),
    ("ops5.firings", "count"),
    ("ops5.match_units", "count"),
    ("ops5.resolve_units", "count"),
    ("ops5.act_units", "count"),
    ("ops5.external_units", "count"),
    ("ops5.wme_adds", "count"),
    ("ops5.rete.index_probes", "count"),
    ("ops5.rete.linear_scans", "count"),
    ("ops5.rete.shared_node_hits", "count"),
    ("ops5.rete.beta_nodes", "count"),
    ("spam.generate_ms", "ms"),
    ("spam.rtf_ms", "ms"),
    ("spam.lcc_ms", "ms"),
    ("spam.fa_ms", "ms"),
    ("spam.model_ms", "ms"),
    ("spam.lcc.tasks", "count"),
    ("spam.lcc.decompose_ms", "ms"),
    ("spam.lcc.engine_ms", "ms"),
    ("spam.lcc.load_wm_ms", "ms"),
    ("spam.lcc.harvest_ms", "ms"),
    ("spam.lcc.us_per_task", "us"),
    ("spam.lcc.setup_share", "ratio"),
    ("spam.externals.eval_relation_ns", "ns"),
    ("spam.externals.calls", "count"),
    ("geometry.intersects_ns", "ns"),
    ("geometry.adjacent_to_ns", "ns"),
    ("geometry.obb_ns", "ns"),
    ("core.exec.wall_ms", "ms"),
    ("core.exec.busy_ms", "ms"),
    ("core.exec.utilization", "ratio"),
    ("core.exec.fork_ms", "ms"),
    ("core.exec.queue_wait_ms", "ms"),
    ("core.exec.idle_tail_ms", "ms"),
    ("core.exec.dispatch_us_per_task", "us"),
    ("core.exec.chunks", "count"),
    ("core.exec.attempts", "count"),
    ("core.exec.steals", "count"),
    ("core.exec.steal_misses", "count"),
    ("core.exec.overflow_taken", "count"),
    ("core.exec.lost_tasks", "count"),
    ("core.exec.busy_inflation", "ratio"),
    ("core.exec.work_over_span", "ratio"),
    ("core.tlp.merge_ms", "ms"),
    ("core.supervise.queue_wait_ms", "ms"),
    ("core.supervise.attempts", "count"),
    ("core.supervise.retries", "count"),
    ("core.supervise.dead_letters", "count"),
    ("multimax.sim_speedup", "x"),
    ("multimax.sim_vs_real", "ratio"),
    ("multimax.simulate_ms", "ms"),
    ("obs.recorder.events", "count"),
    ("obs.live.series", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("calib.ns_per_match_unit", "ns"),
    ("calib.ns_per_resolve_unit", "ns"),
    ("calib.ns_per_act_unit", "ns"),
    ("calib.ns_per_external_unit", "ns"),
    ("calib.fixed_ns_per_task", "ns"),
    ("calib.residual_pct", "%"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer metrics that are counts made by the program or pure
/// functions of them: two runs of one commit at one seed must agree on
/// each exactly.
pub const EXACT: &[&str] = &[
    "ops5.firings",
    "ops5.match_units",
    "ops5.resolve_units",
    "ops5.act_units",
    "ops5.external_units",
    "ops5.wme_adds",
    "ops5.rete.index_probes",
    "ops5.rete.linear_scans",
    "ops5.rete.shared_node_hits",
    "ops5.rete.beta_nodes",
    "spam.lcc.tasks",
    "spam.externals.calls",
    "core.exec.chunks",
    "multimax.sim_speedup",
];

/// Values of the per-layer metrics, by name.
#[derive(Default)]
struct Sheet(BTreeMap<&'static str, f64>);

impl Sheet {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        assert!(self.0.insert(name, value).is_none(), "{name} set twice");
    }

    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} not measured"));
                Metric::new(name, *v, unit)
            })
            .collect()
    }
}

/// One LCC task of the traced pass: what `load + run` cost and what the
/// engine counted for it (the NNLS fit's row).
struct TaskSample {
    ns: u64,
    work: WorkCounters,
}

/// The LCC phase driven unit by unit from outside, one span per call:
/// `decompose` → per unit [`lcc_engine` → control WME + `load_unit_wm` →
/// `Engine::run` → `harvest_lcc_unit` + drop] → merge. Does what
/// `spam::lcc::run_lcc` does; the oracle holds it to that.
fn traced_lcc(
    tr: &mut Tracer,
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    frags: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
    tasks: &mut Vec<TaskSample>,
) -> LccPhaseResult {
    let (units, _) = tr.timed("spam.lcc.decompose", |_| decompose(scene, frags, level));
    let mut results = Vec::with_capacity(units.len());
    for unit in &units {
        let (r, _) = tr.timed("spam.lcc.unit", |tr| {
            let (mut e, _) = tr.timed("spam.lcc.engine", |_| {
                let mut e = lcc_engine(sp, scene, frags);
                e.enable_cycle_log();
                e
            });
            let (_, load_ns) = tr.timed("spam.lcc.load_wm", |_| {
                e.make_wme(
                    "control",
                    &[
                        ("phase", Value::symbol("lcc")),
                        ("status", Value::symbol("running")),
                    ],
                )
                .expect("control");
                load_unit_wm(&mut e, scene, frags, unit);
            });
            let (out, run_ns) = tr.timed("ops5.run", |_| e.run(1_000_000));
            let (r, _) = tr.timed("spam.lcc.harvest", |_| {
                let r = harvest_lcc_unit(&mut e, out.firings);
                drop(e);
                r
            });
            tasks.push(TaskSample {
                ns: load_ns + run_ns,
                work: r.work,
            });
            r
        });
        results.push(r);
    }
    // The merge of `run_lcc`, in unit order (self time of `spam.lcc`).
    let mut work = WorkCounters::default();
    let mut firings = 0;
    let mut consistents = Vec::new();
    let mut supports = vec![0i64; frags.len()];
    for r in &results {
        work.add(&r.work);
        firings += r.firings;
        consistents.extend(r.consistents.iter().copied());
        for &(f, s) in &r.supports {
            supports[f as usize] += s;
        }
    }
    let mut fragments = frags.as_ref().clone();
    for f in &mut fragments {
        f.support = supports[f.id as usize];
    }
    LccPhaseResult {
        level,
        fragments,
        consistents,
        units: results,
        work,
        firings,
        report: TaskReport::all_ok(units.iter().map(LccUnit::label)),
    }
}

/// Per-round totals (ms) of the spans called `name`, over `rounds`.
fn round_totals_ms(spans: &[Span], name: &str, rounds: u64) -> Vec<f64> {
    let mut ns = vec![0u64; rounds as usize];
    for s in spans.iter().filter(|s| s.name == name) {
        ns[s.round as usize] += s.ns();
    }
    ns.into_iter().map(|n| n as f64 / 1e6).collect()
}

/// What one round's pool schedule adds up to, over the scenes.
#[derive(Default)]
struct ExecTotals {
    wall_ms: f64,
    busy_ms: f64,
    capacity_ms: f64,
    fork_ms: f64,
    queue_wait_ms: f64,
    dispatch_ms: f64,
    longest_ms: f64,
    merge_ms: f64,
    chunks: f64,
    attempts: f64,
    steals: f64,
    steal_misses: f64,
    overflow_taken: f64,
    lost_tasks: f64,
}

impl ExecTotals {
    fn of(sides: &[ParSide]) -> ExecTotals {
        let mut t = ExecTotals::default();
        for side in sides {
            let Some(x) = &side.exec else { continue };
            t.wall_ms += x.wall_s * 1e3;
            t.capacity_ms += x.wall_s * 1e3 * x.workers.len() as f64;
            t.busy_ms += x.workers.iter().map(|w| w.busy_s).sum::<f64>() * 1e3;
            t.fork_ms += x.spawn_ready_s.iter().sum::<f64>() * 1e3;
            for a in &x.attempts {
                t.queue_wait_ms += (a.acquired_s - a.queued_s) * 1e3;
                t.dispatch_ms += (a.started_s - a.queued_s) * 1e3;
            }
            t.longest_ms += x
                .attempts
                .iter()
                .map(|a| a.finished_s - a.started_s)
                .fold(0.0, f64::max)
                * 1e3;
            t.merge_ms += side.runner_ns as f64 / 1e6 - x.wall_s * 1e3;
            t.chunks += x.chunks as f64;
            t.attempts += x.attempts.len() as f64;
            t.steals += x.steals() as f64;
            t.steal_misses += x.workers.iter().map(|w| w.steal_misses).sum::<u64>() as f64;
            t.overflow_taken += x.overflow_taken() as f64;
            t.lost_tasks += x.lost_tasks as f64;
        }
        t
    }
}

/// `f` over every element of `xs`, `MICRO_REPS` times; median ns per call.
fn ns_per_call<T>(xs: &[T], mut f: impl FnMut(&T)) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let reps: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let t = Instant::now();
            for x in xs {
                f(x);
            }
            t.elapsed().as_nanos() as f64 / xs.len() as f64
        })
        .collect();
    median(&reps)
}

/// Direct calls into `ops5`, `spam::externals` and `geometry` on this
/// workload's own inputs, outside any round.
fn micro(sheet: &mut Sheet, inputs: &Inputs, rtf: &[Arc<Vec<FragmentHypothesis>>]) {
    let sp = &inputs.sp;
    let engines: Vec<u32> = (0..200).collect();
    sheet.set(
        "ops5.engine_new_us",
        ns_per_call(&engines, |_| {
            black_box(sp.engine());
        }) / 1e3,
    );

    // `Engine::make_wme` of every RTF fragment into a fresh engine, with
    // the fields `load_unit_wm` gives a fragment.
    let fields: Vec<Vec<(&str, Value)>> = rtf
        .iter()
        .flat_map(|frags| frags.iter())
        .map(|f| {
            vec![
                ("id", Value::Int(f.id as i64)),
                ("region", Value::Int(f.region as i64)),
                ("kind", f.kind.value()),
                ("conf", Value::Float(f.confidence)),
                ("support", Value::Int(0)),
                ("status", Value::symbol("hypothesised")),
            ]
        })
        .collect();
    let reps: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let mut e = sp.engine();
            let t = Instant::now();
            for f in &fields {
                e.make_wme("fragment", f).expect("fragment");
            }
            t.elapsed().as_nanos() as f64 / fields.len() as f64
        })
        .collect();
    sheet.set("ops5.make_wme_ns", median(&reps));

    // Every (subject, constraint, partner) the LCC rules hand to the
    // geometry externals: the Level-1 decomposition is that list.
    let mut pairs: Vec<(&'static spam::Constraint, &Polygon, &Polygon)> = Vec::new();
    for (scene, frags) in inputs.scenes.iter().zip(rtf) {
        for unit in decompose(scene, frags, Level::L1) {
            if let LccUnit::Pair {
                frag,
                constraint,
                other,
            } = unit
            {
                let poly = |f: u32| &scene.region(frags[f as usize].region).polygon;
                pairs.push((&CONSTRAINTS[constraint as usize], poly(frag), poly(other)));
            }
        }
    }
    sheet.set("spam.externals.calls", pairs.len() as f64);
    sheet.set(
        "spam.externals.eval_relation_ns",
        ns_per_call(&pairs, |(c, a, b)| {
            black_box(eval_relation(c.relation, c.param, a, b));
        }),
    );
    sheet.set(
        "geometry.intersects_ns",
        ns_per_call(&pairs, |(_, a, b)| {
            black_box(a.intersects(b));
        }),
    );
    sheet.set(
        "geometry.adjacent_to_ns",
        ns_per_call(&pairs, |(_, a, b)| {
            black_box(a.adjacent_to(b, ADJACENCY_GAP));
        }),
    );
    sheet.set(
        "geometry.obb_ns",
        ns_per_call(&pairs, |(_, a, _)| {
            black_box(Obb::of_points(a.vertices()));
        }),
    );
}

/// Exact counts from `run_lcc_profiled` and the Multimax simulation of
/// the same tasks at the same worker count. Returns the simulated
/// speed-up.
fn counts_and_simulation(
    sheet: &mut Sheet,
    w: &Workload,
    inputs: &Inputs,
    rtf: &[Arc<Vec<FragmentHypothesis>>],
    workers: usize,
) -> f64 {
    let mut work = WorkCounters::default();
    let mut net = ops5::NetStats::default();
    let (mut tasks, mut firings) = (0, 0);
    let (mut sim_one, mut sim_n, mut simulate_ms) = (0.0, 0.0, 0.0);
    for (scene, frags) in inputs.scenes.iter().zip(rtf) {
        let (phase, profile) = run_lcc_profiled(&inputs.sp, scene, frags, w.level);
        work.add(&phase.work);
        firings += phase.firings;
        tasks += phase.units.len();
        if let Some(p) = profile {
            net.merge(&p.net);
        }
        let trace = spam_psm::lcc_trace(&phase);
        let t = Instant::now();
        sim_one += simulate(&SimConfig::encore(1), &trace.tasks.tasks).makespan;
        sim_n += simulate(&SimConfig::encore(workers as u32), &trace.tasks.tasks).makespan;
        simulate_ms += t.elapsed().as_secs_f64() * 1e3;
    }
    sheet.set("ops5.firings", firings as f64);
    sheet.set("ops5.match_units", work.match_units as f64);
    sheet.set("ops5.resolve_units", work.resolve_units as f64);
    sheet.set("ops5.act_units", work.act_units as f64);
    sheet.set("ops5.external_units", work.external_units as f64);
    sheet.set("ops5.wme_adds", work.wme_adds as f64);
    sheet.set("ops5.rete.index_probes", net.index_probes as f64);
    sheet.set("ops5.rete.linear_scans", net.linear_scans as f64);
    sheet.set("ops5.rete.shared_node_hits", net.shared_node_hits as f64);
    sheet.set("ops5.rete.beta_nodes", net.beta_nodes as f64);
    sheet.set("spam.lcc.tasks", tasks as f64);
    sheet.set("multimax.sim_speedup", sim_one / sim_n);
    sheet.set("multimax.simulate_ms", simulate_ms);
    sim_one / sim_n
}

fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Everything the rounds of the traced pass collected.
struct Pass {
    rounds: u64,
    failed: u64,
    tr: Tracer,
    /// One sample per traced LCC task.
    tasks: Vec<TaskSample>,
    /// Per round: the traced `seq` arm, its LCC phase, the untraced `seq`
    /// arm and its phases.
    traced_ms: Vec<f64>,
    traced_lcc_ms: Vec<f64>,
    plain_ms: Vec<f64>,
    plain_phases: Vec<PhaseNs>,
    /// Per round: the `par` arm, its LCC phase, the pool's schedule, and
    /// (central queue only) the `par` arm without observers.
    par_ms: Vec<f64>,
    par_lcc_ms: Vec<f64>,
    exec: Vec<ExecTotals>,
    unobserved_ms: Vec<f64>,
    /// What the last round's runners reported.
    last_sides: Vec<ParSide>,
}

/// Runs the rounds: a traced and an untraced `seq` arm (order
/// alternating, their ratio is the tracing overhead), the `par` arm with
/// one span per parallel phase carrying what its runner reported, and on
/// the central queue the `par` arm again with the observers detached.
fn drive(w: &Workload, inputs: &Inputs, oracle: &Oracle, host: &Host, rounds: u64) -> Pass {
    let mut p = Pass {
        rounds,
        failed: 0,
        tr: Tracer::new(),
        tasks: Vec::new(),
        traced_ms: Vec::new(),
        traced_lcc_ms: Vec::new(),
        plain_ms: Vec::new(),
        plain_phases: Vec::new(),
        par_ms: Vec::new(),
        par_lcc_ms: Vec::new(),
        exec: Vec::new(),
        unobserved_ms: Vec::new(),
        last_sides: Vec::new(),
    };
    for round in 0..rounds {
        p.tr.round = round as u32;
        let traced_first = round % 2 == 0;
        let mut ok = true;
        for traced in [traced_first, !traced_first] {
            if traced {
                let tasks = &mut p.tasks;
                let (run, _) = arm(
                    &mut p.tr,
                    "seq_round",
                    inputs,
                    oracle,
                    |tr, scene, frags| {
                        let phase = traced_lcc(tr, &inputs.sp, scene, frags, w.level, tasks);
                        Ok((phase, ()))
                    },
                );
                p.traced_ms.push(run.wall_ms);
                p.traced_lcc_ms.push(run.phase_ns.lcc as f64 / 1e6);
                ok &= run.ok;
            } else {
                let run = seq_arm(&mut Wall, w, inputs, oracle);
                p.plain_ms.push(run.wall_ms);
                p.plain_phases.push(run.phase_ns);
                ok &= run.ok;
            }
        }

        let first_span = p.tr.spans.len();
        let (run, sides) = par_arm(&mut p.tr, w, inputs, oracle, host.workers, true);
        ok &= run.ok;
        p.par_ms.push(run.wall_ms);
        p.par_lcc_ms.push(run.phase_ns.lcc as f64 / 1e6);
        let phases = (first_span..p.tr.spans.len())
            .filter(|&i| p.tr.spans[i].name == "core.par_phase")
            .collect::<Vec<_>>();
        for (i, side) in phases.into_iter().zip(&sides) {
            p.tr.set_args(i as u32, phase_args(side));
        }
        p.exec.push(ExecTotals::of(&sides));
        p.last_sides = sides;

        if w.par == ParRunner::ObservedQueue {
            let (run, _) = par_arm(&mut Wall, w, inputs, oracle, host.workers, false);
            ok &= run.ok;
            p.unobserved_ms.push(run.wall_ms);
        }
        p.failed += u64::from(!ok);
    }
    p
}

/// What a `core.par_phase` span carries: its runner's own report.
fn phase_args(side: &ParSide) -> Json {
    let t = ExecTotals::of(std::slice::from_ref(side));
    Json::obj(vec![
        ("exec_wall_ms", Json::Num(t.wall_ms)),
        ("exec_busy_ms", Json::Num(t.busy_ms)),
        ("exec_fork_ms", Json::Num(t.fork_ms)),
        ("exec_queue_wait_ms", Json::Num(t.queue_wait_ms)),
        ("exec_chunks", Json::Num(t.chunks)),
        ("exec_attempts", Json::Num(t.attempts)),
        ("exec_steals", Json::Num(t.steals)),
        ("exec_lost_tasks", Json::Num(t.lost_tasks)),
        ("task_queue_wait_ms", Json::Num(side.queue_wait_ms)),
        ("task_attempts", Json::Num(side.attempts as f64)),
        ("task_retries", Json::Num(side.retries as f64)),
        ("task_dead_letters", Json::Num(side.dead_letters as f64)),
        ("recorder_events", Json::Num(side.recorder_events as f64)),
        ("live_series", Json::Num(side.live_series as f64)),
    ])
}

/// From the spans and the two `seq` arms: the LCC set-up split, phase
/// shares, tracing overhead. Returns the untraced sequential LCC ms.
fn seq_metrics(sheet: &mut Sheet, p: &Pass) -> f64 {
    let per_round = |name: &str| round_totals_ms(&p.tr.spans, name, p.rounds);
    let (engine, load, harvest, run) = (
        per_round("spam.lcc.engine"),
        per_round("spam.lcc.load_wm"),
        per_round("spam.lcc.harvest"),
        per_round("ops5.run"),
    );
    let tasks_per_round = (p.tasks.len() as u64 / p.rounds) as f64;
    sheet.set(
        "spam.lcc.decompose_ms",
        median(&per_round("spam.lcc.decompose")),
    );
    sheet.set("spam.lcc.engine_ms", median(&engine));
    sheet.set("spam.lcc.load_wm_ms", median(&load));
    sheet.set("spam.lcc.harvest_ms", median(&harvest));
    sheet.set("ops5.run_ms", median(&run));
    sheet.set(
        "spam.lcc.us_per_task",
        median(&p.traced_lcc_ms) * 1e3 / tasks_per_round,
    );
    let shares: Vec<f64> = (0..p.rounds as usize)
        .map(|r| (engine[r] + load[r] + harvest[r]) / p.traced_lcc_ms[r])
        .collect();
    sheet.set("spam.lcc.setup_share", median(&shares));
    sheet.set("trace.spans", p.tr.spans.len() as f64);
    sheet.set(
        "trace.overhead_ratio",
        median(&p.traced_ms) / median(&p.plain_ms),
    );

    let phase_ms = |f: fn(&PhaseNs) -> u64| {
        median(
            &p.plain_phases
                .iter()
                .map(|ns| f(ns) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    sheet.set("spam.rtf_ms", phase_ms(|ns| ns.rtf));
    sheet.set("spam.lcc_ms", phase_ms(|ns| ns.lcc));
    sheet.set("spam.fa_ms", phase_ms(|ns| ns.fa));
    sheet.set("spam.model_ms", phase_ms(|ns| ns.model));
    phase_ms(|ns| ns.lcc)
}

/// From the `par` arm: the pool's measured schedule (median over rounds
/// of the per-round sums; all 0 on the central queue, which reports no
/// schedule), the supervisor's report, the observers.
fn par_metrics(sheet: &mut Sheet, p: &Pass, seq_lcc_ms: f64) {
    let exec = |f: fn(&ExecTotals) -> f64| median(&p.exec.iter().map(f).collect::<Vec<_>>());
    sheet.set("core.exec.wall_ms", exec(|t| t.wall_ms));
    sheet.set("core.exec.busy_ms", exec(|t| t.busy_ms));
    sheet.set(
        "core.exec.utilization",
        exec(|t| ratio(t.busy_ms, t.capacity_ms)),
    );
    sheet.set("core.exec.fork_ms", exec(|t| t.fork_ms));
    sheet.set("core.exec.queue_wait_ms", exec(|t| t.queue_wait_ms));
    sheet.set(
        "core.exec.idle_tail_ms",
        exec(|t| t.capacity_ms - t.busy_ms - t.fork_ms - t.queue_wait_ms),
    );
    sheet.set(
        "core.exec.dispatch_us_per_task",
        exec(|t| ratio(t.dispatch_ms * 1e3, t.attempts)),
    );
    sheet.set("core.exec.chunks", exec(|t| t.chunks));
    sheet.set("core.exec.attempts", exec(|t| t.attempts));
    sheet.set("core.exec.steals", exec(|t| t.steals));
    sheet.set("core.exec.steal_misses", exec(|t| t.steal_misses));
    sheet.set("core.exec.overflow_taken", exec(|t| t.overflow_taken));
    sheet.set("core.exec.lost_tasks", exec(|t| t.lost_tasks));
    sheet.set(
        "core.exec.busy_inflation",
        ratio(exec(|t| t.busy_ms), seq_lcc_ms),
    );
    sheet.set(
        "core.exec.work_over_span",
        exec(|t| ratio(t.busy_ms, t.longest_ms)),
    );
    sheet.set("core.tlp.merge_ms", exec(|t| t.merge_ms));

    let sum = |f: fn(&ParSide) -> f64| p.last_sides.iter().map(f).sum::<f64>();
    sheet.set("core.supervise.queue_wait_ms", sum(|s| s.queue_wait_ms));
    sheet.set("core.supervise.attempts", sum(|s| s.attempts as f64));
    sheet.set("core.supervise.retries", sum(|s| s.retries as f64));
    sheet.set(
        "core.supervise.dead_letters",
        sum(|s| s.dead_letters as f64),
    );
    sheet.set("obs.recorder.events", sum(|s| s.recorder_events as f64));
    sheet.set("obs.live.series", sum(|s| s.live_series as f64));
    let unobserved = if p.unobserved_ms.is_empty() {
        0.0
    } else {
        median(&p.unobserved_ms)
    };
    sheet.set("obs.overhead_ratio", ratio(median(&p.par_ms), unobserved));
}

/// Units → ns: non-negative least-squares fit of each traced task's
/// (load + run) nanoseconds against its `WorkCounters`.
fn calibration(sheet: &mut Sheet, tasks: &[TaskSample]) -> Result<(), String> {
    let rows: Vec<[f64; nnls::COLS]> = tasks
        .iter()
        .map(|t| {
            [
                t.work.match_units as f64,
                t.work.resolve_units as f64,
                t.work.act_units as f64,
                t.work.external_units as f64,
                1.0,
            ]
        })
        .collect();
    let y: Vec<f64> = tasks.iter().map(|t| t.ns as f64).collect();
    let fit = nnls::fit(&rows, &y).ok_or("no LCC task was traced")?;
    sheet.set("calib.ns_per_match_unit", fit.coef[0]);
    sheet.set("calib.ns_per_resolve_unit", fit.coef[1]);
    sheet.set("calib.ns_per_act_unit", fit.coef[2]);
    sheet.set("calib.ns_per_external_unit", fit.coef[3]);
    sheet.set("calib.fixed_ns_per_task", fit.coef[4]);
    sheet.set("calib.residual_pct", fit.residual_pct);
    Ok(())
}

/// Runs the traced pass of `w`, writes `out/trace-<workload>.json`, and
/// returns the per-layer metrics.
pub fn run(w: &Workload, seed: u64, quick: bool, host: &Host) -> Result<Outcome, String> {
    let mut sheet = Sheet::default();
    let calib_ms = kernel_ms();
    let setup = SetUp::measure(w, seed, quick);
    let inputs = &setup.inputs;
    sheet.set("ops5.compile_ms", median(&setup.build_s) * 1e3);
    sheet.set("spam.generate_ms", median(&setup.generate_s) * 1e3);
    let (oracle, warmup_s) = warm_up(w, inputs, seed, host)?;

    let rounds = if quick { QUICK_ROUNDS } else { TRACE_ROUNDS };
    let p = drive(w, inputs, &oracle, host, rounds);
    let seq_lcc_ms = seq_metrics(&mut sheet, &p);
    par_metrics(&mut sheet, &p, seq_lcc_ms);
    calibration(&mut sheet, &p.tasks)?;

    let rtf: Vec<Arc<Vec<FragmentHypothesis>>> = inputs
        .scenes
        .iter()
        .map(|s| Arc::new(spam::rtf::run_rtf(&inputs.sp, s).fragments))
        .collect();
    let sim_speedup = counts_and_simulation(&mut sheet, w, inputs, &rtf, host.workers);
    sheet.set(
        "ops5.ns_per_firing",
        sheet.0["ops5.run_ms"] * 1e6 / sheet.0["ops5.firings"],
    );
    sheet.set(
        "multimax.sim_vs_real",
        seq_lcc_ms / median(&p.par_lcc_ms) / sim_speedup,
    );
    micro(&mut sheet, inputs, &rtf);

    // Timing is over: write the trace, print the tables.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", w.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_json(w.name, seed, &p.tr.spans).write()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    host.print(calib_ms);
    println!("harness.warmup_s = {warmup_s:.3}");
    println!("rounds_attempted = {rounds}");
    println!("failed_rounds = {}", p.failed);
    println!("trace.file = {}", path.display());
    println!("blind spot: inside Engine::run the match/resolve/act/external split is unit counts");
    println!(
        "  and the calib.* fit only; ThreadedMatcher, svm_sim and core::recover are not measured"
    );
    println!(
        "{:<24} {:>8} {:>12} {:>12}",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, (calls, total, own)) in spans::by_name(&p.tr.spans) {
        println!(
            "{name:<24} {calls:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let metrics = sheet.metrics();
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        attempted: rounds,
        failed: p.failed,
        metrics,
    })
}
