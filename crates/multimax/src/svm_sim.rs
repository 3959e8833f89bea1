//! The two-machine SVM simulation.
//!
//! [`crate::svm::SvmConfig`] is a *closed-form* cost model: remote workers
//! pay a fixed overhead per task and a warmup at fork, and that is all the
//! simulator knows. This module promotes the model into an event-emitting
//! simulation of the §7 platform — two Encores coupled by the CMU
//! netmemory server — so the observability stack can see *where* the
//! ≈1.5-processor translational cost goes:
//!
//! * Each machine keeps its own event log, one Chrome process each, and
//!   both are stamped in the simulator's one clock (microseconds).
//! * Every remote page fault becomes a **four-leg exchange**: `page.fault`
//!   (request leaves the remote machine) → `page.req` (request arrives
//!   home) → `page.send` (data leaves home) → `page.recv` (data arrives
//!   remote), correlated by an `xfer` id. One fault of cost
//!   `c` splits 0.2c request wire, 0.1c directory service, 0.7c data wire —
//!   the data leg dominates because pages are big and requests are not.
//! * A deterministic **page directory** tracks per-page coherence traffic:
//!   faults, actual transfers (a page already valid at the remote machine
//!   re-faults without moving data), bytes shipped (scaled by the 64-byte
//!   sub-page factor), and invalidations (home writes invalidate remote
//!   copies; remote write faults invalidate the home copy).
//! * `task.migrate` instants mark each dispatch of a task to the remote
//!   cluster.
//!
//! ## Determinism contract
//!
//! The simulation result is computed *first*, by the ordinary
//! [`simulate_with_faults`] event loop; events and counters are derived
//! from it afterwards and flow through level-gated `tlp-obs` sinks. Work
//! totals, makespan, and the coherence counters are therefore bit-identical
//! whether the recorder is off or on.

use crate::sim::{simulate_with_faults, SimConfig, SimResult};
use crate::task::Task;
use std::collections::{BTreeMap, BTreeSet};
use tlp_fault::FaultPlan;
use tlp_obs::export::{EV_PAGE_FAULT, EV_PAGE_RECV, EV_PAGE_REQ, EV_PAGE_SEND, XFER_ARG};
use tlp_obs::{
    ArgValue, Category, CounterSeries, EventKind, MachineLog, ObsLevel, Recorder, Span, Timeline,
    Track,
};

/// Event name of a directory invalidation (home machine).
pub const EV_PAGE_INVAL: &str = "page.inval";
/// Event name of a task dispatched to the remote cluster (home machine).
pub const EV_TASK_MIGRATE: &str = "task.migrate";

/// Fraction of one fault spent on the request wire leg.
const REQ_LEG: f64 = 0.2;
/// Fraction of one fault spent in directory service at the home machine.
const SERVICE_LEG: f64 = 0.1;
/// Fraction of one fault spent on the data wire leg (8 KB page vs a
/// request packet: the data leg dominates).
const WIRE_LEG: f64 = 0.7;

/// Configuration of the two-machine SVM simulation.
#[derive(Clone, Copy, Debug)]
pub struct SvmSimConfig {
    /// The underlying simulation (machine, workers, schedule, SVM costs).
    pub sim: SimConfig,
    /// Page size in bytes (the Encores used 8 KB pages).
    pub page_bytes: u64,
    /// Size of the shared page space the deterministic page map hashes
    /// into; smaller values mean more inter-task page sharing.
    pub page_table: u64,
    /// Recording level for the per-machine event logs.
    pub level: ObsLevel,
}

impl SvmSimConfig {
    /// The §7 dual-Encore platform with `n` task processes and the
    /// recorder off.
    pub fn dual_encore(n: u32) -> SvmSimConfig {
        SvmSimConfig {
            sim: SimConfig::dual_encore(n),
            page_bytes: 8192,
            page_table: 4096,
            level: ObsLevel::Off,
        }
    }
}

/// Coherence traffic counters (per page, and aggregated).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageStats {
    /// Remote page faults taken (every fault costs time, even when the
    /// page is already cached — false sharing re-faults).
    pub faults: u64,
    /// Faults that actually moved data (page not valid at the remote).
    pub transfers: u64,
    /// Bytes shipped (transfers × page size × sub-page shipping factor).
    pub bytes: u64,
    /// Invalidations: home writes killing remote copies plus remote write
    /// faults killing the home copy.
    pub invalidations: u64,
}

/// The cross-machine overhead, decomposed in processor-seconds. Feeds the
/// SVM gap accountant in `spam-psm`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SvmOverheads {
    /// One-time warmup paid by every remote worker at fork.
    pub warmup_s: f64,
    /// Request + directory-service share of all per-task fault overhead.
    pub page_wait_s: f64,
    /// Data-wire share of all per-task fault overhead.
    pub transfer_s: f64,
}

impl SvmOverheads {
    /// Total cross-machine overhead in processor-seconds.
    pub fn total(&self) -> f64 {
        self.warmup_s + self.page_wait_s + self.transfer_s
    }
}

/// Result of one two-machine run: the plain simulation result plus the
/// derived coherence counters, overhead decomposition, and per-machine
/// event logs.
#[derive(Clone, Debug)]
pub struct SvmSimResult {
    /// The configuration that produced this run.
    pub cfg: SvmSimConfig,
    /// The underlying simulation result (bit-identical to running
    /// [`simulate_with_faults`] directly).
    pub sim: SimResult,
    /// Overhead decomposition in processor-seconds.
    pub overheads: SvmOverheads,
    /// Aggregate coherence counters.
    pub totals: PageStats,
    /// Per-page coherence counters (page id → stats).
    pub pages: BTreeMap<u64, PageStats>,
    /// Home machine's event log. Empty below `Summary`.
    pub home: MachineLog,
    /// Remote machine's event log. Empty below `Summary`.
    pub remote: MachineLog,
    /// Per-execution fault overhead (seconds), parallel to
    /// `sim.executions`; zero for local workers, storm-adjusted for
    /// remote ones.
    pub fault_overheads: Vec<f64>,
}

/// A page operation in simulated time, derived from the schedule.
enum PageOp {
    /// A remote worker faults on `page`; the exchange occupies `dur`
    /// seconds starting at `t`. `sample` marks the last fault of a task
    /// (or warmup run) — the coherence counters are sampled there.
    Fault {
        worker: u32,
        task: Option<u32>,
        page: u64,
        t: f64,
        dur: f64,
        write: bool,
        sample: bool,
    },
    /// A home worker commits `page` at `t`, invalidating any remote copy.
    HomeWrite { page: u64, t: f64 },
}

impl PageOp {
    fn time(&self) -> f64 {
        match self {
            PageOp::Fault { t, .. } => *t,
            PageOp::HomeWrite { t, .. } => *t,
        }
    }
}

/// Deterministic page map: which shared page fault `k` of `task` lands on.
/// Distinct tasks collide (the shared working memory is one address
/// space), which is what makes invalidation traffic non-trivial.
fn page_of(task: u32, k: u64, page_table: u64) -> u64 {
    (u64::from(task)
        .wrapping_mul(7919)
        .wrapping_add(k.wrapping_mul(61)))
        % page_table.max(1)
}

/// Pending event: (simulated seconds, tiebreak ordinal, name, kind, args).
type Pending = (
    f64,
    u64,
    &'static str,
    EventKind,
    Vec<(&'static str, ArgValue)>,
);

fn emit_sorted(sink: &mut tlp_obs::ThreadSink, mut pending: Vec<Pending>) {
    pending.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (t, _, name, kind, args) in pending {
        sink.emit_at((t * 1e6).round() as u64, Category::Svm, name, kind, args);
    }
}

/// Runs the two-machine SVM simulation (benign fault plan).
pub fn simulate_svm(cfg: &SvmSimConfig, tasks: &[Task]) -> SvmSimResult {
    simulate_svm_with_faults(cfg, tasks, &FaultPlan::none())
}

/// Runs the two-machine SVM simulation under an injected [`FaultPlan`].
///
/// The schedule is computed first by [`simulate_with_faults`]; page
/// traffic, coherence counters, and per-machine event logs are derived
/// from it afterwards, so observability can never perturb the result.
pub fn simulate_svm_with_faults(
    cfg: &SvmSimConfig,
    tasks: &[Task],
    plan: &FaultPlan,
) -> SvmSimResult {
    let sim = simulate_with_faults(&cfg.sim, tasks, plan);
    let svm = cfg.sim.svm;
    let machine = cfg.sim.machine;

    // ---- derive page operations in simulated time (pure) ----
    let mut ops: Vec<PageOp> = Vec::new();
    let mut warmup_s = 0.0f64;
    let mut fault_overheads: Vec<f64> = Vec::with_capacity(sim.executions.len());

    for w in 0..cfg.sim.task_processes {
        if !machine.is_remote(w) {
            continue;
        }
        let warm = svm.warmup_overhead();
        warmup_s += warm;
        let nf = svm
            .warmup_faults
            .round()
            .max(if warm > 0.0 { 1.0 } else { 0.0 }) as u64;
        if nf == 0 {
            continue;
        }
        let c = warm / nf as f64;
        for k in 0..nf {
            ops.push(PageOp::Fault {
                worker: w,
                task: None,
                page: k % cfg.page_table.max(1),
                t: cfg.sim.fork_overhead + k as f64 * c,
                dur: c,
                write: false,
                sample: k + 1 == nf,
            });
        }
    }

    let mut page_wait_s = 0.0f64;
    let mut transfer_s = 0.0f64;
    for e in &sim.executions {
        if !machine.is_remote(e.worker) {
            fault_overheads.push(0.0);
            // A home task's commit invalidates remote copies of its pages.
            let np = svm.faults_per_task.round() as u64;
            for k in 0..np {
                ops.push(PageOp::HomeWrite {
                    page: page_of(e.task, k, cfg.page_table),
                    t: e.finished,
                });
            }
            continue;
        }
        let storm = plan.page_fault_factor(e.task as usize);
        let overhead = svm.per_task_overhead_with_storm(storm);
        fault_overheads.push(overhead);
        page_wait_s += (REQ_LEG + SERVICE_LEG) * overhead;
        transfer_s += WIRE_LEG * overhead;
        let nf = (svm.faults_per_task * svm.false_sharing * storm)
            .round()
            .max(if overhead > 0.0 { 1.0 } else { 0.0 }) as u64;
        if nf == 0 {
            continue;
        }
        let c = overhead / nf as f64;
        for k in 0..nf {
            ops.push(PageOp::Fault {
                worker: e.worker,
                task: Some(e.task),
                page: page_of(e.task, k, cfg.page_table),
                t: e.started + k as f64 * c,
                dur: c,
                write: k % 3 == 0,
                sample: k + 1 == nf,
            });
        }
    }

    // Chronological order; insertion index breaks ties deterministically.
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by(|&a, &b| ops[a].time().total_cmp(&ops[b].time()).then(a.cmp(&b)));

    // ---- run the coherence protocol and emit events ----
    let home_rec = Recorder::new(cfg.level);
    let remote_rec = Recorder::new(cfg.level);
    let emit = home_rec.enabled(ObsLevel::Summary);
    let emit_full = home_rec.enabled(ObsLevel::Full);

    let mut control_pending: Vec<Pending> = Vec::new();
    let mut server_pending: Vec<Pending> = Vec::new();
    let mut pager_pending: BTreeMap<u32, Vec<Pending>> = (0..cfg.sim.task_processes)
        .filter(|&w| machine.is_remote(w))
        .map(|w| (w, Vec::new()))
        .collect();

    if emit {
        for e in sim
            .executions
            .iter()
            .filter(|e| machine.is_remote(e.worker))
        {
            control_pending.push((
                e.acquired,
                control_pending.len() as u64,
                EV_TASK_MIGRATE,
                EventKind::Instant,
                vec![
                    ("task", ArgValue::U64(u64::from(e.task))),
                    ("worker", ArgValue::U64(u64::from(e.worker))),
                ],
            ));
        }
    }

    let mut valid: BTreeSet<u64> = BTreeSet::new();
    let mut pages: BTreeMap<u64, PageStats> = BTreeMap::new();
    let mut totals = PageStats::default();
    let seg_bytes = (cfg.page_bytes as f64 * svm.segment_shipping_factor).round() as u64;
    let mut xfer = 0u64;
    for (ord, &i) in order.iter().enumerate() {
        let ord = ord as u64;
        match &ops[i] {
            PageOp::Fault {
                worker,
                task,
                page,
                t,
                dur,
                write,
                sample,
            } => {
                let st = pages.entry(*page).or_default();
                st.faults += 1;
                totals.faults += 1;
                let moved = valid.insert(*page);
                if moved {
                    st.transfers += 1;
                    st.bytes += seg_bytes;
                    totals.transfers += 1;
                    totals.bytes += seg_bytes;
                }
                if *write {
                    st.invalidations += 1;
                    totals.invalidations += 1;
                }
                if emit {
                    let id = xfer;
                    xfer += 1;
                    let mut args = vec![
                        (XFER_ARG, ArgValue::U64(id)),
                        ("page", ArgValue::U64(*page)),
                    ];
                    if let Some(task) = task {
                        args.push(("task", ArgValue::U64(u64::from(*task))));
                    }
                    let pager = pager_pending.get_mut(worker).expect("remote worker");
                    pager.push((*t, ord, EV_PAGE_FAULT, EventKind::Instant, args.clone()));
                    server_pending.push((
                        t + REQ_LEG * dur,
                        ord,
                        EV_PAGE_REQ,
                        EventKind::Instant,
                        args.clone(),
                    ));
                    server_pending.push((
                        t + (REQ_LEG + SERVICE_LEG) * dur,
                        ord,
                        EV_PAGE_SEND,
                        EventKind::Instant,
                        args.clone(),
                    ));
                    pager.push((t + dur, ord, EV_PAGE_RECV, EventKind::Instant, args));
                    if emit_full && *write {
                        // The remote write fault invalidates the home copy
                        // when the request reaches the directory.
                        server_pending.push((
                            t + REQ_LEG * dur,
                            ord,
                            EV_PAGE_INVAL,
                            EventKind::Instant,
                            vec![("page", ArgValue::U64(*page))],
                        ));
                    }
                    if *sample {
                        let ts = t + dur;
                        for (name, v) in [
                            ("svm.faults", totals.faults as f64),
                            ("svm.transfers", totals.transfers as f64),
                            ("svm.bytes", totals.bytes as f64),
                            ("svm.invalidations", totals.invalidations as f64),
                        ] {
                            server_pending.push((ts, ord, name, EventKind::Counter(v), Vec::new()));
                        }
                    }
                }
            }
            PageOp::HomeWrite { page, t } => {
                if valid.remove(page) {
                    let st = pages.entry(*page).or_default();
                    st.invalidations += 1;
                    totals.invalidations += 1;
                    if emit_full {
                        server_pending.push((
                            *t,
                            ord,
                            EV_PAGE_INVAL,
                            EventKind::Instant,
                            vec![("page", ArgValue::U64(*page))],
                        ));
                    }
                }
            }
        }
    }

    // Flush through real sinks so logical clocks and thread ordinals are
    // assigned exactly as a live recorder would.
    let mut control = home_rec.sink("control");
    let mut server = home_rec.sink("svm-server");
    emit_sorted(&mut control, control_pending);
    emit_sorted(&mut server, server_pending);
    drop(control);
    drop(server);
    for (w, pending) in pager_pending {
        let mut pager = remote_rec.sink(format!("pager {w}"));
        emit_sorted(&mut pager, pending);
    }

    let home = MachineLog {
        name: "m0".into(),
        threads: home_rec.threads(),
        events: home_rec.events(),
    };
    let remote = MachineLog {
        name: "m1".into(),
        threads: remote_rec.threads(),
        events: remote_rec.events(),
    };

    SvmSimResult {
        cfg: *cfg,
        sim,
        overheads: SvmOverheads {
            warmup_s,
            page_wait_s,
            transfer_s,
        },
        totals,
        pages,
        home,
        remote,
        fault_overheads,
    }
}

impl SvmSimResult {
    /// Reconstructs one simulated-time [`Timeline`] per machine, in
    /// seconds and with SVM activity split out: remote workers show
    /// `warmup` and per-task `page t<N>` spans before each `exec` span.
    /// Both timelines share the run's makespan, so every simulated instant
    /// on every processor of either machine is attributed to a span.
    pub fn timelines(&self) -> (Timeline, Timeline) {
        let machine = self.cfg.sim.machine;
        let mut home = Timeline::new(self.home.name.clone(), self.sim.makespan);
        let mut remote = Timeline::new(self.remote.name.clone(), self.sim.makespan);
        for w in 0..self.cfg.sim.task_processes {
            let is_rem = machine.is_remote(w);
            let ready = self.sim.fork_ready[w as usize];
            let mut spans = Vec::new();
            if is_rem {
                let fork_end = self.cfg.sim.fork_overhead.min(ready);
                if fork_end > 0.0 {
                    spans.push(Span::new("fork", Category::Sim, 0.0, fork_end));
                }
                if ready > fork_end {
                    spans.push(Span::new("warmup", Category::Svm, fork_end, ready));
                }
            } else if ready > 0.0 {
                spans.push(Span::new("fork", Category::Sim, 0.0, ready));
            }
            let mut cursor = ready;
            for (e, &overhead) in self
                .sim
                .executions
                .iter()
                .zip(&self.fault_overheads)
                .filter(|(e, _)| e.worker == w)
            {
                if e.acquired > cursor {
                    spans.push(Span::new("wait-queue", Category::Queue, cursor, e.acquired));
                }
                if e.started > e.acquired {
                    spans.push(Span::new("dequeue", Category::Queue, e.acquired, e.started));
                }
                let o = overhead.min(e.finished - e.started);
                if o > 0.0 {
                    spans.push(Span::new(
                        format!("page t{}", e.task),
                        Category::Svm,
                        e.started,
                        e.started + o,
                    ));
                }
                spans.push(Span::new(
                    format!("exec t{}", e.task),
                    Category::Sim,
                    e.started + o,
                    e.finished,
                ));
                cursor = e.finished;
            }
            if let Some(d) = self.sim.deaths.iter().find(|d| d.worker == w) {
                if d.acquired > cursor {
                    spans.push(Span::new("wait-queue", Category::Queue, cursor, d.acquired));
                }
                if d.died > d.acquired {
                    spans.push(Span::new("dequeue", Category::Queue, d.acquired, d.died));
                }
                spans.push(Span::new(
                    format!("death t{}", d.task),
                    Category::Sim,
                    d.died,
                    d.detected,
                ));
                cursor = d.detected;
            }
            if self.sim.makespan > cursor {
                spans.push(Span::new("idle", Category::Sim, cursor, self.sim.makespan));
            }
            let track = Track {
                name: format!("worker {w}"),
                spans,
            };
            if is_rem {
                remote.tracks.push(track);
            } else {
                home.tracks.push(track);
            }
        }
        let total = self.sim.completions.len() + self.sim.lost_tasks as usize;
        let mut samples = vec![(0.0, total as f64)];
        for (i, &(_, t)) in self.sim.completions.iter().enumerate() {
            samples.push((t, (total - i - 1) as f64));
        }
        home.counters.push(CounterSeries {
            name: "outstanding_tasks".into(),
            samples,
        });
        (home, remote)
    }

    /// Number of remote task processes in this run.
    pub fn remote_workers(&self) -> u32 {
        (0..self.cfg.sim.task_processes)
            .filter(|&w| self.cfg.sim.machine.is_remote(w))
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn uniform_tasks(n: u32, service: f64) -> Vec<Task> {
        (0..n).map(|i| Task::new(i, service)).collect()
    }

    fn cfg(n: u32, level: ObsLevel) -> SvmSimConfig {
        let mut c = SvmSimConfig::dual_encore(n);
        c.level = level;
        c
    }

    #[test]
    fn svm_sim_is_bit_identical_to_plain_sim() {
        let tasks = uniform_tasks(120, 2.0);
        let c = cfg(20, ObsLevel::Full);
        let plain = simulate_with_faults(&c.sim, &tasks, &FaultPlan::none());
        let svm = simulate_svm(&c, &tasks);
        assert_eq!(svm.sim.makespan.to_bits(), plain.makespan.to_bits());
        assert_eq!(svm.sim.total_work.to_bits(), plain.total_work.to_bits());
        assert_eq!(svm.sim.busy, plain.busy);
        assert_eq!(svm.sim.completions, plain.completions);
    }

    #[test]
    fn recorder_level_never_changes_results() {
        let tasks = uniform_tasks(150, 1.5);
        let off = simulate_svm(&cfg(20, ObsLevel::Off), &tasks);
        let full = simulate_svm(&cfg(20, ObsLevel::Full), &tasks);
        assert_eq!(off.sim.makespan.to_bits(), full.sim.makespan.to_bits());
        assert_eq!(off.sim.total_work.to_bits(), full.sim.total_work.to_bits());
        assert_eq!(off.totals, full.totals);
        assert_eq!(off.pages, full.pages);
        assert_eq!(off.overheads, full.overheads);
        // Off records nothing; the result is derived, never observed.
        assert!(off.home.events.is_empty());
        assert!(off.remote.events.is_empty());
    }

    #[test]
    fn overheads_decompose_the_charged_service_exactly() {
        let tasks = uniform_tasks(200, 2.0);
        let c = cfg(20, ObsLevel::Off);
        let r = simulate_svm(&c, &tasks);
        let svm = c.sim.svm;
        // Warmup: every remote worker paid one warmup at fork.
        let remotes = f64::from(r.remote_workers());
        assert!((r.overheads.warmup_s - remotes * svm.warmup_overhead()).abs() < 1e-9);
        // Fault overhead: page-wait + transfer equals the charged extra
        // service exactly (0.3/0.7 split of the same total).
        let remote_tasks: u32 = r
            .sim
            .executions
            .iter()
            .filter(|e| c.sim.machine.is_remote(e.worker))
            .count() as u32;
        let charged = f64::from(remote_tasks) * svm.per_task_overhead();
        assert!(
            (r.overheads.page_wait_s + r.overheads.transfer_s - charged).abs() < 1e-6,
            "split {} vs charged {charged}",
            r.overheads.page_wait_s + r.overheads.transfer_s
        );
        assert!((r.overheads.page_wait_s / charged - 0.3).abs() < 1e-9);
        assert!((r.overheads.transfer_s / charged - 0.7).abs() < 1e-9);
    }

    #[test]
    fn coherence_counters_are_consistent() {
        let tasks = uniform_tasks(180, 2.0);
        let r = simulate_svm(&cfg(20, ObsLevel::Off), &tasks);
        assert!(r.totals.faults > 0);
        assert!(r.totals.transfers > 0);
        assert!(r.totals.transfers <= r.totals.faults);
        // Bytes are transfers × segment size.
        let seg = (8192.0 * r.cfg.sim.svm.segment_shipping_factor).round() as u64;
        assert_eq!(r.totals.bytes, r.totals.transfers * seg);
        // Home commits + remote write faults both invalidate.
        assert!(r.totals.invalidations > 0);
        // Per-page stats sum to the aggregate.
        let sum: u64 = r.pages.values().map(|p| p.faults).sum();
        assert_eq!(sum, r.totals.faults);
        // Deterministic replay.
        let r2 = simulate_svm(&cfg(20, ObsLevel::Off), &tasks);
        assert_eq!(r.totals, r2.totals);
        assert_eq!(r.pages, r2.pages);
    }

    #[test]
    fn zero_tasks_still_pays_warmup_but_nothing_else() {
        // Edge case: forked remote workers copy the initial working memory
        // even when the queue turns out to be empty — warmup is a property
        // of the fork, not of the tasks. Everything per-task stays zero.
        let r = simulate_svm(&cfg(20, ObsLevel::Full), &[]);
        let remotes = f64::from(r.remote_workers());
        assert!(remotes > 0.0);
        assert!((r.overheads.warmup_s - remotes * r.cfg.sim.svm.warmup_overhead()).abs() < 1e-9);
        assert_eq!(r.overheads.page_wait_s, 0.0);
        assert_eq!(r.overheads.transfer_s, 0.0);
        assert!(r.sim.executions.is_empty());
        assert!(r.sim.completions.is_empty());
        // Coherence counters show only the warmup fault storm.
        let warm_faults = r.cfg.sim.svm.warmup_faults.round() as u64 * remotes as u64;
        assert_eq!(r.totals.faults, warm_faults);
    }

    #[test]
    fn local_only_run_has_no_svm_traffic() {
        let tasks = uniform_tasks(60, 1.0);
        let r = simulate_svm(&cfg(13, ObsLevel::Full), &tasks);
        assert_eq!(r.totals, PageStats::default());
        assert_eq!(r.overheads.total(), 0.0);
        assert!(r.remote.events.is_empty());
        assert_eq!(r.remote_workers(), 0);
    }

    #[test]
    fn every_xfer_has_its_four_legs_in_order() {
        let tasks = uniform_tasks(160, 2.0);
        let r = simulate_svm(&cfg(20, ObsLevel::Full), &tasks);
        // Migration instants appear for remote dispatches only.
        assert!(r.home.events.iter().any(|e| e.name == EV_TASK_MIGRATE));
        // xfer id -> [page.fault, page.req, page.send, page.recv] stamps.
        let mut legs: BTreeMap<u64, [Option<u64>; 4]> = BTreeMap::new();
        for e in r.home.events.iter().chain(&r.remote.events) {
            let leg = [EV_PAGE_FAULT, EV_PAGE_REQ, EV_PAGE_SEND, EV_PAGE_RECV]
                .iter()
                .position(|n| e.name == *n);
            let id = e.args.iter().find_map(|(k, v)| match (*k, v) {
                (XFER_ARG, ArgValue::U64(id)) => Some(*id),
                _ => None,
            });
            if let (Some(leg), Some(id)) = (leg, id) {
                assert!(legs.entry(id).or_default()[leg]
                    .replace(e.wall_us)
                    .is_none());
            }
        }
        assert_eq!(legs.len() as u64, r.totals.faults);
        for (id, l) in &legs {
            let [f, q, s, v] = l.map(|t| t.expect("all four legs"));
            assert!(f <= q && q <= s && s <= v, "xfer {id}: {l:?}");
        }
    }

    #[test]
    fn two_machine_chrome_trace_validates_with_high_coverage() {
        use tlp_obs::{validate_chrome_trace, TraceDoc};
        let tasks = uniform_tasks(160, 2.0);
        let r = simulate_svm(&cfg(20, ObsLevel::Full), &tasks);
        let (home_tl, remote_tl) = r.timelines();
        let mut doc = TraceDoc::new();
        doc.add_machine(&r.home);
        doc.add_machine(&r.remote);
        doc.add_timeline(&home_tl);
        doc.add_timeline(&remote_tl);
        let sum = validate_chrome_trace(&doc.write()).unwrap();
        assert_eq!(sum.processes, 4);
        assert!(sum.coverage.unwrap() > 0.99, "coverage {:?}", sum.coverage);
    }

    #[test]
    fn timelines_cover_both_machines_fully() {
        let tasks = uniform_tasks(140, 2.0);
        let r = simulate_svm(&cfg(20, ObsLevel::Off), &tasks);
        let (home, remote) = r.timelines();
        assert_eq!(home.tracks.len(), 13);
        assert_eq!(remote.tracks.len(), 7);
        assert!(home.coverage() > 0.999_999, "home {}", home.coverage());
        assert!(
            remote.coverage() > 0.999_999,
            "remote {}",
            remote.coverage()
        );
        // Remote tracks show the SVM-specific spans.
        let names: Vec<&str> = remote.tracks[0]
            .spans
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert!(names.contains(&"warmup"), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("page t")), "{names:?}");
    }

    #[test]
    fn dual_encore_svm_machine_still_shapes_the_run() {
        // Sanity link to the machine model: exactly the workers at index
        // ≥ local usable are remote.
        let m = Machine::dual_encore_svm();
        assert_eq!(m.local.usable(), 13);
        assert!(m.is_remote(13));
        assert!(!m.is_remote(12));
    }
}
