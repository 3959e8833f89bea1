//! `spamctl` — drive the SPAM interpretation pipeline from the command line.
//!
//! ```sh
//! spamctl [run] [sf|dc|moff|suburb] [--level 1|2|3|4] [--workers N]
//!         [--exec real|sim] [--machines 1|2] [--svm tuned|naive] [--retries K]
//!         [--fault-seed S] [--task-panic-rate P] [--topdown] [--sweep]
//!         [--quiet] [--unshared] [--obs off|summary|full] [--trace-out F]
//!         [--metrics-out F] [--metrics-snapshot F] [--traces-out F]
//! spamctl profile [sf|dc|moff|suburb] [--level 1|2|3|4] [--top K] [--json F]
//!         [--check-band LO:HI] [--unshared]
//! spamctl svm-report [sf|dc|moff|suburb] [--level 1|2|3|4] [--workers N]
//!         [--svm tuned|naive] [--top K] [--json F] [--trace-out F]
//!         [--check-loss LO:HI] [--unshared]
//! spamctl chaos [sf|dc|moff|suburb] [--level 1|2|3|4] [--seed N] [--kills K]
//!         [--workers N] [--exec real|sim] [--unshared]
//! spamctl whatif [sf|dc|moff|suburb] [--level 1|2|3|4] [--workers N]
//!         [--target prod:<name>|task:<id>|level:<n>|component:<fork|dequeue>|match]
//!         [--scale PCT] [--top K] [--json F] [--unshared]
//! spamctl trace <id> [--from F]
//! ```
//!
//! That is `spamctl --help`, and both are the flag table (`COMMANDS`): a
//! subcommand reads the flags of its row and no other, so a flag outside
//! the row, a second subcommand, or a dataset where none is read is an
//! error that names both — not something silently ignored.
//!
//! * default: run the full pipeline and print the interpretation summary
//!   (`run` is an optional explicit subcommand for the same thing);
//! * `profile`: run the LCC phase under the match-level profiler and print
//!   the speed-up-doctor report — hot productions and alpha memories,
//!   the per-phase Amdahl decomposition, the ideal-vs-measured gap
//!   attribution, the critical task chain, and predicted-vs-measured
//!   combined speed-ups. `--json F` also writes the machine-readable
//!   report; `--check-band LO:HI` exits non-zero unless the measured
//!   match fraction lies in `[LO, HI]` (the CI perf-smoke gate);
//! * `svm-report`: run the two-machine SVM simulation of the LCC phase
//!   (dataset defaults to `sf`, the paper's Figure 9 scene; 20 task
//!   processes = 13 local + 7 remote) and print the **overhead
//!   accountant** — the exact gap decomposition (fork / queue / warmup /
//!   page-wait / transfer / idle), page-coherence counters, and the
//!   headline effective-processors-lost figure (paper §7: ≈1.5).
//!   `--check-loss LO:HI` exits non-zero unless the figure lies in
//!   `[LO, HI]` (the CI gate); `--trace-out F` writes the two-machine
//!   Chrome trace;
//! * `whatif`: the causal what-if profiler — replay the recorded LCC trace
//!   (and its match profile) with a **virtual speedup** applied to a
//!   target, re-simulate under the Encore cost model, and print the ranked
//!   "optimize this next" report: predicted makespan, wall-clock saving,
//!   critical-chain movement and a diminishing-returns curve
//!   (10/25/50/75/100%) per candidate. Without `--target` the candidates
//!   are the whole-phase match, the hottest productions, the actionable
//!   cost-model components (fork, dequeue), and the critical-chain task;
//!   `--target` restricts the report to one of them. `--scale PCT` sets
//!   the reference virtual speedup (default 50); `--json F` writes the
//!   machine-readable report;
//! * `chaos`: seeded crash-recovery acceptance run over the whole
//!   interpretation — RTF as the paper's 64-odd batches, LCC at `--level`,
//!   FA and MODEL as phases of one task. For each phase a fault-free run
//!   fixes the expected results and `chaos_schedule` kills the first
//!   attempt of some tasks mid-cycle. A killed task is an ordinary panic
//!   that one retry recovers from scratch: the phase must reproduce the
//!   fault-free results exactly (`==`, task by task), every killed task on
//!   its second attempt and every other on its first. Exits non-zero (and
//!   prints the replayable fault plan) on any divergence; `--seed N` /
//!   `--kills K` pick the schedule, `--exec` the placement (below);
//! * `--machines 2` makes `run` replay the measured trace on the
//!   dual-Encore SVM platform instead of one Encore: the Gantt chart
//!   (at `--obs full`) becomes a two-machine chart, the Chrome trace
//!   carries one `pid` lane per machine, and a coherence summary is
//!   printed;
//! * `--svm` picks the netmemory cost model (`tuned`, the paper's final
//!   system, or `naive`, the pre-layout-fix one; default `tuned`);
//! * `--level` selects the LCC decomposition level (default 3);
//! * `--workers N` runs LCC with N real task-process threads (SPAM/PSM);
//! * `--exec real|sim` picks where the one phase runner (`spam_psm::exec`)
//!   places the LCC units (default `sim`): `sim` is the paper's central
//!   FIFO task queue, reported through the simulated Encore; `real` deals
//!   cost-model-sized chunks to per-worker deques, lets idle workers
//!   steal, and prints the measured wall-clock schedule: per-worker
//!   utilization, steal and overflow counters. Scene results are
//!   bit-identical between the two and to the sequential run; only the
//!   measured report differs. With `--obs full` the Gantt and Chrome trace
//!   additionally carry the measured (wall-clock) timeline next to the
//!   simulated one;
//! * `--retries K` allows K supervised retries per LCC task;
//! * `--fault-seed S` + `--task-panic-rate P` inject deterministic task
//!   panics (demonstrates fault isolation — the run completes partially
//!   and prints the task report);
//! * `--topdown` follows FA predictions back into LCC (§2.2 re-entry);
//! * `--sweep` prints the simulated Encore speed-up curve for the run;
//! * `--obs` sets the flight-recorder level (default `off`; `full` also
//!   prints the simulated per-processor Gantt chart);
//! * `--trace-out F` writes a Chrome `trace_event` file (open in
//!   `chrome://tracing` or Perfetto) with the recorded events plus the
//!   simulated Encore timeline of the LCC phase;
//! * `--metrics-out F` and `--metrics-snapshot F` each turn on the metrics
//!   registry (`tlp-obs::live`): the supervisor, the per-worker engines,
//!   and the SLO monitor publish `spam_live_*` / `spam_slo_*`
//!   sliding-window series while the run executes, and the run prints
//!   their final state on its `live   :` line (epoch, series, SLO
//!   health). Results are bit-identical with it on or off. A run's
//!   telemetry is the files it writes when it ends: a whole run is over
//!   before anything could poll it;
//! * `--metrics-out F` writes the run's final registry snapshot as JSON,
//!   after adding the finished LCC phase's per-task distributions to it
//!   (`spam_phase_*`: service-time, queue-wait, match-fraction histograms,
//!   totals) and those of its simulated replay (`spam_sim_*`);
//! * `--metrics-snapshot F` writes the same final registry as OpenMetrics
//!   text (check it with `expocheck F`); its `spam_slo_health` gauge is
//!   the run's SLO health (0 healthy, 1 degraded);
//! * `--unshared` (any subcommand) runs every engine on the historical
//!   one-chain-per-production, linear-scan Rete instead of the shared +
//!   indexed network — the baseline for the sharing experiments. Results
//!   are identical; only the match work (and anything derived from it)
//!   changes.
//! * `--traces-out F` turns on scene-scoped request tracing
//!   (`tlp-obs::tracectx`): the scene submission mints a deterministic
//!   trace id (from `--fault-seed` + the dataset name) and a root span,
//!   and the supervisor propagates the trace context through task spawn,
//!   retry, dead-letter and per-cycle engine emissions; the
//!   finished scene's trace is kept with full span detail, its id printed
//!   (`trace  : <id>`), and the retained traces written to `F` as a
//!   `{"traces": […]}` JSON document (feed to `tracecheck --spans` or
//!   `spamctl trace <id> --from F`). Results are bit-identical with
//!   tracing on or off;
//! * `trace <id>`: reconstructs one retained trace from a `--traces-out`
//!   file (`--from F`) — the ASCII span tree (workers, durations, errors)
//!   plus the critical task chain recomputed from the trace's recorded
//!   per-task service table via `core::attribution::critical_path_of`,
//!   cross-checked against the longest measured task attempt. `<id>` may
//!   be a unique hex prefix (>= 4 chars).

use spam::fa::{run_fa, FaTask};
use spam::lcc::{merge_lcc_units, LccPlan, Level};
use spam::model::{run_model, ModelTask};
use spam::phases::MIPS;
use spam::rtf::{run_rtf, RtfPhase};
use spam::rules::SpamProgram;
use spam::scene::Scene;
use spam::task::{drain, TaskList, TaskProcess};
use spam::topdown::run_topdown;
use spam_psm::exec::{ExecConfig, Observer, PhaseRun};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use tlp_fault::{FaultPlan, SupervisorConfig, TaskReport};
use tlp_obs::json::Json;
use tlp_obs::{
    Live, ObsLevel, Recorder, RetainedTrace, SloConfig, SloMonitor, SpanKind, SpanRecord, Tracing,
};

/// This binary's `print!`: a write that finds stdout closed (`spamctl … |
/// head -1`) ends the process quietly and successfully — the reader has
/// what it wanted — where std's macro panics.
macro_rules! print {
    ($($arg:tt)*) => { out(format_args!($($arg)*)) };
}

/// This binary's `println!`, as `print!` above.
macro_rules! println {
    () => { out(format_args!("\n")) };
    ($($arg:tt)*) => { out(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Writes to stdout, and exits on a closed one.
fn out(args: std::fmt::Arguments) {
    use std::io::Write as _;
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// What one invocation does. `run` is what it does when it is not told.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
enum Cmd {
    #[default]
    Run,
    Profile,
    SvmReport,
    Chaos,
    Whatif,
    Trace,
}

/// One subcommand's row of the flag table.
struct CmdSpec {
    cmd: Cmd,
    name: &'static str,
    /// How the synopsis spells the subcommand and its operand.
    head: &'static str,
    /// The flags it reads, in synopsis order. It accepts no other.
    flags: &'static str,
}

impl CmdSpec {
    fn accepts(&self, flag: &str) -> bool {
        self.flags.split(' ').any(|f| f == flag)
    }
}

const DATASETS: &str = "[sf|dc|moff|suburb]";

/// `--level n` is `LEVELS[n - 1]`.
const LEVELS: [Level; 4] = [Level::L1, Level::L2, Level::L3, Level::L4];

/// The flag table: subcommand → the flags it reads. The parser rejects a
/// flag outside its subcommand's row, `--help` prints the rows
/// ([`usage`]), and a test holds the synopses in the module doc and the
/// README to them.
const COMMANDS: &[CmdSpec] = &[
    CmdSpec {
        cmd: Cmd::Run,
        name: "run",
        head: "[run] [sf|dc|moff|suburb]",
        flags: "--level --workers --exec --machines --svm --retries --fault-seed \
                --task-panic-rate --topdown --sweep --quiet --unshared --obs --trace-out \
                --metrics-out --metrics-snapshot --traces-out",
    },
    CmdSpec {
        cmd: Cmd::Profile,
        name: "profile",
        head: "profile [sf|dc|moff|suburb]",
        flags: "--level --top --json --check-band --unshared",
    },
    CmdSpec {
        cmd: Cmd::SvmReport,
        name: "svm-report",
        head: "svm-report [sf|dc|moff|suburb]",
        flags: "--level --workers --svm --top --json --trace-out --check-loss --unshared",
    },
    CmdSpec {
        cmd: Cmd::Chaos,
        name: "chaos",
        head: "chaos [sf|dc|moff|suburb]",
        flags: "--level --seed --kills --workers --exec --unshared",
    },
    CmdSpec {
        cmd: Cmd::Whatif,
        name: "whatif",
        head: "whatif [sf|dc|moff|suburb]",
        flags: "--level --workers --target --scale --top --json --unshared",
    },
    CmdSpec {
        cmd: Cmd::Trace,
        name: "trace",
        head: "trace <id>",
        flags: "--from",
    },
];

/// Every flag with the placeholder of its value (`""`: a switch).
const FLAGS: &[(&str, &str)] = &[
    ("--level", "1|2|3|4"),
    ("--workers", "N"),
    ("--exec", "real|sim"),
    ("--machines", "1|2"),
    ("--svm", "tuned|naive"),
    ("--retries", "K"),
    ("--fault-seed", "S"),
    ("--task-panic-rate", "P"),
    ("--topdown", ""),
    ("--sweep", ""),
    ("--quiet", ""),
    ("--unshared", ""),
    ("--obs", "off|summary|full"),
    ("--trace-out", "F"),
    ("--metrics-out", "F"),
    ("--metrics-snapshot", "F"),
    ("--traces-out", "F"),
    ("--top", "K"),
    ("--json", "F"),
    ("--check-band", "LO:HI"),
    ("--check-loss", "LO:HI"),
    ("--seed", "N"),
    ("--kills", "K"),
    (
        "--target",
        "prod:<name>|task:<id>|level:<n>|component:<fork|dequeue>|match",
    ),
    ("--scale", "PCT"),
    ("--from", "F"),
];

/// What a flag is when it is not given, where that is not zero, off or
/// nothing (`--workers` depends on the subcommand: 1, 8, 20, 3, 2).
const DEFAULTS: &[(&str, &str)] = &[
    ("--level", "3"),
    ("--machines", "1"),
    ("--svm", "tuned"),
    ("--top", "10"),
    ("--seed", "42"),
    ("--kills", "3"),
    ("--scale", "50"),
];

/// The synopsis, one line per subcommand, from [`COMMANDS`].
fn usage() -> String {
    let mut out = String::new();
    for c in COMMANDS {
        out.push_str(&format!("spamctl {}", c.head));
        for flag in c.flags.split(' ') {
            let (_, value) = FLAGS.iter().find(|(f, _)| *f == flag).expect("known");
            let sep = if value.is_empty() { "" } else { " " };
            out.push_str(&format!(" [{flag}{sep}{value}]"));
        }
        out.push('\n');
    }
    out
}

#[derive(Default)]
struct Opts {
    cmd: Cmd,
    /// `trace`'s operand.
    trace_id: String,
    dataset: Option<String>,
    target: Option<String>,
    scale_pct: f64,
    chaos_seed: u64,
    kills: u32,
    top: usize,
    json_out: Option<String>,
    check_band: Option<(f64, f64)>,
    check_loss: Option<(f64, f64)>,
    level: Level,
    workers: Option<usize>,
    exec_real: bool,
    machines: u32,
    svm_mode: String,
    retries: u32,
    fault_seed: u64,
    task_panic_rate: f64,
    topdown: bool,
    sweep: bool,
    quiet: bool,
    unshared: bool,
    obs: ObsLevel,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    metrics_snapshot: Option<String>,
    traces_out: Option<String>,
    trace_from: Option<String>,
}

/// `v` as the value of `flag`.
fn parsed<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// `v` as one of `flag`'s `choices`.
fn one_of(flag: &str, v: &str, choices: &[&str]) -> Result<String, String> {
    if choices.contains(&v) {
        Ok(v.to_string())
    } else {
        Err(format!("bad {flag} '{v}' (want {})", choices.join("|")))
    }
}

/// `v` as `flag`'s `LO:HI`, both within `within`.
fn bounds(flag: &str, v: &str, within: (f64, f64)) -> Result<(f64, f64), String> {
    let (lo, hi) = v
        .split_once(':')
        .ok_or(format!("bad {flag} '{v}' (want LO:HI)"))?;
    let (lo, hi): (f64, f64) = (parsed(flag, lo)?, parsed(flag, hi)?);
    if lo > hi || lo < within.0 || hi > within.1 {
        return Err(format!("bad {flag} {lo}:{hi}"));
    }
    Ok((lo, hi))
}

impl Opts {
    /// Takes `flag`'s value `v` (empty for a switch).
    fn set(&mut self, flag: &str, v: &str) -> Result<(), String> {
        let path = || Some(v.to_string());
        match flag {
            "--level" => {
                let n: usize = parsed(flag, &one_of(flag, v, &["1", "2", "3", "4"])?)?;
                self.level = LEVELS[n - 1];
            }
            "--workers" => {
                self.workers = Some(parsed(flag, v)?);
                if self.workers == Some(0) {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--exec" => self.exec_real = one_of(flag, v, &["real", "sim"])? == "real",
            "--machines" => self.machines = parsed(flag, &one_of(flag, v, &["1", "2"])?)?,
            "--svm" => self.svm_mode = one_of(flag, v, &["tuned", "naive"])?,
            "--retries" => self.retries = parsed(flag, v)?,
            "--fault-seed" => self.fault_seed = parsed(flag, v)?,
            "--task-panic-rate" => {
                self.task_panic_rate = parsed(flag, v)?;
                if !(0.0..=1.0).contains(&self.task_panic_rate) {
                    return Err("--task-panic-rate must be in [0, 1]".into());
                }
            }
            "--topdown" => self.topdown = true,
            "--sweep" => self.sweep = true,
            "--quiet" => self.quiet = true,
            "--unshared" => self.unshared = true,
            "--obs" => self.obs = ObsLevel::parse(v).ok_or(format!("bad --obs '{v}'"))?,
            "--trace-out" => self.trace_out = path(),
            "--metrics-out" => self.metrics_out = path(),
            "--metrics-snapshot" => self.metrics_snapshot = path(),
            "--traces-out" => self.traces_out = path(),
            "--top" => self.top = parsed(flag, v)?,
            "--json" => self.json_out = path(),
            "--check-band" => self.check_band = Some(bounds(flag, v, (0.0, 1.0))?),
            "--check-loss" => self.check_loss = Some(bounds(flag, v, (f64::MIN, f64::MAX))?),
            "--seed" => self.chaos_seed = parsed(flag, v)?,
            "--kills" => self.kills = parsed(flag, v)?,
            "--target" => self.target = path(),
            "--scale" => {
                self.scale_pct = parsed(flag, v)?;
                if !(0.0..=100.0).contains(&self.scale_pct) {
                    return Err("--scale must be in [0, 100]".into());
                }
            }
            "--from" => self.trace_from = path(),
            _ => unreachable!("{flag} is in FLAGS and has no arm here"),
        }
        Ok(())
    }
}

/// Parses the command line against the flag table: at most one
/// subcommand, and only the flags of its row.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts::default();
    for (flag, v) in DEFAULTS {
        o.set(flag, v)?;
    }
    let mut named: Option<&CmdSpec> = None;
    let mut given: Vec<&str> = Vec::new();
    while let Some(a) = args.next() {
        if a == "--help" || a == "-h" {
            return Err(format!("usage:\n{}", usage()));
        }
        if let Some(spec) = COMMANDS.iter().find(|c| c.name == a) {
            if let Some(first) = named {
                return Err(format!(
                    "two subcommands, '{}' and '{}': one invocation runs one",
                    first.name, spec.name
                ));
            }
            named = Some(spec);
            if spec.cmd == Cmd::Trace {
                o.trace_id = args.next().ok_or("trace needs a trace id (hex)")?;
            }
        } else if DATASETS[1..DATASETS.len() - 1].split('|').any(|d| d == a) {
            o.dataset = Some(a);
        } else if let Some(&(flag, value)) = FLAGS.iter().find(|(f, _)| *f == a) {
            let v = match value {
                "" => String::new(),
                _ => (args.next()).ok_or(format!("{flag} needs a value ({value})"))?,
            };
            o.set(flag, &v)?;
            given.push(flag);
        } else {
            return Err(format!("unknown argument '{a}'"));
        }
    }
    let spec = named.unwrap_or(&COMMANDS[0]);
    o.cmd = spec.cmd;
    if let Some(flag) = given.iter().find(|f| !spec.accepts(f)) {
        let takers: Vec<&str> = (COMMANDS.iter())
            .filter(|c| c.accepts(flag))
            .map(|c| c.name)
            .collect();
        return Err(format!(
            "{flag} is not a flag of '{}' (of: {}); see spamctl --help",
            spec.name,
            takers.join(", ")
        ));
    }
    if let (Some(d), false) = (&o.dataset, spec.head.ends_with(DATASETS)) {
        return Err(format!("'{}' takes no dataset ('{d}')", spec.name));
    }
    Ok(o)
}

/// Writes an output file, or says which could not be written.
fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The `{"traces": […]}` document of `--traces-out`.
fn traces_doc(kept: &[RetainedTrace]) -> String {
    let traces = Json::Arr(kept.iter().map(RetainedTrace::to_json).collect());
    Json::obj(vec![("traces", traces)]).write()
}

/// A CI gate (`--check-band`, `--check-loss`): `value` must lie in
/// `within`.
fn gate(what: &str, value: f64, shown: String, within: Option<(f64, f64)>) -> Result<(), String> {
    let Some((lo, hi)) = within else {
        return Ok(());
    };
    if !(lo..=hi).contains(&value) {
        return Err(format!("\ncheck  : {what} {shown} OUTSIDE [{lo}, {hi}]"));
    }
    println!("\ncheck  : {what} {shown} in [{lo}, {hi}] — ok");
    Ok(())
}

/// How every report's first line names its input.
fn input_line(o: &Opts, scene: &Scene) -> String {
    format!(
        "{} ({:?}), {} regions, LCC at {}",
        scene.name,
        scene.domain,
        scene.len(),
        o.level.name()
    )
}

/// The seeded fault plan `--fault-seed` and `--task-panic-rate` describe.
fn fault_plan(o: &Opts) -> FaultPlan {
    let plan = FaultPlan::seeded(o.fault_seed);
    if o.task_panic_rate > 0.0 {
        plan.with_task_panic_rate(o.task_panic_rate)
    } else {
        plan
    }
}

/// Opens a pipeline phase's `phase.<name>` span on the control thread.
fn phase_begin(ctl: &mut tlp_obs::ThreadSink, name: &str) {
    if ctl.enabled(ObsLevel::Summary) {
        ctl.begin(tlp_obs::Category::Phase, name, vec![]);
    }
}

/// Closes a pipeline phase's span, with the phase's firings if it counts.
fn phase_end(ctl: &mut tlp_obs::ThreadSink, name: &str, firings: Option<u64>) {
    if ctl.enabled(ObsLevel::Summary) {
        let args = firings.map(|f| ("firings", f.into())).into_iter().collect();
        ctl.end(tlp_obs::Category::Phase, name, args);
    }
}

fn build_scene(name: &str) -> Arc<Scene> {
    Arc::new(match name {
        "sf" => spam::generate_scene(&spam::datasets::sf().spec),
        "dc" => spam::generate_scene(&spam::datasets::dc().spec),
        "suburb" => spam::generate_suburb(&spam::generate::SuburbSpec::demo()),
        _ => spam::generate_scene(&spam::datasets::moff().spec),
    })
}

/// RTF, then the LCC phase under the match-level profiler, and the `LCC`
/// line `profile` and `whatif` both open on.
fn profiled_phase(
    o: &Opts,
    sp: &SpamProgram,
    scene: &Arc<Scene>,
) -> (Option<ops5::MatchProfile>, spam::lcc::LccPhaseResult) {
    let fragments = Arc::new(run_rtf(sp, scene).fragments);
    let (row, profile, phase) = spam_psm::measure::profiled_lcc(sp, scene, &fragments, o.level);
    println!(
        "LCC    : {} tasks, {} firings, {:.0} simulated s",
        row.tasks, row.prods_fired, row.total_seconds
    );
    (profile, phase)
}

/// The `profile` subcommand: run RTF then the LCC phase under the
/// match-level profiler and print / write the speed-up-doctor report.
fn run_profile(o: &Opts, sp: &SpamProgram, scene: &Arc<Scene>) -> Result<(), String> {
    println!("spamctl profile: {}", input_line(o, scene));
    let (profile, phase) = profiled_phase(o, sp, scene);
    let profile = profile.ok_or("profile: the scene has no LCC tasks to profile")?;
    let net = profile.net;
    println!(
        "network: {} beta nodes ({} unshared, {:.2}x sharing), {} shared-node hits, \
         {} index probes vs {} linear scans, {} memoised alpha tests",
        net.beta_nodes,
        net.unshared_beta_nodes,
        net.unshared_beta_nodes as f64 / net.beta_nodes.max(1) as f64,
        net.shared_node_hits,
        net.index_probes,
        net.linear_scans,
        net.shared_test_hits,
    );
    let trace = spam_psm::trace::lcc_trace(&phase);
    let report = spam_psm::attribution::build_report(
        scene.name.clone(),
        format!("LCC {}", o.level.name()),
        profile,
        &trace,
        &[2, 6, 10, 14],
        &[(2, 1), (4, 1), (4, 2), (6, 2)],
        &paraops5::costmodel::CostModel::default(),
        o.top,
    );
    println!();
    print!("{report}");

    if let Some(path) = &o.json_out {
        write_file(path, &report.to_json().write())?;
        println!("\nprofile: report -> {path}");
    }
    let mf = report.match_fraction();
    gate("match fraction", mf, format!("{mf:.3}"), o.check_band)
}

/// The LCC level's number (for validating a `level:<n>` what-if target
/// against the level actually recorded).
fn level_number(level: Level) -> u32 {
    1 + LEVELS.iter().position(|l| *l == level).expect("a level") as u32
}

/// The `whatif` subcommand: run the LCC phase under the profiler, then
/// replay the recorded trace with virtual speedups applied and print the
/// ranked "optimize this next" report (or the single `--target` one).
fn run_whatif(o: &Opts, sp: &SpamProgram, scene: &Arc<Scene>) -> Result<(), String> {
    let workers = o.workers.unwrap_or(8).max(1) as u32;
    println!(
        "spamctl whatif: {}, {workers} task processes, virtual speedup {:.0}%",
        input_line(o, scene),
        o.scale_pct,
    );
    let (profile, phase) = profiled_phase(o, sp, scene);
    let trace = spam_psm::trace::lcc_trace(&phase);
    let cfg = multimax_sim::SimConfig::encore(workers);
    let level_label = format!("LCC {}", o.level.name());
    let tag = |e| format!("whatif: {e}");

    let report = match &o.target {
        Some(t) => {
            let target = spam_psm::whatif::Target::parse(t).map_err(tag)?;
            if let spam_psm::whatif::Target::Level(n) = target {
                if n != level_number(o.level) {
                    return Err(format!(
                        "whatif: level:{n} does not name the recorded level ({}); \
                         re-run with --level {n}",
                        level_number(o.level)
                    ));
                }
            }
            spam_psm::whatif::build_report_for(
                scene.name.clone(),
                level_label,
                &trace,
                profile.as_ref(),
                &cfg,
                o.scale_pct,
                &[target],
            )
        }
        None => spam_psm::whatif::build_whatif_report(
            scene.name.clone(),
            level_label,
            &trace,
            profile.as_ref(),
            &cfg,
            o.scale_pct,
            o.top,
        ),
    };
    let report = report.map_err(tag)?;
    println!();
    print!("{report}");
    if let Some(path) = &o.json_out {
        write_file(path, &report.to_json().write())?;
        println!("\nwhatif : report -> {path}");
    }
    Ok(())
}

/// The two-machine simulation configuration: `--svm`'s netmemory.
fn svm_sim_config(o: &Opts, workers: u32) -> multimax_sim::SvmSimConfig {
    let mut cfg = multimax_sim::SvmSimConfig::dual_encore(workers);
    cfg.sim.svm = match o.svm_mode.as_str() {
        "naive" => multimax_sim::SvmConfig::naive(),
        _ => multimax_sim::SvmConfig::tuned(),
    };
    cfg
}

/// Writes the two-machine Chrome trace: one `pid` lane per machine plus
/// both simulated timelines.
fn write_svm_trace(
    path: &str,
    r: &multimax_sim::SvmSimResult,
    rec: Option<&Recorder>,
) -> Result<usize, String> {
    let mut doc = tlp_obs::TraceDoc::new();
    if let Some(rec) = rec {
        doc.add_recorder("spamctl", rec);
    }
    doc.add_machine(&r.home);
    doc.add_machine(&r.remote);
    let (home_tl, remote_tl) = r.timelines();
    doc.add_timeline(&home_tl);
    doc.add_timeline(&remote_tl);
    let events = r.home.events.len() + r.remote.events.len();
    write_file(path, &doc.write())?;
    Ok(events)
}

/// The `svm-report` subcommand: run LCC, replay the measured trace on the
/// two-machine SVM platform, and print the overhead accountant.
fn run_svm_report(o: &Opts, sp: &SpamProgram, scene: &Arc<Scene>) -> Result<(), String> {
    let workers = o.workers.unwrap_or(20).max(1) as u32;
    println!(
        "spamctl svm-report: {}, {workers} task processes, {} netmemory",
        input_line(o, scene),
        o.svm_mode,
    );
    let rtf = run_rtf(sp, scene);
    let fragments = Arc::new(rtf.fragments.clone());
    let lcc = spam::lcc::run_lcc(sp, scene, &fragments, o.level);
    let trace = spam_psm::trace::lcc_trace(&lcc);
    println!(
        "LCC    : {} tasks, {} firings, {:.0} simulated s",
        trace.tasks.len(),
        lcc.firings,
        lcc.work.seconds_at(MIPS)
    );

    let mut cfg = svm_sim_config(o, workers);
    cfg.level = ObsLevel::Full;
    let r = multimax_sim::simulate_svm(&cfg, &trace.tasks.tasks);
    let report = spam_psm::attribution::build_svm_report(
        scene.name.clone(),
        format!("LCC {}", o.level.name()),
        o.svm_mode.clone(),
        &r,
        &trace.tasks,
        o.top,
    );
    println!();
    print!("{report}");

    if let Some(path) = &o.trace_out {
        let events = write_svm_trace(path, &r, None)?;
        println!(
            "trace  : {events} events, 2 machine pids -> {path} (chrome://tracing / Perfetto)"
        );
    }
    if let Some(path) = &o.json_out {
        write_file(path, &report.to_json().write())?;
        println!("svm-report: json -> {path}");
    }
    let lost = report.lost;
    gate(
        "effective processors lost",
        lost,
        format!("{lost:.2}"),
        o.check_loss,
    )
}

/// Where `--exec` places a phase's tasks: `real` is the chunked deques (by
/// the ParaOPS5 cost model's subtask granularity, idle workers stealing),
/// `sim` the paper's central queue.
fn placement(o: &Opts, workers: usize) -> ExecConfig {
    if o.exec_real {
        ExecConfig::with_cost_model(workers, &paraops5::costmodel::CostModel::default())
    } else {
        ExecConfig::central_queue(workers)
    }
}

/// One phase of a chaos run. `list` drained fault-free is the baseline
/// (`count`: a task's firings and how many `what` it made); its per-task
/// firings fix the kill plan of `chaos_schedule`. The phase then runs under
/// that plan with one retry and must return the baseline, whole values,
/// each killed task on its second attempt and every other task on its
/// first; a failure carries the plan, to replay it. Returns the baseline.
fn chaos_phase<L>(
    o: &Opts,
    list: L,
    what: &str,
    count: fn(&L::Output) -> (u64, usize),
) -> Result<Vec<L::Output>, String>
where
    L: TaskList + Send + Sync + 'static,
    L::Output: PartialEq + Send + 'static,
{
    let list = Arc::new(list);
    let seq: Vec<L::Output> = (drain(&mut TaskProcess::default(), &*list, false))
        .map(|(r, _)| r)
        .collect();
    let (task_cycles, made): (Vec<u64>, Vec<usize>) = seq.iter().map(count).unzip();
    let (firings, made) = (task_cycles.iter().sum::<u64>(), made.iter().sum::<usize>());
    println!(
        "baseline: {} tasks, {firings} firings, {made} {what}",
        seq.len()
    );
    let plan = tlp_fault::chaos_schedule(o.chaos_seed, o.kills, &task_cycles);
    print!("{}", plan.describe());

    let cfg = SupervisorConfig::default()
        .with_retries(1)
        .with_backoff(Duration::from_millis(1));
    let how = PhaseRun {
        cfg,
        plan: plan.clone(),
        ..PhaseRun::new(placement(o, o.workers.unwrap_or(3).max(1)))
    };
    let (slots, report, _) = spam_psm::run_phase(&how, &list)
        .map_err(|e| format!("chaos run failed to complete: {e}\n{}", plan.describe()))?;
    let killed = |t: usize| plan.cycle_kill(t, 0).is_some();
    let victims = (0..seq.len()).filter(|&t| killed(t)).count();
    println!(
        "attempts: {victims} killed task(s) ran 2, {} other task(s) ran 1",
        seq.len() - victims
    );

    let mut failures: Vec<String> = Vec::new();
    let dead = report.dead_letters();
    if !dead.is_empty() {
        failures.push(format!("{} task(s) dead-lettered: {dead:?}", dead.len()));
    }
    for o in &report.outcomes {
        let want = if killed(o.task) { 2 } else { 1 };
        if o.attempts != want {
            let task = o.task;
            failures.push(format!(
                "task {task}: {} attempt(s), not {want}",
                o.attempts
            ));
        }
    }
    for (i, (got, want)) in slots.iter().zip(&seq).enumerate() {
        if got.as_ref().is_some_and(|got| got != want) {
            failures.push(format!("task {i}: result diverged from the fault-free run"));
        }
    }
    if !failures.is_empty() {
        return Err(format!(
            "\nchaos: FAILED — replay with the plan below\n  - {}\n{}",
            failures.join("\n  - "),
            plan.describe().trim_end()
        ));
    }
    println!("check   : results identical to the fault-free run — ok");
    Ok(seq)
}

/// The `chaos` subcommand: a seeded crash-recovery acceptance run over the
/// whole interpretation, one [`chaos_phase`] per task list — RTF's 64-odd
/// batches, LCC at `--level`, FA, MODEL — each fed the fault-free results.
fn run_chaos(o: &Opts, sp: &SpamProgram, scene: &Arc<Scene>) -> Result<(), String> {
    println!(
        "spamctl chaos: {}, seed {}, {} kill(s), {} worker(s)",
        input_line(o, scene),
        o.chaos_seed,
        o.kills,
        o.workers.unwrap_or(3).max(1),
    );
    println!("phase RTF:");
    let batches = spam::rtf::rtf_task_batches(scene, scene.len().div_ceil(64));
    let rtf = RtfPhase {
        sp: sp.clone(),
        scene: Arc::clone(scene),
        batches,
    };
    chaos_phase(o, rtf, "fragments", |r| (r.firings, r.fragments.len()))?;

    println!("phase LCC:");
    let fragments = Arc::new(run_rtf(sp, scene).fragments);
    let lcc = LccPlan::new(sp, scene, &fragments, o.level);
    let units = chaos_phase(o, lcc, "consistency records", |u| {
        (u.firings, u.consistents.len())
    })?;
    let units = units.into_iter().map(Some);
    let lcc = merge_lcc_units(o.level, &fragments, units, TaskReport::default());

    println!("phase FA:");
    let fragments = Arc::new(lcc.fragments);
    let fa = FaTask {
        sp: sp.clone(),
        scene: Arc::clone(scene),
        fragments: Arc::clone(&fragments),
        consistents: lcc.consistents,
    };
    let fa = chaos_phase(o, fa, "areas", |r| (r.firings, r.areas.len()))?.remove(0);

    println!("phase MODEL:");
    let (areas, members) = (fa.areas, fa.members);
    let model = ModelTask {
        sp: sp.clone(),
        scene: Arc::clone(scene),
        fragments,
        areas,
        members,
    };
    chaos_phase(o, model, "model(s)", |r| (r.firings, r.models)).map(drop)
}

/// A span's wall time, µs.
fn wall_us(s: &SpanRecord) -> u64 {
    s.end_us.saturating_sub(s.start_us)
}

/// Renders the span tree as indented ASCII, children ordered by start.
fn render_span_tree(spans: &[SpanRecord], root_start: u64) -> String {
    let mut children: std::collections::BTreeMap<tlp_obs::SpanId, Vec<usize>> = Default::default();
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => children.entry(p).or_default().push(i),
            None => roots.push(i),
        }
    }
    for v in children.values_mut() {
        v.sort_by_key(|&i| (spans[i].start_us, spans[i].id));
    }
    let mut out = String::new();
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        let s = &spans[i];
        let off_ms = s.start_us.saturating_sub(root_start) as f64 / 1e3;
        let dur_ms = wall_us(s) as f64 / 1e3;
        let worker = if s.worker.is_empty() {
            String::new()
        } else {
            format!(" [{}]", s.worker)
        };
        let err = match &s.error {
            Some(e) => format!(" ERROR: {e}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "  {:>9.2}ms +{:>9.2}ms  {}{} ({}){worker}{err}\n",
            off_ms,
            dur_ms,
            "  ".repeat(depth),
            s.name,
            s.kind.name(),
        ));
        if let Some(kids) = children.get(&s.id) {
            for &k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
    out
}

/// Task index embedded in a `task.exec t<N> a<M>` span name.
fn task_index(name: &str) -> Option<u32> {
    name.strip_prefix("task.exec t")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The `trace <id>` subcommand: reconstruct one retained trace — span
/// tree plus the critical task chain recomputed from the recorded per-task
/// service table — from a `--traces-out` file.
fn run_trace(o: &Opts) -> Result<(), String> {
    let id = o.trace_id.as_str();
    let path =
        (o.trace_from.as_deref()).ok_or("trace: which file? (--from F, a --traces-out file)")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("trace: cannot read {path}: {e}"))?;
    // Decode, check every tree as CI does (`tracecheck --spans`), render.
    let traces = tlp_obs::decode_traces(&text).map_err(|e| format!("trace: INVALID: {e}"))?;
    for t in &traces {
        (t.check_tree()).map_err(|e| format!("trace: INVALID span tree: {e}"))?;
    }
    let matches_id = |t: &&RetainedTrace| {
        let tid = t.trace.to_string();
        tid == id || (id.len() >= 4 && tid.starts_with(id))
    };
    let hits: Vec<&RetainedTrace> = traces.iter().filter(matches_id).collect();
    let t = match hits.as_slice() {
        [one] => *one,
        [] => {
            return Err(format!(
                "trace: no retained trace matches {id:?} ({} candidate(s) in document)",
                traces.len()
            ));
        }
        _ => {
            return Err(format!(
                "trace: prefix {id:?} is ambiguous ({} matches)",
                hits.len()
            ));
        }
    };
    println!(
        "trace {} scene={} seed={}: {:.3}s, retries={} dead={} dropped={}",
        t.trace,
        t.scene,
        t.seed,
        t.duration_s(),
        t.retries,
        t.dead_letters,
        t.dropped_spans,
    );
    let root_start = (t.spans.iter().find(|s| s.parent.is_none())).map_or(0, |s| s.start_us);
    print!("{}", render_span_tree(&t.spans, root_start));

    // Critical task chain, recomputed from the recorded deterministic
    // service table — the same `core::attribution::critical_path_of` the
    // profiler uses, so the two reports agree.
    let services: Vec<multimax_sim::Task> = (t.services.iter())
        .map(|s| {
            multimax_sim::Task::with_match(s.task, s.sim_s.max(0.0), s.match_frac.clamp(0.0, 1.0))
        })
        .collect();
    if services.is_empty() {
        println!("critical path: no service table recorded (scene traced without attribution)");
        return Ok(());
    }
    let task_spans: Vec<&SpanRecord> = (t.spans.iter())
        .filter(|s| s.kind == SpanKind::Task)
        .collect();
    let nw = task_spans
        .iter()
        .map(|s| s.worker.as_str())
        .collect::<std::collections::BTreeSet<_>>()
        .len()
        .max(1);
    let cfg = multimax_sim::SimConfig::encore(nw as u32);
    let cp = spam_psm::attribution::critical_path_of(&services, &cfg);
    println!(
        "critical path (core::attribution, {} tasks, {nw} worker(s)): task t{}, {:.2} sim s \
         (fork {} + dequeue {} + service)",
        services.len(),
        cp.task,
        cp.length,
        cfg.fork_overhead,
        cfg.dequeue_overhead,
    );
    // Cross-check against the measured wall spans: the longest successful
    // attempt should be the same task the model says is critical.
    let longest_wall = task_spans
        .iter()
        .filter(|s| s.error.is_none())
        .max_by_key(|s| wall_us(s));
    if let Some(s) = longest_wall {
        let attempt = format!(
            "cross-check: longest measured attempt {} ({:.3}s wall)",
            s.name,
            wall_us(s) as f64 / 1e6
        );
        match task_index(&s.name) {
            Some(idx) if idx == cp.task => println!("{attempt} agrees with the model"),
            Some(idx) => println!(
                "{attempt} is t{idx}, model says t{} — wall noise or retries moved the chain",
                cp.task
            ),
            None => println!("{attempt}"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|o| dispatch(&o)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(m) => {
            eprintln!("{m}");
            ExitCode::FAILURE
        }
    }
}

/// Builds what the subcommand needs — nothing, the rule base, or the rule
/// base and a scene — and runs it.
fn dispatch(o: &Opts) -> Result<(), String> {
    if o.cmd == Cmd::Trace {
        return run_trace(o);
    }
    let mut sp = SpamProgram::build();
    if o.unshared {
        sp = sp.with_config(ops5::ReteConfig::unshared());
    }
    // Figure 9 is an SF result, so `svm-report` defaults to that scene.
    let default_dataset = if o.cmd == Cmd::SvmReport {
        "sf"
    } else {
        "moff"
    };
    let dataset = o.dataset.as_deref().unwrap_or(default_dataset);
    let scene = build_scene(dataset);
    match o.cmd {
        Cmd::SvmReport => run_svm_report(o, &sp, &scene),
        Cmd::Chaos => run_chaos(o, &sp, &scene),
        Cmd::Whatif => run_whatif(o, &sp, &scene),
        Cmd::Profile => run_profile(o, &sp, &scene),
        _ => run_pipeline(o, &sp, &scene, dataset),
    }
}

/// The default subcommand: the whole RTF → LCC → FA → MODEL interpretation
/// of one scene, with whatever outputs the flags ask for.
fn run_pipeline(
    o: &Opts,
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    dataset: &str,
) -> Result<(), String> {
    let workers = o.workers.unwrap_or(1);
    println!(
        "spamctl: {}, {workers} worker(s), {} machine(s), obs {}",
        input_line(o, scene),
        o.machines,
        o.obs
    );

    // A trace file with the level left at `off` records at `full`.
    let obs_level = if o.obs == ObsLevel::Off && o.trace_out.is_some() {
        ObsLevel::Full
    } else {
        o.obs
    };
    let rec = Recorder::new(obs_level);
    let mut ctl = rec.sink("control");

    // The metrics registry is on for whichever output needs it; with
    // neither, `Live::off()` keeps every emitter inert.
    let live_on = o.metrics_snapshot.is_some() || o.metrics_out.is_some();
    let live = if live_on {
        Live::new(tlp_obs::DEFAULT_WINDOW)
    } else {
        Live::off()
    };
    let slo = live_on.then(|| Arc::new(SloMonitor::new(SloConfig::default(), live.handle())));
    // Scene tracing is on for `--traces-out`. Results are bit-identical
    // either way.
    let trace_on = o.traces_out.is_some();
    let tracing = if trace_on {
        Tracing::new()
    } else {
        Tracing::off()
    };

    phase_begin(&mut ctl, "phase.rtf");
    let rtf = run_rtf(sp, scene);
    phase_end(&mut ctl, "phase.rtf", Some(rtf.firings));
    println!(
        "RTF    : {} hypotheses, {} firings",
        rtf.fragments.len(),
        rtf.firings
    );
    let fragments = Arc::new(rtf.fragments.clone());

    // A recording run takes the supervised path so task/supervisor events
    // are emitted; the results are identical either way.
    let supervised = workers > 1
        || o.retries > 0
        || o.task_panic_rate > 0.0
        || rec.enabled(ObsLevel::Summary)
        || live_on
        || trace_on
        || o.exec_real;
    phase_begin(&mut ctl, "phase.lcc");
    // One scene submission = one trace: mint the deterministic id + root
    // span just before the LCC fan-out and close it right after.
    let scene_span = trace_on.then(|| tracing.start_scene(o.fault_seed, dataset));
    let (lcc, measured) = if supervised {
        let cfg = SupervisorConfig::default().with_retries(o.retries);
        let how = PhaseRun {
            exec: placement(o, workers),
            cfg,
            plan: fault_plan(o),
            obs: Observer {
                rec: Arc::clone(&rec),
                live: Arc::clone(&live),
                slo: slo.clone(),
                span: scene_span.as_ref(),
            },
        };
        let (lcc, m) = spam_psm::run_parallel_lcc(sp, scene, &fragments, o.level, &how)
            .map_err(|e| format!("LCC supervision error: {e}"))?;
        // The measured schedule is `--exec real`'s report; `sim` keeps to
        // the simulated one.
        (lcc, o.exec_real.then_some(m))
    } else {
        (spam::lcc::run_lcc(sp, scene, &fragments, o.level), None)
    };
    phase_end(&mut ctl, "phase.lcc", Some(lcc.firings));
    println!(
        "LCC    : {} tasks, {} consistency records, {} firings, {:.0} simulated s",
        lcc.units.len(),
        lcc.consistents.len(),
        lcc.firings,
        lcc.work.seconds_at(MIPS)
    );
    if supervised {
        // Wall-clock latency detail only when the recorder is on: the
        // default output must stay byte-identical for same-seed runs.
        print!("{}", lcc.report.display(rec.enabled(ObsLevel::Summary)));
    }
    if let Some(m) = &measured {
        println!(
            "exec   : real work-stealing pool, {} worker(s): wall {:.1} ms, \
             utilization {:.0}%, {} task(s) stolen, {} taken from overflow, {} chunk(s) of {} task(s)",
            m.workers.len(),
            m.wall_s * 1e3,
            100.0 * m.utilization(),
            m.steals(),
            m.overflow_taken(),
            m.chunks,
            lcc.units.len(),
        );
    }
    if let Some(span) = &scene_span {
        span.finish();
        println!("trace  : {}", span.trace_id());
    }
    if let Some(path) = &o.traces_out {
        let kept = tracing.retained();
        write_file(path, &traces_doc(&kept))?;
        println!(
            "trace  : {} retained trace(s) -> {path} (tracecheck --spans / spamctl trace --from)",
            kept.len()
        );
    }
    let mut fragments = Arc::new(lcc.fragments.clone());
    let mut consistents = lcc.consistents.clone();

    phase_begin(&mut ctl, "phase.fa");
    let fa = run_fa(sp, scene, &fragments, &consistents);
    phase_end(&mut ctl, "phase.fa", Some(fa.firings));
    println!(
        "FA     : {} areas, {} predictions, {} firings",
        fa.areas.len(),
        fa.predictions,
        fa.firings
    );

    if o.topdown {
        let td = run_topdown(sp, scene, &fragments, &fa, &fa.prediction_list);
        println!(
            "TOPDOWN: {} predicted hypotheses, {} confirmed, {} re-entry firings",
            td.predicted.len(),
            td.confirmed,
            td.firings
        );
        consistents.extend(td.consistents.iter().copied());
        fragments = Arc::new(td.fragments);
    }

    phase_begin(&mut ctl, "phase.model");
    let model = run_model(sp, scene, &fragments, &fa.areas, &fa.members);
    phase_end(&mut ctl, "phase.model", None);
    println!(
        "MODEL  : {} model(s), {} areas, score {}, coverage {:.0}%, window overlap {:.1}%",
        model.models,
        model.areas_used,
        model.score,
        100.0 * model.metrics.coverage,
        100.0 * model.metrics.window_overlap
    );

    if !o.quiet {
        let mut best: Vec<_> = fragments.iter().collect();
        best.sort_by_key(|f| -f.support);
        println!("top hypotheses:");
        for f in best.iter().take(8) {
            println!(
                "  fragment {:>4} region {:>4} {:<18} support {:>3}",
                f.id,
                f.region,
                f.kind.name(),
                f.support
            );
        }
    }

    if o.sweep {
        let trace = spam_psm::trace::lcc_trace(&lcc);
        println!("simulated Encore sweep (task processes: speed-up):");
        for (n, s) in spam_psm::tlp::simulated_tlp_curve(&trace, 14) {
            print!("  {n}:{s:.2}");
        }
        println!();
    }

    if rec.enabled(ObsLevel::Summary) || o.trace_out.is_some() || o.metrics_out.is_some() {
        ctl.flush();
        let trace = spam_psm::trace::lcc_trace(&lcc);
        let sim_workers = (workers as u32).max(1);

        // One machine: replay on a single Encore. Two: replay on the
        // dual-Encore SVM platform — the trace gets a pid lane per machine
        // and the Gantt becomes a two-machine chart.
        let svm = (o.machines == 2).then(|| {
            let mut cfg = svm_sim_config(o, sim_workers);
            cfg.level = obs_level;
            multimax_sim::simulate_svm(&cfg, &trace.tasks.tasks)
        });
        let sim = match &svm {
            Some(r) => r.sim.clone(),
            None => multimax_sim::simulate(
                &multimax_sim::SimConfig::encore(sim_workers),
                &trace.tasks.tasks,
            ),
        };

        if let Some(r) = &svm {
            println!(
                "SVM    : {} faults, {} transfers, {:.1} MB shipped, {} invalidations ({} netmemory)",
                r.totals.faults,
                r.totals.transfers,
                r.totals.bytes as f64 / 1e6,
                r.totals.invalidations,
                o.svm_mode
            );
        }

        if o.obs == ObsLevel::Full {
            if let Some(r) = &svm {
                let (home_tl, remote_tl) = r.timelines();
                println!(
                    "simulated dual-Encore Gantt ({sim_workers} task processes, makespan {:.0}s):",
                    sim.makespan
                );
                print!(
                    "{}",
                    tlp_obs::multi_gantt(&[("m0", &home_tl), ("m1", &remote_tl)], 72)
                );
            } else {
                let tl = sim.timeline(&format!("encore-sim-{sim_workers}p"));
                println!(
                    "simulated Encore Gantt ({sim_workers} task processes, makespan {:.0}s, coverage {:.1}%):",
                    sim.makespan,
                    100.0 * tl.coverage()
                );
                print!("{}", tl.gantt(72));
                if let Some(m) = &measured {
                    let mtl = m.timeline("exec-real");
                    println!(
                        "measured Gantt ({} worker(s), wall {:.1} ms, coverage {:.1}%):",
                        m.workers.len(),
                        m.wall_s * 1e3,
                        100.0 * mtl.coverage()
                    );
                    print!("{}", mtl.gantt(72));
                }
            }
        }

        if let Some(path) = &o.trace_out {
            if let Some(r) = &svm {
                let events = write_svm_trace(path, r, Some(&rec))?;
                println!(
                    "trace  : {} recorder + {events} machine events, 2 pids -> {path} \
                     (chrome://tracing / Perfetto)",
                    rec.len()
                );
            } else {
                let mut doc = tlp_obs::TraceDoc::new();
                doc.add_recorder("spamctl", &rec);
                doc.add_timeline(&sim.timeline(&format!("encore-sim-{sim_workers}p")));
                if let Some(m) = &measured {
                    doc.add_timeline(&m.timeline("exec-real"));
                }
                write_file(path, &doc.write())?;
                println!(
                    "trace  : {} events -> {path} (chrome://tracing / Perfetto)",
                    rec.len()
                );
            }
        }

        if let Some(path) = &o.metrics_out {
            // A finished phase's metrics are the registry's last snapshot:
            // add the phase's own distributions, then write that.
            let reg = live.handle();
            spam_psm::trace::record_phase_metrics(&reg, "lcc", &trace, Some(&lcc.report));
            spam_psm::trace::record_sim_metrics(&reg, "lcc", &sim);
            write_file(path, &live.snapshot().to_json().write())?;
            println!("metrics: snapshot -> {path}");
        }
    }

    // The SLO monitor is there whenever the registry is.
    if let Some(slo) = &slo {
        let snap = live.snapshot();
        println!(
            "live   : epoch {}, {} series, health {}",
            snap.epoch,
            snap.series.len(),
            slo.health().name()
        );
        if let Some(path) = &o.metrics_snapshot {
            let text = tlp_obs::openmetrics(&snap);
            let summary = tlp_obs::validate_openmetrics(&text)
                .map_err(|e| format!("live   : exposition INVALID ({e})"))?;
            write_file(path, &text)?;
            println!("live   : exposition ({summary}) -> {path}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<&str> {
        s.split_whitespace().collect()
    }

    /// The hand-kept copies of the synopsis say what the flag table says.
    #[test]
    fn the_documented_synopses_are_the_flag_table() {
        let module_doc: String = (include_str!("spamctl.rs").lines())
            .skip_while(|l| *l != "//! ```sh")
            .skip(1)
            .take_while(|l| *l != "//! ```")
            .map(|l| l.trim_start_matches("//!").to_string() + "\n")
            .collect();
        assert_eq!(words(&module_doc), words(&usage()), "spamctl.rs module doc");
        let readme = include_str!("../../../../README.md");
        let at = readme
            .find("spamctl [run]")
            .expect("a synopsis in the README");
        let block = &readme[at..at + readme[at..].find("```").expect("a fenced block")];
        assert_eq!(words(block), words(&usage()), "README.md");
    }

    #[test]
    fn every_flag_has_a_row_a_value_spec_and_an_arm() {
        let mut o = parse_args(std::iter::empty()).unwrap();
        for (flag, value) in FLAGS {
            assert!(COMMANDS.iter().any(|c| c.accepts(flag)), "{flag}: no taker");
            // An arm exists (no `unreachable!`), whatever it makes of "1".
            let _ = o.set(flag, if value.is_empty() { "" } else { "1" });
        }
        for c in COMMANDS {
            for flag in c.flags.split(' ') {
                assert!(FLAGS.iter().any(|(f, _)| *f == flag), "{}: {flag}", c.name);
            }
        }
    }
}
