//! Scene-scoped request tracing: trace-context propagation and a bounded
//! ring of finished scene traces.
//!
//! The unit of work in the paper is the *scene*: one interpretation fans
//! out as a tree of match/fire tasks across workers. The fleet-level
//! telemetry ([`crate::live`], [`crate::slo`]) answers rate/quantile
//! questions; this module answers "where did **this** scene's time go?".
//!
//! Every scene submission mints a deterministic [`TraceId`] (derived from
//! the run seed + scene label, so reruns are benchdiff-comparable) and a
//! root span. A trace id plus a parent span id ([`SpanSink`]) is
//! explicitly propagated through the supervisor → task spawn → retry →
//! dead-letter path and into per-cycle engine emissions, so a
//! well-formed span tree exists per scene even when tasks hop workers or
//! die mid-cycle.
//!
//! Every scene an enabled [`Tracing`] finishes is kept with full span
//! detail in a FIFO ring of [`MAX_RETAINED`] traces; the oldest falls out
//! when it is full. A trace holds at most [`MAX_SPANS`] spans besides its
//! root and task spans: past that, aux leaves are evicted oldest first.

use crate::json::Json;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// SplitMix64 finalizer — the same mix used by the fault plans, so trace
/// ids are deterministic, well-distributed functions of their inputs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn mix_str(mut h: u64, s: &str) -> u64 {
    for b in s.bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

/// Identifies one scene submission. Deterministic: derived from the run
/// seed and the scene label, never from wall time, so the same workload
/// produces the same ids run over run (benchdiff-comparable).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Derives the trace id for `scene` under `seed`.
    pub fn derive(seed: u64, scene: &str) -> TraceId {
        TraceId(splitmix64(mix_str(splitmix64(seed), scene)))
    }

    /// Parses the 16-hex-digit form produced by [`fmt::Display`].
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifies one span within a trace. Derived deterministically from the
/// trace id plus structural coordinates, so independent threads (the
/// supervisor control loop, a worker, the engine inside the worker) can
/// all compute the *same* id for a span without coordinating.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Derives a span id from its structural position: `name` is the span
    /// kind ("task.exec", "supervisor.retry", …), `a`/`b` are coordinates
    /// such as (task, attempt).
    pub fn derive(trace: TraceId, name: &str, a: u64, b: u64) -> SpanId {
        let h = mix_str(splitmix64(trace.0), name);
        SpanId(splitmix64(splitmix64(h ^ a) ^ b))
    }

    /// Parses the 16-hex-digit form produced by [`fmt::Display`].
    pub fn parse(s: &str) -> Option<SpanId> {
        TraceId::parse(s).map(|t| SpanId(t.0))
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Structural role of a span. Aux spans (engine emissions, supervisor
/// markers) are leaves and are the only spans the
/// per-trace span cap evicts, which keeps capped trees connected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// The scene root span.
    Root,
    /// One task attempt (`task.exec`).
    Task,
    /// Leaf detail: engine cycles, retry/dead-letter markers.
    Aux,
}

impl SpanKind {
    /// Stable lower-case name used in the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Root => "root",
            SpanKind::Task => "task",
            SpanKind::Aux => "aux",
        }
    }

    fn parse(s: &str) -> Option<SpanKind> {
        match s {
            "root" => Some(SpanKind::Root),
            "task" => Some(SpanKind::Task),
            "aux" => Some(SpanKind::Aux),
            _ => None,
        }
    }
}

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span id, unique within the trace.
    pub id: SpanId,
    /// Parent span id; `None` only for the root.
    pub parent: Option<SpanId>,
    /// Structural role.
    pub kind: SpanKind,
    /// Human-readable name, e.g. `task.exec t3 a1`.
    pub name: String,
    /// Worker thread that produced the span (empty for control-thread
    /// markers and the root).
    pub worker: String,
    /// Start, µs since the tracer's epoch.
    pub start_us: u64,
    /// End, µs since the tracer's epoch (`>= start_us`).
    pub end_us: u64,
    /// Failure payload, if the span covers a failed attempt.
    pub error: Option<String>,
}

/// Field `key` of object `j` as `pick` reads it; the error says whether it
/// is missing or not `want`.
fn field<'a, T>(
    j: &'a Json,
    key: &str,
    want: &str,
    pick: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    let v = j.get(key).ok_or_else(|| format!("missing {key}"))?;
    pick(v).ok_or_else(|| format!("{key} is not {want}"))
}

fn text<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    field(j, key, "a string", Json::as_str)
}

/// A string, or `null` for none.
fn opt_text<'a>(j: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    field(j, key, "a string or null", |v| match v {
        Json::Null => Some(None),
        v => v.as_str().map(Some),
    })
}

/// A count or a time: a whole number in `0..=max`.
fn whole(j: &Json, key: &str, max: u64) -> Result<u64, String> {
    let ok = |f: &f64| *f >= 0.0 && f.fract() == 0.0 && *f <= max as f64;
    let pick = |v: &Json| v.as_f64().filter(ok).map(|f| f as u64);
    field(j, key, "a whole number in range", pick)
}

/// Array field `key`, each element through `decode`; an error names the
/// element.
fn each<T>(j: &Json, key: &str, decode: fn(&Json) -> Result<T, String>) -> Result<Vec<T>, String> {
    let elems = field(j, key, "an array", Json::as_arr)?.iter().enumerate();
    elems
        .map(|(i, e)| decode(e).map_err(|err| format!("{key}[{i}]: {err}")))
        .collect()
}

impl SpanRecord {
    fn from_json(j: &Json) -> Result<SpanRecord, String> {
        let id = |key, s| SpanId::parse(s).ok_or_else(|| format!("{key} {s:?} is not a span id"));
        let kind = text(j, "kind")?;
        Ok(SpanRecord {
            id: id("id", text(j, "id")?)?,
            parent: opt_text(j, "parent")?
                .map(|p| id("parent", p))
                .transpose()?,
            kind: SpanKind::parse(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?,
            name: text(j, "name")?.to_string(),
            worker: text(j, "worker")?.to_string(),
            start_us: whole(j, "start_us", u64::MAX)?,
            end_us: whole(j, "end_us", u64::MAX)?,
            error: opt_text(j, "error")?.map(str::to_string),
        })
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::str(self.id.to_string())),
            (
                "parent",
                match self.parent {
                    Some(p) => Json::str(p.to_string()),
                    None => Json::Null,
                },
            ),
            ("kind", Json::str(self.kind.name())),
            ("name", Json::str(&*self.name)),
            ("worker", Json::str(&*self.worker)),
            ("start_us", Json::Num(self.start_us as f64)),
            ("end_us", Json::Num(self.end_us as f64)),
            (
                "error",
                match &self.error {
                    Some(e) => Json::str(&**e),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Per-task simulated service attribution recorded alongside the span
/// tree: the deterministic work-model seconds and match fraction that
/// critical-path reconstruction needs. (The engine's work counters are
/// the ground truth; wall spans only bound them.)
#[derive(Clone, Copy, Debug)]
pub struct TaskService {
    /// Task index within the scene.
    pub task: u32,
    /// Simulated service seconds (work units at the Encore's MIPS).
    pub sim_s: f64,
    /// Fraction of the task's work spent in match.
    pub match_frac: f64,
}

impl TaskService {
    fn from_json(j: &Json) -> Result<TaskService, String> {
        Ok(TaskService {
            task: whole(j, "task", u64::from(u32::MAX))? as u32,
            sim_s: field(j, "sim_s", "a number", Json::as_f64)?,
            match_frac: field(j, "match_frac", "a number", Json::as_f64)?,
        })
    }
}

/// A finished scene's trace: the span tree plus scene-level attribution.
#[derive(Clone, Debug)]
pub struct RetainedTrace {
    /// Trace id.
    pub trace: TraceId,
    /// Scene label.
    pub scene: String,
    /// Run seed the id was derived from.
    pub seed: u64,
    /// Root start, µs since tracer epoch.
    pub start_us: u64,
    /// Root end, µs since tracer epoch.
    pub end_us: u64,
    /// Retries observed by the supervisor.
    pub retries: u32,
    /// Dead letters observed by the supervisor.
    pub dead_letters: u32,
    /// The span tree (root included; parents precede nothing in
    /// particular — consumers index by id).
    pub spans: Vec<SpanRecord>,
    /// Per-task simulated service attribution.
    pub services: Vec<TaskService>,
    /// Aux spans evicted by the per-trace span cap.
    pub dropped_spans: u64,
}

impl RetainedTrace {
    /// Wall duration of the scene in seconds.
    pub fn duration_s(&self) -> f64 {
        (self.end_us.saturating_sub(self.start_us)) as f64 / 1e6
    }

    /// Decodes one trace document as [`RetainedTrace::to_json`] writes it —
    /// the one decoder of the format, behind `tracecheck --spans` and
    /// `spamctl trace`. Every field `to_json` writes must be there and be
    /// what it should (`duration_s`, which is derived, is not read); the
    /// error says which was not. Says nothing about the *tree*: that is
    /// [`RetainedTrace::check_tree`].
    pub fn from_json(j: &Json) -> Result<RetainedTrace, String> {
        let tid = text(j, "trace_id")?;
        let trace = TraceId::parse(tid).ok_or_else(|| format!("trace_id {tid:?} is not hex"))?;
        let decode = || {
            Ok(RetainedTrace {
                trace,
                scene: text(j, "scene")?.to_string(),
                seed: whole(j, "seed", u64::MAX)?,
                start_us: whole(j, "start_us", u64::MAX)?,
                end_us: whole(j, "end_us", u64::MAX)?,
                retries: whole(j, "retries", u64::from(u32::MAX))? as u32,
                dead_letters: whole(j, "dead_letters", u64::from(u32::MAX))? as u32,
                spans: each(j, "spans", SpanRecord::from_json)?,
                services: each(j, "services", TaskService::from_json)?,
                dropped_spans: whole(j, "dropped_spans", u64::MAX)?,
            })
        };
        decode().map_err(|e: String| format!("trace {trace}: {e}"))
    }

    /// Checks that the spans form a tree:
    ///
    /// - exactly one root span (`parent: None`),
    /// - span ids are unique,
    /// - every non-root span's parent exists in the same trace,
    /// - every child's interval nests inside its parent's
    ///   (`parent.start <= child.start && child.end <= parent.end`),
    /// - every span has `end >= start`,
    /// - every span reaches the root by following its parents (no span is
    ///   its own parent, no cycle hangs apart from the root).
    pub fn check_tree(&self) -> Result<(), String> {
        let tid = self.trace;
        if self.spans.is_empty() {
            return Err(format!("trace {tid}: no spans"));
        }
        let mut ids = BTreeMap::new();
        for s in &self.spans {
            if s.end_us < s.start_us {
                return Err(format!(
                    "trace {tid}: span {}: end_us {} < start_us {}",
                    s.id, s.end_us, s.start_us
                ));
            }
            if ids.insert(s.id, (s.start_us, s.end_us, s.parent)).is_some() {
                return Err(format!("trace {tid}: duplicate span id {}", s.id));
            }
        }
        let roots = self.spans.iter().filter(|s| s.parent.is_none()).count();
        if roots != 1 {
            return Err(format!(
                "trace {tid}: expected exactly 1 root span, found {roots}"
            ));
        }
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            let Some(&(ps, pe, _)) = ids.get(&p) else {
                return Err(format!(
                    "trace {tid}: span {} ({}) is orphaned: parent {p} not in trace",
                    s.id, s.name
                ));
            };
            if s.start_us < ps || s.end_us > pe {
                return Err(format!(
                    "trace {tid}: span {} ({}) [{}, {}] overhangs parent {p} [{ps}, {pe}]",
                    s.id, s.name, s.start_us, s.end_us
                ));
            }
        }
        // Walk up from every span, through spans not yet known to reach the
        // root; a walk longer than the span count has gone round a cycle.
        let mut rooted = BTreeSet::new();
        for s in &self.spans {
            let mut walked = Vec::new();
            let mut at = s.id;
            while let (false, Some(p)) = (rooted.contains(&at), ids[&at].2) {
                if walked.len() == self.spans.len() {
                    return Err(format!(
                        "trace {tid}: span {} ({}) does not reach the root: its parents cycle",
                        s.id, s.name
                    ));
                }
                walked.push(at);
                at = p;
            }
            rooted.extend(walked);
        }
        Ok(())
    }

    /// JSON document for `--traces-out` and `tracecheck`.
    pub fn to_json(&self) -> Json {
        let services = self
            .services
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("task", Json::Num(f64::from(s.task))),
                    ("sim_s", Json::Num(s.sim_s)),
                    ("match_frac", Json::Num(s.match_frac)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("trace_id", Json::str(self.trace.to_string())),
            ("scene", Json::str(&*self.scene)),
            ("seed", Json::Num(self.seed as f64)),
            ("start_us", Json::Num(self.start_us as f64)),
            ("end_us", Json::Num(self.end_us as f64)),
            ("duration_s", Json::Num(self.duration_s())),
            ("retries", Json::Num(f64::from(self.retries))),
            ("dead_letters", Json::Num(f64::from(self.dead_letters))),
            ("dropped_spans", Json::Num(self.dropped_spans as f64)),
            (
                "spans",
                Json::Arr(self.spans.iter().map(SpanRecord::to_json).collect()),
            ),
            ("services", Json::Arr(services)),
        ])
    }
}

/// Capacity of the ring of finished traces: the oldest falls out when a
/// scene finishes into a full ring.
pub const MAX_RETAINED: usize = 16;

/// Per-trace span cap. Aux spans are evicted oldest first once a trace
/// reaches it; root and task spans are always kept, so the true per-trace
/// bound is `MAX_SPANS + 1 + task-attempt spans`.
pub const MAX_SPANS: usize = 4096;

struct ActiveTrace {
    scene: String,
    seed: u64,
    start_us: u64,
    spans: Vec<SpanRecord>,
    dropped: u64,
    retries: u32,
    dead_letters: u32,
    services: Vec<TaskService>,
}

#[derive(Default)]
struct Inner {
    active: BTreeMap<u64, ActiveTrace>,
    retained: VecDeque<RetainedTrace>,
    finished: u64,
}

/// The scene-scoped trace collector.
///
/// Shared as `Arc<Tracing>`; recording is mutex-protected but cheap (one
/// lock per span, and spans are emitted at coarse granularity — per task
/// attempt and per 256-cycle engine window, not per cycle).
pub struct Tracing {
    enabled: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracing {
    /// An enabled tracer.
    pub fn new() -> Arc<Tracing> {
        Self::with(true)
    }

    /// A disabled tracer: every operation is a cheap no-op. Lets call
    /// sites hold an unconditional handle.
    pub fn off() -> Arc<Tracing> {
        Self::with(false)
    }

    fn with(enabled: bool) -> Arc<Tracing> {
        Arc::new(Tracing {
            enabled,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Whether spans are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since this tracer's epoch.
    pub fn now_us(&self) -> u64 {
        self.us_at(Instant::now())
    }

    /// `t` on this tracer's clock: microseconds since its epoch. A span
    /// whose endpoints were already read from the clock is stamped with
    /// this instead of reading it again.
    pub fn us_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Same poison policy as the rest of the crate: telemetry must not
        // fail the run, so recover the guard.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Mints the deterministic trace id + root span for one scene
    /// submission and opens the trace.
    pub fn start_scene(self: &Arc<Tracing>, seed: u64, scene: &str) -> SceneSpan {
        let trace = TraceId::derive(seed, scene);
        let root = SpanId::derive(trace, "scene", 0, 0);
        if self.enabled {
            let start_us = self.now_us();
            let mut g = self.lock();
            g.active.insert(
                trace.0,
                ActiveTrace {
                    scene: scene.to_string(),
                    seed,
                    start_us,
                    spans: Vec::new(),
                    dropped: 0,
                    retries: 0,
                    dead_letters: 0,
                    services: Vec::new(),
                },
            );
        }
        SceneSpan {
            tracing: Arc::clone(self),
            trace,
            root,
        }
    }

    /// Records a completed span into its trace. Unknown traces (already
    /// finished, or the tracer is disabled) are ignored.
    pub fn record_span(&self, trace: TraceId, span: SpanRecord) {
        if !self.enabled {
            return;
        }
        let mut g = self.lock();
        let Some(t) = g.active.get_mut(&trace.0) else {
            return;
        };
        if t.spans.len() >= MAX_SPANS {
            match span.kind {
                // Aux detail is droppable — it is always a leaf.
                SpanKind::Aux => {
                    t.dropped += 1;
                    return;
                }
                // Root/task spans are structural: evict the oldest aux
                // leaf to make room so the tree stays connected.
                SpanKind::Root | SpanKind::Task => {
                    if let Some(pos) = t.spans.iter().position(|s| s.kind == SpanKind::Aux) {
                        t.spans.remove(pos);
                        t.dropped += 1;
                    }
                }
            }
        }
        t.spans.push(span);
    }

    /// Notes a supervisor retry on the trace.
    pub fn note_retry(&self, trace: TraceId) {
        if !self.enabled {
            return;
        }
        if let Some(t) = self.lock().active.get_mut(&trace.0) {
            t.retries += 1;
        }
    }

    /// Notes a dead-lettered task on the trace.
    pub fn note_dead_letter(&self, trace: TraceId) {
        if !self.enabled {
            return;
        }
        if let Some(t) = self.lock().active.get_mut(&trace.0) {
            t.dead_letters += 1;
        }
    }

    /// Records a task's simulated service attribution.
    pub fn record_service(&self, trace: TraceId, svc: TaskService) {
        if !self.enabled {
            return;
        }
        if let Some(t) = self.lock().active.get_mut(&trace.0) {
            t.services.push(svc);
        }
    }

    /// Closes the scene: records the root span and keeps the trace in the
    /// ring, dropping the oldest if it is full.
    pub fn finish_scene(&self, trace: TraceId, root: SpanId) {
        if !self.enabled {
            return;
        }
        let mut end_us = self.now_us();
        let mut g = self.lock();
        let Some(mut t) = g.active.remove(&trace.0) else {
            return;
        };
        // The root must enclose every child: a worker's clock read can
        // land a hair after the control thread's, so clamp outward.
        if let Some(max_child) = t.spans.iter().map(|s| s.end_us).max() {
            end_us = end_us.max(max_child);
        }
        g.finished += 1;
        t.spans.push(SpanRecord {
            id: root,
            parent: None,
            kind: SpanKind::Root,
            name: format!("scene {}", t.scene),
            worker: String::new(),
            start_us: t.start_us,
            end_us,
            error: None,
        });
        if g.retained.len() >= MAX_RETAINED {
            g.retained.pop_front();
        }
        g.retained.push_back(RetainedTrace {
            trace,
            scene: t.scene,
            seed: t.seed,
            start_us: t.start_us,
            end_us,
            retries: t.retries,
            dead_letters: t.dead_letters,
            spans: t.spans,
            services: t.services,
            dropped_spans: t.dropped,
        });
    }

    /// Snapshot of the retained traces, oldest first.
    pub fn retained(&self) -> Vec<RetainedTrace> {
        if !self.enabled {
            return Vec::new();
        }
        self.lock().retained.iter().cloned().collect()
    }

    /// Total scenes that have completed under this tracer.
    pub fn finished(&self) -> u64 {
        self.lock().finished
    }
}

/// Handle for one open scene: the root of the trace. Lent to the
/// supervisor while the scene runs — which clones it for its resident
/// workers; a clone is the same open scene (one `Arc` and two ids), not a
/// new one. Call [`SceneSpan::finish`] once, when the scene completes.
#[derive(Clone)]
pub struct SceneSpan {
    tracing: Arc<Tracing>,
    trace: TraceId,
    root: SpanId,
}

impl SceneSpan {
    /// Whether spans recorded through this handle are collected.
    pub fn enabled(&self) -> bool {
        self.tracing.is_enabled()
    }

    /// The scene's trace id.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// The root span id.
    pub fn root(&self) -> SpanId {
        self.root
    }

    /// The shared tracer.
    pub fn tracing(&self) -> &Arc<Tracing> {
        &self.tracing
    }

    /// Microseconds since the tracer's epoch.
    pub fn now_us(&self) -> u64 {
        self.tracing.now_us()
    }

    /// `t` on the tracer's clock ([`Tracing::us_at`]).
    pub fn us_at(&self, t: Instant) -> u64 {
        self.tracing.us_at(t)
    }

    /// Records a completed span into this scene's trace.
    pub fn record_span(&self, span: SpanRecord) {
        self.tracing.record_span(self.trace, span);
    }

    /// A sink whose children parent under `parent` (e.g. a task-attempt
    /// span id), for handing to whoever watches the task's engine.
    pub fn sink_under(&self, parent: SpanId) -> SpanSink {
        SpanSink {
            tracing: Arc::clone(&self.tracing),
            trace: self.trace,
            parent,
            seq: 0,
        }
    }

    /// Records a per-task simulated service attribution.
    pub fn record_service(&self, task: u32, sim_s: f64, match_frac: f64) {
        self.tracing.record_service(
            self.trace,
            TaskService {
                task,
                sim_s,
                match_frac,
            },
        );
    }

    /// Closes the root span and keeps the trace ([`Tracing::finish_scene`]).
    pub fn finish(&self) {
        self.tracing.finish_scene(self.trace, self.root);
    }
}

/// A single-owner sink for aux spans under one parent (an engine run). Ids are derived from an internal sequence number, so
/// they are deterministic given a deterministic emission cadence. Not
/// `Clone` on purpose: two clones would mint colliding ids.
pub struct SpanSink {
    tracing: Arc<Tracing>,
    trace: TraceId,
    /// Parent of every span recorded through the sink.
    parent: SpanId,
    seq: u64,
}

impl SpanSink {
    /// Whether recording through this sink does anything.
    pub fn enabled(&self) -> bool {
        self.tracing.is_enabled()
    }

    /// Microseconds since the tracer's epoch.
    pub fn now_us(&self) -> u64 {
        self.tracing.now_us()
    }

    /// Records an aux leaf span `[start_us, end_us]` under this sink's
    /// parent and returns its id.
    pub fn record_aux(
        &mut self,
        name: &str,
        start_us: u64,
        end_us: u64,
        error: Option<String>,
    ) -> SpanId {
        self.seq += 1;
        let id = SpanId::derive(self.trace, name, self.parent.0, self.seq);
        let worker = std::thread::current()
            .name()
            .unwrap_or_default()
            .to_string();
        self.tracing.record_span(
            self.trace,
            SpanRecord {
                id,
                parent: Some(self.parent),
                kind: SpanKind::Aux,
                name: name.to_string(),
                worker,
                start_us,
                end_us: end_us.max(start_us),
                error,
            },
        );
        id
    }
}

// ---------------------------------------------------------------------------
// Span-tree validation (used by `tracecheck --spans`)
// ---------------------------------------------------------------------------

/// Summary returned by [`validate_span_tree`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTreeStats {
    /// Traces validated.
    pub traces: usize,
    /// Spans validated across all traces.
    pub spans: usize,
}

impl std::fmt::Display for SpanTreeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} trace(s), {} span(s): ids unique, parentage connected, intervals nested",
            self.traces, self.spans
        )
    }
}

/// Decodes exported trace JSON: either a single trace document
/// ([`RetainedTrace::to_json`]) or `{"traces":[…]}` (as produced by
/// `spamctl … --traces-out`), each trace through
/// [`RetainedTrace::from_json`].
pub fn decode_traces(text: &str) -> Result<Vec<RetainedTrace>, String> {
    let doc = Json::parse(text).map_err(|e| format!("trace JSON: {e}"))?;
    match doc.get("traces") {
        Some(Json::Arr(list)) => list.iter().map(RetainedTrace::from_json).collect(),
        Some(other) => Err(format!("\"traces\" must be an array, got {other:?}")),
        None => Ok(vec![RetainedTrace::from_json(&doc)?]),
    }
}

/// Validates exported trace JSON: [`decode_traces`], then
/// [`RetainedTrace::check_tree`] on every trace.
pub fn validate_span_tree(text: &str) -> Result<SpanTreeStats, String> {
    let mut stats = SpanTreeStats::default();
    for t in decode_traces(text)? {
        t.check_tree()?;
        stats.traces += 1;
        stats.spans += t.spans.len();
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(TraceId::derive(42, "dc"), TraceId::derive(42, "dc"));
        assert_ne!(TraceId::derive(42, "dc"), TraceId::derive(43, "dc"));
        assert_ne!(TraceId::derive(42, "dc"), TraceId::derive(42, "dc2"));
        let id = TraceId::derive(7, "scene");
        assert_eq!(TraceId::parse(&id.to_string()), Some(id));
    }

    #[test]
    fn span_ids_depend_on_all_coordinates() {
        let t = TraceId::derive(1, "s");
        let a = SpanId::derive(t, "task.exec", 0, 0);
        assert_eq!(a, SpanId::derive(t, "task.exec", 0, 0));
        assert_ne!(a, SpanId::derive(t, "task.exec", 0, 1));
        assert_ne!(a, SpanId::derive(t, "task.exec", 1, 0));
        assert_ne!(a, SpanId::derive(t, "supervisor.retry", 0, 0));
    }

    fn task_span(scene: &SceneSpan, task: u64, attempt: u64, err: Option<&str>) -> SpanRecord {
        let id = SpanId::derive(scene.trace_id(), "task.exec", task, attempt);
        let now = scene.now_us();
        SpanRecord {
            id,
            parent: Some(scene.root()),
            kind: SpanKind::Task,
            name: format!("task.exec t{task} a{attempt}"),
            worker: "psm-task-0".into(),
            start_us: now,
            end_us: now,
            error: err.map(str::to_string),
        }
    }

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let tr = Tracing::off();
        let scene = tr.start_scene(1, "dc");
        assert!(!scene.enabled());
        scene.record_span(task_span(&scene, 0, 0, None));
        scene.finish();
        assert!(tr.retained().is_empty());
        assert_eq!(tr.finished(), 0);
    }

    #[test]
    fn a_finished_scene_is_kept_with_its_retries() {
        let tr = Tracing::new();
        let scene = tr.start_scene(9, "dc");
        scene.record_span(task_span(&scene, 0, 0, Some("boom")));
        tr.note_retry(scene.trace_id());
        scene.record_span(task_span(&scene, 0, 1, None));
        scene.finish();
        let kept = tr.retained();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].retries, 1);
        // Root + both attempts.
        assert_eq!(kept[0].spans.len(), 3);
        validate_span_tree(&kept[0].to_json().write()).unwrap();
    }

    #[test]
    fn span_cap_evicts_aux_first_and_keeps_tree_connected() {
        let tr = Tracing::new();
        let scene = tr.start_scene(3, "dc");
        let attempt = SpanId::derive(scene.trace_id(), "task.exec", 0, 0);
        let attempt_start = scene.now_us();
        let mut sink = scene.sink_under(attempt);
        for _ in 0..MAX_SPANS + 10 {
            let now = sink.now_us();
            sink.record_aux("engine.cycles", now, now, None);
        }
        scene.record_span(SpanRecord {
            id: attempt,
            parent: Some(scene.root()),
            kind: SpanKind::Task,
            name: "task.exec t0 a0".into(),
            worker: "psm-task-0".into(),
            start_us: attempt_start,
            end_us: scene.now_us(),
            error: Some("late fail".into()),
        });
        scene.finish();
        let kept = tr.retained();
        assert_eq!(kept.len(), 1);
        // Ten aux spans over the cap, then one evicted for the task span.
        assert_eq!(kept[0].dropped_spans, 11);
        assert_eq!(kept[0].spans.len(), MAX_SPANS + 1);
        // Tree must still validate: root + task always present.
        validate_span_tree(&kept[0].to_json().write()).unwrap();
        assert!(kept[0].spans.iter().any(|s| s.kind == SpanKind::Task));
    }

    #[test]
    fn retained_ring_is_bounded_and_drops_the_oldest() {
        let tr = Tracing::new();
        let scenes = MAX_RETAINED as u64 + 3;
        for i in 0..scenes {
            let scene = tr.start_scene(i, "dc");
            scene.record_span(task_span(&scene, 0, 0, None));
            scene.finish();
        }
        let seeds: Vec<u64> = tr.retained().iter().map(|t| t.seed).collect();
        assert_eq!(seeds, (3..scenes).collect::<Vec<_>>());
        assert_eq!(tr.finished(), scenes);
    }

    /// A trace document of `(id, parent, start_us, end_us)` spans, as
    /// [`RetainedTrace::to_json`] lays one out.
    fn doc(spans: &[(u64, Option<u64>, u64, u64)]) -> String {
        let span = |&(id, parent, start, end): &(u64, Option<u64>, u64, u64)| {
            let parent = parent.map_or("null".to_string(), |p| format!("\"{p:x}\""));
            format!(
                r#"{{"id":"{id:x}","parent":{parent},"kind":"task","name":"task.exec t{id}",
                    "worker":"psm-task-0","start_us":{start},"end_us":{end},"error":null}}"#
            )
        };
        let spans: Vec<String> = spans.iter().map(span).collect();
        format!(
            r#"{{"trace_id":"00ab","scene":"dc","seed":7,"start_us":0,
                "end_us":100,"duration_s":0.0001,"retries":0,"dead_letters":0,"dropped_spans":0,
                "spans":[{}],"services":[{{"task":0,"sim_s":1.5,"match_frac":0.4}}]}}"#,
            spans.join(",")
        )
    }

    #[test]
    fn validator_rejects_orphaned_span() {
        let text = doc(&[(1, None, 0, 100), (2, Some(0x99), 10, 20)]);
        let err = validate_span_tree(&text).unwrap_err();
        assert!(err.contains("orphaned"), "{err}");
    }

    #[test]
    fn validator_rejects_overhanging_span() {
        let text = doc(&[(1, None, 0, 100), (2, Some(1), 10, 120)]);
        let err = validate_span_tree(&text).unwrap_err();
        assert!(err.contains("overhangs"), "{err}");
    }

    #[test]
    fn validator_rejects_spans_that_do_not_reach_the_root() {
        let self_parent = doc(&[(1, None, 0, 100), (2, Some(2), 10, 20)]);
        let err = validate_span_tree(&self_parent).unwrap_err();
        assert!(err.contains("does not reach the root"), "{err}");
        let detached = doc(&[
            (1, None, 0, 100),
            (2, Some(3), 10, 20),
            (3, Some(2), 10, 20),
        ]);
        let err = validate_span_tree(&detached).unwrap_err();
        assert!(err.contains("does not reach the root"), "{err}");
    }

    #[test]
    fn validator_rejects_duplicate_ids_and_multiple_roots() {
        let dup = doc(&[(1, None, 0, 9), (1, None, 0, 9)]);
        assert!(validate_span_tree(&dup).unwrap_err().contains("duplicate"));
        let two_roots = doc(&[(1, None, 0, 9), (2, None, 0, 9)]);
        assert!(validate_span_tree(&two_roots)
            .unwrap_err()
            .contains("exactly 1 root"));
    }

    #[test]
    fn decoder_names_what_is_missing_or_malformed_and_never_panics() {
        let good = doc(&[(1, None, 0, 100), (2, Some(1), 10, 20)]);
        assert_eq!(validate_span_tree(&good).unwrap().spans, 2);
        // Every field `to_json` writes is required, but the derived one
        // (renaming a key's first occurrence takes the field away).
        let without = |key: &str| good.replacen(&format!("\"{key}\":"), "\"x\":", 1);
        assert!(decode_traces(&without("duration_s")).is_ok());
        for key in ["trace_id", "scene", "seed", "start_us", "end_us"]
            .into_iter()
            .chain([
                "retries",
                "dead_letters",
                "dropped_spans",
                "spans",
                "services",
            ])
            .chain(["id", "parent", "kind", "name", "worker", "error"])
            .chain(["task", "sim_s", "match_frac"])
        {
            let err = decode_traces(&without(key)).expect_err(key);
            assert!(err.contains(&format!("missing {key}")), "{key}: {err}");
        }
        // ... and has to be what it should.
        for (from, to, expected) in [
            (r#""trace_id":"00ab""#, r#""trace_id":"t""#, "is not hex"),
            (r#""trace_id":"00ab""#, r#""trace_id":3"#, "not a string"),
            (r#""seed":7"#, r#""seed":-7"#, "whole number"),
            (r#""seed":7"#, r#""seed":7.5"#, "whole number"),
            (r#""seed":7"#, r#""seed":1e300"#, "whole number"),
            (r#""retries":0"#, r#""retries":4294967296"#, "whole number"),
            (r#""spans":["#, r#""spans":7,"x":["#, "not an array"),
            (
                r#""id":"1""#,
                r#""id":"00000000000000001""#,
                "not a span id",
            ),
            (r#""parent":null"#, r#""parent":1"#, "a string or null"),
            (
                r#""kind":"task""#,
                r#""kind":"leaf""#,
                "spans[0]: unknown kind",
            ),
            (r#""task":0"#, r#""task":-2"#, "services[0]: task is not"),
            (r#""sim_s":1.5"#, r#""sim_s":null"#, "not a number"),
        ] {
            assert!(good.contains(from), "{from}");
            let err = decode_traces(&good.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(expected), "{to}: {err}");
        }
        for text in ["", "[]", "3", r#"{"traces":7}"#, r#"{"traces":[1]}"#] {
            assert!(decode_traces(text).is_err(), "{text:?}");
        }
    }

    #[test]
    fn validator_accepts_trace_list_documents() {
        let tr = Tracing::new();
        for i in 0..2 {
            let scene = tr.start_scene(i, &format!("s{i}"));
            scene.record_span(task_span(&scene, 0, 0, None));
            scene.finish();
        }
        let doc = Json::obj(vec![(
            "traces",
            Json::Arr(tr.retained().iter().map(RetainedTrace::to_json).collect()),
        )]);
        let stats = validate_span_tree(&doc.write()).unwrap();
        assert_eq!(stats.traces, 2);
    }
}
