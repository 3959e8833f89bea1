//! The Chrome `trace_event` exporter and its validator.
//!
//! Chrome `trace_event` JSON is the one event-trace format
//! (`--trace-out trace.json`): a `traceEvents` document loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev). Wall-time
//! recorder events become `B`/`E`/`i`/`C` events on one process per
//! recorder or machine log; simulated [`Timeline`]s become `X` (complete)
//! spans on per-processor tracks.
//!
//! [`validate_chrome_trace`] powers the `tracecheck` binary and the CI
//! gate: it re-parses emitted output, checks structural invariants
//! (balanced span nesting by name, per-thread timestamp monotonicity,
//! counter hygiene, causally ordered page exchanges), and measures
//! makespan coverage.

use crate::event::{ArgValue, Event, EventKind};
use crate::json::Json;
use crate::recorder::Recorder;
use crate::stitch::{MachineLog, EV_PAGE_FAULT, EV_PAGE_RECV, EV_PAGE_REQ, EV_PAGE_SEND, XFER_ARG};
use crate::timeline::{union_coverage, Timeline};
use std::collections::BTreeMap;
use std::fmt;

/// Microseconds per simulated second in Chrome output.
const US_PER_S: f64 = 1e6;
/// Metadata event name carrying a timeline's makespan for validators.
const MAKESPAN_META: &str = "tlp_makespan_us";

fn args_json(args: &[(&'static str, ArgValue)]) -> Json {
    Json::Obj(
        args.iter()
            .map(|(k, v)| {
                let jv = match v {
                    ArgValue::U64(n) => Json::Num(*n as f64),
                    ArgValue::F64(n) => Json::Num(*n),
                    ArgValue::Str(s) => Json::str(s.clone()),
                };
                (k.to_string(), jv)
            })
            .collect(),
    )
}

/// A Chrome `trace_event` document under construction: wall-time recorder
/// events plus any number of simulated-time timelines, each as its own
/// process.
#[derive(Debug, Default)]
pub struct TraceDoc {
    events: Vec<Json>,
    next_pid: u32,
}

impl TraceDoc {
    /// An empty document.
    pub fn new() -> TraceDoc {
        TraceDoc {
            events: Vec::new(),
            next_pid: 1,
        }
    }

    fn meta(&mut self, pid: u32, tid: u32, name: &str, arg_key: &str, arg: Json) {
        self.events.push(Json::obj(vec![
            ("ph", Json::str("M")),
            ("pid", Json::Num(pid as f64)),
            ("tid", Json::Num(tid as f64)),
            ("name", Json::str(name)),
            ("args", Json::obj(vec![(arg_key, arg)])),
        ]));
    }

    /// Adds all flushed events of a recorder as one process (wall-time
    /// microseconds; one Chrome thread per registered sink).
    pub fn add_recorder(&mut self, name: &str, rec: &Recorder) -> u32 {
        self.add_events(name, &rec.threads(), &rec.events())
    }

    /// Adds one machine's log as a process.
    pub fn add_machine(&mut self, log: &MachineLog) -> u32 {
        self.add_events(&log.name, &log.threads, &log.events)
    }

    /// Adds an event list as one process (one Chrome thread per entry of
    /// `threads`): what [`TraceDoc::add_recorder`] and
    /// [`TraceDoc::add_machine`] both are.
    fn add_events(&mut self, name: &str, threads: &[String], events: &[Event]) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.meta(pid, 0, "process_name", "name", Json::str(name));
        for (tid, tname) in threads.iter().enumerate() {
            self.meta(
                pid,
                tid as u32,
                "thread_name",
                "name",
                Json::str(tname.clone()),
            );
        }
        for ev in events {
            let mut fields = vec![
                ("ph", Json::str(ev.kind.chrome_phase())),
                ("pid", Json::Num(pid as f64)),
                ("tid", Json::Num(ev.thread as f64)),
                ("ts", Json::Num(ev.wall_us as f64)),
                ("cat", Json::str(ev.cat.name())),
                ("name", Json::str(ev.name.clone())),
            ];
            match ev.kind {
                EventKind::Counter(v) => {
                    // Carry the event's own args (e.g. a `unit` declaration)
                    // alongside the sample value.
                    let mut args = vec![("value", Json::Num(v))];
                    if let Json::Obj(extra) = args_json(&ev.args) {
                        fields.push((
                            "args",
                            Json::Obj(
                                args.drain(..)
                                    .map(|(k, j)| (k.to_string(), j))
                                    .chain(extra.into_iter().filter(|(k, _)| k != "value"))
                                    .collect(),
                            ),
                        ));
                    } else {
                        fields.push(("args", Json::obj(args)));
                    }
                }
                EventKind::Instant => {
                    fields.push(("s", Json::str("t")));
                    if !ev.args.is_empty() {
                        fields.push(("args", args_json(&ev.args)));
                    }
                }
                _ => {
                    if !ev.args.is_empty() {
                        fields.push(("args", args_json(&ev.args)));
                    }
                }
            }
            self.events.push(Json::obj(fields));
        }
        pid
    }

    /// Adds a simulated-time timeline as one process: each track becomes a
    /// Chrome thread of `X` (complete) events, counters become `C` events,
    /// and the makespan is recorded as metadata for validators.
    pub fn add_timeline(&mut self, tl: &Timeline) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.meta(pid, 0, "process_name", "name", Json::str(tl.name.clone()));
        self.meta(
            pid,
            0,
            MAKESPAN_META,
            "value",
            Json::Num(tl.makespan * US_PER_S),
        );
        for (tid, track) in tl.tracks.iter().enumerate() {
            self.meta(
                pid,
                tid as u32,
                "thread_name",
                "name",
                Json::str(track.name.clone()),
            );
            for span in &track.spans {
                self.events.push(Json::obj(vec![
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(pid as f64)),
                    ("tid", Json::Num(tid as f64)),
                    ("ts", Json::Num(span.start * US_PER_S)),
                    ("dur", Json::Num(span.dur() * US_PER_S)),
                    ("cat", Json::str(span.cat.name())),
                    ("name", Json::str(span.name.clone())),
                ]));
            }
        }
        for (i, series) in tl.counters.iter().enumerate() {
            let tid = (tl.tracks.len() + i) as u32;
            // Counter samples are recorded in event order (several workers
            // interleave); emit them in time order so each Chrome thread's
            // timestamps are monotone, as the validator demands. A stable
            // sort keeps same-instant samples in recording order.
            let mut samples = series.samples.clone();
            samples.sort_by(|a, b| a.0.total_cmp(&b.0));
            for &(t, v) in &samples {
                self.events.push(Json::obj(vec![
                    ("ph", Json::str("C")),
                    ("pid", Json::Num(pid as f64)),
                    ("tid", Json::Num(tid as f64)),
                    ("ts", Json::Num(t * US_PER_S)),
                    ("name", Json::str(series.name.clone())),
                    ("args", Json::obj(vec![("value", Json::Num(v))])),
                ]));
            }
        }
        pid
    }

    /// Serialises the document as Chrome `trace_event` JSON.
    pub fn write(&self) -> String {
        Json::obj(vec![
            ("traceEvents", Json::Arr(self.events.clone())),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .write()
    }
}

/// What a validator learned about a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSummary {
    /// Total `traceEvents` entries.
    pub events: usize,
    /// Distinct processes.
    pub processes: usize,
    /// Span-shaped events (`B` + `X`).
    pub span_events: usize,
    /// Union-of-spans coverage of the simulated makespan, when the trace
    /// declares one (Chrome traces built from timelines). Minimum across
    /// declared timelines.
    pub coverage: Option<f64>,
    /// Largest timestamp seen, in microseconds.
    pub max_ts_us: f64,
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events, {} processes, {} spans, max ts {:.0} us",
            self.events, self.processes, self.span_events, self.max_ts_us
        )?;
        if let Some(c) = self.coverage {
            write!(f, ", makespan coverage {:.2}%", c * 100.0)?;
        }
        Ok(())
    }
}

/// Validates a Chrome `trace_event` document: well-formed JSON with a
/// `traceEvents` array, required fields per event, well-nested spans per
/// `(pid, tid)` — every `E` must close the innermost open `B` *by name*
/// and must not end before it begins, `X` durations must be non-negative,
/// non-metadata timestamps must be non-decreasing per `(pid, tid)` — and,
/// when makespan metadata is present, union-of-spans coverage of each
/// declared makespan.
///
/// Stitched multi-machine traces get one extra check: for every page-fault
/// exchange (events correlated by an `args.xfer` id), the send leg must not
/// come after its receive leg (`page.fault ≤ page.req`,
/// `page.send ≤ page.recv`). A violated pair means the clock alignment
/// produced a causally inverted trace, which is rejected.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;

    let mut open: BTreeMap<(u64, u64), Vec<(String, f64)>> = BTreeMap::new();
    let mut pids: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut makespans: BTreeMap<u64, f64> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    // xfer id -> [page.fault, page.req, page.send, page.recv] timestamps.
    let mut xfers: BTreeMap<u64, [Option<f64>; 4]> = BTreeMap::new();
    // (pid, counter name) -> first declared unit.
    let mut counter_units: BTreeMap<(u64, String), String> = BTreeMap::new();
    let mut span_events = 0usize;
    let mut max_ts = 0.0f64;

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing pid"))? as u64;
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing tid"))? as u64;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        pids.entry(pid).or_default();
        if ph == "M" {
            if name == MAKESPAN_META {
                let us = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: {MAKESPAN_META} without value"))?;
                makespans.insert(pid, us);
            }
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing ts"))?;
        max_ts = max_ts.max(ts);
        match ph {
            "B" => {
                span_events += 1;
                open.entry((pid, tid))
                    .or_default()
                    .push((name.to_string(), ts));
            }
            "E" => {
                let Some((bname, bts)) = open.entry((pid, tid)).or_default().pop() else {
                    return Err(format!(
                        "event {i}: E without matching B on pid {pid} tid {tid}"
                    ));
                };
                if bname != name {
                    return Err(format!(
                        "event {i}: E '{name}' does not close innermost B '{bname}' \
                         on pid {pid} tid {tid}"
                    ));
                }
                if ts < bts {
                    return Err(format!(
                        "event {i}: span '{name}' ends at {ts} before it begins at {bts}"
                    ));
                }
                pids.entry(pid).or_default().push((bts, ts));
            }
            "X" => {
                span_events += 1;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: X event missing dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: X '{name}' has negative dur {dur}"));
                }
                max_ts = max_ts.max(ts + dur);
                pids.entry(pid).or_default().push((ts, ts + dur));
            }
            // Instants and counters: names must be non-empty (an unnamed
            // marker is unattributable in any viewer), and a counter must
            // carry a finite, non-negative sample — gauges here (queue
            // depth, page counts) are cardinalities by construction.
            "i" | "C" => {
                if name.is_empty() {
                    return Err(format!("event {i}: {ph} event with empty name"));
                }
                if ph == "C" {
                    let value = ev
                        .get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or(format!(
                            "event {i}: counter '{name}' without numeric args.value"
                        ))?;
                    if !value.is_finite() || value < 0.0 {
                        return Err(format!("event {i}: counter '{name}' has bad value {value}"));
                    }
                    // A counter series must not change units mid-stream: the
                    // first `args.unit` seen pins the series (per pid —
                    // machines are separate clock/unit domains), and any
                    // later sample declaring a different unit is rejected.
                    if let Some(unit) = ev
                        .get("args")
                        .and_then(|a| a.get("unit"))
                        .and_then(Json::as_str)
                    {
                        match counter_units.get(&(pid, name.to_string())) {
                            Some(prev) if prev != unit => {
                                return Err(format!(
                                    "event {i}: counter '{name}' changes unit mid-stream \
                                     ('{prev}' then '{unit}') on pid {pid}"
                                ));
                            }
                            Some(_) => {}
                            None => {
                                counter_units.insert((pid, name.to_string()), unit.to_string());
                            }
                        }
                    }
                }
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
        if let Some(&prev) = last_ts.get(&(pid, tid)) {
            if ts < prev {
                return Err(format!(
                    "event {i}: timestamps regress on pid {pid} tid {tid} ({prev} then {ts})"
                ));
            }
        }
        last_ts.insert((pid, tid), ts);
        let leg = match name {
            EV_PAGE_FAULT => Some(0),
            EV_PAGE_REQ => Some(1),
            EV_PAGE_SEND => Some(2),
            EV_PAGE_RECV => Some(3),
            _ => None,
        };
        if let Some(leg) = leg {
            if let Some(id) = ev
                .get("args")
                .and_then(|a| a.get(XFER_ARG))
                .and_then(Json::as_f64)
            {
                xfers.entry(id as u64).or_default()[leg] = Some(ts);
            }
        }
    }

    for ((pid, tid), stack) in &open {
        if !stack.is_empty() {
            return Err(format!(
                "unbalanced spans: {} unclosed B on pid {pid} tid {tid}",
                stack.len()
            ));
        }
    }

    for (id, legs) in &xfers {
        for (send, recv, sname, rname) in [
            (legs[0], legs[1], EV_PAGE_FAULT, EV_PAGE_REQ),
            (legs[2], legs[3], EV_PAGE_SEND, EV_PAGE_RECV),
        ] {
            if let (Some(s), Some(r)) = (send, recv) {
                if r < s {
                    return Err(format!(
                        "xfer {id}: causally inverted pair — {rname} at {r} \
                         precedes {sname} at {s}"
                    ));
                }
            }
        }
    }

    let coverage = makespans
        .iter()
        .map(|(pid, &us)| union_coverage(pids.get(pid).into_iter().flatten().copied(), us))
        .fold(None, |acc: Option<f64>, c| {
            Some(acc.map_or(c, |a| a.min(c)))
        });

    Ok(TraceSummary {
        events: events.len(),
        processes: pids.len(),
        span_events,
        coverage,
        max_ts_us: max_ts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;
    use crate::timeline::{Span, Track};
    use crate::ObsLevel;

    fn sample_recorder() -> std::sync::Arc<Recorder> {
        let rec = Recorder::new(ObsLevel::Full);
        let mut sink = rec.sink("control");
        sink.begin(Category::Phase, "lcc", vec![("level", 2u64.into())]);
        sink.instant(Category::Task, "task.enqueue", vec![("task", 0u64.into())]);
        sink.counter(Category::Queue, "queue.depth", 3.0);
        sink.end(Category::Phase, "lcc", vec![]);
        sink.flush();
        rec
    }

    #[test]
    fn chrome_trace_round_trips() {
        let rec = sample_recorder();
        let mut tl = Timeline::new("sim", 4.0);
        tl.tracks.push(Track {
            name: "worker 0".into(),
            spans: vec![
                Span::new("fork", Category::Sim, 0.0, 1.0),
                Span::new("exec t0", Category::Sim, 1.0, 4.0),
            ],
        });
        let mut doc = TraceDoc::new();
        doc.add_recorder("spamctl", &rec);
        doc.add_timeline(&tl);
        let text = doc.write();
        let sum = validate_chrome_trace(&text).unwrap();
        assert_eq!(sum.processes, 2);
        assert!(sum.span_events >= 3);
        assert!((sum.coverage.unwrap() - 1.0).abs() < 1e-9, "{sum}");
    }

    #[test]
    fn chrome_validator_rejects_unbalanced_spans() {
        let text = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":0,"name":"a"}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("unclosed"), "{err}");

        let text = r#"{"traceEvents":[
            {"ph":"E","pid":1,"tid":0,"ts":0,"name":"a"}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("without matching B"), "{err}");
    }

    #[test]
    fn chrome_rejects_mismatched_close_name() {
        let text = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":0,"name":"outer"},
            {"ph":"B","pid":1,"tid":0,"ts":1,"name":"inner"},
            {"ph":"E","pid":1,"tid":0,"ts":2,"name":"outer"}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("does not close innermost B 'inner'"), "{err}");
    }

    #[test]
    fn chrome_rejects_span_ending_before_it_begins() {
        let text = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":10,"name":"a"},
            {"ph":"E","pid":1,"tid":0,"ts":5,"name":"a"}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("ends at 5 before it begins at 10"), "{err}");
    }

    #[test]
    fn chrome_rejects_timestamp_regression_on_a_thread() {
        let text = r#"{"traceEvents":[
            {"ph":"i","pid":1,"tid":0,"ts":10,"name":"a"},
            {"ph":"i","pid":1,"tid":0,"ts":5,"name":"b"}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("timestamps regress"), "{err}");
        // Other threads keep their own clocks.
        let ok = r#"{"traceEvents":[
            {"ph":"i","pid":1,"tid":0,"ts":10,"name":"a"},
            {"ph":"i","pid":1,"tid":1,"ts":5,"name":"b"}
        ]}"#;
        assert!(validate_chrome_trace(ok).is_ok());
    }

    #[test]
    fn chrome_rejects_negative_x_duration() {
        let text = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":0,"ts":10,"dur":-1,"name":"exec"}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("negative dur"), "{err}");
    }

    #[test]
    fn chrome_rejects_empty_instant_name() {
        let text = r#"{"traceEvents":[
            {"ph":"i","pid":1,"tid":0,"ts":1,"name":""}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("empty name"), "{err}");
    }

    #[test]
    fn chrome_rejects_counter_without_value() {
        let text = r#"{"traceEvents":[
            {"ph":"C","pid":1,"tid":0,"ts":1,"name":"queue.depth"}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("without numeric args.value"), "{err}");
    }

    #[test]
    fn chrome_rejects_negative_counter_value() {
        let text = r#"{"traceEvents":[
            {"ph":"C","pid":1,"tid":0,"ts":1,"name":"queue.depth","args":{"value":-2}}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("bad value -2"), "{err}");
        // A zero sample is a fine counter value.
        let ok = r#"{"traceEvents":[
            {"ph":"C","pid":1,"tid":0,"ts":1,"name":"queue.depth","args":{"value":0}}
        ]}"#;
        assert!(validate_chrome_trace(ok).is_ok());
    }

    #[test]
    fn chrome_rejects_counter_unit_change_midstream() {
        let text = r#"{"traceEvents":[
            {"ph":"C","pid":1,"tid":0,"ts":1,"name":"queue.wait","args":{"value":3,"unit":"ms"}},
            {"ph":"C","pid":1,"tid":0,"ts":2,"name":"queue.wait","args":{"value":4,"unit":"us"}}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("changes unit mid-stream"), "{err}");
        assert!(err.contains("'ms'") && err.contains("'us'"), "{err}");
        // Same unit throughout is fine, as is a unit-less sample.
        let ok = r#"{"traceEvents":[
            {"ph":"C","pid":1,"tid":0,"ts":1,"name":"queue.wait","args":{"value":3,"unit":"ms"}},
            {"ph":"C","pid":1,"tid":0,"ts":2,"name":"queue.wait","args":{"value":4,"unit":"ms"}},
            {"ph":"C","pid":1,"tid":0,"ts":3,"name":"queue.depth","args":{"value":1}}
        ]}"#;
        assert!(validate_chrome_trace(ok).is_ok());
        // Different pids are separate unit domains: no conflict.
        let two_pids = r#"{"traceEvents":[
            {"ph":"C","pid":1,"tid":0,"ts":1,"name":"queue.wait","args":{"value":3,"unit":"ms"}},
            {"ph":"C","pid":2,"tid":0,"ts":1,"name":"queue.wait","args":{"value":4,"unit":"us"}}
        ]}"#;
        assert!(validate_chrome_trace(two_pids).is_ok());
    }

    #[test]
    fn counter_unit_survives_export_round_trip() {
        let rec = crate::Recorder::new(crate::ObsLevel::Full);
        let mut sink = rec.sink("control");
        sink.counter_unit(Category::Queue, "queue.wait", 3.0, "ms");
        sink.counter_unit(Category::Queue, "queue.wait", 4.0, "ms");
        sink.flush();
        let mut doc = TraceDoc::new();
        doc.add_recorder("proc", &rec);
        let text = doc.write();
        assert!(text.contains("\"unit\":\"ms\""), "{text}");
        validate_chrome_trace(&text).unwrap();
    }

    fn machine(name: &str, thread: &str, events: Vec<Event>) -> MachineLog {
        MachineLog {
            name: name.into(),
            threads: vec![thread.into()],
            events,
        }
    }

    fn inst(seq: u64, us: u64, name: &str, xfer: u64) -> Event {
        Event {
            thread: 0,
            seq,
            wall_us: us,
            cat: Category::Svm,
            name: name.into(),
            kind: EventKind::Instant,
            args: vec![(crate::stitch::XFER_ARG, ArgValue::U64(xfer))],
        }
    }

    #[test]
    fn chrome_rejects_causally_inverted_send_recv_pair() {
        // A stitched trace in which xfer 7's page.recv lands *before* its
        // page.send is causally impossible: the alignment failed.
        let m0 = machine("m0", "svm-server", vec![inst(1, 2_000, EV_PAGE_SEND, 7)]);
        let m1 = machine("m1", "pager", vec![inst(1, 1_400, EV_PAGE_RECV, 7)]);
        let mut doc = TraceDoc::new();
        doc.add_machine(&m0);
        doc.add_machine(&m1);
        let err = validate_chrome_trace(&doc.write()).unwrap_err();
        assert!(err.contains("causally inverted"), "{err}");
        assert!(err.contains("xfer 7"), "{err}");

        // The healthy ordering passes.
        let m1 = machine("m1", "pager", vec![inst(1, 2_600, EV_PAGE_RECV, 7)]);
        let mut doc = TraceDoc::new();
        doc.add_machine(&m0);
        doc.add_machine(&m1);
        assert!(validate_chrome_trace(&doc.write()).is_ok());
    }

    #[test]
    fn coverage_reflects_gaps() {
        let mut tl = Timeline::new("gappy", 10.0);
        tl.tracks.push(Track {
            name: "w0".into(),
            spans: vec![Span::new("exec", Category::Sim, 0.0, 4.0)],
        });
        let mut doc = TraceDoc::new();
        doc.add_timeline(&tl);
        let sum = validate_chrome_trace(&doc.write()).unwrap();
        assert!((sum.coverage.unwrap() - 0.4).abs() < 1e-9, "{sum}");
    }
}
