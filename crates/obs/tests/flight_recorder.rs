//! Integration tests for the flight recorder: event ordering under
//! concurrent emitters, the disabled path, and Chrome-trace round-trips.

use std::collections::BTreeMap;
use std::sync::Arc;
use tlp_obs::{
    validate_chrome_trace, Category, ObsLevel, Recorder, Span, Timeline, TraceDoc, Track,
};

const THREADS: usize = 8;
const EVENTS_PER_THREAD: u64 = 500;

#[test]
fn concurrent_emitters_keep_per_thread_clocks_monotone() {
    let rec = Recorder::new(ObsLevel::Full);
    std::thread::scope(|scope| {
        for w in 0..THREADS {
            let rec: &Arc<Recorder> = &rec;
            scope.spawn(move || {
                let mut sink = rec.sink(format!("worker-{w}"));
                for i in 0..EVENTS_PER_THREAD {
                    sink.instant(
                        Category::Task,
                        "task.step",
                        vec![("i", i.into()), ("w", (w as u64).into())],
                    );
                    // Interleave flushes so buffers from different threads
                    // land in the shared log out of per-thread order.
                    if i % 37 == 0 {
                        sink.flush();
                    }
                }
            });
        }
    });

    let events = rec.events();
    assert_eq!(events.len(), THREADS * EVENTS_PER_THREAD as usize);

    // Logical clocks must be strictly increasing per thread in flush order,
    // ending exactly at EVENTS_PER_THREAD with no gaps.
    let mut last: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in &events {
        let prev = last.insert(ev.thread, ev.seq);
        assert_eq!(ev.seq, prev.unwrap_or(0) + 1, "thread {}", ev.thread);
    }
    assert_eq!(last.len(), THREADS);
    for (&thread, &seq) in &last {
        assert_eq!(seq, EVENTS_PER_THREAD, "thread {thread}");
    }

    // The exporter keeps them apart, one Chrome thread per sink, and the
    // validator agrees.
    let mut doc = TraceDoc::new();
    doc.add_recorder("emitters", &rec);
    let sum = validate_chrome_trace(&doc.write()).expect("trace validates");
    assert_eq!(
        sum.events,
        events.len() + 1 + THREADS,
        "events + name metadata"
    );
}

#[test]
fn disabled_recorder_emits_nothing_and_advances_no_clocks() {
    let rec = Recorder::new(ObsLevel::Off);
    std::thread::scope(|scope| {
        for w in 0..THREADS {
            let rec: &Arc<Recorder> = &rec;
            scope.spawn(move || {
                let mut sink = rec.sink(format!("worker-{w}"));
                for i in 0..EVENTS_PER_THREAD {
                    sink.instant(Category::Task, "task.step", vec![("i", i.into())]);
                    sink.counter(Category::Queue, "queue.depth", i as f64);
                }
                assert_eq!(sink.buffered(), 0);
                assert_eq!(sink.clock(), 0);
            });
        }
    });
    assert!(rec.is_empty());
    assert_eq!(rec.events().len(), 0);
}

#[test]
fn chrome_trace_round_trips_through_json_parse() {
    use tlp_obs::json::Json;

    let rec = Recorder::new(ObsLevel::Full);
    let mut control = rec.sink("control");
    control.begin(Category::Phase, "lcc", vec![("level", 2u64.into())]);
    control.instant(
        Category::Supervisor,
        "supervisor.retry",
        vec![("task", 3u64.into()), ("attempt", 2u64.into())],
    );
    control.end(Category::Phase, "lcc", vec![("firings", 12u64.into())]);
    control.flush();

    let mut tl = Timeline::new("multimax n=2", 8.0);
    tl.tracks.push(Track {
        name: "worker 0".into(),
        spans: vec![
            Span::new("fork", Category::Sim, 0.0, 0.5),
            Span::new("exec t0", Category::Sim, 0.5, 8.0),
        ],
    });
    tl.tracks.push(Track {
        name: "worker 1".into(),
        spans: vec![
            Span::new("fork", Category::Sim, 0.0, 1.0),
            Span::new("exec t1", Category::Sim, 1.0, 6.0),
            Span::new("idle", Category::Sim, 6.0, 8.0),
        ],
    });

    let mut doc = TraceDoc::new();
    doc.add_recorder("spamctl", &rec);
    doc.add_timeline(&tl);
    let text = doc.write();

    // Round trip 1: the validator re-parses and approves.
    let sum = validate_chrome_trace(&text).expect("chrome trace validates");
    assert_eq!(sum.processes, 2);
    assert!(sum.coverage.unwrap() > 0.99, "{sum}");

    // Round trip 2: parse -> write -> parse is a fixed point.
    let parsed = Json::parse(&text).expect("parses as JSON");
    let reparsed = Json::parse(&parsed.write()).expect("re-parses");
    assert_eq!(parsed, reparsed);

    // Structure sanity: every event object exposes a phase.
    for ev in parsed.get("traceEvents").unwrap().as_arr().unwrap() {
        assert!(ev.get("ph").and_then(Json::as_str).is_some());
    }
}
