//! The lock-light event sink.
//!
//! A [`Recorder`] is shared (behind `Arc`) by every instrumented subsystem
//! of one run. Emitting threads register a [`ThreadSink`]; each sink owns a
//! private event buffer and a deterministic logical clock, so emitting an
//! event is: one relaxed atomic load (level check), one clock increment,
//! one `Vec::push`. The shared mutex is touched only when a sink flushes
//! (explicitly or on drop).

use crate::event::{ArgValue, Category, Event, EventKind};
use crate::tracectx::TraceId;
use crate::ObsLevel;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Interior state shared by all sinks of one recorder.
struct Shared {
    /// Flushed events, in flush order (exporters re-sort as needed).
    events: Vec<Event>,
    /// Thread names, indexed by thread ordinal.
    threads: Vec<String>,
}

/// The shared flight recorder for one run.
pub struct Recorder {
    level: AtomicU8,
    epoch: Instant,
    shared: Mutex<Shared>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("level", &self.level())
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// Creates a recorder at `level`. The epoch (wall-time zero) is now.
    pub fn new(level: ObsLevel) -> Arc<Recorder> {
        Arc::new(Recorder {
            level: AtomicU8::new(level as u8),
            epoch: Instant::now(),
            shared: Mutex::new(Shared {
                events: Vec::new(),
                threads: Vec::new(),
            }),
        })
    }

    /// A recorder that records nothing (convenient default argument).
    pub fn off() -> Arc<Recorder> {
        Recorder::new(ObsLevel::Off)
    }

    /// Current recording level.
    pub fn level(&self) -> ObsLevel {
        match self.level.load(Ordering::Relaxed) {
            0 => ObsLevel::Off,
            1 => ObsLevel::Summary,
            _ => ObsLevel::Full,
        }
    }

    /// True when events at `at` (or coarser) should be recorded: one
    /// relaxed load and a compare.
    #[inline]
    pub fn enabled(&self, at: ObsLevel) -> bool {
        self.level.load(Ordering::Relaxed) >= at as u8
    }

    /// Registers an emitting thread, returning its private sink. Thread
    /// ordinals are assigned in registration order.
    pub fn sink(self: &Arc<Self>, name: impl Into<String>) -> ThreadSink {
        let thread = {
            let mut sh = self.shared.lock().unwrap();
            sh.threads.push(name.into());
            (sh.threads.len() - 1) as u32
        };
        ThreadSink {
            rec: Arc::clone(self),
            thread,
            seq: 0,
            buf: Vec::new(),
            trace: None,
        }
    }

    /// Microseconds since the recorder epoch.
    pub fn now_us(&self) -> u64 {
        self.us_at(Instant::now())
    }

    /// `t` on this recorder's clock: microseconds since its epoch. An
    /// emitter that has already read the clock (a task attempt's start and
    /// finish) stamps its events with this and [`ThreadSink::emit_at`]
    /// instead of reading it again.
    pub fn us_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Snapshot of all flushed events (sinks must be flushed/dropped first
    /// to see their buffered tail).
    pub fn events(&self) -> Vec<Event> {
        self.shared.lock().unwrap().events.clone()
    }

    /// Registered thread names, indexed by thread ordinal.
    pub fn threads(&self) -> Vec<String> {
        self.shared.lock().unwrap().threads.clone()
    }

    /// Total flushed events.
    pub fn len(&self) -> usize {
        self.shared.lock().unwrap().events.len()
    }

    /// True when no events have been flushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A per-thread emitting handle: private buffer + deterministic logical
/// clock. Flushes its buffer into the recorder on [`ThreadSink::flush`] or
/// drop.
pub struct ThreadSink {
    rec: Arc<Recorder>,
    thread: u32,
    seq: u64,
    buf: Vec<Event>,
    /// Sticky scene-trace annotation: while set, every emitted event
    /// carries a `trace_id` argument, so flight-recorder output can be
    /// joined against the retained traces of [`crate::tracectx::Tracing`].
    trace: Option<TraceId>,
}

impl ThreadSink {
    /// The owning recorder.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.rec
    }

    /// This sink's thread ordinal.
    pub fn thread(&self) -> u32 {
        self.thread
    }

    /// Current value of this sink's logical clock (the `seq` of the last
    /// emitted event; 0 before any emit).
    pub fn clock(&self) -> u64 {
        self.seq
    }

    /// True when events at `at` should be emitted (see
    /// [`Recorder::enabled`]).
    #[inline]
    pub fn enabled(&self, at: ObsLevel) -> bool {
        self.rec.enabled(at)
    }

    /// Sets the sticky scene-trace annotation: every subsequent event from
    /// this sink carries a `trace_id` argument. Workers set this when they
    /// start executing inside a traced scene (their sink lives as long as
    /// the phase), so recorder events and retained span trees share a join
    /// key.
    pub fn set_trace(&mut self, trace: TraceId) {
        self.trace = Some(trace);
    }

    /// Emits one event (unconditionally — call [`ThreadSink::enabled`]
    /// first on hot paths to skip argument construction).
    pub fn emit(
        &mut self,
        cat: Category,
        name: impl Into<String>,
        kind: EventKind,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let at = self.rec.now_us();
        self.emit_at(at, cat, name, kind, args);
    }

    /// Emits one event with an explicit timestamp instead of a fresh read
    /// of the recorder's wall clock: the caller owns the clock, the sink
    /// still owns the logical clock and the level gate. Simulated clock
    /// domains (the two-machine SVM simulation) write machine-local stamps
    /// this way, and the phase runner stamps `task.exec` with the instants
    /// it measured the attempt by ([`Recorder::us_at`]).
    pub fn emit_at(
        &mut self,
        wall_us: u64,
        cat: Category,
        name: impl Into<String>,
        kind: EventKind,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.rec.enabled(ObsLevel::Summary) {
            return;
        }
        let mut args = args;
        if let Some(trace) = self.trace {
            args.push(("trace_id", ArgValue::Str(trace.to_string())));
        }
        self.seq += 1;
        self.buf.push(Event {
            thread: self.thread,
            seq: self.seq,
            wall_us,
            cat,
            name: name.into(),
            kind,
            args,
        });
    }

    /// Emits an instant event.
    pub fn instant(
        &mut self,
        cat: Category,
        name: impl Into<String>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.emit(cat, name, EventKind::Instant, args);
    }

    /// Opens a span.
    pub fn begin(
        &mut self,
        cat: Category,
        name: impl Into<String>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.emit(cat, name, EventKind::SpanBegin, args);
    }

    /// Closes the most recent open span.
    pub fn end(
        &mut self,
        cat: Category,
        name: impl Into<String>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.emit(cat, name, EventKind::SpanEnd, args);
    }

    /// Emits a counter sample.
    pub fn counter(&mut self, cat: Category, name: impl Into<String>, value: f64) {
        self.emit(cat, name, EventKind::Counter(value), Vec::new());
    }

    /// Emits a counter sample declaring its unit (`"ms"`, `"us"`, …). The
    /// exporters carry the unit into the trace, and the validators reject a
    /// counter series that changes unit mid-stream.
    pub fn counter_unit(
        &mut self,
        cat: Category,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
    ) {
        self.emit(
            cat,
            name,
            EventKind::Counter(value),
            vec![("unit", ArgValue::Str(unit.into()))],
        );
    }

    /// Number of events buffered but not yet flushed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pushes the private buffer into the shared recorder.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut sh = self.rec.shared.lock().unwrap();
        sh.events.append(&mut self.buf);
    }
}

impl Drop for ThreadSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_emits_nothing() {
        let rec = Recorder::off();
        let mut sink = rec.sink("t0");
        assert!(!sink.enabled(ObsLevel::Summary));
        sink.instant(Category::Task, "task.start", vec![("task", 1u64.into())]);
        sink.counter(Category::Queue, "queue.depth", 4.0);
        assert_eq!(sink.buffered(), 0);
        drop(sink);
        assert!(rec.is_empty());
    }

    #[test]
    fn summary_level_drops_nothing_it_accepted() {
        let rec = Recorder::new(ObsLevel::Summary);
        let mut sink = rec.sink("control");
        sink.begin(Category::Phase, "lcc", vec![]);
        sink.end(Category::Phase, "lcc", vec![("firings", 10u64.into())]);
        sink.flush();
        let evs = rec.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 1);
        assert_eq!(evs[1].seq, 2);
        assert_eq!(rec.threads(), vec!["control".to_string()]);
    }

    #[test]
    fn sticky_trace_annotation_tags_events() {
        let rec = Recorder::new(ObsLevel::Full);
        let mut sink = rec.sink("worker");
        sink.instant(Category::Task, "before", vec![]);
        sink.set_trace(TraceId::derive(7, "dc"));
        sink.instant(Category::Task, "during", vec![("task", 3u64.into())]);
        sink.flush();
        let evs = rec.events();
        let tagged: Vec<&Event> = evs
            .iter()
            .filter(|e| e.args.iter().any(|(k, _)| *k == "trace_id"))
            .collect();
        assert_eq!(tagged.len(), 1);
        assert_eq!(tagged[0].name, "during");
        match tagged[0].args.iter().find(|(k, _)| *k == "trace_id") {
            Some((_, ArgValue::Str(s))) => {
                assert_eq!(s, &TraceId::derive(7, "dc").to_string());
                assert_eq!(s.len(), 16, "zero-padded hex");
            }
            other => panic!("expected string trace_id arg, got {other:?}"),
        }
    }

    #[test]
    fn sinks_get_distinct_ordinals() {
        let rec = Recorder::new(ObsLevel::Full);
        let a = rec.sink("a");
        let b = rec.sink("b");
        assert_eq!(a.thread(), 0);
        assert_eq!(b.thread(), 1);
        assert_eq!(rec.threads(), vec!["a".to_string(), "b".to_string()]);
    }
}
