//! Typed flight-recorder events.
//!
//! An [`Event`] is one record in the flight log: *who* (thread ordinal),
//! *when* (deterministic per-thread logical clock + wall microseconds since
//! the recorder epoch), *what* (category + name + kind), and a small typed
//! argument payload. Categories are a closed enum so exporters can colour
//! and filter without string matching.

use std::fmt;

/// What subsystem emitted an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// Task lifecycle: enqueue, dequeue, start, retry, complete.
    Task,
    /// Supervisor decisions: retries granted, dead-letter verdicts.
    Supervisor,
    /// Pipeline phases (RTF / LCC / FA / MODEL spans).
    Phase,
    /// Simulator schedule/steal/fault events.
    Sim,
    /// Central task-queue activity.
    Queue,
    /// Shared-virtual-memory traffic: page faults, page transfers,
    /// invalidations, cross-machine task migration.
    Svm,
}

impl Category {
    /// Stable lowercase name (the Chrome `cat` field).
    pub fn name(&self) -> &'static str {
        match self {
            Category::Task => "task",
            Category::Supervisor => "supervisor",
            Category::Phase => "phase",
            Category::Sim => "sim",
            Category::Queue => "queue",
            Category::Svm => "svm",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The shape of an event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// Opens a span on the emitting thread (Chrome `B`).
    SpanBegin,
    /// Closes the most recent open span on the emitting thread (Chrome `E`).
    SpanEnd,
    /// A point event (Chrome `i`).
    Instant,
    /// A sampled counter value (Chrome `C`).
    Counter(f64),
}

impl EventKind {
    /// The Chrome `trace_event` phase letter.
    pub fn chrome_phase(&self) -> &'static str {
        match self {
            EventKind::SpanBegin => "B",
            EventKind::SpanEnd => "E",
            EventKind::Instant => "i",
            EventKind::Counter(_) => "C",
        }
    }
}

/// A typed argument value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer payload (counts, ids, work units).
    U64(u64),
    /// Float payload (seconds, fractions).
    F64(f64),
    /// Text payload (labels, error strings).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One flight-recorder event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Ordinal of the emitting thread within the recorder (0-based,
    /// assigned in [`crate::Recorder::sink`] registration order).
    pub thread: u32,
    /// Per-thread logical clock: strictly increasing per `thread`,
    /// independent of wall time and scheduling.
    pub seq: u64,
    /// Wall time in microseconds since the recorder epoch.
    pub wall_us: u64,
    /// Emitting subsystem.
    pub cat: Category,
    /// Event name (e.g. `task.dequeue`, `cycle.fire`).
    pub name: String,
    /// Event shape.
    pub kind: EventKind,
    /// Typed argument payload.
    pub args: Vec<(&'static str, ArgValue)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_and_phases_are_stable() {
        assert_eq!(Category::Task.name(), "task");
        assert_eq!(Category::Sim.to_string(), "sim");
        assert_eq!(EventKind::SpanBegin.chrome_phase(), "B");
        assert_eq!(EventKind::Counter(1.0).chrome_phase(), "C");
    }

    #[test]
    fn arg_values_convert() {
        assert_eq!(ArgValue::from(3u64), ArgValue::U64(3));
        assert_eq!(ArgValue::from(0.5f64), ArgValue::F64(0.5));
        assert_eq!(ArgValue::from("x"), ArgValue::Str("x".into()));
    }
}
