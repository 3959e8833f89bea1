//! # tlp-obs — the reproduction's instrument
//!
//! The paper's whole argument is built from *measurement*: Tables 5–8 and
//! the §5.2 speed-up curves come from instrumented task timings, queue
//! waits, and match fractions. This crate is the reproduction's measurement
//! substrate — a structured, low-overhead observability layer shared by the
//! OPS5 engine, the SPAM/PSM supervisor, the threaded matcher, and the
//! Multimax simulator. Every artefact has one producer, one format and one
//! checker:
//!
//! * **Events** — [`Recorder`], a lock-light event sink. Each emitting
//!   thread owns a [`ThreadSink`] with a private buffer and a deterministic
//!   per-thread logical clock; buffers flush into the shared recorder only
//!   at flush points (or drop), so the hot path never takes a lock. Every
//!   event carries the logical clock *and* wall time. Written as Chrome
//!   `trace_event` JSON ([`TraceDoc`], next to simulated [`Timeline`]s),
//!   checked by [`validate_chrome_trace`] (`tracecheck`).
//! * **Metrics** — [`Live`], the one registry: counters, gauges and
//!   windowed log-scale [`Histogram`]s in per-thread shards, rotated on a
//!   logical epoch. A phase's final metrics are its last snapshot
//!   ([`LiveSnapshot::to_json`]); the same snapshot renders as OpenMetrics
//!   text ([`openmetrics`]), checked by [`validate_openmetrics`]
//!   (`expocheck`). [`SloMonitor`] publishes its burn-rate decisions into
//!   it.
//! * **Scene traces** — [`Tracing`], a span tree per scene submission,
//!   the last [`MAX_RETAINED`] finished ones kept in a ring; written as
//!   JSON ([`RetainedTrace::to_json`]), read back by its one decoder
//!   ([`RetainedTrace::from_json`], [`decode_traces`]) and checked by
//!   [`validate_span_tree`] (`tracecheck --spans`).
//! * A dependency-free JSON [`json`] parser/writer used by all of the
//!   above and by the round-trip tests.
//!
//! Every artefact is a file a run writes when it ends, and is read after
//! it: there is no listener. A whole run is shorter than any interval a
//! poller could usefully sample at.
//!
//! ## Cost model
//!
//! Observability must never distort what it observes:
//!
//! 1. **Runtime level**: [`ObsLevel::Off`] reduces an emit site to one
//!    relaxed atomic load and a branch; a disabled [`Live`] or [`Tracing`]
//!    to a branch on a plain bool.
//! 2. **One clock**: an emitter that has timed something stamps its events
//!    and spans with the instants it already holds ([`Recorder::us_at`],
//!    [`Tracing::us_at`]) — two records of one interval never read two
//!    clocks, so they cannot disagree.
//! 3. **Deterministic accounting is separate**: the engine's work-unit
//!    counters (`ops5::instrument`) never flow through the recorder, so
//!    work totals are bit-identical at any level.
//!
//! What the rest costs end to end is measured, not assumed:
//! `bench_overhead` runs every observer as an arm against `off`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod expose;
pub mod json;
pub mod live;
pub mod metrics;
pub mod recorder;
pub mod slo;
pub mod timeline;
pub mod tracectx;

pub use event::{ArgValue, Category, Event, EventKind};
pub use export::{validate_chrome_trace, MachineLog, TraceDoc, TraceSummary};
pub use expose::{openmetrics, validate_openmetrics, ExpoSummary};
pub use live::{series_key, Live, LiveHandle, LiveSnapshot, LiveValue, DEFAULT_WINDOW};
pub use metrics::Histogram;
pub use recorder::{Recorder, ThreadSink};
pub use slo::{Health, SloConfig, SloMonitor};
pub use timeline::{multi_gantt, CounterSeries, Span, Timeline, Track};
pub use tracectx::{
    decode_traces, validate_span_tree, RetainedTrace, SceneSpan, SpanId, SpanKind, SpanRecord,
    SpanSink, SpanTreeStats, TaskService, TraceContext, TraceId, Tracing, MAX_RETAINED, MAX_SPANS,
};

use std::fmt;

/// How much the flight recorder captures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsLevel {
    /// Record nothing; emit sites reduce to one relaxed load + branch.
    #[default]
    Off = 0,
    /// Record phase-level spans and supervisor verdicts; keep metrics.
    Summary = 1,
    /// Record everything, including per-cycle engine events.
    Full = 2,
}

impl ObsLevel {
    /// Parses `off` / `summary` / `full`.
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s {
            "off" => Some(ObsLevel::Off),
            "summary" => Some(ObsLevel::Summary),
            "full" => Some(ObsLevel::Full),
            _ => None,
        }
    }

    /// The flag spelling of the level.
    pub fn name(&self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Summary => "summary",
            ObsLevel::Full => "full",
        }
    }
}

impl fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(ObsLevel::parse("off"), Some(ObsLevel::Off));
        assert_eq!(ObsLevel::parse("summary"), Some(ObsLevel::Summary));
        assert_eq!(ObsLevel::parse("full"), Some(ObsLevel::Full));
        assert_eq!(ObsLevel::parse("verbose"), None);
        assert!(ObsLevel::Off < ObsLevel::Summary);
        assert!(ObsLevel::Summary < ObsLevel::Full);
        assert_eq!(ObsLevel::Full.to_string(), "full");
    }
}
