//! Cross-source agreement: one run's busy time has five accounts — the
//! measured schedule's attempts, the per-worker statistics, the flight
//! recorder's `task.exec` spans, the live registry's per-worker busy
//! counters and the scene trace's task spans — and they must tell the same
//! story. They do because the worker stamps all five from the attempt's own
//! start and finish instants (one clock per attempt); a second clock read,
//! or microseconds truncated per task, shows here as a few percent at the
//! finest decomposition, where a task is ~10 µs.

use spam::lcc::Level;
use spam_psm::exec::{ExecConfig, PhaseRun};
use std::collections::BTreeMap;
use std::sync::Arc;
use tlp_obs::{EventKind, Live, LiveValue, ObsLevel, Recorder, SpanKind, TraceId, Tracing};

const WORKERS: usize = 2;
const TOLERANCE: f64 = 0.01;

#[test]
fn the_five_accounts_of_busy_time_agree_within_one_percent() {
    let sp = spam::rules::SpamProgram::build();
    let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
    let frags = Arc::new(spam::rtf::run_rtf(&sp, &scene).fragments);
    let placements = [
        ("central queue", ExecConfig::central_queue(WORKERS)),
        ("chunked deques", ExecConfig::new(WORKERS)),
    ];
    for level in [Level::L1, Level::L3, Level::L4] {
        for (placement, exec) in placements {
            let rec = Recorder::new(ObsLevel::Full);
            let live = Live::new(tlp_obs::DEFAULT_WINDOW);
            let tracing = Tracing::new();
            let span = tracing.start_scene(0, "dc");
            let mut how = PhaseRun::new(exec);
            how.obs.rec = Arc::clone(&rec);
            how.obs.live = Arc::clone(&live);
            how.obs.span = Some(&span);
            let (phase, measured) =
                spam_psm::run_parallel_lcc(&sp, &scene, &frags, level, &how).unwrap();
            span.finish();
            assert!(phase.report.is_clean());

            let attempts: f64 = (measured.attempts.iter())
                .map(|a| a.finished_s - a.started_s)
                .sum();
            let workers: f64 = measured.workers.iter().map(|w| w.busy_s).sum();

            // Recorder: each worker's track is a sequence of B/E pairs.
            let mut open: BTreeMap<u32, u64> = BTreeMap::new();
            let mut recorder_us = 0u64;
            let events = rec.events();
            for e in events.iter().filter(|e| e.name.starts_with("task.exec")) {
                let begun = open.remove(&e.thread);
                match (e.kind, begun) {
                    (EventKind::SpanBegin, None) => drop(open.insert(e.thread, e.wall_us)),
                    (EventKind::SpanEnd, Some(b)) => recorder_us += e.wall_us - b,
                    unpaired => panic!("{}: {unpaired:?}", e.name),
                }
            }
            assert!(open.is_empty());

            let snap = live.snapshot();
            let live_us: u64 = (snap.series.iter())
                .filter(|(k, _)| k.starts_with("spam_live_worker_busy_us{"))
                .map(|(_, v)| match v {
                    LiveValue::Counter { total, .. } => *total,
                    other => panic!("busy series is a counter, got {other:?}"),
                })
                .sum();

            let trace = (tracing.retained().into_iter())
                .find(|t| t.trace == TraceId::derive(0, "dc"))
                .expect("the first scene is retained");
            let tasks = trace.spans.iter().filter(|s| s.kind == SpanKind::Task);
            let (n_spans, span_us) =
                tasks.fold((0, 0), |(n, us), s| (n + 1, us + s.end_us - s.start_us));
            assert_eq!(n_spans, measured.attempts.len(), "a span per attempt");

            for (source, busy_s) in [
                ("WorkerStats.busy_s", workers),
                ("recorder task.exec B/E", recorder_us as f64 / 1e6),
                ("spam_live_worker_busy_us", live_us as f64 / 1e6),
                ("scene-trace task spans", span_us as f64 / 1e6),
            ] {
                let off = (busy_s - attempts) / attempts;
                assert!(
                    off.abs() <= TOLERANCE,
                    "{} on the {placement}, {} tasks: {source} reads {:.3} ms, the attempts \
                     {:.3} ms ({:+.2}%)",
                    level.name(),
                    measured.attempts.len(),
                    busy_s * 1e3,
                    attempts * 1e3,
                    off * 100.0
                );
            }
        }
    }
}
