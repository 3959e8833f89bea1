//! One account of a run's attempts. A worker records each attempt once, as
//! an `ExecAttempt`; the `WorkerStats`, the flight recorder's `task.exec` /
//! `task.steal` events, the registry's per-worker counters and the scene
//! trace's task spans are all derived from the `ExecReport`. This test holds
//! each to the attempts exactly, with the report rendered into fresh
//! observers.

use spam::lcc::Level;
use spam_psm::exec::{ExecAttempt, ExecConfig, Observer, PhaseRun, Source};
use std::sync::Arc;
use std::time::Duration;
use tlp_fault::{FaultPlan, SupervisorConfig};
use tlp_obs::{
    ArgValue, EventKind, Live, LiveValue, ObsLevel, Recorder, SpanId, SpanKind, Tracing,
};

#[test]
fn every_account_is_rendered_from_the_attempts() {
    let sp = spam::rules::SpamProgram::build();
    let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
    let frags = Arc::new(spam::rtf::run_rtf(&sp, &scene).fragments);
    let placements = [
        ("central queue", ExecConfig::central_queue(2)),
        ("chunked deques", ExecConfig::new(2)),
    ];
    for level in [Level::L1, Level::L3, Level::L4] {
        for (placement, exec) in placements {
            let at = format!("{} on the {placement}", level.name());
            // Task 1 fails once and recovers; task 2 dies for good.
            let how = PhaseRun {
                cfg: SupervisorConfig::default()
                    .with_retries(1)
                    .with_backoff(Duration::ZERO),
                plan: FaultPlan::none()
                    .with_task_panic(1, 1)
                    .with_task_panic(2, u32::MAX),
                ..PhaseRun::new(exec)
            };
            let (phase, measured) =
                spam_psm::run_parallel_lcc(&sp, &scene, &frags, level, &how).unwrap();
            assert_eq!(phase.report.total_retries(), 2, "{at}");
            assert_eq!(phase.report.dead_letters().len(), 1, "{at}");

            let tracing = Tracing::new();
            let span = tracing.start_scene(0, "dc");
            let obs = Observer {
                rec: Recorder::new(ObsLevel::Full),
                live: Live::new(0),
                slo: None,
                span: Some(&span),
            };
            measured.render(&obs);
            let (trace_id, root) = (span.trace_id(), span.root());
            span.finish();
            let start = measured.start.expect("a phase of tasks has a start");
            let instant = |s: f64| start + Duration::from_secs_f64(s);
            let us = |s: f64| obs.rec.us_at(instant(s));
            let (threads, events) = (obs.rec.threads(), obs.rec.events());
            let snap = obs.live.snapshot();
            let trace = tracing.retained().pop().expect("the scene is retained");

            for (w, stats) in measured.workers.iter().enumerate() {
                let mine: Vec<&ExecAttempt> =
                    measured.attempts.iter().filter(|a| a.worker == w).collect();
                let by = |f: fn(&Source) -> bool| mine.iter().filter(|a| f(&a.source)).count();
                let stolen = by(|s| matches!(s, Source::Stolen(_))) as u64;
                let overflow = by(|s| *s == Source::Overflow) as u64;
                let at = format!("{at}, worker {w}");

                // The statistics, empty sweeps aside, are sums over attempts.
                let busy_s = (mine.iter()).fold(0.0, |s, a| s + (a.finished_s - a.started_s));
                let sums = (
                    stats.executed,
                    stats.stolen,
                    stats.overflow_taken,
                    stats.busy_s,
                );
                assert_eq!(sums, (mine.len() as u64, stolen, overflow, busy_s), "{at}");

                // The recorder: on the worker's track, a `task.steal`
                // instant per stolen attempt at its acquisition, then a B/E
                // pair at its start and finish, in the order it ran them.
                let name = format!("psm-task-{w}");
                let track = threads.iter().position(|t| *t == name).expect("a track") as u32;
                let mine_ev = events.iter().filter(|e| e.thread == track);
                let got: Vec<_> = (mine_ev.clone())
                    .map(|e| (e.name.clone(), e.kind, e.wall_us))
                    .collect();
                let mut want = Vec::new();
                for a in &mine {
                    let exec = format!("task.exec t{}", a.task);
                    if matches!(a.source, Source::Stolen(_)) {
                        want.push(("task.steal".into(), EventKind::Instant, us(a.acquired_s)));
                    }
                    want.push((exec.clone(), EventKind::SpanBegin, us(a.started_s)));
                    want.push((exec, EventKind::SpanEnd, us(a.finished_s)));
                }
                assert_eq!(got, want, "{at}");
                let ok: Vec<bool> = (mine_ev.filter(|e| e.kind == EventKind::SpanEnd))
                    .map(|e| e.args.contains(&("ok", ArgValue::U64(1))))
                    .collect();
                let unpanicked: Vec<bool> = mine.iter().map(|a| a.error.is_none()).collect();
                assert_eq!(ok, unpanicked, "{at}");

                // The registry: busy µs are the attempts' ns, divided once.
                let counter =
                    |family: &str| match snap.series.get(&format!("{family}{{worker=\"{w}\"}}")) {
                        Some(LiveValue::Counter(total)) => *total,
                        None => 0,
                        other => panic!("{family}: {other:?}"),
                    };
                let busy_us = mine.iter().map(|a| a.busy_ns()).sum::<u64>() / 1_000;
                let got = ["busy_us", "tasks", "steals", "overflow"]
                    .map(|f| counter(&format!("spam_live_worker_{f}")));
                assert_eq!(got, [busy_us, mine.len() as u64, stolen, overflow], "{at}");

                // The scene trace: one task span per attempt, under the root,
                // named for the worker, at its instants, with its panic text.
                let mut got: Vec<_> = (trace.spans.iter())
                    .filter(|s| s.kind == SpanKind::Task && s.worker == name)
                    .map(|s| {
                        let record = (s.id.0, s.parent, s.name.clone(), s.start_us, s.end_us);
                        (record, s.error.clone())
                    })
                    .collect();
                let mut want: Vec<_> = (mine.iter())
                    .map(|a| {
                        let (i, k) = (a.task as u64, u64::from(a.attempt));
                        let id = SpanId::derive(trace_id, "task.exec", i, k).0;
                        let name = format!("task.exec t{i} a{k}");
                        let (start, end) = (instant(a.started_s), instant(a.finished_s));
                        let when = (tracing.us_at(start), tracing.us_at(end));
                        ((id, Some(root), name, when.0, when.1), a.error.clone())
                    })
                    .collect();
                got.sort_by_key(|s| s.0 .0);
                want.sort_by_key(|s| s.0 .0);
                assert_eq!(got, want, "{at}");
            }
            let panicked = measured.attempts.iter().filter(|a| a.error.is_some());
            assert_eq!(panicked.count(), 3, "{at}: t1 a0, t2 a0 and t2 a1");
        }
    }
}
