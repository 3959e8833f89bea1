//! One account of a run's attempts. A worker records each attempt once, as
//! an `ExecAttempt`; the `WorkerStats`, the flight recorder's `task.exec` /
//! `task.steal` events (a failed attempt's with its panic text) and the
//! registry's per-worker counters are all derived from the `ExecReport`, and
//! a phase run under a scene's trace id tags every event it records with it.
//! This test holds each to the attempts exactly.

use spam::lcc::Level;
use spam_psm::exec::{ExecAttempt, ExecConfig, Observer, PhaseRun, Source};
use std::sync::Arc;
use std::time::Duration;
use tlp_fault::{FaultPlan, SupervisorConfig};
use tlp_obs::{ArgValue, EventKind, Live, LiveValue, ObsLevel, Recorder, TraceId};

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
            let id = TraceId::derive(0, "dc");
            let obs = Observer {
                rec: Recorder::new(ObsLevel::Full),
                live: Live::new(0),
                slo: None,
                trace: Some(id),
            };
            // Task 1 fails once and recovers; task 2 dies for good.
            let how = PhaseRun {
                obs: obs.clone(),
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
            let start = measured.start.expect("a phase of tasks has a start");
            let instant = |s: f64| start + Duration::from_secs_f64(s);
            let us = |s: f64| obs.rec.us_at(instant(s));
            let (threads, events) = (obs.rec.threads(), obs.rec.events());
            let snap = obs.live.snapshot();

            // The scene's id is on every event of the control process and
            // the workers, retries and dead letters among them.
            let tag = ("trace_id", ArgValue::Str(id.to_string()));
            let executor = threads
                .iter()
                .position(|t| t == "executor")
                .expect("a track") as u32;
            let decided = |name: &str| {
                let mine = events.iter().filter(|e| e.thread == executor);
                mine.filter(|e| e.name == name).count()
            };
            assert_eq!(decided("supervisor.retry"), 2, "{at}");
            assert_eq!(decided("supervisor.dead_letter"), 1, "{at}");
            assert!(events.iter().all(|e| e.args.contains(&tag)), "{at}");

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
                // pair at its start and finish, in the order it ran them,
                // the end carrying a failed attempt's panic text.
                let name = format!("psm-task-{w}");
                let track = threads.iter().position(|t| *t == name).expect("a track") as u32;
                let mine_ev = events.iter().filter(|e| e.thread == track);
                let error = |e: &tlp_obs::Event| {
                    e.args.iter().find_map(|(k, v)| match (k, v) {
                        (&"error", ArgValue::Str(text)) => Some(text.clone()),
                        _ => None,
                    })
                };
                let got: Vec<_> = (mine_ev.clone())
                    .map(|e| (e.name.clone(), e.kind, e.wall_us, error(e)))
                    .collect();
                let mut want = Vec::new();
                for a in &mine {
                    let exec = format!("task.exec t{}", a.task);
                    if matches!(a.source, Source::Stolen(_)) {
                        let at = us(a.acquired_s);
                        want.push(("task.steal".into(), EventKind::Instant, at, None));
                    }
                    want.push((exec.clone(), EventKind::SpanBegin, us(a.started_s), None));
                    want.push((exec, EventKind::SpanEnd, us(a.finished_s), a.error.clone()));
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
            }
            let panicked = measured.attempts.iter().filter(|a| a.error.is_some());
            assert_eq!(panicked.count(), 3, "{at}: t1 a0, t2 a0 and t2 a1");
        }
    }
}
