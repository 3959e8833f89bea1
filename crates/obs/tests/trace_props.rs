//! Property tests for the scene-trace tail sampler: memory stays within
//! the configured bounds, and every retained trace is a complete,
//! well-formed span tree that its one decoder reads back whole — under
//! random scene durations, span volumes, retries, dead letters, and task
//! deaths.

use proptest::prelude::*;
use tlp_obs::{
    validate_span_tree, RetainReason, RetainedTrace, SampleVerdict, SamplerConfig, SpanId,
    SpanKind, SpanRecord, Tracing,
};

/// One simulated task attempt: aux-span count, simulated length (µs), and
/// whether the attempt dies.
#[derive(Clone, Debug)]
struct Attempt {
    aux: usize,
    len_us: u64,
    dies: bool,
}

/// One simulated scene: its task attempts plus supervisor-level noise.
#[derive(Clone, Debug)]
struct SceneSpec {
    attempts: Vec<Attempt>,
    retries: u32,
    dead_letters: u32,
}

fn scene_strategy() -> impl Strategy<Value = SceneSpec> {
    (
        prop::collection::vec(
            (0usize..12, 0u64..100_000, 0u32..4).prop_map(|(aux, len_us, die_roll)| Attempt {
                aux,
                len_us,
                dies: die_roll == 0,
            }),
            0..6,
        ),
        0u32..3,
        0u32..2,
    )
        .prop_map(|(attempts, retries, dead_letters)| SceneSpec {
            attempts,
            retries,
            dead_letters,
        })
}

fn config_strategy() -> impl Strategy<Value = SamplerConfig> {
    (1usize..5, 2usize..40, 1usize..8, 0usize..3, 1usize..4).prop_map(
        |(max_retained, max_spans, max_summaries, slowest_n, max_exemplars)| SamplerConfig {
            slowest_n,
            max_retained,
            max_spans,
            max_summaries,
            slo_target_s: None,
            max_exemplars,
        },
    )
}

/// Replays one scene through the tracer the way the supervisor does:
/// deterministic attempt span ids, aux leaves recorded through a sink
/// parented under the attempt, errors on dying attempts. Returns the
/// number of task spans recorded.
fn replay_scene(tracing: &std::sync::Arc<Tracing>, seed: u64, spec: &SceneSpec) -> usize {
    let scene = tracing.start_scene(seed, &format!("scene-{seed}"));
    for (t, a) in spec.attempts.iter().enumerate() {
        let attempt = SpanId::derive(scene.trace_id(), "task.exec", t as u64, 0);
        let base = scene.now_us();
        let end = base + a.len_us;
        let mut sink = scene.sink_under(attempt);
        for k in 0..a.aux {
            let frac = a.len_us * k as u64 / a.aux.max(1) as u64;
            sink.record_aux("engine.cycles", base + frac, base + frac, None);
        }
        scene.record_span(SpanRecord {
            id: attempt,
            parent: Some(scene.root()),
            kind: SpanKind::Task,
            name: format!("task.exec t{t} a0"),
            worker: format!("psm-task-{}", t % 3),
            start_us: base,
            end_us: end,
            error: a.dies.then(|| "injected death".to_string()),
        });
        if !a.dies {
            scene.record_service(t as u32, a.len_us as f64 / 1e6, 1.0 / (1 + a.aux) as f64);
        }
    }
    for _ in 0..spec.retries {
        tracing.note_retry(scene.trace_id());
    }
    for _ in 0..spec.dead_letters {
        tracing.note_dead_letter(scene.trace_id());
    }
    let errored = spec.retries > 0 || spec.dead_letters > 0 || spec.attempts.iter().any(|a| a.dies);
    let verdict = scene.finish();
    // Tail-based retention: the verdict is decided at completion, and an
    // errored outcome always keeps full detail.
    if errored {
        assert_eq!(verdict, SampleVerdict::Retained(RetainReason::Errored));
    }
    spec.attempts.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sampler_memory_stays_within_bounds(
        scenes in prop::collection::vec(scene_strategy(), 1..24),
        cfg in config_strategy(),
    ) {
        let tracing = Tracing::new(cfg.clone());
        let mut max_tasks = 0usize;
        for (i, spec) in scenes.iter().enumerate() {
            max_tasks = max_tasks.max(replay_scene(&tracing, i as u64, spec));
        }
        prop_assert_eq!(tracing.finished(), scenes.len() as u64);
        let retained = tracing.retained();
        prop_assert!(retained.len() <= cfg.max_retained);
        prop_assert!(tracing.summaries().len() <= cfg.max_summaries);
        prop_assert!(tracing.exemplars().len() <= cfg.max_exemplars);
        for t in &retained {
            // The documented per-trace bound: the span cap plus the root
            // plus the structural task spans the cap never evicts.
            prop_assert!(
                t.spans.len() <= cfg.max_spans + 1 + max_tasks,
                "{} spans exceeds cap {} (+1 root +{} tasks)",
                t.spans.len(), cfg.max_spans, max_tasks
            );
        }
        for ex in tracing.exemplars() {
            prop_assert_eq!(ex.family.as_str(), tlp_obs::TASK_LATENCY_FAMILY);
            prop_assert!(ex.value > 0.0);
        }
    }

    #[test]
    fn retained_traces_are_complete_span_trees(
        scenes in prop::collection::vec(scene_strategy(), 1..24),
        cfg in config_strategy(),
    ) {
        let tracing = Tracing::new(cfg);
        for (i, spec) in scenes.iter().enumerate() {
            replay_scene(&tracing, i as u64, spec);
        }
        for t in tracing.retained() {
            // Even under an aggressive span cap (aux eviction) and random
            // deaths/retries, every retained trace must export as a
            // well-formed tree: one root, unique ids, connected
            // parentage, nested intervals.
            let json = t.to_json();
            let doc = json.write();
            prop_assert!(
                validate_span_tree(&doc).is_ok(),
                "trace {}: {:?}",
                t.trace,
                validate_span_tree(&doc)
            );
            // The export decodes back to the very document: `from_json`
            // loses nothing `to_json` writes, through text and all.
            let reparsed = tlp_obs::json::Json::parse(&doc).unwrap();
            let back = RetainedTrace::from_json(&reparsed).map(|b| b.to_json());
            prop_assert_eq!(back, Ok(json));
            // Structural spans survive the cap: every recorded task
            // attempt is still present.
            let tasks = t.spans.iter().filter(|s| s.kind == SpanKind::Task).count();
            prop_assert_eq!(tasks, scenes[usize::try_from(t.seed).unwrap()].attempts.len());
        }
    }
}
