//! Property test for scene-trace retention: the ring keeps the last
//! [`MAX_RETAINED`] finished scenes, a trace stays within [`MAX_SPANS`]
//! plus its root and task spans, and every kept trace is a complete,
//! well-formed span tree that its one decoder reads back whole — under
//! random scene counts, span volumes (bursts past the cap included),
//! retries, dead letters, and task deaths. And the decoder, which reads
//! trace files back in: a truncated or corrupted document is an `Err`,
//! never a panic.

use proptest::prelude::*;
use tlp_obs::{
    decode_traces, validate_span_tree, RetainedTrace, SpanId, SpanKind, SpanRecord, Tracing,
    MAX_RETAINED, MAX_SPANS,
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

/// Mostly a handful of aux spans; now and then a burst that alone crosses
/// the per-trace cap.
fn aux_strategy() -> impl Strategy<Value = usize> {
    (0u32..20, 0usize..12, MAX_SPANS + 1..MAX_SPANS + 40).prop_map(|(roll, few, burst)| {
        if roll == 0 {
            burst
        } else {
            few
        }
    })
}

fn scene_strategy() -> impl Strategy<Value = SceneSpec> {
    (
        prop::collection::vec(
            (aux_strategy(), 0u64..100_000, 0u32..4).prop_map(|(aux, len_us, die_roll)| Attempt {
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

/// Replays one scene through the tracer the way the supervisor does:
/// deterministic attempt span ids, aux leaves recorded through a sink
/// parented under the attempt, errors on dying attempts.
fn replay_scene(tracing: &std::sync::Arc<Tracing>, seed: u64, spec: &SceneSpec) {
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
    scene.finish();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_ring_keeps_the_last_scenes_as_complete_span_trees(
        scenes in prop::collection::vec(scene_strategy(), 1..MAX_RETAINED + 8),
    ) {
        let tracing = Tracing::new();
        for (i, spec) in scenes.iter().enumerate() {
            replay_scene(&tracing, i as u64, spec);
        }
        prop_assert_eq!(tracing.finished(), scenes.len() as u64);
        // The last `MAX_RETAINED` finished scenes, in finish order.
        let retained = tracing.retained();
        let seeds: Vec<u64> = retained.iter().map(|t| t.seed).collect();
        let first = scenes.len().saturating_sub(MAX_RETAINED) as u64;
        prop_assert_eq!(seeds, (first..scenes.len() as u64).collect::<Vec<_>>());
        for t in &retained {
            // The span cap plus the root plus the task spans it never
            // evicts: every recorded attempt is still present.
            let tasks = t.spans.iter().filter(|s| s.kind == SpanKind::Task).count();
            prop_assert_eq!(tasks, scenes[usize::try_from(t.seed).unwrap()].attempts.len());
            prop_assert!(
                t.spans.len() <= MAX_SPANS + 1 + tasks,
                "{} spans exceeds cap {} (+1 root +{} tasks)",
                t.spans.len(), MAX_SPANS, tasks
            );
            // Aux eviction leaves a well-formed tree: one root, unique
            // ids, connected parentage, nested intervals.
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
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_truncated_or_corrupted_trace_file_is_an_error_not_a_panic(
        spec in scene_strategy(),
        flips in prop::collection::vec((0.0f64..1.0, 1u8..255), 0..4),
    ) {
        // A burst past the span cap would make every prefix a long decode.
        let mut spec = spec;
        for a in &mut spec.attempts {
            a.aux %= 3;
        }
        let tracing = Tracing::new();
        replay_scene(&tracing, 7, &spec);
        let kept = tracing.retained().iter().map(RetainedTrace::to_json).collect();
        let doc = tlp_obs::json::Json::obj(vec![("traces", tlp_obs::json::Json::Arr(kept))]);
        let mut bytes = doc.write().into_bytes();
        for (at, mask) in flips {
            let i = (at * bytes.len() as f64) as usize;
            bytes[i] ^= mask;
        }
        // Every prefix, the whole document included: decoded and, where
        // that succeeds, checked. Returning at all is the property.
        for len in 0..=bytes.len() {
            let text = String::from_utf8_lossy(&bytes[..len]);
            if let Ok(traces) = decode_traces(&text) {
                for t in &traces {
                    let _ = t.check_tree();
                }
            }
        }
    }
}
