//! Benchmarks of SPAM phase machinery: scene generation, RTF, single LCC
//! tasks at the chosen decomposition grains, LCC and FA working-memory loads,
//! engine instantiation, and the decomposition itself.
//! A single-task bench runs on one task process, as a worker's tasks do: its
//! engine is kept between iterations, not rebuilt.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spam::fa::FaTask;
use spam::lcc::{decompose, run_lcc, run_lcc_unit, LccPlan, LccUnit, Level, LCC_ID_BASE};
use spam::rtf::{merge_rtf_batches, rtf_task_batches, run_rtf, RtfPhase, RtfTask};
use spam::rules::SpamProgram;
use spam::task::{drain, Task, TaskList, TaskProcess};
use spam::watch::Watch;
use std::sync::Arc;
use std::time::Duration;

fn bench_spam(c: &mut Criterion) {
    let mut g = c.benchmark_group("spam");
    g.sample_size(10).measurement_time(Duration::from_secs(4));

    let dataset = spam::datasets::dc();
    let sp = SpamProgram::build();
    let scene = Arc::new(spam::generate_scene(&dataset.spec));
    let rtf = run_rtf(&sp, &scene);
    let fragments = Arc::new(rtf.fragments.clone());

    g.bench_function("generate_scene_dc", |b| {
        b.iter(|| spam::generate_scene(&dataset.spec).len())
    });

    g.bench_function("rtf_task_10_regions", |b| {
        let regions: Vec<u32> = (0..10).collect();
        let mut tp = TaskProcess::default();
        let (sp, scene, regions) = (&sp, &scene, &regions);
        let task = RtfTask { sp, scene, regions };
        b.iter(|| tp.run(&task, Watch::default()).0.fragments.len())
    });

    // The paper's RTF decomposition (60-100 tasks, §4) on one task process:
    // the sequential cost a parallel RTF has to beat.
    g.bench_function("rtf_64_batches", |b| {
        let batches = rtf_task_batches(&scene, scene.len().div_ceil(64));
        assert_eq!(batches.len(), 64);
        let (sp, scene) = (sp.clone(), Arc::clone(&scene));
        let phase = RtfPhase { sp, scene, batches };
        b.iter(|| {
            let tp = &mut TaskProcess::default();
            merge_rtf_batches(drain(tp, &phase, false).map(|(r, _)| Some(r.fragments))).len()
        })
    });

    // A representative Level-3 task (a runway object: several constraints,
    // real pair work).
    let runway = fragments
        .iter()
        .find(|f| f.kind == spam::FragmentKind::Runway)
        .expect("runway hypothesis")
        .id;
    g.bench_function("lcc_unit_level3_runway", |b| {
        let (mut tp, unit) = (TaskProcess::default(), LccUnit::Object(runway));
        b.iter(|| run_lcc_unit(&mut tp, &sp, &scene, &fragments, &unit).firings)
    });

    // Working-memory distribution alone: every unit of the phase begun and
    // loaded on a warm task process, none driven. At Level 1 (1 282 pair
    // tasks) a load is most of a task, and almost every right activation it
    // makes meets a join of another phase's rules, with nothing to pair.
    for (name, level) in [("lcc_l3_setup", Level::L3), ("lcc_l1_load", Level::L1)] {
        g.bench_function(name, |b| {
            let plan = LccPlan::new(&sp, &scene, &fragments, level);
            let mut tp = TaskProcess::default();
            b.iter(|| {
                let mut wmes = 0;
                for i in 0..plan.units.len() {
                    let task = plan.task(i);
                    let mut attempt = tp.begin(&task, false);
                    task.load(attempt.engine());
                    wmes += attempt.engine().wm().len();
                    attempt.finish();
                }
                wmes
            })
        });
    }

    // The FA phase's load — the supported fragments and LCC's consistency
    // records — begun on a warm task process, not driven.
    g.bench_function("fa_load", |b| {
        let lcc = run_lcc(&sp, &scene, &fragments, Level::L3);
        let supported = Arc::new(lcc.fragments);
        let task = FaTask {
            sp: sp.clone(),
            scene: Arc::clone(&scene),
            fragments: Arc::clone(&supported),
            consistents: lcc.consistents,
        };
        let mut tp = TaskProcess::default();
        b.iter(|| {
            let mut attempt = tp.begin(&task, false);
            task.load(attempt.engine());
            let wmes = attempt.engine().wm().len();
            attempt.finish();
            wmes
        })
    });

    // What a task process pays when its inputs change (and a phase call
    // pays once): an engine instantiated from the program's network and
    // wired for the scene, then dropped. The heap is warm — every iteration
    // frees what the next allocates.
    g.bench_function("engine_build_drop", |b| {
        b.iter(|| drop(black_box(sp.engine_for(&scene, &fragments, LCC_ID_BASE))))
    });

    g.bench_function("lcc_unit_level1_pair", |b| {
        let unit = decompose(&scene, &fragments, Level::L1)
            .into_iter()
            .next()
            .expect("at least one pair");
        let mut tp = TaskProcess::default();
        b.iter(|| run_lcc_unit(&mut tp, &sp, &scene, &fragments, &unit).firings)
    });

    g.bench_function("decompose_all_levels", |b| {
        b.iter(|| {
            decompose(&scene, &fragments, Level::L4).len()
                + decompose(&scene, &fragments, Level::L3).len()
                + decompose(&scene, &fragments, Level::L2).len()
                + decompose(&scene, &fragments, Level::L1).len()
        })
    });

    g.finish();
}

criterion_group!(benches, bench_spam);
criterion_main!(benches);
