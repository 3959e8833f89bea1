//! Microbenchmarks of the OPS5 engine: Rete maintenance, the recognize–act
//! cycle, and the Rete-vs-naive match gap that underlies the §6 baseline
//! port factor.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ops5::{Engine, Program, Value};
use std::sync::Arc;
use std::time::Duration;

fn program() -> Arc<Program> {
    // A join-heavy program in the SPAM LCC style.
    Arc::new(
        Program::parse(
            "(literalize item id kind v)
             (literalize link a b w)
             (literalize acc n)
             (p join (item ^id <a> ^kind red ^v <x>)
                     (item ^id { <b> <> <a> } ^kind blue ^v > <x>)
                     -(link ^a <a> ^b <b>)
                     -->
                     (make link ^a <a> ^b <b> ^w 1))
             (p fold (link ^a <a> ^b <b> ^w 1) (acc ^n <n>)
                     -->
                     (modify 1 ^w 0)
                     (modify 2 ^n (compute <n> + 1)))",
        )
        .unwrap(),
    )
}

fn loaded_engine(n: usize) -> Engine {
    let p = program();
    let mut e = Engine::new(p);
    e.make_wme("acc", &[("n", 0.into())]).unwrap();
    for i in 0..n {
        let kind = if i % 2 == 0 { "red" } else { "blue" };
        e.make_wme(
            "item",
            &[
                ("id", (i as i64).into()),
                ("kind", Value::symbol(kind)),
                ("v", ((i * 37 % 100) as i64).into()),
            ],
        )
        .unwrap();
    }
    e
}

fn bench_rete(c: &mut Criterion) {
    let mut g = c.benchmark_group("rete");
    g.sample_size(20).measurement_time(Duration::from_secs(3));

    g.bench_function("wme_add_60_items", |b| {
        b.iter(|| loaded_engine(60));
    });

    g.bench_function("run_to_quiescence_60_items", |b| {
        b.iter_batched(
            || loaded_engine(60),
            |mut e| {
                let out = e.run(1_000_000);
                assert!(out.quiescent());
                out.firings
            },
            BatchSize::SmallInput,
        );
    });

    g.bench_function("naive_run_to_quiescence_60_items", |b| {
        b.iter_batched(
            || {
                let p = program();
                let mut e = Engine::new_naive(p);
                e.make_wme("acc", &[("n", 0.into())]).unwrap();
                for i in 0..60 {
                    let kind = if i % 2 == 0 { "red" } else { "blue" };
                    e.make_wme(
                        "item",
                        &[
                            ("id", (i as i64).into()),
                            ("kind", Value::symbol(kind)),
                            ("v", ((i * 37 % 100) as i64).into()),
                        ],
                    )
                    .unwrap();
                }
                e
            },
            |mut e| e.run(1_000_000).firings,
            BatchSize::SmallInput,
        );
    });

    g.bench_function("parse_spam_rulebase", |b| {
        let src = spam::rules::spam_source();
        b.iter(|| Program::parse(&src).unwrap().productions.len());
    });

    // What `SpamProgram::build()` pays once so that no engine has to: the
    // trie walk, the alpha memories, their dispatch tables.
    g.bench_function("build_spam_network", |b| {
        let sp = spam::rules::SpamProgram::build();
        let config = ops5::ReteConfig::default();
        b.iter(|| ops5::Network::build(&sp.compiled, &sp.program, config).beta_nodes());
    });

    g.bench_function("spawn_task_engine_from_shared_program", |b| {
        let sp = spam::rules::SpamProgram::build();
        b.iter(|| sp.engine());
    });

    g.finish();
}

criterion_group!(benches, bench_rete);
criterion_main!(benches);
