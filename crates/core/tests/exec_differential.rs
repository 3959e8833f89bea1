//! Differential property tests across the three execution substrates:
//! the sequential engine, the threaded parallel matcher (`paraops5`), and
//! the real work-stealing executor (`spam_psm::exec`). Over random
//! programs, working-memory seeds, and worker counts — with and without
//! seeded kills — all three must produce **identical firing sequences**
//! (the recognize–act cycle log) and **bit-identical work totals**; only
//! the wall-clock schedule is allowed to differ.

use ops5::{sym, Engine, Program, Value, WorkCounters};
use paraops5::threaded::{MatchPoolOptions, RecoveryPolicy, ThreadedMatcher};
use proptest::prelude::*;
use spam_psm::exec::{ExecConfig, PhaseRun};
use spam_psm::TaskAttempt;
use std::sync::Arc;
use tlp_fault::{FaultPlan, SupervisorConfig};

/// Quiescing programs over a common `(item kind count)` seed class, so one
/// seed strategy drives them all. Each exercises a different control shape:
/// a countdown with negation, a destructive fold, and symmetric pairing.
const PROGRAMS: &[&str] = &[
    // 1: countdown — modify loops then a negation-guarded finish
    "(literalize item kind count)
     (literalize done kind)
     (p consume (item ^kind <k> ^count { <n> > 0 })
        -->
        (modify 1 ^count (compute <n> - 1)))
     (p finish (item ^kind <k> ^count 0) -(done ^kind <k>)
        -->
        (make done ^kind <k>)
        (remove 1))",
    // 2: destructive fold into an accumulator
    "(literalize item kind count)
     (literalize sum v)
     (p fold (item ^count <a>) (sum ^v <s>)
        -->
        (modify 2 ^v (compute <s> + <a>))
        (remove 1))",
    // 3: symmetric pairing with a negation latch
    "(literalize item kind count)
     (literalize pair kind)
     (p pair (item ^kind <k> ^count <a>) (item ^kind <k> ^count > <a>)
        -(pair ^kind <k>)
        -->
        (make pair ^kind <k>))",
];

/// Which matcher backs the engine for one arm.
enum Arm {
    Sequential,
    /// Threaded matcher at `workers` match processes; `kill` optionally
    /// fates one worker to die after a number of chunks (Respawn policy).
    Threaded {
        workers: usize,
        kill: Option<(usize, u64)>,
    },
}

/// Runs one engine over `seeds` and returns the observable identity: the
/// firing sequence (cycle-log production ids), the work counters, and the
/// sorted final working memory.
fn run_arm(src: &str, seeds: &[(u8, i8)], arm: Arm) -> (Vec<u32>, WorkCounters, Vec<String>) {
    let program = Arc::new(Program::parse(src).unwrap());
    let compiled = Engine::compile(&program).unwrap();
    let mut e = match arm {
        Arm::Sequential => Engine::with_compiled(Arc::clone(&program), compiled),
        Arm::Threaded { workers, kill } => {
            let opts = MatchPoolOptions {
                fault_plan: match kill {
                    Some((w, after)) => FaultPlan::seeded(9).with_worker_death(w, after),
                    None => FaultPlan::none(),
                },
                recovery: RecoveryPolicy::Respawn,
                ..MatchPoolOptions::default()
            };
            let m = ThreadedMatcher::with_options(&program, &compiled, workers, opts).unwrap();
            Engine::with_matcher(Arc::clone(&program), compiled, Box::new(m))
        }
    };
    e.enable_cycle_log();
    if program.class(sym("sum")).is_some() {
        e.make_wme("sum", &[("v", 0.into())]).unwrap();
    }
    for &(k, n) in seeds {
        e.make_wme(
            "item",
            &[
                ("kind", Value::symbol(&format!("k{}", k % 4))),
                ("count", i64::from(n).into()),
            ],
        )
        .unwrap();
    }
    e.run(10_000);
    let firing_seq: Vec<u32> = e.take_cycle_log().iter().map(|c| c.production).collect();
    let mut wm: Vec<String> = e.wm().iter().map(|(_, w)| w.to_string()).collect();
    wm.sort();
    (firing_seq, e.work(), wm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One engine, three substrates: the threaded matcher — healthy or
    /// with a fated worker respawning mid-run — must reproduce the
    /// sequential engine's firing sequence, work total, and final WM.
    #[test]
    fn threaded_matcher_equals_sequential(
        prog_idx in 0usize..PROGRAMS.len(),
        seeds in prop::collection::vec((0u8..4, 0i8..5), 1..10),
        workers in 1usize..4,
        (do_kill, kill_w, kill_after) in (0u8..2, 0usize..3, 0u64..3),
    ) {
        let src = PROGRAMS[prog_idx];
        let seq = run_arm(src, &seeds, Arm::Sequential);
        let kill = (do_kill == 1).then_some((kill_w % workers.max(1), kill_after));
        let par = run_arm(src, &seeds, Arm::Threaded { workers, kill });
        prop_assert_eq!(&par.0, &seq.0, "firing sequences must be identical");
        prop_assert_eq!(&par.1, &seq.1, "work totals must be bit-identical");
        prop_assert_eq!(&par.2, &seq.2, "final WM must be identical");
    }

    /// Many engines, real tasks: the work-stealing executor runs each seed
    /// group as an independent engine instance; every slot must carry the
    /// exact sequential result for its group regardless of worker count,
    /// steal order, or a seeded task kill (retried once).
    #[test]
    fn real_executor_equals_sequential_per_task(
        prog_idx in 0usize..PROGRAMS.len(),
        seeds in prop::collection::vec((0u8..4, 0i8..5), 2..14),
        workers in 1usize..5,
        (do_kill, kill_sel) in (0u8..2, 0usize..4),
    ) {
        let kill_task = (do_kill == 1).then_some(kill_sel);
        let src = PROGRAMS[prog_idx];
        // Shared, not lent: the executor's workers are resident threads.
        let groups: Arc<Vec<Vec<(u8, i8)>>> =
            Arc::new(seeds.chunks(3).map(<[_]>::to_vec).collect());
        let reference: Vec<_> = groups
            .iter()
            .map(|g| run_arm(src, g, Arm::Sequential))
            .collect();

        let labels: Vec<String> = (0..groups.len()).map(|i| format!("unit {i}")).collect();
        let mut plan = FaultPlan::seeded(7);
        let mut cfg = SupervisorConfig::default();
        if let Some(k) = kill_task {
            plan = plan.with_task_panic(k % groups.len(), 1);
            cfg = cfg
                .with_retries(1)
                .with_backoff(std::time::Duration::from_millis(1));
        }
        // One group per chunk, so groups are stolen one at a time.
        let exec = ExecConfig { chunk_target: 1, ..ExecConfig::new(workers) };
        let shared = Arc::clone(&groups);
        let (slots, report, measured) = spam_psm::exec::execute(
            &PhaseRun { cfg, plan, ..PhaseRun::new(exec) },
            labels,
            &[],
            |_, _| {},
            move |_: &mut (), a: TaskAttempt| run_arm(src, &shared[a.task], Arm::Sequential),
        )
        .unwrap();
        prop_assert_eq!(report.dead_letters().len(), 0);
        for (i, slot) in slots.into_iter().enumerate() {
            let got = slot.expect("no dead letters, so every slot is filled");
            prop_assert_eq!(&got.0, &reference[i].0, "task {} firing sequence", i);
            prop_assert_eq!(&got.1, &reference[i].1, "task {} work total", i);
            prop_assert_eq!(&got.2, &reference[i].2, "task {} final WM", i);
        }
        // Attempt conservation: every task once, plus one per retry.
        let executed: u64 = measured.workers.iter().map(|w| w.executed).sum();
        let expected = groups.len() as u64 + u64::from(report.total_retries());
        prop_assert_eq!(executed, expected, "attempt conservation");
    }
}
