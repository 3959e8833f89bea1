//! Differential property test across the phase runner's two placements:
//! the central FIFO queue (`ExecConfig::central_queue`) and chunked,
//! bounded deques with stealing. Placement decides *where* a task waits
//! and *who* runs it, never what the phase computes: under the same
//! seeded `FaultPlan` (explicit and rate-driven kills), retry budget and
//! worker count, both must fill the same slots and report the same
//! status, attempt count and error for every task — and on both, every
//! task is attempted once plus once per retry. The pool moves whole chunks
//! (`chunk_target`, `deque_capacity` are drawn at random) while its
//! counters count tasks: they must add up per task whatever the chunking.

use proptest::prelude::*;
use spam_psm::exec::{chunk_tasks, execute, ExecConfig, ExecReport, PhaseRun, Source};
use std::time::Duration;
use tlp_fault::{FaultPlan, SupervisorConfig, TaskReport, TaskStatus};

type Verdict = (usize, TaskStatus, u32, Option<String>);

fn verdicts(report: &TaskReport) -> Vec<Verdict> {
    (report.outcomes.iter())
        .map(|o| (o.task, o.status.clone(), o.attempts, o.error.clone()))
        .collect()
}

fn executed(exec: &ExecReport) -> u64 {
    exec.workers.iter().map(|w| w.executed).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn both_placements_fill_the_same_slots_and_file_the_same_report(
        n_tasks in 0usize..48,
        workers in 1usize..6,
        retries in 0u32..3,
        backoff_ms in 0u64..2,
        seed in 0u64..u64::MAX,
        rate in (0u8..3, 0.05f64..0.6).prop_map(|(k, r)| if k == 0 { 0.0 } else { r }),
        kills in prop::collection::vec((0usize..48, 0u32..4), 0..4),
        chunk_target in 1u64..9,
        deque_capacity in (0usize..4).prop_map(|k| [1, 3, 8, 64][k]),
    ) {
        let mut plan = FaultPlan::seeded(seed).with_task_panic_rate(rate);
        for &(task, attempts) in &kills {
            plan = plan.with_task_panic(task % n_tasks.max(1), attempts);
        }
        let cfg = SupervisorConfig::default()
            .with_retries(retries)
            .with_backoff(Duration::from_millis(backoff_ms));
        let run = |exec: ExecConfig| {
            let how = PhaseRun { cfg: cfg.clone(), plan: plan.clone(), ..PhaseRun::new(exec) };
            let labels = (n_tasks, |i| format!("t{i}"));
            execute(&how, labels, &[], |_, _| {}, move |_: &mut (), a| seed ^ (a.task as u64).wrapping_mul(0x9E37_79B9))
                .unwrap()
        };
        let (c_slots, c_report, c_exec) = run(ExecConfig::central_queue(workers));
        let (d_slots, d_report, d_exec) = run(ExecConfig { workers, chunk_target, deque_capacity });

        prop_assert_eq!(&c_slots, &d_slots, "slots");
        prop_assert_eq!(verdicts(&c_report), verdicts(&d_report), "status/attempts/error per task");
        for (name, report, exec) in [("central", &c_report, &c_exec), ("deques", &d_report, &d_exec)] {
            let expected = n_tasks as u64 + u64::from(report.total_retries());
            prop_assert_eq!(executed(exec), expected, "{}: executed = tasks + retries", name);
            prop_assert_eq!(exec.attempts.len() as u64, expected, "{}: every attempt logged", name);
            let dead = report.dead_letters().len();
            prop_assert_eq!(exec.lost_tasks as usize, dead, "{}: lost tasks", name);
        }
        // The central queue never deals a task to a worker, so nothing is
        // ever a worker's own and nothing can be stolen.
        prop_assert_eq!(c_exec.overflowed, n_tasks as u64);
        prop_assert_eq!(c_exec.overflow_taken(), executed(&c_exec));
        prop_assert_eq!(c_exec.steals(), 0);
        // The deques deal, spill and steal whole chunks; every counter
        // still counts tasks. Each spilled task and each retry is taken
        // from the overflow queue exactly once, a steal is counted once
        // per task that rode in the chunk — first attempts only, a retry
        // is never in a deque — and what was not spilled was dealt.
        let retries = u64::from(d_report.total_retries());
        prop_assert_eq!(d_exec.chunks as usize, chunk_tasks(&vec![1; n_tasks], chunk_target).len());
        prop_assert_eq!(d_exec.overflow_taken(), d_exec.overflowed + retries);
        let stolen: Vec<_> = (d_exec.attempts.iter())
            .filter(|a| matches!(a.source, Source::Stolen(_)))
            .collect();
        prop_assert_eq!(d_exec.steals(), stolen.len() as u64);
        prop_assert!(stolen.iter().all(|a| a.attempt == 0));
        prop_assert!(d_exec.steals() + d_exec.overflowed <= n_tasks as u64);
        // Slots are exactly the tasks that did not dead-letter.
        for (i, slot) in c_slots.iter().enumerate() {
            prop_assert_eq!(slot.is_some(), c_report.outcomes[i].status.succeeded(), "task {}", i);
        }
    }
}
