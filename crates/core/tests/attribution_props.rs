//! Property tests for the speed-up-attribution invariants: the gap
//! components sum exactly to the ideal-vs-measured gap (the decomposition
//! never silently loses processor-seconds), and the critical task chain
//! lower-bounds the makespan of every simulated schedule — including runs
//! with injected worker deaths.

use multimax_sim::{simulate, simulate_with_faults, SimConfig, Task, TaskSet};
use proptest::prelude::*;
use spam_psm::attribution::{critical_path, GapAttribution};
use spam_psm::trace::PhaseTrace;
use tlp_fault::FaultPlan;

/// Synthetic task sets with service times spanning three orders of
/// magnitude and arbitrary match fractions.
fn tasks_strategy() -> impl Strategy<Value = Vec<Task>> {
    prop::collection::vec((0.01f64..10.0, 0.0f64..1.0), 1..80).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (service, mf))| Task::with_match(i as u32, service, mf))
            .collect()
    })
}

fn trace_of(tasks: Vec<Task>) -> PhaseTrace {
    PhaseTrace {
        tasks: TaskSet::new(tasks),
        cycle_log: Vec::new(),
        firings: 0,
        rhs_actions: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn components_sum_to_the_gap(
        tasks in tasks_strategy(),
        workers in 1u32..14,
    ) {
        let base = simulate(&SimConfig::encore(1), &tasks).makespan;
        let r = simulate(&SimConfig::encore(workers), &tasks);
        let a = GapAttribution::attribute(base, &r, workers);
        let sum: f64 = a.components().iter().map(|(_, v)| v).sum();
        let tol = 1e-9 * a.capacity().max(1.0);
        prop_assert!(
            (sum - a.gap()).abs() <= tol,
            "components {} != gap {} (workers {})", sum, a.gap(), workers
        );
        // The remainder bucket never goes (meaningfully) negative: the
        // named overheads cannot exceed the non-busy capacity.
        prop_assert!(a.idle >= -tol, "negative idle {}", a.idle);
        // Ideal bounds measured for a work-conserving schedule.
        prop_assert!(a.measured_speedup() <= a.ideal_speedup() + 1e-9);
    }

    #[test]
    fn components_sum_to_the_gap_under_faults(
        tasks in tasks_strategy(),
        workers in 2u32..10,
        seed in 0u64..1000,
    ) {
        let base = simulate(&SimConfig::encore(1), &tasks).makespan;
        // Kill worker 0 after its first dispatch; seeded plan varies the
        // rest deterministically.
        let plan = FaultPlan::seeded(seed).with_worker_death(0, 1);
        let r = simulate_with_faults(&SimConfig::encore(workers), &tasks, &plan);
        let a = GapAttribution::attribute(base, &r, workers);
        let sum: f64 = a.components().iter().map(|(_, v)| v).sum();
        let tol = 1e-9 * a.capacity().max(1.0);
        prop_assert!(
            (sum - a.gap()).abs() <= tol,
            "components {} != gap {} with faults", sum, a.gap()
        );
        prop_assert!(a.fault >= 0.0);
    }

    #[test]
    fn critical_path_lower_bounds_every_makespan(
        tasks in tasks_strategy(),
        workers in 1u32..14,
    ) {
        let trace = trace_of(tasks);
        let cfg = SimConfig::encore(workers);
        let cp = critical_path(&trace, &cfg);
        let r = simulate(&cfg, &trace.tasks.tasks);
        prop_assert!(
            cp.length <= r.makespan + 1e-9,
            "critical path {} > makespan {} at {} workers",
            cp.length, r.makespan, workers
        );
        // The chain's task really is in the set.
        prop_assert!(trace.tasks.tasks.iter().any(|t| t.id == cp.task));
    }

    #[test]
    fn critical_path_holds_with_match_speedup(
        tasks in tasks_strategy(),
        workers in 1u32..10,
        match_speedup in 1.0f64..4.0,
    ) {
        let trace = trace_of(tasks);
        let cfg = SimConfig { match_speedup, ..SimConfig::encore(workers) };
        let cp = critical_path(&trace, &cfg);
        let r = simulate(&cfg, &trace.tasks.tasks);
        prop_assert!(cp.length <= r.makespan + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The SVM accountant's acceptance identity: the eight cross-machine gap
    /// components sum to the capacity-vs-net-busy difference exactly, for
    /// arbitrary workloads, worker counts and recorder levels, and the
    /// components it shares with the one-machine attribution are that
    /// attribution's.
    #[test]
    fn svm_gap_components_sum_exactly(
        services in prop::collection::vec(0.2f64..6.0, 20..120),
        workers in 2u32..26,
        full in 0u8..2,
    ) {
        use multimax_sim::{simulate_svm, SvmSimConfig};
        use spam_psm::attribution::build_svm_report;
        let ts = TaskSet::from_services(&services);
        let mut cfg = SvmSimConfig::dual_encore(workers);
        cfg.level = if full == 1 { tlp_obs::ObsLevel::Full } else { tlp_obs::ObsLevel::Off };
        let r = simulate_svm(&cfg, &ts.tasks);
        let report = build_svm_report("prop", "L?", "tuned", &r, &ts, 3);
        let a = &report.attribution;
        let sum: f64 = a.components().iter().map(|(_, v)| v).sum();
        prop_assert!(
            (sum - a.gap()).abs() < 1e-9 * a.sim.capacity().max(1.0),
            "components {} != gap {}", sum, a.gap()
        );
        // Queue-wait, dequeue, fault and idle/tail are the plain ones.
        let plain = GapAttribution::attribute(a.sim.base_makespan, &r.sim, workers);
        for (name, v) in plain.components().into_iter().filter(|(n, _)| *n != "fork") {
            let svm = a.components().into_iter().find(|(n, _)| *n == name);
            prop_assert_eq!(svm, Some((name, v)));
        }
        // The pieces the accountant pulls out of busy/fork stay
        // non-negative, and net busy never exceeds raw busy.
        prop_assert!(a.busy_net() <= r.sim.busy.iter().sum::<f64>() + 1e-9);
        prop_assert!(a.fork() >= -1e-9 && a.warmup >= -1e-9);
        prop_assert!(a.page_wait >= 0.0 && a.transfer >= 0.0);
        // Equivalent processors never exceeds the worker count (the SVM
        // run cannot beat the pure-TLP run it is compared against).
        prop_assert!(report.equivalent <= f64::from(workers) + 1e-6);
    }
}
