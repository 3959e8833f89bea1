//! Differential property test of a mid-cycle kill: whatever the task (an
//! RTF batch, an LCC unit of any level, FA, MODEL — on DC and MOFF),
//! wherever in its span the first attempt is killed, and on either
//! placement, the kill is a panic the supervisor retries from scratch, and
//! the retry returns the fault-free task's result as a whole value (`==`,
//! cycle log included), and the registry counts the task's work once: the
//! killed attempt published nothing.

use proptest::prelude::*;
use spam::fa::{run_fa, FaResult, FaTask};
use spam::fragments::FragmentHypothesis;
use spam::lcc::{run_lcc, LccPlan, Level};
use spam::model::ModelTask;
use spam::rtf::{rtf_task_batches, run_rtf, RtfTask};
use spam::rules::SpamProgram;
use spam::scene::Scene;
use spam::task::{Task, TaskList, TaskProcess};
use spam::watch::Watch;
use spam_psm::exec::{ExecConfig, Observer, PhaseRun};
use spam_psm::run_phase;
use std::fmt::Debug;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use tlp_fault::{FaultPlan, SupervisorConfig};
use tlp_obs::{Live, LiveValue};

/// One scene, interpreted fault-free: the inputs of every phase's tasks.
struct World {
    sp: SpamProgram,
    scene: Arc<Scene>,
    batches: Vec<Vec<u32>>,
    plans: [LccPlan; 4],
    supported: Arc<Vec<FragmentHypothesis>>,
    consistents: Vec<spam::lcc::ConsistentRec>,
    fa: FaResult,
}

const LEVELS: [Level; 4] = [Level::L1, Level::L2, Level::L3, Level::L4];

fn world(moff: bool) -> &'static World {
    static WORLDS: [OnceLock<World>; 2] = [OnceLock::new(), OnceLock::new()];
    WORLDS[usize::from(moff)].get_or_init(|| {
        let dataset = if moff { spam::moff() } else { spam::dc() };
        let sp = SpamProgram::build();
        let scene = Arc::new(spam::generate_scene(&dataset.spec));
        let batches = rtf_task_batches(&scene, scene.len().div_ceil(64));
        let frags = Arc::new(run_rtf(&sp, &scene).fragments);
        let plans = LEVELS.map(|level| LccPlan::new(&sp, &scene, &frags, level));
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let supported = Arc::new(lcc.fragments);
        let fa = run_fa(&sp, &scene, &supported, &lcc.consistents);
        World {
            sp,
            scene,
            batches,
            plans,
            supported,
            consistents: lcc.consistents,
            fa,
        }
    })
}

/// A phase of one task, built anew for each attempt, as a phase's tasks are.
struct One<F>(F);

impl<K: Task, F: Fn() -> K> TaskList for One<F> {
    type Output = K::Output;
    type Task<'a>
        = K
    where
        Self: 'a;
    fn len(&self) -> usize {
        1
    }
    fn label(&self, _: usize) -> String {
        "task".into()
    }
    fn estimate(&self, _: usize) -> u64 {
        1
    }
    fn task(&self, _: usize) -> K {
        (self.0)()
    }
}

/// `task` (built anew from `w` for each attempt, as a phase's list does)
/// against its fault-free self, its first attempt killed at cycle
/// `1 + kill % span` on `exec`; `firings` reads a result's span.
fn differential<K: Task>(
    w: &'static World,
    (kill, exec): (u64, ExecConfig),
    task: impl Fn(&'static World) -> K + Send + Sync + 'static,
    firings: fn(&K::Output) -> u64,
) -> Result<(), TestCaseError>
where
    K::Output: PartialEq + Debug + Send + 'static,
{
    let want = TaskProcess::default().run(&task(w), Watch::default()).0;
    let span = firings(&want);
    if span == 0 {
        return Ok(()); // nothing to kill
    }
    let at = 1 + kill % span;
    let cfg = SupervisorConfig::default()
        .with_retries(1)
        .with_backoff(Duration::ZERO);
    let live = Live::new(0);
    let how = PhaseRun {
        cfg,
        plan: FaultPlan::seeded(kill).with_cycle_kill(0, 0, at),
        obs: Observer {
            live: Arc::clone(&live),
            ..Observer::off()
        },
        ..PhaseRun::new(exec)
    };
    let (mut slots, report, _) = run_phase(&how, &Arc::new(One(move || task(w)))).unwrap();
    prop_assert_eq!(
        report.outcomes[0].attempts,
        2,
        "attempt 0 dies, attempt 1 returns"
    );
    prop_assert_eq!(slots.pop().flatten(), Some(want), "kill at {}/{}", at, span);
    let published = match live.snapshot().series.get("spam_live_firings") {
        Some(LiveValue::Counter(total)) => *total,
        other => panic!("spam_live_firings: expected a counter, got {other:?}"),
    };
    prop_assert_eq!(published, span, "kill at {}/{}", at, span);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_killed_task_of_any_phase_retries_into_the_fault_free_result(
        moff in 0u8..2,
        kind in 0usize..7,
        pick in 0usize..1_000_000,
        kill in 0u64..u64::MAX,
        real in 0u8..2,
    ) {
        let w = world(moff == 1);
        let exec = if real == 1 { ExecConfig::new(1) } else { ExecConfig::central_queue(1) };
        let crash = (kill, exec);
        let (sp, scene) = (&w.sp, &w.scene);
        match kind {
            0 => {
                let b = pick % w.batches.len();
                let task = move |w: &'static World| RtfTask { sp, scene, regions: &w.batches[b] };
                differential(w, crash, task, |r| r.firings)?;
            }
            1..=4 => {
                let plan = &w.plans[kind - 1];
                let unit = pick % plan.units.len();
                let task = move |_: &'static World| plan.task(unit);
                differential(w, crash, task, |r| r.firings)?;
            }
            5 => {
                let task = |w: &'static World| {
                    let (sp, scene, fragments) = (w.sp.clone(), Arc::clone(&w.scene), Arc::clone(&w.supported));
                    FaTask { sp, scene, fragments, consistents: w.consistents.clone() }
                };
                differential(w, crash, task, |r| r.firings)?;
            }
            _ => {
                let task = |w: &'static World| {
                    let (sp, scene, fragments) = (w.sp.clone(), Arc::clone(&w.scene), Arc::clone(&w.supported));
                    let (areas, members) = (w.fa.areas.clone(), w.fa.members.clone());
                    ModelTask { sp, scene, fragments, areas, members }
                };
                differential(w, crash, task, |r| r.firings)?;
            }
        }
    }
}
