//! Driving and watching a task engine from outside. [`ops5::Engine`] only
//! counts, so a task runner holds a [`Watch`] *next to* it and the watch owns
//! the one call that advances a task's engine ([`crate::task::Attempt::run`]).
//! Once, when the run ends, it reads the engine's public counters into the
//! live registry — `spam_live_match_units` / `_firings` /
//! `_rhs_actions` as counters, `spam_live_conflict_set_depth` / `_wm_size` as
//! gauges, next to the phase runner's other `spam_live_*` series. A watch
//! may also carry a fault plan's mid-cycle kill ([`Watch::with_kill_at`]):
//! the loop stops at that cycle and panics, as a task process that died
//! mid-run would, having published nothing, and the supervisor's retry starts
//! the task over, so the registry counts each task's work once. All else
//! is reads: a watched task's results are bit-identical to an unwatched
//! one's, and an inert watch (the default) is a plain [`ops5::Engine::run`].

use ops5::{Engine, RunOutcome};
use std::sync::Arc;
use tlp_obs::{Live, LiveHandle};

/// The firing budget of one task; no SPAM task comes near it.
const TASK_CYCLE_BUDGET: u64 = 1_000_000;

/// Who watches one task's engine. Made per task and dropped with it: nothing
/// of it outlives the task in the engine or the thread.
#[derive(Default)]
pub struct Watch {
    /// `None` when the registry is off.
    live: Option<LiveHandle>,
    /// Whether the task's runner should switch the engine's profiler on.
    pub(crate) profile: bool,
    /// The cycle at which the drive panics, if a fault plan kills the task.
    kill_at: Option<u64>,
}

impl Watch {
    /// Publishes into `live`; `None`, or a disabled registry, publishes
    /// nothing.
    pub fn new(live: Option<&Arc<Live>>) -> Watch {
        Watch {
            live: live.filter(|l| l.is_enabled()).map(Live::handle),
            ..Watch::default()
        }
    }

    /// Also has the task's [`ops5::MatchProfile`] taken.
    pub fn with_profile(mut self) -> Watch {
        self.profile = true;
        self
    }

    /// Panics once the engine has fired `kill_at` cycles, if it gets that
    /// far: a fault plan's mid-cycle kill.
    pub fn with_kill_at(mut self, kill_at: Option<u64>) -> Watch {
        self.kill_at = kill_at;
        self
    }

    /// The one call that advances a task's engine: runs `e` until it stops
    /// or its cycle budget is spent, sliced only at the kill cycle, where it
    /// panics. With no kill that is one `e.run(1_000_000)`.
    pub(crate) fn drive(&self, e: &mut Engine) -> RunOutcome {
        let slice = self
            .kill_at
            .map_or(TASK_CYCLE_BUDGET, |k| k.min(TASK_CYCLE_BUDGET));
        let out = e.run(slice);
        if out.limit_reached && slice < TASK_CYCLE_BUDGET {
            panic!("injected mid-cycle kill at cycle {slice}");
        }
        self.finish(e);
        out
    }

    /// The task's run is over: publish the engine's work (all of it: a
    /// task's engine starts reset, its WM load is work).
    fn finish(&self, e: &Engine) {
        if let Some(live) = &self.live {
            let work = e.work();
            live.inc("spam_live_match_units", work.match_units);
            live.inc("spam_live_firings", work.firings);
            live.inc("spam_live_rhs_actions", work.rhs_actions);
            live.gauge("spam_live_conflict_set_depth", e.conflict_len() as f64);
            live.gauge("spam_live_wm_size", e.wm().len() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_obs::LiveValue;

    /// An engine that fires exactly `firings` times and stops.
    fn counter(firings: u64) -> Engine {
        let src = format!(
            "(literalize count n)
             (p up (count ^n {{ <n> < {firings} }}) --> (modify 1 ^n (compute <n> + 1)))"
        );
        let mut e = Engine::new(Arc::new(ops5::Program::parse(&src).unwrap()));
        e.make_wme("count", &[("n", 0.into())]).unwrap();
        e
    }

    /// The watch is invisible to the run, and the registry ends up holding
    /// the engine's totals — whether or not a kill past the end is set.
    #[test]
    fn a_watched_run_is_the_plain_run_and_publishes_its_work() {
        for firings in [0, 1, 15, 16, 17, 255, 256, 257, 512, 600] {
            let mut plain = counter(firings);
            let want = plain.run(TASK_CYCLE_BUDGET);
            assert_eq!(want.firings, firings);

            for kill_at in [None, Some(firings + 1), Some(firings + 17)] {
                let at = format!("F={firings}, kill at {kill_at:?}");
                let live = Live::new(0);
                let mut watched = counter(firings);
                let watch = Watch::new(Some(&live)).with_kill_at(kill_at);
                assert_eq!(watch.drive(&mut watched), want, "{at}");
                let w = watched.work();
                assert_eq!(w, plain.work(), "{at}");

                let snap = live.snapshot();
                let total = |name: &str| match snap.series.get(name) {
                    Some(LiveValue::Counter(total)) => *total,
                    other => panic!("{name}: expected counter, got {other:?}"),
                };
                assert_eq!(total("spam_live_match_units"), w.match_units);
                assert_eq!(total("spam_live_firings"), firings);
                assert_eq!(total("spam_live_rhs_actions"), w.rhs_actions);
            }
        }
    }

    /// A kill at cycle `k` of a run of `F` cycles, `k <= F`, stops the engine
    /// after exactly `k` cycles and panics having published nothing: the
    /// retry publishes the task's work.
    #[test]
    fn a_kill_stops_the_engine_at_its_cycle_and_panics() {
        for firings in [1, 15, 16, 17, 300] {
            for kill in (1..=firings).filter(|k| [1, 3, 16, 17, 256, firings].contains(k)) {
                let at = format!("F={firings}, kill at {kill}");
                let live = Live::new(0);
                let mut e = counter(firings);
                let watch = Watch::new(Some(&live)).with_kill_at(Some(kill));
                let run =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| watch.drive(&mut e)));
                assert!(run.is_err(), "{at}");
                assert_eq!(e.work().firings, kill, "{at}");
                assert!(live.snapshot().series.is_empty(), "{at}");
            }
        }
    }
}
