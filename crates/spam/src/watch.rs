//! Driving and watching a task engine from outside. [`ops5::Engine`] only
//! counts, so a task runner holds a [`Watch`] *next to* it and the watch owns
//! the one loop that advances a task's engine ([`crate::task::Attempt::run`]).
//! It groups the engine's cycles into `engine.cycles x{n}` spans under the
//! task's attempt and, once, when the run ends, reads the engine's public
//! counters into the live registry — `spam_live_match_units` / `_firings` /
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
use tlp_obs::{Live, LiveHandle, SpanSink};

/// Cycles per `engine.cycles` span. Coarser on purpose: closing a window
/// takes the tracer's shared mutex and allocates a span, and the sampler's
/// per-trace span cap would evict finer windows anyway; 256 keeps the traced
/// arm inside the 2 % overhead budget.
pub const TRACE_WINDOW_EVERY: u32 = 256;

/// The firing budget of one task; no SPAM task comes near it.
const TASK_CYCLE_BUDGET: u64 = 1_000_000;

/// Who watches one task's engine. Made per task and dropped with it: nothing
/// of it outlives the task in the engine or the thread.
#[derive(Default)]
pub struct Watch {
    /// `None` when the registry is off.
    live: Option<LiveHandle>,
    /// `None` when tracing is off; else the open cycle window follows.
    trace: Option<SpanSink>,
    window_start_us: u64,
    window_cycles: u32,
    /// Whether the task's runner should switch the engine's profiler on.
    pub(crate) profile: bool,
    /// The cycle at which the drive panics, if a fault plan kills the task.
    kill_at: Option<u64>,
}

impl Watch {
    /// Publishes into `live`, groups cycles under `trace`; `None`, or a
    /// disabled registry or tracer, leaves that half off. The first cycle
    /// window opens now, so it covers the task's WM load.
    pub fn new(live: Option<&Arc<Live>>, trace: Option<SpanSink>) -> Watch {
        let trace = trace.filter(SpanSink::enabled);
        Watch {
            live: live.filter(|l| l.is_enabled()).map(Live::handle),
            window_start_us: trace.as_ref().map_or(0, SpanSink::now_us),
            trace,
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

    /// The one loop that advances a task's engine: runs `e` until it stops,
    /// in slices. A slice ends at the nearer of the next cycle window's end
    /// ([`TRACE_WINDOW_EVERY`] cycles when traced, else the whole budget) and
    /// the kill cycle; after each slice the watch ticks, then panics if the
    /// kill cycle has come. Untraced and with no kill that is one
    /// `e.run(1_000_000)`.
    pub(crate) fn drive(&mut self, e: &mut Engine) -> RunOutcome {
        let mut firings = 0;
        loop {
            // To the window's end, however short the kill cut the last
            // slice: windows fall on the cycles they would without it.
            let window = if self.trace.is_some() {
                u64::from(TRACE_WINDOW_EVERY - self.window_cycles)
            } else {
                TASK_CYCLE_BUDGET
            };
            let kill_in = self.kill_at.map_or(u64::MAX, |k| k.saturating_sub(firings));
            let slice = window.min(kill_in).min(TASK_CYCLE_BUDGET - firings);
            let mut out = e.run(slice);
            firings += out.firings;
            self.tick(out.firings as u32);
            if !out.limit_reached || firings == TASK_CYCLE_BUDGET {
                self.finish(e);
                out.firings = firings;
                return out;
            }
            if self.kill_at == Some(firings) {
                panic!("injected mid-cycle kill at cycle {firings}");
            }
        }
    }

    /// The engine has fired `cycles` more times: close the cycle window if
    /// it is full.
    fn tick(&mut self, cycles: u32) {
        self.window_cycles += cycles;
        if self.window_cycles >= TRACE_WINDOW_EVERY {
            self.close_window();
        }
    }

    /// The task's run is over: publish the engine's work (all of it: a
    /// task's engine starts reset, its WM load is work) and close the open
    /// cycle window.
    fn finish(&mut self, e: &Engine) {
        if let Some(live) = &self.live {
            let work = e.work();
            live.inc("spam_live_match_units", work.match_units);
            live.inc("spam_live_firings", work.firings);
            live.inc("spam_live_rhs_actions", work.rhs_actions);
            live.gauge("spam_live_conflict_set_depth", e.conflict_len() as f64);
            live.gauge("spam_live_wm_size", e.wm().len() as f64);
        }
        self.close_window();
    }

    fn close_window(&mut self) {
        let cycles = std::mem::take(&mut self.window_cycles);
        let Some(sink) = self.trace.as_mut().filter(|_| cycles > 0) else {
            return;
        };
        let end = sink.now_us();
        let name = format!("engine.cycles x{cycles}");
        sink.record_aux(&name, self.window_start_us, end, None);
        self.window_start_us = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_obs::{LiveValue, Tracing};

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

    /// The `x{n}` of every `engine.cycles` span recorded through the sink
    /// `run` was handed, in order.
    fn windows(run: impl FnOnce(SpanSink)) -> Vec<u64> {
        let tracing = Tracing::new();
        let scene = tracing.start_scene(1, "watch");
        run(scene.sink_under(scene.root()));
        scene.finish();
        (tracing.retained()[0].spans.iter())
            .filter_map(|s| s.name.strip_prefix("engine.cycles x")?.parse().ok())
            .collect()
    }

    /// Below, at and above a multiple of the window: the watch is invisible
    /// to the run, the registry ends up holding the engine's totals, and the
    /// cycles arrive as ⌈F/256⌉ windows that sum to F — whether or not a kill
    /// past the end cuts the slices.
    #[test]
    fn a_watched_run_is_the_plain_run_and_keeps_its_window_cadence() {
        for firings in [0, 1, 15, 16, 17, 255, 256, 257, 512, 600] {
            let mut plain = counter(firings);
            let want = plain.run(TASK_CYCLE_BUDGET);
            assert_eq!(want.firings, firings);

            for kill_at in [None, Some(firings + 1), Some(firings + 17)] {
                let at = format!("F={firings}, kill at {kill_at:?}");
                let live = Live::new(0);
                let mut watched = counter(firings);
                let got = windows(|sink| {
                    let watch = Watch::new(Some(&live), Some(sink));
                    let out = watch.with_kill_at(kill_at).drive(&mut watched);
                    assert_eq!(out, want, "{at}");
                });
                let w = watched.work();
                assert_eq!(w, plain.work(), "{at}");
                assert_eq!(got.len() as u64, firings.div_ceil(256), "{at}");
                assert_eq!(got.iter().sum::<u64>(), firings, "{at}");
                assert!(got.iter().rev().skip(1).all(|&n| n == 256), "{got:?}");

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
    /// after exactly `k` cycles, traced or not, and panics having published
    /// nothing: the retry publishes the task's work. Only the windows it
    /// filled before the kill were closed.
    #[test]
    fn a_kill_stops_the_engine_at_its_cycle_and_panics() {
        for firings in [1, 15, 16, 17, 300] {
            for kill in (1..=firings).filter(|k| [1, 3, 16, 17, 256, firings].contains(k)) {
                for traced in [false, true] {
                    let at = format!("F={firings}, kill at {kill}, traced {traced}");
                    let live = Live::new(0);
                    let mut e = counter(firings);
                    let got = windows(|sink| {
                        let watch = Watch::new(Some(&live), traced.then_some(sink));
                        let mut watch = watch.with_kill_at(Some(kill));
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            watch.drive(&mut e)
                        }));
                        assert!(run.is_err(), "{at}");
                    });
                    assert_eq!(e.work().firings, kill, "{at}");
                    assert!(live.snapshot().series.is_empty(), "{at}");
                    let full = if traced { kill / 256 } else { 0 };
                    assert_eq!(got, vec![256; full as usize], "{at}");
                }
            }
        }
    }
}
