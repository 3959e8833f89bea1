//! SLO health monitor: latency objectives, error budgets, and multi-window
//! burn-rate alerts over logical time.
//!
//! Classic SRE burn-rate alerting, transplanted onto a logical clock the
//! monitor keeps itself (one epoch per finished task: the supervisor
//! advances it once per success or dead letter) so the math is
//! deterministic: a scene declares a per-task latency objective ("95 % of
//! tasks finish within `latency_target_s` simulated seconds"); every task
//! that misses the target — or dies outright — burns error budget. The
//! **burn rate** over a window is
//!
//! ```text
//! burn(W) = breach_fraction(W) / (1 - objective)
//! ```
//!
//! so `burn == 1` means "spending budget exactly as fast as the objective
//! allows". The monitor alerts only when *both* a fast and a slow window
//! exceed the threshold (the standard multi-window trick: the slow window
//! suppresses blips, the fast window makes the alert reset quickly once the
//! problem stops). Health is **Degraded** while both windows are over
//! threshold and **Healthy** otherwise.
//!
//! All decisions are published as `spam_slo_*` gauges/counters through a
//! [`LiveHandle`], so the registry's file (`--metrics-out`) carries the
//! same numbers health is decided on, the decision itself as the
//! `spam_slo_health` gauge.

use crate::live::LiveHandle;
use std::fmt;
use std::sync::Mutex;

/// A scene's service-level objective and the alerting windows.
#[derive(Clone, Debug)]
pub struct SloConfig {
    /// Per-task latency target in simulated seconds.
    pub latency_target_s: f64,
    /// Fraction of tasks that must meet the target (e.g. `0.95`).
    pub objective: f64,
    /// Fast alert window, in epochs (the "5 m" window in logical time).
    pub fast_window: usize,
    /// Slow alert window, in epochs (the "1 h" window in logical time).
    pub slow_window: usize,
    /// Burn rate above which a window is considered on fire.
    pub burn_threshold: f64,
}

/// The per-task latency target of the default [`SloConfig`], in simulated
/// seconds.
const LATENCY_TARGET_S: f64 = 420.0;

impl Default for SloConfig {
    /// The objective of a scene. The latency target is set near the
    /// measured p90 task service time of the Level-4 decomposition, so a
    /// healthy run breaches occasionally (the budget absorbs it) and a
    /// pathological run pushes both windows over threshold.
    fn default() -> SloConfig {
        SloConfig {
            latency_target_s: LATENCY_TARGET_S,
            objective: 0.90,
            fast_window: 8,
            slow_window: 32,
            burn_threshold: 2.0,
        }
    }
}

/// A scene's SLO health (the `spam_slo_health` gauge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Within objective.
    Healthy,
    /// Fast and slow burn-rate windows are both over threshold.
    Degraded,
}

impl Health {
    /// The lowercase wire spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
        }
    }

    /// Numeric encoding for the `spam_slo_health` gauge
    /// (0 healthy / 1 degraded).
    pub fn code(&self) -> f64 {
        match self {
            Health::Healthy => 0.0,
            Health::Degraded => 1.0,
        }
    }
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-epoch tally of tasks that met / breached the objective.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    good: u64,
    bad: u64,
}

#[derive(Debug)]
struct State {
    epoch: u64,
    ring: Vec<Tally>,
    total_good: u64,
    total_bad: u64,
    health: Health,
}

/// The monitor: feed it per-task outcomes ([`SloMonitor::observe`],
/// [`SloMonitor::dead_letter`]) and advance its clock
/// ([`SloMonitor::advance`]); read health from
/// [`SloMonitor::health`].
#[derive(Debug)]
pub struct SloMonitor {
    cfg: SloConfig,
    handle: LiveHandle,
    state: Mutex<State>,
}

impl SloMonitor {
    /// A monitor publishing `spam_slo_*` series through `handle`.
    pub fn new(cfg: SloConfig, handle: LiveHandle) -> SloMonitor {
        let slow = cfg.slow_window.max(1);
        SloMonitor {
            handle,
            state: Mutex::new(State {
                epoch: 0,
                ring: vec![Tally::default(); slow],
                total_good: 0,
                total_bad: 0,
                health: Health::Healthy,
            }),
            cfg,
        }
    }

    /// Records one completed task's latency in simulated seconds: a sample
    /// of `spam_slo_latency_seconds`, and a breach if it missed the target.
    pub fn observe(&self, latency_s: f64) {
        self.tally(latency_s > self.cfg.latency_target_s);
        self.handle.observe("spam_slo_latency_seconds", latency_s);
    }

    /// Records a task that never completed (a dead letter): always a
    /// breach, and no latency sample, for it has no latency.
    pub fn dead_letter(&self) {
        self.tally(true);
    }

    fn tally(&self, breach: bool) {
        let mut st = self.state.lock().unwrap();
        let idx = (st.epoch % st.ring.len() as u64) as usize;
        let (bad, good) = (u64::from(breach), u64::from(!breach));
        st.ring[idx].bad += bad;
        st.ring[idx].good += good;
        st.total_bad += bad;
        st.total_good += good;
        drop(st);
        if breach {
            self.handle.inc("spam_slo_breaches", 1);
        }
    }

    /// Advances the monitor's clock by one epoch (the supervisor calls this
    /// once per finished task), re-evaluating burn rates and health, and
    /// republishing the `spam_slo_*` gauges.
    pub fn advance(&self) {
        let mut st = self.state.lock().unwrap();
        let slow = st.ring.len() as u64;
        st.epoch += 1;
        let idx = (st.epoch % slow) as usize;
        st.ring[idx] = Tally::default();
        let budget = (1.0 - self.cfg.objective).max(1e-9);
        // No tasks, no breaches: a ratio of 0.
        let ratio = |bad: u64, all: u64| bad as f64 / all.max(1) as f64;
        // Burn over the last `window` epochs, the current one included.
        let burn = |window: usize| {
            let last = (0..(window as u64).min(slow).min(st.epoch + 1))
                .map(|i| st.ring[((st.epoch - i) % slow) as usize]);
            let (good, bad) = last.fold((0, 0), |(g, b), t| (g + t.good, b + t.bad));
            ratio(bad, good + bad) / budget
        };
        let (burn_fast, burn_slow) = (burn(self.cfg.fast_window), burn(self.cfg.slow_window));
        let alert = burn_fast > self.cfg.burn_threshold && burn_slow > self.cfg.burn_threshold;
        st.health = if alert {
            Health::Degraded
        } else {
            Health::Healthy
        };
        let consumed = ratio(st.total_bad, st.total_good + st.total_bad) / budget;
        let remaining = (1.0 - consumed).clamp(0.0, 1.0);
        self.handle.gauge("spam_slo_burn_rate_fast", burn_fast);
        self.handle.gauge("spam_slo_burn_rate_slow", burn_slow);
        self.handle
            .gauge("spam_slo_error_budget_remaining_ratio", remaining);
        self.handle.gauge("spam_slo_health", st.health.code());
        self.handle
            .gauge("spam_slo_latency_target_seconds", self.cfg.latency_target_s);
        self.handle
            .gauge("spam_slo_objective_ratio", self.cfg.objective);
    }

    /// The current health state.
    pub fn health(&self) -> Health {
        self.state.lock().unwrap().health
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::Live;

    fn monitor(target: f64, objective: f64) -> (std::sync::Arc<Live>, SloMonitor) {
        let live = Live::new(0);
        let cfg = SloConfig {
            latency_target_s: target,
            objective,
            fast_window: 4,
            slow_window: 16,
            burn_threshold: 2.0,
        };
        let mon = SloMonitor::new(cfg, live.handle());
        (live, mon)
    }

    #[test]
    fn healthy_run_stays_healthy() {
        let (_live, mon) = monitor(10.0, 0.9);
        for _ in 0..20 {
            mon.observe(1.0);
            mon.advance();
        }
        assert_eq!(mon.health(), Health::Healthy);
    }

    #[test]
    fn sustained_breaches_degrade_then_recover() {
        let (_live, mon) = monitor(10.0, 0.9);
        // Every task breaches: burn = 1/0.1 = 10 > threshold on both windows.
        for _ in 0..8 {
            mon.observe(100.0);
            mon.advance();
        }
        assert_eq!(mon.health(), Health::Degraded);
        // Clean epochs: the alert clears once the fast window's burn drops
        // under the threshold, and health with it.
        let mut epochs_degraded = 0;
        for _ in 0..24 {
            mon.observe(1.0);
            mon.advance();
            if mon.health() == Health::Degraded {
                epochs_degraded += 1;
            }
        }
        assert!(epochs_degraded < 4, "the fast window is 4 epochs");
        assert_eq!(mon.health(), Health::Healthy);
    }

    #[test]
    fn dead_letters_burn_budget_without_a_latency_sample() {
        let (live, mon) = monitor(10.0, 0.9);
        for _ in 0..6 {
            mon.dead_letter();
            mon.advance();
        }
        assert_eq!(mon.health(), Health::Degraded);
        // Each is a breach, and none is a latency sample.
        let snap = live.snapshot();
        assert!(!snap.series.contains_key("spam_slo_latency_seconds"));
        let breaches = &snap.series["spam_slo_breaches"];
        assert_eq!(*breaches, crate::live::LiveValue::Counter(6));
    }

    #[test]
    fn slo_series_published_to_live() {
        let (live, mon) = monitor(10.0, 0.9);
        mon.observe(1.0);
        mon.observe(100.0);
        mon.advance();
        let snap = live.snapshot();
        assert!(snap.series.contains_key("spam_slo_burn_rate_fast"));
        assert!(snap.series.contains_key("spam_slo_health"));
        assert!(snap.series.contains_key("spam_slo_latency_seconds"));
        let breaches = &snap.series["spam_slo_breaches"];
        assert_eq!(*breaches, crate::live::LiveValue::Counter(1));
    }
}
