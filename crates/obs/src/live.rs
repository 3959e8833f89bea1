//! The metrics registry: lock-light sliding-window aggregators.
//!
//! The flight recorder ([`crate::Recorder`]) answers *what happened*; this
//! module answers *how much*. A run's metrics are the registry's last
//! snapshot, written once when the run ends (`spamctl --metrics-out`).
//! It is the only registry: every counter, gauge and histogram the
//! workspace publishes is a series here. Emitting threads own private
//! shards (one mutex per shard, never contended on the hot path because
//! only the owning thread and the occasional snapshotter touch it), and
//! every windowed series is a ring of `N` fixed buckets rotated on a
//! **logical-time epoch** — in the SPAM supervisor one epoch is one
//! completed task, so windows are deterministic and survive wall-clock
//! noise. Three series kinds:
//!
//! * **Counters** — monotone totals plus a windowed sum and a per-epoch
//!   rate derived from it.
//! * **Gauges** — last-write-wins across all shards (ordered by a global
//!   sequence, not wall time).
//! * **Windowed histograms** — a ring of log-scale [`Histogram`]s, merged
//!   bucket-wise on demand, so windowed quantile bounds carry the exact same
//!   ±one-bucket guarantee as the unwindowed math (property-tested in
//!   `tests/live_props.rs`).
//!
//! Series names follow the OpenMetrics naming convention:
//! `spam_live_*` for engine/supervisor series, `spam_slo_*` for the SLO
//! monitor, `spam_phase_*` / `spam_sim_*` for a finished phase's per-task
//! distributions, with an optional label set encoded in the key itself
//! (`spam_live_worker_busy_us{worker="3"}`, built by [`series_key`]).
//!
//! Cost model: a disabled registry ([`Live::off`]) reduces every emit to one
//! branch on a plain bool. An enabled emit is one uncontended mutex lock and
//! a map lookup; emitters batch (a task's watch publishes its engine's work
//! once, when the task's run ends), and `bench_overhead`'s `live` arm holds
//! the end-to-end overhead to its 2 % budget.

use crate::json::Json;
use crate::metrics::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default window width, in epochs.
pub const DEFAULT_WINDOW: usize = 8;

/// Builds a series key with an encoded OpenMetrics label set:
/// `series_key("x", &[("worker", "3")])` is `x{worker="3"}`. With no labels
/// the bare name is returned, so one flat `BTreeMap` holds the whole series
/// space.
pub fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut s = String::with_capacity(name.len() + 16);
    s.push_str(name);
    s.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push_str("=\"");
        s.push_str(v);
        s.push('"');
    }
    s.push('}');
    s
}

/// One windowed series inside a shard.
#[derive(Clone, Debug)]
enum Slot {
    /// Monotone counter: total + per-epoch ring of increments.
    Counter { ring: Vec<u64>, total: u64 },
    /// Last-write-wins gauge; `seq` orders writers across shards.
    Gauge { value: f64, seq: u64 },
    /// Windowed histogram: per-epoch ring of log-scale histograms.
    Hist { ring: Vec<Histogram> },
}

impl Slot {
    /// Clears ring entries for the epochs in `(from, to]` (the epochs the
    /// shard slept through), wrapping modulo the window.
    fn rotate(&mut self, from: u64, to: u64, window: usize) {
        let steps = (to - from).min(window as u64);
        for i in 1..=steps {
            let idx = ((from + i) % window as u64) as usize;
            match self {
                Slot::Counter { ring, .. } => ring[idx] = 0,
                Slot::Hist { ring } => ring[idx] = Histogram::new(),
                Slot::Gauge { .. } => {}
            }
        }
    }
}

/// A per-thread shard: private series storage plus the epoch it last
/// rotated to.
#[derive(Debug, Default)]
struct Shard {
    epoch: u64,
    slots: BTreeMap<String, Slot>,
}

impl Shard {
    fn rotate_to(&mut self, target: u64, window: usize) {
        if target <= self.epoch {
            return;
        }
        for slot in self.slots.values_mut() {
            slot.rotate(self.epoch, target, window);
        }
        self.epoch = target;
    }
}

/// The shared live-telemetry registry.
///
/// Cloned-`Arc` handles ([`Live::handle`]) give each emitting thread a
/// private shard; [`Live::snapshot`] merges all shards into a consistent
/// windowed view. The logical clock advances only through
/// [`Live::advance_epoch`] (the supervisor calls it once per completed
/// task).
#[derive(Debug)]
pub struct Live {
    enabled: bool,
    window: usize,
    epoch: AtomicU64,
    gauge_seq: AtomicU64,
    started: Instant,
    shards: Mutex<Vec<Arc<Mutex<Shard>>>>,
}

impl Live {
    /// An enabled registry with a `window`-epoch sliding window.
    pub fn new(window: usize) -> Arc<Live> {
        Arc::new(Live {
            enabled: true,
            window: window.max(1),
            epoch: AtomicU64::new(0),
            gauge_seq: AtomicU64::new(0),
            started: Instant::now(),
            shards: Mutex::new(Vec::new()),
        })
    }

    /// A disabled registry: every handle operation is a single branch.
    pub fn off() -> Arc<Live> {
        Arc::new(Live {
            enabled: false,
            window: 1,
            epoch: AtomicU64::new(0),
            gauge_seq: AtomicU64::new(0),
            started: Instant::now(),
            shards: Mutex::new(Vec::new()),
        })
    }

    /// Whether emits are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The window width in epochs.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The current logical epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Advances the logical clock by one epoch, returning the new epoch.
    /// Shards rotate lazily on their next emit (or at snapshot time), so
    /// this is one atomic increment.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Registers a new shard and returns a handle bound to it. Cheap enough
    /// to call per worker thread or per task attempt.
    pub fn handle(self: &Arc<Live>) -> LiveHandle {
        let shard = Arc::new(Mutex::new(Shard::default()));
        if self.enabled {
            self.shards.lock().unwrap().push(Arc::clone(&shard));
        }
        LiveHandle {
            live: Arc::clone(self),
            shard,
        }
    }

    /// Merges every shard into a consistent windowed snapshot at the
    /// current epoch. Expired ring entries are dropped during the merge
    /// (each shard is rotated to the snapshot epoch first).
    pub fn snapshot(&self) -> LiveSnapshot {
        let epoch = self.epoch();
        let window = self.window;
        let mut series: BTreeMap<String, LiveValue> = BTreeMap::new();
        let mut gauge_seqs: BTreeMap<String, u64> = BTreeMap::new();
        if self.enabled {
            let shards = self.shards.lock().unwrap();
            for shard in shards.iter() {
                let mut sh = shard.lock().unwrap();
                sh.rotate_to(epoch, window);
                for (name, slot) in &sh.slots {
                    merge_slot(&mut series, &mut gauge_seqs, name, slot);
                }
            }
        }
        let elapsed = epoch.min(window as u64).max(1);
        for v in series.values_mut() {
            if let LiveValue::Counter { windowed, rate, .. } = v {
                *rate = *windowed as f64 / elapsed as f64;
            }
        }
        LiveSnapshot {
            epoch,
            window,
            uptime_us: self.started.elapsed().as_micros() as u64,
            series,
        }
    }
}

/// Folds one shard slot into the snapshot-in-progress.
fn merge_slot(
    series: &mut BTreeMap<String, LiveValue>,
    gauge_seqs: &mut BTreeMap<String, u64>,
    name: &str,
    slot: &Slot,
) {
    match slot {
        Slot::Counter { ring, total } => {
            let windowed: u64 = ring.iter().sum();
            match series.get_mut(name) {
                Some(LiveValue::Counter {
                    total: t,
                    windowed: w,
                    ..
                }) => {
                    *t += total;
                    *w += windowed;
                }
                Some(_) => {}
                None => {
                    series.insert(
                        name.to_string(),
                        LiveValue::Counter {
                            total: *total,
                            windowed,
                            rate: 0.0,
                        },
                    );
                }
            }
        }
        Slot::Gauge { value, seq } => {
            let newer = gauge_seqs.get(name).is_none_or(|&prev| *seq >= prev);
            match series.get_mut(name) {
                Some(LiveValue::Gauge(g)) => {
                    if newer {
                        *g = *value;
                        gauge_seqs.insert(name.to_string(), *seq);
                    }
                }
                Some(_) => {}
                None => {
                    series.insert(name.to_string(), LiveValue::Gauge(*value));
                    gauge_seqs.insert(name.to_string(), *seq);
                }
            }
        }
        Slot::Hist { ring } => {
            let mut merged = Histogram::new();
            for h in ring {
                merged.merge(h);
            }
            match series.get_mut(name) {
                Some(LiveValue::Histogram(h)) => h.merge(&merged),
                Some(_) => {}
                None => {
                    series.insert(name.to_string(), LiveValue::Histogram(merged));
                }
            }
        }
    }
}

/// An emitting thread's handle: all operations are `&self` (the shard sits
/// behind its own mutex) and no-ops when the registry is disabled.
#[derive(Clone, Debug)]
pub struct LiveHandle {
    live: Arc<Live>,
    shard: Arc<Mutex<Shard>>,
}

impl LiveHandle {
    /// Whether emits through this handle are recorded.
    pub fn enabled(&self) -> bool {
        self.live.enabled
    }

    /// The registry this handle feeds.
    pub fn live(&self) -> &Arc<Live> {
        &self.live
    }

    fn with_slot(&self, name: &str, make: impl FnOnce() -> Slot, f: impl FnOnce(&mut Slot)) {
        let epoch = self.live.epoch();
        let mut sh = self.shard.lock().unwrap();
        sh.rotate_to(epoch, self.live.window);
        // Look up by &str first: the steady-state path must not allocate.
        if let Some(slot) = sh.slots.get_mut(name) {
            f(slot);
        } else {
            f(sh.slots.entry(name.to_string()).or_insert_with(make))
        }
    }

    /// Adds `n` to counter `name` in the current epoch.
    pub fn inc(&self, name: &str, n: u64) {
        if !self.live.enabled {
            return;
        }
        let (window, epoch) = (self.live.window, self.live.epoch());
        self.with_slot(
            name,
            || Slot::Counter {
                ring: vec![0; window],
                total: 0,
            },
            |slot| {
                if let Slot::Counter { ring, total } = slot {
                    ring[(epoch % window as u64) as usize] += n;
                    *total += n;
                }
            },
        );
    }

    /// Sets gauge `name` to `v` (last write wins across all shards).
    pub fn gauge(&self, name: &str, v: f64) {
        if !self.live.enabled {
            return;
        }
        let seq = self.live.gauge_seq.fetch_add(1, Ordering::Relaxed);
        self.with_slot(
            name,
            || Slot::Gauge { value: v, seq },
            |slot| {
                if let Slot::Gauge { value, seq: s } = slot {
                    *value = v;
                    *s = seq;
                }
            },
        );
    }

    /// Records sample `v` into windowed histogram `name`.
    pub fn observe(&self, name: &str, v: f64) {
        if !self.live.enabled {
            return;
        }
        let (window, epoch) = (self.live.window, self.live.epoch());
        self.with_slot(
            name,
            || Slot::Hist {
                ring: vec![Histogram::new(); window],
            },
            |slot| {
                if let Slot::Hist { ring } = slot {
                    ring[(epoch % window as u64) as usize].record(v);
                }
            },
        );
    }
}

/// A merged windowed value in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum LiveValue {
    /// Monotone counter with its windowed sum and per-epoch rate.
    Counter {
        /// Lifetime total across all shards.
        total: u64,
        /// Sum of increments inside the sliding window.
        windowed: u64,
        /// `windowed / min(epoch, window)` — increments per epoch.
        rate: f64,
    },
    /// Last-write-wins gauge value.
    Gauge(f64),
    /// Bucket-wise merge of the window's histograms.
    Histogram(Histogram),
}

/// A consistent point-in-time view of every live series.
#[derive(Clone, Debug)]
pub struct LiveSnapshot {
    /// Logical epoch the snapshot was taken at.
    pub epoch: u64,
    /// Window width in epochs.
    pub window: usize,
    /// Wall-clock microseconds since the registry was created.
    pub uptime_us: u64,
    /// Merged series, keyed by [`series_key`]-encoded name.
    pub series: BTreeMap<String, LiveValue>,
}

impl LiveSnapshot {
    /// Renders the snapshot as JSON (what `spamctl run --metrics-out`
    /// writes).
    pub fn to_json(&self) -> Json {
        let series = Json::Obj(
            self.series
                .iter()
                .map(|(name, v)| {
                    let obj = match v {
                        LiveValue::Counter {
                            total,
                            windowed,
                            rate,
                        } => Json::obj(vec![
                            ("kind", Json::str("counter")),
                            ("total", Json::Num(*total as f64)),
                            ("windowed", Json::Num(*windowed as f64)),
                            ("rate", Json::Num(*rate)),
                        ]),
                        LiveValue::Gauge(g) => {
                            Json::obj(vec![("kind", Json::str("gauge")), ("value", Json::Num(*g))])
                        }
                        LiveValue::Histogram(h) => {
                            let mut fields = vec![("kind".to_string(), Json::str("histogram"))];
                            if let Json::Obj(hf) = h.to_json() {
                                fields.extend(hf);
                            }
                            Json::Obj(fields)
                        }
                    };
                    (name.clone(), obj)
                })
                .collect(),
        );
        Json::obj(vec![
            ("epoch", Json::Num(self.epoch as f64)),
            ("window", Json::Num(self.window as f64)),
            ("uptime_us", Json::Num(self.uptime_us as f64)),
            ("series", series),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let live = Live::off();
        let h = live.handle();
        h.inc("c", 5);
        h.gauge("g", 1.0);
        h.observe("h", 2.0);
        assert!(live.snapshot().series.is_empty());
    }

    #[test]
    fn counter_totals_survive_window_expiry() {
        let live = Live::new(4);
        let h = live.handle();
        h.inc("c", 10);
        for _ in 0..6 {
            live.advance_epoch();
        }
        h.inc("c", 1);
        let snap = live.snapshot();
        match &snap.series["c"] {
            LiveValue::Counter {
                total, windowed, ..
            } => {
                assert_eq!(*total, 11);
                assert_eq!(*windowed, 1, "first increment expired from the window");
            }
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn counter_rate_is_windowed_per_epoch() {
        let live = Live::new(4);
        let h = live.handle();
        for _ in 0..4 {
            h.inc("c", 3);
            live.advance_epoch();
        }
        // At epoch 4 the window covers epochs 1..=4; the increment made at
        // epoch 0 has expired, and epoch 4 (in progress) has none yet.
        let snap = live.snapshot();
        match &snap.series["c"] {
            LiveValue::Counter { rate, windowed, .. } => {
                assert_eq!(*windowed, 9);
                assert!((rate - 2.25).abs() < 1e-12, "rate {rate}");
            }
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn gauges_are_last_write_wins_across_shards() {
        let live = Live::new(4);
        let a = live.handle();
        let b = live.handle();
        a.gauge("g", 1.0);
        b.gauge("g", 2.0);
        a.gauge("g", 3.0);
        assert_eq!(live.snapshot().series["g"], LiveValue::Gauge(3.0));
    }

    #[test]
    fn histogram_window_drops_old_samples() {
        let live = Live::new(2);
        let h = live.handle();
        h.observe("lat", 100.0);
        live.advance_epoch();
        h.observe("lat", 1.0);
        live.advance_epoch(); // window now covers epochs {1, 2}: the
                              // epoch-0 sample has expired
        match &live.snapshot().series["lat"] {
            LiveValue::Histogram(hist) => {
                assert_eq!(hist.count(), 1);
                assert_eq!(hist.max(), Some(1.0));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn counters_merge_across_shards() {
        let live = Live::new(4);
        let a = live.handle();
        let b = live.handle();
        a.inc("c", 2);
        b.inc("c", 3);
        match &live.snapshot().series["c"] {
            LiveValue::Counter {
                total, windowed, ..
            } => {
                assert_eq!(*total, 5);
                assert_eq!(*windowed, 5);
            }
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn stale_shard_rotates_at_snapshot() {
        let live = Live::new(2);
        let h = live.handle();
        h.inc("c", 7);
        // The shard never emits again; advancing the epoch past the window
        // must still expire its windowed contribution at snapshot time.
        for _ in 0..3 {
            live.advance_epoch();
        }
        match &live.snapshot().series["c"] {
            LiveValue::Counter {
                total, windowed, ..
            } => {
                assert_eq!(*total, 7);
                assert_eq!(*windowed, 0);
            }
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn series_key_encodes_labels() {
        assert_eq!(series_key("x", &[]), "x");
        assert_eq!(series_key("x", &[("worker", "3")]), "x{worker=\"3\"}");
        assert_eq!(
            series_key("x", &[("a", "1"), ("b", "2")]),
            "x{a=\"1\",b=\"2\"}"
        );
    }

    #[test]
    fn snapshot_json_shape() {
        let live = Live::new(4);
        let h = live.handle();
        h.inc("c", 1);
        h.gauge("g", 0.5);
        h.observe("lat", 2.0);
        let j = live.snapshot().to_json();
        let series = j.get("series").unwrap();
        assert_eq!(
            series
                .get("c")
                .and_then(|c| c.get("kind"))
                .and_then(Json::as_str),
            Some("counter")
        );
        assert_eq!(
            series
                .get("g")
                .and_then(|g| g.get("value"))
                .and_then(Json::as_f64),
            Some(0.5)
        );
        assert_eq!(
            series
                .get("lat")
                .and_then(|l| l.get("count"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }
}
