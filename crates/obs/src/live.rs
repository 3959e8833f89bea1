//! The metrics registry: lock-light totals, gauges and histograms.
//!
//! The flight recorder ([`crate::Recorder`]) answers *what happened*; this
//! module answers *how much*. A run's metrics are the registry's last
//! snapshot, written once when the run ends (`spamctl --metrics-out`).
//! It is the only registry: every counter, gauge and histogram the
//! workspace publishes is a series here. Emitting threads own private
//! shards (one mutex per shard, never contended on the hot path because
//! only the owning thread and the occasional snapshotter touch it), merged
//! at snapshot time. Three series kinds, each covering the whole run:
//!
//! * **Counters** — monotone totals.
//! * **Gauges** — last-write-wins across all shards (ordered by a global
//!   sequence, not wall time).
//! * **Histograms** — log-scale [`Histogram`]s, merged bucket-wise across
//!   shards, so a merged quantile bound carries the same ±one-bucket
//!   guarantee as a single histogram's (property-tested in
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
//! once, when the task's run ends; the phase runner publishes its workers'
//! series once, when the phase ends), and `bench_overhead`'s `live` arm
//! holds the end-to-end overhead to its 2 % budget.

use crate::json::Json;
use crate::metrics::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Builds a series key with an encoded OpenMetrics label set:
/// `series_key("x", &[("worker", "3")])` is `x{worker="3"}`. With no labels
/// the bare name is returned, so one flat `BTreeMap` holds the whole series
/// space.
pub fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", labels.join(","))
}

/// One series inside a shard.
#[derive(Clone, Debug)]
enum Slot {
    /// Monotone counter.
    Counter(u64),
    /// Last-write-wins gauge; `seq` orders writers across shards.
    Gauge { value: f64, seq: u64 },
    /// Log-scale histogram of every sample.
    Hist(Histogram),
}

/// A per-thread shard: private series storage.
type Shard = BTreeMap<String, Slot>;

/// The shared live-telemetry registry.
///
/// Cloned-`Arc` handles ([`Live::handle`]) give each emitting thread a
/// private shard; [`Live::snapshot`] merges all shards into one view.
#[derive(Debug)]
pub struct Live {
    enabled: bool,
    gauge_seq: AtomicU64,
    started: Instant,
    shards: Mutex<Vec<Arc<Mutex<Shard>>>>,
}

impl Live {
    /// An enabled registry. The argument is ignored: it is what is left of
    /// a sliding window the registry no longer has. **Pinned by
    /// `benchmarks/e2e`**, which is frozen and calls `Live::new(8)`; it goes
    /// when a change to the benchmark drops it. In-tree callers pass 0.
    pub fn new(_ignored: usize) -> Arc<Live> {
        Live::with(true)
    }

    /// A disabled registry: every handle operation is a single branch.
    pub fn off() -> Arc<Live> {
        Live::with(false)
    }

    fn with(enabled: bool) -> Arc<Live> {
        Arc::new(Live {
            enabled,
            gauge_seq: AtomicU64::new(0),
            started: Instant::now(),
            shards: Mutex::new(Vec::new()),
        })
    }

    /// Whether emits are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers a new shard and returns a handle bound to it. Cheap enough
    /// to call per worker thread or per task attempt.
    pub fn handle(self: &Arc<Live>) -> LiveHandle {
        let shard = Arc::new(Mutex::new(Shard::new()));
        if self.enabled {
            self.shards.lock().unwrap().push(Arc::clone(&shard));
        }
        LiveHandle {
            live: Arc::clone(self),
            shard,
        }
    }

    /// Merges every shard into one snapshot.
    pub fn snapshot(&self) -> LiveSnapshot {
        let mut series: BTreeMap<String, LiveValue> = BTreeMap::new();
        let mut gauge_seqs: BTreeMap<String, u64> = BTreeMap::new();
        if self.enabled {
            let shards = self.shards.lock().unwrap();
            for shard in shards.iter() {
                for (name, slot) in shard.lock().unwrap().iter() {
                    merge_slot(&mut series, &mut gauge_seqs, name, slot);
                }
            }
        }
        LiveSnapshot {
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
    match (slot, series.get_mut(name)) {
        (Slot::Counter(n), Some(LiveValue::Counter(total))) => *total += n,
        (Slot::Gauge { value, seq }, Some(LiveValue::Gauge(g))) => {
            if gauge_seqs.get(name).is_none_or(|&prev| *seq >= prev) {
                *g = *value;
                gauge_seqs.insert(name.to_string(), *seq);
            }
        }
        (Slot::Hist(h), Some(LiveValue::Histogram(merged))) => merged.merge(h),
        (_, Some(_)) => {}
        (slot, None) => {
            let value = match slot {
                Slot::Counter(n) => LiveValue::Counter(*n),
                Slot::Gauge { value, seq } => {
                    gauge_seqs.insert(name.to_string(), *seq);
                    LiveValue::Gauge(*value)
                }
                Slot::Hist(h) => LiveValue::Histogram(h.clone()),
            };
            series.insert(name.to_string(), value);
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

    /// This handle's shard, locked; `None` when the registry is disabled.
    fn shard(&self) -> Option<MutexGuard<'_, Shard>> {
        self.live.enabled.then(|| self.shard.lock().unwrap())
    }

    /// Adds `n` to counter `name`.
    pub fn inc(&self, name: &str, n: u64) {
        let Some(mut sh) = self.shard() else { return };
        if let Slot::Counter(total) = slot(&mut sh, name, || Slot::Counter(0)) {
            *total += n;
        }
    }

    /// Sets gauge `name` to `v` (last write wins across all shards).
    pub fn gauge(&self, name: &str, v: f64) {
        let Some(mut sh) = self.shard() else { return };
        let empty = || Slot::Gauge { value: 0.0, seq: 0 };
        if let Slot::Gauge { value, seq } = slot(&mut sh, name, empty) {
            *value = v;
            *seq = self.live.gauge_seq.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records sample `v` into histogram `name`.
    pub fn observe(&self, name: &str, v: f64) {
        let Some(mut sh) = self.shard() else { return };
        if let Slot::Hist(h) = slot(&mut sh, name, || Slot::Hist(Histogram::new())) {
            h.record(v);
        }
    }
}

/// `name`'s slot in `shard`, made by `empty` if the series is new there.
fn slot<'a>(shard: &'a mut Shard, name: &str, empty: fn() -> Slot) -> &'a mut Slot {
    // Look up by &str first: the steady-state path must not allocate.
    if !shard.contains_key(name) {
        shard.insert(name.to_string(), empty());
    }
    shard.get_mut(name).expect("just inserted")
}

/// A merged value in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum LiveValue {
    /// Monotone counter: its total across all shards.
    Counter(u64),
    /// Last-write-wins gauge value.
    Gauge(f64),
    /// Bucket-wise merge of every shard's histogram.
    Histogram(Histogram),
}

/// A consistent point-in-time view of every live series.
#[derive(Clone, Debug)]
pub struct LiveSnapshot {
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
                        LiveValue::Counter(total) => Json::obj(vec![
                            ("kind", Json::str("counter")),
                            ("total", Json::Num(*total as f64)),
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
    fn gauges_are_last_write_wins_across_shards() {
        let live = Live::new(0);
        let a = live.handle();
        let b = live.handle();
        a.gauge("g", 1.0);
        b.gauge("g", 2.0);
        a.gauge("g", 3.0);
        assert_eq!(live.snapshot().series["g"], LiveValue::Gauge(3.0));
    }

    #[test]
    fn counters_merge_across_shards() {
        let live = Live::new(0);
        let a = live.handle();
        let b = live.handle();
        a.inc("c", 2);
        b.inc("c", 3);
        assert_eq!(live.snapshot().series["c"], LiveValue::Counter(5));
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
        let live = Live::new(0);
        let h = live.handle();
        h.inc("c", 1);
        h.gauge("g", 0.5);
        h.observe("lat", 2.0);
        // Whole-run values only: a counter is its total, and the snapshot
        // is its uptime and its series.
        let text = live.snapshot().to_json().write();
        assert!(text.starts_with("{\"uptime_us\":"), "{text}");
        for series in [
            r#","series":{"c":{"kind":"counter","total":1},"g":{"kind":"gauge","value":0.5},"#,
            r#""lat":{"kind":"histogram","count":1,"#,
        ] {
            assert!(text.contains(series), "{series} in {text}");
        }
    }
}
