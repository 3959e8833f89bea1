//! In-memory spans recorded by the benchmark around its calls into each
//! layer, their self times, and the trace file.

use crate::workload::Clock;
use std::collections::BTreeMap;
use std::time::Instant;
use tlp_obs::json::Json;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One timed call: `{name, start_ns, end_ns, parent, round}`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<SpanId>,
    /// The round this span belongs to: spans of one round share it.
    pub round: u32,
    /// What the call reported about itself (a parallel phase's
    /// `ExecReport` / `TaskReport` summary).
    pub args: Option<Json>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans on one thread; nothing is written until timing ends.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<SpanId>,
    pub round: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round: self.round,
            args: None,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration in nanoseconds.
    fn close(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.ns()
    }

    pub fn set_args(&mut self, id: SpanId, args: Json) {
        self.spans[id as usize].args = Some(args);
    }
}

impl Clock for Tracer {
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, u64) {
        let id = self.open(name);
        let r = f(self);
        (r, self.close(id))
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Per-name totals over a trace: `(calls, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ns();
        e.2 += own;
    }
    out
}

/// The trace file: a header and one object per span, in recording order
/// (a span's `id` is its position, which is what `parent` refers to).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let own = self_times(spans);
    let rows = spans
        .iter()
        .zip(own)
        .enumerate()
        .map(|(id, (s, own))| {
            let mut f = vec![
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(own as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("round", Json::Num(s.round as f64)),
            ];
            if let Some(a) = &s.args {
                f.push(("args", a.clone()));
            }
            Json::obj(f)
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("clock", Json::str("ns since the traced pass began")),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            round: 0,
            args: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100 ⊃ child 10..60 ⊃ grandchild 20..30
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_subtracts_sibling_children_and_merges_overlap() {
        // Siblings 10..30 and 50..70 cover 40; a third, 60..80, overlaps
        // the second by 10 and adds only its uncovered 10.
        let spans = [
            span(0, 100, None),
            span(50, 70, Some(0)),
            span(10, 30, Some(0)),
            span(60, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 20 - 10);
    }

    #[test]
    fn tracer_parents_spans_under_the_innermost_open_one() {
        let mut t = Tracer::new();
        t.timed("a", |t| {
            t.timed("b", |_| ());
            t.timed("c", |t| t.timed("d", |_| ()));
        });
        let parents: Vec<Option<SpanId>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        let totals = by_name(&t.spans);
        assert_eq!(totals["a"].0, 1);
        assert!(totals["a"].2 <= totals["a"].1);
    }

    #[test]
    fn trace_file_round_trips_through_the_parser() {
        let mut t = Tracer::new();
        t.round = 3;
        let a = t.open("phase");
        t.set_args(a, Json::obj(vec![("chunks", Json::Num(9.0))]));
        t.close(a);
        let text = to_json("level3", 7, &t.spans).write();
        let back = Json::parse(&text).unwrap();
        let s = &back.get("spans").unwrap().as_arr().unwrap()[0];
        assert_eq!(s.get("name").unwrap().as_str(), Some("phase"));
        assert_eq!(s.get("round").unwrap().as_f64(), Some(3.0));
        assert_eq!(s.get("parent"), Some(&Json::Null));
        assert_eq!(
            s.get("args").unwrap().get("chunks").unwrap().as_f64(),
            Some(9.0)
        );
    }
}
