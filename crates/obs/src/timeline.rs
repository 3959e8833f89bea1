//! Per-processor timelines: the model behind the Gantt chart and the
//! simulated-time half of the Chrome trace.
//!
//! The flight recorder logs *wall-time* events from real threads; the
//! Multimax simulator instead produces *simulated-time* schedules. A
//! [`Timeline`] captures the latter: one [`Track`] per simulated processor,
//! each a list of non-overlapping [`Span`]s in simulated seconds, plus
//! optional [`CounterSeries`] (queue depth, outstanding tasks). Exporters
//! render timelines as Chrome `X` (complete) events and as an ASCII Gantt
//! chart.

use crate::event::Category;

/// One contiguous activity interval on a track, in simulated seconds.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What the processor was doing (`exec t3`, `fork`, `dequeue`, `idle`).
    pub name: String,
    /// Subsystem colour/filters for exporters.
    pub cat: Category,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds, `>= start`).
    pub end: f64,
    /// One-character glyph used by the ASCII Gantt chart.
    pub glyph: char,
}

impl Span {
    /// A span with a glyph inferred from its name: `#` for execution,
    /// `F` fork, `q` dequeue, `.` idle/wait, `x` death/fault, `p` page
    /// traffic (SVM fault service / transfer), `w` SVM warmup, `*` other.
    pub fn new(name: impl Into<String>, cat: Category, start: f64, end: f64) -> Span {
        let name = name.into();
        let glyph = if name.starts_with("exec") {
            '#'
        } else if name.starts_with("fork") {
            'F'
        } else if name.starts_with("dequeue") {
            'q'
        } else if name.starts_with("idle") || name.starts_with("wait") {
            '.'
        } else if name.starts_with("death") || name.starts_with("fault") {
            'x'
        } else if name.starts_with("page") {
            'p'
        } else if name.starts_with("warmup") {
            'w'
        } else {
            '*'
        };
        Span {
            name,
            cat,
            start,
            end,
            glyph,
        }
    }

    /// Span length in seconds.
    pub fn dur(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// All activity of one simulated processor.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Track {
    /// Track label (`worker 0`, `control`).
    pub name: String,
    /// Spans in start order (builders keep them non-overlapping).
    pub spans: Vec<Span>,
}

/// A sampled numeric series (e.g. queue depth over simulated time).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterSeries {
    /// Series name.
    pub name: String,
    /// `(time_s, value)` samples in time order.
    pub samples: Vec<(f64, f64)>,
}

/// A complete simulated-time schedule for one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Run label (becomes the Chrome process name).
    pub name: String,
    /// Total simulated makespan in seconds.
    pub makespan: f64,
    /// One track per simulated processor.
    pub tracks: Vec<Track>,
    /// Optional counter series.
    pub counters: Vec<CounterSeries>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new(name: impl Into<String>, makespan: f64) -> Timeline {
        Timeline {
            name: name.into(),
            makespan,
            tracks: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Fraction of `[0, makespan]` covered by the union of all spans on all
    /// tracks. 1.0 means every simulated instant is attributed to some
    /// span somewhere; this is the quantity the acceptance check holds
    /// above 0.99.
    pub fn coverage(&self) -> f64 {
        let spans = self.tracks.iter().flat_map(|t| &t.spans);
        union_coverage(spans.map(|s| (s.start, s.end)), self.makespan)
    }

    /// Renders an ASCII per-processor Gantt chart, `width` columns of
    /// simulated time per track. Each cell shows the glyph of the span
    /// covering the majority of that cell.
    pub fn gantt(&self, width: usize) -> String {
        let width = width.max(8);
        let mut out = String::new();
        let label_w = self
            .tracks
            .iter()
            .map(|t| t.name.len())
            .max()
            .unwrap_or(0)
            .max(4);
        out.push_str(&format!(
            "{:label_w$} 0s{:>pad$.3}s\n",
            "",
            self.makespan,
            pad = width.saturating_sub(1),
        ));
        for track in &self.tracks {
            let mut row = vec![' '; width];
            for span in &track.spans {
                if self.makespan <= 0.0 {
                    continue;
                }
                let c0 = (span.start / self.makespan * width as f64).floor() as usize;
                let c1 = (span.end / self.makespan * width as f64).ceil() as usize;
                for cell in row.iter_mut().take(c1.min(width)).skip(c0.min(width)) {
                    // Execution dominates visual priority; never overwrite
                    // '#' with bookkeeping glyphs from an adjacent span.
                    if *cell == ' ' || span.glyph == '#' {
                        *cell = span.glyph;
                    }
                }
            }
            out.push_str(&format!(
                "{:label_w$} |{}|\n",
                track.name,
                row.iter().collect::<String>()
            ));
        }
        out.push_str(&format!(
            "{:label_w$} legend: #=exec F=fork q=dequeue .=idle x=fault p=page w=warmup *=other\n",
            "",
        ));
        out
    }
}

/// Fraction of `[0, horizon]` covered by the union of `spans` (`(start,
/// end)` pairs in the horizon's unit); 1.0 for an empty horizon.
pub(crate) fn union_coverage(spans: impl Iterator<Item = (f64, f64)>, horizon: f64) -> f64 {
    if horizon <= 0.0 {
        return 1.0;
    }
    let mut ivals: Vec<(f64, f64)> = spans
        .map(|(a, b)| (a.max(0.0), b.min(horizon)))
        .filter(|(a, b)| b > a)
        .collect();
    ivals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in ivals {
        match &mut cur {
            Some((_, ce)) if a <= *ce => *ce = ce.max(b),
            _ => {
                if let Some((cs, ce)) = cur.take() {
                    covered += ce - cs;
                }
                cur = Some((a, b));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (covered / horizon).min(1.0)
}

/// Renders several machines' timelines as one Gantt chart sharing a single
/// time axis: all tracks are scaled to the *longest* makespan so columns
/// line up across machines, with a machine-name rule between sections.
/// Call after stitching (each timeline already in the common clock
/// domain).
pub fn multi_gantt(machines: &[(&str, &Timeline)], width: usize) -> String {
    let width = width.max(8);
    let horizon = machines
        .iter()
        .map(|(_, tl)| tl.makespan)
        .fold(0.0f64, f64::max);
    let mut out = String::new();
    for (i, (name, tl)) in machines.iter().enumerate() {
        // Re-home each timeline onto the common horizon so one column is
        // the same instant on every machine.
        let mut scaled = (*tl).clone();
        scaled.makespan = horizon;
        let chart = scaled.gantt(width);
        let mut lines: Vec<&str> = chart.lines().collect();
        // Keep the axis header once and the legend once (last machine).
        if i > 0 {
            lines.remove(0);
        }
        if i + 1 < machines.len() {
            lines.pop();
        }
        out.push_str(&format!("== {name} ==\n"));
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Timeline {
        let mut tl = Timeline::new("sim n=2", 10.0);
        tl.tracks.push(Track {
            name: "worker 0".into(),
            spans: vec![
                Span::new("fork", Category::Sim, 0.0, 0.5),
                Span::new("exec t0", Category::Sim, 0.5, 6.0),
                Span::new("idle", Category::Sim, 6.0, 10.0),
            ],
        });
        tl.tracks.push(Track {
            name: "worker 1".into(),
            spans: vec![
                Span::new("fork", Category::Sim, 0.0, 1.0),
                Span::new("exec t1", Category::Sim, 1.0, 10.0),
            ],
        });
        tl
    }

    #[test]
    fn coverage_unions_across_tracks() {
        let tl = demo();
        assert!((tl.coverage() - 1.0).abs() < 1e-12);

        let mut gap = Timeline::new("gap", 10.0);
        gap.tracks.push(Track {
            name: "w".into(),
            spans: vec![Span::new("exec", Category::Sim, 0.0, 5.0)],
        });
        assert!((gap.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_timeline_coverage_is_defined() {
        assert_eq!(Timeline::new("x", 0.0).coverage(), 1.0);
        assert_eq!(Timeline::new("x", 5.0).coverage(), 0.0);
    }

    #[test]
    fn gantt_renders_every_track() {
        let g = demo().gantt(40);
        assert!(g.contains("worker 0"), "{g}");
        assert!(g.contains("worker 1"), "{g}");
        assert!(g.contains('#'), "{g}");
        assert!(g.contains("legend"), "{g}");
    }

    #[test]
    fn span_glyphs_follow_names() {
        assert_eq!(Span::new("exec t9", Category::Sim, 0.0, 1.0).glyph, '#');
        assert_eq!(Span::new("dequeue", Category::Queue, 0.0, 1.0).glyph, 'q');
        assert_eq!(
            Span::new("death-detect", Category::Sim, 0.0, 1.0).glyph,
            'x'
        );
        assert_eq!(
            Span::new("page-wait t3", Category::Svm, 0.0, 1.0).glyph,
            'p'
        );
        assert_eq!(Span::new("warmup", Category::Svm, 0.0, 1.0).glyph, 'w');
        assert_eq!(Span::new("other", Category::Sim, 0.0, 1.0).glyph, '*');
    }

    #[test]
    fn multi_gantt_shares_one_axis() {
        let a = demo();
        let mut b = Timeline::new("late", 14.0);
        b.tracks.push(Track {
            name: "remote 0".into(),
            spans: vec![Span::new("page-wait", Category::Svm, 10.0, 14.0)],
        });
        let g = multi_gantt(&[("m0", &a), ("m1", &b)], 40);
        assert!(g.contains("== m0 =="), "{g}");
        assert!(g.contains("== m1 =="), "{g}");
        assert!(g.contains("worker 0"), "{g}");
        assert!(g.contains("remote 0"), "{g}");
        assert!(g.contains('p'), "{g}");
        // Exactly one legend line for the whole chart.
        assert_eq!(g.matches("legend:").count(), 1, "{g}");
    }
}
