//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call the benchmark makes into a layer.
//! It records the layer's name, start and end (seconds since the tracer
//! started), the span that was open when it began, and the id of the
//! module or job it belongs to. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer and call, as `<crate>.<call>`.
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The module or job this span works on.
    pub group: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or passes calls straight through.
    pub fn new(enabled: bool) -> Self {
        Self::starting_at(enabled, Instant::now())
    }

    /// A tracer whose times count from `t0`, so tracers of several
    /// threads share one clock and can be merged.
    pub fn starting_at(enabled: bool, t0: Instant) -> Self {
        Tracer {
            enabled,
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends another thread's spans (recorded from the same `t0`).
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Runs `f` inside a span named `name` belonging to `group`.
    pub fn span<R>(&mut self, name: &'static str, group: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            group,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.t0.elapsed().as_secs_f64();
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Self time per span name: each span's duration minus the part of
    /// its interval covered by its direct children, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered(children[i].iter().map(|&c| &self.spans[c]));
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - covered;
        }
        out
    }

    /// The spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"group\": {}}}",
                    s.name, s.start, s.end, s.group
                )
            })
            .collect();
        format!("[{}]", items.join(",\n"))
    }
}

/// Length of the union of the spans' intervals.
fn covered<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    let mut iv: Vec<(f64, f64)> = spans.map(|s| (s.start, s.end)).collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].group, 7);
        let st = t.self_times();
        assert!(st["inner"] >= 0.020);
        assert!(st["outer"] >= 0.005 && st["outer"] < t.total("outer") - 0.019);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn covered_merges_overlaps() {
        let s = |start, end| Span {
            name: "c",
            start,
            end,
            parent: None,
            group: 0,
        };
        let spans = [s(0.0, 1.0), s(0.5, 2.0), s(3.0, 4.0)];
        assert!((covered(spans.iter()) - 3.0).abs() < 1e-12);
    }
}
