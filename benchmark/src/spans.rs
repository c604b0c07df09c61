//! In-memory spans around calls into the simulator's public functions.
//!
//! The harness — not the program — records these: one span per call,
//! nested by a stack, kept in a `Vec` until the run ends and then written
//! once to `benchmark/out/trace.json`.

use serde_json::{json, Value};
use std::time::Instant;

/// One timed call. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            workload: "",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Spans opened from now on belong to `workload`.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of whichever span is
    /// open. Returns `f`'s result and the span's duration in seconds.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            workload: self.workload,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// [`Recorder::timed`] without the duration.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.timed(name, f).0
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span list as the `trace.json` document.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    json!({
                        "id": id,
                        "name": s.name,
                        "workload": s.workload,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "parent": s.parent,
                    })
                })
                .collect(),
        )
    }
}

/// Self time of every span, in ns: its duration minus the part of its
/// interval that its direct children cover. Children are clipped to the
/// parent and overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            workload: "w",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn siblings_subtract_from_the_parent_only() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn a_grandchild_subtracts_from_its_parent_not_the_root() {
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = [
            span(10, 100, None),
            span(20, 60, Some(0)),
            span(40, 80, Some(0)),
            span(90, 130, Some(0)),
        ];
        // Covered: [20, 80) and [90, 100) of a 90 ns parent.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let mut rec = Recorder::new();
        rec.set_workload("w");
        rec.span("root", |rec| {
            rec.span("a", |rec| rec.span("a.inner", |_| std::hint::black_box(1)));
            rec.span("b", |_| std::hint::black_box(2));
        });
        let spans = rec.spans();
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let total: u64 = self_times_ns(spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
    }
}
