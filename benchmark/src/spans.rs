//! The benchmark's own span recorder: spans opened in benchmark code
//! around the calls into each layer, kept in memory and written out
//! when the run ends. Off (every call a no-op) in untraced runs.

use crate::json::object;
use serde_json::Value;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `None` while recording is off.
pub type SpanRef = Option<usize>;

struct Span {
    name: String,
    start_us: u64,
    end_us: u64,
    parent: SpanRef,
    rep: u32,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
    }

    /// Where the top-level spans of repetition `rep` go.
    pub fn root(&self, rep: u32) -> At<'_> {
        At {
            spans: self,
            parent: None,
            rep,
        }
    }

    /// Every span with its self time: its duration minus the part of
    /// that interval its children cover (children may overlap).
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self.lock();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((
                    s.start_us.max(spans[p].start_us),
                    s.end_us.min(spans[p].end_us),
                ));
            }
        }
        let rows = spans
            .iter()
            .zip(children)
            .map(|(s, kids)| {
                object([
                    ("name", Value::String(s.name.clone())),
                    ("start_us", Value::U64(s.start_us)),
                    ("end_us", Value::U64(s.end_us)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("workload", Value::String(workload.to_string())),
                    ("rep", Value::U64(u64::from(s.rep))),
                    (
                        "self_us",
                        Value::U64((s.end_us - s.start_us).saturating_sub(covered(kids))),
                    ),
                ])
            })
            .collect();
        Value::Array(rows)
    }
}

/// A place in the span tree: new spans become children of `parent`
/// and belong to repetition `rep`.
#[derive(Clone, Copy)]
pub struct At<'a> {
    spans: &'a Spans,
    parent: SpanRef,
    rep: u32,
}

impl<'a> At<'a> {
    /// Whether spans are being recorded (this is a traced repetition).
    pub fn enabled(&self) -> bool {
        self.spans.enabled
    }

    pub fn now_us(&self) -> u64 {
        self.spans.now_us()
    }

    /// Records a child span with explicit timestamps (for spans copied
    /// from the program's own tracer).
    pub fn record(&self, name: &str, start_us: u64, end_us: u64) -> SpanRef {
        if !self.spans.enabled {
            return None;
        }
        let mut spans = self.spans.lock();
        spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent: self.parent,
            rep: self.rep,
        });
        Some(spans.len() - 1)
    }

    /// Runs `f` inside a child span named `name`; `f` gets the place
    /// under that span to put its own children.
    pub fn scope<T>(&self, name: &str, f: impl FnOnce(At<'a>) -> T) -> T {
        if !self.spans.enabled {
            return f(*self);
        }
        let now = self.now_us();
        let id = self.record(name, now, now);
        let out = f(At {
            parent: id,
            ..*self
        });
        let end = self.now_us();
        if let Some(i) = id {
            self.spans.lock()[i].end_us = end;
        }
        out
    }
}

/// Total length of the union of `intervals`.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{as_array, as_f64, get};

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(covered(vec![(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(covered(vec![]), 0);
        let spans = Spans::new(true);
        let root = spans.root(1).record("root", 0, 100);
        let under_root = At {
            parent: root,
            ..spans.root(1)
        };
        under_root.record("a", 10, 40);
        under_root.record("b", 30, 60);
        let doc = spans.to_json("w");
        let rows = as_array(&doc);
        assert_eq!(rows.len(), 3);
        assert_eq!(as_f64(get(&rows[0], "self_us").unwrap()), Some(50.0));
        assert_eq!(as_f64(get(&rows[1], "parent").unwrap()), Some(0.0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let spans = Spans::new(false);
        assert_eq!(spans.root(0).scope("x", |at| at.parent), None);
        assert_eq!(as_array(&spans.to_json("w")).len(), 0);
    }
}
