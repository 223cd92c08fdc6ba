//! In-memory spans around the calls this benchmark makes into each layer.
//!
//! A span is opened and closed from the benchmark's own files — the
//! crates under test are not instrumented. Spans nest by a stack, carry
//! the id of the pass that caused them, and may carry the number of
//! items (packets, transactions, graphs) that crossed the boundary, so
//! per-item costs are span time ÷ count rather than spans of their own:
//! no span here is shorter than tens of microseconds.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
    /// Items that crossed this boundary (0 when not counted).
    pub count: u64,
}

/// Span recorder for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next pass; spans opened from here on carry its id.
    pub fn next_pass(&mut self) -> u32 {
        self.pass += 1;
        self.pass
    }

    /// Passes started so far.
    pub fn passes(&self) -> u32 {
        self.pass
    }

    /// Runs `f` inside a span named `name` whose parent is the span
    /// currently open, and returns `f`'s value with the span's duration.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            pass: self.pass,
            count: 0,
        });
        self.stack.push(id);
        let value = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (value, end_ns - start_ns)
    }

    /// Sets the boundary count of the innermost open span.
    pub fn count(&mut self, items: u64) {
        if let Some(&id) = self.stack.last() {
            self.spans[id].count = items;
        }
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed over all spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Total duration and boundary count of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| {
                (ns + s.end_ns - s.start_ns, n + s.count)
            })
    }

    /// The root span above span `i`.
    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Duration of the spans named `name` inside each staged pass (a
    /// root span named `pass`), one sum per pass: a stage's cost pass by
    /// pass, so a slow spell of the host can be told from the stage.
    pub fn per_pass(&self, name: &str) -> Vec<f64> {
        let mut by_pass: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name && self.spans[self.root_of(i)].name == "pass" {
                *by_pass.entry(s.pass).or_insert(0) += s.end_ns - s.start_ns;
            }
        }
        by_pass.into_values().map(|ns| ns as f64).collect()
    }

    /// Σ self times of the spans under every root named `root`, over
    /// Σ durations of those roots: 1 minus the share of a traced pass
    /// that no stage accounts for.
    pub fn stage_sum_ratio(&self, root: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let (mut stages, mut roots) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[self.root_of(i)].name != root {
                continue;
            }
            match s.parent {
                None => roots += s.end_ns - s.start_ns,
                Some(_) => stages += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]),
            }
        }
        crate::stats::ratio(stages as f64, roots as f64)
    }

    /// The span list as a JSON array.
    pub fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::Object(vec![
                        ("id".into(), Value::UInt(id as u64)),
                        ("name".into(), Value::String(s.name.into())),
                        ("start_ns".into(), Value::UInt(s.start_ns)),
                        ("end_ns".into(), Value::UInt(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("pass".into(), Value::UInt(u64::from(s.pass))),
                        ("count".into(), Value::UInt(s.count)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ratio_covers_the_root() {
        let mut t = Tracer::new();
        t.next_pass();
        t.span("pass", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            t.span("b", |t| {
                t.count(3);
                std::thread::sleep(std::time::Duration::from_millis(4));
            });
        });
        let selfs = t.self_times();
        let (pass_ns, _) = t.total("pass");
        assert!(
            selfs["pass"] < pass_ns / 4,
            "root self time is the uncovered gap only"
        );
        assert_eq!(t.total("b").1, 3);
        let r = t.stage_sum_ratio("pass");
        assert!(r > 0.9 && r <= 1.0, "ratio {r}");
    }
}
