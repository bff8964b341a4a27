//! In-memory spans around the benchmark's calls into each layer.
//!
//! The program has no spans of its own yet (ROADMAP item 1), so the traced
//! pass records them from outside, one per public call: name, start, end,
//! the span that caused it, and the request (iteration) they share. Spans
//! stay in memory and are written out once, when the pass ends.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a span from two instants taken by the caller (a served request
    /// starts when it was due, not when a closure was entered).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span; returns the span's index beside `f`'s result so
    /// later spans can name it as their parent.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (self.record(name, start, end, parent, request), out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of every span called `name`: its duration minus the
    /// durations of the spans that name it as parent. Children recorded as
    /// replays after their parent (see `batch::traced_pass`) do not lie inside
    /// the parent's interval, so the subtraction is by parent link, and a
    /// replay that costs more than the fused call it decomposes shows as a
    /// negative self time rather than being hidden.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ms() - c)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("request", Json::Num(s.request as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children_by_parent_link() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.record("query", at(0), at(100), None, 7);
        let exec = t.record("execute", at(10), at(90), Some(root), 7);
        // replays recorded after the parent ended, linked by parent only
        t.record("scan", at(200), at(250), Some(exec), 7);
        t.record("score", at(250), at(270), Some(exec), 7);
        assert_eq!(t.self_times_ms("query"), vec![20.0]);
        assert_eq!(t.self_times_ms("execute"), vec![10.0]);
        assert_eq!(t.self_times_ms("scan"), vec![50.0]);
        assert_eq!(t.durations_ms("execute"), vec![80.0]);
        let json = t.to_json();
        assert_eq!(json.as_arr().len(), 4);
        assert_eq!(json.as_arr()[2].get("parent"), Some(&Json::Num(1.0)));
        assert_eq!(json.as_arr()[0].get("request"), Some(&Json::Num(7.0)));
    }
}
