//! Spans recorded from the benchmark's own code around its calls into
//! each layer. Spans stay in memory and are written out as a Chrome
//! trace when the run ends; a layer's self time is its spans' duration
//! minus the part of it that their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that caused it;
/// spans of one request share `request`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// An append-only span log with a common time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its index (to parent others).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Merges spans recorded against the same origin by another thread.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: (count, total µs, self µs).
    pub fn layer_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_us) {
            let e = out.entry(s.name).or_default();
            let total = s.end_us - s.start_us;
            e.0 += 1;
            e.1 += total;
            e.2 += (total - child).max(0.0);
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto):
    /// complete events, one row per request.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.request,
                s.start_us,
                s.end_us - s.start_us
            )
            .expect("write to String");
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Tracer::new(t0);
        let parent = tr.record("request", at(0), at(100), None, 1);
        tr.record("compile", at(10), at(40), Some(parent), 1);
        tr.record("sim", at(40), at(90), Some(parent), 1);
        let layers = tr.layer_times();
        let (n, total, own) = layers["request"];
        assert_eq!(n, 1);
        assert!((total - 100.0).abs() < 1e-6);
        assert!((own - 20.0).abs() < 1e-6);
        assert!((layers["sim"].2 - 50.0).abs() < 1e-6);
    }

    #[test]
    fn absorb_rebases_parents() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        a.record("x", t0, t0, None, 0);
        let mut b = Tracer::new(t0);
        let p = b.record("y", t0, t0, None, 1);
        b.record("z", t0, t0, Some(p), 1);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert!(a.to_chrome_json().contains("\"parent\":1"));
    }
}
