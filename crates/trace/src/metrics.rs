//! Counter/histogram registry.
//!
//! A [`MetricsRegistry`] is a flat, name-keyed store of monotonic
//! counters and log2-bucketed histograms. The simulator's `SimStats`
//! exports into one (see `rfv-sim`), events from a capture can be
//! folded in with [`MetricsRegistry::record_event`], and the whole
//! registry serializes to a stable JSON document for `--stats-json`.
//!
//! Names are dotted paths (`regfile.allocs`, `sched.stall.no_reg`);
//! `BTreeMap` storage keeps the JSON output deterministically sorted.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{TraceEvent, TraceKind};
use crate::json::quote;

/// A log2-bucketed histogram of `u64` observations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// `buckets[i]` counts observations with `ceil(log2(v + 1)) == i`,
    /// i.e. bucket 0 holds zeros, bucket 1 holds `1`, bucket 2 holds
    /// `2..=3`, and so on.
    buckets: Vec<u64>,
}

impl Histogram {
    fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let idx = Histogram::bucket_index(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"buckets\":[",
            self.count,
            self.sum,
            self.min(),
            self.max(),
            fmt_f64(self.mean())
        );
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}");
    }
}

/// JSON-friendly float formatting: finite, and integral values keep a
/// trailing `.0` so the field parses as a number everywhere.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Name-keyed counters and histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Increments counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Sets gauge `name` (a point-in-time float such as an IPC or a
    /// ratio, as opposed to a monotonic counter).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records `value` into histogram `name` (creating it).
    pub fn observe(&mut self, name: &str, value: u64) {
        // look up first, as `add` does: hot callers observe one name
        // thousands of times, and `entry` would allocate a key each time
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            self.histograms
                .entry(name.to_string())
                .or_default()
                .observe(value);
        }
    }

    /// Current value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if any values were observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another registry into this one (counters add, gauges
    /// overwrite, histograms are summed bucket-wise via re-observation
    /// of aggregate fields).
    pub fn absorb_counters(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            self.add(name, *v);
        }
    }

    /// Folds one trace event into event-derived counters. Useful for
    /// sanity-checking a capture against the simulator's own stats.
    pub fn record_event(&mut self, ev: &TraceEvent) {
        match ev.kind {
            TraceKind::Stall { reason } => {
                self.incr(&format!("events.stall.{}", reason.label()));
            }
            TraceKind::Mem {
                phase, segments, ..
            } => {
                self.incr(&format!("events.mem.{}", phase.label()));
                if matches!(phase, crate::event::MemPhase::Issue) {
                    self.observe("events.mem.segments", u64::from(segments));
                }
            }
            ref kind => {
                self.incr(&format!("events.{}", kind.name()));
            }
        }
    }

    /// Serializes the registry as a JSON document:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", quote(name), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", quote(name), fmt_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", quote(name));
            h.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StallReason;
    use crate::json;

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        // bucket 0: {0}; bucket 1: {1}; bucket 2: {2,3}; bucket 3: {4}; bucket 7: {100}
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[7], 1);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!((h.count(), h.min(), h.max()), (0, 0, 0));
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn registry_json_round_trips() {
        let mut m = MetricsRegistry::new();
        m.incr("a.b");
        m.add("a.b", 4);
        m.set_gauge("ipc", 1.25);
        m.observe("lat", 7);
        m.observe("lat", 9);
        let doc = json::parse(&m.to_json()).unwrap();
        assert_eq!(
            doc.get("counters").unwrap().get("a.b").unwrap().as_num(),
            Some(5.0)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("ipc").unwrap().as_num(),
            Some(1.25)
        );
        let lat = doc.get("histograms").unwrap().get("lat").unwrap();
        assert_eq!(lat.get("count").unwrap().as_num(), Some(2.0));
        assert_eq!(lat.get("sum").unwrap().as_num(), Some(16.0));
    }

    #[test]
    fn record_event_counts_by_kind_and_reason() {
        let mut m = MetricsRegistry::new();
        m.record_event(&TraceEvent::warp_event(
            1,
            0,
            0,
            crate::event::TraceKind::Stall {
                reason: StallReason::Scoreboard,
            },
        ));
        m.record_event(&TraceEvent::warp_event(
            2,
            0,
            0,
            crate::event::TraceKind::RegAlloc {
                reg: 0,
                phys: 1,
                bank: 0,
            },
        ));
        assert_eq!(m.counter("events.stall.scoreboard"), 1);
        assert_eq!(m.counter("events.reg_alloc"), 1);
    }
}
