//! The run's result: named metrics with units, the verification tally,
//! and the one-line JSON the benchmark prints last.

use std::fmt::Write as _;

use crate::stats;

/// Verified outcomes against outcomes attempted.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one outcome.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` more failures among outcomes already attempted (a
    /// failure the program reports about itself, such as a dedupe).
    pub fn fail_extra(&mut self, n: u64) {
        self.failed = (self.failed + n).min(self.attempted.max(1));
        self.attempted = self.attempted.max(1);
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// One reported number. `note` (sample counts and the like) goes to
/// the human-readable summary only.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.add_noted(name, value, unit, String::new());
    }

    pub fn add_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        let name = name.into();
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// `rt_p50_ms` and `rt_p99_ms` (nearest rank) over `rt_ms`, in
    /// completion order. With `window`, p99 is the median of the p99s of
    /// consecutive windows of that many samples, so one short host stall
    /// cannot decide a run's tail; the overall p99 goes to the summary.
    pub fn add_rt(&mut self, rt_ms: &[f64], what: &str, window: Option<usize>) {
        let n = rt_ms.len();
        let overall = stats::percentile(rt_ms, 99.0).unwrap_or(0.0);
        let beyond = stats::beyond(rt_ms, 99.0);
        self.add_noted(
            "rt_p50_ms",
            stats::median(rt_ms),
            "ms",
            format!("{what} n={n}"),
        );
        let windowed = window.and_then(|w| stats::windowed_p99(rt_ms, w).map(|m| (w, m)));
        let (p99, note) = match windowed {
            Some((w, (p99, windows))) => (
                p99,
                format!("median of {windows} windows of {w}; overall {overall:.3} (n={n}, {beyond} beyond)"),
            ),
            None => {
                if beyond < 10 {
                    eprintln!(
                        "rfvperf: rt_p99_ms rests on {beyond} samples beyond it (n={n}); \
                         ten need n >= 1000"
                    );
                }
                (overall, format!("n={n} with {beyond} beyond"))
            }
        };
        self.add_noted("rt_p99_ms", p99, "ms", note);
    }

    /// Human-readable table, one metric a line.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            writeln!(
                out,
                "  {:<34} {:>16.6} {:<9} {}",
                m.name, m.value, m.unit, m.note
            )
            .expect("write to String");
        }
        writeln!(
            out,
            "  verified {} of {} outcomes",
            self.tally.attempted - self.tally.failed,
            self.tally.attempted
        )
        .expect("write to String");
        out
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted.max(1),
            self.tally.failed
        )
        .expect("write to String");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` keeps every digit and always prints a decimal point
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("harness.cell_s.fig11a"));
        assert!(valid_name("rt_p99_ms"));
        assert!(valid_name("sim.ns_per_instr.shrink50"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("x/y"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn every_declared_metric_name_is_valid() {
        for name in crate::END_TO_END.iter().chain(crate::PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.tally.check(true);
        r.add("wall_s", 1.25, "s");
        let json = r.to_json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_lower_ok_frac() {
        let mut t = Tally::default();
        for ok in [true, true, false, true] {
            t.check(ok);
        }
        assert_eq!(t.ok_frac(), 0.75);
        t.fail_extra(1);
        assert_eq!(t.ok_frac(), 0.5);
        t.fail_extra(100);
        assert_eq!(t.ok_frac(), 0.0);
    }
}
