//! The benchmark's arithmetic: percentiles, the open-loop rate-ladder
//! rule, the metric-name grammar, and the JSON it prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of `samples` (`p` in `[0, 100]`). Infinite
/// samples (failed queries) sort last, so they can only push a
/// percentile up. Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// How many samples lie strictly above the `p`th percentile: a p99 is
/// only trusted when at least ten samples sit beyond it.
pub fn samples_beyond(samples: &[f64], p: f64) -> usize {
    match percentile(samples, p) {
        Some(cut) => samples.iter().filter(|&&s| s > cut).count(),
        None => 0,
    }
}

/// Median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// True when an open-loop step's backlog (queries due but not yet
/// finished, sampled over the step) grows: the mean of the last quarter
/// of the samples exceeds the mean of the first quarter by more than
/// `max(2, first quarter mean)`. A backlog that merely fluctuates with
/// Poisson bursts stays under that bar; one that climbs for the whole
/// step, as it does once arrivals outpace service, crosses it.
pub fn backlog_growing(backlog: &[f64]) -> bool {
    if backlog.len() < 8 {
        return false;
    }
    let q = backlog.len() / 4;
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&backlog[..q]);
    let last = mean(&backlog[backlog.len() - q..]);
    last - first > first.max(2.0)
}

/// One open-loop step's outcome, for [`sustained_rate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered arrival rate, per second.
    pub rate: f64,
    /// Correct completions per second, as measured.
    pub achieved: f64,
    /// Wall latency p99 in ms (failed queries count as infinite).
    pub p99_ms: f64,
    /// Whether the step's backlog grew ([`backlog_growing`]).
    pub growing: bool,
}

/// The latency limit a ladder step must meet to count as sustained.
pub const SUSTAINED_P99_MS: f64 = 100.0;

/// The measured completion rate of the highest-rate step whose p99 meets
/// [`SUSTAINED_P99_MS`] without a growing backlog, or `None` when no
/// step does.
pub fn sustained_rate(steps: &[Step]) -> Option<f64> {
    steps
        .iter()
        .filter(|s| s.p99_ms <= SUSTAINED_P99_MS && !s.growing)
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .map(|s| s.achieved)
}

/// Metric names are non-empty runs of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit, at most 64 bytes.
pub fn valid_metric_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-')
}

/// An ordered set of `(name -> value, unit)` measurements.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the grammar or a duplicate name: both
    /// are bugs in the benchmark itself.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        let prev = self.entries.insert(name.to_string(), (value, unit));
        assert!(prev.is_none(), "metric {name} recorded twice");
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, become `null`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), Some(90.0));
    }

    #[test]
    fn failures_push_percentiles_up() {
        let mut v: Vec<f64> = vec![1.0; 98];
        v.push(f64::INFINITY);
        v.push(f64::INFINITY);
        assert_eq!(percentile(&v, 50.0), Some(1.0));
        assert_eq!(percentile(&v, 99.0), Some(f64::INFINITY));
    }

    #[test]
    fn samples_beyond_p99_needs_a_thousand() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(&v, 99.0), 10);
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(samples_beyond(&v, 99.0), 5);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn backlog_rule() {
        // Poisson-like jitter around a flat level: not growing.
        let flat: Vec<f64> = (0..40).map(|i| [0.0, 1.0, 3.0, 0.0, 2.0][i % 5]).collect();
        assert!(!backlog_growing(&flat));
        // A steady climb: growing.
        let climb: Vec<f64> = (0..40).map(f64::from).collect();
        assert!(backlog_growing(&climb));
        // A high but stable backlog is not growth.
        let high: Vec<f64> = (0..40).map(|i| 20.0 + (i % 3) as f64).collect();
        assert!(!backlog_growing(&high));
        // Too few samples to judge.
        assert!(!backlog_growing(&[0.0, 10.0, 20.0]));
    }

    #[test]
    fn ladder_picks_highest_passing_step() {
        let step = |rate: f64, p99_ms: f64, growing: bool| Step {
            rate,
            achieved: rate - 0.5,
            p99_ms,
            growing,
        };
        let steps = [
            step(40.0, 30.0, false),
            step(60.0, 80.0, false),
            step(80.0, 150.0, false),
            step(100.0, 90.0, true),
        ];
        assert_eq!(sustained_rate(&steps), Some(59.5));
        assert_eq!(sustained_rate(&[step(40.0, 101.0, false)]), None);
        assert_eq!(
            sustained_rate(&[step(40.0, f64::INFINITY, false)]),
            None,
            "a failed query misses every limit"
        );
        assert_eq!(sustained_rate(&[]), None);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["qps", "latency_p99_ms", "exec.scan_us", "a-b.c_9", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "has space", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.put("b_ms", 1.25, "ms");
        m.put("a", 3.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 3.0, \"unit\": \"count\"}, \
             \"b_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn metrics_reject_bad_names() {
        Metrics::default().put("no spaces", 1.0, "s");
    }

    #[test]
    fn benchmark_json_names_follow_the_grammar() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote"))
            .collect();
        assert!(names.len() > 10, "found only {names:?}");
        for n in &names {
            assert!(valid_metric_name(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(0.1), "0.1");
    }
}
