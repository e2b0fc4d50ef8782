//! Hand-rolled text and JSON exporters for [`RegistrySnapshot`].
//!
//! The workspace has no serialization framework (it builds offline, and
//! its wire formats are explicit byte codecs), so the exporters format
//! JSON by hand — the same policy the benchmark artifacts
//! (`BENCH_*.json`) already follow. Histogram buckets are emitted
//! sparsely as `[bit_length, count]` pairs to keep files small.

use std::fmt::Write as _;

use crate::registry::{HistogramSnapshot, RegistrySnapshot};

/// Escapes a string for inclusion inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON value: non-finite values become `null`
/// (JSON has no NaN/Infinity).
fn fmt_f64_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| format!("[{i},{c}]"))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"mean\":{},\"p50_le\":{},\"p99_le\":{},\"buckets\":[{}]}}",
        h.count,
        h.sum,
        h.mean().map_or("null".to_string(), fmt_f64_json),
        h.quantile_upper_bound(0.5)
            .map_or("null".to_string(), |q| q.to_string()),
        h.quantile_upper_bound(0.99)
            .map_or("null".to_string(), |q| q.to_string()),
        buckets.join(",")
    )
}

/// Renders a snapshot as one JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
#[must_use]
pub fn snapshot_json(snapshot: &RegistrySnapshot) -> String {
    let counters: Vec<String> = snapshot
        .counters
        .iter()
        .map(|(name, v)| format!("\"{}\":{v}", json_escape(name)))
        .collect();
    let gauges: Vec<String> = snapshot
        .gauges
        .iter()
        .map(|(name, v)| format!("\"{}\":{}", json_escape(name), fmt_f64_json(*v)))
        .collect();
    let histograms: Vec<String> = snapshot
        .histograms
        .iter()
        .map(|(name, h)| format!("\"{}\":{}", json_escape(name), histogram_json(h)))
        .collect();
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
        counters.join(","),
        gauges.join(","),
        histograms.join(",")
    )
}

/// Renders a snapshot as aligned human-readable text, one metric per
/// line, grouped by kind.
#[must_use]
pub fn snapshot_text(snapshot: &RegistrySnapshot) -> String {
    let width = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .chain(snapshot.histograms.keys())
        .map(String::len)
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (name, v) in &snapshot.counters {
        let _ = writeln!(out, "counter    {name:<width$}  {v}");
    }
    for (name, v) in &snapshot.gauges {
        let _ = writeln!(out, "gauge      {name:<width$}  {v}");
    }
    for (name, h) in &snapshot.histograms {
        let mean = h.mean().unwrap_or(f64::NAN);
        let p50 = h.quantile_upper_bound(0.5);
        let p99 = h.quantile_upper_bound(0.99);
        let _ = writeln!(
            out,
            "histogram  {name:<width$}  count={} mean={mean:.1} p50<={} p99<={}",
            h.count,
            p50.map_or("-".to_string(), |q| q.to_string()),
            p99.map_or("-".to_string(), |q| q.to_string()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> RegistrySnapshot {
        let r = Registry::new();
        r.add("reports", 11);
        r.set_gauge("sim_time", 3.5);
        r.observe("latency_ns", 700);
        r.observe("latency_ns", 90_000);
        r.snapshot()
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn json_shape_is_stable() {
        let json = snapshot_json(&sample());
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"reports\":11"));
        assert!(json.contains("\"sim_time\":3.5"));
        assert!(json.contains("\"latency_ns\":{\"count\":2"));
        assert!(json.contains("\"buckets\":[[10,1],[17,1]]"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn non_finite_gauges_render_as_null() {
        let r = Registry::new();
        r.set_gauge("nan", f64::NAN);
        r.set_gauge("inf", f64::INFINITY);
        let json = snapshot_json(&r.snapshot());
        assert!(
            json.contains("\"gauges\":{\"inf\":null,\"nan\":null}"),
            "{json}"
        );
    }

    #[test]
    fn empty_snapshot_is_valid_json() {
        let json = snapshot_json(&RegistrySnapshot::default());
        assert_eq!(json, "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
    }

    #[test]
    fn text_lists_every_metric() {
        let text = snapshot_text(&sample());
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("counter"));
        assert!(text.contains("gauge"));
        assert!(text.contains("histogram"));
        assert!(text.contains("latency_ns"));
    }
}
