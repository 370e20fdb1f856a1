//! Metric names, units, statistics and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: a run prints exactly the `END_TO_END` metrics
//! untraced and exactly the `PER_LAYER` metrics traced, on every workload.
//! A layer a workload does not run reports 0 for its times and counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cycle_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("model_err", "frac"),
    ("bcast_ratio", "ratio"),
    ("map_ratio", "ratio"),
    ("ops_ok_frac", "frac"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rpca.apg_s", "s"),
    ("rpca.apg_iters", "count"),
    ("rpca.apg_ms_per_iter", "ms"),
    ("netmodel.probe_s", "s"),
    ("netmodel.impute_s", "s"),
    ("netmodel.probe_attempts", "count"),
    ("netmodel.retries", "count"),
    ("netmodel.probe_success", "frac"),
    ("netmodel.masked_frac", "frac"),
    ("core.estimate_self_s", "s"),
    ("core.advisor_self_s", "s"),
    ("core.recalibrations", "count"),
    ("core.quarantined_links", "count"),
    ("core.degraded_installs", "count"),
    ("collectives.fnf_s", "s"),
    ("collectives.eval_s", "s"),
    ("topomap.greedy_s", "s"),
    ("topomap.eval_s", "s"),
    ("coord.connect_s", "s"),
    ("coord.send_s", "s"),
    ("coord.recv_s", "s"),
    ("coord.self_s", "s"),
    ("coord.frames", "count"),
    ("coord.bytes", "bytes"),
    ("coord.redispatches", "count"),
    ("coord.frames_per_s", "1/s"),
    ("coord.codec_us_per_frame", "us"),
    ("coord.seal_us_per_frame", "us"),
    ("coord.worker_handle_s", "s"),
    ("simnet.warmup_s", "s"),
    ("simnet.calibrate_s", "s"),
    ("simnet.op_s", "s"),
    ("simnet.flows", "count"),
    ("simnet.flows_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
];

/// Per-layer counts summed over the traced operations rather than
/// reported as a per-operation median.
const SUMMED: &[&str] = &["core.recalibrations", "core.degraded_installs"];

/// Per-layer figures that describe the state after the last traced
/// operation.
const LAST: &[&str] = &["core.quarantined_links"];

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The `q`-quantile by linear interpolation between order statistics
/// (`NaN` when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Smallest value (`+∞` when empty).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value (`−∞` when empty).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Combine per-operation layer figures into the run's values: medians,
/// except the [`SUMMED`] and [`LAST`] keys.
pub fn summarize_layers(per_op: &[Values]) -> Values {
    let mut keys: Vec<&'static str> = per_op.iter().flat_map(|v| v.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let xs: Vec<f64> = per_op.iter().filter_map(|v| v.get(k).copied()).collect();
            let value = if SUMMED.contains(&k) {
                xs.iter().sum()
            } else if LAST.contains(&k) {
                *xs.last().expect("key came from some operation")
            } else {
                median(&xs)
            };
            (k, value)
        })
        .collect()
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
/// Is `name` a legal metric name (`[A-Za-z0-9_.-]+`, at most 64 long,
/// starting with a letter or digit)?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: exactly the metrics of `table`, in table order.
/// Errors when `values` misses one of them or carries an extra one.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    table: &[(&str, &str)],
    values: &Values,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !table.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not in the table"));
    }
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = *values.get(name).ok_or(format!("metric {name} missing"))?;
        // JSON has no infinities or NaN; an unmeasurable value (every
        // operation failed) reads as the largest finite double, which
        // loses every comparison.
        let v = if v.is_finite() { v } else { f64::MAX };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit.len() <= 16 && !unit.is_empty());
        }
        assert!(!valid_name("a b") && !valid_name(".x") && !valid_name(""));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let (e2e, layers) = spec.split_once("\"per_layer\"").expect("per_layer section");
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(e2e.contains(&entry), "end_to_end lacks {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(layers.contains(&entry), "per_layer lacks {entry}");
        }
        let declared = spec.matches("\"name\": ").count();
        let workloads = spec.matches("\"why\": ").count();
        assert_eq!(declared - workloads, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn median_and_summaries() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[1.0, f64::INFINITY, 2.0]), 2.0);
        let ops: Vec<Values> = (0..3)
            .map(|k| {
                let mut v = Values::new();
                v.insert("rpca.apg_s", k as f64);
                v.insert("core.recalibrations", 1.0);
                v.insert("core.quarantined_links", 10.0 + k as f64);
                v
            })
            .collect();
        let s = summarize_layers(&ops);
        assert_eq!(s["rpca.apg_s"], 1.0);
        assert_eq!(s["core.recalibrations"], 3.0);
        assert_eq!(s["core.quarantined_links"], 12.0);
    }

    #[test]
    fn result_line_is_exact() {
        let table = &[("a_s", "s"), ("b", "count")];
        let mut v = Values::new();
        v.insert("a_s", 0.5);
        v.insert("b", f64::INFINITY);
        let line = result_json(true, 3, 0, table, &v).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"b\": {\"value\": 1.7976931348623157e308, \"unit\": \"count\"}}}"
        );
        v.insert("c", 1.0);
        assert!(result_json(true, 3, 0, table, &v).is_err());
        v.remove("c");
        v.remove("b");
        assert!(result_json(true, 3, 0, table, &v).is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
