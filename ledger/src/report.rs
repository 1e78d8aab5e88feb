//! Metric names and units, the printed result, summary statistics, and
//! `ledger compare`.

use crate::check::Checks;
use rampage_json::{obj, Json};
use std::collections::BTreeMap;

/// `BENCHMARK.json`, which fixes each end-to-end metric's direction and
/// regression bound.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("refs_per_s", "refs/s"),
    ("cells_per_s", "cells/s"),
    ("cell_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("trace.records", "count"),
    ("trace.ns_per_record", "ns"),
    ("trace.busy_frac", "frac"),
    ("trace.corpus_opened", "count"),
    ("trace.corpus_fallback", "count"),
    ("trace.corpus_bits_per_record", "bits"),
    ("trace.record_s", "s"),
    ("engine.build_us", "us"),
    ("engine.ns_per_ref", "ns"),
    ("engine.ns_per_sim_ref", "ns"),
    ("engine.handler_refs_per_ref", "ratio"),
    ("engine.switches", "count"),
    ("engine.switches_on_miss", "count"),
    ("engine.idle_frac", "frac"),
    ("cache.l1i.accesses", "count"),
    ("cache.l1i.miss_ratio", "ratio"),
    ("cache.l1d.accesses", "count"),
    ("cache.l1d.miss_ratio", "ratio"),
    ("cache.l2.accesses", "count"),
    ("cache.l2.miss_ratio", "ratio"),
    ("cache.inclusion_probes", "count"),
    ("cache.l1.ns_per_access", "ns"),
    ("cache.l2.ns_per_access", "ns"),
    ("cache.est_frac", "frac"),
    ("vm.tlb.lookups", "count"),
    ("vm.tlb.miss_ratio", "ratio"),
    ("vm.page_faults", "count"),
    ("vm.soft_faults", "count"),
    ("vm.tlb.ns_per_lookup", "ns"),
    ("vm.ipt.ns_per_lookup", "ns"),
    ("vm.est_frac", "frac"),
    ("dram.transfers", "count"),
    ("dram.frac", "frac"),
    ("dram.flat.ns_per_request", "ns"),
    ("dram.banked.ns_per_request", "ns"),
    ("dram.banked.row_hit_ratio", "ratio"),
    ("dram.est_frac", "frac"),
    ("runner.cells_computed", "count"),
    ("runner.cache_hits", "count"),
    ("runner.failures", "count"),
    ("runner.pool_speedup", "ratio"),
    ("runner.overhead_ms_per_cell", "ms"),
    ("runner.cell_ms_p90", "ms"),
    ("runner.journal_open_ms", "ms"),
    ("runner.journal_bytes", "B"),
    ("runner.save_ms", "ms"),
    ("runner.resume_ms", "ms"),
    ("runner.fingerprint_ns", "ns"),
    ("bench.trace_overhead_frac", "frac"),
];

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Order `values` as `table` lists them, with the table's units.
///
/// # Panics
///
/// Panics when a name is missing from `values` or unknown to `table`:
/// the harness computes every metric it declares.
pub fn sheet(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            Metric {
                name,
                value: if value.is_finite() { value } else { 0.0 },
                unit,
            }
        })
        .collect()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q` quantile (`0 < q <= 1`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The printed result: one `name value unit` line per metric and per
/// sample count, then the one-line JSON summary.
pub fn render(checks: &Checks, metrics: &[Metric], counts: &[(&str, u64)]) -> String {
    let mut out = String::new();
    for m in metrics {
        out.push_str(&format!("{} {:?} {}\n", m.name, m.value, m.unit));
    }
    for (name, n) in counts {
        out.push_str(&format!("{name} {n} count\n"));
    }
    let values = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj! { "value" => m.value, "unit" => m.unit },
                )
            })
            .collect(),
    );
    let summary = obj! {
        "correct" => checks.correct(),
        "attempted" => checks.attempted.max(1),
        "failed" => checks.failed,
        "metrics" => values,
    };
    out.push_str(&summary.compact());
    out.push('\n');
    out
}

/// An end-to-end metric's direction and bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
struct Bound {
    name: String,
    higher_is_better: bool,
    /// Allowed worsening, as a share of the old median.
    bound: f64,
}

/// The end-to-end bounds `BENCHMARK.json` declares.
///
/// # Errors
///
/// A document that does not parse or lacks a field.
fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or(format!("BENCHMARK.json: metric without {k}"))
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().unwrap_or(0.0),
            })
        })
        .collect()
}

/// Every value of each `name value unit` line in `text`, by name, and
/// the workloads its `# ledger run:` headers name.
fn samples(text: &str) -> (BTreeMap<String, Vec<f64>>, Vec<String>) {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut workloads = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# ledger run: workload ") {
            let name = rest
                .split([',', ' '])
                .next()
                .unwrap_or_default()
                .to_string();
            if !workloads.contains(&name) {
                workloads.push(name);
            }
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        if let [name, value, _unit] = words[..] {
            if let Ok(v) = value.parse::<f64>() {
                values.entry(name.to_string()).or_default().push(v);
            }
        }
    }
    (values, workloads)
}

/// Compare the runs in `new` against those in `old`, metric by metric:
/// each side's median, the change, and whether it worsens by more than
/// the metric's bound. Returns the table and whether anything regressed.
///
/// # Errors
///
/// Unreadable bounds, or inputs that name different workloads.
pub fn compare(old: &str, new: &str, benchmark_json: &str) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let (old_values, old_workloads) = samples(old);
    let (new_values, new_workloads) = samples(new);
    if old_workloads != new_workloads {
        return Err(format!(
            "the inputs name different workloads: {old_workloads:?} vs {new_workloads:?}"
        ));
    }
    let mut out = format!(
        "workload {}\n{:<14} {:>16} {:>16} {:>9} {:>7}  verdict\n",
        old_workloads.join(","),
        "metric",
        "old median (n)",
        "new median (n)",
        "change",
        "bound"
    );
    let mut regressed = false;
    for b in &bounds {
        let (Some(o), Some(n)) = (old_values.get(&b.name), new_values.get(&b.name)) else {
            out.push_str(&format!("{:<14} missing from an input\n", b.name));
            regressed = true;
            continue;
        };
        let (mo, mn) = (median(o), median(n));
        let change = ratio(mn - mo, mo);
        let worse = if b.higher_is_better { -change } else { change };
        let verdict = if worse > b.bound {
            regressed = true;
            "REGRESSION"
        } else if worse < -b.bound {
            "better"
        } else {
            "within bound"
        };
        out.push_str(&format!(
            "{:<14} {:>11.4} ({:>2}) {:>11.4} ({:>2}) {:>+8.1}% {:>6.1}%  {verdict}\n",
            b.name,
            mo,
            o.len(),
            mn,
            n.len(),
            100.0 * change,
            100.0 * b.bound,
        ));
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn compare_flags_a_drop_beyond_the_bound() {
        let bench = r#"{"end_to_end": [
            {"name": "refs_per_s", "unit": "refs/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;
        let run = |refs: f64, setup: f64| {
            format!(
                "# ledger run: workload w, seed 1\nrefs_per_s {refs} refs/s\nsetup_s {setup} s\n"
            )
        };
        let old = run(100.0, 1.0) + &run(102.0, 1.0);
        let (_, regressed) = compare(&old, &(run(95.0, 1.2) + &run(96.0, 1.2)), bench).unwrap();
        assert!(
            !regressed,
            "5 % slower and 20 % longer set-up are within bounds"
        );
        let (table, regressed) = compare(&old, &run(80.0, 1.0), bench).unwrap();
        assert!(regressed, "{table}");
        assert!(table.contains("REGRESSION"));
        let other = "# ledger run: workload v, seed 1\nrefs_per_s 1 refs/s\n";
        assert!(compare(&old, other, bench).is_err());
    }
}
