//! `--compare a.json b.json`: two `results.json` files side by side, judged
//! by the bounds in `BENCHMARK.json`.
//!
//! A timed metric is *worse* when B's median is on the bad side of A's by
//! more than the bound, and *unresolved* when either side's quartile spread
//! is wider than the bound (the run-to-run noise then exceeds what the gate
//! can see). Simulated values — `goodput_accuracy_pct`, every count-valued
//! per-layer metric, the operation ledger and the digests — must agree
//! exactly. (`peak_heap_mb` is judged by its bound: hash-table tombstones
//! make it repeat only to about 0.01%.)

use serde_json::Value;

use crate::stats::Quartiles;

/// Simulated end-to-end metrics: compared exactly.
const EXACT: [&str; 1] = ["goodput_accuracy_pct"];

/// A set-up of a few milliseconds is all jitter: differences and spreads of
/// `setup_s` below this many seconds are not findings.
const SETUP_FLOOR_S: f64 = 0.020;

/// What one comparison found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Timed metrics worse by more than their bound.
    pub worse: usize,
    /// Timed metrics whose spread exceeds their bound on either side.
    pub unresolved: usize,
    /// Deterministic values that differ.
    pub mismatched: usize,
}

impl Verdict {
    /// `true` when the two result sets agree within the benchmark's bounds.
    pub fn agrees(&self) -> bool {
        *self == Verdict::default()
    }
}

fn field(value: &Value, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(value, |v, key| v.get(key))
        .and_then(Value::as_f64)
}

fn quartiles(entry: &Value) -> Option<Quartiles> {
    Some(Quartiles {
        q1: field(entry, &["q1"])?,
        median: field(entry, &["median"])?,
        q3: field(entry, &["q3"])?,
        n: field(entry, &["n"])? as usize,
    })
}

/// Compares result sets `a` and `b` under `benchmark` (the parsed
/// `BENCHMARK.json`), printing one line per end-to-end metric and workload.
pub fn compare(benchmark: &Value, a: &Value, b: &Value) -> Result<Verdict, String> {
    let workloads = |v: &Value| -> Result<Vec<Value>, String> {
        Ok(v.get("workloads")
            .and_then(Value::as_array)
            .ok_or("results file has no `workloads` array")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let end_to_end = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` array")?;
    let mut verdict = Verdict::default();
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "diff", "bound"
    );
    for ea in &wa {
        let name = ea.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(eb) = wb
            .iter()
            .find(|w| w.get("workload").and_then(Value::as_str) == Some(name))
        else {
            return Err(format!("workload `{name}` is missing from B"));
        };
        for metric in end_to_end {
            let metric_name = metric
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let relative = field(metric, &["bound"]).ok_or("metric without a bound")?;
            let higher = metric.get("better").and_then(Value::as_str) == Some("higher");
            let entry = |w: &Value| {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric_name))
                    .and_then(quartiles)
                    .ok_or(format!("`{name}` has no `{metric_name}`"))
            };
            let (qa, qb) = (entry(ea)?, entry(eb)?);
            let (va, vb) = (qa.median, qb.median);
            let diff = if va == 0.0 { 0.0 } else { (vb - va) / va };
            let bound = if metric_name == "setup_s" && va > 0.0 {
                relative.max(SETUP_FLOOR_S / va)
            } else {
                relative
            };
            let label = if EXACT.contains(&metric_name) {
                if va == vb {
                    "exact"
                } else {
                    verdict.mismatched += 1;
                    "MISMATCH (deterministic)"
                }
            } else if qa.spread() > bound || qb.spread() > bound {
                verdict.unresolved += 1;
                "UNRESOLVED (spread > bound)"
            } else if (higher && diff < -bound) || (!higher && diff > bound) {
                verdict.worse += 1;
                "WORSE"
            } else {
                "ok"
            };
            println!(
                "{name:<12} {metric_name:<22} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.1}%  {label}",
                100.0 * diff,
                100.0 * bound
            );
        }
        // Counts, digests and operation ledgers are simulated: exact.
        let mut differing: Vec<String> = Vec::new();
        for key in ["digest", "ops_attempted", "ops_failed"] {
            if ea.get(key) != eb.get(key) {
                differing.push(key.to_string());
            }
        }
        if let (Some(Value::Object(la)), Some(lb)) = (ea.get("per_layer"), eb.get("per_layer")) {
            for (metric_name, va) in la {
                if va.get("unit").and_then(Value::as_str) == Some("count")
                    && metric_name != "probe.passes"
                    && field(va, &["median"]) != field(lb, &[metric_name, "median"])
                {
                    differing.push(metric_name.clone());
                }
            }
        }
        if differing.is_empty() {
            println!("{name:<12} digests, operation ledger and per-layer counts agree exactly");
        } else {
            verdict.mismatched += differing.len();
            println!(
                "{name:<12} MISMATCH (deterministic): {}",
                differing.join(", ")
            );
        }
    }
    Ok(verdict)
}
