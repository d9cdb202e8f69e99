//! Printing and the JSON artifacts (`out/results.json`,
//! `out/<workload>.layers.json`, `expected/<workload>.json`, and the
//! one-line result object of a single-workload run).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::reference::{Outcome, SCRUBBED_FIELDS};
use crate::run::{EndToEnd, PerLayer};
use crate::stats::Quartiles;
use crate::workloads::{Spec, DEFAULT_SEED};

/// Directory of the benchmark, relative to the repo root the binary runs in.
pub const DIR: &str = "benchmark";

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn quartiles_json(q: &Quartiles, unit: &str) -> Value {
    obj(vec![
        ("median", q.median.into()),
        ("q1", q.q1.into()),
        ("q3", q.q3.into()),
        ("n", q.n.into()),
        ("unit", unit.into()),
    ])
}

fn print_row(name: &str, q: &Quartiles, unit: &str) {
    println!(
        "  {name:<36} {:>16.6} {unit:<10} q1 {:<14.6} q3 {:<14.6} n {}",
        q.median, q.q1, q.q3, q.n
    );
}

/// `Some(matches)` when `expected/<workload>.json` pins a digest for this
/// seed at full scale; `None` when the comparison does not apply.
pub fn digest_match(spec: &Spec, scale: u64, outcome: &Outcome) -> Option<bool> {
    if spec.seed != DEFAULT_SEED || scale != 1 {
        return None;
    }
    let path = Path::new(DIR)
        .join("expected")
        .join(format!("{}.json", spec.name));
    let text = std::fs::read_to_string(path).ok()?;
    let expected = serde_json::from_str(&text).ok()?;
    Some(expected.get("digest")?.as_str()? == outcome.digest)
}

fn outcome_line(outcome: &Outcome, digest_match: Option<bool>) {
    println!(
        "  ops_attempted {}  ops_failed {}  goodput_error_pct {:.6} % (simulated)  digest {}  digest_match {}",
        outcome.attempted,
        outcome.failed,
        outcome.goodput_error_pct,
        outcome.digest,
        match digest_match {
            Some(m) => m.to_string(),
            None => "n/a".to_string(),
        }
    );
}

/// Prints the end-to-end block of one workload.
pub fn print_end_to_end(result: &EndToEnd, digest_match: Option<bool>) {
    println!("{} — end to end (probing off)", result.workload);
    for (name, unit) in END_TO_END {
        print_row(name, &result.metrics[name], unit);
    }
    print_row("raw_wall_s (not a metric)", &result.raw_wall_s, "s");
    for (i, rep) in result.reps.iter().enumerate() {
        println!(
            "  rep {i:<2} wall {:.4} s = set-up {:.4} + emulation {:.4}; kernel chunks (ms) {}",
            rep.setup_s + rep.finish_s,
            rep.setup_s,
            rep.finish_s,
            rep.chunks_s
                .iter()
                .map(|c| format!("{:.2}", c * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    outcome_line(&result.outcome, digest_match);
    println!("  repeatable {}", result.repeatable);
}

/// Prints the per-layer block of one workload.
pub fn print_per_layer(result: &PerLayer, digest_match: Option<bool>) {
    println!("{} — per layer (layered pass)", result.workload);
    for (name, unit) in PER_LAYER {
        print_row(name, &result.metrics[name], unit);
    }
    outcome_line(&result.outcome, digest_match);
    println!(
        "  faithful {}  ledger_ok {}",
        result.faithful, result.ledger_ok
    );
}

/// The one-line result object of a single-workload run.
pub fn result_line(
    correct: bool,
    outcome: &Outcome,
    metrics: &BTreeMap<&'static str, Quartiles>,
    names: &[(&str, &str)],
) -> String {
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            (
                name.to_string(),
                obj(vec![
                    ("value", metrics[name].median.into()),
                    ("unit", (*unit).into()),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", correct.into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", Value::Object(metrics)),
    ])
    .to_string()
}

/// One workload's entry of `results.json`.
pub fn workload_json(
    spec: &Spec,
    end_to_end: &EndToEnd,
    per_layer: &PerLayer,
    digest_match: Option<bool>,
) -> Value {
    let outcome = &end_to_end.outcome;
    obj(vec![
        ("workload", spec.name.into()),
        ("seed", spec.seed.into()),
        ("horizon_virtual_s", spec.horizon.as_secs_f64().into()),
        (
            "end_to_end",
            Value::Object(
                END_TO_END
                    .iter()
                    .map(|(name, unit)| {
                        (
                            name.to_string(),
                            quartiles_json(&end_to_end.metrics[name], unit),
                        )
                    })
                    .collect(),
            ),
        ),
        ("raw_wall_s", quartiles_json(&end_to_end.raw_wall_s, "s")),
        (
            "per_layer",
            Value::Object(
                PER_LAYER
                    .iter()
                    .map(|(name, unit)| {
                        (
                            name.to_string(),
                            quartiles_json(&per_layer.metrics[name], unit),
                        )
                    })
                    .collect(),
            ),
        ),
        ("ops_attempted", outcome.attempted.into()),
        ("ops_failed", outcome.failed.into()),
        ("goodput_error_pct", outcome.goodput_error_pct.into()),
        ("digest", outcome.digest.as_str().into()),
        ("digest_match", digest_match.into()),
        ("repeatable", end_to_end.repeatable.into()),
        ("faithful", per_layer.faithful.into()),
        ("ledger_ok", per_layer.ledger_ok.into()),
    ])
}

/// Writes `out/<workload>.layers.json`: one row per emulation tick.
pub fn write_layers(result: &PerLayer) -> Result<PathBuf, String> {
    let rows = obj(vec![
        ("workload", result.workload.into()),
        (
            "columns",
            vec![
                "sim_ms",
                "send_us",
                "next_wakeup_us",
                "deliver_us",
                "tick_us",
                "runtime_self_us",
                "packets",
            ]
            .into(),
        ),
        (
            "rows",
            Value::Array(
                result
                    .rows
                    .iter()
                    .map(|r| {
                        Value::Array(vec![
                            r.sim_ms.into(),
                            r.send_us.into(),
                            r.next_wakeup_us.into(),
                            r.deliver_us.into(),
                            r.tick_us.into(),
                            r.runtime_self_us.into(),
                            r.packets.into(),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    write_json("out", &format!("{}.layers.json", result.workload), &rows)
}

/// `expected/<workload>.json`: per-flow goodput and the report digest at
/// the default seed.
pub fn expected_json(spec: &Spec, outcome: &Outcome) -> Value {
    obj(vec![
        ("workload", spec.name.into()),
        ("seed", spec.seed.into()),
        ("scrubbed_report_fields", SCRUBBED_FIELDS.to_vec().into()),
        ("digest", outcome.digest.as_str().into()),
        ("goodput_mbps", outcome.goodput_mbps.clone().into()),
        ("reference_mbps", outcome.reference_mbps.clone().into()),
    ])
}

/// Writes `value` as JSON text to `benchmark/<subdir>/<file>`, creating the
/// directory, and returns the path written.
pub fn write_json(subdir: &str, file: &str, value: &Value) -> Result<PathBuf, String> {
    let dir = Path::new(DIR).join(subdir);
    let path = dir.join(file);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{value}\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
