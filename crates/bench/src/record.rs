//! The unified perf-trajectory record schema and the regression gate.
//!
//! Every sweep (`kollaps-bench distributed|dynamics|scaling|session|
//! staleness`) emits one [`BenchReport`] — a flat list of [`BenchRecord`]s:
//! metric name, value, unit, the sweep axes that locate the cell, and the
//! regression policy (direction + tolerance). Fresh runs land in
//! `target/BENCH_<bench>.json`; the blessed per-PR baselines are committed
//! at the repo root as `BENCH_<bench>.json`. `kollaps-bench diff` compares
//! the two, prints a markdown delta table, and exits nonzero when any
//! tracked metric regresses beyond its tolerance — the CI gate every
//! scaling PR runs through.
//!
//! Two tolerance regimes coexist deliberately: metrics derived from the
//! deterministic simulation (event counts, swap costs, convergence gaps)
//! are byte-reproducible and carry tight tolerances, while wall-clock
//! timings vary with the host and carry wide ones — the deterministic
//! *work* metrics are the precise tripwire for algorithmic regressions,
//! the wall-clock ones only catch order-of-magnitude cliffs.

use std::fmt::Display;
use std::io;
use std::path::Path;

use serde_json::{FieldError, FromValue, Value};

/// Version stamp of the `BENCH_*.json` layout.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Tolerance for deterministic simulation-derived metrics: reruns
/// reproduce them exactly, so any drift beyond float noise is a real
/// behaviour change — but leave headroom for intentional small tuning.
pub const TOLERANCE_DETERMINISTIC: f64 = 0.25;

/// Tolerance for wall-clock metrics: CI runners differ from the machine
/// that blessed the baseline, so only flag multi-x cliffs (a 2x hot-loop
/// regression on identical hardware lands well past this).
pub const TOLERANCE_WALL_CLOCK: f64 = 2.0;

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Growing past `baseline * (1 + tolerance)` is a regression.
    LowerIsBetter,
    /// Shrinking past `baseline * (1 - tolerance)` is a regression.
    HigherIsBetter,
    /// Tracked in the table but never gates (context metrics).
    Informational,
}

impl Direction {
    fn as_str(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower_is_better",
            Direction::HigherIsBetter => "higher_is_better",
            Direction::Informational => "informational",
        }
    }
}

impl FromValue<'_> for Direction {
    fn expected() -> String {
        "one of lower_is_better, higher_is_better, informational".to_string()
    }

    fn from_value(value: &Value) -> Option<Self> {
        match value.as_str()? {
            "lower_is_better" => Some(Direction::LowerIsBetter),
            "higher_is_better" => Some(Direction::HigherIsBetter),
            "informational" => Some(Direction::Informational),
            _ => None,
        }
    }
}

/// One measured metric of one sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Metric name (`mean_swap_cost`, `one_shot_ms`, ...).
    pub metric: String,
    /// Measured value.
    pub value: f64,
    /// Unit label (`paths`, `micros`, `ms`, `percent`, `count`, `ratio`).
    pub unit: String,
    /// Ordered sweep axes locating the cell (`("elements", "45")`); part
    /// of the record's identity when diffing.
    pub axes: Vec<(String, String)>,
    /// Regression direction.
    pub direction: Direction,
    /// Allowed relative worsening before the gate fires.
    pub tolerance: f64,
}

impl BenchRecord {
    /// A new informational record (no gating) with no axes.
    pub fn new(metric: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        BenchRecord {
            metric: metric.into(),
            value,
            unit: unit.into(),
            axes: Vec::new(),
            direction: Direction::Informational,
            tolerance: 0.0,
        }
    }

    /// Adds a sweep axis.
    pub fn axis(mut self, name: impl Into<String>, value: impl Display) -> Self {
        self.axes.push((name.into(), value.to_string()));
        self
    }

    /// Gates the record: regress when the value grows beyond
    /// `baseline * (1 + tolerance)`.
    pub fn lower_is_better(mut self, tolerance: f64) -> Self {
        self.direction = Direction::LowerIsBetter;
        self.tolerance = tolerance;
        self
    }

    /// Gates the record: regress when the value shrinks beyond
    /// `baseline * (1 - tolerance)`.
    pub fn higher_is_better(mut self, tolerance: f64) -> Self {
        self.direction = Direction::HigherIsBetter;
        self.tolerance = tolerance;
        self
    }

    /// The identity a record is matched on across runs: metric plus axes.
    pub fn key(&self) -> String {
        if self.axes.is_empty() {
            return self.metric.clone();
        }
        format!("{}{{{}}}", self.metric, self.axes_label(","))
    }

    /// The axes as `name=value` pairs joined by `separator`.
    fn axes_label(&self, separator: &str) -> String {
        let axes: Vec<String> = self.axes.iter().map(|(k, v)| format!("{k}={v}")).collect();
        axes.join(separator)
    }

    fn to_json(&self) -> Value {
        let axes: Vec<Value> = self
            .axes
            .iter()
            .map(|(k, v)| {
                Value::from_iter([("name", k.as_str().into()), ("value", v.as_str().into())])
            })
            .collect();
        Value::from_iter([
            ("metric", self.metric.as_str().into()),
            ("value", self.value.into()),
            ("unit", self.unit.as_str().into()),
            ("axes", Value::Array(axes)),
            ("direction", self.direction.as_str().into()),
            ("tolerance", self.tolerance.into()),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, FieldError> {
        let text = |value: &Value, key| value.field::<&str>(key).map(str::to_string);
        Ok(BenchRecord {
            metric: text(v, "metric")?,
            value: v.field("value")?,
            unit: text(v, "unit")?,
            axes: v
                .field::<&[Value]>("axes")?
                .iter()
                .map(|axis| Ok((text(axis, "name")?, text(axis, "value")?)))
                .collect::<Result<_, FieldError>>()?,
            direction: v.field("direction")?,
            tolerance: v.field("tolerance")?,
        })
    }
}

/// One sweep's full result set: the unit `BENCH_<bench>.json` stores.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Sweep name (`dynamics`, `session`, `staleness`, ...).
    pub bench: String,
    /// The records, in emission order.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// An empty report for `bench`.
    pub fn new(bench: impl Into<String>) -> Self {
        BenchReport {
            bench: bench.into(),
            records: Vec::new(),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, record: BenchRecord) {
        self.records.push(record);
    }

    /// The whole report as a JSON value tree.
    pub fn to_json(&self) -> Value {
        Value::from_iter([
            ("schema_version", BENCH_SCHEMA_VERSION.into()),
            ("bench", self.bench.as_str().into()),
            (
                "records",
                Value::Array(self.records.iter().map(BenchRecord::to_json).collect()),
            ),
        ])
    }

    /// The whole report as compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses a report from its JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let root = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let version: u64 = root.field("schema_version").map_err(|e| e.to_string())?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "bench schema version {version} (this binary speaks {BENCH_SCHEMA_VERSION})"
            ));
        }
        Self::from_json(&root).map_err(|e| e.to_string())
    }

    fn from_json(root: &Value) -> Result<Self, FieldError> {
        Ok(BenchReport {
            bench: root.field::<&str>("bench")?.to_string(),
            records: root
                .field::<&[Value]>("records")?
                .iter()
                .map(BenchRecord::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Prints the report under `title`, one line per sweep cell (consecutive
    /// records sharing their axes): the axes, then `metric: value unit`
    /// cells.
    pub fn print(&self, title: &str) {
        print!("\n=== {title} ===");
        let mut cell: Option<&[(String, String)]> = None;
        for record in &self.records {
            if cell != Some(&record.axes) {
                cell = Some(&record.axes);
                print!("\n{:<24}", record.axes_label(" "));
            }
            let value = fmt_value(Some(record.value));
            print!(" | {}: {value} {}", record.metric, record.unit);
        }
        println!();
    }

    /// Writes the report to `path` (creating parent directories).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json_string())
    }

    /// Reads a report from `path`.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// How one metric moved between the baseline and the fresh run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Within tolerance.
    Unchanged,
    /// Better than the baseline beyond tolerance.
    Improved,
    /// Worse than the baseline beyond tolerance — **gates**.
    Regressed,
    /// Tracked in the baseline but absent from the fresh run — **gates**
    /// (a metric silently disappearing is how regressions hide).
    Missing,
    /// Present in the fresh run only (a new metric; blessed on next
    /// `--bless`).
    New,
    /// Informational metric: reported, never gates.
    Info,
}

impl DeltaKind {
    fn as_str(self) -> &'static str {
        match self {
            DeltaKind::Unchanged => "ok",
            DeltaKind::Improved => "improved",
            DeltaKind::Regressed => "REGRESSED",
            DeltaKind::Missing => "MISSING",
            DeltaKind::New => "new",
            DeltaKind::Info => "info",
        }
    }
}

/// One row of the diff: a metric key with its baseline/fresh values.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// The record identity ([`BenchRecord::key`]).
    pub key: String,
    /// Unit label.
    pub unit: String,
    /// Baseline value, when the baseline has the metric.
    pub baseline: Option<f64>,
    /// Fresh value, when the fresh run has the metric.
    pub fresh: Option<f64>,
    /// Signed relative change in percent (`(fresh - baseline) /
    /// |baseline| * 100`), 0 when either side is absent.
    pub change_percent: f64,
    /// Classification.
    pub kind: DeltaKind,
}

/// Near-zero baselines make relative tolerances meaningless; below this
/// magnitude the tolerance is applied as an absolute allowance instead.
const ABSOLUTE_FLOOR: f64 = 1e-9;

fn classify(record: &BenchRecord, baseline: f64) -> (DeltaKind, f64) {
    let fresh = record.value;
    let change_percent = if baseline.abs() < ABSOLUTE_FLOOR {
        0.0
    } else {
        (fresh - baseline) / baseline.abs() * 100.0
    };
    if record.direction == Direction::Informational {
        return (DeltaKind::Info, change_percent);
    }
    // `worsening` > 0 means the metric moved the wrong way.
    let worsening = match record.direction {
        Direction::LowerIsBetter => fresh - baseline,
        Direction::HigherIsBetter => baseline - fresh,
        Direction::Informational => unreachable!(),
    };
    let allowance = if baseline.abs() < ABSOLUTE_FLOOR {
        record.tolerance.max(ABSOLUTE_FLOOR)
    } else {
        baseline.abs() * record.tolerance
    };
    let kind = if worsening > allowance {
        DeltaKind::Regressed
    } else if -worsening > allowance {
        DeltaKind::Improved
    } else {
        DeltaKind::Unchanged
    };
    (kind, change_percent)
}

/// Compares a fresh report against its committed baseline. The fresh
/// records' direction/tolerance policy governs (the code under test owns
/// its gate, not the blessed file).
pub fn diff(baseline: &BenchReport, fresh: &BenchReport) -> Vec<Delta> {
    let mut deltas = Vec::new();
    for record in &fresh.records {
        let key = record.key();
        let base = baseline.records.iter().find(|b| b.key() == key);
        let delta = match base {
            Some(base) => {
                let (kind, change_percent) = classify(record, base.value);
                Delta {
                    key,
                    unit: record.unit.clone(),
                    baseline: Some(base.value),
                    fresh: Some(record.value),
                    change_percent,
                    kind,
                }
            }
            None => Delta {
                key,
                unit: record.unit.clone(),
                baseline: None,
                fresh: Some(record.value),
                change_percent: 0.0,
                kind: DeltaKind::New,
            },
        };
        deltas.push(delta);
    }
    for base in &baseline.records {
        let key = base.key();
        if fresh.records.iter().all(|r| r.key() != key) {
            // An informational metric disappearing is noted, not gated.
            let kind = if base.direction == Direction::Informational {
                DeltaKind::Info
            } else {
                DeltaKind::Missing
            };
            deltas.push(Delta {
                key,
                unit: base.unit.clone(),
                baseline: Some(base.value),
                fresh: None,
                change_percent: 0.0,
                kind,
            });
        }
    }
    deltas
}

/// `true` when any delta gates the build.
pub fn has_regressions(deltas: &[Delta]) -> bool {
    deltas
        .iter()
        .any(|d| matches!(d.kind, DeltaKind::Regressed | DeltaKind::Missing))
}

fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "—".to_string(),
        Some(v) if v == v.trunc() && v.abs() < 1.0e12 => format!("{v:.0}"),
        Some(v) => format!("{v:.3}"),
    }
}

/// Renders the diff of one bench as a markdown table (regressions first).
pub fn markdown_table(bench: &str, deltas: &[Delta]) -> String {
    let mut rows: Vec<&Delta> = deltas.iter().collect();
    rows.sort_by_key(|d| match d.kind {
        DeltaKind::Regressed => 0,
        DeltaKind::Missing => 1,
        DeltaKind::Improved => 2,
        DeltaKind::Unchanged => 3,
        DeltaKind::New => 4,
        DeltaKind::Info => 5,
    });
    let mut out = String::new();
    out.push_str(&format!("### bench `{bench}`\n\n"));
    out.push_str("| metric | unit | baseline | fresh | Δ% | status |\n");
    out.push_str("|---|---|---:|---:|---:|---|\n");
    for d in rows {
        let change = if d.baseline.is_some() && d.fresh.is_some() {
            format!("{:+.1}%", d.change_percent)
        } else {
            "—".to_string()
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            d.key,
            d.unit,
            fmt_value(d.baseline),
            fmt_value(d.fresh),
            change,
            d.kind.as_str(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(records: Vec<BenchRecord>) -> BenchReport {
        BenchReport {
            bench: "test".to_string(),
            records,
        }
    }

    /// The acceptance criterion: a synthetic 2x regression on a tracked
    /// hot-loop metric fires the gate.
    #[test]
    fn synthetic_2x_regression_gates() {
        let baseline = report(vec![BenchRecord::new("loop_ticks", 100.0, "micros")
            .axis("nodes", 64)
            .lower_is_better(TOLERANCE_DETERMINISTIC)]);
        let fresh = report(vec![BenchRecord::new("loop_ticks", 200.0, "micros")
            .axis("nodes", 64)
            .lower_is_better(TOLERANCE_DETERMINISTIC)]);
        let deltas = diff(&baseline, &fresh);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].kind, DeltaKind::Regressed);
        assert!((deltas[0].change_percent - 100.0).abs() < 1e-9);
        assert!(has_regressions(&deltas));
        // Even behind the wide wall-clock tolerance, 2x still has to move
        // past `1 + tolerance` to gate — here it sits inside and passes.
        let lenient = report(vec![BenchRecord::new("loop_ticks", 200.0, "micros")
            .axis("nodes", 64)
            .lower_is_better(TOLERANCE_WALL_CLOCK)]);
        assert!(!has_regressions(&diff(&baseline, &lenient)));
    }

    #[test]
    fn identical_reports_pass() {
        let records = || {
            vec![
                BenchRecord::new("mean_swap_cost", 6.5, "paths")
                    .axis("elements", 45)
                    .lower_is_better(TOLERANCE_DETERMINISTIC),
                BenchRecord::new("events", 40.0, "count").axis("elements", 45),
            ]
        };
        let deltas = diff(&report(records()), &report(records()));
        assert!(!has_regressions(&deltas));
        assert!(deltas
            .iter()
            .all(|d| matches!(d.kind, DeltaKind::Unchanged | DeltaKind::Info)));
    }

    #[test]
    fn improvements_and_higher_is_better_direction() {
        let baseline = report(vec![
            BenchRecord::new("gap", 10.0, "percent").lower_is_better(0.25),
            BenchRecord::new("speedup", 3.0, "ratio").higher_is_better(0.25),
        ]);
        let fresh = report(vec![
            BenchRecord::new("gap", 5.0, "percent").lower_is_better(0.25),
            BenchRecord::new("speedup", 1.5, "ratio").higher_is_better(0.25),
        ]);
        let deltas = diff(&baseline, &fresh);
        assert_eq!(deltas[0].kind, DeltaKind::Improved);
        assert_eq!(deltas[1].kind, DeltaKind::Regressed, "speedup halved");
        assert!(has_regressions(&deltas));
    }

    #[test]
    fn informational_metrics_never_gate() {
        let baseline = report(vec![BenchRecord::new("wall_ms", 10.0, "ms")]);
        let fresh = report(vec![BenchRecord::new("wall_ms", 1000.0, "ms")]);
        let deltas = diff(&baseline, &fresh);
        assert_eq!(deltas[0].kind, DeltaKind::Info);
        assert!(!has_regressions(&deltas));
    }

    #[test]
    fn tracked_metric_disappearing_gates_but_new_metrics_do_not() {
        let baseline = report(vec![
            BenchRecord::new("old", 1.0, "count").lower_is_better(0.1)
        ]);
        let fresh = report(vec![
            BenchRecord::new("new", 1.0, "count").lower_is_better(0.1)
        ]);
        let deltas = diff(&baseline, &fresh);
        let missing = deltas.iter().find(|d| d.key == "old").unwrap();
        assert_eq!(missing.kind, DeltaKind::Missing);
        let new = deltas.iter().find(|d| d.key == "new").unwrap();
        assert_eq!(new.kind, DeltaKind::New);
        assert!(has_regressions(&deltas));
    }

    #[test]
    fn axes_are_part_of_the_identity() {
        let baseline = report(vec![BenchRecord::new("m", 1.0, "count")
            .axis("size", 45)
            .lower_is_better(0.1)]);
        let fresh = report(vec![BenchRecord::new("m", 1.0, "count")
            .axis("size", 90)
            .lower_is_better(0.1)]);
        let deltas = diff(&baseline, &fresh);
        assert!(deltas.iter().any(|d| d.kind == DeltaKind::New));
        assert!(deltas.iter().any(|d| d.kind == DeltaKind::Missing));
    }

    #[test]
    fn near_zero_baselines_use_absolute_allowance() {
        let baseline = report(vec![
            BenchRecord::new("gap", 0.0, "percent").lower_is_better(0.25)
        ]);
        // Growing 0 → 0.1 with a 0.25 *absolute* allowance passes...
        let ok = report(vec![
            BenchRecord::new("gap", 0.1, "percent").lower_is_better(0.25)
        ]);
        assert!(!has_regressions(&diff(&baseline, &ok)));
        // ...growing 0 → 1.0 does not.
        let bad = report(vec![
            BenchRecord::new("gap", 1.0, "percent").lower_is_better(0.25)
        ]);
        assert!(has_regressions(&diff(&baseline, &bad)));
    }

    #[test]
    fn json_round_trips() {
        let mut report = BenchReport::new("dynamics");
        report.push(
            BenchRecord::new("mean_swap_cost", 6.25, "paths")
                .axis("elements", 45)
                .axis("flapped", 1)
                .lower_is_better(TOLERANCE_DETERMINISTIC),
        );
        report.push(
            BenchRecord::new("precompute_micros", 1234.0, "micros")
                .lower_is_better(TOLERANCE_WALL_CLOCK),
        );
        report.push(BenchRecord::new("pairs", 420.0, "count"));
        let text = report.to_json_string();
        let parsed = BenchReport::from_json_str(&text).expect("parses");
        assert_eq!(parsed, report);
        assert_eq!(
            parsed.records[0].key(),
            "mean_swap_cost{elements=45,flapped=1}"
        );
    }

    #[test]
    fn schema_version_mismatch_is_an_error() {
        let err = BenchReport::from_json_str(r#"{"schema_version":99,"bench":"x","records":[]}"#)
            .unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
    }

    /// A baseline cut anywhere, or with any field of a record missing, of
    /// the wrong kind or out of its range, is an error naming that field;
    /// none panics.
    #[test]
    fn malformed_baselines_are_typed_errors() {
        let mut report = BenchReport::new("dynamics");
        report.push(
            BenchRecord::new("mean_swap_cost", 6.25, "paths")
                .axis("elements", 45)
                .lower_is_better(TOLERANCE_DETERMINISTIC),
        );
        let text = report.to_json_string();
        assert_eq!(BenchReport::from_json_str(&text), Ok(report));
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..64 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let cut = (seed % text.len() as u64) as usize;
            assert!(BenchReport::from_json_str(&text[..cut]).is_err(), "{cut}");
        }
        let mut cases: Vec<(String, String, &str)> = Vec::new();
        for (key, value) in [
            ("schema_version", "1"),
            ("bench", r#""dynamics""#),
            ("records", "["),
            ("metric", r#""mean_swap_cost""#),
            ("value", "6.25"),
            ("unit", r#""paths""#),
            ("axes", "["),
            ("name", r#""elements""#),
            ("direction", r#""lower_is_better""#),
            ("tolerance", "0.25"),
        ] {
            let field = format!("\"{key}\":{value}");
            let swapped = if value.starts_with('"') {
                "7"
            } else {
                r#""7""#
            };
            // The key renamed is the key missing.
            cases.push((field.clone(), format!("\"_{key}\":{value}"), key));
            let swap = match value {
                "[" => format!("\"{key}\":7,\"_{key}\":["),
                _ => format!("\"{key}\":{swapped}"),
            };
            cases.push((field, swap, key));
        }
        cases.extend(
            [
                (
                    r#""direction":"lower_is_better""#,
                    r#""direction":"sideways""#,
                    "direction",
                ),
                (r#""value":6.25"#, r#""value":1e999"#, "value"),
            ]
            .map(|(from, to, key)| (from.to_string(), to.to_string(), key)),
        );
        for (from, to, key) in cases {
            let bad = text.replacen(&from, &to, 1);
            assert_ne!(bad, text, "{from} not in {text}");
            let err = BenchReport::from_json_str(&bad).unwrap_err();
            assert!(err.contains(&format!("`{key}`")), "{bad}: {err}");
        }
    }

    /// Pins the delta-table layout: the unit column sits between the
    /// metric and the value columns, so downstream tooling that scrapes
    /// the CI summary can rely on it.
    #[test]
    fn markdown_table_has_a_unit_column() {
        let baseline = report(vec![
            BenchRecord::new("lat", 2.0, "micros").lower_is_better(0.25)
        ]);
        let fresh = report(vec![
            BenchRecord::new("lat", 2.5, "micros").lower_is_better(0.25)
        ]);
        let table = markdown_table("test", &diff(&baseline, &fresh));
        assert!(
            table.contains("| metric | unit | baseline | fresh | Δ% | status |"),
            "{table}"
        );
        assert!(table.contains("| `lat` | micros | 2 |"), "{table}");
    }

    #[test]
    fn markdown_table_leads_with_regressions() {
        let baseline = report(vec![
            BenchRecord::new("fine", 1.0, "count").lower_is_better(0.25),
            BenchRecord::new("slow", 1.0, "ms").lower_is_better(0.25),
        ]);
        let fresh = report(vec![
            BenchRecord::new("fine", 1.0, "count").lower_is_better(0.25),
            BenchRecord::new("slow", 3.0, "ms").lower_is_better(0.25),
        ]);
        let table = markdown_table("test", &diff(&baseline, &fresh));
        let slow_at = table.find("`slow`").expect("slow row");
        let fine_at = table.find("`fine`").expect("fine row");
        assert!(slow_at < fine_at, "regressed row sorts first:\n{table}");
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("+200.0%"), "{table}");
    }
}
