//! `kollaps-analyze`: a registry-free static-analysis engine for the
//! Kollaps workspace. It enforces the project's load-bearing invariants —
//! reports must be a pure, panic-free function of (scenario, seed) — as
//! named, severity-tagged lint rules with `file:line` diagnostics:
//!
//! * **determinism** — `hash-iteration` / `hash-drain` (no hash-bucket
//!   iteration order may reach results in `core`/`sim`/`dynamics`/
//!   `scenario`/`netmodel`/`transport`/`metadata`/`baselines`/`workloads`)
//!   and `wall-clock` (no `Instant::now`/`SystemTime::now`/
//!   `thread_rng` outside the measurement crates).
//! * **panic-freedom** — `hot-path-panic` (`unwrap`/`expect`/`panic!` in
//!   `core`/`sim`/`metadata`/`netmodel`/`transport`/`baselines`/`workloads`/
//!   `scenario` library code) and `literal-index` (literal
//!   subscripts the scanner cannot bound-check).
//! * **schema-drift** — the report/spec/bench version constants, README
//!   docs and committed `BENCH_*.json` baselines must agree.
//! * **suppression-hygiene** — every inline
//!   `// kollaps-analyze: allow(<rule>) -- <reason>` must be well-formed,
//!   justified, name a known rule and actually suppress something.
//!
//! The scanner is comment-, string- and `#[cfg(test)]`-aware but is not a
//! parser (the offline build bars external parser crates), so rules are
//! heuristic pattern passes over masked source; the suppression syntax is
//! the escape hatch for the (reviewed) false positive.

pub mod rules;
pub mod scanner;
pub mod schema;

use scanner::ScannedFile;
use std::fs;
use std::path::{Path, PathBuf};

/// Diagnostic severity. `--deny-warnings` promotes warnings to failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, pointing at a workspace-relative `path:line`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}]: {}",
            self.path,
            self.line,
            self.severity.as_str(),
            self.rule,
            self.message
        )
    }
}

/// Catalog entry for one named rule.
pub struct RuleInfo {
    pub name: &'static str,
    pub family: &'static str,
    pub summary: &'static str,
}

/// Every rule the engine knows. Suppression directives may only name these.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hash-iteration",
        family: "determinism",
        summary: "no HashMap/HashSet iteration order may reach results in \
                  core/sim/dynamics/scenario/netmodel/transport/metadata/baselines/\
                  workloads; use BTree containers or collect-and-sort",
    },
    RuleInfo {
        name: "hash-drain",
        family: "determinism",
        summary: "HashMap/HashSet::drain yields bucket order; drain into a sorted Vec",
    },
    RuleInfo {
        name: "wall-clock",
        family: "determinism",
        summary: "Instant::now/SystemTime::now/thread_rng only in trace/bench/runtime",
    },
    RuleInfo {
        name: "hot-path-panic",
        family: "panic-freedom",
        summary: "no unwrap/expect/panic!/todo!/unimplemented! in \
                  core/sim/metadata/netmodel/transport/baselines/workloads/scenario \
                  library code",
    },
    RuleInfo {
        name: "literal-index",
        family: "panic-freedom",
        summary: "literal subscripts must be bound-checked (fixed-size array) or avoided",
    },
    RuleInfo {
        name: "schema-drift",
        family: "schema",
        summary: "report/spec/bench schema versions, README docs and BENCH_*.json agree",
    },
    RuleInfo {
        name: "suppression-hygiene",
        family: "suppression",
        summary: "allow directives must be well-formed, justified, known and used",
    },
];

pub fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|r| r.name).collect()
}

/// Analyzes one in-memory source file (no workspace-level checks). The
/// path decides which rule families apply — fixture tests use paths like
/// `crates/core/src/fixture.rs` to opt into a family.
pub fn analyze_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let file = ScannedFile::scan(rel_path, source);
    let raw = rules::file_diagnostics(&file);
    apply_suppressions(&file, raw)
}

/// Applies the file's `allow` directives to its raw diagnostics and emits
/// the suppression-hygiene findings.
fn apply_suppressions(file: &ScannedFile, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let known = rule_names();
    let mut used = vec![false; file.suppressions.len()];
    let mut out = Vec::new();
    for d in raw {
        let mut suppressed = false;
        for (i, s) in file.suppressions.iter().enumerate() {
            // A directive covers its own line and the line below it (for
            // standalone comment lines above the flagged statement).
            let covers = s.line == d.line || s.line + 1 == d.line;
            let valid = !s.malformed
                && !s.reason.is_empty()
                && s.rules.iter().all(|r| known.contains(&r.as_str()));
            if covers && s.rules.iter().any(|r| r == d.rule) {
                used[i] = true;
                if valid {
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            out.push(d);
        }
    }
    for (i, s) in file.suppressions.iter().enumerate() {
        // Directives inside test-only code are inert (no rule fires there),
        // so hygiene does not police them — lint fixtures live in tests.
        if file.is_test.get(s.line - 1).copied().unwrap_or(false) {
            continue;
        }
        if s.malformed {
            out.push(hygiene(
                file,
                s.line,
                Severity::Error,
                "malformed directive; expected \
                 `// kollaps-analyze: allow(<rule>) -- <reason>`"
                    .into(),
            ));
            continue;
        }
        for r in &s.rules {
            if !known.contains(&r.as_str()) {
                out.push(hygiene(
                    file,
                    s.line,
                    Severity::Error,
                    format!("unknown rule `{r}` in allow directive"),
                ));
            }
        }
        if s.reason.is_empty() {
            out.push(hygiene(
                file,
                s.line,
                Severity::Error,
                format!(
                    "unjustified suppression of `{}`; append ` -- <reason>`",
                    s.rules.join(", ")
                ),
            ));
        } else if !used[i] && s.rules.iter().all(|r| known.contains(&r.as_str())) {
            out.push(hygiene(
                file,
                s.line,
                Severity::Warning,
                format!(
                    "suppression of `{}` matches no diagnostic; remove the stale directive",
                    s.rules.join(", ")
                ),
            ));
        }
    }
    out
}

fn hygiene(file: &ScannedFile, line: usize, severity: Severity, message: String) -> Diagnostic {
    Diagnostic {
        path: file.rel_path.clone(),
        line,
        rule: "suppression-hygiene",
        severity,
        message,
    }
}

/// Walks the workspace at `root` and runs every rule, including the
/// cross-file schema-drift pass. Vendor shims and build output are skipped:
/// the engine guards first-party code only.
pub fn analyze_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for path in workspace_files(root) {
        let rel = rel_path(root, &path);
        let Ok(source) = fs::read_to_string(&path) else {
            continue;
        };
        diags.extend(analyze_source(&rel, &source));
    }
    diags.extend(schema::schema_drift(root));
    sort_diagnostics(&mut diags);
    diags
}

/// Analyzes an explicit list of files (no schema-drift pass).
pub fn analyze_files(root: &Path, files: &[PathBuf]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for path in files {
        let rel = rel_path(root, path);
        let Ok(source) = fs::read_to_string(path) else {
            diags.push(Diagnostic {
                path: rel,
                line: 1,
                rule: "schema-drift",
                severity: Severity::Error,
                message: "file not found or unreadable".into(),
            });
            continue;
        };
        diags.extend(analyze_source(&rel, &source));
    }
    sort_diagnostics(&mut diags);
    diags
}

fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Every first-party `.rs` file: `crates/*/{src,tests}`, the umbrella
/// `src/`, `tests/` and `examples/`. `vendor/` and `target/` are external.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files);
        collect_rs(&dir.join("tests"), &mut files);
    }
    collect_rs(&root.join("src"), &mut files);
    collect_rs(&root.join("tests"), &mut files);
    collect_rs(&root.join("examples"), &mut files);
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Renders diagnostics as a JSON report (stable field order).
pub fn to_json(diags: &[Diagnostic]) -> serde_json::Value {
    use serde_json::Value;
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    Value::from_iter([
        ("tool", "kollaps-analyze".into()),
        ("errors", (errors as u64).into()),
        ("warnings", (warnings as u64).into()),
        (
            "diagnostics",
            Value::Array(
                diags
                    .iter()
                    .map(|d| {
                        Value::from_iter([
                            ("path", d.path.as_str().into()),
                            ("line", (d.line as u64).into()),
                            ("rule", d.rule.into()),
                            ("severity", d.severity.as_str().into()),
                            ("message", d.message.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
