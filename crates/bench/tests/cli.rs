//! The `kollaps-bench` command line: the name table is the interface, so
//! the binary itself and every document that quotes a command are checked
//! against it.

use std::path::Path;
use std::process::{Command, Output};

fn kollaps_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kollaps-bench"))
        .args(args)
        .output()
        .expect("kollaps-bench runs")
}

/// The names the binary lists when run without one.
fn listed_names() -> Vec<String> {
    let out = kollaps_bench(&[]);
    assert!(out.status.success(), "listing the names is not an error");
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let names = text
        .lines()
        .find_map(|line| line.strip_prefix("names: "))
        .expect("a `names:` line");
    names.split_whitespace().map(str::to_string).collect()
}

#[test]
fn no_argument_lists_every_name() {
    let expected = "table2 table3 table4 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 all \
                    staleness dynamics session distributed scaling diff";
    let expected: Vec<&str> = expected.split_whitespace().collect();
    assert_eq!(listed_names(), expected);
}

#[test]
fn unknown_name_fails_with_the_same_list() {
    let out = kollaps_bench(&["fig12"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("unknown name `fig12`"), "{stderr}");
    assert!(
        stderr.contains(&format!("names: {}", listed_names().join(" "))),
        "{stderr}"
    );
}

/// The commands a document quotes: the word after `kollaps-bench` or after
/// `-p kollaps_bench --`, and the word after `--bin` on a line that names
/// the bench package.
fn quoted_commands(text: &str) -> (Vec<String>, Vec<String>) {
    // A name, once markdown and sentence punctuation is peeled off; flags
    // (`--full`) and placeholders (`<name>`) are not names.
    let word = |w: &str| -> Option<String> {
        let w = w.trim_matches(|c: char| "`'\",.;:()".contains(c));
        let is_name = w.starts_with(|c: char| c.is_ascii_lowercase())
            && w.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        is_name.then(|| w.to_string())
    };
    let (mut names, mut bins) = (Vec::new(), Vec::new());
    for line in text.lines() {
        if !line.contains("kollaps-bench") && !line.contains("kollaps_bench") {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        for (i, w) in words.iter().enumerate() {
            let next = words.get(i + 1).copied();
            let after_package = *w == "--" && i > 0 && words[i - 1] == "kollaps_bench";
            if w.ends_with("kollaps-bench") || after_package {
                names.extend(next.and_then(word));
            } else if *w == "--bin" {
                bins.extend(next.and_then(word));
            }
        }
    }
    (names, bins)
}

/// The README drifted from the bin list once; CI would only find out at
/// run time. Every quoted `kollaps-bench <name>` must be a name the table
/// has, and the only `--bin` of the bench package is `kollaps-bench`.
#[test]
fn documented_commands_name_table_entries() {
    let table = listed_names();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for doc in [".github/workflows/ci.yml", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let (names, bins) = quoted_commands(&text);
        assert!(!names.is_empty(), "{doc} quotes no kollaps-bench command");
        for name in names {
            assert!(
                table.contains(&name),
                "{doc} quotes `kollaps-bench {name}`, which the table does not have"
            );
        }
        for bin in bins {
            assert_eq!(
                bin, "kollaps-bench",
                "{doc} quotes `--bin {bin}`; the bench package has one binary"
            );
        }
    }
}

#[test]
fn quoted_commands_are_found_in_every_spelling() {
    let (names, bins) = quoted_commands(
        "run: target/release/kollaps-bench dynamics\n\
         `cargo run --release -p kollaps_bench -- fig8`, then\n\
         cargo run -p kollaps_bench --bin bench_diff -- --bless\n\
         the `kollaps-bench <name>` binary and `kollaps-bench diff --bless`\n\
         cargo run --bin kollaps-coordinator\n",
    );
    assert_eq!(names, ["dynamics", "fig8", "diff"]);
    assert_eq!(bins, ["bench_diff"]);
}

/// `shown` is `value` rounded to the decimals `shown` has; thousands
/// separators are ignored.
fn shows(shown: &str, value: f64) -> bool {
    let shown = shown.replace(',', "");
    let decimals = shown.split_once('.').map_or(0, |(_, d)| d.len());
    format!("{value:.decimals$}") == shown
}

/// The README's *Scaling* table quotes `BENCH_scaling.json`; every perf
/// change used to re-quote it by hand. Each number in it must be the
/// committed record rounded to the digits the table shows.
#[test]
fn readme_scaling_table_quotes_the_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let baseline = kollaps_bench::BenchReport::read(&root.join("BENCH_scaling.json"))
        .expect("committed scaling baseline");
    let section = readme
        .split_once("\n## Scaling\n")
        .expect("a Scaling section")
        .1;
    let rows: Vec<Vec<&str>> = section
        .lines()
        .skip_while(|line| !line.starts_with("| cell |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .map(|line| line.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    let cells = baseline
        .records
        .iter()
        .filter(|r| r.metric == "rounds_per_sec_seq")
        .count();
    assert!(cells > 0, "the baseline has no cells");
    assert_eq!(rows.len(), cells, "one table row per baseline cell");
    for row in rows {
        let [cell, rounds, alloc, hits, trees, precompute, setup, stepping, teardown, realtime, rss] =
            row[..]
        else {
            panic!("{row:?} does not have the eleven columns");
        };
        let axis = |unit: &str| {
            let number = cell
                .split(" / ")
                .find_map(|part| part.strip_suffix(unit))
                .unwrap_or_else(|| panic!("`{cell}` names no {unit}"));
            number.trim().replace(',', "")
        };
        let (nodes, flows) = (axis(" nodes"), axis(" flows"));
        let record = |metric: &str| {
            baseline
                .records
                .iter()
                .find(|r| {
                    r.metric == metric
                        && r.axes
                            == [
                                ("nodes".into(), nodes.clone()),
                                ("flows".into(), flows.clone()),
                            ]
                })
                .unwrap_or_else(|| panic!("no `{metric}` record for `{cell}`"))
                .value
        };
        let check = |column: &str, shown: &str, value: f64| {
            assert!(
                shows(shown, value),
                "`{cell}` {column}: the README shows {shown}, the baseline reads {value}"
            );
        };
        check("rounds/s", rounds, record("rounds_per_sec_seq"));
        check("alloc µs/round", alloc, record("alloc_micros_per_round"));
        let hits = hits.strip_suffix('%').expect("a percentage");
        check("fast-path hits", hits, record("fast_hit_percent"));
        let (polled, deployed) = trees.split_once(" of ").expect("`<polled> of <trees>`");
        check("trees polled", polled, record("trees_visited_per_deliver"));
        // Every node but the dumbbell's two bridges is a container with a tree.
        let nodes: f64 = nodes.parse().expect("a node count");
        check("trees deployed", deployed, nodes - 2.0);
        for (column, shown, metric) in [
            ("precompute", precompute, "precompute_seq_micros"),
            ("set-up", setup, "setup_micros"),
            ("stepping", stepping, "stepping_micros"),
            ("teardown", teardown, "teardown_micros"),
        ] {
            let (number, scale) = match shown.split_once(' ') {
                Some((ms, "ms")) => (ms, 1e3),
                Some((s, "s")) => (s, 1e6),
                _ => panic!("`{shown}` is not in ms or s"),
            };
            check(column, number, record(metric) / scale);
        }
        check("real-time factor", realtime, record("realtime_factor"));
        let rss = rss.strip_suffix(" MB").expect("MB");
        check("peak RSS", rss, record("peak_rss_mb"));
    }
}

/// The numbers quoted right after `marker` in `text`: whitespace-separated
/// tokens up to the first that is neither a number nor a `/`, with a
/// trailing `:` or `,` dropped.
fn quoted_after<'t>(text: &'t str, marker: &str) -> Vec<&'t str> {
    let rest = text
        .split_once(marker)
        .unwrap_or_else(|| panic!("the text quotes no {marker}"))
        .1;
    rest.split_whitespace()
        .map(|token| token.trim_end_matches([':', ',']))
        .take_while(|token| *token == "/" || token.parse::<f64>().is_ok())
        .filter(|token| *token != "/")
        .collect()
}

/// The README's *Perf trajectory* bullet on `BENCH_dynamics.json` quotes
/// the traffic leg's gated counters. Each quoted number must be the
/// committed record rounded to the digits shown: a triple gives one number
/// per cell in ascending topology size, a single number holds for every
/// cell.
#[test]
fn readme_dynamics_prose_quotes_the_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let baseline = kollaps_bench::BenchReport::read(&root.join("BENCH_dynamics.json"))
        .expect("committed dynamics baseline");
    let bullet = readme
        .split_once("\n## Perf trajectory\n")
        .expect("a Perf trajectory section")
        .1
        .split_once("* `BENCH_dynamics.json`")
        .expect("a BENCH_dynamics.json bullet")
        .1
        .split("\n* ")
        .next()
        .expect("bullet text");
    let bullet = bullet.split_whitespace().collect::<Vec<_>>().join(" ");
    let cells = |metric: &str| {
        let mut cells: Vec<(u64, f64)> = baseline
            .records
            .iter()
            .filter(|r| r.metric == metric)
            .map(|r| {
                let elements = r
                    .axes
                    .iter()
                    .find(|(name, _)| name == "elements")
                    .and_then(|(_, value)| value.parse().ok())
                    .unwrap_or_else(|| panic!("a `{metric}` record has no elements axis"));
                (elements, r.value)
            })
            .collect();
        cells.sort_by_key(|&(elements, _)| elements);
        assert!(!cells.is_empty(), "the baseline has no `{metric}` record");
        cells
    };
    let trees = cells("trees_visited_per_deliver");
    let quoted = quoted_after(
        &bullet,
        "`trees_visited_per_deliver` (`KollapsDataplane::packet_path_stats()`):",
    );
    assert_eq!(quoted.len(), trees.len(), "one quoted number per cell");
    for (shown, (elements, value)) in quoted.iter().zip(&trees) {
        assert!(
            shows(shown, *value),
            "trees_visited_per_deliver at {elements} elements: the README shows {shown}, \
             the baseline reads {value}"
        );
    }
    let chains = cells("chains_installed");
    let quoted = quoted_after(
        &bullet,
        "`chains_installed` (`PacketPathStats::chains_installed`):",
    );
    assert_eq!(quoted.len(), chains.len(), "one quoted number per cell");
    for (shown, (elements, value)) in quoted.iter().zip(&chains) {
        assert!(
            shows(shown, *value),
            "chains_installed at {elements} elements: the README shows {shown}, \
             the baseline reads {value}"
        );
    }
    let quoted = quoted_after(&bullet, "`wakeups_per_packet` (");
    let [shown] = quoted[..] else {
        panic!("one wakeups_per_packet figure, not {quoted:?}");
    };
    for (elements, value) in cells("wakeups_per_packet") {
        assert!(
            shows(shown, value),
            "wakeups_per_packet at {elements} elements: the README shows {shown}, \
             the baseline reads {value}"
        );
    }
}

#[test]
fn shown_numbers_round_the_record_to_their_digits() {
    assert!(shows("614.4", 614.396_004_951));
    assert!(shows("2,347", 2_346.6));
    assert!(shows("0.414", 0.414_2));
    assert!(!shows("614.4", 614.46));
    assert!(!shows("24.8", 2.48));
}
