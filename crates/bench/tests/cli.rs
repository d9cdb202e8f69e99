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
