//! `kollaps-bench <name>` — the one entrypoint to every paper experiment,
//! every gated sweep and the perf-trajectory gate itself. Run it without a
//! name to list what [`TABLE`] holds.
//!
//! ```text
//! cargo run --release -p kollaps_bench -- fig8             # one experiment
//! cargo run --release -p kollaps_bench -- all              # all of them, shortened
//! cargo run --release -p kollaps_bench -- scaling          # a gated sweep
//! cargo run --release -p kollaps_bench -- scaling --full   # its larger, ungated form
//! cargo run --release -p kollaps_bench -- diff             # the gate
//! cargo run --release -p kollaps_bench -- diff --bless     # refresh the baselines
//! ```
//!
//! A sweep prints its records and writes them, its one artifact, to
//! `target/BENCH_<name>.json`. `diff` compares those against the baselines
//! committed at the repo root, prints a markdown delta table (also written
//! to `target/bench-diff.md` for the CI artifact), and fails when a tracked
//! metric regressed beyond its tolerance or silently disappeared. `diff
//! --bless` copies the fresh results over the committed baselines instead —
//! run it (and commit the `BENCH_*.json` files) when a PR intentionally
//! moves a tracked metric.

use std::path::Path;
use std::process::ExitCode;

use kollaps_bench::*;

/// What a name runs: it gets the arguments that followed the name and says
/// whether it succeeded.
type Command = fn(&[String]) -> bool;

/// Every name `kollaps-bench` accepts.
const TABLE: &[(&str, Command)] = &[
    ("table2", |_| printed(run_table2(5))),
    ("table3", |_| printed(run_table3(2_000))),
    ("table4", |_| {
        printed(run_table4(&[1_000, 2_000, 4_000], 200))
    }),
    ("fig3", |_| printed(run_fig3(5))),
    ("fig4", |_| printed(run_fig4())),
    ("fig5", |_| printed(run_fig5(10))),
    ("fig6", |_| printed(run_fig6(10))),
    ("fig7", |_| printed(run_fig7(10))),
    ("fig8", |_| printed(run_fig8())),
    ("fig9", |_| printed(run_fig9())),
    ("fig10", |_| printed(run_fig10())),
    ("fig11", |_| printed(run_fig11())),
    ("all", all),
    ("staleness", staleness),
    ("dynamics", dynamics),
    ("session", session),
    ("distributed", distributed),
    ("scaling", scaling),
    ("diff", diff_baselines),
];

/// The names whose `target/BENCH_<name>.json` the gate compares.
const SWEEPS: [&str; 5] = ["distributed", "dynamics", "scaling", "session", "staleness"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = TABLE.iter().map(|&(name, _)| name).collect();
    let usage = format!(
        "usage: kollaps-bench <name> [--full | --bless]\nnames: {}",
        names.join(" ")
    );
    let Some(name) = args.first() else {
        println!("{usage}");
        return ExitCode::SUCCESS;
    };
    let Some(&(_, command)) = TABLE.iter().find(|(known, _)| known == name) else {
        eprintln!("kollaps-bench: unknown name `{name}`\n{usage}");
        return ExitCode::FAILURE;
    };
    if command(&args[1..]) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The paper experiments print their own table and cannot fail.
fn printed(_rows: Vec<Row>) -> bool {
    true
}

const STALENESS_TITLE: &str = "Accuracy vs staleness: relative gap (%) to the omniscient \
     allocation (grows with the metadata delay, shrinks with a faster loop)";

/// Every table and figure back to back, with reduced durations so the
/// whole suite completes in minutes.
fn all(_: &[String]) -> bool {
    run_table2(3);
    run_table3(500);
    run_table4(&[1_000, 2_000], 100);
    run_fig3(3);
    run_fig4();
    run_fig5(5);
    run_fig6(5);
    run_fig7(5);
    run_fig8();
    run_fig9();
    run_fig10();
    run_fig11();
    run_staleness(4).print(STALENESS_TITLE);
    true
}

/// Accuracy vs staleness: `loop_interval` × `metadata_delay`.
fn staleness(_: &[String]) -> bool {
    emit(STALENESS_TITLE, &run_staleness(6), false)
}

/// Per-event swap work of the precomputed snapshot timeline vs the old
/// online all-pairs re-collapse, over event rate × topology size.
fn dynamics(args: &[String]) -> bool {
    let full = has_flag(args, "--full");
    let (sizes, flaps, horizon): (&[usize], &[usize], u64) = if full {
        (&[60, 120, 240, 480], &[1, 4, 16], 40)
    } else {
        (&[45, 90, 180], &[1, 4], 20)
    };
    emit(
        "Dynamics: timeline swap cost (per-event delta) vs online all-pairs rebuild",
        &dynamics_records(&run_dynamics(sizes, flaps, horizon)),
        full,
    )
}

/// One-shot `run()` vs stepped sessions, and the campaign thread pool.
fn session(_: &[String]) -> bool {
    emit(
        "Session overhead (6 s emulated, 4 flows, churn): stepping relative \
         to run(); campaign (4 variants of 8 bulk TCP pairs, 20 s emulated) \
         serial vs 4 threads",
        &run_session_bench(),
        false,
    )
}

/// Staggered join over real loopback sockets vs the in-process run.
fn distributed(_: &[String]) -> bool {
    emit(
        "Distributed runtime vs in-process: convergence gap delta (exactly \
         zero under replica lockstep), real UDP metadata traffic, and the \
         wall-clock cost of the per-tick barrier",
        &run_distributed(3),
        false,
    )
}

/// Emulation rounds per second over topology size × flow count, allocation
/// µs per round and timeline precompute cost. `--full` adds a 2002-node /
/// 20 000-flow cell.
fn scaling(args: &[String]) -> bool {
    let full = has_flag(args, "--full");
    let cells: &[(usize, usize)] = if full { &FULL_CELLS } else { &DEFAULT_CELLS };
    emit(
        "Scaling: emulation throughput, allocation cost and precompute over size",
        &scaling_records(&run_scaling(cells)),
        full,
    )
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The workspace root: the committed `BENCH_<sweep>.json` baselines live
/// in it, the fresh ones in its `target/`. Resolved from the crate dir so
/// the binary works from any cwd.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels under the root")
}

/// The shared tail of every sweep: print the records, then write them to
/// `target/BENCH_<name>.json` — unless this is a `--full` sweep: the gate
/// only tracks the default one, whose cells the committed baseline names.
fn emit(title: &str, records: &BenchReport, full: bool) -> bool {
    records.print(title);
    if full {
        println!("\n(--full sweep: not written, the gate tracks the default sweep)");
        return true;
    }
    let path = root()
        .join("target")
        .join(format!("BENCH_{}.json", records.bench));
    let written = records.write(&path);
    match &written {
        Ok(()) => println!("\nrecords written to {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
    written.is_ok()
}

/// One sweep's turn at the gate: its deltas against the committed baseline,
/// or `None` once `--bless` has copied the fresh records over it.
fn gate(sweep: &str, bless: bool) -> Result<Option<Vec<Delta>>, String> {
    let file = format!("BENCH_{sweep}.json");
    let fresh = BenchReport::read(&root().join("target").join(&file))?;
    let baseline_path = root().join(&file);
    if bless {
        fresh
            .write(&baseline_path)
            .map_err(|e| format!("could not bless {}: {e}", baseline_path.display()))?;
        println!("blessed {}", baseline_path.display());
        return Ok(None);
    }
    Ok(Some(diff(&BenchReport::read(&baseline_path)?, &fresh)))
}

/// The perf-trajectory gate (`diff`) and its `--bless` refresh.
fn diff_baselines(args: &[String]) -> bool {
    let bless = has_flag(args, "--bless");
    let mut table = String::new();
    let mut ok = true;
    for sweep in SWEEPS {
        match gate(sweep, bless) {
            Ok(Some(deltas)) => {
                ok &= !has_regressions(&deltas);
                table.push_str(&markdown_table(sweep, &deltas));
                table.push('\n');
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!(
                    "`{sweep}`: {e} — run `kollaps-bench {sweep}` (or bless a baseline) first"
                );
                ok = false;
            }
        }
    }
    if bless {
        return ok;
    }

    print!("{table}");
    let table_path = root().join("target/bench-diff.md");
    if let Err(e) = std::fs::write(&table_path, table.as_bytes()) {
        eprintln!("could not write {}: {e}", table_path.display());
    }
    if ok {
        println!("\nperf trajectory gate passed.");
    } else {
        eprintln!(
            "\nperf trajectory gate FAILED — a tracked metric regressed past its \
             tolerance (or is missing). If the change is intentional, rerun the \
             sweeps and `kollaps-bench diff --bless`, then commit the BENCH_*.json files."
        );
    }
    ok
}
