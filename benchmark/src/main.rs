//! The benchmark binary; `benchmark/run.sh` builds and runs it from the
//! repo root. See `benchmark/README.md` for what every number means.

use std::process::ExitCode;

use serde_json::Value;

use kollaps_benchmark::catalog::{END_TO_END, PER_LAYER};
use kollaps_benchmark::compare;
use kollaps_benchmark::heap::Counting;
use kollaps_benchmark::output;
use kollaps_benchmark::run::{self, Budget};
use kollaps_benchmark::workloads::{Spec, DEFAULT_SEED, WORKLOADS};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Passes of a full run unless `--reps` says otherwise; fewer than
/// [`MIN_REPS`] medians are too noisy to compare.
const DEFAULT_REPS: usize = 10;
const MIN_REPS: usize = 8;
/// `--smoke` divides every horizon by this.
const SMOKE_SCALE: u64 = 10;

const USAGE: &str = "usage: benchmark/run.sh [--seed N] [--reps N] [--workload NAME] [--smoke]
       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
       benchmark/run.sh --compare A.json B.json
       benchmark/run.sh --bless";

#[derive(Debug)]
struct Args {
    seed: u64,
    reps: usize,
    seconds: Option<f64>,
    workload: Option<String>,
    smoke: bool,
    trace: Option<bool>,
    bless: bool,
    compare: Option<(String, String)>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        reps: DEFAULT_REPS,
        seconds: None,
        workload: None,
        smoke: false,
        trace: None,
        bless: false,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--reps" => args.reps = value()?.parse().map_err(|e| format!("--reps: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--workload" => args.workload = Some(value()?),
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(args)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Runs the selected mode; `Ok(false)` is a failed check.
fn dispatch(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let verdict = compare::compare(
            &read_json("BENCHMARK.json")?,
            &read_json(a)?,
            &read_json(b)?,
        )?;
        println!(
            "{} worse, {} unresolved, {} deterministic mismatches",
            verdict.worse, verdict.unresolved, verdict.mismatched
        );
        return Ok(verdict.agrees());
    }
    let scale = if args.smoke { SMOKE_SCALE } else { 1 };
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let specs: Vec<Spec> = names
        .iter()
        .map(|name| {
            Spec::generate(name, args.seed, scale)
                .ok_or(format!("unknown workload `{name}`; one of {WORKLOADS:?}"))
        })
        .collect::<Result<_, _>>()?;

    if args.bless {
        for (spec, result) in specs.iter().zip(run::end_to_end(&specs, Budget::Passes(1))) {
            let path = output::write_json(
                "expected",
                &format!("{}.json", spec.name),
                &output::expected_json(spec, &result.outcome),
            )?;
            println!("wrote {}", path.display());
        }
        return Ok(true);
    }

    let budget = match (args.seconds, args.smoke) {
        (Some(seconds), _) => Budget::Seconds(seconds),
        (None, true) => Budget::Passes(1),
        (None, false) => {
            if args.reps < MIN_REPS {
                println!("--reps {} raised to the minimum of {MIN_REPS}", args.reps);
            }
            Budget::Passes(args.reps.max(MIN_REPS))
        }
    };

    // One workload, one kind of pass, one result line: the harness contract.
    if let Some(trace) = args.trace {
        let spec = &specs[0];
        let (line, passed) = if trace {
            let result = run::per_layer(spec, budget);
            output::print_per_layer(&result, output::digest_match(spec, scale, &result.outcome));
            output::write_layers(&result)?;
            let passed = result.passed();
            (
                output::result_line(passed, &result.outcome, &result.metrics, &PER_LAYER),
                passed,
            )
        } else {
            let result = run::end_to_end(&specs, budget).remove(0);
            output::print_end_to_end(&result, output::digest_match(spec, scale, &result.outcome));
            let passed = result.passed();
            (
                output::result_line(passed, &result.outcome, &result.metrics, &END_TO_END),
                passed,
            )
        };
        println!("{line}");
        return Ok(passed);
    }

    // The full run: end-to-end passes, then one layered pass per workload.
    let end_to_end = run::end_to_end(&specs, budget);
    let mut ok = true;
    let mut entries = Vec::new();
    for (spec, e2e) in specs.iter().zip(&end_to_end) {
        let layers = run::per_layer(spec, Budget::Passes(1));
        let digest_match = output::digest_match(spec, scale, &e2e.outcome);
        output::print_end_to_end(e2e, digest_match);
        output::print_per_layer(&layers, digest_match);
        output::write_layers(&layers)?;
        ok &= e2e.passed() && layers.passed();
        entries.push(output::workload_json(spec, e2e, &layers, digest_match));
    }
    let results = Value::Object(vec![
        ("seed".to_string(), args.seed.into()),
        ("scale".to_string(), scale.into()),
        ("workloads".to_string(), Value::Array(entries)),
    ]);
    let path = output::write_json("out", "results.json", &results)?;
    println!(
        "wrote {}  checks {}",
        path.display(),
        if ok { "passed" } else { "FAILED" }
    );
    Ok(ok)
}
