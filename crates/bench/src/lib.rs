//! # kollaps-bench
//!
//! Experiment harnesses regenerating every table and figure of the Kollaps
//! evaluation (EuroSys'20, §5). Each `run_table*`/`run_fig*` function prints
//! the paper-reported values next to the values measured on this
//! reproduction and returns the measured rows so tests can assert on the
//! *shape* of the results; each sweep yields the [`BenchReport`] the
//! perf-trajectory gate tracks.
//!
//! Everything runs through the one `kollaps-bench <name>` binary: `cargo run
//! --release -p kollaps_bench -- fig8` for an individual experiment
//! (`table2`…`table4`, `fig3`…`fig11`), `-- all` for every one of them, and
//! `-- staleness|dynamics|session|distributed|scaling` for the gated sweeps
//! that write `target/BENCH_<name>.json` (see [`record`]). Durations are
//! scaled down from the paper (60 s iPerf runs become a few simulated
//! seconds) so the full suite finishes in minutes; the comparisons are
//! unaffected because the simulation is deterministic.

#![forbid(unsafe_code)]

pub mod distributed;
pub mod dynamics;
pub mod experiments;
pub mod record;
pub mod scaling;
pub mod session;

pub use distributed::*;
pub use dynamics::*;
pub use experiments::*;
pub use record::*;
pub use scaling::*;
pub use session::*;
