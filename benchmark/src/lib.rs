//! The repo benchmark: calibrated real-time factor on four workloads with
//! an outside-in per-layer ledger. Every number is taken from outside the
//! program under test, by timing calls into its public functions. See
//! `README.md` beside this crate for definitions.

pub mod catalog;
pub mod compare;
pub mod heap;
pub mod kernel;
pub mod layered;
pub mod micro;
pub mod output;
pub mod probe;
pub mod reference;
pub mod run;
pub mod stats;
pub mod workloads;
