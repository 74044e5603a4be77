//! # cmap-perfbench — the repository benchmark
//!
//! Host time, CPU and memory a user pays to get the reproduction's
//! numbers, on three workloads (`testbed_exposed`, `testbed_ap`,
//! `city_grid`), with a separate traced mode that produces a per-layer
//! ledger. See `README.md` in this directory for the metrics and how to
//! run it.

pub mod ledger;
pub mod replay;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
