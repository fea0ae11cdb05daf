//! The repository benchmark: end-to-end and per-layer measurements of the
//! Duplo simulator (`conv_sweep`, `mem_stream`) and of its HTTP service
//! (`serve_mix`).
//!
//! Every workload is generated from the `--seed` argument ([`gen`]) and
//! drives the program only through its public functions. An untraced run
//! (`--trace 0`) prints the end-to-end metrics ([`report::END_TO_END`]);
//! a traced run (`--trace 1`) records spans around each call into a layer
//! ([`spans`]), replays the workload's own streams through single layers
//! ([`replay`]) and prints the per-layer metrics
//! ([`report::PER_LAYER`]). Both check the program's outputs ([`check`]).

pub mod args;
pub mod check;
pub mod gen;
pub mod registry;
pub mod replay;
pub mod report;
pub mod serve_mix;
pub mod simwork;
pub mod spans;
pub mod stats;
