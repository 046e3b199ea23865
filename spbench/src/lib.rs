//! `spbench`: the repository's benchmark. See `README.md`.

pub mod check;
pub mod cli;
pub mod compare;
pub mod graphs;
pub mod harness;
pub mod json;
pub mod layers;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod walio;
pub mod workloads;
