//! # surrogate-bench
//!
//! The harness regenerating every table and figure of the paper's
//! evaluation (§6). Each `repro` subcommand prints the same rows or
//! series the paper reports; the criterion benches cover the hot paths
//! (account generation, measures, store, queries). Serving performance
//! is measured by the repository's benchmark, `spbench/`, not here.
//!
//! | Paper artifact | Driver | Command |
//! |---|---|---|
//! | Table 1 | [`experiments::table1`] | `repro table1` |
//! | Fig. 3 | [`experiments::fig3`] | `repro fig3` |
//! | Fig. 7 | [`experiments::fig7`] | `repro fig7` |
//! | Fig. 8 | [`experiments::fig8`] | `repro fig8` |
//! | Fig. 9 | [`experiments::fig9`] | `repro fig9` |
//! | Fig. 10 | [`experiments::fig10`] | `repro fig10` |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
