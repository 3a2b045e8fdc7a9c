//! Biclustering for the GenBase benchmark (Query 3).
//!
//! The paper's Query 3 "allows the simultaneous clustering of rows and
//! columns of a matrix into sub-matrices with similar patterns". We implement
//! the canonical Cheng–Church δ-bicluster algorithm (Cheng & Church, ISMB
//! 2000): greedy node deletion driven by the mean squared residue (MSR),
//! then node addition (including inverted rows), computing the one
//! bicluster Query 3 reports.

// Index-based loops are the idiom throughout these numerical kernels:
// explicit ranges keep the row/column structure of the math visible, and
// iterator rewrites would obscure it without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod cheng_church;
pub mod msr;

pub use cheng_church::{find_biclusters, Bicluster, ChengChurchConfig, ALPHA, MIN_COLS, MIN_ROWS};
pub use msr::{mean_squared_residue, SubmatrixStats};
