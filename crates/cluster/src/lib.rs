//! Multi-node execution substrate.
//!
//! The paper runs SciDB, the column store, Hadoop and pbdR on clusters of
//! 1, 2 and 4 machines. We do not have a cluster, so this crate substitutes
//! one (documented in DESIGN.md §4): every node is a real OS thread doing
//! real work on its own partition, and every inter-node message is
//! serialized to bytes, sent over a channel, and charged
//! `latency + bytes / bandwidth` against the *receiving node's* simulated
//! clock. A run reports measured wall time plus the maximum simulated
//! network time across nodes — the critical-path approximation.
//!
//! The collectives (broadcast, gather, allreduce) are rooted at node 0,
//! which reproduces the paper's observation that "if there is no locality
//! between the data and the computation, then scaling issues are almost
//! guaranteed": more nodes = more bytes through the root.

// Index-based loops are the idiom throughout these numerical kernels:
// explicit ranges keep the row/column structure of the math visible, and
// iterator rewrites would obscure it without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod comm;
pub mod dist;

pub use comm::{Cluster, NetModel, NodeCtx};
pub use dist::{
    dist_column_means, dist_covariance, dist_gram, dist_least_squares, gather_matrix, DistGramOp,
};
