//! Statistical tests for the GenBase benchmark.
//!
//! Query 5 (enrichment) ranks all genes by expression and applies the
//! Wilcoxon rank-sum test per GO category to decide whether member genes
//! cluster at the top or bottom of the ranking. This crate provides the
//! ranking machinery, the tie-corrected Wilcoxon test and the normal
//! distribution functions backing its p-values.

// Index-based loops are the idiom throughout these numerical kernels:
// explicit ranges keep the row/column structure of the math visible, and
// iterator rewrites would obscure it without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod normal;
pub mod ranking;
pub mod wilcoxon;

pub use normal::{erf, erfc, normal_cdf, normal_sf, two_sided_p};
pub use ranking::{
    average_ranks, average_ranks_par, rank_sort_indices, rank_sort_indices_par, tie_group_sizes,
};
pub use wilcoxon::{wilcoxon_from_ranks, wilcoxon_rank_sum, wilcoxon_rank_sum_par, WilcoxonResult};
