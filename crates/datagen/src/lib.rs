//! Synthetic data generator for the GenBase benchmark.
//!
//! The paper distributes a generator for four datasets (microarray matrix,
//! patient metadata, gene metadata, gene-ontology membership); the original
//! download is gone, so this crate rebuilds it from the schema in §3.1 of the
//! paper. Beyond matching the schema, the generator *plants* verifiable
//! signal so every benchmark query returns something meaningful:
//!
//! - **gene modules** — groups of co-expressed genes driven by shared latent
//!   factors (covariance signal for Query 2, enrichment signal for Query 5
//!   via GO terms aligned with modules);
//! - **a patient/gene bicluster** — an additive submatrix pattern planted for
//!   Query 3;
//! - **a sparse linear drug-response model** — `response = Σ wᵢ·exprᵢ + ε`
//!   over a few causal genes, all of which carry function codes below the
//!   Query 1/4 filter threshold.
//!
//! Everything is deterministic in the [`GeneratorConfig::seed`].

// Index-based loops are the idiom throughout these numerical kernels:
// explicit ranges keep the row/column structure of the math visible, and
// iterator rewrites would obscure it without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod generate;
pub mod pool;
pub mod spec;
pub mod types;

pub use generate::{generate, GeneratorConfig};
pub use pool::DatasetPool;
pub use spec::{SizeClass, SizeSpec};
pub use types::{Dataset, DatasetId, GeneOntology, GeneRecord, GroundTruth, PatientRecord};
