//! # GenBase: a complex analytics genomics benchmark
//!
//! Rust reproduction of *GenBase: A Complex Analytics Genomics Benchmark*
//! (Taft, Vartak, Satish, Sundaram, Madden, Stonebraker — SIGMOD 2014 /
//! MIT-CSAIL-TR-2013-028), including every substrate the paper runs on.
//!
//! The benchmark is five queries mixing data management and complex
//! analytics over four genomics datasets:
//!
//! 1. **Predictive modeling** — filter genes, join, QR linear regression;
//! 2. **Covariance** — filter patients, join, gene×gene covariance, top
//!    pairs joined back to metadata;
//! 3. **Biclustering** — filter patients, join, Cheng–Church δ-biclusters;
//! 4. **SVD** — filter genes, join, Lanczos top-50 eigenpairs;
//! 5. **Statistics (enrichment)** — sample patients, join GO, per-term
//!    Wilcoxon rank-sum.
//!
//! Every query compiles to one engine-independent logical plan
//! ([`plan::logical_plan`]); the [`engines`] module provides the paper's
//! system configurations (R, Postgres+Madlib, Postgres+R, column store
//! ±R/UDFs, SciDB, Hadoop, pbdR, SciDB+Xeon Phi), each a physical lowering
//! of that plan onto its own storage primitives; [`harness`] runs the full
//! matrix and [`figures`] regenerates every table and figure of the
//! evaluation, with per-operator cost traces ([`plan::PlanTrace`]) behind
//! every phase split.
//!
//! ```
//! use genbase::prelude::*;
//!
//! let data = genbase_datagen::generate(
//!     &genbase_datagen::GeneratorConfig::new(genbase_datagen::SizeSpec::tiny()),
//! ).unwrap();
//! let params = QueryParams::for_dataset(&data);
//! let engine = engines::SciDb::new();
//! let ctx = ExecContext::default();
//! let report = engine.run(Query::Regression, &data, &params, &ctx).unwrap();
//! // The phase split is exactly the per-operator trace rollup.
//! assert_eq!(
//!     report.phases.total_secs().to_bits(),
//!     report.trace.phase_times().total_secs().to_bits(),
//! );
//! ```

#![warn(missing_docs)]

pub mod analytics;
pub mod coord;
pub mod engine;
pub mod engines;
pub mod figures;
pub mod harness;
pub mod plan;
pub mod query;
pub mod report;
pub mod sched;
pub mod serve;
mod session;

pub use coord::{run_worker, CoordOptions, CoordOutcome, Coordinator};
pub use engine::{Engine, ExecContext};
pub use harness::TimingMode;
pub use plan::{logical_plan, LogicalOp, LogicalPlan, OpKind, OpTrace, Phase, PlanTrace};
pub use query::{Query, QueryOutput, QueryParams};
pub use report::{PhaseTimes, QueryReport, RunOutcome};
pub use sched::{CellKey, CellOutcome, FigureId, ReportGrid, Scheduler, SweepOptions};
pub use serve::{BenchServer, ServeOptions, ServeReport};

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use crate::engine::{Engine, ExecContext};
    pub use crate::engines;
    pub use crate::harness::{Harness, HarnessConfig, TimingMode};
    pub use crate::plan::{logical_plan, LogicalOp, OpKind, OpTrace, Phase, PlanTrace};
    pub use crate::query::{Query, QueryOutput, QueryParams};
    pub use crate::report::{PhaseTimes, QueryReport, RunOutcome};
    pub use crate::sched::{CellKey, CellOutcome, FigureId, ReportGrid, Scheduler, SweepOptions};
}
