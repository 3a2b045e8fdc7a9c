//! Timing reports with the paper's data-management / analytics split.

use crate::plan::PlanTrace;
use crate::query::QueryOutput;
use genbase_util::CostReport;

/// Per-phase costs for one query execution (the split behind Figures 2/4).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Data management: filters, joins, restructuring, export/reformat.
    pub data_management: CostReport,
    /// Analytics: the linear algebra / statistics kernel.
    pub analytics: CostReport,
}

impl PhaseTimes {
    /// Total reported seconds (measured + simulated across both phases).
    pub fn total_secs(&self) -> f64 {
        self.data_management.total_secs() + self.analytics.total_secs()
    }
}

/// Successful execution of one query on one engine.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Typed output (verified for cross-engine consistency in tests).
    pub output: QueryOutput,
    /// Phase timing split — always the rollup of `trace`
    /// ([`PlanTrace::phase_times`]), kept materialized for renderers.
    pub phases: PhaseTimes,
    /// Per-operator execution trace the phases roll up from.
    pub trace: PlanTrace,
}

impl QueryReport {
    /// Assemble a report from a plan trace: the phase split *is* the
    /// trace's per-phase rollup, so per-op costs sum to the phases exactly.
    pub fn from_trace(output: QueryOutput, trace: PlanTrace) -> QueryReport {
        QueryReport {
            output,
            phases: trace.phase_times(),
            trace,
        }
    }

    /// Whole-run memory rollup of the trace (bytes read/materialized sum,
    /// peak resident bytes take the max) — the storage layer's counterpart
    /// of the time-phase split.
    pub fn memory(&self) -> crate::plan::MemRollup {
        self.trace.memory()
    }
}

/// Outcome of one harness cell, following the paper's conventions: cutoff
/// and memory failure render as "infinite" bars; missing functionality
/// leaves the bar out entirely.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// Finished within budget.
    Completed(QueryReport),
    /// Timeout or memory-allocation failure (the horizontal lines across the
    /// top of the paper's charts).
    Infinite {
        /// What gave out, for the report.
        reason: String,
    },
    /// The engine lacks the required functionality (no bar in the paper).
    Unsupported,
}

impl RunOutcome {
    /// Cell text for harness tables.
    pub fn cell(&self) -> String {
        match self {
            RunOutcome::Completed(r) => genbase_util::fmt_secs(r.phases.total_secs()),
            RunOutcome::Infinite { .. } => "inf".to_string(),
            RunOutcome::Unsupported => "-".to_string(),
        }
    }

    /// Borrow the report when completed.
    pub fn report(&self) -> Option<&QueryReport> {
        match self {
            RunOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryOutput;

    fn report(dm: f64, an: f64) -> QueryReport {
        use crate::plan::{OpCost, OpKind, OpTrace, Phase, PlanTrace};
        let trace = PlanTrace {
            ops: vec![
                OpTrace {
                    kind: OpKind::Restructure,
                    phase: Phase::DataManagement,
                    label: "pivot".into(),
                    cost: OpCost::wall(dm),
                },
                OpTrace {
                    kind: OpKind::Analytics,
                    phase: Phase::Analytics,
                    label: "kernel".into(),
                    cost: OpCost {
                        wall_secs: an,
                        sim_nanos: 0,
                        model_secs: 0.5,
                        sim_bytes: 0,
                        ..OpCost::default()
                    },
                },
            ],
        };
        QueryReport::from_trace(
            QueryOutput::Svd {
                eigenvalues: vec![1.0],
            },
            trace,
        )
    }

    #[test]
    fn totals_include_simulated() {
        let r = report(1.0, 2.0);
        assert!((r.phases.total_secs() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn outcome_rendering() {
        let done = RunOutcome::Completed(report(0.5, 0.5));
        assert!(done.report().is_some());
        let inf = RunOutcome::Infinite {
            reason: "cutoff".into(),
        };
        assert_eq!(inf.cell(), "inf");
        assert!(inf.report().is_none());
        let uns = RunOutcome::Unsupported;
        assert_eq!(uns.cell(), "-");
    }
}
