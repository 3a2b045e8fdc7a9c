//! Error type shared by all GenBase crates.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by engines and substrates.
///
/// `Timeout` and `OutOfMemory` carry benchmark semantics: the paper treats
/// "excessive computation length" and "temporary space allocation failure" as
/// *infinite* results, and the harness renders them the same way.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The cooperative [`crate::Budget`] expired mid-computation
    /// (the paper's two-hour cutoff).
    Timeout {
        /// Human-readable phase in which the cutoff hit.
        phase: String,
    },
    /// A simulated allocation exceeded the engine's memory budget
    /// (e.g. vanilla R's 2^31-1 cell limit, or heap exhaustion on Large).
    OutOfMemory {
        /// Bytes the operation attempted to claim.
        requested: u64,
        /// Bytes available under the budget.
        budget: u64,
    },
    /// The engine lacks the analytics functionality for this query
    /// (e.g. Hadoop/Mahout cannot run biclustering).
    Unsupported {
        /// Engine name.
        engine: String,
        /// Missing capability.
        what: String,
    },
    /// Invalid argument or malformed input data.
    Invalid(String),
    /// Numerical failure (singular system, non-convergence).
    Numerical(String),
    /// A simulated node's peer went away mid-exchange: the symptom of a
    /// failure on that peer, never the cause of a run's outcome.
    HungUp {
        /// Rank of the node that went away.
        node: usize,
    },
}

impl Error {
    /// Shorthand constructor for [`Error::Invalid`].
    pub fn invalid(msg: impl Into<String>) -> Self {
        Error::Invalid(msg.into())
    }

    /// Shorthand constructor for [`Error::Unsupported`].
    pub fn unsupported(engine: impl Into<String>, what: impl Into<String>) -> Self {
        Error::Unsupported {
            engine: engine.into(),
            what: what.into(),
        }
    }

    /// True when the error should be reported as the paper's "infinite" bar
    /// (cutoff or memory failure) rather than as a hard error.
    pub fn is_infinite_result(&self) -> bool {
        matches!(self, Error::Timeout { .. } | Error::OutOfMemory { .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Timeout { phase } => write!(f, "computation cutoff exceeded during {phase}"),
            Error::OutOfMemory { requested, budget } => write!(
                f,
                "memory allocation failure: requested {requested} bytes, budget {budget} bytes"
            ),
            Error::Unsupported { engine, what } => {
                write!(f, "{engine} does not support {what}")
            }
            Error::Invalid(msg) => write!(f, "invalid input: {msg}"),
            Error::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            Error::HungUp { node } => write!(f, "node {node} hung up"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let t = Error::Timeout {
            phase: "analytics".into(),
        };
        assert!(t.to_string().contains("cutoff"));
        let m = Error::OutOfMemory {
            requested: 100,
            budget: 10,
        };
        assert!(m.to_string().contains("100"));
        let u = Error::unsupported("hadoop", "biclustering");
        assert_eq!(u.to_string(), "hadoop does not support biclustering");
    }

    #[test]
    fn infinite_result_classification() {
        assert!(Error::Timeout { phase: "x".into() }.is_infinite_result());
        assert!(Error::OutOfMemory {
            requested: 1,
            budget: 0
        }
        .is_infinite_result());
        assert!(!Error::invalid("x").is_infinite_result());
        assert!(!Error::unsupported("e", "w").is_infinite_result());
        assert!(!Error::HungUp { node: 1 }.is_infinite_result());
    }
}
