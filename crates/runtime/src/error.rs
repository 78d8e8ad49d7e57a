//! Typed construction/validation errors for the run-time layer.

use std::fmt;

use clr_sched::MappingError;

/// Why a runtime structure could not be built or a run could not start.
///
/// The serve path routes these into its degradation ladder instead of
/// panicking: a tenant whose context cannot be built is quarantined, not
/// a process abort.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The database holds no points — there is nothing to adapt over.
    EmptyDatabase,
    /// A stored mapping does not fit the graph and platform (gene count,
    /// PE or implementation index, PE type).
    InvalidMapping {
        /// Index of the offending stored point.
        point: usize,
        /// What [`Mapping::validate`](clr_sched::Mapping::validate) found.
        source: MappingError,
    },
    /// A stored metric (or a derived quantity) is non-finite.
    NonFiniteMetric {
        /// Which quantity, e.g. `"energy"` or `"dRC(2,5)"`.
        what: String,
    },
    /// The requested initial operating point is out of range.
    BadInitialPoint {
        /// The requested index.
        index: usize,
        /// Number of stored points.
        len: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyDatabase => write!(f, "runtime context needs a non-empty database"),
            Self::InvalidMapping { point, source } => {
                write!(f, "stored point {point} does not fit the graph: {source}")
            }
            Self::NonFiniteMetric { what } => write!(f, "non-finite {what} in stored database"),
            Self::BadInitialPoint { index, len } => {
                write!(f, "initial point {index} out of range ({len} stored)")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidMapping { source, .. } => Some(source),
            _ => None,
        }
    }
}
