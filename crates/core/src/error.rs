//! Structured errors for the solver front door.
//!
//! The seed code `assert!`ed its way out of malformed inputs; the session
//! API reports them as values so callers (the CLI, the bench harness,
//! services embedding the library) can react without catching panics.

use std::time::Duration;

/// Everything that can go wrong when resolving or running a solver.
#[derive(Clone, Debug, PartialEq)]
pub enum MinCutError {
    /// A cut needs two sides: graphs with fewer than two vertices have no
    /// cuts at all.
    TooFewVertices { n: usize },
    /// The requested name matches no registered solver.
    UnknownSolver {
        name: String,
        /// Canonical names of every registered solver, for the error
        /// message and for CLI suggestions.
        known: Vec<String>,
    },
    /// The [`SolveOptions`](crate::SolveOptions) carry a value a solver
    /// cannot work with (for example `threads == 0`), or a driver that
    /// needs λ itself was handed an inexact solver.
    InvalidOptions { message: String },
    /// The optional time budget ran out before the solver finished.
    TimeBudgetExceeded { budget: Duration },
    /// A dynamic-graph update was rejected (self-loop, zero weight,
    /// out-of-range endpoint, deleting a missing edge, or an unknown
    /// dynamic handle). The graph is unchanged.
    InvalidUpdate { message: String },
    /// A line of an edge-update trace (`i u v w` / `d u v` / `q`) failed
    /// to parse, with its 1-based line number.
    TraceParse { line: usize, message: String },
    /// A cactus query (`qc` / `qs`) arrived where no cactus is
    /// maintained — e.g. `--stream` without `--cactus`, or a dynamic
    /// service handle registered without cactus maintenance.
    CactusUnavailable { message: String },
    /// A binary graph pack (`.smcpack`) was rejected: truncated file,
    /// bad magic, version skew, wrong/overflowing section lengths, or
    /// misaligned sections. Carries the rendered
    /// [`PackError`](mincut_graph::pack::PackError).
    PackFormat { message: String },
}

impl From<mincut_graph::pack::PackError> for MinCutError {
    fn from(e: mincut_graph::pack::PackError) -> Self {
        MinCutError::PackFormat {
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for MinCutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinCutError::TooFewVertices { n } => {
                write!(f, "minimum cut needs at least two vertices, got {n}")
            }
            MinCutError::UnknownSolver { name, known } => {
                write!(
                    f,
                    "unknown solver {name:?}; registered: {}",
                    known.join(", ")
                )
            }
            MinCutError::InvalidOptions { message } => {
                write!(f, "invalid solve options: {message}")
            }
            MinCutError::TimeBudgetExceeded { budget } => {
                write!(
                    f,
                    "time budget of {budget:?} exhausted before the solver finished"
                )
            }
            MinCutError::InvalidUpdate { message } => {
                write!(f, "invalid graph update: {message}")
            }
            MinCutError::TraceParse { line, message } => {
                write!(f, "trace line {line}: {message}")
            }
            MinCutError::CactusUnavailable { message } => {
                write!(f, "no cactus maintained: {message}")
            }
            MinCutError::PackFormat { message } => {
                write!(f, "invalid graph pack: {message}")
            }
        }
    }
}

impl std::error::Error for MinCutError {}
