//! [`SolveOptions`]: every knob of every solver, in one place.
//!
//! The session API passes one options value to every solver; each
//! solver reads the fields it understands and ignores the rest, so a
//! configuration sweep can reuse a single options value across the
//! whole registry. A solver's queue can also be pinned by its name
//! (`NOIλ̂-BStack`); nothing else configures a solver.

use std::time::Duration;

use mincut_ds::PqKind;
use mincut_graph::EdgeWeight;

use crate::error::MinCutError;

/// Unified solver configuration (builder-style).
///
/// ```
/// use mincut_core::SolveOptions;
/// use mincut_ds::PqKind;
///
/// let opts = SolveOptions::new()
///     .seed(42)
///     .pq(PqKind::BQueue)
///     .threads(4)
///     .witness(false);
/// assert_eq!(opts.seed, 42);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SolveOptions {
    /// Seed for every randomized component (start vertices, label
    /// propagation orders).
    pub seed: u64,
    /// Priority queue for the NOI scans, unless the solver name pins one
    /// (e.g. `NOIλ̂-BStack`).
    pub pq: PqKind,
    /// Width of every parallel layer of a solve: ParCut's CAPFOREST
    /// workers, label propagation and the Padberg–Rinaldi classify phase
    /// (the last two only on graphs of at least
    /// [`MIN_PARALLEL_ARCS`](mincut_ds::par::MIN_PARALLEL_ARCS) arcs).
    /// Contraction is sequential at every width. At 1 the whole solve
    /// runs on the caller's thread and is deterministic. Defaults to the
    /// hardware thread count.
    pub threads: usize,
    /// Optional starting bound: the value of an **actual cut** of the
    /// input (with its side, if known). A solve rejects a side that is not
    /// a proper cut of the input or does not cost the value
    /// ([`MinCutError::InvalidOptions`]). A sideless value cannot be
    /// checked: it must be the value of a real cut, or exactness is lost.
    pub initial_bound: Option<(EdgeWeight, Option<Vec<bool>>)>,
    /// Track and return the cut side. Disable to measure value-only runs
    /// the way the paper does.
    pub witness: bool,
    /// Optional wall-clock budget; solvers check it between rounds and
    /// fail with [`MinCutError::TimeBudgetExceeded`] when it runs out.
    pub time_budget: Option<Duration>,
    /// Whether the kernelization pipeline runs before the solver's main
    /// loop (default: on). See the [`reduce`](crate::reduce) module;
    /// exactness is never affected — the pipeline maintains
    /// `λ(G) = min(λ̂, λ(kernel))`.
    pub reductions: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            seed: 0xC0FFEE,
            pq: PqKind::Heap,
            threads: mincut_ds::par::hardware_threads(),
            initial_bound: None,
            witness: true,
            time_budget: None,
            reductions: true,
        }
    }
}

impl SolveOptions {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn pq(mut self, pq: PqKind) -> Self {
        self.pq = pq;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Seeds λ̂ with a caller's cut. A side is checked against the input
    /// at solve time; a sideless value must be the value of a real cut.
    pub fn initial_bound(mut self, value: EdgeWeight, side: Option<Vec<bool>>) -> Self {
        self.initial_bound = Some((value, side));
        self
    }

    pub fn witness(mut self, witness: bool) -> Self {
        self.witness = witness;
        self
    }

    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Turns kernelization on or off.
    pub fn reductions(mut self, reductions: bool) -> Self {
        self.reductions = reductions;
        self
    }

    /// Disables kernelization (the CLI's `--no-reduce`).
    pub fn no_reductions(mut self) -> Self {
        self.reductions = false;
        self
    }

    /// Field-level validation shared by every solver.
    pub fn validate(&self) -> Result<(), MinCutError> {
        if self.threads == 0 {
            return Err(MinCutError::InvalidOptions {
                message: "threads must be at least 1".into(),
            });
        }
        if self.witness && matches!(&self.initial_bound, Some((_, None))) {
            return Err(MinCutError::InvalidOptions {
                message: "initial_bound without a witness side cannot improve a witness-tracking \
                          run; supply the bound's side or disable witness tracking"
                    .into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let o = SolveOptions::new()
            .seed(7)
            .pq(PqKind::BStack)
            .threads(3)
            .witness(false)
            .time_budget(Duration::from_secs(1));
        assert_eq!(o.seed, 7);
        assert_eq!(o.pq, PqKind::BStack);
        assert_eq!(o.threads, 3);
        assert!(!o.witness);
        assert_eq!(o.time_budget, Some(Duration::from_secs(1)));
        assert!(o.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_values() {
        assert!(SolveOptions::new().threads(0).validate().is_err());
    }

    #[test]
    fn sideless_initial_bound_requires_witness_off() {
        // A witness-tracking run cannot adopt a bound it has no side
        // for; this used to be a panic deep inside NOI.
        assert!(SolveOptions::new()
            .initial_bound(1, None)
            .validate()
            .is_err());
        assert!(SolveOptions::new()
            .initial_bound(1, None)
            .witness(false)
            .validate()
            .is_ok());
        assert!(SolveOptions::new()
            .initial_bound(1, Some(vec![true, false]))
            .validate()
            .is_ok());
    }
}
