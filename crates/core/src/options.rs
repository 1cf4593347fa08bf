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
use crate::reduce::Reductions;

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
    /// propagation orders, Karger–Stein contractions).
    pub seed: u64,
    /// Priority queue for the NOI scans, unless the solver name pins one
    /// (e.g. `NOIλ̂-BStack`).
    pub pq: PqKind,
    /// Worker threads for the parallel solvers.
    pub threads: usize,
    /// Independent repetitions for Monte-Carlo solvers (Karger–Stein).
    pub repetitions: usize,
    /// Approximation slack ε for Matula's (2+ε)-approximation.
    pub epsilon: f64,
    /// Optional starting bound: the value of an **actual cut** of the
    /// input (with its side, if known). Exactness is lost if the value
    /// does not correspond to a real cut.
    pub initial_bound: Option<(EdgeWeight, Option<Vec<bool>>)>,
    /// Track and return the cut side. Disable to measure value-only runs
    /// the way the paper does.
    pub witness: bool,
    /// Optional wall-clock budget; solvers check it between rounds and
    /// fail with [`MinCutError::TimeBudgetExceeded`] when it runs out.
    pub time_budget: Option<Duration>,
    /// Kernelization passes run before the solver's main loop (default:
    /// the full pipeline). See [`Reductions`] and the
    /// [`reduce`](crate::reduce) module; exactness is never affected —
    /// the pipeline maintains `λ(G) = min(λ̂, λ(kernel))`.
    pub reductions: Reductions,
}

/// Cached hardware parallelism. `available_parallelism()` re-reads
/// cgroup limits on every call (~0.5ms in containers) and
/// `SolveOptions::default()` sits on the per-solve path, so the probe
/// must run once per process.
pub(crate) fn hardware_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            seed: 0xC0FFEE,
            pq: PqKind::Heap,
            threads: hardware_threads(),
            repetitions: 16,
            epsilon: 0.5,
            initial_bound: None,
            witness: true,
            time_budget: None,
            reductions: Reductions::default(),
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

    pub fn repetitions(mut self, repetitions: usize) -> Self {
        self.repetitions = repetitions;
        self
    }

    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

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

    /// Selects the kernelization passes (see [`Reductions`]).
    pub fn reductions(mut self, reductions: Reductions) -> Self {
        self.reductions = reductions;
        self
    }

    /// Disables kernelization (the CLI's `--no-reduce`).
    pub fn no_reductions(mut self) -> Self {
        self.reductions = Reductions::None;
        self
    }

    /// Field-level validation shared by every solver.
    pub fn validate(&self) -> Result<(), MinCutError> {
        if self.threads == 0 {
            return Err(MinCutError::InvalidOptions {
                message: "threads must be at least 1".into(),
            });
        }
        if self.repetitions == 0 {
            return Err(MinCutError::InvalidOptions {
                message: "repetitions must be at least 1".into(),
            });
        }
        if self.epsilon.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(MinCutError::InvalidOptions {
                message: format!("epsilon must be positive, got {}", self.epsilon),
            });
        }
        self.reductions.validate()?;
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
            .repetitions(5)
            .epsilon(0.25)
            .witness(false)
            .time_budget(Duration::from_secs(1));
        assert_eq!(o.seed, 7);
        assert_eq!(o.pq, PqKind::BStack);
        assert_eq!(o.threads, 3);
        assert_eq!(o.repetitions, 5);
        assert_eq!(o.epsilon, 0.25);
        assert!(!o.witness);
        assert_eq!(o.time_budget, Some(Duration::from_secs(1)));
        assert!(o.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_values() {
        assert!(SolveOptions::new().threads(0).validate().is_err());
        assert!(SolveOptions::new().repetitions(0).validate().is_err());
        assert!(SolveOptions::new().epsilon(0.0).validate().is_err());
        assert!(SolveOptions::new().epsilon(f64::NAN).validate().is_err());
    }

    #[test]
    fn reduction_selections_validate() {
        assert!(SolveOptions::new().no_reductions().validate().is_ok());
        assert!(SolveOptions::new()
            .reductions(Reductions::Only(vec!["heavy-edge".into()]))
            .validate()
            .is_ok());
        assert!(SolveOptions::new()
            .reductions(Reductions::Only(vec!["bogus".into()]))
            .validate()
            .is_err());
        assert_eq!(SolveOptions::new().reductions, Reductions::All);
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
