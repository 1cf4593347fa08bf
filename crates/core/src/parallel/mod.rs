//! The shared-memory parallel exact minimum cut (§3.2–3.3 of the paper):
//! [`parallel_capforest`] (Algorithm 1) grows disjoint scan regions from
//! random start vertices on every thread, marking contractible edges in
//! a shared concurrent union-find. ParCut (Algorithm 2, registered as
//! `ParCutλ̂`, CLI `parcut`) wraps it with VieCut bounding, parallel
//! contraction and the sequential fallback.

pub mod capforest;
pub(crate) mod mincut;

pub use capforest::{parallel_capforest, ParCapforestOutcome, ParWorkerPool};
