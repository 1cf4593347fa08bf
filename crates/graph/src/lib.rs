//! # mincut-graph — graph substrate for shared-memory minimum cut
//!
//! Everything the solvers in `mincut-core` and `mincut-flow` need to stand
//! on, built from scratch:
//!
//! * [`CsrGraph`] — an immutable, cache-friendly compressed-sparse-row
//!   representation of a simple undirected graph with positive integer edge
//!   weights, plus the [`GraphBuilder`] that normalises arbitrary edge lists
//!   (duplicate merging, self-loop removal) into it;
//! * [`delta`] — the [`DeltaGraph`] dynamic overlay: an immutable CSR
//!   base plus an insert/delete edge overlay with an epoch counter, O(Δ)
//!   composed queries and an allocation-recycling `compact()`. This is
//!   the workspace's **only** mutation path — everything else keys
//!   caches off the immutable [`CsrGraph::fingerprint`];
//! * [`contract`] — weighted graph contraction (§3.2 of the paper),
//!   collapsing union-find blocks into single vertices while summing
//!   parallel edge weights. The [`ContractionEngine`] writes each
//!   contracted vertex's CSR row directly into a double buffer, so
//!   repeated contraction rounds are allocation-free after warm-up;
//! * [`partition`] — the [`Membership`] witness tracker (§3.3) mapping
//!   contracted vertices back to the original vertex set;
//! * [`generators`] — the instance families of the paper's evaluation:
//!   random hyperbolic graphs (Appendix A.1), RMAT and preferential
//!   attachment proxies for the web/social instances, Erdős–Rényi graphs,
//!   and deterministic families with *known* minimum cuts for testing;
//! * [`kcore`] — the O(m) core-decomposition of Batagelj & Zaversnik used to
//!   prepare the paper's real-world instances (Appendix A.2);
//! * [`components`] — connected components (the paper's instances are the
//!   largest connected component of a k-core);
//! * [`io`] — METIS and edge-list readers/writers;
//! * [`pack`] — the `.smcpack` binary graph format: a little-endian,
//!   length-prefixed dump of the exact CSR sections with a stored
//!   fingerprint, plus an O(1)-validating mmap loader that serves graphs
//!   **zero-copy** (sections borrow the mapping via [`storage`], no
//!   per-edge allocation, parse, or hash on reload).

#![deny(unsafe_code)]

pub mod components;
pub mod contract;
mod csr;
pub mod delta;
pub mod generators;
pub mod io;
pub mod kcore;
pub mod pack;
pub mod partition;
pub mod storage;

pub use contract::ContractionEngine;
pub use csr::{CsrGraph, GraphBuilder};
pub use delta::DeltaGraph;
pub use partition::{signature_classes, Membership};

/// Vertex identifier. Graphs up to ~4.2 billion vertices.
pub type NodeId = u32;

/// Edge weight. The paper assumes non-negative integer weights; we use `u64`
/// so that accumulated connectivities and cut values never overflow for any
/// realistic input.
pub type EdgeWeight = u64;
