//! # mincut-flow — maximum flow and flow-based global minimum cut
//!
//! The flow-based side of the paper's evaluation:
//!
//! * [`max_flow`] — the Goldberg–Tarjan push-relabel maximum-flow
//!   algorithm (highest-label selection, gap heuristic, exact initial
//!   distance labels) on undirected graphs — a [`mincut_graph::CsrGraph`]
//!   or a live [`mincut_graph::DeltaGraph`], through [`FlowGraph`] — the
//!   crate's one s-t engine. Its [`MaxFlowResult`] yields the flow value,
//!   the largest minimum-cut source side, and *every* minimum s-t cut
//!   from the closed sets of the residual network (the per-pair primitive
//!   behind the cactus subsystem of `mincut-core`). A [`FlowEngine`]
//!   keeps its buffers across the flows of a loop;
//! * [`GomoryHuTree`] — Gusfield's cut tree of all pairwise connectivities,
//!   built with n−1 flows through one [`FlowEngine`];
//! * [`hao_orlin`] — the Hao–Orlin global minimum cut algorithm, which runs
//!   n−1 flow phases while *retaining* distance labels and parking
//!   irrelevant vertices in dormant sets. This is the Rust counterpart of
//!   the paper's comparator **HO-CGKLS** (the `ho` variant of Chekuri,
//!   Goldberg, Karger, Levine and Stein).

#![deny(unsafe_code)]

mod closed_sets;
mod gomory_hu;
mod hao_orlin;
mod push_relabel;
mod residual;

pub use gomory_hu::GomoryHuTree;
pub use hao_orlin::{hao_orlin, HaoOrlinResult};
pub use push_relabel::{max_flow, FlowEngine, FlowGraph, MaxFlowResult};
