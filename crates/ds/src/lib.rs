//! # mincut-ds — data structures for shared-memory minimum cut
//!
//! This crate provides the data-structure substrate used by the exact
//! minimum-cut algorithms of the companion crate `mincut-core`, reproducing
//! the components described in *"Shared-memory Exact Minimum Cuts"*
//! (Henzinger, Noe, Schulz; IPDPS 2019). It has no dependencies.
//!
//! * addressable max-priority queues whose choice drives the scan order
//!   of the CAPFOREST routine (§3.1.3 of the paper): one bucket queue,
//!   [`pq::BucketPq`], at the paper's two tie orders —
//!   [`pq::BStackPq`] (LIFO within a bucket) and
//!   [`pq::BQueuePq`] (FIFO within a bucket) — and
//!   [`pq::BinaryHeapPq`] (addressable bottom-up binary heap);
//! * a sequential [`UnionFind`] and a wait-free [`ConcurrentUnionFind`]
//!   (Anderson & Woll style) used by the parallel CAPFOREST (Algorithm 1)
//!   to mark contractible edges from many threads;
//! * a fast non-cryptographic hasher ([`hash::FxHasher`]) so the hot
//!   contraction loops do not pay SipHash costs, and the one-word edge
//!   keys ([`pack_edge`]) those tables use;
//! * [`par`], the workspace's only spawner of threads: one function,
//!   [`par::map_each`], runs one scoped worker per caller-owned state.
//!
//! All structures are allocation-conscious: the bucket queue lives on flat
//! intrusive arrays with epoch-stamped O(1) [`pq::MaxPq::reset`], so one
//! queue instance serves every CAPFOREST pass of a solve without clearing
//! or reallocating (see the `pq` module docs for the layout).

#![deny(unsafe_code)]

pub mod env_knob;
pub mod hash;
pub mod par;
pub mod pq;
pub mod simd;
mod union_find;

pub use env_knob::env_knob;
pub use hash::{pack_edge, unpack_edge};
pub use union_find::{ConcurrentUnionFind, UnionFind};

/// Convenience re-export of the priority-queue trait and implementations.
pub use pq::{BQueuePq, BStackPq, BinaryHeapPq, BucketPq, CountingPq, MaxPq, PqCounters, PqKind};
