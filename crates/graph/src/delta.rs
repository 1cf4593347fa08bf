//! [`DeltaGraph`]: the workspace's one mutable graph representation.
//!
//! [`CsrGraph`] is deliberately immutable — every solver, cache and
//! fingerprint in the workspace leans on that — so an edge update used to
//! mean "rebuild from scratch and forget every cached result". A
//! `DeltaGraph` is the dynamic-workload answer: an immutable CSR **base**
//! plus a small insert/delete **overlay**, with an [`epoch`] counter that
//! advances on every successful mutation. All queries compose base and
//! overlay in O(Δ) extra work (Δ = overlay size): [`n`]/[`m`] and
//! [`weighted_degree`] are O(1) against maintained counters,
//! [`edge_weight`] is one O(log Δ) overlay lookup plus the base's
//! binary search, [`cut_value`] adds one pass over the overlay to the
//! base's cost, and [`edges`] merges the base's sorted edge stream with
//! the overlay, which is kept in the same `(u, v)` order. Readers that
//! need the whole current graph (the max-flow engine of `mincut-flow`
//! among them) stream it from [`edges`] without compacting.
//!
//! Once the overlay crosses a size ratio of the base
//! ([`DeltaGraph::COMPACT_MIN_OVERLAY`], [`DeltaGraph::COMPACT_RATIO`]),
//! [`compact`] folds it into a fresh canonical `CsrGraph` — rebuilt from
//! the already sorted merged stream, inside recycled double-buffered
//! scratch the way the
//! [`ContractionEngine`](crate::contract::ContractionEngine) ping-pongs
//! its round buffers, so steady-state compaction stops allocating.
//! Compaction never changes the logical graph: the epoch is untouched and
//! the compacted base is fingerprint-identical to
//! [`CsrGraph::from_edges`] over the merged edge list.
//!
//! **No cache keys across mutation.** [`CsrGraph::fingerprint`] must
//! never be used as a cache key across mutation, and `DeltaGraph` is the
//! only mutation path in the workspace. Nothing keys a cache by a
//! mutating graph: the service layer in `mincut-core` answers every read
//! of a hosted graph from that graph's own maintainer.
//!
//! [`epoch`]: DeltaGraph::epoch
//! [`n`]: DeltaGraph::n
//! [`m`]: DeltaGraph::m
//! [`weighted_degree`]: DeltaGraph::weighted_degree
//! [`edge_weight`]: DeltaGraph::edge_weight
//! [`cut_value`]: DeltaGraph::cut_value
//! [`edges`]: DeltaGraph::edges
//! [`compact`]: DeltaGraph::compact

use std::collections::BTreeMap;

use mincut_ds::{pack_edge, unpack_edge};

use crate::{CsrGraph, EdgeWeight, NodeId};

/// One touched edge: its current effective weight and the weight it has
/// in the base CSR (0 when the edge is new). The overlay invariant is
/// `weight != base_weight` — an entry whose override returns to the base
/// value is dropped, so the overlay only holds true differences.
#[derive(Clone, Copy, Debug)]
struct OverlayEdge {
    weight: EdgeWeight,
    base_weight: EdgeWeight,
}

/// An immutable CSR base plus an insert/delete edge overlay. See the
/// [module docs](self).
///
/// ```
/// use mincut_graph::{CsrGraph, DeltaGraph};
///
/// let base = CsrGraph::from_edges(4, &[(0, 1, 2), (1, 2, 1), (2, 3, 2)]);
/// let mut g = DeltaGraph::new(base);
/// assert_eq!(g.epoch(), 0);
///
/// g.insert_edge(3, 0, 5); // close the cycle
/// assert_eq!(g.delete_edge(1, 2), Some(1));
/// assert_eq!((g.m(), g.epoch()), (3, 2));
/// assert_eq!(g.edge_weight(0, 3), Some(5));
/// assert_eq!(g.edge_weight(1, 2), None);
///
/// // Folding the overlay yields the canonical CSR of the merged edges,
/// // which stream in ascending (u, v) order.
/// let merged: Vec<_> = g.edges().collect();
/// assert_eq!(merged, [(0, 1, 2), (0, 3, 5), (2, 3, 2)]);
/// assert_eq!(
///     g.compact().fingerprint(),
///     CsrGraph::from_edges(4, &merged).fingerprint()
/// );
/// ```
#[derive(Clone)]
pub struct DeltaGraph {
    base: CsrGraph,
    /// `pack_edge(u, v)` → override; invariant `weight != base_weight`.
    /// Key order is `(u, v)` order, so the overlay merges into the
    /// base's sorted edge stream.
    overlay: BTreeMap<u64, OverlayEdge>,
    /// Maintained weighted degrees of the *current* graph.
    wdeg: Vec<EdgeWeight>,
    /// Current undirected edge count.
    m: usize,
    /// Advances on every successful mutation (never on compaction).
    epoch: u64,
    /// Times the overlay was folded into the base.
    compactions: u64,
    /// Merged-edge staging area recycled across compactions.
    edges_scratch: Vec<(NodeId, NodeId, EdgeWeight)>,
    /// Retired base buffer; the next compaction rebuilds inside it.
    spare: Option<CsrGraph>,
}

impl DeltaGraph {
    /// Overlays smaller than this never trigger an automatic compaction
    /// (rebuilding a tiny CSR costs more than a handful of overlay lookups).
    pub const COMPACT_MIN_OVERLAY: usize = 64;

    /// Automatic compaction once `overlay ≥ base_m / COMPACT_RATIO` (and
    /// the overlay is at least [`COMPACT_MIN_OVERLAY`]): past a quarter
    /// of the base, per-query overlay passes start rivalling the one-off
    /// rebuild.
    ///
    /// [`COMPACT_MIN_OVERLAY`]: DeltaGraph::COMPACT_MIN_OVERLAY
    pub const COMPACT_RATIO: usize = 4;

    /// Wraps an immutable base; the overlay starts empty at epoch 0.
    pub fn new(base: CsrGraph) -> Self {
        let wdeg = (0..base.n() as NodeId)
            .map(|v| base.weighted_degree(v))
            .collect();
        let m = base.m();
        DeltaGraph {
            base,
            overlay: BTreeMap::new(),
            wdeg,
            m,
            epoch: 0,
            compactions: 0,
            edges_scratch: Vec::new(),
            spare: None,
        }
    }

    /// Number of vertices (fixed for the lifetime of the overlay).
    #[inline]
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// Current number of undirected edges (base minus deletions plus
    /// insertions of new edges).
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Mutation counter: 0 at construction, +1 per successful
    /// [`insert_edge`](DeltaGraph::insert_edge) /
    /// [`delete_edge`](DeltaGraph::delete_edge). Compaction does not
    /// change the logical graph and leaves it untouched.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of edges currently overridden by the overlay.
    #[inline]
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// How many times the overlay was folded into the base.
    #[inline]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The immutable CSR base. **Excludes** the overlay — call
    /// [`compact`](DeltaGraph::compact) first (or check
    /// [`overlay_len`](DeltaGraph::overlay_len) is 0) when the full
    /// current graph is needed as a `CsrGraph`.
    #[inline]
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// Weighted degree c(v) of the current graph (maintained, O(1)).
    #[inline]
    pub fn weighted_degree(&self, v: NodeId) -> EdgeWeight {
        self.wdeg[v as usize]
    }

    /// Current weight of the edge `{u, v}`, if present: one overlay
    /// lookup, falling back to the base's binary search.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<EdgeWeight> {
        if u == v {
            return None;
        }
        match self.overlay.get(&pack_edge(u, v)) {
            Some(e) if e.weight == 0 => None,
            Some(e) => Some(e.weight),
            None => self.base.edge_weight(u, v),
        }
    }

    /// Inserts the undirected edge `{u, v}` with weight `w`, merging with
    /// an existing edge by summing weights (the [`GraphBuilder`]
    /// convention). Advances the epoch.
    ///
    /// # Panics
    /// On self-loops, zero weights, or out-of-range endpoints — malformed
    /// updates are rejected with typed errors one layer up (the
    /// `mincut-core` trace parser and dynamic maintainer); reaching this
    /// with bad input is a programming error.
    ///
    /// [`GraphBuilder`]: crate::GraphBuilder
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) {
        assert!(
            (u as usize) < self.n() && (v as usize) < self.n(),
            "edge ({u},{v}) out of range for n={}",
            self.n()
        );
        assert_ne!(u, v, "self-loop on vertex {u} not allowed");
        assert!(w > 0, "zero-weight insert on edge ({u},{v})");
        let key = pack_edge(u, v);
        let base_weight = match self.overlay.get(&key) {
            Some(e) => e.base_weight,
            None => self.base.edge_weight(u, v).unwrap_or(0),
        };
        let current = match self.overlay.get(&key) {
            Some(e) => e.weight,
            None => base_weight,
        };
        if current == 0 {
            self.m += 1;
        }
        let weight = current + w;
        if weight == base_weight {
            // A deleted base edge re-inserted at exactly its base weight:
            // the override vanished.
            self.overlay.remove(&key);
        } else {
            self.overlay.insert(
                key,
                OverlayEdge {
                    weight,
                    base_weight,
                },
            );
        }
        self.wdeg[u as usize] += w;
        self.wdeg[v as usize] += w;
        self.epoch += 1;
        self.maybe_compact();
    }

    /// Deletes the undirected edge `{u, v}` entirely, returning its
    /// weight, or `None` (without advancing the epoch) when no such edge
    /// exists. Panics on out-of-range endpoints like
    /// [`insert_edge`](DeltaGraph::insert_edge).
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Option<EdgeWeight> {
        assert!(
            (u as usize) < self.n() && (v as usize) < self.n(),
            "edge ({u},{v}) out of range for n={}",
            self.n()
        );
        if u == v {
            return None;
        }
        let key = pack_edge(u, v);
        let (w, base_weight) = match self.overlay.get(&key) {
            Some(e) if e.weight == 0 => return None,
            Some(e) => (e.weight, e.base_weight),
            None => match self.base.edge_weight(u, v) {
                Some(w) => (w, w),
                None => return None,
            },
        };
        if base_weight == 0 {
            self.overlay.remove(&key);
        } else {
            self.overlay.insert(
                key,
                OverlayEdge {
                    weight: 0,
                    base_weight,
                },
            );
        }
        self.m -= 1;
        self.wdeg[u as usize] -= w;
        self.wdeg[v as usize] -= w;
        self.epoch += 1;
        self.maybe_compact();
        Some(w)
    }

    /// Iterator over the current undirected edges `(u, v, w)` with
    /// `u < v`, in ascending `(u, v)` order, each edge once: the base's
    /// sorted stream merged with the overlay (whose keys sort the same
    /// way), an override replacing or dropping its base edge.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeWeight)> + '_ {
        let mut base = self.base.edges().peekable();
        let mut overlay = self.overlay.iter().peekable();
        std::iter::from_fn(move || loop {
            let next_base = base.peek().map(|&(u, v, _)| pack_edge(u, v));
            match (next_base, overlay.peek().map(|(&key, _)| key)) {
                (None, None) => return None,
                (b, Some(key)) if b.is_none_or(|b| key <= b) => {
                    if b == Some(key) {
                        base.next();
                    }
                    let (_, e) = overlay.next().expect("peeked");
                    if e.weight > 0 {
                        let (u, v) = unpack_edge(key);
                        return Some((u, v, e.weight));
                    }
                }
                _ => return base.next(),
            }
        })
    }

    /// Value of the cut defined by `side` on the current graph: the
    /// base's cut value corrected by one pass over the overlay.
    pub fn cut_value(&self, side: &[bool]) -> EdgeWeight {
        let mut cut = self.base.cut_value(side) as i128;
        for (&key, e) in &self.overlay {
            let (u, v) = unpack_edge(key);
            if side[u as usize] != side[v as usize] {
                cut += e.weight as i128 - e.base_weight as i128;
            }
        }
        debug_assert!(cut >= 0, "cut value can never go negative");
        cut as EdgeWeight
    }

    /// Whether `side` is a proper cut of the current graph (vertex set is
    /// fixed, so this is the base's check).
    pub fn is_proper_cut(&self, side: &[bool]) -> bool {
        self.base.is_proper_cut(side)
    }

    /// Materialises the current graph as a fresh canonical [`CsrGraph`]
    /// **without** mutating the overlay — the shadow-replay path of the
    /// differential tests. Mutating callers should prefer
    /// [`compact`](DeltaGraph::compact), which reuses buffers.
    pub fn to_csr(&self) -> CsrGraph {
        let edges: Vec<_> = self.edges().collect();
        CsrGraph::from_edges(self.n(), &edges)
    }

    /// Folds the overlay into a fresh canonical [`CsrGraph`] base and
    /// returns it. The rebuild reuses the retired base's CSR buffers and
    /// the merged-edge staging list, so repeated compactions are
    /// allocation-free once warm. The logical graph and the epoch are
    /// unchanged; the new base is fingerprint-identical to
    /// [`CsrGraph::from_edges`] over the merged edge list.
    pub fn compact(&mut self) -> &CsrGraph {
        if self.overlay.is_empty() {
            return &self.base;
        }
        let mut edges = std::mem::take(&mut self.edges_scratch);
        edges.clear();
        // Already in the strictly ascending `(u, v)` order the rebuild
        // requires: no sort.
        edges.extend(self.edges());
        let mut next = self.spare.take().unwrap_or_else(CsrGraph::empty);
        next.rebuild_from_sorted_dedup_edges(self.n(), &edges);
        let old = std::mem::replace(&mut self.base, next);
        self.spare = Some(old);
        self.edges_scratch = edges;
        self.overlay.clear();
        self.compactions += 1;
        debug_assert_eq!(self.base.m(), self.m);
        debug_assert!(
            (0..self.n() as NodeId).all(|v| self.base.weighted_degree(v) == self.wdeg[v as usize])
        );
        &self.base
    }

    /// Automatic compaction policy: fold once the overlay crosses the
    /// size ratio (see [`COMPACT_RATIO`](DeltaGraph::COMPACT_RATIO)).
    fn maybe_compact(&mut self) {
        let threshold = Self::COMPACT_MIN_OVERLAY.max(self.base.m() / Self::COMPACT_RATIO);
        if self.overlay.len() >= threshold {
            self.compact();
        }
    }
}

impl From<CsrGraph> for DeltaGraph {
    fn from(base: CsrGraph) -> Self {
        DeltaGraph::new(base)
    }
}

impl std::fmt::Debug for DeltaGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaGraph")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("overlay", &self.overlay.len())
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> DeltaGraph {
        DeltaGraph::new(CsrGraph::from_edges(
            4,
            &[(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 0, 1)],
        ))
    }

    /// Materialises the current graph for comparison ([`DeltaGraph::to_csr`]
    /// is itself the from_edges-over-merged-edges spec).
    fn reference(g: &DeltaGraph) -> CsrGraph {
        g.to_csr()
    }

    #[test]
    fn queries_compose_base_and_overlay() {
        let mut g = square();
        assert_eq!((g.n(), g.m(), g.epoch()), (4, 4, 0));
        g.insert_edge(0, 2, 5); // new chord
        g.insert_edge(1, 0, 1); // merge into existing (0,1): 2 + 1
        assert_eq!(g.delete_edge(2, 3), Some(2));
        assert_eq!(g.delete_edge(2, 3), None, "double delete is a no-op");
        assert_eq!(g.epoch(), 3, "failed deletes do not advance the epoch");
        assert_eq!(g.m(), 4);

        assert_eq!(g.edge_weight(0, 2), Some(5));
        assert_eq!(g.edge_weight(0, 1), Some(3));
        assert_eq!(g.edge_weight(2, 3), None);
        assert_eq!(g.edge_weight(3, 0), Some(1));
        assert_eq!(g.edge_weight(1, 1), None);

        let reference = reference(&g);
        for v in 0..4 {
            assert_eq!(g.weighted_degree(v), reference.weighted_degree(v), "{v}");
        }
        for side in [
            vec![true, false, false, false],
            vec![true, true, false, false],
            vec![true, false, true, false],
        ] {
            assert_eq!(g.cut_value(&side), reference.cut_value(&side), "{side:?}");
        }
    }

    #[test]
    fn reinsert_at_base_weight_clears_the_override() {
        let mut g = square();
        g.delete_edge(1, 2);
        assert_eq!(g.overlay_len(), 1);
        g.insert_edge(1, 2, 1); // back to the base weight
        assert_eq!(g.overlay_len(), 0, "no-op override must vanish");
        assert_eq!(g.epoch(), 2, "the epoch still advanced twice");
        assert_eq!(g.edge_weight(1, 2), Some(1));
    }

    #[test]
    fn compact_is_fingerprint_identical_to_from_edges() {
        let mut g = square();
        g.insert_edge(0, 2, 7);
        g.delete_edge(3, 0);
        g.insert_edge(1, 3, 2);
        let reference = reference(&g);
        let (m, epoch) = (g.m(), g.epoch());
        let compacted = g.compact();
        assert_eq!(compacted.fingerprint(), reference.fingerprint());
        assert_eq!(compacted, &reference);
        assert_eq!(g.overlay_len(), 0);
        assert_eq!((g.m(), g.epoch()), (m, epoch));
        assert_eq!(g.compactions(), 1);
        // Second compact is a no-op on an empty overlay.
        g.compact();
        assert_eq!(g.compactions(), 1);
    }

    proptest::proptest! {
        /// Random overlays over a random base — deletes, inserts on new
        /// and existing edges, and deleted edges re-inserted at their
        /// base weight (the override vanishes): `edges()` streams the
        /// current edges, checked against a shadow map, in strictly
        /// ascending `(u, v)` order, and `compact()` builds the graph
        /// `from_edges` builds over them.
        #[test]
        fn merged_edge_stream_is_ascending_and_compacts_canonically(
            base in proptest::collection::vec((0u32..10, 0u32..10, 1u64..4), 0..30),
            ops in proptest::collection::vec((0u32..10, 0u32..10, 0u64..5), 1..50),
        ) {
            let n = 10;
            let base: Vec<_> = base.into_iter().filter(|&(u, v, _)| u != v).collect();
            let mut shadow = std::collections::BTreeMap::new();
            for &(u, v, w) in &base {
                *shadow.entry((u.min(v), u.max(v))).or_insert(0) += w;
            }
            let mut g = DeltaGraph::new(CsrGraph::from_edges(n, &base));
            for (u, v, op) in ops {
                if u == v {
                    continue;
                }
                let key = (u.min(v), u.max(v));
                match op {
                    0 => {
                        proptest::prop_assert_eq!(g.delete_edge(u, v), shadow.remove(&key));
                    }
                    1 => {
                        if let Some(w) = g.base().edge_weight(u, v) {
                            g.delete_edge(u, v);
                            g.insert_edge(u, v, w);
                            shadow.insert(key, w);
                        }
                    }
                    w => {
                        g.insert_edge(u, v, w - 1);
                        *shadow.entry(key).or_insert(0) += w - 1;
                    }
                }
            }
            let edges: Vec<_> = g.edges().collect();
            let expected: Vec<_> = shadow.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
            proptest::prop_assert_eq!(&edges, &expected);
            proptest::prop_assert!(edges.windows(2).all(|e| (e[0].0, e[0].1) < (e[1].0, e[1].1)));
            proptest::prop_assert_eq!(edges.len(), g.m());
            let csr_edges: Vec<_> = g.to_csr().edges().collect();
            proptest::prop_assert_eq!(&edges, &csr_edges);
            let reference = CsrGraph::from_edges(n, &expected);
            proptest::prop_assert_eq!(g.compact(), &reference);
            proptest::prop_assert_eq!(g.edges().collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn automatic_compaction_kicks_in_past_the_threshold() {
        // A base big enough that the min-overlay floor is the binding
        // threshold: insert COMPACT_MIN_OVERLAY distinct new edges.
        let base: Vec<(NodeId, NodeId, EdgeWeight)> = (0..200)
            .map(|i| (i as NodeId, (i + 1) as NodeId, 1))
            .collect();
        let mut g = DeltaGraph::new(CsrGraph::from_edges(201, &base));
        for i in 0..DeltaGraph::COMPACT_MIN_OVERLAY {
            assert_eq!(g.compactions(), 0);
            g.insert_edge(i as NodeId, (i + 100) as NodeId, 3);
        }
        assert_eq!(g.compactions(), 1, "threshold crossing must compact");
        assert_eq!(g.overlay_len(), 0);
        assert_eq!(g.m(), 200 + DeltaGraph::COMPACT_MIN_OVERLAY);
        assert_eq!(g.base().m(), g.m(), "base now carries the whole graph");
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_insert_panics() {
        square().insert_edge(2, 2, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        square().insert_edge(0, 9, 1);
    }
}
