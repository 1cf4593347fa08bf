//! Compressed-sparse-row graph representation and its builder.

use std::sync::OnceLock;

use crate::storage::CsrStorage;
use crate::{EdgeWeight, NodeId};

/// An immutable simple undirected graph with positive integer edge weights,
/// stored in compressed-sparse-row form (every undirected edge appears as
/// two arcs).
///
/// Invariants guaranteed by [`GraphBuilder`]:
/// * no self-loops;
/// * no parallel edges (duplicates are merged by summing weights);
/// * adjacency lists sorted by neighbour id;
/// * all weights ≥ 1.
///
/// Every section lives behind [`CsrStorage`]: graphs built in memory
/// own their `Vec`s, graphs loaded from an `.smcpack` file (see
/// [`crate::pack`]) borrow read-only mmap windows — solvers cannot tell
/// the difference.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `xadj[v]..xadj[v+1]` indexes `adj`/`weight` for vertex `v`. Length n+1.
    xadj: CsrStorage<usize>,
    /// Arc targets. Length 2m.
    adj: CsrStorage<NodeId>,
    /// Arc weights, parallel to `adj`.
    weight: CsrStorage<EdgeWeight>,
    /// Weighted degree of every vertex (the paper's c(v)).
    wdeg: CsrStorage<EdgeWeight>,
    /// Lazily computed [`CsrGraph::fingerprint`]; seeded from the pack
    /// header on load, invalidated by the in-place rebuild.
    fp: OnceLock<u64>,
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        // The cached fingerprint is derived state and deliberately
        // excluded: an uncached graph equals its cached twin.
        self.xadj == other.xadj
            && self.adj == other.adj
            && self.weight == other.weight
            && self.wdeg == other.wdeg
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Builds a graph directly from an edge list. Convenience wrapper around
    /// [`GraphBuilder`], with its caller contract: the total edge weight
    /// W (each undirected edge counted once, duplicates included) is at
    /// most `EdgeWeight::MAX / 2`. Under that bound every weighted
    /// degree, every cut value and the arc sum 2W fit in an
    /// [`EdgeWeight`]; the text readers in [`crate::io`] reject inputs
    /// that break it.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId, EdgeWeight)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// Builds an unweighted graph (all weights 1) from an edge list.
    pub fn from_unweighted_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v, 1);
        }
        b.build()
    }

    /// The empty graph.
    pub fn empty() -> Self {
        CsrGraph {
            xadj: vec![0].into(),
            adj: Vec::new().into(),
            weight: Vec::new().into(),
            wdeg: Vec::new().into(),
            fp: OnceLock::new(),
        }
    }

    /// Assembles a graph directly from validated storage sections; used
    /// by the pack loaders in [`crate::pack`], which guarantee the CSR
    /// invariants (structurally checked; content vouched for by the
    /// stored fingerprint and the round-trip test suite).
    pub(crate) fn from_storage_unchecked(
        xadj: CsrStorage<usize>,
        adj: CsrStorage<NodeId>,
        weight: CsrStorage<EdgeWeight>,
        wdeg: CsrStorage<EdgeWeight>,
        fingerprint: u64,
    ) -> CsrGraph {
        let fp = OnceLock::new();
        let _ = fp.set(fingerprint);
        CsrGraph {
            xadj,
            adj,
            weight,
            wdeg,
            fp,
        }
    }

    /// The raw CSR sections `(xadj, adj, weight, wdeg)`; consumed by the
    /// pack writer.
    pub(crate) fn csr_sections(&self) -> (&[usize], &[NodeId], &[EdgeWeight], &[EdgeWeight]) {
        (&self.xadj, &self.adj, &self.weight, &self.wdeg)
    }

    /// Whether any CSR section borrows a file mapping instead of owning
    /// heap memory (true for graphs loaded via [`crate::pack::load_pack`]).
    pub fn is_mmap_backed(&self) -> bool {
        self.xadj.is_mapped()
            || self.adj.is_mapped()
            || self.weight.is_mapped()
            || self.wdeg.is_mapped()
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Number of stored arcs (2m).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.adj.len()
    }

    /// Unweighted degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Weighted degree c(v): sum of weights of incident edges.
    #[inline]
    pub fn weighted_degree(&self, v: NodeId) -> EdgeWeight {
        self.wdeg[v as usize]
    }

    /// Neighbour ids of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Weights of the arcs out of `v`, parallel to [`CsrGraph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> &[EdgeWeight] {
        &self.weight[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Iterator over `(neighbour, weight)` arcs of `v`.
    #[inline]
    pub fn arcs(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.neighbor_weights(v).iter().copied())
    }

    /// The `(targets, weights)` CSR rows of `v` as parallel slices, the
    /// form the CAPFOREST scan loops index directly.
    #[inline]
    pub fn arc_slices(&self, v: NodeId) -> (&[NodeId], &[EdgeWeight]) {
        let lo = self.xadj[v as usize];
        let hi = self.xadj[v as usize + 1];
        (&self.adj[lo..hi], &self.weight[lo..hi])
    }

    /// Software-prefetches the head of `v`'s CSR rows (targets and
    /// weights). Hot loops that know which vertex they will scan next
    /// call this one iteration ahead so the arc stream is already in
    /// cache when the scan arrives; out-of-range `v` is ignored (a
    /// prefetch is a hint, never a fault).
    #[inline]
    pub fn prefetch_arcs(&self, v: NodeId) {
        if (v as usize) < self.n() {
            let lo = self.xadj[v as usize];
            mincut_ds::simd::prefetch_read(&self.adj, lo);
            mincut_ds::simd::prefetch_read(&self.weight, lo);
        }
    }

    /// Iterator over undirected edges `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeWeight)> + '_ {
        (0..self.n() as NodeId)
            .flat_map(move |u| self.arcs(u).map(move |(v, w)| (u, v, w)))
            .filter(|&(u, v, _)| u < v)
    }

    /// Weight of the edge `{u, v}` if present: binary search on the
    /// smaller adjacency list, sound because the builder guarantees every
    /// list is sorted ascending (asserted by the
    /// `edge_weight_binary_search_matches_linear_scan` test below and the
    /// builder property suite).
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<EdgeWeight> {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let nbrs = self.neighbors(a);
        nbrs.binary_search(&b)
            .ok()
            .map(|i| self.neighbor_weights(a)[i])
    }

    /// Sum of all edge weights.
    pub fn total_edge_weight(&self) -> EdgeWeight {
        self.weight.iter().sum::<EdgeWeight>() / 2
    }

    /// Canonical 64-bit fingerprint of the graph: FNV-1a over the vertex
    /// count and the normalised edge list `(u, v, w)` with `u < v` in
    /// lexicographic order. Because the builder invariants make the CSR
    /// form canonical (sorted adjacency, merged duplicates, no
    /// self-loops), two graphs compare equal iff their fingerprints are
    /// computed over identical streams — so the fingerprint is a stable,
    /// process-independent cache key for result memoisation
    /// (equal-by-value graphs collide on purpose; isomorphic but
    /// relabelled graphs do not).
    ///
    /// **Mutation hazard.** A fingerprint identifies *this* edge set and
    /// must never be carried across any mutation of the underlying
    /// instance: a cache keyed by it would silently serve results for a
    /// graph that no longer exists. `CsrGraph` itself is immutable, so
    /// the only mutation path in the workspace is
    /// [`DeltaGraph`](crate::DeltaGraph), and no cache is keyed by a
    /// graph that mutates: the service answers a hosted graph's reads
    /// from its own maintainer.
    ///
    /// The value is computed once and cached (`CsrGraph` is immutable;
    /// the in-place rebuilds of recycled buffers reset the cache).
    /// Graphs loaded from an `.smcpack` file arrive with the cache
    /// pre-seeded from the pack header, so service cache keys cost zero
    /// hashing on reload.
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| self.compute_fingerprint())
    }

    /// The O(m) fingerprint hash, bypassing the cache; the pack reader
    /// uses this to cross-check a stored header fingerprint in tests.
    pub fn compute_fingerprint(&self) -> u64 {
        use mincut_ds::hash::{fnv1a_u64, FNV1A_OFFSET};
        let mut h = fnv1a_u64(FNV1A_OFFSET, self.n() as u64);
        for (u, v, w) in self.edges() {
            h = fnv1a_u64(h, u as u64);
            h = fnv1a_u64(h, v as u64);
            h = fnv1a_u64(h, w);
        }
        h
    }

    /// Minimum weighted degree and one vertex attaining it. The trivial cut
    /// `({v}, V∖{v})` of that vertex is the paper's initial upper bound λ̂.
    pub fn min_weighted_degree(&self) -> Option<(NodeId, EdgeWeight)> {
        (0..self.n() as NodeId)
            .map(|v| (v, self.weighted_degree(v)))
            .min_by_key(|&(_, d)| d)
    }

    /// Minimum unweighted degree δ(G).
    pub fn min_degree(&self) -> Option<usize> {
        (0..self.n() as NodeId).map(|v| self.degree(v)).min()
    }

    /// Average unweighted degree 2m/n.
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.n() as f64
        }
    }

    /// Value of the cut defined by `side` (vertices with `side[v] == true`
    /// on one side): sum of weights of edges with endpoints on different
    /// sides. Used to verify every solver's output.
    pub fn cut_value(&self, side: &[bool]) -> EdgeWeight {
        assert_eq!(side.len(), self.n(), "side vector must cover all vertices");
        let mut cut = 0;
        for u in 0..self.n() as NodeId {
            if !side[u as usize] {
                continue;
            }
            for (v, w) in self.arcs(u) {
                if !side[v as usize] {
                    cut += w;
                }
            }
        }
        cut
    }

    /// Whether `side` is a proper cut: both sides non-empty.
    pub fn is_proper_cut(&self, side: &[bool]) -> bool {
        side.len() == self.n() && side.iter().any(|&s| s) && side.iter().any(|&s| !s)
    }

    /// Induced subgraph on `keep` (vertices with `keep[v] == true`).
    ///
    /// Returns the subgraph and the list mapping new ids to old ids.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (CsrGraph, Vec<NodeId>) {
        assert_eq!(keep.len(), self.n());
        const ABSENT: NodeId = NodeId::MAX;
        let mut new_id = vec![ABSENT; self.n()];
        let mut old_ids = Vec::new();
        for v in 0..self.n() {
            if keep[v] {
                new_id[v] = old_ids.len() as NodeId;
                old_ids.push(v as NodeId);
            }
        }
        let mut b = GraphBuilder::new(old_ids.len());
        for &old_u in &old_ids {
            let nu = new_id[old_u as usize];
            for (old_v, w) in self.arcs(old_u) {
                if old_u < old_v && keep[old_v as usize] {
                    b.add_edge(nu, new_id[old_v as usize], w);
                }
            }
        }
        (b.build(), old_ids)
    }

    /// Relabels vertices by `perm` (new id of old vertex `v` is `perm[v]`).
    /// `perm` must be a permutation of `0..n`.
    pub fn permuted(&self, perm: &[NodeId]) -> CsrGraph {
        assert_eq!(perm.len(), self.n());
        let mut b = GraphBuilder::new(self.n());
        for (u, v, w) in self.edges() {
            b.add_edge(perm[u as usize], perm[v as usize], w);
        }
        b.build()
    }

    /// Internal constructor from normalised parts, used by the builder
    /// and the METIS reader.
    pub(crate) fn from_sorted_dedup_edges(
        n: usize,
        edges: &[(NodeId, NodeId, EdgeWeight)],
    ) -> CsrGraph {
        let mut g = CsrGraph::empty();
        g.rebuild_from_sorted_dedup_edges(n, edges);
        g
    }

    /// Empties this graph for an in-place rebuild and hands out its owned
    /// `(xadj, adj, weight, wdeg)` buffers, each cleared with its capacity
    /// kept (a mapped section is replaced by an empty `Vec`, not copied).
    /// The caller refills them to the CSR invariants (`xadj` starts
    /// at 0 and has n + 1 entries; rows sorted, no self-loops, no repeated
    /// targets). The cached fingerprint is reset. The
    /// [`ContractionEngine`](crate::contract::ContractionEngine) and the
    /// edge-list rebuild below write their rows through this, so a
    /// recycled graph's allocation is reused.
    pub(crate) fn sections_for_rebuild(
        &mut self,
    ) -> (
        &mut Vec<usize>,
        &mut Vec<NodeId>,
        &mut Vec<EdgeWeight>,
        &mut Vec<EdgeWeight>,
    ) {
        self.fp = OnceLock::new();
        (
            self.xadj.cleared(),
            self.adj.cleared(),
            self.weight.cleared(),
            self.wdeg.cleared(),
        )
    }

    /// Rebuilds this graph in place from a normalised edge list (`u < v`,
    /// strictly ascending by `(u, v)`), reusing the existing CSR buffers'
    /// capacity: the core of [`GraphBuilder::build`] and of
    /// [`DeltaGraph::compact`](crate::DeltaGraph::compact), which recycles
    /// its retired base. One counting scatter in edge order writes every
    /// row already sorted: row `x` first receives its lower neighbours
    /// from the edges `(u, x)`, in ascending `u`, and then its upper
    /// neighbours from the edges `(x, v)`, in ascending `v`.
    pub(crate) fn rebuild_from_sorted_dedup_edges(
        &mut self,
        n: usize,
        edges: &[(NodeId, NodeId, EdgeWeight)],
    ) {
        debug_assert!(
            edges.iter().all(|&(u, v, _)| u < v),
            "edges must be normalised u < v"
        );
        debug_assert!(
            edges
                .windows(2)
                .all(|e| (e[0].0, e[0].1) < (e[1].0, e[1].1)),
            "edges must be strictly ascending by (u, v)"
        );
        // A mapped graph recycled as a rebuild target becomes an ordinary
        // owned one here.
        let (xadj, adj, weight, wdeg) = self.sections_for_rebuild();
        xadj.resize(n + 1, 0);
        wdeg.resize(n, 0);
        for &(u, v, w) in edges {
            xadj[u as usize + 1] += 1;
            xadj[v as usize + 1] += 1;
            wdeg[u as usize] = wdeg[u as usize].wrapping_add(w);
            wdeg[v as usize] = wdeg[v as usize].wrapping_add(w);
        }
        for i in 0..n {
            xadj[i + 1] += xadj[i];
        }
        adj.resize(xadj[n], 0);
        weight.resize(xadj[n], 0);
        // `xadj[x]` is row x's write cursor: it walks from the row's start
        // to its end, the start of row x + 1, so one shift right restores
        // the offsets.
        for &(u, v, w) in edges {
            let cu = xadj[u as usize];
            adj[cu] = v;
            weight[cu] = w;
            xadj[u as usize] += 1;
            let cv = xadj[v as usize];
            adj[cv] = u;
            weight[cv] = w;
            xadj[v as usize] += 1;
        }
        xadj.copy_within(0..n, 1);
        xadj[0] = 0;
    }
}

/// Accumulates an edge list and normalises it into a [`CsrGraph`]:
/// self-loops are dropped, duplicate/parallel edges are merged by summing
/// their weights, zero-weight edges are dropped.
///
/// Caller contract: the weights added sum to at most
/// `EdgeWeight::MAX / 2`. Neither the merge nor the solvers check for
/// overflow, so past that bound weights, degrees and cut values wrap.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, EdgeWeight)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}` with weight `w`. Self-loops and
    /// zero weights are silently dropped; duplicates merge at `build`.
    #[inline]
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        if u == v || w == 0 {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
    }

    /// Normalises and freezes into a [`CsrGraph`].
    pub fn build(self) -> CsrGraph {
        CsrGraph::from_sorted_dedup_edges(self.n, &self.into_merged_edges())
    }

    /// The buffered edges sorted by `(u, v)` with `u < v`, parallel
    /// copies merged by summing their weights.
    pub(crate) fn into_merged_edges(mut self) -> Vec<(NodeId, NodeId, EdgeWeight)> {
        self.edges
            .sort_unstable_by_key(|&(u, v, _)| ((u as u64) << 32) | v as u64);
        // Merge duplicates in place.
        let mut out = 0usize;
        for i in 0..self.edges.len() {
            if out > 0
                && self.edges[out - 1].0 == self.edges[i].0
                && self.edges[out - 1].1 == self.edges[i].1
            {
                self.edges[out - 1].2 += self.edges[i].2;
            } else {
                self.edges[out] = self.edges[i];
                out += 1;
            }
        }
        self.edges.truncate(out);
        self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1, 2), (1, 2, 3), (0, 2, 5)])
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.weighted_degree(0), 7);
        assert_eq!(g.weighted_degree(1), 5);
        assert_eq!(g.weighted_degree(2), 8);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbor_weights(0), &[2, 5]);
        assert_eq!(g.total_edge_weight(), 10);
    }

    #[test]
    fn self_loops_and_duplicates_normalised() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1), (1, 0, 2), (0, 0, 7), (1, 2, 1), (2, 1, 0)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(3)); // merged 1 + 2
        assert_eq!(g.edge_weight(1, 2), Some(1)); // zero-weight dup dropped
        assert_eq!(g.edge_weight(0, 2), None);
    }

    #[test]
    fn adjacency_sorted() {
        let g = CsrGraph::from_edges(5, &[(4, 2, 1), (4, 0, 1), (4, 3, 1), (4, 1, 1), (1, 0, 1)]);
        assert_eq!(g.neighbors(4), &[0, 1, 2, 3]);
        assert_eq!(g.neighbors(0), &[1, 4]);
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let g = triangle();
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1, 2), (0, 2, 5), (1, 2, 3)]);
    }

    #[test]
    fn cut_value_matches_manual() {
        let g = triangle();
        // {0} vs {1,2}: edges (0,1)=2 and (0,2)=5 cut.
        assert_eq!(g.cut_value(&[true, false, false]), 7);
        // {0,1} vs {2}: edges (0,2)=5 and (1,2)=3 cut.
        assert_eq!(g.cut_value(&[true, true, false]), 8);
        assert!(g.is_proper_cut(&[true, false, false]));
        assert!(!g.is_proper_cut(&[true, true, true]));
    }

    #[test]
    fn min_weighted_degree_found() {
        let g = triangle();
        assert_eq!(g.min_weighted_degree(), Some((1, 5)));
        assert_eq!(g.min_degree(), Some(2));
    }

    #[test]
    fn induced_subgraph_remaps() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)]);
        let (sub, old) = g.induced_subgraph(&[true, false, true, true]);
        assert_eq!(old, vec![0, 2, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2); // edges (2,3) and (3,0) survive
        assert_eq!(sub.edge_weight(1, 2), Some(3)); // old (2,3)
        assert_eq!(sub.edge_weight(2, 0), Some(4)); // old (3,0)
    }

    #[test]
    fn permuted_preserves_structure() {
        let g = triangle();
        let p = g.permuted(&[2, 0, 1]);
        assert_eq!(p.m(), 3);
        assert_eq!(p.edge_weight(2, 0), Some(2)); // old (0,1)
        assert_eq!(p.edge_weight(0, 1), Some(3)); // old (1,2)
        assert_eq!(p.edge_weight(2, 1), Some(5)); // old (0,2)
        assert_eq!(p.total_edge_weight(), g.total_edge_weight());
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::empty();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        let g = CsrGraph::from_edges(3, &[(0, 1, 1)]);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.weighted_degree(2), 0);
        assert_eq!(g.min_weighted_degree(), Some((2, 0)));
    }

    /// The binary search in `edge_weight` is only correct because the
    /// builder keeps every adjacency list sorted; assert the invariant
    /// and the search result against a plain linear scan on a graph
    /// built from deliberately shuffled, duplicated input.
    #[test]
    fn edge_weight_binary_search_matches_linear_scan() {
        let edges: Vec<(NodeId, NodeId, EdgeWeight)> = vec![
            (7, 2, 3),
            (0, 5, 1),
            (5, 0, 2), // duplicate, merges to 3
            (3, 4, 9),
            (6, 1, 4),
            (1, 6, 0), // zero weight, dropped
            (2, 0, 7),
            (4, 7, 2),
            (5, 3, 6),
            (0, 7, 1),
        ];
        let g = CsrGraph::from_edges(8, &edges);
        for v in 0..g.n() as NodeId {
            assert!(
                g.neighbors(v).windows(2).all(|w| w[0] < w[1]),
                "builder must keep vertex {v}'s list strictly sorted"
            );
        }
        for u in 0..g.n() as NodeId {
            for v in 0..g.n() as NodeId {
                let linear = g
                    .neighbors(u)
                    .iter()
                    .position(|&x| x == v)
                    .map(|i| g.neighbor_weights(u)[i]);
                assert_eq!(g.edge_weight(u, v), linear, "({u},{v})");
            }
        }
    }

    #[test]
    fn fingerprint_is_canonical_over_edge_order() {
        // Same edge set in any insertion order (and with split duplicate
        // weights) normalises to the same graph, hence one fingerprint.
        let a = CsrGraph::from_edges(4, &[(0, 1, 2), (1, 2, 1), (2, 3, 4)]);
        let b = CsrGraph::from_edges(4, &[(2, 3, 4), (1, 0, 2), (2, 1, 1)]);
        let c = CsrGraph::from_edges(4, &[(0, 1, 1), (0, 1, 1), (1, 2, 1), (2, 3, 4)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_separates_value_weight_and_size_changes() {
        let base = CsrGraph::from_edges(4, &[(0, 1, 2), (1, 2, 1), (2, 3, 4)]);
        let weight = CsrGraph::from_edges(4, &[(0, 1, 2), (1, 2, 2), (2, 3, 4)]);
        let shape = CsrGraph::from_edges(4, &[(0, 1, 2), (1, 3, 1), (2, 3, 4)]);
        let bigger = CsrGraph::from_edges(5, &[(0, 1, 2), (1, 2, 1), (2, 3, 4)]);
        assert_ne!(base.fingerprint(), weight.fingerprint());
        assert_ne!(base.fingerprint(), shape.fingerprint());
        assert_ne!(base.fingerprint(), bigger.fingerprint());
    }
}
