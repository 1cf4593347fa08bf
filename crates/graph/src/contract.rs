//! Weighted graph contraction.
//!
//! Given a labelling of vertices into blocks (typically the dense labels of
//! a union-find structure filled by CAPFOREST), contraction collapses every
//! block into a single vertex, drops intra-block edges and merges parallel
//! inter-block edges by summing their weights — exactly the operation
//! `G/(u,v)` of the paper, applied to whole blocks at once.
//!
//! The hot path lives in the [`ContractionEngine`]: it owns double-buffered
//! CSR scratch (the output graph of one round is rebuilt inside the buffer
//! recycled from two rounds ago) and reusable accumulation state, so
//! repeated `contract` / `contract_parallel` / `contract_edge` rounds are
//! allocation-free once the buffers are warm. Four accumulation
//! strategies share the engine (see [`ContractionPath`]):
//!
//! * **seq-matrix** — rounds collapsing onto at most
//!   [`ContractionEngine::MATRIX_MAX_BLOCKS`] blocks accumulate into a
//!   flat `blocks × blocks` array: one indexed add per arc, no hashing.
//!   Bound-driven first rounds of clustered instances land here.
//! * **seq-hash** — one pass over the arcs into a `clear()`-and-reuse
//!   hash map; the default for sparse sequential rounds.
//! * **seq-sort** — once the estimated distinct-pair table outgrows
//!   cache ([`ContractionEngine::SORT_MIN_ESTIMATED_PAIRS`]) the packed
//!   `(block-pair, weight)` triples are radix-sorted in recycled scratch
//!   and parallel edges merged in a linear run-merge, trading the hash
//!   table's random access for streaming counting-sort passes.
//! * **parallel** — chunked workers with thread-local pre-aggregation
//!   merging into a drained-and-refilled [`ShardedMap`] (§3.2), for large
//!   sparse rounds.
//!
//! Every solver round loop in `mincut-core` drives one engine for the
//! lifetime of its solve and records [`ContractionEngine::last_path`]
//! per round into its stats report.
//!
//! Loops that contract repeatedly hold one engine and feed retired
//! graphs back through [`ContractionEngine::recycle`]; a one-off
//! contraction is `ContractionEngine::new().contract(..)`.

use mincut_ds::hash::FxHashMap;
use mincut_ds::{pack_edge, unpack_edge, ShardedMap};
use rayon::prelude::*;

use crate::partition::Membership;
use crate::{CsrGraph, EdgeWeight, NodeId};

/// Opens the `contract/round` span every accumulation path records,
/// annotated with the chosen path and the round's shape. Inert (one
/// relaxed load) when tracing is off.
fn round_span(path: &'static str, g: &CsrGraph, num_blocks: usize) -> mincut_obs::SpanGuard {
    let mut sp = mincut_obs::span("contract/round");
    sp.arg("path", path);
    sp.arg("n", g.n());
    sp.arg("arcs", g.num_arcs());
    sp.arg("blocks", num_blocks);
    sp
}

/// Which accumulation strategy a contraction round took; reported by
/// [`ContractionEngine::last_path`] so solvers can log it per round
/// (`SolverStats::contraction_paths`) and bench output can attribute
/// hash-vs-sort wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContractionPath {
    /// Sequential clear-and-reuse hash-map accumulation.
    SeqHash,
    /// Sequential radix-sort accumulation (dense rounds, many blocks).
    SeqSort,
    /// Flat `blocks × blocks` matrix accumulation (few output blocks).
    SeqMatrix,
    /// Chunked parallel accumulation through the sharded table (§3.2).
    Parallel,
}

impl std::fmt::Display for ContractionPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContractionPath::SeqHash => write!(f, "seq-hash"),
            ContractionPath::SeqSort => write!(f, "seq-sort"),
            ContractionPath::SeqMatrix => write!(f, "seq-matrix"),
            ContractionPath::Parallel => write!(f, "parallel"),
        }
    }
}

/// Reusable scratch state for repeated contraction rounds.
///
/// ```
/// use mincut_graph::{ContractionEngine, CsrGraph};
///
/// let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 5)]);
/// let mut engine = ContractionEngine::new();
/// let c = engine.contract(&g, &[0, 1, 0, 1], 2);
/// assert_eq!((c.n(), c.m()), (2, 1));
/// engine.recycle(c); // hand the buffer back for the next round
/// ```
pub struct ContractionEngine {
    /// Sequential accumulation table: packed block pair → summed weight.
    acc: FxHashMap<u64, EdgeWeight>,
    /// Shared concurrent table for the parallel path; created on first
    /// parallel contraction and drained (capacity kept) every round.
    shared: Option<ShardedMap<u64, EdgeWeight>>,
    /// Sorted `(packed edge, weight)` staging area.
    packed: Vec<(u64, EdgeWeight)>,
    /// Ping-pong buffer for the radix-sort path.
    radix_tmp: Vec<(u64, EdgeWeight)>,
    /// Digit histogram / prefix-sum scratch for the radix-sort path.
    hist: Vec<u32>,
    /// Recycled `blocks × blocks` accumulator of the matrix path, kept
    /// all-zero between rounds.
    matrix: Vec<EdgeWeight>,
    /// Unpacked normalised edge list handed to the CSR rebuild.
    edges: Vec<(NodeId, NodeId, EdgeWeight)>,
    /// Per-adjacency-list sort buffer for the CSR rebuild.
    sort_scratch: Vec<(NodeId, EdgeWeight)>,
    /// Label buffer for single-edge contractions.
    label_scratch: Vec<NodeId>,
    /// The spare half of the double buffer: the output graph is rebuilt
    /// inside this (recycled) allocation.
    spare: Option<CsrGraph>,
    /// Strategy taken by the most recent contraction call.
    last_path: ContractionPath,
}

impl Default for ContractionEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ContractionEngine {
    /// Below this vertex count [`ContractionEngine::contract_parallel`]
    /// runs the sequential path instead: parallel set-up costs (sharded
    /// table locks, chunk scheduling) dominate on small graphs. This is
    /// the single knob shared by every contraction call site and by the
    /// reduction pipeline's contraction rounds.
    pub const SEQUENTIAL_FALLBACK_THRESHOLD: usize = 1 << 12;

    /// Density heuristic for the sort-based accumulation path.
    ///
    /// The hash path's cost is dominated by random accesses into a table
    /// of distinct block pairs; the sort path streams the arcs a constant
    /// number of times regardless. `min(arcs/2, blocks²/2)` estimates the
    /// table's working set, and once that estimate reaches this constant
    /// the table has outgrown cache and the radix sort wins (measured
    /// crossover on clustered instances: ~2× at 2× the threshold, ~3× at
    /// 8×; below it the tiny table stays L1/L2-resident and hashing wins
    /// by an order of magnitude — see the `hotpath` bench).
    pub const SORT_MIN_ESTIMATED_PAIRS: usize = 1 << 16;

    /// Rounds collapsing onto at most this many blocks take the flat
    /// matrix path: a `blocks × blocks` array accumulator is one indexed
    /// add per arc (no hashing at all) and at 128 blocks tops out at a
    /// 128 KiB working set. The bound-driven first rounds of clustered
    /// instances — the hottest contractions of the NOI family — land
    /// here almost by definition.
    pub const MATRIX_MAX_BLOCKS: usize = 128;

    pub fn new() -> Self {
        ContractionEngine {
            acc: FxHashMap::default(),
            shared: None,
            packed: Vec::new(),
            radix_tmp: Vec::new(),
            hist: Vec::new(),
            matrix: Vec::new(),
            edges: Vec::new(),
            sort_scratch: Vec::new(),
            label_scratch: Vec::new(),
            spare: None,
            last_path: ContractionPath::SeqHash,
        }
    }

    /// Whether the density heuristic selects the sort path.
    #[inline]
    fn is_dense(num_arcs: usize, num_blocks: usize) -> bool {
        let pair_cap = num_blocks.saturating_mul(num_blocks) / 2;
        (num_arcs / 2).min(pair_cap) >= Self::SORT_MIN_ESTIMATED_PAIRS
    }

    /// The accumulation strategy taken by the most recent
    /// `contract*` call on this engine (for per-round telemetry).
    #[inline]
    pub fn last_path(&self) -> ContractionPath {
        self.last_path
    }

    /// Contracts `g` according to `labels` (vertex → block id in
    /// `[0, num_blocks)`). Rounds whose estimated accumulation table
    /// outgrows cache (see
    /// [`ContractionEngine::SORT_MIN_ESTIMATED_PAIRS`]) take the
    /// radix-sort path; the rest take the hash path, sequentially below
    /// [`ContractionEngine::SEQUENTIAL_FALLBACK_THRESHOLD`] vertices and
    /// through the sharded parallel table above it. Returns the
    /// contracted graph on `num_blocks` vertices, built inside a recycled
    /// buffer when one is available.
    pub fn contract(&mut self, g: &CsrGraph, labels: &[NodeId], num_blocks: usize) -> CsrGraph {
        if num_blocks <= Self::MATRIX_MAX_BLOCKS
            && g.num_arcs() >= num_blocks.saturating_mul(num_blocks)
        {
            // Matrix accumulation is one indexed add per arc — faster
            // than the parallel path's per-arc hashing at any realistic
            // worker count, so it applies regardless of graph size.
            self.contract_matrix(g, labels, num_blocks)
        } else if g.n() >= Self::SEQUENTIAL_FALLBACK_THRESHOLD {
            // Large many-block rounds keep the multi-worker sharded path
            // (the single-threaded radix sort must not replace it).
            self.contract_parallel(g, labels, num_blocks)
        } else if Self::is_dense(g.num_arcs(), num_blocks) {
            self.contract_sorted(g, labels, num_blocks)
        } else {
            self.contract_sequential(g, labels, num_blocks)
        }
    }

    /// Flat-matrix contraction for rounds with few output blocks: weights
    /// accumulate into a recycled `num_blocks × num_blocks` array (upper
    /// triangle), then one ordered sweep emits the normalised edge list —
    /// no hash table, no sort, bit-identical output to the other paths.
    pub fn contract_matrix(
        &mut self,
        g: &CsrGraph,
        labels: &[NodeId],
        num_blocks: usize,
    ) -> CsrGraph {
        assert_eq!(labels.len(), g.n());
        debug_assert!(labels.iter().all(|&l| (l as usize) < num_blocks));
        self.last_path = ContractionPath::SeqMatrix;
        let mut _sp = round_span("seq-matrix", g, num_blocks);
        // The harvest sweep below re-zeroes every cell it reads as
        // non-zero, so between rounds the buffer is all zeros and only
        // growth needs initialisation.
        if self.matrix.len() < num_blocks * num_blocks {
            self.matrix.resize(num_blocks * num_blocks, 0);
        }
        debug_assert!(self.matrix.iter().all(|&w| w == 0));
        for u in 0..g.n() as NodeId {
            let lu = labels[u as usize];
            for (v, w) in g.arcs(u) {
                if u < v {
                    let lv = labels[v as usize];
                    if lu != lv {
                        let (lo, hi) = if lu < lv { (lu, lv) } else { (lv, lu) };
                        self.matrix[lo as usize * num_blocks + hi as usize] += w;
                    }
                }
            }
        }
        // Ordered harvest — rows ascending, columns ascending — yields
        // the same sorted dedup edge list the hash + sort paths produce;
        // cells are re-zeroed on the way so the buffer is clean for the
        // next round.
        self.edges.clear();
        for lo in 0..num_blocks {
            let row = lo * num_blocks;
            for hi in (lo + 1)..num_blocks {
                let w = self.matrix[row + hi];
                if w != 0 {
                    self.matrix[row + hi] = 0;
                    self.edges.push((lo as NodeId, hi as NodeId, w));
                }
            }
        }
        let mut out = self.spare.take().unwrap_or_else(CsrGraph::empty);
        out.rebuild_from_sorted_dedup_edges(num_blocks, &self.edges, &mut self.sort_scratch);
        out
    }

    /// [`ContractionEngine::contract`] that also folds the round into a
    /// [`Membership`] witness tracker, so call sites cannot forget to keep
    /// the two in sync.
    pub fn contract_tracked(
        &mut self,
        g: &CsrGraph,
        labels: &[NodeId],
        num_blocks: usize,
        membership: &mut Membership,
    ) -> CsrGraph {
        let c = self.contract(g, labels, num_blocks);
        membership.contract(labels, num_blocks);
        c
    }

    /// Sequential contraction: one pass over the arcs, hash-map
    /// accumulation.
    pub fn contract_sequential(
        &mut self,
        g: &CsrGraph,
        labels: &[NodeId],
        num_blocks: usize,
    ) -> CsrGraph {
        assert_eq!(labels.len(), g.n());
        debug_assert!(labels.iter().all(|&l| (l as usize) < num_blocks));
        self.last_path = ContractionPath::SeqHash;
        let mut _sp = round_span("seq-hash", g, num_blocks);
        self.acc.clear();
        for u in 0..g.n() as NodeId {
            let lu = labels[u as usize];
            for (v, w) in g.arcs(u) {
                if u < v {
                    let lv = labels[v as usize];
                    if lu != lv {
                        *self.acc.entry(pack_edge(lu, lv)).or_insert(0) += w;
                    }
                }
            }
        }
        self.packed.clear();
        // `drain` keeps the map's capacity for the next round.
        let acc = &mut self.acc;
        self.packed.extend(acc.drain());
        self.build_from_packed(num_blocks)
    }

    /// Sort-based contraction for dense rounds: the packed
    /// `(block-pair, weight)` triples are gathered into recycled scratch,
    /// radix-sorted by the packed key (LSD counting sort, skipping
    /// all-zero digits), and parallel edges are merged in one linear
    /// run-merge — no hash table anywhere. Output is bit-identical to the
    /// hash paths (the packed keys sort to the same normalised edge list),
    /// which `tests/contraction_invariants.rs` pins property-style.
    pub fn contract_sorted(
        &mut self,
        g: &CsrGraph,
        labels: &[NodeId],
        num_blocks: usize,
    ) -> CsrGraph {
        assert_eq!(labels.len(), g.n());
        debug_assert!(labels.iter().all(|&l| (l as usize) < num_blocks));
        self.last_path = ContractionPath::SeqSort;
        let mut _sp = round_span("seq-sort", g, num_blocks);
        self.packed.clear();
        // OR-mask of every key, so constant digits skip their sort pass.
        let mut key_mask = 0u64;
        for u in 0..g.n() as NodeId {
            let lu = labels[u as usize];
            for (v, w) in g.arcs(u) {
                if u < v {
                    let lv = labels[v as usize];
                    if lu != lv {
                        let key = pack_edge(lu, lv);
                        key_mask |= key;
                        self.packed.push((key, w));
                    }
                }
            }
        }
        self.radix_sort_packed(key_mask);
        // Run-merge: equal keys are adjacent after the sort.
        self.edges.clear();
        let mut last_key = u64::MAX; // pack_edge output is < 2^63, never MAX
        for &(key, w) in &self.packed {
            if key == last_key {
                self.edges.last_mut().expect("run started").2 += w;
            } else {
                let (u, v) = unpack_edge(key);
                self.edges.push((u, v, w));
                last_key = key;
            }
        }
        let mut out = self.spare.take().unwrap_or_else(CsrGraph::empty);
        out.rebuild_from_sorted_dedup_edges(num_blocks, &self.edges, &mut self.sort_scratch);
        out
    }

    /// LSD radix sort of `self.packed` by key, 16-bit digits, ping-pong
    /// with the recycled `radix_tmp` buffer. Digit passes whose bits are
    /// zero in `key_mask` (every key agrees there) are skipped — packed
    /// block pairs occupy the low `log2(num_blocks)` bits of each 32-bit
    /// half, so typical rounds run exactly two of the four passes. Ends
    /// with the sorted data back in `self.packed`.
    fn radix_sort_packed(&mut self, key_mask: u64) {
        const DIGIT_BITS: u32 = 16;
        const RADIX: usize = 1 << DIGIT_BITS;
        let n = self.packed.len();
        if n <= 1 {
            return;
        }
        self.hist.clear();
        self.hist.resize(RADIX, 0);
        self.radix_tmp.clear();
        self.radix_tmp.resize(n, (0, 0));
        let mut src_is_packed = true;
        for pass in 0..(u64::BITS / DIGIT_BITS) {
            let shift = pass * DIGIT_BITS;
            if (key_mask >> shift) & (RADIX as u64 - 1) == 0 {
                continue;
            }
            let (src, dst) = if src_is_packed {
                (&mut self.packed, &mut self.radix_tmp)
            } else {
                (&mut self.radix_tmp, &mut self.packed)
            };
            // Histogram (SIMD digit extraction — counts are sums, so the
            // totals are bit-identical to the scalar loop at every
            // kernel tier), exclusive prefix sum, stable scatter.
            self.hist.iter_mut().for_each(|h| *h = 0);
            mincut_ds::simd::radix_histogram16(src, shift, &mut self.hist);
            let mut sum = 0u32;
            for h in self.hist.iter_mut() {
                let c = *h;
                *h = sum;
                sum += c;
            }
            for &(key, w) in src.iter() {
                let d = ((key >> shift) as usize) & (RADIX - 1);
                dst[self.hist[d] as usize] = (key, w);
                self.hist[d] += 1;
            }
            src_is_packed = !src_is_packed;
        }
        if !src_is_packed {
            std::mem::swap(&mut self.packed, &mut self.radix_tmp);
        }
        debug_assert!(self.packed.windows(2).all(|p| p[0].0 <= p[1].0));
    }

    /// Parallel contraction (§3.2). Semantically identical to the
    /// sequential path: chunks of vertices are processed in parallel, each
    /// worker accumulates edge weights in a local table first (the paper's
    /// optimisation for heavy block pairs: local aggregation "to reduce
    /// synchronization overhead") and then merges into a shared concurrent
    /// hash table. Falls back to the sequential path below
    /// [`ContractionEngine::SEQUENTIAL_FALLBACK_THRESHOLD`] vertices.
    pub fn contract_parallel(
        &mut self,
        g: &CsrGraph,
        labels: &[NodeId],
        num_blocks: usize,
    ) -> CsrGraph {
        assert_eq!(labels.len(), g.n());
        debug_assert!(labels.iter().all(|&l| (l as usize) < num_blocks));
        let n = g.n();
        if n < Self::SEQUENTIAL_FALLBACK_THRESHOLD {
            return self.contract_sequential(g, labels, num_blocks);
        }
        self.last_path = ContractionPath::Parallel;
        let mut _sp = round_span("parallel", g, num_blocks);
        // Take the shared table out of `self` so the borrow checker lets
        // the epilogue refill `self.packed`; it goes back (drained, with
        // its capacity) right after.
        let shared = self.shared.take().unwrap_or_else(|| ShardedMap::new(8));
        const CHUNK: usize = 1 << 13;
        let num_chunks = n.div_ceil(CHUNK);
        (0..num_chunks).into_par_iter().for_each(|c| {
            let lo = c * CHUNK;
            let hi = ((c + 1) * CHUNK).min(n);
            // Local accumulation first: parallel edges between two heavy
            // blocks are combined thread-locally, touching the shared table
            // once per distinct block pair per chunk.
            let mut local: FxHashMap<u64, EdgeWeight> = FxHashMap::default();
            for u in lo as NodeId..hi as NodeId {
                let lu = labels[u as usize];
                for (v, w) in g.arcs(u) {
                    if u < v {
                        let lv = labels[v as usize];
                        if lu != lv {
                            *local.entry(pack_edge(lu, lv)).or_insert(0) += w;
                        }
                    }
                }
            }
            for (k, w) in local {
                shared.add_weight(k, w);
            }
        });
        self.packed.clear();
        shared.drain_into(&mut self.packed);
        self.shared = Some(shared);
        self.build_from_packed(num_blocks)
    }

    /// Contracts a single edge `{a, b}`: blocks are `{a, b}` and every
    /// other vertex alone. Returns the contracted graph and the labelling
    /// used. Convenience for algorithms that contract one edge at a time
    /// (Stoer–Wagner phases, Karger–Stein leaves); loops should prefer
    /// [`ContractionEngine::contract_edge_tracked`], which reuses the
    /// engine's label buffer instead of allocating one per round.
    pub fn contract_edge(&mut self, g: &CsrGraph, a: NodeId, b: NodeId) -> (CsrGraph, Vec<NodeId>) {
        let labels = Self::edge_labels(g.n(), a, b, Vec::new());
        let c = self.contract_sequential(g, &labels, g.n() - 1);
        (c, labels)
    }

    /// [`ContractionEngine::contract_edge`] folding the round into a
    /// [`Membership`], with the label buffer reused across rounds.
    pub fn contract_edge_tracked(
        &mut self,
        g: &CsrGraph,
        a: NodeId,
        b: NodeId,
        membership: &mut Membership,
    ) -> CsrGraph {
        let labels = Self::edge_labels(g.n(), a, b, std::mem::take(&mut self.label_scratch));
        let c = self.contract_sequential(g, &labels, g.n() - 1);
        membership.contract(&labels, g.n() - 1);
        self.label_scratch = labels;
        c
    }

    /// Hands a no-longer-needed graph's buffers back to the engine: the
    /// next contraction's output is rebuilt inside them. This is the
    /// second half of the double buffer — round loops call
    /// `engine.recycle(mem::replace(&mut current, next))`.
    pub fn recycle(&mut self, g: CsrGraph) {
        if self.spare.is_none() {
            self.spare = Some(g);
        }
    }

    fn edge_labels(n: usize, a: NodeId, b: NodeId, mut labels: Vec<NodeId>) -> Vec<NodeId> {
        assert_ne!(a, b);
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        labels.clear();
        labels.reserve(n);
        for v in 0..n as NodeId {
            labels.push(if v == b {
                a
            } else if v > b {
                v - 1
            } else {
                v
            });
        }
        labels
    }

    /// Sorts the staged packed edges and rebuilds a CSR graph inside the
    /// spare buffer. The single entry point to
    /// `CsrGraph::rebuild_from_sorted_dedup_edges` for contraction: every
    /// contraction in the workspace funnels through here.
    fn build_from_packed(&mut self, num_blocks: usize) -> CsrGraph {
        self.packed.par_sort_unstable_by_key(|&(k, _)| k);
        self.edges.clear();
        self.edges.extend(self.packed.iter().map(|&(k, w)| {
            let (u, v) = unpack_edge(k);
            (u, v, w)
        }));
        let mut out = self.spare.take().unwrap_or_else(CsrGraph::empty);
        out.rebuild_from_sorted_dedup_edges(num_blocks, &self.edges, &mut self.sort_scratch);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_with_diagonal() -> CsrGraph {
        // 0-1, 1-2, 2-3, 3-0 (weight 1 each), diagonal 0-2 (weight 5)
        CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 5)])
    }

    #[test]
    fn contract_merges_parallel_edges() {
        let g = square_with_diagonal();
        // Blocks {0,2} -> 0 and {1,3} -> 1.
        let labels = vec![0, 1, 0, 1];
        let c = ContractionEngine::new().contract_sequential(&g, &labels, 2);
        assert_eq!(c.n(), 2);
        assert_eq!(c.m(), 1);
        // All four ring edges become parallel edges between the two blocks.
        assert_eq!(c.edge_weight(0, 1), Some(4));
        // Diagonal 0-2 is intra-block and disappears.
        assert_eq!(c.total_edge_weight(), 4);
    }

    #[test]
    fn contract_identity_labels_is_isomorphic() {
        let g = square_with_diagonal();
        let labels: Vec<NodeId> = (0..4).collect();
        let c = ContractionEngine::new().contract_sequential(&g, &labels, 4);
        assert_eq!(c, g);
    }

    #[test]
    fn parallel_matches_sequential() {
        // Big enough to pass the parallel threshold.
        let n = 1 << 13;
        let mut edges = Vec::new();
        for v in 0..n as NodeId {
            let u = (v + 1) % n as NodeId;
            edges.push((v, u, (v as u64 % 7) + 1)); // weighted ring
            edges.push((v, (v + 17) % n as NodeId, 2)); // chords
        }
        let g = CsrGraph::from_edges(n, &edges);
        // Blocks of 16 consecutive vertices.
        let labels: Vec<NodeId> = (0..n as NodeId).map(|v| v / 16).collect();
        let blocks = n / 16;
        let s = ContractionEngine::new().contract_sequential(&g, &labels, blocks);
        let p = ContractionEngine::new().contract_parallel(&g, &labels, blocks);
        assert_eq!(s, p);
        assert_eq!(s.n(), blocks);
    }

    #[test]
    fn contraction_preserves_cross_block_cut_values() {
        let g = square_with_diagonal();
        let labels = vec![0, 1, 0, 1];
        let c = ContractionEngine::new().contract_sequential(&g, &labels, 2);
        // Cut separating the blocks has the same value in both graphs.
        let side_g = [true, false, true, false];
        let side_c = [true, false];
        assert_eq!(g.cut_value(&side_g), c.cut_value(&side_c));
    }

    #[test]
    fn contract_edge_basic() {
        let g = square_with_diagonal();
        let (c, labels) = ContractionEngine::new().contract_edge(&g, 0, 2);
        assert_eq!(c.n(), 3);
        // Merged vertex is 0; old 3 becomes 2.
        assert_eq!(labels, vec![0, 1, 0, 2]);
        assert_eq!(c.edge_weight(0, 1), Some(2)); // (0,1) + (2,1)
        assert_eq!(c.edge_weight(0, 2), Some(2)); // (0,3) + (2,3)
        assert_eq!(c.edge_weight(1, 2), None);
    }

    #[test]
    fn contract_to_single_vertex() {
        let g = square_with_diagonal();
        let c = ContractionEngine::new().contract_sequential(&g, &[0, 0, 0, 0], 1);
        assert_eq!(c.n(), 1);
        assert_eq!(c.m(), 0);
    }

    #[test]
    fn engine_rounds_match_free_functions() {
        // Drive one engine through several rounds with recycling; every
        // round must be bit-identical to a fresh free-function call.
        let n = 1 << 13;
        let mut edges = Vec::new();
        for v in 0..n as NodeId {
            edges.push((v, (v + 1) % n as NodeId, (v as u64 % 5) + 1));
            edges.push((v, (v + 31) % n as NodeId, 3));
        }
        let mut current = CsrGraph::from_edges(n, &edges);
        let mut engine = ContractionEngine::new();
        for round in 0..4 {
            let blocks = (current.n() / 4).max(2);
            let labels: Vec<NodeId> = (0..current.n() as NodeId)
                .map(|v| v % blocks as NodeId)
                .collect();
            let expected = if round % 2 == 0 {
                ContractionEngine::new().contract_sequential(&current, &labels, blocks)
            } else {
                ContractionEngine::new().contract_parallel(&current, &labels, blocks)
            };
            let next = if round % 2 == 0 {
                engine.contract_sequential(&current, &labels, blocks)
            } else {
                engine.contract_parallel(&current, &labels, blocks)
            };
            assert_eq!(next, expected, "round {round}");
            engine.recycle(std::mem::replace(&mut current, next));
        }
    }

    #[test]
    fn engine_tracked_contraction_updates_membership() {
        let g = square_with_diagonal();
        let mut engine = ContractionEngine::new();
        let mut membership = Membership::identity(4);
        let c = engine.contract_tracked(&g, &[0, 1, 0, 1], 2, &mut membership);
        assert_eq!(c.n(), 2);
        assert_eq!(
            membership.side_of_vertices(&[0]),
            vec![true, false, true, false]
        );

        let mut membership = Membership::identity(4);
        let c = engine.contract_edge_tracked(&g, 0, 2, &mut membership);
        assert_eq!(c.n(), 3);
        assert_eq!(membership.members(0), &[0, 2]);
    }

    #[test]
    fn sorted_path_is_bit_identical_to_hash_paths() {
        let g = square_with_diagonal();
        let mut engine = ContractionEngine::new();
        let labels = vec![0, 1, 0, 1];
        let h = engine.contract_sequential(&g, &labels, 2);
        assert_eq!(engine.last_path(), ContractionPath::SeqHash);
        let s = engine.contract_sorted(&g, &labels, 2);
        assert_eq!(engine.last_path(), ContractionPath::SeqSort);
        assert_eq!(h, s);

        // A larger weighted instance with many parallel edges per block.
        let n = 4096;
        let mut edges = Vec::new();
        for v in 0..n as NodeId {
            edges.push((v, (v + 1) % n as NodeId, (v as u64 % 7) + 1));
            edges.push((v, (v + 13) % n as NodeId, 2));
            edges.push((v, (v + 101) % n as NodeId, 5));
        }
        let g = CsrGraph::from_edges(n, &edges);
        let labels: Vec<NodeId> = (0..n as NodeId).map(|v| v % 64).collect();
        let h = engine.contract_sequential(&g, &labels, 64);
        let s = engine.contract_sorted(&g, &labels, 64);
        let p = engine.contract_parallel(&g, &labels, 64);
        assert_eq!(h, s);
        assert_eq!(h, p);
    }

    #[test]
    fn dense_rounds_auto_select_the_sort_path() {
        // 65536 edges collapsing onto 1024 blocks estimate ≥
        // SORT_MIN_ESTIMATED_PAIRS distinct pairs: auto dispatch must
        // take the sort path and still match the free function.
        let n = 2048;
        let mut edges = Vec::new();
        for v in 0..n as NodeId {
            for k in 1..=32 {
                edges.push((v, (v + k) % n as NodeId, (k as u64 % 5) + 1));
            }
        }
        let g = CsrGraph::from_edges(n, &edges);
        assert!(g.num_arcs() >= 1 << 17);
        let labels: Vec<NodeId> = (0..n as NodeId).map(|v| v % 1024).collect();
        let mut engine = ContractionEngine::new();
        let c = engine.contract(&g, &labels, 1024);
        assert_eq!(engine.last_path(), ContractionPath::SeqSort);
        assert_eq!(
            c,
            ContractionEngine::new().contract_sequential(&g, &labels, 1024)
        );

        // Few output blocks take the flat-matrix accumulator instead.
        let labels: Vec<NodeId> = (0..n as NodeId).map(|v| v % 64).collect();
        let c = engine.contract(&g, &labels, 64);
        assert_eq!(engine.last_path(), ContractionPath::SeqMatrix);
        assert_eq!(
            c,
            ContractionEngine::new().contract_sequential(&g, &labels, 64)
        );

        // A small sparse graph stays on the sequential hash path.
        let g = square_with_diagonal();
        let _ = engine.contract(&g, &[0, 1, 2, 3], 4);
        assert_eq!(engine.last_path(), ContractionPath::SeqHash);
    }

    #[test]
    fn matrix_path_is_bit_identical_and_reusable() {
        let g = square_with_diagonal();
        let mut engine = ContractionEngine::new();
        let labels = vec![0, 1, 0, 1];
        let h = engine.contract_sequential(&g, &labels, 2);
        let m = engine.contract_matrix(&g, &labels, 2);
        assert_eq!(engine.last_path(), ContractionPath::SeqMatrix);
        assert_eq!(h, m);
        // Re-use across rounds with different block counts: the recycled
        // accumulator must not leak weights between rounds.
        let (g2, _) = crate::generators::known::two_communities(12, 14, 2, 3, 1);
        let labels2: Vec<NodeId> = (0..g2.n() as NodeId).map(|v| v % 5).collect();
        let h2 = engine.contract_sequential(&g2, &labels2, 5);
        let m2 = engine.contract_matrix(&g2, &labels2, 5);
        assert_eq!(h2, m2);
        let m1 = engine.contract_matrix(&g, &labels, 2);
        assert_eq!(h, m1);
    }

    #[test]
    fn threshold_constant_matches_dispatch() {
        // One knob: the auto path must go sequential strictly below the
        // constant (document-by-test for the reduction pipeline's reuse).
        assert_eq!(ContractionEngine::SEQUENTIAL_FALLBACK_THRESHOLD, 1 << 12);
    }
}
