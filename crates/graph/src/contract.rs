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
//! repeated `contract` / `contract_edge_tracked` rounds are
//! allocation-free once the buffers are warm. A round has two halves.
//! The accumulation merges parallel edges sequentially into one of two
//! accumulators (see [`ContractionPath`]):
//!
//! * **seq-matrix** — rounds collapsing onto at most
//!   [`ContractionEngine::MATRIX_MAX_BLOCKS`] blocks, with at least
//!   `blocks²` arcs, accumulate into a flat `blocks × blocks` array: one
//!   indexed add per arc, no hashing. Bound-driven first rounds of
//!   clustered instances land here.
//! * **seq-hash** — every other round makes one pass over the arcs into
//!   a `clear()`-and-reuse hash map.
//!
//! The CSR rebuild from the merged edge list is the parallel half: large
//! edge lists count degrees and scatter arcs chunk-parallel at the
//! engine's width.
//!
//! Every solver round loop in `mincut-core` drives one engine for the
//! lifetime of its solve and records [`ContractionEngine::last_path`]
//! per round into its stats report.
//!
//! Loops that contract repeatedly hold one engine and feed retired
//! graphs back through [`ContractionEngine::recycle`]; a one-off
//! contraction is `ContractionEngine::new(threads).contract(..)`. The
//! engine's width bounds the CSR rebuild's parallel loops; a solver
//! passes its own.

use mincut_ds::hash::FxHashMap;
use mincut_ds::{pack_edge, unpack_edge};

use crate::partition::Membership;
use crate::{CsrGraph, EdgeWeight, NodeId};

/// Opens the `contract/round` span both accumulators record,
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

/// Which accumulator a contraction round took; reported by
/// [`ContractionEngine::last_path`] so solvers can log it per round
/// (`SolverStats::contraction_paths`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContractionPath {
    /// Sequential clear-and-reuse hash-map accumulation.
    SeqHash,
    /// Flat `blocks × blocks` matrix accumulation (few output blocks).
    SeqMatrix,
}

impl std::fmt::Display for ContractionPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContractionPath::SeqHash => write!(f, "seq-hash"),
            ContractionPath::SeqMatrix => write!(f, "seq-matrix"),
        }
    }
}

/// Reusable scratch state for repeated contraction rounds.
///
/// ```
/// use mincut_graph::{ContractionEngine, CsrGraph};
///
/// let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 5)]);
/// let mut engine = ContractionEngine::new(1);
/// let c = engine.contract(&g, &[0, 1, 0, 1], 2);
/// assert_eq!((c.n(), c.m()), (2, 1));
/// engine.recycle(c); // hand the buffer back for the next round
/// ```
pub struct ContractionEngine {
    /// Hash accumulation table: packed block pair → summed weight.
    acc: FxHashMap<u64, EdgeWeight>,
    /// Sorted `(packed edge, weight)` staging area.
    packed: Vec<(u64, EdgeWeight)>,
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
    /// Accumulator taken by the most recent contraction call.
    last_path: ContractionPath,
    /// Width of the CSR rebuild.
    threads: usize,
}

impl ContractionEngine {
    /// Rounds collapsing onto at most this many blocks take the flat
    /// matrix path: a `blocks × blocks` array accumulator is one indexed
    /// add per arc (no hashing at all) and at 128 blocks tops out at a
    /// 128 KiB working set. The bound-driven first rounds of clustered
    /// instances — the hottest contractions of the NOI family — land
    /// here almost by definition.
    pub const MATRIX_MAX_BLOCKS: usize = 128;

    /// An engine whose CSR rebuild runs on at most `threads` workers.
    /// The output graph is identical at every width.
    pub fn new(threads: usize) -> Self {
        ContractionEngine {
            acc: FxHashMap::default(),
            packed: Vec::new(),
            matrix: Vec::new(),
            edges: Vec::new(),
            sort_scratch: Vec::new(),
            label_scratch: Vec::new(),
            spare: None,
            last_path: ContractionPath::SeqHash,
            threads,
        }
    }

    /// The accumulator taken by the most recent
    /// `contract*` call on this engine (for per-round telemetry).
    #[inline]
    pub fn last_path(&self) -> ContractionPath {
        self.last_path
    }

    /// Contracts `g` according to `labels` (vertex → block id in
    /// `[0, num_blocks)`). Rounds onto at most
    /// [`ContractionEngine::MATRIX_MAX_BLOCKS`] blocks with at least
    /// `num_blocks²` arcs take the matrix accumulator, every other round
    /// the hash accumulator. Returns the contracted graph on `num_blocks`
    /// vertices, built inside a recycled buffer when one is available.
    pub fn contract(&mut self, g: &CsrGraph, labels: &[NodeId], num_blocks: usize) -> CsrGraph {
        if num_blocks <= Self::MATRIX_MAX_BLOCKS
            && g.num_arcs() >= num_blocks.saturating_mul(num_blocks)
        {
            self.contract_matrix(g, labels, num_blocks)
        } else {
            self.contract_sequential(g, labels, num_blocks)
        }
    }

    /// Flat-matrix contraction for rounds with few output blocks: weights
    /// accumulate into a recycled `num_blocks × num_blocks` array (upper
    /// triangle), then one ordered sweep emits the normalised edge list —
    /// no hash table, no sort, bit-identical output to the hash path.
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
        // the same sorted dedup edge list the hash path produces;
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
        self.rebuild(num_blocks)
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
        // `drain` keeps the map's capacity for the next round; sorting the
        // packed keys yields the normalised edge list.
        self.packed.clear();
        self.packed.extend(self.acc.drain());
        self.packed.sort_unstable_by_key(|&(k, _)| k);
        self.edges.clear();
        self.edges.extend(self.packed.iter().map(|&(k, w)| {
            let (u, v) = unpack_edge(k);
            (u, v, w)
        }));
        self.rebuild(num_blocks)
    }

    /// Contracts the single edge `{a, b}` (blocks are `{a, b}` and every
    /// other vertex alone) and folds the round into a [`Membership`].
    /// For loops that contract one edge at a time (Stoer–Wagner phases,
    /// the cactus enumeration); the label buffer is reused across rounds.
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

    /// Rebuilds a CSR graph from the staged normalised edge list inside
    /// the spare buffer, at the engine's width. Every contraction in the
    /// workspace funnels through here.
    fn rebuild(&mut self, num_blocks: usize) -> CsrGraph {
        let mut out = self.spare.take().unwrap_or_else(CsrGraph::empty);
        out.rebuild_from_sorted_dedup_edges(
            num_blocks,
            &self.edges,
            &mut self.sort_scratch,
            self.threads,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn square_with_diagonal() -> CsrGraph {
        // 0-1, 1-2, 2-3, 3-0 (weight 1 each), diagonal 0-2 (weight 5)
        CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 5)])
    }

    /// A weighted ring on `n` vertices with `chords` random chords per
    /// vertex (weights 1–9).
    fn ring_with_chords(n: usize, chords: usize, rng: &mut SmallRng) -> CsrGraph {
        let mut edges = Vec::new();
        for v in 0..n as NodeId {
            edges.push((v, (v + 1) % n as NodeId, rng.gen_range(1..10)));
            for _ in 0..chords {
                edges.push((v, rng.gen_range(0..n as NodeId), rng.gen_range(1..10)));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    /// A random dense labelling of `n` vertices onto `blocks` blocks.
    fn random_labels(n: usize, blocks: usize, rng: &mut SmallRng) -> Vec<NodeId> {
        let mut labels: Vec<NodeId> = (0..n).map(|_| rng.gen_range(0..blocks as NodeId)).collect();
        for (b, label) in labels.iter_mut().take(blocks).enumerate() {
            *label = b as NodeId;
        }
        labels
    }

    #[test]
    fn contract_merges_parallel_edges() {
        let g = square_with_diagonal();
        // Blocks {0,2} -> 0 and {1,3} -> 1.
        let labels = vec![0, 1, 0, 1];
        let c = ContractionEngine::new(1).contract_sequential(&g, &labels, 2);
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
        let c = ContractionEngine::new(1).contract_sequential(&g, &labels, 4);
        assert_eq!(c, g);
    }

    #[test]
    fn contract_is_identical_at_every_width() {
        // One 4-wide engine through several recycled rounds on random
        // labellings; every round must equal a fresh 1-wide engine's. The
        // first round keeps ≥ 2^16 edges, so the chunk-parallel CSR
        // rebuild runs.
        let mut rng = SmallRng::seed_from_u64(20);
        let mut current = ring_with_chords(1 << 15, 3, &mut rng);
        let mut engine = ContractionEngine::new(4);
        for (round, divisor) in [2usize, 4, 16, 64].into_iter().enumerate() {
            let blocks = current.n() / divisor;
            let labels = random_labels(current.n(), blocks, &mut rng);
            let expected = ContractionEngine::new(1).contract(&current, &labels, blocks);
            let next = engine.contract(&current, &labels, blocks);
            if round == 0 {
                assert!(next.m() >= 1 << 16, "{} edges", next.m());
            }
            assert_eq!(next, expected, "round {round}");
            assert_eq!(next.fingerprint(), expected.fingerprint(), "round {round}");
            assert_eq!(next.n(), blocks);
            engine.recycle(std::mem::replace(&mut current, next));
        }
    }

    #[test]
    fn contraction_preserves_cross_block_cut_values() {
        let g = square_with_diagonal();
        let labels = vec![0, 1, 0, 1];
        let c = ContractionEngine::new(1).contract_sequential(&g, &labels, 2);
        // Cut separating the blocks has the same value in both graphs.
        let side_g = [true, false, true, false];
        let side_c = [true, false];
        assert_eq!(g.cut_value(&side_g), c.cut_value(&side_c));
    }

    #[test]
    fn contract_edge_basic() {
        let g = square_with_diagonal();
        let mut membership = Membership::identity(4);
        let c = ContractionEngine::new(1).contract_edge_tracked(&g, 0, 2, &mut membership);
        assert_eq!(c.n(), 3);
        // Merged vertex is 0; old 3 becomes 2.
        assert_eq!(membership.members(0), &[0, 2]);
        assert_eq!(membership.members(2), &[3]);
        assert_eq!(c.edge_weight(0, 1), Some(2)); // (0,1) + (2,1)
        assert_eq!(c.edge_weight(0, 2), Some(2)); // (0,3) + (2,3)
        assert_eq!(c.edge_weight(1, 2), None);
    }

    #[test]
    fn contract_to_single_vertex() {
        let g = square_with_diagonal();
        let c = ContractionEngine::new(1).contract_sequential(&g, &[0, 0, 0, 0], 1);
        assert_eq!(c.n(), 1);
        assert_eq!(c.m(), 0);
    }

    #[test]
    fn engine_tracked_contraction_updates_membership() {
        let g = square_with_diagonal();
        let mut engine = ContractionEngine::new(1);
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
    fn dispatch_picks_matrix_exactly_when_the_rule_holds() {
        let mut rng = SmallRng::seed_from_u64(21);
        let mut engine = ContractionEngine::new(1);
        // 256 vertices with 32² ≤ arcs < 64²: the arc bound decides
        // between 32 and 64 blocks, the block bound above 128.
        let g = ring_with_chords(256, 2, &mut rng);
        assert!((32 * 32..64 * 64).contains(&g.num_arcs()));
        for blocks in [1usize, 2, 32, 39, 40, 64, 128, 129, 200] {
            let labels = random_labels(g.n(), blocks, &mut rng);
            let c = engine.contract(&g, &labels, blocks);
            let matrix =
                blocks <= ContractionEngine::MATRIX_MAX_BLOCKS && g.num_arcs() >= blocks * blocks;
            let expected = if matrix {
                ContractionPath::SeqMatrix
            } else {
                ContractionPath::SeqHash
            };
            assert_eq!(engine.last_path(), expected, "{blocks} blocks");
            assert_eq!(
                c,
                ContractionEngine::new(1).contract_sequential(&g, &labels, blocks)
            );
            engine.recycle(c);
        }
        // A dense 128-block round of a large graph still takes the matrix.
        let g = ring_with_chords(1 << 13, 3, &mut rng);
        let _ = engine.contract(&g, &random_labels(g.n(), 128, &mut rng), 128);
        assert_eq!(engine.last_path(), ContractionPath::SeqMatrix);
        let _ = engine.contract(&g, &random_labels(g.n(), 129, &mut rng), 129);
        assert_eq!(engine.last_path(), ContractionPath::SeqHash);
    }

    #[test]
    fn matrix_path_is_bit_identical_and_reusable() {
        // One engine across block counts up and down: the recycled
        // accumulator must not leak weights between rounds.
        let mut rng = SmallRng::seed_from_u64(22);
        let g = ring_with_chords(600, 4, &mut rng);
        let mut engine = ContractionEngine::new(1);
        for blocks in [2usize, 5, 128, 3, 77, 128, 1, 16] {
            let labels = random_labels(g.n(), blocks, &mut rng);
            let h = engine.contract_sequential(&g, &labels, blocks);
            let m = engine.contract_matrix(&g, &labels, blocks);
            assert_eq!(engine.last_path(), ContractionPath::SeqMatrix);
            assert_eq!(h, m, "{blocks} blocks");
            engine.recycle(h);
        }
    }
}
