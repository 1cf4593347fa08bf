//! Weighted graph contraction.
//!
//! Given a labelling of vertices into blocks (typically the dense labels of
//! a union-find structure filled by CAPFOREST), contraction collapses every
//! block into a single vertex, drops intra-block edges and merges parallel
//! inter-block edges by summing their weights — exactly the operation
//! `G/(u,v)` of the paper, applied to whole blocks at once.
//!
//! The [`ContractionEngine`] has one accumulator for every shape of round,
//! and it runs sequentially. It writes the contracted graph's CSR rows
//! directly, in block order:
//!
//! 1. a counting sort groups the vertices by block;
//! 2. for each block, every arc of its members that leaves the block is
//!    merged into the block's row through a `slot` table (target block →
//!    position in the row being built): a repeated target adds its weight
//!    in place, a new target is appended;
//! 3. a row that did not come out ascending is sorted by target.
//!
//! A block of one vertex skips the slot table when it can: its row is
//! written as its member's row with each target relabelled, and kept if
//! the relabelled targets come out strictly ascending (no two neighbours
//! share a block, none moved before another); otherwise the row is
//! rewritten by the merge above.
//!
//! Each row is written once, in order, into the output buffers; no edge
//! list, hash table or degree scatter sits in between. On a round onto a
//! few blocks the slot table stays in cache; on a near-identity round
//! (the reduction pipeline removing a handful of vertices) nearly every
//! row is a singleton's, copied out of the input's sorted rows.
//!
//! The engine owns a double buffer — the output graph of one round is
//! rebuilt inside the buffer recycled from two rounds ago — and its
//! scratch, so repeated `contract` / `contract_edge_tracked` rounds are
//! allocation-free once the buffers are warm. Loops that contract
//! repeatedly hold one engine and feed retired graphs back through
//! [`ContractionEngine::recycle`]; a one-off contraction is
//! `ContractionEngine::new().contract(..)`.

use crate::partition::Membership;
use crate::{CsrGraph, EdgeWeight, NodeId};

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
#[derive(Default)]
pub struct ContractionEngine {
    /// `block_start[b]..block_start[b + 1]` indexes `members` for block `b`.
    block_start: Vec<usize>,
    /// The vertices grouped by block, ascending within each block.
    members: Vec<NodeId>,
    /// Per target block: one past its position in the output arc arrays.
    /// A value at most the current row's start means the block has no
    /// entry in that row yet.
    slot: Vec<usize>,
    /// Sort buffer for a row that did not come out ascending.
    sort_scratch: Vec<(NodeId, EdgeWeight)>,
    /// Label buffer for single-edge contractions.
    label_scratch: Vec<NodeId>,
    /// The spare half of the double buffer: the output graph is rebuilt
    /// inside this (recycled) allocation.
    spare: Option<CsrGraph>,
}

impl ContractionEngine {
    /// An engine with empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Contracts `g` according to `labels` (vertex → block id in
    /// `[0, num_blocks)`). Returns the contracted graph on `num_blocks`
    /// vertices, built inside a recycled buffer when one is available.
    pub fn contract(&mut self, g: &CsrGraph, labels: &[NodeId], num_blocks: usize) -> CsrGraph {
        assert_eq!(labels.len(), g.n());
        debug_assert!(labels.iter().all(|&l| (l as usize) < num_blocks));
        let mut sp = mincut_obs::span("contract/round");
        sp.arg("n", g.n());
        sp.arg("arcs", g.num_arcs());
        sp.arg("blocks", num_blocks);
        self.group_by_block(labels, num_blocks);
        self.slot.clear();
        self.slot.resize(num_blocks, 0);

        let mut out = self.spare.take().unwrap_or_else(CsrGraph::empty);
        let (xadj, adj, weight, wdeg) = out.sections_for_rebuild();
        xadj.push(0);
        for b in 0..num_blocks {
            let row_start = adj.len();
            let members = &self.members[self.block_start[b]..self.block_start[b + 1]];
            if let &[v] = members {
                // A singleton's row is its member's row, relabelled, when
                // no two targets share a block and none descends.
                let (targets, weights) = g.arc_slices(v);
                adj.extend(targets.iter().map(|&u| labels[u as usize]));
                if adj[row_start..].is_sorted_by(|a, b| a < b) {
                    weight.extend_from_slice(weights);
                    let degree = weights
                        .iter()
                        .fold(0, |d: EdgeWeight, &w| d.wrapping_add(w));
                    wdeg.push(degree);
                    xadj.push(adj.len());
                    continue;
                }
                adj.truncate(row_start);
            }
            let mut degree: EdgeWeight = 0;
            for &v in members {
                let (targets, weights) = g.arc_slices(v);
                for (&u, &w) in targets.iter().zip(weights) {
                    let t = labels[u as usize];
                    if t as usize == b {
                        continue;
                    }
                    degree = degree.wrapping_add(w);
                    let s = self.slot[t as usize];
                    if s > row_start {
                        weight[s - 1] += w;
                    } else {
                        adj.push(t);
                        weight.push(w);
                        self.slot[t as usize] = adj.len();
                    }
                }
            }
            if !adj[row_start..].is_sorted() {
                sort_row(
                    &mut adj[row_start..],
                    &mut weight[row_start..],
                    &mut self.sort_scratch,
                );
            }
            wdeg.push(degree);
            xadj.push(adj.len());
        }
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
        let c = self.contract(g, &labels, g.n() - 1);
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

    /// Counting sort of the vertices by block into `block_start` and
    /// `members`; vertices stay ascending within a block.
    fn group_by_block(&mut self, labels: &[NodeId], num_blocks: usize) {
        let start = &mut self.block_start;
        start.clear();
        start.resize(num_blocks + 1, 0);
        for &l in labels {
            start[l as usize + 1] += 1;
        }
        for b in 0..num_blocks {
            start[b + 1] += start[b];
        }
        // `start[b]` serves as block b's write cursor, which leaves it at
        // block b's end, i.e. block b + 1's start; one shift restores it.
        self.members.clear();
        self.members.resize(labels.len(), 0);
        for (v, &l) in labels.iter().enumerate() {
            self.members[start[l as usize]] = v as NodeId;
            start[l as usize] += 1;
        }
        start.copy_within(..num_blocks, 1);
        start[0] = 0;
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
}

/// Sorts one row's `(target, weight)` pairs by target; targets are unique
/// within a row, so the result is canonical.
fn sort_row(
    adj: &mut [NodeId],
    weight: &mut [EdgeWeight],
    scratch: &mut Vec<(NodeId, EdgeWeight)>,
) {
    scratch.clear();
    scratch.extend(adj.iter().copied().zip(weight.iter().copied()));
    scratch.sort_unstable_by_key(|p| p.0);
    for (i, &(t, w)) in scratch.iter().enumerate() {
        adj[i] = t;
        weight[i] = w;
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

    /// A random multigraph on `n` vertices: a weighted ring plus `chords`
    /// random chords per vertex (weights 1–9), repeated pairs included.
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

    /// A near-identity labelling: `merges` random edges of `g` collapsed,
    /// everything else alone, numbered densely in vertex order.
    fn near_identity_labels(
        g: &CsrGraph,
        merges: usize,
        rng: &mut SmallRng,
    ) -> (Vec<NodeId>, usize) {
        let mut uf = mincut_ds::UnionFind::new(g.n());
        for _ in 0..merges {
            let u = rng.gen_range(0..g.n() as NodeId);
            if let Some(&v) = g.neighbors(u).first() {
                uf.union(u, v);
            }
        }
        uf.dense_labels()
    }

    /// The reference: the builder over the relabelled edge list.
    fn relabelled(g: &CsrGraph, labels: &[NodeId], blocks: usize) -> CsrGraph {
        let edges: Vec<_> = g
            .edges()
            .map(|(u, v, w)| (labels[u as usize], labels[v as usize], w))
            .collect();
        CsrGraph::from_edges(blocks, &edges)
    }

    #[test]
    fn contract_equals_the_builder_over_relabelled_edges() {
        // One engine recycled across every round, block counts from one
        // block to the identity; each output must equal the builder's
        // graph by value and by fingerprint.
        let mut rng = SmallRng::seed_from_u64(20);
        let mut engine = ContractionEngine::new();
        for (n, chords) in [(300usize, 1usize), (700, 4), (2048, 2)] {
            let g = ring_with_chords(n, chords, &mut rng);
            let mut shapes: Vec<(Vec<NodeId>, usize)> =
                [1, 2, 3, 4, 7, 16, 31, 64, 127, 128, 129, n / 2, n - 1, n]
                    .into_iter()
                    .map(|blocks| (random_labels(n, blocks, &mut rng), blocks))
                    .collect();
            shapes.push(near_identity_labels(&g, n / 100 + 1, &mut rng));
            shapes.push(((0..n as NodeId).map(|v| v / 3).collect(), n.div_ceil(3)));
            // Near-identity rounds whose singleton rows take the merge:
            // {0, n − 1} as block 0, so a row through n − 1 descends to
            // 0 and a row through both collides; and block ids permuted,
            // so most rows descend.
            let mut span: Vec<NodeId> = (0..n as NodeId).collect();
            span[n - 1] = 0;
            shapes.push((span, n - 1));
            let (labels, blocks) = near_identity_labels(&g, n / 100 + 1, &mut rng);
            let mut perm: Vec<NodeId> = (0..blocks as NodeId).collect();
            for i in (1..blocks).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            let permuted = labels.iter().map(|&l| perm[l as usize]).collect();
            shapes.push((permuted, blocks));
            for (labels, blocks) in shapes {
                let expected = relabelled(&g, &labels, blocks);
                let c = engine.contract(&g, &labels, blocks);
                assert_eq!(c, expected, "n {n}, {blocks} blocks");
                assert_eq!(
                    c.fingerprint(),
                    expected.fingerprint(),
                    "n {n}, {blocks} blocks"
                );
                // A second round over the output reuses the warm slot
                // table on a different shape.
                let labels2: Vec<NodeId> = (0..blocks as NodeId).map(|v| v / 2).collect();
                let c2 = engine.contract(&c, &labels2, blocks.div_ceil(2));
                assert_eq!(c2, relabelled(&c, &labels2, blocks.div_ceil(2)));
                engine.recycle(c);
                engine.recycle(c2);
            }
        }
    }

    #[test]
    fn contract_merges_parallel_edges() {
        let g = square_with_diagonal();
        // Blocks {0,2} -> 0 and {1,3} -> 1.
        let labels = vec![0, 1, 0, 1];
        let c = ContractionEngine::new().contract(&g, &labels, 2);
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
        let c = ContractionEngine::new().contract(&g, &labels, 4);
        assert_eq!(c, g);
    }

    #[test]
    fn contraction_preserves_cross_block_cut_values() {
        let g = square_with_diagonal();
        let labels = vec![0, 1, 0, 1];
        let c = ContractionEngine::new().contract(&g, &labels, 2);
        // Cut separating the blocks has the same value in both graphs.
        let side_g = [true, false, true, false];
        let side_c = [true, false];
        assert_eq!(g.cut_value(&side_g), c.cut_value(&side_c));
    }

    #[test]
    fn contract_edge_basic() {
        let g = square_with_diagonal();
        let mut membership = Membership::identity(4);
        let c = ContractionEngine::new().contract_edge_tracked(&g, 0, 2, &mut membership);
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
        let c = ContractionEngine::new().contract(&g, &[0, 0, 0, 0], 1);
        assert_eq!(c.n(), 1);
        assert_eq!(c.m(), 0);
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
}
