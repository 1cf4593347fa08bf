//! Gomory–Hu cut trees (Gusfield's algorithm).
//!
//! Gomory and Hu observed that all `n·(n−1)/2` pairwise minimum cuts of a
//! graph are represented by a single weighted tree computable with n−1
//! maximum-flow calls — the reduction that made global minimum cut a
//! flow problem for three decades (§2.2 of the paper: "this result by
//! Gomory and Hu was used to find better algorithms for global minimum
//! cut using improved maximum flow algorithms"). Hao–Orlin (this crate's
//! [`crate::hao_orlin`]) is the end point of that line; the tree remains
//! the right tool when *all-pairs* connectivity is needed.
//!
//! Gusfield's simplification avoids the contraction steps of the original
//! construction: all flows run on the input graph, and the tree is
//! rewired in place. The tree satisfies, for every pair `(u, v)`:
//! λ(G, u, v) = min weight on the tree path between u and v.

use mincut_graph::{CsrGraph, EdgeWeight, NodeId};

use crate::push_relabel::FlowEngine;

/// A Gomory–Hu (cut-equivalent) tree.
#[derive(Clone, Debug)]
pub struct GomoryHuTree {
    /// Parent of every vertex (vertex 0 is the root, its entries unused).
    parent: Vec<NodeId>,
    /// Weight of the tree edge `(v, parent[v])` = λ(G, v, parent[v]).
    weight: Vec<EdgeWeight>,
    /// Depth of every vertex, for path-minimum queries.
    depth: Vec<u32>,
    /// Witness side of the overall lightest cut (global minimum).
    min_side: Vec<bool>,
}

impl GomoryHuTree {
    /// Builds the tree with n−1 push-relabel max-flow computations, all
    /// in one [`FlowEngine`]'s buffers. Requires n ≥ 2.
    pub fn build(g: &CsrGraph) -> GomoryHuTree {
        let n = g.n();
        assert!(n >= 2, "cut tree needs at least two vertices");
        let mut parent = vec![0 as NodeId; n];
        let mut weight = vec![0 as EdgeWeight; n];
        let mut best = EdgeWeight::MAX;
        let mut min_side = vec![false; n];
        let mut engine = FlowEngine::new();

        for i in 1..n as NodeId {
            let t = parent[i as usize];
            let r = engine.max_flow(g, i, t);
            let side = r.min_cut_side(); // the side containing the source i
            let value = r.value;
            engine.recycle(r);
            weight[i as usize] = value;
            // Re-home later vertices that fell on i's side of the cut.
            for j in (i + 1)..n as NodeId {
                if side[j as usize] && parent[j as usize] == t {
                    parent[j as usize] = i;
                }
            }
            // Gusfield's tree rotation: if t's own parent is on i's side,
            // i takes t's place in the tree. (When t is the root, pt == t
            // sits on the sink side and the branch is skipped naturally.)
            let pt = parent[t as usize];
            if pt != t && side[pt as usize] {
                parent[i as usize] = pt;
                parent[t as usize] = i;
                weight[i as usize] = weight[t as usize];
                weight[t as usize] = value;
            }
            if value < best {
                best = value;
                min_side = side;
            }
        }

        // Depths for path queries.
        let mut depth = vec![u32::MAX; n];
        depth[0] = 0;
        for v in 0..n as NodeId {
            resolve_depth(v, &parent, &mut depth);
        }
        GomoryHuTree {
            parent,
            weight,
            depth,
            min_side,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// λ(G, u, v): minimum weight on the tree path between u and v.
    pub fn min_cut_between(&self, u: NodeId, v: NodeId) -> EdgeWeight {
        assert_ne!(u, v, "pairwise connectivity needs distinct vertices");
        let (mut a, mut b) = (u, v);
        let mut best = EdgeWeight::MAX;
        while a != b {
            if self.depth[a as usize] >= self.depth[b as usize] {
                best = best.min(self.weight[a as usize]);
                a = self.parent[a as usize];
            } else {
                best = best.min(self.weight[b as usize]);
                b = self.parent[b as usize];
            }
        }
        best
    }

    /// The global minimum cut: the lightest tree edge (Gomory–Hu
    /// property), with its witness side.
    pub fn global_min_cut(&self) -> (EdgeWeight, &[bool]) {
        let best = (1..self.n()).map(|v| self.weight[v]).min().expect("n >= 2");
        (best, &self.min_side)
    }

    /// Tree edges `(v, parent[v], λ(G, v, parent[v]))` for v ≠ root.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeWeight)> + '_ {
        (1..self.n() as NodeId).map(move |v| (v, self.parent[v as usize], self.weight[v as usize]))
    }
}

fn resolve_depth(v: NodeId, parent: &[NodeId], depth: &mut [u32]) -> u32 {
    if depth[v as usize] != u32::MAX {
        return depth[v as usize];
    }
    let d = resolve_depth(parent[v as usize], parent, depth) + 1;
    depth[v as usize] = d;
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_flow;
    use mincut_graph::generators::known;

    fn assert_all_pairs(g: &CsrGraph) {
        let tree = GomoryHuTree::build(g);
        for u in 0..g.n() as NodeId {
            for v in 0..u {
                let expected = max_flow(g, u, v).value;
                assert_eq!(
                    tree.min_cut_between(u, v),
                    expected,
                    "pair ({u},{v}) in {g:?}"
                );
            }
        }
    }

    #[test]
    fn all_pairs_on_known_families() {
        assert_all_pairs(&known::path_graph(6, 3).0);
        assert_all_pairs(&known::cycle_graph(7, 2).0);
        assert_all_pairs(&known::star_graph(6, 4).0);
        assert_all_pairs(&known::complete_graph(6, 2).0);
        assert_all_pairs(&known::grid_graph(3, 3, 1).0);
        assert_all_pairs(&known::two_communities(4, 4, 2, 3, 1).0);
    }

    #[test]
    fn all_pairs_on_random_weighted_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2718);
        for _ in 0..20 {
            let n = rng.gen_range(3..9);
            let mut edges = Vec::new();
            for v in 1..n as NodeId {
                edges.push((rng.gen_range(0..v), v, rng.gen_range(1..7)));
            }
            for _ in 0..rng.gen_range(0..10) {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                if u != v {
                    edges.push((u, v, rng.gen_range(1..7)));
                }
            }
            assert_all_pairs(&CsrGraph::from_edges(n, &edges));
        }
    }

    #[test]
    fn global_min_cut_matches_lightest_edge_and_witness() {
        let (g, l) = known::two_communities(5, 6, 2, 3, 1);
        let tree = GomoryHuTree::build(&g);
        let (value, side) = tree.global_min_cut();
        assert_eq!(value, l);
        assert_eq!(g.cut_value(side), l);
        assert!(g.is_proper_cut(side));
    }

    #[test]
    fn tree_has_n_minus_1_edges() {
        let (g, _) = known::grid_graph(4, 4, 2);
        let tree = GomoryHuTree::build(&g);
        assert_eq!(tree.edges().count(), g.n() - 1);
        // Every tree edge weight is a real pairwise min cut.
        for (u, v, w) in tree.edges() {
            assert_eq!(max_flow(&g, u, v).value, w);
        }
    }
}
