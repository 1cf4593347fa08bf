//! Residual network representation shared by push-relabel and Hao–Orlin.

use mincut_graph::{EdgeWeight, NodeId};

/// Residual network of an undirected graph.
///
/// Every undirected edge `{u, v}` with weight `c` becomes the arc pair
/// `2k: u→v` and `2k+1: v→u`, both with initial residual capacity `c`
/// (pushing `f` along one direction adds `f` to the other — the standard
/// undirected-flow encoding). `rev(a) = a ^ 1`.
#[derive(Default)]
pub struct Residual {
    /// Out-arc index: arcs of vertex `v` are `arc_ids[first[v]..first[v+1]]`.
    pub first: Vec<usize>,
    pub arc_ids: Vec<u32>,
    /// Arc head, indexed by arc id.
    pub to: Vec<NodeId>,
    /// Residual capacity, indexed by arc id (mutated by the algorithms).
    pub cap: Vec<EdgeWeight>,
}

impl Residual {
    /// The residual network of the undirected graph on `n` vertices
    /// whose `m` edges `edges` yields, each once (see
    /// [`rebuild`](Residual::rebuild)).
    pub fn new(
        n: usize,
        m: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, EdgeWeight)>,
    ) -> Self {
        let mut net = Residual::default();
        net.rebuild(n, m, edges);
        net
    }

    /// Rebuilds this network, inside its own buffers, as the residual
    /// network of the undirected graph on `n` vertices whose `m` edges
    /// `edges` yields, each once. Arc pair `k` is the `k`-th edge, and
    /// every vertex lists its arcs in stream order, so two streams of
    /// the same edges in the same order build the same network. One pass
    /// over the stream: the arc index is filled afterwards from the
    /// endpoints the pairs already hold in `to`.
    pub fn rebuild(
        &mut self,
        n: usize,
        m: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, EdgeWeight)>,
    ) {
        let Residual {
            first,
            arc_ids,
            to,
            cap,
        } = self;
        reset(to, 2 * m, 0);
        reset(cap, 2 * m, 0);
        reset(first, n + 1, 0);
        let mut k = 0;
        for (u, v, w) in edges {
            to[2 * k] = v;
            to[2 * k + 1] = u;
            cap[2 * k] = w;
            cap[2 * k + 1] = w;
            first[u as usize + 1] += 1;
            first[v as usize + 1] += 1;
            k += 1;
        }
        assert_eq!(k, m, "the edge stream must yield exactly m edges");
        for i in 0..n {
            first[i + 1] += first[i];
        }
        // `first[v]` is v's write cursor; it ends on the start of the
        // next row, so the starts shift back by one afterwards.
        reset(arc_ids, 2 * m, 0);
        for (a, pair) in to.chunks_exact(2).enumerate() {
            let (v, u) = (pair[0], pair[1]);
            arc_ids[first[u as usize]] = (2 * a) as u32;
            first[u as usize] += 1;
            arc_ids[first[v as usize]] = (2 * a + 1) as u32;
            first[v as usize] += 1;
        }
        first.copy_within(0..n, 1);
        first[0] = 0;
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.first.len() - 1
    }

    /// Arc ids leaving `v`.
    #[inline]
    pub fn out_arcs(&self, v: NodeId) -> &[u32] {
        &self.arc_ids[self.first[v as usize]..self.first[v as usize + 1]]
    }

    /// Turns the residual of a t→s flow into the residual of the s→t flow
    /// of the same value: an undirected edge of weight `c` carrying `f`
    /// from `u` to `v` holds `c − f` on `u→v` and `c + f` on `v→u`, so
    /// negating the flow swaps the two capacities of every arc pair.
    pub fn reverse_flow(&mut self) {
        for pair in self.cap.chunks_exact_mut(2) {
            pair.swap(0, 1);
        }
    }

    /// The side of all vertices that can *reach* `t` through residual arcs
    /// (reverse-residual BFS). `side[v] == true` means v is on t's side.
    pub fn reaches_sink_side(&self, t: NodeId) -> Vec<bool> {
        let n = self.n();
        let mut side = vec![false; n];
        side[t as usize] = true;
        let mut stack = vec![t];
        while let Some(u) = stack.pop() {
            // v reaches u iff the residual arc v→u has capacity; from u's
            // perspective that arc is the reverse of an out arc u→v.
            for &a in self.out_arcs(u) {
                let v = self.to[a as usize];
                if !side[v as usize] && self.cap[(a ^ 1) as usize] > 0 {
                    side[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        side
    }
}

/// Empties `buf` and refills it with `len` copies of `value`, inside
/// its existing allocation when that is large enough. A buffer that must
/// grow is replaced by one with an eighth of headroom, not doubled: a
/// live graph's edge count creeps up one insert at a time, and the
/// headroom absorbs the creep in one allocation, where doubling would
/// keep up to twice the residual network alive and growing to exactly
/// `len` would reallocate at every new maximum and fragment the heap.
pub(crate) fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    if buf.capacity() < len {
        *buf = Vec::with_capacity(len + len / 8);
    }
    buf.clear();
    buf.resize(len, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::CsrGraph;

    #[test]
    fn arc_pairing_and_adjacency() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 4), (1, 2, 5)]);
        let r = Residual::new(g.n(), g.m(), g.edges());
        assert_eq!(r.n(), 3);
        assert_eq!(r.to.len(), 4);
        // Vertex 1 has two out arcs, heads 0 and 2 in some order.
        let mut heads: Vec<NodeId> = r.out_arcs(1).iter().map(|&a| r.to[a as usize]).collect();
        heads.sort_unstable();
        assert_eq!(heads, vec![0, 2]);
        // Reverse arcs point back.
        for &a in r.out_arcs(1) {
            let head = r.to[a as usize];
            assert_eq!(r.to[(a ^ 1) as usize], {
                // reverse of 1→head is head→1
                1
            });
            let _ = head;
        }
    }

    #[test]
    fn reverse_flow_swaps_every_arc_pair() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 4), (1, 2, 5)]);
        let mut r = Residual::new(g.n(), g.m(), g.edges());
        // One unit 0→1→2: the forward arcs lose it, the reverse arcs gain it.
        for a in [0usize, 2] {
            r.cap[a] -= 1;
            r.cap[a ^ 1] += 1;
        }
        r.reverse_flow();
        assert_eq!(r.cap, vec![5, 3, 6, 4]);
    }

    #[test]
    fn sink_side_on_saturated_cut() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 2), (1, 2, 3)]);
        let mut r = Residual::new(g.n(), g.m(), g.edges());
        // Saturate the 0→1 arc manually: cut {0} | {1,2}.
        for &a in r.out_arcs(0).to_vec().iter() {
            if r.to[a as usize] == 1 {
                r.cap[a as usize] = 0;
            }
        }
        let side = r.reaches_sink_side(2);
        assert_eq!(side, vec![false, true, true]);
    }
}
