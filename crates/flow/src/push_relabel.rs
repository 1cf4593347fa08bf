//! Goldberg–Tarjan push-relabel maximum flow — the crate's one s-t engine.
//!
//! Highest-label vertex selection, gap heuristic, and exact initial
//! distance labels from a reverse BFS — the configuration that performs
//! well on the sparse, shallow graphs of the paper's benchmark families.
//! A [`FlowEngine`] owns every buffer a flow needs, so a loop of flows
//! allocates nothing once warm; [`max_flow`] is the one-shot form.

use mincut_graph::{CsrGraph, DeltaGraph, EdgeWeight, NodeId};

use crate::residual::{reset, Residual};

/// An undirected weighted graph [`max_flow`] can read: its size, its
/// weighted degrees and one pass over its edges. Implemented for the
/// static [`CsrGraph`] and for the live [`DeltaGraph`], whose overlay
/// the flow then reads in place, without compacting it.
pub trait FlowGraph {
    /// Number of vertices.
    fn n(&self) -> usize;
    /// Number of undirected edges.
    fn m(&self) -> usize;
    /// Weighted degree c(v).
    fn weighted_degree(&self, v: NodeId) -> EdgeWeight;
    /// Every undirected edge `(u, v, w)` once, with `u < v`.
    fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeWeight)> + '_;
}

impl FlowGraph for CsrGraph {
    fn n(&self) -> usize {
        CsrGraph::n(self)
    }
    fn m(&self) -> usize {
        CsrGraph::m(self)
    }
    fn weighted_degree(&self, v: NodeId) -> EdgeWeight {
        CsrGraph::weighted_degree(self, v)
    }
    fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeWeight)> + '_ {
        CsrGraph::edges(self)
    }
}

impl FlowGraph for DeltaGraph {
    fn n(&self) -> usize {
        DeltaGraph::n(self)
    }
    fn m(&self) -> usize {
        DeltaGraph::m(self)
    }
    fn weighted_degree(&self, v: NodeId) -> EdgeWeight {
        DeltaGraph::weighted_degree(self, v)
    }
    fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeWeight)> + '_ {
        DeltaGraph::edges(self)
    }
}

/// Result of a maximum-flow computation.
pub struct MaxFlowResult {
    /// The maximum s-t flow value = minimum s-t cut value.
    pub value: EdgeWeight,
    /// The residual network of the maximum s→t flow (for cut extraction).
    pub(crate) residual: Residual,
    pub(crate) s: NodeId,
    pub(crate) t: NodeId,
}

impl MaxFlowResult {
    /// A minimum s-t cut witness: `side[v] == true` for the source side.
    ///
    /// The algorithm computes a maximum *flow*: conservation holds at
    /// every vertex but `s` and `t`. The witness is the complement of the
    /// sink side — every vertex that can still reach `t` in the residual
    /// network is on the sink side and all arcs into that set are
    /// saturated, so its value is exactly the flow value. This is the
    /// largest minimum-cut source side, which does not depend on which
    /// maximum flow produced the residual.
    pub fn min_cut_side(&self) -> Vec<bool> {
        let mut side = self.residual.reaches_sink_side(self.t);
        for b in &mut side {
            *b = !*b;
        }
        side
    }

    /// Every minimum s-t cut, as source sides (`side[s] == true`), read
    /// from the closed sets of the residual network. Stops after
    /// `max_cuts` sides and reports truncation via the second return
    /// value — callers enumerating *global* minimum cuts pass the
    /// Dinitz–Karzanov–Lomonosov bound n(n−1)/2 so truncation doubles as
    /// a theory check. The order of the sides is unspecified.
    pub fn min_cut_sides(&self, max_cuts: usize) -> (Vec<Vec<bool>>, bool) {
        crate::closed_sets::min_cut_sides(&self.residual, self.s, self.t, max_cuts)
    }
}

/// The reusable buffers of the push-relabel engine: the residual
/// network and the push-relabel scratch (heights, excess, current arcs,
/// the active buckets and the per-level counts). Each buffer grows to
/// the largest graph seen and is overwritten in place, so once warm, a
/// flow over a graph no larger than earlier ones allocates nothing, as
/// long as the caller hands each result back through
/// [`recycle`](FlowEngine::recycle) (the `ContractionEngine` pattern of
/// `mincut-graph`). Loops of flows hold one engine: the cactus
/// enumeration, Gomory–Hu and the dynamic tier's deletes.
///
/// ```
/// use mincut_flow::FlowEngine;
/// use mincut_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1, 2), (1, 2, 3)]);
/// let mut engine = FlowEngine::new();
/// for (t, value) in [(1, 2), (2, 2)] {
///     let r = engine.max_flow(&g, 0, t);
///     assert_eq!(r.value, value);
///     engine.recycle(r); // the next flow builds in this residual
/// }
/// ```
#[derive(Default)]
pub struct FlowEngine {
    /// The residual network the next flow is built in.
    spare: Residual,
    height: Vec<u32>,
    excess: Vec<EdgeWeight>,
    /// Current-arc pointer per vertex: a position in its arc list.
    cur: Vec<usize>,
    /// Active vertices bucketed by height: `head[h]` starts a list
    /// linked through `next`. An active vertex sits in exactly one
    /// bucket, the one of its height, so the lists are intrusive.
    head: Vec<NodeId>,
    next: Vec<NodeId>,
    /// Vertices per height level, the source excluded (gap heuristic).
    level_count: Vec<u32>,
    /// Breadth-first queue of the initial labelling.
    queue: Vec<NodeId>,
}

/// End of an active bucket's list.
const NIL: NodeId = NodeId::MAX;

impl FlowEngine {
    /// An engine with empty buffers; they grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the maximum flow between `s` and `t` in the undirected
    /// graph `g`, inside this engine's buffers. Panics if `s == t` or
    /// either is out of range. A [`DeltaGraph`] and its compacted
    /// [`CsrGraph`] stream the same edges in the same order, so they
    /// give the same residual network.
    ///
    /// Push-relabel opens by saturating every source arc, and any excess
    /// that cannot reach the sink must travel back. So the flow runs from
    /// the endpoint of smaller weighted degree; when that is `t`, the t→s
    /// flow is reversed afterwards into an s→t flow of the same value
    /// (λ(s, t) = λ(t, s) on undirected graphs).
    pub fn max_flow<G: FlowGraph>(&mut self, g: &G, s: NodeId, t: NodeId) -> MaxFlowResult {
        assert_ne!(s, t, "source and sink must differ");
        assert!((s as usize) < g.n() && (t as usize) < g.n());
        let mut _sp = mincut_obs::span("flow/max_flow");
        _sp.arg("n", g.n());
        _sp.arg("s", s);
        _sp.arg("t", t);
        let mut net = std::mem::take(&mut self.spare);
        net.rebuild(g.n(), g.m(), g.edges());
        let value = if g.weighted_degree(t) < g.weighted_degree(s) {
            let value = self.push_relabel(&mut net, t, s);
            net.reverse_flow();
            value
        } else {
            self.push_relabel(&mut net, s, t)
        };
        MaxFlowResult {
            value,
            residual: net,
            s,
            t,
        }
    }

    /// Takes a finished result's residual network back: the next
    /// [`max_flow`](FlowEngine::max_flow) builds inside it.
    pub fn recycle(&mut self, result: MaxFlowResult) {
        self.spare = result.residual;
    }

    /// Runs push-relabel on `net`, returns the flow value (= excess at `t`).
    fn push_relabel(&mut self, net: &mut Residual, s: NodeId, t: NodeId) -> EdgeWeight {
        let n = net.n();
        let max_h = 2 * n + 1;
        self.initial_heights(net, t);
        self.height[s as usize] = n as u32;
        reset(&mut self.excess, n, 0);
        reset(&mut self.cur, n, 0);
        reset(&mut self.next, n, NIL);
        reset(&mut self.head, max_h + 1, NIL);
        let mut highest = 0usize;
        reset(&mut self.level_count, max_h + 2, 0);
        for v in 0..n {
            if v != s as usize {
                self.level_count[self.height[v] as usize] += 1;
            }
        }

        // Saturate source arcs.
        for i in net.first[s as usize]..net.first[s as usize + 1] {
            let a = net.arc_ids[i] as usize;
            let w = net.to[a];
            let c = net.cap[a];
            if c > 0 && w != s {
                net.cap[a] = 0;
                net.cap[a ^ 1] += c;
                let had = self.excess[w as usize] > 0;
                self.excess[w as usize] += c;
                if !had && w != t {
                    self.activate(w, &mut highest);
                }
            }
        }

        loop {
            let v = self.head[highest];
            if v == NIL {
                if highest == 0 {
                    break;
                }
                highest -= 1;
                continue;
            }
            self.head[highest] = self.next[v as usize];
            debug_assert!(
                self.excess[v as usize] > 0 && self.height[v as usize] as usize == highest
            );
            self.discharge(net, v, s, t, &mut highest, max_h);
        }
        debug_assert!(
            (0..n).all(|v| self.excess[v] == 0 || v == s as usize || v == t as usize),
            "push-relabel must end with a flow, not a preflow"
        );
        self.excess[t as usize]
    }

    /// Exact initial labels: BFS distance to `t` in the (undirected)
    /// residual graph; unreachable vertices parked at `n`.
    fn initial_heights(&mut self, net: &Residual, t: NodeId) {
        let n = net.n();
        reset(&mut self.height, n, n as u32);
        self.height[t as usize] = 0;
        self.queue.clear();
        self.queue.reserve(n); // every vertex enters at most once
        self.queue.push(t);
        let mut i = 0;
        while let Some(&u) = self.queue.get(i) {
            i += 1;
            for &a in net.out_arcs(u) {
                // v can push towards u if arc v→u has capacity; initially
                // all arcs do, so plain BFS over the undirected structure.
                let v = net.to[a as usize];
                if self.height[v as usize] == n as u32 && net.cap[(a ^ 1) as usize] > 0 {
                    self.height[v as usize] = self.height[u as usize] + 1;
                    self.queue.push(v);
                }
            }
        }
    }

    /// Puts the active vertex `v` into the bucket of its height.
    fn activate(&mut self, v: NodeId, highest: &mut usize) {
        let h = self.height[v as usize] as usize;
        self.next[v as usize] = self.head[h];
        self.head[h] = v;
        if h > *highest {
            *highest = h;
        }
    }

    fn discharge(
        &mut self,
        net: &mut Residual,
        v: NodeId,
        s: NodeId,
        t: NodeId,
        highest: &mut usize,
        max_h: usize,
    ) {
        let vi = v as usize;
        let arcs = net.first[vi + 1] - net.first[vi];
        while self.cur[vi] < arcs {
            let a = net.arc_ids[net.first[vi] + self.cur[vi]] as usize;
            let w = net.to[a];
            if net.cap[a] > 0 && self.height[vi] == self.height[w as usize] + 1 {
                // Push.
                let delta = self.excess[vi].min(net.cap[a]);
                net.cap[a] -= delta;
                net.cap[a ^ 1] += delta;
                let had = self.excess[w as usize] > 0;
                self.excess[w as usize] += delta;
                self.excess[vi] -= delta;
                if !had && w != s && w != t {
                    self.activate(w, highest);
                }
                if self.excess[vi] == 0 {
                    return;
                }
            } else {
                self.cur[vi] += 1;
            }
        }
        // Relabel.
        let old_h = self.height[vi] as usize;
        let mut min_h = u32::MAX;
        for &a in net.out_arcs(v) {
            if net.cap[a as usize] > 0 {
                min_h = min_h.min(self.height[net.to[a as usize] as usize]);
            }
        }
        let new_h = if min_h == u32::MAX {
            max_h as u32 // disconnected from everything; park at the top
        } else {
            (min_h + 1).min(max_h as u32)
        };
        self.level_count[old_h] -= 1;
        // Gap heuristic: if v left level `old_h` empty and old_h < n, every
        // vertex above the gap can never push to t again; lift them past n.
        let n = net.n();
        if self.level_count[old_h] == 0 && old_h < n {
            // Every vertex of the levels in between is lifted, so their
            // buckets empty; the active ones are re-queued at n + 1.
            self.head[old_h + 1..n].fill(NIL);
            for u in 0..n as NodeId {
                let ui = u as usize;
                let h = self.height[ui] as usize;
                if u != s && u != t && h > old_h && h < n {
                    self.level_count[h] -= 1;
                    self.height[ui] = n as u32 + 1;
                    self.level_count[n + 1] += 1;
                    // Re-queue lifted vertices so their excess keeps moving
                    // (back towards the source, above level n).
                    if self.excess[ui] > 0 {
                        self.activate(u, highest);
                    }
                }
            }
        }
        self.height[vi] = new_h.max(self.height[vi]);
        self.level_count[self.height[vi] as usize] += 1;
        self.cur[vi] = 0;
        if self.height[vi] as usize >= max_h || self.excess[vi] == 0 {
            return;
        }
        // Re-queue at the new level and stop this discharge (highest-label
        // policy processes levels top-down).
        self.activate(v, highest);
    }
}

/// Computes the maximum flow between `s` and `t` in the undirected graph
/// `g`: the one-shot form of [`FlowEngine::max_flow`], with buffers of
/// its own.
pub fn max_flow<G: FlowGraph>(g: &G, s: NodeId, t: NodeId) -> MaxFlowResult {
    FlowEngine::new().max_flow(g, s, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_flow_is_bottleneck() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 5), (1, 2, 3), (2, 3, 7)]);
        let r = max_flow(&g, 0, 3);
        assert_eq!(r.value, 3);
        let side = r.min_cut_side();
        assert_eq!(g.cut_value(&side), 3);
        assert!(side[0] && !side[3]);
    }

    #[test]
    fn parallel_paths_add_up() {
        // Two disjoint 0→3 paths with bottlenecks 2 and 4.
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 2),
                (1, 3, 9),
                (0, 2, 4),
                (2, 3, 4),
                (4, 5, 1),
                (0, 4, 9),
                (5, 3, 1),
            ],
        );
        let r = max_flow(&g, 0, 3);
        assert_eq!(r.value, 2 + 4 + 1);
    }

    #[test]
    fn undirected_flow_can_reuse_both_directions() {
        // Classic undirected diamond: capacity must count both directions.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]);
        let r = max_flow(&g, 0, 3);
        assert_eq!(r.value, 2);
    }

    #[test]
    fn disconnected_pair_has_zero_flow() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 3), (2, 3, 3)]);
        let r = max_flow(&g, 0, 3);
        assert_eq!(r.value, 0);
        let side = r.min_cut_side();
        assert_eq!(g.cut_value(&side), 0);
    }

    #[test]
    fn flow_equals_brute_force_st_cut_on_small_graphs() {
        // Enumerate all s-t cuts of a fixed small graph and compare.
        let g = CsrGraph::from_edges(
            5,
            &[
                (0, 1, 3),
                (0, 2, 2),
                (1, 2, 1),
                (1, 3, 2),
                (2, 4, 3),
                (3, 4, 2),
                (1, 4, 1),
            ],
        );
        let (s, t) = (0, 4);
        let n = g.n();
        let mut best = EdgeWeight::MAX;
        for mask in 0u32..(1 << n) {
            if (mask >> s) & 1 == 1 && (mask >> t) & 1 == 0 {
                let side: Vec<bool> = (0..n).map(|v| (mask >> v) & 1 == 1).collect();
                best = best.min(g.cut_value(&side));
            }
        }
        assert_eq!(max_flow(&g, s, t).value, best);
    }

    #[test]
    fn min_cut_side_is_proper_and_tight() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 5), (2, 3, 1), (0, 3, 2)]);
        let r = max_flow(&g, 0, 2);
        let side = r.min_cut_side();
        assert_eq!(g.cut_value(&side), r.value);
        assert!(side[0] && !side[2]);
        // Candidate cuts: {0} = 1+2 = 3, {0,1} = 5+2 = 7, {0,3} = 1+1 = 2.
        assert_eq!(r.value, 2);
    }
}
