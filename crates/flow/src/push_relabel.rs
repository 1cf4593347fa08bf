//! Goldberg–Tarjan push-relabel maximum flow — the crate's one s-t engine.
//!
//! Highest-label vertex selection, gap heuristic, and exact initial
//! distance labels from a reverse BFS — the configuration that performs
//! well on the sparse, shallow graphs of the paper's benchmark families.

use mincut_graph::{CsrGraph, DeltaGraph, EdgeWeight, NodeId};

use crate::residual::Residual;

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

/// Computes the maximum flow between `s` and `t` in the undirected graph
/// `g`. Panics if `s == t` or either is out of range. A [`DeltaGraph`]
/// and its compacted [`CsrGraph`] stream the same edges in the same
/// order, so they give the same residual network.
///
/// Push-relabel opens by saturating every source arc, and any excess
/// that cannot reach the sink must travel back. So the flow runs from
/// the endpoint of smaller weighted degree; when that is `t`, the t→s
/// flow is reversed afterwards into an s→t flow of the same value
/// (λ(s, t) = λ(t, s) on undirected graphs).
pub fn max_flow<G: FlowGraph>(g: &G, s: NodeId, t: NodeId) -> MaxFlowResult {
    assert_ne!(s, t, "source and sink must differ");
    assert!((s as usize) < g.n() && (t as usize) < g.n());
    let mut _sp = mincut_obs::span("flow/max_flow");
    _sp.arg("n", g.n());
    _sp.arg("s", s);
    _sp.arg("t", t);
    let mut net = Residual::new(g.n(), g.m(), g.edges());
    let value = if g.weighted_degree(t) < g.weighted_degree(s) {
        let value = push_relabel(&mut net, t, s);
        net.reverse_flow();
        value
    } else {
        push_relabel(&mut net, s, t)
    };
    MaxFlowResult {
        value,
        residual: net,
        s,
        t,
    }
}

/// Runs push-relabel on `net`, returns the flow value (= excess at `t`).
fn push_relabel(net: &mut Residual, s: NodeId, t: NodeId) -> EdgeWeight {
    let n = net.n();
    if n == 0 {
        return 0;
    }
    let max_h = 2 * n + 1;
    let mut height = initial_heights(net, t, n);
    height[s as usize] = n as u32;
    let mut excess = vec![0 as EdgeWeight; n];
    let mut cur = vec![0usize; n]; // current-arc pointer per vertex
                                   // Active vertex buckets by height.
    let mut active: Vec<Vec<NodeId>> = vec![Vec::new(); max_h + 1];
    let mut highest = 0usize;
    // Vertices per height level (for the gap heuristic), excluding s and t.
    let mut level_count = vec![0u32; max_h + 2];
    for v in 0..n as NodeId {
        if v != s {
            level_count[height[v as usize] as usize] += 1;
        }
    }

    macro_rules! activate {
        ($v:expr) => {{
            let v = $v;
            if v != s && v != t && excess[v as usize] > 0 {
                let h = height[v as usize] as usize;
                active[h].push(v);
                if h > highest {
                    highest = h;
                }
            }
        }};
    }

    // Saturate source arcs.
    for &a in net.out_arcs(s).to_vec().iter() {
        let w = net.to[a as usize];
        let c = net.cap[a as usize];
        if c > 0 && w != s {
            net.cap[a as usize] = 0;
            net.cap[(a ^ 1) as usize] += c;
            let had = excess[w as usize] > 0;
            excess[w as usize] += c;
            if !had {
                activate!(w);
            }
        }
    }

    while highest > 0 || !active[0].is_empty() {
        let Some(v) = active[highest].pop() else {
            if highest == 0 {
                break;
            }
            highest -= 1;
            continue;
        };
        if excess[v as usize] == 0 || v == s || v == t {
            continue;
        }
        if height[v as usize] as usize != highest {
            // Stale entry (vertex was relabelled or gapped since queueing).
            continue;
        }
        discharge(
            net,
            v,
            s,
            t,
            &mut height,
            &mut excess,
            &mut cur,
            &mut active,
            &mut highest,
            &mut level_count,
            max_h,
        );
    }
    debug_assert!(
        (0..n).all(|v| excess[v] == 0 || v == s as usize || v == t as usize),
        "push-relabel must end with a flow, not a preflow"
    );
    excess[t as usize]
}

/// Exact initial labels: BFS distance to `t` in the (undirected) residual
/// graph; unreachable vertices parked at `n`.
fn initial_heights(net: &Residual, t: NodeId, n: usize) -> Vec<u32> {
    let mut h = vec![n as u32; n];
    h[t as usize] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(t);
    while let Some(u) = queue.pop_front() {
        for &a in net.out_arcs(u) {
            // v can push towards u if arc v→u has capacity; initially all
            // arcs do, so plain BFS over the undirected structure.
            let v = net.to[a as usize];
            if h[v as usize] == n as u32 && net.cap[(a ^ 1) as usize] > 0 {
                h[v as usize] = h[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    h
}

#[allow(clippy::too_many_arguments)]
fn discharge(
    net: &mut Residual,
    v: NodeId,
    s: NodeId,
    t: NodeId,
    height: &mut [u32],
    excess: &mut [EdgeWeight],
    cur: &mut [usize],
    active: &mut [Vec<NodeId>],
    highest: &mut usize,
    level_count: &mut [u32],
    max_h: usize,
) {
    let vi = v as usize;
    {
        let arcs = net.first[vi + 1] - net.first[vi];
        while cur[vi] < arcs {
            let a = net.arc_ids[net.first[vi] + cur[vi]];
            let w = net.to[a as usize];
            if net.cap[a as usize] > 0 && height[vi] == height[w as usize] + 1 {
                // Push.
                let delta = excess[vi].min(net.cap[a as usize]);
                net.cap[a as usize] -= delta;
                net.cap[(a ^ 1) as usize] += delta;
                let had = excess[w as usize] > 0;
                excess[w as usize] += delta;
                excess[vi] -= delta;
                if !had && w != s && w != t {
                    let h = height[w as usize] as usize;
                    active[h].push(w);
                    if h > *highest {
                        *highest = h;
                    }
                }
                if excess[vi] == 0 {
                    return;
                }
            } else {
                cur[vi] += 1;
            }
        }
        // Relabel.
        let old_h = height[vi] as usize;
        let mut min_h = u32::MAX;
        for &a in net.out_arcs(v) {
            if net.cap[a as usize] > 0 {
                min_h = min_h.min(height[net.to[a as usize] as usize]);
            }
        }
        let new_h = if min_h == u32::MAX {
            max_h as u32 // disconnected from everything; park at the top
        } else {
            (min_h + 1).min(max_h as u32)
        };
        level_count[old_h] -= 1;
        // Gap heuristic: if v left level `old_h` empty and old_h < n, every
        // vertex above the gap can never push to t again; lift them past n.
        let n = net.n();
        if level_count[old_h] == 0 && old_h < n {
            for u in 0..n as NodeId {
                let ui = u as usize;
                if u != s && u != t && height[ui] as usize > old_h && (height[ui] as usize) < n {
                    level_count[height[ui] as usize] -= 1;
                    height[ui] = n as u32 + 1;
                    level_count[n + 1] += 1;
                    // Re-queue lifted vertices so their excess keeps moving
                    // (back towards the source, above level n).
                    if excess[ui] > 0 {
                        active[n + 1].push(u);
                        if n + 1 > *highest {
                            *highest = n + 1;
                        }
                    }
                }
            }
        }
        height[vi] = new_h.max(height[vi]);
        level_count[height[vi] as usize] += 1;
        cur[vi] = 0;
        if height[vi] as usize >= max_h || excess[vi] == 0 {
            return;
        }
        // Re-queue at the new level and stop this discharge (highest-label
        // policy processes levels top-down).
        let h = height[vi] as usize;
        active[h].push(v);
        if h > *highest {
            *highest = h;
        }
    }
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
