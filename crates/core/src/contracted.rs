//! The contraction state every round loop shares.
//!
//! NOI (§3.1), ParCut (Algorithm 2), VieCut (§2.4) and the reduction
//! pipeline all run the same round: mark contractible edges
//! against λ̂, collapse them, and then, per §3.2, "if the collapsed graph
//! G_C has a minimum degree of less than λ̂, we update λ̂". [`Contracted`]
//! owns that round's bookkeeping: the current graph, λ̂ with its witness,
//! the optional [`Membership`] map back to the input's vertices (§3.3),
//! and the [`ContractionEngine`] whose double buffer the rounds reuse.
//! The drivers keep their scans, their telemetry and their spans.
//!
//! Two invariants hold between calls:
//!
//! * λ̂ is the value of a real cut of the input. With sides tracked, the
//!   witness is that cut over the input's vertices; it is `None` only
//!   while a sideless caller bound holds the record.
//! * λ̂ never exceeds the minimum weighted degree of any graph the loop has
//!   held. Padberg–Rinaldi test 2 only preserves non-trivial cuts, so it
//!   relies on this.
//!
//! The input stays borrowed until the first contraction, so no driver
//! copies its input graph.

use std::borrow::Cow;

use mincut_ds::UnionFind;
use mincut_graph::{ContractionEngine, CsrGraph, EdgeWeight, Membership, NodeId};

use crate::stoer_wagner::stoer_wagner_phase;
use crate::MinCutResult;

/// A round loop's current graph, its bound λ̂ and the witness behind it.
pub(crate) struct Contracted<'g> {
    graph: Cow<'g, CsrGraph>,
    /// Current vertex → input vertices. `None` when sides are not tracked:
    /// value-only runs, the way the paper measures, skip the per-round
    /// O(n) fold.
    membership: Option<Membership>,
    lambda: EdgeWeight,
    /// The cut behind `lambda`, over the input's vertices.
    side: Option<Vec<bool>>,
    engine: ContractionEngine,
}

impl<'g> Contracted<'g> {
    /// Starts on `g` (n ≥ 2) with λ̂ at the minimum weighted degree and
    /// that vertex alone as the side.
    pub fn new(g: &'g CsrGraph, track_sides: bool) -> Self {
        let (v, degree) = g.min_weighted_degree().expect("n >= 2");
        let membership = track_sides.then(|| Membership::identity(g.n()));
        let side = membership.as_ref().map(|m| m.side_of_vertices(&[v]));
        Contracted {
            graph: Cow::Borrowed(g),
            membership,
            lambda: degree,
            side,
            engine: ContractionEngine::new(),
        }
    }

    /// The current graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The current bound λ̂.
    pub fn lambda(&self) -> EdgeWeight {
        self.lambda
    }

    /// Takes a cut found outside the loop — a caller's bound, VieCut's
    /// result — if it beats λ̂. `side` is over the input's vertices; with
    /// sides tracked, `None` leaves the record sideless.
    pub fn adopt(&mut self, value: EdgeWeight, side: Option<Vec<bool>>) {
        if value < self.lambda {
            self.lambda = value;
            if self.membership.is_some() {
                self.side = side;
            }
        }
    }

    /// Takes the cut around `vertices` of the current graph (a scan's
    /// prefix) if `value` beats λ̂.
    pub fn offer(&mut self, value: EdgeWeight, vertices: &[NodeId]) {
        if value < self.lambda {
            self.lambda = value;
            self.side = self
                .membership
                .as_ref()
                .map(|m| m.side_of_vertices(vertices));
        }
    }

    /// Takes the cut given by a side bitmap over the current graph if
    /// `value` beats λ̂. The bitmap is required when sides are tracked.
    pub fn offer_bitmap(&mut self, value: EdgeWeight, side: Option<&[bool]>) {
        if value < self.lambda {
            self.lambda = value;
            self.side = self
                .membership
                .as_ref()
                .map(|m| m.side_of_bitmap(side.expect("tracked sides need the cut's bitmap")));
        }
    }

    /// Collapses the current graph by `labels` (vertex → block in
    /// `[0, blocks)`), then offers the new graph's minimum-degree cut when
    /// it still has two vertices.
    pub fn contract(&mut self, labels: &[NodeId], blocks: usize) {
        let next = self.engine.contract(&self.graph, labels, blocks);
        if let Some(m) = &mut self.membership {
            m.contract(labels, blocks);
        }
        // Only an owned (already contracted) graph goes back into the
        // double buffer; the borrowed input belongs to the caller.
        if let Cow::Owned(old) = std::mem::replace(&mut self.graph, Cow::Owned(next)) {
            self.engine.recycle(old);
        }
        if self.graph.n() >= 2 {
            let (v, degree) = self.graph.min_weighted_degree().expect("n >= 2");
            self.offer(degree, &[v]);
        }
    }

    /// The rescue for a scan that marked nothing (§3.2: bounded and
    /// parallel scans cannot guarantee a contractible edge). Runs one
    /// Stoer–Wagner phase from `start` and unions its last pair in `uf`:
    /// that pair's connectivity is the cut of the phase, so contracting it
    /// is always safe and always progress. The cut of the phase isolates
    /// the last vertex, so the minimum-degree invariant already covers it.
    pub fn sw_rescue(&self, start: NodeId, uf: &mut UnionFind) {
        let phase = stoer_wagner_phase(&self.graph, start);
        debug_assert!(phase.cut_of_phase >= self.lambda, "λ̂ above a degree cut");
        uf.union(phase.s, phase.t);
    }

    /// λ̂ and its witness.
    pub fn into_result(self) -> MinCutResult {
        MinCutResult {
            value: self.lambda,
            side: self.side,
        }
    }

    /// The kernel, the membership map, λ̂ and its witness. A loop that
    /// never contracted pays its one copy of the input here.
    pub fn into_parts(self) -> (CsrGraph, Option<Membership>, EdgeWeight, Option<Vec<bool>>) {
        (
            self.graph.into_owned(),
            self.membership,
            self.lambda,
            self.side,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::generators::known;

    /// Two weight-3 4-cliques, {0..3} and {4..7}, joined by the unit
    /// edges 0-4 and 1-5: λ = 2, minimum degree 9 (vertex 2).
    fn two_cliques() -> CsrGraph {
        let mut edges = vec![(0, 4, 1), (1, 5, 1)];
        for base in [0, 4] {
            for u in base..base + 4 {
                for v in u + 1..base + 4 {
                    edges.push((u, v, 3));
                }
            }
        }
        CsrGraph::from_edges(8, &edges)
    }

    #[test]
    fn offered_vertex_sets_map_back_to_cuts_of_the_input() {
        let g = two_cliques();
        let mut k = Contracted::new(&g, true);
        assert_eq!(k.lambda(), 9);
        // {0, 1} and {4, 5}, then {01, 2}: no contracted vertex beats
        // the degree bound.
        k.contract(&[0, 0, 1, 2, 3, 3, 4, 5], 6);
        k.contract(&[0, 0, 1, 2, 3, 4], 5);
        assert_eq!((k.graph().n(), k.lambda()), (5, 9));
        // Current vertices 0 = {0, 1, 2} and 1 = {3}: the left clique.
        k.offer(2, &[0, 1]);
        let r = k.into_result();
        let side = r.side.expect("sides tracked");
        assert_eq!(side, [true, true, true, true, false, false, false, false]);
        assert_eq!((r.value, g.cut_value(&side)), (2, 2));
    }

    #[test]
    fn untracked_sides_yield_no_witness() {
        let g = two_cliques();
        let mut k = Contracted::new(&g, false);
        k.contract(&[0, 0, 1, 2, 3, 3, 4, 5], 6);
        k.offer(2, &[0, 1]);
        k.adopt(1, Some(vec![true; 8]));
        let r = k.into_result();
        assert_eq!(r.value, 1);
        assert!(r.side.is_none());
    }

    #[test]
    fn contracting_to_one_vertex_offers_nothing() {
        // A lone vertex has weighted degree 0 but no cut at all.
        let (g, _) = known::cycle_graph(4, 3);
        let mut k = Contracted::new(&g, true);
        k.contract(&[0, 0, 0, 0], 1);
        assert_eq!(k.graph().n(), 1);
        let r = k.into_result();
        assert_eq!(r.value, 6);
        assert_eq!(r.side.unwrap(), [true, false, false, false]);
    }

    #[test]
    fn the_input_is_borrowed_until_the_first_contraction() {
        let g = two_cliques();
        let mut k = Contracted::new(&g, true);
        k.offer(2, &[0, 1, 2, 3]);
        k.adopt(1, None);
        assert!(std::ptr::eq(k.graph(), &g), "no copy of the input");
        k.contract(&[0, 0, 1, 2, 3, 3, 4, 5], 6);
        assert!(!std::ptr::eq(k.graph(), &g));
    }

    #[test]
    fn sw_rescue_unions_the_phase_pair_and_keeps_the_bound() {
        let g = two_cliques();
        let mut k = Contracted::new(&g, true);
        k.contract(&[0, 0, 1, 2, 3, 3, 4, 5], 6);
        let phase = stoer_wagner_phase(k.graph(), 0);
        let mut uf = UnionFind::new(k.graph().n());
        k.sw_rescue(0, &mut uf);
        assert!(uf.same(phase.s, phase.t), "the phase's last pair");
        assert_eq!(uf.count(), k.graph().n() - 1, "and nothing else");
        // The cut of the phase is a degree cut of the current graph.
        assert_eq!(phase.cut_of_phase, k.graph().weighted_degree(phase.t));
        assert!(phase.cut_of_phase >= k.lambda());
        let r = k.into_result();
        assert_eq!((r.value, g.cut_value(&r.side.unwrap())), (9, 9));
    }
}
