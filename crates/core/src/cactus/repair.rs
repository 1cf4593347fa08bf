//! Edge-local repair of a maintained cactus.
//!
//! The dynamic maintainer keeps the cactus of *all* minimum cuts
//! current across edge updates. A full rebuild re-enumerates the family
//! from scratch — n−1 max flows — but most updates change the family in
//! a way the **old structure already describes**, so the new family can
//! be derived from the old cactus alone and reassembled through the
//! same `assemble` machinery, skipping the flows entirely:
//!
//! | update (λ > 0) | new λ | surviving family |
//! |---|---|---|
//! | insert `{u, v}`, same node | λ | unchanged — absorbed upstream, O(1) |
//! | insert `{u, v}`, cross-node, λ kept | λ | old cuts **not** separating `u, v` |
//! | insert `{u, v}`, cross-node, λ rose | λ′ > λ | not derivable → rebuild |
//! | delete `{u, v}` crossing some min cut | λ − w | old cuts separating `u, v` |
//! | delete `{u, v}`, same node, λ kept | λ | old family, plus the min u-v cuts of one residual |
//! | delete `{u, v}`, same node, λ dropped | λ′ < λ | not derivable → rebuild |
//!
//! The derivations are exact, not heuristic. Insertions only ever raise
//! cut values: after a cross-node insert that left λ unchanged, every
//! old minimum cut separating `u` from `v` now costs λ + w and every
//! other cut kept its value, so the survivors — the cuts whose 2-cut
//! edges avoid the cactus tree-path between `u`'s and `v`'s nodes — are
//! exactly the new family. Deletions only ever lower values, and only
//! for cuts separating the endpoints: a deletion crossed by some
//! minimum cut lands every separating minimum cut on λ − w while every
//! non-separating cut stays at ≥ λ, so the separating old cuts (the
//! tree-path bridges and the cross-arc cycle pairs through the deleted
//! edge's node pair) are exactly the new family. A same-node deletion
//! that kept λ leaves the old family intact but can *grow* it — cuts of
//! old value λ + w separating `u, v` drop onto λ — and every joining
//! cut separates `u` from `v`, so all of them fall out of the residual
//! closed sets of **one** conservation max flow instead of n − 1.
//!
//! λ = 0 has its own local case: an insert joining two of c ≥ 3
//! components merges their cactus nodes in O(n) and the family stays
//! the component power set.
//!
//! Every repaired structure re-proves the subsystem's bijection
//! contract (its 2-cuts re-enumerate to exactly the derived family)
//! before it is accepted; any disagreement returns `None` and the
//! caller falls back to the full rebuild.

use mincut_flow::max_flow;
use mincut_graph::{CsrGraph, EdgeWeight, NodeId};

use super::builder::assemble;
use super::Cactus;

impl Cactus {
    /// Repair after inserting edge `{u, v}` across two cactus nodes
    /// **when λ did not change**: the new family is the old cuts not
    /// separating `u` from `v`. Returns `None` when no cut survives
    /// (λ must then have risen — the caller's λ check fires first) or
    /// when the reassembled structure fails the bijection check.
    pub(crate) fn repaired_after_insert(&self, u: NodeId, v: NodeId) -> Option<Cactus> {
        if self.lambda == 0 || self.same_node(u, v) {
            return None;
        }
        let survivors: Vec<Vec<bool>> = self
            .enumerate_min_cuts(usize::MAX)
            .into_iter()
            .filter(|s| s[u as usize] == s[v as usize])
            .collect();
        if survivors.is_empty() {
            return None;
        }
        self.reassembled(self.lambda, survivors)
    }

    /// Repair after deleting the weight-`w` edge `{u, v}` that crossed
    /// some minimum cut (`u`, `v` in different cactus nodes), with
    /// `new_lambda = λ − w > 0`: exactly the old cuts separating `u`
    /// from `v` survive, all landing on `new_lambda`.
    pub(crate) fn repaired_after_crossing_delete(
        &self,
        u: NodeId,
        v: NodeId,
        new_lambda: EdgeWeight,
    ) -> Option<Cactus> {
        if self.lambda == 0 || new_lambda == 0 || self.same_node(u, v) {
            return None;
        }
        let survivors: Vec<Vec<bool>> = self
            .enumerate_min_cuts(usize::MAX)
            .into_iter()
            .filter(|s| s[u as usize] != s[v as usize])
            .collect();
        debug_assert!(
            !survivors.is_empty(),
            "different cactus nodes certify a separating minimum cut"
        );
        if survivors.is_empty() {
            return None;
        }
        self.reassembled(new_lambda, survivors)
    }

    /// Repair after deleting edge `{u, v}` with both endpoints in one
    /// cactus node **when λ did not change**. No old minimum cut
    /// separates `u` from `v`, so the old family survives untouched;
    /// the only possible change is *growth* — cuts separating `u, v`
    /// whose value dropped onto λ — and every such cut is a minimum
    /// u-v cut of the current graph `g`, so one conservation max flow
    /// either certifies the family unchanged (`maxflow > λ`) or hands
    /// over every joining cut from its residual closed sets.
    pub(crate) fn repaired_after_internal_delete(
        &self,
        g: &CsrGraph,
        u: NodeId,
        v: NodeId,
    ) -> Option<Cactus> {
        if self.lambda == 0 || !self.same_node(u, v) {
            return None;
        }
        let flow = max_flow(g, u, v);
        if flow.value > self.lambda {
            // No cut separating u, v reaches λ: family — and therefore
            // structure — unchanged.
            return Some(self.clone());
        }
        if flow.value < self.lambda {
            // λ itself dropped; the caller's λ check should have caught
            // this before asking for a repair.
            return None;
        }
        let mut family = self.enumerate_min_cuts(usize::MAX);
        let bound = self.n * (self.n - 1) / 2;
        if family.len() >= bound {
            return None;
        }
        let (sides, truncated) = flow.min_cut_sides(bound + 1 - family.len());
        if truncated {
            return None;
        }
        for mut side in sides {
            if side[0] {
                for b in &mut side {
                    *b = !*b;
                }
            }
            family.push(side);
        }
        family.sort();
        // Old cuts never separate u, v and residual cuts always do, so
        // the union is disjoint; a duplicate disproves the derivation.
        if family.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        self.reassembled(self.lambda, family)
    }

    /// λ = 0 repair: an insert joining two different components while
    /// c ≥ 3 keeps λ = 0 and merges exactly the two touched cactus
    /// nodes — the family stays the (one smaller) component power set.
    pub(crate) fn repaired_merge_components(&self, u: NodeId, v: NodeId) -> Option<Cactus> {
        if self.lambda != 0 || self.same_node(u, v) || self.components <= 2 {
            return None;
        }
        let (nu, nv) = (self.node_of(u), self.node_of(v));
        let (keep, gone) = if nu < nv { (nu, nv) } else { (nv, nu) };
        let mut node_of = self.node_of.clone();
        for x in node_of.iter_mut() {
            if *x == gone {
                *x = keep;
            } else if *x > gone {
                *x -= 1;
            }
        }
        let mut nodes = self.nodes.clone();
        let moved = nodes.remove(gone as usize);
        nodes[keep as usize].extend(moved);
        nodes[keep as usize].sort_unstable();
        let mut stats = self.stats.clone();
        stats.classes = self.components - 1;
        Some(Cactus::new(
            0,
            self.n,
            node_of,
            nodes,
            Vec::new(),
            Vec::new(),
            self.components - 1,
            stats,
        ))
    }

    /// Reassembles a derived family into a cactus and re-proves the
    /// bijection contract on the result; `None` on any disagreement
    /// (the caller then falls back to a full rebuild).
    fn reassembled(&self, new_lambda: EdgeWeight, family: Vec<Vec<bool>>) -> Option<Cactus> {
        debug_assert!(new_lambda > 0 && !family.is_empty());
        let mut stats = self.stats.clone();
        stats.lambda = new_lambda;
        stats.cuts = family.len() as u64;
        let cactus = assemble(self.n, new_lambda, &family, stats);
        let structural = cactus.enumerate_min_cuts(usize::MAX);
        if structural.len() as u128 != cactus.count_min_cuts() || structural != family {
            return None;
        }
        Some(cactus)
    }
}

#[cfg(test)]
mod tests {
    use super::super::CactusBuilder;
    use mincut_graph::generators::known;
    use mincut_graph::{CsrGraph, DeltaGraph};

    #[test]
    fn insert_repair_filters_to_the_nonseparated_cuts() {
        // C6 at λ = 2: 15 cuts. Inserting a chord {0, 3} kills every cut
        // separating 0 from 3; the survivors form the new family at λ = 2.
        let (g, l) = known::cycle_graph(6, 1);
        let old = CactusBuilder::new().build_with_lambda(&g, l).unwrap();
        let repaired = old.repaired_after_insert(0, 3).expect("repairable");
        let mut dg = DeltaGraph::new(g);
        dg.insert_edge(0, 3, 5);
        let fresh = CactusBuilder::new()
            .build_with_lambda(&dg.to_csr(), l)
            .unwrap();
        assert_eq!(repaired.count_min_cuts(), fresh.count_min_cuts());
        assert_eq!(
            repaired.enumerate_min_cuts(usize::MAX),
            fresh.enumerate_min_cuts(usize::MAX)
        );
    }

    #[test]
    fn crossing_delete_repair_keeps_the_separated_cuts() {
        // C6 with doubled weights: λ = 4. Deleting edge {0, 1} (w = 2)
        // drops λ to 2; survivors are the 0/1-separating cycle pairs.
        let (g, l) = known::cycle_graph(6, 2);
        let old = CactusBuilder::new().build_with_lambda(&g, l).unwrap();
        let repaired = old
            .repaired_after_crossing_delete(0, 1, l - 2)
            .expect("repairable");
        let mut dg = DeltaGraph::new(g);
        dg.delete_edge(0, 1).unwrap();
        let fresh = CactusBuilder::new()
            .build_with_lambda(&dg.to_csr(), l - 2)
            .unwrap();
        assert_eq!(
            repaired.enumerate_min_cuts(usize::MAX),
            fresh.enumerate_min_cuts(usize::MAX)
        );
    }

    #[test]
    fn internal_delete_repair_grows_the_family_from_one_residual() {
        // Square + heavy chord 0-2: λ = 2, cuts {1} and {3} only, with
        // 0 and 2 sharing a cactus node. Deleting the chord keeps λ = 2
        // but the 0/2-separating cuts rejoin the family (C4 has 6).
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 5)]);
        let old = CactusBuilder::new().build_with_lambda(&g, 2).unwrap();
        assert_eq!(old.count_min_cuts(), 2);
        assert!(old.same_node(0, 2));
        let mut dg = DeltaGraph::new(g);
        dg.delete_edge(0, 2).unwrap();
        let now = dg.to_csr();
        let repaired = old
            .repaired_after_internal_delete(&now, 0, 2)
            .expect("repairable");
        let fresh = CactusBuilder::new().build_with_lambda(&now, 2).unwrap();
        assert_eq!(repaired.count_min_cuts(), 6);
        assert_eq!(
            repaired.enumerate_min_cuts(usize::MAX),
            fresh.enumerate_min_cuts(usize::MAX)
        );
    }

    #[test]
    fn internal_delete_repair_certifies_an_unchanged_family() {
        // Two communities, unique bridge cut; deleting an intra-clique
        // edge keeps λ and the u-v max flow stays above λ: the old
        // structure is reused as-is.
        let (g, l) = known::two_communities(5, 5, 1, 3, 2);
        let old = CactusBuilder::new().build_with_lambda(&g, l).unwrap();
        let mut dg = DeltaGraph::new(g);
        dg.delete_edge(0, 1).unwrap();
        let now = dg.to_csr();
        assert_eq!(sm_lambda(&now), l);
        let repaired = old
            .repaired_after_internal_delete(&now, 0, 1)
            .expect("repairable");
        assert_eq!(
            repaired.enumerate_min_cuts(usize::MAX),
            old.enumerate_min_cuts(usize::MAX)
        );
    }

    #[test]
    fn zero_lambda_insert_merges_two_component_nodes() {
        let g = CsrGraph::from_edges(6, &[(0, 1, 2), (2, 3, 1), (4, 5, 3)]);
        let old = CactusBuilder::new().build_with_lambda(&g, 0).unwrap();
        assert_eq!(old.components(), 3);
        let repaired = old.repaired_merge_components(1, 2).expect("c > 2");
        assert_eq!(repaired.components(), 2);
        assert_eq!(repaired.count_min_cuts(), 1);
        assert!(repaired.same_node(0, 3));
        assert!(!repaired.same_node(0, 4));
        // c = 2: a joining insert connects the graph, λ rises — no merge.
        assert!(repaired.repaired_merge_components(0, 4).is_none());
    }

    fn sm_lambda(g: &CsrGraph) -> mincut_graph::EdgeWeight {
        known::brute_force_mincut(g)
    }
}
