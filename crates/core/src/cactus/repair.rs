//! Edge-local repair of a maintained cactus.
//!
//! The dynamic maintainer keeps the cactus of *all* minimum cuts
//! current across edge updates. A full rebuild re-enumerates the family
//! from scratch — the λ + 1 kernel's CAPFOREST passes and contractions,
//! then (kernel n) − 1 max flows — but most updates change the family in
//! a way the **old structure already describes**, so the new family can
//! be derived from the old cactus alone and reassembled through the
//! same `assemble` machinery, skipping the kernel and the enumeration
//! flows:
//!
//! | update (λ > 0) | new λ | surviving family |
//! |---|---|---|
//! | insert `{u, v}`, same node | λ | unchanged — absorbed upstream, O(1) |
//! | insert `{u, v}`, cross-node, λ kept | λ | old cuts **not** separating `u, v` |
//! | insert `{u, v}`, cross-node, λ rose | λ′ > λ | not derivable → rebuild |
//! | delete `{u, v}` crossing some min cut | λ − w | old cuts separating `u, v` |
//! | delete `{u, v}`, same node, u–v flow > λ | λ | unchanged — the structure is kept |
//! | delete `{u, v}`, same node, u–v flow = λ | λ | old family, plus the min u–v cuts of the flow |
//! | delete `{u, v}`, same node, u–v flow < λ | flow | exactly the min u–v cuts of the flow |
//!
//! A delete that takes λ to 0 changes regime (one node per component)
//! and rebuilds; so does an insert at λ = 0 that connects the graph.
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
//! leaves every old minimum cut at λ, and every cut whose value fell
//! separates `u` from `v` and costs at least maxflow(u, v) in the new
//! graph. The maintainer runs that one u–v max flow to decide λ′ =
//! min(λ, flow) and hands it over: above λ the family is unchanged, at
//! λ it *grows* by the minimum u–v cuts, and below λ those cuts are the
//! whole new family. Either way they fall out of the residual closed
//! sets of that **one** flow instead of the kernel and the flows of a
//! rebuild.
//!
//! λ = 0 has its own local case: an insert joining two of c ≥ 3
//! components merges their cactus nodes in O(n) and the family stays
//! the component power set.
//!
//! Every repaired structure re-proves the subsystem's bijection
//! contract (its 2-cuts re-enumerate to exactly the derived family)
//! before it is accepted; any disagreement returns `None` and the
//! caller falls back to the full rebuild.

use mincut_flow::MaxFlowResult;
use mincut_graph::{EdgeWeight, NodeId};

use super::builder::assemble;
use super::Cactus;

/// A successful repair: the family either stayed as it was, so the
/// maintainer keeps sharing its current structure, or changed into the
/// certified new structure.
pub(crate) enum Repaired {
    /// The family is unchanged; keep the current cactus.
    Unchanged,
    /// The family changed; install this cactus.
    Changed(Box<Cactus>),
}

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
    /// cactus node, from `flow`, the delete's u–v maximum flow over the
    /// current graph (run by the caller, which also took its new λ from
    /// it: λ′ = min(λ, flow)). No old minimum cut separates `u` from
    /// `v`, so every old cut kept its value λ, and every cut whose value
    /// changed separates `u` from `v` and costs at least the flow:
    ///
    /// - flow > λ: the family is unchanged ([`Repaired::Unchanged`]);
    /// - flow = λ: the old family survives and the minimum u–v cuts
    ///   (value λ) join it;
    /// - flow < λ: every cut below λ separates `u` from `v`, so the
    ///   minimum u–v cuts are the whole new family at λ′ = flow.
    ///
    /// The joining cuts come from the flow's residual closed sets. Flow
    /// 0 (the delete disconnected the graph) and λ = 0 return `None`:
    /// the caller rebuilds the component structure.
    pub(crate) fn repaired_after_internal_delete(
        &self,
        flow: &MaxFlowResult,
        u: NodeId,
        v: NodeId,
    ) -> Option<Repaired> {
        if self.lambda == 0 || flow.value == 0 || !self.same_node(u, v) {
            return None;
        }
        if flow.value > self.lambda {
            return Some(Repaired::Unchanged);
        }
        let mut family = if flow.value == self.lambda {
            self.enumerate_min_cuts(usize::MAX)
        } else {
            Vec::new()
        };
        let bound = self.n * (self.n - 1) / 2;
        if family.len() >= bound {
            return None;
        }
        let (sides, truncated) = flow.min_cut_sides(bound + 1 - family.len());
        if truncated || family.len() + sides.len() > bound {
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
        self.reassembled(flow.value, family)
            .map(|c| Repaired::Changed(Box::new(c)))
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
    use super::*;
    use mincut_flow::max_flow;
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

    /// The cactus a same-node delete repairs to, from the delete's u–v
    /// flow on the current graph.
    fn internal_delete_repair(old: &Cactus, g: &DeltaGraph, u: NodeId, v: NodeId) -> Repaired {
        old.repaired_after_internal_delete(&max_flow(g, u, v), u, v)
            .expect("repairable")
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
        let Repaired::Changed(repaired) = internal_delete_repair(&old, &dg, 0, 2) else {
            panic!("the family grew");
        };
        let fresh = CactusBuilder::new()
            .build_with_lambda(&dg.to_csr(), 2)
            .unwrap();
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
        // structure is kept as it is.
        let (g, l) = known::two_communities(5, 5, 1, 3, 2);
        let old = CactusBuilder::new().build_with_lambda(&g, l).unwrap();
        let mut dg = DeltaGraph::new(g);
        dg.delete_edge(0, 1).unwrap();
        assert_eq!(sm_lambda(&dg.to_csr()), l);
        assert!(matches!(
            internal_delete_repair(&old, &dg, 0, 1),
            Repaired::Unchanged
        ));
    }

    #[test]
    fn internal_delete_repair_replaces_the_family_when_lambda_drops() {
        // Triangles A = {0, 2, 3} and B = {1, 4, 5} (weight 4), joined
        // by the heavy edge 0-1 (10), the light edge 2-4 (1) and the
        // path 3-6-5 (2 + 2). λ = 4: vertex 6 alone, the unique minimum
        // cut, so 0 and 1 share a cactus node. Without 0-1 both A|B
        // cuts cost 1 + 2 = 3 < 4: every new minimum cut separates 0
        // from 1, and the repair takes them from the flow alone.
        let g = CsrGraph::from_edges(
            7,
            &[
                (0, 2, 4),
                (0, 3, 4),
                (2, 3, 4),
                (1, 4, 4),
                (1, 5, 4),
                (4, 5, 4),
                (0, 1, 10),
                (2, 4, 1),
                (3, 6, 2),
                (6, 5, 2),
            ],
        );
        assert_eq!(sm_lambda(&g), 4);
        let old = CactusBuilder::new().build_with_lambda(&g, 4).unwrap();
        assert_eq!(old.count_min_cuts(), 1);
        assert!(old.same_node(0, 1));
        let mut dg = DeltaGraph::new(g);
        dg.delete_edge(0, 1).unwrap();
        let now = dg.to_csr();
        assert_eq!(max_flow(&dg, 0, 1).value, 3);
        assert_eq!(sm_lambda(&now), 3);
        let Repaired::Changed(repaired) = internal_delete_repair(&old, &dg, 0, 1) else {
            panic!("λ dropped, so the family changed");
        };
        let fresh = CactusBuilder::new().build_with_lambda(&now, 3).unwrap();
        assert_eq!(repaired.lambda(), 3);
        assert_eq!(repaired.count_min_cuts(), 2);
        assert_eq!(
            repaired.enumerate_min_cuts(usize::MAX),
            fresh.enumerate_min_cuts(usize::MAX)
        );
        // A flow of 0 (the delete disconnected the graph) is left to
        // the component rebuild.
        let path = CsrGraph::from_edges(3, &[(0, 1, 5), (1, 2, 1), (0, 2, 9)]);
        let old = CactusBuilder::new().build_with_lambda(&path, 6).unwrap();
        assert!(old.same_node(0, 2));
        let mut dg = DeltaGraph::new(path);
        dg.delete_edge(0, 2).unwrap();
        dg.delete_edge(0, 1).unwrap();
        assert!(old
            .repaired_after_internal_delete(&max_flow(&dg, 0, 2), 0, 2)
            .is_none());
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
