//! Assembling the cactus from the enumerated minimum-cut family.
//!
//! The construction is the classical Dinitz–Karzanov–Lomonosov structure
//! run in reverse: instead of deriving the family from the cactus, the
//! builder derives the cactus from the family (which
//! [`enumerate::all_min_cuts`](super::enumerate::all_min_cuts) hands it
//! output-sensitively) and then *proves* the round trip by re-enumerating
//! the built structure's 2-cuts and comparing. The steps:
//!
//! 1. **Classes.** Vertices never separated by any minimum cut form one
//!    class ([`mincut_graph::signature_classes`]); every cut is a union
//!    of classes, and the classes become the vertex contents of the
//!    cactus nodes. Cuts are kept canonical — the class of vertex 0
//!    (class 0, the *root class*) is always outside.
//! 2. **Crossing components.** Two cuts cross when neither side relation
//!    holds and they intersect (the fourth quadrant is free: it holds
//!    the root class). Connected components of the crossing relation
//!    with ≥ 2 cuts generate the cycles.
//! 3. **Circular partitions.** The cuts of one crossing component
//!    refine the classes into m ≥ 4 *parts* which admit a circular
//!    order in which the component's cuts are exactly the unions of
//!    circularly-consecutive parts; two parts are adjacent iff their
//!    union (or its complement, when the root part is involved) is
//!    itself a minimum cut. Each part then has exactly two neighbours.
//! 4. **Interval marking.** Cuts that are consecutive-part unions of
//!    some component are represented by a cycle edge pair; everything
//!    else is a *tree cut*, represented by a bridge. (Single parts and
//!    the union of all non-root parts are intervals that cross nothing,
//!    so the check runs for singleton components too.)
//! 5. **Laminar forest.** Non-root parts and tree-cut sides form a
//!    laminar family; its forest (by containment) gives the cactus
//!    skeleton: one node per laminar set (vertex content = its classes
//!    minus its children's), a root node for the classes under no set,
//!    bridges to parents for tree cuts, and one cycle per crossing
//!    component threading the part nodes in circular order with the
//!    parts' common laminar parent standing in for the root part.
//!
//! The final bijection check (`structure 2-cuts == family`) is a hard
//! assertion, not a debug assertion: it is the subsystem's contract and
//! costs one extra output-sensitive enumeration.

use std::collections::HashMap;
use std::time::Instant;

use mincut_graph::components::connected_components;
use mincut_graph::{signature_classes, CsrGraph, EdgeWeight, NodeId};

use super::enumerate::all_min_cuts;
use super::{Cactus, CactusEdge};
use crate::error::MinCutError;
use crate::registry::SolverRegistry;
use crate::stats::CactusStats;
use crate::SolveOptions;

/// Builds a [`Cactus`] for a graph, obtaining λ through the solver
/// registry (kernelization pipeline included) or taking it as given.
///
/// ```
/// use mincut_core::cactus::CactusBuilder;
/// use mincut_graph::generators::known;
///
/// let (g, l) = known::two_communities(5, 5, 1, 2, 1);
/// let cactus = CactusBuilder::new().solver("noi").build(&g).unwrap();
/// assert_eq!(cactus.lambda(), l);
/// assert_eq!(cactus.count_min_cuts(), 1); // the unique bridge cut
/// ```
#[derive(Clone, Debug)]
pub struct CactusBuilder {
    solver: String,
    opts: SolveOptions,
}

impl Default for CactusBuilder {
    fn default() -> Self {
        CactusBuilder::new()
    }
}

impl CactusBuilder {
    /// A builder using the paper's fastest sequential configuration
    /// (`noi-viecut`) to discover λ.
    pub fn new() -> Self {
        CactusBuilder {
            solver: "noi-viecut".to_string(),
            opts: SolveOptions::new(),
        }
    }

    /// Selects the registered solver used to discover λ. The solver must
    /// be exact — the build rejects a λ that is not the minimum cut.
    pub fn solver(mut self, name: &str) -> Self {
        self.solver = name.to_string();
        self
    }

    /// Options passed to the λ solve (seed, threads, reductions, …).
    pub fn options(mut self, opts: SolveOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Solves for λ, then builds the cactus of every minimum cut.
    pub fn build(&self, g: &CsrGraph) -> Result<Cactus, MinCutError> {
        let solver = SolverRegistry::global().resolve_exact(&self.solver)?;
        let t0 = Instant::now();
        let out = solver.solve(g, &self.opts)?;
        self.build_inner(g, out.cut.value, t0.elapsed().as_secs_f64())
    }

    /// Builds the cactus from a *known* λ — no solver run. This is the
    /// rebuild path of the dynamic maintenance, where λ is already
    /// maintained exactly. `lambda` must equal λ(g): any other value is
    /// a [`MinCutError::InvalidOptions`].
    pub fn build_with_lambda(
        &self,
        g: &CsrGraph,
        lambda: EdgeWeight,
    ) -> Result<Cactus, MinCutError> {
        self.build_inner(g, lambda, 0.0)
    }

    fn build_inner(
        &self,
        g: &CsrGraph,
        lambda: EdgeWeight,
        solve_seconds: f64,
    ) -> Result<Cactus, MinCutError> {
        let n = g.n();
        if n < 2 {
            return Err(MinCutError::TooFewVertices { n });
        }
        let mut stats = CactusStats {
            n,
            m: g.m(),
            lambda,
            solve_seconds,
            ..CactusStats::default()
        };

        if lambda == 0 {
            // Disconnected: the family is the power set of the
            // components; store the component structure directly.
            let t0 = Instant::now();
            let (comp_of, c) = connected_components(g);
            if c < 2 {
                return Err(MinCutError::InvalidOptions {
                    message: "λ = 0 is not the minimum cut value of a connected graph".into(),
                });
            }
            let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); c];
            for (v, &comp) in comp_of.iter().enumerate() {
                nodes[comp as usize].push(v as NodeId);
            }
            stats.classes = c;
            stats.build_seconds = t0.elapsed().as_secs_f64();
            return Ok(Cactus::new(
                0,
                n,
                comp_of,
                nodes,
                Vec::new(),
                Vec::new(),
                c,
                stats,
            ));
        }

        let t0 = Instant::now();
        let (cuts, kernel_n) = all_min_cuts(g, lambda)?;
        stats.enumerate_seconds = t0.elapsed().as_secs_f64();
        stats.cuts = cuts.len() as u64;
        stats.kernel_n = kernel_n;

        let t1 = Instant::now();
        let cactus = assemble(n, lambda, &cuts, stats.clone());

        // The subsystem's contract: the 2-cuts of the built structure
        // are exactly the enumerated family. Always on — every query
        // answered later relies on this bijection.
        let structural = cactus.enumerate_min_cuts(usize::MAX);
        assert_eq!(
            structural.len() as u128,
            cactus.count_min_cuts(),
            "structure count disagrees with its own enumeration"
        );
        assert_eq!(
            structural, cuts,
            "cactus 2-cuts must biject with the minimum-cut family"
        );
        let mut cactus = cactus;
        cactus.stats_mut().build_seconds = t1.elapsed().as_secs_f64();
        Ok(cactus)
    }
}

/// Fixed-width bitset over the class universe; the currency of the
/// assembly (cuts, parts and laminar sets are all class sets).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Bits {
    blocks: Vec<u64>,
    k: usize,
}

impl Bits {
    fn empty(k: usize) -> Self {
        Bits {
            blocks: vec![0; k.div_ceil(64)],
            k,
        }
    }

    fn set(&mut self, i: usize) {
        self.blocks[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    fn intersects(&self, o: &Bits) -> bool {
        self.blocks.iter().zip(&o.blocks).any(|(a, b)| a & b != 0)
    }

    fn is_subset(&self, o: &Bits) -> bool {
        self.blocks.iter().zip(&o.blocks).all(|(a, b)| a & !b == 0)
    }

    fn union(&self, o: &Bits) -> Bits {
        Bits {
            blocks: self
                .blocks
                .iter()
                .zip(&o.blocks)
                .map(|(a, b)| a | b)
                .collect(),
            k: self.k,
        }
    }

    /// Complement within the k-class universe (tail bits stay clear so
    /// equality and hashing stay canonical).
    fn complement(&self) -> Bits {
        let mut blocks: Vec<u64> = self.blocks.iter().map(|b| !b).collect();
        let tail = self.k % 64;
        if tail != 0 {
            *blocks.last_mut().unwrap() &= (1 << tail) - 1;
        }
        Bits { blocks, k: self.k }
    }

    fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.k).filter(|&i| self.get(i))
    }
}

/// One crossing component after step 3: its circular partition.
struct Circular {
    /// Laminar-entry ids of the parts in circular order; `None` marks
    /// the root part's position.
    order_entries: Vec<Option<usize>>,
}

/// Steps 1–5 of the module docs: family → tree of cycles. Also the
/// engine of [`repair`](super::repair): the incremental repair paths
/// derive the post-update family from the old structure and reassemble
/// it here, skipping the kernel and the enumeration flows of a full
/// build.
pub(crate) fn assemble(
    n: usize,
    lambda: EdgeWeight,
    cuts: &[Vec<bool>],
    mut stats: CactusStats,
) -> Cactus {
    // Step 1: classes.
    let (class_of, k) = signature_classes(n, cuts.iter().map(|s| s.as_slice()));
    stats.classes = k;
    let mut class_vertices: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for (v, &cl) in class_of.iter().enumerate() {
        class_vertices[cl as usize].push(v as NodeId);
    }
    let cut_sets: Vec<Bits> = cuts
        .iter()
        .map(|side| {
            let mut b = Bits::empty(k);
            for (v, &s) in side.iter().enumerate() {
                if s {
                    b.set(class_of[v] as usize);
                }
            }
            b
        })
        .collect();
    let set_index: HashMap<&Bits, usize> = cut_sets.iter().zip(0..).collect();

    // Step 2: crossing components (union-find with path halving).
    let mut parent: Vec<usize> = (0..cuts.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for i in 0..cut_sets.len() {
        for j in i + 1..cut_sets.len() {
            let (a, b) = (&cut_sets[i], &cut_sets[j]);
            if a.intersects(b) && !a.is_subset(b) && !b.is_subset(a) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut comp_cuts: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..cut_sets.len() {
        let r = find(&mut parent, i);
        comp_cuts.entry(r).or_default().push(i);
    }
    let mut crossing: Vec<Vec<usize>> = comp_cuts.into_values().filter(|v| v.len() >= 2).collect();
    crossing.sort(); // HashMap order is not deterministic; cut ids are.

    // Step 3: circular partition of each crossing component.
    // part_sets[c] = the parts (class sets) of component c, part 0 = root
    // part; order[c] = part ids in circular order starting at the root.
    let mut part_sets: Vec<Vec<Bits>> = Vec::new();
    let mut orders: Vec<Vec<usize>> = Vec::new();
    for comp in &crossing {
        let class_sides: Vec<Vec<bool>> = comp
            .iter()
            .map(|&c| (0..k).map(|cl| cut_sets[c].get(cl)).collect())
            .collect();
        let (part_of, m) = signature_classes(k, class_sides.iter().map(|s| s.as_slice()));
        assert!(m >= 4, "a crossing component partitions into ≥ 4 parts");
        let mut parts: Vec<Bits> = vec![Bits::empty(k); m];
        for (cl, &p) in part_of.iter().enumerate() {
            parts[p as usize].set(cl);
        }
        // Adjacency: parts are neighbours iff their union — or its
        // complement when the root part (part 0) is involved — is a cut.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
        for p in 0..m {
            for q in p + 1..m {
                let un = parts[p].union(&parts[q]);
                let candidate = if p == 0 { un.complement() } else { un };
                if set_index.contains_key(&candidate) {
                    adj[p].push(q);
                    adj[q].push(p);
                }
            }
        }
        for (p, nb) in adj.iter().enumerate() {
            assert_eq!(
                nb.len(),
                2,
                "part {p} of a circular partition has two neighbours"
            );
        }
        let mut order = vec![0usize, adj[0][0]];
        while order.len() < m {
            let (last, prev) = (order[order.len() - 1], order[order.len() - 2]);
            let next = if adj[last][0] == prev {
                adj[last][1]
            } else {
                adj[last][0]
            };
            assert_ne!(next, 0, "circular walk closed early");
            order.push(next);
        }
        part_sets.push(parts);
        orders.push(order);
    }

    // Step 4: interval marking — which cuts are cycle cuts.
    let mut is_cycle_cut = vec![false; cuts.len()];
    for (ci, comp) in crossing.iter().enumerate() {
        let parts = &part_sets[ci];
        let order = &orders[ci];
        let m = parts.len();
        let is_interval = |set: &Bits| -> bool {
            // Covered = parts fully inside; any partial overlap disqualifies.
            let mut covered = vec![false; m];
            for (p, part) in parts.iter().enumerate() {
                if part.is_subset(set) {
                    covered[p] = true;
                } else if part.intersects(set) {
                    return false;
                }
            }
            if covered[0] {
                return false; // canonical cuts exclude the root class
            }
            // Consecutive along the circular order, root part outside:
            // exactly one rise edge in the cyclic covered sequence.
            let rises = (0..m)
                .filter(|&i| !covered[order[i]] && covered[order[(i + 1) % m]])
                .count();
            let total = covered.iter().filter(|&&c| c).count();
            total > 0 && rises == 1
        };
        for &c in comp {
            assert!(
                is_interval(&cut_sets[c]),
                "a crossing cut must be an interval of its own component"
            );
            is_cycle_cut[c] = true;
        }
        // Non-crossing cuts can still be intervals (single parts, or the
        // union of all non-root parts): they belong to this cycle too.
        for (c, cut) in cut_sets.iter().enumerate() {
            if !is_cycle_cut[c] && is_interval(cut) {
                is_cycle_cut[c] = true;
            }
        }
    }

    // Step 5: laminar family of non-root parts and tree-cut sides.
    let mut entries: Vec<Bits> = Vec::new();
    let mut entry_index: HashMap<Bits, usize> = HashMap::new();
    let mut intern = |b: &Bits, entries: &mut Vec<Bits>| -> usize {
        *entry_index.entry(b.clone()).or_insert_with(|| {
            entries.push(b.clone());
            entries.len() - 1
        })
    };
    // part_entries[c][i] = laminar entry of part i of component c (root
    // part position holds usize::MAX).
    let mut part_entries: Vec<Vec<usize>> = Vec::new();
    for parts in &part_sets {
        part_entries.push(
            parts
                .iter()
                .enumerate()
                .map(|(p, b)| {
                    if p == 0 {
                        usize::MAX
                    } else {
                        intern(b, &mut entries)
                    }
                })
                .collect(),
        );
    }
    let tree_cut_entries: Vec<usize> = (0..cuts.len())
        .filter(|&c| !is_cycle_cut[c])
        .map(|c| intern(&cut_sets[c], &mut entries))
        .collect();

    for i in 0..entries.len() {
        for j in i + 1..entries.len() {
            let (a, b) = (&entries[i], &entries[j]);
            assert!(
                !a.intersects(b) || a.is_subset(b) || b.is_subset(a),
                "parts and tree cuts must form a laminar family"
            );
        }
    }

    // Containment forest: sort by size descending; the first strictly
    // containing predecessor (scanning backwards) is the smallest one,
    // i.e. the parent. `usize::MAX` parent = the virtual root node.
    let mut sorted: Vec<usize> = (0..entries.len()).collect();
    sorted.sort_by_key(|&e| std::cmp::Reverse(entries[e].count()));
    let mut rank_of = vec![0usize; entries.len()];
    for (r, &e) in sorted.iter().enumerate() {
        rank_of[e] = r;
    }
    let mut parent_of: Vec<usize> = vec![usize::MAX; entries.len()];
    for r in 0..sorted.len() {
        for pr in (0..r).rev() {
            if entries[sorted[r]].is_subset(&entries[sorted[pr]]) {
                parent_of[sorted[r]] = sorted[pr];
                break;
            }
        }
    }

    // Nodes: 0 = virtual root, entry e -> node rank_of[e] + 1. Each class
    // lives in the node of the smallest laminar set containing it.
    let node_of_entry = |e: usize| -> u32 {
        if e == usize::MAX {
            0
        } else {
            rank_of[e] as u32 + 1
        }
    };
    let num_nodes = entries.len() + 1;
    let mut class_node: Vec<u32> = vec![0; k];
    for &e in &sorted {
        for cl in entries[e].iter_ones() {
            class_node[cl] = node_of_entry(e);
        }
    }
    let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); num_nodes];
    for (cl, &nd) in class_node.iter().enumerate() {
        nodes[nd as usize].extend_from_slice(&class_vertices[cl]);
    }
    for vs in &mut nodes {
        vs.sort_unstable();
    }
    let mut node_of: Vec<u32> = vec![0; n];
    for (v, &cl) in class_of.iter().enumerate() {
        node_of[v] = class_node[cl as usize];
    }

    // Edges: bridges for tree cuts, cycles for crossing components.
    let mut edges: Vec<CactusEdge> = Vec::new();
    for &e in &tree_cut_entries {
        edges.push(CactusEdge {
            a: node_of_entry(e),
            b: node_of_entry(parent_of[e]),
            cycle: None,
        });
    }
    let mut cycles: Vec<Vec<u32>> = Vec::new();
    for (ci, order) in orders.iter().enumerate() {
        // The root part's stand-in node: the common laminar parent of
        // the component's non-root parts.
        let hub = {
            let firsts: Vec<u32> = part_entries[ci]
                .iter()
                .filter(|&&e| e != usize::MAX)
                .map(|&e| node_of_entry(parent_of[e]))
                .collect();
            assert!(
                firsts.windows(2).all(|w| w[0] == w[1]),
                "non-root parts of one cycle share a laminar parent"
            );
            firsts[0]
        };
        let circ: Circular = Circular {
            order_entries: order
                .iter()
                .map(|&p| {
                    let e = part_entries[ci][p];
                    if e == usize::MAX {
                        None
                    } else {
                        Some(e)
                    }
                })
                .collect(),
        };
        let cycle_nodes: Vec<u32> = circ
            .order_entries
            .iter()
            .map(|oe| match oe {
                None => hub,
                Some(e) => node_of_entry(*e),
            })
            .collect();
        let id = cycles.len() as u32;
        let m = cycle_nodes.len();
        for i in 0..m {
            edges.push(CactusEdge {
                a: cycle_nodes[i],
                b: cycle_nodes[(i + 1) % m],
                cycle: Some(id),
            });
        }
        cycles.push(cycle_nodes);
    }

    Cactus::new(lambda, n, node_of, nodes, edges, cycles, 1, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::generators::known;

    fn build(g: &CsrGraph) -> Cactus {
        CactusBuilder::new().build(g).unwrap()
    }

    #[test]
    fn cycle_is_one_cactus_cycle() {
        let (g, l) = known::cycle_graph(6, 2);
        let c = build(&g);
        assert_eq!(c.lambda(), l);
        assert_eq!(c.count_min_cuts(), 15); // 6·5/2
        assert_eq!(c.num_cycles(), 1);
        assert_eq!(c.num_bridges(), 0);
        assert_eq!(c.num_nodes(), 6);
        assert_eq!(c.num_empty_nodes(), 0);
    }

    #[test]
    fn triangle_normalises_to_an_empty_hub() {
        // K3: three cuts {a}, {b}, {c} — pairwise non-crossing, so three
        // bridges meeting in an empty hub node (the 3-cycle normal form).
        let (g, l) = known::cycle_graph(3, 1);
        let c = build(&g);
        assert_eq!(c.lambda(), l);
        assert_eq!(c.count_min_cuts(), 3);
        assert_eq!(c.num_bridges(), 3);
        assert_eq!(c.num_cycles(), 0);
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.num_empty_nodes(), 1);
    }

    #[test]
    fn path_is_a_path_of_bridges() {
        let (g, l) = known::path_graph(5, 3);
        let c = build(&g);
        assert_eq!(c.lambda(), l);
        assert_eq!(c.count_min_cuts(), 4);
        assert_eq!(c.num_bridges(), 4);
        assert_eq!(c.num_cycles(), 0);
        assert_eq!(c.num_empty_nodes(), 0);
    }

    #[test]
    fn complete_graph_is_a_star_of_bridges() {
        // K5: the five singleton cuts, pairwise disjoint — a star with an
        // empty centre.
        let (g, l) = known::complete_graph(5, 1);
        let c = build(&g);
        assert_eq!(c.lambda(), l);
        assert_eq!(c.count_min_cuts(), 5);
        assert_eq!(c.num_bridges(), 5);
        assert_eq!(c.num_empty_nodes(), 1);
    }

    #[test]
    fn unique_cut_is_a_single_bridge() {
        let (g, l) = known::two_communities(6, 5, 1, 2, 1);
        let c = build(&g);
        assert_eq!(c.lambda(), l);
        assert_eq!(c.count_min_cuts(), 1);
        assert_eq!(c.num_bridges(), 1);
        assert_eq!(c.num_nodes(), 2);
        assert!(!c.edge_in_some_min_cut(0, 1), "intra-clique pair");
        assert!(c.edge_in_some_min_cut(0, 6), "cross-bridge pair");
    }

    #[test]
    fn ring_of_cliques_is_one_cycle_of_clique_nodes() {
        let (g, l) = known::ring_of_cliques(5, 3, 3, 1);
        let c = build(&g);
        assert_eq!(c.lambda(), l);
        assert_eq!(c.count_min_cuts(), 10); // 5·4/2 ring cuts
        assert_eq!(c.num_cycles(), 1);
        assert_eq!(c.cycles[0].len(), 5);
        assert_eq!(c.num_bridges(), 0);
    }

    #[test]
    fn disconnected_graph_reports_component_structure() {
        let g = CsrGraph::from_edges(7, &[(0, 1, 2), (1, 2, 2), (3, 4, 1), (5, 6, 3)]);
        let c = build(&g);
        assert_eq!(c.lambda(), 0);
        assert_eq!(c.components(), 3);
        assert_eq!(c.count_min_cuts(), 3); // 2^2 - 1
        assert_eq!(c.num_nodes(), 3);
        assert!(c.edge_in_some_min_cut(0, 3));
        assert!(!c.edge_in_some_min_cut(0, 2));
        let side = c.min_cut_separating(3, 5).unwrap();
        assert_eq!(g.cut_value(&side), 0);
        assert!(side[3] && side[4] && !side[5]);
        let all = c.enumerate_min_cuts(usize::MAX);
        assert_eq!(all.len(), 3);
        for s in &all {
            assert!(!s[0] && g.is_proper_cut(s) && g.cut_value(s) == 0);
        }
    }

    #[test]
    fn separating_queries_agree_with_enumeration() {
        for (g, _) in [
            known::cycle_graph(7, 1),
            known::grid_graph(3, 3, 1),
            known::star_graph(6, 2),
            known::two_communities(4, 4, 2, 2, 1),
        ] {
            let c = build(&g);
            let all = c.enumerate_min_cuts(usize::MAX);
            for u in 0..g.n() as NodeId {
                for v in u + 1..g.n() as NodeId {
                    let separated = all.iter().any(|s| s[u as usize] != s[v as usize]);
                    assert_eq!(c.edge_in_some_min_cut(u, v), separated, "({u},{v})");
                    match c.min_cut_separating(u, v) {
                        None => assert!(!separated),
                        Some(side) => {
                            assert!(side[u as usize] && !side[v as usize]);
                            assert_eq!(g.cut_value(&side), c.lambda());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn enumeration_limit_truncates() {
        let (g, _) = known::cycle_graph(8, 1);
        let c = build(&g);
        assert_eq!(c.enumerate_min_cuts(5).len(), 5);
        assert_eq!(c.enumerate_min_cuts(usize::MAX).len(), 28);
    }

    #[test]
    fn inexact_solver_is_rejected() {
        let (g, _) = known::cycle_graph(4, 1);
        let err = CactusBuilder::new().solver("viecut").build(&g).unwrap_err();
        assert!(matches!(err, MinCutError::InvalidOptions { .. }));
    }

    #[test]
    fn a_wrong_lambda_is_an_error() {
        // Two weight-3 triangles joined by a unit bridge: λ = 1. A λ
        // below it collapses the λ + 1 kernel (2, 5) or misses every cut
        // of a connected graph (0); a λ above it meets the bridge's
        // cheaper flow (6, where every triangle vertex's degree cut
        // costs exactly 6).
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 3),
                (1, 2, 3),
                (2, 0, 3),
                (3, 4, 3),
                (4, 5, 3),
                (5, 3, 3),
                (2, 3, 1),
            ],
        );
        for wrong in [0, 2, 5, 6] {
            let err = CactusBuilder::new()
                .build_with_lambda(&g, wrong)
                .unwrap_err();
            assert!(
                matches!(err, MinCutError::InvalidOptions { .. }),
                "λ = {wrong}: {err:?}"
            );
        }
        let c = CactusBuilder::new().build_with_lambda(&g, 1).unwrap();
        assert_eq!((c.lambda(), c.count_min_cuts()), (1, 1));
        // λ > 0 on a disconnected graph is wrong too.
        let split = CsrGraph::from_edges(4, &[(0, 1, 2), (2, 3, 2)]);
        let err = CactusBuilder::new()
            .build_with_lambda(&split, 2)
            .unwrap_err();
        assert!(matches!(err, MinCutError::InvalidOptions { .. }));
    }

    #[test]
    fn too_few_vertices_is_an_error() {
        let g = CsrGraph::from_edges(1, &[]);
        let err = CactusBuilder::new().build(&g).unwrap_err();
        assert_eq!(err, MinCutError::TooFewVertices { n: 1 });
    }

    #[test]
    fn json_summary_is_well_formed() {
        let (g, _) = known::cycle_graph(5, 1);
        let c = build(&g);
        let j = c.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"lambda\":2"));
        assert!(j.contains("\"min_cuts\":10"));
        assert!(j.contains("\"cycles\":1"));
        assert!(j.contains("\"stats\":{"));
    }
}
