//! The cactus representation of **all** minimum cuts.
//!
//! A connected graph G with minimum cut value λ > 0 has at most
//! n(n−1)/2 minimum cuts (Dinitz–Karzanov–Lomonosov), and the whole
//! family fits in O(n) space as a *cactus*: a tree of edge-disjoint
//! cycles H together with a mapping of G's vertices onto H's nodes,
//! such that the minimum cuts of G are **in bijection** with the
//! minimal edge cuts of H — the bridges, and the pairs of edges drawn
//! from one cycle. A cycle of length m therefore contributes m(m−1)/2
//! cuts and a bridge one; the cycle C_n is its own cactus with
//! n(n−1)/2 minimum cuts. Nodes of H may be *empty* (carry no vertices
//! of G): this build uses empty hub nodes where the classical
//! presentation would use 3-cycles — both encode the same family, and
//! the bijection is what every query relies on, so the normalisation is
//! checked, not assumed: [`CactusBuilder`]
//! re-derives every 2-cut of the built structure and compares the set
//! against the enumerated family before returning.
//!
//! Construction ([`builder`]): λ is obtained through the existing
//! solver registry (kernelization pipeline included), the family is
//! enumerated output-sensitively ([`enumerate::all_min_cuts`]: one
//! conservation max flow per contraction level, every minimum s-t cut
//! from the residual closed sets), and the tree-of-cycles is assembled
//! from the family — vertex classes, crossing components → circular
//! partitions, the laminar forest of parts and non-crossing cuts.
//!
//! Disconnected graphs (λ = 0) have `2^(c−1) − 1` minimum cuts for c
//! components — a power set, not a 2-cut family — so the cactus stores
//! the component structure directly: one node per component, no edges,
//! and the same oracle surface (`count` saturates at `u128::MAX`).
//!
//! ```
//! use mincut_core::cactus::CactusBuilder;
//! use mincut_graph::generators::known;
//!
//! let (g, _) = known::cycle_graph(5, 1);
//! let cactus = CactusBuilder::new().build(&g).unwrap();
//! assert_eq!(cactus.lambda(), 2);
//! assert_eq!(cactus.count_min_cuts(), 10); // n(n-1)/2
//! assert!(cactus.edge_in_some_min_cut(0, 1));
//! let side = cactus.min_cut_separating(0, 2).unwrap();
//! assert_eq!(g.cut_value(&side), 2);
//! ```

pub mod builder;
pub mod enumerate;
pub mod repair;

pub use builder::CactusBuilder;

use mincut_graph::{EdgeWeight, NodeId};

use crate::stats::CactusStats;

/// One edge of the cactus: a bridge (`cycle == None`, representing one
/// minimum cut) or a member of `cycles[cycle]` (cuts are pairs of edges
/// of one cycle).
#[derive(Clone, Debug)]
pub(crate) struct CactusEdge {
    pub a: u32,
    pub b: u32,
    pub cycle: Option<u32>,
}

/// The built cactus: see the [module docs](self). Constructed by
/// [`CactusBuilder`]; immutable afterwards.
#[derive(Clone, Debug)]
pub struct Cactus {
    lambda: EdgeWeight,
    n: usize,
    /// Cactus node (or component, when λ = 0) of every vertex.
    node_of: Vec<u32>,
    /// Vertices carried by each node; empty lists are junction nodes.
    nodes: Vec<Vec<NodeId>>,
    edges: Vec<CactusEdge>,
    /// `adj[x]` = edge ids incident to node `x`.
    adj: Vec<Vec<u32>>,
    /// Node sequences of the cycles, in cyclic order; all lengths ≥ 4
    /// (3-cycles are normalised to empty hub nodes).
    cycles: Vec<Vec<u32>>,
    /// Connected components of G: 1 when λ > 0.
    components: usize,
    count: u128,
    stats: CactusStats,
}

impl Cactus {
    // A builder-internal constructor: the one caller hands over every
    // assembled field at once.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        lambda: EdgeWeight,
        n: usize,
        node_of: Vec<u32>,
        nodes: Vec<Vec<NodeId>>,
        edges: Vec<CactusEdge>,
        cycles: Vec<Vec<u32>>,
        components: usize,
        stats: CactusStats,
    ) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
        for (i, e) in edges.iter().enumerate() {
            adj[e.a as usize].push(i as u32);
            adj[e.b as usize].push(i as u32);
        }
        let bridges = edges.iter().filter(|e| e.cycle.is_none()).count() as u128;
        let count = if lambda == 0 {
            // 2^(c-1) - 1 component unions, saturating for huge c.
            let c = components;
            if c >= 129 {
                u128::MAX
            } else {
                (1u128 << (c - 1)) - 1
            }
        } else {
            bridges
                + cycles
                    .iter()
                    .map(|cy| (cy.len() * (cy.len() - 1) / 2) as u128)
                    .sum::<u128>()
        };
        Cactus {
            lambda,
            n,
            node_of,
            nodes,
            edges,
            adj,
            cycles,
            components,
            count,
            stats,
        }
    }

    /// The minimum cut value the represented family realises.
    #[inline]
    pub fn lambda(&self) -> EdgeWeight {
        self.lambda
    }

    /// Vertices of the represented graph.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct minimum cuts, in O(1) from the structure:
    /// bridges + Σ m(m−1)/2 over the cycles (λ > 0), or the component
    /// power set `2^(c−1) − 1` (λ = 0; saturates at `u128::MAX`).
    #[inline]
    pub fn count_min_cuts(&self) -> u128 {
        self.count
    }

    /// Cactus nodes (including empty junction nodes).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Junction nodes carrying no vertices.
    pub fn num_empty_nodes(&self) -> usize {
        self.nodes.iter().filter(|l| l.is_empty()).count()
    }

    /// Cycles of the tree-of-cycles.
    #[inline]
    pub fn num_cycles(&self) -> usize {
        self.cycles.len()
    }

    /// Bridge (tree) edges; each is one minimum cut.
    pub fn num_bridges(&self) -> usize {
        self.edges.iter().filter(|e| e.cycle.is_none()).count()
    }

    /// Connected components of the represented graph (1 unless λ = 0).
    #[inline]
    pub fn components(&self) -> usize {
        self.components
    }

    /// Cactus node (component when λ = 0) holding vertex `v`.
    #[inline]
    pub fn node_of(&self, v: NodeId) -> u32 {
        self.node_of[v as usize]
    }

    /// Whether `u` and `v` share a cactus node — i.e. **no** minimum cut
    /// separates them. O(1).
    #[inline]
    pub fn same_node(&self, u: NodeId, v: NodeId) -> bool {
        self.node_of[u as usize] == self.node_of[v as usize]
    }

    /// Whether some minimum cut separates `u` and `v` — for an edge
    /// `{u, v}` of G, exactly "this edge crosses some minimum cut".
    /// O(1): the cactus nodes differ. (λ = 0: different components; an
    /// actual edge of G then always answers `false`, as value-0 cuts
    /// cross no edges.)
    #[inline]
    pub fn edge_in_some_min_cut(&self, u: NodeId, v: NodeId) -> bool {
        !self.same_node(u, v)
    }

    /// Build-time telemetry.
    #[inline]
    pub fn stats(&self) -> &CactusStats {
        &self.stats
    }

    #[inline]
    pub(crate) fn stats_mut(&mut self) -> &mut CactusStats {
        &mut self.stats
    }

    /// A minimum cut separating `u` from `v` (side bitmap with
    /// `side[u] == true`), or `None` when no minimum cut separates them.
    /// Output-sensitive: one BFS over the O(n)-size cactus.
    pub fn min_cut_separating(&self, u: NodeId, v: NodeId) -> Option<Vec<bool>> {
        let (nu, nv) = (self.node_of(u), self.node_of(v));
        if nu == nv {
            return None;
        }
        if self.lambda == 0 {
            // u's whole component against the rest — always a union of
            // whole components (the only shape a value-0 cut can have).
            let mut side = vec![false; self.n];
            for &x in &self.nodes[nu as usize] {
                side[x as usize] = true;
            }
            return Some(side);
        }
        // BFS path nu → nv over cactus nodes; the first path edge decides.
        let mut prev_edge: Vec<Option<u32>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        seen[nu as usize] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(nu);
        'bfs: while let Some(x) = queue.pop_front() {
            for &e in &self.adj[x as usize] {
                let y = self.other_end(e, x);
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    prev_edge[y as usize] = Some(e);
                    if y == nv {
                        break 'bfs;
                    }
                    queue.push_back(y);
                }
            }
        }
        // Walk back to the first edge of the path (the one leaving nu).
        let mut first = prev_edge[nv as usize].expect("nodes of one component stay connected");
        loop {
            let tail = self.edge_tail(first, &prev_edge, nu);
            if tail == nu {
                break;
            }
            first = prev_edge[tail as usize].expect("path walks back to nu");
        }
        let removed: Vec<u32> = match self.edges[first as usize].cycle {
            None => vec![first],
            Some(c) => {
                // Both cycle-c edges at nu: cutting them splits nu's side
                // off the cycle, and the path to nv went through c.
                let pair: Vec<u32> = self.adj[nu as usize]
                    .iter()
                    .copied()
                    .filter(|&e| self.edges[e as usize].cycle == Some(c))
                    .collect();
                debug_assert_eq!(pair.len(), 2, "a cycle visits a node on two edges");
                pair
            }
        };
        let mut side = self.side_without_edges(nu, &removed);
        if !side[u as usize] {
            for b in &mut side {
                *b = !*b;
            }
        }
        debug_assert!(side[u as usize] && !side[v as usize]);
        Some(side)
    }

    /// Enumerates minimum cuts from the structure, canonicalised to
    /// `side[0] == false` and sorted, stopping after `limit` sides.
    /// Output-sensitive: O(n) per emitted cut.
    pub fn enumerate_min_cuts(&self, limit: usize) -> Vec<Vec<bool>> {
        let mut sides: Vec<Vec<bool>> = Vec::new();
        if self.lambda == 0 {
            // Unions of components not holding vertex 0: a (c−1)-bit
            // counter over the non-root components, word-sliced so every
            // emitted side is distinct for *any* c (a fixed-width mask
            // would repeat itself — and never terminate under a large
            // `limit` — once c − 1 outgrows it). The count saturates at
            // u128::MAX for c ≥ 129; the enumeration stays exact up to
            // `limit` regardless.
            let root = self.node_of(0);
            let others: Vec<u32> = (0..self.components as u32).filter(|&x| x != root).collect();
            let bits = others.len(); // c − 1 ≥ 1
            let mut mask = vec![0u64; (bits + 1).div_ceil(64)];
            while sides.len() < limit {
                for w in mask.iter_mut() {
                    let (next, carry) = w.overflowing_add(1);
                    *w = next;
                    if !carry {
                        break;
                    }
                }
                if (mask[bits / 64] >> (bits % 64)) & 1 == 1 {
                    break; // 2^(c−1) reached: all proper sides emitted
                }
                let mut side = vec![false; self.n];
                for (i, &comp) in others.iter().enumerate() {
                    if (mask[i / 64] >> (i % 64)) & 1 == 1 {
                        for &v in &self.nodes[comp as usize] {
                            side[v as usize] = true;
                        }
                    }
                }
                sides.push(side);
            }
            sides.sort();
            return sides;
        }
        'emit: {
            for (i, e) in self.edges.iter().enumerate() {
                if e.cycle.is_none() {
                    if sides.len() >= limit {
                        break 'emit;
                    }
                    sides.push(self.canonical_side(e.a, &[i as u32]));
                }
            }
            for cycle in &self.cycles {
                let m = cycle.len();
                // ce[k] joins cycle[k] and cycle[(k+1) % m].
                let ce: Vec<u32> = (0..m)
                    .map(|k| {
                        let (x, y) = (cycle[k], cycle[(k + 1) % m]);
                        self.adj[x as usize]
                            .iter()
                            .copied()
                            .find(|&e| {
                                let ed = &self.edges[e as usize];
                                ed.cycle.is_some()
                                    && (ed.a == x && ed.b == y || ed.a == y && ed.b == x)
                            })
                            .expect("consecutive cycle nodes share an edge")
                    })
                    .collect();
                for i in 0..m {
                    for j in i + 1..m {
                        if sides.len() >= limit {
                            break 'emit;
                        }
                        // Removing ce[i], ce[j] splits cycle[i+1..=j] off.
                        sides.push(self.canonical_side(cycle[i + 1], &[ce[i], ce[j]]));
                    }
                }
            }
        }
        sides.sort();
        sides
    }

    /// JSON summary (hand-rolled like every emitter in this offline
    /// build): λ, the cut count, and the structure sizes.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"lambda\":{},\"min_cuts\":{},\"n\":{},\"nodes\":{},\"empty_nodes\":{},\
             \"cycles\":{},\"bridges\":{},\"components\":{},\"stats\":{}}}",
            self.lambda,
            self.count,
            self.n,
            self.num_nodes(),
            self.num_empty_nodes(),
            self.num_cycles(),
            self.num_bridges(),
            self.components,
            self.stats.to_json()
        )
    }

    /// Renders the separating side of [`Cactus::min_cut_separating`] as a
    /// JSON vertex array (helper for the CLI's `qs` output).
    pub fn side_to_json(side: &[bool]) -> String {
        let mut s = String::from("[");
        let mut first = true;
        for (v, &inside) in side.iter().enumerate() {
            if inside {
                if !first {
                    s.push(',');
                }
                s.push_str(&v.to_string());
                first = false;
            }
        }
        s.push(']');
        s
    }

    fn other_end(&self, e: u32, x: u32) -> u32 {
        let ed = &self.edges[e as usize];
        if ed.a == x {
            ed.b
        } else {
            ed.a
        }
    }

    /// The endpoint of `e` closer to the BFS root along `prev_edge`.
    fn edge_tail(&self, e: u32, prev_edge: &[Option<u32>], root: u32) -> u32 {
        let ed = &self.edges[e as usize];
        // The tail is the endpoint whose own prev_edge is not `e`
        // (the head was discovered through `e`).
        if ed.a == root || prev_edge[ed.b as usize] == Some(e) {
            ed.a
        } else {
            ed.b
        }
    }

    /// Vertex side of the cactus component containing `start` once the
    /// edges in `removed` are deleted.
    fn side_without_edges(&self, start: u32, removed: &[u32]) -> Vec<bool> {
        let mut in_comp = vec![false; self.nodes.len()];
        in_comp[start as usize] = true;
        let mut stack = vec![start];
        while let Some(x) = stack.pop() {
            for &e in &self.adj[x as usize] {
                if removed.contains(&e) {
                    continue;
                }
                let y = self.other_end(e, x);
                if !in_comp[y as usize] {
                    in_comp[y as usize] = true;
                    stack.push(y);
                }
            }
        }
        let mut side = vec![false; self.n];
        for (x, &inside) in in_comp.iter().enumerate() {
            if inside {
                for &v in &self.nodes[x] {
                    side[v as usize] = true;
                }
            }
        }
        side
    }

    /// Like [`side_without_edges`](Self::side_without_edges) but
    /// canonicalised to `side[0] == false`.
    fn canonical_side(&self, start: u32, removed: &[u32]) -> Vec<bool> {
        let mut side = self.side_without_edges(start, removed);
        if side[0] {
            for b in &mut side {
                *b = !*b;
            }
        }
        side
    }

    /// Debug rendering of the structure (node contents, bridges, cycles).
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for (i, vs) in self.nodes.iter().enumerate() {
            s.push_str(&format!("node {i}: {vs:?}\n"));
        }
        for e in &self.edges {
            match e.cycle {
                None => s.push_str(&format!("bridge {}-{}\n", e.a, e.b)),
                Some(c) => s.push_str(&format!("cycle {c} edge {}-{}\n", e.a, e.b)),
            }
        }
        s
    }
}
