//! Hao–Orlin global minimum cut.
//!
//! Hao and Orlin (SODA'92) observed that the n−1 max-flow computations of
//! the Gomory–Hu reduction can share state: after each push-relabel phase
//! the sink is merged into the source side, distance labels are *kept*, and
//! a new sink is chosen, giving a total running time asymptotically equal
//! to a single push-relabel run. Two modifications keep the labels valid
//! across phases:
//!
//! * vertices are split into the *awake* set and a stack of *dormant* sets;
//!   pushes and relabels only consider awake vertices;
//! * when a vertex is the only awake one at its level, relabelling it would
//!   create a level gap, so instead it — and every awake vertex above it —
//!   is moved into a new dormant set (this subsumes the gap heuristic);
//!   likewise a vertex with no awake residual neighbours becomes dormant.
//!
//! When the awake set (minus the source side) empties, the most recent
//! dormant set is woken. Every phase ends with a maximum preflow into the
//! current sink; the vertices that can still reach the sink in the residual
//! network form one side of a cut of value `excess(t)`, a candidate for the
//! global minimum. This implementation is the Rust counterpart of the
//! paper's comparator **HO-CGKLS**.

use mincut_graph::{CsrGraph, EdgeWeight, NodeId};

use crate::residual::Residual;

/// Result of a Hao–Orlin run.
#[derive(Clone, Debug)]
pub struct HaoOrlinResult {
    /// The global minimum cut value λ(G).
    pub value: EdgeWeight,
    /// Witness side: `side[v] == true` for vertices on one side of a
    /// minimum cut (the sink side of the best phase).
    pub side: Vec<bool>,
}

const AWAKE: u32 = u32::MAX;
const SOURCE: u32 = u32::MAX - 1;

struct Ho {
    net: Residual,
    height: Vec<u32>,
    excess: Vec<EdgeWeight>,
    cur: Vec<usize>,
    /// AWAKE, SOURCE, or the index of the dormant set holding the vertex.
    state: Vec<u32>,
    dormant: Vec<Vec<NodeId>>,
    /// Exact per-level registry of awake vertices (positions tracked).
    by_level: Vec<Vec<NodeId>>,
    pos_in_level: Vec<u32>,
    /// Active (excess > 0) awake vertices, bucketed by height; entries may
    /// be stale and are re-validated when popped.
    active: Vec<Vec<NodeId>>,
    highest: usize,
    max_h: usize,
}

impl Ho {
    fn new(g: &CsrGraph) -> Self {
        let n = g.n();
        let max_h = 2 * n + 2;
        Ho {
            net: Residual::new(g.n(), g.m(), g.edges()),
            height: vec![0; n],
            excess: vec![0; n],
            cur: vec![0; n],
            state: vec![AWAKE; n],
            dormant: Vec::new(),
            by_level: vec![Vec::new(); max_h + 1],
            pos_in_level: vec![0; n],
            active: vec![Vec::new(); max_h + 1],
            highest: 0,
            max_h,
        }
    }

    #[inline]
    fn is_awake(&self, v: NodeId) -> bool {
        self.state[v as usize] == AWAKE
    }

    fn level_insert(&mut self, v: NodeId) {
        let h = self.height[v as usize] as usize;
        self.pos_in_level[v as usize] = self.by_level[h].len() as u32;
        self.by_level[h].push(v);
    }

    fn level_remove(&mut self, v: NodeId) {
        let h = self.height[v as usize] as usize;
        let pos = self.pos_in_level[v as usize] as usize;
        let last = *self.by_level[h].last().expect("vertex registered");
        self.by_level[h].swap_remove(pos);
        if last != v {
            self.pos_in_level[last as usize] = pos as u32;
        }
    }

    /// Registers an awake excess-carrying vertex in the active buckets.
    /// Entries are re-validated when popped, so duplicates and entries for
    /// the current sink are harmless.
    fn activate(&mut self, v: NodeId) {
        if self.excess[v as usize] > 0 && self.is_awake(v) {
            let h = self.height[v as usize] as usize;
            self.active[h].push(v);
            if h > self.highest {
                self.highest = h;
            }
        }
    }

    /// Moves every awake vertex with height ≥ `from_level` into a new
    /// dormant set (the paper's level-gap handling).
    fn put_to_sleep_from(&mut self, from_level: usize) {
        let mut set = Vec::new();
        let idx = self.dormant.len() as u32;
        for h in from_level..=self.max_h {
            while let Some(v) = self.by_level[h].pop() {
                self.state[v as usize] = idx;
                set.push(v);
            }
        }
        debug_assert!(!set.is_empty());
        self.dormant.push(set);
    }

    /// Moves a single vertex into a fresh dormant set.
    fn put_to_sleep_single(&mut self, v: NodeId) {
        self.level_remove(v);
        self.state[v as usize] = self.dormant.len() as u32;
        self.dormant.push(vec![v]);
    }

    /// Wakes the most recent dormant set; returns false if none exists.
    fn wake_latest(&mut self) -> bool {
        let Some(set) = self.dormant.pop() else {
            return false;
        };
        for v in set {
            self.state[v as usize] = AWAKE;
            self.level_insert(v);
            self.activate(v);
        }
        true
    }

    /// Number of awake vertices at the height of `v` (for the unique-level
    /// test).
    #[inline]
    fn level_population(&self, h: usize) -> usize {
        self.by_level[h].len()
    }

    /// Saturates all residual out-arcs of `v`, crediting the heads.
    fn saturate_out_arcs(&mut self, v: NodeId) {
        for idx in self.net.first[v as usize]..self.net.first[v as usize + 1] {
            let a = self.net.arc_ids[idx];
            let w = self.net.to[a as usize];
            let c = self.net.cap[a as usize];
            if c > 0 && self.state[w as usize] != SOURCE {
                self.net.cap[a as usize] = 0;
                self.net.cap[(a ^ 1) as usize] += c;
                self.excess[w as usize] += c;
                self.activate(w);
            }
        }
    }

    /// One max-preflow phase towards sink `t` over the awake vertices.
    /// Active buckets persist across phases; every entry is re-validated
    /// when popped (awake, not the sink, excess, height current).
    fn phase(&mut self, t: NodeId) {
        loop {
            let Some(v) = self.active[self.highest].pop() else {
                if self.highest == 0 {
                    break;
                }
                self.highest -= 1;
                continue;
            };
            if !self.is_awake(v)
                || v == t
                || self.excess[v as usize] == 0
                || self.height[v as usize] as usize != self.highest
            {
                continue; // stale entry
            }
            self.discharge(v);
        }
    }

    fn discharge(&mut self, v: NodeId) {
        let vi = v as usize;
        debug_assert!(self.excess[vi] > 0);
        {
            let arcs = self.net.first[vi + 1] - self.net.first[vi];
            while self.cur[vi] < arcs {
                let a = self.net.arc_ids[self.net.first[vi] + self.cur[vi]];
                let w = self.net.to[a as usize];
                if self.net.cap[a as usize] > 0
                    && self.is_awake(w)
                    && self.height[vi] == self.height[w as usize] + 1
                {
                    let delta = self.excess[vi].min(self.net.cap[a as usize]);
                    self.net.cap[a as usize] -= delta;
                    self.net.cap[(a ^ 1) as usize] += delta;
                    let had = self.excess[w as usize] > 0;
                    self.excess[w as usize] += delta;
                    self.excess[vi] -= delta;
                    if !had {
                        self.activate(w);
                    }
                    if self.excess[vi] == 0 {
                        return;
                    }
                } else {
                    self.cur[vi] += 1;
                }
            }
            // Out of admissible arcs: relabel or sleep.
            let h = self.height[vi] as usize;
            if self.level_population(h) == 1 {
                // v is alone on its level: relabelling would create a gap,
                // so v and everything above go dormant together.
                self.put_to_sleep_from(h);
                return;
            }
            let mut min_h = u32::MAX;
            for idx in self.net.first[vi]..self.net.first[vi + 1] {
                let a = self.net.arc_ids[idx];
                if self.net.cap[a as usize] > 0 {
                    let w = self.net.to[a as usize];
                    if self.is_awake(w) {
                        min_h = min_h.min(self.height[w as usize]);
                    }
                }
            }
            if min_h == u32::MAX {
                // No awake residual neighbour at all.
                self.put_to_sleep_single(v);
                return;
            }
            let new_h = (min_h + 1).min(self.max_h as u32);
            debug_assert!(new_h as usize > h);
            self.level_remove(v);
            self.height[vi] = new_h;
            self.level_insert(v);
            self.cur[vi] = 0;
            if new_h as usize >= self.max_h {
                return;
            }
            // Highest-label policy: re-queue and let the scheduler pick.
            let hh = new_h as usize;
            self.active[hh].push(v);
            if hh > self.highest {
                self.highest = hh;
            }
        }
    }

    /// Awake vertex with minimum height (the next sink), if any.
    fn min_awake(&self) -> Option<NodeId> {
        for h in 0..=self.max_h {
            if let Some(&v) = self.by_level[h].first() {
                return Some(v);
            }
        }
        None
    }
}

/// Computes the global minimum cut of `g` with the Hao–Orlin algorithm.
///
/// Requires n ≥ 2. For disconnected graphs the result is 0 with a connected
/// component as witness.
pub fn hao_orlin(g: &CsrGraph) -> HaoOrlinResult {
    let n = g.n();
    assert!(n >= 2, "minimum cut needs at least two vertices");
    let mut _sp = mincut_obs::span("flow/hao_orlin");
    _sp.arg("n", n);
    _sp.arg("m", g.m());
    let mut ho = Ho::new(g);

    // Source: vertex 0, lifted to level n.
    let s: NodeId = 0;
    ho.state[s as usize] = SOURCE;
    ho.height[s as usize] = n as u32;
    for v in 0..n as NodeId {
        if v != s {
            ho.level_insert(v);
        }
    }

    let mut best_value = EdgeWeight::MAX;
    let mut best_side: Vec<bool> = Vec::new();
    let mut t = ho.min_awake().expect("n >= 2");
    ho.saturate_out_arcs(s);
    let mut in_source = 1usize;

    while in_source < n {
        ho.phase(t);
        // Candidate cut: everything that can still reach t in the residual
        // network is on t's side; all arcs into that side are saturated so
        // its value is exactly excess(t) — but we recompute it from the
        // original weights, which makes the candidate *unconditionally*
        // a valid cut even if an implementation detail were off.
        let side = ho.net.reaches_sink_side(t);
        let value = g.cut_value(&side);
        debug_assert_eq!(
            value, ho.excess[t as usize],
            "phase cut must equal sink excess"
        );
        if value < best_value && side.iter().any(|&b| !b) {
            best_value = value;
            best_side = side;
        }

        // Merge t into the source side and pick the next sink.
        ho.level_remove(t);
        ho.state[t as usize] = SOURCE;
        in_source += 1;
        if in_source == n {
            break;
        }
        ho.saturate_out_arcs(t);
        match ho.min_awake() {
            Some(next) => t = next,
            None => {
                let woke = ho.wake_latest();
                debug_assert!(woke, "non-source vertices remain but none awake");
                t = ho.min_awake().expect("woken set is non-empty");
            }
        }
    }

    debug_assert!(best_value != EdgeWeight::MAX);
    HaoOrlinResult {
        value: best_value,
        side: best_side,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::generators::known;

    fn check(g: &CsrGraph, expected: EdgeWeight) {
        let r = hao_orlin(g);
        assert_eq!(r.value, expected, "value mismatch");
        assert!(g.is_proper_cut(&r.side), "witness must be a proper cut");
        assert_eq!(g.cut_value(&r.side), expected, "witness value mismatch");
    }

    #[test]
    fn known_families() {
        check(&known::path_graph(7, 3).0, 3);
        check(&known::cycle_graph(9, 2).0, 4);
        check(&known::complete_graph(6, 1).0, 5);
        check(&known::star_graph(5, 4).0, 4);
        check(&known::grid_graph(3, 4, 2).0, 4);
        let (g, l) = known::two_communities(6, 5, 2, 3, 1);
        check(&g, l);
        let (g, l) = known::ring_of_cliques(4, 4, 2, 1);
        check(&g, l);
    }

    #[test]
    fn matches_brute_force_on_random_small_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2024);
        for trial in 0..60 {
            let n = rng.gen_range(4..10);
            let extra = rng.gen_range(0..12);
            let mut edges = Vec::new();
            // Random connected base + extra random weighted edges.
            for v in 1..n as NodeId {
                edges.push((rng.gen_range(0..v), v, rng.gen_range(1..6)));
            }
            for _ in 0..extra {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                if u != v {
                    edges.push((u, v, rng.gen_range(1..6)));
                }
            }
            let g = CsrGraph::from_edges(n, &edges);
            let expected = known::brute_force_mincut(&g);
            let got = hao_orlin(&g);
            assert_eq!(got.value, expected, "trial {trial}, graph {g:?}");
            assert_eq!(g.cut_value(&got.side), expected, "trial {trial} witness");
        }
    }

    #[test]
    fn disconnected_graph_reports_zero() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 5), (2, 3, 5)]);
        let r = hao_orlin(&g);
        assert_eq!(r.value, 0);
        assert!(g.is_proper_cut(&r.side));
        assert_eq!(g.cut_value(&r.side), 0);
    }

    #[test]
    fn two_vertices() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 42)]);
        check(&g, 42);
    }
}
