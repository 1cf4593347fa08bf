//! Enumeration of *every* minimum s-t cut from one maximum flow.
//!
//! A set `S ∋ s`, `t ∉ S` is a minimum s-t cut **iff** no residual arc
//! of a maximum *flow* (conservation at every vertex but `s` and `t`)
//! leaves `S` — the closed sets of the residual reachability order
//! (Picard–Queyranne). Which maximum flow produced the residual does not
//! matter: the family of closed sets is the same for all of them. The
//! enumeration SCC-condenses the residual arcs, marks everything
//! reachable from `s` as mandatory and everything reaching `t` as
//! forbidden, and walks the ideals of the remaining DAG sinks-first.
//! Every leaf of that walk is a distinct minimum s-t cut, so the
//! enumeration is output-sensitive.

use mincut_graph::NodeId;

use crate::residual::Residual;

/// Enumerates every minimum s-t cut of the maximum flow whose residual
/// is `net`, as source sides (`side[s] == true`). Stops after
/// `max_cuts` sides and reports truncation via the second return value.
pub(crate) fn min_cut_sides(
    net: &Residual,
    s: NodeId,
    t: NodeId,
    max_cuts: usize,
) -> (Vec<Vec<bool>>, bool) {
    let n = net.n();
    let (comp_of, num_comps) = residual_sccs(net);
    // Tarjan numbers SCCs sinks-first: every residual arc u→v has
    // comp_of[u] >= comp_of[v]. Build the condensation's successor lists.
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); num_comps];
    for u in 0..n as NodeId {
        for &a in net.out_arcs(u) {
            if net.cap[a as usize] > 0 {
                let (cu, cv) = (comp_of[u as usize], comp_of[net.to[a as usize] as usize]);
                if cu != cv {
                    succs[cu as usize].push(cv);
                }
            }
        }
    }
    for list in &mut succs {
        list.sort_unstable();
        list.dedup();
    }
    let cs = comp_of[s as usize];
    let ct = comp_of[t as usize];
    debug_assert_ne!(cs, ct, "a residual s→t path would contradict maximality");

    // Mandatory: everything residual-reachable from s (closure forces it
    // into every cut side). Forbidden: everything reaching t (closure
    // would drag t in). Free: the rest, decided by the ideal walk.
    let mut state = vec![CompState::Free; num_comps];
    mark_forward(&succs, cs, &mut state, CompState::In);
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); num_comps];
    for (c, list) in succs.iter().enumerate() {
        for &d in list {
            preds[d as usize].push(c as u32);
        }
    }
    mark_forward(&preds, ct, &mut state, CompState::Out);
    let free: Vec<u32> = (0..num_comps as u32)
        .filter(|&c| state[c as usize] == CompState::Free)
        .collect();
    // `free` is ascending = sinks-first: successors are decided before
    // their predecessors, so the include-check below is local.

    let mut included = vec![false; num_comps];
    for (c, st) in state.iter().enumerate() {
        if *st == CompState::In {
            included[c] = true;
        }
    }
    let mut sides = Vec::new();
    let mut truncated = false;
    emit_ideals(
        &free,
        0,
        &succs,
        &mut included,
        &comp_of,
        n,
        max_cuts,
        &mut sides,
        &mut truncated,
    );
    (sides, truncated)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum CompState {
    In,
    Out,
    Free,
}

fn mark_forward(adj: &[Vec<u32>], start: u32, state: &mut [CompState], tag: CompState) {
    let mut stack = vec![start];
    state[start as usize] = tag;
    while let Some(c) = stack.pop() {
        for &d in &adj[c as usize] {
            if state[d as usize] == CompState::Free {
                state[d as usize] = tag;
                stack.push(d);
            }
        }
    }
}

/// Sinks-first ideal walk: at index `i` the free component `free[i]` is
/// either excluded (always valid) or included (valid iff all of its free
/// successors — all decided already — are included). Every leaf is a
/// distinct closed set, so the tree size is O(#cuts × depth).
#[allow(clippy::too_many_arguments)]
fn emit_ideals(
    free: &[u32],
    i: usize,
    succs: &[Vec<u32>],
    included: &mut Vec<bool>,
    comp_of: &[u32],
    n: usize,
    max_cuts: usize,
    sides: &mut Vec<Vec<bool>>,
    truncated: &mut bool,
) {
    if *truncated {
        return;
    }
    if i == free.len() {
        if sides.len() >= max_cuts {
            *truncated = true;
            return;
        }
        let side: Vec<bool> = (0..n).map(|v| included[comp_of[v] as usize]).collect();
        sides.push(side);
        return;
    }
    let c = free[i] as usize;
    // Exclude c.
    emit_ideals(
        free,
        i + 1,
        succs,
        included,
        comp_of,
        n,
        max_cuts,
        sides,
        truncated,
    );
    // Include c if closure permits.
    let ok = succs[c].iter().all(|&d| included[d as usize]);
    if ok {
        included[c] = true;
        emit_ideals(
            free,
            i + 1,
            succs,
            included,
            comp_of,
            n,
            max_cuts,
            sides,
            truncated,
        );
        included[c] = false;
    }
}

/// Iterative Tarjan SCC over the positive-capacity residual arcs.
/// Components are numbered in completion order, i.e. sinks-first:
/// `comp_of[u] >= comp_of[v]` for every residual arc u→v.
fn residual_sccs(net: &Residual) -> (Vec<u32>, usize) {
    let n = net.n();
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut comp_of = vec![UNSEEN; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0u32;
    let mut num_comps = 0u32;
    // Explicit DFS frames: (vertex, position in its out-arc list).
    let mut frames: Vec<(NodeId, usize)> = Vec::new();
    for root in 0..n as NodeId {
        if index[root as usize] != UNSEEN {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let vi = v as usize;
            if *pos == 0 {
                index[vi] = next_index;
                low[vi] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            let arcs = net.out_arcs(v);
            let mut descended = false;
            while *pos < arcs.len() {
                let a = arcs[*pos];
                *pos += 1;
                if net.cap[a as usize] == 0 {
                    continue;
                }
                let w = net.to[a as usize] as usize;
                if index[w] == UNSEEN {
                    frames.push((w as NodeId, 0));
                    descended = true;
                    break;
                } else if on_stack[w] {
                    low[vi] = low[vi].min(index[w]);
                }
            }
            if descended {
                continue;
            }
            // v is finished.
            if low[vi] == index[vi] {
                loop {
                    let w = stack.pop().expect("root still on stack");
                    on_stack[w as usize] = false;
                    comp_of[w as usize] = num_comps;
                    if w == v {
                        break;
                    }
                }
                num_comps += 1;
            }
            frames.pop();
            if let Some(&mut (p, _)) = frames.last_mut() {
                let pi = p as usize;
                low[pi] = low[pi].min(low[vi]);
            }
        }
    }
    (comp_of, num_comps as usize)
}

#[cfg(test)]
mod tests {
    use crate::max_flow;
    use mincut_graph::{CsrGraph, EdgeWeight, NodeId};

    fn brute_min_st_sides(g: &CsrGraph, s: NodeId, t: NodeId) -> (EdgeWeight, Vec<Vec<bool>>) {
        let n = g.n();
        let mut best = EdgeWeight::MAX;
        let mut sides = Vec::new();
        for mask in 0u32..(1 << n) {
            if (mask >> s) & 1 == 1 && (mask >> t) & 1 == 0 {
                let side: Vec<bool> = (0..n).map(|v| (mask >> v) & 1 == 1).collect();
                let value = g.cut_value(&side);
                match value.cmp(&best) {
                    std::cmp::Ordering::Less => {
                        best = value;
                        sides = vec![side];
                    }
                    std::cmp::Ordering::Equal => sides.push(side),
                    std::cmp::Ordering::Greater => {}
                }
            }
        }
        (best, sides)
    }

    fn sorted(mut sides: Vec<Vec<bool>>) -> Vec<Vec<bool>> {
        sides.sort();
        sides
    }

    #[test]
    fn enumeration_matches_brute_force_on_small_graphs() {
        type Case = (usize, Vec<(NodeId, NodeId, EdgeWeight)>);
        let cases: Vec<Case> = vec![
            // Path: every edge is a separate min cut family member.
            (4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]),
            // Cycle: min s-t cuts are edge pairs separating s from t.
            (
                5,
                vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)],
            ),
            // Diamond with a chord.
            (
                4,
                vec![(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)],
            ),
            // Weighted: a single tight bottleneck.
            (4, vec![(0, 1, 5), (1, 2, 2), (2, 3, 5)]),
        ];
        for (n, edges) in cases {
            let g = CsrGraph::from_edges(n, &edges);
            for s in 0..n as NodeId {
                for t in 0..n as NodeId {
                    if s == t {
                        continue;
                    }
                    let (want_value, want_sides) = brute_min_st_sides(&g, s, t);
                    let flow = max_flow(&g, s, t);
                    assert_eq!(flow.value, want_value, "value s={s} t={t}");
                    let (sides, truncated) = flow.min_cut_sides(1 << 16);
                    assert!(!truncated);
                    assert_eq!(
                        sorted(sides),
                        sorted(want_sides),
                        "cut family s={s} t={t} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn truncation_reports_itself() {
        // A path has exactly 3 min 0-3 cuts; cap at 2.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let flow = max_flow(&g, 0, 3);
        assert_eq!(flow.value, 1);
        let (sides, truncated) = flow.min_cut_sides(2);
        assert!(truncated);
        assert_eq!(sides.len(), 2);
    }
}
