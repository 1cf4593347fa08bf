//! Sequential and wait-free concurrent union-find.
//!
//! CAPFOREST does not contract edges eagerly; it *marks* them by uniting
//! their endpoints in a union-find structure, and a postprocessing step
//! collapses each block into one vertex (§3.2: "this does not modify the
//! graph, it just remembers which nodes to collapse"). The parallel
//! CAPFOREST (Algorithm 1) shares one union-find instance between all
//! workers, which is sound because `union` is commutative — the paper's
//! Lemma 3.2(1). The concurrent variant follows the wait-free construction
//! of Anderson and Woll (STOC'91): CAS-linked roots with path halving.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Sequential union-find with union by rank and path halving.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    count: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets `{0}, {1}, …, {n-1}`.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            count: n,
        }
    }

    /// Re-initialises to `n` singleton sets, reusing the existing
    /// allocations (the CAPFOREST scan scratch resets one instance per
    /// pass instead of allocating a fresh structure).
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.count = n;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Representative of the set containing `x` (path halving).
    #[inline]
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            if gp == p {
                return p;
            }
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Representative of the set containing `x`, read without path
    /// halving, so threads may share the structure while no one unites.
    #[inline]
    pub fn root(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            x = p;
        }
    }

    /// Whether `x` is alone in its set. A root that heads other members
    /// was linked to, and union by rank leaves such a root at rank ≥ 1.
    #[inline]
    pub fn is_singleton(&self, x: u32) -> bool {
        self.parent[x as usize] == x && self.rank[x as usize] == 0
    }

    /// Unites the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let mut ra = self.find(a);
        let mut rb = self.find(b);
        if ra == rb {
            return false;
        }
        if self.rank[ra as usize] < self.rank[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        if self.rank[ra as usize] == self.rank[rb as usize] {
            self.rank[ra as usize] += 1;
        }
        self.count -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Builds a dense relabelling `vertex -> block id in [0, count)`.
    ///
    /// Returns `(mapping, number_of_blocks)`. Block ids are assigned in order
    /// of first appearance, so vertex 0's block is always 0.
    pub fn dense_labels(&mut self) -> (Vec<u32>, usize) {
        let mut labels = Vec::new();
        let blocks = self.dense_labels_into(&mut labels);
        (labels, blocks)
    }

    /// [`UnionFind::dense_labels`] into a caller-owned buffer (cleared,
    /// refilled, no other allocation), so round loops reuse one buffer
    /// across contractions; returns the number of distinct blocks.
    ///
    /// The buffer doubles as the root → label table: a root's output slot
    /// *is* its block label, so it can be assigned the moment any member
    /// appears — no second scratch array needed.
    pub fn dense_labels_into(&mut self, labels: &mut Vec<u32>) -> usize {
        let n = self.parent.len();
        const UNSET: u32 = u32::MAX;
        labels.clear();
        labels.resize(n, UNSET);
        let mut next = 0u32;
        for v in 0..n as u32 {
            let r = self.find(v);
            if labels[r as usize] == UNSET {
                labels[r as usize] = next;
                next += 1;
            }
            labels[v as usize] = labels[r as usize];
        }
        next as usize
    }
}

/// Wait-free concurrent union-find (Anderson–Woll) shared by the parallel
/// CAPFOREST workers.
///
/// * `find` uses path halving with benign-racy CAS shortcuts;
/// * `union` links the root with smaller rank under the larger, tie-broken
///   by id so concurrent links cannot form a cycle;
/// * ranks are updated with relaxed atomics — a lost rank update only
///   affects balance, never correctness.
pub struct ConcurrentUnionFind {
    parent: Vec<AtomicU32>,
    rank: Vec<AtomicU32>,
    count: AtomicUsize,
}

impl ConcurrentUnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        ConcurrentUnionFind {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
            rank: (0..n).map(|_| AtomicU32::new(0)).collect(),
            count: AtomicUsize::new(n),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets (exact once all workers have quiesced).
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Representative of the set containing `x` at some point during the
    /// call (linearizable per Anderson–Woll).
    pub fn find(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize].load(Ordering::Acquire);
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp == p {
                return p;
            }
            // Path halving; failure is benign (someone else compressed).
            let _ = self.parent[x as usize].compare_exchange_weak(
                p,
                gp,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            x = gp;
        }
    }

    /// Unites the sets of `a` and `b`; returns `true` if this call performed
    /// the link.
    pub fn union(&self, a: u32, b: u32) -> bool {
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return false;
            }
            let rank_a = self.rank[ra as usize].load(Ordering::Relaxed);
            let rank_b = self.rank[rb as usize].load(Ordering::Relaxed);
            // Total order on (rank, id): link the smaller under the larger.
            let (child, parent, parent_rank, child_rank) = if (rank_a, ra) < (rank_b, rb) {
                (ra, rb, rank_b, rank_a)
            } else {
                (rb, ra, rank_a, rank_b)
            };
            if self.parent[child as usize]
                .compare_exchange(child, parent, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                if parent_rank == child_rank {
                    // Benign race: a lost increment only worsens balance.
                    let _ = self.rank[parent as usize].compare_exchange(
                        parent_rank,
                        parent_rank + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                }
                self.count.fetch_sub(1, Ordering::AcqRel);
                return true;
            }
            // Someone linked `child` elsewhere in the meantime; retry.
        }
    }

    /// Whether `a` and `b` are in the same set (stable only once writers
    /// have quiesced, which is how the algorithm uses it).
    pub fn same(&self, a: u32, b: u32) -> bool {
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return true;
            }
            // `ra` might have been linked away between the two finds.
            if self.parent[ra as usize].load(Ordering::Acquire) == ra {
                return false;
            }
        }
    }

    /// Snapshots into a sequential [`UnionFind`]-style dense relabelling.
    ///
    /// Must only be called after all concurrent writers have finished.
    pub fn dense_labels(&self) -> (Vec<u32>, usize) {
        let n = self.parent.len();
        const UNSET: u32 = u32::MAX;
        let mut root_label = vec![UNSET; n];
        let mut labels = vec![0u32; n];
        let mut next = 0u32;
        for v in 0..n as u32 {
            let r = self.find(v);
            if root_label[r as usize] == UNSET {
                root_label[r as usize] = next;
                next += 1;
            }
            labels[v as usize] = root_label[r as usize];
        }
        (labels, next as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_basic() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(3, 4));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.count(), 3);
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 3));
        assert!(uf.union(1, 4));
        assert!(uf.same(0, 3));
        assert_eq!(uf.count(), 2);
    }

    #[test]
    fn shared_reads_match_find() {
        let mut uf = UnionFind::new(6);
        for (a, b) in [(0, 1), (2, 3), (1, 3), (4, 0)] {
            uf.union(a, b);
        }
        for x in 0..6 {
            assert_eq!(uf.is_singleton(x), x == 5, "vertex {x}");
            let root = uf.root(x);
            assert_eq!(root, uf.find(x), "vertex {x}");
        }
    }

    #[test]
    fn sequential_dense_labels() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 2);
        uf.union(4, 5);
        let (labels, k) = uf.dense_labels();
        assert_eq!(k, 4);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[1]);
        assert_eq!(labels[0], 0); // first-appearance order
        assert!(labels.iter().all(|&l| (l as usize) < k));
    }

    #[test]
    fn concurrent_matches_sequential_single_thread() {
        let cuf = ConcurrentUnionFind::new(8);
        let mut suf = UnionFind::new(8);
        let pairs = [(0, 1), (2, 3), (1, 2), (5, 6), (6, 7), (0, 3)];
        for &(a, b) in &pairs {
            assert_eq!(cuf.union(a, b), suf.union(a, b));
        }
        assert_eq!(cuf.count(), suf.count());
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(cuf.same(a, b), suf.same(a, b), "pair ({a},{b})");
            }
        }
    }

    #[test]
    fn concurrent_parallel_unions_form_correct_partition() {
        // 4 threads union disjoint chains that interlock; the final partition
        // must be exactly {0..n} mod 4 chains joined into one big block.
        let n = 4000u32;
        let cuf = ConcurrentUnionFind::new(n as usize);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let cuf = &cuf;
                s.spawn(move || {
                    // Each thread unions i with i+4 over its residue class...
                    let mut i = t;
                    while i + 4 < n {
                        cuf.union(i, i + 4);
                        i += 4;
                    }
                    // ...and stitches the classes together at the start.
                    cuf.union(t, (t + 1) % 4);
                });
            }
        });
        assert_eq!(cuf.count(), 1);
        let (labels, k) = cuf.dense_labels();
        assert_eq!(k, 1);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn concurrent_counts_under_contention() {
        // All threads union the same pairs; each union must be counted once.
        let n = 512u32;
        let cuf = ConcurrentUnionFind::new(n as usize);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cuf = &cuf;
                s.spawn(move || {
                    for i in 0..n - 1 {
                        cuf.union(i, i + 1);
                    }
                });
            }
        });
        assert_eq!(cuf.count(), 1);
    }
}
