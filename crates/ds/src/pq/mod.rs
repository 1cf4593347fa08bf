//! Addressable max-priority queues for the CAPFOREST scan.
//!
//! The algorithm of Nagamochi, Ono and Ibaraki repeatedly pops the vertex
//! most strongly connected to the already-scanned region and raises the
//! priorities of its neighbours. The paper (§3.1.3) shows that because many
//! vertices share the maximum priority in practice, the *tie-breaking policy*
//! of the queue changes which edges become contractible, and the queue's
//! constant factors dominate the running time. One bucket queue at two tie
//! orders and one heap are therefore provided:
//!
//! * [`BucketPq`] — bucket array whose const parameter is the order within
//!   a bucket, the only thing the paper's two bucket variants differ in:
//!   * [`BStackPq`] = `BucketPq<false>`, LIFO within a bucket. The scan
//!     immediately revisits the vertex whose priority was just raised,
//!     behaving depth-first-like.
//!   * [`BQueuePq`] = `BucketPq<true>`, FIFO within a bucket. The scan
//!     explores older discoveries first, behaving breadth-first-like; the
//!     paper finds this is the best parallel variant.
//! * [`BinaryHeapPq`] — addressable binary heap with Wegener's bottom-up
//!   deletion heuristic; a neutral middle ground and the only option when
//!   priorities are unbounded (plain NOI without the λ̂ cap).
//!
//! # Flat intrusive layout
//!
//! Because the queue constants dominate the scan, the bucket queue is
//! built for cache behaviour rather than convenience:
//!
//! * **No per-bucket containers.** A bucket is a doubly-linked list whose
//!   links live *intrusively* in one flat per-vertex `[next, prev]` array;
//!   the bucket array itself is just head indices, plus a separate tail
//!   array that only the FIFO order grows. One allocation for all links,
//!   one for all bucket heads — no `Vec<Vec<_>>` pointer-chasing, no
//!   per-bucket reallocation churn.
//! * **O(1) raise.** A priority raise unlinks the vertex from its old
//!   bucket and relinks it into the new one; buckets contain only live
//!   entries and `pop_max` never skips stale slots. The observable pop
//!   order — vertex included — is pinned by the exact-order reference
//!   model in `tests/pq_model.rs`: among the live entries of maximum
//!   priority, BStack pops the one that entered its bucket last and
//!   BQueue the one that entered first, where a push and a
//!   priority-changing raise enter a bucket.
//! * **Epoch-stamped `reset`.** Vertex membership, priorities and bucket
//!   heads are validated against an epoch counter, so [`MaxPq::reset`]
//!   only bumps the epoch and grows arrays to a new high-water mark:
//!   reuse across CAPFOREST passes is O(changed), not O(n + buckets)
//!   re-zeroing. [`BinaryHeapPq::reset`] likewise clears only the
//!   positions of entries still queued.
//!
//! Priorities in CAPFOREST only ever *increase* (they accumulate edge
//! weights), which every queue enforces with a uniform monotonicity debug
//! assertion, and an equal-priority `raise` returns before touching any
//! bucket or heap state.

mod bucket;
mod counting;
mod heap;

pub use bucket::{BQueuePq, BStackPq, BucketPq};
pub use counting::CountingPq;
pub use heap::BinaryHeapPq;

/// Snapshot of the operation counters of a [`CountingPq`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PqCounters {
    pub pushes: u64,
    pub raises: u64,
    pub pops: u64,
}

impl PqCounters {
    /// Total operations.
    pub fn total(&self) -> u64 {
        self.pushes + self.raises + self.pops
    }

    /// Accumulates another snapshot (e.g. across parallel workers).
    pub fn add(&mut self, other: PqCounters) {
        self.pushes += other.pushes;
        self.raises += other.raises;
        self.pops += other.pops;
    }
}

/// Addressable max-priority queue over vertices `0..n` with `u64` priorities.
///
/// Contract required by CAPFOREST (and enforced with debug assertions):
/// * a vertex is pushed at most once between `reset`s and never re-pushed
///   after being popped;
/// * `raise` is monotone: the new priority is ≥ the current one.
pub trait MaxPq {
    /// Creates an empty queue. Call [`MaxPq::reset`] before use.
    fn new() -> Self;

    /// Prepares the queue for vertices `0..n` with priorities in
    /// `[0, max_priority]`. Reuses allocations where possible: the
    /// intrusive bucket queues and the heap make this O(changed) via
    /// epoch stamps / live-entry clears. Bucket-based queues address
    /// `max_priority + 1` buckets; heap-based queues ignore
    /// `max_priority`.
    fn reset(&mut self, n: usize, max_priority: u64);

    /// Inserts vertex `v` (not currently in the queue) with priority `prio`.
    fn push(&mut self, v: u32, prio: u64);

    /// Raises the priority of `v` (currently in the queue) to `prio`.
    /// A no-op if `prio` equals the current priority.
    fn raise(&mut self, v: u32, prio: u64);

    /// Pops a vertex with maximum priority, or `None` if empty.
    fn pop_max(&mut self) -> Option<(u32, u64)>;

    /// Whether `v` is currently in the queue.
    fn contains(&self, v: u32) -> bool;

    /// Current priority of `v`; unspecified if `v` is not in the queue.
    fn priority(&self, v: u32) -> u64;

    /// Number of elements currently in the queue.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns and resets the accumulated operation tallies. Only
    /// [`CountingPq`] actually counts; the bare queues return zeros, so
    /// generic scan drivers can harvest unconditionally at zero cost.
    #[inline]
    fn take_ops(&mut self) -> PqCounters {
        PqCounters::default()
    }
}

/// Runtime selector for the three queue implementations, mirroring the
/// algorithm variants benchmarked in the paper (NOIλ̂-BStack, NOIλ̂-BQueue,
/// NOIλ̂-Heap and the ParCut equivalents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PqKind {
    /// Bucket queue, LIFO buckets.
    BStack,
    /// Bucket queue, FIFO buckets.
    BQueue,
    /// Addressable bottom-up binary heap.
    Heap,
}

impl PqKind {
    /// All variants, in the order used by the experiment harness.
    pub const ALL: [PqKind; 3] = [PqKind::BStack, PqKind::BQueue, PqKind::Heap];
}

impl std::fmt::Display for PqKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PqKind::BStack => write!(f, "BStack"),
            PqKind::BQueue => write!(f, "BQueue"),
            PqKind::Heap => write!(f, "Heap"),
        }
    }
}

impl std::str::FromStr for PqKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "bstack" => Ok(PqKind::BStack),
            "bqueue" => Ok(PqKind::BQueue),
            "heap" => Ok(PqKind::Heap),
            other => Err(format!("unknown priority queue kind: {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_basic<P: MaxPq>() {
        let mut q = P::new();
        q.reset(8, 100);
        assert!(q.is_empty());
        q.push(3, 10);
        q.push(5, 40);
        q.push(1, 25);
        assert_eq!(q.len(), 3);
        assert!(q.contains(5));
        assert!(!q.contains(0));
        assert_eq!(q.pop_max(), Some((5, 40)));
        assert!(!q.contains(5));
        q.raise(3, 30);
        assert_eq!(q.pop_max(), Some((3, 30)));
        assert_eq!(q.pop_max(), Some((1, 25)));
        assert_eq!(q.pop_max(), None);
    }

    fn exercise_raise_to_same<P: MaxPq>() {
        let mut q = P::new();
        q.reset(4, 50);
        q.push(0, 7);
        q.raise(0, 7); // no-op
        assert_eq!(q.pop_max(), Some((0, 7)));
        assert!(q.is_empty());
    }

    fn exercise_reset_reuse<P: MaxPq>() {
        let mut q = P::new();
        q.reset(4, 10);
        q.push(0, 1);
        q.push(1, 2);
        let _ = q.pop_max();
        // Reset with different sizes; stale state must be gone.
        q.reset(6, 20);
        assert!(q.is_empty());
        assert!(!q.contains(0));
        assert!(!q.contains(1));
        q.push(5, 20);
        q.push(0, 0);
        assert_eq!(q.pop_max(), Some((5, 20)));
        assert_eq!(q.pop_max(), Some((0, 0)));
        assert_eq!(q.pop_max(), None);
    }

    fn exercise_many_raises<P: MaxPq>() {
        let mut q = P::new();
        q.reset(3, 1000);
        q.push(0, 0);
        q.push(1, 1);
        q.push(2, 2);
        for p in (10..=1000).step_by(10) {
            q.raise(0, p);
        }
        assert_eq!(q.priority(0), 1000);
        assert_eq!(q.pop_max(), Some((0, 1000)));
        assert_eq!(q.pop_max(), Some((2, 2)));
        assert_eq!(q.pop_max(), Some((1, 1)));
    }

    fn exercise_all<P: MaxPq>() {
        exercise_basic::<P>();
        exercise_raise_to_same::<P>();
        exercise_reset_reuse::<P>();
        exercise_many_raises::<P>();
    }

    #[test]
    fn bstack_basic() {
        exercise_all::<BStackPq>();
    }

    #[test]
    fn bqueue_basic() {
        exercise_all::<BQueuePq>();
    }

    #[test]
    fn heap_basic() {
        exercise_all::<BinaryHeapPq>();
    }

    fn exercise_lifo_within_bucket<P: MaxPq>() {
        let mut q = P::new();
        q.reset(4, 5);
        q.push(0, 5);
        q.push(1, 5);
        q.push(2, 5);
        // LIFO: the most recently pushed max element pops first.
        assert_eq!(q.pop_max(), Some((2, 5)));
        assert_eq!(q.pop_max(), Some((1, 5)));
        assert_eq!(q.pop_max(), Some((0, 5)));
    }

    #[test]
    fn bstack_is_lifo_within_bucket() {
        exercise_lifo_within_bucket::<BStackPq>();
    }

    fn exercise_fifo_within_bucket<P: MaxPq>() {
        let mut q = P::new();
        q.reset(4, 5);
        q.push(0, 5);
        q.push(1, 5);
        q.push(2, 5);
        // FIFO: the oldest max element pops first.
        assert_eq!(q.pop_max(), Some((0, 5)));
        assert_eq!(q.pop_max(), Some((1, 5)));
        assert_eq!(q.pop_max(), Some((2, 5)));
    }

    #[test]
    fn bqueue_is_fifo_within_bucket() {
        exercise_fifo_within_bucket::<BQueuePq>();
    }

    #[test]
    fn bstack_revisits_raised_vertex_first() {
        // The paper: BStack "will always next visit the element whose
        // priority it just increased".
        let mut q = BStackPq::new();
        q.reset(4, 10);
        q.push(0, 10);
        q.push(1, 10);
        q.raise(0, 10); // no-op, but even a real raise must come out first
        q.raise(1, 10);
        q.push(2, 4);
        q.raise(2, 10);
        assert_eq!(q.pop_max(), Some((2, 10)));
    }

    #[test]
    fn pqkind_parse_roundtrip() {
        for k in PqKind::ALL {
            let s = k.to_string();
            assert_eq!(s.parse::<PqKind>().unwrap(), k);
        }
        assert!("nope".parse::<PqKind>().is_err());
    }
}
