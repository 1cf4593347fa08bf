//! Flat intrusive bucket priority queue, at both tie orders (the paper's
//! **BStack** and **BQueue**).

use super::MaxPq;

/// Sentinel index for "no vertex" in the intrusive link arrays.
const NONE: u32 = u32::MAX;

/// Epochs at or above this trigger a full stamp wipe on the next `reset`
/// instead of a plain increment, so stamps can never collide across an
/// epoch-counter wrap.
const EPOCH_LIMIT: u32 = u32::MAX - 1;

/// Bucket max-priority queue on a flat intrusive layout; `FIFO` picks the
/// order among entries of equal priority.
///
/// One doubly-linked list per integer priority in `[0, max_priority]`,
/// stored *intrusively*: instead of a `Vec` per bucket, every vertex owns
/// a `[next, prev]` slot in one flat `links` array and each bucket is just
/// a head index (plus, for FIFO, a tail index in an array of its own, so
/// LIFO buckets stay 8 bytes: head and stamp). Membership, current
/// priority and bucket heads are validated by epoch stamps, so
/// [`MaxPq::reset`] is O(1): it bumps the epoch and every stale stamp
/// silently invalidates — no O(n) zeroing, no per-bucket clears, no
/// reallocation once the arrays have grown to the high-water mark.
///
/// A push and a priority-changing `raise` *enter* a bucket: LIFO links
/// the vertex in at the head, FIFO appends it at the tail, and
/// `pop_max` always takes the head of the highest non-empty bucket. The
/// const parameter decides nothing else, so neither order pays a branch
/// for the other. `raise` unlinks the vertex from its old bucket in
/// O(1) — true deletion, so buckets hold only live entries and the pop
/// loop never skips stale slots. The observable pop order is pinned
/// vertex for vertex by the exact-order reference model in
/// `tests/pq_model.rs`.
#[derive(Default)]
pub struct BucketPq<const FIFO: bool> {
    /// `heads[b]` is the head vertex of bucket `b`, valid iff
    /// `head_stamp[b] == epoch`; a valid `NONE` head is an emptied bucket.
    heads: Vec<u32>,
    head_stamp: Vec<u32>,
    /// `links[v] = [next, prev]` within v's current bucket.
    links: Vec<[u32; 2]>,
    /// Current priority per vertex (valid while queued).
    prio: Vec<u64>,
    /// `v` is queued iff `stamp[v] == epoch`.
    stamp: Vec<u32>,
    epoch: u32,
    /// Number of queued entries.
    live: usize,
    /// Highest bucket that may be non-empty.
    top: usize,
    max_priority: u64,
    /// `tails[b]`, valid like `heads[b]`; FIFO only (empty for LIFO).
    tails: Vec<u32>,
}

/// LIFO buckets (the paper's **BStack**): the CAPFOREST scan immediately
/// revisits the vertex whose priority it just raised and does not fully
/// explore local regions (§3.1.3), behaving depth-first-like.
pub type BStackPq = BucketPq<false>;

/// FIFO buckets (the paper's **BQueue**): the CAPFOREST scan explores
/// vertices discovered earlier (closer to the source) first, behaving
/// breadth-first-like (§3.1.3); the paper finds this variant scales best
/// in the parallel algorithm because the grown regions are rounder.
pub type BQueuePq = BucketPq<true>;

impl<const FIFO: bool> MaxPq for BucketPq<FIFO> {
    fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize, max_priority: u64) {
        let nbuckets = (max_priority as usize).saturating_add(1);
        if self.epoch >= EPOCH_LIMIT {
            // Epoch wrap: one full re-zero, then stamps restart. Stamps
            // are compared only for equality with the current epoch, so
            // after the wipe every slot is again "stale".
            self.head_stamp.iter_mut().for_each(|s| *s = 0);
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.heads.len() < nbuckets {
            self.heads.resize(nbuckets, NONE);
            self.head_stamp.resize(nbuckets, 0);
            if FIFO {
                self.tails.resize(nbuckets, NONE);
            }
        }
        if self.links.len() < n {
            self.links.resize(n, [NONE, NONE]);
            self.prio.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        self.live = 0;
        self.top = 0;
        self.max_priority = max_priority;
    }

    #[inline]
    fn push(&mut self, v: u32, prio: u64) {
        debug_assert!(
            self.stamp[v as usize] != self.epoch,
            "push of vertex already queued"
        );
        self.stamp[v as usize] = self.epoch;
        self.live += 1;
        self.prio[v as usize] = prio;
        self.link(v, prio);
    }

    #[inline]
    fn raise(&mut self, v: u32, prio: u64) {
        debug_assert!(
            self.stamp[v as usize] == self.epoch,
            "raise of vertex not in queue"
        );
        let old = self.prio[v as usize];
        debug_assert!(prio >= old, "raise must be monotone ({prio} < {old})");
        if prio == old {
            return; // before any unlink/relink work
        }
        self.unlink(v, old as usize);
        self.prio[v as usize] = prio;
        self.link(v, prio);
    }

    fn pop_max(&mut self) -> Option<(u32, u64)> {
        if self.live == 0 {
            return None;
        }
        loop {
            let head = if self.head_stamp[self.top] == self.epoch {
                self.heads[self.top]
            } else {
                NONE
            };
            match head {
                NONE => {
                    debug_assert!(self.top > 0, "live count says non-empty");
                    self.top -= 1;
                }
                v => {
                    let next = self.links[v as usize][0];
                    self.heads[self.top] = next;
                    if next != NONE {
                        self.links[next as usize][1] = NONE;
                    } else if FIFO {
                        self.tails[self.top] = NONE;
                    }
                    // Un-stamp: epoch 0 never matches a current epoch.
                    self.stamp[v as usize] = self.epoch - 1;
                    self.live -= 1;
                    return Some((v, self.prio[v as usize]));
                }
            }
        }
    }

    #[inline]
    fn contains(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    #[inline]
    fn priority(&self, v: u32) -> u64 {
        self.prio[v as usize]
    }

    #[inline]
    fn len(&self) -> usize {
        self.live
    }
}

impl<const FIFO: bool> BucketPq<FIFO> {
    /// Enters `v` into the bucket of `prio`: at the head (LIFO) or the
    /// tail (FIFO).
    #[inline]
    fn link(&mut self, v: u32, prio: u64) {
        debug_assert!(
            prio <= self.max_priority,
            "priority {prio} exceeds bucket range {}",
            self.max_priority
        );
        let b = prio as usize;
        let stale = self.head_stamp[b] != self.epoch;
        if stale {
            self.head_stamp[b] = self.epoch;
        }
        if FIFO {
            let tail = if stale { NONE } else { self.tails[b] };
            self.links[v as usize] = [NONE, tail];
            if tail != NONE {
                self.links[tail as usize][0] = v;
            } else {
                self.heads[b] = v;
            }
            self.tails[b] = v;
        } else {
            let head = if stale { NONE } else { self.heads[b] };
            self.links[v as usize] = [head, NONE];
            if head != NONE {
                self.links[head as usize][1] = v;
            }
            self.heads[b] = v;
        }
        if b > self.top {
            self.top = b;
        }
    }

    /// Removes `v` from bucket `b` in O(1) via its intrusive links.
    #[inline]
    fn unlink(&mut self, v: u32, b: usize) {
        let [next, prev] = self.links[v as usize];
        if prev != NONE {
            self.links[prev as usize][0] = next;
        } else {
            debug_assert_eq!(self.heads[b], v);
            self.heads[b] = next;
        }
        if next != NONE {
            self.links[next as usize][1] = prev;
        } else if FIFO {
            self.tails[b] = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops every entry, in order.
    fn drain<const FIFO: bool>(q: &mut BucketPq<FIFO>) -> Vec<(u32, u64)> {
        std::iter::from_fn(|| q.pop_max()).collect()
    }

    /// The expected value at the queue's tie order.
    fn tie<const FIFO: bool, T>(lifo: T, fifo: T) -> T {
        if FIFO {
            fifo
        } else {
            lifo
        }
    }

    #[test]
    fn raises_move_instead_of_going_stale() {
        fn case<const FIFO: bool>() {
            let mut q = BucketPq::<FIFO>::new();
            q.reset(2, 10);
            q.push(0, 1);
            q.raise(0, 5);
            q.raise(0, 9);
            assert_eq!(q.len(), 1);
            assert_eq!(drain(&mut q), [(0, 9)]);
        }
        case::<false>();
        case::<true>();
    }

    #[test]
    fn top_pointer_recovers_after_drain() {
        fn case<const FIFO: bool>() {
            let mut q = BucketPq::<FIFO>::new();
            q.reset(4, 10);
            q.push(0, 10);
            q.push(1, 2);
            assert_eq!(q.pop_max(), Some((0, 10)));
            // Top must wander down to 2.
            assert_eq!(q.pop_max(), Some((1, 2)));
            // And back up on a new high push.
            q.push(2, 7);
            assert_eq!(q.pop_max(), Some((2, 7)));
        }
        case::<false>();
        case::<true>();
    }

    #[test]
    fn zero_priority_supported() {
        fn case<const FIFO: bool>() {
            let mut q = BucketPq::<FIFO>::new();
            q.reset(1, 0);
            q.push(0, 0);
            assert_eq!(drain(&mut q), [(0, 0)]);
        }
        case::<false>();
        case::<true>();
    }

    #[test]
    fn unlink_head_middle_and_tail() {
        fn case<const FIFO: bool>() {
            let mut q = BucketPq::<FIFO>::new();
            q.reset(6, 10);
            for v in 0..4 {
                q.push(v, 2); // bucket 2 head to tail: LIFO 3 2 1 0, FIFO 0 1 2 3
            }
            q.raise(1, 5); // middle at both orders
            q.raise(0, 5); // LIFO tail, FIFO head
            q.raise(3, 5); // LIFO head, FIFO tail

            // Entering both buckets again must link at the updated ends.
            q.push(4, 2);
            q.push(5, 5);
            let (high, low) = tie::<FIFO, _>(([5, 3, 0, 1], [4, 2]), ([1, 0, 3, 5], [2, 4]));
            let expected: Vec<_> = high
                .map(|v| (v, 5))
                .into_iter()
                .chain(low.map(|v| (v, 2)))
                .collect();
            assert_eq!(drain(&mut q), expected);
        }
        case::<false>();
        case::<true>();
    }

    #[test]
    fn raises_enter_at_the_tie_end() {
        fn case<const FIFO: bool>() {
            let mut q = BucketPq::<FIFO>::new();
            q.reset(3, 10);
            q.push(0, 3);
            q.push(1, 3);
            q.raise(0, 10); // 0 enters bucket 10 first
            q.raise(1, 10);
            let order = tie::<FIFO, _>([1, 0], [0, 1]);
            assert_eq!(drain(&mut q), order.map(|v| (v, 10)));
        }
        case::<false>();
        case::<true>();
    }

    #[test]
    fn interleaved_pop_and_push() {
        fn case<const FIFO: bool>() {
            let mut q = BucketPq::<FIFO>::new();
            q.reset(5, 4);
            q.push(0, 4);
            q.push(1, 4);
            let first = q.pop_max().unwrap().0;
            q.push(2, 4);
            let rest = drain(&mut q).into_iter().map(|(v, _)| v);
            let popped: Vec<u32> = std::iter::once(first).chain(rest).collect();
            assert_eq!(popped, tie::<FIFO, _>([1, 2, 0], [0, 1, 2]));
            // The pops emptied the bucket; it must take entries again.
            q.push(3, 4);
            q.push(4, 4);
            assert_eq!(
                drain(&mut q),
                tie::<FIFO, _>([(4, 4), (3, 4)], [(3, 4), (4, 4)])
            );
        }
        case::<false>();
        case::<true>();
    }

    #[test]
    fn raise_of_the_head_a_pop_left() {
        fn case<const FIFO: bool>() {
            let mut q = BucketPq::<FIFO>::new();
            q.reset(3, 4);
            for v in 0..3 {
                q.push(v, 3); // bucket 3 head to tail: LIFO 2 1 0, FIFO 0 1 2
            }
            assert_eq!(q.pop_max(), Some((tie::<FIFO, _>(2, 0), 3)));
            q.raise(1, 4); // the new head of bucket 3
            assert_eq!(drain(&mut q), [(1, 4), (tie::<FIFO, _>(0, 2), 3)]);
        }
        case::<false>();
        case::<true>();
    }

    #[test]
    fn epoch_reset_is_cheap_and_complete() {
        fn case<const FIFO: bool>() {
            let mut q = BucketPq::<FIFO>::new();
            q.reset(8, 100);
            q.push(0, 50);
            q.push(1, 100);
            // Reset without draining: everything must vanish.
            q.reset(8, 40);
            assert!(q.is_empty());
            assert!(!q.contains(0) && !q.contains(1));
            q.push(0, 40);
            assert_eq!(drain(&mut q), [(0, 40)]);
        }
        case::<false>();
        case::<true>();
    }

    #[test]
    fn survives_epoch_wraparound() {
        fn case<const FIFO: bool>() {
            let mut q = BucketPq::<FIFO>::new();
            // Force the wrap path by faking an exhausted epoch counter.
            q.reset(4, 5);
            q.push(0, 5);
            q.epoch = EPOCH_LIMIT;
            q.reset(4, 5);
            assert!(q.is_empty());
            assert!(!q.contains(0));
            q.push(0, 3);
            q.push(1, 5);
            assert_eq!(drain(&mut q), [(1, 5), (0, 3)]);
        }
        case::<false>();
        case::<true>();
    }
}
