//! Flat intrusive bucket priority queue, LIFO buckets (the paper's
//! **BStack**).

use super::{bucket_of, MaxPq, EPOCH_LIMIT, NONE};

/// Bucket max-priority queue with LIFO buckets on a flat intrusive layout.
///
//  (Layout notes shared with `BQueuePq`; keep the two files in sync.)
/// One doubly-linked list per integer priority in `[0, max_priority]`,
/// stored *intrusively*: instead of a `Vec` per bucket, every vertex owns
/// a `[next, prev]` slot in one flat `links` array and each bucket is just
/// a head index. Membership, current priority and bucket heads are
/// validated by epoch stamps, so [`MaxPq::reset`] is O(1): it bumps the
/// epoch and every stale stamp silently invalidates — no O(n) zeroing, no
/// per-bucket clears, no reallocation once the arrays have grown to the
/// high-water mark.
///
/// `pop_max` returns the *most recently inserted* element of the highest
/// non-empty bucket, so the CAPFOREST scan immediately revisits the vertex
/// whose priority it just raised and does not fully explore local regions
/// (§3.1.3). `raise` unlinks the vertex from its old bucket and pushes it
/// onto the front of the new one in O(1) — true deletion, so buckets hold
/// only live entries and the pop loop never skips stale slots. The
/// observable pop order is pinned vertex for vertex by the exact-order
/// reference model in `tests/pq_model.rs` (a push and a
/// priority-changing raise enter a bucket; the last entry pops first).
pub struct BStackPq {
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
}

impl MaxPq for BStackPq {
    fn new() -> Self {
        BStackPq {
            heads: Vec::new(),
            head_stamp: Vec::new(),
            links: Vec::new(),
            prio: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            live: 0,
            top: 0,
            max_priority: 0,
        }
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
        self.link_front(v, bucket_of(prio, self.max_priority));
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
        self.link_front(v, bucket_of(prio, self.max_priority));
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

impl BStackPq {
    /// Pushes `v` onto the front of bucket `b` (LIFO).
    #[inline]
    fn link_front(&mut self, v: u32, b: usize) {
        let head = if self.head_stamp[b] == self.epoch {
            self.heads[b]
        } else {
            self.head_stamp[b] = self.epoch;
            NONE
        };
        self.links[v as usize] = [head, NONE];
        if head != NONE {
            self.links[head as usize][1] = v;
        }
        self.heads[b] = v;
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raises_move_instead_of_going_stale() {
        let mut q = BStackPq::new();
        q.reset(2, 10);
        q.push(0, 1);
        q.raise(0, 5);
        q.raise(0, 9);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_max(), Some((0, 9)));
        assert_eq!(q.pop_max(), None);
    }

    #[test]
    fn top_pointer_recovers_after_drain() {
        let mut q = BStackPq::new();
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

    #[test]
    fn zero_priority_supported() {
        let mut q = BStackPq::new();
        q.reset(1, 0);
        q.push(0, 0);
        assert_eq!(q.pop_max(), Some((0, 0)));
        assert_eq!(q.pop_max(), None);
    }

    #[test]
    fn unlink_middle_of_bucket() {
        let mut q = BStackPq::new();
        q.reset(4, 10);
        q.push(0, 3);
        q.push(1, 3);
        q.push(2, 3); // bucket 3 front-to-back: 2, 1, 0
        q.raise(1, 7); // unlink from the middle
        assert_eq!(q.pop_max(), Some((1, 7)));
        assert_eq!(q.pop_max(), Some((2, 3)));
        assert_eq!(q.pop_max(), Some((0, 3)));
        assert_eq!(q.pop_max(), None);
    }

    #[test]
    fn epoch_reset_is_cheap_and_complete() {
        let mut q = BStackPq::new();
        q.reset(8, 100);
        q.push(0, 50);
        q.push(1, 100);
        // Reset without draining: everything must vanish.
        q.reset(8, 40);
        assert!(q.is_empty());
        assert!(!q.contains(0) && !q.contains(1));
        q.push(0, 40);
        assert_eq!(q.pop_max(), Some((0, 40)));
        assert_eq!(q.pop_max(), None);
    }

    #[test]
    fn survives_epoch_wraparound() {
        let mut q = BStackPq::new();
        // Force the wrap path by faking an exhausted epoch counter.
        q.reset(4, 5);
        q.push(0, 5);
        q.epoch = EPOCH_LIMIT;
        q.reset(4, 5);
        assert!(q.is_empty());
        assert!(!q.contains(0));
        q.push(0, 3);
        q.push(1, 5);
        assert_eq!(q.pop_max(), Some((1, 5)));
        assert_eq!(q.pop_max(), Some((0, 3)));
    }
}
