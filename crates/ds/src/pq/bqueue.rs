//! Flat intrusive bucket priority queue, FIFO buckets (the paper's
//! **BQueue**).

use super::{bucket_of, MaxPq, EPOCH_LIMIT, NONE};

/// Bucket max-priority queue with FIFO buckets on a flat intrusive layout.
///
/// Identical machinery to [`super::BStackPq`] — one doubly-linked list per
/// integer priority, links stored intrusively in a flat per-vertex array,
/// epoch-stamped membership and bucket heads so [`MaxPq::reset`] is O(1) —
/// except each bucket also tracks a *tail* and insertions append there, so
/// `pop_max` returns the *oldest* element of the highest non-empty bucket.
/// The CAPFOREST scan therefore behaves closer to a breadth-first search,
/// exploring vertices discovered earlier (closer to the source) first
/// (§3.1.3); the paper finds this variant scales best in the parallel
/// algorithm because the grown regions are rounder.
///
/// `raise` unlinks from the old bucket and appends to the new one in O(1);
/// the observable pop order is pinned vertex for vertex by the
/// exact-order reference model in `tests/pq_model.rs` (a push and a
/// priority-changing raise enter a bucket; the first entry pops first).
pub struct BQueuePq {
    /// `heads[b] = [head, tail]` of bucket `b`, valid iff
    /// `head_stamp[b] == epoch`; a valid `NONE` head is an emptied bucket.
    heads: Vec<[u32; 2]>,
    head_stamp: Vec<u32>,
    /// `links[v] = [next, prev]` within v's current bucket.
    links: Vec<[u32; 2]>,
    prio: Vec<u64>,
    /// `v` is queued iff `stamp[v] == epoch`.
    stamp: Vec<u32>,
    epoch: u32,
    live: usize,
    top: usize,
    max_priority: u64,
}

impl MaxPq for BQueuePq {
    fn new() -> Self {
        BQueuePq {
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
            self.head_stamp.iter_mut().for_each(|s| *s = 0);
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.heads.len() < nbuckets {
            self.heads.resize(nbuckets, [NONE, NONE]);
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
        self.link_back(v, bucket_of(prio, self.max_priority));
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
        self.link_back(v, bucket_of(prio, self.max_priority));
    }

    fn pop_max(&mut self) -> Option<(u32, u64)> {
        if self.live == 0 {
            return None;
        }
        loop {
            let head = if self.head_stamp[self.top] == self.epoch {
                self.heads[self.top][0]
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
                    self.heads[self.top][0] = next;
                    if next != NONE {
                        self.links[next as usize][1] = NONE;
                    } else {
                        self.heads[self.top][1] = NONE;
                    }
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

impl BQueuePq {
    /// Appends `v` to the back of bucket `b` (FIFO).
    #[inline]
    fn link_back(&mut self, v: u32, b: usize) {
        let tail = if self.head_stamp[b] == self.epoch {
            self.heads[b][1]
        } else {
            self.head_stamp[b] = self.epoch;
            self.heads[b] = [NONE, NONE];
            NONE
        };
        self.links[v as usize] = [NONE, tail];
        if tail != NONE {
            self.links[tail as usize][0] = v;
        } else {
            self.heads[b][0] = v;
        }
        self.heads[b][1] = v;
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
            debug_assert_eq!(self.heads[b][0], v);
            self.heads[b][0] = next;
        }
        if next != NONE {
            self.links[next as usize][1] = prev;
        } else {
            self.heads[b][1] = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_across_raises() {
        let mut q = BQueuePq::new();
        q.reset(3, 10);
        q.push(0, 3);
        q.push(1, 3);
        q.raise(0, 10); // 0 arrives in bucket 10 first
        q.raise(1, 10);
        assert_eq!(q.pop_max(), Some((0, 10)));
        assert_eq!(q.pop_max(), Some((1, 10)));
    }

    #[test]
    fn interleaved_pop_and_push() {
        let mut q = BQueuePq::new();
        q.reset(5, 4);
        q.push(0, 4);
        q.push(1, 4);
        assert_eq!(q.pop_max(), Some((0, 4)));
        q.push(2, 4);
        assert_eq!(q.pop_max(), Some((1, 4)));
        assert_eq!(q.pop_max(), Some((2, 4)));
        assert_eq!(q.pop_max(), None);
    }

    #[test]
    fn unlink_head_middle_and_tail() {
        let mut q = BQueuePq::new();
        q.reset(6, 10);
        q.push(0, 2);
        q.push(1, 2);
        q.push(2, 2);
        q.push(3, 2); // bucket 2: 0 1 2 3
        q.raise(1, 5); // middle
        q.raise(0, 5); // head
        q.raise(3, 5); // tail
                       // bucket 5 FIFO: 1, 0, 3; bucket 2: 2
        assert_eq!(q.pop_max(), Some((1, 5)));
        assert_eq!(q.pop_max(), Some((0, 5)));
        assert_eq!(q.pop_max(), Some((3, 5)));
        assert_eq!(q.pop_max(), Some((2, 2)));
        assert_eq!(q.pop_max(), None);
    }

    #[test]
    fn epoch_reset_is_cheap_and_complete() {
        let mut q = BQueuePq::new();
        q.reset(8, 100);
        q.push(0, 50);
        q.push(1, 100);
        q.reset(8, 40);
        assert!(q.is_empty());
        assert!(!q.contains(0) && !q.contains(1));
        q.push(0, 40);
        assert_eq!(q.pop_max(), Some((0, 40)));
        assert_eq!(q.pop_max(), None);
    }

    #[test]
    fn survives_epoch_wraparound() {
        let mut q = BQueuePq::new();
        q.reset(4, 5);
        q.push(0, 5);
        q.epoch = EPOCH_LIMIT;
        q.reset(4, 5);
        assert!(q.is_empty());
        q.push(0, 3);
        q.push(1, 5);
        assert_eq!(q.pop_max(), Some((1, 5)));
        assert_eq!(q.pop_max(), Some((0, 3)));
    }
}
