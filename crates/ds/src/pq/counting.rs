//! Operation-counting priority-queue adaptor.
//!
//! Section 3.1.2 of the paper motivates the λ̂ cap by the *number of
//! priority-queue operations*: "In practice, many vertices reach priority
//! values much higher than λ̂ and perform many priority increases until
//! they reach their final value." This adaptor wraps any [`MaxPq`] and
//! counts pushes, raises and pops so the claim can be measured directly
//! (see `repro ablation` in `mincut-bench`).
//!
//! Counters are plain struct fields bumped inline — no thread-local
//! access, no atomics — and are harvested through [`MaxPq::take_ops`],
//! which the uninstrumented queues implement as a zero-returning no-op.
//! When stats are off the instrumentation is therefore *zero-cost by
//! construction*: the scan entry points are generic over `P: MaxPq`, so
//! instantiating them with a bare queue compiles the counting away
//! entirely instead of paying an always-on thread-local increment per
//! operation (the previous design).

use super::{MaxPq, PqCounters};

/// A [`MaxPq`] that forwards to `P` while tallying operations in plain
/// struct fields. Harvest (and reset) the tallies with
/// [`MaxPq::take_ops`].
pub struct CountingPq<P> {
    inner: P,
    counters: PqCounters,
}

impl<P: MaxPq> MaxPq for CountingPq<P> {
    fn new() -> Self {
        CountingPq {
            inner: P::new(),
            counters: PqCounters::default(),
        }
    }

    fn reset(&mut self, n: usize, max_priority: u64) {
        self.inner.reset(n, max_priority);
    }

    #[inline]
    fn push(&mut self, v: u32, prio: u64) {
        self.counters.pushes += 1;
        self.inner.push(v, prio);
    }

    #[inline]
    fn raise(&mut self, v: u32, prio: u64) {
        // A no-op raise (equal priority) is still an operation the
        // algorithm *attempted*; the paper's savings come from never
        // attempting it, which the λ̂ cap achieves upstream.
        self.counters.raises += 1;
        self.inner.raise(v, prio);
    }

    #[inline]
    fn pop_max(&mut self) -> Option<(u32, u64)> {
        let r = self.inner.pop_max();
        if r.is_some() {
            self.counters.pops += 1;
        }
        r
    }

    #[inline]
    fn contains(&self, v: u32) -> bool {
        self.inner.contains(v)
    }

    #[inline]
    fn priority(&self, v: u32) -> u64 {
        self.inner.priority(v)
    }

    #[inline]
    fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    fn take_ops(&mut self) -> PqCounters {
        std::mem::take(&mut self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pq::BinaryHeapPq;

    #[test]
    fn counts_operations() {
        let mut q: CountingPq<BinaryHeapPq> = CountingPq::new();
        q.reset(4, 100);
        q.push(0, 5);
        q.push(1, 7);
        q.raise(0, 9);
        assert_eq!(q.pop_max(), Some((0, 9)));
        assert_eq!(q.pop_max(), Some((1, 7)));
        assert_eq!(q.pop_max(), None);
        let c = q.take_ops();
        assert_eq!(
            c,
            PqCounters {
                pushes: 2,
                raises: 1,
                pops: 2
            }
        );
        assert_eq!(c.total(), 5);
        // Counters were reset by the take.
        assert_eq!(q.take_ops(), PqCounters::default());
    }

    #[test]
    fn bare_queues_report_zero_ops() {
        let mut q = BinaryHeapPq::new();
        q.reset(2, 10);
        q.push(0, 1);
        let _ = q.pop_max();
        assert_eq!(q.take_ops(), PqCounters::default());
    }
}
