//! Collection strategies (`proptest::collection::vec`).

use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Length specification for [`vec()`]: an exact `usize` or a range.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        SizeRange {
            lo: exact,
            hi_exclusive: exact + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "vec strategy with empty size range");
        SizeRange {
            lo: r.start,
            hi_exclusive: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi_exclusive: r.end() + 1,
        }
    }
}

/// Vectors of values from `element`, with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi_exclusive - self.size.lo) as u64;
        let len = self.size.lo
            + if span == 0 {
                0
            } else {
                rng.below(span) as usize
            };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
