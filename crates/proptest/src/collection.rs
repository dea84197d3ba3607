//! Strategies for collections (`vec`).

use crate::{Strategy, TestRng};

/// Accepted length specifications for [`vec()`]: a fixed `usize`,
/// `Range<usize>`, or `RangeInclusive<usize>`.
pub trait IntoSizeRange {
    /// Returns the inclusive `(min, max)` length bounds.
    fn bounds(&self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl IntoSizeRange for core::ops::Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty vec size range");
        (self.start, self.end - 1)
    }
}

impl IntoSizeRange for core::ops::RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start() <= self.end(), "empty vec size range");
        (*self.start(), *self.end())
    }
}

/// Strategy generating `Vec`s of values from an element strategy.
pub struct VecStrategy<S> {
    element: S,
    min: usize,
    max: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = if self.min == self.max {
            self.min
        } else {
            self.min + rng.below((self.max - self.min + 1) as u128) as usize
        };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// Generates `Vec`s whose length is drawn from `size` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
    let (min, max) = size.bounds();
    VecStrategy { element, min, max }
}
