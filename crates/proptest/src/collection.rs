//! Collection strategies.

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Generates `Vec`s whose length is drawn from `size` and whose elements
/// are drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty vec size range");
    VecStrategy { element, size }
}

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_and_elements_in_range() {
        let mut rng = TestRng::new(5);
        let s = vec(10u64..20, 2..6);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| (10..20).contains(&x)));
        }
    }
}
