//! N-dimensional array shapes (row-major / C order).
//!
//! Dimensions are stored slowest-varying first, fastest-varying last, like
//! netCDF. The paper describes its 4-D climate dataset "from fast dimension
//! to slowest dimension" as 1024 x 1024 x 100 x 1024; in this crate's
//! convention that is `Shape::new(vec![1024, 100, 1024, 1024])`.

/// The extents of an N-dimensional array, slowest dimension first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    dims: Vec<u64>,
}

impl Shape {
    /// Creates a shape.
    ///
    /// # Panics
    /// Panics on zero rank or any zero dimension.
    pub fn new(dims: Vec<u64>) -> Self {
        assert!(!dims.is_empty(), "shape needs at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "all dimensions must be positive: {dims:?}"
        );
        Self { dims }
    }

    /// The dimension extents, slowest first.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> u64 {
        self.dims.iter().product()
    }

    /// The linear (flat, row-major) index of `coords`.
    ///
    /// # Panics
    /// Panics if `coords` has the wrong rank or is out of bounds.
    pub(crate) fn linear_index(&self, coords: &[u64]) -> u64 {
        assert_eq!(coords.len(), self.rank(), "coordinate rank mismatch");
        let mut idx = 0u64;
        for (d, (&c, &n)) in coords.iter().zip(&self.dims).enumerate() {
            assert!(c < n, "coordinate {c} out of bounds {n} in dim {d}");
            idx = idx * n + c;
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Shape {
        /// Row-major strides in elements: `strides[d]` is the element distance
        /// between consecutive indices along dimension `d`.
        pub(crate) fn strides(&self) -> Vec<u64> {
            let mut strides = vec![1u64; self.dims.len()];
            for d in (0..self.dims.len().saturating_sub(1)).rev() {
                strides[d] = strides[d + 1] * self.dims[d + 1];
            }
            strides
        }

        /// The coordinates of linear index `idx`.
        ///
        /// # Panics
        /// Panics if `idx` is out of range.
        pub(crate) fn coords_of(&self, idx: u64) -> Vec<u64> {
            assert!(
                idx < self.num_elements(),
                "linear index {idx} out of range {}",
                self.num_elements()
            );
            let mut coords = vec![0u64; self.rank()];
            let mut rem = idx;
            for d in (0..self.rank()).rev() {
                coords[d] = rem % self.dims[d];
                rem /= self.dims[d];
            }
            coords
        }
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![4, 3, 5]);
        assert_eq!(s.strides(), vec![15, 5, 1]);
        assert_eq!(s.num_elements(), 60);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn linear_index_matches_strides() {
        let s = Shape::new(vec![4, 3, 5]);
        assert_eq!(s.linear_index(&[0, 0, 0]), 0);
        assert_eq!(s.linear_index(&[1, 0, 0]), 15);
        assert_eq!(s.linear_index(&[2, 1, 3]), 2 * 15 + 5 + 3);
    }

    #[test]
    fn coords_roundtrip_small() {
        let s = Shape::new(vec![3, 2, 4]);
        for idx in 0..s.num_elements() {
            assert_eq!(s.linear_index(&s.coords_of(idx)), idx);
        }
    }

    #[test]
    fn one_dimensional_shape() {
        let s = Shape::new(vec![10]);
        assert_eq!(s.strides(), vec![1]);
        assert_eq!(s.coords_of(7), vec![7]);
    }

    #[test]
    #[should_panic]
    fn zero_dim_panics() {
        let _ = Shape::new(vec![4, 0, 2]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_coord_panics() {
        let s = Shape::new(vec![2, 2]);
        let _ = s.linear_index(&[2, 0]);
    }

    proptest! {
        #[test]
        fn prop_linear_coords_roundtrip(
            dims in proptest::collection::vec(1u64..8, 1..5),
            seed in any::<u64>(),
        ) {
            let s = Shape::new(dims);
            let idx = seed % s.num_elements();
            prop_assert_eq!(s.linear_index(&s.coords_of(idx)), idx);
        }

        #[test]
        fn prop_lexicographic_order(
            dims in proptest::collection::vec(1u64..6, 1..4),
            a in any::<u64>(),
            b in any::<u64>(),
        ) {
            // Linear order equals lexicographic coordinate order.
            let s = Shape::new(dims);
            let (a, b) = (a % s.num_elements(), b % s.num_elements());
            let (ca, cb) = (s.coords_of(a), s.coords_of(b));
            prop_assert_eq!(a.cmp(&b), ca.cmp(&cb));
        }
    }
}
