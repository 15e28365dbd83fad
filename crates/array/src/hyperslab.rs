//! Hyperslab (start/count) selections.
//!
//! A hyperslab is the `start[]`/`count[]` pair of `ncmpi_get_vara`: an
//! axis-aligned box of an N-dimensional variable. Its elements, visited in
//! row-major order, decompose into contiguous *runs* along the fastest
//! dimension — the unit both the flattening (logical → bytes) and the
//! construction (bytes → logical) directions work in.

use std::fmt;

use crate::shape::Shape;

/// An axis-aligned box selection: `start[d] .. start[d] + count[d]` in each
/// dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hyperslab {
    start: Vec<u64>,
    count: Vec<u64>,
}

impl Hyperslab {
    /// Creates a hyperslab.
    ///
    /// # Panics
    /// Panics if ranks differ or any count is zero.
    pub fn new(start: Vec<u64>, count: Vec<u64>) -> Self {
        assert_eq!(start.len(), count.len(), "start/count rank mismatch");
        assert!(!start.is_empty(), "hyperslab needs at least one dimension");
        assert!(
            count.iter().all(|&c| c > 0),
            "all counts must be positive: {count:?}"
        );
        Self { start, count }
    }

    /// The whole of `shape`.
    pub fn whole(shape: &Shape) -> Self {
        Self::new(vec![0; shape.rank()], shape.dims().to_vec())
    }

    /// Per-dimension starts.
    pub fn start(&self) -> &[u64] {
        &self.start
    }

    /// Per-dimension counts.
    pub fn count(&self) -> &[u64] {
        &self.count
    }

    /// Rank of the selection.
    pub(crate) fn rank(&self) -> usize {
        self.start.len()
    }

    /// Number of selected elements.
    pub fn num_elements(&self) -> u64 {
        self.count.iter().product()
    }

    /// Validates the selection against `shape`.
    ///
    /// # Panics
    /// Panics if the ranks differ or the box exceeds the shape in any
    /// dimension, with [`SelectionError`]'s message for the latter.
    pub(crate) fn validate(&self, shape: &Shape) {
        assert_eq!(self.rank(), shape.rank(), "selection rank mismatch");
        if let Err(e) = self.check(shape) {
            panic!("{e}");
        }
    }

    /// Why the selection does not fit `shape`, if it does not: a rank
    /// mismatch, or the first dimension the box runs past.
    pub(crate) fn check(&self, shape: &Shape) -> Result<(), SelectionError> {
        if self.rank() != shape.rank() {
            return Err(SelectionError::RankMismatch {
                selection: self.rank(),
                shape: shape.rank(),
            });
        }
        for (dim, ((&start, &c), &extent)) in self
            .start
            .iter()
            .zip(&self.count)
            .zip(shape.dims())
            .enumerate()
        {
            match start.checked_add(c) {
                Some(end) if end <= extent => {}
                end => {
                    return Err(SelectionError::OutOfRange {
                        dim,
                        start,
                        end: end.unwrap_or(u64::MAX),
                        extent,
                    })
                }
            }
        }
        Ok(())
    }

    /// Iterates the selection's contiguous runs in row-major order: each
    /// item is `(linear_start, len)` in *element* indices of `shape`.
    /// When the selection covers whole trailing dimensions the runs fuse,
    /// so a full-array selection yields a single run.
    pub fn runs<'a>(&'a self, shape: &'a Shape) -> RunIter<'a> {
        self.validate(shape);
        // The run spans the longest suffix of dimensions that the selection
        // covers completely (plus the next dimension partially).
        let rank = self.rank();
        let mut fused = rank - 1; // runs vary along dims `fused..rank`
        while fused > 0 && self.start[fused] == 0 && self.count[fused] == shape.dims()[fused] {
            fused -= 1;
        }
        let run_len: u64 = (fused..rank).map(|d| self.count[d]).product();
        RunIter {
            slab: self,
            shape,
            fused,
            run_len,
            coords: self.start.clone(),
            remaining: self.count[..fused].iter().product(),
        }
    }
}

/// Why a selection does not fit a shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionError {
    /// The selection and the shape have different numbers of dimensions.
    RankMismatch {
        /// Dimensions of the selection.
        selection: usize,
        /// Dimensions of the shape.
        shape: usize,
    },
    /// The selection runs past the shape in dimension `dim`.
    OutOfRange {
        /// The offending dimension.
        dim: usize,
        /// `start[dim]`.
        start: u64,
        /// `start[dim] + count[dim]`, or `u64::MAX` where that overflows.
        end: u64,
        /// The shape's extent in that dimension.
        extent: u64,
    },
}

impl fmt::Display for SelectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionError::RankMismatch { selection, shape } => write!(
                f,
                "selection rank mismatch: {selection} dims against a rank-{shape} shape"
            ),
            SelectionError::OutOfRange {
                dim,
                start,
                end,
                extent,
            } => write!(
                f,
                "selection [{start}, {end}) exceeds dim {dim} extent {extent}"
            ),
        }
    }
}

impl std::error::Error for SelectionError {}

/// A strided selection: `count[d]` points along dimension `d`, starting at
/// `start[d]`, every `stride[d]`-th index — the `ncmpi_get_vars` access
/// shape (subsampling every k-th grid point, every n-th time step).
///
/// A stride of 1 in every dimension is exactly a [`Hyperslab`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StridedSlab {
    start: Vec<u64>,
    count: Vec<u64>,
    stride: Vec<u64>,
}

impl StridedSlab {
    /// Creates a strided selection.
    ///
    /// # Panics
    /// Panics if ranks differ, any count is zero, or any stride is zero.
    pub fn new(start: Vec<u64>, count: Vec<u64>, stride: Vec<u64>) -> Self {
        assert_eq!(start.len(), count.len(), "start/count rank mismatch");
        assert_eq!(start.len(), stride.len(), "start/stride rank mismatch");
        assert!(!start.is_empty(), "selection needs at least one dimension");
        assert!(count.iter().all(|&c| c > 0), "all counts must be positive");
        assert!(
            stride.iter().all(|&s| s > 0),
            "all strides must be positive"
        );
        Self {
            start,
            count,
            stride,
        }
    }

    /// The index selected along dimension `d` at position `i`.
    fn index(&self, d: usize, i: u64) -> u64 {
        self.start[d] + i * self.stride[d]
    }

    /// Validates the selection against `shape`.
    ///
    /// # Panics
    /// Panics if the last selected index exceeds the shape in any dimension.
    pub(crate) fn validate(&self, shape: &Shape) {
        assert_eq!(self.start.len(), shape.rank(), "selection rank mismatch");
        for (d, &n) in shape.dims().iter().enumerate() {
            let last = self.index(d, self.count[d] - 1);
            assert!(
                last < n,
                "strided selection reaches index {last} in dim {d} of extent {n}"
            );
        }
    }

    /// The contiguous element runs of the selection in row-major order.
    /// With a unit stride in the fastest dimension, runs span
    /// `count[last]` elements; otherwise every selected element is its own
    /// run (the worst-case non-contiguous pattern).
    pub fn runs(&self, shape: &Shape) -> Vec<(u64, u64)> {
        self.validate(shape);
        let rank = self.start.len();
        let fast_contig = self.stride[rank - 1] == 1;
        let run_len = if fast_contig { self.count[rank - 1] } else { 1 };
        // Iterate the outer lattice (all dims except the fastest when it
        // is contiguous; all dims otherwise) odometer style, advancing
        // one full-rank coordinate buffer in place.
        let outer_rank = if fast_contig { rank - 1 } else { rank };
        let n = self.count[..outer_rank].iter().product::<u64>() as usize;
        let mut out = Vec::with_capacity(n);
        let mut coords = self.start.clone();
        for _ in 0..n {
            out.push((shape.linear_index(&coords), run_len));
            for d in (0..outer_rank).rev() {
                if coords[d] < self.index(d, self.count[d] - 1) {
                    coords[d] += self.stride[d];
                    break;
                }
                coords[d] = self.start[d];
            }
        }
        out
    }
}

impl From<Hyperslab> for StridedSlab {
    fn from(slab: Hyperslab) -> Self {
        let rank = slab.rank();
        StridedSlab::new(slab.start().to_vec(), slab.count().to_vec(), vec![1; rank])
    }
}

/// Iterator over the contiguous element runs of a hyperslab. It owns one
/// coordinate buffer and advances it in place, so a selection costs one
/// allocation however many runs it has.
pub struct RunIter<'a> {
    slab: &'a Hyperslab,
    shape: &'a Shape,
    /// Dimensions `fused..rank` are contiguous within one run.
    fused: usize,
    run_len: u64,
    /// Full-rank coordinates of the next run's first element; dims
    /// `fused..rank` stay at the selection's start.
    coords: Vec<u64>,
    /// Runs not yet yielded.
    remaining: u64,
}

impl Iterator for RunIter<'_> {
    /// `(linear element index of run start, run length in elements)`.
    type Item = (u64, u64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let start = self.shape.linear_index(&self.coords);
        // Advance dims `0..fused` odometer-style within the selection box;
        // after the last run every digit wraps back to the start.
        for d in (0..self.fused).rev() {
            self.coords[d] += 1;
            if self.coords[d] < self.slab.start[d] + self.slab.count[d] {
                break;
            }
            self.coords[d] = self.slab.start[d];
        }
        Some((start, self.run_len))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).ok();
        (n.unwrap_or(usize::MAX), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl StridedSlab {
        /// Number of selected elements.
        pub(crate) fn num_elements(&self) -> u64 {
            self.count.iter().product()
        }

        /// Whether `coords` lies on the strided lattice.
        pub(crate) fn contains(&self, coords: &[u64]) -> bool {
            coords.len() == self.start.len()
                && coords.iter().enumerate().all(|(d, &c)| {
                    c >= self.start[d]
                        && (c - self.start[d]).is_multiple_of(self.stride[d])
                        && (c - self.start[d]) / self.stride[d] < self.count[d]
                })
        }
    }

    impl Hyperslab {
        /// Whether `coords` lies inside the selection.
        pub(crate) fn contains(&self, coords: &[u64]) -> bool {
            coords.len() == self.rank()
                && coords
                    .iter()
                    .zip(self.start.iter().zip(&self.count))
                    .all(|(&c, (&s, &n))| c >= s && c < s + n)
        }
    }

    #[test]
    fn full_selection_is_one_run() {
        let shape = Shape::new(vec![4, 3, 5]);
        let slab = Hyperslab::whole(&shape);
        let runs: Vec<_> = slab.runs(&shape).collect();
        assert_eq!(runs, vec![(0, 60)]);
    }

    #[test]
    fn partial_fastest_dim_gives_row_runs() {
        let shape = Shape::new(vec![3, 4]);
        let slab = Hyperslab::new(vec![1, 1], vec![2, 2]);
        let runs: Vec<_> = slab.runs(&shape).collect();
        // Rows (1,1..3) and (2,1..3): starts 5 and 9, length 2.
        assert_eq!(runs, vec![(5, 2), (9, 2)]);
    }

    #[test]
    fn trailing_full_dims_fuse() {
        let shape = Shape::new(vec![4, 3, 5]);
        // Full coverage of the last two dims: outer rows are adjacent, so
        // the whole selection is one contiguous run.
        let slab = Hyperslab::new(vec![1, 0, 0], vec![2, 3, 5]);
        let runs: Vec<_> = slab.runs(&shape).collect();
        assert_eq!(runs, vec![(15, 30)]);

        // Partially covered middle dim: one run per outer coordinate.
        let slab = Hyperslab::new(vec![1, 0, 0], vec![2, 2, 5]);
        let runs: Vec<_> = slab.runs(&shape).collect();
        assert_eq!(runs, vec![(15, 10), (30, 10)]);
    }

    #[test]
    fn four_dimensional_selection() {
        // A miniature of the paper's Fig. 1 pattern: 4-D subset access.
        let shape = Shape::new(vec![6, 5, 4, 8]);
        let slab = Hyperslab::new(vec![1, 2, 0, 2], vec![2, 2, 3, 4]);
        let runs: Vec<_> = slab.runs(&shape).collect();
        assert_eq!(runs.len(), (2 * 2 * 3) as usize);
        assert_eq!(slab.num_elements(), 48);
        let total: u64 = runs.iter().map(|r| r.1).sum();
        assert_eq!(total, 48);
        // First run starts at coords [1,2,0,2].
        assert_eq!(runs[0].0, shape.linear_index(&[1, 2, 0, 2]));
        assert_eq!(runs[0].1, 4);
    }

    #[test]
    fn contains_checks_box() {
        let slab = Hyperslab::new(vec![2, 3], vec![2, 2]);
        assert!(slab.contains(&[2, 3]));
        assert!(slab.contains(&[3, 4]));
        assert!(!slab.contains(&[4, 3]));
        assert!(!slab.contains(&[2, 5]));
        assert!(!slab.contains(&[2]));
    }

    #[test]
    #[should_panic]
    fn oversized_selection_panics() {
        let shape = Shape::new(vec![4, 4]);
        Hyperslab::new(vec![2, 0], vec![3, 4]).validate(&shape);
    }

    #[test]
    fn strided_unit_stride_equals_hyperslab() {
        let shape = Shape::new(vec![4, 6]);
        let slab = Hyperslab::new(vec![1, 2], vec![2, 3]);
        let strided: StridedSlab = slab.clone().into();
        let a: Vec<_> = slab.runs(&shape).collect();
        let b = strided.runs(&shape);
        assert_eq!(a, b);
    }

    #[test]
    fn strided_fast_dim_fragments_into_single_elements() {
        let shape = Shape::new(vec![2, 10]);
        // Every other column of row 0: elements 0, 2, 4, 6.
        let s = StridedSlab::new(vec![0, 0], vec![1, 4], vec![1, 2]);
        assert_eq!(s.runs(&shape), vec![(0, 1), (2, 1), (4, 1), (6, 1)]);
        assert_eq!(s.num_elements(), 4);
    }

    #[test]
    fn strided_outer_dims_keep_fast_runs() {
        let shape = Shape::new(vec![6, 8]);
        // Rows 1, 3, 5; columns 2..6 contiguous.
        let s = StridedSlab::new(vec![1, 2], vec![3, 4], vec![2, 1]);
        assert_eq!(s.runs(&shape), vec![(10, 4), (26, 4), (42, 4)]);
    }

    #[test]
    fn strided_contains_checks_lattice() {
        let s = StridedSlab::new(vec![1, 0], vec![2, 3], vec![2, 4]);
        assert!(s.contains(&[1, 0]));
        assert!(s.contains(&[3, 8]));
        assert!(!s.contains(&[2, 0])); // off the row lattice
        assert!(!s.contains(&[1, 2])); // off the column lattice
        assert!(!s.contains(&[5, 0])); // beyond the count
    }

    #[test]
    #[should_panic]
    fn strided_overreach_panics() {
        let shape = Shape::new(vec![4, 4]);
        StridedSlab::new(vec![0, 0], vec![3, 1], vec![2, 1]).validate(&shape);
    }

    #[test]
    fn strided_runs_match_brute_force() {
        let shape = Shape::new(vec![5, 4, 6]);
        let s = StridedSlab::new(vec![0, 1, 1], vec![3, 2, 2], vec![2, 2, 3]);
        let mut from_runs = Vec::new();
        for (st, len) in s.runs(&shape) {
            from_runs.extend(st..st + len);
        }
        let brute: Vec<u64> = (0..shape.num_elements())
            .filter(|&i| s.contains(&shape.coords_of(i)))
            .collect();
        assert_eq!(from_runs, brute);
    }

    proptest! {
        #[test]
        fn prop_strided_runs_match_brute_force(
            dims in proptest::collection::vec(2u64..7, 1..4),
            seed in any::<u64>(),
        ) {
            let shape = Shape::new(dims.clone());
            let mut x = seed;
            let mut next = |m: u64| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) % m
            };
            let mut start = Vec::new();
            let mut count = Vec::new();
            let mut stride = Vec::new();
            for &d in &dims {
                let st = next(d);
                let sr = 1 + next(3);
                let max_count = 1 + (d - 1 - st) / sr;
                start.push(st);
                stride.push(sr);
                count.push(1 + next(max_count));
            }
            let s = StridedSlab::new(start, count, stride);
            let mut from_runs = Vec::new();
            for (st, len) in s.runs(&shape) {
                from_runs.extend(st..st + len);
            }
            let brute: Vec<u64> = (0..shape.num_elements())
                .filter(|&i| s.contains(&shape.coords_of(i)))
                .collect();
            prop_assert_eq!(from_runs, brute);
        }

        #[test]
        fn prop_runs_enumerate_exactly_the_box(
            dims in proptest::collection::vec(1u64..6, 1..4),
            seed in any::<u64>(),
        ) {
            let shape = Shape::new(dims.clone());
            // Derive a valid in-bounds selection from the seed.
            let mut s = seed;
            let mut start = Vec::new();
            let mut count = Vec::new();
            for &d in &dims {
                let st = s % d;
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let c = 1 + s % (d - st);
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                start.push(st);
                count.push(c);
            }
            let slab = Hyperslab::new(start, count);
            // Collect all element indices from runs.
            let mut from_runs = Vec::new();
            for (st, len) in slab.runs(&shape) {
                from_runs.extend(st..st + len);
            }
            // Compare against brute force membership.
            let brute: Vec<u64> = (0..shape.num_elements())
                .filter(|&i| slab.contains(&shape.coords_of(i)))
                .collect();
            prop_assert_eq!(from_runs, brute);
        }
    }
}
