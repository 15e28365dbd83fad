//! Variables: typed N-dimensional arrays at a byte offset in a file.

use cc_mpiio::{Extent, OffsetList};

use crate::dtype::DType;
use crate::hyperslab::{Hyperslab, SelectionError, StridedSlab};
use crate::shape::Shape;

/// A named variable: shape, element type, and the byte offset of element 0
/// in its file (netCDF's `begin` attribute).
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    name: String,
    shape: Shape,
    dtype: DType,
    base_offset: u64,
}

impl Variable {
    /// Creates a variable rooted at `base_offset`.
    pub fn new(name: &str, shape: Shape, dtype: DType, base_offset: u64) -> Self {
        Self {
            name: name.to_string(),
            shape,
            dtype,
            base_offset,
        }
    }

    /// The variable's name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The variable's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Byte offset of element 0 in the file.
    pub fn base_offset(&self) -> u64 {
        self.base_offset
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.shape.num_elements() * self.dtype.size()
    }

    /// One-past-the-end byte offset in the file.
    pub fn end_offset(&self) -> u64 {
        self.base_offset + self.size_bytes()
    }

    /// The byte offset of linear element `idx`.
    pub fn byte_of_elem(&self, idx: u64) -> u64 {
        self.base_offset + idx * self.dtype.size()
    }

    /// The linear element index containing byte `offset`.
    ///
    /// # Panics
    /// Panics if `offset` is outside the variable.
    pub fn elem_of_byte(&self, offset: u64) -> u64 {
        assert!(
            offset >= self.base_offset && offset < self.end_offset(),
            "byte {offset} outside variable '{}' [{}, {})",
            self.name,
            self.base_offset,
            self.end_offset()
        );
        (offset - self.base_offset) / self.dtype.size()
    }

    /// Flattens a hyperslab selection into the byte offset list the MPI-IO
    /// layer consumes — the logical→physical direction of the paper's
    /// Fig. 8. Runs that fuse across full trailing dimensions stay fused.
    ///
    /// # Panics
    /// Panics as `Hyperslab::validate` if the selection does not fit the
    /// variable; [`try_byte_extents`](Self::try_byte_extents) returns the
    /// error instead.
    pub fn byte_extents(&self, slab: &Hyperslab) -> OffsetList {
        slab.validate(&self.shape);
        self.runs_to_extents(slab)
    }

    /// [`byte_extents`](Self::byte_extents), or why the selection does not
    /// fit the variable.
    pub fn try_byte_extents(&self, slab: &Hyperslab) -> Result<OffsetList, SelectionError> {
        slab.check(&self.shape)?;
        Ok(self.runs_to_extents(slab))
    }

    fn runs_to_extents(&self, slab: &Hyperslab) -> OffsetList {
        let esize = self.dtype.size();
        OffsetList::new(
            slab.runs(&self.shape)
                .map(|(start, len)| Extent {
                    offset: self.base_offset + start * esize,
                    len: len * esize,
                })
                .collect(),
        )
    }

    /// Flattens a strided selection (the `ncmpi_get_vars` access shape)
    /// into a byte offset list.
    pub fn byte_extents_strided(&self, slab: &StridedSlab) -> OffsetList {
        let esize = self.dtype.size();
        OffsetList::new(
            slab.runs(&self.shape)
                .into_iter()
                .map(|(start, len)| Extent {
                    offset: self.base_offset + start * esize,
                    len: len * esize,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var() -> Variable {
        Variable::new("t", Shape::new(vec![3, 4]), DType::F64, 100)
    }

    #[test]
    fn sizes_and_offsets() {
        let v = var();
        assert_eq!(v.size_bytes(), 96);
        assert_eq!(v.end_offset(), 196);
        assert_eq!(v.byte_of_elem(5), 140);
        assert_eq!(v.elem_of_byte(140), 5);
        assert_eq!(v.elem_of_byte(147), 5);
    }

    #[test]
    #[should_panic]
    fn elem_of_byte_outside_panics() {
        let _ = var().elem_of_byte(99);
    }

    #[test]
    fn byte_extents_of_row_selection() {
        let v = var();
        // Rows (1, 1..3) and (2, 1..3): elements 5,6 and 9,10.
        let slab = Hyperslab::new(vec![1, 1], vec![2, 2]);
        let l = v.byte_extents(&slab);
        assert_eq!(l.extents().len(), 2);
        assert_eq!(l.extents()[0].offset, 100 + 5 * 8);
        assert_eq!(l.extents()[0].len, 16);
        assert_eq!(l.extents()[1].offset, 100 + 9 * 8);
        assert_eq!(l.total_bytes(), 32);
    }

    #[test]
    fn strided_byte_extents_subsample() {
        let v = var(); // 3 x 4 f64 at byte 100
        use crate::hyperslab::StridedSlab;
        // Every other column of every row: elems 0,2, 4,6, 8,10.
        let s = StridedSlab::new(vec![0, 0], vec![3, 2], vec![1, 2]);
        let l = v.byte_extents_strided(&s);
        assert_eq!(l.extents().len(), 6);
        assert_eq!(l.extents()[0].offset, 100);
        assert_eq!(l.extents()[1].offset, 100 + 16);
        assert_eq!(l.total_bytes(), 48);
    }

    #[test]
    fn try_byte_extents_reports_what_byte_extents_panics_on() {
        let v = var();
        let slab = Hyperslab::new(vec![1, 1], vec![2, 2]);
        assert_eq!(v.try_byte_extents(&slab), Ok(v.byte_extents(&slab)));
        assert_eq!(
            v.try_byte_extents(&Hyperslab::new(vec![2, 0], vec![1, 5])),
            Err(SelectionError::OutOfRange {
                dim: 1,
                start: 0,
                end: 5,
                extent: 4
            })
        );
        let e = v
            .try_byte_extents(&Hyperslab::new(vec![0], vec![3]))
            .unwrap_err();
        assert_eq!(
            e,
            SelectionError::RankMismatch {
                selection: 1,
                shape: 2
            }
        );
        assert!(e.to_string().starts_with("selection rank mismatch"));
    }

    #[test]
    fn try_byte_extents_reports_bounds_that_overflow() {
        let v = Variable::new("w", Shape::new(vec![4, 6]), DType::F64, 0);
        for start in [u64::MAX, u64::MAX - 1] {
            assert_eq!(
                v.try_byte_extents(&Hyperslab::new(vec![start, 0], vec![2, 6])),
                Err(SelectionError::OutOfRange {
                    dim: 0,
                    start,
                    end: u64::MAX,
                    extent: 4
                })
            );
        }
        // The last dimension overflows too, after a first one that fits.
        assert_eq!(
            v.try_byte_extents(&Hyperslab::new(vec![1, u64::MAX - 1], vec![1, 1])),
            Err(SelectionError::OutOfRange {
                dim: 1,
                start: u64::MAX - 1,
                end: u64::MAX,
                extent: 6
            })
        );
    }

    #[test]
    #[should_panic(expected = "selection [3, 4) exceeds dim 0 extent 3")]
    fn byte_extents_panics_with_the_error_message() {
        let _ = var().byte_extents(&Hyperslab::new(vec![3, 0], vec![1, 4]));
    }

    #[test]
    fn full_selection_is_one_extent() {
        let v = var();
        let l = v.byte_extents(&Hyperslab::whole(v.shape()));
        assert_eq!(l.extents().len(), 1);
        assert_eq!(l.total_bytes(), 96);
    }
}
