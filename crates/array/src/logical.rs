//! The "logical map": reconstructing logical subsets from byte ranges.
//!
//! This is the construction step of the paper's Fig. 8. Inside the
//! collective, an aggregated chunk is "just a sequence of bytes, with no
//! self-describing metadata"; before a map kernel can run, the bytes a
//! requester asked for must be recognized as element runs with coordinates
//! in the original dataset. Given a requester's offset list and a chunk's
//! byte range, [`construct_runs`] produces those runs.

use cc_mpiio::OffsetList;

use crate::variable::Variable;

/// One contiguous run of a requester's selection inside a chunk: the unit a
/// map kernel processes, and the unit whose metadata (owner, coordinates)
/// the collective-computing runtime must carry (the storage overhead
/// measured in the paper's Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicalRun {
    /// Linear element index (in the variable) where the run starts.
    pub start_elem: u64,
    /// Length in elements.
    pub len: u64,
    /// Element offset of the run within the requester's flattened result
    /// buffer (for reassembly and for positional kernels).
    pub(crate) buf_elem_offset: u64,
}

impl LogicalRun {
    /// Size of this run's metadata record in bytes, as the paper's runtime
    /// would store it: owner rank + buffer position + one (start, length)
    /// pair per dimension boundary, dominated by the coordinate vector.
    pub fn metadata_bytes(&self, var: &Variable) -> u64 {
        // owner (8) + buf offset (8) + len (8) + rank coordinates (8 each)
        24 + 8 * var.shape().rank() as u64
    }
}

/// Reconstructs the logical runs of `request` (a requester's byte-level
/// offset list over `var`) that fall inside the chunk `[lo, hi)`, in
/// buffer order. The runs are computed as they are consumed, so the map
/// loop allocates nothing per run.
///
/// # Panics
/// Panics if the intersection splits an element — callers must align chunk
/// boundaries to the element size (the collective-computing engine plans
/// element-aligned domains for exactly this reason).
pub fn construct_runs<'a>(
    var: &'a Variable,
    request: &'a OffsetList,
    lo: u64,
    hi: u64,
) -> impl Iterator<Item = LogicalRun> + 'a {
    let esize = var.dtype().size();
    request.locate(lo, hi).map(move |p| {
        assert!(
            (p.extent.offset - var.base_offset()).is_multiple_of(esize)
                && p.extent.len % esize == 0,
            "chunk boundary splits a {esize}-byte element of '{}' at byte {}",
            var.name(),
            p.extent.offset
        );
        assert!(
            p.buf_offset % esize == 0,
            "buffer position splits an element"
        );
        LogicalRun {
            start_elem: var.elem_of_byte(p.extent.offset),
            len: p.extent.len / esize,
            buf_elem_offset: p.buf_offset / esize,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::hyperslab::Hyperslab;
    use crate::shape::Shape;
    use proptest::prelude::*;

    impl LogicalRun {
        /// The run's starting coordinates in `var`'s shape — the
        /// `sequence = {(start0, len0, start1, len1), ...}` form of the paper.
        fn start_coords(&self, var: &Variable) -> Vec<u64> {
            var.shape().coords_of(self.start_elem)
        }
    }

    fn var() -> Variable {
        Variable::new("t", Shape::new(vec![4, 6]), DType::F64, 64)
    }

    #[test]
    fn whole_request_in_one_chunk() {
        let v = var();
        let slab = Hyperslab::new(vec![1, 2], vec![2, 3]);
        let req = v.byte_extents(&slab);
        let runs: Vec<_> = construct_runs(&v, &req, 0, 1 << 20).collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].start_coords(&v), vec![1, 2]);
        assert_eq!(runs[0].len, 3);
        assert_eq!(runs[0].buf_elem_offset, 0);
        assert_eq!(runs[1].start_coords(&v), vec![2, 2]);
        assert_eq!(runs[1].buf_elem_offset, 3);
    }

    #[test]
    fn chunk_boundary_splits_runs_not_elements() {
        let v = var();
        let slab = Hyperslab::new(vec![0, 0], vec![1, 6]); // row 0: 48 bytes at 64
        let req = v.byte_extents(&slab);
        // Split the row at byte 88 (element-aligned: 64 + 3*8).
        let first: Vec<_> = construct_runs(&v, &req, 0, 88).collect();
        let second: Vec<_> = construct_runs(&v, &req, 88, 1 << 20).collect();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].len, 3);
        assert_eq!(second[0].len, 3);
        assert_eq!(second[0].start_coords(&v), vec![0, 3]);
        assert_eq!(second[0].buf_elem_offset, 3);
    }

    #[test]
    #[should_panic]
    fn unaligned_chunk_panics() {
        let v = var();
        let req = v.byte_extents(&Hyperslab::whole(v.shape()));
        let _ = construct_runs(&v, &req, 0, 67).count(); // splits an element
    }

    #[test]
    fn empty_intersection_is_empty() {
        let v = var();
        let req = v.byte_extents(&Hyperslab::new(vec![0, 0], vec![1, 2]));
        assert_eq!(construct_runs(&v, &req, 1 << 10, 1 << 11).next(), None);
    }

    #[test]
    fn metadata_size_scales_with_rank() {
        let v2 = var();
        let v4 = Variable::new("q", Shape::new(vec![2, 2, 2, 2]), DType::F32, 0);
        let run = LogicalRun {
            start_elem: 0,
            len: 1,
            buf_elem_offset: 0,
        };
        assert_eq!(run.metadata_bytes(&v2), 24 + 16);
        assert_eq!(run.metadata_bytes(&v4), 24 + 32);
    }

    proptest! {
        #[test]
        fn prop_runs_cover_request_once(
            split_points in proptest::collection::vec(0u64..200, 0..6),
        ) {
            // Chop the variable's byte span at arbitrary element-aligned
            // points; the runs from all chunks must tile the selection.
            let v = var();
            let slab = Hyperslab::new(vec![1, 1], vec![3, 4]);
            let req = v.byte_extents(&slab);
            let mut cuts: Vec<u64> = split_points
                .into_iter()
                .map(|c| v.base_offset() + (c % (v.size_bytes() / 8)) * 8)
                .collect();
            cuts.push(v.base_offset());
            cuts.push(v.end_offset());
            cuts.sort_unstable();
            cuts.dedup();
            let mut elems = Vec::new();
            for w in cuts.windows(2) {
                for r in construct_runs(&v, &req, w[0], w[1]) {
                    elems.extend(r.start_elem..r.start_elem + r.len);
                }
            }
            elems.sort_unstable();
            let expected: Vec<u64> = (0..v.shape().num_elements())
                .filter(|&i| slab.contains(&v.shape().coords_of(i)))
                .collect();
            prop_assert_eq!(elems, expected);
        }

        #[test]
        fn prop_runs_reassemble_a_random_slab_once(
            dims in proptest::collection::vec(1u64..6, 1..4),
            seed in any::<u64>(),
            split_points in proptest::collection::vec(0u64..1000, 0..8),
        ) {
            // A random in-bounds box over a random shape, its byte span
            // chopped at random element-aligned points: every selected
            // element lands exactly once, at its row-major buffer slot.
            let shape = Shape::new(dims.clone());
            let mut x = seed;
            let mut next = |m: u64| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) % m
            };
            let (mut start, mut count) = (Vec::new(), Vec::new());
            for &d in &dims {
                let st = next(d);
                start.push(st);
                count.push(1 + next(d - st));
            }
            let slab = Hyperslab::new(start, count);
            let v = Variable::new("r", shape, DType::F32, 40);
            let req = v.byte_extents(&slab);
            let elems = v.shape().num_elements();
            let mut cuts: Vec<u64> = split_points
                .into_iter()
                .map(|c| v.byte_of_elem(c % elems))
                .collect();
            cuts.push(v.base_offset());
            cuts.push(v.end_offset());
            cuts.sort_unstable();
            cuts.dedup();
            let mut buf = vec![None; slab.num_elements() as usize];
            for w in cuts.windows(2) {
                for r in construct_runs(&v, &req, w[0], w[1]) {
                    for k in 0..r.len {
                        let slot = &mut buf[(r.buf_elem_offset + k) as usize];
                        prop_assert_eq!(*slot, None);
                        *slot = Some(r.start_elem + k);
                    }
                }
            }
            let expected: Vec<Option<u64>> = (0..elems)
                .filter(|&i| slab.contains(&v.shape().coords_of(i)))
                .map(Some)
                .collect();
            prop_assert_eq!(buf, expected);
        }
    }
}
