//! Per-task result scatter: fold each task's kernel out of a fused
//! collective buffer, bit-identical to a solo execution.
//!
//! The task-fusion layer reads the *union* of many task requests in one
//! collective sweep. This module projects each task's bytes back out of
//! that fused buffer and folds its kernel over them. Bit-identity with
//! solo execution holds by construction: a fused pattern is a set of
//! maximal disjoint non-adjacent runs, so every task extent lies inside
//! exactly one run ([`cc_mpiio::project_extent`] panics otherwise), and
//! the kernel therefore sees the same `map(start_elem, values)` call
//! sequence — same run boundaries, same value order, same floating-point
//! fold order — as an independent read of the task alone.

use cc_array::Variable;
use cc_mpiio::{project_extent, OffsetList};

use crate::kernel::{MapKernel, Partial};

/// Folds `kernel` over the bytes of `request`, as returned by any read
/// that delivers the request in buffer order (independent or collective).
/// `values` is caller-owned decode scratch, reused across tasks.
///
/// # Panics
/// Panics with the task id if `bytes` does not match the request size —
/// a torn read would otherwise fold garbage silently.
pub fn fold_task_bytes(
    task_id: u64,
    var: &Variable,
    request: &OffsetList,
    bytes: &[u8],
    kernel: &dyn MapKernel,
    values: &mut Vec<f64>,
) -> Partial {
    assert!(
        bytes.len() as u64 == request.total_bytes(),
        "task {task_id}: read returned {} bytes for a {}-byte request",
        bytes.len(),
        request.total_bytes(),
    );
    let mut acc = kernel.identity();
    let mut cursor = 0usize;
    for e in request.extents() {
        let len = e.len as usize;
        var.dtype()
            .decode_into(&bytes[cursor..cursor + len], values);
        kernel.map(&mut acc, var.elem_of_byte(e.offset), values);
        cursor += len;
    }
    acc
}

/// Folds `kernel` over one task's bytes *as sliced out of a fused
/// buffer*: `fused_bytes` holds the fused request in buffer order, and
/// each task extent is projected to its single covering piece. Produces
/// the identical partial to [`fold_task_bytes`] over a solo read of
/// `task` — the call sequence into the kernel is the same.
///
/// # Panics
/// Panics with the task id if the task is not fully contained in the
/// fused pattern (see [`cc_mpiio::project_extent`]) or if `fused_bytes`
/// does not match the fused request size.
pub fn fold_task_from_fused(
    task_id: u64,
    var: &Variable,
    task: &OffsetList,
    fused: &OffsetList,
    fused_bytes: &[u8],
    kernel: &dyn MapKernel,
    values: &mut Vec<f64>,
) -> Partial {
    assert!(
        fused_bytes.len() as u64 == fused.total_bytes(),
        "task {task_id}: fused buffer holds {} bytes for a {}-byte pattern",
        fused_bytes.len(),
        fused.total_bytes(),
    );
    let mut acc = kernel.identity();
    for &e in task.extents() {
        let p = project_extent(task_id, e, fused);
        let at = p.buf_offset as usize;
        var.dtype()
            .decode_into(&fused_bytes[at..at + e.len as usize], values);
        kernel.map(&mut acc, var.elem_of_byte(e.offset), values);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{MinLocKernel, SumKernel};
    use cc_array::{DType, Shape};
    use cc_mpiio::fuse_extents;

    fn value(i: u64) -> f64 {
        ((i.wrapping_mul(37) ^ (i >> 2)) % 501) as f64 - 250.0
    }

    /// A 64-element f64 variable at base offset 40, with backing bytes.
    fn fixture() -> (Variable, Vec<u8>) {
        let var = Variable::new("v", Shape::new(vec![64]), DType::F64, 40);
        let mut file = vec![0u8; 40 + 64 * 8];
        for i in 0..64u64 {
            file[(40 + i * 8) as usize..(40 + i * 8 + 8) as usize]
                .copy_from_slice(&value(i).to_le_bytes());
        }
        (var, file)
    }

    fn solo_bytes(file: &[u8], req: &OffsetList) -> Vec<u8> {
        let mut out = Vec::new();
        for e in req.extents() {
            out.extend_from_slice(&file[e.offset as usize..e.end() as usize]);
        }
        out
    }

    #[test]
    fn fused_fold_bit_identical_to_solo_fold() {
        let (var, file) = fixture();
        // Three tasks: overlapping, disjoint, and an exact duplicate.
        let tasks = [
            OffsetList::new(vec![
                cc_mpiio::Extent {
                    offset: 40,
                    len: 32,
                },
                cc_mpiio::Extent {
                    offset: 200,
                    len: 48,
                },
            ]),
            OffsetList::new(vec![cc_mpiio::Extent {
                offset: 56,
                len: 64,
            }]),
            OffsetList::new(vec![
                cc_mpiio::Extent {
                    offset: 40,
                    len: 32,
                },
                cc_mpiio::Extent {
                    offset: 200,
                    len: 48,
                },
            ]),
        ];
        let (fused, _) = fuse_extents(tasks.iter());
        let fused_bytes = solo_bytes(&file, &fused);
        let mut scratch = Vec::new();
        for kernel in [&SumKernel as &dyn MapKernel, &MinLocKernel] {
            for (id, task) in tasks.iter().enumerate() {
                let solo = fold_task_bytes(
                    id as u64,
                    &var,
                    task,
                    &solo_bytes(&file, task),
                    kernel,
                    &mut scratch,
                );
                let fused_out = fold_task_from_fused(
                    id as u64,
                    &var,
                    task,
                    &fused,
                    &fused_bytes,
                    kernel,
                    &mut scratch,
                );
                // PartialEq over f64 slots: exact bits, not approximate.
                assert_eq!(solo, fused_out, "task {id} kernel {}", kernel.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "read returned")]
    fn torn_read_panics_with_task_context() {
        let (var, _) = fixture();
        let req = OffsetList::contiguous(40, 16);
        let mut scratch = Vec::new();
        let _ = fold_task_bytes(9, &var, &req, &[0u8; 8], &SumKernel, &mut scratch);
    }
}
