//! The traditional MPI baseline (the paper's Fig. 5).
//!
//! Collective read first, computation strictly after, `MPI_Reduce` last —
//! the blocking workflow every experiment in the paper compares collective
//! computing against. The same [`MapKernel`] runs here over the fully
//! assembled buffer, so result equality between baseline and collective
//! computing is a meaningful end-to-end check.

use cc_array::{get_vara_all, Hyperslab, Variable};
use cc_model::SimTime;
use cc_mpi::Comm;
use cc_mpiio::{Hints, TwoPhaseReport};
use cc_pfs::{FileHandle, Pfs};
use cc_profile::{Activity, Segment};

use crate::kernel::{MapKernel, Partial, PartialReduceOp};

/// Phase breakdown of one baseline run, per rank.
#[derive(Debug, Clone, Default)]
pub struct BaselineReport {
    /// Virtual time entering the operation.
    pub(crate) start: SimTime,
    /// Virtual time after the final reduce.
    pub end: SimTime,
    /// Duration of the collective read (both of its phases).
    pub(crate) io_elapsed: SimTime,
    /// Duration of the local computation.
    pub compute_elapsed: SimTime,
    /// Duration of the `MPI_Reduce`.
    pub reduce_elapsed: SimTime,
    /// The inner two-phase report (aggregator timings, bytes).
    pub two_phase: TwoPhaseReport,
    /// Activity segments for CPU profiling.
    pub(crate) segments: Vec<Segment>,
}

impl BaselineReport {}

/// Runs the traditional workflow: collective read of `slab`, local map over
/// the received values, reduce of partials to `root`. Returns
/// `(global_at_root, my_partial_result, report)`. Must be called by all
/// ranks.
#[allow(clippy::too_many_arguments)]
pub fn traditional_get_vara(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    slab: &Hyperslab,
    hints: &Hints,
    kernel: &dyn MapKernel,
    root: usize,
) -> (Option<Vec<f64>>, Vec<f64>, BaselineReport) {
    let (global, mine, report) =
        traditional_get_vara_partial(comm, pfs, file, var, slab, hints, kernel, root);
    (
        global.map(|p| kernel.finalize(&p)),
        kernel.finalize(&mine),
        report,
    )
}

/// Like [`traditional_get_vara`] but returns the raw [`Partial`]s, which
/// callers that fold across multiple operations (iterative sweeps) need.
#[allow(clippy::too_many_arguments)]
pub fn traditional_get_vara_partial(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    slab: &Hyperslab,
    hints: &Hints,
    kernel: &dyn MapKernel,
    root: usize,
) -> (Option<Partial>, Partial, BaselineReport) {
    let mut report = BaselineReport {
        start: comm.clock(),
        ..BaselineReport::default()
    };

    // Phase A: blocking collective read (lines 1-4 of the paper's Fig. 5).
    let (values, two_phase) = get_vara_all(comm, pfs, file, var, slab, hints);
    let io_end = comm.clock();
    report.io_elapsed = io_end.saturating_since(report.start);
    report
        .segments
        .push(Segment::new(report.start, io_end, Activity::Wait));
    report.two_phase = two_phase;

    // Phase B: local computation (lines 5-7).
    let partial = map_buffer(var, slab, kernel, &values);
    let bytes = values.len() as u64 * var.dtype().size();
    comm.advance(comm.model().cpu.map_time(bytes as usize));
    let compute_end = comm.clock();
    report.compute_elapsed = compute_end.saturating_since(io_end);
    report
        .segments
        .push(Segment::new(io_end, compute_end, Activity::User));

    // Phase C: MPI_Reduce with the kernel as the user op (line 8).
    let reduced = comm.reduce(root, &partial.to_words(), &PartialReduceOp(kernel));
    let reduce_end = comm.clock();
    report.reduce_elapsed = reduce_end.saturating_since(compute_end);
    report
        .segments
        .push(Segment::new(compute_end, reduce_end, Activity::Sys));
    report.end = reduce_end;

    let global = reduced.map(|words| Partial::from_words(&words).0);
    (global, partial, report)
}

/// Maps a fully assembled request buffer, run by run, preserving element
/// positions so positional kernels work.
pub(crate) fn map_buffer(
    var: &Variable,
    slab: &Hyperslab,
    kernel: &dyn MapKernel,
    values: &[f64],
) -> Partial {
    let mut partial = kernel.identity();
    let mut cursor = 0usize;
    for (start_elem, len) in slab.runs(var.shape()) {
        let len = len as usize;
        kernel.map(&mut partial, start_elem, &values[cursor..cursor + len]);
        cursor += len;
    }
    assert_eq!(cursor, values.len(), "buffer does not match selection size");
    partial
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{MinLocKernel, SumKernel};
    use cc_array::{DType, Shape};
    use cc_model::{ClusterModel, Topology};
    use cc_mpi::World;
    use cc_pfs::backend::ElemKind;
    use cc_pfs::{StripeLayout, SyntheticBackend};
    use std::sync::Arc;

    fn setup(elems: u64) -> Arc<Pfs> {
        let fs = Pfs::new(
            4,
            cc_model::DiskModel {
                seek: 1e-3,
                ost_bandwidth: 1e8,
            },
        );
        fs.create(
            "d",
            StripeLayout::round_robin(256, 4, 0, 4),
            Box::new(SyntheticBackend::new(elems, ElemKind::F64, |i: u64| {
                (i % 97) as f64
            })),
        );
        Arc::new(fs)
    }

    #[test]
    fn global_sum_matches_direct_computation() {
        let shape = Shape::new(vec![8, 16]);
        let var = Variable::new("t", shape, DType::F64, 0);
        let fs = setup(128);
        let mut model = ClusterModel::test_tiny(4);
        model.topology = Topology::new(2, 2);
        let world = World::new(4, model);
        let var = &var;
        let fs = &fs;
        let results = world.run(move |comm| {
            let file = fs.open("d").expect("exists");
            // Rank r reads rows 2r..2r+2.
            let slab = Hyperslab::new(vec![2 * comm.rank() as u64, 0], vec![2, 16]);
            traditional_get_vara(
                comm,
                fs,
                &file,
                var,
                &slab,
                &Hints::default(),
                &SumKernel,
                0,
            )
        });
        let expect: f64 = (0..128u64).map(|i| (i % 97) as f64).sum();
        assert_eq!(results[0].0.as_ref().unwrap()[0], expect);
        assert!(results[1].0.is_none());
        // Per-rank partial results sum to the global.
        let partial_sum: f64 = results.iter().map(|r| r.1[0]).sum();
        assert_eq!(partial_sum, expect);
    }

    #[test]
    fn minloc_finds_global_position() {
        let shape = Shape::new(vec![4, 25]);
        let var = Variable::new("t", shape, DType::F64, 0);
        let fs = setup(100);
        let world = World::new(4, ClusterModel::test_tiny(4));
        let var = &var;
        let fs = &fs;
        let results = world.run(move |comm| {
            let file = fs.open("d").expect("exists");
            let slab = Hyperslab::new(vec![comm.rank() as u64, 0], vec![1, 25]);
            traditional_get_vara(
                comm,
                fs,
                &file,
                var,
                &slab,
                &Hints::default(),
                &MinLocKernel,
                0,
            )
        });
        // Minimum of i % 97 over 0..100 is 0, first at element 0.
        let global = results[0].0.as_ref().unwrap();
        assert_eq!(global[0], 0.0);
        assert_eq!(global[1], 0.0);
    }

    #[test]
    fn phases_are_ordered_and_accounted() {
        let shape = Shape::new(vec![2, 50]);
        let var = Variable::new("t", shape, DType::F64, 0);
        let fs = setup(100);
        let world = World::new(2, ClusterModel::test_tiny(2));
        let var = &var;
        let fs = &fs;
        let results = world.run(move |comm| {
            let file = fs.open("d").expect("exists");
            let slab = Hyperslab::new(vec![comm.rank() as u64, 0], vec![1, 50]);
            let (_, _, rep) = traditional_get_vara(
                comm,
                fs,
                &file,
                var,
                &slab,
                &Hints::default(),
                &SumKernel,
                0,
            );
            rep
        });
        for rep in &results {
            assert!(rep.io_elapsed > SimTime::ZERO);
            assert!(rep.compute_elapsed > SimTime::ZERO);
            assert!(rep.end >= rep.start);
            // Segments tile [start, end).
            assert_eq!(rep.segments.len(), 3);
            assert_eq!(rep.segments[0].start, rep.start);
            assert_eq!(rep.segments[2].end, rep.end);
            for w in rep.segments.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    #[should_panic]
    fn map_buffer_rejects_wrong_length() {
        let var = Variable::new("t", Shape::new(vec![4]), DType::F64, 0);
        let slab = Hyperslab::new(vec![0], vec![4]);
        let _ = map_buffer(&var, &slab, &SumKernel, &[1.0, 2.0]);
    }
}
