//! Iterative collective computing — the paper's named future work.
//!
//! Many analyses sweep a sequence of selections (time steps of a
//! simulation, variables of a dataset) and fold the per-step results into
//! one running answer. [`iterative_get_vara`] runs one object I/O per
//! step and combines the global partials with the kernel itself, so the
//! whole sweep behaves like a single reduction; per-step results are also
//! returned for trend analyses (e.g. storm intensity over time).

use cc_array::Variable;
use cc_mpi::{Comm, CommStats};
use cc_pfs::{FileHandle, Pfs};

use crate::engine::{object_get_vara, CcOutcome};
use crate::kernel::{MapKernel, Partial};
use crate::object::ObjectIo;

/// The result of an iterative sweep.
#[derive(Debug, Clone)]
pub struct IterativeOutcome {
    /// The fold of all steps' global results — present at the reduce root.
    pub global: Option<Vec<f64>>,
    /// Each step's own global result, in step order — present at the root.
    pub per_step: Option<Vec<Vec<f64>>>,
    /// Every step's full outcome (reports etc.), in step order.
    pub steps: Vec<CcOutcome>,
    /// This rank's communication counters over the sweep alone (a delta
    /// against the communicator's state at entry). The per-lane
    /// `logical_*` vs `bytes_*` gap is exactly the compression saving:
    /// with `Hints::compression` off they are equal; with a codec on, the
    /// inter-node lane's wire bytes fall below its logical bytes.
    pub comm: CommStats,
}

/// Runs `kernel` over a sequence of `(variable, selection)` steps and
/// folds the per-step partials into one running global. Must be called by
/// all ranks with identical step sequences; each rank supplies its own
/// selections inside the [`ObjectIo`]s. A step reuses an earlier step's
/// compiled schedule only in a world with a
/// [`PlanScope`](cc_mpiio::PlanScope) attached, which also counts the
/// sweep's lookups.
pub fn iterative_get_vara(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    steps: &[(&Variable, ObjectIo)],
    kernel: &dyn MapKernel,
) -> IterativeOutcome {
    assert!(!steps.is_empty(), "iterative sweep needs at least one step");
    let comm_since = comm.stats();
    let mut outcomes = Vec::with_capacity(steps.len());
    let mut folded: Option<Partial> = None;
    let mut per_step: Vec<Vec<f64>> = Vec::new();
    let mut at_root = false;
    for (step_idx, (var, io)) in steps.iter().enumerate() {
        let out = object_get_vara(comm, pfs, file, var, io, kernel);
        if let Some(p) = &out.global_partial {
            at_root = true;
            let Some(global) = out.global.clone() else {
                // A malformed engine outcome would otherwise strand the
                // sweep's peers mid-collective; panic with enough context
                // for the supervisor's abort report to place the failure.
                panic!(
                    "rank {}: sweep step {step_idx}/{} produced a global \
                     partial without its finalized global",
                    comm.rank(),
                    steps.len(),
                );
            };
            per_step.push(global);
            // Fold the raw partials, which is exact for every kernel
            // (finalized outputs of kernels like `mean` cannot be folded).
            match &mut folded {
                Some(acc) => kernel.combine(acc, p),
                acc => *acc = Some(p.clone()),
            }
        }
        outcomes.push(out);
    }
    IterativeOutcome {
        global: at_root.then(|| {
            let Some(acc) = folded.as_ref() else {
                panic!(
                    "rank {}: sweep marked at-root after {} steps but folded \
                     no partial",
                    comm.rank(),
                    steps.len(),
                );
            };
            kernel.finalize(acc)
        }),
        per_step: at_root.then_some(per_step),
        steps: outcomes,
        comm: comm.stats().delta(&comm_since),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{MinLocKernel, SumKernel};
    use crate::object::ReduceMode;
    use cc_array::{DType, Shape};
    use cc_model::{ClusterModel, DiskModel, Topology};
    use cc_mpi::World;
    use cc_pfs::backend::{ElemKind, SyntheticBackend};
    use cc_pfs::{Pfs, StripeLayout};
    use std::sync::Arc;

    fn value(i: u64) -> f64 {
        ((i * 13 + 5) % 211) as f64 - 100.0
    }

    fn setup(elems: u64) -> (Arc<Pfs>, Variable) {
        let fs = Pfs::new(4, DiskModel::lustre_like());
        let var = Variable::new("v", Shape::new(vec![8, elems / 8]), DType::F64, 0);
        fs.create(
            "d",
            StripeLayout::round_robin(512, 4, 0, 4),
            Box::new(SyntheticBackend::new(elems, ElemKind::F64, value)),
        );
        (Arc::new(fs), var)
    }

    #[test]
    fn sweep_of_sums_equals_total_sum() {
        // 4 steps each covering 2 rows: the folded global must equal the
        // sum over the whole variable.
        let (fs, var) = setup(256);
        let mut model = ClusterModel::test_tiny(2);
        model.topology = Topology::new(1, 2);
        let world = World::new(2, model);
        let fs = &fs;
        let var = &var;
        let results = world.run(move |comm| {
            let file = fs.open("d").expect("exists");
            let steps: Vec<(&Variable, ObjectIo)> = (0..4u64)
                .map(|step| {
                    // Within each step, rank r reads one of the two rows.
                    let io = ObjectIo::new(vec![step * 2 + comm.rank() as u64, 0], vec![1, 32]);
                    (var, io)
                })
                .collect();
            iterative_get_vara(comm, fs, &file, &steps, &SumKernel)
        });
        let expect: f64 = (0..256).map(value).sum();
        let got = results[0].global.as_ref().expect("root folded");
        assert!((got[0] - expect).abs() < 1e-9 * expect.abs().max(1.0));
        // Per-step results partition the total.
        let steps = results[0].per_step.as_ref().expect("per-step at root");
        assert_eq!(steps.len(), 4);
        let step_total: f64 = steps.iter().map(|s| s[0]).sum();
        assert!((step_total - expect).abs() < 1e-9 * expect.abs().max(1.0));
        // And this rank's comm counters for the sweep alone. Compression
        // is off here, so every lane's logical bytes equal its wire bytes.
        let comm = &results[0].comm;
        assert!(comm.msgs_sent > 0, "sweep moved no messages");
        assert_eq!(comm.logical_intra, comm.bytes_intra);
        assert_eq!(comm.logical_inter, comm.bytes_inter);
        assert_eq!(comm.logical_self, comm.bytes_self);
    }

    #[test]
    fn sweep_minloc_tracks_global_minimum() {
        let (fs, var) = setup(256);
        let world = World::new(2, ClusterModel::test_tiny(2));
        let fs = &fs;
        let var = &var;
        let results = world.run(move |comm| {
            let file = fs.open("d").expect("exists");
            let steps: Vec<(&Variable, ObjectIo)> = (0..4u64)
                .map(|step| {
                    let io = ObjectIo::new(vec![step * 2 + comm.rank() as u64, 0], vec![1, 32])
                        .reduce(ReduceMode::AllToOne { root: 0 });
                    (var, io)
                })
                .collect();
            iterative_get_vara(comm, fs, &file, &steps, &MinLocKernel)
        });
        let (mut ev, mut ei) = (f64::INFINITY, 0u64);
        for i in 0..256 {
            if value(i) < ev {
                ev = value(i);
                ei = i;
            }
        }
        let got = results[0].global.as_ref().expect("root folded");
        assert_eq!(got[0], ev);
        assert_eq!(got[1], ei as f64);
    }

    #[test]
    fn virtual_time_advances_across_steps() {
        let (fs, var) = setup(128);
        let world = World::new(2, ClusterModel::test_tiny(2));
        let fs = &fs;
        let var = &var;
        let results = world.run(move |comm| {
            let file = fs.open("d").expect("exists");
            let steps: Vec<(&Variable, ObjectIo)> = (0..3u64)
                .map(|s| {
                    (
                        var,
                        ObjectIo::new(vec![s * 2 + comm.rank() as u64, 0], vec![1, 16]),
                    )
                })
                .collect();
            iterative_get_vara(comm, fs, &file, &steps, &SumKernel)
        });
        for out in &results {
            for w in out.steps.windows(2) {
                assert!(w[1].report.start >= w[0].report.end);
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_sweep_panics() {
        let (fs, _var) = setup(64);
        let world = World::new(1, ClusterModel::test_tiny(1));
        let fs = &fs;
        world.run(move |comm| {
            let file = fs.open("d").expect("exists");
            let _ = iterative_get_vara(comm, fs, &file, &[], &SumKernel);
        });
    }
}
