//! Shared experiment machinery: CC-vs-traditional comparison runs, the
//! computation:I/O ratio calibration, and virtual-scale models.

use cc_core::{object_get_vara, MapKernel, ObjectIo, ReduceMode};
use cc_model::{ClusterModel, SimTime};
use cc_mpi::World;
use cc_workloads::ClimateWorkload;

/// One CC-vs-traditional measurement.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Completion time (max over ranks) of collective computing.
    pub(crate) t_cc: SimTime,
    /// Completion time (max over ranks) of the traditional baseline.
    pub(crate) t_mpi: SimTime,
    /// CC "local reduction" overhead (max over ranks) — Fig. 11's metric.
    pub(crate) cc_local_reduction: SimTime,
    /// Traditional reduction overhead (max over ranks).
    pub(crate) mpi_local_reduction: SimTime,
    /// Total metadata entries CC created.
    pub metadata_entries: u64,
    /// Total metadata bytes CC created.
    pub(crate) metadata_bytes: u64,
}

impl Comparison {
    /// `t_mpi / t_cc`.
    pub fn speedup(&self) -> f64 {
        self.t_mpi.secs() / self.t_cc.secs().max(f64::MIN_POSITIVE)
    }
}

/// Runs the workload once under collective computing and once under the
/// traditional baseline (fresh file system each, identical model), with
/// the given kernel; checks that the two global results agree.
pub fn run_comparison(
    workload: &ClimateWorkload,
    model: &ClusterModel,
    total_osts: usize,
    kernel: &dyn MapKernel,
    hints: &cc_mpiio::Hints,
) -> Comparison {
    run_comparison_trials(workload, model, total_osts, kernel, hints, 1)
}

/// Like [`run_comparison`] but averages completion times over `trials`
/// repetitions (the paper averages three runs per configuration — OST
/// queueing makes single runs jittery, exactly like a real file system).
pub(crate) fn run_comparison_trials(
    workload: &ClimateWorkload,
    model: &ClusterModel,
    total_osts: usize,
    kernel: &dyn MapKernel,
    hints: &cc_mpiio::Hints,
    trials: usize,
) -> Comparison {
    assert!(trials >= 1, "need at least one trial");
    let run = |blocking: bool| -> (SimTime, SimTime, u64, u64, Option<Vec<f64>>) {
        let fs = workload.build_fs(total_osts, model.disk.clone());
        let world = World::new(workload.nprocs(), model.clone());
        let fs = &fs;
        let results = world.run(move |comm| {
            let file = fs.open(ClimateWorkload::FILE).expect("created");
            let slab = workload.slab(comm.rank());
            let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
                .blocking(blocking)
                .hints(hints.clone())
                .reduce(ReduceMode::AllToOne { root: 0 });
            let out = object_get_vara(comm, fs, &file, workload.var(), &io, kernel);
            (
                out.report.end,
                out.report.local_reduction,
                out.report.metadata_entries,
                out.report.metadata_bytes,
                out.global,
            )
        });
        let end = results.iter().map(|r| r.0).max().expect("nonempty");
        // CC accumulates pure op cost per rank (max = busiest rank). For
        // the baseline we report the roots observed MPI_Reduce duration
        // (rank 0), the way the paper would have timed it; early ranks
        // wait for stragglers and would report skew, not cost.
        let local = if blocking {
            results[0].1
        } else {
            results.iter().map(|r| r.1).max().expect("nonempty")
        };
        let entries: u64 = results.iter().map(|r| r.2).sum();
        let bytes: u64 = results.iter().map(|r| r.3).sum();
        let global = results.into_iter().find_map(|r| r.4);
        (end, local, entries, bytes, global)
    };
    let mut acc: Option<Comparison> = None;
    for _ in 0..trials {
        let (t_cc, cc_local, entries, meta_bytes, g_cc) = run(false);
        let (t_mpi, mpi_local, _, _, g_mpi) = run(true);
        // The whole point of the reproduction: same answer, different time.
        let (g_cc, g_mpi) = (g_cc.expect("root result"), g_mpi.expect("root result"));
        for (a, b) in g_cc.iter().zip(&g_mpi) {
            assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                "CC result {a} diverged from baseline {b}"
            );
        }
        let c = Comparison {
            t_cc,
            t_mpi,
            cc_local_reduction: cc_local,
            mpi_local_reduction: mpi_local,
            metadata_entries: entries,
            metadata_bytes: meta_bytes,
        };
        acc = Some(match acc {
            None => c,
            Some(p) => Comparison {
                t_cc: p.t_cc + c.t_cc,
                t_mpi: p.t_mpi + c.t_mpi,
                cc_local_reduction: p.cc_local_reduction + c.cc_local_reduction,
                mpi_local_reduction: p.mpi_local_reduction + c.mpi_local_reduction,
                metadata_entries: c.metadata_entries,
                metadata_bytes: c.metadata_bytes,
            },
        });
    }
    let total = acc.expect("at least one trial");
    let inv = 1.0 / trials as f64;
    Comparison {
        t_cc: total.t_cc.scale(inv),
        t_mpi: total.t_mpi.scale(inv),
        cc_local_reduction: total.cc_local_reduction.scale(inv),
        mpi_local_reduction: total.mpi_local_reduction.scale(inv),
        ..total
    }
}

/// Calibrates `map_cost_per_byte` so that the traditional baseline's
/// compute phase costs `ratio` times its I/O phase — the paper's
/// "computation vs I/O" knob of Fig. 9. Returns the calibrated model.
pub fn calibrate_ratio(
    workload: &ClimateWorkload,
    base: &ClusterModel,
    total_osts: usize,
    hints: &cc_mpiio::Hints,
    ratio: f64,
) -> ClusterModel {
    // Measure the pure I/O time with zero-cost compute.
    let mut probe = base.clone();
    probe.cpu.map_cost_per_byte = 0.0;
    let fs = workload.build_fs(total_osts, probe.disk.clone());
    let world = World::new(workload.nprocs(), probe.clone());
    let fs = &fs;
    let hints_ref = hints;
    let io_times = world.run(move |comm| {
        let file = fs.open(ClimateWorkload::FILE).expect("created");
        let slab = workload.slab(comm.rank());
        let request = workload.var().byte_extents(slab);
        let (_, rep) = cc_mpiio::collective_read(comm, fs, &file, &request, hints_ref);
        rep.end
    });
    let t_io = io_times.into_iter().max().expect("nonempty");
    let per_rank_bytes = workload.requested_bytes() as f64 / workload.nprocs() as f64;
    let mut model = base.clone();
    model.cpu.map_cost_per_byte = ratio * t_io.secs() / per_rank_bytes;
    model
}

/// Scales a model for a virtually larger workload: running `1/scale` of
/// the paper's bytes against bandwidths divided by `scale` yields the
/// paper's time magnitudes while moving only a manageable amount of real
/// data. Latency-like costs (seeks, per-message latency) are left alone —
/// they are per-operation, and operation counts shrink with the data.
pub fn scaled_model(base: &ClusterModel, scale: f64) -> ClusterModel {
    assert!(scale >= 1.0, "scale must be >= 1");
    let mut m = base.clone();
    m.disk.ost_bandwidth /= scale;
    m.net.bw_intra /= scale;
    m.net.bw_inter /= scale;
    // Piece and message counts shrink with the data, so the per-piece
    // scatter cost and per-message posting costs grow to keep the
    // shuffle:read ratio at paper scale.
    m.net.scatter_overhead *= scale;
    m.net.msg_overhead_intra *= scale;
    m.net.msg_overhead_inter *= scale;
    m.cpu.map_cost_per_byte *= scale;
    m.cpu.memcpy_cost_per_byte *= scale;
    // Entry/element counts shrink with the data, so per-entry costs grow
    // to keep overhead magnitudes at paper scale.
    m.cpu.metadata_cost_per_entry *= scale;
    m.cpu.reduce_cost_per_element *= scale;
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::SumKernel;
    use cc_mpiio::Hints;

    fn tiny_workload() -> ClimateWorkload {
        ClimateWorkload::synthetic_3d(4, 1, 16, 64, 8, 64, 4096, 4)
    }

    #[test]
    fn comparison_checks_result_equality_and_reports_times() {
        let w = tiny_workload();
        let model = ClusterModel::hopper_like(2, 2);
        let c = run_comparison(&w, &model, 8, &SumKernel, &Hints::default());
        assert!(c.t_cc > SimTime::ZERO);
        assert!(c.t_mpi > SimTime::ZERO);
        assert!(c.speedup() > 0.0);
        assert!(c.metadata_entries > 0);
    }

    #[test]
    fn calibration_hits_requested_ratio() {
        let w = tiny_workload();
        let base = ClusterModel::hopper_like(2, 2);
        let hints = Hints::default();
        let model = calibrate_ratio(&w, &base, 8, &hints, 2.0);
        // Compute time per rank should now be ~2x the measured io time;
        // verify indirectly: doubling the ratio doubles the map cost.
        let model4 = calibrate_ratio(&w, &base, 8, &hints, 4.0);
        let r = model4.cpu.map_cost_per_byte / model.cpu.map_cost_per_byte;
        assert!((r - 2.0).abs() < 0.2, "ratio scaling off: {r}");
    }

    #[test]
    fn scaled_model_divides_bandwidths() {
        let base = ClusterModel::hopper_like(1, 2);
        let m = scaled_model(&base, 100.0);
        assert!((base.disk.ost_bandwidth / m.disk.ost_bandwidth - 100.0).abs() < 1e-9);
        assert_eq!(m.net.latency_inter, base.net.latency_inter);
    }
}
