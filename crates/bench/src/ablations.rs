//! Ablation studies for the design choices DESIGN.md §4 calls out.

use cc_core::{
    object_get_vara, FusedKernel, MapKernel, MaxKernel, MeanKernel, ObjectIo, ReduceMode,
    SumKernel, SumSqKernel,
};
use cc_model::{ClusterModel, SimTime};
use cc_mpi::World;
use cc_mpiio::{
    collective_read, collective_write, independent_read, independent_write, sieving_read,
    sieving_write, Hints,
};
use cc_profile::Table;
use cc_workloads::ClimateWorkload;

use crate::Scale;

fn fmt_t(t: SimTime) -> String {
    format!("{:.4}", t.secs())
}

fn bench_workload(scale: Scale) -> (ClimateWorkload, ClusterModel) {
    let nprocs = match scale {
        Scale::Quick => 8,
        Scale::Full => 48,
    };
    let cores = match scale {
        Scale::Quick => 4,
        Scale::Full => 12,
    };
    // Interleaved, non-contiguous, several chunks per aggregator.
    let workload = ClimateWorkload::interleaved_3d(nprocs, 64, 2, 256, 256 << 10, 40);
    let model = ClusterModel::hopper_like(nprocs.div_ceil(cores), cores);
    (workload, model)
}

/// Hints sized so every aggregator pipeline has many iterations.
fn bench_hints() -> Hints {
    Hints {
        cb_buffer_size: 256 << 10,
        ..Hints::default()
    }
}

/// Runs the CC engine once and returns `(t_end_max, words_shuffled_total)`.
fn run_cc_once(
    workload: &ClimateWorkload,
    model: &ClusterModel,
    hints: &Hints,
    reduce: ReduceMode,
) -> (SimTime, u64) {
    let fs = workload.build_fs(156, model.disk.clone());
    let world = World::new(workload.nprocs(), model.clone());
    let fs = &fs;
    let results = world.run(move |comm| {
        let file = fs.open(ClimateWorkload::FILE).expect("created");
        let slab = workload.slab(comm.rank());
        let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
            .hints(hints.clone())
            .reduce(reduce);
        let out = object_get_vara(comm, fs, &file, workload.var(), &io, &SumKernel);
        (out.report.end, out.report.result_words_shuffled)
    });
    (
        results.iter().map(|r| r.0).max().expect("nonempty"),
        results.iter().map(|r| r.1).sum(),
    )
}

/// All-to-one vs all-to-all reduce: completion time and result traffic.
pub fn ablation_reduce_mode(scale: Scale) -> Table {
    let (workload, mut model) = bench_workload(scale);
    // Give the map a visible cost so the reduce phase matters.
    model.cpu.map_cost_per_byte = 0.5 / model.disk.ost_bandwidth;
    let hints = bench_hints();
    let mut t = Table::new(
        "Ablation: reduce topology (paper SIII-C)",
        &["mode", "t_cc_s", "result_words"],
    );
    let (t1, w1) = run_cc_once(&workload, &model, &hints, ReduceMode::AllToOne { root: 0 });
    let (t2, w2) = run_cc_once(&workload, &model, &hints, ReduceMode::AllToAll { root: 0 });
    t.row(&["all-to-one".into(), fmt_t(t1), w1.to_string()]);
    t.row(&["all-to-all".into(), fmt_t(t2), w2.to_string()]);
    t
}

/// Non-blocking (pipelined) vs blocking CC vs the traditional baseline.
pub fn ablation_blocking(scale: Scale) -> Table {
    let (workload, mut model) = bench_workload(scale);
    model.cpu.map_cost_per_byte = 1.0 / model.disk.ost_bandwidth;
    let mut t = Table::new(
        "Ablation: pipeline overlap (non-blocking vs blocking CC vs traditional)",
        &["variant", "t_s"],
    );
    for (label, nonblocking) in [("cc-nonblocking", true), ("cc-blocking", false)] {
        let hints = Hints {
            nonblocking,
            ..bench_hints()
        };
        let (end, _) = run_cc_once(&workload, &model, &hints, ReduceMode::AllToOne { root: 0 });
        t.row(&[label.into(), fmt_t(end)]);
    }
    let c = crate::run_comparison(&workload, &model, 156, &SumKernel, &bench_hints());
    t.row(&["traditional-mpi".into(), fmt_t(c.t_mpi)]);
    t
}

/// Aggregators-per-node sweep.
pub fn ablation_aggregators(scale: Scale) -> Table {
    let (workload, model) = bench_workload(scale);
    let cores = model.topology.cores_per_node;
    let mut t = Table::new(
        "Ablation: aggregators per node",
        &["aggs_per_node", "t_cc_s"],
    );
    let mut per_node = 1;
    while per_node <= cores {
        let hints = Hints {
            aggregators_per_node: per_node,
            ..bench_hints()
        };
        let (end, _) = run_cc_once(&workload, &model, &hints, ReduceMode::AllToOne { root: 0 });
        t.row(&[per_node.to_string(), fmt_t(end)]);
        per_node *= 2;
    }
    t
}

/// Independent vs data-sieving vs collective reads of the same requests.
pub fn ablation_sieving(scale: Scale) -> Table {
    let (workload, model) = bench_workload(scale);
    let mut t = Table::new(
        "Ablation: read strategy (independent vs sieving vs two-phase collective)",
        &["strategy", "t_s", "fs_requests"],
    );
    for strategy in ["independent", "sieving", "collective"] {
        let fs = workload.build_fs(156, model.disk.clone());
        let world = World::new(workload.nprocs(), model.clone());
        let fs = &fs;
        let workload_ref = &workload;
        let results = world.run(move |comm| {
            let file = fs.open(ClimateWorkload::FILE).expect("created");
            let request = workload_ref
                .var()
                .byte_extents(workload_ref.slab(comm.rank()));
            match strategy {
                "independent" => independent_read(comm, fs, &file, &request).1.end,
                "sieving" => sieving_read(comm, fs, &file, &request, 4 << 20).1.end,
                _ => {
                    collective_read(comm, fs, &file, &request, &bench_hints())
                        .1
                        .end
                }
            }
        });
        let end = results.into_iter().max().expect("nonempty");
        t.row(&[strategy.into(), fmt_t(end), fs.stats().reads.to_string()]);
    }
    t
}

/// Kernel fusion: four statistics in one collective pass vs four passes.
pub fn ablation_fused(scale: Scale) -> Table {
    let (workload, mut model) = bench_workload(scale);
    model.cpu.map_cost_per_byte = 0.5 / model.disk.ost_bandwidth;
    let hints = bench_hints();
    let run = |kernels: &[&dyn MapKernel]| -> SimTime {
        let fs = workload.build_fs(156, model.disk.clone());
        let world = World::new(workload.nprocs(), model.clone());
        let fs = &fs;
        let workload_ref = &workload;
        let hints_ref = &hints;
        let ends = world.run(move |comm| {
            let file = fs.open(ClimateWorkload::FILE).expect("created");
            let slab = workload_ref.slab(comm.rank());
            let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
                .hints(hints_ref.clone());
            let mut end = cc_model::SimTime::ZERO;
            if kernels.len() == 1 {
                end = object_get_vara(comm, fs, &file, workload_ref.var(), &io, kernels[0])
                    .report
                    .end;
            } else {
                for k in kernels {
                    end = object_get_vara(comm, fs, &file, workload_ref.var(), &io, *k)
                        .report
                        .end;
                }
            }
            end
        });
        ends.into_iter().max().expect("nonempty")
    };
    let mut t = Table::new(
        "Ablation: kernel fusion (sum+max+mean+moments in one pass vs four)",
        &["variant", "t_s"],
    );
    let fused = FusedKernel::new(vec![&SumKernel, &MaxKernel, &MeanKernel, &SumSqKernel]);
    t.row(&["fused-one-pass".into(), fmt_t(run(&[&fused]))]);
    t.row(&[
        "four-passes".into(),
        fmt_t(run(&[&SumKernel, &MaxKernel, &MeanKernel, &SumSqKernel])),
    ]);
    t
}

/// Write strategy: independent vs sieving (read-modify-write) vs two-phase
/// collective writes of the same interleaved requests.
pub fn ablation_write(scale: Scale) -> Table {
    let (workload, model) = bench_workload(scale);
    let mut t = Table::new(
        "Ablation: write strategy (independent vs sieving RMW vs two-phase collective)",
        &["strategy", "t_s", "fs_requests"],
    );
    for strategy in ["independent", "sieving", "collective"] {
        // Writable overlay over the synthetic climate file.
        let fs = cc_pfs::Pfs::new(156, model.disk.clone());
        let base = cc_pfs::SyntheticBackend::new(
            workload.var().shape().num_elements(),
            cc_pfs::backend::ElemKind::F64,
            cc_pfs::backend::default_climate_value,
        );
        fs.create(
            ClimateWorkload::FILE,
            cc_pfs::StripeLayout::round_robin(workload.stripe_size, workload.stripe_count, 0, 156),
            Box::new(cc_pfs::OverlayBackend::new(base)),
        );
        let fs = std::sync::Arc::new(fs);
        let world = World::new(workload.nprocs(), model.clone());
        let fs_ref = &fs;
        let workload_ref = &workload;
        let results = world.run(move |comm| {
            let file = fs_ref.open(ClimateWorkload::FILE).expect("created");
            let request = workload_ref
                .var()
                .byte_extents(workload_ref.slab(comm.rank()));
            let data = vec![7u8; request.total_bytes() as usize];
            match strategy {
                "independent" => independent_write(comm, fs_ref, &file, &request, &data).end,
                "sieving" => sieving_write(comm, fs_ref, &file, &request, &data, 4 << 20).end,
                _ => collective_write(comm, fs_ref, &file, &request, &data, &bench_hints()).end,
            }
        });
        let end = results.into_iter().max().expect("nonempty");
        let stats = fs.stats();
        t.row(&[
            strategy.into(),
            fmt_t(end),
            (stats.reads + stats.writes).to_string(),
        ]);
    }
    t
}

/// Stripe-size sweep for the collective read.
pub fn ablation_striping(scale: Scale) -> Table {
    let nprocs: usize = match scale {
        Scale::Quick => 8,
        Scale::Full => 48,
    };
    let model = ClusterModel::hopper_like(nprocs.div_ceil(12).max(1), 12);
    let mut t = Table::new(
        "Ablation: stripe size vs collective read time",
        &["stripe_kb", "t_s"],
    );
    for stripe_kb in [64u64, 256, 1024, 4096] {
        let workload = ClimateWorkload::interleaved_3d(nprocs, 64, 2, 256, stripe_kb << 10, 40);
        let fs = workload.build_fs(156, model.disk.clone());
        let world = World::new(nprocs, model.clone());
        let fs = &fs;
        let workload_ref = &workload;
        let results = world.run(move |comm| {
            let file = fs.open(ClimateWorkload::FILE).expect("created");
            let request = workload_ref
                .var()
                .byte_extents(workload_ref.slab(comm.rank()));
            collective_read(comm, fs, &file, &request, &bench_hints())
                .1
                .end
        });
        t.row(&[
            stripe_kb.to_string(),
            fmt_t(results.into_iter().max().expect("nonempty")),
        ]);
    }
    t
}
