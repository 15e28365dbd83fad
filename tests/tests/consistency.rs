//! Cross-path consistency: collective computing, the traditional baseline,
//! and independent mode must compute identical results over identical
//! selections, and their timing relationships must respect the paper's
//! claims.

use cc_array::Shape;
use cc_core::{object_get_vara, IoMode, ObjectIo, ReduceMode, SumKernel, SumSqKernel};
use cc_integration::{assert_close, build_var_fs, test_model, test_value};
use cc_model::SimTime;
use cc_mpi::World;
use cc_mpiio::Hints;
use cc_workloads::ClimateWorkload;

/// Runs one configuration through all three execution paths and returns
/// `(cc, baseline, independent)` global results plus the CC/baseline max
/// completion times.
fn tri_run(shape: &Shape, nprocs: usize, cb: u64) -> ([Vec<f64>; 3], SimTime, SimTime) {
    let rows = shape.dims()[0];
    let per = rows / nprocs as u64;
    let mut outs: Vec<Vec<f64>> = Vec::new();
    let mut t_cc = SimTime::ZERO;
    let mut t_mpi = SimTime::ZERO;
    for (mode, blocking) in [
        (IoMode::Collective, false),
        (IoMode::Collective, true),
        (IoMode::Independent, false),
    ] {
        let (fs, var) = build_var_fs(shape, 2048, 4, 8);
        let world = World::new(nprocs, test_model(2, nprocs / 2));
        let fs = &fs;
        let var = &var;
        let results = world.run(move |comm| {
            let file = fs.open("t.nc").expect("exists");
            let mut start = vec![0; shape.rank()];
            let mut count = shape.dims().to_vec();
            start[0] = comm.rank() as u64 * per;
            count[0] = per;
            let io = ObjectIo::new(start, count)
                .mode(mode)
                .blocking(blocking)
                .hints(Hints {
                    cb_buffer_size: cb,
                    ..Hints::default()
                })
                .reduce(ReduceMode::AllToOne { root: 0 });
            object_get_vara(comm, fs, &file, var, &io, &SumSqKernel)
        });
        let end = results.iter().map(|o| o.report.end).max().expect("nonempty");
        if blocking {
            t_mpi = end;
        } else if mode == IoMode::Collective {
            t_cc = end;
        }
        outs.push(results.into_iter().find_map(|o| o.global).expect("root"));
    }
    (
        [outs[0].clone(), outs[1].clone(), outs[2].clone()],
        t_cc,
        t_mpi,
    )
}

#[test]
fn all_three_paths_agree() {
    for (shape, nprocs, cb) in [
        (Shape::new(vec![8, 64]), 4, 256u64),
        (Shape::new(vec![6, 5, 16]), 6, 1024),
        (Shape::new(vec![8, 128]), 8, 64),
    ] {
        let ([cc, mpi, ind], _, _) = tri_run(&shape, nprocs, cb);
        for k in 0..cc.len() {
            assert_close(cc[k], mpi[k], "cc vs baseline");
            assert_close(cc[k], ind[k], "cc vs independent");
        }
    }
}

#[test]
fn cc_no_slower_than_baseline_with_real_compute() {
    // With any nontrivial compute cost, pipelined CC must not lose to the
    // strictly-sequential baseline. One node means one aggregator, so OST
    // bookings are made in program order and this is a stable property,
    // not a statistical one: two aggregators racing for the same OSTs lost
    // it to OS lock order in a few runs of a hundred.
    let shape = Shape::new(vec![8, 512]);
    let nprocs = 4;
    let (fs, var) = build_var_fs(&shape, 2048, 4, 8);
    let mut model = test_model(1, 4);
    model.cpu.map_cost_per_byte = 1.0 / model.disk.ost_bandwidth;
    let run = |blocking: bool, fs: &std::sync::Arc<cc_pfs::Pfs>| {
        let world = World::new(nprocs, model.clone());
        let var = &var;
        let fs2 = fs;
        let ends = world.run(move |comm| {
            let file = fs2.open("t.nc").expect("exists");
            let io = ObjectIo::new(vec![2 * comm.rank() as u64, 0], vec![2, 512])
                .blocking(blocking)
                .hints(Hints {
                    cb_buffer_size: 1024,
                    ..Hints::default()
                });
            object_get_vara(comm, fs2, &file, var, &io, &SumKernel)
                .report
                .end
        });
        ends.into_iter().max().expect("nonempty")
    };
    let t_cc = run(false, &fs);
    let (fs2, _) = build_var_fs(&shape, 2048, 4, 8);
    let t_mpi = run(true, &fs2);
    assert!(
        t_cc <= t_mpi,
        "CC {t_cc} should not exceed baseline {t_mpi}"
    );
}

#[test]
fn metadata_shrinks_then_flattens_with_buffer_size() {
    // Fig. 12's invariant as a test: metadata entries are non-increasing
    // in the collective buffer size.
    let workload = ClimateWorkload::interleaved_3d(4, 8, 4, 64, 4096, 4);
    let mut prev = u64::MAX;
    for cb in [256u64, 1024, 4096, 1 << 20] {
        let fs = workload.build_fs(8, cc_model::DiskModel::lustre_like());
        let world = World::new(4, test_model(1, 4));
        let fs = &fs;
        let workload = &workload;
        let entries: u64 = world
            .run(move |comm| {
                let file = fs.open(ClimateWorkload::FILE).expect("created");
                let slab = workload.slab(comm.rank());
                let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec()).hints(
                    Hints {
                        cb_buffer_size: cb,
                        ..Hints::default()
                    },
                );
                object_get_vara(comm, fs, &file, workload.var(), &io, &SumKernel)
                    .report
                    .metadata_entries
            })
            .iter()
            .sum();
        assert!(
            entries <= prev,
            "entries must not grow with buffer size: {entries} > {prev} at cb={cb}"
        );
        prev = entries;
    }
}

#[test]
fn climate_workload_through_cc_matches_its_oracle() {
    let workload = ClimateWorkload::interleaved_3d(4, 6, 2, 32, 1024, 4);
    let fs = workload.build_fs(8, cc_model::DiskModel::lustre_like());
    let world = World::new(4, test_model(2, 2));
    let fs = &fs;
    let workload_ref = &workload;
    let results = world.run(move |comm| {
        let file = fs.open(ClimateWorkload::FILE).expect("created");
        let slab = workload_ref.slab(comm.rank());
        let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
            .reduce(ReduceMode::AllToAll { root: 0 });
        object_get_vara(comm, fs, &file, workload_ref.var(), &io, &SumKernel)
    });
    for (r, o) in results.iter().enumerate() {
        assert_close(
            o.my_result.as_ref().expect("own result")[0],
            workload.oracle_sum(r),
            &format!("rank {r} partial"),
        );
    }
}

#[test]
fn independent_mode_ignores_collective_noise() {
    // Independent mode with a single rank equals a serial computation.
    let shape = Shape::new(vec![2, 64]);
    let (fs, var) = build_var_fs(&shape, 512, 2, 4);
    let world = World::new(1, test_model(1, 1));
    let fs = &fs;
    let var = &var;
    let results = world.run(move |comm| {
        let io = ObjectIo::new(vec![0, 0], vec![2, 64]).mode(IoMode::Independent);
        let file = fs.open("t.nc").expect("exists");
        object_get_vara(comm, fs, &file, var, &io, &SumKernel)
    });
    let expect: f64 = (0..128).map(test_value).sum();
    assert_close(results[0].global.as_ref().unwrap()[0], expect, "serial");
}
