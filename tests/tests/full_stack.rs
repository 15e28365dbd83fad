//! End-to-end correctness of the full stack: synthetic PFS -> two-phase
//! engine -> logical map -> kernels -> reduce, against direct oracles.

use cc_array::{Hyperslab, Shape};
use cc_core::{
    object_get_vara, CountKernel, MapKernel, MaxKernel, MeanKernel, MinLocKernel, ObjectIo,
    ReduceMode, SumKernel,
};
use cc_integration::{
    assert_close, build_var_fs, oracle_min_loc, oracle_sum, test_model, test_value,
};
use cc_mpi::World;
use cc_mpiio::Hints;

/// Runs `nprocs` ranks over row-block selections of `shape` with `kernel`
/// and returns the root's global result.
fn run_global(
    nprocs: usize,
    nodes: usize,
    shape: &Shape,
    kernel: &dyn MapKernel,
    reduce: ReduceMode,
    cb: u64,
) -> Vec<f64> {
    let rows = shape.dims()[0];
    assert_eq!(rows % nprocs as u64, 0);
    let per = rows / nprocs as u64;
    let (fs, var) = build_var_fs(shape, 4096, 4, 8);
    let world = World::new(nprocs, test_model(nodes, nprocs / nodes));
    let fs = &fs;
    let var = &var;
    let results = world.run(move |comm| {
        let file = fs.open("t.nc").expect("exists");
        let mut start = vec![0; shape.rank()];
        let mut count = shape.dims().to_vec();
        start[0] = comm.rank() as u64 * per;
        count[0] = per;
        let io = ObjectIo::new(start, count)
            .hints(Hints {
                cb_buffer_size: cb,
                ..Hints::default()
            })
            .reduce(reduce);
        object_get_vara(comm, fs, &file, var, &io, kernel)
    });
    results
        .into_iter()
        .find_map(|o| o.global)
        .expect("some rank holds the global result")
}

#[test]
fn sum_across_shapes_and_buffer_sizes() {
    for shape in [
        Shape::new(vec![8, 40]),
        Shape::new(vec![4, 6, 10]),
        Shape::new(vec![8, 3, 5, 7]),
    ] {
        let expect: f64 = (0..shape.num_elements()).map(test_value).sum();
        for cb in [128u64, 1024, 1 << 20] {
            let got = run_global(
                4,
                2,
                &shape,
                &SumKernel,
                ReduceMode::AllToOne { root: 0 },
                cb,
            );
            assert_close(got[0], expect, &format!("sum {:?} cb={cb}", shape.dims()));
        }
    }
}

#[test]
fn every_reduce_root_works() {
    let shape = Shape::new(vec![6, 30]);
    let expect: f64 = (0..180).map(test_value).sum();
    for root in 0..6 {
        for reduce in [ReduceMode::AllToOne { root }, ReduceMode::AllToAll { root }] {
            let got = run_global(6, 2, &shape, &SumKernel, reduce, 256);
            assert_close(got[0], expect, &format!("root {root} {reduce:?}"));
        }
    }
}

#[test]
fn minloc_and_count_and_mean_and_max() {
    let shape = Shape::new(vec![8, 25]);
    let n = shape.num_elements();
    let slab = Hyperslab::whole(&shape);

    let minloc = run_global(
        4,
        1,
        &shape,
        &MinLocKernel,
        ReduceMode::AllToOne { root: 0 },
        512,
    );
    let (ev, ei) = oracle_min_loc(&shape, &slab);
    assert_eq!(minloc[0], ev);
    assert_eq!(minloc[1], ei as f64);

    let count = run_global(
        4,
        1,
        &shape,
        &CountKernel,
        ReduceMode::AllToOne { root: 0 },
        512,
    );
    assert_eq!(count[0], n as f64);

    let mean = run_global(
        4,
        1,
        &shape,
        &MeanKernel,
        ReduceMode::AllToAll { root: 2 },
        512,
    );
    assert_close(mean[0], oracle_sum(&shape, &slab) / n as f64, "mean");

    let max = run_global(
        4,
        1,
        &shape,
        &MaxKernel,
        ReduceMode::AllToOne { root: 0 },
        512,
    );
    let expect_max = (0..n).map(test_value).fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(max[0], expect_max);
}

#[test]
fn uneven_rank_to_node_mappings() {
    // 12 ranks over 1, 2, 3, 4 nodes: aggregator counts change, data must not.
    let shape = Shape::new(vec![12, 16]);
    let expect: f64 = (0..192).map(test_value).sum();
    for nodes in [1, 2, 3, 4] {
        let got = run_global(
            12,
            nodes,
            &shape,
            &SumKernel,
            ReduceMode::AllToOne { root: 0 },
            128,
        );
        assert_close(got[0], expect, &format!("{nodes} nodes"));
    }
}

#[test]
fn single_rank_world_still_works() {
    let shape = Shape::new(vec![3, 17]);
    let expect: f64 = (0..51).map(test_value).sum();
    let got = run_global(
        1,
        1,
        &shape,
        &SumKernel,
        ReduceMode::AllToOne { root: 0 },
        64,
    );
    assert_close(got[0], expect, "single rank");
}

#[test]
fn repeated_object_io_in_one_job() {
    // Multiple collective-computing calls back to back, with different
    // kernels, inside one SPMD job: tags and clocks must stay coherent.
    let shape = Shape::new(vec![4, 32]);
    let (fs, var) = build_var_fs(&shape, 1024, 2, 4);
    let world = World::new(4, test_model(2, 2));
    let fs = &fs;
    let var = &var;
    let shape_ref = &shape;
    let results = world.run(move |comm| {
        let file = fs.open("t.nc").expect("exists");
        let io = ObjectIo::new(vec![comm.rank() as u64, 0], vec![1, 32]);
        let a = object_get_vara(comm, fs, &file, var, &io, &SumKernel);
        let b = object_get_vara(comm, fs, &file, var, &io, &MaxKernel);
        let c = object_get_vara(comm, fs, &file, var, &io, &SumKernel);
        assert!(b.report.start >= a.report.end);
        assert!(c.report.start >= b.report.end);
        (a.global, b.global, c.global, comm.clock())
    });
    let n = shape_ref.num_elements();
    let expect_sum: f64 = (0..n).map(test_value).sum();
    let expect_max = (0..n).map(test_value).fold(f64::NEG_INFINITY, f64::max);
    let (a, b, c, _) = &results[0];
    assert_close(a.as_ref().unwrap()[0], expect_sum, "first sum");
    assert_eq!(b.as_ref().unwrap()[0], expect_max);
    assert_close(c.as_ref().unwrap()[0], expect_sum, "second sum");
}

#[test]
fn overlapping_requests_across_ranks() {
    // All ranks read the *same* full selection; every rank's partial must
    // equal the full reduction, and the global (over identical partials)
    // must equal it too for idempotent kernels like max.
    let shape = Shape::new(vec![4, 20]);
    let (fs, var) = build_var_fs(&shape, 512, 2, 4);
    let world = World::new(3, test_model(1, 3));
    let fs = &fs;
    let var = &var;
    let results = world.run(move |comm| {
        let file = fs.open("t.nc").expect("exists");
        let io = ObjectIo::new(vec![0, 0], vec![4, 20]).reduce(ReduceMode::AllToAll { root: 0 });
        object_get_vara(comm, fs, &file, var, &io, &MaxKernel)
    });
    let expect = (0..80).map(test_value).fold(f64::NEG_INFINITY, f64::max);
    for o in &results {
        assert_eq!(o.my_result.as_ref().unwrap()[0], expect);
    }
    assert_eq!(results[0].global.as_ref().unwrap()[0], expect);
}
