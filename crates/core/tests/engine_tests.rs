//! End-to-end tests of the collective-computing engine against the
//! traditional baseline and against directly computed oracles.

use std::sync::Arc;

use cc_array::{DType, Hyperslab, Shape, Variable};
use cc_core::{
    object_get_vara, traditional_get_vara, CcOutcome, IoMode, MapKernel, MaxKernel, MeanKernel,
    MinKernel, MinLocKernel, ObjectIo, ReduceMode, SumKernel,
};
use cc_model::{ClusterModel, SimTime, Topology};
use cc_mpi::World;
use cc_mpiio::Hints;
use cc_pfs::backend::ElemKind;
use cc_pfs::{Pfs, StripeLayout, SyntheticBackend};

/// Deterministic element values with a unique global minimum at index 37.
fn value(i: u64) -> f64 {
    if i == 37 {
        -5.0
    } else {
        ((i * 7 + 3) % 101) as f64
    }
}

fn setup_fs(elems: u64, osts: usize, stripe: u64) -> Arc<Pfs> {
    let fs = Pfs::new(
        osts,
        cc_model::DiskModel {
            seek: 1e-3,
            ost_bandwidth: 1e8,
        },
    );
    fs.create(
        "d",
        StripeLayout::round_robin(stripe, osts, 0, osts),
        Box::new(SyntheticBackend::new(elems, ElemKind::F64, value)),
    );
    Arc::new(fs)
}

/// Runs `nprocs` ranks, each selecting `rows_per_rank` full rows of an
/// `nrows x ncols` variable, through the CC engine.
fn run_cc(
    nprocs: usize,
    topo: Topology,
    nrows: u64,
    ncols: u64,
    kernel: &dyn MapKernel,
    io_template: &ObjectIo,
) -> Vec<CcOutcome> {
    let rows_per_rank = nrows / nprocs as u64;
    assert_eq!(nrows % nprocs as u64, 0);
    let shape = Shape::new(vec![nrows, ncols]);
    let var = Variable::new("t", shape, DType::F64, 0);
    let fs = setup_fs(nrows * ncols, 4, 256);
    let mut model = ClusterModel::test_tiny(1);
    model.topology = topo;
    let world = World::new(nprocs, model);
    let var = &var;
    let fs = &fs;
    world.run(move |comm| {
        let file = fs.open("d").expect("exists");
        let io = ObjectIo {
            start: vec![comm.rank() as u64 * rows_per_rank, 0],
            count: vec![rows_per_rank, ncols],
            ..io_template.clone()
        };
        object_get_vara(comm, fs, &file, var, &io, kernel)
    })
}

fn oracle_sum(elems: u64) -> f64 {
    (0..elems).map(value).sum()
}

fn approx(a: f64, b: f64) {
    assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} != {b}");
}

#[test]
fn all_to_one_sum_matches_oracle() {
    let outcomes = run_cc(
        4,
        Topology::new(2, 2),
        8,
        32,
        &SumKernel,
        &ObjectIo::new(vec![], vec![]),
    );
    let global = outcomes[0].global.as_ref().expect("root has global");
    approx(global[0], oracle_sum(256));
    // Non-roots know nothing under all-to-one.
    assert!(outcomes[1].global.is_none());
    assert!(outcomes[1].my_result.is_none());
    // The root also has per-rank results that sum to the global.
    let per_rank = outcomes[0].per_rank.as_ref().expect("per-rank at root");
    let s: f64 = per_rank.iter().map(|p| p.as_ref().unwrap()[0]).sum();
    approx(s, oracle_sum(256));
}

#[test]
fn all_to_all_gives_every_rank_its_result() {
    let io = ObjectIo::new(vec![], vec![]).reduce(ReduceMode::AllToAll { root: 1 });
    let outcomes = run_cc(4, Topology::new(2, 2), 8, 32, &SumKernel, &io);
    for (r, o) in outcomes.iter().enumerate() {
        // Rank r's own result: sum over its 2 rows (64 elements).
        let expect: f64 = (r as u64 * 64..(r as u64 + 1) * 64).map(value).sum();
        approx(o.my_result.as_ref().expect("own result")[0], expect);
    }
    approx(
        outcomes[1].global.as_ref().expect("root has global")[0],
        oracle_sum(256),
    );
    assert!(outcomes[0].global.is_none());
}

#[test]
fn minloc_survives_the_full_pipeline() {
    let outcomes = run_cc(
        2,
        Topology::new(1, 2),
        4,
        32,
        &MinLocKernel,
        &ObjectIo::new(vec![], vec![]),
    );
    let global = outcomes[0].global.as_ref().expect("root has global");
    assert_eq!(global[0], -5.0);
    assert_eq!(global[1], 37.0);
}

#[test]
fn min_max_mean_match_baseline() {
    for kernel in [&MinKernel as &dyn MapKernel, &MaxKernel, &MeanKernel] {
        let cc = run_cc(
            4,
            Topology::new(2, 2),
            8,
            16,
            kernel,
            &ObjectIo::new(vec![], vec![]),
        );
        let blocking = ObjectIo::new(vec![], vec![]).blocking(true);
        let base = run_cc(4, Topology::new(2, 2), 8, 16, kernel, &blocking);
        let g_cc = cc[0].global.as_ref().expect("cc global");
        let g_b = base[0].global.as_ref().expect("baseline global");
        for (a, b) in g_cc.iter().zip(g_b) {
            approx(*a, *b);
        }
    }
}

#[test]
fn independent_mode_matches_collective() {
    let io_ind = ObjectIo::new(vec![], vec![])
        .mode(IoMode::Independent)
        .reduce(ReduceMode::AllToAll { root: 0 });
    let ind = run_cc(4, Topology::new(1, 4), 8, 16, &SumKernel, &io_ind);
    approx(ind[0].global.as_ref().expect("global")[0], oracle_sum(128));
    for (r, o) in ind.iter().enumerate() {
        let expect: f64 = (r as u64 * 32..(r as u64 + 1) * 32).map(value).sum();
        approx(o.my_result.as_ref().expect("own")[0], expect);
    }
}

#[test]
fn small_collective_buffer_multiplies_metadata() {
    // The Fig. 12 mechanism: smaller buffers split logical subsets across
    // iterations, creating more metadata entries.
    let run_with_cb = |cb: u64| {
        let io = ObjectIo::new(vec![], vec![]).hints(Hints {
            cb_buffer_size: cb,
            ..Hints::default()
        });
        let outs = run_cc(4, Topology::new(2, 2), 8, 64, &SumKernel, &io);
        outs.iter().map(|o| o.report.metadata_entries).sum::<u64>()
    };
    let small = run_with_cb(256); // splits every 256 bytes
    let large = run_with_cb(1 << 20); // everything in one iteration
    assert!(
        small > large,
        "small buffer ({small} entries) must exceed large ({large})"
    );
    assert!(large >= 4, "at least one entry per rank");
}

#[test]
fn cc_is_faster_than_baseline_at_balanced_ratio() {
    // Computation ~ I/O: the paper's peak-speedup regime (Fig. 9, ratio
    // 1:1). CC must beat the traditional baseline on total virtual time.
    let nprocs = 8;
    let nrows = 8u64;
    let ncols = 4096u64;
    let shape = Shape::new(vec![nrows, ncols]);
    let var = Variable::new("t", shape, DType::F64, 0);
    let mut model = ClusterModel::test_tiny(1);
    model.topology = Topology::new(2, 4);
    // Map cost per byte = read cost per byte (aggregate): ratio ~1:1.
    model.cpu.map_cost_per_byte = 1.0 / model.disk.ost_bandwidth;
    let elapsed = |blocking: bool| -> SimTime {
        let fs = setup_fs(nrows * ncols, 4, 4096);
        let world = World::new(nprocs, model.clone());
        let var = &var;
        let fs = &fs;
        let ends = world.run(move |comm| {
            let file = fs.open("d").expect("exists");
            let io = ObjectIo {
                start: vec![comm.rank() as u64, 0],
                count: vec![1, ncols],
                ..ObjectIo::new(vec![], vec![])
            }
            .blocking(blocking);
            let out = object_get_vara(comm, fs, &file, var, &io, &SumKernel);
            out.report.end
        });
        ends.into_iter().max().expect("nonempty")
    };
    let t_cc = elapsed(false);
    let t_mpi = elapsed(true);
    assert!(
        t_cc < t_mpi,
        "collective computing {t_cc} should beat traditional {t_mpi}"
    );
}

#[test]
fn blocking_object_io_equals_traditional_call() {
    // io.block = true must behave exactly like the hand-written baseline.
    let nprocs = 4;
    let shape = Shape::new(vec![4, 32]);
    let var = Variable::new("t", shape, DType::F64, 0);
    let fs = setup_fs(128, 4, 256);
    let world = World::new(nprocs, ClusterModel::test_tiny(nprocs));
    let var = &var;
    let fs = &fs;
    let results = world.run(move |comm| {
        let file = fs.open("d").expect("exists");
        let slab = Hyperslab::new(vec![comm.rank() as u64, 0], vec![1, 32]);
        let (g1, m1, _) = traditional_get_vara(
            comm,
            fs,
            &file,
            var,
            &slab,
            &Hints::default(),
            &SumKernel,
            0,
        );
        let io = ObjectIo::new(vec![comm.rank() as u64, 0], vec![1, 32]).blocking(true);
        let out = object_get_vara(comm, fs, &file, var, &io, &SumKernel);
        (g1, m1, out.global, out.my_result)
    });
    for (g1, m1, g2, m2) in &results {
        assert_eq!(g1, g2);
        assert_eq!(Some(m1.clone()), *m2);
    }
}

#[test]
fn aggregators_report_pipeline_iterations() {
    let io = ObjectIo::new(vec![], vec![]).hints(Hints {
        cb_buffer_size: 512,
        ..Hints::default()
    });
    let outcomes = run_cc(4, Topology::new(2, 2), 8, 64, &SumKernel, &io);
    let total_iters: usize = outcomes.iter().map(|o| o.report.iterations.len()).sum();
    assert!(total_iters >= 4, "expected several pipeline iterations");
    for o in &outcomes {
        for it in &o.report.iterations {
            assert!(it.read > SimTime::ZERO);
            assert!(it.map > SimTime::ZERO);
        }
        assert!(o.report.end >= o.report.start);
    }
    // Aggregators read every byte exactly once in total.
    let bytes: u64 = outcomes.iter().map(|o| o.report.bytes_read).sum();
    assert_eq!(bytes, 8 * 64 * 8);
}

#[test]
fn nonuniform_and_empty_requests() {
    // Uneven shares: rank 0 takes most rows, rank 1 the rest, and rank 2
    // re-reads element (0,0) that rank 0 also wants — requests may not
    // overlap within one rank's list, but may across ranks.
    let shape = Shape::new(vec![8, 16]);
    let var = Variable::new("t", shape, DType::F64, 0);
    let fs = setup_fs(128, 2, 128);
    let world = World::new(3, ClusterModel::test_tiny(3));
    let var = &var;
    let fs = &fs;
    let results = world.run(move |comm| {
        let file = fs.open("d").expect("exists");
        let (start, count) = match comm.rank() {
            0 => (vec![0, 0], vec![6, 16]),
            1 => (vec![6, 0], vec![2, 16]),
            _ => (vec![0, 0], vec![1, 1]),
        };
        let io = ObjectIo::new(start, count).reduce(ReduceMode::AllToAll { root: 0 });
        object_get_vara(comm, fs, &file, var, &io, &SumKernel)
    });
    approx(
        results[0].my_result.as_ref().unwrap()[0],
        (0..96u64).map(value).sum(),
    );
    approx(
        results[1].my_result.as_ref().unwrap()[0],
        (96..128u64).map(value).sum(),
    );
    approx(results[2].my_result.as_ref().unwrap()[0], value(0));
}
