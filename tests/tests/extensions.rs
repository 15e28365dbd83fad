//! Integration tests for the extensions beyond the paper's core: the
//! collective write path, kernel fusion, and iterative sweeps — all
//! exercised across crates.

use cc_array::{get_vara_all, put_vara_all, Hyperslab, Shape};
use cc_core::{
    iterative_get_vara, object_get_vara, FusedKernel, MaxKernel, MeanKernel, MinLocKernel,
    ObjectIo, ReduceMode, SumKernel,
};
use cc_integration::{assert_close, build_var_fs, test_model, test_value};
use cc_mpi::World;
use cc_mpiio::Hints;

#[test]
fn fused_kernel_through_the_full_engine() {
    // One collective pass computing sum, max, mean, and min-location must
    // agree with four separate passes.
    let shape = Shape::new(vec![8, 40]);
    let (fs, var) = build_var_fs(&shape, 1024, 4, 8);
    let world = World::new(4, test_model(2, 2));
    let fs = &fs;
    let var = &var;
    let results = world.run(move |comm| {
        let file = fs.open("t.nc").expect("exists");
        let io = ObjectIo::new(vec![2 * comm.rank() as u64, 0], vec![2, 40])
            .reduce(ReduceMode::AllToOne { root: 0 });
        let fused = FusedKernel::new(vec![&SumKernel, &MaxKernel, &MeanKernel, &MinLocKernel]);
        let one_pass = object_get_vara(comm, fs, &file, var, &io, &fused);
        let seperate: Vec<_> = [
            &SumKernel as &dyn cc_core::MapKernel,
            &MaxKernel,
            &MeanKernel,
            &MinLocKernel,
        ]
        .iter()
        .map(|k| object_get_vara(comm, fs, &file, var, &io, *k).global)
        .collect();
        (
            one_pass.global_partial.map(|p| fused.finalize_each(&p)),
            seperate,
            one_pass.report.bytes_read,
        )
    });
    let fused_results = results[0].0.as_ref().expect("root result");
    for (i, sep) in results[0].1.iter().enumerate() {
        let sep = sep.as_ref().expect("root result");
        for (a, b) in fused_results[i].iter().zip(sep) {
            assert_close(*a, *b, &format!("fused component {i}"));
        }
    }
}

#[test]
fn fused_pass_reads_quarter_the_bytes() {
    let shape = Shape::new(vec![4, 64]);
    let (fs, var) = build_var_fs(&shape, 1024, 4, 8);
    let world = World::new(4, test_model(1, 4));
    let fs = &fs;
    let var = &var;
    let results = world.run(move |comm| {
        let file = fs.open("t.nc").expect("exists");
        let io = ObjectIo::new(vec![comm.rank() as u64, 0], vec![1, 64]);
        let fused = FusedKernel::new(vec![&SumKernel, &MaxKernel, &MeanKernel, &MinLocKernel]);
        let one = object_get_vara(comm, fs, &file, var, &io, &fused)
            .report
            .bytes_read;
        let four: u64 = (0..4)
            .map(|_| {
                object_get_vara(comm, fs, &file, var, &io, &SumKernel)
                    .report
                    .bytes_read
            })
            .sum();
        (one, four)
    });
    let one: u64 = results.iter().map(|r| r.0).sum();
    let four: u64 = results.iter().map(|r| r.1).sum();
    assert_eq!(four, 4 * one, "separate passes re-read the data");
}

#[test]
fn collective_write_through_array_layer_and_read_back_via_cc() {
    // put_vara_all writes; the CC engine then analyzes what was written.
    let shape = Shape::new(vec![8, 32]);
    let fs = cc_pfs::Pfs::new(4, cc_model::DiskModel::lustre_like());
    fs.create(
        "t.nc",
        cc_pfs::StripeLayout::round_robin(512, 4, 0, 4),
        Box::new(cc_pfs::MemBackend::zeroed(8 * 32 * 8)),
    );
    let fs = std::sync::Arc::new(fs);
    let var = cc_array::Variable::new("v", shape.clone(), cc_array::DType::F64, 0);
    let world = World::new(4, test_model(2, 2));
    let fs = &fs;
    let var = &var;
    let results = world.run(move |comm| {
        let file = fs.open("t.nc").expect("exists");
        let slab = Hyperslab::new(vec![2 * comm.rank() as u64, 0], vec![2, 32]);
        // Each rank writes values derived from the element index.
        let values: Vec<f64> = slab
            .runs(var.shape())
            .flat_map(|(s, l)| s..s + l)
            .map(|i| (i * 3) as f64)
            .collect();
        put_vara_all(comm, fs, &file, var, &slab, &values, &Hints::default());
        comm.barrier();
        // Read it back plainly and analyze it with the CC engine.
        let (back, _) = get_vara_all(comm, fs, &file, var, &slab, &Hints::default());
        let io = ObjectIo::new(vec![2 * comm.rank() as u64, 0], vec![2, 32]);
        let out = object_get_vara(comm, fs, &file, var, &io, &SumKernel);
        (back == values, out.global)
    });
    assert!(results.iter().all(|r| r.0), "roundtrip data mismatch");
    let expect: f64 = (0..256u64).map(|i| (i * 3) as f64).sum();
    assert_close(
        results[0].1.as_ref().expect("root result")[0],
        expect,
        "CC over written data",
    );
}

#[test]
fn strided_selection_through_collective_read() {
    // ncmpi_get_vars-style subsampling: every other lat row, every third
    // lon column, through the full two-phase engine.
    let shape = Shape::new(vec![4, 8, 9]);
    let (fs, var) = build_var_fs(&shape, 256, 4, 8);
    let world = World::new(4, test_model(2, 2));
    let fs = &fs;
    let var = &var;
    let ok = world.run(move |comm| {
        // Rank r takes time step r, lat rows 0,2,4,6, lon cols 0,3,6.
        let slab = cc_array::StridedSlab::new(
            vec![comm.rank() as u64, 0, 0],
            vec![1, 4, 3],
            vec![1, 2, 3],
        );
        let request = var.byte_extents_strided(&slab);
        let file = fs.open("t.nc").expect("exists");
        let (bytes, _) = cc_mpiio::collective_read(comm, fs, &file, &request, &Hints::default());
        let got = var.dtype().decode(&bytes);
        // Oracle: enumerate the lattice directly.
        let mut expect = Vec::new();
        for (start, len) in slab.runs(var.shape()) {
            for i in start..start + len {
                expect.push(test_value(i));
            }
        }
        got == expect
    });
    assert!(ok.iter().all(|&b| b), "strided read data mismatch");
}

#[test]
fn iterative_sweep_with_mean_kernel_folds_correctly() {
    // Mean cannot be folded from finalized outputs — this exercises the
    // global_partial plumbing end to end.
    let shape = Shape::new(vec![6, 20]);
    let (fs, var) = build_var_fs(&shape, 512, 2, 4);
    let world = World::new(2, test_model(1, 2));
    let fs = &fs;
    let var = &var;
    let results = world.run(move |comm| {
        let file = fs.open("t.nc").expect("exists");
        let steps: Vec<_> = (0..3u64)
            .map(|s| {
                (
                    var,
                    ObjectIo::new(vec![s * 2 + comm.rank() as u64, 0], vec![1, 20]),
                )
            })
            .collect();
        iterative_get_vara(comm, fs, &file, &steps, &MeanKernel)
    });
    let expect: f64 = (0..120u64).map(test_value).sum::<f64>() / 120.0;
    assert_close(
        results[0].global.as_ref().expect("root folded")[0],
        expect,
        "folded mean",
    );
    // Naively averaging the step means would coincide here (equal step
    // sizes), so also check the per-step values are true step means.
    let steps = results[0].per_step.as_ref().expect("per-step");
    for (s, step) in steps.iter().enumerate() {
        let lo = s as u64 * 40;
        let step_mean: f64 = (lo..lo + 40).map(test_value).sum::<f64>() / 40.0;
        assert_close(step[0], step_mean, &format!("step {s} mean"));
    }
}
