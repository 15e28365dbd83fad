//! WRF hurricane analysis: the paper's application tasks (Fig. 13).
//!
//! A simulated hurricane season — WRF-style output with sea-level pressure
//! and 10 m wind fields — is analyzed by 32 ranks using both of the
//! paper's tasks: *Min Sea-Level Pressure* and *Max 10 m wind speed*. The
//! storm's analytic structure lets the example verify the answers.
//!
//! ```text
//! cargo run --release -p cc-examples --bin wrf_hurricane
//! ```

use cc_core::{object_get_vara, MaxLocKernel, MinLocKernel, ObjectIo, ReduceMode};
use cc_examples::banner;
use cc_model::ClusterModel;
use cc_mpi::World;
use cc_workloads::{WrfGrid, WrfWorkload};

fn main() {
    banner("WRF hurricane analysis");
    let grid = WrfGrid {
        times: 48,
        sn: 128,
        we: 256,
    };
    let nprocs = 32;
    let wrf = WrfWorkload::new(grid, nprocs, 1 << 20, 40);
    let model = ClusterModel::hopper_like(2, 16);
    println!(
        "grid: {} time steps x {} x {} ({}  MB per variable)",
        grid.times,
        grid.sn,
        grid.we,
        grid.elements() * 8 / (1 << 20)
    );

    // Task 1: minimum sea-level pressure and where it occurs.
    let fs = wrf.build_fs(156, model.disk.clone());
    let world = World::new(nprocs, model.clone());
    let slp = {
        let fs = &fs;
        let wrf = &wrf;
        let outcomes = world.run(move |comm| {
            let file = fs.open(WrfWorkload::FILE).expect("created");
            let slab = wrf.band_slab(comm.rank());
            let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
                .reduce(ReduceMode::AllToOne { root: 0 });
            object_get_vara(comm, fs, &file, wrf.slp_var(), &io, &MinLocKernel)
        });
        outcomes[0].global.clone().expect("root result")
    };
    let (t, y, x) = grid.coords(slp[1] as u64);
    println!(
        "min sea-level pressure: {:.1} hPa at t={t}, grid ({y}, {x})",
        slp[0]
    );
    let (expect_v, expect_i) = grid.slp_min();
    assert_eq!(slp[0], expect_v, "pressure oracle");
    assert_eq!(slp[1] as u64, expect_i, "location oracle");
    println!("  -> matches the storm model's analytic minimum");

    // Task 2: maximum 10 m wind speed (the eyewall).
    let fs = wrf.build_fs(156, model.disk.clone());
    let world = World::new(nprocs, model);
    let wind = {
        let fs = &fs;
        let wrf = &wrf;
        let outcomes = world.run(move |comm| {
            let file = fs.open(WrfWorkload::FILE).expect("created");
            let slab = wrf.band_slab(comm.rank());
            let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
                .reduce(ReduceMode::AllToAll { root: 0 });
            object_get_vara(comm, fs, &file, wrf.wind_var(), &io, &MaxLocKernel)
        });
        // All-to-all reduce also leaves each rank its own band's maximum.
        for (r, o) in outcomes.iter().enumerate().take(4) {
            let mine = o.my_result.as_ref().expect("own result");
            println!("  rank {r}: band max wind {:.1} knots", mine[0]);
        }
        outcomes[0].global.clone().expect("root result")
    };
    let (t, y, x) = grid.coords(wind[1] as u64);
    println!(
        "max 10 m wind: {:.1} knots at t={t}, grid ({y}, {x})",
        wind[0]
    );
    let (expect_v, expect_i) = wrf.oracle_wind_max();
    assert_eq!(wind[0], expect_v, "wind oracle");
    assert_eq!(wind[1] as u64, expect_i, "wind location oracle");
    println!("  -> matches the brute-force oracle (on the eyewall ring)");
}
