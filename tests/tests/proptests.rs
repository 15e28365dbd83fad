//! Property tests across the full stack: random selections, stripings,
//! buffer sizes, and rank counts must all produce oracle-exact results.

use cc_array::Shape;
use cc_core::{object_get_vara, MinLocKernel, ObjectIo, ReduceMode, SumKernel};
use cc_integration::{build_var_fs, oracle_min_loc, test_model, test_value};
use cc_mpi::World;
use cc_mpiio::{collective_read, Hints, OffsetList};
use proptest::prelude::*;

/// A derived, always-valid configuration: shape, per-rank row split,
/// striping, buffer size.
#[derive(Debug, Clone)]
struct Config {
    shape: Shape,
    nprocs: usize,
    stripe_size: u64,
    stripe_count: usize,
    cb: u64,
}

fn arb_config() -> impl Strategy<Value = Config> {
    (
        1usize..5,                                // nprocs as divisor index
        proptest::collection::vec(1u64..7, 1..3), // extra dims
        6u64..12,                                 // log2 stripe size
        1usize..5,                                // stripe count
        5u64..13,                                 // log2 cb
    )
        .prop_map(|(np, extra, stripe_log, sc, cb_log)| {
            let nprocs = np; // 1..4
            let mut dims = vec![nprocs as u64 * 2]; // rows divisible
            dims.extend(extra.iter().map(|&d| d * 4));
            Config {
                shape: Shape::new(dims),
                nprocs,
                stripe_size: 1 << stripe_log,
                stripe_count: sc,
                cb: 1 << cb_log,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_cc_sum_matches_oracle(cfg in arb_config()) {
        let (fs, var) = build_var_fs(&cfg.shape, cfg.stripe_size, cfg.stripe_count, 8);
        let world = World::new(cfg.nprocs, test_model(1, cfg.nprocs));
        let per = cfg.shape.dims()[0] / cfg.nprocs as u64;
        let fs = &fs;
        let var = &var;
        let cfg_ref = &cfg;
        let results = world.run(move |comm| {
            let file = fs.open("t.nc").expect("exists");
            let mut start = vec![0; cfg_ref.shape.rank()];
            let mut count = cfg_ref.shape.dims().to_vec();
            start[0] = comm.rank() as u64 * per;
            count[0] = per;
            let io = ObjectIo::new(start, count).hints(Hints {
                cb_buffer_size: cfg_ref.cb,
                ..Hints::default()
            });
            object_get_vara(comm, fs, &file, var, &io, &SumKernel)
        });
        let got = results.into_iter().find_map(|o| o.global).expect("root")[0];
        let expect: f64 = (0..cfg.shape.num_elements()).map(test_value).sum();
        prop_assert!((got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
            "{got} != {expect}");
    }

    #[test]
    fn prop_cc_minloc_matches_oracle(cfg in arb_config()) {
        let (fs, var) = build_var_fs(&cfg.shape, cfg.stripe_size, cfg.stripe_count, 8);
        let world = World::new(cfg.nprocs, test_model(1, cfg.nprocs));
        let per = cfg.shape.dims()[0] / cfg.nprocs as u64;
        let fs = &fs;
        let var = &var;
        let cfg_ref = &cfg;
        let results = world.run(move |comm| {
            let file = fs.open("t.nc").expect("exists");
            let mut start = vec![0; cfg_ref.shape.rank()];
            let mut count = cfg_ref.shape.dims().to_vec();
            start[0] = comm.rank() as u64 * per;
            count[0] = per;
            let io = ObjectIo::new(start, count)
                .hints(Hints { cb_buffer_size: cfg_ref.cb, ..Hints::default() })
                .reduce(ReduceMode::AllToAll { root: 0 });
            object_get_vara(comm, fs, &file, var, &io, &MinLocKernel)
        });
        let got = results.into_iter().find_map(|o| o.global).expect("root");
        let (ev, ei) = oracle_min_loc(
            &cfg.shape,
            &cc_array::Hyperslab::whole(&cfg.shape),
        );
        prop_assert_eq!(got[0], ev);
        prop_assert_eq!(got[1], ei as f64);
    }

    #[test]
    fn prop_collective_read_returns_exact_bytes(
        cfg in arb_config(),
        seed in any::<u64>(),
    ) {
        // Random non-overlapping extents per rank (derived from the seed),
        // read through the full two-phase engine, compared byte-for-byte
        // against the backend.
        let (fs, var) = build_var_fs(&cfg.shape, cfg.stripe_size, cfg.stripe_count, 8);
        let size = var.size_bytes();
        let world = World::new(cfg.nprocs, test_model(1, cfg.nprocs));
        let fs = &fs;
        let cfg_ref = &cfg;
        let ok = world.run(move |comm| {
            // Rank r takes every nprocs-th 16-byte block, offset by rank,
            // pseudo-shifted by the seed.
            let mut extents = Vec::new();
            let block = 16u64;
            let shift = (seed % 4) * 4;
            let mut pos = comm.rank() as u64 * block + shift;
            while pos + block <= size {
                extents.push(cc_mpiio::Extent { offset: pos, len: block });
                pos += block * cfg_ref.nprocs as u64 * 2;
            }
            let request = OffsetList::new(extents);
            let file = fs.open("t.nc").expect("exists");
            let (bytes, _) = collective_read(comm, fs, &file, &request, &Hints {
                cb_buffer_size: cfg_ref.cb,
                ..Hints::default()
            });
            // Compare against the backend directly.
            let mut expect = vec![0u8; request.total_bytes() as usize];
            let mut cursor = 0;
            for e in request.extents() {
                let mut piece = vec![0u8; e.len as usize];
                read_backend(fs, e.offset, &mut piece);
                expect[cursor..cursor + e.len as usize].copy_from_slice(&piece);
                cursor += e.len as usize;
            }
            bytes == expect
        });
        prop_assert!(ok.iter().all(|&b| b), "some rank got wrong bytes");
    }
}

/// Reads the raw backend bytes (bypassing timing) for comparison.
fn read_backend(fs: &cc_pfs::Pfs, offset: u64, buf: &mut [u8]) {
    let file = fs.open("t.nc").expect("exists");
    let (bytes, _) = fs.read_at(&file, offset, buf.len() as u64, cc_model::SimTime::ZERO);
    buf.copy_from_slice(&bytes);
}
