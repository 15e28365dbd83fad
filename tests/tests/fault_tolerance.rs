//! Fault injection through the full stack: transient read failures are
//! retried by the file system, results stay exact, and the retries cost
//! virtual time — the substrate for the paper's "investigate fault
//! tolerance" future work. Persistent degradation (slow OSTs, bad links)
//! comes from [`cc_model::FaultPlan`], and run supervision turns a rank
//! panic mid-collective into a prompt, attributed world abort.

use cc_array::Shape;
use cc_core::{object_get_vara, ObjectIo, SumKernel};
use cc_integration::{assert_close, test_model, test_value};
use cc_model::{DiskModel, FaultPlan, SimTime};
use cc_mpi::World;
use cc_mpiio::{collective_read, Hints, OffsetList};
use cc_pfs::backend::{ElemKind, SyntheticBackend};
use cc_pfs::{Pfs, RetryPlan, StripeLayout};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn faulty_fs(fail_every: u64, elems: u64) -> Arc<Pfs> {
    let fs = Pfs::new(4, DiskModel::lustre_like()).with_retries(RetryPlan::every(
        fail_every,
        SimTime::from_secs(0.05),
        10,
    ));
    fs.create(
        "t.nc",
        StripeLayout::round_robin(1024, 4, 0, 4),
        Box::new(SyntheticBackend::new(elems, ElemKind::F64, test_value)),
    );
    Arc::new(fs)
}

#[test]
fn results_survive_transient_read_faults() {
    let shape = Shape::new(vec![4, 64]);
    let var = cc_array::Variable::new("v", shape.clone(), cc_array::DType::F64, 0);
    let fs = faulty_fs(2, 256); // every second read attempt fails once
    let world = World::new(4, test_model(2, 2));
    let fs_ref = &fs;
    let var = &var;
    let results = world.run(move |comm| {
        let file = fs_ref.open("t.nc").expect("exists");
        let io = ObjectIo::new(vec![comm.rank() as u64, 0], vec![1, 64]).hints(cc_mpiio::Hints {
            cb_buffer_size: 256, // several chunks -> several read attempts
            ..cc_mpiio::Hints::default()
        });
        object_get_vara(comm, fs_ref, &file, var, &io, &SumKernel)
    });
    let expect: f64 = (0..256).map(test_value).sum();
    assert_close(
        results.into_iter().find_map(|o| o.global).expect("root")[0],
        expect,
        "sum under faults",
    );
    let plan = fs.retry_plan().expect("plan installed");
    assert!(plan.retries() > 0, "faults should actually have fired");
}

#[test]
fn faults_cost_virtual_time() {
    let shape = Shape::new(vec![4, 64]);
    let var = cc_array::Variable::new("v", shape.clone(), cc_array::DType::F64, 0);
    let run = |fail_every: Option<u64>| {
        let fs = match fail_every {
            Some(k) => faulty_fs(k, 256),
            None => {
                let fs = Pfs::new(4, DiskModel::lustre_like());
                fs.create(
                    "t.nc",
                    StripeLayout::round_robin(1024, 4, 0, 4),
                    Box::new(SyntheticBackend::new(256, ElemKind::F64, test_value)),
                );
                Arc::new(fs)
            }
        };
        let world = World::new(4, test_model(2, 2));
        let fs = &fs;
        let var = &var;
        let ends = world.run(move |comm| {
            let file = fs.open("t.nc").expect("exists");
            let io = ObjectIo::new(vec![comm.rank() as u64, 0], vec![1, 64]);
            object_get_vara(comm, fs, &file, var, &io, &SumKernel)
                .report
                .end
        });
        ends.into_iter().max().expect("nonempty")
    };
    let clean = run(None);
    let faulty = run(Some(2));
    assert!(
        faulty > clean,
        "faulty run {faulty} should cost more than clean {clean}"
    );
}

/// A plain byte file striped over 4 OSTs, value = offset % 251.
fn byte_fs(size: usize) -> Arc<Pfs> {
    make_byte_fs(size, None)
}

fn make_byte_fs(size: usize, plan: Option<&FaultPlan>) -> Arc<Pfs> {
    let mut fs = Pfs::new(4, DiskModel::lustre_like());
    if let Some(p) = plan {
        fs = fs.with_fault_plan(p);
    }
    let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    fs.create(
        "raw",
        StripeLayout::round_robin(1024, 4, 0, 4),
        Box::new(cc_pfs::MemBackend::from_bytes(data)),
    );
    Arc::new(fs)
}

#[test]
fn rank_panic_mid_collective_aborts_world_quickly() {
    // Rank 2 dies between the request exchange and its shuffle receives;
    // the other ranks are left waiting on pieces that will never arrive.
    // The supervisor must unwind them and surface rank 2's panic well
    // under 5 s of wall clock — not after the 30 s test watchdog.
    let n = 4;
    let fs = byte_fs(8192);
    let t0 = Instant::now();
    let world = World::new(n, test_model(2, 2));
    let fs = &fs;
    let result = catch_unwind(AssertUnwindSafe(|| {
        world.run(move |comm| {
            let file = fs.open("raw").expect("exists");
            let req = OffsetList::contiguous(comm.rank() as u64 * 2048, 2048);
            if comm.rank() == 2 {
                // Join the request exchange so peers build a plan that
                // includes us, then die before serving our role in it.
                let _ = cc_mpiio::exchange::exchange_requests(comm, &req);
                panic!("rank 2 lost its marbles");
            }
            collective_read(comm, fs, &file, &req, &Hints::default()).0
        })
    }));
    let elapsed = t0.elapsed();
    let payload = result.expect_err("the world must abort");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("rank 2 panicked: rank 2 lost its marbles"),
        "abort must name the originating rank, got: {msg}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "abort took {elapsed:?}; the supervisor should beat the watchdog"
    );
}

#[test]
fn slow_ost_shifts_collective_read_timings_not_data() {
    // ISSUE acceptance: an injected 10x slow OST measurably shifts the
    // TwoPhaseReport read timings while the returned data stays bit-exact.
    let n = 4;
    let run = |plan: Option<FaultPlan>| {
        let fs = make_byte_fs(16384, plan.as_ref());
        let world = World::new(n, test_model(2, 2));
        let fs = &fs;
        world.run(move |comm| {
            let file = fs.open("raw").expect("exists");
            let req = OffsetList::contiguous(comm.rank() as u64 * 4096, 4096);
            collective_read(comm, fs, &file, &req, &Hints::default())
        })
    };
    let healthy = run(None);
    let degraded = run(Some(FaultPlan::new().slow_ost(0, 10.0)));
    for (r, (h, d)) in healthy.iter().zip(&degraded).enumerate() {
        assert_eq!(h.0, d.0, "rank {r}: data must be bit-exact under the fault");
        let expect: Vec<u8> = (r as u64 * 4096..(r as u64 + 1) * 4096)
            .map(|i| (i % 251) as u8)
            .collect();
        assert_eq!(d.0, expect, "rank {r}: data must match the oracle");
    }
    let read_total = |results: &[(Vec<u8>, cc_mpiio::TwoPhaseReport)]| -> SimTime {
        results.iter().map(|(_, rep)| rep.read_total()).sum()
    };
    assert!(
        read_total(&degraded) > read_total(&healthy),
        "slow OST must shift read timings: healthy {} degraded {}",
        read_total(&healthy),
        read_total(&degraded)
    );
}

#[test]
fn link_delay_fault_slows_the_shuffle() {
    let n = 4;
    let run = |model: cc_model::ClusterModel| {
        let fs = byte_fs(16384);
        let world = World::new(n, model);
        let fs = &fs;
        world.run(move |comm| {
            let file = fs.open("raw").expect("exists");
            let req = OffsetList::contiguous(comm.rank() as u64 * 4096, 4096);
            collective_read(comm, fs, &file, &req, &Hints::default())
                .1
                .end
        })
    };
    let healthy = run(test_model(2, 2));
    let delayed = run(test_model(2, 2).with_fault(FaultPlan::new().delay_all_links(0.5)));
    let end = |ends: &[SimTime]| ends.iter().copied().max().unwrap();
    assert!(
        end(&delayed) > end(&healthy) + SimTime::from_secs(0.4),
        "injected link delay must surface in the collective's end time: \
         healthy {} delayed {}",
        end(&healthy),
        end(&delayed)
    );
}

#[test]
fn results_stay_exact_under_combined_faults() {
    // Degraded OST + link jitter + a straggler, all at once: virtual time
    // stretches but the reduction over the data is still bit-exact.
    let shape = Shape::new(vec![4, 64]);
    let var = cc_array::Variable::new("v", shape.clone(), cc_array::DType::F64, 0);
    let plan = FaultPlan::new()
        .slow_ost(1, 8.0)
        .jitter(2e-3, 7)
        .straggle_rank(3, 3.0);
    let fs = {
        let fs = Pfs::new(4, DiskModel::lustre_like()).with_fault_plan(&plan);
        fs.create(
            "t.nc",
            StripeLayout::round_robin(1024, 4, 0, 4),
            Box::new(SyntheticBackend::new(256, ElemKind::F64, test_value)),
        );
        Arc::new(fs)
    };
    let world = World::new(4, test_model(2, 2).with_fault(plan));
    let fs = &fs;
    let var = &var;
    let results = world.run(move |comm| {
        let file = fs.open("t.nc").expect("exists");
        let io = ObjectIo::new(vec![comm.rank() as u64, 0], vec![1, 64]);
        object_get_vara(comm, fs, &file, var, &io, &SumKernel)
    });
    let expect: f64 = (0..256).map(test_value).sum();
    assert_close(
        results.into_iter().find_map(|o| o.global).expect("root")[0],
        expect,
        "sum under combined faults",
    );
}

#[test]
#[should_panic]
fn permanent_failure_aborts() {
    // fail_every = 1: every attempt fails; retries exhaust.
    let fs = Pfs::new(1, DiskModel::lustre_like()).with_retries(RetryPlan::every(
        1,
        SimTime::from_secs(0.01),
        3,
    ));
    fs.create(
        "t.nc",
        StripeLayout::round_robin(1024, 1, 0, 1),
        Box::new(SyntheticBackend::new(16, ElemKind::F64, test_value)),
    );
    let file = fs.open("t.nc").expect("exists");
    let _ = fs.read_at(&file, 0, 64, SimTime::ZERO);
}
