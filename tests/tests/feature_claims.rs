//! What each layer feature is *for*, pinned at small shapes against
//! library calls. That every variant moves bit-identical bytes is
//! `plan_equivalence.rs`'s job.

use std::sync::Arc;

use cc_model::{ClusterModel, CollectiveMode, DiskModel, SimTime, Topology};
use cc_mpi::{CommStats, World};
use cc_mpiio::{
    collective_read, collective_write, CollectivePlan, Compression, DomainPartition, ErrorBound,
    Extent, Hints, OffsetList, PipelineDepth, PlanSchedule, Striping,
};
use cc_pfs::{MemBackend, Pfs, StripeLayout};
use cc_service::{
    percentile_time, JobSpec, QosClass, Service, ServiceOutcome, ServicePolicy, TaskBatch,
};
use cc_workloads::{ManyTask, MixedTraffic};

/// `nprocs` ranks each requesting `per_rank` extents of `len` bytes,
/// rank-interleaved, so every collective-buffer chunk holds pieces for
/// every rank and the shuffle fans out across all nodes.
fn interleaved(nprocs: usize, per_rank: u64, len: u64) -> Vec<OffsetList> {
    let p = nprocs as u64;
    (0..p)
        .map(|r| {
            let extents = (0..per_rank).map(|k| Extent {
                offset: (r + k * p) * len,
                len,
            });
            OffsetList::new(extents.collect())
        })
        .collect()
}

/// A file system of `osts` OSTs holding `bytes` as file `"f"`, striped
/// round-robin over all of them in `unit`-byte stripes.
fn striped_fs(osts: usize, disk: DiskModel, unit: u64, bytes: Vec<u8>) -> Pfs {
    let fs = Pfs::new(osts, disk);
    fs.create(
        "f",
        StripeLayout::round_robin(unit, osts, 0, osts),
        Box::new(MemBackend::from_bytes(bytes)),
    );
    fs
}

/// One collective read of `requests` from `fs`'s file `"f"`: every rank's
/// bytes, the latest rank's end, and the comm counters merged over ranks.
fn read_all(
    fs: &Pfs,
    model: ClusterModel,
    requests: &[OffsetList],
    hints: &Hints,
) -> (Vec<Vec<u8>>, SimTime, CommStats) {
    let per_rank = World::new(requests.len(), model).run(|comm| {
        let file = fs.open("f").expect("exists");
        let (bytes, report) = collective_read(comm, fs, &file, &requests[comm.rank()], hints);
        (bytes, report.end, comm.stats())
    });
    let mut out = (Vec::new(), SimTime::ZERO, CommStats::default());
    for (bytes, end, stats) in per_rank {
        out.0.push(bytes);
        out.1 = out.1.max(end);
        out.2.merge(&stats);
    }
    out
}

#[test]
fn hierarchical_read_shuffle_cuts_inter_node_messages() {
    // 32 ranks on 4 nodes: a flat aggregator posts one inter-node message
    // per remote rank, a hierarchical one a frame per remote node.
    // Group-cyclic domains keep each aggregator on its own OSTs, so the
    // clocks do not depend on which thread books an OST first.
    let requests = interleaved(32, 16, 64);
    let data: Vec<u8> = (0..32 * 16 * 64).map(|i| (i % 251) as u8).collect();
    let hints = Hints {
        cb_buffer_size: 16 << 10,
        domain_partition: DomainPartition::GroupCyclic,
        ..Hints::default()
    };
    let run = |mode| {
        let fs = striped_fs(8, DiskModel::lustre_like(), 1 << 10, data.clone());
        let model = ClusterModel::hopper_like(4, 8).with_collectives(mode);
        read_all(&fs, model, &requests, &hints)
    };
    let (flat_bytes, flat_end, flat) = run(CollectiveMode::Flat);
    let (hier_bytes, hier_end, hier) = run(CollectiveMode::Auto);
    assert_eq!(flat_bytes, hier_bytes, "shuffle data diverged");
    let (flat_msgs, hier_msgs) = (flat.msgs_inter, hier.msgs_inter);
    assert!(hier_msgs * 4 <= flat_msgs, "{flat_msgs} -> {hier_msgs}");
    assert!(hier_end < flat_end, "flat {flat_end} won");
}

#[test]
fn group_cyclic_domains_cap_osts_per_aggregator_and_beat_the_convoy() {
    // 16 ranks on 4 nodes read dense slabs of a file striped over 8 OSTs.
    // Even domains are whole striping periods, so every aggregator's i-th
    // chunk hits the same OSTs; group-cyclic domains give each its own OST
    // slice. Each aggregator chains its covering reads from t = 0, as the
    // engines' I/O lanes do, through the shared OST queues.
    let (nprocs, nodes, osts, unit) = (16usize, 4usize, 8usize, 4u64 << 10);
    let slab = 4 * unit;
    let requests: Arc<Vec<OffsetList>> = Arc::new(
        (0..nprocs as u64)
            .map(|r| OffsetList::contiguous(r * slab, slab))
            .collect(),
    );
    let replay = |partition| {
        let bytes = vec![0; nprocs * slab as usize];
        let fs = striped_fs(osts, DiskModel::lustre_like(), unit, bytes);
        let file = fs.open("f").expect("exists");
        let hints = Hints {
            cb_buffer_size: 4 * unit,
            aggregators_per_node: 1,
            align_domains_to: None,
            domain_partition: partition,
            striping: Some(Striping { unit, factor: osts }),
            ..Hints::default()
        };
        let topo = Topology::new(nodes, nprocs / nodes);
        let plan = CollectivePlan::build(Arc::clone(&requests), &topo, nprocs, &hints);
        let schedule = PlanSchedule::compile(plan);
        let (mut end, mut max_osts, mut buf) = (SimTime::ZERO, 0, Vec::new());
        for a in 0..schedule.plan().aggregators.len() {
            let (mut t, mut touched) = (SimTime::ZERO, vec![false; osts]);
            for &it in schedule.active_iterations(a) {
                let ranges = schedule.read_ranges(a, it);
                t = fs.read_multi(&file, ranges[0].0, ranges, t, &mut buf);
                for &(lo, len) in ranges {
                    file.layout()
                        .map_range(lo, len)
                        .iter()
                        .for_each(|e| touched[e.ost] = true);
                }
            }
            end = end.max(t);
            max_osts = max_osts.max(touched.iter().filter(|&&b| b).count());
        }
        (end.secs(), max_osts, fs.ost_imbalance())
    };
    let (even_secs, _, even_imbalance) = replay(DomainPartition::Even);
    let (cyclic_secs, cyclic_osts, cyclic_imbalance) = replay(DomainPartition::GroupCyclic);
    let cap = osts.div_ceil(nodes) + 1;
    assert!(cyclic_osts <= cap, "{cyclic_osts} OSTs, cap {cap}");
    let speedup = even_secs / cyclic_secs;
    assert!(speedup > 1.3, "only {speedup:.2}x faster than even");
    assert!(cyclic_imbalance <= even_imbalance + 1e-9);
}

#[test]
fn lossy_frames_respect_the_bound_cut_the_wire_and_win_on_a_slow_link() {
    // 8 ranks on 2 nodes read and write 512-byte pieces of a smooth f64
    // field in [260, 340]; the rank interleave makes the shuffles cross
    // nodes, and group-cyclic domains give each aggregator its own OSTs, so
    // no clock depends on which thread books an OST first.
    let field = |i: u64| 300.0 + 40.0 * (i as f64 * 1e-3).sin();
    let requests = interleaved(8, 32, 512);
    let bytes: Vec<u8> = (0..8 * 32 * 512 / 8)
        .flat_map(|i| field(i).to_le_bytes())
        .collect();
    let lossy = Compression::ErrorBounded(ErrorBound::default());
    let fs = || striped_fs(4, DiskModel::lustre_like(), 4 << 10, bytes.clone());
    let hints = |compression| Hints {
        cb_buffer_size: 8 << 10,
        aggregators_per_node: 1,
        compression,
        domain_partition: DomainPartition::GroupCyclic,
        ..Hints::default()
    };
    let model = |link_slowdown: f64| {
        let mut model = ClusterModel::hopper_like(2, 4);
        model.net.bw_inter /= link_slowdown;
        model
    };
    let (got, _, stats) = read_all(&fs(), model(1.0), &requests, &hints(lossy));
    let mut max_err = 0.0f64;
    for (req, bytes) in requests.iter().zip(&got) {
        let elems = req.extents().iter().flat_map(|e| e.offset / 8..e.end() / 8);
        for (i, w) in elems.zip(bytes.chunks_exact(8)) {
            max_err = max_err.max((f64::from_le_bytes(w.try_into().unwrap()) - field(i)).abs());
        }
    }
    let bound = ErrorBound::default().resolve(260.0, 340.0);
    assert!(max_err <= bound + 1e-12, "read error {max_err:e}");
    let (logical, wire) = (stats.logical_inter, stats.bytes_inter);
    assert!(logical >= 3 * wire, "wire bytes {logical} -> {wire}");
    // Once the link is the bottleneck, fewer wire bytes are a faster clock,
    // for the read shuffle and the write-back alike.
    let read_end = |c| read_all(&fs(), model(256.0), &requests, &hints(c)).1;
    assert!(read_end(lossy) < read_end(Compression::Off));
    let write_end = |c| {
        let fs = fs();
        let ends = World::new(8, model(256.0)).run(|comm| {
            let (file, req) = (fs.open("f").expect("exists"), &requests[comm.rank()]);
            collective_write(comm, &fs, &file, req, &got[comm.rank()], &hints(c)).end
        });
        ends.into_iter().fold(SimTime::ZERO, SimTime::max)
    };
    assert!(write_end(lossy) < write_end(Compression::Off));
}

#[test]
fn double_buffering_overlaps_read_and_shuffle() {
    // 32 ranks on 8 nodes read 160-byte pieces through group-cyclic domains
    // over 16 OSTs: each aggregator's read and shuffle legs are comparable,
    // and a second staging buffer overlaps them.
    let requests = interleaved(32, 512, 160);
    let data: Vec<u8> = (0..32 * 512 * 160u64)
        .map(|o| (o.wrapping_mul(179) ^ (o >> 9)) as u8)
        .collect();
    let run = |nonblocking, pipeline_depth| {
        let fs = striped_fs(16, DiskModel::lustre_like(), 8 << 10, data.clone());
        let hints = Hints {
            cb_buffer_size: 32 << 10,
            aggregators_per_node: 1,
            nonblocking,
            pipeline_depth,
            domain_partition: DomainPartition::GroupCyclic,
            ..Hints::default()
        };
        read_all(&fs, ClusterModel::hopper_like(8, 4), &requests, &hints).1
    };
    let (sequential, double) = (
        run(false, PipelineDepth::Unbounded),
        run(true, PipelineDepth::Depth(2)),
    );
    let speedup = sequential.secs() / double.secs();
    assert!(speedup >= 1.5, "double buffering only {speedup:.2}x faster");
}

#[test]
fn service_beats_serial_chaining_and_shares_plans_across_jobs() {
    // 4 batch sweeps issuing one hyperslab shape plus 4 interactive ROI
    // queries, on 8 two-core nodes behind a shared backbone lane.
    let mut traffic = MixedTraffic::quick(4, 4);
    traffic.batch_nprocs = 4;
    traffic.interactive_nprocs = 2;
    let run = |jobs: Vec<JobSpec>, concurrent: bool| {
        let fs = traffic.build_fs(DiskModel::lustre_like());
        let mut svc = Service::new(ClusterModel::hopper_like(8, 2), fs).with_backbone(1e10);
        if concurrent {
            svc = svc.with_policy(ServicePolicy::QosWfq);
        }
        for spec in jobs {
            svc.submit(spec).expect("admits");
        }
        match concurrent {
            true => svc.run(),
            false => svc.run_serial(),
        }
    };
    let (concurrent, serial) = (run(traffic.jobs(), true), run(traffic.jobs(), false));
    // Scheduling moves when demand lands, never what a job computes.
    for (i, spec) in traffic.jobs().into_iter().enumerate() {
        let solo = run(vec![spec], true).jobs[0].checksum();
        assert_eq!(solo, concurrent.jobs[i].checksum(), "job {i} concurrent");
        assert_eq!(solo, serial.jobs[i].checksum(), "job {i} serial");
    }
    let speedup = serial.makespan.secs() / concurrent.makespan.secs();
    assert!(speedup >= 1.5, "only {speedup:.2}x over serial");
    // One lookup per job step: each of the four sweep steps compiles once
    // and the other three sweeps hit it; the four queries read distinct
    // rows and compile their own.
    let cache = concurrent.cache;
    let counts = (cache.lookups(), cache.misses, cache.cross_job_hits);
    assert_eq!(counts, (20, 8, 12), "cross-job reuse: {cache:?}");
    let p99 = |out: &ServiceOutcome| {
        let interactive = out.jobs.iter().filter(|j| j.class == QosClass::Interactive);
        percentile_time(interactive.map(|j| j.latency()).collect(), 99.0)
    };
    assert!(p99(&concurrent) <= p99(&serial));
}

#[test]
fn fused_tasks_cut_extents_and_amortize_compiles() {
    // 256 tiny tasks in 4 arrival waves of 2 kernel classes, on 16 ranks.
    let mut tasks = ManyTask::quick(256);
    tasks.nprocs = 16;
    let run = |fused: bool| {
        let fs = tasks.build_fs(DiskModel::lustre_like());
        let mut batch =
            TaskBatch::new(ClusterModel::hopper_like(8, 2), fs).with_policy(tasks.policy());
        for spec in tasks.specs() {
            batch.submit(spec).expect("admits");
        }
        match fused {
            true => batch.run_fused(),
            false => batch.run_independent(),
        }
    };
    let (fused, independent) = (run(true), run(false));
    assert_eq!(fused.bins.len(), 8, "4 waves x 2 kernel classes");
    let (fused_ext, indep_ext) = (fused.extents_served, independent.extents_served);
    assert!(indep_ext >= 10 * fused_ext, "{indep_ext} -> {fused_ext}");
    let busy_cut = independent.ost_busy_secs / fused.ost_busy_secs;
    assert!(busy_cut >= 10.0, "OST busy time only cut {busy_cut:.1}x");
    let task_bytes: u64 = fused.bins.iter().map(|b| b.task_bytes).sum();
    assert!(task_bytes as f64 > 1.5 * fused.bytes_read as f64);
    // One lookup per bin; the waves are shifted copies, so every bin
    // compiles its own schedule and serves its 32 tasks with it.
    assert_eq!(fused.plan_cache.fused_tasks, 256);
    assert_eq!(
        (fused.plan_cache.lookups(), fused.plan_cache.misses),
        (8, 8)
    );
    assert_eq!(fused.tasks_per_schedule(), 32.0);
}
