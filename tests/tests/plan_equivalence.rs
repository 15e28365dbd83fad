//! Engine-level oracle equivalence for the compiled planner.
//!
//! The in-crate property tests (`cc-mpiio::schedule`) prove every
//! `PlanSchedule` *answer* is bit-identical to the query-based
//! `CollectivePlan` oracle. These tests close the loop at the engine
//! level: on random request sets — empty ranks, sparse holes, aligned
//! domains — every engine that consumes a schedule (two-phase read,
//! collective write, the cc engine, the traditional baseline, and fused
//! kernels) must produce identical *results* whether the schedule is
//! compiled fresh each step or resolved through a plan cache shared
//! across the sweep, and those results must match a
//! planner-free oracle.

use std::sync::Arc;

use cc_array::{Hyperslab, Shape};
use cc_core::{
    object_get_vara, traditional_get_vara, FusedKernel, MinLocKernel, ObjectIo, SumKernel,
};
use cc_integration::{build_var_fs, oracle_min_loc, oracle_sum, test_model, test_value};
use cc_model::{CollectiveMode, DiskModel, FaultPlan, SimTime};
use cc_mpi::World;
use cc_mpiio::{
    collective_read, collective_write, independent_write, DomainPartition, Extent, Hints,
    OffsetList, PipelineDepth, PlanSchedule, PlanScope, SharedPlanCache,
};
use cc_pfs::backend::ElemKind;
use cc_pfs::{MemBackend, Pfs, StripeLayout, SyntheticBackend};
use proptest::prelude::*;

/// `world` with a [`PlanScope`] on `cache` for job `job` attached, and the
/// scope, whose counters are the world's lookups.
fn scoped(world: World, cache: &Arc<SharedPlanCache>, job: u64) -> (World, Arc<PlanScope>) {
    let scope = Arc::new(PlanScope::new(Arc::clone(cache), job));
    (world.attach(Arc::clone(&scope)), scope)
}

/// A random multi-rank, multi-step request workload: per rank a sparse
/// `(gap, len)` walk (possibly empty), swept over `steps` timesteps each
/// shifted by a constant, alignment-safe delta.
#[derive(Debug, Clone)]
struct ReqSweep {
    per_rank: Vec<Vec<(u64, u64)>>,
    cb: u64,
    align: Option<u64>,
    nodes: usize,
    steps: usize,
}

impl ReqSweep {
    fn nprocs(&self) -> usize {
        self.per_rank.len()
    }

    fn hints(&self) -> Hints {
        Hints {
            cb_buffer_size: self.cb,
            align_domains_to: self.align,
            ..Hints::default()
        }
    }

    /// Shift between consecutive steps — a multiple of the domain
    /// alignment, so every step partitions alike.
    fn step_delta(&self) -> u64 {
        257 * self.align.unwrap_or(1)
    }

    /// Rank `r`'s request at `step`.
    fn request(&self, r: usize, step: usize) -> OffsetList {
        let mut pos = step as u64 * self.step_delta();
        let mut extents = Vec::new();
        for &(gap, len) in &self.per_rank[r] {
            pos += gap + 1;
            extents.push(Extent { offset: pos, len });
            pos += len;
        }
        OffsetList::new(extents)
    }

    /// Rank `r`'s request at `step`, offset into a per-rank region so
    /// no two ranks ever write the same byte in one collective (the
    /// write engine rejects overlapping writes).
    fn request_disjoint(&self, r: usize, step: usize) -> OffsetList {
        OffsetList::new(
            self.request(r, step)
                .extents()
                .iter()
                .map(|e| Extent {
                    offset: e.offset + r as u64 * Self::REGION,
                    len: e.len,
                })
                .collect(),
        )
    }

    /// Per-rank region span for [`Self::request_disjoint`]: larger than
    /// any walk can reach within one step.
    const REGION: u64 = 16_384;

    /// Bytes a file must hold to cover every rank's every step.
    fn file_size(&self) -> u64 {
        let mut size = 64u64;
        for r in 0..self.nprocs() {
            for step in 0..self.steps {
                for e in self.request(r, step).extents() {
                    size = size.max(e.end());
                }
            }
        }
        size + 8
    }
}

fn arb_sweep() -> impl Strategy<Value = ReqSweep> {
    (
        proptest::collection::vec(proptest::collection::vec((0u64..200, 0u64..40), 0..8), 1..5),
        4u64..10,
        proptest::option::of(1u64..96),
        1usize..3,
        2usize..4,
    )
        .prop_map(|(per_rank, cb_log, align, nodes, steps)| ReqSweep {
            per_rank,
            cb: 1 << cb_log,
            align,
            nodes,
            steps,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two-phase read: fresh per-step compiles and a cache shared across
    /// the sweep return the identical bytes, and the bytes are exactly
    /// what the backend holds at the requested extents.
    #[test]
    fn prop_read_cached_sweep_equals_fresh_and_backend(sweep in arb_sweep()) {
        let nprocs = sweep.nprocs();
        let size = sweep.file_size();
        let elems = size.div_ceil(8);
        let fs = Pfs::new(4, DiskModel::lustre_like());
        fs.create(
            "t.nc",
            StripeLayout::round_robin(1 << 9, 4, 0, 4),
            Box::new(SyntheticBackend::new(elems, ElemKind::F64, test_value)),
        );
        let fs = Arc::new(fs);
        let world = || World::new(nprocs, test_model(sweep.nodes, nprocs.div_ceil(sweep.nodes)));
        let read_sweep = |comm: &mut cc_mpi::Comm| -> Vec<Vec<u8>> {
            let file = fs.open("t.nc").expect("exists");
            let hints = sweep.hints();
            (0..sweep.steps)
                .map(|step| {
                    let req = sweep.request(comm.rank(), step);
                    collective_read(comm, &fs, &file, &req, &hints).0
                })
                .collect()
        };
        let fresh = world().run(read_sweep);
        let (cached_world, scope) = scoped(world(), &Arc::default(), 0);
        let cached = cached_world.run(read_sweep);
        let oracle = SyntheticBackend::new(elems, ElemKind::F64, test_value);
        let mut all_match = fresh == cached;
        for (rank, steps) in fresh.iter().enumerate() {
            for (step, bytes) in steps.iter().enumerate() {
                // Planner-free oracle: the backend's bytes, extent by extent.
                let req = sweep.request(rank, step);
                let mut at = 0usize;
                for e in req.extents() {
                    let mut expect = vec![0u8; e.len as usize];
                    oracle.fill_range(e.offset, &mut expect);
                    all_match &= bytes[at..at + e.len as usize] == expect[..];
                    at += e.len as usize;
                }
                all_match &= at == bytes.len();
            }
        }
        // The world's scope saw one lookup per step, not one per rank.
        all_match &= scope.stats().lookups() == sweep.steps as u64;
        prop_assert!(all_match, "read sweep diverged");
    }

    /// Collective write: a sweep written collectively lands the
    /// byte-identical file as the same sweep written independently (every
    /// rank its own extents, no planner), and both match the expected
    /// overwrite of the zeroed file.
    #[test]
    fn prop_write_sweep_equals_independent_and_expected(sweep in arb_sweep()) {
        let nprocs = sweep.nprocs();
        let size = sweep.file_size() + nprocs as u64 * ReqSweep::REGION;
        let value_at = |o: u64| (o.wrapping_mul(131) ^ (o >> 5)) as u8;
        let fs = Pfs::new(4, DiskModel::lustre_like());
        for name in ["collective.nc", "independent.nc"] {
            fs.create(
                name,
                StripeLayout::round_robin(1 << 9, 4, 0, 4),
                Box::new(MemBackend::zeroed(size as usize)),
            );
        }
        let fs = Arc::new(fs);
        let world = World::new(nprocs, test_model(sweep.nodes, nprocs.div_ceil(sweep.nodes)));
        {
            let fs = &fs;
            let sweep_ref = &sweep;
            world.run(move |comm| {
                let collective_file = fs.open("collective.nc").expect("exists");
                let independent_file = fs.open("independent.nc").expect("exists");
                let hints = sweep_ref.hints();
                for step in 0..sweep_ref.steps {
                    let req = sweep_ref.request_disjoint(comm.rank(), step);
                    let data: Vec<u8> = req
                        .extents()
                        .iter()
                        .flat_map(|e| (e.offset..e.end()).map(value_at))
                        .collect();
                    collective_write(comm, fs, &collective_file, &req, &data, &hints);
                    independent_write(comm, fs, &independent_file, &req, &data);
                }
            });
        }
        let collective_file = fs.open("collective.nc").expect("exists");
        let independent_file = fs.open("independent.nc").expect("exists");
        let (fresh_bytes, _) = fs.read_at(&collective_file, 0, size, SimTime::ZERO);
        let (independent_bytes, _) = fs.read_at(&independent_file, 0, size, SimTime::ZERO);
        prop_assert_eq!(&fresh_bytes, &independent_bytes, "collective write sweep diverged");
        // Planner-free oracle: zeros, overwritten wherever any rank wrote.
        let mut expect = vec![0u8; size as usize];
        for r in 0..nprocs {
            for step in 0..sweep.steps {
                for e in sweep.request_disjoint(r, step).extents() {
                    for o in e.offset..e.end() {
                        expect[o as usize] = value_at(o);
                    }
                }
            }
        }
        prop_assert_eq!(&fresh_bytes, &expect, "written file diverged from oracle");
    }

    /// Hierarchical comm variant: the same random sweep, read *and*
    /// written under [`CollectiveMode::Flat`] and
    /// [`CollectiveMode::Auto`], must move bit-identical bytes.
    /// The topology is forced multi-node so leader relay/coalesce paths
    /// actually engage (single-node worlds fall back to flat).
    #[test]
    fn prop_hierarchical_shuffle_equals_flat(sweep in arb_sweep()) {
        let nprocs = sweep.nprocs();
        let nodes = sweep.nodes + 1; // >= 2 nodes
        let size = sweep.file_size() + nprocs as u64 * ReqSweep::REGION;
        let value_at = |o: u64| (o.wrapping_mul(193) ^ (o >> 3)) as u8;
        let mut reads: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut files: Vec<Vec<u8>> = Vec::new();
        for mode in [CollectiveMode::Flat, CollectiveMode::Auto] {
            let fs = Pfs::new(4, DiskModel::lustre_like());
            fs.create(
                "t.nc",
                StripeLayout::round_robin(1 << 9, 4, 0, 4),
                Box::new(MemBackend::from_bytes(
                    (0..size).map(value_at).collect(),
                )),
            );
            fs.create(
                "out.nc",
                StripeLayout::round_robin(1 << 9, 4, 0, 4),
                Box::new(MemBackend::zeroed(size as usize)),
            );
            let fs = Arc::new(fs);
            let model = test_model(nodes, nprocs.div_ceil(nodes)).with_collectives(mode);
            let world = World::new(nprocs, model);
            let per_rank = {
                let fs = &fs;
                let sweep_ref = &sweep;
                world.run(move |comm| {
                    let file = fs.open("t.nc").expect("exists");
                    let out = fs.open("out.nc").expect("exists");
                    let hints = sweep_ref.hints();
                    let mut got = Vec::new();
                    for step in 0..sweep_ref.steps {
                        let req = sweep_ref.request(comm.rank(), step);
                        let (bytes, _) = collective_read(comm, fs, &file, &req, &hints);
                        let wreq = sweep_ref.request_disjoint(comm.rank(), step);
                        let data: Vec<u8> = wreq
                            .extents()
                            .iter()
                            .flat_map(|e| (e.offset..e.end()).map(value_at))
                            .collect();
                        collective_write(comm, fs, &out, &wreq, &data, &hints);
                        got.push(bytes);
                    }
                    got
                })
            };
            reads.push(per_rank.into_iter().flatten().collect());
            let out = fs.open("out.nc").expect("exists");
            let (file_bytes, _) = fs.read_at(&out, 0, size, SimTime::ZERO);
            files.push(file_bytes);
        }
        prop_assert_eq!(&reads[0], &reads[1], "hierarchical read bytes diverged from flat");
        prop_assert_eq!(&files[0], &files[1], "hierarchical written file diverged from flat");
    }

    /// Domain-partition strategies only redistribute *which aggregator*
    /// serves which bytes: on a random sweep over a randomly-striped file,
    /// Even, StripeAligned, and GroupCyclic must return bit-identical read
    /// buffers and land bit-identical written files — reads through the
    /// plan cache's paths included.
    #[test]
    fn prop_partition_strategies_agree_bitwise(
        sweep in arb_sweep(),
        stripe_log in 5u64..11,
        stripe_count in 1usize..5,
    ) {
        let nprocs = sweep.nprocs();
        let size = sweep.file_size() + nprocs as u64 * ReqSweep::REGION;
        let value_at = |o: u64| (o.wrapping_mul(167) ^ (o >> 4)) as u8;
        let mut reads: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut files: Vec<Vec<u8>> = Vec::new();
        for partition in [
            DomainPartition::Even,
            DomainPartition::StripeAligned,
            DomainPartition::GroupCyclic,
        ] {
            let fs = Pfs::new(4, DiskModel::lustre_like());
            for (name, backend) in [
                (
                    "t.nc",
                    MemBackend::from_bytes((0..size).map(value_at).collect()),
                ),
                ("out.nc", MemBackend::zeroed(size as usize)),
            ] {
                fs.create(
                    name,
                    StripeLayout::round_robin(1 << stripe_log, stripe_count, 0, 4),
                    Box::new(backend),
                );
            }
            let fs = Arc::new(fs);
            let world =
                World::new(nprocs, test_model(sweep.nodes, nprocs.div_ceil(sweep.nodes)));
            let (world, _) = scoped(world, &Arc::default(), 0);
            let per_rank = {
                let fs = &fs;
                let sweep_ref = &sweep;
                world.run(move |comm| {
                    let file = fs.open("t.nc").expect("exists");
                    let out = fs.open("out.nc").expect("exists");
                    let hints = Hints {
                        domain_partition: partition,
                        ..sweep_ref.hints()
                    };
                    let mut got = Vec::new();
                    for step in 0..sweep_ref.steps {
                        let req = sweep_ref.request(comm.rank(), step);
                        let (bytes, _) = collective_read(comm, fs, &file, &req, &hints);
                        let wreq = sweep_ref.request_disjoint(comm.rank(), step);
                        let data: Vec<u8> = wreq
                            .extents()
                            .iter()
                            .flat_map(|e| (e.offset..e.end()).map(value_at))
                            .collect();
                        collective_write(comm, fs, &out, &wreq, &data, &hints);
                        got.push(bytes);
                    }
                    got
                })
            };
            reads.push(per_rank.into_iter().flatten().collect());
            let out = fs.open("out.nc").expect("exists");
            let (file_bytes, _) = fs.read_at(&out, 0, size, SimTime::ZERO);
            files.push(file_bytes);
        }
        prop_assert_eq!(&reads[0], &reads[1], "StripeAligned read bytes diverged from Even");
        prop_assert_eq!(&reads[0], &reads[2], "GroupCyclic read bytes diverged from Even");
        prop_assert_eq!(&files[0], &files[1], "StripeAligned written file diverged from Even");
        prop_assert_eq!(&files[0], &files[2], "GroupCyclic written file diverged from Even");
    }
}

/// A shape-based config for the kernel engines: row-blocked selections
/// with room for a shifted second step.
#[derive(Debug, Clone)]
struct KernelConfig {
    shape: Shape,
    nprocs: usize,
    cb: u64,
}

fn arb_kernel_config() -> impl Strategy<Value = KernelConfig> {
    (
        1usize..5,
        proptest::collection::vec(1u64..6, 1..3),
        5u64..12,
    )
        .prop_map(|(nprocs, extra, cb_log)| {
            // dims[0] holds two disjoint nprocs-sized row bands, so step 1
            // is step 0 shifted by a constant byte delta.
            let mut dims = vec![nprocs as u64 * 4];
            dims.extend(extra.iter().map(|&d| d * 4));
            KernelConfig {
                shape: Shape::new(dims),
                nprocs,
                cb: 1 << cb_log,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The cc engine, the traditional baseline, and a fused kernel must
    /// all agree with the planner-free oracle — and the cc engine must
    /// return identical partials whether each step compiles fresh or the
    /// steps share one plan cache (step 1 is step 0 shifted).
    #[test]
    fn prop_engines_equal_oracle_fresh_and_cached(cfg in arb_kernel_config()) {
        let (fs, var) = build_var_fs(&cfg.shape, 512, 4, 8);
        let world = || World::new(cfg.nprocs, test_model(1, cfg.nprocs));
        let (fs, var) = (&fs, &var);
        let band = cfg.shape.dims()[0] / 2;
        let per = band / cfg.nprocs as u64;
        let io_for = |rank: usize, step: u64| {
            let mut start = vec![0; cfg.shape.rank()];
            let mut count = cfg.shape.dims().to_vec();
            start[0] = step * band + rank as u64 * per;
            count[0] = per;
            ObjectIo::new(start, count).hints(Hints {
                cb_buffer_size: cfg.cb,
                ..Hints::default()
            })
        };
        let fused = FusedKernel::new(vec![&SumKernel, &MinLocKernel]);
        // Unscoped: each step compiles fresh for the sum, the baseline
        // (reduced at root 0) and the min-location kernel.
        let fresh = world().run(|comm| {
            let file = fs.open("t.nc").expect("exists");
            (0..2u64)
                .map(|step| {
                    let io = io_for(comm.rank(), step);
                    let sum = object_get_vara(comm, fs, &file, var, &io, &SumKernel);
                    let slab = Hyperslab::new(io.start.clone(), io.count.clone());
                    let (base_global, _, _) = traditional_get_vara(
                        comm, fs, &file, var, &slab, &io.hints, &SumKernel, 0,
                    );
                    let minloc = object_get_vara(comm, fs, &file, var, &io, &MinLocKernel);
                    (sum.global_partial, base_global, minloc.global_partial)
                })
                .collect::<Vec<_>>()
        });
        // Scoped: the same sums, and the fused kernel, through one cache.
        let (cached_world, scope) = scoped(world(), &Arc::default(), 0);
        let cached = cached_world.run(|comm| {
            let file = fs.open("t.nc").expect("exists");
            (0..2u64)
                .map(|step| {
                    let io = io_for(comm.rank(), step);
                    let sum = object_get_vara(comm, fs, &file, var, &io, &SumKernel);
                    let fused_out = object_get_vara(comm, fs, &file, var, &io, &fused);
                    (sum, fused_out.global_partial)
                })
                .collect::<Vec<_>>()
        });
        let mut results = Vec::new();
        for (fresh, cached) in fresh.iter().zip(&cached) {
            let mut sums = Vec::new();
            let mut fused_ok = true;
            for ((sum_fresh, base_global, minloc), (sum, fused_partial)) in fresh.iter().zip(cached) {
                prop_assert_eq!(
                    sum_fresh, &sum.global_partial,
                    "cached cc partial diverged from fresh"
                );
                // Fused kernel through the cached path: its split
                // components must equal the dedicated kernels' answers.
                if let (Some(fp), Some(sp), Some(mp)) = (fused_partial, &sum.global_partial, minloc) {
                    let parts = fused.split(fp);
                    fused_ok &= parts == vec![sp.clone(), mp.clone()];
                }
                sums.push((
                    sum.global.as_ref().map(|g| g[0]),
                    base_global.as_ref().map(|g| g[0]),
                    fused_partial.is_some(),
                ));
            }
            results.push((sums, fused_ok));
        }
        // Root-side checks: each step's sum equals the oracle, from every
        // engine; the fused split matched on whichever rank held a global.
        let band = cfg.shape.dims()[0] / 2;
        for step in 0..2u64 {
            let mut count = cfg.shape.dims().to_vec();
            let mut start = vec![0; cfg.shape.rank()];
            start[0] = step * band;
            count[0] = band;
            let slab = Hyperslab::new(start, count);
            let expect = oracle_sum(&cfg.shape, &slab);
            let (cc, base, fused_root) = results
                .iter()
                .find_map(|(sums, _)| {
                    let s = &sums[step as usize];
                    s.0.map(|cc| (cc, s.1, s.2))
                })
                .expect("some rank holds the global");
            prop_assert!((cc - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "cc {cc} != oracle {expect}");
            let base = base.expect("baseline reduces to the same root");
            prop_assert!((base - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "baseline {base} != oracle {expect}");
            prop_assert!(fused_root, "fused global missing");
        }
        prop_assert!(results.iter().all(|(_, ok)| *ok), "fused split diverged");
        // One compile per step for the sum kernel's selection, which the
        // fused pass then hits — same selection, same hints.
        let stats = scope.stats();
        prop_assert_eq!((stats.misses, stats.hits), (2, 2), "cache: {:?}", stats);
        // Sanity: oracle_min_loc agrees with the dedicated kernel's own
        // tests elsewhere; here it pins the fused component semantics.
        let _ = oracle_min_loc(&cfg.shape, &Hyperslab::whole(&cfg.shape));
    }
}

/// A step's `(sum_global, fused_global)` pair — present on the rank that
/// holds the reduction root.
type KernelGlobals = (Option<Vec<f64>>, Option<Vec<f64>>);

/// The staging-depth variants every engine must agree across: blocking
/// mode (a one-buffer ring), and nonblocking mode at ring depths 2
/// (double buffer), 3, and unbounded (the historical engine behavior).
const DEPTHS: [(&str, bool, PipelineDepth); 4] = [
    ("blocking", false, PipelineDepth::Unbounded),
    ("depth-2", true, PipelineDepth::Depth(2)),
    ("depth-3", true, PipelineDepth::Depth(3)),
    ("unbounded", true, PipelineDepth::Unbounded),
];

fn with_depth(base: &Hints, nonblocking: bool, depth: PipelineDepth) -> Hints {
    Hints {
        nonblocking,
        pipeline_depth: depth,
        ..base.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Software pipelining reorders *when* staging buffers are filled,
    /// never *what* they carry: on a random sweep, every staging depth —
    /// under flat and hierarchical shuffles alike — must return the
    /// bit-identical read buffers and land the bit-identical written file.
    #[test]
    fn prop_pipeline_depths_move_identical_bytes(sweep in arb_sweep()) {
        let nprocs = sweep.nprocs();
        let nodes = sweep.nodes + 1; // >= 2 nodes so hierarchy engages
        let size = sweep.file_size() + nprocs as u64 * ReqSweep::REGION;
        let value_at = |o: u64| (o.wrapping_mul(211) ^ (o >> 6)) as u8;
        let mut baseline: Option<(Vec<Vec<u8>>, Vec<u8>)> = None;
        for mode in [CollectiveMode::Flat, CollectiveMode::Auto] {
            for (label, nonblocking, depth) in DEPTHS {
                let fs = Pfs::new(4, DiskModel::lustre_like());
                fs.create(
                    "t.nc",
                    StripeLayout::round_robin(1 << 9, 4, 0, 4),
                    Box::new(MemBackend::from_bytes((0..size).map(value_at).collect())),
                );
                fs.create(
                    "out.nc",
                    StripeLayout::round_robin(1 << 9, 4, 0, 4),
                    Box::new(MemBackend::zeroed(size as usize)),
                );
                let fs = Arc::new(fs);
                let model = test_model(nodes, nprocs.div_ceil(nodes)).with_collectives(mode);
                let world = World::new(nprocs, model);
                let per_rank = {
                    let fs = &fs;
                    let sweep_ref = &sweep;
                    world.run(move |comm| {
                        let file = fs.open("t.nc").expect("exists");
                        let out = fs.open("out.nc").expect("exists");
                        let hints = with_depth(&sweep_ref.hints(), nonblocking, depth);
                        let mut got = Vec::new();
                        for step in 0..sweep_ref.steps {
                            let req = sweep_ref.request(comm.rank(), step);
                            let (bytes, _) = collective_read(comm, fs, &file, &req, &hints);
                            let wreq = sweep_ref.request_disjoint(comm.rank(), step);
                            let data: Vec<u8> = wreq
                                .extents()
                                .iter()
                                .flat_map(|e| (e.offset..e.end()).map(value_at))
                                .collect();
                            collective_write(comm, fs, &out, &wreq, &data, &hints);
                            got.push(bytes);
                        }
                        got
                    })
                };
                let reads: Vec<Vec<u8>> = per_rank.into_iter().flatten().collect();
                let out = fs.open("out.nc").expect("exists");
                let (file_bytes, _) = fs.read_at(&out, 0, size, SimTime::ZERO);
                match &baseline {
                    None => baseline = Some((reads, file_bytes)),
                    Some((base_reads, base_file)) => {
                        prop_assert_eq!(
                            base_reads, &reads,
                            "{} {:?} read bytes diverged from blocking flat", label, mode
                        );
                        prop_assert_eq!(
                            base_file, &file_bytes,
                            "{} {:?} written file diverged from blocking flat", label, mode
                        );
                    }
                }
            }
        }
    }

    /// The cc engine drains its staging ring through the map kernel: at
    /// every depth the kernel must see the iterations in the same order
    /// with the same bytes, so globals are exactly equal — not merely
    /// close — and still match the planner-free oracle.
    #[test]
    fn prop_cc_engine_depths_agree_exactly(cfg in arb_kernel_config()) {
        let (fs, var) = build_var_fs(&cfg.shape, 512, 4, 8);
        let band = cfg.shape.dims()[0] / 2;
        let per = band / cfg.nprocs as u64;
        let mut baseline: Option<Vec<KernelGlobals>> = None;
        for (label, nonblocking, depth) in DEPTHS {
            let world = World::new(cfg.nprocs, test_model(1, cfg.nprocs));
            let fs = &fs;
            let var = &var;
            let cfg_ref = &cfg;
            let results = world.run(move |comm| {
                let file = fs.open("t.nc").expect("exists");
                let fused = FusedKernel::new(vec![&SumKernel, &MinLocKernel]);
                let mut per_step = Vec::new();
                for step in 0..2u64 {
                    let mut start = vec![0; cfg_ref.shape.rank()];
                    let mut count = cfg_ref.shape.dims().to_vec();
                    start[0] = step * band + comm.rank() as u64 * per;
                    count[0] = per;
                    let io = ObjectIo::new(start, count).hints(with_depth(
                        &Hints {
                            cb_buffer_size: cfg_ref.cb,
                            ..Hints::default()
                        },
                        nonblocking,
                        depth,
                    ));
                    let sum = object_get_vara(comm, fs, &file, var, &io, &SumKernel);
                    let both = object_get_vara(comm, fs, &file, var, &io, &fused);
                    per_step.push((sum.global, both.global));
                }
                per_step
            });
            let flat: Vec<_> = results.into_iter().flatten().collect();
            match &baseline {
                None => baseline = Some(flat),
                Some(base) => prop_assert_eq!(
                    base, &flat,
                    "{} kernel globals diverged from blocking", label
                ),
            }
        }
        // The depth sweep agreed with itself; pin it to the oracle too.
        let globals = baseline.expect("at least one depth ran");
        for step in 0..2u64 {
            let mut start = vec![0; cfg.shape.rank()];
            let mut count = cfg.shape.dims().to_vec();
            start[0] = step * band;
            count[0] = band;
            let slab = Hyperslab::new(start, count);
            let expect = oracle_sum(&cfg.shape, &slab);
            let got = globals
                .iter()
                .skip(step as usize)
                .step_by(2)
                .find_map(|(sum, _)| sum.as_ref())
                .expect("some rank holds the global")[0];
            prop_assert!(
                (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "step {} sum {} != oracle {}", step, got, expect
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lossless wire compression is a pure transport change: on a random
    /// sweep, `Compression::Off` and `Compression::Lossless` must return
    /// bit-identical read buffers and land bit-identical written files,
    /// under flat and hierarchical shuffles and across staging depths.
    #[test]
    fn prop_lossless_compression_moves_identical_bytes(sweep in arb_sweep()) {
        use cc_mpiio::Compression;
        let nprocs = sweep.nprocs();
        let nodes = sweep.nodes + 1; // >= 2 nodes so inter-node lanes engage
        let size = sweep.file_size() + nprocs as u64 * ReqSweep::REGION;
        let value_at = |o: u64| (o.wrapping_mul(227) ^ (o >> 5)) as u8;
        let mut baseline: Option<(Vec<Vec<u8>>, Vec<u8>)> = None;
        for mode in [CollectiveMode::Flat, CollectiveMode::Auto] {
            for compression in [Compression::Off, Compression::Lossless] {
                for (_, nonblocking, depth) in
                    [DEPTHS[0], DEPTHS[1], DEPTHS[3]]
                {
                    let fs = Pfs::new(4, DiskModel::lustre_like());
                    fs.create(
                        "t.nc",
                        StripeLayout::round_robin(1 << 9, 4, 0, 4),
                        Box::new(MemBackend::from_bytes((0..size).map(value_at).collect())),
                    );
                    fs.create(
                        "out.nc",
                        StripeLayout::round_robin(1 << 9, 4, 0, 4),
                        Box::new(MemBackend::zeroed(size as usize)),
                    );
                    let fs = Arc::new(fs);
                    let model =
                        test_model(nodes, nprocs.div_ceil(nodes)).with_collectives(mode);
                    let world = World::new(nprocs, model);
                    let per_rank = {
                        let fs = &fs;
                        let sweep_ref = &sweep;
                        world.run(move |comm| {
                            let file = fs.open("t.nc").expect("exists");
                            let out = fs.open("out.nc").expect("exists");
                            let hints = Hints {
                                compression,
                                ..with_depth(&sweep_ref.hints(), nonblocking, depth)
                            };
                            let mut got = Vec::new();
                            for step in 0..sweep_ref.steps {
                                let req = sweep_ref.request(comm.rank(), step);
                                let (bytes, _) =
                                    collective_read(comm, fs, &file, &req, &hints);
                                let wreq = sweep_ref.request_disjoint(comm.rank(), step);
                                let data: Vec<u8> = wreq
                                    .extents()
                                    .iter()
                                    .flat_map(|e| (e.offset..e.end()).map(value_at))
                                    .collect();
                                collective_write(comm, fs, &out, &wreq, &data, &hints);
                                got.push(bytes);
                            }
                            got
                        })
                    };
                    let reads: Vec<Vec<u8>> = per_rank.into_iter().flatten().collect();
                    let out = fs.open("out.nc").expect("exists");
                    let (file_bytes, _) = fs.read_at(&out, 0, size, SimTime::ZERO);
                    match &baseline {
                        None => baseline = Some((reads, file_bytes)),
                        Some((base_reads, base_file)) => {
                            prop_assert_eq!(
                                base_reads, &reads,
                                "{:?} {:?} read bytes diverged", compression, mode
                            );
                            prop_assert_eq!(
                                base_file, &file_bytes,
                                "{:?} {:?} written file diverged", compression, mode
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Error-bounded hints must never flip a selection kernel's winner: the
/// engine clamps lossy compression to lossless for exact-tolerance
/// kernels (min/max and the located variants). The field is adversarial —
/// a near-flat ramp whose step (1e-7) is far below the requested bound
/// (1e-3), so an actually-lossy shuffle would collapse thousands of
/// near-ties onto shared reconstructions and report a wrong winner or a
/// wrong index. Both the collective-computing path and the blocking
/// (traditional, raw-field-shuffling) path are pinned, under flat and
/// hierarchical collectives.
#[test]
fn error_bounded_hints_never_flip_selection_winners() {
    use cc_core::{MaxLocKernel, MinKernel};
    use cc_mpiio::{Compression, ErrorBound};

    const N: u64 = 4096;
    let value = |i: u64| 500.0 - i as f64 * 1e-7;
    let nprocs = 4;
    let bytes: Vec<u8> = (0..N).flat_map(|i| value(i).to_le_bytes()).collect();
    for mode in [CollectiveMode::Flat, CollectiveMode::Auto] {
        for blocking in [false, true] {
            let fs = Pfs::new(4, DiskModel::lustre_like());
            fs.create(
                "t.nc",
                StripeLayout::round_robin(1 << 9, 4, 0, 4),
                Box::new(MemBackend::from_bytes(bytes.clone())),
            );
            let fs = Arc::new(fs);
            let var = cc_array::Variable::new("v", Shape::new(vec![N]), cc_array::DType::F64, 0);
            let model = test_model(2, nprocs / 2).with_collectives(mode);
            let world = World::new(nprocs, model);
            let results = {
                let fs = &fs;
                let var = &var;
                world.run(move |comm| {
                    let file = fs.open("t.nc").expect("exists");
                    let per = N / nprocs as u64;
                    let start = vec![comm.rank() as u64 * per];
                    let count = vec![per];
                    let io = ObjectIo::new(start, count).blocking(blocking).hints(Hints {
                        cb_buffer_size: 2048,
                        compression: Compression::ErrorBounded(ErrorBound::absolute(1e-3)),
                        ..Hints::default()
                    });
                    let minloc = object_get_vara(comm, fs, &file, var, &io, &MinLocKernel);
                    let maxloc = object_get_vara(comm, fs, &file, var, &io, &MaxLocKernel);
                    let min = object_get_vara(comm, fs, &file, var, &io, &MinKernel);
                    (minloc.global, maxloc.global, min.global)
                })
            };
            let (minloc, maxloc, min) = results
                .iter()
                .find_map(|(a, b, c)| {
                    a.clone()
                        .map(|a| (a, b.clone().unwrap(), c.clone().unwrap()))
                })
                .expect("root holds the globals");
            // The ramp decreases: exact min is the last element, exact max
            // the first — value *and* index must be exact to the bit.
            assert_eq!(
                minloc[0].to_bits(),
                value(N - 1).to_bits(),
                "minloc value ({mode:?}, blocking={blocking})"
            );
            assert_eq!(
                minloc[1],
                (N - 1) as f64,
                "minloc index ({mode:?}, blocking={blocking})"
            );
            assert_eq!(
                maxloc[0].to_bits(),
                value(0).to_bits(),
                "maxloc value ({mode:?}, blocking={blocking})"
            );
            assert_eq!(
                maxloc[1], 0.0,
                "maxloc index ({mode:?}, blocking={blocking})"
            );
            assert_eq!(
                min[0].to_bits(),
                value(N - 1).to_bits(),
                "min value ({mode:?}, blocking={blocking})"
            );
        }
    }
}

/// A deterministic single-aggregator read workload: one node, so exactly
/// one rank books OST intervals and the virtual clock is reproducible
/// across runs (multi-aggregator timing depends on wall-clock booking
/// races, which backfill keeps *fair* but not *replayable*).
fn single_aggregator_sweep(
    nonblocking: bool,
    depth: PipelineDepth,
    plan: Option<FaultPlan>,
) -> Vec<(Vec<u8>, SimTime, SimTime)> {
    const NPROCS: usize = 4;
    const PER_RANK: u64 = 8 << 10;
    let size = NPROCS as u64 * PER_RANK;
    let value_at = |o: u64| (o.wrapping_mul(151) ^ (o >> 7)) as u8;
    let mut fs = Pfs::new(4, DiskModel::lustre_like());
    if let Some(p) = &plan {
        fs = fs.with_fault_plan(p);
    }
    fs.create(
        "t.nc",
        StripeLayout::round_robin(1 << 9, 4, 0, 4),
        Box::new(MemBackend::from_bytes((0..size).map(value_at).collect())),
    );
    let fs = Arc::new(fs);
    let mut model = test_model(1, NPROCS);
    if let Some(p) = plan {
        model = model.with_fault(p);
    }
    let world = World::new(NPROCS, model);
    let fs = &fs;
    world.run(move |comm| {
        let file = fs.open("t.nc").expect("exists");
        // 2 KiB collective buffer over a 32 KiB file: 16 pipelined
        // iterations, so staging depth has room to matter.
        let hints = with_depth(
            &Hints {
                cb_buffer_size: 2 << 10,
                ..Hints::default()
            },
            nonblocking,
            depth,
        );
        let req = OffsetList::contiguous(comm.rank() as u64 * PER_RANK, PER_RANK);
        let (bytes, report) = collective_read(comm, fs, &file, &req, &hints);
        (bytes, report.start, report.end)
    })
}

/// The aggregator engines whose staging loops the goldens below pin.
#[derive(Debug, Clone, Copy)]
enum Engine {
    Read,
    Write,
    Cc,
}

/// Runs one `engine` call on every rank of a fresh world and returns every
/// clock it reports, in rank order: the rank's `end`, then its
/// per-iteration timings (empty off the aggregators) and its activity
/// segments. The flat shape is one node of 4 ranks, each owning an
/// 8 KiB row of a `[4, 1024]` f64 variable, staged through 2 KiB buffers:
/// one aggregator, 16 iterations. The hierarchical shape is 8 nodes of 4
/// ranks on the Hopper-like model, each rank owning a 20-column band of a
/// `[128, 640]` variable, so 160-byte pieces interleave across every rank
/// and the relay and frame paths carry the shuffle; group-cyclic domains
/// over 16 OSTs give each node's aggregator private OSTs. In both shapes
/// no two threads race for an OST, so every clock repeats exactly.
fn engine_clocks(
    hierarchical: bool,
    engine: Engine,
    nonblocking: bool,
    depth: PipelineDepth,
) -> Vec<SimTime> {
    let (nodes, rows, cols, cb, osts, stripe) = match hierarchical {
        false => (1, 4, 1024, 2 << 10, 4, 1 << 9),
        true => (8, 128, 640, 16 << 10, 16, 8 << 10),
    };
    let nprocs = nodes * 4;
    let shape = Shape::new(vec![rows, cols]);
    let (fs, var) = build_var_fs(&shape, stripe, osts, osts);
    fs.create(
        "out.nc",
        StripeLayout::round_robin(stripe, osts, 0, osts),
        Box::new(MemBackend::zeroed((rows * cols * 8) as usize)),
    );
    let (model, partition) = match hierarchical {
        false => (test_model(1, 4), DomainPartition::Even),
        true => (
            cc_model::ClusterModel::hopper_like(nodes, 4),
            DomainPartition::GroupCyclic,
        ),
    };
    let hints = with_depth(
        &Hints {
            cb_buffer_size: cb,
            domain_partition: partition,
            ..Hints::default()
        },
        nonblocking,
        depth,
    );
    let band = cols / nprocs as u64;
    let (fs, var, hints) = (&fs, &var, &hints);
    let per_rank = World::new(nprocs, model).run(move |comm| {
        let (start, count) = match hierarchical {
            false => (vec![comm.rank() as u64, 0], vec![1, cols]),
            true => (vec![0, comm.rank() as u64 * band], vec![rows, band]),
        };
        let request = var.byte_extents(&Hyperslab::new(start.clone(), count.clone()));
        let mut clocks = Vec::new();
        let segments = match engine {
            Engine::Read => {
                let file = fs.open("t.nc").expect("exists");
                let (_, report) = collective_read(comm, fs, &file, &request, hints);
                clocks.push(report.end);
                for i in &report.iterations {
                    clocks.extend([i.read, i.queue, i.shuffle]);
                }
                report.segments
            }
            Engine::Write => {
                let file = fs.open("out.nc").expect("exists");
                let data = vec![comm.rank() as u8; request.total_bytes() as usize];
                let report = collective_write(comm, fs, &file, &request, &data, hints);
                clocks.push(report.end);
                report.segments
            }
            Engine::Cc => {
                let file = fs.open("t.nc").expect("exists");
                let io = ObjectIo::new(start, count).hints(hints.clone());
                let report = object_get_vara(comm, fs, &file, var, &io, &SumKernel).report;
                clocks.push(report.end);
                for i in &report.iterations {
                    clocks.extend([i.read, i.map]);
                }
                report.segments
            }
        };
        for s in segments {
            clocks.extend([s.start, s.end]);
        }
        clocks
    });
    per_rank.into_iter().flatten().collect()
}

/// Word-wise FNV-1a over the clocks' bit patterns: one number that moves
/// when any clock, or the number or order of clocks, does.
fn clock_digest(clocks: &[SimTime]) -> u64 {
    clocks.iter().fold(0xcbf2_9ce4_8422_2325, |h, t| {
        (h ^ t.secs().to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Golden clocks for the three aggregator loops at every staging depth,
/// flat and hierarchical: every rank's `end` and every aggregator's
/// per-iteration timings and segments must equal the values recorded at
/// commit 500aa01, before the three loops shared one staging driver. Each
/// row is the latest `end` in seconds and the digest of every clock; a
/// mismatch prints the whole table so it can be diffed row by row. The
/// write rows agree across depths: the write engine's ring floor never
/// binds (DESIGN §11).
#[test]
fn staging_clocks_match_recorded_goldens() {
    #[rustfmt::skip]
    const GOLDEN: [(&str, f64, u64); 24] = [
        ("flat Read blocking", 0.032073229488888876, 0x418ffa456cf74fe5),
        ("flat Read depth-2", 0.032045429488888874, 0x9c3dfbcaa5cfdd0d),
        ("flat Read depth-3", 0.032045429488888874, 0xabe5967c5ad142bd),
        ("flat Read unbounded", 0.032045429488888874, 0x44a548f457083439),
        ("flat Write blocking", 0.032043000688888885, 0xfc4929d7d035d1c8),
        ("flat Write depth-2", 0.032043000688888885, 0xfc4929d7d035d1c8),
        ("flat Write depth-3", 0.032043000688888885, 0xfc4929d7d035d1c8),
        ("flat Write unbounded", 0.032043000688888885, 0xfc4929d7d035d1c8),
        ("flat Cc blocking", 0.03204952388888888, 0x2b64cb0eb7ed85a7),
        ("flat Cc depth-2", 0.03204034388888888, 0x24de5e0394562931),
        ("flat Cc depth-3", 0.03204034388888888, 0xda9b93b87fa53fc1),
        ("flat Cc unbounded", 0.03204034388888888, 0xdc21e2bbd649fa09),
        ("hier Read blocking", 0.01557625102777778, 0xd8a259b077478338),
        ("hier Read depth-2", 0.011294360627777784, 0x8841109afefeed96),
        ("hier Read depth-3", 0.011294360627777784, 0xeabb07ca71eb70ba),
        ("hier Read unbounded", 0.011294360627777784, 0x54561673f516df7e),
        ("hier Write blocking", 0.010502831944444447, 0x7f76b20fdc61e7aa),
        ("hier Write depth-2", 0.010502831944444447, 0x7f76b20fdc61e7aa),
        ("hier Write depth-3", 0.010502831944444447, 0x7f76b20fdc61e7aa),
        ("hier Write unbounded", 0.010502831944444447, 0x7f76b20fdc61e7aa),
        ("hier Cc blocking", 0.010305905494444446, 0x122598bdd0b662d6),
        ("hier Cc depth-2", 0.010219209494444447, 0xa502182464f27148),
        ("hier Cc depth-3", 0.010219209494444447, 0x4efb7b6f53dca310),
        ("hier Cc unbounded", 0.010219209494444447, 0xfdf5fd218b1a5548),
    ];
    let mut got = Vec::new();
    for hierarchical in [false, true] {
        for engine in [Engine::Read, Engine::Write, Engine::Cc] {
            for (label, nonblocking, depth) in DEPTHS {
                let clocks = engine_clocks(hierarchical, engine, nonblocking, depth);
                let end = clocks.iter().copied().fold(SimTime::ZERO, SimTime::max);
                let shape = if hierarchical { "hier" } else { "flat" };
                let row = format!("{shape} {engine:?} {label}");
                got.push((row, end.secs(), clock_digest(&clocks)));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(row, end, digest)| format!("    ({row:?}, {end:?}, {digest:#018x}),\n"))
        .collect();
    let golden: Vec<_> = GOLDEN
        .iter()
        .map(|&(r, e, d)| (r.to_string(), e, d))
        .collect();
    assert_eq!(got, golden, "staging clocks moved; now:\n{table}");
}

/// Double buffering overlaps iteration i+1's read with iteration i's
/// shuffle, so on a read-dominated multi-iteration sweep the collective
/// must finish strictly earlier than one-buffer (blocking) staging — and
/// relaxing the ring further (depth 3, unbounded) can only help, never
/// hurt.
#[test]
fn deeper_staging_rings_monotonically_speed_up_reads() {
    let end_at = |nonblocking: bool, depth: PipelineDepth| {
        let per_rank = single_aggregator_sweep(nonblocking, depth, None);
        let end = per_rank.iter().map(|(_, _, e)| *e).max().expect("ranks");
        let bytes: Vec<&Vec<u8>> = per_rank.iter().map(|(b, _, _)| b).collect();
        (end, bytes.iter().map(|b| b.len()).sum::<usize>())
    };
    let (seq, n1) = end_at(false, PipelineDepth::Unbounded);
    let (two, n2) = end_at(true, PipelineDepth::Depth(2));
    let (three, n3) = end_at(true, PipelineDepth::Depth(3));
    let (unbounded, n4) = end_at(true, PipelineDepth::Unbounded);
    assert_eq!(n1, n2);
    assert_eq!(n1, n3);
    assert_eq!(n1, n4);
    assert!(
        two < seq,
        "double buffering must overlap read with shuffle: depth-2 {two} >= sequential {seq}"
    );
    assert!(three <= two, "depth-3 {three} regressed past depth-2 {two}");
    assert!(
        unbounded <= three,
        "unbounded {unbounded} regressed past depth-3 {three}"
    );
}

/// One randomly-drawn job for the multi-job service equivalence sweep.
#[derive(Debug, Clone)]
struct MixJob {
    nprocs: usize,
    steps: usize,
    extra_rows: u64,
    cols: u64,
    interactive: bool,
    weight: u8,
    arrival_us: u64,
    file: usize,
}

impl MixJob {
    fn rows_per_step(&self) -> u64 {
        self.nprocs as u64 + self.extra_rows
    }

    fn var_rows(&self) -> u64 {
        self.steps as u64 * self.rows_per_step()
    }

    fn spec(&self, id: usize) -> cc_service::JobSpec {
        use cc_core::SumKernel;
        let var = cc_array::Variable::new(
            "v",
            Shape::new(vec![self.var_rows(), self.cols]),
            cc_array::DType::F64,
            0,
        );
        let mut spec = cc_service::JobSpec::new(
            format!("job-{id}"),
            format!("mix-{}.nc", self.file),
            var,
            self.nprocs,
            Arc::new(SumKernel),
        )
        .weight(self.weight as f64)
        .arrival(SimTime::from_secs(self.arrival_us as f64 * 1e-6));
        if self.interactive {
            spec = spec.class(cc_service::QosClass::Interactive);
        }
        for s in 0..self.steps as u64 {
            spec = spec.step(
                vec![s * self.rows_per_step(), 0],
                vec![self.rows_per_step(), self.cols],
            );
        }
        spec
    }
}

/// A random service workload: K jobs over two shared files, one of three
/// scheduling policies, one of four fault plans.
#[derive(Debug, Clone)]
struct ServiceMix {
    jobs: Vec<MixJob>,
    policy: usize,
    fault: usize,
}

impl ServiceMix {
    fn policy(&self) -> cc_service::ServicePolicy {
        [
            cc_service::ServicePolicy::QosWfq,
            cc_service::ServicePolicy::Fifo,
            cc_service::ServicePolicy::RoundRobin,
        ][self.policy]
    }

    fn fault(&self) -> Option<FaultPlan> {
        match self.fault {
            0 => None,
            1 => Some(FaultPlan::new().slow_ost(0, 6.0)),
            2 => Some(FaultPlan::new().straggle_rank(0, 4.0)),
            _ => Some(FaultPlan::new().slow_ost(1, 3.0).straggle_rank(1, 2.0)),
        }
    }

    /// A fresh service over freshly-built files (data is identical across
    /// builds; only booking state would differ, and that never leaks into
    /// results).
    fn service(&self) -> cc_service::Service {
        let mut model = test_model(4, 2);
        let mut fs = Pfs::new(4, DiskModel::lustre_like());
        if let Some(p) = self.fault() {
            fs = fs.with_fault_plan(&p);
            model = model.with_fault(p);
        }
        for f in 0..2usize {
            let elems = self
                .jobs
                .iter()
                .filter(|j| j.file == f)
                .map(|j| j.var_rows() * j.cols)
                .max()
                .unwrap_or(64);
            fs.create(
                &format!("mix-{f}.nc"),
                StripeLayout::round_robin(1 << 9, 4, 0, 4),
                Box::new(SyntheticBackend::new(elems, ElemKind::F64, test_value)),
            );
        }
        let mut svc = cc_service::Service::new(model, Arc::new(fs)).with_policy(self.policy());
        // A modest shared backbone, so the lane booking path runs too.
        svc = svc.with_backbone(1e9);
        for (id, job) in self.jobs.iter().enumerate() {
            svc.submit(job.spec(id)).expect("mix jobs admit");
        }
        svc
    }
}

fn arb_service_mix() -> impl Strategy<Value = ServiceMix> {
    (
        proptest::collection::vec(
            (
                1usize..4,
                1usize..4,
                0u64..8,
                1u64..6,
                0u8..2,
                1u8..8,
                0u64..5000,
                0usize..2,
            ),
            2..5,
        ),
        0usize..3,
        0usize..4,
    )
        .prop_map(|(raw, policy, fault)| ServiceMix {
            jobs: raw
                .into_iter()
                .map(
                    |(nprocs, steps, extra_rows, cols8, interactive, weight, arrival_us, file)| {
                        MixJob {
                            nprocs,
                            steps,
                            extra_rows,
                            cols: cols8 * 8,
                            interactive: interactive == 1,
                            weight,
                            arrival_us,
                            file,
                        }
                    },
                )
                .collect(),
            policy,
            fault,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The multi-job service invariant: under ANY interleaving — random
    /// policies, QoS classes, weights, arrivals, and fault plans with slow
    /// OSTs and straggler ranks — every job's checksum is bit-identical to
    /// the serial execution of the same jobs, and the shared plan-cache
    /// counters partition exactly across jobs.
    #[test]
    fn prop_concurrent_jobs_bit_identical_to_serial_under_faults(mix in arb_service_mix()) {
        let conc = mix.service().run();
        let ser = mix.service().run_serial();
        prop_assert_eq!(conc.jobs.len(), ser.jobs.len());
        for (c, s) in conc.jobs.iter().zip(&ser.jobs) {
            prop_assert_eq!(c.id, s.id);
            prop_assert!(c.global.is_some(), "job {} lost its global", c.name);
            prop_assert_eq!(
                c.checksum(),
                s.checksum(),
                "job {} diverged from serial under policy {:?} fault {:?}",
                c.name.clone(),
                mix.policy(),
                mix.fault()
            );
            prop_assert!(c.finished >= c.started);
            prop_assert!(c.started >= c.submitted);
        }
        // Per-job cache counters partition the shared cache's totals.
        let folded = conc
            .jobs
            .iter()
            .fold(cc_mpiio::PlanCacheStats::default(), |acc, j| acc.merge(&j.plan_cache));
        prop_assert_eq!(folded, conc.cache);
        // Serial execution with private caches can never cross jobs.
        prop_assert_eq!(ser.cache.cross_job_hits, 0);
    }
}

/// Shared-plan-cache regression under true concurrent access: two jobs
/// sweeping overlapping steps (job 8's first step is job 7's second, on
/// another file) run in separate worlds on separate OS threads against
/// one `SharedPlanCache`. Each collective looks up once, each distinct
/// request set compiles once however the worlds race, and the set both
/// jobs issue is a cross-job hit for whichever job reaches it second.
#[test]
fn shared_plan_cache_concurrent_jobs_share_and_count() {
    use cc_core::{iterative_get_vara, SumKernel};

    const NPROCS: usize = 2;
    const STEPS: u64 = 2;
    const ROWS: u64 = 8;
    const COLS: u64 = 16;
    let fs = Pfs::new(4, DiskModel::lustre_like());
    for name in ["a.nc", "b.nc"] {
        fs.create(
            name,
            StripeLayout::round_robin(1 << 9, 4, 0, 4),
            Box::new(SyntheticBackend::new(
                2 * STEPS * ROWS * COLS,
                ElemKind::F64,
                test_value,
            )),
        );
    }
    let fs = Arc::new(fs);
    let cache = Arc::new(SharedPlanCache::new());
    let run_job = |file: &'static str, job: u64, row0: u64| {
        let fs = Arc::clone(&fs);
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            let var = cc_array::Variable::new(
                "v",
                Shape::new(vec![2 * STEPS * ROWS, COLS]),
                cc_array::DType::F64,
                0,
            );
            let (world, scope) = scoped(World::new(NPROCS, test_model(1, NPROCS)), &cache, job);
            let fs = &fs;
            let var = &var;
            world.run(move |comm| {
                let file = fs.open(file).expect("exists");
                let per = ROWS / NPROCS as u64;
                let ios: Vec<_> = (0..STEPS)
                    .map(|s| {
                        let start = vec![row0 + s * ROWS + comm.rank() as u64 * per, 0];
                        cc_core::ObjectIo::new(start, vec![per, COLS])
                    })
                    .collect();
                let steps: Vec<_> = ios.iter().map(|io| (var, io.clone())).collect();
                iterative_get_vara(comm, fs, &file, &steps, &SumKernel)
            });
            // The job's world counted its STEPS lookups.
            let stats = scope.stats();
            assert_eq!(stats.lookups(), STEPS);
            stats
        })
    };
    // Job 7 starts at row 0, job 8 one step (ROWS) further in.
    let ja = run_job("a.nc", 7, 0);
    let jb = run_job("b.nc", 8, ROWS);
    let sa = ja.join().expect("job 7 completes");
    let sb = jb.join().expect("job 8 completes");
    let total = sa.merge(&sb);
    let shared = cache.stats();
    assert_eq!(
        total, shared,
        "per-job stats must partition the shared totals"
    );
    // 2 jobs x 2 steps = 4 collectives, one lookup each, over 3 distinct
    // request sets; the compile happens under the cache lock, so each set
    // misses once no matter how the worlds' threads interleave.
    assert_eq!(shared.lookups(), 4);
    assert_eq!(shared.misses, 3, "racing jobs recompiled: {shared:?}");
    assert_eq!(shared.hits, 1);
    assert_eq!(
        shared.cross_job_hits, 1,
        "cross-job accounting wrong: {shared:?}"
    );
    let crosses = [sa.cross_job_hits, sb.cross_job_hits];
    assert!(
        crosses == [0, 1] || crosses == [1, 0],
        "the shared step rides on the other job: {crosses:?}"
    );
}

/// One compile per collective: after a real request exchange, the fresh
/// schedules of all ranks are one set of tables, not `nprocs` equal ones —
/// on a flat and on a hierarchical world, and separately for each of two
/// back-to-back collectives.
#[test]
fn fresh_schedules_on_different_ranks_share_tables() {
    use cc_mpiio::exchange::exchange_requests;

    const NPROCS: usize = 8;
    let hints = Hints {
        cb_buffer_size: 256,
        ..Hints::default()
    };
    for mode in [CollectiveMode::Flat, CollectiveMode::Auto] {
        let world = World::new(NPROCS, test_model(2, 4).with_collectives(mode));
        let schedules = world.run(|comm| {
            let r = comm.rank() as u64;
            [64u64, 96].map(|len| {
                let mine = OffsetList::new(
                    (0..6)
                        .map(|k| Extent {
                            offset: (k * NPROCS as u64 + r) * len,
                            len,
                        })
                        .collect(),
                );
                let requests = exchange_requests(comm, &mine);
                PlanSchedule::resolve(comm, requests, &hints)
            })
        });
        let [first0, second0] = &schedules[0];
        assert!(
            !first0.shares_index_with(second0),
            "{mode:?}: collectives shared an entry"
        );
        for (rank, [first, second]) in schedules.iter().enumerate() {
            assert!(
                first.shares_index_with(first0),
                "{mode:?}: rank {rank} compiled for itself"
            );
            assert!(
                second.shares_index_with(second0),
                "{mode:?}: rank {rank} compiled for itself"
            );
            assert_eq!(first.sources_for(rank), first0.sources_for(rank));
        }
    }
}

/// A sweep's cache accounting is per collective, counted once for the
/// whole world. On the shapes of the shared-cache regression above — two
/// ranks, a two-step sweep, a second job shifted by one step — each
/// world's scope reports the job's lookups: with a private cache, two
/// misses; with the shared cache, the same for the first job, then a
/// cross-job hit on the step the jobs share and a miss on the new one.
#[test]
fn every_rank_reports_one_plan_lookup_per_sweep_step() {
    use cc_core::iterative_get_vara;
    use cc_mpiio::PlanCacheStats;

    const NPROCS: usize = 2;
    const STEPS: u64 = 2;
    const ROWS: u64 = 8;
    const COLS: u64 = 16;
    let fs = Pfs::new(4, DiskModel::lustre_like());
    fs.create(
        "a.nc",
        StripeLayout::round_robin(1 << 9, 4, 0, 4),
        Box::new(SyntheticBackend::new(
            2 * STEPS * ROWS * COLS,
            ElemKind::F64,
            test_value,
        )),
    );
    let var = cc_array::Variable::new(
        "v",
        Shape::new(vec![2 * STEPS * ROWS, COLS]),
        cc_array::DType::F64,
        0,
    );
    let cache = Arc::new(SharedPlanCache::new());
    // The world's stats of one sweep starting at `row0`, from a private
    // cache (`job` = None) or from the shared one.
    let sweep = |job: Option<u64>, row0: u64| -> PlanCacheStats {
        let world = World::new(NPROCS, test_model(1, NPROCS));
        let (world, scope) = match job {
            None => scoped(world, &Arc::default(), 0),
            Some(job) => scoped(world, &cache, job),
        };
        world.run(|comm| {
            let file = fs.open("a.nc").expect("exists");
            let per = ROWS / NPROCS as u64;
            let steps: Vec<_> = (0..STEPS)
                .map(|s| {
                    let start = vec![row0 + s * ROWS + comm.rank() as u64 * per, 0];
                    (&var, ObjectIo::new(start, vec![per, COLS]))
                })
                .collect();
            iterative_get_vara(comm, &fs, &file, &steps, &SumKernel);
        });
        scope.stats()
    };
    let counts = |s: &PlanCacheStats| (s.misses, s.hits, s.cross_job_hits);

    let stats = sweep(None, 0);
    assert_eq!(counts(&stats), (2, 0, 0), "private cache: {stats:?}");
    let stats = sweep(Some(7), 0);
    assert_eq!(
        counts(&stats),
        (2, 0, 0),
        "shared cache, first job: {stats:?}"
    );
    let stats = sweep(Some(8), ROWS);
    assert_eq!(
        counts(&stats),
        (1, 1, 1),
        "shared cache, shifted job: {stats:?}"
    );
    assert_eq!(counts(&cache.stats()), (3, 1, 1));
}

/// The plan-cache lookup runs once per collective, not once per rank: a
/// 16-rank world sweeping four shifted steps, flat and hierarchical, with
/// a private scope and with a scope on a shared cache, counts exactly one
/// lookup per step, and every rank's schedule is rank 0's tables. A
/// second world under another job id rides the first one's entries, so
/// every lookup it makes is cross-job.
#[test]
fn one_lookup_per_collective() {
    use cc_core::iterative_get_vara;
    use cc_mpiio::exchange::exchange_requests;

    const NPROCS: usize = 16;
    const STEPS: u64 = 4;
    const COLS: u64 = 32;
    let rows = NPROCS as u64;
    let var = cc_array::Variable::new(
        "v",
        Shape::new(vec![STEPS * rows, COLS]),
        cc_array::DType::F64,
        0,
    );
    let fs = Pfs::new(4, DiskModel::lustre_like());
    fs.create(
        "a.nc",
        StripeLayout::round_robin(1 << 9, 4, 0, 4),
        Box::new(SyntheticBackend::new(
            STEPS * rows * COLS,
            ElemKind::F64,
            test_value,
        )),
    );
    let hints = Hints {
        cb_buffer_size: 1 << 10,
        ..Hints::default()
    };
    for mode in [CollectiveMode::Flat, CollectiveMode::Auto] {
        let world = || World::new(NPROCS, test_model(4, 4).with_collectives(mode));
        let shared = Arc::new(SharedPlanCache::new());
        // Rank `r` reads row `r` of every step; step `s` is step 0 shifted
        // by `s` rows.
        let sweep = |comm: &mut cc_mpi::Comm| {
            let file = fs.open("a.nc").expect("exists");
            let steps: Vec<_> = (0..STEPS)
                .map(|s| {
                    let start = vec![s * rows + comm.rank() as u64, 0];
                    (
                        &var,
                        ObjectIo::new(start, vec![1, COLS]).hints(hints.clone()),
                    )
                })
                .collect();
            iterative_get_vara(comm, &fs, &file, &steps, &SumKernel);
        };
        // The same steps' schedules, resolved directly.
        let schedules = |comm: &mut cc_mpi::Comm| {
            (0..STEPS)
                .map(|s| {
                    let start = vec![s * rows + comm.rank() as u64, 0];
                    let mine = var.byte_extents(&Hyperslab::new(start, vec![1, COLS]));
                    let requests = exchange_requests(comm, &mine);
                    PlanSchedule::resolve(comm, requests, &hints)
                })
                .collect::<Vec<_>>()
        };

        let (own_world, own) = scoped(world(), &Arc::default(), 0);
        own_world.run(sweep);
        assert_eq!(
            own.stats().lookups(),
            STEPS,
            "{mode:?}: private scope {:?}",
            own.stats()
        );
        let (direct_world, direct_scope) = scoped(world(), &Arc::default(), 0);
        let direct = direct_world.run(schedules);
        assert_eq!(
            direct_scope.stats().lookups(),
            STEPS,
            "{mode:?}: direct lookups"
        );
        let rank0 = &direct[0];
        for (rank, direct) in direct.iter().enumerate() {
            for (s, (mine, first)) in direct.iter().zip(rank0).enumerate() {
                assert!(
                    mine.shares_index_with(first),
                    "{mode:?} rank {rank} step {s}"
                );
            }
        }
        let (tagged_world, tagged) = scoped(world(), &shared, 1);
        tagged_world.run(sweep);
        assert_eq!(tagged.stats(), shared.stats(), "{mode:?}: shared cache");
        assert_eq!(
            shared.stats().lookups(),
            STEPS,
            "{mode:?}: {:?}",
            shared.stats()
        );

        // A second job on the same shapes: every lookup reuses job 1's work.
        let (riding_world, riding) = scoped(world(), &shared, 2);
        riding_world.run(sweep);
        let stats = riding.stats();
        assert_eq!(stats.lookups(), STEPS, "{mode:?}: {stats:?}");
        assert_eq!(stats.cross_job_hits, STEPS, "{mode:?}: {stats:?}");
        assert_eq!(shared.stats().lookups(), 2 * STEPS, "{mode:?}");
    }
}

/// The one rule of plan caching: a world with a [`PlanScope`] caches
/// every collective's schedule in it, and a world without one compiles
/// fresh. Two resolutions of identical requests compile twice unscoped
/// and hit in a scoped world, whether they come through the resolver or
/// through two `collective_read`s; two job worlds whose scopes share one
/// cache count the second job's hit as cross-job.
#[test]
fn a_world_scope_is_the_only_plan_cache() {
    use cc_mpiio::exchange::exchange_requests;

    const NPROCS: usize = 4;
    let fs = Pfs::new(4, DiskModel::lustre_like());
    fs.create(
        "a.nc",
        StripeLayout::round_robin(1 << 9, 4, 0, 4),
        Box::new(SyntheticBackend::new(
            NPROCS as u64 * 64,
            ElemKind::F64,
            test_value,
        )),
    );
    let hints = Hints {
        cb_buffer_size: 256,
        ..Hints::default()
    };
    let world = || World::new(NPROCS, test_model(2, 2));
    let request = |rank: usize| {
        let r = rank as u64;
        OffsetList::new(
            (0..4)
                .map(|k| Extent {
                    offset: (k * NPROCS as u64 + r) * 128,
                    len: 128,
                })
                .collect(),
        )
    };
    // Two resolutions of one request set, on every rank.
    let twice = |comm: &mut cc_mpi::Comm| {
        let mine = request(comm.rank());
        [(); 2].map(|_| {
            let requests = exchange_requests(comm, &mine);
            PlanSchedule::resolve(comm, requests, &hints)
        })
    };
    let counts = |s: cc_mpiio::PlanCacheStats| (s.misses, s.hits, s.cross_job_hits);

    for [first, second] in world().run(twice) {
        assert!(
            !first.shares_index_with(&second),
            "an unscoped world compiled once"
        );
    }
    let (scoped_world, scope) = scoped(world(), &Arc::default(), 0);
    for [first, second] in scoped_world.run(twice) {
        assert!(
            first.shares_index_with(&second),
            "a scoped world compiled twice"
        );
    }
    assert_eq!(counts(scope.stats()), (1, 1, 0));

    // The same rule under the plain read entry point.
    let reads = |comm: &mut cc_mpi::Comm| {
        let file = fs.open("a.nc").expect("exists");
        let mine = request(comm.rank());
        [(); 2].map(|_| collective_read(comm, &fs, &file, &mine, &hints).0)
    };
    let fresh = world().run(reads);
    let (read_world, read_scope) = scoped(world(), &Arc::default(), 0);
    assert_eq!(read_world.run(reads), fresh, "a scope changed the bytes");
    assert_eq!(counts(read_scope.stats()), (1, 1, 0));

    // Two job worlds on one shared cache: the second job's hit is cross-job.
    let shared = Arc::new(SharedPlanCache::new());
    let (job_a, scope_a) = scoped(world(), &shared, 1);
    let (job_b, scope_b) = scoped(world(), &shared, 2);
    job_a.run(reads);
    job_b.run(reads);
    assert_eq!(counts(scope_a.stats()), (1, 1, 0));
    assert_eq!(counts(scope_b.stats()), (0, 2, 2));
    assert_eq!(shared.stats(), scope_a.stats().merge(&scope_b.stats()));
}

/// Fault sweep: under slow OSTs and straggler ranks, every staging depth
/// must still move the identical bytes — adversity may stretch the
/// virtual clock but can never reorder what lands in a buffer. The test
/// completing at all is the no-hang half of the contract: a pipelined
/// iteration stuck waiting on a fault would trip the recv watchdog and
/// abort the world instead of deadlocking the suite.
#[test]
fn fault_plans_stretch_clocks_but_never_bytes_at_any_depth() {
    let plans = [
        FaultPlan::new().slow_ost(0, 8.0),
        FaultPlan::new().straggle_rank(1, 5.0),
        FaultPlan::new().slow_ost(1, 4.0).straggle_rank(0, 3.0),
    ];
    let healthy = single_aggregator_sweep(false, PipelineDepth::Unbounded, None);
    let healthy_bytes: Vec<&Vec<u8>> = healthy.iter().map(|(b, _, _)| b).collect();
    for plan in plans {
        for (label, nonblocking, depth) in DEPTHS {
            let run = single_aggregator_sweep(nonblocking, depth, Some(plan.clone()));
            let bytes: Vec<&Vec<u8>> = run.iter().map(|(b, _, _)| b).collect();
            assert_eq!(
                healthy_bytes, bytes,
                "{label} under {plan:?} returned different bytes"
            );
        }
    }
}

/// A random many-task fusion mix: overlapping, disjoint, and duplicate
/// regions, mixed kernel classes (bounded-error sums and exact min-locs),
/// scattered arrivals, random batch widths and fuse windows, under the
/// same fault plans the service property sweeps.
#[derive(Debug, Clone)]
struct TaskMixCase {
    /// Per task: (row, col8, rows, cols8, kernel, arrival_us, duplicate).
    tasks: Vec<(u64, u64, u64, u64, u8, u64, u8)>,
    nprocs: usize,
    window_ms: usize,
    fault: usize,
}

const MIX_ROWS: u64 = 32;
const MIX_COLS: u64 = 32;

impl TaskMixCase {
    fn fault(&self) -> Option<FaultPlan> {
        match self.fault {
            0 => None,
            1 => Some(FaultPlan::new().slow_ost(0, 6.0)),
            2 => Some(FaultPlan::new().straggle_rank(0, 4.0)),
            _ => Some(FaultPlan::new().slow_ost(1, 3.0).straggle_rank(1, 2.0)),
        }
    }

    /// Every task's effective `(start, count, kernel)` — duplicates
    /// resolved to their predecessor, exactly as `batch()` submits them.
    fn resolved(&self) -> Vec<(Vec<u64>, Vec<u64>, u8)> {
        let mut out: Vec<(Vec<u64>, Vec<u64>, u8)> = Vec::with_capacity(self.tasks.len());
        for &(row, col8, rows, cols8, kernel, _, dup) in &self.tasks {
            match out.last() {
                Some(prev) if dup == 1 => out.push(prev.clone()),
                _ => out.push((vec![row, col8 * 8], vec![rows, cols8 * 8], kernel)),
            }
        }
        out
    }

    /// A fresh batch over a freshly-built file (data is identical across
    /// builds; only OST booking state differs, which never leaks into
    /// results).
    fn batch(&self) -> cc_service::TaskBatch {
        let mut model = test_model(2, 4);
        let mut fs = Pfs::new(4, DiskModel::lustre_like());
        if let Some(p) = self.fault() {
            fs = fs.with_fault_plan(&p);
            model = model.with_fault(p);
        }
        fs.create(
            "mix.nc",
            StripeLayout::round_robin(1 << 9, 4, 0, 4),
            Box::new(SyntheticBackend::new(
                MIX_ROWS * MIX_COLS,
                ElemKind::F64,
                test_value,
            )),
        );
        let var = cc_array::Variable::new(
            "v",
            Shape::new(vec![MIX_ROWS, MIX_COLS]),
            cc_array::DType::F64,
            0,
        );
        let mut batch =
            cc_service::TaskBatch::new(model, Arc::new(fs)).with_policy(cc_service::BatchPolicy {
                nprocs: self.nprocs,
                fuse_window: SimTime::from_secs(self.window_ms as f64 * 1e-3),
                ..cc_service::BatchPolicy::default()
            });
        for (i, ((start, count, kernel), &(.., arrival_us, _))) in
            self.resolved().into_iter().zip(&self.tasks).enumerate()
        {
            let k: Arc<dyn cc_core::MapKernel> = if kernel == 0 {
                Arc::new(SumKernel)
            } else {
                Arc::new(MinLocKernel)
            };
            batch
                .submit(
                    cc_service::TaskSpec::new(
                        format!("t{i}"),
                        "mix.nc",
                        var.clone(),
                        start,
                        count,
                        k,
                    )
                    .arrival(SimTime::from_secs(arrival_us as f64 * 1e-6)),
                )
                .expect("mix tasks admit");
        }
        batch
    }
}

fn arb_task_mix() -> impl Strategy<Value = TaskMixCase> {
    (
        proptest::collection::vec(
            (
                0u64..28,
                0u64..3,
                1u64..5,
                1u64..3,
                0u8..2,
                0u64..5000,
                0u8..2,
            ),
            3..16,
        ),
        1usize..6,
        0usize..4,
        0usize..4,
    )
        .prop_map(|(tasks, nprocs, window_ms, fault)| TaskMixCase {
            tasks,
            nprocs,
            window_ms,
            fault,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The task-fusion invariant: on ANY many-task mix — overlapping,
    /// disjoint, and duplicate regions, mixed kernel classes, scattered
    /// arrivals, random batch widths and fuse windows, slow OSTs and
    /// straggler ranks — every task's fused result is bit-identical to
    /// its solo and independent executions, matches a brute-force oracle
    /// (dedup never drops or mangles a byte), and the fused-task counter
    /// accounts for every task exactly once.
    #[test]
    fn prop_fused_tasks_bit_identical_to_solo_under_faults(mix in arb_task_mix()) {
        let fused = mix.batch().run_fused();
        let indep = mix.batch().run_independent();
        let solo = mix.batch().run_solo();
        prop_assert_eq!(fused.tasks.len(), mix.tasks.len());
        for ((f, i), s) in fused.tasks.iter().zip(&indep.tasks).zip(&solo.tasks) {
            prop_assert_eq!(
                f.checksum(),
                s.checksum(),
                "task {} fused diverged from solo under fault {:?}",
                f.name.clone(),
                mix.fault()
            );
            prop_assert_eq!(
                i.checksum(),
                s.checksum(),
                "task {} independent diverged from solo",
                i.name.clone()
            );
            prop_assert!(f.bin.is_some(), "task {} was never binned", f.name.clone());
            prop_assert!(f.finished >= f.submitted);
        }
        // Oracle check: fusion must deliver every task its exact bytes.
        let shape = Shape::new(vec![MIX_ROWS, MIX_COLS]);
        for (t, (start, count, kernel)) in fused.tasks.iter().zip(mix.resolved()) {
            let slab = Hyperslab::new(start.clone(), count.clone());
            if kernel == 0 {
                let want = oracle_sum(&shape, &slab);
                let got = t.value[0];
                prop_assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "task {}: sum {} != oracle {}",
                    t.name.clone(),
                    got,
                    want
                );
            } else {
                let (min, loc) = oracle_min_loc(&shape, &slab);
                prop_assert_eq!(
                    t.value[0].to_bits(),
                    min.to_bits(),
                    "task {}: min {} != oracle {}",
                    t.name.clone(),
                    t.value[0],
                    min
                );
                prop_assert_eq!(t.value[1] as u64, loc, "task {} min-loc", t.name.clone());
            }
        }
        // Fused-task accounting: every task rode exactly one fused
        // schedule; the independent path never fuses.
        prop_assert_eq!(fused.plan_cache.fused_tasks, mix.tasks.len() as u64);
        prop_assert_eq!(indep.plan_cache.fused_tasks, 0);
        // Binning conserves tasks across bins.
        let binned: usize = fused.bins.iter().map(|b| b.tasks).sum();
        prop_assert_eq!(binned, mix.tasks.len());
    }
}
