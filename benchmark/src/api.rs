//! The only file that names repository symbols.
//!
//! Everything the benchmark knows about the library is here: how the six
//! workloads are generated from a seed, the six primary-path calls
//! (`object_get_vara`, `collective_write`/`collective_read`,
//! `Service::run`/`run_serial`, `TaskBatch::run_fused`/`run_independent`,
//! `World::new`/`run`), the baseline path of each workload, the analytic
//! oracles, and the per-layer probes. The rest of the benchmark sees plain
//! numbers ([`Rep`], [`Counters`]). A later change that claims a gain may
//! not edit the benchmark, so this file calls only the plain entry points,
//! none of the `_cached/_planned/_shared/_traced/_tagged` variants slated
//! for collapse. README.md lists the load-bearing signatures.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cc_array::{DType, Hyperslab, Variable};
use cc_compress::{Compression, ErrorBound};
use cc_core::{
    object_get_vara, traditional_get_vara, MapKernel, MinLocKernel, ObjectIo, ReduceMode, SumKernel,
};
use cc_model::{ClusterModel, SimTime};
use cc_mpi::{Comm, CommStats, World};
use cc_mpiio::exchange::exchange_requests;
use cc_mpiio::{
    collective_read, collective_write, fuse_extents, independent_write, CollectivePlan, Hints,
    OffsetList, PlanCacheStats, PlanSchedule, Striping,
};
use cc_pfs::backend::{default_climate_value, ElemKind};
use cc_pfs::{Backend, MemBackend, Pfs, StripeLayout, SyntheticBackend};
use cc_service::{JobSpec, QosClass, Service, ServiceOutcome, ServicePolicy, TaskBatch, TaskSpec};
use cc_workloads::{ClimateWorkload, ManyTask, MixedTraffic, WrfGrid, WrfWorkload};

use crate::trace::Tracer;

/// Named counts and durations, read from the library's public reports.
pub type Counters = Vec<(&'static str, f64)>;

/// What one call of a workload's primary (or baseline) path produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall seconds of exactly the library call, inputs and a fresh `Pfs`
    /// built outside.
    pub host_wall_s: f64,
    /// Virtual completion time: max over ranks, jobs or tasks.
    pub virt_time_s: f64,
    /// Virtual arrival-to-result time of every operation: rank results for
    /// the single-job workloads, interactive jobs for the service mix,
    /// tasks for the many-task batch.
    pub latencies_s: Vec<f64>,
    /// Operations attempted: rank results (plus the global reduction),
    /// jobs, or tasks.
    pub attempted: u64,
    /// Operations that panicked, were refused admission, or differed from
    /// their oracle or from the baseline path.
    pub failed: u64,
    /// Per-layer counters of this call.
    pub counters: Counters,
}

impl Rep {
    /// A call that panicked: every operation it attempted failed.
    fn panicked(host_wall_s: f64, attempted: u64) -> Self {
        Rep {
            host_wall_s,
            attempted,
            failed: attempted,
            ..Rep::default()
        }
    }
}

/// One benchmark workload, set up from a seed.
pub trait Workload {
    /// Counters and host times gathered while setting up.
    fn setup_counters(&self) -> &Counters;
    /// Computes the expected results. `wrong` perturbs them — the test-only
    /// switch that proves a failed check turns the exit code non-zero.
    fn arm_oracle(&mut self, wrong: bool);
    /// Runs the baseline path once (the paper's traditional workflow, or
    /// the no-service / no-fusion path) and keeps its results so every
    /// primary rep is compared against them.
    fn reference(&mut self, t: &mut Tracer) -> Rep;
    /// Runs the primary path once and checks its results.
    fn primary(&self, t: &mut Tracer) -> Rep;
    /// Replays single layers' shares of the workload through their public
    /// functions, one span per probe. `primary` is a finished primary rep.
    fn probes(&self, t: &mut Tracer, primary: &Rep) -> Counters;
    /// The speedup over the baseline path the paper reports for this
    /// workload, where it reports one.
    fn paper_speedup(&self) -> Option<f64> {
        None
    }
}

/// The six workloads, in report order.
pub const WORKLOADS: [&str; 6] = [
    "fig9_1to1",
    "fig10_weak_480",
    "wrf_minslp_400g",
    "ckpt_write",
    "service_mix_64",
    "manytask_10k",
];

/// Sets a workload up from `seed`: generates inputs, flattens requests,
/// builds a file system, calibrates the model. `None` for an unknown name.
pub fn build(name: &str, seed: u64, t: &mut Tracer) -> Option<Box<dyn Workload>> {
    let mut rng = Rng::new(seed, name);
    Some(match name {
        "fig9_1to1" => Box::new(ReadJob::climate(120, 128, 512, 5, 1.0, &mut rng, t)),
        "fig10_weak_480" => Box::new(ReadJob::climate(480, 32, 256, 20, 0.2, &mut rng, t)),
        "wrf_minslp_400g" => Box::new(ReadJob::wrf(&mut rng, t)),
        "ckpt_write" => Box::new(WriteJob::new(&mut rng, t)),
        "service_mix_64" => Box::new(ServiceMix::new(&mut rng, t)),
        "manytask_10k" => Box::new(ManyTasks::new(&mut rng, t)),
        _ => return None,
    })
}

// ------------------------------------------------------------ small helpers

/// SplitMix64: the generator's only source of randomness. The library sees
/// generated inputs, never the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, workload: &str) -> Self {
        // Mix the name in so equal seeds do not correlate across workloads.
        let salt = workload
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b.into()));
        let mut rng = Rng(seed ^ salt.rotate_left(32));
        rng.next();
        rng
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs a library call, turning a panic into `None`.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Sums within 1e-6 relative.
fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-6 * want.abs().max(1.0)
}

fn all_close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| close(*g, *w))
}

fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A word-wise digest for byte-equality of written data.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = bytes.len() as u64 ^ 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn max_of(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, f64::max)
}

fn comm_counters<'a>(stats: impl Iterator<Item = &'a CommStats>) -> Counters {
    let mut sum = CommStats::default();
    for s in stats {
        sum.merge(s);
    }
    vec![
        ("cc-mpi.msgs_intra", sum.msgs_intra as f64),
        ("cc-mpi.msgs_inter", sum.msgs_inter as f64),
        ("cc-mpi.bytes_intra", sum.bytes_intra as f64),
        ("cc-mpi.bytes_inter", sum.bytes_inter as f64),
    ]
}

fn pfs_counters(fs: &Pfs, end_s: f64) -> Counters {
    let stats = fs.stats();
    let osts = fs.ost_snapshot(SimTime::from_secs(end_s));
    vec![
        ("cc-pfs.reads", stats.reads as f64),
        ("cc-pfs.writes", stats.writes as f64),
        ("cc-pfs.bytes_read", stats.bytes_read as f64),
        ("cc-pfs.bytes_written", stats.bytes_written as f64),
        ("cc-pfs.extents_served", stats.extents_served as f64),
        ("cc-pfs.ost_busy_s", osts.iter().map(|o| o.busy_secs).sum()),
        (
            "cc-pfs.ost_wait_s",
            osts.iter().map(|o| o.waited_secs).sum(),
        ),
        (
            "cc-pfs.delayed_requests",
            osts.iter().map(|o| o.delayed_requests as f64).sum(),
        ),
        ("cc-pfs.ost_imbalance", fs.ost_imbalance()),
    ]
}

fn plan_counters(p: &PlanCacheStats) -> Counters {
    vec![
        ("cc-mpiio.plan_hits", p.hits as f64),
        ("cc-mpiio.plan_translations", p.translations as f64),
        ("cc-mpiio.plan_misses", p.misses as f64),
        ("cc-mpiio.plan_reuse_rate", p.reuse_rate()),
    ]
}

fn counter(counters: &Counters, name: &str) -> f64 {
    counters
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Copy of `cc-bench`'s `scaled_model` (the benchmark must not depend on
/// `cc-bench`): run `1/scale` of the paper's bytes against bandwidths
/// divided by `scale`, and grow per-operation costs by `scale`, so times
/// come out at paper magnitude.
fn scaled_model(base: &ClusterModel, scale: f64) -> ClusterModel {
    let mut m = base.clone();
    m.disk.ost_bandwidth /= scale;
    m.net.bw_intra /= scale;
    m.net.bw_inter /= scale;
    m.net.scatter_overhead *= scale;
    m.net.msg_overhead_intra *= scale;
    m.net.msg_overhead_inter *= scale;
    m.cpu.map_cost_per_byte *= scale;
    m.cpu.memcpy_cost_per_byte *= scale;
    m.cpu.metadata_cost_per_entry *= scale;
    m.cpu.reduce_cost_per_element *= scale;
    m
}

// ------------------------------------------------- one collective request set

#[derive(Clone, Copy)]
enum Kernel {
    Sum,
    MinLoc,
}

impl Kernel {
    fn get(self) -> &'static dyn MapKernel {
        match self {
            Kernel::Sum => &SumKernel,
            Kernel::MinLoc => &MinLocKernel,
        }
    }
}

/// One collective operation's inputs: what the single-job workloads run
/// and what every probe replays a layer's share of.
struct Collective {
    nprocs: usize,
    model: ClusterModel,
    hints: Hints,
    file: String,
    dtype: DType,
    kernel: Kernel,
    /// Every rank's flattened request, indexed by rank.
    requests: Arc<Vec<OffsetList>>,
    /// Virtual time at which each rank enters the collective.
    arrivals: Vec<f64>,
    /// Builds a fresh file system: OST booking state persists inside a
    /// `Pfs`, so every run gets its own.
    fresh_fs: Box<dyn Fn() -> Arc<Pfs> + Send + Sync>,
}

impl Collective {
    fn world(&self) -> World {
        World::new(self.nprocs, self.model.clone())
    }

    /// Moves a rank's clock to its arrival at the collective; returns it.
    fn arrive(&self, comm: &mut Comm) -> f64 {
        let at = self.arrivals[comm.rank()];
        comm.advance(SimTime::from_secs(at));
        at
    }

    /// Copy of `cc-bench`'s `calibrate_ratio`: measure the pure I/O time of
    /// this request set with zero-cost compute, then set the map cost so the
    /// baseline's compute phase costs `ratio` times its I/O phase — the
    /// computation:I/O knob of the paper's Figs. 9 and 10.
    fn calibrate(&mut self, ratio: f64) {
        let mut probe = self.model.clone();
        probe.cpu.map_cost_per_byte = 0.0;
        let fs = (self.fresh_fs)();
        let ends = World::new(self.nprocs, probe).run(|comm| {
            let file = fs.open(&self.file).expect("created by fresh_fs");
            let request = &self.requests[comm.rank()];
            collective_read(comm, &fs, &file, request, &self.hints)
                .1
                .end
                .secs()
        });
        let t_io = max_of(ends.into_iter());
        let total: u64 = self.requests.iter().map(OffsetList::total_bytes).sum();
        let per_rank_bytes = total as f64 / self.nprocs as f64;
        self.model.cpu.map_cost_per_byte = ratio * t_io / per_rank_bytes;
    }

    /// The layer probes every workload shares. `bytes_sent` is what the
    /// primary rep moved between ranks; `alltoallv` replays it spread evenly
    /// over every pair (the service outcomes carry no message counts: their
    /// probe falls back to the bytes of the offset-list exchange).
    fn probes(&self, t: &mut Tracer, bytes_sent: f64) -> Counters {
        let mut out = Counters::new();

        let ((), spawn_s) = t.span("cc-mpi.spawn_host_s", |_| {
            self.world().run(|comm| comm.barrier());
        });
        out.push(("cc-mpi.spawn_host_s", spawn_s));

        let (ranks, exchange_s) = t.span("cc-mpiio.exchange_host_s", |_| {
            self.world().run(|comm| {
                let all = exchange_requests(comm, &self.requests[comm.rank()]);
                std::hint::black_box(all.len());
                (comm.clock().secs(), comm.stats())
            })
        });
        let sent = |f: fn(&CommStats) -> usize| ranks.iter().map(|(_, s)| f(s) as f64).sum::<f64>();
        out.push(("cc-mpiio.exchange_host_s", exchange_s));
        out.push((
            "cc-mpiio.exchange_virt_s",
            max_of(ranks.iter().map(|r| r.0)),
        ));
        out.push(("cc-mpiio.exchange_msgs", sent(|s| s.msgs_sent)));
        out.push(("cc-mpiio.exchange_bytes", sent(|s| s.bytes_sent)));

        let fs = (self.fresh_fs)();
        let file = fs.open(&self.file).expect("created by fresh_fs");
        // The engines inject the file's striping into the hints before they
        // plan; do the same so the probe compiles the plan they compile.
        let mut hints = self.hints.clone();
        hints.striping = Some(Striping::from(file.layout()));
        let (schedule, compile_s) = t.span("cc-mpiio.plan_compile_host_s", |_| {
            let topology = &self.model.topology;
            let plan =
                CollectivePlan::build(Arc::clone(&self.requests), topology, self.nprocs, &hints);
            PlanSchedule::compile(plan)
        });
        out.push(("cc-mpiio.plan_compile_host_s", compile_s));

        // Every aggregator chunk through the file system, serially. The
        // buffers are kept: they are the bytes the next two probes chew.
        let (chunks, read_s) = t.span("cc-pfs.read_host_s", |_| {
            let mut chunks = Vec::new();
            for agg in 0..schedule.plan().aggregators.len() {
                for &iter in schedule.active_iterations(agg) {
                    let ranges = schedule.read_ranges(agg, iter);
                    if let Some(&(base, _)) = ranges.first() {
                        let mut buf = Vec::new();
                        fs.read_multi(&file, base, ranges, SimTime::ZERO, &mut buf);
                        chunks.push(buf);
                    }
                }
            }
            chunks
        });
        out.push(("cc-pfs.read_host_s", read_s));

        let kernel = self.kernel.get();
        let (elems, map_s) = t.span("cc-core.decode_map_host_s", |_| {
            let esize = self.dtype.size() as usize;
            let mut values = Vec::new();
            let mut acc = kernel.identity();
            let mut elems = 0u64;
            for chunk in &chunks {
                let whole = chunk.len() / esize * esize;
                self.dtype.decode_into(&chunk[..whole], &mut values);
                kernel.map(&mut acc, elems, &values);
                elems += values.len() as u64;
            }
            std::hint::black_box(kernel.finalize(&acc));
            elems
        });
        out.push(("cc-core.decode_map_host_s", map_s));
        out.push((
            "cc-core.map_melems_per_host_s",
            elems as f64 / 1e6 / map_s.max(1e-9),
        ));

        let moved = if bytes_sent > 0.0 {
            bytes_sent
        } else {
            sent(|s| s.bytes_sent)
        };
        let pair_bytes = (moved / (self.nprocs * self.nprocs) as f64).ceil() as usize;
        let (clocks, a2a_s) = t.span("cc-mpi.alltoallv_host_s", |_| {
            self.world().run(|comm| {
                let sends = vec![vec![0u8; pair_bytes]; comm.nprocs()];
                std::hint::black_box(comm.alltoallv_bytes(sends).len());
                comm.clock().secs()
            })
        });
        out.push(("cc-mpi.alltoallv_host_s", a2a_s));
        out.push(("cc-mpi.alltoallv_virt_s", max_of(clocks.into_iter())));

        // One collective buffer through the codec, in the mode the engines
        // would frame it with if compression were on at the default bound:
        // error-bounded for sums, clamped to lossless for selection kernels.
        let mode = Compression::ErrorBounded(ErrorBound::default()).clamp_for(kernel.tolerance());
        let raw = chunks.first().map_or(&[][..], Vec::as_slice);
        let raw = &raw[..raw.len() / 8 * 8];
        let (frame, encode_s) = t.span("cc-compress.encode_host_s", |_| {
            let mut frame = Vec::new();
            cc_compress::encode_into(&mode, raw, &mut frame);
            frame
        });
        let (decoded, decode_s) = t.span("cc-compress.decode_host_s", |_| {
            let mut back = Vec::new();
            cc_compress::decode_into(&frame, &mut back);
            back.len()
        });
        assert_eq!(decoded, raw.len(), "codec round trip changed the length");
        out.push(("cc-compress.encode_host_s", encode_s));
        out.push(("cc-compress.decode_host_s", decode_s));
        out.push((
            "cc-compress.wire_ratio",
            raw.len() as f64 / frame.len().max(1) as f64,
        ));
        out
    }
}

/// Bytes a primary rep sent between ranks, for the `alltoallv` probe.
fn bytes_sent(primary: &Rep) -> f64 {
    counter(&primary.counters, "cc-mpi.bytes_intra")
        + counter(&primary.counters, "cc-mpi.bytes_inter")
}

/// The seeded part of a single-job run: which rank reads which slab (a
/// rotation), and when each rank enters the collective. Ranks never arrive
/// at a collective at the same instant; each is given an arrival offset in
/// `[0, skew)` virtual seconds, and its latency is timed from its own
/// arrival. The work is the same on every seed, the inputs never are.
fn seeded_ranks(
    nprocs: usize,
    skew: f64,
    rng: &mut Rng,
    slab_of: impl Fn(usize) -> Hyperslab,
) -> (Vec<Hyperslab>, Vec<f64>) {
    let rotate = rng.below(nprocs as u64) as usize;
    let slabs = (0..nprocs)
        .map(|r| slab_of((r + rotate) % nprocs))
        .collect();
    let arrivals = (0..nprocs).map(|_| skew * rng.unit()).collect();
    (slabs, arrivals)
}

/// Flattens every rank's selection into byte extents, inside a span.
fn flatten(
    var: &Variable,
    slabs: &[Hyperslab],
    setup: &mut Counters,
    t: &mut Tracer,
) -> Arc<Vec<OffsetList>> {
    let (requests, secs) = t.span("cc-array.flatten", |_| {
        slabs
            .iter()
            .map(|s| var.byte_extents(s))
            .collect::<Vec<_>>()
    });
    let extents: usize = requests.iter().map(|r| r.extents().len()).sum();
    setup.push(("cc-array.flatten_host_s", secs));
    setup.push(("cc-array.extents", extents as f64));
    Arc::new(requests)
}

/// Builds the workload's file system once, inside a span, to time it.
fn time_build_fs(
    fresh_fs: &(dyn Fn() -> Arc<Pfs> + Send + Sync),
    setup: &mut Counters,
    t: &mut Tracer,
) {
    let (fs, secs) = t.span("cc-workloads.build_fs", |_| fresh_fs());
    std::hint::black_box(fs.ost_count());
    setup.push(("cc-workloads.build_fs_host_s", secs));
}

// ------------------------------------- fig9_1to1, fig10_weak_480, wrf_minslp_400g

/// A single collective-computing read: `object_get_vara` against the
/// paper's traditional read → compute → reduce workflow.
struct ReadJob {
    c: Collective,
    var: Variable,
    /// Rank `r`'s selection, after the seeded rotation.
    slabs: Vec<Hyperslab>,
    /// The paper's speedup for this figure, for the fidelity view.
    paper_speedup: Option<f64>,
    /// The analytically known global result, for selection kernels.
    analytic_global: Option<Vec<f64>>,
    /// Expected per-rank results where a brute-force oracle is affordable.
    oracle_ranks: Vec<Vec<f64>>,
    oracle_global: Vec<f64>,
    /// Per-rank results of the baseline path, once it has run.
    reference: Vec<Vec<f64>>,
    setup: Counters,
}

struct CcRank {
    end_s: f64,
    latency_s: f64,
    read_s: f64,
    map_s: f64,
    local_reduction_s: f64,
    words: u64,
    meta_entries: u64,
    meta_bytes: u64,
    stats: CommStats,
    global: Option<Vec<f64>>,
    per_rank: Option<Vec<Option<Vec<f64>>>>,
}

struct BaselineRank {
    end_s: f64,
    latency_s: f64,
    iterations: usize,
    read_s: f64,
    queue_s: f64,
    shuffle_s: f64,
    bytes_shuffled: u64,
    compute_s: f64,
    reduce_s: f64,
    global: Option<Vec<f64>>,
    mine: Vec<f64>,
}

impl ReadJob {
    /// Figs. 9 and 10, map cost calibrated to `ratio` (computation : I/O).
    fn climate(
        nprocs: usize,
        rows: u64,
        lon: u64,
        nodes: usize,
        ratio: f64,
        rng: &mut Rng,
        t: &mut Tracer,
    ) -> Self {
        let (mut c, var, slabs, setup) =
            climate_collective(nprocs, rows, lon, nodes, false, rng, t);
        t.span("calibrate", |_| c.calibrate(ratio));
        Self {
            c,
            var,
            slabs,
            // The paper's 2.44x is the 1:1 point of Fig. 9; Fig. 10 quotes
            // a range over scales, not a number for 480 ranks.
            paper_speedup: (ratio == 1.0).then_some(2.44),
            analytic_global: None,
            oracle_ranks: Vec::new(),
            oracle_global: Vec::new(),
            reference: Vec::new(),
            setup,
        }
    }

    /// Fig. 13 at 400 virtual GB: the WRF min-sea-level-pressure task over
    /// south-north bands, 64 ranks on 3 x 24 cores, 4 MiB collective
    /// buffers, `MinLocKernel`, the model scaled 1000x with the paper's
    /// branchy-kernel map cost.
    fn wrf(rng: &mut Rng, t: &mut Tracer) -> Self {
        const OSTS: usize = 156;
        let nprocs = 64;
        let grid = WrfGrid {
            times: 400,
            sn: 256,
            we: 512,
        };
        let w = WrfWorkload::new(grid, nprocs, 1 << 20, 40);
        // The model is scaled 1000x, and the arrival skew with it.
        let (slabs, arrivals) = seeded_ranks(nprocs, 20e-3, rng, |r| w.band_slab(r));
        let first_ost = rng.below(OSTS as u64) as usize;
        let var = w.slp_var().clone();
        let mut base = ClusterModel::hopper_like(3, 24);
        base.cpu.map_cost_per_byte = 2.2e-9;
        let model = scaled_model(&base, 1000.0);
        let hints = Hints {
            cb_buffer_size: 4 << 20,
            ..Hints::default()
        };
        let mut setup = Counters::new();
        let requests = flatten(&var, &slabs, &mut setup, t);
        let (stripe_size, stripe_count, disk) = (w.stripe_size, w.stripe_count, model.disk.clone());
        let fresh_fs = Box::new(move || {
            let fs = Pfs::new(OSTS, disk.clone());
            let per_var = grid.elements();
            let value = move |i: u64| {
                if i < per_var {
                    grid.slp(i)
                } else {
                    grid.wind10(i - per_var)
                }
            };
            fs.create(
                WrfWorkload::FILE,
                StripeLayout::round_robin(stripe_size, stripe_count, first_ost, OSTS),
                Box::new(SyntheticBackend::new(per_var * 2, ElemKind::F64, value)),
            );
            Arc::new(fs)
        });
        time_build_fs(&*fresh_fs, &mut setup, t);
        // No ratio to calibrate: the paper fixes the kernel cost. The span
        // stays so every workload's setup has the same children.
        t.span("calibrate", |_| ());
        Self {
            c: Collective {
                nprocs,
                model,
                hints,
                file: WrfWorkload::FILE.to_string(),
                dtype: DType::F64,
                kernel: Kernel::MinLoc,
                requests,
                arrivals,
                fresh_fs,
            },
            var,
            slabs,
            paper_speedup: Some(1.45),
            analytic_global: Some(vec![grid.slp_min().0, grid.slp_min().1 as f64]),
            oracle_ranks: Vec::new(),
            oracle_global: Vec::new(),
            reference: Vec::new(),
            setup,
        }
    }

    fn exact(&self) -> bool {
        matches!(self.c.kernel, Kernel::MinLoc)
    }

    /// Failed operations among `nprocs` rank results plus the global one.
    fn check(&self, ranks: &[Option<Vec<f64>>], global: Option<&[f64]>) -> u64 {
        let mut failed = 0;
        for (r, got) in ranks.iter().enumerate() {
            let ok = got.as_deref().is_some_and(|got| {
                let vs_oracle = self
                    .oracle_ranks
                    .get(r)
                    .is_none_or(|want| all_close(got, want));
                let vs_baseline = self.reference.get(r).is_none_or(|want| {
                    if self.exact() {
                        bit_equal(got, want)
                    } else {
                        all_close(got, want)
                    }
                });
                vs_oracle && vs_baseline
            });
            failed += u64::from(!ok);
        }
        let global_ok = global.is_some_and(|got| {
            if self.exact() {
                // As the Fig. 13 runner: value to 1e-9, index exact.
                got.len() == 2
                    && (got[0] - self.oracle_global[0]).abs() < 1e-9
                    && got[1] == self.oracle_global[1]
            } else {
                all_close(got, &self.oracle_global)
            }
        });
        failed + u64::from(!global_ok)
    }

    fn attempted(&self) -> u64 {
        self.c.nprocs as u64 + 1
    }
}

/// The request set of the paper's Figs. 9 and 10: a finely interleaved 3-D
/// climate variable, 256 KiB stripes over 156 OSTs, 1 MiB collective buffers,
/// one aggregator per 24-core node, stripe-aligned domains, `SumKernel`.
/// Flattens the requests and times one file-system build on the way.
///
/// The file mirrors `ClimateWorkload::build_fs`, which pins the first OST to
/// 0; here the seed places it. `writable` swaps the read-only synthetic
/// values for a zero-filled `MemBackend` to write a checkpoint into — not an
/// `OverlayBackend`: the overlay re-copies a whole merged range on every
/// adjacent write, which is quadratic in the file-domain size and came to
/// three quarters of `host_wall_s`; the row would have measured the test
/// double, not the write path.
fn climate_collective(
    nprocs: usize,
    rows: u64,
    lon: u64,
    nodes: usize,
    writable: bool,
    rng: &mut Rng,
    t: &mut Tracer,
) -> (Collective, Variable, Vec<Hyperslab>, Counters) {
    const OSTS: usize = 156;
    let w = ClimateWorkload::interleaved_3d(nprocs, rows, 2, lon, 256 << 10, OSTS);
    let (slabs, arrivals) = seeded_ranks(nprocs, 20e-6, rng, |r| w.slab(r).clone());
    let first_ost = rng.below(OSTS as u64) as usize;
    let var = w.var().clone();
    let model = ClusterModel::hopper_like(nodes, 24);
    let hints = Hints {
        cb_buffer_size: 1 << 20,
        aggregators_per_node: 1,
        nonblocking: true,
        align_domains_to: Some(w.stripe_size),
        ..Hints::default()
    };
    let mut setup = Counters::new();
    let requests = flatten(&var, &slabs, &mut setup, t);
    let elems = var.shape().num_elements();
    let (stripe_size, stripe_count, disk) = (w.stripe_size, w.stripe_count, model.disk.clone());
    let fresh_fs = Box::new(move || {
        let fs = Pfs::new(OSTS, disk.clone());
        let backend: Box<dyn Backend> = if writable {
            Box::new(MemBackend::zeroed(elems as usize * 8))
        } else {
            Box::new(SyntheticBackend::new(
                elems,
                ElemKind::F64,
                default_climate_value,
            ))
        };
        let layout = StripeLayout::round_robin(stripe_size, stripe_count, first_ost, OSTS);
        fs.create(ClimateWorkload::FILE, layout, backend);
        Arc::new(fs)
    });
    time_build_fs(&*fresh_fs, &mut setup, t);
    let c = Collective {
        nprocs,
        model,
        hints,
        file: ClimateWorkload::FILE.to_string(),
        dtype: DType::F64,
        kernel: Kernel::Sum,
        requests,
        arrivals,
        fresh_fs,
    };
    (c, var, slabs, setup)
}

impl Workload for ReadJob {
    fn setup_counters(&self) -> &Counters {
        &self.setup
    }

    fn arm_oracle(&mut self, wrong: bool) {
        if let Some(global) = &self.analytic_global {
            self.oracle_global = global.clone();
        } else {
            // Brute force over every selected element; the engine adds in
            // another order, hence the 1e-6 relative tolerance.
            let shape = self.var.shape();
            self.oracle_ranks = self
                .slabs
                .iter()
                .map(|slab| {
                    let sum: f64 = slab
                        .runs(shape)
                        .flat_map(|(start, len)| start..start + len)
                        .map(default_climate_value)
                        .sum();
                    vec![sum]
                })
                .collect();
            self.oracle_global = vec![self.oracle_ranks.iter().map(|r| r[0]).sum()];
        }
        if wrong {
            self.oracle_global[0] *= 1.001;
        }
    }

    fn reference(&mut self, t: &mut Tracer) -> Rep {
        let c = &self.c;
        let fs = (c.fresh_fs)();
        let (ranks, host_wall_s) = t.span("reference", |_| {
            guarded(|| {
                c.world().run(|comm| {
                    let arrived = c.arrive(comm);
                    let file = fs.open(&c.file).expect("created by fresh_fs");
                    let slab = &self.slabs[comm.rank()];
                    let kernel = c.kernel.get();
                    let (global, mine, rep) = traditional_get_vara(
                        comm, &fs, &file, &self.var, slab, &c.hints, kernel, 0,
                    );
                    BaselineRank {
                        end_s: rep.end.secs(),
                        latency_s: rep.end.secs() - arrived,
                        iterations: rep.two_phase.iterations.len(),
                        read_s: rep.two_phase.read_total().secs(),
                        queue_s: rep.two_phase.queue_total().secs(),
                        shuffle_s: rep.two_phase.shuffle_total().secs(),
                        bytes_shuffled: rep.two_phase.bytes_shuffled,
                        compute_s: rep.compute_elapsed.secs(),
                        reduce_s: rep.reduce_elapsed.secs(),
                        global,
                        mine,
                    }
                })
            })
        });
        let Some(ranks) = ranks else {
            return Rep::panicked(host_wall_s, self.attempted());
        };
        let results: Vec<Option<Vec<f64>>> = ranks.iter().map(|r| Some(r.mine.clone())).collect();
        let global = ranks.iter().find_map(|r| r.global.as_deref());
        let failed = self.check(&results, global);
        let counters = vec![
            (
                "cc-mpiio.iterations",
                ranks.iter().map(|r| r.iterations as f64).sum(),
            ),
            // Phase totals of the busiest aggregator: the paper's Fig. 1 split.
            (
                "cc-mpiio.read_virt_s",
                max_of(ranks.iter().map(|r| r.read_s)),
            ),
            (
                "cc-mpiio.queue_virt_s",
                max_of(ranks.iter().map(|r| r.queue_s)),
            ),
            (
                "cc-mpiio.shuffle_virt_s",
                max_of(ranks.iter().map(|r| r.shuffle_s)),
            ),
            (
                "cc-mpiio.bytes_shuffled",
                ranks.iter().map(|r| r.bytes_shuffled as f64).sum(),
            ),
            (
                "cc-core.compute_virt_s",
                max_of(ranks.iter().map(|r| r.compute_s)),
            ),
            // The root's observed MPI_Reduce, as the paper would time it.
            ("cc-mpi.reduce_virt_s", ranks[0].reduce_s),
            ("cc-mpiio.ref_host_wall_s", host_wall_s),
        ];
        let rep = Rep {
            host_wall_s,
            virt_time_s: max_of(ranks.iter().map(|r| r.end_s)),
            latencies_s: ranks.iter().map(|r| r.latency_s).collect(),
            attempted: self.attempted(),
            failed,
            counters,
        };
        self.reference = ranks.into_iter().map(|r| r.mine).collect();
        rep
    }

    fn primary(&self, t: &mut Tracer) -> Rep {
        let c = &self.c;
        let fs = (c.fresh_fs)();
        let (ranks, host_wall_s) = t.span("primary", |_| {
            guarded(|| {
                c.world().run(|comm| {
                    let arrived = c.arrive(comm);
                    let file = fs.open(&c.file).expect("created by fresh_fs");
                    let slab = &self.slabs[comm.rank()];
                    let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
                        .hints(c.hints.clone())
                        .reduce(ReduceMode::AllToOne { root: 0 });
                    let out = object_get_vara(comm, &fs, &file, &self.var, &io, c.kernel.get());
                    let rep = &out.report;
                    CcRank {
                        end_s: rep.end.secs(),
                        latency_s: rep.end.secs() - arrived,
                        read_s: rep.iterations.iter().map(|i| i.read.secs()).sum(),
                        map_s: rep.iterations.iter().map(|i| i.map.secs()).sum(),
                        local_reduction_s: rep.local_reduction.secs(),
                        words: rep.result_words_shuffled,
                        meta_entries: rep.metadata_entries,
                        meta_bytes: rep.metadata_bytes,
                        stats: comm.stats(),
                        global: out.global,
                        per_rank: out.per_rank,
                    }
                })
            })
        });
        let Some(ranks) = ranks else {
            return Rep::panicked(host_wall_s, self.attempted());
        };
        let virt_time_s = max_of(ranks.iter().map(|r| r.end_s));
        let global = ranks.iter().find_map(|r| r.global.as_deref());
        let none = vec![None; c.nprocs];
        let per_rank = ranks
            .iter()
            .find_map(|r| r.per_rank.as_deref())
            .unwrap_or(&none);
        let failed = self.check(per_rank, global);
        let mut counters = vec![
            // Phase totals of the busiest aggregator.
            (
                "cc-core.read_virt_s",
                max_of(ranks.iter().map(|r| r.read_s)),
            ),
            ("cc-core.map_virt_s", max_of(ranks.iter().map(|r| r.map_s))),
            (
                "cc-core.local_reduction_virt_s",
                max_of(ranks.iter().map(|r| r.local_reduction_s)),
            ),
            (
                "cc-core.result_words_shuffled",
                ranks.iter().map(|r| r.words as f64).sum(),
            ),
            (
                "cc-core.metadata_entries",
                ranks.iter().map(|r| r.meta_entries as f64).sum(),
            ),
            (
                "cc-core.metadata_bytes",
                ranks.iter().map(|r| r.meta_bytes as f64).sum(),
            ),
        ];
        counters.extend(comm_counters(ranks.iter().map(|r| &r.stats)));
        counters.extend(pfs_counters(&fs, virt_time_s));
        Rep {
            host_wall_s,
            virt_time_s,
            latencies_s: ranks.iter().map(|r| r.latency_s).collect(),
            attempted: self.attempted(),
            failed,
            counters,
        }
    }

    fn probes(&self, t: &mut Tracer, primary: &Rep) -> Counters {
        self.c.probes(t, bytes_sent(primary))
    }

    fn paper_speedup(&self) -> Option<f64> {
        self.paper_speedup
    }
}

// ------------------------------------------------------------------ ckpt_write

/// `collective_write` of the `fig9_1to1` request set into a writable
/// in-memory file, read back with `collective_read` and compared. Baseline:
/// every rank writes its own extents with `independent_write`.
struct WriteJob {
    c: Collective,
    /// The bytes rank `r` writes, in request-buffer order.
    data: Vec<Vec<u8>>,
    /// Expected digest of rank `r`'s read-back.
    oracle: Vec<u64>,
    setup: Counters,
}

impl WriteJob {
    fn new(rng: &mut Rng, t: &mut Tracer) -> Self {
        // Same request set, cluster and hints as fig9_1to1; the map cost is
        // irrelevant to a write, so nothing is calibrated.
        let (c, _, _, setup) = climate_collective(120, 128, 512, 5, true, rng, t);
        t.span("calibrate", |_| ());
        let salt = rng.next();
        let data = c
            .requests
            .iter()
            .enumerate()
            .map(|(r, req)| {
                let mut gen = Rng(salt ^ ((r as u64) << 32));
                let mut bytes = Vec::with_capacity(req.total_bytes() as usize);
                while bytes.len() < req.total_bytes() as usize {
                    bytes.extend_from_slice(&gen.next().to_le_bytes());
                }
                bytes.truncate(req.total_bytes() as usize);
                bytes
            })
            .collect();
        Self {
            c,
            data,
            oracle: Vec::new(),
            setup,
        }
    }

    /// Reads every rank's request back collectively and counts the ranks
    /// whose bytes differ from what they wrote.
    fn verify(&self, fs: &Arc<Pfs>) -> u64 {
        let c = &self.c;
        let digests = guarded(|| {
            c.world().run(|comm| {
                let file = fs.open(&c.file).expect("created by fresh_fs");
                let (bytes, _) =
                    collective_read(comm, fs, &file, &c.requests[comm.rank()], &c.hints);
                digest(&bytes)
            })
        });
        match digests {
            None => c.nprocs as u64,
            Some(d) => d
                .iter()
                .zip(&self.oracle)
                .filter(|(got, want)| got != want)
                .count() as u64,
        }
    }

    /// One write of every rank's data through `write`, timed, verified.
    fn run(
        &self,
        span: &str,
        t: &mut Tracer,
        write: impl Fn(&mut Comm, &Pfs, &cc_pfs::FileHandle, &OffsetList, &[u8]) -> (f64, u64, u64)
            + Send
            + Sync,
    ) -> Rep {
        let c = &self.c;
        let fs = (c.fresh_fs)();
        let (ranks, host_wall_s) = t.span(span, |_| {
            guarded(|| {
                c.world().run(|comm| {
                    let arrived = c.arrive(comm);
                    let file = fs.open(&c.file).expect("created by fresh_fs");
                    let r = comm.rank();
                    let (end_s, calls, shuffled) =
                        write(comm, &fs, &file, &c.requests[r], &self.data[r]);
                    (end_s, calls, shuffled, comm.stats(), end_s - arrived)
                })
            })
        });
        let attempted = c.nprocs as u64;
        let Some(ranks) = ranks else {
            return Rep::panicked(host_wall_s, attempted);
        };
        let virt_time_s = max_of(ranks.iter().map(|r| r.0));
        let mut counters = vec![
            (
                "cc-mpiio.write_calls",
                ranks.iter().map(|r| r.1 as f64).sum(),
            ),
            (
                "cc-mpiio.write_bytes_shuffled",
                ranks.iter().map(|r| r.2 as f64).sum(),
            ),
        ];
        counters.extend(comm_counters(ranks.iter().map(|r| &r.3)));
        counters.extend(pfs_counters(&fs, virt_time_s));
        Rep {
            host_wall_s,
            virt_time_s,
            latencies_s: ranks.iter().map(|r| r.4).collect(),
            attempted,
            failed: self.verify(&fs),
            counters,
        }
    }
}

impl Workload for WriteJob {
    fn setup_counters(&self) -> &Counters {
        &self.setup
    }

    fn arm_oracle(&mut self, wrong: bool) {
        self.oracle = self.data.iter().map(|d| digest(d)).collect();
        if wrong {
            self.oracle[0] ^= 1;
        }
    }

    fn reference(&mut self, t: &mut Tracer) -> Rep {
        let mut rep = self.run("reference", t, |comm, fs, file, request, data| {
            let rep = independent_write(comm, fs, file, request, data);
            (rep.end.secs(), rep.requests_issued, 0)
        });
        rep.counters = vec![("cc-mpiio.ref_host_wall_s", rep.host_wall_s)];
        rep
    }

    fn primary(&self, t: &mut Tracer) -> Rep {
        let hints = &self.c.hints;
        self.run("primary", t, |comm, fs, file, request, data| {
            let rep = collective_write(comm, fs, file, request, data, hints);
            (rep.end.secs(), rep.writes_issued, rep.bytes_shuffled)
        })
    }

    fn probes(&self, t: &mut Tracer, primary: &Rep) -> Counters {
        self.c.probes(t, bytes_sent(primary))
    }
}

// -------------------------------------------------------------- service_mix_64

/// 8 batch sweeps that exactly fill a 16 x 4-core cluster plus 56
/// interactive ROI queries arriving on top, open loop in virtual time,
/// under `QosWfq` with a 20 GB/s backbone and the shared plan cache.
/// Baseline: the same jobs chained end to end with `run_serial`.
struct ServiceMix {
    traffic: MixedTraffic,
    model: ClusterModel,
    specs: Vec<JobSpec>,
    /// Expected `global[0]` of every job.
    oracle: Vec<f64>,
    /// Every job's checksum under `run_serial`, once it has run.
    reference: Vec<u64>,
    setup: Counters,
}

const BACKBONE_BYTES_PER_SEC: f64 = 2e10;

impl ServiceMix {
    fn new(rng: &mut Rng, t: &mut Tracer) -> Self {
        let mut traffic = MixedTraffic::full(8, 56);
        traffic.batch_nprocs = 8;
        traffic.interactive_nprocs = 4;
        let model = ClusterModel::hopper_like(16, 4);
        let mut setup = Counters::new();
        let disk = model.disk.clone();
        let for_fs = traffic.clone();
        time_build_fs(&move || for_fs.build_fs(disk.clone()), &mut setup, t);
        let mut specs = traffic.jobs();
        // The seed moves each interactive query within its stripe (same OST,
        // other bytes), shifts its arrival inside its slot, and sets the
        // width all queries share (1000-1024 of 1024 columns; one shape, so
        // they still translate each other's plans). The schedule of slots,
        // and with it the offered load, stays fixed: moving a query to
        // another OST flips which job queues behind which, and the tail
        // latencies then jump by a whole service time between seeds.
        let spacing = traffic.interactive_spacing.secs();
        let rows_per_stripe = traffic.stripe_size / (traffic.cols * 8);
        let slots = rows_per_stripe / traffic.roi_rows;
        let width = traffic.cols - rng.below(25);
        for spec in specs
            .iter_mut()
            .filter(|s| s.class == QosClass::Interactive)
        {
            let row = &mut spec.steps[0].start[0];
            *row = *row / rows_per_stripe * rows_per_stripe + rng.below(slots) * traffic.roi_rows;
            spec.steps[0].count[1] = width;
            spec.arrival = SimTime::from_secs(spec.arrival.secs() + 0.1 * spacing * rng.unit());
        }
        let var = traffic.variable();
        let (extents, flatten_s) = t.span("cc-array.flatten", |_| {
            specs
                .iter()
                .flat_map(|spec| {
                    spec.steps.iter().flat_map(move |step| {
                        (0..spec.nprocs).map(move |r| spec.rank_io(step, r, spec.nprocs))
                    })
                })
                .map(|io| {
                    var.byte_extents(&Hyperslab::new(io.start, io.count))
                        .extents()
                        .len()
                })
                .sum::<usize>()
        });
        setup.push(("cc-array.flatten_host_s", flatten_s));
        setup.push(("cc-array.extents", extents as f64));
        t.span("calibrate", |_| ());
        Self {
            traffic,
            model,
            specs,
            oracle: Vec::new(),
            reference: Vec::new(),
            setup,
        }
    }

    fn service(&self, fs: Arc<Pfs>) -> Service {
        Service::new(self.model.clone(), fs)
            .with_policy(ServicePolicy::QosWfq)
            .with_backbone(BACKBONE_BYTES_PER_SEC)
    }

    /// Submits every job; returns the service and how many were refused.
    fn admitted(&self, fs: Arc<Pfs>) -> (Service, u64) {
        let mut svc = self.service(fs);
        let refused = self
            .specs
            .iter()
            .filter(|s| svc.submit((*s).clone()).is_err())
            .count();
        (svc, refused as u64)
    }

    fn check(&self, out: &ServiceOutcome) -> u64 {
        let mut failed = 0;
        for (i, job) in out.jobs.iter().enumerate() {
            let vs_oracle = job
                .global
                .as_ref()
                .is_some_and(|g| close(g[0], self.oracle[i]));
            let vs_baseline = self
                .reference
                .get(i)
                .is_none_or(|want| job.checksum() == *want);
            failed += u64::from(!(vs_oracle && vs_baseline));
        }
        failed + (self.specs.len() - out.jobs.len()) as u64
    }

    fn rep(&self, out: Option<&ServiceOutcome>, refused: u64, host_wall_s: f64, fs: &Pfs) -> Rep {
        let attempted = self.specs.len() as u64;
        let Some(out) = out else {
            return Rep::panicked(host_wall_s, attempted);
        };
        let stats = fs.stats();
        let mut counters = vec![
            ("cc-service.admitted", out.jobs.len() as f64),
            ("cc-service.refused", refused as f64),
            (
                "cc-service.queue_wait_virt_s",
                out.jobs
                    .iter()
                    .map(|j| j.started.saturating_since(j.submitted).secs())
                    .sum(),
            ),
            ("cc-service.cross_job_rate", out.cache.cross_job_rate()),
            (
                "cc-service.lane_bytes",
                out.lane.map_or(0.0, |l| l.bytes as f64),
            ),
            ("cc-pfs.reads", stats.reads as f64),
            ("cc-pfs.writes", stats.writes as f64),
            ("cc-pfs.bytes_read", stats.bytes_read as f64),
            ("cc-pfs.bytes_written", stats.bytes_written as f64),
            ("cc-pfs.extents_served", stats.extents_served as f64),
            (
                "cc-pfs.ost_busy_s",
                out.ost.iter().map(|o| o.busy_secs).sum(),
            ),
            (
                "cc-pfs.ost_wait_s",
                out.ost.iter().map(|o| o.waited_secs).sum(),
            ),
            (
                "cc-pfs.delayed_requests",
                out.ost.iter().map(|o| o.delayed_requests as f64).sum(),
            ),
            ("cc-pfs.ost_imbalance", fs.ost_imbalance()),
        ];
        counters.extend(plan_counters(&out.cache));
        Rep {
            host_wall_s,
            virt_time_s: out.makespan.secs(),
            latencies_s: out
                .jobs
                .iter()
                .filter(|j| j.class == QosClass::Interactive)
                .map(|j| j.latency().secs())
                .collect(),
            attempted,
            failed: self.check(out),
            counters,
        }
    }
}

impl Workload for ServiceMix {
    fn setup_counters(&self) -> &Counters {
        &self.setup
    }

    fn arm_oracle(&mut self, wrong: bool) {
        let cols = self.traffic.cols;
        self.oracle = self
            .specs
            .iter()
            .map(|spec| {
                spec.steps
                    .iter()
                    .flat_map(|s| {
                        (s.start[0]..s.start[0] + s.count[0]).flat_map(move |row| {
                            row * cols + s.start[1]..row * cols + s.start[1] + s.count[1]
                        })
                    })
                    .map(default_climate_value)
                    .sum()
            })
            .collect();
        if wrong {
            self.oracle[0] *= 1.001;
        }
    }

    fn reference(&mut self, t: &mut Tracer) -> Rep {
        let fs = self.traffic.build_fs(self.model.disk.clone());
        let (svc, refused) = self.admitted(Arc::clone(&fs));
        let (out, host_wall_s) = t.span("reference", |_| guarded(|| svc.run_serial()));
        // Checked against the oracle only; then it becomes the baseline.
        self.reference.clear();
        let mut rep = self.rep(out.as_ref(), refused, host_wall_s, &fs);
        rep.counters = vec![
            ("cc-service.serial_makespan_virt_s", rep.virt_time_s),
            ("cc-mpiio.ref_host_wall_s", host_wall_s),
        ];
        if let Some(out) = out {
            self.reference = out.jobs.iter().map(|j| j.checksum()).collect();
        }
        rep
    }

    fn primary(&self, t: &mut Tracer) -> Rep {
        let fs = self.traffic.build_fs(self.model.disk.clone());
        let (svc, refused) = self.admitted(Arc::clone(&fs));
        let (out, host_wall_s) = t.span("primary", |_| guarded(|| svc.run()));
        self.rep(out.as_ref(), refused, host_wall_s, &fs)
    }

    fn probes(&self, t: &mut Tracer, primary: &Rep) -> Counters {
        // The layer probes replay one collective of the mix: step 0 of
        // batch sweep 0.
        let spec = &self.specs[0];
        let step = &spec.steps[0];
        let requests = (0..spec.nprocs)
            .map(|r| {
                let io = spec.rank_io(step, r, spec.nprocs);
                spec.var.byte_extents(&Hyperslab::new(io.start, io.count))
            })
            .collect();
        let (traffic, disk) = (self.traffic.clone(), self.model.disk.clone());
        let c = Collective {
            nprocs: spec.nprocs,
            model: self.model.clone(),
            hints: spec.hints.clone(),
            file: spec.file.clone(),
            dtype: spec.var.dtype(),
            kernel: Kernel::Sum,
            requests: Arc::new(requests),
            arrivals: Vec::new(),
            fresh_fs: Box::new(move || traffic.build_fs(disk.clone())),
        };
        let mut out = c.probes(t, bytes_sent(primary));

        // Scheduler residual: the concurrent run's wall time minus what the
        // same jobs cost one at a time, each alone on a fresh file system.
        let (solo_s, _) = t.span("cc-service.sched_overhead_host_s", |_| {
            self.specs
                .iter()
                .map(|spec| {
                    let mut svc = self.service(self.traffic.build_fs(self.model.disk.clone()));
                    svc.submit(spec.clone())
                        .expect("admitted in the primary run");
                    crate::instruments::timed(|| svc.run()).1
                })
                .sum::<f64>()
        });
        out.push((
            "cc-service.sched_overhead_host_s",
            primary.host_wall_s - solo_s,
        ));

        // How far the virtual clock wanders between identical runs of a
        // population too big for the cluster: 16 sweeps + 48 queries. This
        // moves no median here; it bounds how tight any virtual-clock bound
        // can be made until the executor is deterministic.
        let (makespans, _) = t.span("cc-service.virt_jitter", |_| {
            let mut big = MixedTraffic::full(16, 48);
            big.batch_nprocs = 8;
            big.interactive_nprocs = 4;
            (0..10)
                .map(|_| {
                    let mut svc = self.service(big.build_fs(self.model.disk.clone()));
                    for spec in big.jobs() {
                        svc.submit(spec)
                            .expect("the rejected population still admits");
                    }
                    svc.run().makespan.secs()
                })
                .collect::<Vec<_>>()
        });
        let spread = max_of(makespans.iter().copied())
            - makespans.iter().copied().fold(f64::INFINITY, f64::min);
        out.push((
            "cc-service.virt_jitter_frac",
            spread / crate::stats::median(&makespans),
        ));
        out
    }
}

// ---------------------------------------------------------------- manytask_10k

/// 10,240 tiny tasks over one shared file, fused into collective sweeps by
/// `TaskBatch::run_fused` on 256 ranks and 64 OSTs. Baseline: every task
/// reads its own extents (`run_independent`).
struct ManyTasks {
    tasks: ManyTask,
    model: ClusterModel,
    specs: Vec<TaskSpec>,
    oracle: Vec<Vec<f64>>,
    /// Every task's checksum under `run_independent`, once it has run.
    reference: Vec<u64>,
    setup: Counters,
}

impl ManyTasks {
    fn new(rng: &mut Rng, t: &mut Tracer) -> Self {
        let mut tasks = ManyTask::full(10240);
        tasks.nprocs = 256;
        // The seed picks the stencil shift between waves, the period of
        // exact duplicates, and a sub-window offset of each wave's burst.
        tasks.stencil_shift = 1 + rng.below(3);
        tasks.duplicate_every = 4 + rng.below(3) as usize;
        let model = ClusterModel::hopper_like(64, 4);
        let mut setup = Counters::new();
        let disk = model.disk.clone();
        let for_fs = tasks.clone();
        time_build_fs(&move || for_fs.build_fs(disk.clone()), &mut setup, t);
        let offsets: Vec<f64> = (0..tasks.waves).map(|_| 2e-3 * rng.unit()).collect();
        let per_wave = tasks.tasks_per_wave();
        let mut specs = tasks.specs();
        for (i, spec) in specs.iter_mut().enumerate() {
            spec.arrival = SimTime::from_secs(spec.arrival.secs() + offsets[i / per_wave]);
        }
        let (extents, flatten_s) = t.span("cc-array.flatten", |_| {
            specs
                .iter()
                .map(|s| {
                    let slab = Hyperslab::new(s.start.clone(), s.count.clone());
                    s.var.byte_extents(&slab).extents().len()
                })
                .sum::<usize>()
        });
        setup.push(("cc-array.flatten_host_s", flatten_s));
        setup.push(("cc-array.extents", extents as f64));
        t.span("calibrate", |_| ());
        Self {
            tasks,
            model,
            specs,
            oracle: Vec::new(),
            reference: Vec::new(),
            setup,
        }
    }

    /// Admits every task; returns the batch and how many were refused.
    fn admitted(&self) -> (TaskBatch, Arc<Pfs>, u64) {
        let fs = self.tasks.build_fs(self.model.disk.clone());
        let mut batch =
            TaskBatch::new(self.model.clone(), Arc::clone(&fs)).with_policy(self.tasks.policy());
        let refused = self
            .specs
            .iter()
            .filter(|s| batch.submit((*s).clone()).is_err())
            .count();
        (batch, fs, refused as u64)
    }

    fn check(&self, out: &cc_service::BatchOutcome) -> u64 {
        let mut failed = 0;
        for (i, task) in out.tasks.iter().enumerate() {
            let vs_oracle = all_close(&task.value, &self.oracle[i]);
            let vs_baseline = self
                .reference
                .get(i)
                .is_none_or(|want| task.checksum() == *want);
            failed += u64::from(!(vs_oracle && vs_baseline));
        }
        failed + (self.specs.len() - out.tasks.len()) as u64
    }
}

impl Workload for ManyTasks {
    fn setup_counters(&self) -> &Counters {
        &self.setup
    }

    fn arm_oracle(&mut self, wrong: bool) {
        self.oracle = (0..self.specs.len())
            .map(|i| self.tasks.oracle_task(i))
            .collect();
        if wrong {
            self.oracle[0][0] *= 1.001;
        }
    }

    fn reference(&mut self, t: &mut Tracer) -> Rep {
        let (batch, _fs, _) = self.admitted();
        let attempted = self.specs.len() as u64;
        let (out, host_wall_s) = t.span("reference", |_| guarded(|| batch.run_independent()));
        let Some(out) = out else {
            return Rep::panicked(host_wall_s, attempted);
        };
        self.reference.clear();
        let failed = self.check(&out);
        self.reference = out.tasks.iter().map(|t| t.checksum()).collect();
        Rep {
            host_wall_s,
            virt_time_s: out.makespan.secs(),
            latencies_s: out.tasks.iter().map(|t| t.latency().secs()).collect(),
            attempted,
            failed,
            counters: vec![
                (
                    "cc-service.independent_makespan_virt_s",
                    out.makespan.secs(),
                ),
                ("cc-mpiio.ref_host_wall_s", host_wall_s),
            ],
        }
    }

    fn primary(&self, t: &mut Tracer) -> Rep {
        let (batch, fs, refused) = self.admitted();
        let attempted = self.specs.len() as u64;
        let (out, host_wall_s) = t.span("primary", |_| guarded(|| batch.run_fused()));
        let Some(out) = out else {
            return Rep::panicked(host_wall_s, attempted);
        };
        let task_extents: u64 = out.bins.iter().map(|b| b.task_extents).sum();
        let fused_extents: u64 = out.bins.iter().map(|b| b.fused_extents).sum();
        let mut counters = vec![
            ("cc-service.admitted", out.tasks.len() as f64),
            ("cc-service.refused", refused as f64),
            ("cc-service.bins", out.bins.len() as f64),
            ("cc-service.tasks_per_schedule", out.tasks_per_schedule()),
            ("cc-service.task_p99_virt_s", out.latency_p99.secs()),
            (
                "cc-mpiio.fuse_extent_ratio",
                task_extents as f64 / fused_extents.max(1) as f64,
            ),
        ];
        counters.extend(plan_counters(&out.plan_cache));
        counters.extend(pfs_counters(&fs, out.makespan.secs()));
        Rep {
            host_wall_s,
            virt_time_s: out.makespan.secs(),
            latencies_s: out.tasks.iter().map(|t| t.latency().secs()).collect(),
            attempted,
            failed: self.check(&out),
            counters,
        }
    }

    fn probes(&self, t: &mut Tracer, primary: &Rep) -> Counters {
        // The layer probes replay one fused sweep: wave 0's sum-class bin,
        // chunked across ranks and union-merged the way `run_fused` does it
        // (offset-sorted, contiguous even chunks, `fuse_extents` per rank).
        let nprocs = self.tasks.nprocs;
        let mut bin: Vec<(u64, OffsetList)> = self.specs[..self.tasks.tasks_per_wave() * 3 / 4]
            .iter()
            .map(|s| {
                let request = s
                    .var
                    .byte_extents(&Hyperslab::new(s.start.clone(), s.count.clone()));
                (request.min_offset().unwrap_or(0), request)
            })
            .collect();
        bin.sort_by_key(|(offset, _)| *offset);
        let (base, extra) = (bin.len() / nprocs, bin.len() % nprocs);
        let mut rest = bin.as_slice();
        let requests = (0..nprocs)
            .map(|r| {
                let (mine, tail) = rest.split_at(base + usize::from(r < extra));
                rest = tail;
                fuse_extents(mine.iter().map(|(_, request)| request)).0
            })
            .collect();
        let (tasks, disk) = (self.tasks.clone(), self.model.disk.clone());
        let c = Collective {
            nprocs,
            model: self.model.clone(),
            hints: self.tasks.policy().hints,
            file: ManyTask::FILE.to_string(),
            dtype: DType::F64,
            kernel: Kernel::Sum,
            requests: Arc::new(requests),
            arrivals: Vec::new(),
            fresh_fs: Box::new(move || tasks.build_fs(disk.clone())),
        };
        c.probes(t, bytes_sent(primary))
    }
}
