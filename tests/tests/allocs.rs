//! Allocator-level claims, in their own test binary because it installs a
//! counting global allocator.
//!
//! - A warmed codec pass does not touch the allocator: once the caller's
//!   wire and output buffers reach their high-water marks, an error-bounded
//!   encode + decode reuses them, as the shuffle engines' pooled buffers
//!   rely on. The harness runs tests on several threads, so allocation
//!   counts are kept per thread.
//! - A fused task batch's heap does not grow with its bin count: every
//!   sweep runs on the same rank threads, and each rank empties its buffer
//!   pool at every bin boundary. Rank threads allocate too, so live bytes
//!   are counted process-wide, and the tests take turns.
//! - The hierarchical two-phase read holds about one round of shuffle
//!   buffers beside its output, and its node leaders relay each frame to
//!   their members as shared slices, allocating nothing per section.
//! - The read hot path allocates per call, not per selection run:
//!   flattening a hyperslab advances one coordinate buffer in place, and
//!   the engine's logical map and partial absorption walk iterators into
//!   reused buffers, so a more fragmented selection of the same bytes
//!   costs the world no more allocations.
//! - An aggregator keeps its per-owner partials in one arena: a read
//!   that leaves every aggregator a partial for every rank costs each
//!   added aggregator a bounded number of allocations, not one per owner.
//! - A fused task batch costs a few allocations per task: admission moves
//!   the selection into flattening and the run moves each task's name
//!   into its result.
//! - A service job's ranks stay resident between its steps: an extra
//!   step costs the step's own allocations, not a world's set-up too.
//! - The hierarchical two-phase write packs each rank's pieces once, into
//!   one window its leader and same-node aggregators read in place: it
//!   allocates per rank and per frame, not per piece, and holds the
//!   windows and about a round of frames beside its data and file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cc_array::{DType, Hyperslab, Shape, Variable};
use cc_compress::{decode_into, encode_into, Compression, ErrorBound};
use cc_core::kernel::PartialReduceOp;
use cc_core::{
    object_get_vara, FusedKernel, MapKernel, MinLocKernel, ObjectIo, Partial, ReduceMode,
    SumKernel, SumSqKernel,
};
use cc_integration::{assert_close, build_var_fs, test_model, test_value};
use cc_model::{ClusterModel, DiskModel};
use cc_mpi::World;
use cc_mpiio::{collective_read, collective_write, Extent, Hints, OffsetList};
use cc_pfs::{MemBackend, Pfs, StripeLayout};
use cc_service::{TaskBatch, TaskSpec};
use cc_workloads::ManyTask;

/// `System`, counting every allocation and reallocation, by the calling
/// thread and by all threads, and the bytes live across all threads.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations and reallocations made by every thread.
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The high-water mark of `LIVE` since the last [`peak_heap_during`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn count() {
    // A const-initialised `Cell` needs no allocation or destructor, so the
    // allocator cannot recurse into itself; `try_with` skips allocations
    // made while the thread's locals are being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s implementation of the `GlobalAlloc` contract is this one's;
// the bookkeeping touches only atomics and a const thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s size rules.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Held by every test, so a process-wide peak sees one test's heap only.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn allocs_during(f: impl FnOnce()) -> u64 {
    let start = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - start
}

/// Allocations made by every thread while `f` ran; meaningful only while
/// the caller holds [`one_at_a_time`].
fn world_allocs_during(f: impl FnOnce()) -> u64 {
    let start = ALL_ALLOCS.load(Ordering::Relaxed);
    f();
    ALL_ALLOCS.load(Ordering::Relaxed) - start
}

/// The most bytes `f` held live at once, beyond what was live before it.
fn peak_heap_during(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - base
}

/// The least of three runs of `peak`, a single run's peak heap. A run's
/// peak follows how many buffers thread timing happens to keep in flight
/// at once: a regression raises every run, a scheduling accident only some.
fn least_of_three(peak: impl FnMut() -> usize) -> usize {
    std::iter::repeat_with(peak)
        .take(3)
        .min()
        .expect("three runs")
}

#[test]
fn warmed_codec_pass_does_not_allocate() {
    let _turn = one_at_a_time();
    // 256 K smooth f64 values: the payload class the lossy codec is for.
    let field: Vec<u8> = (0..1usize << 18)
        .flat_map(|i| (300.0 + 40.0 * (i as f64 * 1e-3).sin()).to_le_bytes())
        .collect();
    let mode = Compression::ErrorBounded(ErrorBound::absolute(1e-6));
    let (mut wire, mut out) = (Vec::new(), Vec::new());
    let mut pass = || {
        encode_into(&mode, &field, &mut wire);
        assert_eq!(
            decode_into(&wire, &mut out),
            field.len(),
            "roundtrip length"
        );
    };
    pass(); // grow both buffers to their high-water marks
    assert_eq!(allocs_during(pass), 0, "a warmed codec pass allocated");
}

/// Flattening a 4-run and a 400-run box of a 3-D variable costs the same
/// allocations: the run iterator's coordinate buffer, the exactly sized
/// extent table and its prefix sums. A run iterator that cloned and
/// extended its odometer per run counted 12 and 811 here.
#[test]
fn flattening_allocates_per_call_not_per_run() {
    let _turn = one_at_a_time();
    let var = Variable::new("v", Shape::new(vec![10, 40, 64]), DType::F64, 512);
    let allocs = |slab: Hyperslab| {
        allocs_during(|| {
            let list = var.byte_extents(&slab);
            assert_eq!(list.total_bytes(), slab.num_elements() * 8);
        })
    };
    let few = allocs(Hyperslab::new(vec![2, 0, 8], vec![1, 4, 16]));
    let many = allocs(Hyperslab::new(vec![0, 0, 8], vec![10, 40, 16]));
    assert!(
        few == many && many <= 3,
        "flattening 4 runs allocated {few} times, 400 runs {many} times"
    );
}

/// World allocations of one all-to-one `object_get_vara` with `kernel`,
/// whose first result is the sum, on 16 ranks, each rank reading 2,048
/// `f64`s as `runs` rows of one column block, in 16 KiB collective-buffer
/// chunks.
fn object_read_allocs(runs: u64, kernel: &dyn MapKernel) -> u64 {
    const RANKS: usize = 16;
    const PER_RANK: u64 = 2048;
    let width = PER_RANK / runs;
    let shape = Shape::new(vec![runs, width * RANKS as u64]);
    let (fs, var) = build_var_fs(&shape, 64 << 10, 4, 4);
    let world = World::new(RANKS, test_model(4, 4));
    let hints = Hints {
        cb_buffer_size: 16 << 10,
        ..Hints::default()
    };
    let mut global = None;
    let allocs = world_allocs_during(|| {
        let out = world.run(|comm| {
            let file = fs.open("t.nc").expect("created by build_var_fs");
            let io = ObjectIo::new(vec![0, comm.rank() as u64 * width], vec![runs, width])
                .hints(hints.clone())
                .reduce(ReduceMode::AllToOne { root: 0 });
            object_get_vara(comm, &fs, &file, &var, &io, kernel).global
        });
        global = out.into_iter().find_map(|g| g);
    });
    let expect: f64 = (0..shape.num_elements()).map(test_value).sum();
    assert_close(global.expect("the root's result")[0], expect, "global sum");
    allocs
}

/// The same bytes per rank as 32 and then as 128 runs: the world's
/// allocations do not grow with the run count (about 535 either way).
/// Allocating per run and per piece — the flattening odometer, a piece
/// list and a run list per (chunk, owner), a pair list and a partial per
/// received message — counted 1,985 with 32 runs and 5,340 with 128:
/// 3,355 more, about 210 per rank.
#[test]
fn object_read_allocations_do_not_grow_with_runs() {
    let _turn = one_at_a_time();
    let few = object_read_allocs(32, &SumKernel);
    let many = object_read_allocs(128, &SumKernel);
    assert!(
        many < few + 16,
        "{few} allocations with 32 runs per rank, {many} with 128; the bound is {}",
        few + 16
    );
}

/// The same reads with a fused sum, min-location and moments kernel: a
/// fused fold stages each component's slot through its thread's staging
/// partial, so the world's allocations still do not grow with the run
/// count (about 735 either way). A scratch partial per `map` and two per
/// `combine` counted 1,406 with 32 runs and 2,933 with 128.
#[test]
fn fused_object_read_allocations_do_not_grow_with_runs() {
    let _turn = one_at_a_time();
    let fused = FusedKernel::new(vec![&SumKernel, &MinLocKernel, &SumSqKernel]);
    let few = object_read_allocs(32, &fused);
    let many = object_read_allocs(128, &fused);
    assert!(
        many < few + 16,
        "{few} allocations with 32 runs per rank, {many} with 128; the bound is {}",
        few + 16
    );
}

/// The root's allocations in the tree reduce that ends an all-to-all
/// `object_get_vara` (the baseline's `MPI_Reduce` too): `ranks` ranks, 4
/// to a node, each reducing a located-minimum partial to rank 0 through
/// `PartialReduceOp`. The root makes the most combines; the other ranks'
/// counts also carry their sends, which grow a receiver's mailbox queue
/// whenever it holds more than four messages, depending on thread order.
fn partial_reduce_root_allocs(ranks: usize) -> u64 {
    let world = World::new(ranks, test_model(ranks / 4, 4));
    let mut out = world.run(|comm| {
        // Rank r maps [r + 1, ranks - r] at element 2r: the minimum 1.0 is
        // at element 0 and at the last rank's element 2 * ranks - 1.
        let r = comm.rank();
        let mut partial = MinLocKernel.identity();
        let run = [r as f64 + 1.0, (ranks - r) as f64];
        MinLocKernel.map(&mut partial, 2 * r as u64, &run);
        let words = partial.to_words();
        let mut global = None;
        let allocs = allocs_during(|| {
            global = comm.reduce(0, &words, &PartialReduceOp(&MinLocKernel));
        });
        (allocs, global)
    });
    let (allocs, global) = out.swap_remove(0);
    let (global, _) = Partial::from_words(&global.expect("the root's result"));
    assert_eq!(
        MinLocKernel.finalize(&global),
        vec![1.0, 0.0],
        "ties go to the lower index"
    );
    allocs
}

/// The reduce on 8 and on 64 ranks: the root combines 4 and then 7
/// partials (3 from its node, then 1 and then 4 from other leaders), and
/// its allocations do not grow with them: 6 and 7 (the partial it starts
/// from, its receive buffer, two staging partials and their stack, and
/// its buffer pool's freelist, which doubles once past 4 retained
/// payloads). Decoding both operands of every combine into fresh
/// partials and each received message into a fresh vector cost the root
/// 3 allocations per combine: 14 and 24.
#[test]
fn partial_reduce_allocations_do_not_grow_with_ranks() {
    let _turn = one_at_a_time();
    let few = partial_reduce_root_allocs(8);
    let many = partial_reduce_root_allocs(64);
    assert!(
        many <= few + 1,
        "the root made {few} allocations reducing on 8 ranks, {many} on 64; \
         the bound is {}",
        few + 1
    );
}

/// Peak heap of 256 `ManyTask::quick` sum tasks on 256 ranks (8 nodes of
/// 32), fused in `waves` arrival waves, each one bin: wave `w` holds
/// `(2w + 1) * 256 / waves²` tasks. So one wave is one bin of all 256,
/// and eight are bins of 4, 12, ..., 60, each larger than the one before:
/// the buffers an earlier bin left in the ranks' pools are too small for
/// the later bins' takes.
fn fused_batch_peak(waves: usize) -> usize {
    const TASKS: usize = 256;
    let mut tasks = ManyTask::quick(TASKS * waves);
    tasks.waves = waves;
    tasks.nprocs = 256;
    let model = ClusterModel::hopper_like(8, 32);
    let mut batch = TaskBatch::new(model.clone(), tasks.build_fs(model.disk.clone()))
        .with_policy(tasks.policy());
    for (i, spec) in tasks.specs().into_iter().enumerate() {
        let (wave, k) = (i / TASKS, i % TASKS);
        if k < (2 * wave + 1) * TASKS / (waves * waves) {
            let spec = TaskSpec {
                kernel: Arc::new(SumKernel),
                ..spec
            };
            batch.submit(spec).expect("many-task specs admit");
        }
    }
    peak_heap_during(|| {
        let out = batch.run_fused();
        assert_eq!(out.bins.len(), waves);
    })
}

#[test]
fn fused_batch_heap_does_not_grow_with_bins() {
    let _turn = one_at_a_time();
    // A sweep's peak depends on how many buffers happen to be in flight at
    // once, which follows thread timing, and 8 bins take 8 draws of it; so
    // the 1-bin side is the worst of 8 runs, and the 8-bin side the least
    // of 3. Each rank empties its buffer pool at every bin boundary, and 8
    // bins peak at 0.36-0.45x of one. Receivers pool the buffers their
    // senders allocated, and a pooled buffer smaller than a take serves
    // none of it, so without the reset every bin's leftovers stay beside
    // the next bin's: 8 bins then peak at 1.7-1.9x of one.
    let one = (0..8)
        .map(|_| fused_batch_peak(1))
        .max()
        .expect("eight runs");
    let eight = least_of_three(|| fused_batch_peak(8));
    assert!(
        eight as f64 <= 1.25 * one as f64,
        "8 bins peaked at {eight} B against {one} B for 1 bin"
    );
}

/// The read shape of the shuffle-memory tests: 4 nodes of 6 ranks, one
/// aggregator per node, a `4 * ROUNDS * CB`-byte file, so each aggregator
/// stages `ROUNDS` chunks of `CB` bytes.
const NODES: usize = 4;
const CORES: usize = 6;
const ROUNDS: usize = 16;
const CB: usize = 256 << 10;
const BLOCK: u64 = 4 << 10;

/// The read shape's file system: one file of `NODES * ROUNDS * CB` bytes
/// whose byte `i` is `i % 251`.
fn read_shape_fs() -> Arc<Pfs> {
    let size = NODES * ROUNDS * CB;
    let fs = Pfs::new(4, DiskModel::lustre_like());
    fs.create(
        "f",
        StripeLayout::round_robin(1 << 20, 4, 0, 4),
        Box::new(MemBackend::from_bytes(
            (0..size).map(|i| (i % 251) as u8).collect(),
        )),
    );
    Arc::new(fs)
}

/// Block `k` of the file (`BLOCK` bytes) goes to rank `owner(k)`, or to
/// nobody when `owner` returns `None`.
fn read_shape_requests(owner: impl Fn(u64) -> Option<usize>) -> Vec<OffsetList> {
    let blocks = (NODES * ROUNDS * CB) as u64 / BLOCK;
    (0..NODES * CORES)
        .map(|r| {
            let mine = (0..blocks).filter(|&k| owner(k) == Some(r));
            OffsetList::new(
                mine.map(|k| Extent {
                    offset: k * BLOCK,
                    len: BLOCK,
                })
                .collect(),
            )
        })
        .collect()
}

/// Runs one collective read of `requests` on the read shape and checks
/// every rank's bytes and the aggregators' round count.
fn read_shape_run(fs: &Arc<Pfs>, requests: &[OffsetList]) {
    let hints = Hints {
        cb_buffer_size: CB as u64,
        aggregators_per_node: 1,
        ..Hints::default()
    };
    let out = World::new(NODES * CORES, test_model(NODES, CORES)).run(|comm| {
        let file = fs.open("f").expect("created above");
        let (bytes, report) = collective_read(comm, fs, &file, &requests[comm.rank()], &hints);
        let want = requests[comm.rank()]
            .extents()
            .iter()
            .flat_map(|e| (e.offset..e.end()).map(|i| (i % 251) as u8));
        assert!(bytes.iter().copied().eq(want), "rank {} bytes", comm.rank());
        report.iterations.len()
    });
    for node in 0..NODES {
        assert_eq!(out[node * CORES], ROUNDS, "node {node}'s aggregator rounds");
    }
}

/// With every rank requesting every 24th block, each aggregator sends one
/// frame per remote node per round. A leader that relayed only after its
/// whole aggregator loop held every round's frames at once (about
/// `3/4 * NODES * ROUNDS * CB` bytes; the serial relay read about 22x
/// `NODES * CB` here). Paced and zero-copy, the shuffle holds per node its
/// staging chunk, a round of frames and direct pieces, up to a round more
/// while the leaders wait for the slowest aggregator, and the frames whose
/// slices a late-scheduled member has not read yet: 3.4-4.2x in practice,
/// bounded here at 6x whatever the round count, on the least of 3 runs.
#[test]
fn two_phase_read_peak_is_output_plus_a_round() {
    let _turn = one_at_a_time();
    let fs = read_shape_fs();
    let ranks = NODES * CORES;
    let requests = read_shape_requests(|k| Some(k as usize % ranks));
    let output = NODES * ROUNDS * CB;
    let peak = least_of_three(|| peak_heap_during(|| read_shape_run(&fs, &requests)));
    let shuffle = peak.saturating_sub(output);
    assert!(
        shuffle <= NODES * CB * 6,
        "the read held {shuffle} B beside its {output} B output, over {} B",
        NODES * CB * 6
    );
}

/// The same bytes read twice: once by the four node leaders only, once by
/// all 24 ranks. Each extra member costs the world its direct piece of
/// each same-node chunk (`ROUNDS`) and about ten allocations of setup, but
/// nothing for the sections relayed to it: those are slices of the
/// leader's frame. A relay that allocated a buffer per section adds
/// another `3 * ROUNDS` per member (about 78 in all).
#[test]
fn relaying_a_frame_allocates_nothing_per_member_section() {
    let _turn = one_at_a_time();
    let fs = read_shape_fs();
    let ranks = NODES * CORES;
    let leaders = read_shape_requests(|k| Some(CORES * (k as usize % NODES)));
    let everyone = read_shape_requests(|k| Some(k as usize % ranks));
    let members = (ranks - NODES) as u64;
    let base = world_allocs_during(|| read_shape_run(&fs, &leaders));
    let all = world_allocs_during(|| read_shape_run(&fs, &everyone));
    let per_member = all.saturating_sub(base) as f64 / members as f64;
    assert!(
        per_member < (2 * ROUNDS) as f64,
        "each member cost {per_member:.1} allocations ({base} with leaders only, {all} with \
         everyone); its direct pieces are {ROUNDS}"
    );
}

/// The write shape: the read shape's file, zero-filled, written by every
/// rank with every 24th block, so each rank sources every chunk of every
/// aggregator and each aggregator gets one frame per remote node a round.
fn write_shape() -> (Arc<Pfs>, Vec<OffsetList>, Vec<Vec<u8>>) {
    let fs = Pfs::new(4, DiskModel::lustre_like());
    fs.create(
        "f",
        StripeLayout::round_robin(1 << 20, 4, 0, 4),
        Box::new(MemBackend::zeroed(NODES * ROUNDS * CB)),
    );
    let ranks = NODES * CORES;
    let requests = read_shape_requests(|k| Some(k as usize % ranks));
    let data = requests
        .iter()
        .map(|req| {
            req.extents()
                .iter()
                .flat_map(|e| (e.offset..e.end()).map(|i| (i % 251) as u8))
                .collect()
        })
        .collect();
    (Arc::new(fs), requests, data)
}

/// Writes `data` collectively on the write shape.
fn write_shape_run(fs: &Arc<Pfs>, requests: &[OffsetList], data: &[Vec<u8>]) {
    let hints = Hints {
        cb_buffer_size: CB as u64,
        aggregators_per_node: 1,
        ..Hints::default()
    };
    World::new(NODES * CORES, test_model(NODES, CORES)).run(|comm| {
        let file = fs.open("f").expect("created above");
        let rank = comm.rank();
        collective_write(comm, fs, &file, &requests[rank], &data[rank], &hints);
    });
}

/// Checks that the file holds byte `i % 251` at every offset `i`.
fn check_written(fs: &Pfs) {
    let file = fs.open("f").expect("created above");
    let size = (NODES * ROUNDS * CB) as u64;
    let (bytes, _) = fs.read_at(&file, 0, size, cc_model::SimTime::ZERO);
    assert!(bytes.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
}

/// Each rank sources all 64 chunks, so a write that sends every rank's
/// pieces of a chunk as one message allocates at least 1,536 payloads
/// here (24 ranks x 4 aggregators x 16 rounds; that path counted about
/// 2,900 allocations in all). With windows the world allocates a bounded
/// amount per rank — exchange, plan, window, slot table, reader tables:
/// about 25 — plus one buffer per leader frame, about 780 in all.
#[test]
fn collective_write_allocates_per_rank_not_per_piece() {
    let _turn = one_at_a_time();
    let (fs, requests, data) = write_shape();
    let ranks = NODES * CORES;
    let frames = NODES * ROUNDS * (NODES - 1);
    let allocs = world_allocs_during(|| write_shape_run(&fs, &requests, &data));
    check_written(&fs);
    let bound = (40 * ranks + frames) as u64;
    assert!(
        allocs <= bound,
        "one write allocated {allocs} times, over {bound} (40 per rank + {frames} frames)"
    );
}

/// Beside its data and the file, the write holds, per node, its
/// aggregator's two staging chunks and about a round of frames: members
/// lend their write buffers in place instead of packing a copy, and the
/// leaders relay in step with their own aggregator loops. That peaks near
/// `1.94 * NODES * CB` here. Packing each rank's pieces into a window
/// copy reads about `data + 1.3 * NODES * CB`, and a leader that relays
/// every round before aggregating holds all of them at once.
#[test]
fn collective_write_peak_is_a_round() {
    let _turn = one_at_a_time();
    let (fs, requests, data) = write_shape();
    let peak = peak_heap_during(|| write_shape_run(&fs, &requests, &data));
    check_written(&fs);
    let bound = NODES * CB * 2;
    assert!(
        peak <= bound,
        "the write held {peak} B beside its data, over {bound} B"
    );
}

/// World allocations of one all-to-one `object_get_vara` sum on 2 nodes of
/// 32 ranks with `aggs_per_node` aggregators a node. Rank `r` reads column
/// `r` of a 64 x 64 variable, so every aggregator's file domain holds a
/// run of every rank and every aggregator keeps a partial for all 64.
fn interleaved_read_allocs(aggs_per_node: usize) -> u64 {
    const SIDE: u64 = 64;
    let shape = Shape::new(vec![SIDE, SIDE]);
    let (fs, var) = build_var_fs(&shape, 1 << 10, 4, 4);
    let world = World::new(SIDE as usize, test_model(2, SIDE as usize / 2));
    let hints = Hints {
        cb_buffer_size: 1 << 20,
        aggregators_per_node: aggs_per_node,
        ..Hints::default()
    };
    let mut global = None;
    let allocs = world_allocs_during(|| {
        let out = world.run(|comm| {
            let file = fs.open("t.nc").expect("created by build_var_fs");
            let io = ObjectIo::new(vec![0, comm.rank() as u64], vec![SIDE, 1])
                .hints(hints.clone())
                .reduce(ReduceMode::AllToOne { root: 0 });
            object_get_vara(comm, &fs, &file, &var, &io, &SumKernel).global
        });
        global = out.into_iter().find_map(|g| g);
    });
    let expect: f64 = (0..shape.num_elements()).map(test_value).sum();
    assert_close(global.expect("the root's result")[0], expect, "global sum");
    allocs
}

/// The same read with 2 and then 8 aggregators: each added aggregator
/// costs the world a bounded number of allocations (about 38: its staging
/// buffer, its message to the root, and the handful of arena buffers its
/// 64 partials live in, grown geometrically). A partial per owner in a
/// B-tree cost about 99 each, 64 partials and their nodes included, so
/// 1,000 owners would cost over a thousand per aggregator.
#[test]
fn interleaved_read_allocations_grow_per_aggregator_not_per_owner() {
    let _turn = one_at_a_time();
    let two = interleaved_read_allocs(1);
    let eight = interleaved_read_allocs(4);
    let per_agg = eight.saturating_sub(two) as f64 / 6.0;
    assert!(
        per_agg < 48.0,
        "each added aggregator cost {per_agg:.1} allocations ({two} with 2 aggregators, \
         {eight} with 8); the bound is 48"
    );
}

/// Allocations of admitting and then running a fused `ManyTask::quick`
/// batch of `tasks` tasks (8 bins on 16 ranks whatever the count).
fn fused_batch_allocs(tasks: usize) -> (u64, u64) {
    let tasks = ManyTask::quick(tasks);
    let model = ClusterModel::hopper_like(4, 4);
    let mut batch = TaskBatch::new(model.clone(), tasks.build_fs(model.disk.clone()))
        .with_policy(tasks.policy());
    let specs = tasks.specs();
    let admit = world_allocs_during(|| {
        for spec in specs {
            batch.submit(spec).expect("many-task specs admit");
        }
    });
    let run = world_allocs_during(|| {
        let out = batch.run_fused();
        assert_eq!(out.bins.len(), 8);
    });
    (admit, run)
}

/// A fused batch of 1,024 tasks against one of 256 in the same 8 bins:
/// each added task costs admission 3 allocations (the flattening's
/// coordinate buffer, extent table and prefix sums) and the run about 2.4,
/// its finalized value among them. Cloning the selection into a hyperslab
/// read 5 at admission, and cloning each task's name into its result read
/// 3.45 in the run.
#[test]
fn fused_batch_allocations_per_task() {
    let _turn = one_at_a_time();
    let (admit_few, run_few) = fused_batch_allocs(256);
    let (admit_many, run_many) = fused_batch_allocs(1024);
    let admit = admit_many.saturating_sub(admit_few) as f64 / 768.0;
    let run = run_many.saturating_sub(run_few) as f64 / 768.0;
    assert!(
        admit <= 3.25 && run <= 2.75,
        "each added task cost {admit:.2} allocations to admit ({admit_few} for 256 tasks, \
         {admit_many} for 1,024; the bound is 3.25) and {run:.2} to run ({run_few}, \
         {run_many}; the bound is 2.75)"
    );
}

/// Allocations of a service run of one 8-rank sum sweep of `steps` steps,
/// 8 rows of 64 each, on 2 nodes of 4 cores.
fn service_sweep_allocs(steps: u64) -> u64 {
    let shape = Shape::new(vec![8 * 12, 64]);
    let (fs, var) = build_var_fs(&shape, 4096, 4, 4);
    let mut svc = cc_service::Service::new(test_model(2, 4), fs);
    let mut spec = cc_service::JobSpec::new("sweep", "t.nc", var, 8, Arc::new(SumKernel));
    for s in 0..steps {
        spec = spec.step(vec![s * 8, 0], vec![8, 64]);
    }
    svc.submit(spec).expect("the sweep admits");
    world_allocs_during(|| {
        let out = svc.run();
        assert_eq!(out.jobs[0].steps, steps as usize);
    })
}

/// A service job's ranks are resident for its whole sweep: an 8-rank
/// sweep's extra steps cost about 194 allocations each, against 251.6
/// when every step started a world of its own (commit fe245af). The bound
/// is that figure less one no-op 8-rank `World::run`, which makes 29.
#[test]
fn resident_job_steps_start_no_world() {
    let _turn = one_at_a_time();
    let few = service_sweep_allocs(3);
    let many = service_sweep_allocs(12);
    let per_step = many.saturating_sub(few) as f64 / 9.0;
    assert!(
        per_step <= 251.6 - 29.0,
        "each extra step cost {per_step:.1} allocations ({few} for 3 steps, {many} for 12); \
         the bound is 222.6"
    );
}
