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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cc_compress::{decode_into, encode_into, Compression, ErrorBound};
use cc_core::SumKernel;
use cc_model::ClusterModel;
use cc_service::{TaskBatch, TaskSpec};
use cc_workloads::ManyTask;

/// `System`, counting every allocation and reallocation made by the
/// calling thread, and the bytes live across all threads.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The high-water mark of `LIVE` since the last [`peak_heap_during`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn count() {
    // A const-initialised `Cell` needs no allocation or destructor, so the
    // allocator cannot recurse into itself; `try_with` skips allocations
    // made while the thread's locals are being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
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

/// The most bytes `f` held live at once, beyond what was live before it.
fn peak_heap_during(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - base
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

/// Peak heap of a fused batch of `waves` identical waves on 16 ranks, each
/// wave one bin of 16 full-width 32-row sum tasks, 8 rows apart
/// (`ManyTask::quick`'s file otherwise).
fn fused_batch_peak(waves: usize) -> usize {
    let mut tasks = ManyTask::quick(16 * waves);
    tasks.waves = waves;
    tasks.task_rows = 32;
    tasks.row_stride = 8;
    tasks.task_cols = tasks.cols;
    let model = ClusterModel::hopper_like(4, 4);
    let mut batch = TaskBatch::new(model.clone(), tasks.build_fs(model.disk.clone()))
        .with_policy(tasks.policy());
    for spec in tasks.specs() {
        let spec = TaskSpec {
            kernel: Arc::new(SumKernel),
            ..spec
        };
        batch.submit(spec).expect("many-task specs admit");
    }
    peak_heap_during(|| {
        let out = batch.run_fused();
        assert_eq!(out.bins.len(), waves);
    })
}

#[test]
fn fused_batch_heap_does_not_grow_with_bins() {
    let _turn = one_at_a_time();
    // A sweep's peak depends on how many shuffle buffers happen to be in
    // flight at once, which follows thread timing, and 8 bins take 8 draws
    // of it; so the 1-bin side is the worst of 8 runs. Each rank's pool
    // keeps the buffers it receives: without the reset at every bin
    // boundary the pools pile up across sweeps and 8 bins peak near 2.8x.
    let one = (0..8).map(|_| fused_batch_peak(1)).max().expect("eight runs");
    let eight = fused_batch_peak(8);
    assert!(
        eight as f64 <= 1.25 * one as f64,
        "8 bins peaked at {eight} B against {one} B for 1 bin"
    );
}
