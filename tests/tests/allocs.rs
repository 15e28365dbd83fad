//! A warmed codec pass does not touch the allocator: once the caller's
//! wire and output buffers reach their high-water marks, an error-bounded
//! encode + decode reuses them, as the shuffle engines' pooled buffers
//! rely on. Its own test binary, because it installs a counting global
//! allocator; the harness runs tests on several threads, so counts are
//! kept per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cc_compress::{decode_into, encode_into, Compression, ErrorBound};

/// `System`, counting every allocation and reallocation made by the
/// calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialised `Cell` needs no allocation or destructor, so the
    // allocator cannot recurse into itself; `try_with` skips allocations
    // made while the thread's locals are being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s implementation of the `GlobalAlloc` contract is this one's.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s size rules.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let start = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - start
}

#[test]
fn warmed_codec_pass_does_not_allocate() {
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
