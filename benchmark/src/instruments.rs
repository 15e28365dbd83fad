//! Host instruments: a counting global allocator, the process CPU clock
//! and a wall clock. Standard library only — the build is offline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

// Relaxed everywhere: these are statistics that publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts heap allocations and tracks live bytes and their high-water
/// mark, then defers to the system allocator.
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with this `layout`, and
        // this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same provenance argument as `dealloc`; `new_size` is the
        // caller's and passed through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// Heap allocations (including reallocations) since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the bytes live right now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Linux reports `utime`/`stime` in clock ticks; the userland tick rate is
/// 100 Hz on every architecture Linux supports, and `sysconf` is not
/// reachable without a libc crate.
const TICKS_PER_SEC: f64 = 100.0;

/// Process `(user, system)` CPU seconds so far, over all threads, from
/// `/proc/self/stat`. Resolution is one tick (10 ms), so measure whole rep
/// blocks, never single reps.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime fields")
}

fn parse_cpu_ticks(stat: &str) -> Option<(f64, f64)> {
    // The command name (field 2) may contain spaces and parentheses; the
    // numeric fields start after the *last* ')'. utime and stime are fields
    // 14 and 15, i.e. the 12th and 13th after the command name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_SEC, stime / TICKS_PER_SEC))
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "42 (a) b (c)) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ticks(stat), Some((2.5, 0.75)));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    // Other tests allocate concurrently, so these are lower bounds.
    #[test]
    fn allocator_counts_and_tracks_the_high_water_mark() {
        reset_peak();
        let before = allocs();
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        assert!(allocs() > before);
        assert!(peak_bytes() >= 64 << 20);
        drop(block);
        let held = peak_bytes();
        reset_peak();
        assert!(peak_bytes() < held, "reset drops the mark to live bytes");
    }

    #[test]
    fn cpu_clock_reads_and_never_runs_backwards() {
        let (u0, s0) = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let (u1, s1) = cpu_seconds();
        assert!(u1 + s1 >= u0 + s0);
    }
}
