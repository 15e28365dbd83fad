//! Recycled byte buffers for the message hot path.
//!
//! Every typed send encodes into a byte vector and every receive hands one
//! back; at steady state a rank allocates and frees the same-sized buffers
//! over and over. [`BufferPool`] is a small per-rank freelist that keeps
//! those allocations alive: senders draw cleared buffers from it, and
//! receivers return payload buffers once decoded. Buffers keep their
//! capacity across recycling, so after warm-up the messaging layer stops
//! touching the allocator.
//!
//! A take names the length its caller will fill and gets the smallest
//! retained buffer that holds it without being more than [`MAX_OVERSIZE`]
//! times larger, or a fresh buffer of exactly that length. A small payload
//! therefore never rides a recycled frame-sized allocation to a receiver
//! that would park it in its own pool.
//!
//! Retention is capped both by buffer *count* and by total retained
//! *bytes*: a one-off giant shuffle (one huge coalesced frame per node,
//! say) would otherwise park multi-megabyte allocations in the freelist
//! for the rest of the run.

/// A freelist of reusable `Vec<u8>` allocations.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    free_bytes: usize,
    taken: u64,
    reused: u64,
    evicted: u64,
}

/// Buffers retained beyond this count are dropped instead of pooled, so a
/// burst (a wide alltoallv) cannot pin memory forever.
const MAX_POOLED: usize = 64;

/// Total capacity the freelist may retain. A buffer whose return would push
/// the pool past this is dropped (evicted) instead of pooled, so a one-off
/// giant message doesn't pin its allocation for the rest of the run.
const MAX_POOLED_BYTES: usize = 64 << 20;

/// A retained buffer serves a take of `len` bytes only if its capacity is
/// at most this many times `len`.
pub const MAX_OVERSIZE: usize = 4;

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer for `len` bytes: the smallest retained allocation
    /// of capacity `len..=MAX_OVERSIZE * len`, or else a fresh one of
    /// capacity exactly `len` (none at all for `len == 0`).
    pub fn take(&mut self, len: usize) -> Vec<u8> {
        self.taken += 1;
        let fit = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, b)| (len..=len.saturating_mul(MAX_OVERSIZE)).contains(&b.capacity()))
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        match fit {
            Some(i) => {
                let mut buf = self.free.swap_remove(i);
                self.reused += 1;
                self.free_bytes -= buf.capacity();
                buf.clear();
                buf
            }
            None => Vec::with_capacity(len),
        }
    }

    /// Returns a buffer's allocation to the pool, dropping it instead when
    /// the pool is at its count cap or retaining it would exceed the byte
    /// cap.
    pub fn put(&mut self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.free.len() >= MAX_POOLED
            || self.free_bytes + buf.capacity() > MAX_POOLED_BYTES
        {
            self.evicted += 1;
            return;
        }
        self.free_bytes += buf.capacity();
        self.free.push(buf);
    }

    /// Drops every retained buffer; the counters keep running.
    pub fn clear(&mut self) {
        self.free.clear();
        self.free_bytes = 0;
    }

    /// `(buffers handed out, of which reused)` — for steady-state
    /// allocation checks.
    pub fn stats(&self) -> (u64, u64) {
        (self.taken, self.reused)
    }

    /// `(buffers evicted at return time, bytes currently retained)` — for
    /// memory-cap regression checks.
    pub fn eviction_stats(&self) -> (u64, usize) {
        (self.evicted, self.free_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_recycled_allocation() {
        let mut pool = BufferPool::new();
        let mut a = pool.take(4);
        assert_eq!(a.capacity(), 4, "a fresh take is exactly the asked length");
        a.extend_from_slice(&[1, 2, 3, 4]);
        let ptr = a.as_ptr();
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take(3);
        assert!(b.is_empty());
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.capacity(), cap);
        assert_eq!(pool.stats(), (2, 1));
    }

    #[test]
    fn take_picks_the_smallest_fit() {
        let mut pool = BufferPool::new();
        for cap in [400, 100, 250, 90, 120] {
            pool.put(Vec::with_capacity(cap));
        }
        // 90 is too small; 100 is the smallest buffer that holds 95 bytes.
        assert_eq!(pool.take(95).capacity(), 100);
        assert_eq!(pool.take(95).capacity(), 120);
        assert_eq!(pool.take(95).capacity(), 250);
        assert_eq!(pool.eviction_stats(), (0, 400 + 90));
        assert_eq!(pool.stats(), (3, 3));
    }

    #[test]
    fn take_refuses_a_buffer_more_than_four_times_oversize() {
        let mut pool = BufferPool::new();
        pool.put(Vec::with_capacity(4 * 1024 + 1));
        let small = pool.take(1024);
        assert_eq!(small.capacity(), 1024, "fresh, exact-size buffer");
        assert_eq!(pool.stats(), (1, 0));
        // Exactly four times oversize still fits.
        pool.put(Vec::with_capacity(4 * 1024));
        assert_eq!(pool.take(1024).capacity(), 4 * 1024);
        // An empty take allocates nothing and reuses nothing.
        assert_eq!(pool.take(0).capacity(), 0);
        assert_eq!(pool.stats(), (3, 1));
    }

    #[test]
    fn clear_drops_retained_buffers() {
        let mut pool = BufferPool::new();
        pool.put(Vec::with_capacity(64));
        pool.put(Vec::with_capacity(32));
        pool.clear();
        assert_eq!(pool.eviction_stats(), (0, 0));
        assert_eq!(
            pool.take(16).capacity(),
            16,
            "a cleared pool hands out fresh buffers"
        );
        assert_eq!(pool.stats(), (1, 0));
    }

    #[test]
    fn capacityless_buffers_are_not_pooled() {
        let mut pool = BufferPool::new();
        pool.put(Vec::new());
        let _ = pool.take(0);
        assert_eq!(pool.stats(), (1, 0));
        // Dropping a capacityless buffer is not an eviction.
        assert_eq!(pool.eviction_stats(), (0, 0));
    }

    #[test]
    fn pool_is_bounded_by_count() {
        let mut pool = BufferPool::new();
        for _ in 0..2 * MAX_POOLED {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.free.len(), MAX_POOLED);
        let (evicted, retained) = pool.eviction_stats();
        assert_eq!(evicted, MAX_POOLED as u64);
        assert_eq!(retained, MAX_POOLED * 8);
    }

    #[test]
    fn pool_is_bounded_by_bytes() {
        let mut pool = BufferPool::new();
        // A giant buffer that alone exceeds the byte cap is never
        // retained...
        pool.put(Vec::with_capacity(MAX_POOLED_BYTES + 1));
        assert_eq!(pool.eviction_stats(), (1, 0));
        // ...and once retained capacity is at the cap, further returns are
        // evicted even though the count cap has headroom.
        let half = MAX_POOLED_BYTES / 2;
        pool.put(Vec::with_capacity(half));
        pool.put(Vec::with_capacity(half));
        assert_eq!(pool.eviction_stats(), (1, MAX_POOLED_BYTES));
        pool.put(Vec::with_capacity(4096));
        let (evicted, retained) = pool.eviction_stats();
        assert_eq!(evicted, 2);
        assert_eq!(retained, MAX_POOLED_BYTES);
        assert!(pool.free.len() < MAX_POOLED);
        // Taking a buffer frees its share of the budget, letting returns
        // through again.
        let _ = pool.take(half);
        pool.put(Vec::with_capacity(4096));
        assert_eq!(pool.eviction_stats(), (2, half + 4096));
    }
}
