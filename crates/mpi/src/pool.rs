//! Recycled byte buffers for the message hot path.
//!
//! Every typed send encodes into a byte vector and every receive hands one
//! back; at steady state a rank allocates and frees the same-sized buffers
//! over and over. `BufferPool` is a small per-rank freelist that keeps
//! those allocations alive: senders draw cleared buffers from it, and
//! receivers return payload buffers once decoded. Buffers keep their
//! capacity across recycling, so after warm-up the messaging layer stops
//! touching the allocator.
//!
//! A take names the length its caller will fill and gets the smallest
//! retained buffer that holds it without being more than `MAX_OVERSIZE`
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
pub(crate) struct BufferPool {
    free: Vec<Vec<u8>>,
    free_bytes: usize,
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
pub(crate) const MAX_OVERSIZE: usize = 4;

impl BufferPool {
    /// An empty pool.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// An empty buffer for `len` bytes: the smallest retained allocation
    /// of capacity `len..=MAX_OVERSIZE * len`, or else a fresh one of
    /// capacity exactly `len` (none at all for `len == 0`).
    pub(crate) fn take(&mut self, len: usize) -> Vec<u8> {
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
    pub(crate) fn put(&mut self, buf: Vec<u8>) {
        if buf.capacity() == 0
            || self.free.len() >= MAX_POOLED
            || self.free_bytes + buf.capacity() > MAX_POOLED_BYTES
        {
            return;
        }
        self.free_bytes += buf.capacity();
        self.free.push(buf);
    }

    /// Drops every retained buffer.
    pub(crate) fn clear(&mut self) {
        self.free.clear();
        self.free_bytes = 0;
    }

    /// `(buffers retained, bytes retained)`: a take that reused a buffer
    /// removed one, a return that was evicted added none.
    #[cfg(test)]
    fn retained(&self) -> (usize, usize) {
        (self.free.len(), self.free_bytes)
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
        assert_eq!(pool.retained(), (1, cap));
        let b = pool.take(3);
        assert!(b.is_empty());
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.capacity(), cap);
        assert_eq!(pool.retained(), (0, 0), "the second take reused the buffer");
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
        // Five returns retained, three takes reused, nothing evicted.
        assert_eq!(pool.retained(), (2, 400 + 90));
    }

    #[test]
    fn take_refuses_a_buffer_more_than_four_times_oversize() {
        let mut pool = BufferPool::new();
        pool.put(Vec::with_capacity(4 * 1024 + 1));
        let small = pool.take(1024);
        assert_eq!(small.capacity(), 1024, "fresh, exact-size buffer");
        assert_eq!(pool.retained(), (1, 4 * 1024 + 1), "nothing reused");
        // Exactly four times oversize still fits.
        pool.put(Vec::with_capacity(4 * 1024));
        assert_eq!(pool.take(1024).capacity(), 4 * 1024);
        // An empty take allocates nothing and reuses nothing.
        assert_eq!(pool.take(0).capacity(), 0);
        assert_eq!(pool.retained(), (1, 4 * 1024 + 1), "one take reused");
    }

    #[test]
    fn clear_drops_retained_buffers() {
        let mut pool = BufferPool::new();
        pool.put(Vec::with_capacity(64));
        pool.put(Vec::with_capacity(32));
        pool.clear();
        assert_eq!(pool.retained(), (0, 0));
        assert_eq!(
            pool.take(16).capacity(),
            16,
            "a cleared pool hands out fresh buffers"
        );
        assert_eq!(pool.retained(), (0, 0));
    }

    #[test]
    fn capacityless_buffers_are_not_pooled() {
        let mut pool = BufferPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.retained(), (0, 0));
        assert_eq!(pool.take(0).capacity(), 0, "nothing to reuse");
        assert_eq!(pool.retained(), (0, 0));
    }

    #[test]
    fn pool_is_bounded_by_count() {
        let mut pool = BufferPool::new();
        for _ in 0..2 * MAX_POOLED {
            pool.put(Vec::with_capacity(8));
        }
        // The second half was evicted.
        assert_eq!(pool.retained(), (MAX_POOLED, MAX_POOLED * 8));
    }

    #[test]
    fn pool_is_bounded_by_bytes() {
        let mut pool = BufferPool::new();
        // A giant buffer that alone exceeds the byte cap is never
        // retained...
        pool.put(Vec::with_capacity(MAX_POOLED_BYTES + 1));
        assert_eq!(pool.retained(), (0, 0));
        // ...and once retained capacity is at the cap, further returns are
        // evicted even though the count cap has headroom.
        let half = MAX_POOLED_BYTES / 2;
        pool.put(Vec::with_capacity(half));
        pool.put(Vec::with_capacity(half));
        assert_eq!(pool.retained(), (2, MAX_POOLED_BYTES));
        pool.put(Vec::with_capacity(4096));
        assert_eq!(pool.retained(), (2, MAX_POOLED_BYTES));
        // Taking a buffer frees its share of the budget, letting returns
        // through again.
        let _ = pool.take(half);
        pool.put(Vec::with_capacity(4096));
        assert_eq!(pool.retained(), (2, half + 4096));
    }
}
