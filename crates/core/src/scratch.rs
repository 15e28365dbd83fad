//! Reusable scratch buffers for the engine hot path.
//!
//! The map pipeline touches three kinds of transient storage on every
//! iteration: the raw chunk bytes read from the file system, the decoded
//! `f64` run values the kernel folds over, and the word buffers partials
//! serialize into for the shuffle. Allocating them per run (the seed
//! behavior) put the allocator squarely on the per-chunk path; a
//! [`Scratch`] owns one of each and is threaded through the engine so
//! steady state reuses the same three allocations for the whole operation.

/// One rank's reusable hot-path buffers.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Chunk staging bytes (the aggregator's collective buffer).
    pub bytes: Vec<u8>,
    /// Per-slot chunk staging arenas for the software-pipelined engine:
    /// when the `PipelineDepth` hint bounds staging to `d` buffers, slot
    /// `i % d` holds iteration `i`'s collective buffer while earlier
    /// iterations are still draining theirs. Like the flat buffers, each
    /// slot keeps its high-water allocation across iterations and steps.
    pub slots: Vec<Vec<u8>>,
    /// Decoded run values handed to the kernel.
    pub values: Vec<f64>,
    /// Serialized partial/intermediate words bound for the wire.
    pub words: Vec<u64>,
}

impl Scratch {
    /// An empty scratch arena; buffers grow to their high-water marks on
    /// first use and stay there.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes sure at least `n` chunk slots exist (never shrinks, so an
    /// iterative sweep alternating depths keeps every slot's allocation).
    pub fn ensure_slots(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, Vec::new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_keep_capacity_across_reuse() {
        let mut s = Scratch::new();
        s.values.extend([1.0; 100]);
        s.bytes.extend([0u8; 800]);
        s.words.extend([0u64; 10]);
        let caps = (s.bytes.capacity(), s.values.capacity(), s.words.capacity());
        s.bytes.clear();
        s.values.clear();
        s.words.clear();
        assert_eq!(
            caps,
            (s.bytes.capacity(), s.values.capacity(), s.words.capacity())
        );
    }
}
