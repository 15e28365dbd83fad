//! Reusable scratch buffers for the engine hot path.
//!
//! The map pipeline touches two kinds of transient storage on every run
//! it maps: the decoded `f64` run values the kernel folds over, and the
//! word buffers partials serialize into for the shuffle. Allocating them
//! per run (the seed behavior) put the allocator squarely on the per-chunk
//! path; a `Scratch` owns one of each and is threaded through one
//! engine call, so its steady state reuses the same two allocations. The
//! chunk bytes themselves live in the aggregator's staging ring
//! (`cc_mpiio::Staging`).

/// One rank's reusable hot-path buffers for one engine call.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Decoded run values handed to the kernel.
    pub(crate) values: Vec<f64>,
    /// Serialized partial/intermediate words bound for the wire.
    pub(crate) words: Vec<u64>,
}

impl Scratch {
    /// An empty scratch arena; buffers grow to their high-water marks on
    /// first use and stay there.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_keep_capacity_across_reuse() {
        let mut s = Scratch::new();
        s.values.extend([1.0; 100]);
        s.words.extend([0u64; 10]);
        let caps = (s.values.capacity(), s.words.capacity());
        s.values.clear();
        s.words.clear();
        assert_eq!(caps, (s.values.capacity(), s.words.capacity()));
    }
}
