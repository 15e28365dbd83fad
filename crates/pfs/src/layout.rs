//! Round-robin striping, Lustre style.
//!
//! A file of stripe size `s` over OSTs `[o0, o1, ..., o{k-1}]` places file
//! stripe `i` on OST `o[i % k]`, at *object offset* `(i / k) * s + within`.
//! Consecutive stripes that land on the same OST are therefore contiguous
//! in that OST's object — which is why one large aggregated read costs one
//! positioning operation per OST, while many small scattered reads cost one
//! each.

/// Striping of one file across a set of OSTs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeLayout {
    /// Stripe size in bytes.
    pub stripe_size: u64,
    /// OST ids used by the file, in round-robin order.
    pub(crate) osts: Vec<usize>,
}

/// One contiguous piece of a file range as mapped to an OST object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectExtent {
    /// The OST holding this piece.
    pub ost: usize,
    /// Offset within the OST object.
    pub(crate) object_offset: u64,
    /// File offset this piece starts at.
    pub(crate) file_offset: u64,
    /// Length in bytes.
    pub(crate) len: u64,
}

impl StripeLayout {
    /// Creates a layout with `stripe_count` OSTs starting at `start_ost`
    /// (wrapping modulo `total_osts`), mirroring `lfs setstripe -c -i`.
    pub fn round_robin(
        stripe_size: u64,
        stripe_count: usize,
        start_ost: usize,
        total_osts: usize,
    ) -> Self {
        assert!(stripe_size > 0, "stripe size must be positive");
        assert!(stripe_count > 0, "need at least one stripe");
        assert!(
            stripe_count <= total_osts,
            "stripe count {stripe_count} exceeds OST pool {total_osts}"
        );
        let osts = (0..stripe_count)
            .map(|i| (start_ost + i) % total_osts)
            .collect();
        Self { stripe_size, osts }
    }

    /// Number of OSTs in the layout.
    pub fn stripe_count(&self) -> usize {
        self.osts.len()
    }

    /// Maps a file byte range to per-OST object extents, in file order.
    /// Adjacent file stripes on the *same* OST are merged into a single
    /// extent when they are contiguous in object space (which, for a
    /// contiguous file range, happens exactly when `stripe_count == 1`).
    pub fn map_range(&self, offset: u64, len: u64) -> Vec<ObjectExtent> {
        let mut extents: Vec<ObjectExtent> = Vec::new();
        let s = self.stripe_size;
        let k = self.osts.len() as u64;
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let stripe = pos / s;
            let within = pos % s;
            let take = (s - within).min(end - pos);
            let ost = self.osts[(stripe % k) as usize];
            let object_offset = (stripe / k) * s + within;
            match extents.last_mut() {
                Some(last)
                    if last.ost == ost
                        && last.object_offset + last.len == object_offset
                        && last.file_offset + last.len == pos =>
                {
                    last.len += take;
                }
                _ => extents.push(ObjectExtent {
                    ost,
                    object_offset,
                    file_offset: pos,
                    len: take,
                }),
            }
            pos += take;
        }
        extents
    }

    /// Groups the extents of `map_range` by OST, preserving object order
    /// within each OST, and merging object-contiguous runs. The per-OST
    /// lists are what the timing model charges: one seek per discontiguous
    /// run per OST.
    pub(crate) fn map_range_by_ost(
        &self,
        offset: u64,
        len: u64,
    ) -> Vec<(usize, Vec<ObjectExtent>)> {
        let mut per_ost: Vec<(usize, Vec<ObjectExtent>)> = Vec::new();
        for ext in self.map_range(offset, len) {
            match per_ost.iter_mut().find(|(o, _)| *o == ext.ost) {
                Some((_, list)) => {
                    match list.last_mut() {
                        Some(last) if last.object_offset + last.len == ext.object_offset => {
                            last.len += ext.len;
                        }
                        _ => list.push(ext),
                    };
                }
                None => per_ost.push((ext.ost, vec![ext])),
            }
        }
        per_ost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_stripe_is_identity() {
        let l = StripeLayout::round_robin(4, 1, 0, 4);
        let exts = l.map_range(3, 10);
        assert_eq!(exts.len(), 1);
        assert_eq!(exts[0].ost, 0);
        assert_eq!(exts[0].object_offset, 3);
        assert_eq!(exts[0].len, 10);
    }

    #[test]
    fn round_robin_rotates_osts() {
        let l = StripeLayout::round_robin(10, 3, 1, 5);
        assert_eq!(l.osts, vec![1, 2, 3]);
        let exts = l.map_range(0, 40);
        let osts: Vec<usize> = exts.iter().map(|e| e.ost).collect();
        assert_eq!(osts, vec![1, 2, 3, 1]);
        // Stripe 3 is the second stripe on OST 1: object offset 10.
        assert_eq!(exts[3].object_offset, 10);
        assert_eq!(exts[3].len, 10);
    }

    #[test]
    fn mid_stripe_range() {
        let l = StripeLayout::round_robin(8, 2, 0, 2);
        // Bytes 5..19: tail of stripe 0 (OST0), stripe 1 (OST1), head of stripe 2 (OST0).
        let exts = l.map_range(5, 14);
        assert_eq!(exts.len(), 3);
        assert_eq!((exts[0].ost, exts[0].object_offset, exts[0].len), (0, 5, 3));
        assert_eq!((exts[1].ost, exts[1].object_offset, exts[1].len), (1, 0, 8));
        assert_eq!((exts[2].ost, exts[2].object_offset, exts[2].len), (0, 8, 3));
    }

    #[test]
    fn by_ost_merges_contiguous_object_runs() {
        let l = StripeLayout::round_robin(4, 2, 0, 2);
        // 16 bytes = stripes 0..4; per OST the object runs are contiguous.
        let per_ost = l.map_range_by_ost(0, 16);
        assert_eq!(per_ost.len(), 2);
        for (_, list) in &per_ost {
            assert_eq!(list.len(), 1, "contiguous object run should merge");
            assert_eq!(list[0].len, 8);
        }
    }

    #[test]
    fn zero_length_range_is_empty() {
        let l = StripeLayout::round_robin(4, 2, 0, 2);
        assert!(l.map_range(7, 0).is_empty());
        assert!(l.map_range_by_ost(7, 0).is_empty());
    }

    proptest! {
        #[test]
        fn prop_extents_tile_the_range(
            stripe_size in 1u64..64,
            stripe_count in 1usize..8,
            offset in 0u64..1000,
            len in 0u64..1000,
        ) {
            let l = StripeLayout::round_robin(stripe_size, stripe_count, 0, 8);
            let exts = l.map_range(offset, len);
            // Extents cover [offset, offset+len) exactly, in order.
            let total: u64 = exts.iter().map(|e| e.len).sum();
            prop_assert_eq!(total, len);
            let mut pos = offset;
            for e in &exts {
                prop_assert_eq!(e.file_offset, pos);
                pos += e.len;
            }
        }

        #[test]
        fn prop_object_offsets_unique_per_ost(
            stripe_size in 1u64..32,
            stripe_count in 1usize..6,
            offset in 0u64..500,
            len in 1u64..500,
        ) {
            let l = StripeLayout::round_robin(stripe_size, stripe_count, 0, 6);
            // No two extents on the same OST may overlap in object space.
            for (_, list) in l.map_range_by_ost(offset, len) {
                for w in list.windows(2) {
                    prop_assert!(w[0].object_offset + w[0].len <= w[1].object_offset);
                }
            }
        }
    }
}
