//! Byte extents and offset lists — the flattened form of an I/O request.
//!
//! An [`OffsetList`] is the MPI-IO-level description of a (generally
//! non-contiguous) request: sorted, non-overlapping `(offset, len)` pairs.
//! The list also defines the *request buffer order*: the bytes of extent
//! `i` land in the buffer immediately after the bytes of extent `i-1`.
//! [`OffsetList::locate`] intersects the list with a file range and reports
//! where each intersected piece sits in the buffer — the core primitive of
//! both the shuffle phase and the paper's "logical map" reconstruction.

/// One contiguous byte range of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Byte offset in the file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Extent {
    /// End offset (exclusive).
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// A piece of a request as placed in the requester's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// The file byte range of the piece.
    pub extent: Extent,
    /// Where the piece starts within the requester's flattened buffer.
    pub buf_offset: u64,
}

/// A sorted, non-overlapping, coalesced list of extents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OffsetList {
    extents: Vec<Extent>,
    /// `prefix[i]` = bytes in extents `0..i`; `prefix[n]` = total bytes.
    prefix: Vec<u64>,
}

impl OffsetList {
    /// Builds a list from raw pairs: sorts, validates non-overlap, coalesces
    /// adjacent extents, and drops empty ones.
    ///
    /// # Panics
    /// Panics if two extents overlap — a request never asks for the same
    /// byte twice.
    pub fn new(mut raw: Vec<Extent>) -> Self {
        raw.retain(|e| e.len > 0);
        raw.sort_unstable_by_key(|e| e.offset);
        let mut extents: Vec<Extent> = Vec::with_capacity(raw.len());
        for e in raw {
            match extents.last_mut() {
                Some(last) if e.offset < last.end() => {
                    panic!(
                        "overlapping extents: [{}, {}) and [{}, {})",
                        last.offset,
                        last.end(),
                        e.offset,
                        e.end()
                    );
                }
                Some(last) if e.offset == last.end() => last.len += e.len,
                _ => extents.push(e),
            }
        }
        let mut prefix = Vec::with_capacity(extents.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for e in &extents {
            acc += e.len;
            prefix.push(acc);
        }
        Self { extents, prefix }
    }

    /// An empty request.
    pub fn empty() -> Self {
        Self::new(Vec::new())
    }

    /// A single contiguous request.
    pub fn contiguous(offset: u64, len: u64) -> Self {
        Self::new(vec![Extent { offset, len }])
    }

    /// The extents, sorted and coalesced.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Total requested bytes.
    pub fn total_bytes(&self) -> u64 {
        *self.prefix.last().expect("prefix always has a 0 entry")
    }

    /// Whether the request is empty.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// First requested byte, if any.
    pub fn min_offset(&self) -> Option<u64> {
        self.extents.first().map(|e| e.offset)
    }

    /// One-past the last requested byte, if any.
    pub fn max_end(&self) -> Option<u64> {
        self.extents.last().map(|e| e.end())
    }

    /// Intersects the request with the file range `[lo, hi)` and returns
    /// the pieces that fall inside, each with its position in the request
    /// buffer. Pieces come back in file (and therefore buffer) order.
    pub fn locate(&self, lo: u64, hi: u64) -> Vec<Piece> {
        if lo >= hi || self.extents.is_empty() {
            return Vec::new();
        }
        // First extent that ends after lo.
        let start = self.extents.partition_point(|e| e.end() <= lo);
        let mut pieces = Vec::new();
        for (i, e) in self.extents.iter().enumerate().skip(start) {
            if e.offset >= hi {
                break;
            }
            let clip_lo = e.offset.max(lo);
            let clip_hi = e.end().min(hi);
            if clip_lo < clip_hi {
                pieces.push(Piece {
                    extent: Extent {
                        offset: clip_lo,
                        len: clip_hi - clip_lo,
                    },
                    buf_offset: self.prefix[i] + (clip_lo - e.offset),
                });
            }
        }
        pieces
    }

    /// Bytes of the request inside `[lo, hi)`.
    pub fn bytes_in(&self, lo: u64, hi: u64) -> u64 {
        self.locate(lo, hi).iter().map(|p| p.extent.len).sum()
    }

    /// Serializes to a flat `u64` vector (for offset-list exchange).
    pub fn to_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.extents.len() * 2);
        for e in &self.extents {
            out.push(e.offset);
            out.push(e.len);
        }
        out
    }

    /// Deserializes from [`to_words`](Self::to_words) output: the decode
    /// path for a list that arrives from another rank already canonical,
    /// so one pass checks and rebuilds it with no sort. User input goes
    /// through [`new`](Self::new), which sorts.
    ///
    /// # Panics
    /// Panics on an odd-length word vector, and on words `to_words` cannot
    /// have produced: a zero-length extent, or one that starts before the
    /// previous one ends (unsorted or overlapping).
    pub fn from_words(words: &[u64]) -> Self {
        assert!(words.len().is_multiple_of(2), "offset list words must come in pairs");
        let n = words.len() / 2;
        let mut extents: Vec<Extent> = Vec::with_capacity(n);
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0u64);
        let mut total = 0u64;
        for pair in words.chunks_exact(2) {
            let e = Extent {
                offset: pair[0],
                len: pair[1],
            };
            assert!(e.len > 0, "zero-length extent at offset {} in offset list words", e.offset);
            total += e.len;
            match extents.last_mut() {
                Some(last) if e.offset < last.end() => {
                    panic!(
                        "overlapping extents: [{}, {}) and [{}, {})",
                        last.offset,
                        last.end(),
                        e.offset,
                        e.end()
                    );
                }
                Some(last) if e.offset == last.end() => {
                    last.len += e.len;
                    *prefix.last_mut().expect("one entry per extent") = total;
                }
                _ => {
                    extents.push(e);
                    prefix.push(total);
                }
            }
        }
        Self { extents, prefix }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ext(offset: u64, len: u64) -> Extent {
        Extent { offset, len }
    }

    #[test]
    fn new_sorts_and_coalesces() {
        let l = OffsetList::new(vec![ext(10, 5), ext(0, 4), ext(15, 5), ext(4, 2)]);
        assert_eq!(l.extents(), &[ext(0, 6), ext(10, 10)]);
        assert_eq!(l.total_bytes(), 16);
        assert_eq!(l.min_offset(), Some(0));
        assert_eq!(l.max_end(), Some(20));
    }

    #[test]
    fn empty_extents_are_dropped() {
        let l = OffsetList::new(vec![ext(5, 0), ext(10, 1)]);
        assert_eq!(l.extents(), &[ext(10, 1)]);
    }

    #[test]
    #[should_panic]
    fn overlap_panics() {
        let _ = OffsetList::new(vec![ext(0, 10), ext(5, 10)]);
    }

    #[test]
    fn locate_clips_and_positions() {
        // Buffer order: extent [0,6) at buf 0..6, extent [10,20) at buf 6..16.
        let l = OffsetList::new(vec![ext(0, 6), ext(10, 10)]);
        let pieces = l.locate(4, 13);
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].extent, ext(4, 2));
        assert_eq!(pieces[0].buf_offset, 4);
        assert_eq!(pieces[1].extent, ext(10, 3));
        assert_eq!(pieces[1].buf_offset, 6);
    }

    #[test]
    fn locate_outside_is_empty() {
        let l = OffsetList::new(vec![ext(10, 10)]);
        assert!(l.locate(0, 10).is_empty());
        assert!(l.locate(20, 30).is_empty());
        assert!(l.locate(15, 15).is_empty());
    }

    #[test]
    fn bytes_in_sums_pieces() {
        let l = OffsetList::new(vec![ext(0, 4), ext(8, 4)]);
        assert_eq!(l.bytes_in(2, 10), 4); // [2,4) + [8,10)
        assert_eq!(l.bytes_in(0, 100), 8);
    }

    #[test]
    fn word_roundtrip() {
        let l = OffsetList::new(vec![ext(3, 4), ext(100, 50)]);
        let back = OffsetList::from_words(&l.to_words());
        assert_eq!(back, l);
    }

    #[test]
    fn from_words_matches_new_on_canonical_and_adjacent_input() {
        // Adjacent extents still coalesce, as they do in `new`.
        let words = [3, 4, 7, 2, 100, 50, 150, 1, 200, 8];
        let pairs = words.chunks_exact(2).map(|p| ext(p[0], p[1])).collect();
        let decoded = OffsetList::from_words(&words);
        assert_eq!(decoded, OffsetList::new(pairs));
        assert_eq!(decoded.extents(), &[ext(3, 6), ext(100, 51), ext(200, 8)]);
        assert_eq!(decoded.locate(150, 204)[1].buf_offset, 57);
        assert_eq!(OffsetList::from_words(&[]), OffsetList::empty());
    }

    #[test]
    #[should_panic(expected = "overlapping extents: [10, 15) and [0, 4)")]
    fn from_words_rejects_unsorted_input() {
        let _ = OffsetList::from_words(&[10, 5, 0, 4]);
    }

    #[test]
    #[should_panic(expected = "overlapping extents: [0, 10) and [5, 15)")]
    fn from_words_rejects_overlap() {
        let _ = OffsetList::from_words(&[0, 10, 5, 10]);
    }

    #[test]
    #[should_panic(expected = "zero-length extent at offset 20")]
    fn from_words_rejects_zero_length_extents() {
        let _ = OffsetList::from_words(&[0, 10, 20, 0]);
    }

    #[test]
    fn contiguous_constructor() {
        let l = OffsetList::contiguous(7, 9);
        assert_eq!(l.extents(), &[ext(7, 9)]);
    }

    prop_compose! {
        /// Generates guaranteed-disjoint extents from gap/len pairs.
        fn arb_list()(pairs in proptest::collection::vec((1u64..50, 1u64..50), 0..20))
            -> OffsetList {
            let mut pos = 0;
            let mut extents = Vec::new();
            for (gap, len) in pairs {
                pos += gap;
                extents.push(Extent { offset: pos, len });
                pos += len;
            }
            OffsetList::new(extents)
        }
    }

    proptest! {
        #[test]
        fn prop_word_roundtrip_is_identity(l in arb_list()) {
            prop_assert_eq!(OffsetList::from_words(&l.to_words()), l);
        }

        #[test]
        fn prop_locate_partitions_buffer(l in arb_list(), split in 0u64..2000) {
            // locate(0, split) and locate(split, inf) partition the buffer.
            let left = l.locate(0, split);
            let right = l.locate(split, u64::MAX);
            let total: u64 = left.iter().chain(&right).map(|p| p.extent.len).sum();
            prop_assert_eq!(total, l.total_bytes());
            // Buffer offsets tile [0, total) without gaps.
            let mut pieces: Vec<_> = left.into_iter().chain(right).collect();
            pieces.sort_by_key(|p| p.buf_offset);
            let mut expect = 0;
            for p in pieces {
                prop_assert_eq!(p.buf_offset, expect);
                expect += p.extent.len;
            }
        }

        #[test]
        fn prop_bytes_in_is_monotone(l in arb_list(), lo in 0u64..1000, w1 in 0u64..500, w2 in 0u64..500) {
            let (a, b) = (w1.min(w2), w1.max(w2));
            prop_assert!(l.bytes_in(lo, lo + a) <= l.bytes_in(lo, lo + b));
        }
    }
}
