//! Byte extents and offset lists — the flattened form of an I/O request.
//!
//! An [`OffsetList`] is the MPI-IO-level description of a (generally
//! non-contiguous) request: sorted, non-overlapping `(offset, len)` pairs.
//! The list also defines the *request buffer order*: the bytes of extent
//! `i` land in the buffer immediately after the bytes of extent `i-1`.
//! [`OffsetList::locate`] intersects the list with a file range and reports
//! where each intersected piece sits in the buffer — the core primitive of
//! both the shuffle phase and the paper's "logical map" reconstruction.
//!
//! A list crosses rank boundaries (the offset-list exchange) in a compact
//! wire form, `OffsetList::encode_into` / `OffsetList::decode`: strided
//! runs `(gap, len, repeat)` in varints, so a hyperslab's equal extents at
//! one stride cost a few bytes however many there are.

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

/// Bytes of `pieces` in total.
pub(crate) fn piece_bytes(pieces: &[Piece]) -> usize {
    pieces.iter().map(|p| p.extent.len as usize).sum()
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
        // Coalesce in place: `raw`'s allocation becomes the extent table.
        raw.dedup_by(|e, last| {
            if e.offset < last.end() {
                panic!(
                    "overlapping extents: [{}, {}) and [{}, {})",
                    last.offset,
                    last.end(),
                    e.offset,
                    e.end()
                );
            }
            let adjacent = e.offset == last.end();
            if adjacent {
                last.len += e.len;
            }
            adjacent
        });
        let extents = raw;
        let mut prefix = Vec::with_capacity(extents.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for e in &extents {
            acc += e.len;
            prefix.push(acc);
        }
        Self { extents, prefix }
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

    /// First requested byte, if any.
    pub fn min_offset(&self) -> Option<u64> {
        self.extents.first().map(|e| e.offset)
    }

    /// One-past the last requested byte, if any.
    pub(crate) fn max_end(&self) -> Option<u64> {
        self.extents.last().map(|e| e.end())
    }

    /// Intersects the request with the file range `[lo, hi)` and yields
    /// the pieces that fall inside, each with its position in the request
    /// buffer. Pieces come in file (and therefore buffer) order, and the
    /// walk allocates nothing; callers that keep the pieces collect them.
    pub fn locate(&self, lo: u64, hi: u64) -> impl Iterator<Item = Piece> + '_ {
        // First extent that ends after lo; none at all for an empty range.
        let start = if lo < hi {
            self.extents.partition_point(|e| e.end() <= lo)
        } else {
            self.extents.len()
        };
        // Every extent from `start` on ends after `lo`, so each one that
        // starts before `hi` clips to a non-empty piece.
        self.extents[start..]
            .iter()
            .zip(&self.prefix[start..])
            .take_while(move |(e, _)| e.offset < hi)
            .map(move |(e, &before)| {
                let clip_lo = e.offset.max(lo);
                let clip_hi = e.end().min(hi);
                Piece {
                    extent: Extent {
                        offset: clip_lo,
                        len: clip_hi - clip_lo,
                    },
                    buf_offset: before + (clip_lo - e.offset),
                }
            })
    }

    /// Bytes of the request inside `[lo, hi)`.
    pub(crate) fn bytes_in(&self, lo: u64, hi: u64) -> u64 {
        self.locate(lo, hi).map(|p| p.extent.len).sum()
    }

    /// Appends the list's wire form to `out`, which callers size with
    /// [`encoded_len`](Self::encoded_len) so it is allocated once.
    ///
    /// The list travels as strided runs `(gap, len, repeat)`, each field an
    /// unsigned LEB128 varint: `gap` is the distance from the previous
    /// extent's end (from 0 for the first extent), `len > 0` the extent's
    /// length, and `repeat` the number of further extents with the same
    /// gap and length. A hyperslab row — `n` equal extents at one stride —
    /// is two runs whatever `n` is (the first extent's gap is its offset,
    /// the rest share `stride - len`); an irregular list still costs only
    /// the varints of its gaps and lengths. The empty list is zero bytes.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        for (gap, len, repeat) in self.runs() {
            push_varint(out, gap);
            push_varint(out, len);
            push_varint(out, repeat);
        }
    }

    /// The length [`encode_into`](Self::encode_into) appends.
    pub(crate) fn encoded_len(&self) -> usize {
        self.runs()
            .map(|(gap, len, repeat)| varint_len(gap) + varint_len(len) + varint_len(repeat))
            .sum()
    }

    /// The list as maximal runs `(gap, len, repeat)`, found greedily.
    fn runs(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        let mut rest = self.extents.as_slice();
        let mut end = 0u64;
        std::iter::from_fn(move || {
            let (first, tail) = rest.split_first()?;
            let (gap, len) = (first.offset - end, first.len);
            end = first.end();
            let mut repeat = 0;
            while let Some(e) = tail.get(repeat) {
                if e.offset - end != gap || e.len != len {
                    break;
                }
                end = e.end();
                repeat += 1;
            }
            rest = &tail[repeat..];
            Some((gap, len, repeat as u64))
        })
    }

    /// Rebuilds a list from [`encode_into`](Self::encode_into) output: one
    /// counting pass sizes the tables, one expanding pass fills them.
    /// Extents a zero gap makes adjacent coalesce, as they do in
    /// [`new`](Self::new), so any well-formed encoding decodes to a
    /// canonical list. An unsorted or overlapping list has no encoding —
    /// a gap is unsigned and counts from the previous extent's end — so
    /// there is nothing to reject there.
    ///
    /// # Panics
    /// Panics, before allocating anything, on bytes `encode_into` cannot
    /// have produced: a truncated varint, a varint wider than 64 bits, a
    /// zero `len`, or a run whose last extent would end past `u64::MAX`.
    pub(crate) fn decode(bytes: &[u8]) -> Self {
        let mut n = 0u64;
        for (gap, _, repeat) in decode_runs(bytes) {
            n += if gap > 0 {
                repeat + 1
            } else {
                u64::from(n == 0)
            };
        }
        let n = usize::try_from(n).expect("extent count fits in memory");
        let mut extents: Vec<Extent> = Vec::with_capacity(n);
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0u64);
        // `decode_runs` has checked that every sum below fits in a u64.
        let (mut end, mut total) = (0u64, 0u64);
        for (gap, len, repeat) in decode_runs(bytes) {
            // A zero gap makes the whole run one contiguous range, which
            // extends the previous extent unless it starts the list.
            let (len, count) = if gap == 0 {
                (len * (repeat + 1), 1)
            } else {
                (len, repeat + 1)
            };
            for _ in 0..count {
                total += len;
                match extents.last_mut() {
                    Some(last) if gap == 0 => {
                        last.len += len;
                        *prefix.last_mut().expect("one entry per extent") = total;
                    }
                    _ => {
                        extents.push(Extent {
                            offset: end + gap,
                            len,
                        });
                        prefix.push(total);
                    }
                }
                end += gap + len;
            }
        }
        Self { extents, prefix }
    }
}

/// Bytes [`push_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Appends `v` as an unsigned LEB128 varint: seven bits per byte, low bits
/// first, the high bit set on every byte but the last.
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the varint at `*at`, advancing the cursor past it.
fn read_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let start = *at;
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let Some(&byte) = bytes.get(*at) else {
            panic!(
                "truncated varint at byte {start} of a {}-byte offset list",
                bytes.len()
            );
        };
        *at += 1;
        let bits = u64::from(byte & 0x7f);
        if bits << shift >> shift != bits {
            break;
        }
        v |= bits << shift;
        if byte < 0x80 {
            return v;
        }
    }
    panic!("varint at byte {start} of an offset list exceeds 64 bits");
}

/// The validated runs `(gap, len, repeat)` of an encoded list. Panics on
/// malformed bytes (see [`OffsetList::decode`]); allocates nothing.
fn decode_runs(bytes: &[u8]) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
    let mut at = 0;
    let mut end = 0u64;
    std::iter::from_fn(move || {
        if at == bytes.len() {
            return None;
        }
        let start = at;
        let gap = read_varint(bytes, &mut at);
        let len = read_varint(bytes, &mut at);
        let repeat = read_varint(bytes, &mut at);
        assert!(len > 0, "zero-length run at byte {start} of an offset list");
        end = gap
            .checked_add(len)
            .and_then(|stride| stride.checked_mul(repeat.checked_add(1)?))
            .and_then(|span| end.checked_add(span))
            .unwrap_or_else(|| {
                panic!(
                    "run at byte {start} of an offset list (gap {gap}, len {len}, repeat {repeat}) \
                     ends past u64::MAX"
                )
            });
        Some((gap, len, repeat))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl OffsetList {
        /// An empty request.
        pub(crate) fn empty() -> Self {
            Self::new(Vec::new())
        }

        /// Whether the request is empty.
        pub(crate) fn is_empty(&self) -> bool {
            self.extents.is_empty()
        }
    }

    fn ext(offset: u64, len: u64) -> Extent {
        Extent { offset, len }
    }

    impl OffsetList {
        pub(crate) fn encode(&self) -> Vec<u8> {
            let mut out = Vec::with_capacity(self.encoded_len());
            self.encode_into(&mut out);
            out
        }
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
        let pieces: Vec<_> = l.locate(4, 13).collect();
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].extent, ext(4, 2));
        assert_eq!(pieces[0].buf_offset, 4);
        assert_eq!(pieces[1].extent, ext(10, 3));
        assert_eq!(pieces[1].buf_offset, 6);
    }

    #[test]
    fn locate_outside_is_empty() {
        let l = OffsetList::new(vec![ext(10, 10)]);
        assert_eq!(l.locate(0, 10).next(), None);
        assert_eq!(l.locate(20, 30).next(), None);
        assert_eq!(l.locate(15, 15).next(), None);
    }

    #[test]
    fn bytes_in_sums_pieces() {
        let l = OffsetList::new(vec![ext(0, 4), ext(8, 4)]);
        assert_eq!(l.bytes_in(2, 10), 4); // [2,4) + [8,10)
        assert_eq!(l.bytes_in(0, 100), 8);
    }

    #[test]
    fn codec_roundtrip() {
        let l = OffsetList::new(vec![ext(3, 4), ext(100, 50)]);
        assert_eq!(l.encode(), [3, 4, 0, 93, 50, 0]);
        assert_eq!(OffsetList::decode(&l.encode()), l);
        assert!(OffsetList::empty().encode().is_empty());
        assert_eq!(OffsetList::decode(&[]), OffsetList::empty());
    }

    #[test]
    fn decode_matches_new_on_canonical_and_adjacent_input() {
        // Extents a zero gap makes adjacent still coalesce, as they do in
        // `new`: [3,7) [7,9) [100,150) [150,151) [200,208).
        let bytes = [3, 4, 0, 0, 2, 0, 91, 50, 0, 0, 1, 0, 49, 8, 0];
        let pairs = vec![ext(3, 4), ext(7, 2), ext(100, 50), ext(150, 1), ext(200, 8)];
        let decoded = OffsetList::decode(&bytes);
        assert_eq!(decoded, OffsetList::new(pairs));
        assert_eq!(decoded.extents(), &[ext(3, 6), ext(100, 51), ext(200, 8)]);
        assert_eq!(
            decoded.locate(150, 204).nth(1).map(|p| p.buf_offset),
            Some(57)
        );
        // A repeated zero-gap run is one range, at the list's start or not.
        assert_eq!(
            OffsetList::decode(&[0, 5, 2]),
            OffsetList::contiguous(0, 15)
        );
        assert_eq!(
            OffsetList::decode(&[10, 5, 0, 0, 5, 3]),
            OffsetList::contiguous(10, 25)
        );
    }

    /// `n` equal extents at one stride are two runs whatever `n` is: the
    /// encoding grows only by the varint of the repeat count.
    #[test]
    fn strided_request_encodes_in_constant_space() {
        let strided =
            |n: u64| OffsetList::new((0..n).map(|i| ext(4096 + i * 1_000_000, 512)).collect());
        let small = strided(2).encode();
        // (4096, 512, 0) then (999_488, 512, n - 2).
        assert_eq!(small.len(), 2 + 2 + 1 + 3 + 2 + 1);
        for n in [3, 100, 10_000] {
            let bytes = strided(n).encode();
            assert!(
                bytes.len() <= small.len() + 2,
                "n = {n}: {} bytes",
                bytes.len()
            );
            assert_eq!(bytes[..8], small[..8]);
            assert_eq!(OffsetList::decode(&bytes), strided(n));
        }
    }

    #[test]
    #[should_panic(expected = "truncated varint at byte 2 of a 3-byte offset list")]
    fn decode_rejects_truncated_varint() {
        let _ = OffsetList::decode(&[1, 1, 0x80]);
    }

    #[test]
    #[should_panic(expected = "truncated varint at byte 2 of a 2-byte offset list")]
    fn decode_rejects_partial_run() {
        let _ = OffsetList::decode(&[1, 1]);
    }

    #[test]
    #[should_panic(expected = "varint at byte 1 of an offset list exceeds 64 bits")]
    fn decode_rejects_varint_past_64_bits() {
        // Ten bytes carry 70 bits; the last may only hold bit 63.
        let mut bytes = vec![0];
        bytes.extend([0xff; 9]);
        bytes.extend([0x02, 0]);
        let _ = OffsetList::decode(&bytes);
    }

    #[test]
    #[should_panic(expected = "zero-length run at byte 3")]
    fn decode_rejects_zero_len() {
        let _ = OffsetList::decode(&[0, 10, 0, 10, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "(gap 1, len 1, repeat 9223372036854775807) ends past u64::MAX")]
    fn decode_rejects_repeat_that_overflows() {
        // 2 bytes per extent, 2^63 extents.
        let mut bytes = vec![1, 1];
        push_varint(&mut bytes, (1 << 63) - 1);
        let _ = OffsetList::decode(&bytes);
    }

    #[test]
    fn widest_varints_roundtrip() {
        let l = OffsetList::new(vec![ext(u64::MAX - 1, 1)]);
        assert_eq!(l.encode().len(), 10 + 1 + 1);
        assert_eq!(OffsetList::decode(&l.encode()), l);
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

    prop_compose! {
        /// A hyperslab-shaped request: `planes` blocks of `rows` equal
        /// extents at one stride (one strided level when `planes == 1`).
        fn arb_hyperslab()(
            base in 0u64..1 << 40,
            len in 1u64..5000,
            gap in 1u64..1 << 20,
            rows in 1u64..40,
            plane_gap in 0u64..1 << 30,
            planes in 1u64..5,
        ) -> OffsetList {
            let plane_stride = rows * (len + gap) + plane_gap;
            let extents = (0..planes)
                .flat_map(|p| (0..rows).map(move |r| (p, r)))
                .map(|(p, r)| ext(base + p * plane_stride + r * (len + gap), len))
                .collect();
            OffsetList::new(extents)
        }
    }

    proptest! {
        #[test]
        fn prop_codec_roundtrip_is_identity(l in arb_list(), slab in arb_hyperslab()) {
            for l in [l, slab] {
                let bytes = l.encode();
                let back = OffsetList::decode(&bytes);
                prop_assert_eq!(back.encode(), bytes);
                prop_assert_eq!(back, l);
            }
        }

        #[test]
        fn prop_encoding_is_bounded_per_extent(
            pairs in proptest::collection::vec((1u64..1 << 42, 1u64..1 << 42), 0..64),
            slab in arb_hyperslab(),
        ) {
            // Offsets below 2^49: two 7-byte varints and a repeat per run.
            let mut end = 0;
            let extents = pairs.iter().map(|&(gap, len)| {
                let e = ext(end + gap, len);
                end = e.end();
                e
            });
            let l = OffsetList::new(extents.collect());
            prop_assert!(l.max_end().unwrap_or(0) < 1 << 49);
            prop_assert!(l.encode().len() <= 16 * l.extents().len());
            // Two runs per plane, however many rows: a gap below 2^41, a
            // len below 2^14 and a repeat below 2^7 each.
            prop_assert!(slab.encode().len() <= 8 * (6 + 2 + 1));
        }

        #[test]
        fn prop_locate_partitions_buffer(l in arb_list(), split in 0u64..2000) {
            // locate(0, split) and locate(split, inf) partition the buffer.
            let left: Vec<_> = l.locate(0, split).collect();
            let right: Vec<_> = l.locate(split, u64::MAX).collect();
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
        fn prop_locate_matches_byte_membership(
            l in arb_list(),
            lo in 0u64..2500,
            width in 0u64..600,
            backwards in any::<bool>(),
        ) {
            // Windows run past the list's end (which is below 2000), and
            // `backwards` swaps the bounds into an empty `lo >= hi` range.
            let (lo, hi) = if backwards { (lo + width, lo) } else { (lo, lo + width) };
            let pieces: Vec<_> = l.locate(lo, hi).collect();
            // Brute force: walk every requested byte in buffer order and
            // cut a piece wherever the file offset jumps or leaves the
            // window.
            let mut expect: Vec<Piece> = Vec::new();
            let mut buf = 0u64;
            for e in l.extents() {
                for off in e.offset..e.end() {
                    if lo <= off && off < hi {
                        match expect.last_mut() {
                            Some(p) if p.extent.end() == off => p.extent.len += 1,
                            _ => expect.push(Piece {
                                extent: Extent { offset: off, len: 1 },
                                buf_offset: buf,
                            }),
                        }
                    }
                    buf += 1;
                }
            }
            prop_assert_eq!(&pieces, &expect);
            prop_assert_eq!(
                l.bytes_in(lo, hi),
                expect.iter().map(|p| p.extent.len).sum::<u64>()
            );
        }

        #[test]
        fn prop_bytes_in_is_monotone(l in arb_list(), lo in 0u64..1000, w1 in 0u64..500, w2 in 0u64..500) {
            let (a, b) = (w1.min(w2), w1.max(w2));
            prop_assert!(l.bytes_in(lo, lo + a) <= l.bytes_in(lo, lo + b));
        }
    }
}
