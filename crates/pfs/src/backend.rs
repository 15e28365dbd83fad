//! File data backends.
//!
//! A backend supplies the *contents* of a file, independent of its striping
//! or timing. [`MemBackend`] holds real bytes (small files, write tests);
//! [`SyntheticBackend`] generates bytes on demand from a closed-form
//! function of the element index, which is how this reproduction represents
//! the paper's terabyte-scale climate variables without materializing them —
//! and, crucially, how every reduction computed through the full stack can
//! be checked against an independently computed expected value.

use std::collections::BTreeMap;
use std::sync::RwLock;

/// Element value generator for synthetic files: a pure function from the
/// flat element index to a value.
pub trait ValueFn: Send + Sync {
    /// The value of element `index`.
    fn value(&self, index: u64) -> f64;
}

impl<F: Fn(u64) -> f64 + Send + Sync> ValueFn for F {
    fn value(&self, index: u64) -> f64 {
        self(index)
    }
}

/// Supplies and (optionally) accepts file bytes.
pub trait Backend: Send + Sync {
    /// Fills `buf` with the bytes at `offset..offset + buf.len()`.
    ///
    /// # Panics
    /// Panics if the range exceeds the backend size.
    fn read_into(&self, offset: u64, buf: &mut [u8]);

    /// Writes `data` at `offset`.
    ///
    /// # Panics
    /// Panics if the backend is read-only or the range is out of bounds.
    fn write_at(&self, offset: u64, data: &[u8]);

    /// Total size in bytes.
    fn size(&self) -> u64;
}

/// A plain in-memory byte store.
pub struct MemBackend {
    data: RwLock<Vec<u8>>,
}

impl MemBackend {
    /// A zero-filled store of `size` bytes.
    pub fn zeroed(size: usize) -> Self {
        Self {
            data: RwLock::new(vec![0u8; size]),
        }
    }

    /// A store initialized with `data`.
    pub fn from_bytes(data: Vec<u8>) -> Self {
        Self {
            data: RwLock::new(data),
        }
    }
}

impl Backend for MemBackend {
    fn read_into(&self, offset: u64, buf: &mut [u8]) {
        let data = self.data.read().unwrap();
        let start = offset as usize;
        let end = start + buf.len();
        assert!(
            end <= data.len(),
            "read [{start}, {end}) beyond file size {}",
            data.len()
        );
        buf.copy_from_slice(&data[start..end]);
    }

    fn write_at(&self, offset: u64, incoming: &[u8]) {
        let mut data = self.data.write().unwrap();
        let start = offset as usize;
        let end = start + incoming.len();
        assert!(
            end <= data.len(),
            "write [{start}, {end}) beyond file size {}",
            data.len()
        );
        data[start..end].copy_from_slice(incoming);
    }

    fn size(&self) -> u64 {
        self.data.read().unwrap().len() as u64
    }
}

/// Element width of a synthetic file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemKind {
    /// 4-byte little-endian IEEE 754 floats.
    F32,
    /// 8-byte little-endian IEEE 754 floats.
    F64,
}

impl ElemKind {
    /// Bytes per element.
    pub(crate) fn size(self) -> u64 {
        match self {
            ElemKind::F32 => 4,
            ElemKind::F64 => 8,
        }
    }
}

/// A read-only file whose bytes are generated on demand from a [`ValueFn`].
///
/// Reads may start and end at arbitrary byte offsets, including mid-element;
/// partial elements are handled by generating the covering element and
/// copying the requested slice.
pub struct SyntheticBackend<V> {
    elems: u64,
    kind: ElemKind,
    value_fn: V,
}

impl<V: ValueFn> SyntheticBackend<V> {
    /// A synthetic file of `elems` elements of width `kind`.
    pub fn new(elems: u64, kind: ElemKind, value_fn: V) -> Self {
        Self {
            elems,
            kind,
            value_fn,
        }
    }

    fn elem_bytes(&self, index: u64) -> [u8; 8] {
        let v = self.value_fn.value(index);
        let mut out = [0u8; 8];
        match self.kind {
            ElemKind::F32 => out[..4].copy_from_slice(&(v as f32).to_le_bytes()),
            ElemKind::F64 => out.copy_from_slice(&v.to_le_bytes()),
        }
        out
    }

    /// Fills `buf` with the file bytes at `offset..offset + buf.len()` by
    /// generating whole element runs: an unaligned head element (if the
    /// range starts mid-element), a run of full elements written straight
    /// into `buf` via `chunks_exact_mut` with no per-element offset
    /// arithmetic or temporaries, and an unaligned tail element.
    ///
    /// Bit-identical to generating each element with the value function and
    /// slicing its little-endian encoding.
    ///
    /// # Panics
    /// Panics if the range exceeds the backend size.
    pub fn fill_range(&self, offset: u64, buf: &mut [u8]) {
        let esize = self.kind.size() as usize;
        let end = offset + buf.len() as u64;
        assert!(
            end <= self.size(),
            "read [{offset}, {end}) beyond synthetic size {}",
            self.size()
        );
        if buf.is_empty() {
            return;
        }
        let mut index = offset / esize as u64;
        let within = (offset % esize as u64) as usize;
        let mut rest = buf;
        if within != 0 {
            // Unaligned head: copy the trailing bytes of the covering element.
            let bytes = self.elem_bytes(index);
            let take = (esize - within).min(rest.len());
            rest[..take].copy_from_slice(&bytes[within..within + take]);
            rest = &mut rest[take..];
            index += 1;
        }
        let mut chunks = rest.chunks_exact_mut(esize);
        match self.kind {
            ElemKind::F32 => {
                for chunk in &mut chunks {
                    let v = self.value_fn.value(index) as f32;
                    chunk.copy_from_slice(&v.to_le_bytes());
                    index += 1;
                }
            }
            ElemKind::F64 => {
                for chunk in &mut chunks {
                    let v = self.value_fn.value(index);
                    chunk.copy_from_slice(&v.to_le_bytes());
                    index += 1;
                }
            }
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            // Unaligned tail: the leading bytes of one final element.
            let bytes = self.elem_bytes(index);
            let take = tail.len();
            tail.copy_from_slice(&bytes[..take]);
        }
    }
}

impl<V: ValueFn> Backend for SyntheticBackend<V> {
    fn read_into(&self, offset: u64, buf: &mut [u8]) {
        self.fill_range(offset, buf);
    }

    fn write_at(&self, _offset: u64, _data: &[u8]) {
        panic!("synthetic backends are read-only");
    }

    fn size(&self) -> u64 {
        self.elems * self.kind.size()
    }
}

/// A copy-on-write overlay: reads fall through to a base backend except
/// where writes have landed. This is how a (read-only, generated)
/// synthetic file becomes writable — e.g. running a collective *write*
/// benchmark against a virtually TB-scale file — while storing only the
/// written byte ranges.
pub struct OverlayBackend<B> {
    base: B,
    /// Sorted, disjoint written ranges: start -> bytes.
    written: RwLock<BTreeMap<u64, Vec<u8>>>,
}

impl<B: Backend> OverlayBackend<B> {
    /// Wraps `base` with an initially-empty overlay.
    pub fn new(base: B) -> Self {
        Self {
            base,
            written: RwLock::new(BTreeMap::new()),
        }
    }
}

/// Key of the first written range that can overlap a range starting at
/// `offset`: the last one starting at or before it (ranges are disjoint, so
/// every earlier one ends before that one starts).
fn scan_start(written: &BTreeMap<u64, Vec<u8>>, offset: u64) -> u64 {
    written
        .range(..=offset)
        .next_back()
        .map_or(offset, |(&start, _)| start)
}

impl<B: Backend> Backend for OverlayBackend<B> {
    fn read_into(&self, offset: u64, buf: &mut [u8]) {
        self.base.read_into(offset, buf);
        let end = offset + buf.len() as u64;
        let written = self.written.read().unwrap();
        // Patch every overlapping written range over the base bytes.
        for (&w_start, bytes) in written.range(scan_start(&written, offset)..end) {
            let w_end = w_start + bytes.len() as u64;
            let lo = w_start.max(offset);
            let hi = w_end.min(end);
            if lo < hi {
                buf[(lo - offset) as usize..(hi - offset) as usize]
                    .copy_from_slice(&bytes[(lo - w_start) as usize..(hi - w_start) as usize]);
            }
        }
    }

    fn write_at(&self, offset: u64, data: &[u8]) {
        assert!(
            offset + data.len() as u64 <= self.base.size(),
            "write beyond file size {}",
            self.base.size()
        );
        if data.is_empty() {
            return;
        }
        let mut written = self.written.write().unwrap();
        let end = offset + data.len() as u64;
        if let Some((&start, range)) = written.range_mut(..=offset).next_back() {
            if end <= start + range.len() as u64 {
                // The write lands inside one existing range: patch it.
                let at = (offset - start) as usize;
                range[at..at + data.len()].copy_from_slice(data);
                return;
            }
        }
        // Only ranges the write overlaps are merged with it: a range that
        // merely abuts it stays its own entry, so a sequential sweep of
        // writes copies each byte once instead of re-copying the run so far.
        let overlapping: Vec<u64> = written
            .range(scan_start(&written, offset)..end)
            .filter(|(&s, v)| s + v.len() as u64 > offset)
            .map(|(&s, _)| s)
            .collect();
        let (Some(&first), Some(&last)) = (overlapping.first(), overlapping.last()) else {
            written.insert(offset, data.to_vec());
            return;
        };
        let merged_start = offset.min(first);
        let merged_end = end.max(last + written[&last].len() as u64);
        let mut merged = vec![0; (merged_end - merged_start) as usize];
        for s in overlapping {
            let bytes = written.remove(&s).expect("key just enumerated");
            let at = (s - merged_start) as usize;
            merged[at..at + bytes.len()].copy_from_slice(&bytes);
        }
        let at = (offset - merged_start) as usize;
        merged[at..at + data.len()].copy_from_slice(data);
        written.insert(merged_start, merged);
    }

    fn size(&self) -> u64 {
        self.base.size()
    }
}

/// The default synthetic climate-style value function used across the
/// benchmarks: bounded, non-constant, cheap, and exactly reproducible.
pub fn default_climate_value(index: u64) -> f64 {
    // A Weyl-style mix keeps neighboring values distinct without trig costs.
    let h = index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    250.0 + (h % 10_000) as f64 / 100.0 // "temperature" in 250..350
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<V: ValueFn> SyntheticBackend<V> {
        /// The generator's value for element `index` (for test oracles).
        fn value(&self, index: u64) -> f64 {
            self.value_fn.value(index)
        }
    }

    impl<B: Backend> OverlayBackend<B> {
        /// Total bytes currently stored in the overlay.
        fn overlay_bytes(&self) -> u64 {
            self.written
                .read()
                .unwrap()
                .values()
                .map(|v| v.len() as u64)
                .sum()
        }
    }

    #[test]
    fn mem_backend_roundtrip() {
        let b = MemBackend::zeroed(16);
        b.write_at(4, &[1, 2, 3, 4]);
        let mut buf = [0u8; 6];
        b.read_into(3, &mut buf);
        assert_eq!(buf, [0, 1, 2, 3, 4, 0]);
        assert_eq!(b.size(), 16);
    }

    #[test]
    #[should_panic]
    fn mem_backend_oob_read_panics() {
        let b = MemBackend::zeroed(8);
        let mut buf = [0u8; 4];
        b.read_into(6, &mut buf);
    }

    #[test]
    fn synthetic_f64_elements_roundtrip() {
        let b = SyntheticBackend::new(100, ElemKind::F64, default_climate_value);
        let mut buf = vec![0u8; 800];
        b.read_into(0, &mut buf);
        for i in 0..100u64 {
            let got = f64::from_le_bytes(buf[(i as usize) * 8..][..8].try_into().unwrap());
            assert_eq!(got, default_climate_value(i));
        }
    }

    #[test]
    fn synthetic_f32_narrowing_is_consistent() {
        let b = SyntheticBackend::new(10, ElemKind::F32, default_climate_value);
        let mut buf = vec![0u8; 40];
        b.read_into(0, &mut buf);
        let got = f32::from_le_bytes(buf[4..8].try_into().unwrap());
        assert_eq!(got, default_climate_value(1) as f32);
    }

    #[test]
    fn synthetic_unaligned_reads_match_aligned() {
        let b = SyntheticBackend::new(64, ElemKind::F64, default_climate_value);
        let mut whole = vec![0u8; 512];
        b.read_into(0, &mut whole);
        // Read an awkward, element-straddling window and compare.
        let mut window = vec![0u8; 37];
        b.read_into(13, &mut window);
        assert_eq!(&window[..], &whole[13..50]);
    }

    #[test]
    #[should_panic]
    fn synthetic_write_panics() {
        let b = SyntheticBackend::new(4, ElemKind::F64, default_climate_value);
        b.write_at(0, &[0u8; 8]);
    }

    #[test]
    fn climate_values_are_bounded() {
        for i in (0..1_000_000).step_by(9973) {
            let v = default_climate_value(i);
            assert!((250.0..350.0).contains(&v), "value {v} out of range");
        }
    }

    #[test]
    fn overlay_patches_base_reads() {
        let base = SyntheticBackend::new(32, ElemKind::F64, |_| 1.0);
        let o = OverlayBackend::new(base);
        // Overwrite elements 2..4 with 9.0.
        let nine = 9.0f64.to_le_bytes().repeat(2);
        o.write_at(16, &nine);
        let mut buf = vec![0u8; 48];
        o.read_into(0, &mut buf);
        let vals: Vec<f64> = buf
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![1.0, 1.0, 9.0, 9.0, 1.0, 1.0]);
        assert_eq!(o.overlay_bytes(), 16);
    }

    #[test]
    fn overlay_merges_adjacent_and_overlapping_writes() {
        let o = OverlayBackend::new(MemBackend::zeroed(64));
        o.write_at(10, &[1; 5]);
        o.write_at(15, &[2; 5]); // adjacent: its own range
        assert_eq!(o.written.read().unwrap().len(), 2);
        o.write_at(12, &[3; 6]); // overlaps both: merges them
        assert_eq!(o.written.read().unwrap().len(), 1);
        assert_eq!(o.overlay_bytes(), 10);
        let mut buf = [0u8; 12];
        o.read_into(9, &mut buf);
        assert_eq!(buf, [0, 1, 1, 3, 3, 3, 3, 3, 3, 2, 2, 0]);
    }

    #[test]
    fn overlay_write_read_many_disjoint_ranges() {
        let o = OverlayBackend::new(MemBackend::zeroed(1000));
        for k in 0..10u64 {
            o.write_at(k * 100, &[k as u8 + 1; 10]);
        }
        let mut buf = vec![0u8; 1000];
        o.read_into(0, &mut buf);
        for k in 0..10usize {
            assert_eq!(buf[k * 100], k as u8 + 1);
            assert_eq!(buf[k * 100 + 9], k as u8 + 1);
            assert_eq!(buf[k * 100 + 10], 0);
        }
    }

    /// A sequential sweep of writes stores each byte once: N abutting
    /// writes are N ranges, none re-copied into a growing merged run.
    #[test]
    fn overlay_keeps_adjacent_writes_apart() {
        let o = OverlayBackend::new(MemBackend::zeroed(1000));
        for k in 0..100u64 {
            o.write_at(k * 10, &[k as u8 + 1; 10]);
        }
        assert_eq!(o.written.read().unwrap().len(), 100);
        assert_eq!(o.overlay_bytes(), 1000);
        // Rewriting inside a range patches it in place.
        o.write_at(502, &[0xff; 3]);
        assert_eq!(o.written.read().unwrap().len(), 100);
        let mut buf = [0u8; 12];
        o.read_into(495, &mut buf);
        assert_eq!(buf, [50, 50, 50, 50, 50, 51, 51, 0xff, 0xff, 0xff, 51, 51]);
    }

    #[test]
    #[should_panic]
    fn overlay_oob_write_panics() {
        let o = OverlayBackend::new(MemBackend::zeroed(8));
        o.write_at(4, &[0u8; 8]);
    }

    proptest! {
        #[test]
        fn prop_overlay_equals_mem_reference(
            writes in proptest::collection::vec(
                (0u64..200, 1usize..40, any::<u8>(), any::<bool>()),
                0..20,
            ),
            reads in proptest::collection::vec((0u64..256, 0usize..64), 1..8),
        ) {
            // An overlay over zeroes must behave exactly like a plain
            // memory backend receiving the same writes — overlapping ones
            // and, when `abut` is drawn, ones that start where the previous
            // write ended.
            let overlay = OverlayBackend::new(MemBackend::zeroed(256));
            let reference = MemBackend::zeroed(256);
            let mut prev_end = 0;
            for (off, len, val, abut) in writes {
                let off = if abut { prev_end } else { off };
                let len = len.min(256 - off as usize);
                let data = vec![val; len];
                overlay.write_at(off, &data);
                reference.write_at(off, &data);
                prev_end = off + len as u64;
            }
            // The stored ranges stay disjoint, so they hold no byte twice.
            let written = overlay.written.read().unwrap();
            let mut end = 0;
            for (&start, bytes) in written.iter() {
                prop_assert!(start >= end && !bytes.is_empty());
                end = start + bytes.len() as u64;
            }
            drop(written);
            // Whole-file and windowed reads agree with the reference.
            for (off, len) in reads.into_iter().chain([(0, 256)]) {
                let len = len.min(256 - off as usize);
                let mut a = vec![0u8; len];
                let mut b = vec![0u8; len];
                overlay.read_into(off, &mut a);
                reference.read_into(off, &mut b);
                prop_assert_eq!(a, b, "read [{}, +{})", off, len);
            }
        }

        #[test]
        fn prop_fill_range_matches_per_element_oracle(
            offset in 0u64..790,
            len in 0usize..300,
            wide in any::<bool>(),
        ) {
            // Bulk generation must be bit-identical to encoding each
            // element independently from the `value()` oracle, for both
            // element widths and arbitrary (unaligned) byte windows.
            let kind = if wide { ElemKind::F64 } else { ElemKind::F32 };
            let elems = 100u64;
            let b = SyntheticBackend::new(elems, kind, default_climate_value);
            let total = (elems * kind.size()) as usize;
            prop_assume!(offset as usize + len <= total);
            let mut expected = vec![0u8; total];
            for (i, chunk) in expected.chunks_exact_mut(kind.size() as usize).enumerate() {
                let v = b.value(i as u64);
                match kind {
                    ElemKind::F32 => chunk.copy_from_slice(&(v as f32).to_le_bytes()),
                    ElemKind::F64 => chunk.copy_from_slice(&v.to_le_bytes()),
                }
            }
            let mut got = vec![0u8; len];
            b.fill_range(offset, &mut got);
            prop_assert_eq!(&got[..], &expected[offset as usize..offset as usize + len]);
        }

        #[test]
        fn prop_unaligned_window_equals_aligned(
            offset in 0u64..500,
            len in 0usize..300,
        ) {
            let b = SyntheticBackend::new(100, ElemKind::F64, default_climate_value);
            prop_assume!(offset as usize + len <= 800);
            let mut whole = vec![0u8; 800];
            b.read_into(0, &mut whole);
            let mut window = vec![0u8; len];
            b.read_into(offset, &mut window);
            prop_assert_eq!(&window[..], &whole[offset as usize..offset as usize + len]);
        }
    }
}
