//! Plain-old-data element types and their wire codec.
//!
//! Messages travel as little-endian byte vectors. The [`Elem`] trait is the
//! safe, explicit analogue of an MPI datatype: it defines the element size
//! and the per-element encode/decode. No `unsafe` transmutes — the codec is
//! a simple copy loop, which optimizes to `memcpy` for these types anyway.

/// A fixed-size scalar that can cross rank boundaries.
pub trait Elem: Copy + Send + Sync + 'static {
    /// Size of one element on the wire, in bytes.
    const SIZE: usize;

    /// Writes `self` into `out` (exactly `Self::SIZE` bytes).
    fn write_le(&self, out: &mut [u8]);

    /// Reads one element from `input` (exactly `Self::SIZE` bytes).
    fn read_le(input: &[u8]) -> Self;
}

macro_rules! impl_elem {
    ($($t:ty),*) => {$(
        impl Elem for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            fn write_le(&self, out: &mut [u8]) {
                out[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }

            fn read_le(input: &[u8]) -> Self {
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(&input[..Self::SIZE]);
                <$t>::from_le_bytes(b)
            }
        }
    )*};
}

impl_elem!(f32, f64, u8, u16, u32, u64, i8, i16, i32, i64);

/// Encodes into a caller-owned buffer, clearing it first. Hot paths pair
/// this with a recycled buffer (see `pool::BufferPool`) so steady-state
/// encoding does no allocation.
pub fn encode_slice_into<T: Elem>(data: &[T], out: &mut Vec<u8>) {
    out.clear();
    out.resize(data.len() * T::SIZE, 0);
    for (chunk, v) in out.chunks_exact_mut(T::SIZE).zip(data) {
        v.write_le(chunk);
    }
}

/// Decodes a byte buffer produced by [`encode_slice_into`] into a
/// caller-owned buffer, clearing it first.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of the element size.
pub fn decode_into<T: Elem>(bytes: &[u8], out: &mut Vec<T>) {
    assert!(
        bytes.len().is_multiple_of(T::SIZE),
        "byte buffer of length {} is not a whole number of {}-byte elements",
        bytes.len(),
        T::SIZE
    );
    out.clear();
    out.reserve(bytes.len() / T::SIZE);
    out.extend(bytes.chunks_exact(T::SIZE).map(T::read_le));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode<T: Elem>(data: &[T]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_slice_into(data, &mut out);
        out
    }

    fn decode<T: Elem>(bytes: &[u8]) -> Vec<T> {
        let mut out = Vec::new();
        decode_into(bytes, &mut out);
        out
    }

    #[test]
    fn f64_roundtrip() {
        let data = [1.5f64, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        let bytes = encode(&data);
        assert_eq!(bytes.len(), data.len() * 8);
        assert_eq!(decode::<f64>(&bytes), data);
    }

    #[test]
    fn u8_is_identity() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(encode(&data), data);
        assert_eq!(decode::<u8>(&data), data);
    }

    #[test]
    fn empty_slice_roundtrip() {
        let empty: [u32; 0] = [];
        let bytes = encode(&empty);
        assert!(bytes.is_empty());
        assert!(decode::<u32>(&bytes).is_empty());
    }

    #[test]
    #[should_panic]
    fn ragged_decode_panics() {
        let _ = decode::<u32>(&[1, 2, 3]);
    }

    proptest! {
        #[test]
        fn prop_f32_roundtrip(data in proptest::collection::vec(any::<f32>(), 0..256)) {
            let decoded = decode::<f32>(&encode(&data));
            prop_assert_eq!(decoded.len(), data.len());
            for (a, b) in decoded.iter().zip(&data) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn prop_i64_roundtrip(data in proptest::collection::vec(any::<i64>(), 0..256)) {
            prop_assert_eq!(decode::<i64>(&encode(&data)), data);
        }

        #[test]
        fn prop_u16_roundtrip(data in proptest::collection::vec(any::<u16>(), 0..256)) {
            prop_assert_eq!(decode::<u16>(&encode(&data)), data);
        }
    }
}
