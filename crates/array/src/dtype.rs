//! Element types of variables.

/// Element type of a variable (the subset of netCDF types the paper's
/// workloads use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// 32-bit IEEE 754 float.
    F32,
    /// 64-bit IEEE 754 float.
    F64,
}

impl DType {
    /// Bytes per element.
    pub fn size(self) -> u64 {
        match self {
            DType::F32 => 4,
            DType::F64 => 8,
        }
    }

    /// Decodes a little-endian byte buffer of this type into `f64` values.
    ///
    /// # Panics
    /// Panics if `bytes.len()` is not a multiple of the element size.
    pub fn decode(self, bytes: &[u8]) -> Vec<f64> {
        let mut out = Vec::new();
        self.decode_into(bytes, &mut out);
        out
    }

    /// Decodes into a caller-owned scratch buffer, clearing it first. Hot
    /// paths reuse one buffer across calls so steady-state decoding does
    /// no allocation once the buffer has reached its high-water mark.
    ///
    /// # Panics
    /// Panics if `bytes.len()` is not a multiple of the element size.
    pub fn decode_into(self, bytes: &[u8], out: &mut Vec<f64>) {
        let esize = self.size() as usize;
        assert!(
            bytes.len().is_multiple_of(esize),
            "{} bytes is not a whole number of {esize}-byte elements",
            bytes.len()
        );
        out.clear();
        out.reserve(bytes.len() / esize);
        match self {
            DType::F32 => out.extend(
                bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")) as f64),
            ),
            DType::F64 => out.extend(
                bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("chunk is 8 bytes"))),
            ),
        }
    }

    /// Encodes `f64` values into this type's little-endian bytes.
    pub(crate) fn encode(self, values: &[f64]) -> Vec<u8> {
        match self {
            DType::F32 => values
                .iter()
                .flat_map(|&v| (v as f32).to_le_bytes())
                .collect(),
            DType::F64 => values.iter().flat_map(|&v| v.to_le_bytes()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip_exact() {
        let vals = [1.5, -2.25, 1e300];
        assert_eq!(DType::F64.decode(&DType::F64.encode(&vals)), vals);
    }

    #[test]
    fn f32_roundtrip_narrows() {
        let vals = [1.5f64, 0.1];
        let got = DType::F32.decode(&DType::F32.encode(&vals));
        assert_eq!(got[0], 1.5);
        assert_eq!(got[1], 0.1f32 as f64);
    }

    #[test]
    fn sizes() {
        assert_eq!(DType::F32.size(), 4);
        assert_eq!(DType::F64.size(), 8);
    }

    #[test]
    #[should_panic]
    fn ragged_decode_panics() {
        let _ = DType::F64.decode(&[0u8; 7]);
    }

    #[test]
    fn decode_into_reuses_capacity() {
        let bytes = DType::F64.encode(&[1.0, 2.0, 3.0, 4.0]);
        let mut scratch = Vec::new();
        DType::F64.decode_into(&bytes, &mut scratch);
        assert_eq!(scratch, [1.0, 2.0, 3.0, 4.0]);
        let cap = scratch.capacity();
        DType::F64.decode_into(&bytes[..16], &mut scratch);
        assert_eq!(scratch, [1.0, 2.0]);
        assert_eq!(scratch.capacity(), cap, "shorter decode must not shrink");
    }

    proptest::proptest! {
        #[test]
        fn prop_decode_into_matches_decode(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..64),
            wide in proptest::prelude::any::<bool>(),
            stale in 0usize..32,
        ) {
            // decode_into must be bit-identical to decode regardless of
            // what the scratch buffer held before the call.
            let dtype = if wide { DType::F64 } else { DType::F32 };
            let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            bytes.truncate(bytes.len() / dtype.size() as usize * dtype.size() as usize);
            let mut scratch = vec![f64::NAN; stale];
            dtype.decode_into(&bytes, &mut scratch);
            let fresh = dtype.decode(&bytes);
            proptest::prop_assert_eq!(
                scratch.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
