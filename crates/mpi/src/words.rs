//! The wire codec of `u64` words: little-endian, eight bytes a word. It
//! carries the reduce's partials and the engines' encoded results. Both
//! directions write into a caller-owned buffer, so hot paths pair them
//! with a recycled buffer (see `BufferPool`) and
//! allocate nothing in steady state.

/// Encodes `words` into `out`, clearing it first.
pub fn encode_into(words: &[u64], out: &mut Vec<u8>) {
    out.clear();
    out.resize(words.len() * 8, 0);
    for (chunk, w) in out.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
}

/// Decodes bytes produced by [`encode_into`] into `out`, clearing it first.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of 8.
pub fn decode_into(bytes: &[u8], out: &mut Vec<u64>) {
    assert!(
        bytes.len().is_multiple_of(8),
        "byte buffer of length {} is not a whole number of 8-byte words",
        bytes.len()
    );
    out.clear();
    out.extend(
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn f64_roundtrip() {
        // A word carrying an f64's bits goes on the wire as the f64 would.
        let data = [1.5f64, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        let words: Vec<u64> = data.iter().map(|v| v.to_bits()).collect();
        let mut bytes = Vec::new();
        encode_into(&words, &mut bytes);
        let le: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(bytes, le);
        let mut back = Vec::new();
        decode_into(&bytes, &mut back);
        assert_eq!(back, words);
    }

    #[test]
    fn empty_slice_roundtrip() {
        let mut bytes = vec![1];
        encode_into(&[], &mut bytes);
        assert!(bytes.is_empty());
        let mut words = vec![1];
        decode_into(&bytes, &mut words);
        assert!(words.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a whole number of 8-byte words")]
    fn ragged_decode_panics() {
        decode_into(&[1, 2, 3], &mut Vec::new());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(words in proptest::collection::vec(any::<u64>(), 0..256)) {
            let mut bytes = Vec::new();
            encode_into(&words, &mut bytes);
            let mut back = Vec::new();
            decode_into(&bytes, &mut back);
            prop_assert_eq!(back, words);
        }
    }
}
