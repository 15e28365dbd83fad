//! Intermediate results and their logical metadata.
//!
//! After the map, an aggregator holds one [`Partial`] per requesting rank,
//! tagged with the owner and accounting for the logical-run metadata the
//! runtime had to carry (the storage overhead of the paper's Fig. 12).
//! [`IntermediateSet`] is that store plus the wire codec used by both
//! reduce topologies.

use std::collections::BTreeMap;

use crate::kernel::{MapKernel, Partial};

/// One aggregator's per-owner intermediate results.
#[derive(Debug, Clone, Default)]
pub struct IntermediateSet {
    /// Owner rank -> accumulated partial. `BTreeMap` keeps iteration (and
    /// thus message layout and combine order) deterministic.
    by_owner: BTreeMap<usize, Partial>,
    /// Logical-run metadata entries created while mapping.
    pub metadata_entries: u64,
    /// Bytes those metadata entries occupy.
    pub metadata_bytes: u64,
}

impl IntermediateSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The partial for `owner`, created from `kernel`'s identity on first
    /// touch.
    pub fn partial_mut(&mut self, owner: usize, kernel: &dyn MapKernel) -> &mut Partial {
        self.by_owner
            .entry(owner)
            .or_insert_with(|| kernel.identity())
    }

    /// Records `entries` metadata records of `bytes` total.
    pub fn note_metadata(&mut self, entries: u64, bytes: u64) {
        self.metadata_entries += entries;
        self.metadata_bytes += bytes;
    }

    /// Owners with results, ascending.
    pub fn owners(&self) -> impl Iterator<Item = usize> + '_ {
        self.by_owner.keys().copied()
    }

    /// The (owner, partial) pairs, owners ascending: the order
    /// [`encode_all`](Self::encode_all) writes them in.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Partial)> + '_ {
        self.by_owner.iter().map(|(&owner, p)| (owner, p))
    }

    /// The partial for `owner`, if any.
    pub fn get(&self, owner: usize) -> Option<&Partial> {
        self.by_owner.get(&owner)
    }

    /// Number of owners with results.
    pub fn len(&self) -> usize {
        self.by_owner.len()
    }

    /// Whether no owner has results.
    pub fn is_empty(&self) -> bool {
        self.by_owner.is_empty()
    }

    /// Serializes all (owner, partial) pairs: `[n, owner, partial...]*`.
    pub fn encode_all(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.encode_all_into(&mut out);
        out
    }

    /// [`encode_all`](Self::encode_all) into a caller-owned buffer, cleared
    /// and sized in one reservation, so the shuffle path serializes the
    /// whole set without reallocating.
    pub fn encode_all_into(&self, out: &mut Vec<u64>) {
        out.clear();
        let total: usize = self.by_owner.values().map(|p| 1 + p.words_len()).sum();
        out.reserve(1 + total);
        out.push(self.by_owner.len() as u64);
        for (owner, p) in &self.by_owner {
            out.push(*owner as u64);
            p.write_words_into(out);
        }
    }

    /// Serializes just `owner`'s entry (for all-to-all shuffling); empty
    /// vector if absent.
    pub fn encode_owner(&self, owner: usize) -> Vec<u64> {
        let mut out = Vec::new();
        self.encode_owner_into(owner, &mut out);
        out
    }

    /// [`encode_owner`](Self::encode_owner) into a caller-owned buffer,
    /// cleared first.
    pub fn encode_owner_into(&self, owner: usize, out: &mut Vec<u64>) {
        out.clear();
        match self.by_owner.get(&owner) {
            Some(p) => {
                out.reserve(2 + p.words_len());
                out.push(1);
                out.push(owner as u64);
                p.write_words_into(out);
            }
            None => out.push(0),
        }
    }

    /// Decodes [`encode_all`](Self::encode_all)/
    /// [`encode_owner`](Self::encode_owner) output, calling `visit` with
    /// each (owner, partial) pair in message order. Every partial is read
    /// into `partial`, which the caller owns and reuses across messages,
    /// so decoding allocates nothing once its slots fit.
    ///
    /// # Panics
    /// Panics on a malformed buffer.
    pub fn decode(words: &[u64], partial: &mut Partial, mut visit: impl FnMut(usize, &Partial)) {
        assert!(!words.is_empty(), "empty intermediate message");
        let n = words[0] as usize;
        let mut pos = 1;
        for _ in 0..n {
            assert!(pos < words.len(), "truncated intermediate message");
            let owner = words[pos] as usize;
            pos += 1;
            pos += partial.read_words(&words[pos..]);
            visit(owner, partial);
        }
        assert_eq!(pos, words.len(), "trailing bytes in intermediate message");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SumKernel;

    #[test]
    fn partials_accumulate_per_owner() {
        let mut set = IntermediateSet::new();
        let k = SumKernel;
        k.map(set.partial_mut(2, &k), 0, &[1.0, 2.0]);
        k.map(set.partial_mut(0, &k), 0, &[10.0]);
        k.map(set.partial_mut(2, &k), 5, &[3.0]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(2).unwrap().values[0], 6.0);
        assert_eq!(set.get(2).unwrap().count, 3);
        assert_eq!(set.owners().collect::<Vec<_>>(), vec![0, 2]);
    }

    /// The decoded (owner, partial) pairs of `words`, collected.
    fn decoded(words: &[u64]) -> Vec<(usize, Partial)> {
        let mut out = Vec::new();
        let mut scratch = Partial::new(Vec::new());
        IntermediateSet::decode(words, &mut scratch, |owner, p| out.push((owner, p.clone())));
        out
    }

    #[test]
    fn encode_all_roundtrip() {
        let mut set = IntermediateSet::new();
        let k = SumKernel;
        k.map(set.partial_mut(1, &k), 0, &[4.0]);
        k.map(set.partial_mut(3, &k), 0, &[5.0, 6.0]);
        let pairs = decoded(&set.encode_all());
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, 1);
        assert_eq!(pairs[0].1.values[0], 4.0);
        assert_eq!(pairs[1].0, 3);
        assert_eq!(pairs[1].1.count, 2);
        let direct: Vec<_> = set.iter().map(|(o, p)| (o, p.clone())).collect();
        assert_eq!(pairs, direct);
    }

    #[test]
    fn encode_owner_roundtrip_and_missing() {
        let mut set = IntermediateSet::new();
        let k = SumKernel;
        k.map(set.partial_mut(7, &k), 0, &[1.0]);
        let present = decoded(&set.encode_owner(7));
        assert_eq!(present.len(), 1);
        assert_eq!(present[0].0, 7);
        let absent = decoded(&set.encode_owner(4));
        assert!(absent.is_empty());
    }

    #[test]
    fn decode_reuses_one_partial_across_messages() {
        let mut set = IntermediateSet::new();
        let k = SumKernel;
        for owner in 0..4 {
            k.map(set.partial_mut(owner, &k), 0, &[owner as f64]);
        }
        let words = set.encode_all();
        let mut scratch = k.identity();
        let slots = scratch.values.as_ptr();
        let mut sum = 0.0;
        IntermediateSet::decode(&words, &mut scratch, |_, p| sum += p.values[0]);
        IntermediateSet::decode(&words, &mut scratch, |_, p| sum += p.values[0]);
        assert_eq!(sum, 12.0);
        assert_eq!(
            scratch.values.as_ptr(),
            slots,
            "decode reallocated the partial"
        );
    }

    #[test]
    fn metadata_accumulates() {
        let mut set = IntermediateSet::new();
        set.note_metadata(3, 120);
        set.note_metadata(1, 40);
        assert_eq!(set.metadata_entries, 4);
        assert_eq!(set.metadata_bytes, 160);
    }

    #[test]
    #[should_panic]
    fn trailing_garbage_panics() {
        let mut words = vec![0u64];
        words.push(99);
        IntermediateSet::decode(&words, &mut Partial::new(Vec::new()), |_, _| {});
    }
}
