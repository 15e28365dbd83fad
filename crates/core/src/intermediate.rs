//! Intermediate results and their logical metadata.
//!
//! After the map, an aggregator holds one [`Partial`] per requesting rank,
//! tagged with the owner and accounting for the logical-run metadata the
//! runtime had to carry (the storage overhead of the paper's Fig. 12).
//! `IntermediateSet` is that store plus the wire codec used by both
//! reduce topologies.
//!
//! The store is a dense arena, not a heap object per owner: an owner →
//! slot index, one count array and one value array of slots × the
//! kernel's width. Folds and combines run through one reused working
//! partial, copied in from the slot and back out, so a finely interleaved
//! read that leaves an aggregator a partial for every rank costs that
//! aggregator a fixed handful of buffers, whatever the world size.

use cc_mpi::comm::TagValue;

use crate::kernel::{MapKernel, Partial};

/// Index entry of an owner with no partial.
const ABSENT: u32 = u32::MAX;

/// The arena proper: owner → slot, and each slot's count and values.
#[derive(Debug, Clone, Default)]
struct Slots {
    /// Owner rank → slot, [`ABSENT`] for none. Empty until first touch.
    index: Vec<u32>,
    /// Per slot: elements folded into the partial.
    counts: Vec<u64>,
    /// Per slot: the partial's `width` values, slot-major.
    values: Vec<f64>,
    /// Values per partial: the kernel identity's.
    width: usize,
}

impl Slots {
    fn get(&self, owner: usize) -> Option<usize> {
        match self.index.get(owner) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// Overwrites `into` with slot `s`, reusing its allocation.
    fn load(&self, s: usize, into: &mut Partial) {
        into.count = self.counts[s];
        into.values.clear();
        into.values
            .extend_from_slice(&self.values[s * self.width..(s + 1) * self.width]);
    }

    /// Stores `p` as `owner`'s partial, appending a slot on first touch.
    /// `p` has the arena's width.
    fn put(&mut self, owner: usize, p: &Partial) {
        match self.get(owner) {
            Some(s) => {
                self.counts[s] = p.count;
                self.values[s * self.width..(s + 1) * self.width].copy_from_slice(&p.values);
            }
            None => {
                self.index[owner] =
                    u32::try_from(self.counts.len()).expect("fewer than 2^32 owners");
                self.counts.push(p.count);
                self.values.extend_from_slice(&p.values);
            }
        }
    }

    /// `(owner, slot)` pairs, owners ascending.
    fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != ABSENT)
            .map(|(owner, &s)| (owner, s as usize))
    }
}

/// One aggregator's per-owner intermediate results, or the all-to-one
/// root's per-owner merge of them.
#[derive(Debug, Clone)]
pub(crate) struct IntermediateSet {
    /// Ranks in the world: owners are `0..nprocs`.
    nprocs: usize,
    /// The per-owner partials. Walking owners in ascending order keeps
    /// message layout and combine order deterministic.
    slots: Slots,
    /// The kernel's identity, a new owner's partial before its first fold.
    identity: Partial,
    /// The partial every fold and combine runs through.
    work: Partial,
    /// Logical-run metadata entries created while mapping.
    pub(crate) metadata_entries: u64,
    /// Bytes those metadata entries occupy.
    pub(crate) metadata_bytes: u64,
}

impl IntermediateSet {
    /// An empty set for a world of `nprocs` ranks. It allocates nothing
    /// until its first fold or absorb, so ranks that never aggregate pay
    /// nothing for it.
    pub(crate) fn new(nprocs: usize) -> Self {
        Self {
            nprocs,
            slots: Slots::default(),
            identity: Partial::new(Vec::new()),
            work: Partial::new(Vec::new()),
            metadata_entries: 0,
            metadata_bytes: 0,
        }
    }

    /// Checks that `owner` is in the world; on the set's first touch, also
    /// sizes the index and takes `kernel`'s identity and width.
    fn touch(&mut self, owner: usize, kernel: &dyn MapKernel) {
        assert!(
            owner < self.nprocs,
            "owner {owner} outside the {}-rank world",
            self.nprocs
        );
        if self.slots.index.is_empty() {
            self.slots.index = vec![ABSENT; self.nprocs];
            self.identity = kernel.identity();
            self.slots.width = self.identity.values.len();
            self.work = self.identity.clone();
        }
    }

    /// Panics unless `p` has the arena's width; `what` names where `p`
    /// came from.
    fn check_width(&self, kernel: &dyn MapKernel, p: &Partial, what: &str) {
        assert_eq!(
            p.values.len(),
            self.slots.width,
            "kernel {:?}: {what} has width {} where its identity has width {}",
            kernel.name(),
            p.values.len(),
            self.slots.width,
        );
    }

    /// Folds into `owner`'s partial: `fold` gets it (a copy of the
    /// kernel's identity on first touch) in the set's working partial,
    /// which is stored back afterwards. Mapping every run of one chunk for
    /// one owner inside one `fold` copies the slot once each way.
    ///
    /// # Panics
    /// Panics if `owner` is outside the world, or if `fold` changes the
    /// partial's width (naming the kernel).
    pub(crate) fn fold(
        &mut self,
        owner: usize,
        kernel: &dyn MapKernel,
        fold: impl FnOnce(&mut Partial),
    ) {
        self.touch(owner, kernel);
        match self.slots.get(owner) {
            Some(s) => self.slots.load(s, &mut self.work),
            None => {
                self.work.count = self.identity.count;
                self.work.values.clone_from(&self.identity.values);
            }
        }
        fold(&mut self.work);
        self.check_width(kernel, &self.work, "the partial its map left");
        self.slots.put(owner, &self.work);
    }

    /// Merges `p` into `owner`'s partial. The first partial an owner
    /// receives is copied, not combined into an identity: folding into an
    /// identity need not be bit-identical (`0.0 + -0.0` is `+0.0`).
    ///
    /// # Panics
    /// Panics if `owner` is outside the world, or if `p` or the kernel's
    /// `combine` has a width other than the identity's (naming the
    /// kernel).
    pub(crate) fn absorb(&mut self, owner: usize, p: &Partial, kernel: &dyn MapKernel) {
        self.touch(owner, kernel);
        self.check_width(kernel, p, "an absorbed partial");
        match self.slots.get(owner) {
            Some(s) => {
                self.slots.load(s, &mut self.work);
                kernel.combine(&mut self.work, p);
                self.check_width(kernel, &self.work, "the partial its combine left");
                self.slots.put(owner, &self.work);
            }
            None => self.slots.put(owner, p),
        }
    }

    /// Decodes `words`, the encoded set rank `src` sent under `tag`, and
    /// [absorbs](Self::absorb) each pair in message order, decoding
    /// through the caller's reused `incoming` partial. Returns the pairs
    /// absorbed.
    ///
    /// # Panics
    /// Panics on a malformed message, and on an owner outside the world,
    /// naming the source rank, the owner and the tag.
    pub(crate) fn absorb_encoded(
        &mut self,
        words: &[u64],
        incoming: &mut Partial,
        kernel: &dyn MapKernel,
        src: usize,
        tag: TagValue,
    ) -> u64 {
        let mut absorbed = 0;
        Self::decode(words, incoming, |owner, p| {
            assert!(
                owner < self.nprocs,
                "intermediate result from rank {src} names owner {owner} outside the \
                 {}-rank world (tag {tag:#x})",
                self.nprocs,
            );
            self.absorb(owner, p, kernel);
            absorbed += 1;
        });
        absorbed
    }

    /// Records `entries` metadata records of `bytes` total.
    pub(crate) fn note_metadata(&mut self, entries: u64, bytes: u64) {
        self.metadata_entries += entries;
        self.metadata_bytes += bytes;
    }

    /// Owners with results, ascending.
    pub(crate) fn owners(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().map(|(owner, _)| owner)
    }

    /// Loads `owner`'s partial into `into`, reusing its allocation;
    /// `false` (and `into` untouched) if the owner has none.
    pub(crate) fn load(&self, owner: usize, into: &mut Partial) -> bool {
        match self.slots.get(owner) {
            Some(s) => {
                self.slots.load(s, into);
                true
            }
            None => false,
        }
    }

    /// Calls `visit` with each (owner, partial) pair, owners ascending —
    /// the order [`encode_all_into`](Self::encode_all_into) writes them
    /// in. Every partial is loaded into `into`, which the caller owns and
    /// reuses.
    pub(crate) fn for_each(&self, into: &mut Partial, mut visit: impl FnMut(usize, &Partial)) {
        for (owner, s) in self.slots.iter() {
            self.slots.load(s, into);
            visit(owner, into);
        }
    }

    /// Number of owners with results.
    pub(crate) fn len(&self) -> usize {
        self.slots.counts.len()
    }

    /// Whether no owner has results.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.counts.is_empty()
    }

    /// Appends slot `s`'s wire encoding, identical to
    /// [`Partial::write_words_into`]'s: `[count, width, bits...]`.
    fn write_slot(&self, s: usize, out: &mut Vec<u64>) {
        let w = self.slots.width;
        out.push(self.slots.counts[s]);
        out.push(w as u64);
        out.extend(
            self.slots.values[s * w..(s + 1) * w]
                .iter()
                .map(|v| v.to_bits()),
        );
    }

    /// Serializes all (owner, partial) pairs, `[n, owner, partial...]*`,
    /// into a caller-owned buffer, cleared and sized in one reservation,
    /// so the shuffle path serializes the whole set without reallocating.
    pub(crate) fn encode_all_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(1 + self.len() * (3 + self.slots.width));
        out.push(self.len() as u64);
        for (owner, s) in self.slots.iter() {
            out.push(owner as u64);
            self.write_slot(s, out);
        }
    }

    /// Serializes just `owner`'s entry (for all-to-all shuffling) into a
    /// caller-owned buffer, cleared first: `[0]` if absent.
    pub(crate) fn encode_owner_into(&self, owner: usize, out: &mut Vec<u64>) {
        out.clear();
        match self.slots.get(owner) {
            Some(s) => {
                out.reserve(4 + self.slots.width);
                out.push(1);
                out.push(owner as u64);
                self.write_slot(s, out);
            }
            None => out.push(0),
        }
    }

    /// Decodes [`encode_all_into`](Self::encode_all_into)/
    /// [`encode_owner_into`](Self::encode_owner_into) output, calling
    /// `visit` with each (owner, partial) pair in message order. Every
    /// partial is read into `partial`, which the caller owns and reuses
    /// across messages, so decoding allocates nothing once its slots fit.
    ///
    /// # Panics
    /// Panics on a malformed buffer.
    pub(crate) fn decode(
        words: &[u64],
        partial: &mut Partial,
        mut visit: impl FnMut(usize, &Partial),
    ) {
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
    use std::collections::BTreeMap;

    use super::*;
    use crate::kernel::{MinLocKernel, SumKernel};
    use proptest::prelude::*;

    /// Folds `values` at element 0 into `owner`'s partial.
    fn map(set: &mut IntermediateSet, owner: usize, k: &dyn MapKernel, values: &[f64]) {
        set.fold(owner, k, |acc| k.map(acc, 0, values));
    }

    /// The decoded (owner, partial) pairs of `words`, collected.
    fn decoded(words: &[u64]) -> Vec<(usize, Partial)> {
        let mut out = Vec::new();
        let mut scratch = Partial::new(Vec::new());
        IntermediateSet::decode(words, &mut scratch, |owner, p| out.push((owner, p.clone())));
        out
    }

    fn encode_all(set: &IntermediateSet) -> Vec<u64> {
        let mut out = Vec::new();
        set.encode_all_into(&mut out);
        out
    }

    fn encode_owner(set: &IntermediateSet, owner: usize) -> Vec<u64> {
        let mut out = Vec::new();
        set.encode_owner_into(owner, &mut out);
        out
    }

    #[test]
    fn partials_accumulate_per_owner() {
        let mut set = IntermediateSet::new(4);
        let k = SumKernel;
        map(&mut set, 2, &k, &[1.0, 2.0]);
        map(&mut set, 0, &k, &[10.0]);
        set.fold(2, &k, |acc| k.map(acc, 5, &[3.0]));
        assert_eq!(set.len(), 2);
        let mut p = Partial::new(Vec::new());
        assert!(set.load(2, &mut p));
        assert_eq!((p.values[0], p.count), (6.0, 3));
        assert!(!set.load(1, &mut p));
        assert_eq!(set.owners().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn encode_all_roundtrip() {
        let mut set = IntermediateSet::new(4);
        let k = SumKernel;
        map(&mut set, 3, &k, &[5.0, 6.0]);
        map(&mut set, 1, &k, &[4.0]);
        let pairs = decoded(&encode_all(&set));
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, 1);
        assert_eq!(pairs[0].1.values[0], 4.0);
        assert_eq!(pairs[1].0, 3);
        assert_eq!(pairs[1].1.count, 2);
        let mut direct = Vec::new();
        set.for_each(&mut Partial::new(Vec::new()), |o, p| {
            direct.push((o, p.clone()))
        });
        assert_eq!(pairs, direct);
    }

    #[test]
    fn encode_owner_roundtrip_and_missing() {
        let mut set = IntermediateSet::new(8);
        let k = SumKernel;
        map(&mut set, 7, &k, &[1.0]);
        let present = decoded(&encode_owner(&set, 7));
        assert_eq!(present.len(), 1);
        assert_eq!(present[0].0, 7);
        assert!(decoded(&encode_owner(&set, 4)).is_empty());
    }

    #[test]
    fn decode_reuses_one_partial_across_messages() {
        let mut set = IntermediateSet::new(4);
        let k = SumKernel;
        for owner in 0..4 {
            map(&mut set, owner, &k, &[owner as f64]);
        }
        let words = encode_all(&set);
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
    fn a_new_set_allocates_nothing_until_touched() {
        let set = IntermediateSet::new(480);
        assert!(set.is_empty());
        assert_eq!(set.slots.index.capacity(), 0);
        assert_eq!(encode_all(&set), vec![0]);
    }

    #[test]
    fn metadata_accumulates() {
        let mut set = IntermediateSet::new(1);
        set.note_metadata(3, 120);
        set.note_metadata(1, 40);
        assert_eq!(set.metadata_entries, 4);
        assert_eq!(set.metadata_bytes, 160);
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn trailing_garbage_panics() {
        IntermediateSet::decode(&[0, 99], &mut Partial::new(Vec::new()), |_, _| {});
    }

    #[test]
    #[should_panic(
        expected = "from rank 5 names owner 9 outside the 4-rank world (tag 0x50000003)"
    )]
    fn an_owner_off_the_wire_outside_the_world_panics_with_context() {
        let mut set = IntermediateSet::new(4);
        let words = [1, 9, 1, 1, 2.0f64.to_bits()];
        set.absorb_encoded(
            &words,
            &mut Partial::new(Vec::new()),
            &SumKernel,
            5,
            0x5000_0003,
        );
    }

    /// A sum whose map or combine grows the partial by one slot.
    struct Widening {
        in_map: bool,
    }

    impl MapKernel for Widening {
        fn name(&self) -> &'static str {
            "widening"
        }

        fn identity(&self) -> Partial {
            Partial::new(vec![0.0])
        }

        fn map(&self, acc: &mut Partial, _: u64, values: &[f64]) {
            SumKernel.map(acc, 0, values);
            if self.in_map {
                acc.values.push(0.0);
            }
        }

        fn combine(&self, acc: &mut Partial, other: &Partial) {
            SumKernel.combine(acc, other);
            acc.values.push(0.0);
        }

        fn finalize(&self, acc: &Partial) -> Vec<f64> {
            acc.values.clone()
        }
    }

    #[test]
    #[should_panic(expected = "kernel \"widening\": the partial its map left has width 2")]
    fn a_kernel_whose_map_changes_the_width_panics_naming_it() {
        let k = Widening { in_map: true };
        map(&mut IntermediateSet::new(2), 1, &k, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "kernel \"widening\": the partial its combine left has width 2")]
    fn a_kernel_whose_combine_changes_the_width_panics_naming_it() {
        let k = Widening { in_map: false };
        let mut set = IntermediateSet::new(2);
        let p = Partial {
            values: vec![1.0],
            count: 1,
        };
        set.absorb(0, &p, &k);
        set.absorb(0, &p, &k);
    }

    /// The store this arena replaced: one heap partial per owner in a
    /// `BTreeMap`, created from the identity on a fold's first touch and
    /// cloned on an absorb's.
    #[derive(Default)]
    struct Model(BTreeMap<usize, Partial>);

    impl Model {
        fn fold(&mut self, owner: usize, k: &dyn MapKernel, start: u64, values: &[f64]) {
            k.map(
                self.0.entry(owner).or_insert_with(|| k.identity()),
                start,
                values,
            );
        }

        fn absorb(&mut self, owner: usize, p: &Partial, k: &dyn MapKernel) {
            match self.0.get_mut(&owner) {
                Some(acc) => k.combine(acc, p),
                None => {
                    self.0.insert(owner, p.clone());
                }
            }
        }

        fn encode_all(&self) -> Vec<u64> {
            let mut out = vec![self.0.len() as u64];
            for (&owner, p) in &self.0 {
                out.push(owner as u64);
                p.write_words_into(&mut out);
            }
            out
        }
    }

    /// Values whose sums and minima are sensitive to operand order and to
    /// the sign of zero.
    const POOL: [f64; 8] = [-0.0, 0.0, 1.5, -2.25, 1e300, -1e300, 3.0e-310, 7.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_arena_matches_a_btreemap_of_partials(
            located in 0u8..2,
            first in 0usize..12,
            ops in proptest::collection::vec(
                (0u8..3, 0usize..12, 0u64..1000, proptest::collection::vec(0usize..8, 1..5)),
                0..40,
            ),
        ) {
            let sum = SumKernel;
            let min_loc = MinLocKernel;
            let k: &dyn MapKernel = if located == 1 { &min_loc } else { &sum };
            let width = k.identity().values.len();
            let mut arena = IntermediateSet::new(12);
            let mut model = Model::default();
            // Every case starts with a -0.0 first touch by absorb: copied,
            // it stays -0.0; combined into an identity it would read +0.0.
            let neg_zero = Partial { values: vec![-0.0; width], count: 1 };
            arena.absorb(first, &neg_zero, k);
            model.absorb(first, &neg_zero, k);
            for (kind, owner, start, picks) in ops {
                let values: Vec<f64> = picks.iter().map(|&i| POOL[i]).collect();
                if kind < 2 {
                    arena.fold(owner, k, |acc| k.map(acc, start, &values));
                    model.fold(owner, k, start, &values);
                } else {
                    let mut p = Partial { values: vec![0.0; width], count: picks.len() as u64 };
                    for (slot, &v) in p.values.iter_mut().zip(&values) {
                        *slot = v;
                    }
                    arena.absorb(owner, &p, k);
                    model.absorb(owner, &p, k);
                }
            }
            let words = encode_all(&arena);
            prop_assert_eq!(&words, &model.encode_all());
            for owner in 0..12 {
                let expect = model.0.get(&owner).map(|p| {
                    let mut out = vec![1, owner as u64];
                    p.write_words_into(&mut out);
                    out
                });
                prop_assert_eq!(encode_owner(&arena, owner), expect.unwrap_or(vec![0]));
            }
            // A root absorbing the encoded set rebuilds it bit for bit.
            let mut root = IntermediateSet::new(12);
            let absorbed = root.absorb_encoded(&words, &mut Partial::new(Vec::new()), k, 1, 0);
            prop_assert_eq!(absorbed, arena.len() as u64);
            prop_assert_eq!(encode_all(&root), words);
        }
    }
}
