//! The deterministic collective plan.
//!
//! Once offset lists are exchanged, *every* rank can compute the entire
//! schedule of the two-phase protocol symmetrically: the file-domain
//! partition, each aggregator's iteration chunks, the covering extent each
//! chunk reads, and exactly which pieces of which chunk go to which rank.
//! ROMIO computes the same information on the fly; we reify it as a value
//! so that both the raw two-phase engine and the collective-computing
//! engine (which inserts the map between the phases) can share it — and so
//! it can be property-tested in isolation.
//!
//! File domains come in two shapes. The classic even / stripe-aligned
//! strategies give each aggregator one contiguous byte range. The
//! group-cyclic strategy (Liao/Choudhary, as in Lustre-aware ROMIO) gives
//! each aggregator a *periodic strided* domain: the stripes of a disjoint
//! subset of OSTs in every round-robin period, so each OST is served by
//! (ideally) one aggregator. `FileDomain` represents both: collective-
//! buffer chunks never straddle a block boundary, so a chunk is always a
//! contiguous byte range and everything downstream of `chunk()` is
//! strategy-agnostic.

use std::sync::Arc;

use cc_model::Topology;

use crate::extent::OffsetList;
use crate::hints::{lcm, DomainPartition, Hints, Striping};

/// One aggregator's file domain: `nblocks` blocks of `block` bytes, the
/// i-th starting at `start + i × stride`. A contiguous domain is the
/// special case `nblocks == 1` (stride irrelevant); an empty domain has
/// `block == 0` or `nblocks == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FileDomain {
    /// First byte of the first block.
    pub(crate) start: u64,
    /// Bytes per block.
    pub(crate) block: u64,
    /// Distance between consecutive block starts (`>= block`).
    pub(crate) stride: u64,
    /// Number of blocks.
    pub(crate) nblocks: u64,
}

impl FileDomain {
    /// A contiguous domain `[lo, hi)`.
    pub(crate) fn contiguous(lo: u64, hi: u64) -> Self {
        Self {
            start: lo,
            block: hi.saturating_sub(lo),
            stride: hi.saturating_sub(lo).max(1),
            nblocks: 1,
        }
    }

    /// An empty domain anchored at `at`.
    pub(crate) fn empty_at(at: u64) -> Self {
        Self {
            start: at,
            block: 0,
            stride: 1,
            nblocks: 0,
        }
    }

    /// True if the domain owns no bytes.
    pub(crate) fn is_empty(&self) -> bool {
        self.block == 0 || self.nblocks == 0
    }

    /// Bounding byte range `[lo, hi)` (equal bounds when empty).
    pub(crate) fn bounds(&self) -> (u64, u64) {
        if self.is_empty() {
            (self.start, self.start)
        } else {
            (
                self.start,
                self.start + (self.nblocks - 1) * self.stride + self.block,
            )
        }
    }

    /// Collective-buffer chunks per block (chunks never straddle blocks).
    pub(crate) fn chunks_per_block(&self, cb: u64) -> usize {
        self.block.div_ceil(cb) as usize
    }

    /// Whole blocks per collective-buffer iteration: more than one only
    /// when an entire block fits in the buffer (the group-cyclic stripe-set
    /// merge — one iteration serves the aggregator's OST slice across
    /// several consecutive periods), so the active bytes of an iteration
    /// never exceed `cb`. Exactly one of `chunks_per_block` and
    /// `blocks_per_chunk` exceeds 1.
    pub(crate) fn blocks_per_chunk(&self, cb: u64) -> u64 {
        if self.block == 0 || self.block > cb {
            1
        } else {
            cb / self.block
        }
    }

    /// Total iteration count at collective buffer size `cb`.
    pub(crate) fn n_iterations(&self, cb: u64) -> usize {
        if self.is_empty() {
            0
        } else if self.block > cb {
            self.nblocks as usize * self.chunks_per_block(cb)
        } else {
            self.nblocks.div_ceil(self.blocks_per_chunk(cb)) as usize
        }
    }

    /// The bounding byte range of iteration `iter` (empty range at the
    /// domain's upper bound when `iter` is past the end). A multi-block
    /// iteration's range spans the stride gaps between its blocks; the
    /// bytes in those gaps belong to other aggregators — block-precise
    /// consumers use [`chunk_blocks`](Self::chunk_blocks).
    pub(crate) fn chunk(&self, iter: usize, cb: u64) -> (u64, u64) {
        if iter >= self.n_iterations(cb) {
            let (_, hi) = self.bounds();
            return (hi, hi);
        }
        let cpb = self.chunks_per_block(cb);
        if cpb > 1 {
            let b = (iter / cpb) as u64;
            let c = (iter % cpb) as u64;
            let bstart = self.start + b * self.stride;
            let s = bstart + c * cb;
            (s, (s + cb).min(bstart + self.block))
        } else {
            let bpc = self.blocks_per_chunk(cb);
            let b0 = iter as u64 * bpc;
            let b1 = (b0 + bpc).min(self.nblocks);
            (
                self.start + b0 * self.stride,
                self.start + (b1 - 1) * self.stride + self.block,
            )
        }
    }

    /// Calls `f` with each in-domain sub-range of iteration `iter` (one per
    /// covered block, ascending). For split iterations this is the single
    /// [`chunk`](Self::chunk) range; for merged multi-block iterations it
    /// enumerates the whole blocks, skipping the stride gaps.
    pub(crate) fn chunk_blocks(&self, iter: usize, cb: u64, mut f: impl FnMut(u64, u64)) {
        if iter >= self.n_iterations(cb) {
            return;
        }
        if self.chunks_per_block(cb) > 1 {
            let (s, e) = self.chunk(iter, cb);
            f(s, e);
        } else {
            let bpc = self.blocks_per_chunk(cb);
            let b0 = iter as u64 * bpc;
            let b1 = (b0 + bpc).min(self.nblocks);
            for b in b0..b1 {
                let bstart = self.start + b * self.stride;
                f(bstart, bstart + self.block);
            }
        }
    }
}

/// The shared schedule of one collective operation.
#[derive(Debug, Clone)]
pub struct CollectivePlan {
    /// Aggregator rank ids, ascending.
    pub aggregators: Vec<usize>,
    /// File domain per aggregator (parallel to `aggregators`).
    pub(crate) domains: Vec<FileDomain>,
    /// Collective buffer size (bytes per iteration).
    pub(crate) cb: u64,
    /// Every rank's request, indexed by rank. Shared rather than owned so
    /// plans (and the engines layered on them) never deep-copy the offset
    /// lists — cloning a plan is O(1) in request bytes.
    pub requests: Arc<Vec<OffsetList>>,
}

impl CollectivePlan {
    /// Builds the plan from exchanged requests. Deterministic: all ranks
    /// compute the identical plan from the identical inputs. Accepts either
    /// an owned `Vec` or an existing `Arc` — callers holding the lists for
    /// later verification can share them instead of cloning.
    pub fn build(
        requests: impl Into<Arc<Vec<OffsetList>>>,
        topology: &Topology,
        nprocs: usize,
        hints: &Hints,
    ) -> Self {
        let requests = requests.into();
        hints.validate();
        assert_eq!(requests.len(), nprocs, "one request per rank");
        let aggregators = topology.aggregators(nprocs, hints.aggregators_per_node);
        let lo = requests.iter().filter_map(|r| r.min_offset()).min();
        let hi = requests.iter().filter_map(|r| r.max_end()).max();
        let (lo, hi) = match (lo, hi) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => (0, 0), // nobody asked for anything
        };
        let domains = Self::domains_for(lo, hi, aggregators.len(), hints);
        Self {
            aggregators,
            domains,
            cb: hints.cb_buffer_size,
            requests,
        }
    }

    /// Partitions `[lo, hi)` among `n` aggregators per the hinted strategy
    /// after its fallbacks ([`Hints::effective_partition`]): without
    /// striping both stripe-aware strategies split evenly; group-cyclic
    /// splits stripe-aligned when the stripe size is not a multiple of the
    /// requested alignment (a group-cyclic chunk would split an alignment
    /// unit mid-element).
    fn domains_for(lo: u64, hi: u64, n: usize, hints: &Hints) -> Vec<FileDomain> {
        let align = hints.align_domains_to;
        let even = |a: Option<u64>| {
            Self::partition(lo, hi, n, a)
                .into_iter()
                .map(|(s, e)| FileDomain::contiguous(s, e))
                .collect()
        };
        match (hints.effective_partition(), hints.striping) {
            (DomainPartition::Even, _) | (_, None) => even(align),
            (DomainPartition::StripeAligned, Some(s)) => {
                even(Some(lcm(align.unwrap_or(1), s.unit)))
            }
            (DomainPartition::GroupCyclic, Some(s)) => Self::partition_group_cyclic(lo, hi, n, s),
        }
    }

    /// Splits `[lo, hi)` into `n` nearly-even domains, optionally aligning
    /// interior boundaries up to a multiple of `align`.
    fn partition(lo: u64, hi: u64, n: usize, align: Option<u64>) -> Vec<(u64, u64)> {
        assert!(n > 0, "need at least one aggregator");
        let range = hi - lo;
        let base = range.div_ceil(n as u64).max(1);
        let mut domains = Vec::with_capacity(n);
        let mut cursor = lo;
        for i in 0..n {
            let mut end = if i + 1 == n {
                hi
            } else {
                (lo + base * (i as u64 + 1)).min(hi)
            };
            if i + 1 < n {
                if let Some(a) = align {
                    // Round interior boundaries up to the next alignment
                    // multiple (in absolute file offsets), like ROMIO's
                    // striping-aware partitioning.
                    end = end.div_ceil(a) * a;
                    end = end.min(hi);
                }
            }
            let start = cursor.min(end);
            domains.push((start, end.max(start)));
            cursor = end.max(start);
        }
        domains
    }

    /// Group-cyclic partition: the file is periods of `factor × unit`
    /// bytes anchored at absolute offset 0; aggregator `a` owns OST stripe
    /// slots `[a·k/n, (a+1)·k/n)` of every period overlapping `[lo, hi)`.
    /// Domains are not clipped to `[lo, hi)` — out-of-range chunks contain
    /// no requested bytes and are never active. With more aggregators than
    /// OSTs the excess get empty domains (ROMIO caps cb nodes at the
    /// stripe count for the same reason).
    fn partition_group_cyclic(lo: u64, hi: u64, n: usize, s: Striping) -> Vec<FileDomain> {
        assert!(n > 0, "need at least one aggregator");
        let unit = s.unit;
        let k = s.factor as u64;
        let period = s.period();
        if hi <= lo {
            return vec![FileDomain::empty_at(lo); n];
        }
        let p0 = lo / period;
        let p1 = (hi - 1) / period;
        let nperiods = p1 - p0 + 1;
        let n_u = n as u64;
        (0..n_u)
            .map(|a| {
                let slot_lo = a * k / n_u;
                let slot_hi = (a + 1) * k / n_u;
                if slot_hi == slot_lo {
                    FileDomain::empty_at(lo)
                } else {
                    FileDomain {
                        start: p0 * period + slot_lo * unit,
                        block: (slot_hi - slot_lo) * unit,
                        stride: period,
                        nblocks: nperiods,
                    }
                }
            })
            .collect()
    }

    /// The index in `aggregators` of rank `r`, if it is an aggregator.
    pub(crate) fn aggregator_index(&self, rank: usize) -> Option<usize> {
        self.aggregators.binary_search(&rank).ok()
    }

    /// Number of collective-buffer iterations aggregator `agg_idx` performs.
    pub(crate) fn n_iterations(&self, agg_idx: usize) -> usize {
        self.domains[agg_idx].n_iterations(self.cb)
    }

    /// Calls `f` with the in-domain sub-ranges of iteration `iter` of
    /// `agg_idx`, one per covered block, ascending.
    pub(crate) fn chunk_blocks(&self, agg_idx: usize, iter: usize, f: impl FnMut(u64, u64)) {
        self.domains[agg_idx].chunk_blocks(iter, self.cb, f)
    }
}

#[cfg(test)]
impl FileDomain {
    /// Calls `f` with every iteration index whose chunk overlaps in-domain
    /// bytes of `[lo, hi)`, ascending. Bytes falling in the gaps of a
    /// strided domain belong to other aggregators and are skipped.
    pub fn iterations_overlapping(&self, lo: u64, hi: u64, cb: u64, mut f: impl FnMut(usize)) {
        if self.is_empty() {
            return;
        }
        let cpb = self.chunks_per_block(cb);
        let bpc = self.blocks_per_chunk(cb);
        let lo = lo.max(self.start);
        if hi <= lo {
            return;
        }
        let first_b = (lo - self.start) / self.stride;
        let last_b = ((hi - 1 - self.start) / self.stride).min(self.nblocks - 1);
        let mut last_emitted = usize::MAX;
        for b in first_b..=last_b {
            let bstart = self.start + b * self.stride;
            let bend = bstart + self.block;
            let s = lo.max(bstart);
            let e = hi.min(bend);
            if s >= e {
                continue;
            }
            if cpb > 1 {
                let first_c = ((s - bstart) / cb) as usize;
                let last_c = ((e - 1 - bstart) / cb) as usize;
                for c in first_c..=last_c {
                    f(b as usize * cpb + c);
                }
            } else {
                // Merged multi-block iterations: consecutive blocks share
                // an iteration index; emit it once.
                let it = (b / bpc) as usize;
                if it != last_emitted {
                    last_emitted = it;
                    f(it);
                }
            }
        }
    }
}

/// The per-query oracle: each answer re-scans the offset lists, exactly
/// what [`PlanSchedule`](crate::schedule::PlanSchedule) compiles into flat
/// tables. Test-only; the schedule's property tests compare against it.
#[cfg(test)]
impl CollectivePlan {
    /// The maximum iteration count over all aggregators (the collective
    /// completes when the busiest aggregator finishes).
    pub fn max_iterations(&self) -> usize {
        (0..self.aggregators.len())
            .map(|a| self.n_iterations(a))
            .max()
            .unwrap_or(0)
    }

    /// The iterations of `agg_idx` whose chunks contain requested bytes,
    /// ascending. Computed by scanning request extents rather than chunks,
    /// so sparse requests over a huge file domain stay cheap (the paper's
    /// Fig. 1 workload covers ~300 GB of file range with ~0.3 GB of
    /// requests).
    pub fn active_iterations(&self, agg_idx: usize) -> Vec<usize> {
        let d = &self.domains[agg_idx];
        let (dlo, dhi) = d.bounds();
        if dlo >= dhi {
            return Vec::new();
        }
        let n = self.n_iterations(agg_idx);
        let mut active = vec![false; n];
        for req in self.requests.iter() {
            for p in req.locate(dlo, dhi) {
                d.iterations_overlapping(p.extent.offset, p.extent.end(), self.cb, |it| {
                    active[it] = true;
                });
            }
        }
        active
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
            .collect()
    }

    /// The bounding file range `[lo, hi)` of iteration `iter` of aggregator
    /// `agg_idx` (spans the stride gaps of a merged multi-block iteration).
    pub fn chunk(&self, agg_idx: usize, iter: usize) -> (u64, u64) {
        self.domains[agg_idx].chunk(iter, self.cb)
    }

    /// The covering extent the aggregator actually reads in this chunk:
    /// from the first to the last byte any rank requested inside its
    /// blocks. `None` if the chunk contains no requested bytes.
    pub fn read_range(&self, agg_idx: usize, iter: usize) -> Option<(u64, u64)> {
        let ranges = self.read_ranges(agg_idx, iter);
        let &(lo, _) = ranges.first()?;
        let &(last_lo, last_len) = ranges.last()?;
        Some((lo, last_lo + last_len))
    }

    /// The `(offset, len)` extents the aggregator reads in iteration
    /// `iter`: per covered block, the covering range of the bytes any rank
    /// requested inside it, ascending. These are the ranges handed to the
    /// vectorized file-system path in one call, so object-contiguous
    /// stripes across consecutive blocks coalesce into single service runs.
    pub fn read_ranges(&self, agg_idx: usize, iter: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.domains[agg_idx].chunk_blocks(iter, self.cb, |blo, bhi| {
            let mut first = u64::MAX;
            let mut last = 0u64;
            for req in self.requests.iter() {
                for p in req.locate(blo, bhi) {
                    first = first.min(p.extent.offset);
                    last = last.max(p.extent.end());
                }
            }
            if first < last {
                out.push((first, last - first));
            }
        });
        out
    }

    /// The pieces of chunk `(agg_idx, iter)` destined for `rank`, in file
    /// order, with their positions in `rank`'s request buffer. Clipped to
    /// the chunk's blocks: bytes in the stride gaps of a merged iteration
    /// belong to other aggregators.
    pub fn pieces_for(
        &self,
        agg_idx: usize,
        iter: usize,
        rank: usize,
    ) -> Vec<crate::extent::Piece> {
        let mut out = Vec::new();
        self.domains[agg_idx].chunk_blocks(iter, self.cb, |blo, bhi| {
            out.extend(self.requests[rank].locate(blo, bhi));
        });
        out
    }

    /// All `(agg_idx, iter)` chunks that contain bytes for `rank`, in
    /// ROMIO round order: sorted by `(k, a)`, where `k` is the position of
    /// `iter` among aggregator `a`'s active iterations. Receivers use this
    /// to know exactly which messages to expect, and in which order.
    pub fn sources_for(&self, rank: usize) -> Vec<(usize, usize)> {
        let mut out = self.aggregator_major_sources(rank);
        out.sort_by_cached_key(|&(a, it)| {
            let k = self.active_iterations(a).binary_search(&it);
            (k.expect("a source chunk is active"), a)
        });
        out
    }

    /// The chunks of [`Self::sources_for`] in (aggregator, iteration)
    /// order.
    pub fn aggregator_major_sources(&self, rank: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for agg_idx in 0..self.aggregators.len() {
            let d = &self.domains[agg_idx];
            let (dlo, dhi) = d.bounds();
            if dlo >= dhi {
                continue;
            }
            let n = self.n_iterations(agg_idx);
            let mut seen = vec![false; n];
            for p in self.requests[rank].locate(dlo, dhi) {
                d.iterations_overlapping(p.extent.offset, p.extent.end(), self.cb, |it| {
                    seen[it] = true;
                });
            }
            out.extend(
                seen.iter()
                    .enumerate()
                    .filter_map(|(i, &s)| s.then_some((agg_idx, i))),
            );
        }
        out
    }

    /// The ranks receiving bytes from chunk `(agg_idx, iter)`, ascending.
    pub fn destinations(&self, agg_idx: usize, iter: usize) -> Vec<usize> {
        (0..self.requests.len())
            .filter(|&r| {
                let mut any = false;
                self.domains[agg_idx].chunk_blocks(iter, self.cb, |blo, bhi| {
                    any = any || self.requests[r].bytes_in(blo, bhi) > 0;
                });
                any
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;
    use proptest::prelude::*;

    impl FileDomain {
        /// True if the domain is a single contiguous range.
        pub(crate) fn is_contiguous(&self) -> bool {
            self.nblocks <= 1
        }
    }

    fn hints(cb: u64) -> Hints {
        Hints {
            cb_buffer_size: cb,
            aggregators_per_node: 1,
            nonblocking: true,
            align_domains_to: None,
            ..Hints::default()
        }
    }

    fn striped_hints(cb: u64, partition: DomainPartition, unit: u64, factor: usize) -> Hints {
        Hints {
            domain_partition: partition,
            striping: Some(Striping { unit, factor }),
            ..hints(cb)
        }
    }

    fn contiguous_per_rank(n: usize, each: u64) -> Vec<OffsetList> {
        (0..n as u64)
            .map(|r| OffsetList::contiguous(r * each, each))
            .collect()
    }

    #[test]
    fn domains_tile_the_range() {
        let topo = Topology::new(2, 2);
        let plan = CollectivePlan::build(contiguous_per_rank(4, 100), &topo, 4, &hints(64));
        assert_eq!(plan.aggregators, vec![0, 2]);
        assert_eq!(
            plan.domains,
            vec![
                FileDomain::contiguous(0, 200),
                FileDomain::contiguous(200, 400)
            ]
        );
    }

    #[test]
    fn aligned_domains_round_up() {
        let topo = Topology::new(2, 1);
        let h = Hints {
            align_domains_to: Some(64),
            ..hints(64)
        };
        let plan = CollectivePlan::build(contiguous_per_rank(2, 100), &topo, 2, &h);
        // Range [0, 200), even split at 100, aligned up to 128.
        assert_eq!(
            plan.domains,
            vec![
                FileDomain::contiguous(0, 128),
                FileDomain::contiguous(128, 200)
            ]
        );
    }

    #[test]
    fn stripe_aligned_uses_lcm_of_hint_and_stripe() {
        // Alignment hint 48 with stripe 64: neither divides the other, so
        // boundaries must land on lcm(48, 64) = 192 — never mid-stripe,
        // never mid-element.
        let topo = Topology::new(2, 1);
        let h = Hints {
            align_domains_to: Some(48),
            ..striped_hints(64, DomainPartition::StripeAligned, 64, 4)
        };
        let plan = CollectivePlan::build(contiguous_per_rank(2, 150), &topo, 2, &h);
        assert_eq!(
            plan.domains,
            vec![
                FileDomain::contiguous(0, 192),
                FileDomain::contiguous(192, 300)
            ]
        );
    }

    #[test]
    fn stripe_aligned_without_striping_falls_back_to_even() {
        let topo = Topology::new(2, 1);
        let h = Hints {
            domain_partition: DomainPartition::StripeAligned,
            ..hints(64)
        };
        let plan = CollectivePlan::build(contiguous_per_rank(2, 100), &topo, 2, &h);
        assert_eq!(
            plan.domains,
            vec![
                FileDomain::contiguous(0, 100),
                FileDomain::contiguous(100, 200)
            ]
        );
    }

    #[test]
    fn group_cyclic_assigns_disjoint_ost_slots() {
        // 4 OSTs × stripe 10 = period 40, two aggregators: agg 0 owns OST
        // slots {0,1}, agg 1 owns {2,3}, repeated every period.
        let topo = Topology::new(2, 2);
        let h = striped_hints(10, DomainPartition::GroupCyclic, 10, 4);
        let plan = CollectivePlan::build(contiguous_per_rank(4, 30), &topo, 4, &h);
        assert_eq!(
            plan.domains,
            vec![
                FileDomain {
                    start: 0,
                    block: 20,
                    stride: 40,
                    nblocks: 3
                },
                FileDomain {
                    start: 20,
                    block: 20,
                    stride: 40,
                    nblocks: 3
                },
            ]
        );
        // Chunks never straddle a block: iteration ranges are contiguous
        // sub-ranges of one block each.
        assert_eq!(plan.n_iterations(0), 6);
        assert_eq!(plan.chunk(0, 0), (0, 10));
        assert_eq!(plan.chunk(0, 1), (10, 20));
        assert_eq!(plan.chunk(0, 2), (40, 50));
        assert_eq!(plan.chunk(1, 0), (20, 30));
    }

    #[test]
    fn group_cyclic_each_aggregator_touches_few_osts() {
        // Acceptance: every aggregator touches ≤ ceil(OSTs/aggs)+1 OSTs.
        for (k, naggs) in [(64usize, 32usize), (64, 7), (16, 5), (8, 16), (156, 13)] {
            let s = Striping {
                unit: 64,
                factor: k,
            };
            let domains =
                CollectivePlan::partition_group_cyclic(0, (k as u64) * 64 * 5 + 17, naggs, s);
            let cap = k.div_ceil(naggs) + 1;
            let mut owned = vec![false; k];
            for d in &domains {
                if d.is_empty() {
                    continue;
                }
                // Slots (→ OSTs) covered by this domain's blocks.
                let slot_lo = ((d.start % d.stride) / s.unit) as usize;
                let slot_hi = slot_lo + (d.block / s.unit) as usize;
                assert!(
                    slot_hi - slot_lo <= cap,
                    "aggregator spans {} OSTs, cap {cap}",
                    slot_hi - slot_lo
                );
                for (slot, owner) in owned.iter_mut().enumerate().take(slot_hi).skip(slot_lo) {
                    assert!(!*owner, "OST slot {slot} owned twice");
                    *owner = true;
                }
            }
            // Every OST slot is owned by exactly one aggregator (when
            // aggregators outnumber OSTs some get empty domains).
            assert!(owned.iter().all(|&o| o));
        }
    }

    #[test]
    fn group_cyclic_merges_whole_blocks_per_iteration() {
        // 4 OSTs × stripe 10 = period 40, two aggregators: agg 0's block is
        // 20 bytes. With cb = 40 a whole block fits twice over, so one
        // iteration covers two consecutive periods' blocks — the stripe-set
        // merge that lets the OSTs serve object-contiguous runs.
        let topo = Topology::new(2, 2);
        let h = striped_hints(40, DomainPartition::GroupCyclic, 10, 4);
        let plan = CollectivePlan::build(contiguous_per_rank(4, 40), &topo, 4, &h);
        let d = plan.domains[0];
        assert_eq!(
            d,
            FileDomain {
                start: 0,
                block: 20,
                stride: 40,
                nblocks: 4
            }
        );
        assert_eq!(d.blocks_per_chunk(40), 2);
        assert_eq!(plan.n_iterations(0), 2);
        // Bounding range spans the gap; the block list skips it.
        assert_eq!(plan.chunk(0, 0), (0, 60));
        let mut blocks = Vec::new();
        plan.chunk_blocks(0, 0, |lo, hi| blocks.push((lo, hi)));
        assert_eq!(blocks, vec![(0, 20), (40, 60)]);
        // Covering reads are per block: gap bytes belong to aggregator 1.
        assert_eq!(plan.read_ranges(0, 0), vec![(0, 20), (40, 20)]);
        assert_eq!(plan.read_range(0, 0), Some((0, 60)));
        // Pieces never leak into the gap, and every byte still lands with
        // exactly one aggregator.
        for rank in 0..4 {
            for (a, i) in plan.sources_for(rank) {
                assert!(plan.destinations(a, i).contains(&rank));
            }
        }
        assert_pieces_reassemble(&plan, 4);
    }

    #[test]
    fn group_cyclic_with_unaligned_stripe_falls_back() {
        // Stripe 10 is not a multiple of alignment 4: group-cyclic chunks
        // would split elements, so the plan falls back to stripe-aligned
        // (contiguous domains at lcm(4, 10) = 20).
        let topo = Topology::new(2, 1);
        let h = Hints {
            align_domains_to: Some(4),
            ..striped_hints(10, DomainPartition::GroupCyclic, 10, 4)
        };
        let plan = CollectivePlan::build(contiguous_per_rank(2, 35), &topo, 2, &h);
        assert!(plan.domains.iter().all(|d| d.is_contiguous()));
        assert_eq!(plan.domains[0].bounds(), (0, 40));
        assert_eq!(plan.domains[1].bounds(), (40, 70));
    }

    #[test]
    fn iteration_chunks_cover_domain() {
        let topo = Topology::new(1, 1);
        let plan = CollectivePlan::build(contiguous_per_rank(1, 250), &topo, 1, &hints(100));
        assert_eq!(plan.n_iterations(0), 3);
        assert_eq!(plan.chunk(0, 0), (0, 100));
        assert_eq!(plan.chunk(0, 1), (100, 200));
        assert_eq!(plan.chunk(0, 2), (200, 250));
    }

    #[test]
    fn read_range_skips_holes() {
        let topo = Topology::new(1, 2);
        let reqs = vec![
            OffsetList::new(vec![Extent { offset: 10, len: 5 }]),
            OffsetList::new(vec![Extent { offset: 80, len: 5 }]),
        ];
        let plan = CollectivePlan::build(reqs, &topo, 2, &hints(1000));
        // One chunk [10, 85): covering range is 10..85.
        assert_eq!(plan.read_range(0, 0), Some((10, 85)));
    }

    #[test]
    fn empty_request_set_yields_empty_plan() {
        let topo = Topology::new(1, 2);
        let plan = CollectivePlan::build(
            vec![OffsetList::empty(), OffsetList::empty()],
            &topo,
            2,
            &hints(100),
        );
        assert_eq!(plan.max_iterations(), 0);
        assert!(plan.sources_for(0).is_empty());
    }

    #[test]
    fn sources_match_destinations() {
        let topo = Topology::new(2, 2);
        // Interleaved requests: rank r takes bytes r*10 + k*40 for k=0..5.
        let reqs: Vec<OffsetList> = (0..4u64)
            .map(|r| {
                OffsetList::new(
                    (0..5)
                        .map(|k| Extent {
                            offset: r * 10 + k * 40,
                            len: 10,
                        })
                        .collect(),
                )
            })
            .collect();
        let plan = CollectivePlan::build(reqs, &topo, 4, &hints(32));
        for rank in 0..4 {
            for (a, i) in plan.sources_for(rank) {
                assert!(
                    plan.destinations(a, i).contains(&rank),
                    "sources/destinations disagree for rank {rank} at ({a},{i})"
                );
            }
        }
        for a in 0..plan.aggregators.len() {
            for i in 0..plan.n_iterations(a) {
                for rank in plan.destinations(a, i) {
                    assert!(plan.sources_for(rank).contains(&(a, i)));
                }
            }
        }
    }

    #[test]
    fn sources_match_destinations_group_cyclic() {
        let topo = Topology::new(2, 2);
        let reqs: Vec<OffsetList> = (0..4u64)
            .map(|r| {
                OffsetList::new(
                    (0..5)
                        .map(|k| Extent {
                            offset: 7 + r * 10 + k * 40,
                            len: 10,
                        })
                        .collect(),
                )
            })
            .collect();
        let h = striped_hints(16, DomainPartition::GroupCyclic, 16, 4);
        let plan = CollectivePlan::build(reqs, &topo, 4, &h);
        for rank in 0..4 {
            for (a, i) in plan.sources_for(rank) {
                assert!(plan.destinations(a, i).contains(&rank));
            }
        }
        for a in 0..plan.aggregators.len() {
            for i in plan.active_iterations(a) {
                for rank in plan.destinations(a, i) {
                    assert!(plan.sources_for(rank).contains(&(a, i)));
                }
            }
        }
    }

    /// Every schedule question the two-phase engines ask of one step, in
    /// a fixed order: each active chunk's covering range, the pieces it
    /// sends to each destination, and the pieces each rank receives from
    /// each of its sources.
    #[derive(Debug, Default, PartialEq)]
    struct Walk {
        ranges: Vec<(usize, usize, Range)>,
        sends: Vec<(usize, usize, usize, Vec<crate::extent::Piece>)>,
        recvs: Vec<(usize, usize, usize, Vec<crate::extent::Piece>)>,
    }

    type Range = Option<(u64, u64)>;

    fn walk_query(plan: &CollectivePlan) -> Walk {
        let mut w = Walk::default();
        for a in 0..plan.aggregators.len() {
            for it in plan.active_iterations(a) {
                w.ranges.push((a, it, plan.read_range(a, it)));
                for dst in plan.destinations(a, it) {
                    w.sends.push((a, it, dst, plan.pieces_for(a, it, dst)));
                }
            }
        }
        for r in 0..plan.requests.len() {
            for (a, it) in plan.sources_for(r) {
                w.recvs.push((a, it, r, plan.pieces_for(a, it, r)));
            }
        }
        w
    }

    fn walk_compiled(s: &crate::schedule::PlanSchedule) -> Walk {
        let mut w = Walk::default();
        for a in 0..s.plan().aggregators.len() {
            for &it in s.active_iterations(a) {
                w.ranges.push((a, it, s.read_range(a, it)));
                for (dst, pieces) in s.dests_with_pieces(a, it) {
                    w.sends.push((a, it, dst, pieces.to_vec()));
                }
            }
        }
        for r in 0..s.plan().requests.len() {
            for (a, it, pieces) in s.sources_with_pieces(r) {
                w.recvs.push((a, it, r, pieces.to_vec()));
            }
        }
        w
    }

    #[test]
    fn all_strategies_agree() {
        // Query API, a fresh compile and a cache resolve every step of an
        // interleaved sweep identically; every (constant-shifted) step is
        // its own cache entry, and looking it up again hits.
        use crate::schedule::{PlanSchedule, SharedPlanCache};
        let (nprocs, extents, len, steps) = (6u64, 40u64, 16u64, 4u64);
        let topo = Topology::new(3, 2);
        let h = hints(512);
        let cache = SharedPlanCache::new();
        for step in 0..steps {
            let base = step * nprocs * extents * len;
            let reqs: Arc<Vec<OffsetList>> = Arc::new(
                (0..nprocs)
                    .map(|r| {
                        let offsets = (0..extents).map(|k| base + (k * nprocs + r) * len);
                        OffsetList::new(offsets.map(|offset| Extent { offset, len }).collect())
                    })
                    .collect(),
            );
            let plan = CollectivePlan::build(Arc::clone(&reqs), &topo, nprocs as usize, &h);
            let query = walk_query(&plan);
            assert!(!query.sends.is_empty());
            let fresh = walk_compiled(&PlanSchedule::compile(plan));
            assert_eq!(query, fresh, "fresh step {step}");
            for _ in 0..2 {
                let (cached, _, _) =
                    cache.get_or_compile(Arc::clone(&reqs), &topo, nprocs as usize, &h, 0);
                assert_eq!(query, walk_compiled(&cached), "cached step {step}");
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (steps, steps), "{stats:?}");
    }

    fn partition_from(idx: usize) -> DomainPartition {
        [
            DomainPartition::Even,
            DomainPartition::StripeAligned,
            DomainPartition::GroupCyclic,
        ][idx]
    }

    fn strided_requests(seed_lens: &[(u64, u64)], nprocs: usize) -> Vec<OffsetList> {
        let mut reqs: Vec<Vec<Extent>> = vec![Vec::new(); nprocs];
        let mut pos = 0u64;
        for (i, (gap, len)) in seed_lens.iter().enumerate() {
            pos += gap;
            reqs[i % nprocs].push(Extent {
                offset: pos,
                len: *len,
            });
            pos += len;
        }
        reqs.into_iter().map(OffsetList::new).collect()
    }

    fn assert_pieces_reassemble(plan: &CollectivePlan, nprocs: usize) {
        // Every rank's pieces, collected over all chunks, must tile its
        // request buffer exactly.
        for rank in 0..nprocs {
            let mut pieces = Vec::new();
            for a in 0..plan.aggregators.len() {
                for i in 0..plan.n_iterations(a) {
                    pieces.extend(plan.pieces_for(a, i, rank));
                }
            }
            pieces.sort_by_key(|p| p.buf_offset);
            let mut cursor = 0u64;
            for p in &pieces {
                assert_eq!(p.buf_offset, cursor, "rank {rank} pieces overlap or gap");
                cursor += p.extent.len;
            }
            assert_eq!(cursor, plan.requests[rank].total_bytes());
        }
    }

    proptest! {
        #[test]
        fn prop_pieces_reassemble_requests(
            seed_lens in proptest::collection::vec((1u64..30, 1u64..30), 1..12),
            nprocs in 1usize..6,
            cb in 1u64..200,
        ) {
            let requests = strided_requests(&seed_lens, nprocs);
            let topo = Topology::new(1, nprocs);
            // The plan shares the request lists; read them back through it.
            let plan = CollectivePlan::build(requests, &topo, nprocs, &hints(cb));
            assert_pieces_reassemble(&plan, nprocs);
        }

        #[test]
        fn prop_pieces_reassemble_under_any_strategy(
            seed_lens in proptest::collection::vec((1u64..30, 1u64..30), 1..12),
            nprocs in 1usize..6,
            cb in 1u64..64,
            unit in 1u64..32,
            factor in 1usize..6,
            partition_idx in 0usize..3,
        ) {
            let requests = strided_requests(&seed_lens, nprocs);
            let topo = Topology::new(1, nprocs);
            let h = Hints {
                domain_partition: partition_from(partition_idx),
                striping: Some(Striping { unit, factor }),
                ..hints(cb)
            };
            let plan = CollectivePlan::build(requests, &topo, nprocs, &h);
            assert_pieces_reassemble(&plan, nprocs);

            // Domains must not overlap: total located bytes across
            // aggregators equal each rank's request exactly (checked by
            // reassembly above), and active iterations are consistent
            // with sources.
            for rank in 0..nprocs {
                for (a, i) in plan.sources_for(rank) {
                    prop_assert!(plan.destinations(a, i).contains(&rank));
                }
            }
        }

        #[test]
        fn prop_domains_are_disjoint_and_ordered(
            n in 1usize..8,
            lo in 0u64..1000,
            span in 0u64..10_000,
            align in proptest::option::of(1u64..128),
        ) {
            let domains = CollectivePlan::partition(lo, lo + span, n, align);
            prop_assert_eq!(domains.len(), n);
            prop_assert_eq!(domains[0].0, lo);
            prop_assert_eq!(domains[n - 1].1, lo + span);
            for w in domains.windows(2) {
                prop_assert!(w[0].1 == w[1].0, "domains must be contiguous");
                prop_assert!(w[0].0 <= w[0].1);
            }
        }

        #[test]
        fn prop_group_cyclic_domains_partition_every_period(
            n in 1usize..8,
            unit in 1u64..32,
            factor in 1usize..8,
            lo in 0u64..500,
            span in 1u64..2000,
        ) {
            let s = Striping { unit, factor };
            let domains = CollectivePlan::partition_group_cyclic(lo, lo + span, n, s);
            prop_assert_eq!(domains.len(), n);
            // Every byte of every overlapped period is owned exactly once.
            let period = s.period();
            let p0 = lo / period;
            let p1 = (lo + span - 1) / period;
            for b in (p0 * period)..((p1 + 1) * period) {
                let owners = domains
                    .iter()
                    .filter(|d| {
                        if d.is_empty() || b < d.start {
                            return false;
                        }
                        let rel = b - d.start;
                        let blk = rel / d.stride;
                        blk < d.nblocks && rel % d.stride < d.block
                    })
                    .count();
                prop_assert_eq!(owners, 1, "byte {} owned {} times", b, owners);
            }
        }
    }
}
