//! Compiled collective plans: one-sweep shuffle schedules and plan caching.
//!
//! [`CollectivePlan`] fixes the partition; its per-query oracle (test-only)
//! answers every schedule question by re-scanning all ranks' offset lists,
//! O(iterations × ranks × log extents) *per query*.
//! [`PlanSchedule`] compiles the complete schedule once, with a single
//! linear co-sweep over all ranks' extents, into CSR-style flat tables:
//! per (aggregator, iteration) slot the covering read ranges, the
//! destination ranks, and each destination's piece slice; the global round
//! order of the active slots; per rank the `(agg, iter)` source list in
//! that round order. Every query the engines make becomes an O(1) or slice
//! lookup, and the per-call `Vec<Piece>` allocations of the query API
//! disappear.
//!
//! [`SharedPlanCache`] layers reuse on top, for iterative sweeps
//! (`cc-core::iterative`), fused task batches and concurrent jobs:
//! schedules are keyed by a fingerprint of the requests plus hints, rank
//! count, and topology, and a lookup whose requests equal a cached step's
//! shares that step's schedule outright.
//!
//! A collective resolves its schedule once, not once per rank: one rank
//! makes the lookup (or the compile, without a cache) inside
//! [`Comm::memo`], and every rank of the world takes the same `Arc`.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cc_model::Topology;
use cc_mpi::comm::TagValue;
use cc_mpi::Comm;
use cc_pfs::FileHandle;

use crate::exchange::exchange_requests;
use crate::extent::{piece_bytes, Extent, OffsetList, Piece};
use crate::hints::{Hints, Striping};
use crate::plan::CollectivePlan;

/// The flat tables of one compiled schedule.
#[derive(Debug, PartialEq, Eq)]
struct ScheduleTables {
    /// Slot base per aggregator: slot `(a, it)` is `iter_base[a] + it`.
    /// Length `naggs + 1`; the last entry is the total slot count.
    iter_base: Vec<usize>,
    /// CSR of active (non-empty) iterations per aggregator.
    active_base: Vec<usize>,
    active_iters: Vec<usize>,
    /// CSR of destination ranks per slot, ascending within a slot.
    dest_base: Vec<usize>,
    dest_rank: Vec<usize>,
    /// Piece slice per destination entry (parallel to `dest_rank`, with a
    /// final end sentinel): destination `d` owns `pieces[piece_base[d]..
    /// piece_base[d + 1]]`, in file (and buffer) order.
    piece_base: Vec<usize>,
    /// Every active slot `(agg_idx, iter)` in ROMIO's round order, sorted
    /// by `(k, a)` where `k` is the slot's position among aggregator `a`'s
    /// active iterations: round `k` of every aggregator comes before round
    /// `k + 1` of any. Every order-sensitive relay loop walks this list.
    rounds: Vec<(usize, usize)>,
    /// CSR of `(agg_idx, iter)` sources per rank, in round order.
    src_base: Vec<usize>,
    sources: Vec<(usize, usize)>,
    /// Destination-table index of each source entry (parallel to
    /// `sources`): rank `r`'s `k`-th source chunk delivers exactly
    /// `pieces[piece_base[d]..piece_base[d + 1]]` where
    /// `d = src_dest[src_base[r] + k]` — receivers look their pieces up
    /// without re-searching the destination lists.
    src_dest: Vec<usize>,
    /// CSR bounds of each slot's covering read ranges (one range per
    /// covered block holding requested bytes).
    range_base: Vec<usize>,
    pieces: Vec<Piece>,
    /// Per-block covering `(offset, len)` read extents, CSR-indexed by
    /// `range_base` — the range list one vectorized file-system call
    /// services per iteration.
    ranges: Vec<(u64, u64)>,
}

/// A [`CollectivePlan`] compiled into flat lookup tables.
///
/// Answers are bit-identical to the test-only query oracle of the plan it
/// was built from (property-tested below), but cost O(1) or a slice borrow
/// instead of a rescan. The ranks of a collective, and the collectives
/// that hit one cache entry, share one schedule by `Arc`.
#[derive(Debug)]
pub struct PlanSchedule {
    plan: CollectivePlan,
    tables: ScheduleTables,
}

impl PlanSchedule {
    /// Compiles `plan` with one linear co-sweep over all ranks' offset
    /// lists. Cost is O(total extents + slots + pieces + ranks), after
    /// which every query is allocation-free.
    ///
    /// The sweep is domain-major: one aggregator's file domain at a time.
    /// Each rank's pieces in the domain's bounding box come from
    /// [`OffsetList::locate`] and are clipped to the domain's blocks and
    /// collective-buffer chunks — a contiguous domain is one block, a
    /// strided (group-cyclic) one several. That yields a per-domain record
    /// stream (rank-major, iteration-ascending within rank) which a
    /// counting-sort groups by destination inside a per-domain scratch
    /// small enough to stay cache-resident, and makes every global table a
    /// sequential append — slots are emitted in `(agg, iter)` order. The
    /// round order and the per-rank source lists are derived from those
    /// tables afterwards.
    pub fn compile(plan: CollectivePlan) -> Self {
        let naggs = plan.aggregators.len();
        let nprocs = plan.requests.len();
        let cb = plan.cb;

        // Slot layout: one slot per (aggregator, iteration).
        let mut iter_base = Vec::with_capacity(naggs + 1);
        iter_base.push(0usize);
        for a in 0..naggs {
            iter_base.push(iter_base[a] + plan.n_iterations(a));
        }
        let slots = iter_base[naggs];

        let mut range_base = Vec::with_capacity(slots + 1);
        range_base.push(0usize);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        // Per-slot scratch for the block-covering post-pass:
        // (block, cover_lo, cover_hi).
        let mut blk_cov: Vec<(u64, u64, u64)> = Vec::new();
        let mut active_base = Vec::with_capacity(naggs + 1);
        let mut active_iters = Vec::new();
        active_base.push(0usize);
        let mut dest_base = Vec::with_capacity(slots + 1);
        dest_base.push(0usize);
        let mut dest_rank = Vec::new();
        let mut piece_base = Vec::new();
        let mut pieces: Vec<Piece> = Vec::new();

        // Per-domain scratch, reused across aggregators. Records are
        // rank-major and iteration-sorted within a rank (extents ascend).
        let mut recs: Vec<(u32, u32, Piece)> = Vec::new(); // (it, rank, piece)
        let mut piece_count: Vec<usize> = Vec::new();
        let mut dest_count: Vec<usize> = Vec::new();
        let mut last_rank: Vec<usize> = Vec::new();
        let mut next_piece: Vec<usize> = Vec::new();
        let mut next_dest: Vec<usize> = Vec::new();
        let mut local_pieces: Vec<Piece> = Vec::new();
        let mut local_dest_rank: Vec<usize> = Vec::new();
        let mut local_piece_base: Vec<usize> = Vec::new();

        // Every extent yields at least one piece; reserving the common case
        // up front keeps the append-only growth of the largest table from
        // re-copying it.
        pieces.reserve(plan.requests.iter().map(|r| r.extents().len()).sum());

        for a in 0..naggs {
            let dom = plan.domains[a];
            let (dlo, dhi) = dom.bounds();
            let n_it = iter_base[a + 1] - iter_base[a];
            if dlo >= dhi || n_it == 0 {
                active_base.push(active_iters.len());
                continue;
            }
            recs.clear();
            // Piece and destination counts per iteration, gathered during
            // the sweep: every record is one piece, and a destination opens
            // exactly when a rank first touches an iteration — the same
            // transition that emits the rank's source entry (one rank's
            // records for an iteration are contiguous, ranks ascend).
            piece_count.clear();
            piece_count.resize(n_it, 0);
            dest_count.clear();
            dest_count.resize(n_it, 0);
            // Locate each rank's pieces in the bounding box, then clip them
            // to the domain's blocks and chunks. The in-domain
            // offset→iteration map is monotone in file offset, so the
            // record stream keeps the invariants the scatter relies on
            // (rank-major, iterations ascending within a rank, per-(it,
            // rank) records contiguous).
            let cpb = dom.chunks_per_block(cb);
            let bpc = dom.blocks_per_chunk(cb);
            for r in 0..nprocs {
                let mut prev_it = usize::MAX;
                for piece in plan.requests[r].locate(dlo, dhi) {
                    let (plo, phi) = (piece.extent.offset, piece.extent.end());
                    let first_b = (plo.max(dom.start) - dom.start) / dom.stride;
                    let last_b = ((phi - 1 - dom.start) / dom.stride).min(dom.nblocks - 1);
                    for b in first_b..=last_b {
                        let bstart = dom.start + b * dom.stride;
                        let bend = bstart + dom.block;
                        let s = plo.max(bstart);
                        let e = phi.min(bend);
                        if s >= e {
                            continue;
                        }
                        let first_c = ((s - bstart) / cb) as usize;
                        let last_c = ((e - 1 - bstart) / cb) as usize;
                        for c in first_c..=last_c {
                            let c_lo = bstart + cb * c as u64;
                            let c_hi = (c_lo + cb).min(bend);
                            let p_lo = s.max(c_lo);
                            let p_hi = e.min(c_hi);
                            debug_assert!(p_lo < p_hi);
                            // Merged multi-block iterations (cpb == 1,
                            // bpc > 1) map consecutive blocks onto one
                            // slot; block order keeps the stream's
                            // iteration-ascending invariant.
                            let it = if cpb > 1 {
                                b as usize * cpb + c
                            } else {
                                (b / bpc) as usize
                            };
                            piece_count[it] += 1;
                            recs.push((
                                it as u32,
                                r as u32,
                                Piece {
                                    extent: Extent {
                                        offset: p_lo,
                                        len: p_hi - p_lo,
                                    },
                                    buf_offset: piece.buf_offset + (p_lo - plo),
                                },
                            ));
                            if it != prev_it {
                                prev_it = it;
                                dest_count[it] += 1;
                            }
                        }
                    }
                }
            }

            // Relative write cursors for this domain's slots, and the CSR
            // boundaries they imply.
            next_piece.clear();
            next_dest.clear();
            let piece_off0 = pieces.len();
            let dest_off0 = dest_rank.len();
            let mut p = 0usize;
            let mut d = 0usize;
            for it in 0..n_it {
                next_piece.push(p);
                next_dest.push(d);
                p += piece_count[it];
                d += dest_count[it];
                dest_base.push(dest_off0 + d);
            }

            // Stable scatter within this domain's slots: pieces land in
            // rank order (record order) and file order, so each
            // destination's pieces are contiguous and `piece_base[d]` is the
            // piece cursor at the moment destination `d` opens. The scatter
            // goes through small reused staging buffers (cache-resident),
            // and the global tables grow by one sequential append per
            // domain.
            // Grow-only staging: the scatter writes every one of the `p`
            // piece and `d` destination entries, so stale tails never leak
            // and re-zeroing the buffers each domain would be a wasted
            // second write pass.
            if local_pieces.len() < p {
                local_pieces.resize(
                    p,
                    Piece {
                        extent: Extent { offset: 0, len: 0 },
                        buf_offset: 0,
                    },
                );
            }
            if local_dest_rank.len() < d {
                local_dest_rank.resize(d, 0);
                local_piece_base.resize(d, 0);
            }
            last_rank.clear();
            last_rank.resize(n_it, usize::MAX);
            for &(it, r, piece) in &recs {
                let (it, r) = (it as usize, r as usize);
                if last_rank[it] != r {
                    last_rank[it] = r;
                    let d = next_dest[it];
                    next_dest[it] += 1;
                    local_dest_rank[d] = r;
                    local_piece_base[d] = piece_off0 + next_piece[it];
                }
                local_pieces[next_piece[it]] = piece;
                next_piece[it] += 1;
            }
            pieces.extend_from_slice(&local_pieces[..p]);
            dest_rank.extend_from_slice(&local_dest_rank[..d]);
            piece_base.extend_from_slice(&local_piece_base[..d]);

            // Per-slot covering read ranges, one per covered block: the
            // extents the vectorized read of this iteration services. A
            // merged multi-block slot gets one range per block so the
            // stride gaps (other aggregators' bytes) are never read.
            let mut p0 = 0usize;
            for &cnt in piece_count.iter().take(n_it) {
                blk_cov.clear();
                for piece in &local_pieces[p0..p0 + cnt] {
                    let b = (piece.extent.offset - dom.start) / dom.stride;
                    let (plo, phi) = (piece.extent.offset, piece.extent.end());
                    match blk_cov.iter_mut().find(|(bb, _, _)| *bb == b) {
                        Some((_, lo, hi)) => {
                            *lo = (*lo).min(plo);
                            *hi = (*hi).max(phi);
                        }
                        None => blk_cov.push((b, plo, phi)),
                    }
                }
                blk_cov.sort_unstable();
                ranges.extend(blk_cov.iter().map(|&(_, lo, hi)| (lo, hi - lo)));
                range_base.push(ranges.len());
                p0 += cnt;
            }

            for (it, &c) in piece_count.iter().enumerate() {
                if c > 0 {
                    active_iters.push(it);
                }
            }
            active_base.push(active_iters.len());
        }
        piece_base.push(pieces.len());

        // Round order: round k of every aggregator, in aggregator order,
        // before round k + 1 of any.
        let rounds_of = |a: usize| active_base[a + 1] - active_base[a];
        let max_rounds = (0..naggs).map(rounds_of).max().unwrap_or(0);
        let mut rounds = Vec::with_capacity(active_iters.len());
        for k in 0..max_rounds {
            for a in 0..naggs {
                if k < rounds_of(a) {
                    rounds.push((a, active_iters[active_base[a] + k]));
                }
            }
        }

        // Source lists: every destination entry is one source of its rank.
        // Walking the slots in round order and scattering each entry into
        // its rank's CSR row lists every rank's sources in round order,
        // each with the destination entry its pieces live under.
        let mut src_base = vec![0usize; nprocs + 1];
        for &r in &dest_rank {
            src_base[r + 1] += 1;
        }
        for r in 0..nprocs {
            src_base[r + 1] += src_base[r];
        }
        let mut next_src = src_base[..nprocs].to_vec();
        let mut sources = vec![(0usize, 0usize); dest_rank.len()];
        let mut src_dest = vec![0usize; dest_rank.len()];
        for &(a, it) in &rounds {
            let slot = iter_base[a] + it;
            for d in dest_base[slot]..dest_base[slot + 1] {
                let k = &mut next_src[dest_rank[d]];
                sources[*k] = (a, it);
                src_dest[*k] = d;
                *k += 1;
            }
        }

        Self {
            plan,
            tables: ScheduleTables {
                iter_base,
                active_base,
                active_iters,
                dest_base,
                dest_rank,
                piece_base,
                rounds,
                src_base,
                sources,
                src_dest,
                range_base,
                pieces,
                ranges,
            },
        }
    }

    /// The plan this schedule was compiled from.
    pub fn plan(&self) -> &CollectivePlan {
        &self.plan
    }

    /// Whether two handles are one compiled schedule in memory — true for
    /// the ranks of one collective and for cache hits of one entry, false
    /// for independent compiles. Lets tests assert that sharing actually
    /// shared memory.
    pub fn shares_index_with(&self, other: &PlanSchedule) -> bool {
        std::ptr::eq(self, other)
    }

    /// The index in the aggregator list of rank `r`, if it aggregates.
    pub fn aggregator_index(&self, rank: usize) -> Option<usize> {
        self.plan.aggregator_index(rank)
    }

    /// The rank of aggregator `agg_idx`.
    pub fn aggregator_rank(&self, agg_idx: usize) -> usize {
        self.plan.aggregators[agg_idx]
    }

    /// The file range `[lo, hi)` of iteration `iter` of `agg_idx`.
    pub(crate) fn chunk(&self, agg_idx: usize, iter: usize) -> (u64, u64) {
        self.plan.domains[agg_idx].chunk(iter, self.plan.cb)
    }

    /// The iterations of `agg_idx` that contain requested bytes, ascending.
    pub fn active_iterations(&self, agg_idx: usize) -> &[usize] {
        let t = &self.tables;
        &t.active_iters[t.active_base[agg_idx]..t.active_base[agg_idx + 1]]
    }

    /// Whether aggregator `agg_idx` has any work at all.
    pub fn is_active(&self, agg_idx: usize) -> bool {
        !self.active_iterations(agg_idx).is_empty()
    }

    /// The `(offset, len)` extents the vectorized read of chunk
    /// `(agg_idx, iter)` services — the covering range of each covered
    /// block holding requested bytes, ascending and disjoint. Empty when
    /// the chunk holds no requested bytes. Handing the whole list to one
    /// `read_multi`/`write_multi` call lets the file system merge
    /// object-contiguous stripes across consecutive blocks into single
    /// seek-charged runs.
    pub fn read_ranges(&self, agg_idx: usize, iter: usize) -> &[(u64, u64)] {
        let t = &self.tables;
        let slot = t.iter_base[agg_idx] + iter;
        &t.ranges[t.range_base[slot]..t.range_base[slot + 1]]
    }

    /// Calls `f` with the in-domain sub-ranges of iteration `iter` of
    /// `agg_idx`, one per covered block, ascending.
    pub fn chunk_blocks(&self, agg_idx: usize, iter: usize, f: impl FnMut(u64, u64)) {
        self.plan.chunk_blocks(agg_idx, iter, f)
    }

    /// The ranks receiving bytes from chunk `(agg_idx, iter)`, ascending.
    pub fn destinations(&self, agg_idx: usize, iter: usize) -> &[usize] {
        let t = &self.tables;
        let slot = t.iter_base[agg_idx] + iter;
        &t.dest_rank[t.dest_base[slot]..t.dest_base[slot + 1]]
    }

    /// Every destination of chunk `(agg_idx, iter)` with its piece slice,
    /// in ascending rank order — the aggregator hot loop, with no lookup
    /// at all.
    pub(crate) fn dests_with_pieces(
        &self,
        agg_idx: usize,
        iter: usize,
    ) -> impl Iterator<Item = (usize, &[Piece])> {
        let t = &self.tables;
        let slot = t.iter_base[agg_idx] + iter;
        (t.dest_base[slot]..t.dest_base[slot + 1]).map(move |d| {
            (
                t.dest_rank[d],
                &t.pieces[t.piece_base[d]..t.piece_base[d + 1]],
            )
        })
    }

    /// [`Self::dests_with_pieces`] restricted to destination ranks in
    /// `[lo, hi)` — the hierarchical engines' per-node view of a slot.
    /// Destination ranks ascend within a slot, so the restriction is a
    /// binary-searched sub-slice, not a filter: node leaders pre-size
    /// coalescing frames and enumerate their members' sections without
    /// touching the destinations outside their node.
    pub(crate) fn dests_with_pieces_in(
        &self,
        agg_idx: usize,
        iter: usize,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = (usize, &[Piece])> {
        let t = &self.tables;
        let slot = t.iter_base[agg_idx] + iter;
        let (d0, d1) = (t.dest_base[slot], t.dest_base[slot + 1]);
        let dests = &t.dest_rank[d0..d1];
        let start = d0 + dests.partition_point(|&r| r < lo);
        let end = d0 + dests.partition_point(|&r| r < hi);
        (start..end).map(move |d| {
            (
                t.dest_rank[d],
                &t.pieces[t.piece_base[d]..t.piece_base[d + 1]],
            )
        })
    }

    /// The bytes chunk `(agg_idx, iter)` holds for the ranks in `[lo, hi)`
    /// — for a node's range, the size of the node's coalesced frame.
    pub(crate) fn bytes_in(&self, agg_idx: usize, iter: usize, lo: usize, hi: usize) -> usize {
        self.dests_with_pieces_in(agg_idx, iter, lo, hi)
            .map(|(_, p)| piece_bytes(p))
            .sum()
    }

    /// Every active chunk `(agg_idx, iter)` in ROMIO's round order: each
    /// aggregator's `k`-th active iteration, in aggregator order, before
    /// any aggregator's `k + 1`-th. Restricted to one aggregator the list
    /// ascends in iteration order, so a relay loop walking it pairs FIFO
    /// with that aggregator's own ascending stream.
    pub(crate) fn rounds(&self) -> &[(usize, usize)] {
        &self.tables.rounds
    }

    /// All `(agg_idx, iter)` chunks holding bytes for `rank`, in round
    /// order (the order of `Self::rounds`).
    pub fn sources_for(&self, rank: usize) -> &[(usize, usize)] {
        let t = &self.tables;
        &t.sources[t.src_base[rank]..t.src_base[rank + 1]]
    }

    /// [`Self::sources_for`] with each source's piece slice attached — the
    /// receiver hot loop. Reads the destination index recorded at compile
    /// time instead of searching each source's destination list.
    pub(crate) fn sources_with_pieces(
        &self,
        rank: usize,
    ) -> impl Iterator<Item = (usize, usize, &[Piece])> {
        let t = &self.tables;
        (t.src_base[rank]..t.src_base[rank + 1]).map(move |k| {
            let (a, it) = t.sources[k];
            let d = t.src_dest[k];
            (a, it, &t.pieces[t.piece_base[d]..t.piece_base[d + 1]])
        })
    }
}

/// How a [`SharedPlanCache`] lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheOutcome {
    /// Requests were bitwise identical to a cached step: schedule shared.
    Hit,
    /// No reusable entry: compiled from scratch.
    Miss,
}

/// Counters of one cache's lifetime, one lookup per collective (or, when
/// read from a [`PlanScope`], of one world's share of that lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Exact reuses (identical requests).
    pub hits: u64,
    /// Offset-translation reuses. Always 0: a shifted step recompiles,
    /// which costs about 1 % of host time on the workloads that shift
    /// (EXPERIMENTS.md); kept so reports keep their column.
    pub translations: u64,
    /// Full compiles.
    pub misses: u64,
    /// Exact reuses of an entry *another job* compiled — the subset of
    /// `hits` a job could never have gotten from a private cache.
    pub cross_job_hits: u64,
    /// Tasks whose I/O was served through a fused (batched) schedule —
    /// the numerator of the batch-amortization ratio. Bumped by the
    /// task-fusion layer, once per task folded into a shared sweep.
    pub fused_tasks: u64,
}

impl PlanCacheStats {
    /// Total lookups (hits + translations + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.translations + self.misses
    }

    /// Fraction of lookups satisfied without a fresh compile (0.0 when no
    /// lookups have happened).
    pub fn reuse_rate(&self) -> f64 {
        self.share_of_lookups(self.hits + self.translations)
    }

    /// Fraction of lookups satisfied by *another job's* entry (0.0 when no
    /// lookups have happened) — the benefit attributable purely to sharing
    /// the cache across jobs.
    pub fn cross_job_rate(&self) -> f64 {
        self.share_of_lookups(self.cross_job_hits)
    }

    fn share_of_lookups(&self, n: u64) -> f64 {
        match self.lookups() {
            0 => 0.0,
            lookups => n as f64 / lookups as f64,
        }
    }

    /// Tasks served per compiled schedule: how far each full compile was
    /// amortized by request fusion (0.0 before any task was fused). A
    /// batch of 10k tasks that needed one compile reports 10000.0.
    pub fn amortization(&self) -> f64 {
        if self.fused_tasks == 0 {
            0.0
        } else {
            self.fused_tasks as f64 / self.misses.max(1) as f64
        }
    }

    /// Element-wise sum, for folding per-job stats.
    pub fn merge(&self, other: &PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits + other.hits,
            translations: self.translations + other.translations,
            misses: self.misses + other.misses,
            cross_job_hits: self.cross_job_hits + other.cross_job_hits,
            fused_tasks: self.fused_tasks + other.fused_tasks,
        }
    }

    /// Counts one lookup satisfied as `outcome`; `cross` marks a reuse of
    /// another job's entry.
    fn count(&mut self, outcome: CacheOutcome, cross: bool) {
        match outcome {
            CacheOutcome::Hit => {
                self.hits += 1;
                self.cross_job_hits += u64::from(cross);
            }
            CacheOutcome::Miss => self.misses += 1,
        }
    }
}

/// The key a compiled schedule is filed under: a fingerprint of every
/// rank's extents plus everything else the plan depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    requests_hash: u64,
    nprocs: usize,
    topology: Topology,
    hints: Hints,
}

struct CacheEntry {
    /// The job that paid for the compile (0 for untagged lookups); a later
    /// lookup from a different job counts as a cross-job reuse.
    origin: u64,
    schedule: Arc<PlanSchedule>,
}

/// The entries and counters behind a [`SharedPlanCache`].
#[derive(Default)]
struct PlanCache {
    entries: HashMap<CacheKey, CacheEntry>,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// See [`SharedPlanCache::get_or_compile`].
    fn get_or_compile(
        &mut self,
        requests: Arc<Vec<OffsetList>>,
        topology: &Topology,
        nprocs: usize,
        hints: &Hints,
        job: u64,
    ) -> (Arc<PlanSchedule>, CacheOutcome, bool) {
        let key = CacheKey {
            requests_hash: fingerprint(&requests),
            nprocs,
            topology: topology.clone(),
            hints: hints.clone(),
        };
        let hit = self
            .entries
            .get(&key)
            .filter(|e| e.schedule.plan.requests == requests);
        let (schedule, outcome, cross) = match hit {
            Some(entry) => (
                Arc::clone(&entry.schedule),
                CacheOutcome::Hit,
                entry.origin != job,
            ),
            None => {
                let schedule = Arc::new(compile(requests, topology, nprocs, hints));
                let entry = CacheEntry {
                    origin: job,
                    schedule: Arc::clone(&schedule),
                };
                self.entries.insert(key, entry);
                (schedule, CacheOutcome::Miss, false)
            }
        };
        // Counted once the lookup has succeeded: a compile that panics
        // leaves entries and counters as they were.
        self.stats.count(outcome, cross);
        (schedule, outcome, cross)
    }
}

/// A thread-safe cache of compiled schedules, shared by every collective
/// that holds it: the steps of one world's sweep, the bins of a fused task
/// batch, or the jobs of the multi-job service.
///
/// Keys combine a fingerprint of the requests with the hints, rank count,
/// and topology (anything that changes the partition or chunking) — but
/// not file identity, so two jobs sweeping different files with the same
/// striping hit exactly. A lookup hits only when its requests equal the
/// entry's extent for extent, so a fingerprint collision degrades to a
/// recompile, never to a wrong schedule. Every request set that missed
/// keeps its entry for the cache's lifetime: one fused batch, one service
/// run, or one world's sweep.
///
/// Lookups are tagged with a job id; reuses of another job's entry are
/// counted separately (see [`PlanCacheStats::cross_job_hits`]). A panic
/// under the lock (a compile rejecting its inputs) leaves the cache usable.
#[derive(Default)]
pub struct SharedPlanCache {
    inner: Mutex<PlanCache>,
}

impl SharedPlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries, whether or not an earlier holder panicked under the
    /// lock: entries and counters only change after a lookup succeeds.
    fn lock(&self) -> MutexGuard<'_, PlanCache> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the compiled schedule for `requests`, shared with the cache
    /// when an identical request set was compiled before, and how the
    /// lookup was satisfied. Compiles under the lock on a miss, so
    /// concurrent lookups of one request set compile it once.
    ///
    /// The lookup is made on behalf of job `job` (0 when untagged): a reuse
    /// of an entry compiled by a *different* job additionally bumps the
    /// cross-job counter, and the third return is true exactly for such
    /// cross-job reuses.
    pub(crate) fn get_or_compile(
        &self,
        requests: impl Into<Arc<Vec<OffsetList>>>,
        topology: &Topology,
        nprocs: usize,
        hints: &Hints,
        job: u64,
    ) -> (Arc<PlanSchedule>, CacheOutcome, bool) {
        self.lock()
            .get_or_compile(requests.into(), topology, nprocs, hints, job)
    }

    /// Lifetime counters over all jobs.
    pub fn stats(&self) -> PlanCacheStats {
        self.lock().stats
    }

    /// Credits `tasks` fused tasks to the shared amortization counter.
    pub fn note_fused_tasks(&self, tasks: u64) {
        self.lock().stats.fused_tasks += tasks;
    }
}

/// A world's plan cache: attached with [`World::attach`](cc_mpi::World::attach),
/// it makes every collective of every run of that world resolve its
/// schedule through `cache`, tagged with `job` (see
/// [`PlanSchedule::resolve`]).
pub struct PlanScope {
    cache: Arc<SharedPlanCache>,
    job: u64,
    /// What this scope's world observed, one lookup per collective: its
    /// own hits and misses, with the cross-job subset filled in.
    seen: Mutex<PlanCacheStats>,
}

impl PlanScope {
    /// A scope drawing on `cache` for job `job`, with zeroed counters.
    pub fn new(cache: Arc<SharedPlanCache>, job: u64) -> Self {
        Self {
            cache,
            job,
            seen: Mutex::default(),
        }
    }

    /// The lookups this scope's world made, one per collective.
    pub fn stats(&self) -> PlanCacheStats {
        *self.seen.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Builds and compiles the plan of `requests`.
fn compile(
    requests: Arc<Vec<OffsetList>>,
    topology: &Topology,
    nprocs: usize,
    hints: &Hints,
) -> PlanSchedule {
    PlanSchedule::compile(CollectivePlan::build(requests, topology, nprocs, hints))
}

impl PlanSchedule {
    /// Returns the compiled schedule for `requests` — every rank's, as
    /// [`exchange_requests`] returns
    /// them — planned for `comm`'s world. A collective: every rank of the
    /// world calls it with equal `requests` and `hints`.
    ///
    /// A world with a [`PlanScope`] attached caches every collective's
    /// schedule in it, and a world without one compiles fresh. Either way
    /// the schedule is a pure function of inputs all ranks share and
    /// resolving it is charged to no clock, so one rank compiles or makes
    /// the cache lookup inside [`Comm::memo`], and every rank takes the
    /// same schedule. That rank also counts the lookup in the scope's
    /// [`stats`](PlanScope::stats), so a collective counts once.
    pub fn resolve(
        comm: &mut Comm,
        requests: impl Into<Arc<Vec<OffsetList>>>,
        hints: &Hints,
    ) -> Arc<PlanSchedule> {
        let requests = requests.into();
        let topology = comm.model().topology.clone();
        let nprocs = comm.nprocs();
        match comm.attached::<PlanScope>() {
            None => comm.memo(|| compile(requests, &topology, nprocs, hints)),
            Some(scope) => {
                let PlanScope { cache, job, seen } = &*scope;
                let found = comm.memo(|| {
                    let (schedule, outcome, cross) =
                        cache.get_or_compile(requests, &topology, nprocs, hints, *job);
                    let mut seen = seen.lock().unwrap_or_else(PoisonError::into_inner);
                    seen.count(outcome, cross);
                    schedule
                });
                Arc::clone(&found)
            }
        }
    }
}

/// The prologue of every collective engine, called by every rank with
/// equal `hints`. Injects `file`'s striping into `hints` (ROMIO's
/// striping_unit/striping_factor: one shared handle, so symmetric), so
/// stripe-aware partitions and the plan-cache key see it; exchanges
/// `request`; resolves the schedule ([`PlanSchedule::resolve`]); and
/// stamps `tag_base` with the sequence number, symmetric because every
/// rank passed the exchange. Returns the planned hints, schedule and tag.
pub fn prologue(
    comm: &mut Comm,
    file: &FileHandle,
    request: &OffsetList,
    mut hints: Hints,
    tag_base: TagValue,
) -> (Hints, Arc<PlanSchedule>, TagValue) {
    hints.striping = Some(Striping::from(file.layout()));
    let requests = exchange_requests(comm, request);
    let schedule = PlanSchedule::resolve(comm, requests, &hints);
    let tag = comm.next_engine_tag(tag_base);
    (hints, schedule, tag)
}

/// Hashes every rank's extents; equal request sets fingerprint equally.
fn fingerprint(requests: &[OffsetList]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    requests.len().hash(&mut h);
    for r in requests {
        0xD1Du64.hash(&mut h); // rank separator
        for e in r.extents() {
            e.offset.hash(&mut h);
            e.len.hash(&mut h);
        }
    }
    h.finish()
}

/// Per-slot lookups only the oracle comparisons ask for; the engines walk
/// [`PlanSchedule::dests_with_pieces`] and
/// [`PlanSchedule::sources_with_pieces`] instead.
#[cfg(test)]
impl PlanSchedule {
    /// The covering extent read in chunk `(agg_idx, iter)`, `None` if the
    /// chunk holds no requested bytes.
    pub fn read_range(&self, agg_idx: usize, iter: usize) -> Option<(u64, u64)> {
        let ranges = self.read_ranges(agg_idx, iter);
        let &(lo, _) = ranges.first()?;
        let &(last_lo, last_len) = ranges.last()?;
        Some((lo, last_lo + last_len))
    }

    /// The pieces of chunk `(agg_idx, iter)` destined for `rank`, in file
    /// order. Empty if the rank takes nothing from the chunk.
    pub fn pieces_for(&self, agg_idx: usize, iter: usize, rank: usize) -> &[Piece] {
        let t = &self.tables;
        let slot = t.iter_base[agg_idx] + iter;
        let dests = &t.dest_rank[t.dest_base[slot]..t.dest_base[slot + 1]];
        match dests.binary_search(&rank) {
            Ok(i) => {
                let d = t.dest_base[slot] + i;
                &t.pieces[t.piece_base[d]..t.piece_base[d + 1]]
            }
            Err(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use crate::hints::{DomainPartition, Striping};

    impl PlanSchedule {
        /// Number of collective-buffer iterations of aggregator `agg_idx`.
        pub(crate) fn n_iterations(&self, agg_idx: usize) -> usize {
            self.tables.iter_base[agg_idx + 1] - self.tables.iter_base[agg_idx]
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

    fn partition_from(idx: usize) -> DomainPartition {
        [
            DomainPartition::Even,
            DomainPartition::StripeAligned,
            DomainPartition::GroupCyclic,
        ][idx]
    }

    fn group_cyclic_hints(cb: u64, unit: u64, factor: usize) -> Hints {
        Hints {
            domain_partition: DomainPartition::GroupCyclic,
            striping: Some(Striping { unit, factor }),
            ..hints(cb)
        }
    }

    /// Compares every answer of `sched` against the query-based oracle.
    fn assert_matches_oracle(plan: &CollectivePlan, sched: &PlanSchedule) {
        let naggs = plan.aggregators.len();
        for a in 0..naggs {
            assert_eq!(
                sched.n_iterations(a),
                plan.n_iterations(a),
                "n_iterations({a})"
            );
            assert_eq!(
                sched.active_iterations(a),
                plan.active_iterations(a).as_slice(),
                "active_iterations({a})"
            );
            for it in 0..plan.n_iterations(a) {
                assert_eq!(
                    sched.read_range(a, it),
                    plan.read_range(a, it),
                    "read_range({a},{it})"
                );
                assert_eq!(
                    sched.read_ranges(a, it),
                    plan.read_ranges(a, it).as_slice(),
                    "read_ranges({a},{it})"
                );
                assert_eq!(
                    sched.destinations(a, it),
                    plan.destinations(a, it).as_slice(),
                    "destinations({a},{it})"
                );
                for rank in 0..plan.requests.len() {
                    assert_eq!(
                        sched.pieces_for(a, it, rank),
                        plan.pieces_for(a, it, rank).as_slice(),
                        "pieces_for({a},{it},{rank})"
                    );
                }
                let from_iter: Vec<(usize, &[Piece])> = sched.dests_with_pieces(a, it).collect();
                let dests = sched.destinations(a, it);
                assert_eq!(from_iter.len(), dests.len());
                for ((r, ps), &d) in from_iter.iter().zip(dests) {
                    assert_eq!(*r, d);
                    assert_eq!(*ps, sched.pieces_for(a, it, d));
                }
                // Every [lo, hi) window of the rank space must slice the
                // full destination list exactly.
                let nprocs = plan.requests.len();
                for lo in 0..=nprocs {
                    for hi in lo..=nprocs {
                        let windowed: Vec<(usize, &[Piece])> =
                            sched.dests_with_pieces_in(a, it, lo, hi).collect();
                        let expected: Vec<(usize, &[Piece])> = from_iter
                            .iter()
                            .filter(|(r, _)| (lo..hi).contains(r))
                            .cloned()
                            .collect();
                        assert_eq!(
                            windowed, expected,
                            "dests_with_pieces_in({a},{it},{lo},{hi})"
                        );
                    }
                }
            }
        }
        // Round order, re-derived from the oracle's active iterations:
        // every (a, it) slot, sorted by (position among a's, a).
        let mut rounds: Vec<(usize, usize, usize)> = (0..naggs)
            .flat_map(|a| {
                let active = plan.active_iterations(a);
                active
                    .into_iter()
                    .enumerate()
                    .map(move |(k, it)| (k, a, it))
            })
            .collect();
        rounds.sort_unstable();
        let rounds: Vec<(usize, usize)> = rounds.into_iter().map(|(_, a, it)| (a, it)).collect();
        assert_eq!(sched.rounds(), rounds.as_slice(), "rounds");
        for rank in 0..plan.requests.len() {
            assert_eq!(
                sched.sources_for(rank),
                plan.sources_for(rank).as_slice(),
                "sources_for({rank})"
            );
            let with_pieces: Vec<(usize, usize, &[Piece])> =
                sched.sources_with_pieces(rank).collect();
            assert_eq!(with_pieces.len(), sched.sources_for(rank).len());
            for ((a, it, ps), &(oa, oit)) in with_pieces.iter().zip(sched.sources_for(rank)) {
                assert_eq!((*a, *it), (oa, oit));
                assert_eq!(
                    *ps,
                    plan.pieces_for(*a, *it, rank).as_slice(),
                    "sources_with_pieces({rank}) at ({a},{it})"
                );
            }
        }
    }

    fn interleaved(nprocs: usize, pieces: u64, len: u64) -> Vec<OffsetList> {
        (0..nprocs as u64)
            .map(|r| {
                OffsetList::new(
                    (0..pieces)
                        .map(|k| Extent {
                            offset: r * len + k * len * nprocs as u64,
                            len,
                        })
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn compiled_matches_oracle_on_interleaved_pattern() {
        let topo = Topology::new(2, 2);
        let reqs = interleaved(4, 20, 10);
        let plan = CollectivePlan::build(reqs, &topo, 4, &hints(64));
        let sched = PlanSchedule::compile(plan.clone());
        assert_matches_oracle(&plan, &sched);
    }

    #[test]
    fn compiled_matches_oracle_with_empty_ranks_and_holes() {
        let topo = Topology::new(1, 4);
        let reqs = vec![
            OffsetList::empty(),
            OffsetList::new(vec![
                Extent { offset: 10, len: 5 },
                Extent {
                    offset: 900,
                    len: 30,
                },
            ]),
            OffsetList::empty(),
            OffsetList::new(vec![Extent {
                offset: 500,
                len: 1,
            }]),
        ];
        let plan = CollectivePlan::build(reqs, &topo, 4, &hints(100));
        let sched = PlanSchedule::compile(plan.clone());
        assert_matches_oracle(&plan, &sched);
    }

    #[test]
    fn compiled_matches_oracle_on_empty_request_set() {
        let topo = Topology::new(1, 2);
        let plan = CollectivePlan::build(
            vec![OffsetList::empty(), OffsetList::empty()],
            &topo,
            2,
            &hints(64),
        );
        let sched = PlanSchedule::compile(plan.clone());
        assert_matches_oracle(&plan, &sched);
        assert!(sched.sources_for(0).is_empty());
    }

    #[test]
    fn compiled_matches_oracle_group_cyclic() {
        let topo = Topology::new(2, 2);
        let reqs = interleaved(4, 20, 10);
        let plan = CollectivePlan::build(reqs, &topo, 4, &group_cyclic_hints(16, 16, 4));
        assert!(plan.domains.iter().any(|d| !d.is_contiguous()));
        let sched = PlanSchedule::compile(plan.clone());
        assert_matches_oracle(&plan, &sched);
    }

    #[test]
    fn compiled_matches_oracle_group_cyclic_sparse() {
        let topo = Topology::new(1, 4);
        let reqs = vec![
            OffsetList::empty(),
            OffsetList::new(vec![
                Extent { offset: 13, len: 5 },
                Extent {
                    offset: 900,
                    len: 130,
                },
            ]),
            OffsetList::empty(),
            OffsetList::new(vec![Extent {
                offset: 500,
                len: 1,
            }]),
        ];
        let plan = CollectivePlan::build(reqs, &topo, 4, &group_cyclic_hints(32, 64, 3));
        let sched = PlanSchedule::compile(plan.clone());
        assert_matches_oracle(&plan, &sched);
    }

    #[test]
    fn cache_hits_on_identical_requests() {
        let topo = Topology::new(1, 2);
        let reqs = interleaved(2, 8, 16);
        let cache = SharedPlanCache::new();
        let (s1, o1, _) = cache.get_or_compile(reqs.clone(), &topo, 2, &hints(64), 0);
        let (s2, o2, _) = cache.get_or_compile(reqs, &topo, 2, &hints(64), 0);
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(
            Arc::ptr_eq(&s1, &s2),
            "a hit must share the compiled schedule"
        );
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                translations: 0,
                misses: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn shared_cache_counts_cross_job_reuse() {
        let topo = Topology::new(1, 2);
        let reqs = interleaved(2, 8, 16);
        let shared = SharedPlanCache::new();
        // Job 1 compiles; its own re-lookup is a plain (same-job) hit.
        let (s1, o1, c1) = shared.get_or_compile(reqs.clone(), &topo, 2, &hints(64), 1);
        let (_, o2, c2) = shared.get_or_compile(reqs.clone(), &topo, 2, &hints(64), 1);
        assert_eq!((o1, c1), (CacheOutcome::Miss, false));
        assert_eq!((o2, c2), (CacheOutcome::Hit, false));
        // Job 2 issuing the same shape reuses job 1's entry: a cross-job hit.
        let (s3, o3, c3) = shared.get_or_compile(reqs.clone(), &topo, 2, &hints(64), 2);
        assert_eq!((o3, c3), (CacheOutcome::Hit, true));
        assert!(
            s1.shares_index_with(&s3),
            "cross-job hit must share one index"
        );
        // Job 3 issuing a shift of the shape compiles its own schedule.
        let (s4, o4, c4) = shared.get_or_compile(shift_by(&reqs, 4096), &topo, 2, &hints(64), 3);
        assert_eq!((o4, c4), (CacheOutcome::Miss, false));
        assert!(
            !s1.shares_index_with(&s4),
            "a shifted request set is its own entry"
        );
        let stats = shared.stats();
        assert_eq!(
            stats,
            PlanCacheStats {
                hits: 2,
                translations: 0,
                misses: 2,
                cross_job_hits: 1,
                fused_tasks: 0,
            }
        );
        assert!((stats.reuse_rate() - 0.5).abs() < 1e-12);
        assert!((stats.cross_job_rate() - 0.25).abs() < 1e-12);
    }

    /// A world of `n` test ranks, scoped to `scope` when one is given.
    fn world(n: usize, scope: Option<&Arc<PlanScope>>) -> cc_mpi::World {
        let world = cc_mpi::World::new(n, cc_model::ClusterModel::test_tiny(n));
        match scope {
            Some(scope) => world.attach(Arc::clone(scope)),
            None => world,
        }
    }

    /// A scope on `cache` for job `job`.
    fn scope(cache: &Arc<SharedPlanCache>, job: u64) -> Arc<PlanScope> {
        Arc::new(PlanScope::new(Arc::clone(cache), job))
    }

    #[test]
    fn plan_source_tracks_per_holder_stats() {
        let n = 4;
        let reqs = Arc::new(interleaved(n, 8, 16));
        let shared = Arc::new(SharedPlanCache::new());
        let (job_a, job_b) = (scope(&shared, 7), scope(&shared, 8));
        let resolve = |w: cc_mpi::World| {
            w.run(|comm| PlanSchedule::resolve(comm, Arc::clone(&reqs), &hints(64)))
        };
        let sa = resolve(world(n, Some(&job_a)));
        let sb = resolve(world(n, Some(&job_b)));
        // An unscoped world caches nothing and counts nothing.
        let sf = resolve(world(n, None));
        for rank in 0..n {
            assert!(sa[rank].shares_index_with(&sb[rank]));
            assert!(
                !sf[rank].shares_index_with(&sa[rank]),
                "fresh compile shares nothing"
            );
        }
        // Each world counted its one lookup: job a compiled, job b rode.
        let (a, b) = (job_a.stats(), job_b.stats());
        assert_eq!((a.misses, a.hits, a.cross_job_hits), (1, 0, 0));
        assert_eq!((b.misses, b.hits, b.cross_job_hits), (0, 1, 1));
        // The cache counted collectives, so the scopes partition its total.
        assert_eq!(shared.stats(), a.merge(&b));
    }

    /// A lookup that panics under the cache's lock — here a compile
    /// rejecting bad hints — aborts its world but leaves the cache
    /// serving the next world, with the failed lookup uncounted.
    #[test]
    fn a_cache_outlives_a_world_that_panicked_under_its_lock() {
        let n = 2;
        let reqs = Arc::new(interleaved(n, 8, 16));
        let shared = Arc::new(SharedPlanCache::new());
        let scope = scope(&shared, 1);
        let run = |h: Hints| {
            world(n, Some(&scope)).run(|comm| PlanSchedule::resolve(comm, Arc::clone(&reqs), &h))
        };
        let bad = Hints {
            aggregators_per_node: 0,
            ..hints(64)
        };
        let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(bad)));
        assert!(aborted.is_err(), "bad hints must abort the world");
        assert!(
            shared.inner.is_poisoned(),
            "the panic happened under the lock"
        );
        let schedules = run(hints(64));
        assert!(schedules[1].shares_index_with(&schedules[0]));
        assert_eq!((shared.stats().misses, shared.stats().lookups()), (1, 1));
        assert_eq!(scope.stats(), shared.stats());
    }

    #[test]
    fn fused_task_credits_partition_and_amortize() {
        let reqs = interleaved(1, 8, 16);
        let shared = Arc::new(SharedPlanCache::new());
        for (job, tasks) in [(1, 600), (2, 400)] {
            world(1, Some(&scope(&shared, job))).run(|comm| {
                let _ = PlanSchedule::resolve(comm, reqs.clone(), &hints(64));
                shared.note_fused_tasks(tasks);
            });
        }
        assert_eq!(shared.stats().fused_tasks, 1000);
        // One compile served every task: amortization is tasks/compile.
        assert!((shared.stats().amortization() - 1000.0).abs() < 1e-12);
        // Fresh sources amortize nothing.
        assert_eq!(PlanCacheStats::default().amortization(), 0.0);
    }

    #[test]
    fn shared_cache_concurrent_lookups_converge() {
        // Eight three-rank jobs race the same shape into the shared cache
        // from their own threads: each collective looks up once, the
        // compile happens under the lock so exactly one lookup misses, and
        // all returned schedules share the one compiled index.
        let n = 3;
        let reqs = Arc::new(interleaved(n, 8, 16));
        let shared = Arc::new(SharedPlanCache::new());
        let results: Vec<_> = std::thread::scope(|threads| {
            let handles: Vec<_> = (0..8u64)
                .map(|job| {
                    let (shared, reqs) = (&shared, &reqs);
                    threads.spawn(move || {
                        let scope = scope(shared, job);
                        let schedules = world(n, Some(&scope))
                            .run(|comm| PlanSchedule::resolve(comm, Arc::clone(reqs), &hints(64)));
                        (schedules, scope.stats())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let first = &results[0].0[0];
        assert!(results
            .iter()
            .flat_map(|(s, _)| s)
            .all(|s| s.shares_index_with(first)));
        // Each job's scope speaks for the job.
        let folded = results
            .iter()
            .fold(PlanCacheStats::default(), |acc, job| acc.merge(&job.1));
        assert_eq!(folded, shared.stats());
        assert_eq!((folded.lookups(), folded.misses), (8, 1));
        assert_eq!((folded.hits, folded.cross_job_hits), (7, 7));
    }

    /// One resolution per collective, however many ranks ask: a fresh
    /// compile and a cache lookup each hand every rank the resolving
    /// rank's tables, back-to-back collectives keep their own, and the
    /// world's scope counts collectives, not ranks.
    #[test]
    fn a_collective_compiles_once_and_the_ranks_share_the_tables() {
        let n = 6;
        let reqs = Arc::new(interleaved(n, 8, 16));
        let other = Arc::new(interleaved(n, 5, 32));
        let fresh = world(n, None).run(|comm| {
            let a = PlanSchedule::resolve(comm, Arc::clone(&reqs), &hints(64));
            let b = PlanSchedule::resolve(comm, Arc::clone(&other), &hints(64));
            (a, b)
        });
        let cache = Arc::new(SharedPlanCache::new());
        let scope = scope(&cache, 0);
        let cached = world(n, Some(&scope)).run(|comm| {
            let miss = PlanSchedule::resolve(comm, Arc::clone(&reqs), &hints(64));
            let hit = PlanSchedule::resolve(comm, Arc::clone(&reqs), &hints(64));
            assert!(hit.shares_index_with(&miss));
            miss
        });
        let oracle = compile(Arc::clone(&reqs), &Topology::new(1, n), n, &hints(64));
        let ((a0, b0), m0) = (&fresh[0], &cached[0]);
        assert!(
            !a0.shares_index_with(b0),
            "collectives must not share entries"
        );
        assert!(
            !a0.shares_index_with(m0),
            "each collective compiles for itself"
        );
        for (rank, ((a, b), miss)) in fresh.iter().zip(&cached).enumerate() {
            assert!(
                a.shares_index_with(a0),
                "rank {rank} compiled its own fresh plan"
            );
            assert!(b.shares_index_with(b0));
            assert!(
                miss.shares_index_with(m0),
                "rank {rank} compiled its own cache miss"
            );
            assert_eq!(a.tables, oracle.tables);
            assert_eq!(miss.tables, oracle.tables);
        }
        let seen = scope.stats();
        assert_eq!((seen.misses, seen.hits, seen.translations), (1, 1, 0));
        assert_eq!(cache.stats(), seen, "the world's cache counts collectives");
    }

    #[test]
    fn cache_refuses_unaligned_translation() {
        // With domain alignment, a shift that is not an alignment multiple
        // changes the partition — the cache must recompile.
        let topo = Topology::new(1, 2);
        let h = Hints {
            align_domains_to: Some(64),
            ..hints(64)
        };
        let base = interleaved(2, 6, 16);
        let shifted = shift_by(&base, 33); // not a multiple of 64
        let cache = SharedPlanCache::new();
        let (_, o1, _) = cache.get_or_compile(base, &topo, 2, &h, 0);
        let (sched, o2, _) = cache.get_or_compile(shifted.clone(), &topo, 2, &h, 0);
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Miss);
        let fresh_plan = CollectivePlan::build(shifted, &topo, 2, &h);
        assert_matches_oracle(&fresh_plan, &sched);
    }

    #[test]
    fn cache_distinguishes_hints() {
        let topo = Topology::new(1, 2);
        let reqs = interleaved(2, 4, 8);
        let cache = SharedPlanCache::new();
        let _ = cache.get_or_compile(reqs.clone(), &topo, 2, &hints(64), 0);
        let (_, o, _) = cache.get_or_compile(reqs, &topo, 2, &hints(128), 0);
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn cache_distinguishes_partition_strategies() {
        // Same requests under a different domain strategy must miss: the
        // strategy (and striping) are part of the hints, hence the key.
        let topo = Topology::new(1, 2);
        let reqs = interleaved(2, 4, 8);
        let cache = SharedPlanCache::new();
        let _ = cache.get_or_compile(reqs.clone(), &topo, 2, &hints(64), 0);
        let (_, o, _) =
            cache.get_or_compile(reqs.clone(), &topo, 2, &group_cyclic_hints(64, 16, 2), 0);
        assert_eq!(o, CacheOutcome::Miss);
        let (_, o, _) = cache.get_or_compile(reqs, &topo, 2, &group_cyclic_hints(64, 16, 2), 0);
        assert_eq!(o, CacheOutcome::Hit);
    }

    fn shift_by(reqs: &[OffsetList], delta: u64) -> Vec<OffsetList> {
        reqs.iter()
            .map(|r| {
                OffsetList::new(
                    r.extents()
                        .iter()
                        .map(|e| Extent {
                            offset: e.offset + delta,
                            len: e.len,
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Shifts `reqs` by `delta` against a warmed cache and checks that the
    /// lookup recompiled, exactly as a fresh compile would.
    fn check_shift(h: &Hints, delta: u64) {
        let topo = Topology::new(1, 4);
        let base = interleaved(4, 10, 8);
        let cache = SharedPlanCache::new();
        let (_, o1, _) = cache.get_or_compile(base.clone(), &topo, 4, h, 0);
        assert_eq!(o1, CacheOutcome::Miss);
        let shifted = shift_by(&base, delta);
        let (sched, o2, _) = cache.get_or_compile(shifted.clone(), &topo, 4, h, 0);
        assert_eq!(
            o2,
            CacheOutcome::Miss,
            "shift {delta} under {:?}",
            h.effective_partition()
        );
        let fresh_plan = CollectivePlan::build(shifted, &topo, 4, h);
        let fresh = PlanSchedule::compile(fresh_plan.clone());
        assert_eq!(sched.plan.domains, fresh.plan.domains);
        assert_eq!(sched.tables, fresh.tables);
        assert_matches_oracle(&fresh_plan, &sched);
    }

    #[test]
    fn cache_misses_on_non_period_shifts_for_every_strategy() {
        // Regression: no shift may reuse a cached schedule — a shift that
        // is not a multiple of the partition's period would move domain
        // boundaries off their stripe/alignment grid, and the cache keeps
        // no translation path for the shifts that are. One partition
        // strategy per block, at shifts off and on its period.
        let aligned_even = Hints {
            align_domains_to: Some(64),
            ..hints(48)
        };
        check_shift(&aligned_even, 33);
        check_shift(&aligned_even, 128);

        let stripe_aligned = Hints {
            domain_partition: DomainPartition::StripeAligned,
            striping: Some(Striping {
                unit: 10,
                factor: 4,
            }),
            align_domains_to: Some(4),
            ..hints(48)
        };
        // Period lcm(4, 10) = 20.
        check_shift(&stripe_aligned, 10);
        check_shift(&stripe_aligned, 4);
        check_shift(&stripe_aligned, 20);

        let cyclic = Hints {
            align_domains_to: Some(4),
            ..group_cyclic_hints(48, 8, 3) // genuine group-cyclic, period lcm(4, 24) = 24
        };
        check_shift(&cyclic, 12);
        check_shift(&cyclic, 24);
    }

    prop_compose! {
        /// Random per-rank requests: some ranks empty, sparse holes.
        fn arb_requests(max_ranks: usize)(
            per_rank in proptest::collection::vec(
                proptest::collection::vec((0u64..200, 0u64..40), 0..10),
                1..max_ranks + 1,
            ),
        ) -> Vec<OffsetList> {
            per_rank
                .into_iter()
                .map(|pairs| {
                    let mut pos = 0u64;
                    let mut extents = Vec::new();
                    for (gap, len) in pairs {
                        pos += gap + 1;
                        extents.push(Extent { offset: pos, len });
                        pos += len;
                    }
                    OffsetList::new(extents)
                })
                .collect()
        }
    }

    proptest! {
        #[test]
        fn prop_schedule_equals_oracle(
            reqs in arb_requests(5),
            cb in 1u64..300,
            nodes in 1usize..3,
            align in proptest::option::of(1u64..96),
            partition_idx in 0usize..3,
            striping in proptest::option::of((1u64..48, 1usize..6)),
        ) {
            let nprocs = reqs.len();
            let cores = nprocs.div_ceil(nodes);
            let topo = Topology::new(nodes, cores.max(1));
            let h = Hints {
                align_domains_to: align,
                domain_partition: partition_from(partition_idx),
                striping: striping.map(|(unit, factor)| Striping { unit, factor }),
                ..hints(cb)
            };
            let plan = CollectivePlan::build(reqs, &topo, nprocs, &h);
            let sched = PlanSchedule::compile(plan.clone());
            assert_matches_oracle(&plan, &sched);
        }

        #[test]
        fn prop_round_order_permutes_aggregator_major_sources(
            reqs in arb_requests(6),
            cb in 1u64..200,
            nodes in 1usize..4,
            partition_idx in 0usize..3,
            striping in proptest::option::of((1u64..48, 1usize..6)),
        ) {
            let nprocs = reqs.len();
            let topo = Topology::new(nodes, nprocs.div_ceil(nodes).max(1));
            let h = Hints {
                domain_partition: partition_from(partition_idx),
                striping: striping.map(|(unit, factor)| Striping { unit, factor }),
                ..hints(cb)
            };
            let plan = CollectivePlan::build(reqs, &topo, nprocs, &h);
            let sched = PlanSchedule::compile(plan.clone());
            for rank in 0..nprocs {
                let mut round_ordered = sched.sources_for(rank).to_vec();
                // Within one aggregator the round order keeps iterations
                // ascending: FIFO pairing with the aggregator's own stream.
                for a in 0..plan.aggregators.len() {
                    let its: Vec<usize> =
                        round_ordered.iter().filter(|s| s.0 == a).map(|s| s.1).collect();
                    prop_assert!(its.windows(2).all(|w| w[0] < w[1]));
                }
                round_ordered.sort_unstable();
                prop_assert_eq!(round_ordered, plan.aggregator_major_sources(rank));
            }
        }
    }
}
