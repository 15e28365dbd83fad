//! The two-phase collective read engine.
//!
//! Phase 1 (I/O): each aggregator reads the covering extent of each
//! collective-buffer chunk of its file domain — large, contiguous,
//! stripe-friendly reads. Phase 2 (shuffle): the aggregator scatters the
//! pieces of the chunk to the ranks that requested them. In non-blocking
//! mode (the default, and the configuration profiled in the paper's Fig. 1)
//! the shuffle of iteration `i` overlaps the read of iteration `i+1`, with
//! the [`PipelineDepth`](crate::hints::PipelineDepth) hint bounding how
//! many staging buffers the read-ahead loop of [`Staging`] may keep in
//! flight (depth 2 is the classic double buffer); in blocking mode the two
//! phases strictly alternate.
//!
//! Real bytes flow: the returned buffer contains exactly the requested
//! bytes in request order. Virtual time flows through two [`Lane`]s per
//! aggregator (the paper's "I/O thread" and "shuffle thread" of Fig. 7)
//! plus the OST queues inside [`Pfs`].
//!
//! With hierarchical paths active, a node leader relays the coalesced
//! frames remote aggregators send its node through the `Relay` both
//! shuffle directions share: this engine's step posts each member a
//! shared slice of the frame, not a copy, and a leader that also
//! aggregates relays each round once it has posted it, so the host holds
//! about one round of frames at a time instead of the whole collective's.

use std::sync::Arc;

use cc_model::{Lane, SimTime};
use cc_mpi::comm::{TagValue, SEQ_MASK};
use cc_mpi::{Comm, NodeView, Payload};
use cc_pfs::{FileHandle, Pfs};
use cc_profile::{Activity, Segment};

use crate::extent::{piece_bytes, OffsetList, Piece};
use crate::hints::Hints;
use crate::schedule::{prologue, PlanSchedule};
use crate::shuffle::{Leg, Relay, Wire};
use crate::stage::Staging;

/// Tag base for read-shuffle messages (outside the user and collective
/// spaces). Each collective stamps its sequence number into the low bits
/// via [`Comm::next_engine_tag`], so back-to-back collectives never
/// cross-match even when a fast rank races ahead into the next call.
pub(crate) const TAG_SHUFFLE: TagValue = 0x4000_0000;

/// Tag base for coalesced read-shuffle frames: when hierarchical paths are
/// active, an aggregator sends the pieces of one chunk bound for one
/// *remote node* as a single frame to that node's leader instead of one
/// message per destination rank.
pub(crate) const TAG_SHUFFLE_FRAME: TagValue = 0x1000_0000;

/// Tag base for the intra-node relay leg: the node leader splits a
/// received frame into its members' sections and forwards each as one
/// cheap intra-node message (its own section it unpacks in place).
pub(crate) const TAG_SHUFFLE_RELAY: TagValue = 0x2000_0000;

/// Durations of one aggregator iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTiming {
    /// Time the read phase of this iteration took (including OST queueing).
    pub read: SimTime,
    /// The part of `read` spent queueing: actual read duration minus the
    /// fault-free, contention-free service time of the same extent. Under
    /// an injected OST fault this is where the degradation shows up.
    pub queue: SimTime,
    /// Time the shuffle phase of this iteration took (packing + posting).
    pub shuffle: SimTime,
}

/// What one rank observed during a collective read.
#[derive(Debug, Clone, Default)]
pub struct TwoPhaseReport {
    /// Per-iteration timings — non-empty only on aggregators.
    pub iterations: Vec<IterationTiming>,
    /// Bytes this rank read from the file system (aggregator role).
    pub bytes_read: u64,
    /// Bytes this rank sent during the shuffle (aggregator role).
    pub bytes_shuffled: u64,
    /// Virtual time when this rank entered the collective.
    pub start: SimTime,
    /// Virtual time when this rank's buffer was complete.
    pub end: SimTime,
    /// Activity segments for CPU profiling (Fig. 2): reads are `Wait`,
    /// shuffle packing/posting is `Sys`.
    pub segments: Vec<Segment>,
}

impl TwoPhaseReport {
    /// Sum of per-iteration read durations (aggregators only).
    pub fn read_total(&self) -> SimTime {
        self.iterations.iter().map(|i| i.read).sum()
    }

    /// Sum of per-iteration shuffle durations (aggregators only).
    pub fn shuffle_total(&self) -> SimTime {
        self.iterations.iter().map(|i| i.shuffle).sum()
    }

    /// Sum of per-iteration queueing time (aggregators only) — the share
    /// of the read phase attributable to OST contention or degradation.
    pub fn queue_total(&self) -> SimTime {
        self.iterations.iter().map(|i| i.queue).sum()
    }
}

/// Collectively reads every rank's `my_request` from `file`. Returns the
/// requested bytes (in request-buffer order) and this rank's report.
/// Must be called by all ranks of the communicator. The schedule comes
/// from the world's [`PlanScope`](crate::PlanScope) when it has one (see
/// [`PlanSchedule::resolve`]).
pub fn collective_read(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    my_request: &OffsetList,
    hints: &Hints,
) -> (Vec<u8>, TwoPhaseReport) {
    // Entry time is captured before the request exchange: the exchange is
    // itself a collective that synchronizes clocks, so capturing it later
    // would erase the late arrival of a straggler rank.
    let mut report = TwoPhaseReport {
        start: comm.clock(),
        ..TwoPhaseReport::default()
    };
    let (hints, schedule, tag) = prologue(comm, file, my_request, hints.clone(), TAG_SHUFFLE);
    let hints = &hints;
    let hier = comm.hier_view();
    let mut buf = vec![0u8; my_request.total_bytes() as usize];

    // --- Leader role: relay coalesced frames to the node's members, in
    // step with this rank's aggregator loop when it has one. -------------
    let mut relay = hier
        .as_ref()
        .filter(|v| v.is_leader(comm.rank()))
        .map(|view| {
            let frames = Wire::new(TAG_SHUFFLE_FRAME | (tag & SEQ_MASK), hints);
            let sections = Wire::new(TAG_SHUFFLE_RELAY | (tag & SEQ_MASK), hints);
            let leg = ReadLeg {
                sections,
                own: SimTime::ZERO,
            };
            Relay::new(comm, &schedule, view, frames, leg)
        });

    // --- Aggregator role: read chunks and scatter pieces. --------------
    let mut agg_done = comm.clock();
    if let Some(agg_idx) = schedule.aggregator_index(comm.rank()) {
        let stage = Staging::new(pfs, file, &schedule, agg_idx, hints);
        agg_done = run_aggregator(
            comm,
            stage,
            tag,
            hier.as_ref(),
            relay.as_mut(),
            &mut report,
            &mut buf,
        );
    }
    let mut recv_start = agg_done;
    if let Some(relay) = relay {
        let at = report.segments.len();
        let (last, shuffled, leg) = relay.finish(comm, &mut buf, &mut report.segments, at);
        report.bytes_shuffled += shuffled;
        agg_done = agg_done.max(last);
        recv_start = agg_done.max(leg.own);
    }

    // --- Receiver role: collect pieces from every sending chunk. -------
    let done = receive_pieces(
        comm,
        &schedule,
        hier.as_ref(),
        tag,
        hints,
        &mut buf,
        recv_start,
    );
    if done > agg_done {
        report
            .segments
            .push(Segment::new(agg_done, done, Activity::Wait));
    }
    comm.advance_to(done);
    report.end = comm.clock();
    (buf, report)
}

/// The member receive loop: collects this rank's pieces of every chunk it
/// sources into `buf`, walking its sources in round order — the order the
/// node leader relays in. Remote-node chunks arrive through the leader's
/// relay (a leader unpacked its own sections while relaying), same-node
/// chunks straight from their aggregator, and this rank's own chunks were
/// placed by its aggregator loop. Returns the time the last piece was
/// unpacked, no earlier than `start`.
fn receive_pieces(
    comm: &mut Comm,
    schedule: &PlanSchedule,
    hier: Option<&NodeView>,
    tag: TagValue,
    hints: &Hints,
    buf: &mut [u8],
    start: SimTime,
) -> SimTime {
    let mut done = start;
    let cpu = comm.model().cpu.clone();
    let relay_tag = TAG_SHUFFLE_RELAY | (tag & SEQ_MASK);
    for (a, iter, pieces) in schedule.sources_with_pieces(comm.rank()) {
        let agg_rank = schedule.aggregator_rank(a);
        if agg_rank == comm.rank() {
            continue; // own pieces were placed locally by the aggregator loop
        }
        // Remote-node chunks arrive re-shuffled through the node leader;
        // same-node chunks come straight from the aggregator.
        let (src, src_tag) = match hier {
            Some(view) if view.node_of(agg_rank) != view.node => {
                if view.leader == comm.rank() {
                    continue; // unpacked by this rank's relay
                }
                (view.leader, relay_tag)
            }
            _ => (agg_rank, tag),
        };
        // Direct sends from a remote-node aggregator arrive compressed when
        // the hints say so; relays and same-node sends are always raw.
        let (payload, arrival, decode) = Wire::new(src_tag, hints).recv(comm, src);
        let cursor = unpack(pieces, &payload, buf);
        assert_eq!(
            cursor,
            payload.len(),
            "rank {}: shuffle payload length mismatch from rank {src} \
             (aggregator {a}, iteration {iter}, tag {src_tag:#x})",
            comm.rank(),
        );
        let unpacked = arrival + decode + cpu.memcpy_time(payload.len());
        // Freed, not pooled: a member never sends a buffer of its pieces'
        // size class, so a pooled payload would sit idle until the world
        // ends.
        drop(payload);
        done = done.max(unpacked);
    }
    done
}

/// Copies `pieces`, packed back to back at the start of `packed`, to their
/// places in `buf`. Returns the bytes consumed.
fn unpack(pieces: &[Piece], packed: &[u8], buf: &mut [u8]) -> usize {
    let mut cursor = 0usize;
    for p in pieces {
        let (at, len) = (p.buf_offset as usize, p.extent.len as usize);
        buf[at..at + len].copy_from_slice(&packed[cursor..cursor + len]);
        cursor += len;
    }
    cursor
}

/// Runs the aggregator loop over `stage`; returns the time the last
/// shuffle completed. Fills `report` and places this rank's own pieces
/// directly into `buf`. On a node leader, advances `relay` through each
/// round once the round's frames are posted.
fn run_aggregator<'s>(
    comm: &mut Comm,
    mut stage: Staging<'_>,
    tag: TagValue,
    hier: Option<&NodeView>,
    mut relay: Option<&mut Relay<'s, ReadLeg<'s>>>,
    report: &mut TwoPhaseReport,
    buf: &mut [u8],
) -> SimTime {
    let cpu = comm.model().cpu.clone();
    let start = comm.clock();
    let (pfs, file, hints) = (stage.pfs, stage.file, stage.hints);
    let (schedule, agg_idx) = (stage.schedule, stage.agg);
    let direct = Wire::new(tag, hints);
    let framed = Wire::new(TAG_SHUFFLE_FRAME | (tag & SEQ_MASK), hints);
    // The paper's I/O and shuffle threads (Fig. 7): reading ahead books the
    // OST extents of iteration pos+1 (and effectively pre-posts its
    // receives — destinations are known from the compiled schedule) while
    // pos is still packing.
    let mut io_lane = Lane::free_from(start);
    let mut shuffle_lane = Lane::free_from(start);
    let mut last = start;

    for pos in 0..stage.iters().len() {
        let Some((iter, rlo, ready, read_done, chunk)) =
            stage.next(pos, &mut io_lane, &mut report.segments)
        else {
            continue;
        };
        let read_dur = read_done.saturating_since(ready);
        // Appends the staged bytes of `pieces` to a payload or frame.
        let pack = |out: &mut Vec<u8>, pieces: &[Piece]| {
            for p in pieces {
                let src = (p.extent.offset - rlo) as usize;
                out.extend_from_slice(&chunk[src..src + p.extent.len as usize]);
            }
        };
        let ideal: SimTime = schedule
            .read_ranges(agg_idx, iter)
            .iter()
            .map(|&(lo, len)| pfs.ideal_read_time(file, lo, len))
            .sum();

        // Phase 2: pack and post pieces per destination. With hierarchical
        // paths active, only same-node destinations are served directly;
        // every remote node gets one coalesced frame (below).
        let shuffle_start = read_done.max(shuffle_lane.free_at());
        let mut shuffle_end = shuffle_start;
        let (direct_lo, direct_hi) = match hier {
            Some(view) => (view.node_lo, view.node_hi),
            None => (0, comm.nprocs()),
        };
        for (dst, pieces) in schedule.dests_with_pieces_in(agg_idx, iter, direct_lo, direct_hi) {
            let len = piece_bytes(pieces);
            if dst == comm.rank() {
                // Local placement: just a copy, no message.
                let t = shuffle_lane.acquire(read_done, cpu.memcpy_time(len));
                for p in pieces {
                    let src = (p.extent.offset - rlo) as usize;
                    buf[p.buf_offset as usize..p.buf_offset as usize + p.extent.len as usize]
                        .copy_from_slice(&chunk[src..src + p.extent.len as usize]);
                }
                shuffle_end = shuffle_end.max(t);
                continue;
            }
            let mut payload = comm.take_buf(len);
            pack(&mut payload, pieces);
            let (depart, sent) = direct.post(
                comm,
                &mut shuffle_lane,
                read_done,
                dst,
                payload,
                pieces.len(),
            );
            report.bytes_shuffled += sent;
            shuffle_end = shuffle_end.max(depart);
        }
        if let Some(view) = hier {
            // One header-less frame per remote node holding pieces of this
            // chunk: sections are the per-destination payloads in ascending
            // rank order, and both ends derive section sizes from the
            // shared schedule, so no framing metadata crosses the wire.
            // Coalescing pays the inter-node posting overhead once per
            // node instead of once per destination rank.
            for node in 0..view.nodes_used {
                if node == view.node {
                    continue;
                }
                let (lo, hi) = view.node_range(node);
                // Pre-size the frame from the schedule's piece tables so
                // coalescing never reallocates mid-pack.
                let frame_bytes = schedule.bytes_in(agg_idx, iter, lo, hi);
                if frame_bytes == 0 {
                    continue;
                }
                let mut frame = comm.take_buf(frame_bytes);
                let mut frame_pieces = 0usize;
                for (_, pieces) in schedule.dests_with_pieces_in(agg_idx, iter, lo, hi) {
                    pack(&mut frame, pieces);
                    frame_pieces += pieces.len();
                }
                // Node-pair frames always cross the interconnect, so they
                // are the prime compression target: one codec pass per
                // frame, wire time on the compressed bytes.
                let leader = view.leader_of_node(node);
                let (depart, sent) = framed.post(
                    comm,
                    &mut shuffle_lane,
                    read_done,
                    leader,
                    frame,
                    frame_pieces,
                );
                report.bytes_shuffled += sent;
                shuffle_end = shuffle_end.max(depart);
            }
        }
        // The slot is reusable once the last piece was packed out of it.
        stage.drain(pos, shuffle_end);
        report
            .segments
            .push(Segment::new(shuffle_start, shuffle_end, Activity::Sys));
        report.iterations.push(IterationTiming {
            read: read_dur,
            queue: read_dur.saturating_since(ideal),
            shuffle: shuffle_end.saturating_since(shuffle_start),
        });
        last = last.max(shuffle_end);
        // This round's frames are posted: relay every round up to it
        // before reading further ahead.
        if let Some(relay) = relay.as_deref_mut() {
            relay.advance(comm, buf, Some((agg_idx, iter)));
        }
    }
    report.bytes_read += stage.bytes_read();
    last
}

/// The read leader's step: receives the aggregator's coalesced frame for
/// this node and posts each member its section as a shared slice of the
/// frame — no copy, no allocation per section — unpacking its own section
/// straight into its buffer. Frames are header-less: section boundaries
/// are recomputed from the shared schedule.
struct ReadLeg<'s> {
    /// The leader → member relay wire.
    sections: Wire<'s>,
    /// When the leader's own last section was unpacked.
    own: SimTime,
}

impl<'s> Leg<'s> for ReadLeg<'s> {
    type Out = [u8];

    fn step(
        relay: &mut Relay<'s, Self>,
        comm: &mut Comm,
        buf: &mut [u8],
        chunk: (usize, usize),
        bytes: usize,
    ) {
        let (a, iter) = chunk;
        let agg_rank = relay.schedule.aggregator_rank(a);
        // Frames from remote aggregators arrive compressed when the hints
        // say so; the leader decodes once (occupying the relay lane — a raw
        // frame takes no time) and relays raw sections intra-node.
        let (frame, arrival, decode) = relay.frames.recv(comm, agg_rank);
        relay.lane.acquire(arrival, decode);
        assert_eq!(
            bytes,
            frame.len(),
            "rank {}: shuffle frame length mismatch from rank {agg_rank} \
             (aggregator {a}, iteration {iter}, tag {:#x})",
            comm.rank(),
            relay.frames.tag,
        );
        let frame = Arc::new(frame.into_vec());
        let (lo, hi) = (relay.view.node_lo, relay.view.node_hi);
        let mut pos = 0usize;
        for (dst, pieces) in relay.schedule.dests_with_pieces_in(a, iter, lo, hi) {
            let len = piece_bytes(pieces);
            // Splitting a contiguous section is priced as a plain copy —
            // the per-piece scatter cost was already paid by the
            // aggregator when it packed the frame.
            let depart = if dst == comm.rank() {
                // One host copy, charged as the split plus the unpack the
                // section would pay as a self-send.
                let copy = comm.model().cpu.memcpy_time(len);
                let depart = relay.lane.acquire(arrival, copy);
                unpack(pieces, &frame[pos..pos + len], buf);
                relay.leg.own = relay.leg.own.max(depart + copy);
                depart
            } else {
                let section = Payload::Shared(Arc::clone(&frame), pos..pos + len);
                let sections = relay.leg.sections;
                let (depart, sent) = sections.post(comm, &mut relay.lane, arrival, dst, section, 0);
                relay.bytes_shuffled += sent;
                depart
            };
            relay.last = relay.last.max(depart);
            pos += len;
        }
    }
}

/// The shape of the relay lane tests of both engines: two nodes of two
/// ranks, both aggregators (ranks 2 and 3) on node 1, each owning two
/// 100-byte chunks; every chunk holds 50 bytes for rank 0 (node 0's
/// leader) then 50 for rank 1. The model makes every clock exact: no
/// latency, infinite bandwidth, free copies, and a posting overhead of
/// `u` (intra-node) or `2u` (inter-node) seconds, `u = 2^-10`. Returns the
/// model, the compiled schedule and `u`.
#[cfg(test)]
pub(crate) fn two_remote_aggregators() -> (cc_model::ClusterModel, PlanSchedule, f64) {
    use crate::extent::Extent;
    use crate::plan::{CollectivePlan, FileDomain};
    let u = 1.0 / 1024.0;
    let mut model =
        cc_model::ClusterModel::test_tiny(4).with_collectives(cc_model::CollectiveMode::Auto);
    model.topology = cc_model::Topology::new(2, 2);
    model.net.latency_intra = 0.0;
    model.net.latency_inter = 0.0;
    model.net.bw_intra = f64::INFINITY;
    model.net.bw_inter = f64::INFINITY;
    model.net.send_overhead = 0.0;
    model.net.scatter_overhead = 0.0;
    model.net.msg_overhead_intra = u;
    model.net.msg_overhead_inter = 2.0 * u;
    model.cpu.memcpy_cost_per_byte = 0.0;
    let half = |first: u64| {
        let offsets = (0..4).map(|c| first + 100 * c);
        OffsetList::new(offsets.map(|offset| Extent { offset, len: 50 }).collect())
    };
    let plan = CollectivePlan {
        aggregators: vec![2, 3],
        domains: vec![
            FileDomain::contiguous(0, 200),
            FileDomain::contiguous(200, 400),
        ],
        cb: 100,
        requests: std::sync::Arc::new(vec![
            half(0),
            half(50),
            OffsetList::empty(),
            OffsetList::empty(),
        ]),
    };
    let schedule = PlanSchedule::compile(plan);
    assert_eq!(schedule.rounds(), &[(0, 0), (1, 0), (0, 1), (1, 1)]);
    (model, schedule, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;
    use cc_model::{ClusterModel, Topology};
    use cc_mpi::World;
    use cc_pfs::{MemBackend, StripeLayout};
    use std::sync::Arc;

    impl TwoPhaseReport {
        /// Ranks that entered the collective more than `factor` times later
        /// than the median entry time, given every rank's report in rank
        /// order. Late entry — not long residence — is the straggler signal:
        /// a slow rank arrives at a later virtual clock, while its *peers*
        /// are the ones whose residence inflates waiting for its pieces.
        /// Returns an empty list for an empty slice.
        fn stragglers(reports: &[TwoPhaseReport], factor: f64) -> Vec<usize> {
            if reports.is_empty() {
                return Vec::new();
            }
            let mut starts: Vec<SimTime> = reports.iter().map(|r| r.start).collect();
            starts.sort();
            let median = starts[starts.len() / 2];
            reports
                .iter()
                .enumerate()
                .filter(|(_, r)| r.start > median.scale(factor))
                .map(|(rank, _)| rank)
                .collect()
        }
    }

    /// A file whose byte at offset i is (i % 251), striped over `osts`.
    fn make_fs(osts: usize, size: usize, stripe: u64, count: usize) -> Arc<Pfs> {
        let fs = Pfs::new(
            osts,
            cc_model::DiskModel {
                seek: 1e-3,
                ost_bandwidth: 1e8,
            },
        );
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        fs.create(
            "data",
            StripeLayout::round_robin(stripe, count, 0, osts),
            Box::new(MemBackend::from_bytes(data)),
        );
        Arc::new(fs)
    }

    fn expected_bytes(request: &OffsetList) -> Vec<u8> {
        let mut out = Vec::new();
        for e in request.extents() {
            out.extend((e.offset..e.end()).map(|i| (i % 251) as u8));
        }
        out
    }

    fn run_collective(
        nprocs: usize,
        topo: Topology,
        requests: &[OffsetList],
        hints: Hints,
        fs: Arc<Pfs>,
    ) -> Vec<(Vec<u8>, TwoPhaseReport)> {
        let mut model = ClusterModel::test_tiny(1);
        model.topology = topo;
        let world = World::new(nprocs, model);
        let hints = &hints;
        let fs = &fs;
        world.run(move |comm| {
            let file = fs.open("data").expect("file exists");
            collective_read(comm, fs, &file, &requests[comm.rank()], hints)
        })
    }

    #[test]
    fn contiguous_blocks_reach_all_ranks() {
        let n = 4;
        let fs = make_fs(4, 4000, 256, 4);
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 1000, 1000))
            .collect();
        let results = run_collective(n, Topology::new(2, 2), &requests, Hints::default(), fs);
        for (r, (data, report)) in results.iter().enumerate() {
            assert_eq!(data, &expected_bytes(&requests[r]), "rank {r} data");
            assert!(report.end >= report.start);
        }
    }

    #[test]
    fn interleaved_noncontiguous_requests() {
        // Rank r takes every 4th 10-byte block starting at r*10 — the
        // classic pattern collective I/O exists for.
        let n = 4;
        let fs = make_fs(2, 4000, 128, 2);
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..25)
                        .map(|k| Extent {
                            offset: r * 10 + k * 40,
                            len: 10,
                        })
                        .collect(),
                )
            })
            .collect();
        let results = run_collective(
            n,
            Topology::new(1, 4),
            &requests,
            Hints {
                cb_buffer_size: 300,
                ..Hints::default()
            },
            fs,
        );
        for (r, (data, _)) in results.iter().enumerate() {
            assert_eq!(data, &expected_bytes(&requests[r]), "rank {r} data");
        }
    }

    #[test]
    fn empty_request_returns_empty_buffer() {
        let n = 3;
        let fs = make_fs(1, 1000, 512, 1);
        let mut requests = vec![OffsetList::empty(); n];
        requests[1] = OffsetList::contiguous(100, 50);
        let results = run_collective(n, Topology::new(1, 3), &requests, Hints::default(), fs);
        assert!(results[0].0.is_empty());
        assert_eq!(results[1].0, expected_bytes(&requests[1]));
        assert!(results[2].0.is_empty());
    }

    #[test]
    fn multiple_iterations_per_aggregator() {
        let n = 2;
        let fs = make_fs(2, 10_000, 1024, 2);
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 5000, 5000))
            .collect();
        let results = run_collective(
            n,
            Topology::new(1, 2),
            &requests,
            Hints {
                cb_buffer_size: 600, // forces ~9 iterations per aggregator
                aggregators_per_node: 2,
                ..Hints::default()
            },
            fs,
        );
        for (r, (data, report)) in results.iter().enumerate() {
            assert_eq!(data, &expected_bytes(&requests[r]));
            assert!(
                report.iterations.len() >= 8,
                "expected many iterations, got {}",
                report.iterations.len()
            );
        }
    }

    /// One aggregator (a single node), so every OST booking is made by one
    /// thread in program order: both clocks are lane algebra, not a race
    /// between aggregators for the same OSTs.
    #[test]
    fn nonblocking_is_no_slower_than_blocking() {
        let n = 4;
        let mk_req = || -> Vec<OffsetList> {
            (0..n as u64)
                .map(|r| {
                    OffsetList::new(
                        (0..50)
                            .map(|k| Extent {
                                offset: r * 100 + k * 400,
                                len: 100,
                            })
                            .collect(),
                    )
                })
                .collect()
        };
        let run = |nonblocking: bool| {
            let fs = make_fs(2, 20_000, 4096, 2);
            let results = run_collective(
                n,
                Topology::new(1, 4),
                &mk_req(),
                Hints {
                    cb_buffer_size: 2000,
                    nonblocking,
                    ..Hints::default()
                },
                fs,
            );
            results
                .iter()
                .map(|(_, rep)| rep.end)
                .max()
                .expect("nonempty")
        };
        let t_nb = run(true);
        let t_b = run(false);
        assert!(
            t_nb <= t_b,
            "non-blocking {t_nb} should not exceed blocking {t_b}"
        );
    }

    #[test]
    fn aggregator_reports_read_and_shuffle() {
        let n = 2;
        let fs = make_fs(1, 8000, 4096, 1);
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 4000, 4000))
            .collect();
        let results = run_collective(
            n,
            Topology::new(1, 2),
            &requests,
            Hints {
                cb_buffer_size: 1000,
                ..Hints::default()
            },
            fs,
        );
        let agg = &results[0].1;
        assert!(!agg.iterations.is_empty());
        assert!(agg.read_total() > SimTime::ZERO);
        assert!(agg.shuffle_total() > SimTime::ZERO);
        assert_eq!(agg.bytes_read, 8000);
        // Rank 0 shuffles rank 1's half (4000 bytes) to it.
        assert_eq!(agg.bytes_shuffled, 4000);
        // The non-aggregator has no iterations.
        assert!(results[1].1.iterations.is_empty());
    }

    #[test]
    fn consecutive_collectives_with_different_plans_do_not_cross_match() {
        // Two back-to-back collectives whose plans differ (different
        // aggregator counts and chunking), so the shuffle traffic of the
        // two calls flows between overlapping rank pairs. Sequence-stamped
        // tags must keep the matches separate even though a fast rank can
        // race into the second call while a peer still drains the first.
        let n = 4;
        let fs = make_fs(2, 8000, 512, 2);
        let requests_a: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 2000, 2000))
            .collect();
        // Second call: shifted, interleaved fine-grained requests.
        let requests_b: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..20)
                        .map(|k| Extent {
                            offset: r * 100 + k * 400,
                            len: 100,
                        })
                        .collect(),
                )
            })
            .collect();
        let mut model = ClusterModel::test_tiny(n);
        model.topology = Topology::new(2, 2);
        let world = World::new(n, model);
        let fs = &fs;
        let (ra, rb) = (&requests_a, &requests_b);
        let results = world.run(move |comm| {
            let file = fs.open("data").expect("file exists");
            let h1 = Hints {
                aggregators_per_node: 2,
                cb_buffer_size: 1000,
                ..Hints::default()
            };
            let h2 = Hints {
                aggregators_per_node: 1,
                cb_buffer_size: 700,
                ..Hints::default()
            };
            // No barrier between the calls: ranks may overlap them.
            let (d1, _) = collective_read(comm, fs, &file, &ra[comm.rank()], &h1);
            let (d2, _) = collective_read(comm, fs, &file, &rb[comm.rank()], &h2);
            (d1, d2)
        });
        for (r, (d1, d2)) in results.iter().enumerate() {
            assert_eq!(d1, &expected_bytes(&requests_a[r]), "rank {r} call 1");
            assert_eq!(d2, &expected_bytes(&requests_b[r]), "rank {r} call 2");
        }
    }

    #[test]
    fn slow_ost_fault_shifts_timings_but_not_data() {
        let n = 2;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 4000, 4000))
            .collect();
        let run = |plan: Option<cc_model::FaultPlan>| {
            let mut fs = Pfs::new(
                2,
                cc_model::DiskModel {
                    seek: 1e-3,
                    ost_bandwidth: 1e8,
                },
            );
            if let Some(p) = &plan {
                fs = fs.with_fault_plan(p);
            }
            let data: Vec<u8> = (0..8000).map(|i| (i % 251) as u8).collect();
            fs.create(
                "data",
                StripeLayout::round_robin(512, 2, 0, 2),
                Box::new(MemBackend::from_bytes(data)),
            );
            run_collective(
                n,
                Topology::new(1, 2),
                &requests,
                Hints {
                    cb_buffer_size: 2000,
                    ..Hints::default()
                },
                Arc::new(fs),
            )
        };
        let healthy = run(None);
        let degraded = run(Some(cc_model::FaultPlan::new().slow_ost(0, 10.0)));
        for (r, (h, d)) in healthy.iter().zip(&degraded).enumerate() {
            // Data stays bit-exact under the fault.
            assert_eq!(h.0, d.0, "rank {r} data changed under fault");
            assert_eq!(d.0, expected_bytes(&requests[r]), "rank {r} data");
        }
        // The degraded run is measurably slower, and the slowdown is
        // attributed to queueing, not to a changed ideal service time.
        let end = |rs: &[(Vec<u8>, TwoPhaseReport)]| rs.iter().map(|(_, r)| r.end).max().unwrap();
        assert!(
            end(&degraded) > end(&healthy).scale(2.0),
            "10x slow OST must visibly stretch the collective: healthy {} degraded {}",
            end(&healthy),
            end(&degraded)
        );
        let queue = |rs: &[(Vec<u8>, TwoPhaseReport)]| -> SimTime {
            rs.iter().map(|(_, r)| r.queue_total()).sum()
        };
        assert!(
            queue(&degraded) > queue(&healthy),
            "degradation must surface as queueing time"
        );
    }

    #[test]
    fn straggler_rank_is_detected_from_reports() {
        let n = 4;
        let fs = make_fs(2, 4000, 256, 2);
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 1000, 1000))
            .collect();
        let mut model = ClusterModel::test_tiny(n);
        model.topology = Topology::new(1, 4);
        model = model.with_fault(cc_model::FaultPlan::new().straggle_rank(2, 6.0));
        let world = World::new(n, model);
        let fs = &fs;
        let requests = &requests;
        let reports: Vec<TwoPhaseReport> = world
            .run(move |comm| {
                // One second of pre-collective compute; the straggler's is
                // scaled by the fault plan, so it enters late.
                comm.advance(SimTime::from_secs(1.0));
                let file = fs.open("data").expect("file exists");
                collective_read(comm, fs, &file, &requests[comm.rank()], &Hints::default()).1
            })
            .into_iter()
            .collect();
        assert_eq!(TwoPhaseReport::stragglers(&reports, 2.0), vec![2]);
        // Without a fault plan nobody straggles.
        let clean = World::new(n, {
            let mut m = ClusterModel::test_tiny(n);
            m.topology = Topology::new(1, 4);
            m
        });
        let reports: Vec<TwoPhaseReport> = clean
            .run(move |comm| {
                comm.advance(SimTime::from_secs(1.0));
                let file = fs.open("data").expect("file exists");
                collective_read(comm, fs, &file, &requests[comm.rank()], &Hints::default()).1
            })
            .into_iter()
            .collect();
        assert!(TwoPhaseReport::stragglers(&reports, 2.0).is_empty());
    }

    #[test]
    fn hierarchical_shuffle_matches_flat_bitwise() {
        use cc_model::CollectiveMode;
        // 3 nodes x 4 cores, finely interleaved requests: every chunk has
        // destinations on every node, so the hierarchical path coalesces
        // aggressively. The returned buffers must be byte-identical to the
        // flat path's, and the interconnect must carry far fewer messages.
        let n = 12;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..20)
                        .map(|k| Extent {
                            offset: r * 10 + k * 10 * n as u64,
                            len: 10,
                        })
                        .collect(),
                )
            })
            .collect();
        let run_mode = |mode: CollectiveMode| {
            let fs = make_fs(2, 2400, 256, 2);
            let mut model = ClusterModel::test_tiny(n).with_collectives(mode);
            model.topology = Topology::new(3, 4);
            let world = World::new(n, model);
            let fs = &fs;
            let requests = &requests;
            world.run(move |comm| {
                let file = fs.open("data").expect("file exists");
                let (data, _) = collective_read(
                    comm,
                    fs,
                    &file,
                    &requests[comm.rank()],
                    &Hints {
                        cb_buffer_size: 512,
                        ..Hints::default()
                    },
                );
                (data, comm.stats())
            })
        };
        let flat = run_mode(CollectiveMode::Flat);
        let hier = run_mode(CollectiveMode::Auto);
        for (r, (f, h)) in flat.iter().zip(&hier).enumerate() {
            assert_eq!(f.0, h.0, "rank {r} data differs between modes");
            assert_eq!(h.0, expected_bytes(&requests[r]), "rank {r} data");
        }
        let inter = |rs: &[(Vec<u8>, cc_mpi::CommStats)]| -> usize {
            rs.iter().map(|(_, s)| s.msgs_inter).sum()
        };
        assert!(
            inter(&hier) * 2 <= inter(&flat),
            "hierarchical shuffle must cut inter-node messages: flat {} hier {}",
            inter(&flat),
            inter(&hier)
        );
    }

    /// The read leader's relay lane in closed form. Each aggregator's
    /// round-0 frame reaches the leader at 0 and its round-1 frame at 8u;
    /// relaying a frame costs nothing for the leader's own section and u
    /// for rank 1's. Round order relays (0,0), (1,0) at once and the
    /// round-1 frames when they land: rank 1's sections depart at u, 2u,
    /// 9u, 10u. Aggregator-major order would hold (1,0) behind (0,1)'s 8u
    /// arrival and finish at 11u.
    #[test]
    fn read_relay_serves_aggregators_in_round_order() {
        let (model, schedule, u) = two_remote_aggregators();
        let t = |n: f64| SimTime::from_secs(n * u);
        let schedule = &schedule;
        let tag = TAG_SHUFFLE | 1;
        let out = World::new(4, model).run(move |comm| {
            let hints = Hints::default();
            let view = comm.hier_view().expect("two nodes");
            if let Some(a) = schedule.aggregator_index(comm.rank()) {
                for (k, &iter) in schedule.active_iterations(a).iter().enumerate() {
                    let mut frame = Vec::new();
                    for (_, pieces) in schedule.dests_with_pieces_in(a, iter, 0, 2) {
                        for p in pieces {
                            frame.extend((p.extent.offset..p.extent.end()).map(|i| i as u8));
                        }
                    }
                    let frame_tag = TAG_SHUFFLE_FRAME | (tag & SEQ_MASK);
                    comm.post_bytes_at(0, frame_tag, frame, t(8.0 * k as f64));
                }
                return None;
            }
            let request = &schedule.plan().requests[comm.rank()];
            let mut buf = vec![0u8; request.total_bytes() as usize];
            let (mut relayed, mut own) = (SimTime::ZERO, SimTime::ZERO);
            if view.is_leader(comm.rank()) {
                let frames = Wire::new(TAG_SHUFFLE_FRAME | (tag & SEQ_MASK), &hints);
                let sections = Wire::new(TAG_SHUFFLE_RELAY | (tag & SEQ_MASK), &hints);
                let leg = ReadLeg {
                    sections,
                    own: SimTime::ZERO,
                };
                let relay = Relay::new(comm, schedule, &view, frames, leg);
                let (last, _, leg) = relay.finish(comm, &mut buf, &mut Vec::new(), 0);
                (relayed, own) = (last, leg.own);
            }
            let start = relayed.max(own);
            let done = receive_pieces(comm, schedule, Some(&view), tag, &hints, &mut buf, start);
            let expect: Vec<u8> = request
                .extents()
                .iter()
                .flat_map(|e| (e.offset..e.end()).map(|i| i as u8))
                .collect();
            assert_eq!(buf, expect, "rank {} bytes", comm.rank());
            Some((relayed, done))
        });
        // Leader: last relay departs at 10u, and its completion waits for it.
        assert_eq!(out[0], Some((t(10.0), t(10.0))));
        // Member: its last section arrives at 10u.
        assert_eq!(out[1], Some((SimTime::ZERO, t(10.0))));
    }

    #[test]
    fn repeated_collectives_in_one_run() {
        let n = 3;
        let fs = make_fs(2, 3000, 256, 2);
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 1000, 1000))
            .collect();
        let mut model = ClusterModel::test_tiny(3);
        model.topology = Topology::new(1, 3);
        let world = World::new(n, model);
        let fs = &fs;
        let requests = &requests;
        let results = world.run(move |comm| {
            let file = fs.open("data").expect("file exists");
            let h = Hints::default();
            let (d1, r1) = collective_read(comm, fs, &file, &requests[comm.rank()], &h);
            let (d2, r2) = collective_read(comm, fs, &file, &requests[comm.rank()], &h);
            assert_eq!(d1, d2);
            // Virtual time strictly advances between collectives.
            assert!(r2.end > r1.end);
            d1
        });
        for (r, data) in results.iter().enumerate() {
            assert_eq!(data, &expected_bytes(&requests[r]));
        }
    }
}
