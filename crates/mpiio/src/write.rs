//! The two-phase collective write engine.
//!
//! The mirror image of [`twophase`](crate::twophase): ranks scatter the
//! pieces of their write buffers to the aggregators owning the target file
//! domains (phase 1, the shuffle), and each aggregator assembles the
//! pieces of each collective-buffer chunk and issues large writes
//! (phase 2, the I/O). Only requested byte ranges are written — holes in a
//! chunk are skipped rather than read-modify-written, which is sufficient
//! because requests never overlap within one offset list and overlapping
//! writes *across* ranks are application bugs MPI-IO leaves undefined.
//!
//! With hierarchical paths active, the intra-node leg sends no message and
//! makes no copy on the sending side: each rank lends its write buffer
//! itself (`Comm::lend`) to its readers — its node leader and the
//! same-node aggregators it sources — which copy each piece straight out
//! of it. Only the node leaders' coalesced frames cross the interconnect,
//! posted by the `Relay` both shuffle directions share: this engine's step
//! gathers a chunk's pieces from its members' loans into one frame.

use std::ops::Range;

use cc_model::{Lane, SimTime};
use cc_mpi::comm::{TagValue, SEQ_MASK};
use cc_mpi::{Borrowed, Comm, NodeView, Payload};
use cc_pfs::{FileHandle, Pfs};
use cc_profile::{Activity, Segment};

use crate::extent::{piece_bytes, Extent, OffsetList, Piece};
use crate::hints::Hints;
use crate::schedule::{prologue, PlanSchedule};
use crate::shuffle::{Leg, Relay, Wire};
use crate::stage::Staging;

/// Tag base for write-shuffle messages; each collective stamps its
/// sequence number into the low bits (see `Comm::next_engine_tag`).
pub(crate) const TAG_WRITE_SHUFFLE: TagValue = 0x6000_0000;

/// Tag base for coalesced write-shuffle frames: the node leader
/// concatenates its members' pieces of one chunk into a single
/// frame and sends it to the owning aggregator — one inter-node message
/// per (chunk, source node) pair.
pub(crate) const TAG_WRITE_FRAME: TagValue = 0x7000_0000;

/// What one rank observed during a collective write.
#[derive(Debug, Clone, Default)]
pub struct WriteReport {
    /// Bytes this rank wrote to the file system (aggregator role).
    pub(crate) bytes_written: u64,
    /// Bytes this rank sent during the shuffle.
    pub bytes_shuffled: u64,
    /// File-system write calls issued by this rank.
    pub writes_issued: u64,
    /// Virtual time entering the collective.
    pub(crate) start: SimTime,
    /// Virtual time when this rank's role completed.
    pub end: SimTime,
    /// Activity segments for CPU profiling.
    pub segments: Vec<Segment>,
}

impl WriteReport {}

/// Collectively writes `data` (the bytes of `my_request`, in request-buffer
/// order) to `file`. Must be called by all ranks.
///
/// # Panics
/// Panics if `data.len()` does not match the request size.
pub fn collective_write(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    my_request: &OffsetList,
    data: &[u8],
    hints: &Hints,
) -> WriteReport {
    assert_eq!(
        data.len() as u64,
        my_request.total_bytes(),
        "rank {}: write buffer does not match the request size",
        comm.rank(),
    );
    let (hints, schedule, tag) = prologue(comm, file, my_request, hints.clone(), TAG_WRITE_SHUFFLE);
    let hints = &hints;
    let mut report = WriteReport {
        start: comm.clock(),
        ..WriteReport::default()
    };

    // --- Sender role: send or price my pieces for the owning aggregators.
    let hier = comm.hier_view();
    let (sends_done, slots, readers) = send_pieces(
        comm,
        &schedule,
        hier.as_ref(),
        tag,
        hints,
        data,
        &mut report,
    );
    if sends_done > report.start {
        report
            .segments
            .push(Segment::new(report.start, sends_done, Activity::Sys));
    }

    // The rest of the collective runs while `data` is on loan to its
    // readers, and ends once they have all given it back.
    let done = comm.lend(tag, data, slots, readers, |comm| {
        // --- Leader role: coalesce members' pieces into frames, in step
        // with this rank's aggregator loop when it has one. --------------
        let mut relay = hier
            .as_ref()
            .filter(|v| v.is_leader(comm.rank()))
            .map(|view| {
                let frames = Wire::new(TAG_WRITE_FRAME | (tag & SEQ_MASK), hints);
                let loans = NodeLoans::new(tag, view.node_lo..view.node_hi);
                Relay::new(comm, &schedule, view, frames, loans)
            });
        let relay_segment_at = report.segments.len();

        // --- Aggregator role: assemble chunks and write. ----------------
        let mut done = sends_done;
        if let Some(agg_idx) = schedule.aggregator_index(comm.rank()) {
            let stage = Staging::new(pfs, file, &schedule, agg_idx, hints);
            done = done.max(run_write_aggregator(
                comm,
                stage,
                tag,
                relay.as_mut(),
                data,
                my_request,
                &mut report,
            ));
        }
        if let Some(relay) = relay {
            let (last, shuffled, _) =
                relay.finish(comm, &mut (), &mut report.segments, relay_segment_at);
            report.bytes_shuffled += shuffled;
            done = done.max(last);
        }
        done
    });
    comm.advance_to(done);
    report.end = comm.clock();
    report
}

/// One `(aggregator, iteration)` slot of a rank's loan: when its pieces
/// count as arrived at their reader — when an intra-node message of the
/// same bytes would arrive. Readers stamp their clocks from it, so the
/// hand-off prices exactly like that message. The pieces themselves are
/// the schedule's, read from the lent buffer at their `buf_offset`s.
struct LoanSlot {
    chunk: (usize, usize),
    arrival: SimTime,
    /// Whether no later slot of the loan has the same reader in the same
    /// role (leader or same-node aggregator): the reader gives the loan
    /// back once it has read this one.
    last: bool,
}

/// A reader's handles on the loans of its node's members, each borrowed
/// at its first slot and given back after its last. Every reader visits
/// a loan's slots in round order, so a forward cursor finds each one.
struct NodeLoans {
    tag: TagValue,
    lo: usize,
    /// Per member from `lo`.
    held: Vec<Hold>,
}

/// Where a reader stands with one member's loan.
enum Hold {
    Unborrowed,
    /// Borrowed, with the next slot to look at.
    Held(Borrowed<Vec<LoanSlot>>, usize),
    Returned,
}

impl NodeLoans {
    /// Handles on the loans of ranks `members` in `tag`'s collective.
    fn new(tag: TagValue, members: Range<usize>) -> Self {
        Self {
            tag,
            lo: members.start,
            held: members.map(|_| Hold::Unborrowed).collect(),
        }
    }

    /// Reads `src`'s slot for chunk `(a, iter)`, which must come after the
    /// slot of `src`'s read last: hands `copy` the lent buffer, gives the
    /// loan back if that was this reader's last slot in it, and returns
    /// the slot's arrival. The first slot borrows the loan, blocking until
    /// `src` lends it.
    fn read(
        &mut self,
        comm: &Comm,
        src: usize,
        (a, iter): (usize, usize),
        copy: impl FnOnce(&[u8]),
    ) -> SimTime {
        let hold = &mut self.held[src - self.lo];
        if let Hold::Unborrowed = hold {
            *hold = Hold::Held(comm.borrow(self.tag, src), 0);
        }
        let Hold::Held(loan, next) = hold else {
            panic!(
                "rank {}: rank {src}'s loan was given back before aggregator {a}, \
                 iteration {iter}",
                comm.rank()
            )
        };
        let slots = loan.meta();
        let k = *next
            + slots[*next..]
                .iter()
                .position(|s| s.chunk == (a, iter))
                .unwrap_or_else(|| panic!("no loan slot for aggregator {a}, iteration {iter}"));
        *next = k + 1;
        let LoanSlot { arrival, last, .. } = slots[k];
        copy(loan.bytes());
        if last {
            *hold = Hold::Returned;
        }
        arrival
    }
}

/// Appends `pieces`, read at their `buf_offset`s from `buf` (their owner's
/// write buffer, in request-buffer order), to `out`.
fn gather(pieces: &[Piece], buf: &[u8], out: &mut Vec<u8>) {
    for p in pieces {
        let lo = p.buf_offset as usize;
        out.extend_from_slice(&buf[lo..lo + p.extent.len as usize]);
    }
}

/// Copies `pieces`, read at their `buf_offset`s from `buf` (their owner's
/// write buffer), to their places in the chunk starting at file offset
/// `clo`, and records their extents.
fn place(pieces: &[Piece], buf: &[u8], clo: u64, chunk: &mut [u8], extents: &mut Vec<Extent>) {
    for p in pieces {
        let off = (p.extent.offset - clo) as usize;
        let (lo, len) = (p.buf_offset as usize, p.extent.len as usize);
        chunk[off..off + len].copy_from_slice(&buf[lo..lo + len]);
        extents.push(p.extent);
    }
}

/// Copies `pieces`, packed back to back at the start of `packed`, to
/// their places in the chunk starting at file offset `clo`, and records
/// their extents. Returns the bytes consumed.
fn unpack(
    pieces: &[Piece],
    packed: &[u8],
    clo: u64,
    chunk: &mut [u8],
    extents: &mut Vec<Extent>,
) -> usize {
    let mut cursor = 0usize;
    for p in pieces {
        let off = (p.extent.offset - clo) as usize;
        let len = p.extent.len as usize;
        chunk[off..off + len].copy_from_slice(&packed[cursor..cursor + len]);
        cursor += len;
        extents.push(p.extent);
    }
    cursor
}

/// The member send loop: walks this rank's pieces of every chunk it
/// sources in round order — the order the node leader coalesces in. With
/// hierarchical paths active no piece is sent: each `(aggregator,
/// iteration)` slot becomes a [`LoanSlot`] of the loan of `data` that
/// [`collective_write`] makes. Pieces bound for a remote-node aggregator
/// are read by the local node leader (one cheap intra-node hop) instead of
/// crossing the interconnect one message per rank, same-node pieces by
/// their aggregator. Each slot is priced on the send lane as the
/// intra-node message it replaces; without hierarchy every piece travels
/// as its own message. This rank's own chunks are handed over in its
/// aggregator loop. Returns the time the send lane is free, the loan's
/// slots and its number of readers (none of either without hierarchy).
fn send_pieces(
    comm: &mut Comm,
    schedule: &PlanSchedule,
    hier: Option<&NodeView>,
    tag: TagValue,
    hints: &Hints,
    data: &[u8],
    report: &mut WriteReport,
) -> (SimTime, Vec<LoanSlot>, usize) {
    let rank = comm.rank();
    let mut send_lane = Lane::free_from(comm.clock());
    let others = || {
        schedule
            .sources_with_pieces(rank)
            .filter(|&(a, _, _)| schedule.aggregator_rank(a) != rank)
    };
    let Some(view) = hier else {
        // Direct sends that cross the interconnect may travel compressed.
        let direct = Wire::new(tag, hints);
        for (a, _, pieces) in others() {
            let mut payload = comm.take_buf(piece_bytes(pieces));
            gather(pieces, data, &mut payload);
            let ready = comm.clock();
            let agg_rank = schedule.aggregator_rank(a);
            let (_, sent) =
                direct.post(comm, &mut send_lane, ready, agg_rank, payload, pieces.len());
            report.bytes_shuffled += sent;
        }
        return (send_lane.free_at().max(comm.clock()), Vec::new(), 0);
    };
    let mut slots = Vec::with_capacity(others().count());
    let (cpu, net) = (&comm.model().cpu, &comm.model().net);
    for (a, iter, pieces) in others() {
        let len = piece_bytes(pieces);
        let agg_rank = schedule.aggregator_rank(a);
        let reader = if view.node_of(agg_rank) == view.node {
            agg_rank
        } else {
            view.leader
        };
        // Intra-node legs never travel compressed. The leader's own
        // pieces skip the wire and the posting overhead: just the copy.
        let mut cost = cpu.memcpy_time(len) + net.scatter_cost().scale(pieces.len() as f64);
        if reader != rank {
            cost = cost + net.wire_time(len, true) + net.msg_cost(true);
        }
        let depart = send_lane.acquire(comm.clock(), cost);
        let arrival = if reader == rank {
            depart
        } else {
            comm.handoff_arrival(reader, len, depart)
        };
        slots.push(LoanSlot {
            chunk: (a, iter),
            arrival,
            last: false,
        });
        report.bytes_shuffled += len as u64;
    }
    // One borrower per same-node aggregator sourced, plus the leader's
    // relay if any piece is bound off the node: mark each one's last slot.
    let (mut aggregators, mut relayed) = (Vec::new(), false);
    for slot in slots.iter_mut().rev() {
        let agg_rank = schedule.aggregator_rank(slot.chunk.0);
        if view.node_of(agg_rank) != view.node {
            slot.last = !relayed;
            relayed = true;
        } else if !aggregators.contains(&agg_rank) {
            aggregators.push(agg_rank);
            slot.last = true;
        }
    }
    let readers = aggregators.len() + usize::from(relayed);
    (send_lane.free_at().max(comm.clock()), slots, readers)
}

/// The write leader's step: concatenates its members' pieces of the chunk
/// (its own included), in ascending member order, read from their loans,
/// into one header-less frame, stamped at the latest slot arrival, and
/// posts it to the aggregator.
impl<'s> Leg<'s> for NodeLoans {
    type Out = ();

    fn step(
        relay: &mut Relay<'s, Self>,
        comm: &mut Comm,
        _: &mut (),
        chunk: (usize, usize),
        bytes: usize,
    ) {
        let (schedule, view) = (relay.schedule, relay.view);
        // Pre-sized from the schedule's piece tables, so coalescing never
        // reallocates mid-concatenation.
        let mut frame = comm.take_buf(bytes);
        let mut arrival = relay.start;
        for (src, pieces) in
            schedule.dests_with_pieces_in(chunk.0, chunk.1, view.node_lo, view.node_hi)
        {
            let at = relay
                .leg
                .read(comm, src, chunk, |buf| gather(pieces, buf, &mut frame));
            arrival = arrival.max(at);
        }
        // Gathering the pieces is a plain copy — the per-piece
        // scatter cost was already paid by the members, so the frame
        // packs zero pieces. It always crosses the interconnect, so it is
        // compressed whenever the hints ask for it.
        let agg_rank = schedule.aggregator_rank(chunk.0);
        let (depart, sent) = relay
            .frames
            .post(comm, &mut relay.lane, arrival, agg_rank, frame, 0);
        relay.bytes_shuffled += sent;
        relay.last = relay.last.max(depart);
    }
}

/// Assembles and writes every chunk of `stage`'s aggregator; returns the
/// time the last write completed. On a node leader, advances `relay`
/// through each round before receiving it.
fn run_write_aggregator(
    comm: &mut Comm,
    mut stage: Staging<'_>,
    tag: TagValue,
    mut relay: Option<&mut Relay<'_, NodeLoans>>,
    my_data: &[u8],
    my_request: &OffsetList,
    report: &mut WriteReport,
) -> SimTime {
    let cpu = comm.model().cpu.clone();
    let (pfs, file, hints) = (stage.pfs, stage.file, stage.hints);
    let (schedule, agg_idx) = (stage.schedule, stage.agg);
    let mut recv_done = comm.clock();
    let mut io_lane = Lane::free_from(comm.clock());
    // Mirror of the read engine's staging discipline: assembly slots are
    // reused (re-zeroed) round-robin, and iteration `i`'s receives are
    // floored at the write that frees its slot. Blocking mode is depth 1
    // — the next chunk's receives cannot overlap the write.
    let mut last = comm.clock();

    let hier = comm.hier_view();
    let direct = Wire::new(tag, hints);
    let frames = Wire::new(TAG_WRITE_FRAME | (tag & SEQ_MASK), hints);
    // Same-node sources' loans.
    let mut loans = NodeLoans::new(tag, hier.map_or(0..0, |v| v.node_lo..v.node_hi));
    let mut extents: Vec<Extent> = Vec::new();
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for (pos, &iter) in stage.iters().iter().enumerate() {
        if let Some(relay) = relay.as_deref_mut() {
            relay.advance(comm, &mut (), Some((agg_idx, iter)));
        }
        let (clo, chi) = schedule.chunk(agg_idx, iter);
        let mut arrival = recv_done.max(stage.floor(pos));
        let chunk = stage.slot_mut(pos);
        chunk.clear();
        chunk.resize((chi - clo) as usize, 0);
        extents.clear();
        // The message the current sender's pieces are unpacked from, as
        // `(sender, cursor, bytes)`. Sources ascend, so a remote node's
        // contributors form one contiguous run, carried by one coalesced
        // frame from its leader; without hierarchy every other source
        // sends its own payload.
        let mut held: Option<(usize, usize, Payload)> = None;
        let release = |comm: &mut Comm, (sender, cursor, bytes): (usize, usize, Payload)| {
            assert_eq!(
                cursor,
                bytes.len(),
                "rank {}: write payload length mismatch from rank {sender} \
                 (aggregator {agg_idx}, iteration {iter}, tag {tag:#x})",
                comm.rank(),
            );
            comm.recycle_buf(bytes);
        };
        for (src, pieces) in schedule.dests_with_pieces(agg_idx, iter) {
            if src == comm.rank() {
                // Offsets of my own pieces come from my own request.
                debug_assert_eq!(
                    my_request.bytes_in(clo, chi),
                    pieces.iter().map(|p| p.extent.len).sum::<u64>(),
                    "own piece extraction mismatch"
                );
                place(pieces, my_data, clo, chunk, &mut extents);
                continue;
            }
            // Leader frames always cross the interconnect, so they arrive
            // compressed exactly when the hints ask for it.
            let (sender, wire) = match hier {
                Some(view) if view.node_of(src) == view.node => {
                    let at = loans.read(comm, src, (agg_idx, iter), |buf| {
                        place(pieces, buf, clo, chunk, &mut extents)
                    });
                    arrival = arrival.max(at);
                    continue;
                }
                Some(view) => (view.leader_of(src), frames),
                None => (src, direct),
            };
            if held.as_ref().map(|h| h.0) != Some(sender) {
                if let Some(h) = held.take() {
                    release(comm, h);
                }
                let (bytes, at, decode) = wire.recv(comm, sender);
                arrival = arrival.max(at + decode);
                held = Some((sender, 0, bytes));
            }
            let (_, cursor, bytes) = held.as_mut().expect("payload just received");
            *cursor += unpack(pieces, &bytes[*cursor..], clo, chunk, &mut extents);
        }
        if let Some(h) = held.take() {
            release(comm, h);
        }
        recv_done = arrival;
        // Merge the received extents and write the whole chunk as one
        // vectorized call: the file system groups the runs per OST, merges
        // object-contiguous pieces, and books each OST once — one seek per
        // merged run instead of one write call per file-contiguous run.
        extents.sort_unstable_by_key(|e| e.offset);
        ranges.clear();
        for e in &extents {
            match ranges.last_mut() {
                Some((off, len)) if e.offset <= *off + *len => {
                    assert_eq!(
                        e.offset,
                        *off + *len,
                        "overlapping writes at byte {}",
                        e.offset
                    );
                    *len += e.len;
                }
                _ => ranges.push((e.offset, e.len)),
            }
        }
        let n: usize = ranges.iter().map(|&(_, len)| len as usize).sum();
        let assemble = cpu.memcpy_time(n);
        let ready = arrival.max(io_lane.free_at()) + assemble;
        let mut write_done = ready;
        if n > 0 {
            write_done = if hints.compression.is_on() {
                // The write-back travels to the file system compressed:
                // the stored bytes are the codec's reconstruction
                // (bit-exact under `Lossless`, within the error bound
                // otherwise) and the disk charge scales with the
                // compressed size while offsets stay logical.
                let mut logical = comm.take_buf(n);
                for &(off, len) in &ranges {
                    let lo = (off - clo) as usize;
                    logical.extend_from_slice(&chunk[lo..lo + len as usize]);
                }
                let mut wire = comm.take_buf(n);
                cc_compress::encode_into(&hints.compression, &logical, &mut wire);
                let mut recon = comm.take_buf(n);
                let decoded = cc_compress::decode_into(&wire, &mut recon);
                debug_assert_eq!(decoded, n);
                let mut cursor = 0usize;
                for &(off, len) in &ranges {
                    let lo = (off - clo) as usize;
                    chunk[lo..lo + len as usize]
                        .copy_from_slice(&recon[cursor..cursor + len as usize]);
                    cursor += len as usize;
                }
                let codec_ready = ready + cpu.compress_time(logical.len());
                let wire_len = wire.len() as u64;
                comm.recycle_buf(logical);
                comm.recycle_buf(recon);
                comm.recycle_buf(wire);
                pfs.write_multi_scaled(file, clo, chunk, &ranges, codec_ready, wire_len)
            } else {
                pfs.write_multi(file, clo, chunk, &ranges, ready)
            };
            report.bytes_written += n as u64;
            report.writes_issued += 1;
        }
        io_lane.advance_to(write_done);
        // The slot is free for iteration pos + depth once its write lands.
        stage.drain(pos, write_done);
        report
            .segments
            .push(Segment::new(ready, write_done, Activity::Wait));
        last = last.max(write_done);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_model::{ClusterModel, Topology};
    use cc_mpi::World;
    use cc_pfs::{MemBackend, StripeLayout};
    use std::sync::Arc;

    fn empty_fs(size: usize) -> Arc<Pfs> {
        let fs = Pfs::new(
            2,
            cc_model::DiskModel {
                seek: 1e-3,
                ost_bandwidth: 1e8,
            },
        );
        fs.create(
            "out",
            StripeLayout::round_robin(256, 2, 0, 2),
            Box::new(MemBackend::zeroed(size)),
        );
        Arc::new(fs)
    }

    fn run_write(
        nprocs: usize,
        requests: &[OffsetList],
        fs: Arc<Pfs>,
        hints: Hints,
    ) -> Vec<WriteReport> {
        let mut model = ClusterModel::test_tiny(nprocs);
        model.topology = Topology::new(1, nprocs);
        let world = World::new(nprocs, model);
        let fs = &fs;
        let hints = &hints;
        world.run(move |comm| {
            let file = fs.open("out").expect("exists");
            let req = &requests[comm.rank()];
            // Rank r writes bytes valued (file_offset % 251), so the
            // expected file contents are position-determined.
            let mut data = Vec::new();
            for e in req.extents() {
                data.extend((e.offset..e.end()).map(|i| (i % 251) as u8));
            }
            collective_write(comm, fs, &file, req, &data, hints)
        })
    }

    fn check_file(fs: &Pfs, requests: &[OffsetList], size: u64) {
        let file = fs.open("out").expect("exists");
        let (bytes, _) = fs.read_at(&file, 0, size, SimTime::ZERO);
        let mut expect = vec![0u8; size as usize];
        for req in requests {
            for e in req.extents() {
                for i in e.offset..e.end() {
                    expect[i as usize] = (i % 251) as u8;
                }
            }
        }
        assert_eq!(bytes, expect);
    }

    #[test]
    fn contiguous_blocks_roundtrip() {
        let n = 4;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 500, 500))
            .collect();
        let fs = empty_fs(2000);
        let reports = run_write(n, &requests, Arc::clone(&fs), Hints::default());
        check_file(&fs, &requests, 2000);
        let written: u64 = reports.iter().map(|r| r.bytes_written).sum();
        assert_eq!(written, 2000);
    }

    #[test]
    fn interleaved_writes_with_holes() {
        // Rank r writes 10-byte pieces at r*10 + k*60: holes at 40..60 of
        // each 60-byte group must stay zero.
        let n = 4;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..8)
                        .map(|k| Extent {
                            offset: r * 10 + k * 60,
                            len: 10,
                        })
                        .collect(),
                )
            })
            .collect();
        let fs = empty_fs(600);
        run_write(
            n,
            &requests,
            Arc::clone(&fs),
            Hints {
                cb_buffer_size: 128,
                ..Hints::default()
            },
        );
        check_file(&fs, &requests, 600);
    }

    #[test]
    fn writes_coalesce_per_chunk() {
        // Adjacent pieces from different ranks merge into few writes.
        let n = 4;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 100, 100))
            .collect();
        let fs = empty_fs(400);
        let reports = run_write(
            n,
            &requests,
            Arc::clone(&fs),
            Hints {
                cb_buffer_size: 1 << 20,
                aggregators_per_node: 1,
                ..Hints::default()
            },
        );
        // One aggregator, one chunk, fully contiguous: exactly one write.
        let writes: u64 = reports.iter().map(|r| r.writes_issued).sum();
        assert_eq!(writes, 1);
    }

    #[test]
    fn empty_writers_are_fine() {
        let n = 3;
        let mut requests = vec![OffsetList::empty(); n];
        requests[1] = OffsetList::contiguous(64, 64);
        let fs = empty_fs(256);
        run_write(n, &requests, Arc::clone(&fs), Hints::default());
        check_file(&fs, &requests, 256);
    }

    #[test]
    fn hierarchical_write_matches_flat_bitwise() {
        use cc_model::CollectiveMode;
        // 2 nodes x 3 cores, interleaved pieces: every chunk receives
        // contributions from both nodes, so window slots and coalesced
        // frames carry the whole shuffle. File contents must be
        // byte-identical to the flat path's.
        let n = 6;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..15)
                        .map(|k| Extent {
                            offset: r * 10 + k * 10 * n as u64,
                            len: 10,
                        })
                        .collect(),
                )
            })
            .collect();
        let run_mode = |mode: CollectiveMode| {
            let fs = empty_fs(900);
            let mut model = ClusterModel::test_tiny(n).with_collectives(mode);
            model.topology = Topology::new(2, 3);
            let world = World::new(n, model);
            let stats = {
                let fs = &fs;
                let requests = &requests;
                world.run(move |comm| {
                    let file = fs.open("out").expect("exists");
                    let req = &requests[comm.rank()];
                    let mut data = Vec::new();
                    for e in req.extents() {
                        data.extend((e.offset..e.end()).map(|i| (i % 251) as u8));
                    }
                    collective_write(
                        comm,
                        fs,
                        &file,
                        req,
                        &data,
                        &Hints {
                            cb_buffer_size: 256,
                            ..Hints::default()
                        },
                    );
                    comm.stats()
                })
            };
            let file = fs.open("out").expect("exists");
            let (bytes, _) = fs.read_at(&file, 0, 900, SimTime::ZERO);
            (bytes, stats)
        };
        let (flat_file, flat_stats) = run_mode(CollectiveMode::Flat);
        let (hier_file, hier_stats) = run_mode(CollectiveMode::Auto);
        assert_eq!(flat_file, hier_file, "file contents differ between modes");
        let mut expect = vec![0u8; 900];
        for req in &requests {
            for e in req.extents() {
                for i in e.offset..e.end() {
                    expect[i as usize] = (i % 251) as u8;
                }
            }
        }
        assert_eq!(hier_file, expect, "written contents are wrong");
        let inter = |ss: &[cc_mpi::CommStats]| -> usize { ss.iter().map(|s| s.msgs_inter).sum() };
        assert!(
            inter(&hier_stats) * 2 <= inter(&flat_stats),
            "hierarchical write shuffle must cut inter-node messages: flat {} hier {}",
            inter(&flat_stats),
            inter(&hier_stats)
        );
    }

    #[test]
    fn write_then_collective_read_roundtrip() {
        let n = 2;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..5)
                        .map(|k| Extent {
                            offset: r * 20 + k * 40,
                            len: 20,
                        })
                        .collect(),
                )
            })
            .collect();
        let fs = empty_fs(220);
        let mut model = ClusterModel::test_tiny(n);
        model.topology = Topology::new(1, n);
        let world = World::new(n, model);
        let fs = &fs;
        let requests = &requests;
        let ok = world.run(move |comm| {
            let file = fs.open("out").expect("exists");
            let req = &requests[comm.rank()];
            let mut data = Vec::new();
            for e in req.extents() {
                data.extend((e.offset..e.end()).map(|i| (i % 251) as u8));
            }
            collective_write(comm, fs, &file, req, &data, &Hints::default());
            comm.barrier();
            let (back, _) =
                crate::twophase::collective_read(comm, fs, &file, req, &Hints::default());
            back == data
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn lossless_compressed_write_is_bit_identical_to_off() {
        use crate::hints::Compression;
        use cc_model::CollectiveMode;
        // Interleaved pieces across a 2x3 topology so both the direct
        // inter-node sends (flat) and the coalesced leader frames (hier)
        // travel compressed. File contents must match the uncompressed
        // run byte for byte in both modes.
        let n = 6;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..15)
                        .map(|k| Extent {
                            offset: r * 10 + k * 10 * n as u64,
                            len: 10,
                        })
                        .collect(),
                )
            })
            .collect();
        let run_one = |mode: CollectiveMode, compression: Compression| {
            let fs = empty_fs(900);
            let mut model = ClusterModel::test_tiny(n).with_collectives(mode);
            model.topology = Topology::new(2, 3);
            let world = World::new(n, model);
            {
                let fs = &fs;
                let requests = &requests;
                world.run(move |comm| {
                    let file = fs.open("out").expect("exists");
                    let req = &requests[comm.rank()];
                    let mut data = Vec::new();
                    for e in req.extents() {
                        data.extend((e.offset..e.end()).map(|i| (i % 251) as u8));
                    }
                    let hints = Hints {
                        cb_buffer_size: 256,
                        compression,
                        ..Hints::default()
                    };
                    collective_write(comm, fs, &file, req, &data, &hints);
                });
            }
            let file = fs.open("out").expect("exists");
            let (bytes, _) = fs.read_at(&file, 0, 900, SimTime::ZERO);
            bytes
        };
        for mode in [CollectiveMode::Flat, CollectiveMode::Auto] {
            let off = run_one(mode, Compression::Off);
            let lossless = run_one(mode, Compression::Lossless);
            assert_eq!(off, lossless, "lossless write changed bytes ({mode:?})");
        }
    }

    #[test]
    fn error_bounded_write_respects_bound_and_cuts_wire_bytes() {
        use crate::hints::{Compression, ErrorBound};
        use cc_model::CollectiveMode;
        // A smooth f64 field written across 2 nodes with an absolute
        // error bound: the shuffle leg and the write-back leg each stay
        // within the bound (errors compound additively across the two
        // lossy hops), and the inter-node wire bytes shrink well below
        // the logical bytes.
        let n = 6;
        let piece = 1024usize; // 128 f64 values per piece
        let pieces_per_rank = 16usize;
        let per_rank = (piece * pieces_per_rank) as u64;
        let abs = 1e-3;
        let field = |i: usize| 300.0 + 40.0 * (i as f64 * 1e-3).sin();
        // Rank r owns 1 KiB pieces at stride n KiB — every chunk draws
        // from both nodes, so the shuffle genuinely crosses the
        // interconnect, while the offset-list metadata stays small next
        // to the data.
        let requests: Vec<OffsetList> = (0..n)
            .map(|r| {
                OffsetList::new(
                    (0..pieces_per_rank)
                        .map(|k| Extent {
                            offset: ((r + k * n) * piece) as u64,
                            len: piece as u64,
                        })
                        .collect(),
                )
            })
            .collect();
        let fs = empty_fs((n as u64 * per_rank) as usize);
        let mut model = ClusterModel::test_tiny(n).with_collectives(CollectiveMode::Auto);
        model.topology = Topology::new(2, 3);
        let world = World::new(n, model);
        let stats = {
            let fs = &fs;
            let requests = &requests;
            world.run(move |comm| {
                let file = fs.open("out").expect("exists");
                let req = &requests[comm.rank()];
                let mut data = Vec::new();
                for e in req.extents() {
                    for i in (e.offset / 8)..(e.end() / 8) {
                        data.extend_from_slice(&field(i as usize).to_le_bytes());
                    }
                }
                let hints = Hints {
                    cb_buffer_size: 4096,
                    compression: Compression::ErrorBounded(ErrorBound::absolute(abs)),
                    ..Hints::default()
                };
                collective_write(comm, fs, &file, req, &data, &hints);
                comm.stats()
            })
        };
        let file = fs.open("out").expect("exists");
        let (bytes, _) = fs.read_at(&file, 0, n as u64 * per_rank, SimTime::ZERO);
        let mut max_err = 0.0f64;
        for (i, w) in bytes.chunks_exact(8).enumerate() {
            let got = f64::from_le_bytes(w.try_into().unwrap());
            max_err = max_err.max((got - field(i)).abs());
        }
        assert!(
            max_err <= 2.0 * abs + 1e-12,
            "stored field error {max_err:e} exceeds two-hop bound {:e}",
            2.0 * abs
        );
        let wire: usize = stats.iter().map(|s| s.bytes_inter).sum();
        let logical: usize = stats.iter().map(|s| s.logical_inter).sum();
        assert!(
            logical >= 3 * wire,
            "expected >=3x inter-node wire reduction: logical {logical} wire {wire}"
        );
    }

    /// The write leader's frame lane in closed form. Rank 1 posts its four
    /// up-messages in round order at u, 2u, 3u, 4u (u each); the leader's
    /// own ride the self-send short circuit at 0. Each coalesced frame
    /// costs the leader's lane 2u once its sections are in, so frames
    /// depart at 3u, 5u, 7u, 9u in round order: aggregator 0 (rank 2)
    /// gets its chunks at 3u and 7u, aggregator 1 (rank 3) at 5u and 9u.
    /// Aggregator-major order would starve aggregator 1 until 7u.
    #[test]
    fn write_leader_coalesces_in_round_order() {
        let (model, schedule, u) = crate::twophase::two_remote_aggregators();
        let t = |n: f64| SimTime::from_secs(n * u);
        let schedule = &schedule;
        let tag = TAG_WRITE_SHUFFLE | 1;
        let out = World::new(4, model).run(move |comm| {
            let hints = Hints::default();
            let view = comm.hier_view().expect("two nodes");
            if let Some(a) = schedule.aggregator_index(comm.rank()) {
                let frame_tag = TAG_WRITE_FRAME | (tag & SEQ_MASK);
                let frames = schedule.active_iterations(a).iter();
                return frames
                    .map(|_| comm.recv_bytes_no_clock(0, frame_tag).1)
                    .collect();
            }
            let data = vec![comm.rank() as u8; 200];
            let mut report = WriteReport::default();
            let (sent, slots, readers) =
                send_pieces(comm, schedule, Some(&view), tag, &hints, &data, &mut report);
            comm.lend(tag, &data, slots, readers, |comm| {
                let mut times = vec![sent];
                if view.is_leader(comm.rank()) {
                    let frames = Wire::new(TAG_WRITE_FRAME | (tag & SEQ_MASK), &hints);
                    let loans = NodeLoans::new(tag, view.node_lo..view.node_hi);
                    let relay = Relay::new(comm, schedule, &view, frames, loans);
                    times.push(relay.finish(comm, &mut (), &mut report.segments, 0).0);
                }
                times
            })
        });
        // Leader: own sends done at once, last frame departs at 9u.
        assert_eq!(out[0], vec![SimTime::ZERO, t(9.0)]);
        // Member: its send lane is free after four up-messages.
        assert_eq!(out[1], vec![t(4.0)]);
        // Each aggregator's frames, by iteration.
        assert_eq!(out[2], vec![t(3.0), t(7.0)]);
        assert_eq!(out[3], vec![t(5.0), t(9.0)]);
    }

    #[test]
    #[should_panic]
    fn wrong_buffer_size_panics() {
        let fs = empty_fs(128);
        let mut model = ClusterModel::test_tiny(1);
        model.topology = Topology::new(1, 1);
        let world = World::new(1, model);
        let fs = &fs;
        world.run(move |comm| {
            let file = fs.open("out").expect("exists");
            let req = OffsetList::contiguous(0, 64);
            collective_write(comm, fs, &file, &req, &[0u8; 10], &Hints::default());
        });
    }
}
