//! What both shuffle directions share: the [`Wire`] a leg's messages
//! travel on, and the node leader's [`Relay`], which runs everything but
//! each direction's per-chunk [`Leg::step`].

use cc_model::{Lane, SimTime};
use cc_mpi::comm::TagValue;
use cc_mpi::{Comm, NodeView, Payload};
use cc_profile::{Activity, Segment};

use crate::hints::{Compression, Hints};
use crate::schedule::PlanSchedule;

/// One shuffle leg's wire: the tag its messages travel on, and the codec
/// that compresses them when they cross the interconnect (intra-node and
/// self traffic always travels raw). Frames are self-describing and both
/// ends apply the same deterministic `(codec, same node)` test, so the
/// receiver knows to decode without a header.
#[derive(Clone, Copy)]
pub(crate) struct Wire<'h> {
    pub(crate) tag: TagValue,
    compression: &'h Compression,
}

impl<'h> Wire<'h> {
    /// The wire of `tag` under `hints`' codec.
    pub(crate) fn new(tag: TagValue, hints: &'h Hints) -> Self {
        let compression = &hints.compression;
        Self { tag, compression }
    }

    /// Posts one shuffle message to `dst`: an owned buffer or, from the read
    /// leader, a shared slice of a frame. Encodes `payload` when it crosses
    /// the interconnect, then holds `lane` from `ready` for the
    /// memcpy, the codec, one scatter per piece (non-contiguous runs are
    /// packed one by one, like a derived-datatype scatter — what makes the
    /// shuffle of a finely-fragmented request approach the read cost,
    /// Fig. 1), the NIC serialization of the wire bytes (a node's egress
    /// is a serially-reused resource) and the per-message posting
    /// overhead. Returns the departure time and the logical bytes posted.
    pub(crate) fn post(
        self,
        comm: &mut Comm,
        lane: &mut Lane,
        ready: SimTime,
        dst: usize,
        payload: impl Into<Payload>,
        pieces: usize,
    ) -> (SimTime, u64) {
        let payload = payload.into();
        let same_node = comm.model().topology.same_node(comm.rank(), dst);
        let logical_len = payload.len();
        let (wire, codec) = if self.compression.is_on() && !same_node {
            let mut wire = comm.take_buf(logical_len);
            cc_compress::encode_into(self.compression, &payload, &mut wire);
            comm.recycle_buf(payload);
            (wire.into(), comm.model().cpu.compress_time(logical_len))
        } else {
            (payload, SimTime::ZERO)
        };
        let net = &comm.model().net;
        let cost = comm.model().cpu.memcpy_time(logical_len)
            + codec
            + net.scatter_cost().scale(pieces as f64)
            + net.wire_time(wire.len(), same_node)
            + net.msg_cost(same_node);
        let depart = lane.acquire(ready, cost);
        comm.post_framed_bytes_at(dst, self.tag, wire, depart, logical_len);
        (depart, logical_len as u64)
    }

    /// Receives the next message from `src` on this wire, decoding it (and
    /// recycling the wire buffer) when it crossed the interconnect
    /// compressed. Returns the logical payload, read in place when it is a
    /// shared slice, its arrival, and the decode CPU time (zero for a raw
    /// message).
    pub(crate) fn recv(self, comm: &mut Comm, src: usize) -> (Payload, SimTime, SimTime) {
        let (wire, arrival) = comm.recv_payload_no_clock(src, self.tag);
        if !self.compression.is_on() || comm.model().topology.same_node(src, comm.rank()) {
            return (wire, arrival, SimTime::ZERO);
        }
        let mut logical = comm.take_buf(cc_compress::decoded_len(&wire));
        let n = cc_compress::decode_into(&wire, &mut logical);
        comm.recycle_buf(wire);
        (logical.into(), arrival, comm.model().cpu.decompress_time(n))
    }
}

/// One shuffle direction's step at the node leader: what it does with one
/// chunk of a remote-node aggregator that this node holds bytes of.
pub(crate) trait Leg<'s>: Sized {
    /// What a step writes besides the wire: the read leader's output
    /// buffer, nothing for the write.
    type Out: ?Sized;

    /// Relays chunk `(a, iter)`, of which this node holds `bytes > 0`
    /// bytes, through `relay`'s frame wire and lane.
    fn step(
        relay: &mut Relay<'s, Self>,
        comm: &mut Comm,
        out: &mut Self::Out,
        chunk: (usize, usize),
        bytes: usize,
    );
}

/// The node leader's relay, resumable: for every chunk whose aggregator
/// lives on a *remote* node and that this node holds bytes of, in round
/// order, runs its direction's [`Leg::step`] — one frame per (chunk, node)
/// pair, read by the leader from the aggregator or posted to it.
///
/// A leader that also aggregates advances the relay round by round from
/// its aggregator loop (the read leader once it has posted a round, the
/// write leader before it receives one), so the host holds about one
/// round of frames at a time; a relay only waits on rounds every
/// aggregator has already posted (DESIGN §9). Clocks do not depend on
/// when the host relays: the lane starts at the collective's entry and
/// every departure is stamped from arrivals.
pub(crate) struct Relay<'s, L> {
    pub(crate) schedule: &'s PlanSchedule,
    pub(crate) view: &'s NodeView,
    /// The aggregator ↔ leader frame wire.
    pub(crate) frames: Wire<'s>,
    pub(crate) lane: Lane,
    pub(crate) start: SimTime,
    /// When the last frame or section departed.
    pub(crate) last: SimTime,
    pub(crate) bytes_shuffled: u64,
    /// The next position in [`PlanSchedule::rounds`].
    next: usize,
    /// The direction's own state.
    pub(crate) leg: L,
}

impl<'s, L: Leg<'s>> Relay<'s, L> {
    /// A relay of `view`'s node over `frames`, entered now.
    pub(crate) fn new(
        comm: &Comm,
        schedule: &'s PlanSchedule,
        view: &'s NodeView,
        frames: Wire<'s>,
        leg: L,
    ) -> Self {
        let start = comm.clock();
        Self {
            schedule,
            view,
            frames,
            lane: Lane::free_from(start),
            start,
            last: start,
            bytes_shuffled: 0,
            next: 0,
            leg,
        }
    }

    /// Relays the rounds after the last one relayed, through round
    /// `through` (every remaining round when `None`). Slots are walked in
    /// round order, the order every member and aggregator walks its own
    /// stream in, so FIFO matching pairs them up; restricted to one
    /// aggregator it ascends by iteration, which is how the aggregator
    /// loop runs.
    pub(crate) fn advance(
        &mut self,
        comm: &mut Comm,
        out: &mut L::Out,
        through: Option<(usize, usize)>,
    ) {
        let (schedule, view) = (self.schedule, self.view);
        while let Some(&(a, iter)) = schedule.rounds().get(self.next) {
            self.next += 1;
            // Same-node aggregators trade with the members directly, and a
            // chunk this node holds nothing of has no frame.
            if view.node_of(schedule.aggregator_rank(a)) != view.node {
                let bytes = schedule.bytes_in(a, iter, view.node_lo, view.node_hi);
                if bytes > 0 {
                    L::step(self, comm, out, (a, iter), bytes);
                }
            }
            if through == Some((a, iter)) {
                break;
            }
        }
    }

    /// Relays every remaining round, then books the relay's `Sys` segment
    /// at index `segment_at` of `segments` (the read leader's is pushed
    /// last, the write leader's goes where a relay run before the
    /// aggregator loop would have pushed it). Returns when the last frame
    /// or section departed, the bytes shuffled and the direction's state.
    pub(crate) fn finish(
        mut self,
        comm: &mut Comm,
        out: &mut L::Out,
        segments: &mut Vec<Segment>,
        segment_at: usize,
    ) -> (SimTime, u64, L) {
        self.advance(comm, out, None);
        if self.last > self.start {
            let segment = Segment::new(self.start, self.last, Activity::Sys);
            segments.insert(segment_at, segment);
        }
        (self.last, self.bytes_shuffled, self.leg)
    }
}
