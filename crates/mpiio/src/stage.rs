//! The staging driver the three aggregator loops share: the ring of
//! collective buffers of the paper's Fig. 7 (an I/O thread fills them while
//! a second thread drains them), one ROMIO two-phase round per buffer.
//!
//! With `d` slots, iteration `i` may refill its slot once iteration `i - d`
//! drained it (shuffled, mapped or written it out): depth 1 is blocking
//! two-phase I/O and depth 2 the classic double buffer. Unbounded staging
//! uses one buffer and never floors a read: the engine is assumed to have
//! buffers enough to keep the disk streaming, which also keeps every rank's
//! requests to the shared OST queues causally close in virtual time.
//!
//! The write engine calls `Staging::floor`, `Staging::slot_mut` and
//! [`Staging::drain`]; the read and cc engines call [`Staging::next`],
//! which reads ahead up to the depth horizon. Drain times are rank-local
//! lane completions, so the ring never couples one rank's clock to
//! another's through shared OST state.

use cc_model::{Lane, SimTime};
use cc_pfs::{FileHandle, Pfs};
use cc_profile::{Activity, Segment};

use crate::hints::Hints;
use crate::schedule::PlanSchedule;

/// One staging slot: its buffer, when its last occupant drained, and the
/// read that filled it, `(rlo, ready, read_done)`.
#[derive(Default)]
struct Slot {
    buf: Vec<u8>,
    drained_at: SimTime,
    read: Option<(u64, SimTime, SimTime)>,
}

/// One aggregator's staging ring over its active iterations, and what the
/// aggregator reads or writes.
pub struct Staging<'a> {
    /// The file system.
    pub(crate) pfs: &'a Pfs,
    /// The file read or written.
    pub(crate) file: &'a FileHandle,
    /// The collective's compiled schedule.
    pub schedule: &'a PlanSchedule,
    /// This aggregator's index in the schedule.
    pub agg: usize,
    /// The collective's hints.
    pub hints: &'a Hints,
    iters: &'a [usize],
    bounded: bool,
    slots: Vec<Slot>,
    issued: usize,
    bytes_read: u64,
}

impl<'a> Staging<'a> {
    /// A ring of `Hints::staging_depth` slots (one when unbounded, never
    /// more than there are iterations), every slot free from time zero.
    pub fn new(
        pfs: &'a Pfs,
        file: &'a FileHandle,
        schedule: &'a PlanSchedule,
        agg: usize,
        hints: &'a Hints,
    ) -> Self {
        let iters = schedule.active_iterations(agg);
        let depth = hints.staging_depth();
        let nslots = depth.unwrap_or(1).min(iters.len()).max(1);
        let slots = (0..nslots).map(|_| Slot::default()).collect();
        let bounded = depth.is_some();
        Self {
            pfs,
            file,
            schedule,
            agg,
            hints,
            iters,
            bounded,
            slots,
            issued: 0,
            bytes_read: 0,
        }
    }

    /// The aggregator's active iterations: position `pos` stages
    /// `iters()[pos]`.
    pub fn iters(&self) -> &'a [usize] {
        self.iters
    }

    /// When position `pos` may refill its slot: when the slot's previous
    /// occupant drained (zero when unbounded).
    pub(crate) fn floor(&self, pos: usize) -> SimTime {
        self.slots[pos % self.slots.len()].drained_at
    }

    /// Position `pos`'s staging buffer.
    pub(crate) fn slot_mut(&mut self, pos: usize) -> &mut Vec<u8> {
        let n = self.slots.len();
        &mut self.slots[pos % n].buf
    }

    /// Records that position `pos` drained its slot at `t`. A position that
    /// staged nothing skips this: its slot keeps the previous occupant's time.
    pub fn drain(&mut self, pos: usize, t: SimTime) {
        let n = self.slots.len();
        if self.bounded {
            self.slots[pos % n].drained_at = t;
        }
    }

    /// Issues every read up to position `pos`'s horizon on `io_lane` — one
    /// vectorized `read_multi` per iteration, a `Wait` segment each — then
    /// hands back `pos`'s `(iter, rlo, ready, read_done, chunk)`, or `None`
    /// when its iteration read nothing. `chunk[0]` is file offset `rlo`.
    pub fn next(
        &mut self,
        pos: usize,
        io_lane: &mut Lane,
        segments: &mut Vec<Segment>,
    ) -> Option<(usize, u64, SimTime, SimTime, &[u8])> {
        let n = self.slots.len();
        while self.issued < self.iters.len().min(pos + n) {
            let j = self.issued;
            self.issued += 1;
            let floor = self.floor(j);
            let slot = &mut self.slots[j % n];
            let ranges = self.schedule.read_ranges(self.agg, self.iters[j]);
            slot.read = None;
            let Some(&(rlo, _)) = ranges.first() else {
                continue;
            };
            let ready = io_lane.free_at().max(floor);
            let read_done = self
                .pfs
                .read_multi(self.file, rlo, ranges, ready, &mut slot.buf);
            io_lane.advance_to(read_done);
            self.bytes_read += ranges.iter().map(|&(_, len)| len).sum::<u64>();
            segments.push(Segment::new(ready, read_done, Activity::Wait));
            slot.read = Some((rlo, ready, read_done));
        }
        let slot = &self.slots[pos % n];
        let (rlo, ready, read_done) = slot.read?;
        Some((self.iters[pos], rlo, ready, read_done, &slot.buf))
    }

    /// Bytes [`next`](Self::next) has read from the file system.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::OffsetList;
    use crate::hints::PipelineDepth;
    use crate::plan::{CollectivePlan, FileDomain};
    use cc_model::DiskModel;
    use cc_pfs::{MemBackend, StripeLayout};
    use std::sync::Arc;

    /// Eight 256-byte chunks of one file on one OST with no seek cost and
    /// 1 KiB/s streaming, so every read takes exactly a quarter second;
    /// one aggregator (rank 0) requests them all.
    fn eight_chunks() -> (Pfs, PlanSchedule) {
        let size = 8 * 256;
        let pfs = Pfs::new(
            1,
            DiskModel {
                seek: 0.0,
                ost_bandwidth: 1024.0,
            },
        );
        pfs.create(
            "f",
            StripeLayout::round_robin(size, 1, 0, 1),
            Box::new(MemBackend::zeroed(size as usize)),
        );
        let plan = CollectivePlan {
            aggregators: vec![0],
            domains: vec![FileDomain::contiguous(0, size)],
            cb: 256,
            requests: Arc::new(vec![OffsetList::contiguous(0, size)]),
        };
        (pfs, PlanSchedule::compile(plan))
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Drives the read-ahead loop with a one-second drain per iteration on
    /// its own lane and returns each iteration's `(ready, drained)`.
    fn reads_and_drains(nonblocking: bool, depth: PipelineDepth) -> Vec<(SimTime, SimTime)> {
        let (pfs, schedule) = eight_chunks();
        let file = pfs.open("f").expect("exists");
        let hints = Hints {
            nonblocking,
            pipeline_depth: depth,
            ..Hints::default()
        };
        let mut stage = Staging::new(&pfs, &file, &schedule, 0, &hints);
        let (mut io_lane, mut drain_lane) = (Lane::new(), Lane::new());
        let mut segments = Vec::new();
        let mut out = Vec::new();
        for pos in 0..stage.iters().len() {
            let (_, _, ready, read_done, chunk) = stage
                .next(pos, &mut io_lane, &mut segments)
                .expect("every chunk is read");
            assert_eq!(chunk.len(), 256);
            let drained = drain_lane.acquire(read_done, t(1.0));
            stage.drain(pos, drained);
            out.push((ready, drained));
        }
        assert_eq!(stage.bytes_read(), 8 * 256);
        assert_eq!(segments.len(), 8);
        out
    }

    /// DESIGN §11's recurrence at depth 1: every read starts exactly when
    /// the previous iteration drained, so read and drain strictly alternate
    /// — 1.25 s per iteration, the blocking two-phase clock.
    #[test]
    fn depth_one_reads_wait_for_the_previous_drain() {
        let clocks = reads_and_drains(false, PipelineDepth::Unbounded);
        for (k, &(ready, drained)) in clocks.iter().enumerate() {
            assert_eq!(ready, t(1.25 * k as f64), "read {k}");
            assert_eq!(drained, t(1.25 * (k + 1) as f64), "drain {k}");
            if k > 0 {
                assert_eq!(
                    ready,
                    clocks[k - 1].1,
                    "read {k} must start at drain {}",
                    k - 1
                );
            }
        }
    }

    /// Any deeper ring overlaps: the read of `i + 1` starts before `i`
    /// drains. Double buffering floors each read at the drain two back;
    /// unbounded staging streams reads back to back.
    #[test]
    fn deeper_rings_read_ahead_of_the_drain() {
        for depth in [PipelineDepth::Depth(2), PipelineDepth::Unbounded] {
            let clocks = reads_and_drains(true, depth);
            for i in 0..clocks.len() - 1 {
                assert!(
                    clocks[i + 1].0 < clocks[i].1,
                    "{depth:?}: read {} waited",
                    i + 1
                );
            }
            // The drain lane is the bottleneck either way: 0.25 s of read,
            // then one drain per second.
            for (k, &(_, drained)) in clocks.iter().enumerate() {
                assert_eq!(drained, t(0.25 + (k + 1) as f64), "{depth:?} drain {k}");
            }
        }
        let double = reads_and_drains(true, PipelineDepth::Depth(2));
        assert_eq!(
            double[2].0, double[0].1,
            "depth 2 refills slot 0 once it drains"
        );
        let unbounded = reads_and_drains(true, PipelineDepth::Unbounded);
        assert_eq!(unbounded[7].0, t(7.0 * 0.25), "unbounded reads stream");
    }

    #[test]
    fn buffer_ring_limits_lookahead() {
        // Depth-2 ring: iteration 2 cannot start before iteration 0 drains.
        let (pfs, schedule) = eight_chunks();
        let file = pfs.open("f").expect("exists");
        let hints = Hints {
            pipeline_depth: PipelineDepth::Depth(2),
            ..Hints::default()
        };
        let mut ring = Staging::new(&pfs, &file, &schedule, 0, &hints);
        assert_eq!(ring.floor(0), SimTime::ZERO);
        assert_eq!(ring.floor(1), SimTime::ZERO);
        ring.drain(0, t(5.0));
        assert_eq!(ring.floor(2), t(5.0));
        assert_eq!(ring.floor(3), SimTime::ZERO);
    }
}
