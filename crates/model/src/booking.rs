//! Interval booking: the virtual-time capacity algebra shared resources use.
//!
//! A [`BusyLedger`] tracks disjoint, sorted, coalesced busy intervals of one
//! serially-shared resource and books new service as *intervals in virtual
//! time with backfill*: a request arriving at virtual time `t` takes the
//! earliest free interval at or after `t` that fits its service time.
//! Backfill matters because client threads run at different wall-clock
//! speeds — a thread that races ahead books slots deep in the virtual
//! future, and without backfill it would starve threads whose virtual
//! clocks lag behind their wall-clock arrival, an artifact no real device
//! exhibits. With backfill, capacity is conserved and contention emerges
//! from genuinely overlapping virtual-time demand.
//!
//! The ledger began life inside `cc-pfs`'s OST scheduler; it is hoisted
//! here so the multi-job service layer can arbitrate *any* shared resource
//! — per-OST disk service, and the cluster's inter-node backbone via
//! [`SharedLane`] — with identical semantics.

use std::sync::Mutex;

use crate::time::SimTime;

/// Disjoint, sorted, coalesced busy intervals `[start, end)` of one
/// serially-shared resource. Memory stays proportional to the number of
/// idle gaps, not the number of bookings.
#[derive(Debug, Default, Clone)]
pub struct BusyLedger {
    busy: Vec<(SimTime, SimTime)>,
}

impl BusyLedger {
    /// An empty (fully idle) ledger.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Books the earliest interval of length `dur` starting at or after
    /// `now`; returns its end.
    pub fn book(&mut self, now: SimTime, dur: SimTime) -> SimTime {
        let mut start = now;
        // Intervals ending at or before `now` can never conflict nor offer
        // a usable gap, so the scan starts at the first interval ending
        // after `now` — deep virtual-future books skip the whole history.
        let first = self.busy.partition_point(|&(_, e)| e <= now);
        let mut pos = self.busy.len();
        for (i, &(b_start, b_end)) in self.busy.iter().enumerate().skip(first) {
            if b_end <= start {
                continue; // interval entirely before our earliest start
            }
            if start + dur <= b_start {
                pos = i; // fits in the gap before this interval
                break;
            }
            start = start.max(b_end);
        }
        let end = start + dur;
        // The gap search guarantees the new interval overlaps nothing, and
        // `pos` is its sorted position — merge in place with whichever
        // neighbours it exactly abuts (`start` came from a neighbour's end,
        // so abutment is exact equality).
        let abuts_prev = pos > 0 && self.busy[pos - 1].1 == start;
        let abuts_next = pos < self.busy.len() && end == self.busy[pos].0;
        match (abuts_prev, abuts_next) {
            (true, true) => {
                self.busy[pos - 1].1 = self.busy[pos].1;
                self.busy.remove(pos);
            }
            (true, false) => self.busy[pos - 1].1 = end,
            (false, true) => self.busy[pos].0 = start,
            (false, false) => self.busy.insert(pos, (start, end)),
        }
        end
    }

    /// Marks the resource busy from time zero until `until`, pushing all
    /// service behind the block (a stalled controller, a link failover).
    pub fn block_until(&mut self, until: SimTime) {
        if until > SimTime::ZERO {
            self.busy.push((SimTime::ZERO, until));
            self.coalesce();
        }
    }

    /// Re-sorts and merges the interval list. [`book`](Self::book) keeps
    /// the list coalesced incrementally; this is only needed after an
    /// out-of-order push like [`block_until`](Self::block_until).
    fn coalesce(&mut self) {
        self.busy.sort_by_key(|&(s, _)| s);
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(self.busy.len());
        for &(s, e) in &self.busy {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.busy = merged;
    }

    /// The booked intervals, sorted and disjoint.
    pub fn intervals(&self) -> &[(SimTime, SimTime)] {
        &self.busy
    }

    /// Seconds of booked service lying at or after `now` — the resource's
    /// queue depth in service-seconds at the probe time: how long a zero-
    /// length request arriving at `now` could be pushed back, worst case.
    pub fn backlog_secs(&self, now: SimTime) -> f64 {
        self.busy
            .iter()
            .filter(|&&(_, e)| e > now)
            .map(|&(s, e)| (e - s.max(now)).secs())
            .sum()
    }
}

/// Aggregate counters of one [`SharedLane`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaneStats {
    /// Transfers booked.
    pub(crate) transfers: u64,
    /// Bytes streamed.
    pub bytes: u64,
    /// Service seconds booked (independent of coalescing).
    pub(crate) busy_secs: f64,
    /// Seconds transfers spent queued behind other bookings (booked start
    /// minus requested start, summed).
    pub(crate) waited_secs: f64,
}

/// One capacity-shared network lane — the cluster's inter-node backbone as
/// seen by the multi-job service layer.
///
/// Per-message wire time inside a job is already charged by
/// [`NetModel`](crate::NetModel) on uncontended per-link terms; what that
/// model cannot express is *other jobs'* traffic occupying the same
/// aggregate fabric. A `SharedLane` arbitrates exactly that: each job books
/// its inter-node bytes (`bytes / bytes_per_sec` of service) with backfill,
/// and the completion it gets back reflects every other job's overlapping
/// demand. Thread-safe; jobs book concurrently.
#[derive(Debug)]
pub struct SharedLane {
    state: Mutex<(BusyLedger, LaneStats)>,
    bytes_per_sec: f64,
}

impl SharedLane {
    /// A lane streaming `bytes_per_sec` of aggregate capacity.
    ///
    /// # Panics
    /// Panics on a non-positive capacity.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0,
            "shared lane needs positive capacity, got {bytes_per_sec}"
        );
        Self {
            state: Mutex::new((BusyLedger::new(), LaneStats::default())),
            bytes_per_sec,
        }
    }

    /// Books a transfer of `bytes` requested at virtual time `now` and
    /// returns its completion time (`now` for an empty transfer). Backfill
    /// booking: an early-requested transfer takes the earliest free
    /// interval at or after its own `now`, never capacity a lagging peer
    /// still needs.
    pub fn book_bytes(&self, now: SimTime, bytes: u64) -> SimTime {
        if bytes == 0 {
            return now;
        }
        let service = SimTime::from_secs(bytes as f64 / self.bytes_per_sec);
        let mut state = self.state.lock().unwrap();
        let done = state.0.book(now, service);
        state.1.transfers += 1;
        state.1.bytes += bytes;
        state.1.busy_secs += service.secs();
        state.1.waited_secs += (done - service).saturating_since(now).secs();
        done
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> LaneStats {
        self.state.lock().unwrap().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl BusyLedger {
        /// The end of the last booked interval (time zero when idle): the
        /// virtual horizon up to which this resource's capacity is spoken for.
        fn horizon(&self) -> SimTime {
            self.busy.last().map_or(SimTime::ZERO, |&(_, e)| e)
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn sequential_bookings_queue_and_backfill() {
        let mut l = BusyLedger::new();
        assert_eq!(l.book(SimTime::ZERO, t(2.0)), t(2.0));
        assert_eq!(l.book(SimTime::ZERO, t(2.0)), t(4.0));
        // A far-future booking then a backfill into the idle gap.
        assert_eq!(l.book(t(100.0), t(2.0)), t(102.0));
        assert_eq!(l.book(t(4.0), t(2.0)), t(6.0));
        assert_eq!(l.intervals().len(), 2, "abutting intervals coalesce");
    }

    #[test]
    fn block_until_pushes_service_back() {
        let mut l = BusyLedger::new();
        l.block_until(t(10.0));
        assert_eq!(l.book(SimTime::ZERO, t(1.0)), t(11.0));
    }

    #[test]
    fn backlog_counts_only_future_service() {
        let mut l = BusyLedger::new();
        let _ = l.book(SimTime::ZERO, t(4.0)); // [0, 4)
        let _ = l.book(t(10.0), t(2.0)); // [10, 12)
        assert!((l.backlog_secs(t(2.0)) - 4.0).abs() < 1e-12); // [2,4) + [10,12)
        assert!((l.backlog_secs(t(20.0))).abs() < 1e-12);
        assert_eq!(l.horizon(), t(12.0));
    }

    #[test]
    fn shared_lane_serializes_overlapping_jobs() {
        let lane = SharedLane::new(100.0);
        // Two jobs book 200 bytes each at the same instant: 2 s each,
        // serialized on the shared capacity.
        let a = lane.book_bytes(SimTime::ZERO, 200);
        let b = lane.book_bytes(SimTime::ZERO, 200);
        assert_eq!(a, t(2.0));
        assert_eq!(b, t(4.0));
        let s = lane.stats();
        assert_eq!(s.transfers, 2);
        assert_eq!(s.bytes, 400);
        assert!((s.busy_secs - 4.0).abs() < 1e-12);
        assert!(
            (s.waited_secs - 2.0).abs() < 1e-12,
            "second booking queued 2 s"
        );
    }

    #[test]
    fn shared_lane_empty_transfer_is_free() {
        let lane = SharedLane::new(10.0);
        assert_eq!(lane.book_bytes(t(3.0), 0), t(3.0));
        assert_eq!(lane.stats(), LaneStats::default());
    }

    proptest! {
        #[test]
        fn prop_ledger_conserves_capacity(
            reqs in proptest::collection::vec((0u64..1000, 1u64..500), 1..40),
        ) {
            // Completion >= now + dur; intervals stay disjoint and cover
            // exactly the booked service, regardless of booking order.
            let mut l = BusyLedger::new();
            let mut total = 0.0;
            for (now, dur) in &reqs {
                let now = SimTime::from_secs(*now as f64 / 100.0);
                let dur = SimTime::from_secs(*dur as f64 / 100.0);
                let done = l.book(now, dur);
                total += dur.secs();
                prop_assert!(done >= now + dur);
            }
            let mut covered = 0.0;
            let mut prev_end = SimTime::ZERO;
            for &(s, e) in l.intervals() {
                prop_assert!(s >= prev_end, "intervals overlap");
                covered += (e - s).secs();
                prev_end = e;
            }
            prop_assert!((covered - total).abs() < 1e-9);
            prop_assert!((l.backlog_secs(SimTime::ZERO) - total).abs() < 1e-9);
        }
    }
}
