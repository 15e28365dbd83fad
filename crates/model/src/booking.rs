//! Interval booking: the one calendar every shared resource is booked on.
//!
//! A [`Calendar`] is one serially-shared resource. It books new service as
//! *intervals in virtual time with backfill*: a request arriving at virtual
//! time `t` takes the earliest free interval at or after `t` that fits its
//! service time. Backfill matters because client threads run at different
//! wall-clock speeds — a thread that races ahead books slots deep in the
//! virtual future, and without backfill it would starve threads whose
//! virtual clocks lag behind their wall-clock arrival, an artifact no real
//! device exhibits. With backfill, capacity is conserved and contention
//! emerges from genuinely overlapping virtual-time demand.
//!
//! Every shared resource the simulator arbitrates is a calendar: each OST
//! of a `cc-pfs` file system (booked for its disk service time), and the
//! `cc-service` backbone lane (booked for `bytes / bytes_per_sec`).
//! Calendar bookings are the points where the order in which the OS runs
//! client threads can decide a virtual clock (DESIGN §1).

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::time::SimTime;

/// Disjoint, sorted, coalesced busy intervals `[start, end)` of one
/// serially-shared resource. Memory stays proportional to the number of
/// idle gaps, not the number of bookings.
#[derive(Debug, Default)]
struct BusyLedger {
    busy: Vec<(SimTime, SimTime)>,
}

impl BusyLedger {
    /// Books the earliest interval of length `dur` starting at or after
    /// `now`; returns its end.
    fn book(&mut self, now: SimTime, dur: SimTime) -> SimTime {
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

    /// Marks the resource busy from time zero until `until`.
    fn block_until(&mut self, until: SimTime) {
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

    /// Seconds of booked service lying at or after `now`.
    fn backlog_secs(&self, now: SimTime) -> f64 {
        let first = self.busy.partition_point(|&(_, e)| e <= now);
        self.busy[first..]
            .iter()
            .map(|&(s, e)| (e - s.max(now)).secs())
            .sum()
    }
}

/// What a [`Calendar`] has served so far, plus its queue depth at the
/// probe time. `cc-pfs` re-exports it as `OstSnapshot`; the service
/// reports its backbone lane's as `ServiceOutcome::lane`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Load {
    /// Bytes served.
    pub bytes: u64,
    /// Service seconds booked (independent of coalescing; a
    /// [`block_until`](Calendar::block_until) window is not service).
    pub busy_secs: f64,
    /// Seconds requests spent queued behind other bookings (booked start
    /// minus requested start, summed).
    pub waited_secs: f64,
    /// Requests that could not start at their requested time.
    pub delayed_requests: u64,
    /// Service seconds booked at or after the probe time — the queue
    /// depth in service-seconds: how long a zero-length request arriving
    /// then could be pushed back, worst case.
    pub(crate) backlog_secs: f64,
}

/// One serially-shared resource's booking calendar: busy intervals with
/// backfill, and the [`Load`] they add up to, under one lock.
/// Thread-safe; clients book concurrently.
#[derive(Debug, Default)]
pub struct Calendar {
    state: Mutex<(BusyLedger, Load)>,
}

impl Calendar {
    /// The calendar's state. A client that panicked while holding the lock
    /// left it consistent — every booking completes before the next one
    /// starts — so a poisoned lock is taken as it is, and one failed job
    /// does not take the resource down for every later one.
    fn state(&self) -> MutexGuard<'_, (BusyLedger, Load)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Books `service` seconds for `bytes` requested at virtual time `now`
    /// and returns the completion time: the earliest free interval at or
    /// after `now`, never capacity a lagging peer still needs. A
    /// zero-length booking is free: it returns `now` and records nothing.
    pub fn book(&self, now: SimTime, service: SimTime, bytes: u64) -> SimTime {
        Self::book_locked(&mut self.state(), now, service, bytes)
    }

    /// Books a chain of `(service, bytes)` runs under one lock, each run
    /// requested at the previous one's completion, exactly as sequential
    /// [`book`](Self::book) calls would. Returns the completion of the last
    /// run (`now` for an empty chain).
    pub fn book_chain(
        &self,
        now: SimTime,
        runs: impl IntoIterator<Item = (SimTime, u64)>,
    ) -> SimTime {
        let mut state = self.state();
        runs.into_iter().fold(now, |done, (service, bytes)| {
            Self::book_locked(&mut state, done, service, bytes)
        })
    }

    /// Marks the resource unavailable from time zero until `until`, pushing
    /// all service behind the block (a stalled controller, a link
    /// failover). The window is not billed as busy seconds.
    pub fn block_until(&self, until: SimTime) {
        self.state().0.block_until(until);
    }

    /// The load so far, with the backlog still booked at or after `now`.
    pub fn load(&self, now: SimTime) -> Load {
        let state = self.state();
        Load {
            backlog_secs: state.0.backlog_secs(now),
            ..state.1
        }
    }

    /// Service seconds booked so far: `load(now).busy_secs` without the
    /// backlog scan, for callers that total it around every job step.
    pub fn busy_secs(&self) -> f64 {
        self.state().1.busy_secs
    }

    /// One [`book`](Self::book) on the locked state.
    fn book_locked(
        state: &mut (BusyLedger, Load),
        now: SimTime,
        service: SimTime,
        bytes: u64,
    ) -> SimTime {
        if service == SimTime::ZERO {
            return now;
        }
        let (ledger, load) = state;
        let done = ledger.book(now, service);
        load.bytes += bytes;
        load.busy_secs += service.secs();
        let waited = (done - service).saturating_since(now);
        if waited > SimTime::ZERO {
            load.waited_secs += waited.secs();
            load.delayed_requests += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Calendar {
        /// The booked intervals, sorted and disjoint.
        fn intervals(&self) -> Vec<(SimTime, SimTime)> {
            self.state().0.busy.clone()
        }

        /// The end of the last booked interval (time zero when idle): the
        /// virtual horizon up to which this resource's capacity is spoken for.
        fn horizon(&self) -> SimTime {
            self.state()
                .0
                .busy
                .last()
                .map_or(SimTime::ZERO, |&(_, e)| e)
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The service time of a 100-byte extent on a disk with a 1 s seek and
    /// 100 B/s streaming: the unit the queueing tests book in.
    const EXTENT: f64 = 2.0;

    fn extent(c: &Calendar, now: f64) -> SimTime {
        c.book(t(now), t(EXTENT), 100)
    }

    #[test]
    fn sequential_bookings_queue_and_backfill() {
        let c = Calendar::default();
        assert_eq!(c.book(SimTime::ZERO, t(2.0), 0), t(2.0));
        assert_eq!(c.book(SimTime::ZERO, t(2.0), 0), t(4.0));
        // A far-future booking then a backfill into the idle gap.
        assert_eq!(c.book(t(100.0), t(2.0), 0), t(102.0));
        assert_eq!(c.book(t(4.0), t(2.0), 0), t(6.0));
        assert_eq!(c.intervals().len(), 2, "abutting intervals coalesce");
    }

    #[test]
    fn sequential_requests_queue() {
        let c = Calendar::default();
        // Two requests at t=0 serialize.
        assert_eq!(extent(&c, 0.0).secs(), 2.0);
        assert_eq!(extent(&c, 0.0).secs(), 4.0);
        // An idle calendar starts a request at its request time.
        let idle = Calendar::default();
        assert_eq!(extent(&idle, 10.0).secs(), 12.0);
    }

    #[test]
    fn backfill_uses_earlier_gaps() {
        let c = Calendar::default();
        // A far-future booking must not starve an earlier request.
        assert_eq!(extent(&c, 100.0).secs(), 102.0); // books [100, 102)
        assert_eq!(extent(&c, 0.0).secs(), 2.0); // backfills [0, 2)
                                                 // A 2 s request at t=1 fits the gap [2, 100) at [2, 4).
        assert_eq!(extent(&c, 1.0).secs(), 4.0);
    }

    #[test]
    fn gap_too_small_is_skipped() {
        let c = Calendar::default();
        let _ = extent(&c, 3.0); // [3, 5)
        let _ = extent(&c, 0.0); // [0, 2) backfill
                                 // At t=1.5 the gap [2, 3) is 1 s, too small for 2 s: the request
                                 // lands after [3, 5).
        assert_eq!(extent(&c, 1.5).secs(), 7.0);
    }

    #[test]
    fn intervals_coalesce() {
        let c = Calendar::default();
        for _ in 0..100 {
            let _ = extent(&c, 0.0);
        }
        // All requests form one solid busy block [0, 200).
        assert_eq!(extent(&c, 0.0).secs(), 202.0);
        assert_eq!(c.intervals().len(), 1);
    }

    #[test]
    fn deep_future_book_skips_history() {
        // Many early bookings, then one far in the virtual future: the
        // partition_point start must land it correctly after history.
        let c = Calendar::default();
        for i in 0..50 {
            let _ = extent(&c, i as f64 * 10.0); // [10i, 10i+2)
        }
        assert_eq!(extent(&c, 1000.0).secs(), 1002.0);
        // And a backfill into an early gap still works.
        assert_eq!(extent(&c, 2.0).secs(), 4.0);
    }

    #[test]
    fn block_until_pushes_service_back() {
        let c = Calendar::default();
        c.block_until(t(10.0));
        assert_eq!(c.book(SimTime::ZERO, t(1.0), 0), t(11.0));
        // The blocked window is not service.
        assert!((c.busy_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backlog_counts_only_future_service() {
        let c = Calendar::default();
        let _ = c.book(SimTime::ZERO, t(4.0), 0); // [0, 4)
        let _ = c.book(t(10.0), t(2.0), 0); // [10, 12)
        assert!((c.load(t(2.0)).backlog_secs - 4.0).abs() < 1e-12); // [2,4) + [10,12)
        assert!((c.load(t(20.0)).backlog_secs).abs() < 1e-12);
        assert_eq!(c.horizon(), t(12.0));
    }

    #[test]
    fn load_reports_waits_and_backlog() {
        let c = Calendar::default();
        assert_eq!(extent(&c, 0.0), t(2.0)); // [0, 2), no wait
        assert_eq!(extent(&c, 0.0), t(4.0)); // [2, 4), waited 2 s
        let s = c.load(t(1.0));
        assert_eq!(s.bytes, 200);
        assert!((s.busy_secs - 4.0).abs() < 1e-12);
        assert!((s.waited_secs - 2.0).abs() < 1e-12);
        assert_eq!(s.delayed_requests, 1);
        // At t=1, three of the four booked seconds are still ahead.
        assert!((s.backlog_secs - 3.0).abs() < 1e-12);
        // An idle calendar is all zeros.
        assert_eq!(Calendar::default().load(t(1.0)), Load::default());
        // Past the horizon the backlog drains to zero; totals remain.
        let late = c.load(t(10.0));
        assert!((late.backlog_secs).abs() < 1e-12);
        assert_eq!(late.bytes, 200);
    }

    #[test]
    fn shared_lane_serializes_overlapping_jobs() {
        // A lane of 100 B/s: two jobs book 200 bytes each at the same
        // instant, 2 s each, serialized on the shared capacity.
        let lane = Calendar::default();
        let a = lane.book(SimTime::ZERO, t(200.0 / 100.0), 200);
        let b = lane.book(SimTime::ZERO, t(200.0 / 100.0), 200);
        assert_eq!(a, t(2.0));
        assert_eq!(b, t(4.0));
        let s = lane.load(t(4.0));
        assert_eq!(s.delayed_requests, 1);
        assert_eq!(s.bytes, 400);
        assert!((s.busy_secs - 4.0).abs() < 1e-12);
        assert!(
            (s.waited_secs - 2.0).abs() < 1e-12,
            "second booking queued 2 s"
        );
    }

    #[test]
    fn shared_lane_empty_transfer_is_free() {
        let lane = Calendar::default();
        assert_eq!(lane.book(t(3.0), SimTime::ZERO, 0), t(3.0));
        assert_eq!(lane.book_chain(t(5.0), []), t(5.0));
        assert_eq!(lane.load(SimTime::ZERO), Load::default());
        assert!(lane.intervals().is_empty());
    }

    proptest! {
        #[test]
        fn prop_ledger_conserves_capacity(
            reqs in proptest::collection::vec((0u64..1000, 1u64..500), 1..40),
        ) {
            // Completion >= now + dur; intervals stay disjoint and cover
            // exactly the booked service, regardless of booking order.
            let c = Calendar::default();
            let mut total = 0.0;
            for (now, dur) in &reqs {
                let now = SimTime::from_secs(*now as f64 / 100.0);
                let dur = SimTime::from_secs(*dur as f64 / 100.0);
                let done = c.book(now, dur, 1);
                total += dur.secs();
                prop_assert!(done >= now + dur);
            }
            let mut covered = 0.0;
            let mut prev_end = SimTime::ZERO;
            for (s, e) in c.intervals() {
                prop_assert!(s >= prev_end, "intervals overlap");
                covered += (e - s).secs();
                prev_end = e;
            }
            let load = c.load(SimTime::ZERO);
            prop_assert!((covered - total).abs() < 1e-9);
            prop_assert!((load.backlog_secs - total).abs() < 1e-9);
            prop_assert!((load.busy_secs - total).abs() < 1e-9);
            prop_assert_eq!(load.bytes, reqs.len() as u64);
        }

    }
}
