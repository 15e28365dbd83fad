//! OST service scheduling.
//!
//! Each OST serves one extent at a time. Service is booked as *intervals
//! in virtual time with backfill*: a request arriving at virtual time `t`
//! takes the earliest free interval at or after `t` that fits its service
//! time. Backfill matters because rank threads run at different wall-clock
//! speeds — a thread that races ahead books slots deep in the virtual
//! future, and without backfill it would starve threads whose virtual
//! clocks lag behind their wall-clock arrival, an artifact no real disk
//! exhibits. With backfill, OST capacity is conserved and contention
//! emerges from genuinely overlapping virtual-time demand.
//!
//! Booked intervals are coalesced, so memory stays proportional to the
//! number of idle gaps, not the number of requests.
//!
//! Persistent degradation from a [`cc_model::FaultPlan`] is applied with
//! `OstPool::apply_faults`: a *slow* OST multiplies every service time,
//! and a *stalled* OST books its whole stall window up front so the first
//! requests queue behind it — a controller failover, as seen by clients.

use cc_model::{BusyLedger, DiskModel, FaultPlan, SimTime};
use std::sync::Mutex;

#[derive(Debug, Default)]
struct OstState {
    /// Busy intervals, delegated to the shared interval algebra in
    /// `cc_model::booking` (hoisted from this module so the service layer
    /// can arbitrate other resources with identical semantics).
    ledger: BusyLedger,
    requests: u64,
    bytes: u64,
    /// Total service seconds booked (independent of coalescing).
    busy_secs: f64,
    /// Seconds requests spent queued behind other bookings (booked start
    /// minus requested start, summed over all requests).
    waited_secs: f64,
    /// Requests that could not start at their requested time.
    delayed_requests: u64,
}

impl OstState {
    /// Books one extent's service and updates the load counters; returns
    /// the completion time.
    fn book(&mut self, now: SimTime, service: SimTime, bytes: u64) -> SimTime {
        let done = self.ledger.book(now, service);
        self.requests += 1;
        self.bytes += bytes;
        self.busy_secs += service.secs();
        let waited = (done - service).saturating_since(now);
        if waited > SimTime::ZERO {
            self.waited_secs += waited.secs();
            self.delayed_requests += 1;
        }
        done
    }
}

/// A point-in-time view of one OST's load, for attributing cross-job
/// contention: cumulative totals plus the queue depth (backlog of already-
/// booked service) at the probe time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OstSnapshot {
    /// Extents served so far.
    pub(crate) requests: u64,
    /// Bytes served so far.
    pub bytes: u64,
    /// Total service seconds booked so far.
    pub busy_secs: f64,
    /// Seconds requests spent queued behind other bookings so far.
    pub waited_secs: f64,
    /// Requests that could not start at their requested time.
    pub delayed_requests: u64,
    /// Service seconds booked at or after the probe time — the OST's
    /// queue depth in service-seconds.
    pub(crate) backlog_secs: f64,
}

/// The OST pool of one file system.
pub(crate) struct OstPool {
    osts: Vec<Mutex<OstState>>,
    disk: DiskModel,
    /// Per-OST service-time multiplier (1.0 = healthy), from the fault plan.
    slowdown: Vec<f64>,
}

impl OstPool {
    /// A pool of `count` idle OSTs sharing one disk model.
    pub(crate) fn new(count: usize, disk: DiskModel) -> Self {
        assert!(count > 0, "need at least one OST");
        Self {
            osts: (0..count)
                .map(|_| Mutex::new(OstState::default()))
                .collect(),
            disk,
            slowdown: vec![1.0; count],
        }
    }

    /// Number of OSTs.
    pub(crate) fn count(&self) -> usize {
        self.osts.len()
    }

    /// Applies the OST-degradation part of a fault plan: slow OSTs serve
    /// every extent at a multiple of the healthy service time, stalled
    /// OSTs are blocked from time zero until their stall deadline.
    /// OST indices outside the pool are ignored (the plan may be written
    /// for a larger machine).
    pub(crate) fn apply_faults(&mut self, plan: &FaultPlan) {
        for (ost, factor) in self.slowdown.iter_mut().enumerate() {
            *factor = plan.ost_slowdown(ost);
        }
        for (ost, state) in self.osts.iter_mut().enumerate() {
            // The stall window is not billed as busy seconds — the OST is
            // unavailable, not doing work.
            state
                .get_mut()
                .unwrap()
                .ledger
                .block_until(plan.ost_stall(ost));
        }
    }

    /// Healthy (fault-free) service time for one extent on `ost` —
    /// what an idle, undegraded OST would take.
    pub(crate) fn ideal_service_time(&self, bytes: u64) -> SimTime {
        self.disk.service_time(bytes as usize)
    }

    /// Serves one contiguous extent of `bytes` on `ost`, requested at
    /// virtual time `now`. Returns the completion time.
    pub(crate) fn serve(&self, ost: usize, now: SimTime, bytes: u64) -> SimTime {
        let mut state = self.osts[ost].lock().unwrap();
        let service = self
            .disk
            .service_time(bytes as usize)
            .scale(self.slowdown[ost]);
        state.book(now, service, bytes)
    }

    /// Serves a batch of merged extent runs on `ost` under a single lock
    /// acquisition, chaining each run after the previous one's completion
    /// exactly as sequential [`serve`](Self::serve) calls would. Returns
    /// the completion time of the last run (`now` if the batch is empty).
    pub(crate) fn book_many(&self, ost: usize, now: SimTime, byte_runs: &[u64]) -> SimTime {
        if byte_runs.is_empty() {
            return now;
        }
        let mut state = self.osts[ost].lock().unwrap();
        let mut done = now;
        for &bytes in byte_runs {
            let service = self
                .disk
                .service_time(bytes as usize)
                .scale(self.slowdown[ost]);
            done = state.book(done, service, bytes);
        }
        done
    }

    /// Total service seconds booked per OST — the utilization profile of
    /// the pool, for diagnosing striping imbalance.
    pub(crate) fn per_ost_busy_secs(&self) -> Vec<f64> {
        self.osts
            .iter()
            .map(|o| o.lock().unwrap().busy_secs)
            .collect()
    }

    /// Load imbalance: busiest OST's service time over the mean (1.0 =
    /// perfectly balanced; only meaningful once traffic has flowed).
    pub(crate) fn imbalance(&self) -> f64 {
        let busy = self.per_ost_busy_secs();
        let total: f64 = busy.iter().sum();
        if total <= 0.0 {
            return 1.0;
        }
        let mean = total / busy.len() as f64;
        busy.iter().cloned().fold(0.0, f64::max) / mean
    }

    /// Per-OST load snapshots at virtual time `now`: cumulative totals plus
    /// the backlog of booked-but-unfinished service at the probe time. The
    /// multi-job scheduler and bench use deltas of these to attribute
    /// cross-job contention to individual OSTs.
    pub(crate) fn snapshot_at(&self, now: SimTime) -> Vec<OstSnapshot> {
        self.osts
            .iter()
            .map(|o| {
                let s = o.lock().unwrap();
                OstSnapshot {
                    requests: s.requests,
                    bytes: s.bytes,
                    busy_secs: s.busy_secs,
                    waited_secs: s.waited_secs,
                    delayed_requests: s.delayed_requests,
                    backlog_secs: s.ledger.backlog_secs(now),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl OstPool {
        /// Total (requests, bytes) served per OST so far.
        fn per_ost_totals(&self) -> Vec<(u64, u64)> {
            self.osts
                .iter()
                .map(|o| {
                    let s = o.lock().unwrap();
                    (s.requests, s.bytes)
                })
                .collect()
        }

        /// The disk model backing the pool.
        fn disk(&self) -> &DiskModel {
            &self.disk
        }
    }

    fn pool() -> OstPool {
        OstPool::new(
            2,
            DiskModel {
                seek: 1.0,
                ost_bandwidth: 100.0,
            },
        )
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn sequential_requests_queue() {
        let p = pool();
        // Two requests at t=0 on the same OST serialize.
        let d1 = p.serve(0, SimTime::ZERO, 100); // 1 seek + 1s stream = 2
        let d2 = p.serve(0, SimTime::ZERO, 100); // queued: 2 + 2 = 4
        assert_eq!(d1.secs(), 2.0);
        assert_eq!(d2.secs(), 4.0);
    }

    #[test]
    fn different_osts_run_in_parallel() {
        let p = pool();
        let d1 = p.serve(0, SimTime::ZERO, 100);
        let d2 = p.serve(1, SimTime::ZERO, 100);
        assert_eq!(d1.secs(), 2.0);
        assert_eq!(d2.secs(), 2.0);
    }

    #[test]
    fn idle_ost_starts_at_request_time() {
        let p = pool();
        let d = p.serve(0, SimTime::from_secs(10.0), 100);
        assert_eq!(d.secs(), 12.0);
    }

    #[test]
    fn backfill_uses_earlier_gaps() {
        let p = pool();
        // A far-future booking must not starve an earlier request.
        let far = p.serve(0, t(100.0), 100); // books [100, 102)
        assert_eq!(far.secs(), 102.0);
        let early = p.serve(0, SimTime::ZERO, 100); // backfills [0, 2)
        assert_eq!(early.secs(), 2.0);
        // A request that does not fit in the gap [2, 100) only if too long:
        // service of 100 bytes is 2s, fits at [2, 4).
        let mid = p.serve(0, t(1.0), 100);
        assert_eq!(mid.secs(), 4.0);
    }

    #[test]
    fn gap_too_small_is_skipped() {
        let p = pool();
        let _ = p.serve(0, t(3.0), 100); // [3, 5)
        let _ = p.serve(0, SimTime::ZERO, 100); // [0, 2) backfill
                                                // Next request at t=1.5: gap [2, 3) is 1s, too small for 2s:
                                                // lands after [3, 5).
        let d = p.serve(0, t(1.5), 100);
        assert_eq!(d.secs(), 7.0);
    }

    #[test]
    fn intervals_coalesce() {
        let p = pool();
        for _ in 0..100 {
            let _ = p.serve(0, SimTime::ZERO, 100);
        }
        // All requests form one solid busy block [0, 200).
        let d = p.serve(0, SimTime::ZERO, 100);
        assert_eq!(d.secs(), 202.0);
        let state = p.osts[0].lock().unwrap();
        assert_eq!(state.ledger.intervals().len(), 1);
    }

    #[test]
    fn utilization_tracks_service_time() {
        let p = pool();
        p.serve(0, SimTime::ZERO, 100); // 2s
        p.serve(0, SimTime::ZERO, 100); // 2s
        p.serve(1, SimTime::ZERO, 100); // 2s
        let busy = p.per_ost_busy_secs();
        assert!((busy[0] - 4.0).abs() < 1e-12);
        assert!((busy[1] - 2.0).abs() < 1e-12);
        // Imbalance: max 4 over mean 3.
        assert!((p.imbalance() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_pool_reports_balanced() {
        assert_eq!(pool().imbalance(), 1.0);
    }

    #[test]
    fn slow_ost_multiplies_service_time() {
        let mut p = pool();
        p.apply_faults(&FaultPlan::default().slow_ost(0, 10.0));
        // OST 0: (1 seek + 1s stream) × 10 = 20s. OST 1 healthy: 2s.
        assert_eq!(p.serve(0, SimTime::ZERO, 100).secs(), 20.0);
        assert_eq!(p.serve(1, SimTime::ZERO, 100).secs(), 2.0);
    }

    #[test]
    fn stalled_ost_queues_early_requests() {
        let mut p = pool();
        p.apply_faults(&FaultPlan::default().stall_ost(0, t(50.0)));
        // First request waits out the stall, then serves normally.
        assert_eq!(p.serve(0, SimTime::ZERO, 100).secs(), 52.0);
        // A request arriving after the stall is unaffected.
        assert_eq!(p.serve(0, t(60.0), 100).secs(), 62.0);
        // The stall window is not billed as busy seconds.
        assert!((p.per_ost_busy_secs()[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fault_plan_for_larger_machine_is_clipped() {
        let mut p = pool();
        // OST 7 does not exist in this 2-OST pool; must not panic.
        p.apply_faults(&FaultPlan::default().slow_ost(7, 4.0));
        assert_eq!(p.serve(0, SimTime::ZERO, 100).secs(), 2.0);
    }

    #[test]
    fn snapshot_reports_waits_and_backlog() {
        let p = pool();
        let d1 = p.serve(0, SimTime::ZERO, 100); // [0, 2), no wait
        let d2 = p.serve(0, SimTime::ZERO, 100); // [2, 4), waited 2 s
        assert_eq!(d1, t(2.0));
        assert_eq!(d2, t(4.0));
        let snaps = p.snapshot_at(t(1.0));
        assert_eq!(snaps.len(), 2);
        let s = &snaps[0];
        assert_eq!(s.requests, 2);
        assert_eq!(s.bytes, 200);
        assert!((s.busy_secs - 4.0).abs() < 1e-12);
        assert!((s.waited_secs - 2.0).abs() < 1e-12);
        assert_eq!(s.delayed_requests, 1);
        // At t=1, three of the four booked seconds are still ahead.
        assert!((s.backlog_secs - 3.0).abs() < 1e-12);
        // The idle OST is all zeros.
        assert_eq!(snaps[1], OstSnapshot::default());
        // Past the horizon the backlog drains to zero; totals remain.
        let late = p.snapshot_at(t(10.0));
        assert!((late[0].backlog_secs).abs() < 1e-12);
        assert_eq!(late[0].requests, 2);
    }

    #[test]
    fn snapshot_waits_match_book_many_chaining() {
        // A chained batch waits only where pre-existing bookings force it:
        // identical to the sequential-serve oracle.
        let p = pool();
        let q = pool();
        let _ = p.serve(0, SimTime::ZERO, 100);
        let _ = q.serve(0, SimTime::ZERO, 100);
        let _ = p.book_many(0, SimTime::ZERO, &[100, 100]);
        let mut chained = SimTime::ZERO;
        for _ in 0..2 {
            chained = q.serve(0, chained, 100);
        }
        let ps = p.snapshot_at(SimTime::ZERO);
        let qs = q.snapshot_at(SimTime::ZERO);
        assert!((ps[0].waited_secs - qs[0].waited_secs).abs() < 1e-12);
        assert_eq!(ps[0].delayed_requests, qs[0].delayed_requests);
    }

    #[test]
    fn totals_accumulate() {
        let p = pool();
        p.serve(0, SimTime::ZERO, 10);
        p.serve(0, SimTime::ZERO, 20);
        p.serve(1, SimTime::ZERO, 5);
        assert_eq!(p.per_ost_totals(), vec![(2, 30), (1, 5)]);
    }

    #[test]
    fn book_many_matches_sequential_serves() {
        let p = pool();
        let q = pool();
        let _ = p.serve(0, t(3.0), 100); // pre-existing booking to backfill around
        let _ = q.serve(0, t(3.0), 100);
        let runs = [100u64, 50, 200];
        let batched = p.book_many(0, SimTime::ZERO, &runs);
        let mut chained = SimTime::ZERO;
        for &bytes in &runs {
            chained = q.serve(0, chained, bytes);
        }
        assert_eq!(batched, chained);
        assert_eq!(p.per_ost_totals(), q.per_ost_totals());
    }

    #[test]
    fn book_many_empty_batch_is_free() {
        let p = pool();
        assert_eq!(p.book_many(0, t(5.0), &[]), t(5.0));
        assert_eq!(p.per_ost_totals()[0], (0, 0));
    }

    #[test]
    fn deep_future_book_skips_history() {
        // Many early bookings, then one far in the virtual future: the
        // partition_point start must land it correctly after history.
        let p = pool();
        for i in 0..50 {
            let _ = p.serve(0, t(i as f64 * 10.0), 100); // [10i, 10i+2)
        }
        let d = p.serve(0, t(1000.0), 100);
        assert_eq!(d.secs(), 1002.0);
        // And a backfill into an early gap still works.
        let d = p.serve(0, t(2.0), 100);
        assert_eq!(d.secs(), 4.0);
    }

    proptest! {
        #[test]
        fn prop_book_many_equals_sequential_book_oracle(
            pre in proptest::collection::vec((0u64..200, 1u64..400), 0..10),
            runs in proptest::collection::vec(1u64..500, 0..20),
            now in 0u64..300,
        ) {
            // book_many on a batch of merged runs lands exactly where a
            // chain of sequential serve calls would, with identical totals.
            let p = pool();
            let q = pool();
            for (at, bytes) in &pre {
                let at = SimTime::from_secs(*at as f64 / 10.0);
                let _ = p.serve(0, at, *bytes);
                let _ = q.serve(0, at, *bytes);
            }
            let now = SimTime::from_secs(now as f64 / 10.0);
            let batched = p.book_many(0, now, &runs);
            let mut chained = now;
            for &bytes in &runs {
                chained = q.serve(0, chained, bytes);
            }
            prop_assert_eq!(batched, chained);
            prop_assert_eq!(p.per_ost_totals(), q.per_ost_totals());
            prop_assert!((p.per_ost_busy_secs()[0] - q.per_ost_busy_secs()[0]).abs() < 1e-9);
        }

        #[test]
        fn prop_completion_respects_request_and_capacity(
            requests in proptest::collection::vec((0u64..1000, 1u64..500), 1..40),
        ) {
            // Each completion is at least now + service; the sum of service
            // times is conserved regardless of booking order.
            let p = pool();
            let mut total_service = 0.0;
            for (now, bytes) in &requests {
                let now = SimTime::from_secs(*now as f64 / 100.0);
                let done = p.serve(0, now, *bytes);
                let service = p.disk().service_time(*bytes as usize);
                total_service += service.secs();
                prop_assert!(done >= now + service);
            }
            prop_assert!((p.per_ost_busy_secs()[0] - total_service).abs() < 1e-9);
            // The booked intervals are disjoint and cover exactly the
            // service time.
            let state = p.osts[0].lock().unwrap();
            let mut covered = 0.0;
            let mut prev_end = SimTime::ZERO;
            for &(s, e) in state.ledger.intervals() {
                prop_assert!(s >= prev_end, "intervals overlap");
                covered += (e - s).secs();
                prev_end = e;
            }
            prop_assert!((covered - total_service).abs() < 1e-9);
        }

        #[test]
        fn prop_backfill_never_worse_than_fifo(
            requests in proptest::collection::vec((0u64..100, 1u64..300), 1..25),
        ) {
            // Completion under backfill is never later than under strict
            // arrival-order FIFO queueing.
            let p = pool();
            let mut fifo_free = 0.0f64;
            for (now, bytes) in &requests {
                let now_s = *now as f64 / 10.0;
                let service = p.disk().service_time(*bytes as usize).secs();
                let done = p.serve(0, SimTime::from_secs(now_s), *bytes);
                fifo_free = fifo_free.max(now_s) + service;
                prop_assert!(done.secs() <= fifo_free + 1e-9,
                    "backfill {done} later than FIFO {fifo_free}");
            }
        }
    }
}
