//! The OST pool: one booking calendar per OST, plus the disk model and the
//! fault plan's per-OST slowdowns that set each extent's service time.
//!
//! Each OST serves one extent at a time. Service is booked on a
//! [`cc_model::Calendar`] — intervals in virtual time with backfill, the
//! same algebra the service layer's backbone lane is booked with.
//!
//! Persistent degradation from a [`cc_model::FaultPlan`] is applied with
//! `OstPool::apply_faults`: a *slow* OST multiplies every service time,
//! and a *stalled* OST books its whole stall window up front so the first
//! requests queue behind it — a controller failover, as seen by clients.

use cc_model::{Calendar, DiskModel, FaultPlan, SimTime};

/// The OST pool of one file system.
pub(crate) struct OstPool {
    /// One calendar per OST, in index order.
    pub(crate) osts: Vec<Calendar>,
    disk: DiskModel,
    /// Per-OST service-time multiplier (1.0 = healthy), from the fault plan.
    slowdown: Vec<f64>,
}

impl OstPool {
    /// A pool of `count` idle OSTs sharing one disk model.
    pub(crate) fn new(count: usize, disk: DiskModel) -> Self {
        assert!(count > 0, "need at least one OST");
        Self {
            osts: (0..count).map(|_| Calendar::default()).collect(),
            disk,
            slowdown: vec![1.0; count],
        }
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
        for (ost, calendar) in self.osts.iter().enumerate() {
            calendar.block_until(plan.ost_stall(ost));
        }
    }

    /// Healthy (fault-free) service time for one extent on `ost` —
    /// what an idle, undegraded OST would take.
    pub(crate) fn ideal_service_time(&self, bytes: u64) -> SimTime {
        self.disk.service_time(bytes as usize)
    }

    /// Service time for one extent of `bytes` on `ost`, its slowdown
    /// included.
    fn service_time(&self, ost: usize, bytes: u64) -> SimTime {
        self.disk
            .service_time(bytes as usize)
            .scale(self.slowdown[ost])
    }

    /// Load imbalance: the busiest OST's booked service seconds over the
    /// mean (1.0 = balanced, and for an idle pool).
    pub(crate) fn imbalance(&self) -> f64 {
        let busy: Vec<f64> = self.osts.iter().map(Calendar::busy_secs).collect();
        let total: f64 = busy.iter().sum();
        if total <= 0.0 {
            return 1.0;
        }
        let mean = total / busy.len() as f64;
        busy.iter().copied().fold(0.0, f64::max) / mean
    }

    /// Serves one contiguous extent of `bytes` on `ost`, requested at
    /// virtual time `now`. Returns the completion time.
    pub(crate) fn serve(&self, ost: usize, now: SimTime, bytes: u64) -> SimTime {
        self.osts[ost].book(now, self.service_time(ost, bytes), bytes)
    }

    /// Serves a batch of merged extent runs on `ost` as one
    /// [`Calendar::book_chain`]: one lock, each run after the previous
    /// one's completion, exactly as sequential [`serve`](Self::serve) calls
    /// would. Returns the completion time of the last run (`now` if the
    /// batch is empty).
    pub(crate) fn book_many(&self, ost: usize, now: SimTime, byte_runs: &[u64]) -> SimTime {
        self.osts[ost].book_chain(
            now,
            byte_runs
                .iter()
                .map(|&bytes| (self.service_time(ost, bytes), bytes)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_model::Load;
    use proptest::prelude::*;

    impl OstPool {
        /// Every OST's load, in index order.
        fn loads(&self) -> Vec<Load> {
            self.osts.iter().map(|o| o.load(SimTime::ZERO)).collect()
        }

        /// Total bytes served per OST so far.
        fn per_ost_bytes(&self) -> Vec<u64> {
            self.loads().iter().map(|l| l.bytes).collect()
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
    fn utilization_tracks_service_time() {
        let p = pool();
        p.serve(0, SimTime::ZERO, 100); // 2s
        p.serve(0, SimTime::ZERO, 100); // 2s
        p.serve(1, SimTime::ZERO, 100); // 2s
        let loads = p.loads();
        assert!((loads[0].busy_secs - 4.0).abs() < 1e-12);
        assert!((loads[1].busy_secs - 2.0).abs() < 1e-12);
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
        assert!((p.loads()[0].busy_secs - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fault_plan_for_larger_machine_is_clipped() {
        let mut p = pool();
        // OST 7 does not exist in this 2-OST pool; must not panic.
        p.apply_faults(&FaultPlan::default().slow_ost(7, 4.0));
        assert_eq!(p.serve(0, SimTime::ZERO, 100).secs(), 2.0);
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
        let (ps, qs) = (p.loads(), q.loads());
        assert!((ps[0].waited_secs - qs[0].waited_secs).abs() < 1e-12);
        assert_eq!(ps[0].delayed_requests, qs[0].delayed_requests);
    }

    #[test]
    fn totals_accumulate() {
        let p = pool();
        p.serve(0, SimTime::ZERO, 10);
        p.serve(0, SimTime::ZERO, 20);
        p.serve(1, SimTime::ZERO, 5);
        assert_eq!(p.per_ost_bytes(), vec![30, 5]);
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
        assert_eq!(p.loads(), q.loads());
    }

    #[test]
    fn book_many_empty_batch_is_free() {
        let p = pool();
        assert_eq!(p.book_many(0, t(5.0), &[]), t(5.0));
        assert_eq!(p.loads()[0], Load::default());
    }

    proptest! {
        #[test]
        fn prop_book_many_equals_sequential_book_oracle(
            pre in proptest::collection::vec((0u64..200, 1u64..400), 0..10),
            runs in proptest::collection::vec(1u64..500, 0..20),
            now in 0u64..300,
        ) {
            // book_many on a batch of merged runs lands exactly where a
            // chain of sequential serve calls would, with identical loads.
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
            prop_assert_eq!(p.loads(), q.loads());
        }

        #[test]
        fn prop_completion_respects_request_and_capacity(
            requests in proptest::collection::vec((0u64..1000, 1u64..500), 1..40),
        ) {
            // Each completion is at least now + service; the sum of service
            // times is conserved regardless of booking order.
            let p = pool();
            let mut total_service = 0.0;
            let mut booked = Vec::new();
            for (now, bytes) in &requests {
                let now = SimTime::from_secs(*now as f64 / 100.0);
                let done = p.serve(0, now, *bytes);
                let service = p.ideal_service_time(*bytes);
                total_service += service.secs();
                prop_assert!(done >= now + service);
                booked.push((done - service, done));
            }
            prop_assert!((p.loads()[0].busy_secs - total_service).abs() < 1e-9);
            // The booked intervals are disjoint and cover exactly the
            // service time. Each start is read back as completion minus
            // service, so it carries one rounding step.
            booked.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut covered = 0.0;
            let mut prev_end = SimTime::ZERO;
            for &(s, e) in &booked {
                prop_assert!(s.secs() >= prev_end.secs() - 1e-9,
                    "intervals overlap: {s:?} < {prev_end:?}");
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
                let service = p.ideal_service_time(*bytes).secs();
                let done = p.serve(0, SimTime::from_secs(now_s), *bytes);
                fifo_free = fifo_free.max(now_s) + service;
                prop_assert!(done.secs() <= fifo_free + 1e-9,
                    "backfill {done} later than FIFO {fifo_free}");
            }
        }
    }
}
