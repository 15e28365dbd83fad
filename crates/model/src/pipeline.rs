//! Pipeline lanes for modeling non-blocking overlap.
//!
//! The two-phase engine and the collective-computing runtime overlap three
//! kinds of work per iteration: disk reads (the I/O thread in the paper's
//! Fig. 7), map computation, and shuffle communication (the shuffle thread).
//! A [`Lane`] models one serially-reused resource: an activity can start no
//! earlier than both its data dependency (`ready`) and the lane becoming
//! free. Chaining lane acquisitions expresses exactly the software-pipeline
//! recurrences used to time blocking vs non-blocking execution.

use crate::time::SimTime;

/// One serially-reused resource (a thread, a NIC, a disk stream) in a
/// software pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    free_at: SimTime,
}

impl Lane {
    /// A lane that is free from time zero.
    pub fn new() -> Self {
        Self {
            free_at: SimTime::ZERO,
        }
    }

    /// A lane that becomes free at `t`.
    pub fn free_from(t: SimTime) -> Self {
        Self { free_at: t }
    }

    /// When the lane next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Schedules an activity of length `duration` that cannot start before
    /// `ready`; returns its completion time and occupies the lane until then.
    pub fn acquire(&mut self, ready: SimTime, duration: SimTime) -> SimTime {
        let start = ready.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        end
    }

    /// Pushes the lane's free time forward to at least `t` without doing
    /// work (e.g. a barrier releases every lane at the same instant).
    pub fn advance_to(&mut self, t: SimTime) {
        self.free_at = self.free_at.max(t);
    }
}

impl Default for Lane {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn lane_serializes_work() {
        let mut lane = Lane::new();
        let a = lane.acquire(SimTime::ZERO, t(2.0));
        assert_eq!(a, t(2.0));
        // Ready at 1.0 but lane busy until 2.0: starts at 2.0.
        let b = lane.acquire(t(1.0), t(3.0));
        assert_eq!(b, t(5.0));
        // Ready after the lane frees: starts when ready.
        let c = lane.acquire(t(10.0), t(1.0));
        assert_eq!(c, t(11.0));
    }

    #[test]
    fn two_lanes_overlap() {
        // Classic 2-stage pipeline: stage A feeds stage B; with separate
        // lanes the steady-state period is max(a, b), not a + b.
        let a_dur = t(1.0);
        let b_dur = t(2.0);
        let mut a = Lane::new();
        let mut b = Lane::new();
        let mut last_b = SimTime::ZERO;
        for _ in 0..10 {
            let a_done = a.acquire(SimTime::ZERO, a_dur);
            last_b = b.acquire(a_done, b_dur);
        }
        // 10 iterations: first A takes 1, then B dominates: 1 + 10*2 = 21.
        assert_eq!(last_b, t(21.0));
    }

    #[test]
    fn single_lane_is_blocking() {
        // Same workload through one lane: 10 * (1 + 2) = 30.
        let mut lane = Lane::new();
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            let a_done = lane.acquire(last, t(1.0));
            last = lane.acquire(a_done, t(2.0));
        }
        assert_eq!(last, t(30.0));
    }

    #[test]
    fn advance_to_never_moves_backwards() {
        let mut lane = Lane::free_from(t(4.0));
        lane.advance_to(t(2.0));
        assert_eq!(lane.free_at(), t(4.0));
        lane.advance_to(t(6.0));
        assert_eq!(lane.free_at(), t(6.0));
    }
}
