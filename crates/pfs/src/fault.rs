//! Deterministic transient-fault retries for reads.
//!
//! The paper's conclusion names fault tolerance as future work; this module
//! provides the substrate for exercising it. Faults are injected by a
//! deterministic counter — every `fail_every`-th read attempt fails
//! transiently — so tests are reproducible. The file system retries failed
//! attempts internally (up to a bound) and charges a virtual-time penalty
//! per retry, exactly like a Lustre client resending an RPC.
//!
//! This models *transient, retried* failures. Persistent degradation —
//! slow or stalled OSTs, bad links, straggler ranks — is described by
//! [`cc_model::FaultPlan`] and applied via `Pfs::with_fault_plan` and
//! `ClusterModel::with_fault`.

use std::sync::atomic::{AtomicU64, Ordering};

use cc_model::SimTime;

/// A plan for injecting transient read faults.
#[derive(Debug)]
pub struct RetryPlan {
    /// Every `fail_every`-th read attempt fails (1-based counting).
    pub(crate) fail_every: u64,
    /// Virtual-time penalty charged per retry.
    pub(crate) retry_penalty: SimTime,
    /// Maximum retries before the read panics (a hard failure).
    pub(crate) max_retries: u32,
    attempts: AtomicU64,
    retries: AtomicU64,
}

impl RetryPlan {
    /// A plan failing every `fail_every`-th attempt.
    ///
    /// # Panics
    /// Panics if `fail_every` is zero.
    pub fn every(fail_every: u64, retry_penalty: SimTime, max_retries: u32) -> Self {
        assert!(fail_every > 0, "fail_every must be at least 1");
        Self {
            fail_every,
            retry_penalty,
            max_retries,
            attempts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// Records one attempt; returns `true` if this attempt fails.
    pub(crate) fn attempt_fails(&self) -> bool {
        let n = self.attempts.fetch_add(1, Ordering::Relaxed) + 1;
        n.is_multiple_of(self.fail_every)
    }

    /// Records a retry.
    pub(crate) fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RetryPlan {
        /// Attempts observed so far.
        fn attempts(&self) -> u64 {
            self.attempts.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn every_third_attempt_fails() {
        let plan = RetryPlan::every(3, SimTime::from_secs(0.1), 5);
        let pattern: Vec<bool> = (0..9).map(|_| plan.attempt_fails()).collect();
        assert_eq!(
            pattern,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(plan.attempts(), 9);
    }

    #[test]
    fn retries_are_counted() {
        let plan = RetryPlan::every(1, SimTime::ZERO, 3);
        plan.note_retry();
        plan.note_retry();
        assert_eq!(plan.retries(), 2);
    }

    #[test]
    #[should_panic]
    fn zero_interval_panics() {
        let _ = RetryPlan::every(0, SimTime::ZERO, 1);
    }
}
