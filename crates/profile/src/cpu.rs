//! Binned user/sys/wait CPU profiles (the paper's Figs. 2-3).

use cc_model::SimTime;

use crate::activity::{Activity, Segment};

/// One time bucket's accumulated seconds per category.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Bucket {
    /// Seconds of user computation.
    pub(crate) user: f64,
    /// Seconds of system-side data movement.
    pub(crate) sys: f64,
    /// Seconds blocked on I/O.
    pub(crate) wait: f64,
}

impl Bucket {
    /// Total accounted seconds.
    pub(crate) fn total(&self) -> f64 {
        self.user + self.sys + self.wait
    }
}

/// A time-binned CPU profile built from activity segments of one or many
/// ranks. Unaccounted time within a bin is idle and excluded, like the
/// paper's profiles which normalize to busy categories.
#[derive(Debug, Clone)]
pub struct CpuProfile {
    bin_width: SimTime,
    buckets: Vec<Bucket>,
}

impl CpuProfile {
    /// An empty profile with `bins` buckets of `bin_width` starting at 0.
    ///
    /// # Panics
    /// Panics on zero width or zero bins.
    pub(crate) fn new(bin_width: SimTime, bins: usize) -> Self {
        assert!(bin_width > SimTime::ZERO, "bin width must be positive");
        assert!(bins > 0, "need at least one bin");
        Self {
            bin_width,
            buckets: vec![Bucket::default(); bins],
        }
    }

    /// Builds a profile spanning `[0, horizon)` from segments, choosing the
    /// bucket count from the horizon.
    pub fn from_segments(
        segments: impl IntoIterator<Item = Segment>,
        bin_width: SimTime,
        horizon: SimTime,
    ) -> Self {
        let bins = (horizon.secs() / bin_width.secs()).ceil().max(1.0) as usize;
        let mut p = Self::new(bin_width, bins);
        for s in segments {
            p.add(s);
        }
        p
    }

    /// Accumulates one segment, splitting it across the buckets it spans.
    /// Time beyond the last bucket is dropped.
    pub(crate) fn add(&mut self, seg: Segment) {
        let w = self.bin_width.secs();
        let mut lo = seg.start.secs();
        let end = seg.end.secs();
        while lo < end {
            let bin = (lo / w) as usize;
            if bin >= self.buckets.len() {
                break;
            }
            let mut hi = end.min((bin as f64 + 1.0) * w);
            // Guarantee progress: when lo sits exactly on a bucket edge
            // whose product rounds down to lo (division and multiplication
            // can disagree in the last ulp), extend into the next bucket
            // rather than looping forever.
            if hi <= lo {
                hi = end.min((bin as f64 + 2.0) * w);
            }
            if hi <= lo {
                break;
            }
            let b = &mut self.buckets[bin];
            match seg.activity {
                Activity::User => b.user += hi - lo,
                Activity::Sys => b.sys += hi - lo,
                Activity::Wait => b.wait += hi - lo,
            }
            lo = hi;
        }
    }

    /// Percentages `(user, sys, wait)` per bucket, normalized to the busy
    /// time in that bucket; `(0, 0, 0)` for idle buckets.
    pub fn percentages(&self) -> Vec<(f64, f64, f64)> {
        self.buckets
            .iter()
            .map(|b| {
                let t = b.total();
                if t <= 0.0 {
                    (0.0, 0.0, 0.0)
                } else {
                    (100.0 * b.user / t, 100.0 * b.sys / t, 100.0 * b.wait / t)
                }
            })
            .collect()
    }

    /// Whole-profile percentages `(user, sys, wait)` over all buckets.
    pub fn overall(&self) -> (f64, f64, f64) {
        let (mut u, mut s, mut w) = (0.0, 0.0, 0.0);
        for b in &self.buckets {
            u += b.user;
            s += b.sys;
            w += b.wait;
        }
        let t = u + s + w;
        if t <= 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (100.0 * u / t, 100.0 * s / t, 100.0 * w / t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CpuProfile {
        /// The buckets in time order.
        fn buckets(&self) -> &[Bucket] {
            &self.buckets
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn segments_split_across_bins() {
        let mut p = CpuProfile::new(t(1.0), 3);
        p.add(Segment::new(t(0.5), t(2.5), Activity::User));
        let b = p.buckets();
        assert!((b[0].user - 0.5).abs() < 1e-12);
        assert!((b[1].user - 1.0).abs() < 1e-12);
        assert!((b[2].user - 0.5).abs() < 1e-12);
    }

    #[test]
    fn categories_accumulate_independently() {
        let mut p = CpuProfile::new(t(1.0), 1);
        p.add(Segment::new(t(0.0), t(0.2), Activity::User));
        p.add(Segment::new(t(0.2), t(0.5), Activity::Sys));
        p.add(Segment::new(t(0.5), t(1.0), Activity::Wait));
        let (u, s, w) = p.percentages()[0];
        assert!((u - 20.0).abs() < 1e-9);
        assert!((s - 30.0).abs() < 1e-9);
        assert!((w - 50.0).abs() < 1e-9);
    }

    #[test]
    fn idle_bucket_is_zero() {
        let p = CpuProfile::new(t(1.0), 2);
        assert_eq!(p.percentages()[1], (0.0, 0.0, 0.0));
        assert_eq!(p.overall(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn overflow_beyond_last_bucket_is_dropped() {
        let mut p = CpuProfile::new(t(1.0), 2);
        p.add(Segment::new(t(1.5), t(10.0), Activity::Wait));
        assert!((p.buckets()[1].wait - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_edge_rounding_terminates() {
        // A start time that divides to just-under an integer while the
        // reverse multiplication rounds back to it must not loop forever.
        let w = 0.1f64;
        let lo = 17.0 * 0.1; // 1.7000000000000002: lo/w = 17.0 exactly? either
                             // way, add() must terminate and account the time.
        let mut p = CpuProfile::new(SimTime::from_secs(w), 64);
        p.add(Segment::new(
            SimTime::from_secs(lo),
            SimTime::from_secs(lo + 0.05),
            Activity::User,
        ));
        let total: f64 = p.buckets().iter().map(|b| b.user).sum();
        assert!((total - 0.05).abs() < 1e-9);
    }

    #[test]
    fn pathological_edges_fuzz_terminates() {
        // Many awkward widths and offsets; the loop must always terminate
        // and conserve (or drop past-horizon) time.
        for k in 1..200u64 {
            let w = 1.0 / k as f64;
            let mut p = CpuProfile::new(SimTime::from_secs(w), 1000);
            for j in 0..50u64 {
                let lo = j as f64 * w * 3.0000000000000004;
                p.add(Segment::new(
                    SimTime::from_secs(lo),
                    SimTime::from_secs(lo + w * 0.5),
                    Activity::Sys,
                ));
            }
        }
    }

    #[test]
    fn from_segments_sizes_by_horizon() {
        let p = CpuProfile::from_segments(
            [Segment::new(t(0.0), t(4.5), Activity::Wait)],
            t(1.0),
            t(4.5),
        );
        assert_eq!(p.buckets().len(), 5);
        let (_, _, w) = p.overall();
        assert!((w - 100.0).abs() < 1e-9);
    }
}
