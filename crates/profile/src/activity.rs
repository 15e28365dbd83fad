//! Activity-tagged virtual time segments.

use cc_model::SimTime;

/// What a core was doing during a segment, mapped to the categories of the
/// paper's CPU profiles (Figs. 2-3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// User computation (map kernels, application analysis) — `User%`.
    User,
    /// Kernel-side data movement (packing, shuffling, memcpy) — `Sys%`.
    Sys,
    /// Blocked on I/O — `Wait%`.
    Wait,
}

/// A half-open interval `[start, end)` of virtual time tagged with what the
/// rank was doing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment start.
    pub start: SimTime,
    /// Segment end.
    pub end: SimTime,
    /// What the rank was doing.
    pub(crate) activity: Activity,
}

impl Segment {
    /// Creates a segment; zero-length segments are allowed and ignored by
    /// consumers.
    ///
    /// # Panics
    /// Panics if `end < start`.
    pub fn new(start: SimTime, end: SimTime, activity: Activity) -> Self {
        assert!(end >= start, "segment ends before it starts");
        Self {
            start,
            end,
            activity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn backwards_segment_panics() {
        let _ = Segment::new(
            SimTime::from_secs(2.0),
            SimTime::from_secs(1.0),
            Activity::Sys,
        );
    }
}
