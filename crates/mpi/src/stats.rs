//! Per-rank communication statistics.
//!
//! The overhead figures in the paper (Figs. 11-12) are fundamentally
//! message/byte counts; keeping them on the communicator makes every
//! benchmark's accounting come from the same source of truth. Messages are
//! classified by locality at post time — intra-node (shared memory),
//! inter-node (interconnect), or self (delivered without touching the
//! network at all) — so the hierarchical collectives' reduction in
//! interconnect traffic is directly observable.

/// Counters accumulated by one rank's [`Comm`](crate::Comm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages posted by this rank.
    pub msgs_sent: usize,
    /// Payload bytes posted by this rank.
    pub bytes_sent: usize,
    /// Messages received by this rank.
    pub(crate) msgs_recv: usize,
    /// Payload bytes received by this rank.
    pub(crate) bytes_recv: usize,
    /// Of `msgs_sent`: messages to a rank on the same node.
    pub msgs_intra: usize,
    /// Of `bytes_sent`: bytes to a rank on the same node.
    pub bytes_intra: usize,
    /// Of `msgs_sent`: messages that crossed the interconnect.
    pub msgs_inter: usize,
    /// Of `bytes_sent`: bytes that crossed the interconnect.
    pub bytes_inter: usize,
    /// Self-deliveries short-circuited past the mailbox. Not network
    /// messages; excluded from every other counter.
    pub(crate) msgs_self: usize,
    /// Payload bytes of self-deliveries.
    pub bytes_self: usize,
    /// Pre-compression (logical) bytes behind `bytes_intra`. Equal to
    /// `bytes_intra` unless a sender posted a compressed frame and
    /// recorded its decoded length; the gap between logical and wire
    /// counters is exactly the compression saving per lane.
    pub logical_intra: usize,
    /// Pre-compression (logical) bytes behind `bytes_inter`.
    pub logical_inter: usize,
    /// Pre-compression (logical) bytes behind `bytes_self`. Self
    /// deliveries are never compressed, so this always equals
    /// `bytes_self`; it exists so lane totals stay comparable.
    pub logical_self: usize,
}

impl CommStats {
    /// Adds another rank's counters into this one (for whole-run totals).
    pub fn merge(&mut self, other: &CommStats) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recv += other.msgs_recv;
        self.bytes_recv += other.bytes_recv;
        self.msgs_intra += other.msgs_intra;
        self.bytes_intra += other.bytes_intra;
        self.msgs_inter += other.msgs_inter;
        self.bytes_inter += other.bytes_inter;
        self.msgs_self += other.msgs_self;
        self.bytes_self += other.bytes_self;
        self.logical_intra += other.logical_intra;
        self.logical_inter += other.logical_inter;
        self.logical_self += other.logical_self;
    }

    /// The counters accumulated since an earlier `since` snapshot of the
    /// same rank's stats (fieldwise subtraction; counters only grow).
    pub fn delta(&self, since: &CommStats) -> CommStats {
        CommStats {
            msgs_sent: self.msgs_sent - since.msgs_sent,
            bytes_sent: self.bytes_sent - since.bytes_sent,
            msgs_recv: self.msgs_recv - since.msgs_recv,
            bytes_recv: self.bytes_recv - since.bytes_recv,
            msgs_intra: self.msgs_intra - since.msgs_intra,
            bytes_intra: self.bytes_intra - since.bytes_intra,
            msgs_inter: self.msgs_inter - since.msgs_inter,
            bytes_inter: self.bytes_inter - since.bytes_inter,
            msgs_self: self.msgs_self - since.msgs_self,
            bytes_self: self.bytes_self - since.bytes_self,
            logical_intra: self.logical_intra - since.logical_intra,
            logical_inter: self.logical_inter - since.logical_inter,
            logical_self: self.logical_self - since.logical_self,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = CommStats {
            msgs_sent: 1,
            bytes_sent: 10,
            msgs_recv: 2,
            bytes_recv: 20,
            msgs_intra: 1,
            bytes_intra: 10,
            msgs_inter: 0,
            bytes_inter: 0,
            msgs_self: 5,
            bytes_self: 50,
            logical_intra: 16,
            logical_inter: 0,
            logical_self: 50,
        };
        let b = CommStats {
            msgs_sent: 3,
            bytes_sent: 30,
            msgs_recv: 4,
            bytes_recv: 40,
            msgs_intra: 1,
            bytes_intra: 12,
            msgs_inter: 2,
            bytes_inter: 18,
            msgs_self: 1,
            bytes_self: 7,
            logical_intra: 12,
            logical_inter: 40,
            logical_self: 7,
        };
        a.merge(&b);
        assert_eq!(
            a,
            CommStats {
                msgs_sent: 4,
                bytes_sent: 40,
                msgs_recv: 6,
                bytes_recv: 60,
                msgs_intra: 2,
                bytes_intra: 22,
                msgs_inter: 2,
                bytes_inter: 18,
                msgs_self: 6,
                bytes_self: 57,
                logical_intra: 28,
                logical_inter: 40,
                logical_self: 57,
            }
        );
        // delta undoes merge.
        assert_eq!(
            a.delta(&b),
            CommStats {
                msgs_sent: 1,
                bytes_sent: 10,
                msgs_recv: 2,
                bytes_recv: 20,
                msgs_intra: 1,
                bytes_intra: 10,
                msgs_inter: 0,
                bytes_inter: 0,
                msgs_self: 5,
                bytes_self: 50,
                logical_intra: 16,
                logical_inter: 0,
                logical_self: 50,
            }
        );
    }
}
