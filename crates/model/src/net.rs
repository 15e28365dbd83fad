//! Interconnect cost model.
//!
//! A postal/LogGP-style model: each message costs a fixed sender-side CPU
//! overhead, a latency term, and a size-proportional transfer term. Intra-
//! node messages (shared memory) and inter-node messages (the Gemini-like
//! mesh) use different parameters. This is deliberately simple — the paper's
//! phenomena (shuffle ~20% of collective read cost, shuffle cost growing
//! with scale) are driven by message counts and volumes, which this model
//! captures, not by routing detail, which it does not.

use crate::time::SimTime;

/// Network cost parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NetModel {
    /// One-way latency between ranks on the same node (seconds).
    pub latency_intra: f64,
    /// One-way latency between ranks on different nodes (seconds).
    pub latency_inter: f64,
    /// Point-to-point bandwidth within a node (bytes/second).
    pub bw_intra: f64,
    /// Point-to-point bandwidth between nodes (bytes/second).
    pub bw_inter: f64,
    /// Sender-side CPU overhead per message (seconds). This charges the
    /// *sender's* clock; latency and transfer only delay the receiver.
    pub send_overhead: f64,
    /// Per-piece cost of the shuffle scatter path (seconds): packing a
    /// non-contiguous piece, posting it, and driving MPI progress for it.
    /// This — not wire bandwidth — dominates a chunk scattered to a
    /// hundred ranks, and is calibrated so the per-iteration shuffle cost
    /// approaches the read cost, as the paper measures on Hopper (Fig. 1).
    pub scatter_overhead: f64,
    /// Per-message cost of posting one *intra-node* shuffle message
    /// (seconds): matching, queueing, and shared-memory handoff. Charged
    /// once per posted message regardless of how many pieces it carries.
    pub msg_overhead_intra: f64,
    /// Per-message cost of posting one *inter-node* shuffle message
    /// (seconds): NIC doorbell, descriptor setup, and rendezvous/progress
    /// overhead on the interconnect. Much larger than the intra-node cost;
    /// coalescing many per-rank messages into one per-node frame trades
    /// many of these for a few of the cheap intra-node ones.
    pub msg_overhead_inter: f64,
}

impl NetModel {
    /// Parameters loosely matching a Cray Gemini-class interconnect.
    pub(crate) fn gemini_like() -> Self {
        Self {
            latency_intra: 5e-7,   // 0.5 us shared memory
            latency_inter: 1.5e-6, // 1.5 us network
            bw_intra: 8e9,         // 8 GB/s memcpy-limited
            // Effective per-sender bandwidth under collective load, below
            // the 5+ GB/s point-to-point peak.
            bw_inter: 1.2e9,
            send_overhead: 4e-7,
            scatter_overhead: 1e-5,
            msg_overhead_intra: 8e-7,
            msg_overhead_inter: 8e-6,
        }
    }

    /// The sender-side cost of posting one message.
    pub fn send_cost(&self) -> SimTime {
        SimTime::from_secs(self.send_overhead)
    }

    /// The sender-side cost of one scatter piece (shuffle path).
    pub fn scatter_cost(&self) -> SimTime {
        SimTime::from_secs(self.scatter_overhead)
    }

    /// The sender-side cost of posting one shuffle message to a rank that
    /// does (not) share a node, independent of message size.
    pub fn msg_cost(&self, same_node: bool) -> SimTime {
        SimTime::from_secs(if same_node {
            self.msg_overhead_intra
        } else {
            self.msg_overhead_inter
        })
    }

    /// The serialization-only time of `bytes` on the sender's NIC (no
    /// latency): what a sender-side lane is occupied for while the message
    /// drains.
    pub fn wire_time(&self, bytes: usize, same_node: bool) -> SimTime {
        let bw = if same_node {
            self.bw_intra
        } else {
            self.bw_inter
        };
        SimTime::from_secs(bytes as f64 / bw)
    }

    /// The wire time of a message of `bytes` between ranks that do (not)
    /// share a node: latency plus serialization.
    pub fn transfer_time(&self, bytes: usize, same_node: bool) -> SimTime {
        let (lat, bw) = if same_node {
            (self.latency_intra, self.bw_intra)
        } else {
            (self.latency_inter, self.bw_inter)
        };
        SimTime::from_secs(lat + bytes as f64 / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_is_cheaper_than_inter() {
        let m = NetModel::gemini_like();
        let n = 1 << 20;
        assert!(m.transfer_time(n, true) < m.transfer_time(n, false));
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let m = NetModel::gemini_like();
        let small = m.transfer_time(1024, false);
        let big = m.transfer_time(1024 * 1024, false);
        assert!(big > small);
        // The bandwidth component should dominate for large messages:
        // doubling size roughly doubles (time - latency).
        let t1 = m.transfer_time(1 << 24, false).secs() - m.latency_inter;
        let t2 = m.transfer_time(1 << 25, false).secs() - m.latency_inter;
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_message_costs_latency_only() {
        let m = NetModel::gemini_like();
        assert_eq!(m.transfer_time(0, false).secs(), m.latency_inter);
    }

    #[test]
    fn wire_time_excludes_latency() {
        let m = NetModel::gemini_like();
        let n = 1 << 20;
        assert_eq!(m.wire_time(n, false).secs(), n as f64 / m.bw_inter);
        assert!(m.wire_time(n, true) < m.wire_time(n, false));
        assert_eq!(m.wire_time(0, false).secs(), 0.0);
    }

    #[test]
    fn per_message_costs_are_constant() {
        let m = NetModel::gemini_like();
        assert_eq!(m.send_cost().secs(), m.send_overhead);
        assert_eq!(m.scatter_cost().secs(), m.scatter_overhead);
        // The scatter path (pack + post + progress per piece) costs far
        // more than a bare send posting.
        assert!(m.scatter_cost() > m.send_cost());
    }

    #[test]
    fn inter_node_message_posting_dominates_intra() {
        let m = NetModel::gemini_like();
        assert_eq!(m.msg_cost(true).secs(), m.msg_overhead_intra);
        assert_eq!(m.msg_cost(false).secs(), m.msg_overhead_inter);
        // Coalescing only pays off if an interconnect message costs
        // meaningfully more to post than a shared-memory one.
        assert!(m.msg_cost(false) >= m.msg_cost(true).scale(4.0));
    }
}
