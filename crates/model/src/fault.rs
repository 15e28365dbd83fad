//! Deterministic fault injection: degraded OSTs, bad links, stragglers.
//!
//! The paper's performance claims assume healthy hardware; production
//! collectives meet degraded OSTs, congested links, and slow ranks. A
//! [`FaultPlan`] describes such adversity declaratively, and the runtime
//! crates thread it through their cost paths behind zero-cost defaults
//! (`ClusterModel::fault` is `None` unless a test or experiment injects
//! one):
//!
//! * **OSTs** — `cc-pfs` scales each degraded OST's service time by
//!   [`FaultPlan::ost_slowdown`] and books a busy interval until
//!   [`FaultPlan::ost_stall`], so a sick server queues exactly like a
//!   healthy one under proportional extra load.
//! * **Links** — `cc-mpi` adds [`FaultPlan::link_extra`] to every
//!   message's arrival time: a fixed per-link (or all-links) delay plus a
//!   deterministic, hash-derived jitter. No randomness: the same plan
//!   yields the same virtual timeline on every run.
//! * **Ranks** — `cc-mpi` scales local-work charges on straggler ranks by
//!   [`FaultPlan::compute_factor`].
//!
//! Everything here is pure data + arithmetic; injection points live in the
//! crates that own the respective resources.

use crate::time::SimTime;

/// A declarative plan of injected faults. Build one with the chained
/// constructors, attach it via `ClusterModel::with_fault` (for network and
/// straggler faults) and `Pfs::with_fault_plan` (for OST faults).
///
/// ```
/// use cc_model::{FaultPlan, SimTime};
/// let plan = FaultPlan::new()
///     .slow_ost(3, 10.0)                       // OST 3 serves 10x slower
///     .stall_ost(0, SimTime::from_secs(2.0))   // OST 0 busy until t=2s
///     .delay_link(0, 5, 1e-3)                  // rank 0 -> rank 5 adds 1ms
///     .jitter(5e-4, 42)                        // deterministic <=0.5ms jitter
///     .straggle_rank(7, 4.0);                  // rank 7 computes 4x slower
/// assert_eq!(plan.ost_slowdown(3), 10.0);
/// assert_eq!(plan.compute_factor(7), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    slow_osts: Vec<(usize, f64)>,
    stalled_osts: Vec<(usize, SimTime)>,
    link_delays: Vec<(usize, usize, f64)>,
    link_delay_all: f64,
    jitter_amplitude: f64,
    jitter_seed: u64,
    stragglers: Vec<(usize, f64)>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Degrades `ost`: its service time is multiplied by `factor`.
    ///
    /// # Panics
    /// Panics unless `factor >= 1.0` (faults only slow things down).
    pub fn slow_ost(mut self, ost: usize, factor: f64) -> Self {
        assert!(
            factor >= 1.0,
            "OST slowdown factor must be >= 1, got {factor}"
        );
        self.slow_osts.push((ost, factor));
        self
    }

    /// Stalls `ost`: it is busy (serving nothing) until virtual time
    /// `until`. Requests arriving earlier queue behind the stall.
    pub fn stall_ost(mut self, ost: usize, until: SimTime) -> Self {
        self.stalled_osts.push((ost, until));
        self
    }

    /// Adds `extra_secs` of one-way delay to every message on the directed
    /// link `src -> dst`.
    ///
    /// # Panics
    /// Panics if `extra_secs` is negative or NaN.
    pub fn delay_link(mut self, src: usize, dst: usize, extra_secs: f64) -> Self {
        assert!(extra_secs >= 0.0, "link delay must be non-negative");
        self.link_delays.push((src, dst, extra_secs));
        self
    }

    /// Adds `extra_secs` of one-way delay to every message on every link.
    ///
    /// # Panics
    /// Panics if `extra_secs` is negative or NaN.
    pub fn delay_all_links(mut self, extra_secs: f64) -> Self {
        assert!(extra_secs >= 0.0, "link delay must be non-negative");
        self.link_delay_all += extra_secs;
        self
    }

    /// Adds deterministic per-message jitter in `[0, amplitude_secs)`,
    /// derived by hashing `(seed, src, dst, message index)` — reproducible
    /// across runs, varying across messages.
    ///
    /// # Panics
    /// Panics if `amplitude_secs` is negative or NaN.
    pub fn jitter(mut self, amplitude_secs: f64, seed: u64) -> Self {
        assert!(
            amplitude_secs >= 0.0,
            "jitter amplitude must be non-negative"
        );
        self.jitter_amplitude = amplitude_secs;
        self.jitter_seed = seed;
        self
    }

    /// Makes `rank` a straggler: its local-work charges (`Comm::advance`)
    /// are multiplied by `factor`.
    ///
    /// # Panics
    /// Panics unless `factor >= 1.0`.
    pub fn straggle_rank(mut self, rank: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "straggler factor must be >= 1, got {factor}");
        self.stragglers.push((rank, factor));
        self
    }

    /// The combined service-time multiplier for `ost` (1.0 if healthy).
    pub fn ost_slowdown(&self, ost: usize) -> f64 {
        self.slow_osts
            .iter()
            .filter(|(o, _)| *o == ost)
            .map(|(_, f)| f)
            .product()
    }

    /// The virtual time until which `ost` is stalled (ZERO if not stalled).
    pub fn ost_stall(&self, ost: usize) -> SimTime {
        self.stalled_osts
            .iter()
            .filter(|(o, _)| *o == ost)
            .map(|(_, t)| *t)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// The fixed delay on the directed link `src -> dst`: its per-link
    /// delays plus the all-link delay, without jitter.
    pub fn link_delay(&self, src: usize, dst: usize) -> SimTime {
        SimTime::from_secs(
            self.link_delay_all
                + self
                    .link_delays
                    .iter()
                    .filter(|(s, d, _)| *s == src && *d == dst)
                    .map(|(_, _, secs)| secs)
                    .sum::<f64>(),
        )
    }

    /// The extra delay injected into message number `msg_index` on the
    /// directed link `src -> dst`: fixed per-link and all-link delays plus
    /// deterministic jitter.
    pub fn link_extra(&self, src: usize, dst: usize, msg_index: u64) -> SimTime {
        let jitter = if self.jitter_amplitude > 0.0 {
            let h = splitmix64(
                self.jitter_seed
                    ^ (src as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ (dst as u64).rotate_left(32)
                    ^ msg_index.wrapping_mul(0xd134_2543_de82_ef95),
            );
            self.jitter_amplitude * (h as f64 / (u64::MAX as f64 + 1.0))
        } else {
            0.0
        };
        self.link_delay(src, dst) + SimTime::from_secs(jitter)
    }

    /// The local-work multiplier for `rank` (1.0 if not a straggler).
    pub fn compute_factor(&self, rank: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, f)| f)
            .product()
    }
}

/// SplitMix64: a tiny, high-quality bit mixer for deterministic jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultPlan {
        /// Whether the plan injects any network fault (fast-path check for the
        /// messaging layer).
        fn affects_links(&self) -> bool {
            self.link_delay_all > 0.0 || !self.link_delays.is_empty() || self.jitter_amplitude > 0.0
        }
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let plan = FaultPlan::new();
        assert_eq!(plan.ost_slowdown(0), 1.0);
        assert_eq!(plan.ost_stall(0), SimTime::ZERO);
        assert_eq!(plan.link_extra(0, 1, 0), SimTime::ZERO);
        assert_eq!(plan.compute_factor(0), 1.0);
        assert!(!plan.affects_links());
    }

    #[test]
    fn ost_faults_compose() {
        let plan = FaultPlan::new()
            .slow_ost(2, 10.0)
            .slow_ost(2, 2.0)
            .stall_ost(1, SimTime::from_secs(5.0))
            .stall_ost(1, SimTime::from_secs(3.0));
        assert_eq!(plan.ost_slowdown(2), 20.0);
        assert_eq!(plan.ost_slowdown(0), 1.0);
        assert_eq!(plan.ost_stall(1), SimTime::from_secs(5.0));
    }

    #[test]
    fn link_delay_is_per_directed_link() {
        let plan = FaultPlan::new().delay_link(0, 1, 1e-3);
        assert_eq!(plan.link_extra(0, 1, 7).secs(), 1e-3);
        assert_eq!(plan.link_extra(1, 0, 7), SimTime::ZERO);
        assert!(plan.affects_links());
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_varying() {
        let plan = FaultPlan::new().jitter(1e-3, 99);
        let a = plan.link_extra(0, 1, 0);
        let b = plan.link_extra(0, 1, 0);
        assert_eq!(a, b, "same message, same jitter");
        let c = plan.link_extra(0, 1, 1);
        assert_ne!(a, c, "different messages jitter differently");
        for i in 0..100 {
            let j = plan.link_extra(3, 4, i).secs();
            assert!((0.0..1e-3).contains(&j), "jitter {j} out of range");
        }
    }

    #[test]
    fn straggler_factor_applies_to_chosen_rank_only() {
        let plan = FaultPlan::new().straggle_rank(3, 4.0);
        assert_eq!(plan.compute_factor(3), 4.0);
        assert_eq!(plan.compute_factor(2), 1.0);
    }

    #[test]
    #[should_panic]
    fn speedup_factor_panics() {
        let _ = FaultPlan::new().slow_ost(0, 0.5);
    }
}
