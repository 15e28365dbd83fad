//! MPI-IO hints, mirroring the ROMIO `cb_*` info keys the paper tunes.

pub use cc_compress::{Compression, ErrorBound};

/// How the covered file range is partitioned into aggregator file domains.
///
/// Mirrors ROMIO's Lustre driver: plain even splitting, stripe-aligned
/// even splitting, and Liao/Choudhary group-cyclic partitioning where each
/// aggregator owns whole stripe-sets from a disjoint subset of OSTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DomainPartition {
    /// Even contiguous split of the covered range (generic ROMIO).
    #[default]
    Even,
    /// Even contiguous split with domain boundaries aligned to
    /// `lcm(align_domains_to, stripe_size)`, so no domain splits a stripe.
    /// Falls back to [`Even`](Self::Even) when striping is unknown.
    StripeAligned,
    /// Group-cyclic (Liao/Choudhary-style, Lustre-aware ROMIO): the file is
    /// viewed as periods of `stripe_count × stripe_size` bytes anchored at
    /// offset 0, and each aggregator owns the stripes of a disjoint subset
    /// of OSTs in every period — so each OST is served by (ideally) one
    /// aggregator. Requires known striping with the stripe size a multiple
    /// of the planner's alignment; otherwise falls back to
    /// [`StripeAligned`](Self::StripeAligned).
    GroupCyclic,
}

/// How many collective-buffer slots each aggregator cycles through — the
/// depth of the software pipeline across collective-buffer iterations.
///
/// The engines stage every iteration through a buffer slot
/// ([`crate::stage::Staging`]); with `d` slots, iteration `i`'s read may
/// not begin until iteration `i - d` has fully drained its slot (shuffled,
/// mapped, or written it out). Depth 2 is the classic double buffer: the
/// read of `i + 1` overlaps the drain of `i`. One slot — read, drain,
/// repeat — is blocking mode (`nonblocking: false`), not a depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PipelineDepth {
    /// A bounded ring of `n >= 2` buffers (2 = double buffering).
    Depth(usize),
    /// Unlimited staging buffers: reads are gated only by the I/O lane.
    /// The historical engine behavior, and the default.
    #[default]
    Unbounded,
}

impl PipelineDepth {
    /// [`validate`](Self::validate) as a value: the violated invariant.
    fn check(&self) -> Result<(), String> {
        match self {
            Self::Depth(n) if *n < 2 => Err(format!(
                "PipelineDepth::Depth needs at least two buffers (got {n}); \
                 use `nonblocking: false` for a single buffer"
            )),
            _ => Ok(()),
        }
    }
}

/// File striping as carried by MPI-IO hints (ROMIO's `striping_unit` /
/// `striping_factor` info keys). Engines inject this from the open file's
/// layout before planning, so stripe-aware partition strategies — and the
/// plan-cache key — see the striping without new plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Striping {
    /// Stripe size in bytes (`striping_unit`).
    pub unit: u64,
    /// Number of OSTs the file round-robins over (`striping_factor`).
    pub factor: usize,
}

impl Striping {
    /// One full round-robin period: `factor × unit` bytes.
    pub(crate) fn period(&self) -> u64 {
        self.unit * self.factor as u64
    }
}

impl From<&cc_pfs::StripeLayout> for Striping {
    fn from(layout: &cc_pfs::StripeLayout) -> Self {
        Self {
            unit: layout.stripe_size,
            factor: layout.stripe_count(),
        }
    }
}

/// Tuning knobs of the two-phase engine.
///
/// `Eq`/`Hash` let hints participate in plan-cache keys
/// (`cc_mpiio::SharedPlanCache`): any hint change must miss the cache,
/// since every field affects the compiled schedule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Hints {
    /// Collective buffer size per aggregator per iteration
    /// (`cb_buffer_size`; ROMIO default 4 MiB — the value profiled in the
    /// paper's Fig. 1 and swept in Fig. 12).
    pub cb_buffer_size: u64,
    /// Aggregators per node (`cb_config_list`-style placement).
    pub aggregators_per_node: usize,
    /// Overlap the shuffle of iteration `i` with the read of `i+1`
    /// (double-buffered, the paper's default "non-blocking" collective I/O).
    pub nonblocking: bool,
    /// Align file-domain boundaries to stripe boundaries (ROMIO's
    /// `striping_unit`-aware partitioning).
    pub align_domains_to: Option<u64>,
    /// File-domain partition strategy (see [`DomainPartition`]).
    pub domain_partition: DomainPartition,
    /// File striping, when known (`striping_unit`/`striping_factor`).
    /// Engines inject this from the open file's layout; stripe-aware
    /// strategies degrade gracefully when it is `None`.
    pub striping: Option<Striping>,
    /// Software-pipeline depth across collective-buffer iterations (see
    /// [`PipelineDepth`]). Only meaningful in non-blocking mode — blocking
    /// mode is sequential by definition, whatever this says.
    pub pipeline_depth: PipelineDepth,
    /// How shuffle payloads and coalesced frames that cross a node
    /// boundary are compressed (see [`Compression`]). Intra-node traffic
    /// always stays raw — the inter-node links and the PFS are where the
    /// bytes are expensive. `Off` (the default) keeps every engine on its
    /// original unframed path, bit- and clock-identical to the seed.
    pub compression: Compression,
}

impl Default for Hints {
    fn default() -> Self {
        Self {
            cb_buffer_size: 4 << 20,
            aggregators_per_node: 1,
            nonblocking: true,
            align_domains_to: None,
            domain_partition: DomainPartition::Even,
            striping: None,
            pipeline_depth: PipelineDepth::Unbounded,
            compression: Compression::Off,
        }
    }
}

impl Hints {
    /// Validates invariants (positive buffer, positive aggregator count).
    ///
    /// # Panics
    /// Panics with [`check`](Self::check)'s message on invalid hints.
    pub(crate) fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// The first invariant these hints violate, if any: a zero buffer
    /// size, aggregator count, alignment or striping field, a one-buffer
    /// pipeline ring, or an error bound that bounds nothing. Lets callers
    /// refuse bad hints up front instead of panicking mid-collective.
    pub fn check(&self) -> Result<(), String> {
        let fail = |ok: bool, msg: &str| if ok { Ok(()) } else { Err(msg.to_string()) };
        fail(self.cb_buffer_size > 0, "cb_buffer_size must be positive")?;
        fail(
            self.aggregators_per_node > 0,
            "need at least one aggregator per node",
        )?;
        fail(
            self.align_domains_to != Some(0),
            "alignment must be positive",
        )?;
        if let Some(s) = self.striping {
            fail(s.unit > 0, "striping unit must be positive")?;
            fail(s.factor > 0, "striping factor must be positive")?;
        }
        self.pipeline_depth.check()?;
        match self.compression {
            Compression::ErrorBounded(b) => fail(
                b.abs > 0.0 || b.rel > 0.0,
                "error-bounded compression needs a positive bound",
            ),
            _ => Ok(()),
        }
    }

    /// How many staging slots each aggregator cycles through, or `None` for
    /// unbounded staging: one in blocking mode, otherwise
    /// [`pipeline_depth`](Self::pipeline_depth)'s ring.
    pub(crate) fn staging_depth(&self) -> Option<usize> {
        match (self.nonblocking, self.pipeline_depth) {
            (false, _) => Some(1),
            (true, PipelineDepth::Depth(n)) => Some(n),
            (true, PipelineDepth::Unbounded) => None,
        }
    }

    /// The partition strategy the planner *actually* applies after its
    /// fallback chain: stripe-aware strategies degrade to even splitting
    /// without striping, and group-cyclic degrades to stripe-aligned-even
    /// when the stripe size is not a multiple of the alignment (a
    /// group-cyclic chunk would split an alignment unit).
    /// `CollectivePlan::build` partitions by it.
    pub(crate) fn effective_partition(&self) -> DomainPartition {
        let align = self.align_domains_to.unwrap_or(1);
        match (self.domain_partition, self.striping) {
            (_, None) => DomainPartition::Even,
            (DomainPartition::GroupCyclic, Some(s)) if s.unit % align != 0 => {
                DomainPartition::StripeAligned
            }
            (p, Some(_)) => p,
        }
    }
}

/// Greatest common divisor.
pub(crate) fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple (panics on zero operands via division).
pub(crate) fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PipelineDepth {
        /// Validates the invariant that a bounded ring holds at least two
        /// buffers (one buffer is blocking mode).
        ///
        /// # Panics
        /// Panics on `Depth(0)` or `Depth(1)`.
        pub(crate) fn validate(&self) {
            if let Err(e) = self.check() {
                panic!("{e}");
            }
        }
    }

    #[test]
    fn default_matches_romio() {
        let h = Hints::default();
        assert_eq!(h.cb_buffer_size, 4 << 20);
        assert!(h.nonblocking);
        h.validate();
    }

    #[test]
    #[should_panic]
    fn zero_buffer_rejected() {
        Hints {
            cb_buffer_size: 0,
            ..Hints::default()
        }
        .validate();
    }

    #[test]
    fn check_reports_what_validate_panics_on() {
        assert_eq!(Hints::default().check(), Ok(()));
        let zero = Hints {
            cb_buffer_size: 0,
            ..Hints::default()
        };
        assert_eq!(
            zero.check(),
            Err("cb_buffer_size must be positive".to_string())
        );
        let one_slot = Hints {
            pipeline_depth: PipelineDepth::Depth(1),
            ..Hints::default()
        };
        assert!(one_slot
            .check()
            .unwrap_err()
            .contains("at least two buffers"));
    }

    #[test]
    fn effective_partition_tracks_planner_fallbacks() {
        let striped = Some(Striping {
            unit: 10,
            factor: 4,
        });
        let h = |p, s, a| Hints {
            domain_partition: p,
            striping: s,
            align_domains_to: a,
            ..Hints::default()
        };
        // No striping: everything degrades to even.
        for p in [
            DomainPartition::Even,
            DomainPartition::StripeAligned,
            DomainPartition::GroupCyclic,
        ] {
            assert_eq!(
                h(p, None, Some(4)).effective_partition(),
                DomainPartition::Even
            );
        }
        // Stripe 10 with alignment 4 (the plan.rs fallback case): the
        // planner degrades group-cyclic to stripe-aligned-even.
        let fallback = h(DomainPartition::GroupCyclic, striped, Some(4));
        assert_eq!(
            fallback.effective_partition(),
            DomainPartition::StripeAligned
        );
        // Aligned stripe: group-cyclic stands.
        let aligned = h(DomainPartition::GroupCyclic, striped, Some(2));
        assert_eq!(aligned.effective_partition(), DomainPartition::GroupCyclic);
    }

    #[test]
    fn pipeline_depth_bounds_and_validation() {
        let depth = |nonblocking, pipeline_depth| {
            Hints {
                nonblocking,
                pipeline_depth,
                ..Hints::default()
            }
            .staging_depth()
        };
        assert_eq!(depth(false, PipelineDepth::Unbounded), Some(1));
        assert_eq!(depth(false, PipelineDepth::Depth(3)), Some(1));
        assert_eq!(depth(true, PipelineDepth::Depth(2)), Some(2));
        assert_eq!(depth(true, PipelineDepth::Depth(3)), Some(3));
        assert_eq!(depth(true, PipelineDepth::Unbounded), None);
        assert_eq!(PipelineDepth::default(), PipelineDepth::Unbounded);
        Hints {
            pipeline_depth: PipelineDepth::Depth(2),
            ..Hints::default()
        }
        .validate();
    }

    #[test]
    #[should_panic]
    fn single_buffer_depth_rejected() {
        PipelineDepth::Depth(1).validate();
    }

    #[test]
    fn striping_from_layout() {
        let layout = cc_pfs::StripeLayout::round_robin(128, 3, 0, 8);
        let s = Striping::from(&layout);
        assert_eq!((s.unit, s.factor, s.period()), (128, 3, 384));
    }
}
