//! Cost models and virtual time for the collective-computing simulator.
//!
//! Every subsystem in this workspace moves *real bytes* between real OS
//! threads, but charges *virtual time* according to the models defined here.
//! This mirrors how the ICPP'15 "Collective Computing" paper reasons about
//! performance: phase durations are functions of bytes moved, messages sent,
//! seeks performed, and bytes computed — not of the host machine's clock.
//!
//! The crate is dependency-free and purely computational, which keeps the
//! models easy to property-test.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod booking;
pub mod cpu;
pub mod disk;
pub mod fault;
pub mod net;
pub mod pipeline;
pub mod time;
pub mod topology;

use std::time::Duration;

pub use booking::{Calendar, Load};
pub use cpu::CpuModel;
pub use disk::DiskModel;
pub use fault::FaultPlan;
pub use net::NetModel;
pub use pipeline::Lane;
pub use time::SimTime;
pub use topology::Topology;

/// How the runtime maps collectives and shuffles onto the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveMode {
    /// Pick per run: hierarchical when the world spans multiple multi-core
    /// nodes, flat otherwise (where hierarchy would only add hops). This is
    /// how the flat algorithms run in production: on single-node and
    /// one-core-per-node worlds.
    #[default]
    Auto,
    /// Always the topology-oblivious flat algorithms (one message per rank
    /// pair / binomial over ranks), even where `Auto` would go
    /// hierarchical. Nothing in production forces this: it is the oracle
    /// of the flat-vs-hierarchical properties, which run one workload
    /// under both modes and require identical results.
    Flat,
}

/// The complete cost model for a simulated cluster: topology plus network,
/// disk, and CPU parameters. One `ClusterModel` is shared (immutably) by all
/// rank threads of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterModel {
    /// Node/core layout and rank placement.
    pub topology: Topology,
    /// Interconnect cost parameters.
    pub net: NetModel,
    /// Parallel-file-system disk parameters.
    pub disk: DiskModel,
    /// Computation cost parameters.
    pub cpu: CpuModel,
    /// Injected faults (degraded links, stragglers); `None` — the default —
    /// is the zero-cost healthy-cluster fast path. OST faults from the same
    /// plan are applied separately via `Pfs::with_fault_plan`.
    pub fault: Option<FaultPlan>,
    /// How long a receive may block in *real* (wall-clock) time before the
    /// runtime declares the run deadlocked and aborts with a diagnostic.
    /// Virtual time is unaffected. Production-shaped models keep this
    /// high; test models drop it to seconds so a reintroduced hang fails
    /// the suite fast.
    pub recv_watchdog: Duration,
    /// Whether collectives and shuffles use the flat or the node-leader
    /// hierarchical algorithms (`Auto` decides per run from the topology).
    pub collectives: CollectiveMode,
}

impl ClusterModel {
    /// A model loosely calibrated to the paper's testbed (NERSC Hopper:
    /// Cray XE6, Gemini interconnect, Lustre with 35 GB/s peak over 156
    /// OSTs). Absolute values are representative, not measured; the
    /// benchmarks only rely on the *ratios* between phases.
    pub fn hopper_like(nodes: usize, cores_per_node: usize) -> Self {
        Self {
            topology: Topology::new(nodes, cores_per_node),
            net: NetModel::gemini_like(),
            disk: DiskModel::lustre_like(),
            cpu: CpuModel::magny_cours_like(),
            fault: None,
            recv_watchdog: Duration::from_secs(120),
            collectives: CollectiveMode::Auto,
        }
    }

    /// A tiny, fast model for unit tests: single node, negligible latency,
    /// round numbers that make hand-computed expectations easy.
    pub fn test_tiny(cores: usize) -> Self {
        Self {
            topology: Topology::new(1, cores),
            net: NetModel {
                latency_intra: 1e-6,
                latency_inter: 1e-5,
                bw_intra: 1e9,
                bw_inter: 1e9,
                send_overhead: 1e-7,
                scatter_overhead: 1e-7,
                msg_overhead_intra: 1e-7,
                msg_overhead_inter: 1e-6,
            },
            disk: DiskModel {
                seek: 1e-4,
                ost_bandwidth: 1e8,
            },
            cpu: CpuModel {
                map_cost_per_byte: 1e-9,
                reduce_cost_per_element: 1e-9,
                memcpy_cost_per_byte: 1e-10,
                metadata_cost_per_entry: 1e-7,
                compress_cost_per_element: 1e-9,
            },
            fault: None,
            // Tests fail fast: a receive blocked this long in real time is
            // a genuine deadlock, not a slow peer.
            recv_watchdog: Duration::from_secs(30),
            collectives: CollectiveMode::Auto,
        }
    }

    /// Overrides the collective algorithm selection. The switch exists for
    /// tests: forcing [`CollectiveMode::Flat`] on a multi-node topology
    /// gives the reference every hierarchical collective and shuffle must
    /// reproduce bit for bit (`cc-mpi`'s `assert_modes_agree` and
    /// `prop_bcast_and_gather_agree`, and the engines' flat-vs-hierarchical
    /// equivalence tests). Production models keep the default `Auto`.
    pub fn with_collectives(mut self, mode: CollectiveMode) -> Self {
        self.collectives = mode;
        self
    }

    /// Attaches a fault-injection plan (network delays, stragglers).
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Overrides the blocked-receive watchdog duration.
    pub fn with_recv_watchdog(mut self, watchdog: Duration) -> Self {
        self.recv_watchdog = watchdog;
        self
    }

    /// Number of ranks this model can host (one per core).
    pub fn capacity(&self) -> usize {
        self.topology.nodes * self.topology.cores_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hopper_like_capacity() {
        let m = ClusterModel::hopper_like(5, 24);
        assert_eq!(m.capacity(), 120);
    }

    #[test]
    fn test_tiny_is_single_node() {
        let m = ClusterModel::test_tiny(8);
        assert_eq!(m.topology.nodes, 1);
        assert!(m.topology.same_node(0, 7));
    }
}
