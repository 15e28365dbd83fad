//! Collective computing: the paper's contribution.
//!
//! The two-phase collective I/O of [`cc_mpiio`] reads aggregated chunks and
//! shuffles *raw bytes* to the requesting ranks, which then compute. This
//! crate breaks that constraint open: a user computation (a [`MapKernel`],
//! the paper's "object I/O" operator of Fig. 6) is pushed *into* the
//! collective, applied by each aggregator to every chunk as soon as it is
//! read (the "map on logical subsets" of Fig. 8), and only small partial
//! results — tagged with owner and logical metadata — travel in the second
//! phase, where a reduce completes the analysis (Fig. 4).
//!
//! The crate also implements the traditional baseline (collective read →
//! compute → `MPI_Reduce`, the paper's Fig. 5) that every experiment
//! compares against, with identical kernels and cost accounting.
//!
//! # Node-parallel map
//!
//! The paper motivates collective computing with CPU profiles (Figs. 2-3)
//! showing compute cores mostly idle during collective I/O; the inserted
//! map soaks up exactly that idle capacity. Accordingly, the engine models
//! the per-aggregator map rate as using the node's share of cores
//! (`cores_per_node / aggregators_per_node`), which makes the total map
//! capacity equal to the baseline's compute capacity — the assumption under
//! which the paper's Fig. 9 speedup curve is reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod engine;
pub mod fused;
pub mod intermediate;
pub mod iterative;
pub mod kernel;
pub mod object;
pub mod scatter;
pub mod scratch;

pub use baseline::{traditional_get_vara, traditional_get_vara_partial, BaselineReport};
pub use cc_compress::Tolerance;
pub use engine::{object_get_vara, CcOutcome, CcReport};
pub use fused::FusedKernel;
pub use iterative::{iterative_get_vara, IterativeOutcome};
pub use kernel::{
    CountKernel, MapKernel, MaxKernel, MaxLocKernel, MeanKernel, MinKernel, MinLocKernel, Partial,
    SumKernel, SumSqKernel,
};
pub use object::{IoMode, ObjectIo, ReduceMode};
pub use scatter::{fold_task_bytes, fold_task_from_fused};
