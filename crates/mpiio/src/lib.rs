//! A ROMIO-like MPI-IO layer: two-phase collective I/O over the simulated
//! parallel file system.
//!
//! This is the substrate the paper modifies. The pipeline is the classic
//! ROMIO two-phase protocol (Thakur, Gropp, Lusk: "Data sieving and
//! collective I/O in ROMIO"):
//!
//! 1. every rank flattens its request into an offset-length list and the
//!    lists are exchanged ([`exchange`]);
//! 2. the covered file range is partitioned into *file domains*, one per
//!    aggregator ([`plan`]);
//! 3. each aggregator iterates over its domain in collective-buffer-sized
//!    chunks, reading large contiguous extents (phase 1) and scattering the
//!    pieces to the requesting ranks (phase 2, the shuffle);
//! 4. in non-blocking mode the shuffle of iteration *i* overlaps the read
//!    of iteration *i+1* through a ring of staging buffers ([`stage`]), as
//!    profiled in the paper's Fig. 1.
//!
//! [`independent`] implements the non-collective baseline (per-rank reads,
//! optionally with data sieving) used for the paper's Fig. 3 comparison.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exchange;
pub mod extent;
pub mod fuse;
pub mod hints;
pub mod independent;
pub mod plan;
pub mod schedule;
mod shuffle;
pub mod stage;
pub mod twophase;
pub mod write;

pub use extent::{Extent, OffsetList, Piece};
pub use fuse::{fuse_extents, project_extent, project_task, FuseStats};
pub use hints::{Compression, DomainPartition, ErrorBound, Hints, PipelineDepth, Striping};
pub use independent::{
    independent_read, independent_write, sieving_read, sieving_write, IndependentReport,
};
pub use plan::CollectivePlan;
pub use schedule::{PlanCacheStats, PlanSchedule, PlanScope, SharedPlanCache};
pub use stage::Staging;
pub use twophase::{collective_read, IterationTiming, TwoPhaseReport};
pub use write::{collective_write, WriteReport};
