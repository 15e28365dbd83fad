//! A Lustre-like striped parallel file system simulator.
//!
//! Files are striped round-robin over OST (object storage target) objects,
//! exactly like the 40/156-OST Lustre volumes in the paper. Reads and
//! writes move real bytes (from in-memory or lazily-generated synthetic
//! backends) and are *timed*: each OST is a serially-reused server with a
//! positioning cost per discontiguous extent and a streaming bandwidth, so
//! aggregated contiguous access is fast and scattered small access is slow —
//! the asymmetry that two-phase collective I/O exists to exploit.
//!
//! TB-scale datasets (the paper's 429 TB climate variable) are representable
//! because [`backend::SyntheticBackend`] generates bytes
//! as a closed-form function of the element index; nothing is materialized.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod fault;
pub mod fs;
pub mod layout;
pub mod ost;

pub use backend::{Backend, MemBackend, OverlayBackend, SyntheticBackend, ValueFn};
/// One OST's load at a probe time, as [`Pfs::ost_snapshot`] reports it:
/// the booking calendar's [`Load`](cc_model::Load) record.
pub use cc_model::Load as OstSnapshot;
pub use fault::RetryPlan;
pub use fs::{FileHandle, Pfs, PfsStatsSnapshot};
pub use layout::StripeLayout;
