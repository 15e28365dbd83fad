//! A PnetCDF-like array layer: named N-dimensional variables, hyperslab
//! access, and the logical↔byte mappings the paper's "logical map" needs.
//!
//! The high-level I/O request (`ncmpi_get_vara_*` in the paper's Fig. 5)
//! defines logical access coordinates; this crate flattens a hyperslab into
//! the byte offset list the MPI-IO layer consumes, and — the inverse the
//! paper calls *construction* (Fig. 8) — maps an arbitrary byte range of an
//! aggregated chunk back to logical subsets of a requester's hyperslab, so
//! that a map kernel can run on raw bytes mid-collective.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod dtype;
pub mod hyperslab;
pub mod logical;
pub mod shape;
pub mod variable;

pub use dataset::{get_vara_all, put_vara_all, Dataset};
pub use dtype::DType;
pub use hyperslab::{Hyperslab, SelectionError, StridedSlab};
pub use logical::{construct_runs, LogicalRun};
pub use shape::Shape;
pub use variable::Variable;
