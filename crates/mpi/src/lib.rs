//! An in-process MPI-like message-passing runtime with virtual time.
//!
//! This crate stands in for MPICH on the paper's Cray XE6: each rank is an
//! OS thread, communicators deliver real bytes through mailboxes, and every
//! operation advances a per-rank *virtual clock* according to the
//! [`cc_model`] cost model. The collectives (barrier, bcast, gather,
//! allgather, alltoallv, reduce, allreduce) are implemented over
//! point-to-point messages with the standard tree/dissemination algorithms,
//! so their virtual cost emerges from the same model as everything else.
//!
//! # Example
//!
//! ```
//! use cc_model::ClusterModel;
//! use cc_mpi::{ops, World};
//!
//! let world = World::new(4, ClusterModel::test_tiny(4));
//! let sums = world.run(|comm| {
//!     let mine = (comm.rank() + 1) as f64;
//!     comm.allreduce(&[mine], &ops::SumOp)[0]
//! });
//! assert_eq!(sums, vec![10.0; 4]);
//! ```

#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod elem;
pub mod hier;
mod memo;
pub mod ops;
pub mod pool;
pub mod stats;
pub mod world;

pub use comm::{Comm, RecvInfo, RecvRequest, Source, ANY_TAG};
pub use hier::{frame_sections, NodeView};
pub use elem::Elem;
pub use ops::ReduceOp;
pub use pool::BufferPool;
pub use stats::CommStats;
pub use world::World;
