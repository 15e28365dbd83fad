//! An in-process MPI-like message-passing runtime with virtual time.
//!
//! This crate stands in for MPICH on the paper's Cray XE6: each rank is an
//! OS thread, communicators deliver real bytes through mailboxes, and every
//! operation advances a per-rank *virtual clock* according to the
//! [`cc_model`] cost model. The collectives the engines call (barrier, the
//! allgather behind the offset-list exchange, alltoallv and reduce) are
//! implemented over point-to-point messages with the standard
//! tree/dissemination/ring algorithms, flat or node-leader hierarchical,
//! so their virtual cost emerges from the same model as everything else.
//!
//! Point-to-point messages are bytes. The one typed payload is the reduce's:
//! a slice of `u64` words (the wire form of every partial the engines
//! reduce, see [`words`]), combined by a [`ReduceOp`] — the analogue of
//! `MPI_Op_create` on a user function, which any
//! `Fn(&mut [u64], &[u64])` closure satisfies.
//!
//! # Example
//!
//! ```
//! use cc_model::ClusterModel;
//! use cc_mpi::World;
//!
//! let world = World::new(4, ClusterModel::test_tiny(4));
//! let sums = world.run(|comm| {
//!     let mine = comm.rank() as u64 + 1;
//!     comm.reduce(0, &[mine], &|acc: &mut [u64], inc: &[u64]| acc[0] += inc[0])
//! });
//! assert_eq!(sums[0], Some(vec![10]));
//! assert!(sums[1..].iter().all(Option::is_none));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod hier;
// The one module that may use `unsafe`: a loan's lifetime erasure.
#[allow(unsafe_code)]
mod loan;
mod memo;
pub mod ops;
pub mod pool;
pub mod stats;
pub mod words;
pub mod world;

pub use comm::{Comm, Payload};
pub use hier::{frame_sections, NodeView};
pub use loan::Borrowed;
pub use ops::ReduceOp;
pub use stats::CommStats;
pub use world::World;
