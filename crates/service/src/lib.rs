//! Multi-job collective service: a shared-cluster scheduler in front of
//! the collective-computing engines.
//!
//! One simulated cluster rarely runs one analysis at a time. This crate
//! admits, places, and runs N concurrent collective jobs over a single
//! shared [`cc_pfs::Pfs`], an optional shared backbone lane, and one
//! process-wide [`cc_mpiio::SharedPlanCache`]:
//!
//! * **Admission and placement** — a [`JobSpec`] names a file, a variable,
//!   a sweep of hyperslab steps, a rank count, an arrival time, and a QoS
//!   class; [`Service::submit`] validates it and [`Service::run`] carves
//!   whole nodes out of the cluster for each job (backfilled, so small
//!   jobs slip past wide ones waiting for nodes).
//! * **A virtual-time event loop over resident job worlds** — each job
//!   runs one `World::run` whose ranks park on the job's gate between
//!   steps; the loop grants one collective iteration at a time, each step
//!   placed at the job's own virtual frontier via `Comm::advance_to`, so
//!   concurrent jobs contend for OST intervals and backbone bandwidth
//!   exactly where their demand windows overlap, while the bytes each job
//!   moves stay untouched: every job's result is bit-identical to its
//!   solo run under every policy.
//! * **Cross-job plan reuse** — jobs issuing the same hyperslabs, on any
//!   identically striped file, hit one compiled schedule in the shared
//!   cache, one lookup per job step; per-job and cross-job counters ride
//!   in each [`JobResult`].
//! * **Fairness and QoS** — [`ServicePolicy::QosWfq`] steps interactive
//!   jobs first and weighted-fair-queues batch jobs over attributed OST
//!   busy-time; FIFO and round-robin are the baselines.
//! * **Many-task request fusion** — [`TaskBatch`] admits thousands of
//!   tiny independent analysis tasks, bins them by file and kernel
//!   class, union-merges each bin's extents, and serves every bin with
//!   one shared collective sweep — per-task results bit-identical to
//!   solo execution, per-task latency attributed through the batch.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod job;
pub mod service;

pub use batch::{
    BatchAdmissionError, BatchOutcome, BatchPolicy, BinReport, TaskBatch, TaskResult, TaskSpec,
};
pub use job::{AdmissionError, JobHandle, JobResult, JobSpec, QosClass, StepSpec};
pub use service::{percentile_time, Service, ServiceOutcome, ServicePolicy};

/// FNV-1a over the little-endian bytes of `words`: the result fingerprint
/// behind every `checksum` in this crate.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf29ce484222325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
}

/// `values` as checksum words: its length, then each value's bits.
fn sized_words(values: &[f64]) -> impl Iterator<Item = u64> + '_ {
    std::iter::once(values.len() as u64).chain(values.iter().map(|v| v.to_bits()))
}
