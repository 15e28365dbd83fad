//! Object I/O: the user-facing request descriptor of the paper's Fig. 6.
//!
//! ```text
//! io.start[0]  = (dim/nprocs)*rank;   ->  ObjectIo::new(start, count)
//! io.mode      = collective;          ->  .mode(IoMode::Collective)
//! io.block     = false;               ->  .blocking(false)
//! MPI_Op_create(compute, 1, &op);     ->  a MapKernel
//! ncmpi_object_get_vara_float(io,op); ->  object_get_vara(..., &io, &op)
//! ```

use cc_mpiio::Hints;

use crate::engine::default_root;

/// How the I/O phase runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// Two-phase collective I/O (aggregators + shuffle).
    Collective,
    /// Each rank reads its own request directly.
    Independent,
}

/// How intermediate results are reduced (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceMode {
    /// All intermediate results go to one node, which constructs each
    /// process's partials and performs the final reduce.
    AllToOne {
        /// The collecting rank.
        root: usize,
    },
    /// Intermediate results are shuffled so each process gets its own
    /// partials and reduces locally; a final reduce then produces the
    /// global result at `root`. Costs more communication but leaves
    /// per-process results in place for further local processing.
    AllToAll {
        /// The rank holding the final global result.
        root: usize,
    },
}

impl ReduceMode {
    /// The rank that ends up with the global result.
    pub(crate) fn root(&self) -> usize {
        match *self {
            ReduceMode::AllToOne { root } | ReduceMode::AllToAll { root } => root,
        }
    }
}

/// An object-I/O request: access region, I/O mode, blocking flag, hints,
/// and reduce mode. The computation itself travels separately as a
/// [`MapKernel`](crate::MapKernel), mirroring the paper's split between the
/// I/O region and the `MPI_Op`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectIo {
    /// Per-dimension selection start (the paper's `io.start`).
    pub start: Vec<u64>,
    /// Per-dimension selection count (the paper's `io.count`).
    pub count: Vec<u64>,
    /// I/O mode (the paper's `io.mode`).
    pub mode: IoMode,
    /// `true` reproduces traditional MPI-IO behaviour: compute only after
    /// the full read (the paper's `io.block = true` escape hatch).
    pub blocking: bool,
    /// Two-phase engine hints.
    pub hints: Hints,
    /// Reduce topology for the intermediate results.
    pub reduce: ReduceMode,
}

impl ObjectIo {
    /// A collective, non-blocking object I/O over the given selection with
    /// default hints and all-to-one reduce at rank 0 — the paper's default
    /// configuration.
    pub fn new(start: Vec<u64>, count: Vec<u64>) -> Self {
        assert_eq!(start.len(), count.len(), "start/count rank mismatch");
        Self {
            start,
            count,
            mode: IoMode::Collective,
            blocking: false,
            hints: Hints::default(),
            reduce: ReduceMode::AllToOne {
                root: default_root(),
            },
        }
    }

    /// Sets the I/O mode.
    pub fn mode(mut self, mode: IoMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the blocking flag.
    pub fn blocking(mut self, blocking: bool) -> Self {
        self.blocking = blocking;
        self
    }

    /// Sets the engine hints.
    pub fn hints(mut self, hints: Hints) -> Self {
        self.hints = hints;
        self
    }

    /// Sets the reduce mode.
    pub fn reduce(mut self, reduce: ReduceMode) -> Self {
        self.reduce = reduce;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_mirrors_figure_six() {
        let io = ObjectIo::new(vec![0, 4], vec![2, 2])
            .mode(IoMode::Collective)
            .blocking(false)
            .reduce(ReduceMode::AllToAll { root: 3 });
        assert_eq!(io.start, vec![0, 4]);
        assert_eq!(io.count, vec![2, 2]);
        assert_eq!(io.mode, IoMode::Collective);
        assert!(!io.blocking);
        assert_eq!(io.reduce.root(), 3);
    }

    #[test]
    fn default_is_collective_nonblocking_all_to_one() {
        let io = ObjectIo::new(vec![0], vec![1]);
        assert_eq!(io.mode, IoMode::Collective);
        assert!(!io.blocking);
        assert_eq!(io.reduce, ReduceMode::AllToOne { root: 0 });
    }

    #[test]
    #[should_panic]
    fn rank_mismatch_panics() {
        let _ = ObjectIo::new(vec![0, 0], vec![1]);
    }
}
