//! SPMD launcher: one OS thread per rank, with run supervision.
//!
//! Every rank closure runs under a panic guard. The first rank to panic
//! records itself as the abort cause and wakes every mailbox condvar (and
//! the memo's), so peers blocked in `recv` or parked on a memo cell unwind
//! immediately (well under the watchdog) instead of timing out. [`World::run`] then re-raises a single panic
//! naming the *originating* rank and its message, plus a per-rank
//! diagnostic snapshot (virtual clock, collectives entered, pending
//! envelopes).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cc_model::ClusterModel;

use crate::comm::{Comm, Shared, WorldAborted};

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A simulated MPI world: `nprocs` ranks placed on the model's topology.
///
/// `run` may be called repeatedly; each call is an independent job with
/// fresh mailboxes and clocks (like separate `mpiexec` invocations).
pub struct World {
    nprocs: usize,
    model: ClusterModel,
}

impl World {
    /// Creates a world of `nprocs` ranks.
    ///
    /// # Panics
    /// Panics if `nprocs` is zero or exceeds the topology's core count —
    /// the model assumes at most one rank per core.
    pub fn new(nprocs: usize, model: ClusterModel) -> Self {
        assert!(nprocs > 0, "need at least one rank");
        assert!(
            nprocs <= model.capacity(),
            "{nprocs} ranks exceed the topology's {} cores",
            model.capacity()
        );
        Self { nprocs, model }
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The cluster model used by this world.
    pub fn model(&self) -> &ClusterModel {
        &self.model
    }

    /// Runs `f` on every rank concurrently and returns the per-rank results
    /// in rank order. Blocks until all ranks finish.
    ///
    /// # Panics
    /// If any rank panics, every other rank is unwound promptly (blocked
    /// receivers are woken rather than left to the watchdog) and, after all
    /// threads are joined, a single panic is raised naming the originating
    /// rank, its message, and a per-rank diagnostic snapshot.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let shared = Shared::new(self.nprocs, self.model.clone());
        let f = &f;
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.nprocs)
                .map(|rank| {
                    let shared = Arc::clone(&shared);
                    let nprocs = self.nprocs;
                    scope.spawn(move || {
                        let mut comm = Comm::new(rank, nprocs, Arc::clone(&shared));
                        match catch_unwind(AssertUnwindSafe(|| f(&mut comm))) {
                            Ok(result) => result,
                            Err(payload) => {
                                // Secondary unwinds (peers woken by the
                                // abort) must not overwrite the cause.
                                if !payload.is::<WorldAborted>() {
                                    shared.signal_abort(rank, panic_message(payload.as_ref()));
                                }
                                resume_unwind(payload);
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        if let Some(info) = shared.abort_info() {
            panic!(
                "rank {} panicked: {}\n{}",
                info.rank,
                info.message,
                shared.diagnostic()
            );
        }
        let results = results
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect();
        // Every rank returned, so every rank passed every collective: a
        // memo cell still waiting for a taker means some rank skipped one.
        assert!(
            shared.memo.is_empty(),
            "memo entries outlived the run: the ranks did not all make the same memo calls"
        );
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_numbered_and_sized() {
        let world = World::new(6, ClusterModel::test_tiny(6));
        let ids = world.run(|comm| (comm.rank(), comm.nprocs()));
        assert_eq!(
            ids,
            (0..6).map(|r| (r, 6)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_is_reusable_with_fresh_state() {
        let world = World::new(2, ClusterModel::test_tiny(2));
        for _ in 0..3 {
            let sent = world.run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0, &[9u8]);
                    0
                } else {
                    comm.recv::<u8>(0, 0).0[0]
                }
            });
            assert_eq!(sent[1], 9);
        }
    }

    #[test]
    fn rank_panic_aborts_blocked_peers_quickly() {
        // Rank 1 panics while every other rank is blocked in recv on a
        // message that will never come. The supervisor must wake them and
        // surface rank 1's panic well under the watchdog (and under the
        // 5 s budget the tests run with).
        let t0 = std::time::Instant::now();
        let world = World::new(4, ClusterModel::test_tiny(4));
        let result = catch_unwind(AssertUnwindSafe(|| {
            world.run(|comm| {
                if comm.rank() == 1 {
                    panic!("injected failure on rank 1");
                }
                // Blocks forever: nobody sends tag 99.
                let _ = comm.recv::<u8>(0, 99);
            })
        }));
        let elapsed = t0.elapsed();
        let payload = result.expect_err("world must propagate the panic");
        let msg = panic_message(payload.as_ref());
        assert!(
            msg.contains("rank 1 panicked: injected failure on rank 1"),
            "panic must name the originating rank, got: {msg}"
        );
        assert!(
            msg.contains("clock="),
            "panic must carry the diagnostic snapshot, got: {msg}"
        );
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "abort took {elapsed:?}, should be well under 5 s"
        );
    }

    #[test]
    fn abort_does_not_poison_subsequent_runs() {
        let world = World::new(2, ClusterModel::test_tiny(2));
        let _ = catch_unwind(AssertUnwindSafe(|| {
            world.run(|comm| {
                if comm.rank() == 0 {
                    panic!("boom");
                }
                let _ = comm.recv::<u8>(0, 7);
            })
        }));
        // A fresh run on the same World works: state is per-run.
        let ok = world.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[3u8]);
                3
            } else {
                comm.recv::<u8>(0, 7).0[0]
            }
        });
        assert_eq!(ok, vec![3, 3]);
    }

    #[test]
    #[should_panic]
    fn oversubscription_panics() {
        let _ = World::new(10, ClusterModel::test_tiny(4));
    }

    #[test]
    #[should_panic]
    fn zero_ranks_panics() {
        let _ = World::new(0, ClusterModel::test_tiny(4));
    }
}
