//! SPMD launcher: one OS thread per rank, with run supervision.
//!
//! Every rank closure runs under a panic guard. The first rank to panic
//! records itself as the abort cause and wakes every mailbox condvar (and
//! the memo's), so peers blocked in `recv`, parked on a memo, agreement
//! or loan cell, or waiting for a loan's readers unwind immediately (well under the watchdog)
//! instead of timing out. [`World::run`] then re-raises a single panic
//! naming the *originating* rank and its message, plus a per-rank
//! diagnostic snapshot (virtual clock, collectives entered, pending
//! envelopes).

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cc_model::ClusterModel;

use crate::comm::{Attachment, Comm, Shared, WorldAborted};

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

/// Why a [`World`] cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WorldError {
    /// No ranks were asked for.
    Empty,
    /// More ranks than the topology has cores.
    Oversubscribed {
        /// Ranks asked for.
        nprocs: usize,
        /// Cores in the topology.
        cores: usize,
    },
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::Empty => write!(f, "need at least one rank"),
            WorldError::Oversubscribed { nprocs, cores } => {
                write!(f, "{nprocs} ranks exceed the topology's {cores} cores")
            }
        }
    }
}

impl std::error::Error for WorldError {}

/// A simulated MPI world: `nprocs` ranks placed on the model's topology.
///
/// `run` may be called repeatedly; each call is an independent job with
/// fresh mailboxes and clocks (like separate `mpiexec` invocations). Only
/// the world's [attachment](Self::attach) carries over from run to run.
pub struct World {
    nprocs: usize,
    model: ClusterModel,
    attachment: Option<Attachment>,
}

impl World {
    /// Creates a world of `nprocs` ranks.
    ///
    /// # Panics
    /// Panics with `try_new`'s error if `nprocs` is zero
    /// or exceeds the topology's core count.
    pub fn new(nprocs: usize, model: ClusterModel) -> Self {
        Self::try_new(nprocs, model).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a world of `nprocs` ranks, or says why it cannot: the model
    /// assumes at least one rank and at most one rank per core.
    pub(crate) fn try_new(nprocs: usize, model: ClusterModel) -> Result<Self, WorldError> {
        if nprocs == 0 {
            return Err(WorldError::Empty);
        }
        let cores = model.capacity();
        if nprocs > cores {
            return Err(WorldError::Oversubscribed { nprocs, cores });
        }
        Ok(Self {
            nprocs,
            model,
            attachment: None,
        })
    }

    /// Attaches `value` to the world: every rank of every later
    /// [`run`](Self::run) finds the same `Arc` through
    /// [`Comm::attached`]. It is how state that belongs to a job rather
    /// than to one call (a plan cache, say) reaches the plain entry
    /// points. One slot, not a type map; the value lives as long as the
    /// world.
    ///
    /// # Panics
    /// Panics if the world already has an attachment.
    pub fn attach<T: Any + Send + Sync>(mut self, value: Arc<T>) -> Self {
        if let Some(a) = &self.attachment {
            panic!(
                "world already carries a {} attachment; it has one slot",
                a.type_name
            );
        }
        self.attachment = Some(Attachment {
            value,
            type_name: std::any::type_name::<T>(),
        });
        self
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
        let shared = Shared::new(self.nprocs, self.model.clone(), self.attachment.clone());
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
        // memo or agreement cell still waiting for a taker means some rank
        // skipped one. (A lender withdraws its loan before it returns.)
        assert!(
            shared.memo.is_empty(),
            "memo entries outlived the run: the ranks did not all make the same memo and \
             agreement calls"
        );
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl World {
        /// Number of ranks.
        pub(crate) fn nprocs(&self) -> usize {
            self.nprocs
        }
    }

    #[test]
    fn ranks_are_numbered_and_sized() {
        let world = World::new(6, ClusterModel::test_tiny(6));
        let ids = world.run(|comm| (comm.rank(), comm.nprocs()));
        assert_eq!(ids, (0..6).map(|r| (r, 6)).collect::<Vec<_>>());
    }

    #[test]
    fn run_is_reusable_with_fresh_state() {
        let world = World::new(2, ClusterModel::test_tiny(2));
        for _ in 0..3 {
            let sent = world.run(|comm| {
                if comm.rank() == 0 {
                    comm.send_copy(1, 0, &[9]);
                    0
                } else {
                    comm.recv_bytes(0, 0).0[0]
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
                let _ = comm.recv_bytes(0, 99);
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
                let _ = comm.recv_bytes(0, 7);
            })
        }));
        // A fresh run on the same World works: state is per-run.
        let ok = world.run(|comm| {
            if comm.rank() == 0 {
                comm.send_copy(1, 7, &[3]);
                3
            } else {
                comm.recv_bytes(0, 7).0[0]
            }
        });
        assert_eq!(ok, vec![3, 3]);
    }

    #[test]
    #[should_panic(expected = "10 ranks exceed the topology's 4 cores")]
    fn oversubscription_panics() {
        let _ = World::new(10, ClusterModel::test_tiny(4));
    }

    #[test]
    #[should_panic(expected = "need at least one rank")]
    fn zero_ranks_panics() {
        let _ = World::new(0, ClusterModel::test_tiny(4));
    }

    #[test]
    fn attachment_reaches_every_rank_in_every_run() {
        let world = World::new(4, ClusterModel::test_tiny(4)).attach(Arc::new(41u64));
        for _ in 0..2 {
            let seen = world.run(|comm| *comm.attached::<u64>().expect("attached") + 1);
            assert_eq!(seen, vec![42; 4]);
        }
        // One value, not a copy per rank or per run.
        let ptrs = world.run(|comm| Arc::as_ptr(&comm.attached::<u64>().unwrap()) as usize);
        assert!(ptrs.iter().all(|&p| p == ptrs[0]));
    }

    #[test]
    fn nothing_is_attached_by_default() {
        let world = World::new(2, ClusterModel::test_tiny(2));
        assert_eq!(
            world.run(|comm| comm.attached::<u64>().is_none()),
            vec![true; 2]
        );
    }

    #[test]
    fn attachment_type_mismatch_names_both_types() {
        let world = World::new(2, ClusterModel::test_tiny(2)).attach(Arc::new(7u64));
        let payload = catch_unwind(AssertUnwindSafe(|| {
            world.run(|comm| comm.attached::<String>().is_some())
        }))
        .expect_err("a mismatched type must panic");
        let msg = panic_message(payload.as_ref());
        assert!(
            msg.contains("alloc::string::String") && msg.contains("u64"),
            "message must name both types, got: {msg}"
        );
    }

    #[test]
    #[should_panic(expected = "world already carries a u64 attachment")]
    fn second_attach_panics() {
        let _ = World::new(2, ClusterModel::test_tiny(2))
            .attach(Arc::new(1u64))
            .attach(Arc::new(2u32));
    }

    #[test]
    fn try_new_returns_what_new_panics_on() {
        let model = ClusterModel::test_tiny(4);
        assert_eq!(
            World::try_new(0, model.clone()).err(),
            Some(WorldError::Empty)
        );
        assert_eq!(
            World::try_new(5, model.clone()).err(),
            Some(WorldError::Oversubscribed {
                nprocs: 5,
                cores: 4
            })
        );
        assert_eq!(World::try_new(4, model).map(|w| w.nprocs()), Ok(4));
    }
}
