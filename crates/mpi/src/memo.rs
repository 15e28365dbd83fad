//! Per-world SPMD memo: work every rank would repeat, done once.
//!
//! Ranks are threads of one process, and after a collective they often
//! hold identical inputs — every rank's allgather result, the plan built
//! from it — and go on to derive the identical value from them. The
//! simulator charges none of that derivation to the virtual clock, so
//! computing it once and handing every rank the same `Arc` changes nothing
//! a rank can observe except the host time it burns. [`Comm::memo`] is
//! that hand-off; this module holds the table behind it.
//!
//! A cell is keyed by the collective sequence number of its call site,
//! lives in the `Shared` state of one `World::run`, and is dropped when the
//! last rank has taken its value — so back-to-back collectives, repeated
//! runs and concurrent worlds can never see each other's entries.
//!
//! [`Comm::memo`]: crate::Comm::memo

use std::any::Any;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::comm::lock_unpoisoned;

/// A memoized value, type-erased so one table serves every call site.
pub(crate) type MemoValue = Arc<dyn Any + Send + Sync>;

struct Cell {
    /// `None` while the first rank is still computing.
    value: Option<MemoValue>,
    /// Ranks that have not taken the value yet.
    remaining: usize,
}

/// The memo table of one run.
#[derive(Default)]
pub(crate) struct Memo {
    cells: Mutex<HashMap<u32, Cell>>,
    changed: Condvar,
}

impl Memo {
    /// Registers the caller at cell `key` of a `nprocs`-rank world. True
    /// for the first rank to arrive, which must compute and
    /// [`publish`](Self::publish); everyone else [`take`](Self::take)s.
    pub(crate) fn claim(&self, key: u32, nprocs: usize) -> bool {
        match lock_unpoisoned(&self.cells).entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(Cell {
                    value: None,
                    remaining: nprocs,
                });
                true
            }
        }
    }

    /// Stores the computing rank's value (which keeps its own handle, so
    /// this also counts as its take) and wakes the waiting ranks.
    pub(crate) fn publish(&self, key: u32, value: MemoValue) {
        let mut cells = lock_unpoisoned(&self.cells);
        let cell = cells.get_mut(&key).expect("publish follows claim");
        cell.value = Some(value);
        Self::release_one(&mut cells, key);
        self.changed.notify_all();
    }

    /// Blocks until cell `key` is published and returns its value, or
    /// `None` once `aborted` reports that the world is being torn down
    /// (the computing rank panicked, so the value will never come).
    pub(crate) fn take(&self, key: u32, aborted: impl Fn() -> bool) -> Option<MemoValue> {
        let mut cells = lock_unpoisoned(&self.cells);
        loop {
            // Checked under the lock `wake_all` takes, so an abort raised
            // after this check cannot slip its wakeup past the wait below.
            if aborted() {
                return None;
            }
            if let Some(value) = cells.get(&key).and_then(|c| c.value.clone()) {
                Self::release_one(&mut cells, key);
                return Some(value);
            }
            cells = self
                .changed
                .wait(cells)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Counts one rank's take; the last one drops the cell.
    fn release_one(cells: &mut HashMap<u32, Cell>, key: u32) {
        let cell = cells.get_mut(&key).expect("cell outlives its takers");
        cell.remaining -= 1;
        if cell.remaining == 0 {
            cells.remove(&key);
        }
    }

    /// Wakes every rank parked in [`take`](Self::take) so it re-checks the
    /// abort flag. Called by the run supervisor after it sets the flag.
    pub(crate) fn wake_all(&self) {
        let _cells = lock_unpoisoned(&self.cells);
        self.changed.notify_all();
    }

    /// Whether every cell has been taken by every rank.
    pub(crate) fn is_empty(&self) -> bool {
        lock_unpoisoned(&self.cells).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    use cc_model::ClusterModel;

    use crate::world::{panic_message, World};

    #[test]
    fn one_rank_computes_and_all_share_the_allocation() {
        for n in [1, 2, 7, 32] {
            let computed = AtomicUsize::new(0);
            let values = World::new(n, ClusterModel::test_tiny(n)).run(|comm| {
                comm.memo(|| {
                    computed.fetch_add(1, Ordering::SeqCst);
                    vec![1u64, 2, 3]
                })
            });
            assert_eq!(computed.load(Ordering::SeqCst), 1, "{n} ranks");
            for v in &values {
                assert!(Arc::ptr_eq(v, &values[0]));
                assert_eq!(**v, vec![1, 2, 3]);
            }
        }
    }

    #[test]
    fn memo_costs_no_virtual_time_and_no_messages() {
        let n = 4;
        World::new(n, ClusterModel::test_tiny(n)).run(|comm| {
            let (clock, stats) = (comm.clock(), comm.stats());
            let _ = comm.memo(|| 7u8);
            assert_eq!(comm.clock(), clock);
            assert_eq!(comm.stats(), stats);
        });
    }

    #[test]
    fn back_to_back_memos_keep_their_own_entries() {
        // Ranks race through many call sites with values of different
        // types and no barrier between them: a fast rank is several cells
        // ahead of a slow one, and each must still get its own site's
        // value. `World::run` itself asserts that every cell was released.
        let n = 8;
        let results = World::new(n, ClusterModel::test_tiny(n)).run(|comm| {
            let mut seen = Vec::new();
            for i in 0..50u64 {
                if i % 2 == 0 {
                    seen.push(*comm.memo(move || i * 10));
                } else {
                    seen.push(comm.memo(move || format!("{i}")).len() as u64);
                }
                // Interleave real collectives: they share the sequence.
                if i % 7 == 0 {
                    comm.barrier();
                }
            }
            seen
        });
        let expected: Vec<u64> = (0..50u64)
            .map(|i| {
                if i % 2 == 0 {
                    i * 10
                } else {
                    format!("{i}").len() as u64
                }
            })
            .collect();
        for r in results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn concurrent_worlds_never_share_entries() {
        // Two worlds in one process reach the same sequence numbers at the
        // same time (the start barrier forces the overlap); each must see
        // only the value computed from its own input.
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            let handles: Vec<_> = [100u64, 200]
                .into_iter()
                .map(|base| {
                    let start = &start;
                    scope.spawn(move || {
                        let n = 6;
                        let world = World::new(n, ClusterModel::test_tiny(n));
                        start.wait();
                        world.run(|comm| {
                            (0..20u64)
                                .map(|i| *comm.memo(move || base + i))
                                .collect::<Vec<_>>()
                        })
                    })
                })
                .collect();
            for (handle, base) in handles.into_iter().zip([100u64, 200]) {
                let per_rank = handle.join().expect("world thread");
                for seen in per_rank {
                    assert_eq!(seen, (0..20).map(|i| base + i).collect::<Vec<_>>());
                }
            }
        });
    }

    #[test]
    fn closure_panic_aborts_the_world_naming_the_computing_rank() {
        // Rank 2 is made the computing rank: its closure — which runs only
        // once the cell is claimed — is what releases the peers into the
        // memo, where they park on the cell rather than in a receive. Only
        // the memo's own abort wakeup can free them: the watchdog is set
        // far beyond the 5 s budget to prove it plays no part.
        let n = 6;
        let model = ClusterModel::test_tiny(n).with_recv_watchdog(Duration::from_secs(600));
        let world = World::new(n, model);
        let claimed = Barrier::new(n);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            world.run(|comm| {
                if comm.rank() == 2 {
                    *comm.memo(|| -> u32 {
                        claimed.wait();
                        // Give the peers time to park (either order passes).
                        std::thread::sleep(Duration::from_millis(100));
                        panic!("bad table on the computing rank")
                    })
                } else {
                    claimed.wait();
                    *comm.memo(|| 0u32)
                }
            })
        }));
        let elapsed = t0.elapsed();
        let payload = result.expect_err("the world must abort");
        let msg = panic_message(payload.as_ref());
        assert!(
            msg.contains("rank 2 panicked: bad table on the computing rank"),
            "abort must name the computing rank, got: {msg}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "abort took {elapsed:?}; a rank stayed parked on the cell"
        );
    }

    #[test]
    fn a_rank_skipping_a_memo_is_reported_when_the_run_ends() {
        let world = World::new(3, ClusterModel::test_tiny(3));
        let result = catch_unwind(AssertUnwindSafe(|| {
            world.run(|comm| {
                if comm.rank() != 1 {
                    let _ = comm.memo(|| 1u8);
                }
            })
        }));
        let msg = panic_message(result.expect_err("leak must be reported").as_ref());
        assert!(msg.contains("memo"), "got: {msg}");
    }
}
