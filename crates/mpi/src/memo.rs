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
//! The same cells carry [`Comm::agree_max`], the memo's sibling: instead of
//! one rank computing a value, every rank contributes a clock and every
//! rank takes the maximum. It is a rendezvous with the memo's guarantees —
//! no message, no virtual time, a prompt unwind when a peer panics, and the
//! run's "every cell was taken" check.
//!
//! The third kind of cell is a *loan* ([`Comm::lend`]): one rank lends a
//! buffer to a declared number of readers, which may be any ranks, itself
//! included. It is keyed by the collective's sequence number *and* its
//! lender, since every rank of a collective may lend; a reader that
//! arrives first parks until the lender lends, and the last declared
//! reader drops the cell. The loan itself — who holds the bytes and when
//! the lender may return — lives in the `loan` module.
//!
//! [`Comm::memo`]: crate::Comm::memo
//! [`Comm::agree_max`]: crate::Comm::agree_max
//! [`Comm::lend`]: crate::Comm::lend

use std::any::Any;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use cc_model::SimTime;

use crate::comm::lock_unpoisoned;
use crate::loan::Lent;

/// A memoized value, type-erased so one table serves every call site.
pub(crate) type MemoValue = Arc<dyn Any + Send + Sync>;

/// What a cell holds until its last taker drops it.
enum Slot {
    /// A memo's value: `None` while the first rank is still computing.
    Memo(Option<MemoValue>),
    /// An agreement: the maximum so far, and how many ranks have yet to
    /// contribute. Ready once `owed` reaches zero.
    Max { max: SimTime, owed: usize },
    /// A loan: ready from the moment its lender inserts it.
    Lent(Arc<Lent>),
}

struct Cell {
    slot: Slot,
    /// Ranks that have not taken the value yet.
    remaining: usize,
}

/// A cell's address: the collective sequence number of its call site and,
/// for a loan, the rank that lends it.
type Key = (u32, Option<usize>);

type Cells = HashMap<Key, Cell>;

/// The memo table of one run.
#[derive(Default)]
pub(crate) struct Memo {
    cells: Mutex<Cells>,
    changed: Condvar,
}

/// Ranks reached one sequence number through different kinds of call.
fn mismatch((seq, _): Key) -> ! {
    panic!(
        "cell {seq} was reached by both a memo and an agreement: the ranks are not at the \
         same call site"
    )
}

impl Memo {
    /// Registers the caller at cell `seq` of a `nprocs`-rank world. True
    /// for the first rank to arrive, which must compute and
    /// [`publish`](Self::publish); everyone else [`take`](Self::take)s.
    pub(crate) fn claim(&self, seq: u32, nprocs: usize) -> bool {
        match lock_unpoisoned(&self.cells).entry((seq, None)) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(Cell {
                    slot: Slot::Memo(None),
                    remaining: nprocs,
                });
                true
            }
        }
    }

    /// Stores the computing rank's value (which keeps its own handle, so
    /// this also counts as its take) and wakes the waiting ranks.
    pub(crate) fn publish(&self, seq: u32, value: MemoValue) {
        let key = (seq, None);
        let mut cells = lock_unpoisoned(&self.cells);
        let cell = cells.get_mut(&key).expect("publish follows claim");
        cell.slot = Slot::Memo(Some(value));
        Self::release_one(&mut cells, key);
        self.changed.notify_all();
    }

    /// Blocks until cell `seq` is published and returns its value, or
    /// `None` once `aborted` reports that the world is being torn down
    /// (the computing rank panicked, so the value will never come).
    pub(crate) fn take(&self, seq: u32, aborted: impl Fn() -> bool) -> Option<MemoValue> {
        let cells = lock_unpoisoned(&self.cells);
        let key = (seq, None);
        self.wait(cells, key, aborted, |slot| match slot {
            Slot::Memo(value) => value.clone(),
            _ => mismatch(key),
        })
    }

    /// Stores `owner`'s loan in collective `seq` for `readers` borrows and
    /// wakes the ranks parked on it.
    ///
    /// # Panics
    /// Panics, inserting nothing, if `owner` already has a live loan in
    /// `seq`.
    pub(crate) fn lend(&self, seq: u32, owner: usize, loan: Arc<Lent>, readers: usize) {
        let mut cells = lock_unpoisoned(&self.cells);
        let Entry::Vacant(cell) = cells.entry((seq, Some(owner))) else {
            panic!("rank {owner} lent twice in collective {seq}")
        };
        cell.insert(Cell {
            slot: Slot::Lent(loan),
            remaining: readers,
        });
        self.changed.notify_all();
    }

    /// Blocks until `owner` has lent in collective `seq` and returns the
    /// loan, counting one of its declared readers and, on the loan, one
    /// handle taken; `None` once `aborted` reports that the world is being
    /// torn down (the lender panicked, so the loan will never come).
    pub(crate) fn borrow(
        &self,
        seq: u32,
        owner: usize,
        aborted: impl Fn() -> bool,
    ) -> Option<Arc<Lent>> {
        let cells = lock_unpoisoned(&self.cells);
        let key = (seq, Some(owner));
        self.wait(cells, key, aborted, |slot| match slot {
            Slot::Lent(loan) => {
                loan.count_take();
                Some(Arc::clone(loan))
            }
            _ => mismatch(key),
        })
    }

    /// Removes `owner`'s loan in collective `seq` if a declared reader has
    /// not borrowed it yet, so that no handle can be taken from it any more.
    pub(crate) fn withdraw(&self, seq: u32, owner: usize) {
        lock_unpoisoned(&self.cells).remove(&(seq, Some(owner)));
    }

    /// Contributes `t` to the agreement at cell `seq` of a `nprocs`-rank
    /// world and blocks until every rank has contributed; returns the
    /// maximum, or `None` once `aborted` reports that the world is being
    /// torn down (a rank panicked, so its contribution will never come).
    pub(crate) fn agree_max(
        &self,
        seq: u32,
        nprocs: usize,
        t: SimTime,
        aborted: impl Fn() -> bool,
    ) -> Option<SimTime> {
        let key = (seq, None);
        let mut cells = lock_unpoisoned(&self.cells);
        let cell = cells.entry(key).or_insert(Cell {
            slot: Slot::Max {
                max: SimTime::ZERO,
                owed: nprocs,
            },
            remaining: nprocs,
        });
        let Slot::Max { max, owed } = &mut cell.slot else {
            mismatch(key)
        };
        *max = (*max).max(t);
        *owed -= 1;
        if *owed == 0 {
            self.changed.notify_all();
        }
        self.wait(cells, key, aborted, |slot| match *slot {
            Slot::Max { max, owed: 0 } => Some(max),
            Slot::Max { .. } => None,
            _ => mismatch(key),
        })
    }

    /// Parks on the table until `ready` reads a value from cell `key`,
    /// then counts the caller's take; `None` once `aborted` holds.
    fn wait<R>(
        &self,
        mut cells: MutexGuard<'_, Cells>,
        key: Key,
        aborted: impl Fn() -> bool,
        ready: impl Fn(&Slot) -> Option<R>,
    ) -> Option<R> {
        loop {
            // Checked under the lock `wake_all` takes, so an abort raised
            // after this check cannot slip its wakeup past the wait below.
            if aborted() {
                return None;
            }
            if let Some(value) = cells.get(&key).and_then(|c| ready(&c.slot)) {
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
    fn release_one(cells: &mut Cells, key: Key) {
        let cell = cells.get_mut(&key).expect("cell outlives its takers");
        cell.remaining -= 1;
        if cell.remaining == 0 {
            cells.remove(&key);
        }
    }

    /// Wakes every rank parked on a cell, and every lender waiting for
    /// readers of a loan still in the table, so it re-checks the abort
    /// flag. Called by the run supervisor after it sets the flag.
    pub(crate) fn wake_all(&self) {
        let cells = lock_unpoisoned(&self.cells);
        for cell in cells.values() {
            if let Slot::Lent(loan) = &cell.slot {
                loan.wake();
            }
        }
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

    use cc_model::{ClusterModel, SimTime};

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
    fn every_rank_agrees_on_the_max_of_all_contributions() {
        // Rounds of agreements interleaved with memos on the same sequence
        // counter; in each round a different rank holds the maximum.
        for n in [1, 2, 5, 16] {
            let agreed = World::new(n, ClusterModel::test_tiny(n)).run(|comm| {
                (0..10u64)
                    .map(|round| {
                        let mine = ((comm.rank() as u64 * 7 + round * 3) % 11) as f64 * 0.25;
                        let max = comm.agree_max(SimTime::from_secs(mine));
                        let _ = comm.memo(move || round);
                        max
                    })
                    .collect::<Vec<_>>()
            });
            let expected: Vec<SimTime> = (0..10u64)
                .map(|round| {
                    (0..n as u64)
                        .map(|r| SimTime::from_secs(((r * 7 + round * 3) % 11) as f64 * 0.25))
                        .max()
                        .expect("at least one rank")
                })
                .collect();
            for seen in agreed {
                assert_eq!(seen, expected, "{n} ranks");
            }
        }
    }

    #[test]
    fn agreement_costs_no_virtual_time_and_no_messages() {
        let n = 6;
        World::new(n, ClusterModel::test_tiny(n)).run(|comm| {
            comm.advance(SimTime::from_secs(comm.rank() as f64));
            let (clock, stats) = (comm.clock(), comm.stats());
            let max = comm.agree_max(clock);
            assert_eq!(max, SimTime::from_secs((n - 1) as f64));
            // Every counter, `msgs_sent` and `bytes_sent` among them.
            assert_eq!(comm.clock(), clock);
            assert_eq!(comm.stats(), stats);
        });
    }

    #[test]
    fn rank_panic_before_agreeing_unwinds_parked_peers_quickly() {
        // Every rank but 3 parks in the agreement; rank 3 panics instead of
        // contributing. As in `closure_panic_aborts_the_world_naming_the_
        // computing_rank`, the watchdog sits far beyond the 5 s budget, so
        // only the table's abort wakeup can free the peers.
        let n = 6;
        let model = ClusterModel::test_tiny(n).with_recv_watchdog(Duration::from_secs(600));
        let world = World::new(n, model);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            world.run(|comm| {
                if comm.rank() == 3 {
                    // Give the peers time to park (either order passes).
                    std::thread::sleep(Duration::from_millis(100));
                    panic!("rank 3 never reaches the frontier");
                }
                comm.agree_max(comm.clock())
            })
        }));
        let elapsed = t0.elapsed();
        let msg = panic_message(result.expect_err("the world must abort").as_ref());
        assert!(
            msg.contains("rank 3 panicked: rank 3 never reaches the frontier"),
            "abort must name the panicking rank, got: {msg}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "abort took {elapsed:?}; a rank stayed parked in the agreement"
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
