//! Zero-copy loans: a rank lets declared readers read a buffer it owns in
//! place ([`Comm::lend`], [`Comm::borrow`]), the host half of an MPI-3
//! shared-memory window. A loan is the memo table's third kind of cell,
//! keyed by collective and lender; it sends no message and charges no
//! virtual time.
//!
//! The lent slice is borrowed only for the `lend` call, yet its readers
//! are other threads. So `lend` joins them as `std::thread::scope` joins
//! its threads: it neither returns nor unwinds past its frame until every
//! handle taken on the loan has been dropped. The module's one `unsafe`
//! block, the lifetime erasure, rests on that, and everything that keeps
//! it true lives here.

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::comm::{lock_unpoisoned, Comm, Shared, TagValue, WorldAborted, SEQ_MASK};
use crate::world::panic_message;

/// A loan as its memo cell and its handles see it, its metadata stored
/// inline and typed away.
pub(crate) struct Lent<M: ?Sized = dyn Any + Send + Sync> {
    /// The lender's bytes, valid until `lend` returns: see the SAFETY
    /// comment in [`Comm::lend`].
    bytes: &'static [u8],
    returns: Arc<Returns>,
    meta: M,
}

impl Lent {
    /// Counts one handle about to be made from this loan. The memo calls
    /// it under its table lock, in the same critical section that hands
    /// out the `Arc`, so a lender that withdraws the cell sees every
    /// handle that will ever exist.
    pub(crate) fn count_take(&self) {
        lock_unpoisoned(&self.returns.counts).taken += 1;
    }

    /// Wakes the lender if it is waiting for its readers, so it re-checks
    /// the world's abort flag.
    pub(crate) fn wake(&self) {
        let _counts = lock_unpoisoned(&self.returns.counts);
        self.returns.changed.notify_all();
    }
}

/// The handles taken on one loan and the handles given back.
#[derive(Default)]
struct Returns {
    counts: Mutex<Counts>,
    changed: Condvar,
}

#[derive(Default)]
struct Counts {
    taken: usize,
    dropped: usize,
}

/// A reader's handle on a loan: the lender's bytes and the metadata it
/// lent them with. Dropping it gives the loan back; the lender cannot
/// return from [`Comm::lend`] until every reader has.
pub struct Borrowed<M> {
    /// `None` only inside `drop`, which lets go of the bytes before it
    /// counts the return.
    lent: Option<Arc<Lent>>,
    returns: Arc<Returns>,
    meta: PhantomData<fn() -> M>,
}

impl<M: Any> Borrowed<M> {
    fn lent(&self) -> &Lent {
        self.lent
            .as_ref()
            .expect("a handle holds its loan until dropped")
    }

    /// The lender's bytes, read in place.
    pub fn bytes(&self) -> &[u8] {
        self.lent().bytes
    }

    /// The metadata the lender lent its bytes with.
    pub fn meta(&self) -> &M {
        self.lent()
            .meta
            .downcast_ref()
            .expect("the type is checked when the loan is borrowed")
    }
}

impl<M> Drop for Borrowed<M> {
    fn drop(&mut self) {
        // Once the lender sees every handle back it may free the bytes, so
        // this handle's reference to them goes first.
        self.lent = None;
        lock_unpoisoned(&self.returns.counts).dropped += 1;
        self.returns.changed.notify_all();
    }
}

/// The lender's side of a loan while it runs: on drop — at the end of
/// `lend` or while it unwinds — withdraws the cell, so no further handle
/// can be taken, and waits until every handle that was taken is back.
struct Lending {
    shared: Arc<Shared>,
    seq: u32,
    owner: usize,
    returns: Arc<Returns>,
}

impl Lending {
    /// Waits until each of `readers` has borrowed and given back its
    /// handle. Unwinds quietly if the world aborts first; panics, naming
    /// the lender, the collective and the missing count, if a declared
    /// reader has not borrowed after a full `recv_watchdog` window in
    /// which no mailbox moved and no handle was taken.
    fn await_readers(&self, readers: usize, tag: TagValue, len: usize) {
        let shared = &self.shared;
        let watchdog = shared.model.recv_watchdog;
        let mut counts = lock_unpoisoned(&self.returns.counts);
        let mut seen = (shared.progress(), counts.taken);
        let mut deadline = Instant::now() + watchdog;
        while counts.dropped < readers {
            // Checked under the counts lock, which the abort's wakeup
            // takes too, so the wakeup cannot slip past the wait below.
            if shared.is_aborted() {
                drop(counts);
                resume_unwind(Box::new(WorldAborted));
            }
            let now = Instant::now();
            if now >= deadline {
                let current = (shared.progress(), counts.taken);
                // A reader that holds its handle is still working; only
                // one that never came is a hang.
                if current != seen || counts.taken == readers {
                    seen = current;
                    deadline = now + watchdog;
                } else {
                    let missing = readers - counts.taken;
                    drop(counts);
                    panic!(
                        "rank {} lent {len} bytes in collective {} (tag {tag:#x}) to {readers} \
                         readers, but {missing} never borrowed them (no progress anywhere for \
                         {watchdog:?})",
                        self.owner, self.seq,
                    );
                }
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            counts = self
                .returns
                .changed
                .wait_timeout(counts, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

impl Drop for Lending {
    fn drop(&mut self) {
        self.shared.memo.withdraw(self.seq, self.owner);
        // No handle can be taken now; wait for those that were. Their
        // holders are either still reading or unwinding, since the abort
        // was raised before this runs on a panic, so this wait ends.
        let mut counts = lock_unpoisoned(&self.returns.counts);
        while counts.dropped < counts.taken {
            counts = self
                .returns
                .changed
                .wait(counts)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Comm {
    /// Lends `bytes`, with `meta`, to `readers` borrowers in the collective
    /// that `tag` was stamped for (see [`next_engine_tag`](Self::next_engine_tag))
    /// and runs `body`, the rest of this rank's collective, meanwhile.
    /// Returns `body`'s result once every declared reader has
    /// [`borrow`](Self::borrow)ed the loan and dropped its handle — peers,
    /// this rank inside `body`, or both. With no reader it just runs
    /// `body`.
    ///
    /// Like [`memo`](Self::memo) it sends no message, charges no virtual
    /// time and leaves [`CommStats`](crate::CommStats) alone: an engine
    /// that hands bytes over through a loan prices the hand-off itself.
    ///
    /// # Panics
    /// A panic in `body` aborts the world under this rank's name; the
    /// loan is withdrawn and the handles already taken are waited for
    /// while it unwinds. Panics, naming this rank, the collective and the
    /// missing count, if a declared reader has not borrowed after a full
    /// `recv_watchdog` window without progress. Panics if this rank
    /// already lends in the collective.
    pub fn lend<M: Any + Send + Sync, R>(
        &mut self,
        tag: TagValue,
        bytes: &[u8],
        meta: M,
        readers: usize,
        body: impl FnOnce(&mut Comm) -> R,
    ) -> R {
        if readers == 0 {
            return body(self);
        }
        let (seq, owner, len) = (tag & SEQ_MASK, self.rank(), bytes.len());
        let returns = Arc::new(Returns::default());
        // SAFETY: `bytes` is valid and unmutated for this call's lifetime,
        // which every copy of `erased` stays inside of. The only copy is
        // the `Lent` below, reachable only through the memo cell and the
        // `Borrowed` handles made from it, and neither hands out more than
        // a borrow of the handle. The cell goes at the last declared take
        // or when `lending` drops; handles are counted under the table
        // lock as they are made and drop their `Arc<Lent>` before they
        // count themselves back. `lending` is built right after the cell is
        // inserted, with nothing between that can panic, and it is dropped
        // on every way out of this function: at the return, or while a
        // panic in `body` or in the wait unwinds. Its drop withdraws the
        // cell and waits until every counted handle is back, so by then no
        // `Arc<Lent>`, and no copy of `erased`, is left.
        let erased: &'static [u8] = unsafe { std::mem::transmute::<&[u8], &'static [u8]>(bytes) };
        let lent: Arc<Lent> = Arc::new(Lent {
            bytes: erased,
            returns: Arc::clone(&returns),
            meta,
        });
        self.shared().memo.lend(seq, owner, lent, readers);
        let lending = Lending {
            shared: Arc::clone(self.shared()),
            seq,
            owner,
            returns,
        };
        let out = catch_unwind(AssertUnwindSafe(|| {
            let out = body(self);
            lending.await_readers(readers, tag, len);
            out
        }));
        match out {
            Ok(out) => out,
            Err(payload) => {
                // Raise the abort before `lending` waits: a reader holding
                // a handle may be blocked on this rank, and only the abort
                // frees it to unwind and give the handle back.
                if !payload.is::<WorldAborted>() {
                    let message = panic_message(payload.as_ref());
                    lending.shared.signal_abort(owner, message);
                }
                drop(lending);
                resume_unwind(payload)
            }
        }
    }

    /// Borrows `owner`'s loan in `tag`'s collective, blocking until
    /// `owner` has lent it. Each call counts as one of the readers `owner`
    /// declared; drop the handle as soon as the bytes have been read, since
    /// `owner` waits for it.
    ///
    /// # Panics
    /// A rank that panics before lending aborts the world; the ranks
    /// parked here unwind at once. Panics if the metadata is not an `M`.
    pub fn borrow<M: Any + Send + Sync>(&self, tag: TagValue, owner: usize) -> Borrowed<M> {
        let shared = self.shared();
        let lent = shared
            .memo
            .borrow(tag & SEQ_MASK, owner, || shared.is_aborted())
            .unwrap_or_else(|| resume_unwind(Box::new(WorldAborted)));
        // Made before the type check, so a mismatch still gives it back.
        let handle = Borrowed {
            returns: Arc::clone(&lent.returns),
            lent: Some(lent),
            meta: PhantomData,
        };
        assert!(
            handle.lent().meta.is::<M>(),
            "rank {} expected a different type than rank {owner} lent for tag {tag:#x}",
            self.rank()
        );
        handle
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::{Duration, Instant};

    use cc_model::ClusterModel;

    use crate::world::{panic_message, World};
    use crate::Comm;

    /// An engine tag base for the loan tests.
    const TAG: u32 = 0x5000_0000;

    /// Runs `f` on a `n`-rank world with `watchdog` on a thread of its
    /// own and returns the ranks' results or the run's panic message,
    /// failing if the run does not end within 10 s: a lender that stops
    /// waiting for its readers can leave a late reader parked for good.
    fn bounded_run<R, F>(n: usize, watchdog: Duration, f: F) -> Result<Vec<R>, String>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let model = ClusterModel::test_tiny(n).with_recv_watchdog(watchdog);
            let world = World::new(n, model);
            let result = catch_unwind(AssertUnwindSafe(|| world.run(&f)));
            let _ = tx.send(result.map_err(|p| panic_message(p.as_ref())));
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the run hung")
    }

    /// The panic message of a run that must fail within 10 s.
    fn failed_run(
        n: usize,
        watchdog: Duration,
        f: impl Fn(&mut Comm) + Send + Sync + 'static,
    ) -> String {
        bounded_run(n, watchdog, f).expect_err("the run must fail")
    }

    #[test]
    fn a_borrower_reads_the_lenders_own_bytes() {
        // Every rank lends to both neighbours and borrows from both inside
        // its body: each reader must see the lender's own buffer, not a
        // copy, and the metadata it was lent with.
        for n in [2, 3, 8] {
            let out = bounded_run(n, Duration::from_secs(30), move |comm| {
                let tag = comm.next_engine_tag(TAG);
                let mine = vec![comm.rank() as u8; 3];
                let (left, right) = ((comm.rank() + n - 1) % n, (comm.rank() + 1) % n);
                let seen = comm.lend(tag, &mine, comm.rank(), 2, |comm| {
                    [left, right].map(|src| {
                        let loan = comm.borrow::<usize>(tag, src);
                        (
                            loan.bytes().as_ptr() as usize,
                            loan.bytes().to_vec(),
                            *loan.meta(),
                        )
                    })
                });
                (mine.as_ptr() as usize, seen)
            })
            .expect("the run must succeed");
            for (r, (_, seen)) in out.iter().enumerate() {
                let (l, rr) = ((r + n - 1) % n, (r + 1) % n);
                for ((ptr, bytes, meta), src) in seen.iter().zip([l, rr]) {
                    assert_eq!(*ptr, out[src].0, "{n} ranks: rank {r} from {src}");
                    assert_eq!(*bytes, vec![src as u8; 3]);
                    assert_eq!(*meta, src);
                }
            }
        }
    }

    #[test]
    fn a_loan_leaves_the_table_with_its_last_declared_reader() {
        // Rank 0 lends to three readers, itself among them, with metadata
        // it keeps only a weak handle on: when `lend` returns, nothing may
        // hold the loan, so the table dropped its entry. `World::run` then
        // checks that the table is empty.
        let n = 4;
        let gone = bounded_run(n, Duration::from_secs(30), |comm| {
            let tag = comm.next_engine_tag(TAG);
            if comm.rank() == 0 {
                let meta = Arc::new(7u8);
                let weak = Arc::downgrade(&meta);
                comm.lend(tag, &[7u8; 16], meta, 3, |comm| {
                    assert_eq!(comm.borrow::<Arc<u8>>(tag, 0).bytes(), [7u8; 16]);
                });
                return Some(weak.upgrade().is_none());
            }
            if comm.rank() < 3 {
                assert_eq!(**comm.borrow::<Arc<u8>>(tag, 0).meta(), 7);
            }
            None
        })
        .expect("the run must succeed");
        assert_eq!(gone[0], Some(true), "the loan outlived `lend`");
    }

    #[test]
    fn the_lender_returns_only_after_a_sleeping_reader_drops_its_handle() {
        let dropped_at = Arc::new(Mutex::new(None));
        let reader_dropped_at = Arc::clone(&dropped_at);
        let returned_at = bounded_run(2, Duration::from_secs(600), move |comm| {
            let tag = comm.next_engine_tag(TAG);
            if comm.rank() == 0 {
                comm.lend(tag, &[1u8, 2, 3], (), 1, |_| {});
                return Some(Instant::now());
            }
            let loan = comm.borrow::<()>(tag, 0);
            std::thread::sleep(Duration::from_millis(200));
            assert_eq!(loan.bytes(), [1, 2, 3]);
            *reader_dropped_at.lock().unwrap() = Some(Instant::now());
            drop(loan);
            None
        })
        .expect("the run must succeed");
        let dropped = dropped_at.lock().unwrap().expect("the reader ran");
        let returned = returned_at[0].expect("the lender ran");
        assert!(
            returned >= dropped,
            "the lender returned while its loan was held"
        );
    }

    #[test]
    fn a_lender_panic_before_any_borrow_fails_the_run_naming_it() {
        // The readers park on a loan whose lender panics in its body; the
        // watchdog sits far beyond the 10 s budget, so only the abort
        // wakeup can free them.
        let msg = failed_run(5, Duration::from_secs(600), |comm| {
            let tag = comm.next_engine_tag(TAG);
            if comm.rank() == 1 {
                comm.lend(tag, &[0u8; 8], (), 4, |_| {
                    // Give the readers time to park (either order passes).
                    std::thread::sleep(Duration::from_millis(100));
                    panic!("rank 1 never finishes its collective")
                });
            } else {
                let _ = comm.borrow::<()>(tag, 1);
            }
        });
        assert!(
            msg.contains("rank 1 panicked: rank 1 never finishes its collective"),
            "the abort must name the lender, got: {msg}"
        );
    }

    #[test]
    fn a_reader_panic_while_holding_a_handle_fails_the_run_and_frees_the_lender() {
        let freed = Arc::new(AtomicBool::new(false));
        let lender_freed = Arc::clone(&freed);
        let msg = failed_run(3, Duration::from_secs(600), move |comm| {
            let tag = comm.next_engine_tag(TAG);
            match comm.rank() {
                0 => {
                    comm.lend(tag, &[5u8; 4], (), 2, |_| {});
                    lender_freed.store(true, Ordering::SeqCst);
                }
                2 => {
                    let _loan = comm.borrow::<()>(tag, 0);
                    panic!("rank 2 fails while reading");
                }
                _ => drop(comm.borrow::<()>(tag, 0)),
            }
        });
        assert!(
            msg.contains("rank 2 panicked: rank 2 fails while reading"),
            "the abort must name the reader, got: {msg}"
        );
        assert!(freed.load(Ordering::SeqCst), "the lender never returned");
    }

    #[test]
    fn a_reader_that_never_borrows_fails_the_run_at_the_watchdog() {
        // Two readers declared, one shows up: the lender gives up after
        // one quiet watchdog window instead of waiting for the run's end.
        let msg = failed_run(3, Duration::from_millis(300), |comm| {
            let tag = comm.next_engine_tag(TAG);
            if comm.rank() == 2 {
                comm.lend(tag, &[1u8; 10], (), 2, |_| {});
            } else if comm.rank() == 0 {
                drop(comm.borrow::<()>(tag, 2));
            }
        });
        assert!(
            msg.contains("rank 2 panicked: rank 2 lent 10 bytes in collective 0")
                && msg.contains("to 2 readers, but 1 never borrowed them"),
            "the diagnostic must name the lender, the collective and the missing count, \
             got: {msg}"
        );
    }
}
