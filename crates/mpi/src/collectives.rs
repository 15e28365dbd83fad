//! Collective operations built over point-to-point messages.
//!
//! Algorithms follow the MPICH defaults the paper ran on: dissemination
//! barrier, binomial-tree broadcast and reduce, ring allgather, pairwise
//! (eager) alltoallv, flat gather/scatter (flat gather is also exactly how
//! ROMIO exchanges offset lists), and a linear-chain scan. Because they
//! are built on the timed p2p layer,
//! their virtual cost — latency terms growing with `log P` or `P`,
//! bandwidth terms growing with volume — emerges from the model rather than
//! being asserted.
//!
//! All collectives must be called by every rank of the world in the same
//! order (SPMD), like MPI. A per-rank collective sequence number keeps the
//! tag space of concurrent user p2p traffic disjoint from collective
//! internals.

use cc_model::SimTime;

use crate::comm::{Comm, TagValue, COLLECTIVE_TAG_BASE};
use crate::elem::Elem;
use crate::hier::{frame_sections, push_section};
use crate::ops::ReduceOp;

impl Comm {
    /// Allocates the tag for the next collective call site.
    fn next_collective_tag(&mut self) -> TagValue {
        self.next_engine_tag(COLLECTIVE_TAG_BASE)
    }

    /// Dissemination barrier: all ranks leave with clocks synchronized to
    /// the latest participant.
    pub fn barrier(&mut self) {
        let tag = self.next_collective_tag();
        let p = self.nprocs();
        if p == 1 {
            return;
        }
        let rank = self.rank();
        let mut step = 1;
        while step < p {
            let to = (rank + step) % p;
            let from = (rank + p - step) % p;
            self.send(to, tag, &[self.clock().secs()]);
            let (peer, _) = self.recv::<f64>(from, tag);
            // The barrier completes no earlier than the peer's send time.
            self.advance_to(SimTime::from_secs(peer[0]));
            step <<= 1;
        }
    }

    /// Binomial-tree broadcast of a byte buffer from `root`. Every rank
    /// returns the payload. Dispatches to the node-leader hierarchical
    /// algorithm (see `hier.rs`) when the topology supports it.
    pub fn bcast_bytes(&mut self, root: usize, data: Option<Vec<u8>>) -> Vec<u8> {
        let tag = self.next_collective_tag();
        assert!(root < self.nprocs(), "bcast root {root} out of range");
        if let Some(view) = self.hier_view() {
            return self.hier_bcast_bytes(&view, root, data, tag);
        }
        let p = self.nprocs();
        assert!(root < p, "bcast root {root} out of range");
        let vrank = (self.rank() + p - root) % p;
        let mut payload = if vrank == 0 {
            data.expect("root must supply the broadcast payload")
        } else {
            Vec::new()
        };
        // Receive from the parent: the classic MPICH binomial numbering,
        // where a node's parent is its virtual rank with the lowest set
        // bit cleared.
        if vrank != 0 {
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % p;
            let (bytes, _) = self.recv_bytes(parent, tag);
            payload = bytes;
        }
        // Forward to children: set bits above the lowest set bit of vrank.
        let lowest = if vrank == 0 {
            p.next_power_of_two()
        } else {
            1 << vrank.trailing_zeros()
        };
        let mut bit = lowest >> 1;
        let mut children = Vec::new();
        while bit > 0 {
            let child_v = vrank | bit;
            if child_v < p && child_v != vrank {
                children.push((child_v + root) % p);
            }
            bit >>= 1;
        }
        // Send to the largest subtree first (standard order); each copy
        // rides a pooled buffer.
        for child in children {
            let mut buf = self.take_buf();
            buf.extend_from_slice(&payload);
            self.send_bytes(child, tag, buf);
        }
        payload
    }

    /// Typed broadcast: `data` is ignored on non-roots.
    pub fn bcast<T: Elem>(&mut self, root: usize, data: Option<&[T]>) -> Vec<T> {
        let bytes = self.bcast_bytes(root, data.map(crate::elem::encode_slice));
        let out = crate::elem::decode_vec(&bytes);
        self.recycle_buf(bytes);
        out
    }

    /// Gather of variable-length contributions to `root`. Returns
    /// `Some(contributions_by_rank)` on the root, `None` elsewhere. Flat
    /// (direct sends, exactly ROMIO's offset-list exchange) on a single
    /// node; remote nodes coalesce through their leader otherwise.
    pub fn gatherv<T: Elem>(&mut self, root: usize, mine: &[T]) -> Option<Vec<Vec<T>>> {
        let tag = self.next_collective_tag();
        let p = self.nprocs();
        assert!(root < p, "gather root {root} out of range");
        if let Some(view) = self.hier_view() {
            let bytes = crate::elem::encode_slice(mine);
            let out = self.hier_gatherv_bytes(&view, root, &bytes, tag);
            return out.map(|blocks| {
                blocks
                    .into_iter()
                    .map(|b| crate::elem::decode_vec(&b))
                    .collect()
            });
        }
        if self.rank() == root {
            let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
            out[root] = mine.to_vec();
            for _ in 0..p - 1 {
                let (data, info) = self.recv::<T>(crate::comm::Source::Any, tag);
                out[info.src] = data;
            }
            Some(out)
        } else {
            self.send(root, tag, mine);
            None
        }
    }

    /// Allgather of variable-length contributions: every rank returns all
    /// ranks' contributions, indexed by rank. Ring algorithm when flat;
    /// hierarchical gather-to-zero plus frame broadcast otherwise.
    pub fn allgatherv<T: Elem>(&mut self, mine: &[T]) -> Vec<Vec<T>> {
        let mut own = self.take_buf();
        crate::elem::encode_slice_into(mine, &mut own);
        let frame = self.allgatherv_frame(own);
        let out = frame_sections(&frame).map(crate::elem::decode_vec).collect();
        self.recycle_buf(frame);
        out
    }

    /// [`allgatherv`](Self::allgatherv) in wire form at both ends. `own` is
    /// this rank's contribution, already encoded into a buffer the caller
    /// owns (ideally one from [`take_buf`](Self::take_buf)); it becomes
    /// this rank's block without a copy. The result is one pooled buffer
    /// holding every rank's contribution as a length-prefixed section, in
    /// rank order — read it with [`frame_sections`] and hand it back to
    /// [`recycle_buf`](Self::recycle_buf). The messages are the typed
    /// call's (it is built on this one); what the caller saves is the
    /// split into `nprocs` vectors when it can decode the sections in
    /// place, or — with [`memo`](Self::memo) — let one rank decode for all.
    pub fn allgatherv_frame(&mut self, own: Vec<u8>) -> Vec<u8> {
        let tag = self.next_collective_tag();
        if let Some(view) = self.hier_view() {
            let frame = self.hier_allgatherv_frame(&view, &own, tag);
            self.recycle_buf(own);
            return frame;
        }
        let p = self.nprocs();
        let rank = self.rank();
        let mut blocks: Vec<Vec<u8>> = (0..p).map(|_| Vec::new()).collect();
        blocks[rank] = own;
        let right = (rank + 1) % p;
        let left = (rank + p - 1) % p;
        for step in 0..p - 1 {
            let send_block = (rank + p - step) % p;
            let recv_block = (rank + p - step - 1) % p;
            let mut copy = self.take_buf();
            copy.extend_from_slice(&blocks[send_block]);
            self.send_bytes(right, tag, copy);
            blocks[recv_block] = self.recv_bytes(left, tag).0;
        }
        let mut frame = self.take_buf();
        for block in blocks {
            push_section(&mut frame, &block);
            self.recycle_buf(block);
        }
        frame
    }

    /// Personalized all-to-all exchange of variable-length byte buffers.
    /// `sends[d]` goes to rank `d`; returns the buffers received, indexed by
    /// source. The self-block is moved without a message.
    pub fn alltoallv_bytes(&mut self, mut sends: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let tag = self.next_collective_tag();
        if let Some(view) = self.hier_view() {
            return self.hier_alltoallv_bytes(&view, sends, tag);
        }
        let p = self.nprocs();
        assert_eq!(sends.len(), p, "alltoallv needs one buffer per rank");
        let rank = self.rank();
        let mut recvs: Vec<Vec<u8>> = (0..p).map(|_| Vec::new()).collect();
        recvs[rank] = std::mem::take(&mut sends[rank]);
        // Eager sends never block, so post everything then drain.
        for offset in 1..p {
            let dst = (rank + offset) % p;
            self.send_bytes(dst, tag, std::mem::take(&mut sends[dst]));
        }
        for offset in 1..p {
            let src = (rank + p - offset) % p;
            let (data, _) = self.recv_bytes(src, tag);
            recvs[src] = data;
        }
        recvs
    }

    /// Typed all-to-all exchange. Wire buffers come from and return to the
    /// per-rank pool.
    pub fn alltoallv<T: Elem>(&mut self, sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let bytes = sends
            .iter()
            .map(|v| {
                let mut buf = self.take_buf();
                crate::elem::encode_slice_into(v, &mut buf);
                buf
            })
            .collect();
        self.alltoallv_bytes(bytes)
            .into_iter()
            .map(|b| {
                let data = crate::elem::decode_vec(&b);
                self.recycle_buf(b);
                data
            })
            .collect()
    }

    /// Binomial-tree reduction to `root`. All ranks pass equal-length
    /// slices; the root returns the element-wise reduction, others `None`.
    ///
    /// Contributions are always combined in *rank order* (MPI's guarantee
    /// for non-commutative ops): the binomial tree runs over the plain rank
    /// numbering — each combine merges contiguous, ascending rank blocks —
    /// and rank 0 forwards the finished result to a nonzero `root`, exactly
    /// as MPICH does rather than rotating the tree (which would rotate the
    /// combine order).
    pub fn reduce<T: Elem>(
        &mut self,
        root: usize,
        data: &[T],
        op: &dyn ReduceOp<T>,
    ) -> Option<Vec<T>> {
        let tag = self.next_collective_tag();
        let p = self.nprocs();
        assert!(root < p, "reduce root {root} out of range");
        if let Some(view) = self.hier_view() {
            return self.hier_reduce(&view, root, data, op, tag);
        }
        let rank = self.rank();
        let mut acc = data.to_vec();
        let mut bit = 1;
        let mut sent_up = false;
        while bit < p {
            if rank & bit != 0 {
                // Send the partial up the tree and stop combining.
                self.send(rank & !bit, tag, &acc);
                sent_up = true;
                break;
            }
            let child = rank | bit;
            if child < p {
                let (incoming, _) = self.recv::<T>(child, tag);
                op.combine(&mut acc, &incoming);
            }
            bit <<= 1;
        }
        if root == 0 {
            return (rank == 0).then_some(acc);
        }
        // Forward the rank-ordered result from the tree root to `root`.
        if rank == 0 {
            self.send(root, tag, &acc);
            None
        } else if rank == root {
            debug_assert!(sent_up || p == 1, "nonzero rank must have sent up");
            Some(self.recv::<T>(0, tag).0)
        } else {
            None
        }
    }

    /// Reduce-to-zero followed by broadcast: every rank returns the
    /// element-wise reduction.
    pub fn allreduce<T: Elem>(&mut self, data: &[T], op: &dyn ReduceOp<T>) -> Vec<T> {
        let reduced = self.reduce(0, data, op);
        self.bcast(0, reduced.as_deref())
    }

    /// Flat scatter of variable-length blocks from `root`: the root passes
    /// one block per rank, every rank returns its block.
    ///
    /// # Panics
    /// Panics if the root's block count differs from the world size.
    pub fn scatterv<T: Elem>(&mut self, root: usize, blocks: Option<Vec<Vec<T>>>) -> Vec<T> {
        let tag = self.next_collective_tag();
        let p = self.nprocs();
        assert!(root < p, "scatter root {root} out of range");
        if self.rank() == root {
            let mut blocks = blocks.expect("root must supply the scatter blocks");
            assert_eq!(blocks.len(), p, "scatter needs one block per rank");
            for (dst, block) in blocks.iter().enumerate() {
                if dst != root {
                    self.send(dst, tag, block);
                }
            }
            std::mem::take(&mut blocks[root])
        } else {
            self.recv::<T>(root, tag).0
        }
    }

    /// Inclusive prefix reduction (`MPI_Scan`): rank `r` returns the
    /// element-wise reduction of ranks `0..=r`'s contributions. Linear
    /// chain algorithm; the op need not be commutative.
    pub fn scan<T: Elem>(&mut self, data: &[T], op: &dyn ReduceOp<T>) -> Vec<T> {
        let tag = self.next_collective_tag();
        let rank = self.rank();
        let mut acc = data.to_vec();
        if rank > 0 {
            let (prefix, _) = self.recv::<T>(rank - 1, tag);
            // acc = prefix op mine, preserving rank order for
            // non-commutative ops: fold mine into the prefix.
            let mut folded = prefix;
            op.combine(&mut folded, &acc);
            acc = folded;
        }
        if rank + 1 < self.nprocs() {
            self.send(rank + 1, tag, &acc);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{MaxOp, MinOp, SumOp};
    use crate::world::World;
    use cc_model::ClusterModel;

    fn run_n<R: Send>(n: usize, f: impl Fn(&mut Comm) -> R + Send + Sync) -> Vec<R> {
        World::new(n, ClusterModel::test_tiny(n)).run(f)
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        for n in [1, 2, 3, 5, 8] {
            let clocks = run_n(n, |comm| {
                // Rank r works for r seconds, then hits the barrier.
                comm.advance(SimTime::from_secs(comm.rank() as f64));
                comm.barrier();
                comm.clock()
            });
            let slowest = SimTime::from_secs((n - 1) as f64);
            for c in clocks {
                assert!(c >= slowest, "clock {c} below slowest entrant");
            }
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for n in [1, 2, 3, 4, 7, 9] {
            for root in 0..n {
                let payload = vec![root as f64, 42.0, -1.0];
                let results = run_n(n, |comm| {
                    let data = (comm.rank() == root).then(|| payload.clone());
                    comm.bcast(root, data.as_deref())
                });
                for r in results {
                    assert_eq!(r, payload);
                }
            }
        }
    }

    #[test]
    fn gatherv_collects_ragged_contributions() {
        let results = run_n(4, |comm| {
            let mine: Vec<u32> = (0..comm.rank() as u32 + 1).collect();
            comm.gatherv(2, &mine)
        });
        let gathered = results[2].as_ref().expect("root has the result");
        assert_eq!(gathered[0], vec![0]);
        assert_eq!(gathered[1], vec![0, 1]);
        assert_eq!(gathered[2], vec![0, 1, 2]);
        assert_eq!(gathered[3], vec![0, 1, 2, 3]);
        assert!(results[0].is_none());
    }

    #[test]
    fn allgatherv_matches_gather_on_all_ranks() {
        for n in [1, 2, 3, 6] {
            let results = run_n(n, |comm| {
                let mine = vec![comm.rank() as u64 * 10];
                comm.allgatherv(&mine)
            });
            for r in &results {
                let expected: Vec<Vec<u64>> = (0..n as u64).map(|i| vec![i * 10]).collect();
                assert_eq!(r, &expected);
            }
        }
    }

    #[test]
    fn alltoallv_permutes_blocks() {
        let n = 5;
        let results = run_n(n, |comm| {
            // Rank s sends [s*10 + d] to rank d.
            let sends: Vec<Vec<u8>> = (0..n)
                .map(|d| vec![(comm.rank() * 10 + d) as u8])
                .collect();
            comm.alltoallv_bytes(sends)
        });
        for (d, recvs) in results.iter().enumerate() {
            for (s, block) in recvs.iter().enumerate() {
                assert_eq!(block, &vec![(s * 10 + d) as u8]);
            }
        }
    }

    #[test]
    fn alltoallv_with_empty_blocks() {
        let n = 4;
        let results = run_n(n, |comm| {
            // Only even ranks send, and only to odd ranks.
            let sends: Vec<Vec<u8>> = (0..n)
                .map(|d| {
                    if comm.rank() % 2 == 0 && d % 2 == 1 {
                        vec![comm.rank() as u8; 3]
                    } else {
                        vec![]
                    }
                })
                .collect();
            comm.alltoallv_bytes(sends)
        });
        assert_eq!(results[1][0], vec![0, 0, 0]);
        assert_eq!(results[1][2], vec![2, 2, 2]);
        assert!(results[0].iter().all(|b| b.is_empty()));
        assert!(results[1][1].is_empty());
        assert!(results[1][3].is_empty());
    }

    #[test]
    fn reduce_sums_across_ranks() {
        for n in [1, 2, 3, 4, 5, 8, 13] {
            for root in [0, n - 1] {
                let results = run_n(n, |comm| {
                    let mine = [comm.rank() as f64, 1.0];
                    comm.reduce(root, &mine, &SumOp)
                });
                let expect_sum = (n * (n - 1) / 2) as f64;
                for (r, res) in results.iter().enumerate() {
                    if r == root {
                        assert_eq!(res.as_ref().unwrap(), &vec![expect_sum, n as f64]);
                    } else {
                        assert!(res.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_respects_rank_order_at_nonzero_root() {
        use crate::ops::FnOp;
        // Two associative, non-commutative ops that expose the combine
        // order directly: "first writer wins" yields rank 0's value,
        // "last writer wins" yields rank (p-1)'s value — regardless of
        // which rank is the root. A rotated tree (the old bug) would
        // have returned the root's own and (root-1)'s values instead.
        let take_left = FnOp(|_acc: &mut [u64], _inc: &[u64]| {});
        let take_right = FnOp(|acc: &mut [u64], inc: &[u64]| {
            acc.copy_from_slice(inc);
        });
        for n in [2, 3, 5, 8] {
            for root in 0..n {
                let firsts = run_n(n, |comm| {
                    comm.reduce(root, &[comm.rank() as u64 + 100], &take_left)
                });
                assert_eq!(
                    firsts[root].as_ref().unwrap(),
                    &vec![100],
                    "first-contributor must be rank 0 (n={n}, root={root})"
                );
                let lasts = run_n(n, |comm| {
                    comm.reduce(root, &[comm.rank() as u64 + 100], &take_right)
                });
                assert_eq!(
                    lasts[root].as_ref().unwrap(),
                    &vec![100 + n as u64 - 1],
                    "last-contributor must be rank p-1 (n={n}, root={root})"
                );
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        let n = 6;
        let mins = run_n(n, |comm| {
            let mine = [(comm.rank() as i64) - 3];
            comm.allreduce(&mine, &MinOp)[0]
        });
        assert_eq!(mins, vec![-3; n]);
        let maxs = run_n(n, |comm| {
            let mine = [(comm.rank() as i64) - 3];
            comm.allreduce(&mine, &MaxOp)[0]
        });
        assert_eq!(maxs, vec![2; n]);
    }

    #[test]
    fn scatterv_distributes_blocks() {
        for root in [0, 2] {
            let results = run_n(4, move |comm| {
                let blocks = (comm.rank() == root).then(|| {
                    (0..4u64).map(|d| vec![d * 10, d * 10 + 1]).collect::<Vec<_>>()
                });
                comm.scatterv(root, blocks)
            });
            for (r, b) in results.iter().enumerate() {
                assert_eq!(b, &vec![r as u64 * 10, r as u64 * 10 + 1]);
            }
        }
    }

    #[test]
    fn scan_computes_inclusive_prefixes() {
        let results = run_n(5, |comm| {
            comm.scan(&[comm.rank() as i64 + 1], &SumOp)[0]
        });
        // Prefix sums of 1,2,3,4,5.
        assert_eq!(results, vec![1, 3, 6, 10, 15]);
    }

    #[test]
    fn scan_respects_rank_order_for_noncommutative_ops() {
        use crate::ops::FnOp;
        // "Last writer wins" keeps the highest-rank value seen so far:
        // associative but order-sensitive if misimplemented.
        let take_right = FnOp(|acc: &mut [u64], inc: &[u64]| {
            acc.copy_from_slice(inc);
        });
        let results = run_n(4, move |comm| {
            comm.scan(&[comm.rank() as u64 * 7], &take_right)[0]
        });
        assert_eq!(results, vec![0, 7, 14, 21]);
    }

    #[test]
    fn collectives_compose_without_tag_collisions() {
        // Interleave user p2p with collectives; matching must stay clean.
        let results = run_n(3, |comm| {
            let next = (comm.rank() + 1) % 3;
            let prev = (comm.rank() + 2) % 3;
            comm.send(next, 17, &[comm.rank() as u32]);
            let total = comm.allreduce(&[1.0f64], &SumOp)[0];
            let (from_prev, _) = comm.recv::<u32>(prev, 17);
            comm.barrier();
            (total, from_prev[0])
        });
        for (r, (total, from)) in results.iter().enumerate() {
            assert_eq!(*total, 3.0);
            assert_eq!(*from as usize, (r + 2) % 3);
        }
    }

    #[test]
    fn collective_cost_grows_with_scale() {
        // Virtual barrier cost must grow with rank count (log P rounds).
        let t4 = run_n(4, |comm| {
            comm.barrier();
            comm.clock()
        })[0];
        let t16 = run_n(16, |comm| {
            comm.barrier();
            comm.clock()
        })[0];
        assert!(t16 > t4);
    }
}
