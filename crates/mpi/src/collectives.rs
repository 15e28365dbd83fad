//! Collective operations built over point-to-point messages.
//!
//! Four collectives, the ones the engines and the benchmark call:
//! dissemination barrier, the allgather behind the offset-list exchange
//! (ring when flat, node-leader gather and broadcast when hierarchical),
//! pairwise (eager) alltoallv, and the binomial-tree reduce of partials —
//! the MPICH defaults the paper ran on. Because they are built on the timed
//! p2p layer, their virtual cost — latency terms growing with `log P` or
//! `P`, bandwidth terms growing with volume — emerges from the model rather
//! than being asserted.
//!
//! All collectives must be called by every rank of the world in the same
//! order (SPMD), like MPI. A per-rank collective sequence number keeps the
//! tag space of concurrent user p2p traffic disjoint from collective
//! internals.

use cc_model::SimTime;

use crate::comm::{Comm, TagValue, COLLECTIVE_TAG_BASE};
use crate::hier::{framed_len, push_section};
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
        let mut peer = Vec::new();
        let mut step = 1;
        while step < p {
            let to = (rank + step) % p;
            let from = (rank + p - step) % p;
            self.send_words(to, tag, &[self.clock().secs().to_bits()]);
            self.recv_words_into(from, tag, &mut peer);
            // The barrier completes no earlier than the peer's send time.
            self.advance_to(SimTime::from_secs(f64::from_bits(peer[0])));
            step <<= 1;
        }
    }

    /// Allgather of variable-length byte contributions, in wire form at
    /// both ends. `own` is this rank's contribution, already encoded into a
    /// buffer the caller owns (ideally one from
    /// [`take_buf`](Self::take_buf)); it becomes this rank's block without
    /// a copy. The result is one pooled buffer holding every rank's
    /// contribution as a length-prefixed section, in rank order — read it
    /// with [`frame_sections`](crate::frame_sections) and hand it back to
    /// [`recycle_buf`](Self::recycle_buf). Ring algorithm when flat;
    /// hierarchical gather-to-zero plus frame broadcast otherwise.
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
            self.send_copy(right, tag, &blocks[send_block]);
            blocks[recv_block] = self.recv_bytes(left, tag).0;
        }
        let mut frame = self.take_buf(framed_len(&blocks));
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

    /// Binomial-tree reduction to `root`. All ranks pass equal-length word
    /// slices; the root returns their reduction under `op`, others `None`.
    /// Every message is one pooled buffer of the whole partial.
    ///
    /// Contributions are always combined in *rank order* (MPI's guarantee
    /// for non-commutative ops): the binomial tree runs over the plain rank
    /// numbering — each combine merges contiguous, ascending rank blocks —
    /// and rank 0 forwards the finished result to a nonzero `root`, exactly
    /// as MPICH does rather than rotating the tree (which would rotate the
    /// combine order).
    pub fn reduce(&mut self, root: usize, data: &[u64], op: &dyn ReduceOp) -> Option<Vec<u64>> {
        let tag = self.next_collective_tag();
        let p = self.nprocs();
        assert!(root < p, "reduce root {root} out of range");
        if let Some(view) = self.hier_view() {
            return self.hier_reduce(&view, root, data, op, tag);
        }
        let rank = self.rank();
        let mut acc = data.to_vec();
        let mut incoming = Vec::new();
        let mut bit = 1;
        let mut sent_up = false;
        while bit < p {
            if rank & bit != 0 {
                // Send the partial up the tree and stop combining.
                self.send_words(rank & !bit, tag, &acc);
                sent_up = true;
                break;
            }
            let child = rank | bit;
            if child < p {
                self.recv_words_into(child, tag, &mut incoming);
                op.combine(&mut acc, &incoming);
            }
            bit <<= 1;
        }
        if root == 0 {
            return (rank == 0).then_some(acc);
        }
        // Forward the rank-ordered result from the tree root to `root`.
        if rank == 0 {
            self.send_words(root, tag, &acc);
            None
        } else if rank == root {
            debug_assert!(sent_up || p == 1, "nonzero rank must have sent up");
            self.recv_words_into(0, tag, &mut acc);
            Some(acc)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::frame_sections;
    use crate::ops::word_ops::{take_left, take_right, wrapping_sum};
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
    fn allgatherv_matches_gather_on_all_ranks() {
        for n in [1, 2, 3, 6] {
            let results = run_n(n, |comm| {
                // Ragged: rank r contributes r + 1 bytes of value 10 r.
                let mut own = comm.take_buf(comm.rank() + 1);
                own.resize(comm.rank() + 1, comm.rank() as u8 * 10);
                let frame = comm.allgatherv_frame(own);
                frame_sections(&frame)
                    .map(<[u8]>::to_vec)
                    .collect::<Vec<_>>()
            });
            let expected: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8 * 10; i + 1]).collect();
            for r in &results {
                assert_eq!(r, &expected);
            }
        }
    }

    #[test]
    fn alltoallv_permutes_blocks() {
        let n = 5;
        let results = run_n(n, |comm| {
            // Rank s sends [s*10 + d] to rank d.
            let sends: Vec<Vec<u8>> = (0..n).map(|d| vec![(comm.rank() * 10 + d) as u8]).collect();
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
                    let mine = [comm.rank() as u64, 1];
                    comm.reduce(root, &mine, &wrapping_sum)
                });
                let expect_sum = (n * (n - 1) / 2) as u64;
                for (r, res) in results.iter().enumerate() {
                    if r == root {
                        assert_eq!(res.as_ref().unwrap(), &vec![expect_sum, n as u64]);
                    } else {
                        assert!(res.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_respects_rank_order_at_nonzero_root() {
        // Two associative, non-commutative ops that expose the combine
        // order directly: "first writer wins" yields rank 0's value,
        // "last writer wins" yields rank (p-1)'s value — regardless of
        // which rank is the root. A rotated tree (the old bug) would
        // have returned the root's own and (root-1)'s values instead.
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
    fn collectives_compose_without_tag_collisions() {
        // Interleave user p2p with collectives; matching must stay clean.
        let results = run_n(3, |comm| {
            let next = (comm.rank() + 1) % 3;
            let prev = (comm.rank() + 2) % 3;
            comm.send_copy(next, 17, &[comm.rank() as u8]);
            let total = comm.reduce(1, &[1], &wrapping_sum).map(|v| v[0]);
            let (from_prev, _) = comm.recv_bytes(prev, 17);
            comm.barrier();
            (total, from_prev[0])
        });
        for (r, (total, from)) in results.iter().enumerate() {
            assert_eq!(*total, (r == 1).then_some(3));
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
