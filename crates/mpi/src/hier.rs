//! Topology-aware hierarchical collectives: the node-leader forms of
//! `allgatherv_frame` (a gather to rank 0, then a broadcast of the frame),
//! `alltoallv_bytes` and `reduce`.
//!
//! Flat collectives send one message per rank pair even when
//! `Topology::same_node` says the peers share memory. Following the
//! two-level designs of Kang et al. (intra-node request aggregation for
//! collective I/O) and Zhou et al. (leader-based collectives for multi-core
//! clusters), each node elects a *leader* — its lowest rank — and traffic
//! is split into two legs: members exchange with their leader over the
//! cheap intra-node fabric, and leaders exchange one *coalesced frame* per
//! node pair across the interconnect. With `c` cores per node this divides
//! inter-node message counts by up to `c` (alltoallv: by `c²` per node
//! pair) at the price of intra-node hops, which the cost model prices an
//! order of magnitude cheaper.
//!
//! The hierarchical paths are *bit-identical* to the flat ones: byte
//! payloads are moved verbatim, and reductions preserve MPI's rank-order
//! combine guarantee (each combine merges contiguous, ascending rank
//! blocks — members fold into their leader in ascending rank order, and
//! the leader tree runs a non-rotated binomial over ascending node
//! indices). Parenthesization *can* differ from the flat binomial, so
//! results for non-associative float ops may differ in the last ulp; all
//! exactly-associative ops (integers, min/max, selection) are bit-equal.
//!
//! Tag discipline: one collective sequence bump covers a whole
//! hierarchical collective; the intra-node, inter-leader, and relay legs
//! each stamp the sequence onto a distinct reserved base so the legs can
//! never cross-match, and per-(source, tag) FIFO plus fixed enumeration
//! orders (ascending ranks within a node, ascending nodes across the
//! machine) make every match deterministic.
//!
//! Fallback: when `cores_per_node == 1` or only one node hosts ranks there
//! is nothing to coalesce, and [`Comm::hier_view`] returns `None` — the
//! dispatchers in `collectives.rs` then run the flat algorithms. The
//! `ClusterModel::collectives` mode can also force flat globally (every
//! rank shares the model, so the choice is SPMD-consistent).

use cc_model::CollectiveMode;

use crate::comm::{Comm, TagValue, SEQ_MASK};
use crate::ops::ReduceOp;

/// Intra-node leg of a hierarchical collective (member <-> leader).
pub(crate) const HIER_INTRA_BASE: TagValue = 0x9000_0000;
/// Inter-node leg (leader <-> leader coalesced frames).
pub(crate) const HIER_INTER_BASE: TagValue = 0xA000_0000;
/// Member -> leader up-frames in the hierarchical alltoallv (distinct from
/// the direct intra-node data blocks riding `HIER_INTRA_BASE`).
pub(crate) const HIER_UP_BASE: TagValue = 0xB000_0000;
/// Leader -> member relay frames in the hierarchical alltoallv.
pub(crate) const HIER_RELAY_BASE: TagValue = 0xC000_0000;

/// This rank's place in the node hierarchy, derived from the topology and
/// the world size. Only exists when the hierarchical paths are active (see
/// [`Comm::hier_view`]), so holders can assume more than one populated
/// node and more than one core per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeView {
    /// The node hosting this rank.
    pub node: usize,
    /// This node's leader: its lowest rank.
    pub leader: usize,
    /// First live rank on this node.
    pub node_lo: usize,
    /// One past the last live rank on this node.
    pub node_hi: usize,
    /// Number of nodes hosting at least one rank.
    pub nodes_used: usize,
    cores_per_node: usize,
    nprocs: usize,
}

impl NodeView {
    /// Whether this rank is its node's leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        rank == self.leader_of(rank)
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.cores_per_node
    }

    /// The leader rank of `node`.
    pub fn leader_of_node(&self, node: usize) -> usize {
        node * self.cores_per_node
    }

    /// The leader rank of the node hosting `rank`.
    pub fn leader_of(&self, rank: usize) -> usize {
        self.leader_of_node(self.node_of(rank))
    }

    /// The half-open live-rank range of `node`.
    pub fn node_range(&self, node: usize) -> (usize, usize) {
        let lo = (node * self.cores_per_node).min(self.nprocs);
        let hi = ((node + 1) * self.cores_per_node).min(self.nprocs);
        (lo, hi)
    }
}

/// Appends one length-prefixed frame section.
pub(crate) fn push_section(frame: &mut Vec<u8>, bytes: &[u8]) {
    frame.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    frame.extend_from_slice(bytes);
}

/// The length of a frame holding `blocks` as length-prefixed sections.
pub(crate) fn framed_len<B: AsRef<[u8]>>(blocks: &[B]) -> usize {
    blocks.iter().map(|b| 8 + b.as_ref().len()).sum()
}

/// Reads the length-prefixed section at `*pos`, advancing the cursor.
fn read_section<'f>(frame: &'f [u8], pos: &mut usize) -> &'f [u8] {
    let len = u64::from_le_bytes(frame[*pos..*pos + 8].try_into().expect("section header"));
    *pos += 8;
    let body = &frame[*pos..*pos + len as usize];
    *pos += len as usize;
    body
}

/// The sections of a frame of length-prefixed blocks, in order — for an
/// [`allgatherv_frame`](Comm::allgatherv_frame) result, one block of
/// encoded elements per rank.
pub fn frame_sections(frame: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut pos = 0;
    std::iter::from_fn(move || (pos < frame.len()).then(|| read_section(frame, &mut pos)))
}

impl Comm {
    /// This rank's node hierarchy when hierarchical collectives are
    /// active; `None` means callers must use the flat algorithms. Active
    /// iff the model does not force `Flat`, nodes have more than one core,
    /// and more than one node hosts ranks — otherwise there is no
    /// interconnect traffic to coalesce.
    pub fn hier_view(&self) -> Option<NodeView> {
        let model = self.model();
        if model.collectives == CollectiveMode::Flat {
            return None;
        }
        let topo = &model.topology;
        if topo.cores_per_node == 1 {
            return None;
        }
        let nodes_used = topo.nodes_used(self.nprocs());
        if nodes_used < 2 {
            return None;
        }
        let node = topo.node_of(self.rank());
        let (node_lo, node_hi) = topo.node_range(node, self.nprocs());
        Some(NodeView {
            node,
            leader: topo.leader_of_node(node),
            node_lo,
            node_hi,
            nodes_used,
            cores_per_node: topo.cores_per_node,
            nprocs: self.nprocs(),
        })
    }

    /// The per-leg tags of one hierarchical collective, all stamped with
    /// the sequence number already embedded in `tag` (the single bump the
    /// dispatcher performed).
    pub(crate) fn hier_tags(tag: TagValue) -> (TagValue, TagValue) {
        let seq = tag & SEQ_MASK;
        (HIER_INTRA_BASE | seq, HIER_INTER_BASE | seq)
    }

    /// The broadcast leg of the hierarchical allgather: a binomial tree
    /// over node leaders rooted at rank 0 (inter), then each leader fans
    /// out to its node's members (intra). `data` is rank 0's payload and
    /// is ignored elsewhere.
    pub(crate) fn hier_bcast_bytes(
        &mut self,
        view: &NodeView,
        data: Option<Vec<u8>>,
        tag: TagValue,
    ) -> Vec<u8> {
        let (t_intra, t_inter) = Self::hier_tags(tag);
        let rank = self.rank();
        if rank != view.leader {
            return self.recv_bytes(view.leader, t_intra).0;
        }
        // MPICH's binomial numbering over node indices: a node's parent is
        // its index with the lowest set bit cleared, its children set the
        // bits below that one, largest subtree first.
        let node = view.node;
        let payload = if node == 0 {
            data.expect("rank 0 must supply the broadcast payload")
        } else {
            let parent = view.leader_of_node(node & (node - 1));
            self.recv_bytes(parent, t_inter).0
        };
        let lowest = if node == 0 {
            view.nodes_used.next_power_of_two()
        } else {
            1 << node.trailing_zeros()
        };
        let mut bit = lowest >> 1;
        while bit > 0 {
            if node | bit < view.nodes_used {
                let mut buf = self.take_buf(payload.len());
                buf.extend_from_slice(&payload);
                self.send_bytes(view.leader_of_node(node | bit), t_inter, buf);
            }
            bit >>= 1;
        }
        for dst in view.node_lo..view.node_hi {
            if dst != rank {
                let mut buf = self.take_buf(payload.len());
                buf.extend_from_slice(&payload);
                self.send_bytes(dst, t_intra, buf);
            }
        }
        payload
    }

    /// The gather leg of the hierarchical allgather: members of remote
    /// nodes send to their leader (intra), each remote leader sends one
    /// frame of its node's blocks — ascending rank order, length-prefixed
    /// — to rank 0 (inter), and node 0's members send directly (intra).
    /// Returns `Some(blocks_by_rank)` on rank 0.
    pub(crate) fn hier_gatherv_bytes(
        &mut self,
        view: &NodeView,
        mine: &[u8],
        tag: TagValue,
    ) -> Option<Vec<Vec<u8>>> {
        let (t_intra, t_inter) = Self::hier_tags(tag);
        let rank = self.rank();

        if rank == 0 {
            let mut out: Vec<Vec<u8>> = (0..self.nprocs()).map(|_| Vec::new()).collect();
            out[0] = mine.to_vec();
            #[allow(clippy::needless_range_loop)] // src is the peer rank
            for src in 1..view.node_hi {
                out[src] = self.recv_bytes(src, t_intra).0;
            }
            for node in 1..view.nodes_used {
                let (frame, _) = self.recv_bytes(view.leader_of_node(node), t_inter);
                let (lo, hi) = view.node_range(node);
                let mut pos = 0;
                #[allow(clippy::needless_range_loop)] // src is the peer rank
                for src in lo..hi {
                    out[src] = read_section(&frame, &mut pos).to_vec();
                }
                self.recycle_buf(frame);
            }
            return Some(out);
        }

        if view.node == 0 {
            // Node 0 needs no coalescing: its members reach rank 0 over
            // shared memory already.
            self.send_copy(0, t_intra, mine);
            return None;
        }
        if rank == view.leader {
            // Sections in ascending rank order; the leader is the node's
            // lowest rank, so its own block comes first.
            let members: Vec<Vec<u8>> = (view.node_lo + 1..view.node_hi)
                .map(|src| self.recv_bytes(src, t_intra).0)
                .collect();
            let mut frame = self.take_buf(8 + mine.len() + framed_len(&members));
            push_section(&mut frame, mine);
            for bytes in members {
                push_section(&mut frame, &bytes);
                self.recycle_buf(bytes);
            }
            self.send_bytes(0, t_inter, frame);
        } else {
            self.send_copy(view.leader, t_intra, mine);
        }
        None
    }

    /// Hierarchical allgather: gather everything to rank 0 (the leader of
    /// node 0), then broadcast one frame holding all blocks as
    /// length-prefixed sections in rank order. Returns that frame.
    pub(crate) fn hier_allgatherv_frame(
        &mut self,
        view: &NodeView,
        mine: &[u8],
        tag: TagValue,
    ) -> Vec<u8> {
        let table = self.hier_gatherv_bytes(view, mine, tag);
        let frame = table.map(|blocks| {
            let mut frame = self.take_buf(framed_len(&blocks));
            for block in &blocks {
                push_section(&mut frame, block);
            }
            frame
        });
        self.hier_bcast_bytes(view, frame, tag)
    }

    /// Hierarchical rank-order reduce: members fold into their leader in
    /// ascending rank order (intra), leaders run a non-rotated binomial
    /// over ascending node indices (inter) so every combine still merges
    /// contiguous ascending rank blocks, and rank 0 — the tree's root —
    /// forwards the finished result to a nonzero `root`, exactly like the
    /// flat algorithm.
    pub(crate) fn hier_reduce(
        &mut self,
        view: &NodeView,
        root: usize,
        data: &[u64],
        op: &dyn ReduceOp,
        tag: TagValue,
    ) -> Option<Vec<u64>> {
        let (t_intra, t_inter) = Self::hier_tags(tag);
        let rank = self.rank();
        let mut acc = data.to_vec();

        if rank != view.leader {
            self.send_words(view.leader, t_intra, &acc);
        } else {
            let mut incoming = Vec::new();
            for src in view.node_lo + 1..view.node_hi {
                self.recv_words_into(src, t_intra, &mut incoming);
                op.combine(&mut acc, &incoming);
            }
            // Binomial over node indices, *not* rotated: node n's partial
            // covers ranks [node_lo, node_hi), so combining node n with
            // node n|bit merges adjacent ascending blocks.
            let n = view.node;
            let mut bit = 1;
            while bit < view.nodes_used {
                if n & bit != 0 {
                    self.send_words(view.leader_of_node(n & !bit), t_inter, &acc);
                    break;
                }
                let child = n | bit;
                if child < view.nodes_used {
                    self.recv_words_into(view.leader_of_node(child), t_inter, &mut incoming);
                    op.combine(&mut acc, &incoming);
                }
                bit <<= 1;
            }
        }
        // The tree result lives at rank 0 (leader of node 0).
        if root == 0 {
            return (rank == 0).then_some(acc);
        }
        if rank == 0 {
            self.send_words(root, t_inter, &acc);
            None
        } else if rank == root {
            self.recv_words_into(0, t_inter, &mut acc);
            Some(acc)
        } else {
            None
        }
    }

    /// Hierarchical personalized all-to-all. Within a node, blocks move
    /// directly between members (shared memory is already cheap). Across
    /// nodes, each member ships one length-prefixed *up-frame* per remote
    /// node to its leader; the leader concatenates its members' up-frames
    /// — ascending source rank — into one frame per node pair, exchanges
    /// them leader-to-leader, and relays each incoming frame's sections to
    /// its members. All loops enumerate ascending (nodes outer, ranks
    /// inner), which with per-(source, tag) FIFO makes every match
    /// deterministic. Leaders' own up-frames and relays ride the self-send
    /// short-circuit, so they move without copies or envelopes.
    pub(crate) fn hier_alltoallv_bytes(
        &mut self,
        view: &NodeView,
        mut sends: Vec<Vec<u8>>,
        tag: TagValue,
    ) -> Vec<Vec<u8>> {
        let (t_intra, t_inter) = Self::hier_tags(tag);
        let seq = tag & SEQ_MASK;
        let (t_up, t_relay) = (HIER_UP_BASE | seq, HIER_RELAY_BASE | seq);
        let p = self.nprocs();
        assert_eq!(sends.len(), p, "alltoallv needs one buffer per rank");
        let rank = self.rank();
        let am_leader = rank == view.leader;
        let mut recvs: Vec<Vec<u8>> = (0..p).map(|_| Vec::new()).collect();
        recvs[rank] = std::mem::take(&mut sends[rank]);

        // Phase 1 (all eager): direct intra-node blocks, then one up-frame
        // per remote node to the leader (the leader's own up-frames
        // short-circuit through its self queue).
        #[allow(clippy::needless_range_loop)] // dst is the peer rank
        for dst in view.node_lo..view.node_hi {
            if dst != rank {
                self.send_bytes(dst, t_intra, std::mem::take(&mut sends[dst]));
            }
        }
        for node in 0..view.nodes_used {
            if node == view.node {
                continue;
            }
            let (lo, hi) = view.node_range(node);
            let mut frame = self.take_buf(framed_len(&sends[lo..hi]));
            #[allow(clippy::needless_range_loop)] // dst is the peer rank
            for dst in lo..hi {
                push_section(&mut frame, &sends[dst]);
                sends[dst] = Vec::new();
            }
            self.send_bytes(view.leader, t_up, frame);
        }

        // Phase 2 (leaders): per remote node, concatenate the members'
        // up-frames in ascending source-rank order and exchange one frame
        // per node pair. FIFO per (source, tag) pairs the i-th up-frame
        // from a member with the i-th remote node in ascending order on
        // both sides.
        if am_leader {
            for node in 0..view.nodes_used {
                if node == view.node {
                    continue;
                }
                let ups: Vec<Vec<u8>> = (view.node_lo..view.node_hi)
                    .map(|src| self.recv_bytes(src, t_up).0)
                    .collect();
                let mut frame = self.take_buf(ups.iter().map(Vec::len).sum());
                for up in ups {
                    frame.extend_from_slice(&up);
                    self.recycle_buf(up);
                }
                self.send_bytes(view.leader_of_node(node), t_inter, frame);
            }
            // Receive the node-pair frames and relay per-member slices:
            // frame layout is src-major (ascending src in the remote
            // node), dst-minor (ascending dst here), so relaying walks the
            // sections and regroups them by destination member.
            for node in 0..view.nodes_used {
                if node == view.node {
                    continue;
                }
                let (frame, _) = self.recv_bytes(view.leader_of_node(node), t_inter);
                let (lo, hi) = view.node_range(node);
                let members = view.node_hi - view.node_lo;
                // Size each member's relay from the frame's section headers
                // before packing any of them.
                let mut lens = vec![0usize; members];
                let mut pos = 0;
                for _src in lo..hi {
                    for len in lens.iter_mut() {
                        *len += 8 + read_section(&frame, &mut pos).len();
                    }
                }
                let mut relays: Vec<Vec<u8>> =
                    lens.into_iter().map(|len| self.take_buf(len)).collect();
                let mut pos = 0;
                for _src in lo..hi {
                    for relay in relays.iter_mut() {
                        let body = read_section(&frame, &mut pos);
                        push_section(relay, body);
                    }
                }
                self.recycle_buf(frame);
                for (slot, relay) in relays.into_iter().enumerate() {
                    self.send_bytes(view.node_lo + slot, t_relay, relay);
                }
            }
        }

        // Phase 3 (all ranks): unpack relayed remote blocks, then drain
        // the direct intra-node blocks.
        for node in 0..view.nodes_used {
            if node == view.node {
                continue;
            }
            let (relay, _) = self.recv_bytes(view.leader, t_relay);
            let (lo, hi) = view.node_range(node);
            let mut pos = 0;
            #[allow(clippy::needless_range_loop)] // src is the peer rank
            for src in lo..hi {
                recvs[src] = read_section(&relay, &mut pos).to_vec();
            }
            self.recycle_buf(relay);
        }
        #[allow(clippy::needless_range_loop)] // src is the peer rank
        for src in view.node_lo..view.node_hi {
            if src != rank {
                let (block, _) = self.recv_bytes(src, t_intra);
                recvs[src] = block;
            }
        }
        recvs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::word_ops::{max, min, take_left, take_right, wrapping_sum};
    use crate::world::World;
    use crate::CommStats;
    use cc_model::ClusterModel;

    fn model(nodes: usize, cores: usize, mode: CollectiveMode) -> ClusterModel {
        ClusterModel::hopper_like(nodes, cores).with_collectives(mode)
    }

    /// Runs `f` under flat and hierarchical collectives on the same
    /// topology and asserts identical per-rank results.
    fn assert_modes_agree<R>(
        nodes: usize,
        cores: usize,
        nprocs: usize,
        f: impl Fn(&mut Comm) -> R + Send + Sync,
    ) where
        R: PartialEq + std::fmt::Debug + Send,
    {
        let flat = World::new(nprocs, model(nodes, cores, CollectiveMode::Flat)).run(&f);
        let hier = World::new(nprocs, model(nodes, cores, CollectiveMode::Auto)).run(&f);
        assert_eq!(
            flat, hier,
            "hier diverged from flat ({nodes} nodes x {cores} cores, {nprocs} ranks)"
        );
    }

    /// Every rank's section of an `allgatherv_frame` of `mine`.
    fn allgathered(comm: &mut Comm, mine: &[u8]) -> Vec<Vec<u8>> {
        let mut own = comm.take_buf(mine.len());
        own.extend_from_slice(mine);
        let frame = comm.allgatherv_frame(own);
        let sections = frame_sections(&frame).map(<[u8]>::to_vec).collect();
        comm.recycle_buf(frame);
        sections
    }

    /// `reduce`'s wire format in closed form. Every message carries the
    /// whole `n`-word partial, 8n bytes. Flat, each nonzero rank sends once
    /// to its binomial parent: p - 1 sends. Hierarchical, each member sends
    /// once to its node's leader, then each leader but rank 0's once up the
    /// binomial over nodes. Either way rank 0 forwards the result once to
    /// a nonzero root. Every rank's counters must match, lane by lane.
    #[test]
    fn reduce_wire_format_matches_closed_forms() {
        for (nodes, cores, nprocs) in [(1, 4, 4), (4, 1, 4), (2, 4, 8), (3, 4, 10), (5, 3, 13)] {
            for mode in [CollectiveMode::Flat, CollectiveMode::Auto] {
                for n in [1usize, 3, 16] {
                    for root in [0, 1, nprocs - 1] {
                        let m = model(nodes, cores, mode);
                        let topo = m.topology.clone();
                        let runs = World::new(nprocs, m).run(move |comm| {
                            let before = comm.stats();
                            let mine = vec![comm.rank() as u64; n];
                            comm.reduce(root, &mine, &wrapping_sum);
                            (comm.hier_view().is_some(), comm.stats().delta(&before))
                        });
                        let hier = runs[0].0;
                        let mut legs: Vec<(usize, usize)> = Vec::new();
                        if hier {
                            let used = topo.nodes_used(nprocs);
                            legs.extend(
                                (0..nprocs)
                                    .filter(|&r| r != topo.leader_of(r))
                                    .map(|r| (r, topo.leader_of(r))),
                            );
                            legs.extend((1..used).map(|node| {
                                (
                                    topo.leader_of_node(node),
                                    topo.leader_of_node(node & (node - 1)),
                                )
                            }));
                        } else {
                            legs.extend((1..nprocs).map(|r| (r, r & (r - 1))));
                        }
                        if root != 0 {
                            legs.push((0, root));
                        }
                        let mut expect = vec![CommStats::default(); nprocs];
                        for &(src, dst) in &legs {
                            let s = &mut expect[src];
                            s.msgs_sent += 1;
                            s.bytes_sent += 8 * n;
                            if topo.same_node(src, dst) {
                                s.msgs_intra += 1;
                                s.bytes_intra += 8 * n;
                                s.logical_intra += 8 * n;
                            } else {
                                s.msgs_inter += 1;
                                s.bytes_inter += 8 * n;
                                s.logical_inter += 8 * n;
                            }
                            expect[dst].msgs_recv += 1;
                            expect[dst].bytes_recv += 8 * n;
                        }
                        let shape = format!(
                            "{nodes} nodes x {cores} cores, {nprocs} ranks, {mode:?}, \
                             {n} words, root {root}"
                        );
                        let mut total = CommStats::default();
                        for (r, (_, got)) in runs.iter().enumerate() {
                            assert_eq!(got, &expect[r], "rank {r}, {shape}");
                            total.merge(got);
                        }
                        let sends = nprocs - 1 + usize::from(root != 0);
                        assert_eq!(total.msgs_sent, sends, "{shape}");
                        assert_eq!(total.bytes_sent, 8 * n * sends, "{shape}");
                        if hier {
                            let forward_inter = root != 0 && !topo.same_node(0, root);
                            assert_eq!(
                                total.msgs_inter,
                                topo.nodes_used(nprocs) - 1 + usize::from(forward_inter),
                                "{shape}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hier_view_gating() {
        // Multi-core multi-node: hierarchical.
        let views = World::new(8, model(2, 4, CollectiveMode::Auto)).run(|c| c.hier_view());
        assert!(views.iter().all(Option::is_some));
        assert_eq!(views[5].unwrap().leader, 4);
        // One core per node: nothing to coalesce.
        let views = World::new(4, model(4, 1, CollectiveMode::Auto)).run(|c| c.hier_view());
        assert!(views.iter().all(Option::is_none));
        // World fits on one node: nothing crosses the interconnect.
        let views = World::new(3, model(4, 4, CollectiveMode::Auto)).run(|c| c.hier_view());
        assert!(views.iter().all(Option::is_none));
        // Flat mode forces the view off even on a hierarchical topology.
        let views = World::new(8, model(2, 4, CollectiveMode::Flat)).run(|c| c.hier_view());
        assert!(views.iter().all(Option::is_none));
    }

    #[test]
    fn all_collectives_agree_on_partial_worlds() {
        // Non-power-of-two nodes, partially filled last node.
        for (nodes, cores, nprocs) in [(2, 2, 4), (3, 4, 10), (5, 3, 13), (2, 16, 32)] {
            assert_modes_agree(nodes, cores, nprocs, move |comm| {
                let rank = comm.rank();
                let root = nprocs / 2;
                let ag = allgathered(comm, &vec![rank as u8 * 3; rank % 5]);
                let sends: Vec<Vec<u8>> = (0..nprocs)
                    .map(|d| vec![(rank * nprocs + d) as u8; (rank + d) % 4])
                    .collect();
                let a2a = comm.alltoallv_bytes(sends);
                let r = comm.reduce(root, &[rank as u64, 1], &wrapping_sum);
                let mn = comm.reduce(0, &[(rank as i64 - 3) as u64], &min);
                (ag, a2a, r, mn)
            });
        }
    }

    #[test]
    fn reduce_preserves_rank_order_across_node_boundaries() {
        for (nodes, cores, nprocs) in [(3, 4, 12), (3, 4, 9), (4, 2, 7)] {
            for root in [0, 1, nprocs - 1] {
                let results = World::new(nprocs, model(nodes, cores, CollectiveMode::Auto))
                    .run(move |comm| comm.reduce(root, &[comm.rank() as u64 + 100], &take_left));
                assert_eq!(results[root].as_ref().unwrap(), &vec![100]);
                let results = World::new(nprocs, model(nodes, cores, CollectiveMode::Auto))
                    .run(move |comm| comm.reduce(root, &[comm.rank() as u64 + 100], &take_right));
                assert_eq!(
                    results[root].as_ref().unwrap(),
                    &vec![100 + nprocs as u64 - 1]
                );
            }
        }
    }

    #[test]
    fn hierarchical_alltoallv_cuts_inter_node_messages() {
        let nodes = 4;
        let cores = 4;
        let nprocs = nodes * cores;
        let count_inter = |mode: CollectiveMode| -> (usize, Vec<Vec<u8>>) {
            let runs = World::new(nprocs, model(nodes, cores, mode)).run(move |comm| {
                let sends: Vec<Vec<u8>> = (0..nprocs)
                    .map(|d| vec![comm.rank() as u8; d + 1])
                    .collect();
                let recvs = comm.alltoallv_bytes(sends);
                (comm.stats().msgs_inter, recvs)
            });
            let total = runs.iter().map(|(m, _)| m).sum();
            (total, runs.into_iter().flat_map(|(_, r)| r).collect())
        };
        let (flat_inter, flat_data) = count_inter(CollectiveMode::Flat);
        let (hier_inter, hier_data) = count_inter(CollectiveMode::Auto);
        assert_eq!(flat_data, hier_data, "payloads must be bit-identical");
        // Flat: every rank messages all 12 remote ranks => 192 inter
        // messages. Hierarchical: one frame per ordered node pair => 12.
        assert_eq!(flat_inter, nprocs * (nprocs - cores));
        assert_eq!(hier_inter, nodes * (nodes - 1));
        assert!(hier_inter * 4 <= flat_inter);
    }

    #[test]
    fn collectives_compose_across_modes_with_p2p() {
        // Interleaved p2p and hierarchical collectives: tag spaces stay
        // disjoint and sequence numbers stay symmetric.
        let results = World::new(6, model(3, 2, CollectiveMode::Auto)).run(|comm| {
            let next = (comm.rank() + 1) % 6;
            let prev = (comm.rank() + 5) % 6;
            comm.send_copy(next, 17, &[comm.rank() as u8]);
            let total = comm.reduce(0, &[1], &wrapping_sum).map(|v| v[0]);
            let (from_prev, _) = comm.recv_bytes(prev, 17);
            let maxed = comm.reduce(3, &[comm.rank() as u64], &max).map(|v| v[0]);
            comm.barrier();
            (total, from_prev[0], maxed)
        });
        for (r, (total, from, maxed)) in results.iter().enumerate() {
            assert_eq!(*total, (r == 0).then_some(6));
            assert_eq!(*from as usize, (r + 5) % 6);
            assert_eq!(*maxed, (r == 3).then_some(5));
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Random world shapes biased toward awkward cases: single-core
        /// nodes, non-power-of-two node counts, partially filled nodes.
        fn shapes() -> impl Strategy<Value = (usize, usize, usize)> {
            (1..6usize, 1..5usize, 1..100usize).prop_map(|(nodes, cores, fill)| {
                let cap = nodes * cores;
                let nprocs = 1 + fill % cap;
                (nodes, cores, nprocs)
            })
        }

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(16))]

            /// The allgather's frame, read section by section: flat it is
            /// a ring, hierarchical it is the gather leg to rank 0 and the
            /// broadcast leg back, so both legs must reproduce the ring's
            /// sections byte for byte.
            #[test]
            fn prop_bcast_and_gather_agree(shape in shapes(), seed in any::<u32>()) {
                let (nodes, cores, nprocs) = shape;
                assert_modes_agree(nodes, cores, nprocs, move |comm| {
                    let rank = comm.rank();
                    let len = (seed as usize + rank * 7) % 60;
                    let mine: Vec<u8> =
                        (0..len).map(|i| (seed as usize + rank * 1000 + i) as u8).collect();
                    allgathered(comm, &mine)
                });
            }

            #[test]
            fn prop_alltoallv_agrees(shape in shapes(), seed in any::<u32>()) {
                let (nodes, cores, nprocs) = shape;
                assert_modes_agree(nodes, cores, nprocs, move |comm| {
                    let rank = comm.rank();
                    let sends: Vec<Vec<u8>> = (0..nprocs)
                        .map(|d| {
                            let len = (seed as usize + rank * 13 + d * 5) % 40;
                            (0..len).map(|i| (rank * 31 + d * 7 + i) as u8).collect()
                        })
                        .collect();
                    comm.alltoallv_bytes(sends)
                });
            }

            #[test]
            fn prop_reduce_agrees(shape in shapes(), seed in any::<u32>()) {
                let (nodes, cores, nprocs) = shape;
                let root = (seed / 7) as usize % nprocs;
                assert_modes_agree(nodes, cores, nprocs, move |comm| {
                    // Exactly-associative ops only: wrapping sum, min/max,
                    // and noncommutative first/last selection. Float
                    // parenthesization may legitimately differ between the
                    // trees.
                    let mine = [
                        (comm.rank() as u64).wrapping_mul(seed as u64 | 1),
                        comm.rank() as u64,
                    ];
                    let s = comm.reduce(root, &mine, &wrapping_sum);
                    let r = comm.reduce(root, &mine, &take_right);
                    let mn = comm.reduce(0, &mine, &min);
                    comm.barrier();
                    let mx = comm.reduce(nprocs - 1, &mine, &max);
                    (s, r, mn, mx)
                });
            }
        }
    }
}
