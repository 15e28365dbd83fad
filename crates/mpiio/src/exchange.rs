//! Offset-list exchange.
//!
//! Before the two-phase protocol can partition file domains, every process
//! must know every other process's request. ROMIO does this with an
//! allgather of flattened offset/length lists, and so do we: the exchange
//! is a real (timed) collective, [`Comm::allgatherv_frame`], so its cost
//! shows up in the totals.
//!
//! What each message carries is the list's compact encoding
//! (`OffsetList::encode_into`): strided runs in varints, not raw
//! offset/length pairs. A collective's tree multiplies whatever payload it
//! is handed, and a hyperslab's list — equal extents at one stride — is two
//! runs however many extents it has, so the table every rank receives
//! shrinks from 16 bytes per extent to a few bytes per rank. Encoding and
//! decoding are charged to no clock, as flattening the pairs was not: the
//! virtual clock sees the change only through `bytes / bandwidth`.
//!
//! What ROMIO's processes then each do for themselves — decode the
//! gathered lists into a request table — the simulated ranks do once. All
//! of them receive the same frame, so the first rank to finish the
//! allgather decodes and the rest share its table through [`Comm::memo`].

use std::sync::Arc;

use cc_mpi::{frame_sections, Comm};

use crate::extent::OffsetList;

/// Exchanges offset lists among all ranks; returns every rank's request,
/// indexed by rank — one table per collective, shared by all ranks. Must be
/// called collectively.
pub fn exchange_requests(comm: &mut Comm, mine: &OffsetList) -> Arc<Vec<OffsetList>> {
    let mut own = comm.take_buf(mine.encoded_len());
    mine.encode_into(&mut own);
    let frame = comm.allgatherv_frame(own);
    let table = comm.memo(|| {
        frame_sections(&frame)
            .map(OffsetList::decode)
            .collect::<Vec<_>>()
    });
    comm.recycle_buf(frame);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;
    use cc_model::{ClusterModel, CollectiveMode, SimTime};
    use cc_mpi::World;

    /// The exchange's cost model is the allgather's, exactly: in a
    /// flat-ring and in a hierarchical world, every rank leaves
    /// `exchange_requests` with the clock and the counters it leaves a
    /// plain `allgatherv_frame` of its encoded list with — and with the one
    /// shared table, equal to what each rank would have decoded for itself.
    #[test]
    fn exchange_costs_exactly_an_allgatherv_and_shares_one_table() {
        let n = 10;
        // Ragged lists (rank 0 and 4 and 8 empty; strided, so run-coded,
        // from rank 3 up) and staggered arrivals, so message sizes and the
        // critical path differ from rank to rank.
        let request = |rank: usize| {
            OffsetList::new(
                (0..rank % 4 * (1 + rank / 3))
                    .map(|i| Extent {
                        offset: (rank * 10_000 + i * 100) as u64,
                        len: 10 + (i / 6) as u64,
                    })
                    .collect(),
            )
        };
        let arrive = |rank: usize| SimTime::from_secs(((rank * 7) % 5) as f64 * 1e-6);
        for mode in [CollectiveMode::Flat, CollectiveMode::Auto] {
            let world = World::new(n, ClusterModel::hopper_like(3, 4).with_collectives(mode));
            let plain = world.run(|comm| {
                comm.advance(arrive(comm.rank()));
                let encoded = request(comm.rank()).encode();
                let mut own = comm.take_buf(encoded.len());
                own.extend_from_slice(&encoded);
                let frame = comm.allgatherv_frame(own);
                let all: Vec<Vec<u8>> = frame_sections(&frame).map(<[u8]>::to_vec).collect();
                (comm.clock(), comm.stats(), all)
            });
            let exchanged = world.run(|comm| {
                comm.advance(arrive(comm.rank()));
                let table = exchange_requests(comm, &request(comm.rank()));
                (comm.clock(), comm.stats(), table)
            });
            for (rank, ((clock, stats, bytes), (x_clock, x_stats, table))) in
                plain.iter().zip(&exchanged).enumerate()
            {
                assert_eq!(x_clock, clock, "{mode:?} rank {rank} clock");
                assert_eq!(x_stats, stats, "{mode:?} rank {rank} stats");
                assert!(
                    Arc::ptr_eq(table, &exchanged[0].2),
                    "{mode:?} rank {rank} holds its own table"
                );
                let oracle: Vec<OffsetList> = bytes.iter().map(|b| OffsetList::decode(b)).collect();
                assert_eq!(**table, oracle, "{mode:?} rank {rank} table");
                assert_eq!(table[rank], request(rank));
            }
            assert!(plain[0].1.msgs_sent > 0, "{mode:?} moved no messages");
        }
    }

    #[test]
    fn every_rank_sees_every_request() {
        let n = 4;
        let world = World::new(n, ClusterModel::test_tiny(n));
        let results = world.run(|comm| {
            let mine = OffsetList::new(vec![Extent {
                offset: comm.rank() as u64 * 100,
                len: 10 + comm.rank() as u64,
            }]);
            exchange_requests(comm, &mine)
        });
        for lists in &results {
            assert_eq!(lists.len(), n);
            for (r, l) in lists.iter().enumerate() {
                assert_eq!(l.min_offset(), Some(r as u64 * 100));
                assert_eq!(l.total_bytes(), 10 + r as u64);
            }
        }
    }

    #[test]
    fn empty_requests_survive_exchange() {
        let world = World::new(3, ClusterModel::test_tiny(3));
        let results = world.run(|comm| {
            let mine = if comm.rank() == 1 {
                OffsetList::contiguous(50, 5)
            } else {
                OffsetList::empty()
            };
            exchange_requests(comm, &mine)
        });
        for lists in &results {
            assert!(lists[0].is_empty());
            assert_eq!(lists[1].total_bytes(), 5);
            assert!(lists[2].is_empty());
        }
    }
}
