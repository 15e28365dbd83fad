//! Independent (non-collective) I/O, with optional data sieving.
//!
//! The baseline the paper profiles in Fig. 3: every process serves its own
//! (non-contiguous) request directly. Without sieving each extent is a
//! separate file-system request — one positioning cost each, and heavy OST
//! contention when many ranks interleave. With data sieving (Thakur et
//! al.), the process reads the covering range of its request in large
//! buffer-sized chunks and extracts the useful bytes, trading wasted
//! bandwidth for fewer requests.

use cc_model::SimTime;
use cc_mpi::Comm;
use cc_pfs::{FileHandle, Pfs};
use cc_profile::{Activity, Segment};

use crate::extent::OffsetList;

/// What one rank observed during an independent read.
#[derive(Debug, Clone, Default)]
pub struct IndependentReport {
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual completion time.
    pub end: SimTime,
    /// Bytes transferred from the file system (≥ requested when sieving).
    pub bytes_read: u64,
    /// File-system requests issued.
    pub requests_issued: u64,
    /// Activity segments for CPU profiling (Fig. 3): reads are `Wait`,
    /// sieve extraction is `Sys`.
    pub segments: Vec<Segment>,
}

/// Reads `my_request` directly, one file-system request per extent.
pub fn independent_read(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    my_request: &OffsetList,
) -> (Vec<u8>, IndependentReport) {
    let mut report = IndependentReport {
        start: comm.clock(),
        ..IndependentReport::default()
    };
    let mut buf = Vec::with_capacity(my_request.total_bytes() as usize);
    for e in my_request.extents() {
        let before = comm.clock();
        let (data, done) = pfs.read_at(file, e.offset, e.len, comm.clock());
        comm.advance_to(done);
        report
            .segments
            .push(Segment::new(before, comm.clock(), Activity::Wait));
        buf.extend_from_slice(&data);
        report.bytes_read += e.len;
        report.requests_issued += 1;
    }
    report.end = comm.clock();
    (buf, report)
}

/// Reads `my_request` with data sieving: covering ranges are read in
/// `sieve_buffer`-sized chunks and the requested pieces extracted.
pub fn sieving_read(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    my_request: &OffsetList,
    sieve_buffer: u64,
) -> (Vec<u8>, IndependentReport) {
    assert!(sieve_buffer > 0, "sieve buffer must be positive");
    let mut report = IndependentReport {
        start: comm.clock(),
        ..IndependentReport::default()
    };
    let mut buf = vec![0u8; my_request.total_bytes() as usize];
    let (Some(lo), Some(hi)) = (my_request.min_offset(), my_request.max_end()) else {
        report.end = comm.clock();
        return (buf, report);
    };
    let cpu = comm.model().cpu.clone();
    let mut pos = lo;
    while pos < hi {
        let chunk_hi = (pos + sieve_buffer).min(hi);
        let pieces: Vec<_> = my_request.locate(pos, chunk_hi).collect();
        if !pieces.is_empty() {
            // Read the covering range of the needed bytes in this chunk.
            let rlo = pieces.first().expect("nonempty").extent.offset;
            let rhi = pieces.last().expect("nonempty").extent.end();
            let before = comm.clock();
            let (data, done) = pfs.read_at(file, rlo, rhi - rlo, comm.clock());
            comm.advance_to(done);
            report
                .segments
                .push(Segment::new(before, comm.clock(), Activity::Wait));
            let mut copied = 0usize;
            for p in &pieces {
                let src = (p.extent.offset - rlo) as usize;
                let len = p.extent.len as usize;
                buf[p.buf_offset as usize..p.buf_offset as usize + len]
                    .copy_from_slice(&data[src..src + len]);
                copied += len;
            }
            let copy_start = comm.clock();
            comm.advance(cpu.memcpy_time(copied));
            report
                .segments
                .push(Segment::new(copy_start, comm.clock(), Activity::Sys));
            report.bytes_read += rhi - rlo;
            report.requests_issued += 1;
        }
        pos = chunk_hi;
    }
    report.end = comm.clock();
    (buf, report)
}

/// Writes `data` (the bytes of `my_request` in buffer order) directly,
/// one file-system request per extent.
///
/// # Panics
/// Panics if `data.len()` does not match the request size.
pub fn independent_write(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    my_request: &OffsetList,
    data: &[u8],
) -> IndependentReport {
    assert_eq!(
        data.len() as u64,
        my_request.total_bytes(),
        "write buffer does not match the request size"
    );
    let mut report = IndependentReport {
        start: comm.clock(),
        ..IndependentReport::default()
    };
    let mut cursor = 0usize;
    for e in my_request.extents() {
        let before = comm.clock();
        let done = pfs.write_at(
            file,
            e.offset,
            &data[cursor..cursor + e.len as usize],
            comm.clock(),
        );
        comm.advance_to(done);
        report
            .segments
            .push(Segment::new(before, comm.clock(), Activity::Wait));
        cursor += e.len as usize;
        report.bytes_read += e.len; // bytes moved to the fs
        report.requests_issued += 1;
    }
    report.end = comm.clock();
    report
}

/// Writes `data` with data sieving: each `sieve_buffer`-sized region is
/// read, the requested pieces are patched in, and the covering range is
/// written back — ROMIO's read-modify-write strategy, which trades extra
/// transfer for far fewer (and contiguous) requests.
///
/// Sieved writes are only safe when no other process writes the same
/// covering ranges concurrently; like ROMIO, we leave that to the caller.
pub fn sieving_write(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    my_request: &OffsetList,
    data: &[u8],
    sieve_buffer: u64,
) -> IndependentReport {
    assert!(sieve_buffer > 0, "sieve buffer must be positive");
    assert_eq!(
        data.len() as u64,
        my_request.total_bytes(),
        "write buffer does not match the request size"
    );
    let mut report = IndependentReport {
        start: comm.clock(),
        ..IndependentReport::default()
    };
    let (Some(lo), Some(hi)) = (my_request.min_offset(), my_request.max_end()) else {
        report.end = comm.clock();
        return report;
    };
    let cpu = comm.model().cpu.clone();
    let mut pos = lo;
    while pos < hi {
        let chunk_hi = (pos + sieve_buffer).min(hi);
        let pieces: Vec<_> = my_request.locate(pos, chunk_hi).collect();
        if !pieces.is_empty() {
            let rlo = pieces.first().expect("nonempty").extent.offset;
            let rhi = pieces.last().expect("nonempty").extent.end();
            let before = comm.clock();
            // Read-modify-write the covering range.
            let (mut region, done) = pfs.read_at(file, rlo, rhi - rlo, comm.clock());
            comm.advance_to(done);
            let mut patched = 0usize;
            for p in &pieces {
                let at = (p.extent.offset - rlo) as usize;
                let len = p.extent.len as usize;
                region[at..at + len]
                    .copy_from_slice(&data[p.buf_offset as usize..p.buf_offset as usize + len]);
                patched += len;
            }
            comm.advance(cpu.memcpy_time(patched));
            let done = pfs.write_at(file, rlo, &region, comm.clock());
            comm.advance_to(done);
            report
                .segments
                .push(Segment::new(before, comm.clock(), Activity::Wait));
            report.bytes_read += 2 * (rhi - rlo); // read + write traffic
            report.requests_issued += 2;
        }
        pos = chunk_hi;
    }
    report.end = comm.clock();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;
    use cc_model::ClusterModel;
    use cc_mpi::World;
    use cc_pfs::{MemBackend, StripeLayout};
    use std::sync::Arc;

    impl IndependentReport {
        /// Elapsed virtual time.
        fn elapsed(&self) -> SimTime {
            self.end.saturating_since(self.start)
        }
    }

    fn make_fs(size: usize) -> Arc<Pfs> {
        let fs = Pfs::new(
            2,
            cc_model::DiskModel {
                seek: 1e-2,
                ost_bandwidth: 1e6,
            },
        );
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        fs.create(
            "data",
            StripeLayout::round_robin(256, 2, 0, 2),
            Box::new(MemBackend::from_bytes(data)),
        );
        Arc::new(fs)
    }

    fn expected(request: &OffsetList) -> Vec<u8> {
        let mut out = Vec::new();
        for e in request.extents() {
            out.extend((e.offset..e.end()).map(|i| (i % 251) as u8));
        }
        out
    }

    fn scattered_request() -> OffsetList {
        OffsetList::new(
            (0..20)
                .map(|k| Extent {
                    offset: k * 100,
                    len: 10,
                })
                .collect(),
        )
    }

    #[test]
    fn independent_read_returns_request_bytes() {
        let fs = make_fs(4000);
        let world = World::new(1, ClusterModel::test_tiny(1));
        let fs = &fs;
        let results = world.run(move |comm| {
            let file = fs.open("data").expect("exists");
            independent_read(comm, fs, &file, &scattered_request())
        });
        assert_eq!(results[0].0, expected(&scattered_request()));
        assert_eq!(results[0].1.requests_issued, 20);
        assert_eq!(results[0].1.bytes_read, 200);
    }

    #[test]
    fn sieving_read_matches_independent_data() {
        let fs = make_fs(4000);
        let world = World::new(1, ClusterModel::test_tiny(1));
        let fs = &fs;
        let results = world.run(move |comm| {
            let file = fs.open("data").expect("exists");
            sieving_read(comm, fs, &file, &scattered_request(), 500)
        });
        assert_eq!(results[0].0, expected(&scattered_request()));
        // Sieving issues far fewer requests but reads more bytes.
        assert!(results[0].1.requests_issued <= 4);
        assert!(results[0].1.bytes_read > 200);
    }

    #[test]
    fn sieving_is_faster_for_scattered_access() {
        // Seek-dominated workload: sieving wins by amortizing positioning.
        let run = |sieve: bool| {
            let fs = make_fs(4000);
            let world = World::new(1, ClusterModel::test_tiny(1));
            let fs = &fs;
            world.run(move |comm| {
                let file = fs.open("data").expect("exists");
                let rep = if sieve {
                    sieving_read(comm, fs, &file, &scattered_request(), 2000).1
                } else {
                    independent_read(comm, fs, &file, &scattered_request()).1
                };
                rep.elapsed()
            })[0]
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn empty_request_is_trivial() {
        let fs = make_fs(100);
        let world = World::new(1, ClusterModel::test_tiny(1));
        let fs = &fs;
        let results = world.run(move |comm| {
            let file = fs.open("data").expect("exists");
            let (d1, r1) = independent_read(comm, fs, &file, &OffsetList::empty());
            let (d2, r2) = sieving_read(comm, fs, &file, &OffsetList::empty(), 64);
            (d1, r1, d2, r2)
        });
        assert!(results[0].0.is_empty());
        assert_eq!(results[0].1.requests_issued, 0);
        assert!(results[0].2.is_empty());
        assert_eq!(results[0].3.requests_issued, 0);
    }

    fn write_data_for(request: &OffsetList) -> Vec<u8> {
        let mut data = Vec::new();
        for e in request.extents() {
            data.extend((e.offset..e.end()).map(|i| (i % 13) as u8 + 100));
        }
        data
    }

    fn check_written(fs: &Pfs, request: &OffsetList, size: u64) {
        let file = fs.open("data").expect("exists");
        let (bytes, _) = fs.read_at(&file, 0, size, SimTime::ZERO);
        for (i, &b) in bytes.iter().enumerate() {
            let expected = if request.bytes_in(i as u64, i as u64 + 1) > 0 {
                (i as u64 % 13) as u8 + 100
            } else {
                (i % 251) as u8 // untouched base contents
            };
            assert_eq!(b, expected, "byte {i}");
        }
    }

    #[test]
    fn independent_write_patches_exact_extents() {
        let fs = make_fs(4000);
        let world = World::new(1, ClusterModel::test_tiny(1));
        let fs = &fs;
        let results = world.run(move |comm| {
            let file = fs.open("data").expect("exists");
            let req = scattered_request();
            independent_write(comm, fs, &file, &req, &write_data_for(&req))
        });
        assert_eq!(results[0].requests_issued, 20);
        check_written(fs, &scattered_request(), 4000);
    }

    #[test]
    fn sieving_write_rmw_preserves_holes() {
        let fs = make_fs(4000);
        let world = World::new(1, ClusterModel::test_tiny(1));
        let fs = &fs;
        let results = world.run(move |comm| {
            let file = fs.open("data").expect("exists");
            let req = scattered_request();
            sieving_write(comm, fs, &file, &req, &write_data_for(&req), 1000)
        });
        // Far fewer requests (read+write per sieve region).
        assert!(results[0].requests_issued <= 8);
        check_written(fs, &scattered_request(), 4000);
    }

    #[test]
    fn sieving_write_beats_independent_for_scattered_access() {
        let run = |sieve: bool| {
            let fs = make_fs(4000);
            let world = World::new(1, ClusterModel::test_tiny(1));
            let fs = &fs;
            world.run(move |comm| {
                let file = fs.open("data").expect("exists");
                let req = scattered_request();
                let data = write_data_for(&req);
                let rep = if sieve {
                    sieving_write(comm, fs, &file, &req, &data, 2000)
                } else {
                    independent_write(comm, fs, &file, &req, &data)
                };
                rep.elapsed()
            })[0]
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn empty_write_requests_are_trivial() {
        let fs = make_fs(100);
        let world = World::new(1, ClusterModel::test_tiny(1));
        let fs = &fs;
        let results = world.run(move |comm| {
            let file = fs.open("data").expect("exists");
            let r1 = independent_write(comm, fs, &file, &OffsetList::empty(), &[]);
            let r2 = sieving_write(comm, fs, &file, &OffsetList::empty(), &[], 64);
            (r1.requests_issued, r2.requests_issued)
        });
        assert_eq!(results[0], (0, 0));
    }

    #[test]
    fn contention_slows_concurrent_independent_readers() {
        // 4 ranks hammering the same 2 OSTs: completion must exceed the
        // single-rank time for the same per-rank request.
        let solo = {
            let fs = make_fs(8000);
            let world = World::new(1, ClusterModel::test_tiny(1));
            let fs = &fs;
            world.run(move |comm| {
                let file = fs.open("data").expect("exists");
                independent_read(comm, fs, &file, &scattered_request())
                    .1
                    .elapsed()
            })[0]
        };
        let contended = {
            let fs = make_fs(8000);
            let world = World::new(4, ClusterModel::test_tiny(4));
            let fs = &fs;
            world
                .run(move |comm| {
                    let file = fs.open("data").expect("exists");
                    let req = OffsetList::new(
                        (0..20)
                            .map(|k| Extent {
                                offset: comm.rank() as u64 * 10 + k * 100,
                                len: 10,
                            })
                            .collect(),
                    );
                    independent_read(comm, fs, &file, &req).1.elapsed()
                })
                .into_iter()
                .max()
                .expect("nonempty")
        };
        assert!(
            contended > solo,
            "contended {contended} should exceed solo {solo}"
        );
    }
}
