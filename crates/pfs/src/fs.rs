//! The file system facade: namespace, handles, timed reads and writes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cc_model::{Calendar, DiskModel, Load, SimTime};
use std::sync::RwLock;

use crate::backend::Backend;
use crate::fault::RetryPlan;
use crate::layout::StripeLayout;
use crate::ost::OstPool;

/// Global counters for one file system instance.
#[derive(Debug, Default)]
pub(crate) struct PfsStats {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    extents_served: AtomicU64,
}

/// A point-in-time copy of `PfsStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PfsStatsSnapshot {
    /// Read calls.
    pub reads: u64,
    /// Write calls.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Discontiguous extents served (each costs one positioning op).
    pub extents_served: u64,
}

impl PfsStats {
    fn snapshot(&self) -> PfsStatsSnapshot {
        PfsStatsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            extents_served: self.extents_served.load(Ordering::Relaxed),
        }
    }
}

/// An open file: striping plus contents.
pub struct FileHandle {
    name: String,
    layout: StripeLayout,
    backend: Box<dyn Backend>,
}

impl FileHandle {
    /// The file's striping.
    pub fn layout(&self) -> &StripeLayout {
        &self.layout
    }

    /// File size in bytes.
    pub(crate) fn size(&self) -> u64 {
        self.backend.size()
    }
}

/// A simulated striped parallel file system.
pub struct Pfs {
    pool: OstPool,
    files: RwLock<HashMap<String, Arc<FileHandle>>>,
    fault: Option<RetryPlan>,
    stats: PfsStats,
}

impl Pfs {
    /// A file system with `total_osts` OSTs and the given disk model.
    pub fn new(total_osts: usize, disk: DiskModel) -> Self {
        Self {
            pool: OstPool::new(total_osts, disk),
            files: RwLock::new(HashMap::new()),
            fault: None,
            stats: PfsStats::default(),
        }
    }

    /// Adds a transient-fault retry plan (see [`RetryPlan`]).
    pub fn with_retries(mut self, plan: RetryPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The retry plan, if any.
    pub fn retry_plan(&self) -> Option<&RetryPlan> {
        self.fault.as_ref()
    }

    /// Applies the OST-degradation part of a [`cc_model::FaultPlan`]:
    /// slow OSTs serve every extent at a multiple of the healthy service
    /// time, stalled OSTs queue everything behind their stall window.
    /// Network and straggler faults are applied by `cc-mpi` from
    /// `ClusterModel::fault`, not here.
    pub fn with_fault_plan(mut self, plan: &cc_model::FaultPlan) -> Self {
        self.pool.apply_faults(plan);
        self
    }

    /// Number of OSTs.
    pub fn ost_count(&self) -> usize {
        self.pool.osts.len()
    }

    /// Creates (or replaces) a file and returns its handle.
    ///
    /// # Panics
    /// Panics if the layout references OSTs outside the pool.
    pub fn create(
        &self,
        name: &str,
        layout: StripeLayout,
        backend: Box<dyn Backend>,
    ) -> Arc<FileHandle> {
        assert!(
            layout.osts.iter().all(|&o| o < self.pool.osts.len()),
            "layout references OSTs outside the pool of {}",
            self.pool.osts.len()
        );
        let handle = Arc::new(FileHandle {
            name: name.to_string(),
            layout,
            backend,
        });
        self.files
            .write()
            .unwrap()
            .insert(name.to_string(), Arc::clone(&handle));
        handle
    }

    /// Opens an existing file.
    pub fn open(&self, name: &str) -> Option<Arc<FileHandle>> {
        self.files.read().unwrap().get(name).cloned()
    }

    /// Reads `len` bytes at `offset`, requested at virtual time `now`.
    /// Returns the data and the completion time. Extents on different OSTs
    /// proceed in parallel; extents on the same OST queue.
    pub fn read_at(
        &self,
        file: &FileHandle,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> (Vec<u8>, SimTime) {
        let mut buf = Vec::new();
        let done = self.read_at_into(file, offset, len, now, &mut buf);
        (buf, done)
    }

    /// Like [`read_at`](Self::read_at), but reads into a caller-owned
    /// buffer (cleared and resized to `len`), so a pipeline draining many
    /// chunks can reuse one allocation. Returns the completion time.
    pub(crate) fn read_at_into(
        &self,
        file: &FileHandle,
        offset: u64,
        len: u64,
        now: SimTime,
        buf: &mut Vec<u8>,
    ) -> SimTime {
        assert!(
            offset + len <= file.size(),
            "read [{offset}, {}) beyond file '{}' of size {}",
            offset + len,
            file.name,
            file.size()
        );
        buf.clear();
        buf.resize(len as usize, 0);
        file.backend.read_into(offset, buf);
        let done = self.charge_io("read", file, offset, len, now);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_read.fetch_add(len, Ordering::Relaxed);
        done
    }

    /// Reads several sorted, disjoint ranges of one collective-buffer
    /// iteration in a single vectorized call. Data lands in `buf` at
    /// `offset - base` (cleared, then resized to cover `base..` through the
    /// farthest range end); the timing model groups the object extents of
    /// *all* ranges per OST, merges object-contiguous runs, and books each
    /// OST once under a single lock — one seek charged per merged run, not
    /// per extent. Returns the completion time (`now` if nothing to read).
    ///
    /// Safe under software pipelining: the engines issue the read for
    /// iteration `i + depth` while iteration `i` is still draining, so
    /// calls arrive with `now` values that are neither monotone per rank
    /// nor ordered across ranks. Backfill booking (see `cc-pfs::ost`)
    /// makes that harmless — an early-issued deep-future read takes the
    /// earliest free interval at or after its own `now`, never capacity a
    /// lagging iteration still needs.
    pub fn read_multi(
        &self,
        file: &FileHandle,
        base: u64,
        ranges: &[(u64, u64)],
        now: SimTime,
        buf: &mut Vec<u8>,
    ) -> SimTime {
        let total = self.check_ranges(file, base, ranges, "read_multi");
        let span = ranges.iter().map(|&(o, l)| o + l).max().unwrap_or(base) - base;
        buf.clear();
        buf.resize(span as usize, 0);
        for &(off, len) in ranges {
            if len == 0 {
                continue;
            }
            let dst = (off - base) as usize;
            file.backend
                .read_into(off, &mut buf[dst..dst + len as usize]);
        }
        let done = self.charge_io_multi("read", file, ranges, now, 1.0);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_read.fetch_add(total, Ordering::Relaxed);
        done
    }

    /// Vectorized counterpart of [`write_at`](Self::write_at): writes the
    /// sorted, disjoint `ranges`, sourcing each from `data[offset - base..]`,
    /// and charges the whole batch with per-OST run merging and one booking
    /// lock per OST. Returns the completion time.
    pub fn write_multi(
        &self,
        file: &FileHandle,
        base: u64,
        data: &[u8],
        ranges: &[(u64, u64)],
        now: SimTime,
    ) -> SimTime {
        let logical = ranges.iter().map(|&(_, len)| len).sum();
        self.write_multi_scaled(file, base, data, ranges, now, logical)
    }

    /// [`write_multi`](Self::write_multi) for data that reached the file
    /// system compressed: the full logical `ranges` are stored (offsets,
    /// extents, and byte counters stay logical so readers are unaffected),
    /// but the disk charge is scaled to `wire_bytes` — the compressed size
    /// actually streamed to the OSTs. Each merged per-OST run is shortened
    /// by `wire_bytes / total_logical_bytes` (floored at one byte), so the
    /// seek count is unchanged and only streaming time shrinks. With
    /// `wire_bytes` equal to the logical total the scale is exactly 1.
    pub fn write_multi_scaled(
        &self,
        file: &FileHandle,
        base: u64,
        data: &[u8],
        ranges: &[(u64, u64)],
        now: SimTime,
        wire_bytes: u64,
    ) -> SimTime {
        let total = self.check_ranges(file, base, ranges, "write_multi");
        for &(off, len) in ranges {
            if len == 0 {
                continue;
            }
            let src = (off - base) as usize;
            file.backend.write_at(off, &data[src..src + len as usize]);
        }
        let scale = if total == 0 {
            1.0
        } else {
            wire_bytes as f64 / total as f64
        };
        let done = self.charge_io_multi("write", file, ranges, now, scale);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_written.fetch_add(total, Ordering::Relaxed);
        done
    }

    /// Validates a vectorized range list (sorted, disjoint, at or after
    /// `base`, within the file) and returns the total byte count.
    fn check_ranges(&self, file: &FileHandle, base: u64, ranges: &[(u64, u64)], op: &str) -> u64 {
        let mut prev_end = base;
        let mut total = 0u64;
        for &(off, len) in ranges {
            assert!(
                off >= prev_end,
                "{op} ranges must be sorted and disjoint at or after base {base}"
            );
            assert!(
                off + len <= file.size(),
                "{op} [{off}, {}) beyond file '{}' of size {}",
                off + len,
                file.name,
                file.size()
            );
            prev_end = off + len;
            total += len;
        }
        total
    }

    /// Writes `data` at `offset`, requested at virtual time `now`. Returns
    /// the completion time.
    pub fn write_at(&self, file: &FileHandle, offset: u64, data: &[u8], now: SimTime) -> SimTime {
        file.backend.write_at(offset, data);
        let done = self.charge_io("write", file, offset, data.len() as u64, now);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        done
    }

    /// The fault-free, queue-free duration of a read: max over OSTs of the
    /// summed healthy service times of its extents. The gap between an
    /// actual completion and `now + ideal_read_time` is queueing — under a
    /// fault plan, the part attributable to degradation and contention.
    pub fn ideal_read_time(&self, file: &FileHandle, offset: u64, len: u64) -> SimTime {
        if len == 0 {
            return SimTime::ZERO;
        }
        let mut worst = SimTime::ZERO;
        for (_ost, extents) in file.layout.map_range_by_ost(offset, len) {
            let ost_total: SimTime = extents
                .iter()
                .map(|ext| self.pool.ideal_service_time(ext.len))
                .sum();
            worst = worst.max(ost_total);
        }
        worst
    }

    /// When an I/O call that `op` names ("read" or "write") and issued at
    /// `now` gets past its transient faults: the plan's penalty per failed
    /// attempt later.
    ///
    /// # Panics
    /// Panics, naming the operation and the file, after more failed
    /// attempts in a row than the plan retries.
    fn retry_transients(&self, op: &str, file: &FileHandle, now: SimTime) -> SimTime {
        let mut start = now;
        if let Some(plan) = &self.fault {
            let mut tries = 0;
            while plan.attempt_fails() {
                tries += 1;
                assert!(
                    tries <= plan.max_retries,
                    "{op} of '{}' failed permanently after {} retries",
                    file.name,
                    plan.max_retries
                );
                plan.note_retry();
                start += plan.retry_penalty;
            }
        }
        start
    }

    /// Charges the timing of one `op` call: transient-fault retries, then
    /// one positioning op plus streaming per discontiguous object extent,
    /// with OSTs in parallel and per-OST queueing.
    fn charge_io(
        &self,
        op: &str,
        file: &FileHandle,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> SimTime {
        let start = self.retry_transients(op, file, now);
        if len == 0 {
            return start;
        }
        let mut done = start;
        for (ost, extents) in file.layout.map_range_by_ost(offset, len) {
            let mut ost_done = start;
            for ext in &extents {
                ost_done = self.pool.serve(ost, ost_done, ext.len);
                self.stats.extents_served.fetch_add(1, Ordering::Relaxed);
            }
            done = done.max(ost_done);
        }
        done
    }

    /// Charges the timing of one vectorized `op` call: transient-fault
    /// retries once for the batch, then the object extents of *all* ranges
    /// grouped per OST, sorted by object offset, merged into contiguous
    /// runs, and booked on each OST under a single lock acquisition. OSTs
    /// proceed in parallel; runs on one OST queue. Each merged run's
    /// *streamed* length is scaled by `scale` (compressed write-back
    /// charges the wire bytes, not the logical bytes); runs keep their
    /// identity — one seek each — and never shrink below one byte.
    fn charge_io_multi(
        &self,
        op: &str,
        file: &FileHandle,
        ranges: &[(u64, u64)],
        now: SimTime,
        scale: f64,
    ) -> SimTime {
        let start = self.retry_transients(op, file, now);
        // (object_offset, len) pieces grouped per OST across all ranges.
        let mut per_ost: Vec<(usize, Vec<(u64, u64)>)> = Vec::new();
        for &(off, len) in ranges {
            if len == 0 {
                continue;
            }
            for ext in file.layout.map_range(off, len) {
                match per_ost.iter_mut().find(|(o, _)| *o == ext.ost) {
                    Some((_, list)) => list.push((ext.object_offset, ext.len)),
                    None => per_ost.push((ext.ost, vec![(ext.object_offset, ext.len)])),
                }
            }
        }
        let mut done = start;
        let mut runs: Vec<u64> = Vec::new();
        for (ost, mut pieces) in per_ost {
            pieces.sort_unstable();
            runs.clear();
            let mut last_end = u64::MAX;
            for (obj_off, len) in pieces {
                if obj_off == last_end {
                    *runs.last_mut().unwrap() += len; // object-contiguous: no new seek
                } else {
                    runs.push(len);
                }
                last_end = obj_off + len;
            }
            if scale != 1.0 {
                for run in &mut runs {
                    *run = ((*run as f64 * scale).round() as u64).max(1);
                }
            }
            let ost_done = self.pool.book_many(ost, start, &runs);
            self.stats
                .extents_served
                .fetch_add(runs.len() as u64, Ordering::Relaxed);
            done = done.max(ost_done);
        }
        done
    }

    /// A snapshot of the global counters.
    pub fn stats(&self) -> PfsStatsSnapshot {
        self.stats.snapshot()
    }

    /// Per-OST load snapshots at virtual time `now`: cumulative totals,
    /// wait seconds, and the service backlog still queued at the probe
    /// time.
    pub fn ost_snapshot(&self, now: SimTime) -> Vec<Load> {
        self.pool.osts.iter().map(|o| o.load(now)).collect()
    }

    /// Service seconds booked across every OST, summed in OST index order.
    /// The multi-job service takes deltas of it around each job step to
    /// attribute OST service to jobs.
    pub fn ost_busy_secs(&self) -> f64 {
        self.pool.osts.iter().map(Calendar::busy_secs).sum()
    }

    /// OST load imbalance: the busiest OST's booked service seconds over
    /// the mean (1.0 = balanced, and for an idle pool).
    pub fn ost_imbalance(&self) -> f64 {
        self.pool.imbalance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ElemKind, MemBackend, SyntheticBackend};

    fn test_fs(osts: usize) -> Pfs {
        Pfs::new(
            osts,
            DiskModel {
                seek: 0.5,
                ost_bandwidth: 1000.0,
            },
        )
    }

    fn mem_file(fs: &Pfs, size: usize, stripe: u64, count: usize) -> Arc<FileHandle> {
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        fs.create(
            "f",
            StripeLayout::round_robin(stripe, count, 0, fs.ost_count()),
            Box::new(MemBackend::from_bytes(data)),
        )
    }

    #[test]
    fn read_returns_correct_bytes() {
        let fs = test_fs(4);
        let f = mem_file(&fs, 1000, 64, 4);
        let (data, done) = fs.read_at(&f, 100, 200, SimTime::ZERO);
        let expect: Vec<u8> = (100..300).map(|i| (i % 251) as u8).collect();
        assert_eq!(data, expect);
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn striped_read_is_faster_than_single_ost() {
        // Same volume: 4-way striping splits streaming across OSTs.
        let fs4 = test_fs(4);
        let f4 = mem_file(&fs4, 8000, 1000, 4);
        let (_, t4) = fs4.read_at(&f4, 0, 8000, SimTime::ZERO);

        let fs1 = test_fs(4);
        let f1 = mem_file(&fs1, 8000, 1000, 1);
        let (_, t1) = fs1.read_at(&f1, 0, 8000, SimTime::ZERO);
        assert!(t4 < t1, "striped read {t4} should beat single-OST {t1}");
    }

    #[test]
    fn scattered_reads_pay_per_seek() {
        // One contiguous 1000-byte read vs ten scattered 100-byte reads.
        let fs = test_fs(1);
        let f = mem_file(&fs, 10_000, 1 << 20, 1);
        let (_, contiguous) = fs.read_at(&f, 0, 1000, SimTime::ZERO);
        let fs2 = test_fs(1);
        let f2 = mem_file(&fs2, 10_000, 1 << 20, 1);
        let mut scattered = SimTime::ZERO;
        for i in 0..10 {
            let (_, t) = fs2.read_at(&f2, i * 1000, 100, scattered);
            scattered = t;
        }
        // Contiguous: 1 seek + 1s. Scattered: 10 seeks + 1s.
        assert!((contiguous.secs() - 1.5).abs() < 1e-9);
        assert!((scattered.secs() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let fs = test_fs(2);
        let f = fs.create(
            "w",
            StripeLayout::round_robin(8, 2, 0, 2),
            Box::new(MemBackend::zeroed(64)),
        );
        fs.write_at(&f, 5, &[7, 8, 9], SimTime::ZERO);
        let (data, _) = fs.read_at(&f, 4, 6, SimTime::ZERO);
        assert_eq!(data, vec![0, 7, 8, 9, 0, 0]);
    }

    #[test]
    fn synthetic_file_reads_through_fs() {
        let fs = test_fs(3);
        let f = fs.create(
            "climate",
            StripeLayout::round_robin(16, 3, 0, 3),
            Box::new(SyntheticBackend::new(
                1000,
                ElemKind::F64,
                crate::backend::default_climate_value,
            )),
        );
        let (data, _) = fs.read_at(&f, 80, 16, SimTime::ZERO);
        let v10 = f64::from_le_bytes(data[0..8].try_into().unwrap());
        assert_eq!(v10, crate::backend::default_climate_value(10));
    }

    #[test]
    fn open_finds_created_files() {
        let fs = test_fs(1);
        mem_file(&fs, 10, 4, 1);
        assert!(fs.open("f").is_some());
        assert!(fs.open("missing").is_none());
    }

    #[test]
    fn stats_track_traffic() {
        let fs = test_fs(2);
        let f = mem_file(&fs, 100, 10, 2);
        fs.read_at(&f, 0, 50, SimTime::ZERO);
        let s = fs.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_read, 50);
        assert!(s.extents_served >= 2);
    }

    #[test]
    fn fault_injection_delays_but_preserves_data() {
        let fs = test_fs(1).with_retries(RetryPlan::every(2, SimTime::from_secs(10.0), 3));
        let f = mem_file(&fs, 100, 64, 1);
        let (d1, t1) = fs.read_at(&f, 0, 10, SimTime::ZERO); // attempt 1: ok
        let (d2, t2) = fs.read_at(&f, 0, 10, SimTime::ZERO); // attempt 2 fails, 3 ok
        assert_eq!(d1, d2);
        assert!(t2 > t1 + SimTime::from_secs(9.0), "retry penalty missing");
        assert_eq!(fs.retry_plan().unwrap().retries(), 1);
    }

    /// Every attempt fails, so the write gives up, and its panic names
    /// the operation that failed.
    #[test]
    #[should_panic(expected = "write of 'f' failed permanently after 2 retries")]
    fn a_permanently_failing_write_is_reported_as_a_write() {
        let fs = test_fs(1).with_retries(RetryPlan::every(1, SimTime::from_secs(1.0), 2));
        let f = mem_file(&fs, 100, 64, 1);
        fs.write_at(&f, 0, &[7u8; 10], SimTime::ZERO);
    }

    #[test]
    #[should_panic]
    fn read_past_eof_panics() {
        let fs = test_fs(1);
        let f = mem_file(&fs, 100, 64, 1);
        let _ = fs.read_at(&f, 90, 20, SimTime::ZERO);
    }

    #[test]
    fn zero_length_read_is_free() {
        let fs = test_fs(1);
        let f = mem_file(&fs, 100, 64, 1);
        let (d, t) = fs.read_at(&f, 50, 0, SimTime::from_secs(3.0));
        assert!(d.is_empty());
        assert_eq!(t.secs(), 3.0);
    }

    #[test]
    fn read_multi_single_range_matches_read_at() {
        let fs_a = test_fs(4);
        let fa = mem_file(&fs_a, 4000, 64, 4);
        let fs_b = test_fs(4);
        let fb = mem_file(&fs_b, 4000, 64, 4);
        let (want, t_at) = fs_a.read_at(&fa, 128, 1000, SimTime::ZERO);
        let mut buf = Vec::new();
        let t_multi = fs_b.read_multi(&fb, 128, &[(128, 1000)], SimTime::ZERO, &mut buf);
        assert_eq!(buf, want);
        assert_eq!(t_multi, t_at, "single-range timing must be identical");
        assert_eq!(fs_a.stats().extents_served, fs_b.stats().extents_served);
    }

    #[test]
    fn read_multi_scatters_into_covering_buffer() {
        let fs = test_fs(2);
        let f = mem_file(&fs, 1000, 32, 2);
        let mut buf = Vec::new();
        fs.read_multi(&f, 100, &[(110, 20), (200, 10)], SimTime::ZERO, &mut buf);
        assert_eq!(buf.len(), 110); // covers [100, 210)
        let want: Vec<u8> = (110..130).map(|i| (i % 251) as u8).collect();
        assert_eq!(&buf[10..30], &want[..]);
        let want2: Vec<u8> = (200..210).map(|i| (i % 251) as u8).collect();
        assert_eq!(&buf[100..110], &want2[..]);
        assert!(buf[0..10].iter().all(|&b| b == 0), "gap bytes stay zero");
    }

    #[test]
    fn read_multi_merges_object_contiguous_ranges() {
        // Stripe 32 over 2 OSTs: file ranges [0,32) and [64,32) are the
        // first two stripes of OST 0 — object-contiguous, so the batch
        // charges ONE seek, while separate reads charge two.
        let fs_a = test_fs(2);
        let fa = mem_file(&fs_a, 1000, 32, 2);
        let mut buf = Vec::new();
        let t_multi = fs_a.read_multi(&fa, 0, &[(0, 32), (64, 32)], SimTime::ZERO, &mut buf);
        assert_eq!(fs_a.stats().extents_served, 1);

        let fs_b = test_fs(2);
        let fb = mem_file(&fs_b, 1000, 32, 2);
        let t1 = fs_b.read_at(&fb, 0, 32, SimTime::ZERO).1;
        let (_, t2) = fs_b.read_at(&fb, 64, 32, t1);
        assert_eq!(fs_b.stats().extents_served, 2);
        assert!(
            t_multi < t2,
            "coalesced batch {t_multi} should beat sequential reads {t2}"
        );
    }

    #[test]
    fn write_multi_roundtrips_and_coalesces() {
        let fs = test_fs(2);
        let f = fs.create(
            "w",
            StripeLayout::round_robin(8, 2, 0, 2),
            Box::new(MemBackend::zeroed(64)),
        );
        let data: Vec<u8> = (0..32).map(|i| i as u8 + 1).collect();
        fs.write_multi(&f, 4, &data, &[(4, 6), (20, 4)], SimTime::ZERO);
        let (got, _) = fs.read_at(&f, 0, 32, SimTime::ZERO);
        assert_eq!(&got[4..10], &data[0..6]);
        assert_eq!(&got[20..24], &data[16..20]);
        assert!(got[10..20].iter().all(|&b| b == 0));
        assert_eq!(fs.stats().writes, 1);
        assert_eq!(fs.stats().bytes_written, 10);
    }

    #[test]
    fn ost_balance_snapshot_matches_imbalance() {
        let fs = test_fs(2);
        assert_eq!(fs.ost_imbalance(), 1.0, "an idle pool reads balanced");
        let f = mem_file(&fs, 1000, 1000, 1); // all traffic on OST 0
        fs.read_at(&f, 0, 500, SimTime::ZERO);
        let snap = fs.ost_snapshot(SimTime::ZERO);
        assert_eq!(snap.len(), 2);
        let busiest = snap[0].busy_secs;
        assert!(busiest > 0.0 && snap[1].busy_secs == 0.0);
        assert_eq!(fs.ost_busy_secs(), busiest);
        let mean = busiest / 2.0;
        assert!((fs.ost_imbalance() - busiest / mean).abs() < 1e-12);
        assert!(
            (fs.ost_imbalance() - 2.0).abs() < 1e-12,
            "one of two OSTs busy"
        );
        // A second read on OST 0 and one on OST 1: busiest 2 s over a
        // mean of 1.5 s.
        fs.read_at(&f, 0, 500, SimTime::ZERO);
        let g = fs.create(
            "g",
            StripeLayout::round_robin(1000, 1, 1, 2),
            Box::new(MemBackend::zeroed(1000)),
        );
        fs.read_at(&g, 0, 500, SimTime::ZERO);
        assert!((fs.ost_imbalance() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn read_multi_rejects_unsorted_ranges() {
        let fs = test_fs(1);
        let f = mem_file(&fs, 100, 64, 1);
        let mut buf = Vec::new();
        fs.read_multi(&f, 0, &[(50, 10), (10, 10)], SimTime::ZERO, &mut buf);
    }
}
