//! Synthetic climate datasets (the paper's benchmark workloads).

use std::sync::Arc;

use cc_array::{DType, Dataset, Hyperslab, Shape, Variable};
use cc_pfs::backend::{default_climate_value, ElemKind, SyntheticBackend};
use cc_pfs::{Pfs, StripeLayout};

/// A climate benchmark: one variable, a striped file, and a per-rank
/// hyperslab assignment.
#[derive(Debug, Clone)]
pub struct ClimateWorkload {
    dataset: Dataset,
    nprocs: usize,
    /// Slabs indexed by rank.
    slabs: Vec<Hyperslab>,
    /// Stripe size of the file.
    pub stripe_size: u64,
    /// Stripe count (OSTs used).
    pub stripe_count: usize,
}

impl ClimateWorkload {
    /// The name of the single variable.
    pub(crate) const VAR: &'static str = "temperature";

    /// The file name in the PFS namespace.
    pub const FILE: &'static str = "climate.nc";

    /// The Fig. 1 workload, scaled: the paper's 4-D dataset is
    /// 1024 x 1024 x 100 x 1024 (fast -> slowest) f32 on 40 OSTs with 4 MB
    /// stripes; the subset is 100 x 100 x 10 x 720 with
    /// 100 x 100 x 10 x 10 per process over 72 processes. `shrink` divides
    /// the two fast dimensions (1 = paper scale; the virtual file stays
    /// paper-sized regardless because the backend is synthetic).
    ///
    /// # Panics
    /// Panics if `shrink` does not divide 100 or `nprocs` does not divide
    /// the slowest subset extent (720 at paper scale).
    pub fn fig1(nprocs: usize, shrink: u64) -> Self {
        assert!(shrink >= 1 && 100 % shrink == 0, "shrink must divide 100");
        // Shape slowest-first: [1024, 100, 1024, 1024].
        let shape = Shape::new(vec![1024, 100, 1024, 1024]);
        let mut dataset = Dataset::new();
        dataset.add_var(Self::VAR, shape, DType::F32);
        // Subset slowest-first: [720, 10, 100, 100], shrunk on fast dims.
        let sub = [720u64, 10, 100 / shrink, 100 / shrink];
        assert!(
            sub[0].is_multiple_of(nprocs as u64),
            "{nprocs} ranks must divide the slowest subset extent {}",
            sub[0]
        );
        let per = sub[0] / nprocs as u64;
        let slabs = (0..nprocs as u64)
            .map(|r| Hyperslab::new(vec![r * per, 0, 0, 0], vec![per, sub[1], sub[2], sub[3]]))
            .collect();
        Self {
            dataset,
            nprocs,
            slabs,
            stripe_size: 4 << 20,
            stripe_count: 40,
        }
    }

    /// A 3-D workload (the paper's Figs. 9-11 benchmark): shape
    /// `[nprocs * rows, lat, lon]` f64; rank `r` reads the sub-box
    /// `[r*rows .. (r+1)*rows) x [0..sub_lat) x [0..sub_lon)`. When
    /// `sub_lat < lat` the per-rank request is non-contiguous, the access
    /// pattern collective I/O exists for.
    #[allow(clippy::too_many_arguments)]
    pub fn synthetic_3d(
        nprocs: usize,
        rows: u64,
        lat: u64,
        lon: u64,
        sub_lat: u64,
        sub_lon: u64,
        stripe_size: u64,
        stripe_count: usize,
    ) -> Self {
        assert!(sub_lat <= lat && sub_lon <= lon, "sub-box exceeds grid");
        let shape = Shape::new(vec![nprocs as u64 * rows, lat, lon]);
        let mut dataset = Dataset::new();
        dataset.add_var(Self::VAR, shape, DType::F64);
        let slabs = (0..nprocs as u64)
            .map(|r| Hyperslab::new(vec![r * rows, 0, 0], vec![rows, sub_lat, sub_lon]))
            .collect();
        Self {
            dataset,
            nprocs,
            slabs,
            stripe_size,
            stripe_count,
        }
    }

    /// A finely interleaved 3-D workload (the paper's Figs. 9-10
    /// benchmark): shape `[rows, nprocs * lat_per_rank, lon]` f64; rank `r`
    /// reads `[0..rows) x [r*lat_per_rank .. (r+1)*lat_per_rank) x
    /// [0..lon)`. Every rank's data recurs once per row, so every
    /// collective-buffer chunk holds small pieces of (nearly) every rank —
    /// the access pattern whose shuffle cost approaches the read cost
    /// (paper Fig. 1), and the pattern collective I/O exists for.
    pub fn interleaved_3d(
        nprocs: usize,
        rows: u64,
        lat_per_rank: u64,
        lon: u64,
        stripe_size: u64,
        stripe_count: usize,
    ) -> Self {
        let shape = Shape::new(vec![rows, nprocs as u64 * lat_per_rank, lon]);
        let mut dataset = Dataset::new();
        dataset.add_var(Self::VAR, shape, DType::F64);
        let slabs = (0..nprocs as u64)
            .map(|r| Hyperslab::new(vec![0, r * lat_per_rank, 0], vec![rows, lat_per_rank, lon]))
            .collect();
        Self {
            dataset,
            nprocs,
            slabs,
            stripe_size,
            stripe_count,
        }
    }

    /// The variable all ranks access.
    pub fn var(&self) -> &Variable {
        self.dataset.var(Self::VAR).expect("variable exists")
    }

    /// Number of ranks the slab assignment was built for.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Rank `r`'s selection.
    pub fn slab(&self, rank: usize) -> &Hyperslab {
        &self.slabs[rank]
    }

    /// Total bytes all ranks request.
    pub fn requested_bytes(&self) -> u64 {
        let esize = self.var().dtype().size();
        self.slabs.iter().map(|s| s.num_elements() * esize).sum()
    }

    /// The deterministic element value (for oracles).
    pub(crate) fn value(&self, elem: u64) -> f64 {
        match self.var().dtype() {
            DType::F32 => default_climate_value(elem) as f32 as f64,
            DType::F64 => default_climate_value(elem),
        }
    }

    /// Sums `value` over rank `r`'s selection by brute force — test oracle,
    /// only sensible at test scales.
    pub fn oracle_sum(&self, rank: usize) -> f64 {
        let shape = self.var().shape();
        self.slab(rank)
            .runs(shape)
            .flat_map(|(start, len)| start..start + len)
            .map(|i| self.value(i))
            .sum()
    }

    /// Creates the file system and the climate file on it.
    pub fn build_fs(&self, total_osts: usize, disk: cc_model::DiskModel) -> Arc<Pfs> {
        assert!(self.stripe_count <= total_osts);
        let fs = Pfs::new(total_osts, disk);
        let kind = match self.var().dtype() {
            DType::F32 => ElemKind::F32,
            DType::F64 => ElemKind::F64,
        };
        fs.create(
            Self::FILE,
            StripeLayout::round_robin(self.stripe_size, self.stripe_count, 0, total_osts),
            Box::new(SyntheticBackend::new(
                self.dataset.total_bytes() / self.var().dtype().size(),
                kind,
                default_climate_value,
            )),
        );
        Arc::new(fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matches_paper_dimensions() {
        let w = ClimateWorkload::fig1(72, 1);
        assert_eq!(w.var().shape().dims(), &[1024, 100, 1024, 1024]);
        assert_eq!(w.var().dtype(), DType::F32);
        // 429 TB virtual file.
        assert_eq!(w.var().size_bytes(), 1024 * 100 * 1024 * 1024 * 4);
        // Each process: 10 x 10 x 100 x 100 elements (slowest-first).
        assert_eq!(w.slab(0).count(), &[10, 10, 100, 100]);
        assert_eq!(w.slab(71).start(), &[710, 0, 0, 0]);
        assert_eq!(w.stripe_count, 40);
        assert_eq!(w.stripe_size, 4 << 20);
    }

    #[test]
    fn fig1_shrink_scales_fast_dims() {
        let w = ClimateWorkload::fig1(8, 10);
        assert_eq!(w.slab(0).count(), &[90, 10, 10, 10]);
        assert_eq!(w.nprocs(), 8);
    }

    #[test]
    fn synthetic_3d_is_noncontiguous_when_subsetting() {
        let w = ClimateWorkload::synthetic_3d(4, 2, 8, 16, 4, 8, 256, 2);
        let runs: Vec<_> = w.slab(1).runs(w.var().shape()).collect();
        // 2 rows x 4 sub-lat rows, each a 8-element run along lon.
        assert_eq!(runs.len(), 2 * 4);
        assert!(runs.iter().all(|r| r.1 == 8));
    }

    #[test]
    fn interleaved_3d_interleaves_every_rank() {
        let w = ClimateWorkload::interleaved_3d(4, 3, 2, 8, 64, 2);
        // Shape [3, 8, 8]; rank 1 reads lat rows 2..4 of every row.
        assert_eq!(w.var().shape().dims(), &[3, 8, 8]);
        let runs: Vec<_> = w.slab(1).runs(w.var().shape()).collect();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0], (2 * 8, 16));
        assert_eq!(runs[1], (64 + 16, 16));
        // All four ranks together tile the file exactly.
        let total: u64 = (0..4).map(|r| w.slab(r).num_elements()).sum();
        assert_eq!(total, w.var().shape().num_elements());
    }

    #[test]
    fn requested_bytes_counts_all_ranks() {
        let w = ClimateWorkload::synthetic_3d(4, 2, 8, 16, 4, 8, 256, 2);
        assert_eq!(w.requested_bytes(), 4 * (2 * 4 * 8) * 8);
    }

    #[test]
    fn build_fs_serves_oracle_values() {
        let w = ClimateWorkload::synthetic_3d(2, 1, 4, 8, 4, 8, 64, 2);
        let fs = w.build_fs(2, cc_model::DiskModel::lustre_like());
        let file = fs.open(ClimateWorkload::FILE).expect("created");
        let (bytes, _) = fs.read_at(&file, 0, 32, cc_model::SimTime::ZERO);
        let v0 = f64::from_le_bytes(bytes[0..8].try_into().unwrap());
        assert_eq!(v0, w.value(0));
    }

    #[test]
    fn oracle_sum_covers_selection() {
        let w = ClimateWorkload::synthetic_3d(2, 1, 2, 4, 1, 2, 64, 1);
        // Rank 0 selects row 0, lat 0, lon 0..2 => elements 0 and 1.
        assert_eq!(w.oracle_sum(0), w.value(0) + w.value(1));
    }

    #[test]
    #[should_panic]
    fn fig1_rejects_nondividing_nprocs() {
        let _ = ClimateWorkload::fig1(7, 1);
    }
}
