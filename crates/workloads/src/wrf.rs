//! A WRF-style hurricane simulation output.
//!
//! The paper's application evaluation (Fig. 13) extracts two analysis tasks
//! from a hurricane simulation: *Min Sea-Level Pressure (hPa)* and *Max
//! 10 m wind speed (knots)*. This module generates the corresponding
//! fields on a WRF-like `(time, south_north, west_east)` grid with closed
//! forms chosen so the answers are known:
//!
//! - the storm center moves diagonally with time and deepens linearly, so
//!   the global SLP minimum is at the storm center of the *last* time step;
//! - the 10 m wind peaks on the eyewall ring around the center, strongest
//!   at the last time step.

use std::sync::Arc;

use cc_array::{DType, Dataset, Hyperslab, Shape, Variable};
use cc_pfs::backend::{ElemKind, SyntheticBackend};
use cc_pfs::{Pfs, StripeLayout};

/// Squared distance from the storm center beyond which the SLP depression
/// is below half an ulp of the 1010 hPa ambient for every depth (at most
/// 75 hPa): `75 * exp(-2000 / 50)` is about `3e-16`, half an ulp of 1010
/// is about `5.7e-14`. There the full formula rounds to exactly 1010.0.
const SLP_AMBIENT_D2: f64 = 2000.0;

/// Squared distance from the storm center beyond which the eyewall term is
/// below half an ulp of the 15 kt calm for every depth: at `d2 = 512`,
/// `90 * exp(-(sqrt(512) - 4)^2 / 8)` is about `1e-17`, half an ulp of 15
/// is about `8.9e-16`. With glibc's `exp` the term rounds away for every
/// depth from `d2 = 471`; 512 leaves a margin. There the full formula
/// rounds to exactly 15.0.
const WIND_CALM_D2: f64 = 512.0;

/// The WRF grid: `times x south_north x west_east`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrfGrid {
    /// Output time steps.
    pub times: u64,
    /// South-north grid points.
    pub sn: u64,
    /// West-east grid points.
    pub we: u64,
}

impl WrfGrid {
    /// Elements per variable.
    pub fn elements(&self) -> u64 {
        self.times * self.sn * self.we
    }

    /// Storm-center coordinates at time `t`: enters at (sn/4, we/4) and
    /// drifts one cell per step diagonally, clamped inside the grid.
    pub fn center(&self, t: u64) -> (u64, u64) {
        (
            (self.sn / 4 + t).min(self.sn - 1),
            (self.we / 4 + t).min(self.we - 1),
        )
    }

    /// Decomposes a flat element index into `(t, y, x)`, row first: the
    /// grid row `t * sn + y` and its column, then the row's time step.
    pub fn coords(&self, i: u64) -> (u64, u64, u64) {
        let row = i / self.we;
        let t = row / self.sn;
        (t, row - t * self.sn, i - row * self.we)
    }

    /// Storm depth (hPa below ambient) at time `t`: deepens by 1 hPa per
    /// step from 40, saturating at 75 (a category-5-like 935 hPa center).
    pub(crate) fn depth(&self, t: u64) -> f64 {
        40.0 + (t as f64).min(35.0)
    }

    /// The row stage of [`near`](Self::near): grid row `row`'s time step,
    /// south-north offset from the storm center and the center's column,
    /// or `None` when the row alone is at least `sqrt(far_d2)` from the
    /// center, so every element of it is too.
    fn near_row(&self, row: u64, far_d2: f64) -> Option<(u64, f64, u64)> {
        let t = row / self.sn;
        let (cy, cx) = self.center(t);
        let dy = offset(row - t * self.sn, cy);
        (dy * dy < far_d2).then_some((t, dy, cx))
    }

    /// Time step and squared distance from the storm center of flat
    /// element `i`, or `None` when it lies at least `sqrt(far_d2)` away.
    /// The row is ruled out before its column is split off.
    fn near(&self, i: u64, far_d2: f64) -> Option<(u64, f64)> {
        let row = i / self.we;
        let (t, dy, cx) = self.near_row(row, far_d2)?;
        let dx = offset(i - row * self.we, cx);
        let d2 = dy * dy + dx * dx;
        (d2 < far_d2).then_some((t, d2))
    }

    /// Sea-level pressure (hPa) at flat element index `i`: ambient 1010
    /// minus a Gaussian depression around the storm center. Far from the
    /// center the depression rounds away, so the `exp` is skipped there;
    /// the result is bit-identical either way.
    pub fn slp(&self, i: u64) -> f64 {
        self.near(i, SLP_AMBIENT_D2)
            .map_or(1010.0, |(t, d2)| slp_at(self.depth(t), d2))
    }

    /// 10 m wind speed (knots) at flat element index `i`: calm background
    /// plus an eyewall ring of radius 4 cells around the center. Far from
    /// the center the ring rounds away, so the `sqrt` and `exp` are
    /// skipped there; the result is bit-identical either way.
    pub fn wind10(&self, i: u64) -> f64 {
        self.near(i, WIND_CALM_D2)
            .map_or(15.0, |(t, d2)| wind_at(self.depth(t), d2))
    }

    /// The analytically known global SLP minimum: the storm center at the
    /// first time step of maximum depth (ties resolve to the lowest
    /// element index, matching `MinLocKernel`).
    pub fn slp_min(&self) -> (f64, u64) {
        let t = (self.times - 1).min(35);
        let (cy, cx) = self.center(t);
        let idx = (t * self.sn + cy) * self.we + cx;
        (1010.0 - self.depth(t), idx)
    }
}

/// Grid coordinate `a`'s offset from `c` as an `f64`: exact below 2^53,
/// so equal to `a as f64 - c as f64`, with one conversion.
fn offset(a: u64, c: u64) -> f64 {
    (a as i64 - c as i64) as f64
}

/// Sea level pressure at storm depth `depth` and squared distance `d2` from
/// the storm center.
fn slp_at(depth: f64, d2: f64) -> f64 {
    1010.0 - depth * (-d2 / 50.0).exp()
}

/// 10 m wind speed at storm depth `depth` and squared distance `d2` from
/// the storm center.
fn wind_at(depth: f64, d2: f64) -> f64 {
    let ring = d2.sqrt() - 4.0;
    15.0 + (1.2 * depth) * (-(ring * ring) / 8.0).exp()
}

/// The WRF workload: a dataset with `slp` and `wind10` variables and a
/// per-rank decomposition over time steps.
#[derive(Debug, Clone)]
pub struct WrfWorkload {
    /// The grid.
    pub(crate) grid: WrfGrid,
    dataset: Dataset,
    nprocs: usize,
    /// Stripe size of the output file.
    pub stripe_size: u64,
    /// Stripe count.
    pub stripe_count: usize,
}

impl WrfWorkload {
    /// File name in the PFS namespace.
    pub const FILE: &'static str = "wrfout.nc";

    /// Builds the workload. Rank decompositions are chosen per call site:
    /// `slab` (time blocks, requires `nprocs | times`) or
    /// [`band_slab`](Self::band_slab) (south-north bands, requires
    /// `nprocs | sn`).
    pub fn new(grid: WrfGrid, nprocs: usize, stripe_size: u64, stripe_count: usize) -> Self {
        let shape = Shape::new(vec![grid.times, grid.sn, grid.we]);
        let mut dataset = Dataset::new();
        dataset.add_var("slp", shape.clone(), DType::F64);
        dataset.add_var("wind10", shape, DType::F64);
        Self {
            grid,
            dataset,
            nprocs,
            stripe_size,
            stripe_count,
        }
    }

    /// The sea-level-pressure variable.
    pub fn slp_var(&self) -> &Variable {
        self.dataset.var("slp").expect("slp exists")
    }

    /// The 10 m wind variable.
    pub fn wind_var(&self) -> &Variable {
        self.dataset.var("wind10").expect("wind10 exists")
    }

    /// Rank `r`'s south-north band across *all* time steps — the spatial
    /// decomposition WRF itself uses. Every rank's band recurs once per
    /// time step, so the request is non-contiguous and finely interleaved
    /// with every other rank's (the paper's access pattern for the
    /// application tasks).
    ///
    /// # Panics
    /// Panics unless the rank count divides `sn`.
    pub fn band_slab(&self, rank: usize) -> Hyperslab {
        assert!(
            self.grid.sn.is_multiple_of(self.nprocs as u64),
            "{} ranks must divide sn={}",
            self.nprocs,
            self.grid.sn
        );
        let band = self.grid.sn / self.nprocs as u64;
        Hyperslab::new(
            vec![0, rank as u64 * band, 0],
            vec![self.grid.times, band, self.grid.we],
        )
    }

    /// Creates the file system holding the WRF output. Both variables are
    /// generated by one value function switching on the file offset.
    pub fn build_fs(&self, total_osts: usize, disk: cc_model::DiskModel) -> Arc<Pfs> {
        assert!(self.stripe_count <= total_osts);
        let fs = Pfs::new(total_osts, disk);
        let grid = self.grid;
        let per_var = grid.elements();
        let value = move |i: u64| {
            if i < per_var {
                grid.slp(i)
            } else {
                grid.wind10(i - per_var)
            }
        };
        fs.create(
            Self::FILE,
            StripeLayout::round_robin(self.stripe_size, self.stripe_count, 0, total_osts),
            Box::new(SyntheticBackend::new(per_var * 2, ElemKind::F64, value)),
        );
        Arc::new(fs)
    }

    /// Brute-force oracle: `(max, argmax)` of 10 m wind over the grid.
    pub fn oracle_wind_max(&self) -> (f64, u64) {
        let mut best = (f64::NEG_INFINITY, 0u64);
        for i in 0..self.grid.elements() {
            let v = self.grid.wind10(i);
            if v > best.0 {
                best = (v, i);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WrfWorkload {
        /// Rank `r`'s time-block selection over a variable, optionally
        /// restricted to an inner `(sn, we)` sub-box (making the request
        /// non-contiguous, as in the paper's tasks).
        fn slab(&self, rank: usize, sub_sn: u64, sub_we: u64) -> Hyperslab {
            assert!(sub_sn <= self.grid.sn && sub_we <= self.grid.we);
            assert!(
                self.grid.times.is_multiple_of(self.nprocs as u64),
                "{} ranks must divide {} time steps",
                self.nprocs,
                self.grid.times
            );
            let per = self.grid.times / self.nprocs as u64;
            Hyperslab::new(vec![rank as u64 * per, 0, 0], vec![per, sub_sn, sub_we])
        }

        /// Brute-force oracle: `(min, argmin)` of SLP over the whole grid.
        /// Test-scale only.
        fn oracle_slp_min(&self) -> (f64, u64) {
            let mut best = (f64::INFINITY, 0u64);
            for i in 0..self.grid.elements() {
                let v = self.grid.slp(i);
                if v < best.0 {
                    best = (v, i);
                }
            }
            best
        }
    }

    /// The generator's closed forms as they read before the row-first
    /// rewrite, with no shortcut: the references the fast paths must match
    /// bit for bit.
    impl WrfGrid {
        /// Squared distance from the storm center at time `t`.
        fn d2(&self, t: u64, y: u64, x: u64) -> f64 {
            let (cy, cx) = self.center(t);
            let dy = y as f64 - cy as f64;
            let dx = x as f64 - cx as f64;
            dy * dy + dx * dx
        }

        /// `(t, y, x)` of flat index `i`, split plane first.
        fn coords_plane_first(&self, i: u64) -> (u64, u64, u64) {
            let plane = self.sn * self.we;
            let t = i / plane;
            let r = i - t * plane;
            let y = r / self.we;
            (t, y, r - y * self.we)
        }

        fn slp_reference(&self, i: u64) -> f64 {
            let (t, y, x) = self.coords_plane_first(i);
            1010.0 - self.depth(t) * (-self.d2(t, y, x) / 50.0).exp()
        }

        fn wind10_reference(&self, i: u64) -> f64 {
            let (t, y, x) = self.coords_plane_first(i);
            let ring = self.d2(t, y, x).sqrt() - 4.0;
            15.0 + (1.2 * self.depth(t)) * (-(ring * ring) / 8.0).exp()
        }
    }

    fn grid() -> WrfGrid {
        WrfGrid {
            times: 4,
            sn: 32,
            we: 32,
        }
    }

    /// The grid `wrf_minslp_400g` reads: 400 x 256 x 512, 52,428,800
    /// elements per variable.
    fn benchmark_grid() -> WrfGrid {
        WrfGrid {
            times: 400,
            sn: 256,
            we: 512,
        }
    }

    /// Asserts both fields equal their references, bit for bit, on every
    /// element of `g`.
    fn assert_matches_references(g: WrfGrid) {
        for i in 0..g.elements() {
            assert_eq!(
                g.slp(i).to_bits(),
                g.slp_reference(i).to_bits(),
                "{g:?} slp {i}"
            );
            assert_eq!(
                g.wind10(i).to_bits(),
                g.wind10_reference(i).to_bits(),
                "{g:?} wind10 {i}"
            );
        }
    }

    #[test]
    fn fields_are_bit_identical_to_the_closed_forms_on_small_grids() {
        let grids = [
            grid(),
            // Neither sn nor we a power of two; rows up to 67 cells from
            // the center, so both row shortcuts fire.
            WrfGrid {
                times: 5,
                sn: 90,
                we: 75,
            },
            // The center clamps at the grid's corner from t = 18, and the
            // depth saturates from t = 35.
            WrfGrid {
                times: 40,
                sn: 24,
                we: 20,
            },
            WrfGrid {
                times: 3,
                sn: 1,
                we: 1,
            },
        ];
        for g in grids {
            assert_matches_references(g);
        }
    }

    #[test]
    #[ignore = "52 M elements per field; run in release"]
    fn fields_are_bit_identical_to_the_closed_forms_on_the_benchmark_grid() {
        assert_matches_references(benchmark_grid());
    }

    #[test]
    fn wind_calm_shortcut_is_bit_identical_on_the_benchmark_grid() {
        // As the SLP test below: every depth the grid reaches, and every
        // squared offset |dy| < sn, |dx| < we can produce.
        let g = benchmark_grid();
        let mut depths: Vec<f64> = (0..g.times).map(|t| g.depth(t)).collect();
        depths.dedup();
        assert_eq!(depths.len(), 36);
        let mut checked = 0u64;
        for &depth in &depths {
            for dy in 0..g.sn {
                for dx in 0..g.we {
                    let d2 = (dy * dy + dx * dx) as f64;
                    if d2 >= WIND_CALM_D2 {
                        assert_eq!(
                            wind_at(depth, d2).to_bits(),
                            15.0f64.to_bits(),
                            "depth {depth} d2 {d2}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 36 * 130_000);
        // Inside the cutoff the eyewall still shows: the shortcut is not
        // vacuous.
        assert!(wind_at(75.0, WIND_CALM_D2 - 200.0) > 15.0);
    }

    #[test]
    fn row_shortcut_rules_out_most_benchmark_rows() {
        // 75 % of the benchmark grid's rows lie at least 45 rows from the
        // storm center, and 87 % at least 23 rows; dropping the row stage
        // would make every element pay for its column.
        let g = benchmark_grid();
        let rows = g.times * g.sn;
        let far = |far_d2| {
            (0..rows)
                .filter(|&r| g.near_row(r, far_d2).is_none())
                .count() as f64
        };
        let (slp, wind) = (far(SLP_AMBIENT_D2), far(WIND_CALM_D2));
        assert!(slp >= 0.70 * rows as f64, "slp rows {slp}");
        assert!(wind >= 0.70 * rows as f64, "wind rows {wind}");
    }

    #[test]
    fn slp_minimum_is_at_final_storm_center() {
        let w = WrfWorkload::new(grid(), 2, 1 << 16, 2);
        let (min_v, min_i) = w.oracle_slp_min();
        let (expect_v, expect_i) = grid().slp_min();
        assert_eq!(min_i, expect_i);
        assert!((min_v - expect_v).abs() < 1e-9);
    }

    #[test]
    fn slp_ambient_shortcut_is_bit_identical_on_the_benchmark_grid() {
        // Every (depth, d2) pair a 400 x 256 x 512 grid can produce, and
        // more: all depths the grid reaches, and every |dy| < sn, |dx| < we
        // (each time step's offsets from its center are a subset).
        let g = WrfGrid {
            times: 400,
            sn: 256,
            we: 512,
        };
        let mut depths: Vec<f64> = (0..g.times).map(|t| g.depth(t)).collect();
        depths.dedup();
        assert_eq!(depths.len(), 36);
        let mut checked = 0u64;
        for &depth in &depths {
            for dy in 0..g.sn {
                for dx in 0..g.we {
                    let d2 = (dy * dy + dx * dx) as f64;
                    if d2 >= SLP_AMBIENT_D2 {
                        assert_eq!(
                            slp_at(depth, d2).to_bits(),
                            1010.0f64.to_bits(),
                            "depth {depth} d2 {d2}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 36 * 129_000);
        // The shortcut's boundary is reachable, so it is exercised.
        let near = (0..g.elements() / g.times).any(|i| {
            let (t, y, x) = g.coords(i);
            g.d2(t, y, x) < SLP_AMBIENT_D2 && g.d2(t, y, x) + 100.0 >= SLP_AMBIENT_D2
        });
        assert!(near);
    }

    #[test]
    fn coords_inverts_the_flat_index() {
        let g = WrfGrid {
            times: 3,
            sn: 5,
            we: 7,
        };
        let mut i = 0;
        for t in 0..g.times {
            for y in 0..g.sn {
                for x in 0..g.we {
                    assert_eq!(g.coords(i), (t, y, x));
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn wind_peaks_on_the_eyewall() {
        let g = grid();
        let w = WrfWorkload::new(g, 2, 1 << 16, 2);
        let (max_v, max_i) = w.oracle_wind_max();
        let (t, y, x) = g.coords(max_i);
        assert_eq!(t, g.times - 1, "strongest wind at the last step");
        // The peak sits within a cell of the 4-cell eyewall ring.
        let d = g.d2(t, y, x).sqrt();
        assert!((d - 4.0).abs() < 1.0, "distance {d} not on eyewall");
        assert!(max_v > 60.0, "eyewall wind {max_v} too weak");
    }

    #[test]
    fn center_is_clamped_to_grid() {
        let g = WrfGrid {
            times: 100,
            sn: 16,
            we: 16,
        };
        let (cy, cx) = g.center(99);
        assert_eq!((cy, cx), (15, 15));
    }

    #[test]
    fn variables_do_not_overlap() {
        let w = WrfWorkload::new(grid(), 2, 1 << 16, 2);
        assert_eq!(w.slp_var().end_offset(), w.wind_var().base_offset());
    }

    #[test]
    fn fs_serves_both_variables() {
        let w = WrfWorkload::new(grid(), 2, 4096, 2);
        let fs = w.build_fs(2, cc_model::DiskModel::lustre_like());
        let file = fs.open(WrfWorkload::FILE).expect("created");
        let (b, _) = fs.read_at(
            &file,
            w.slp_var().byte_of_elem(5),
            8,
            cc_model::SimTime::ZERO,
        );
        assert_eq!(
            f64::from_le_bytes(b[..8].try_into().unwrap()),
            grid().slp(5)
        );
        let (b, _) = fs.read_at(
            &file,
            w.wind_var().byte_of_elem(5),
            8,
            cc_model::SimTime::ZERO,
        );
        assert_eq!(
            f64::from_le_bytes(b[..8].try_into().unwrap()),
            grid().wind10(5)
        );
    }

    #[test]
    fn band_slabs_partition_space() {
        let w = WrfWorkload::new(grid(), 4, 4096, 2);
        let total: u64 = (0..4).map(|r| w.band_slab(r).num_elements()).sum();
        assert_eq!(total, grid().elements());
        let s = w.band_slab(2);
        assert_eq!(s.start(), &[0, 16, 0]);
        assert_eq!(s.count(), &[4, 8, 32]);
    }

    #[test]
    fn slabs_partition_time() {
        let w = WrfWorkload::new(grid(), 4, 4096, 2);
        for r in 0..4 {
            let s = w.slab(r, 32, 32);
            assert_eq!(s.start()[0], r as u64);
            assert_eq!(s.count()[0], 1);
        }
    }

    #[test]
    #[should_panic]
    fn nondividing_time_blocks_panic() {
        let w = WrfWorkload::new(grid(), 3, 4096, 2);
        let _ = w.slab(0, 32, 32);
    }
}
