//! Mixed multi-job traffic for the collective service.
//!
//! The service bench and tests need a workload that looks like a shared
//! analysis cluster: a population of background *batch sweeps* (full-file
//! timestep scans, all issuing the same hyperslab shapes — the cross-job
//! plan-reuse opportunity) with latency-sensitive *interactive ROI
//! queries* arriving on top of them. [`MixedTraffic`] builds the shared
//! file system (one striped file per batch job, stripe starts rotated so
//! the files do not all hammer OST 0 first) and the [`JobSpec`]s.

use std::sync::Arc;

use cc_array::{DType, Shape, Variable};
use cc_core::SumKernel;
use cc_model::{DiskModel, SimTime};
use cc_pfs::backend::{default_climate_value, ElemKind, SyntheticBackend};
use cc_pfs::{Pfs, StripeLayout};
use cc_service::{JobSpec, QosClass};

/// Generator for a mixed batch + interactive job population over one
/// shared file system.
#[derive(Debug, Clone)]
pub struct MixedTraffic {
    /// Background full-file sweep jobs (class [`QosClass::Batch`]).
    pub batch_jobs: usize,
    /// Small ROI query jobs (class [`QosClass::Interactive`]).
    pub interactive_jobs: usize,
    /// Ranks per batch job.
    pub batch_nprocs: usize,
    /// Ranks per interactive job.
    pub interactive_nprocs: usize,
    /// Steps in each batch sweep.
    pub sweep_steps: u64,
    /// Rows per sweep step (dimension 0 of the variable).
    pub rows_per_step: u64,
    /// Rows in each interactive ROI query (one step).
    pub roi_rows: u64,
    /// Columns (dimension 1); every file's variable is `[rows, cols]` f64.
    pub cols: u64,
    /// Stripe size of every file.
    pub stripe_size: u64,
    /// Stripes per file.
    pub stripe_count: usize,
    /// OSTs in the shared file system.
    pub total_osts: usize,
    /// Gap between consecutive interactive arrivals; the i-th interactive
    /// job arrives at `(i + 1) * spacing` (batch jobs all arrive at zero).
    pub interactive_spacing: SimTime,
}

impl MixedTraffic {
    /// Variable name used in every generated file.
    pub(crate) const VAR: &'static str = "field";

    /// A small, fast population for tests:
    /// `batch_jobs` sweeps of 4 steps x 32 rows x 256 columns (512 KiB
    /// per step) and `interactive_jobs` 8-row ROI queries, over 8 OSTs.
    pub fn quick(batch_jobs: usize, interactive_jobs: usize) -> Self {
        Self {
            batch_jobs,
            interactive_jobs,
            batch_nprocs: 4,
            interactive_nprocs: 2,
            sweep_steps: 4,
            rows_per_step: 32,
            roi_rows: 8,
            cols: 256,
            stripe_size: 64 << 10,
            stripe_count: 4,
            total_osts: 8,
            interactive_spacing: SimTime::from_secs(1e-3),
        }
    }

    /// A heavier population for the full bench: 8-step sweeps of
    /// 128 x 1024 rows (8 MiB per step) over 16 OSTs.
    pub fn full(batch_jobs: usize, interactive_jobs: usize) -> Self {
        Self {
            batch_jobs,
            interactive_jobs,
            batch_nprocs: 8,
            interactive_nprocs: 2,
            sweep_steps: 8,
            rows_per_step: 128,
            roi_rows: 16,
            cols: 1024,
            stripe_size: 1 << 20,
            stripe_count: 8,
            total_osts: 16,
            interactive_spacing: SimTime::from_secs(5e-3),
        }
    }

    /// Rows of every batch file's variable.
    pub fn file_rows(&self) -> u64 {
        self.sweep_steps * self.rows_per_step
    }

    /// Name of batch file `i`.
    pub(crate) fn file_name(i: usize) -> String {
        format!("sweep-{i}.nc")
    }

    /// The variable every job reads (same shape in every file).
    pub fn variable(&self) -> Variable {
        Variable::new(
            Self::VAR,
            Shape::new(vec![self.file_rows(), self.cols]),
            DType::F64,
            0,
        )
    }

    /// Builds the shared file system: one file per batch job, identically
    /// shaped and striped but with the stripe start rotated per file, so
    /// concurrent sweeps spread their first requests over distinct OSTs
    /// while still sharing plan-cache keys (the key holds stripe geometry,
    /// not placement).
    pub fn build_fs(&self, disk: DiskModel) -> Arc<Pfs> {
        assert!(self.stripe_count <= self.total_osts);
        let fs = Pfs::new(self.total_osts, disk);
        let elems = self.file_rows() * self.cols;
        for i in 0..self.batch_jobs.max(1) {
            fs.create(
                &Self::file_name(i),
                StripeLayout::round_robin(
                    self.stripe_size,
                    self.stripe_count,
                    i % self.total_osts,
                    self.total_osts,
                ),
                Box::new(SyntheticBackend::new(
                    elems,
                    ElemKind::F64,
                    default_climate_value,
                )),
            );
        }
        Arc::new(fs)
    }

    /// The job population, batch sweeps first (ids follow submit order).
    /// Every batch job sweeps its own file with identical step shapes;
    /// interactive job `i` queries batch file `i % batch_jobs` with a
    /// small ROI starting at a per-job row offset, arriving at
    /// `(i + 1) * interactive_spacing`.
    pub fn jobs(&self) -> Vec<JobSpec> {
        let var = self.variable();
        let mut jobs = Vec::with_capacity(self.batch_jobs + self.interactive_jobs);
        for i in 0..self.batch_jobs {
            let mut spec = JobSpec::new(
                format!("sweep-{i}"),
                Self::file_name(i),
                var.clone(),
                self.batch_nprocs,
                Arc::new(SumKernel),
            );
            for s in 0..self.sweep_steps {
                spec = spec.step(
                    vec![s * self.rows_per_step, 0],
                    vec![self.rows_per_step, self.cols],
                );
            }
            jobs.push(spec);
        }
        for i in 0..self.interactive_jobs {
            let target = i % self.batch_jobs.max(1);
            // Distinct per-job row offsets keep the queries honest: no
            // two interactive jobs read the same bytes.
            let offset = (i as u64 * self.roi_rows) % (self.file_rows() - self.roi_rows + 1);
            let arrival = SimTime::from_secs(self.interactive_spacing.secs() * (i + 1) as f64);
            jobs.push(
                JobSpec::new(
                    format!("roi-{i}"),
                    Self::file_name(target),
                    var.clone(),
                    self.interactive_nprocs,
                    Arc::new(SumKernel),
                )
                .step(vec![offset, 0], vec![self.roi_rows, self.cols])
                .class(QosClass::Interactive)
                .arrival(arrival),
            );
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_model::{ClusterModel, Topology};
    use cc_service::Service;

    impl MixedTraffic {
        /// Brute-force sum of one batch sweep's whole variable (every batch
        /// file serves the same synthetic values) — test oracle, only
        /// sensible at quick scales.
        fn oracle_sweep_sum(&self) -> f64 {
            (0..self.file_rows() * self.cols)
                .map(default_climate_value)
                .sum()
        }

        /// Brute-force sum of interactive job `i`'s ROI.
        fn oracle_roi_sum(&self, i: usize) -> f64 {
            let offset = (i as u64 * self.roi_rows) % (self.file_rows() - self.roi_rows + 1);
            let lo = offset * self.cols;
            let hi = lo + self.roi_rows * self.cols;
            (lo..hi).map(default_climate_value).sum()
        }
    }

    fn model(nodes: usize, cores: usize) -> ClusterModel {
        let mut m = ClusterModel::test_tiny(cores);
        m.topology = Topology::new(nodes, cores);
        m
    }

    #[test]
    fn population_shapes_and_arrivals() {
        let t = MixedTraffic::quick(3, 2);
        let jobs = t.jobs();
        assert_eq!(jobs.len(), 5);
        assert!(jobs[..3].iter().all(|j| j.class == QosClass::Batch));
        assert!(jobs[3..].iter().all(|j| j.class == QosClass::Interactive));
        // Batch sweeps share step shapes across jobs but not files.
        assert_eq!(jobs[0].steps, jobs[1].steps);
        assert_ne!(jobs[0].file, jobs[1].file);
        // Interactive arrivals are staggered and strictly positive.
        assert!(jobs[3].arrival > SimTime::ZERO);
        assert!(jobs[4].arrival > jobs[3].arrival);
    }

    #[test]
    fn traffic_runs_and_matches_oracles() {
        let t = MixedTraffic::quick(2, 2);
        let fs = t.build_fs(DiskModel::lustre_like());
        let mut svc = Service::new(model(6, 4), fs);
        for spec in t.jobs() {
            svc.submit(spec).expect("traffic specs admit cleanly");
        }
        let out = svc.run();
        let sweep_expect = t.oracle_sweep_sum();
        for j in &out.jobs[..2] {
            let got = j.global.as_ref().expect("root sum")[0];
            assert!(
                (got - sweep_expect).abs() < 1e-9 * sweep_expect.abs().max(1.0),
                "sweep {} got {got}, want {sweep_expect}",
                j.name
            );
        }
        for (i, j) in out.jobs[2..].iter().enumerate() {
            let expect = t.oracle_roi_sum(i);
            let got = j.global.as_ref().expect("root sum")[0];
            assert!(
                (got - expect).abs() < 1e-9 * expect.abs().max(1.0),
                "roi {} got {got}, want {expect}",
                j.name
            );
        }
        // Identical sweep shapes on identically-striped files: the second
        // sweep rides the first one's compiled plans.
        assert!(out.cache.cross_job_hits > 0);
    }
}
