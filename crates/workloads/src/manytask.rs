//! A many-task analysis population for the request-fusion batch runner.
//!
//! The loosely-coupled regime the paper's Sec. II motivates: thousands of
//! tiny independent analysis tasks, each wanting a few kilobytes of a big
//! shared file. [`ManyTask`] generates a deterministic population with
//! the traits the fusion layer exploits:
//!
//! * **Partial-width regions** — each task reads `task_rows` rows of a
//!   `task_cols`-column window, so its byte request is `task_rows`
//!   *separate* extents; the independent baseline pays one positioning
//!   operation per extent per task.
//! * **Heavy overlap and exact duplicates** — within a wave, rows stride
//!   by one, column windows cycle through `cols / task_cols` slots that
//!   tile the full row width, and every `duplicate_every`-th task repeats
//!   its predecessor exactly. With half-width windows and four-row tasks,
//!   every byte is requested about `task_rows / (cols / task_cols)` times
//!   but read once, and neighbouring tasks cover whole rows between them:
//!   the fused union collapses into a few large contiguous runs — tens of
//!   positioning operations where the independent baseline pays tens of
//!   thousands.
//! * **Arrival waves** — tasks arrive in `waves` bursts spaced
//!   `wave_spacing` apart (incremental staging); with a fuse window
//!   smaller than the spacing, each wave becomes its own bin.
//! * **Stencil shift** — wave `w`'s pattern is wave 0's shifted by
//!   `w * stencil_shift` rows: every bin has the same shape at a new
//!   offset, and compiles its own schedule once.
//! * **Mixed kernel classes** — the first three quarters of each wave
//!   fold a [`SumKernel`] (bounded-error class), the rest a [`MaxKernel`]
//!   (exact class), so each wave splits into one bin per class and both
//!   bins stay densely overlapped.
//!
//! Values are closed-form in the element index, so every task has a
//! brute-force oracle ([`ManyTask::oracle_task`]) even at bench scales.

use std::sync::Arc;

use cc_array::{DType, Shape, Variable};
use cc_core::{MapKernel, MaxKernel, SumKernel};
use cc_model::{DiskModel, SimTime};
use cc_mpiio::Hints;
use cc_pfs::backend::{default_climate_value, ElemKind, SyntheticBackend};
use cc_pfs::{Pfs, StripeLayout};
use cc_service::{BatchPolicy, TaskSpec};

/// Generator for a many-task population over one shared striped file.
#[derive(Debug, Clone)]
pub struct ManyTask {
    /// Total tasks in the population.
    pub tasks: usize,
    /// Arrival waves the tasks split into (near-evenly).
    pub waves: usize,
    /// Ranks the batch runner should use.
    pub nprocs: usize,
    /// Rows of the shared variable.
    pub rows: u64,
    /// Columns of the shared variable.
    pub cols: u64,
    /// Rows per task region.
    pub task_rows: u64,
    /// Columns per task region (partial width: must divide `cols`, so the
    /// cycling windows tile the full row).
    pub task_cols: u64,
    /// Row stride between consecutive tasks of a class (overlap when
    /// smaller than `task_rows`).
    pub row_stride: u64,
    /// Rows wave `w`'s pattern is shifted relative to wave 0.
    pub stencil_shift: u64,
    /// Every `duplicate_every`-th task of a wave repeats its predecessor
    /// exactly (region and kernel). Zero disables duplicates.
    pub duplicate_every: usize,
    /// Gap between wave arrivals.
    pub wave_spacing: SimTime,
    /// Fuse window for the batch policy (smaller than `wave_spacing`, so
    /// waves bin separately).
    pub fuse_window: SimTime,
    /// Stripe size of the shared file.
    pub stripe_size: u64,
    /// Stripes of the shared file.
    pub stripe_count: usize,
    /// OSTs in the file system.
    pub total_osts: usize,
}

impl ManyTask {
    /// Variable name in the shared file.
    pub(crate) const VAR: &'static str = "field";
    /// Name of the shared file.
    pub const FILE: &'static str = "manytask.nc";

    /// A small, fast population for tests: a
    /// 512 x 256 f64 variable over 8 OSTs, 4 x 64 task regions, 16 ranks.
    pub fn quick(tasks: usize) -> Self {
        Self {
            tasks,
            waves: 4,
            nprocs: 16,
            rows: 512,
            cols: 256,
            task_rows: 4,
            task_cols: 128,
            row_stride: 1,
            stencil_shift: 1,
            duplicate_every: 5,
            wave_spacing: SimTime::from_secs(0.25),
            fuse_window: SimTime::from_secs(0.05),
            stripe_size: 64 << 10,
            stripe_count: 4,
            total_osts: 8,
        }
    }

    /// The headline scale: a 4096 x 1024 f64 variable (32 MiB) striped
    /// over 64 OSTs, 4 x 128 task regions, 256 ranks (64 nodes x 4 cores).
    pub fn full(tasks: usize) -> Self {
        Self {
            tasks,
            waves: 4,
            nprocs: 256,
            rows: 4096,
            cols: 1024,
            task_rows: 4,
            task_cols: 512,
            row_stride: 1,
            stencil_shift: 1,
            duplicate_every: 5,
            wave_spacing: SimTime::from_secs(0.25),
            fuse_window: SimTime::from_secs(0.05),
            stripe_size: 1 << 20,
            stripe_count: 16,
            total_osts: 64,
        }
    }

    /// Tasks in every wave but possibly the last.
    pub fn tasks_per_wave(&self) -> usize {
        self.tasks.div_ceil(self.waves.max(1))
    }

    /// The shared variable.
    pub(crate) fn variable(&self) -> Variable {
        Variable::new(
            Self::VAR,
            Shape::new(vec![self.rows, self.cols]),
            DType::F64,
            0,
        )
    }

    /// Builds a fresh file system holding the shared file. Comparative
    /// runs (fused vs independent vs solo) must each build their own:
    /// OST booking state persists inside a [`Pfs`].
    pub fn build_fs(&self, disk: DiskModel) -> Arc<Pfs> {
        assert!(self.stripe_count <= self.total_osts);
        let fs = Pfs::new(self.total_osts, disk);
        fs.create(
            Self::FILE,
            StripeLayout::round_robin(self.stripe_size, self.stripe_count, 0, self.total_osts),
            Box::new(SyntheticBackend::new(
                self.rows * self.cols,
                ElemKind::F64,
                default_climate_value,
            )),
        );
        Arc::new(fs)
    }

    /// The batch policy matching this population (waves bin separately,
    /// bins are unbounded).
    pub fn policy(&self) -> BatchPolicy {
        BatchPolicy {
            nprocs: self.nprocs,
            max_bin_tasks: usize::MAX >> 1,
            fuse_window: self.fuse_window,
            hints: Hints::default(),
        }
    }

    /// Row span a wave's base pattern cycles over — sized so the last
    /// wave's shifted pattern still fits the variable.
    fn span(&self) -> u64 {
        let shifted = (self.waves.max(1) as u64 - 1) * self.stencil_shift;
        let span = self.rows + 1 - self.task_rows - shifted;
        assert!(
            span >= 1,
            "many-task geometry overflows: {} rows cannot hold {}-row tasks \
             shifted {shifted} rows",
            self.rows,
            self.task_rows
        );
        span
    }

    /// Sum-class tasks per wave (the leading three quarters).
    fn sum_count(&self) -> usize {
        self.tasks_per_wave() * 3 / 4
    }

    /// Wave, kernel class (`true` = exact/max), and within-class index of
    /// task `i`, with duplicates resolved to their predecessor.
    fn locate(&self, i: usize) -> (usize, bool, usize) {
        let per = self.tasks_per_wave();
        let (w, j) = (i / per, i % per);
        let (exact, mut k) = if j < self.sum_count() {
            (false, j)
        } else {
            (true, j - self.sum_count())
        };
        if self.duplicate_every > 0 && k > 0 && k % self.duplicate_every == self.duplicate_every - 1
        {
            k -= 1;
        }
        (w, exact, k)
    }

    /// The `(start, count)` region of task `i`. Within a class, task `k`
    /// starts `row_stride` rows below task `k - 1` with the next of the
    /// `cols / task_cols` column windows, so neighbours tile whole rows;
    /// wave `w`'s pattern is wave 0's shifted down `w * stencil_shift`
    /// rows.
    pub(crate) fn region(&self, i: usize) -> (Vec<u64>, Vec<u64>) {
        let (w, _, k) = self.locate(i);
        let windows = (self.cols / self.task_cols).max(1);
        let row = w as u64 * self.stencil_shift + (k as u64 * self.row_stride) % self.span();
        let col = (k as u64 % windows) * self.task_cols;
        debug_assert!(col + self.task_cols <= self.cols);
        (vec![row, col], vec![self.task_rows, self.task_cols])
    }

    /// The kernel of task `i`: the first three quarters of each wave sum
    /// (bounded-error class), the rest take a max (exact class).
    pub(crate) fn kernel(&self, i: usize) -> Arc<dyn MapKernel> {
        let (_, exact, _) = self.locate(i);
        if exact {
            Arc::new(MaxKernel)
        } else {
            Arc::new(SumKernel)
        }
    }

    /// Arrival time of task `i` (its wave's burst instant).
    pub(crate) fn arrival(&self, i: usize) -> SimTime {
        let (w, _, _) = self.locate(i);
        SimTime::from_secs(self.wave_spacing.secs() * w as f64)
    }

    /// The full task population, in submission order.
    pub fn specs(&self) -> Vec<TaskSpec> {
        (0..self.tasks)
            .map(|i| {
                let (start, count) = self.region(i);
                TaskSpec::new(
                    format!("task-{i}"),
                    Self::FILE,
                    self.variable(),
                    start,
                    count,
                    self.kernel(i),
                )
                .arrival(self.arrival(i))
            })
            .collect()
    }

    /// Brute-force oracle for task `i`'s finalized result.
    pub fn oracle_task(&self, i: usize) -> Vec<f64> {
        let (start, count) = self.region(i);
        let (_, exact, _) = self.locate(i);
        let mut sum = 0.0;
        let mut max = f64::NEG_INFINITY;
        for r in start[0]..start[0] + count[0] {
            for c in start[1]..start[1] + count[1] {
                let v = default_climate_value(r * self.cols + c);
                sum += v;
                max = max.max(v);
            }
        }
        if exact {
            vec![max]
        } else {
            vec![sum]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_model::{ClusterModel, Topology};
    use cc_service::TaskBatch;

    fn model(nodes: usize, cores: usize) -> ClusterModel {
        let mut m = ClusterModel::test_tiny(cores);
        m.topology = Topology::new(nodes, cores);
        m
    }

    fn batch(t: &ManyTask) -> TaskBatch {
        let mut b = TaskBatch::new(model(4, 4), t.build_fs(DiskModel::lustre_like()))
            .with_policy(t.policy());
        for spec in t.specs() {
            b.submit(spec).expect("many-task specs admit cleanly");
        }
        b
    }

    #[test]
    fn population_shape() {
        let t = ManyTask::quick(96);
        let specs = t.specs();
        assert_eq!(specs.len(), 96);
        // Waves arrive in bursts, strictly ordered.
        assert_eq!(specs[0].arrival, SimTime::ZERO);
        assert!(specs[95].arrival > specs[0].arrival);
        // Duplicates repeat their predecessor's region exactly.
        assert_eq!(t.region(4), t.region(3));
        assert_eq!(t.kernel(4).name(), t.kernel(3).name());
        // Waves are shifted copies: same within-wave deltas.
        let per = t.tasks_per_wave();
        let (r0, _) = t.region(0);
        let (r1, _) = t.region(per);
        assert_eq!(r1[0] - r0[0], t.stencil_shift);
        assert_eq!(r1[1], r0[1]);
    }

    #[test]
    fn fused_population_matches_oracles_and_solo() {
        let t = ManyTask::quick(96);
        let fused = batch(&t).run_fused();
        let solo = batch(&t).run_solo();
        assert_eq!(fused.tasks.len(), 96);
        for (i, task) in fused.tasks.iter().enumerate() {
            let want = t.oracle_task(i);
            assert_eq!(task.value.len(), want.len(), "task {i} arity");
            for (got, want) in task.value.iter().zip(&want) {
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "task {i}: got {got}, want {want}"
                );
            }
        }
        assert_eq!(fused.checksum(), solo.checksum(), "fused != solo bitwise");
        // One bin per (wave, kernel class).
        assert_eq!(fused.bins.len(), t.waves * 2);
        // Every task rode a fused sweep.
        assert_eq!(fused.plan_cache.fused_tasks, 96);
        // One plan lookup per bin; shifted waves compile their own.
        let plans = fused.plan_cache;
        assert_eq!(
            (plans.lookups(), plans.misses),
            (fused.bins.len() as u64, fused.bins.len() as u64)
        );
    }
}
