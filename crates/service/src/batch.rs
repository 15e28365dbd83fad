//! Many-task request fusion: admit thousands of tiny analysis tasks and
//! serve them with shared collective sweeps instead of independent I/O.
//!
//! The loosely-coupled many-task regime is the paper's worst case for
//! independent I/O: each task wants a few kilobytes from a big shared
//! file, so running tasks naively issues one positioning operation per
//! task extent and re-reads every overlapped byte once per task. The
//! [`TaskBatch`] runner flips the traffic collective:
//!
//! 1. **Admission** — a [`TaskSpec`] names a file, a variable, a
//!    hyperslab region, a kernel, and an arrival time; [`TaskBatch::submit`]
//!    validates it against the file system and the variable's shape.
//! 2. **Binning** — tasks are grouped by `(file, kernel tolerance class)`
//!    in arrival order; a bin closes when it reaches
//!    [`BatchPolicy::max_bin_tasks`] or when the next compatible task
//!    arrives more than [`BatchPolicy::fuse_window`] after the bin opened
//!    (the incremental-staging arrival pattern: each staged wave becomes
//!    its own bin).
//! 3. **Fusion** — each bin's tasks are ordered by file offset, split
//!    contiguously across the batch ranks, and every rank's task extents
//!    are union-merged into one deduplicated request
//!    ([`cc_mpiio::fuse_extents`]); duplicate and overlapping regions
//!    are read once.
//! 4. **One collective sweep per bin** — the fused per-rank requests go
//!    through [`cc_mpiio::collective_read`] in a world whose
//!    [`PlanScope`] holds the batch's [`SharedPlanCache`], one plan lookup
//!    per bin, so a bin that repeats an earlier bin's requests reuses its
//!    compiled schedule;
//!    [`PlanCacheStats::fused_tasks`] records how many tasks each compile
//!    served. All sweeps of a batch run on one set of
//!    rank threads; between bins the ranks agree on the frontier (the last
//!    bin's end) without a message or a virtual-time charge.
//! 5. **Result scatter** — each task's bytes are projected back out of
//!    its rank's fused buffer and folded through its own kernel
//!    ([`cc_core::fold_task_from_fused`]), bit-identical to a solo
//!    execution of the task, with per-task latency attribution.
//!
//! [`TaskBatch::run_independent`] is the thrash baseline (every task
//! reads its own extents directly), and [`TaskBatch::run_solo`] is the
//! ground truth (each task alone in its own world) the property tests
//! compare checksums against.

use std::fmt;
use std::sync::Arc;

use cc_array::{Hyperslab, SelectionError, Variable};
use cc_core::{fold_task_bytes, fold_task_from_fused, MapKernel, Tolerance};
use cc_model::{ClusterModel, SimTime};
use cc_mpi::World;
use cc_mpiio::{
    collective_read, fuse_extents, independent_read, Compression, FuseStats, Hints, OffsetList,
    PlanCacheStats, PlanScope, SharedPlanCache,
};
use cc_pfs::Pfs;

use crate::service::percentile_time;

/// One tiny analysis task: a region of a variable in a file, a kernel to
/// fold over it, and a virtual arrival time.
#[derive(Clone)]
pub struct TaskSpec {
    /// Display name (carried into diagnostics).
    pub name: String,
    /// Name of the file in the batch's shared file system.
    pub file: String,
    /// The variable the region selects from.
    pub var: Variable,
    /// Per-dimension selection start.
    pub start: Vec<u64>,
    /// Per-dimension selection count.
    pub count: Vec<u64>,
    /// The kernel folded over the region.
    pub kernel: Arc<dyn MapKernel>,
    /// Virtual arrival time; the task is never served earlier.
    pub arrival: SimTime,
}

impl fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskSpec")
            .field("name", &self.name)
            .field("file", &self.file)
            .field("start", &self.start)
            .field("count", &self.count)
            .field("arrival", &self.arrival)
            .finish_non_exhaustive()
    }
}

impl TaskSpec {
    /// A task arriving at time zero; adjust with [`arrival`](Self::arrival).
    pub fn new(
        name: impl Into<String>,
        file: impl Into<String>,
        var: Variable,
        start: Vec<u64>,
        count: Vec<u64>,
        kernel: Arc<dyn MapKernel>,
    ) -> Self {
        Self {
            name: name.into(),
            file: file.into(),
            var,
            start,
            count,
            kernel,
            arrival: SimTime::ZERO,
        }
    }

    /// Sets the arrival time.
    pub fn arrival(mut self, at: SimTime) -> Self {
        self.arrival = at;
        self
    }
}

/// Why a [`TaskSpec`] was refused at submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchAdmissionError {
    /// The named file does not exist in the batch's file system.
    UnknownFile(String),
    /// `start`/`count` dimensionality does not match the variable.
    RankMismatch {
        /// The task's display name.
        task: String,
        /// Dimensions in the selection.
        got: usize,
        /// Dimensions of the variable.
        var_rank: usize,
    },
    /// A selection dimension has zero count.
    EmptySelection {
        /// The task's display name.
        task: String,
    },
    /// The selection runs past the variable's shape.
    OutOfBounds {
        /// The task's display name.
        task: String,
        /// The offending dimension.
        dim: usize,
        /// `start[dim] + count[dim]`, or `u64::MAX` where that overflows.
        end: u64,
        /// The variable's extent in that dimension.
        extent: u64,
    },
}

impl fmt::Display for BatchAdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchAdmissionError::UnknownFile(name) => {
                write!(f, "file {name:?} does not exist in the batch file system")
            }
            BatchAdmissionError::RankMismatch {
                task,
                got,
                var_rank,
            } => write!(
                f,
                "task {task:?}: selection has {got} dims but the variable has {var_rank}"
            ),
            BatchAdmissionError::EmptySelection { task } => {
                write!(f, "task {task:?}: selection is empty")
            }
            BatchAdmissionError::OutOfBounds {
                task,
                dim,
                end,
                extent,
            } => write!(
                f,
                "task {task:?}: dim {dim} selects up to {end} but the variable holds {extent}"
            ),
        }
    }
}

impl std::error::Error for BatchAdmissionError {}

/// Batching knobs of a [`TaskBatch`].
#[derive(Debug, Clone)]
pub struct BatchPolicy {
    /// Ranks every fused sweep (and the independent baseline) runs on.
    pub nprocs: usize,
    /// A bin closes once it holds this many tasks.
    pub max_bin_tasks: usize,
    /// A bin closes when a compatible task arrives more than this after
    /// the bin's first task — the fusion latency bound. Tasks trickling
    /// in faster than the window keep extending the current bin.
    pub fuse_window: SimTime,
    /// Engine hints for the fused sweeps. Error-bounded compression is
    /// clamped to lossless: per-task bit-identity with solo execution is
    /// the batch contract, and a lossy shuffle would break it.
    pub hints: Hints,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            nprocs: 1,
            max_bin_tasks: 1 << 20,
            fuse_window: SimTime::from_secs(1e-3),
            hints: Hints::default(),
        }
    }
}

/// An admitted task: the fields of its spec the sweeps read, plus its
/// flattened byte request and kernel tolerance class (the binning key
/// component). The selection itself is consumed by flattening.
struct AdmittedTask {
    name: String,
    file: String,
    var: Variable,
    kernel: Arc<dyn MapKernel>,
    arrival: SimTime,
    request: OffsetList,
    exact: bool,
}

/// One closed bin: compatible tasks served by one fused collective sweep.
struct Bin {
    file: String,
    exact: bool,
    tasks: Vec<usize>,
    /// When the bin can run: its last member's arrival.
    ready: SimTime,
    /// Its first member's arrival (the fuse-window anchor).
    first_arrival: SimTime,
}

/// What one bin's fused sweep looked like.
#[derive(Debug, Clone)]
pub struct BinReport {
    /// Bin id (dispatch order).
    pub(crate) bin: usize,
    /// Tasks served by this sweep.
    pub tasks: usize,
    /// Virtual time the sweep started (≥ the last member's arrival).
    pub(crate) start: SimTime,
    /// Virtual time the last member's result was scattered.
    pub(crate) end: SimTime,
    /// Extents across the bin's task requests (what independent I/O
    /// would have issued).
    pub task_extents: u64,
    /// Extents in the fused per-rank requests.
    pub fused_extents: u64,
    /// Bytes across the bin's task requests, duplicates counted per task.
    pub task_bytes: u64,
    /// Unique bytes the fused sweep requested.
    pub(crate) fused_bytes: u64,
}

/// What one task produced and experienced.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The spec's display name.
    pub name: String,
    /// The finalized kernel output.
    pub value: Vec<f64>,
    /// Virtual arrival time (from the spec).
    pub submitted: SimTime,
    /// Virtual time the task's result was ready.
    pub finished: SimTime,
    /// The bin that served the task (`None` on the independent and solo
    /// paths, which never bin).
    pub bin: Option<usize>,
}

impl TaskResult {
    /// Virtual time from arrival to result — the task's latency as its
    /// submitter experienced it, batching delay included.
    pub fn latency(&self) -> SimTime {
        self.finished.saturating_since(self.submitted)
    }

    /// FNV-1a fingerprint of the task's numeric result (bit patterns of
    /// every f64). Fused, independent, and solo executions of the same
    /// task must produce identical checksums.
    pub fn checksum(&self) -> u64 {
        crate::fnv1a(crate::sized_words(&self.value))
    }
}

/// What a batch run produced: per-task results, per-bin fusion reports,
/// and the shared-resource accounting the fused-vs-independent headline
/// compares.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Every task's result, in submission order.
    pub tasks: Vec<TaskResult>,
    /// Per-bin fusion reports (empty on the independent and solo paths).
    pub bins: Vec<BinReport>,
    /// Virtual time the last task's result was ready.
    pub makespan: SimTime,
    /// Discontiguous extents the file system served during the run —
    /// each cost one positioning operation on an OST.
    pub extents_served: u64,
    /// Bytes the file system moved during the run.
    pub bytes_read: u64,
    /// OST busy-seconds booked during the run.
    pub ost_busy_secs: f64,
    /// 99th-percentile per-task latency (arrival → result).
    pub latency_p99: SimTime,
    /// Plan-cache counters over the run; [`PlanCacheStats::amortization`]
    /// is the tasks-per-compiled-schedule headline (zero on paths that
    /// never compile a plan).
    pub plan_cache: PlanCacheStats,
}

impl BatchOutcome {
    /// FNV-1a fingerprint over every task's result, in task order — one
    /// number that must agree between fused, independent, and solo runs.
    pub fn checksum(&self) -> u64 {
        crate::fnv1a(self.tasks.iter().map(TaskResult::checksum))
    }

    /// Tasks served per compiled schedule (see
    /// [`PlanCacheStats::amortization`]).
    pub fn tasks_per_schedule(&self) -> f64 {
        self.plan_cache.amortization()
    }
}

/// A many-task batch runner over one shared cluster model and file
/// system: admit tasks, then execute them fused
/// ([`run_fused`](Self::run_fused)), independently
/// ([`run_independent`](Self::run_independent)), or solo
/// ([`run_solo`](Self::run_solo)).
///
/// OST booking state persists inside a [`Pfs`], so comparative runs
/// should each build a fresh file system (the bench and tests do).
pub struct TaskBatch {
    model: ClusterModel,
    pfs: Arc<Pfs>,
    policy: BatchPolicy,
    tasks: Vec<AdmittedTask>,
}

impl TaskBatch {
    /// A batch over `model`'s cluster and the shared file system `pfs`
    /// (files must already be created), with the default policy.
    pub fn new(model: ClusterModel, pfs: Arc<Pfs>) -> Self {
        Self {
            model,
            pfs,
            policy: BatchPolicy::default(),
            tasks: Vec::new(),
        }
    }

    /// Sets the batching policy.
    pub fn with_policy(mut self, policy: BatchPolicy) -> Self {
        assert!(policy.nprocs > 0, "batch policy needs at least one rank");
        assert!(
            policy.max_bin_tasks > 0,
            "batch policy needs room for at least one task per bin"
        );
        self.policy = policy;
        self
    }

    /// Admission control: validates the selection against the variable's
    /// shape and the file system, flattens it to a byte request, and
    /// enqueues the task. Returns the task's id (its index in every
    /// outcome's result list).
    pub fn submit(&mut self, spec: TaskSpec) -> Result<u64, BatchAdmissionError> {
        let TaskSpec {
            name,
            file,
            var,
            start,
            count,
            kernel,
            arrival,
        } = spec;
        if self.pfs.open(&file).is_none() {
            return Err(BatchAdmissionError::UnknownFile(file));
        }
        let dims = var.shape().dims();
        if start.len() != dims.len() || count.len() != dims.len() {
            return Err(BatchAdmissionError::RankMismatch {
                task: name,
                got: start.len().max(count.len()),
                var_rank: dims.len(),
            });
        }
        if count.contains(&0) {
            return Err(BatchAdmissionError::EmptySelection { task: name });
        }
        let request = match var.try_byte_extents(&Hyperslab::new(start, count)) {
            Ok(request) => request,
            Err(SelectionError::OutOfRange {
                dim, end, extent, ..
            }) => {
                return Err(BatchAdmissionError::OutOfBounds {
                    task: name,
                    dim,
                    end,
                    extent,
                })
            }
            Err(SelectionError::RankMismatch { selection, shape }) => {
                return Err(BatchAdmissionError::RankMismatch {
                    task: name,
                    got: selection,
                    var_rank: shape,
                })
            }
        };
        let exact = kernel.tolerance() == Tolerance::Exact;
        let id = self.tasks.len() as u64;
        self.tasks.push(AdmittedTask {
            name,
            file,
            var,
            kernel,
            arrival,
            request,
            exact,
        });
        Ok(id)
    }

    /// Runs every admitted task through fused collective sweeps: one
    /// two-phase collective per bin over the deduplicated union of the
    /// bin's task extents, results scattered back per task.
    ///
    /// Every sweep runs on one set of rank threads (one `World::run`).
    /// Between sweeps the ranks agree on the bin's end with
    /// [`Comm::agree_max`](cc_mpi::Comm::agree_max), which charges no
    /// virtual time, and the next bin starts at that frontier or at its
    /// own readiness, whichever is later.
    pub fn run_fused(self) -> BatchOutcome {
        let TaskBatch {
            model,
            pfs,
            policy,
            mut tasks,
        } = self;
        assert!(
            policy.nprocs <= model.topology.capacity(),
            "batch needs {} ranks but the cluster holds {}",
            policy.nprocs,
            model.topology.capacity()
        );
        let bins = plan_bins(&tasks, &policy);
        let mut hints = policy.hints.clone();
        if matches!(hints.compression, Compression::ErrorBounded(_)) {
            // Per-task bit-identity with solo execution is the batch
            // contract; lossy framing would break it for every class.
            hints.compression = Compression::Lossless;
        }
        let stats0 = pfs.stats();
        let busy0 = pfs.ost_busy_secs();
        // Bins are not jobs: every bin's lookup is tagged job 0.
        let cache = Arc::new(SharedPlanCache::new());
        let scope = Arc::new(PlanScope::new(Arc::clone(&cache), 0));
        let world = World::new(policy.nprocs, model).attach(scope);
        let per_rank = {
            let (tasks, bins, pfs, cache, hints) = (&tasks, &bins, &*pfs, &cache, &hints);
            let nprocs = policy.nprocs;
            world.run(move |comm| {
                let mut frontier = SimTime::ZERO;
                let mut sweeps = Vec::with_capacity(bins.len());
                for (bin_id, bin) in bins.iter().enumerate() {
                    let start = frontier.max(bin.ready);
                    comm.advance_to(start);
                    let mut sweep = {
                        let chunks = comm.memo(|| fuse_bin(bin, tasks, nprocs));
                        let (mine, fused_req, fuse) = &chunks[comm.rank()];
                        let file = pfs.open(&bin.file).unwrap_or_else(|| {
                            panic!(
                                "rank {} bin {bin_id}: file {:?} disappeared before the fused \
                                 sweep",
                                comm.rank(),
                                bin.file
                            )
                        });
                        let (bytes, _) = collective_read(comm, pfs, &file, fused_req, hints);
                        cache.note_fused_tasks(mine.len() as u64);
                        let cpu = comm.model().cpu.clone();
                        let mut scratch = Vec::new();
                        let mut done = Vec::with_capacity(mine.len());
                        for &t in mine {
                            let task = &tasks[t];
                            comm.advance(cpu.map_time(task.request.total_bytes() as usize));
                            let partial = fold_task_from_fused(
                                t as u64,
                                &task.var,
                                &task.request,
                                fused_req,
                                &bytes,
                                &*task.kernel,
                                &mut scratch,
                            );
                            done.push((t, task.kernel.finalize(&partial), comm.clock()));
                        }
                        Sweep {
                            start,
                            end: start,
                            done,
                            fuse: *fuse,
                        }
                    };
                    // The read buffer and fold scratch are gone; the pooled
                    // buffers go too, so no rank waits at the frontier
                    // holding more than a rank that has exited. The clock
                    // is the later of the read's end and the last fold, so
                    // the agreed maximum is the bin's end.
                    comm.drop_pooled_bufs();
                    sweep.end = comm.agree_max(comm.clock());
                    frontier = sweep.end;
                    sweeps.push(sweep);
                }
                sweeps
            })
        };
        let mut results: Vec<Option<TaskResult>> = (0..tasks.len()).map(|_| None).collect();
        let mut bin_reports: Vec<BinReport> = bins
            .iter()
            .enumerate()
            .map(|(id, bin)| BinReport {
                bin: id,
                tasks: bin.tasks.len(),
                start: SimTime::ZERO,
                end: SimTime::ZERO,
                task_extents: 0,
                fused_extents: 0,
                task_bytes: 0,
                fused_bytes: 0,
            })
            .collect();
        for sweeps in per_rank {
            for (report, sweep) in bin_reports.iter_mut().zip(sweeps) {
                report.start = sweep.start;
                report.end = sweep.end;
                report.task_extents += sweep.fuse.task_extents;
                report.fused_extents += sweep.fuse.fused_extents;
                report.task_bytes += sweep.fuse.task_bytes;
                report.fused_bytes += sweep.fuse.fused_bytes;
                for (t, value, finished) in sweep.done {
                    let task = &mut tasks[t];
                    results[t] = Some(TaskResult {
                        name: std::mem::take(&mut task.name),
                        value,
                        submitted: task.arrival,
                        finished,
                        bin: Some(report.bin),
                    });
                }
            }
        }
        let tasks_out: Vec<TaskResult> = results
            .into_iter()
            .enumerate()
            .map(|(t, r)| {
                r.unwrap_or_else(|| {
                    panic!("task {t}: no bin served it — the binning dropped a task")
                })
            })
            .collect();
        assemble_outcome(tasks_out, bin_reports, &pfs, stats0, busy0, cache.stats())
    }

    /// The thrash baseline: every task reads its own extents directly
    /// (one positioning operation per extent), tasks dealt round-robin
    /// across the batch ranks in arrival order, each served at
    /// `max(rank clock, arrival)`.
    pub fn run_independent(self) -> BatchOutcome {
        let TaskBatch {
            model,
            pfs,
            policy,
            mut tasks,
            ..
        } = self;
        assert!(
            policy.nprocs <= model.topology.capacity(),
            "batch needs {} ranks but the cluster holds {}",
            policy.nprocs,
            model.topology.capacity()
        );
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by(|&a, &b| tasks[a].arrival.cmp(&tasks[b].arrival).then(a.cmp(&b)));
        let stats0 = pfs.stats();
        let busy0 = pfs.ost_busy_secs();
        let world = World::new(policy.nprocs, model.clone());
        let outs = {
            let tasks = &tasks;
            let order = &order;
            let pfs = &*pfs;
            let nprocs = policy.nprocs;
            world.run(move |comm| {
                let cpu = comm.model().cpu.clone();
                let mut scratch = Vec::new();
                let mut done = Vec::new();
                for (i, &t) in order.iter().enumerate() {
                    if i % nprocs != comm.rank() {
                        continue;
                    }
                    let task = &tasks[t];
                    comm.advance_to(comm.clock().max(task.arrival));
                    let file = pfs.open(&task.file).unwrap_or_else(|| {
                        panic!(
                            "rank {} task {t} ({:?}): file {:?} disappeared before \
                             its independent read",
                            comm.rank(),
                            task.name,
                            task.file
                        )
                    });
                    let (bytes, _) = independent_read(comm, pfs, &file, &task.request);
                    comm.advance(cpu.map_time(task.request.total_bytes() as usize));
                    let partial = fold_task_bytes(
                        t as u64,
                        &task.var,
                        &task.request,
                        &bytes,
                        &*task.kernel,
                        &mut scratch,
                    );
                    done.push((t, task.kernel.finalize(&partial), comm.clock()));
                }
                done
            })
        };
        let mut results: Vec<Option<TaskResult>> = (0..tasks.len()).map(|_| None).collect();
        for done in outs {
            for (t, value, finished) in done {
                let task = &mut tasks[t];
                results[t] = Some(TaskResult {
                    name: std::mem::take(&mut task.name),
                    value,
                    submitted: task.arrival,
                    finished,
                    bin: None,
                });
            }
        }
        let tasks_out: Vec<TaskResult> = results
            .into_iter()
            .enumerate()
            .map(|(t, r)| {
                r.unwrap_or_else(|| {
                    panic!("task {t}: no rank served it — the round-robin deal dropped a task")
                })
            })
            .collect();
        assemble_outcome(
            tasks_out,
            Vec::new(),
            &pfs,
            stats0,
            busy0,
            PlanCacheStats::default(),
        )
    }

    /// Ground truth: each task alone in a fresh single-rank world at its
    /// arrival time — the execution every fused and independent result
    /// must match bit for bit.
    pub fn run_solo(self) -> BatchOutcome {
        let TaskBatch {
            model, pfs, tasks, ..
        } = self;
        let stats0 = pfs.stats();
        let busy0 = pfs.ost_busy_secs();
        let mut tasks_out = Vec::with_capacity(tasks.len());
        for (t, task) in tasks.into_iter().enumerate() {
            let world = World::new(1, model.clone());
            let (pfs_ref, solo) = (&*pfs, &task);
            let mut outs = world.run(move |comm| {
                comm.advance_to(solo.arrival);
                let file = pfs_ref.open(&solo.file).unwrap_or_else(|| {
                    panic!(
                        "solo task {t} ({:?}): file {:?} disappeared",
                        solo.name, solo.file
                    )
                });
                let (bytes, _) = independent_read(comm, pfs_ref, &file, &solo.request);
                let cpu = comm.model().cpu.clone();
                comm.advance(cpu.map_time(solo.request.total_bytes() as usize));
                let mut scratch = Vec::new();
                let partial = fold_task_bytes(
                    t as u64,
                    &solo.var,
                    &solo.request,
                    &bytes,
                    &*solo.kernel,
                    &mut scratch,
                );
                (solo.kernel.finalize(&partial), comm.clock())
            });
            let (value, finished) = outs.pop().unwrap_or_else(|| {
                panic!("solo task {t} ({:?}): world returned no result", task.name)
            });
            tasks_out.push(TaskResult {
                name: task.name,
                value,
                submitted: task.arrival,
                finished,
                bin: None,
            });
        }
        assemble_outcome(
            tasks_out,
            Vec::new(),
            &pfs,
            stats0,
            busy0,
            PlanCacheStats::default(),
        )
    }
}

/// Groups admitted tasks into bins by `(file, tolerance class)` in
/// arrival order, closing a bin at capacity or when the next compatible
/// task arrives outside the fuse window; closed bins are dispatched in
/// ready order (a bin is ready when its last member has arrived).
fn plan_bins(tasks: &[AdmittedTask], policy: &BatchPolicy) -> Vec<Bin> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| tasks[a].arrival.cmp(&tasks[b].arrival).then(a.cmp(&b)));
    let mut open: Vec<Bin> = Vec::new();
    let mut closed: Vec<Bin> = Vec::new();
    for t in order {
        let task = &tasks[t];
        let arrival = task.arrival;
        let key = (task.file.as_str(), task.exact);
        if let Some(pos) = open.iter().position(|b| (b.file.as_str(), b.exact) == key) {
            let full = open[pos].tasks.len() >= policy.max_bin_tasks;
            let late = arrival.secs() > open[pos].first_arrival.secs() + policy.fuse_window.secs();
            if !(full || late) {
                let bin = &mut open[pos];
                bin.tasks.push(t);
                bin.ready = bin.ready.max(arrival);
                continue;
            }
            closed.push(open.remove(pos));
        }
        open.push(Bin {
            file: task.file.clone(),
            exact: task.exact,
            tasks: vec![t],
            ready: arrival,
            first_arrival: arrival,
        });
    }
    closed.append(&mut open);
    closed.sort_by(|a, b| {
        a.ready
            .cmp(&b.ready)
            .then(a.first_arrival.cmp(&b.first_arrival))
            .then(a.tasks[0].cmp(&b.tasks[0]))
    });
    closed
}

/// One rank's share of one bin's fused sweep.
struct Sweep {
    /// When the bin started; the same on every rank.
    start: SimTime,
    /// The bin's agreed end; the same on every rank.
    end: SimTime,
    /// `(task, finalized value, finish time)` for each of the rank's tasks.
    done: Vec<(usize, Vec<f64>, SimTime)>,
    /// What fusing the rank's task requests saved.
    fuse: FuseStats,
}

/// Deals a bin across `nprocs` ranks and fuses each rank's task requests:
/// per rank, its tasks, their fused request and what fusion saved. Tasks
/// are ordered by file offset and dealt in contiguous chunks, so
/// neighbouring regions land on the same rank, within-rank fusion captures
/// the overlap, and the aggregators see long runs.
fn fuse_bin(
    bin: &Bin,
    tasks: &[AdmittedTask],
    nprocs: usize,
) -> Vec<(Vec<usize>, OffsetList, FuseStats)> {
    let mut order = bin.tasks.clone();
    order.sort_by_key(|&t| (tasks[t].request.min_offset().unwrap_or(0), t));
    even_chunks(&order, nprocs)
        .into_iter()
        .map(|mine| {
            let (fused, stats) = fuse_extents(mine.iter().map(|&t| &tasks[t].request));
            (mine, fused, stats)
        })
        .collect()
}

/// Splits an ordered task list into `n` contiguous near-even chunks (the
/// first `len % n` chunks take one extra task); trailing chunks may be
/// empty when the bin holds fewer tasks than ranks.
fn even_chunks(order: &[usize], n: usize) -> Vec<Vec<usize>> {
    let base = order.len() / n;
    let extra = order.len() % n;
    let mut out = Vec::with_capacity(n);
    let mut at = 0;
    for r in 0..n {
        let mine = base + usize::from(r < extra);
        out.push(order[at..at + mine].to_vec());
        at += mine;
    }
    out
}

/// Builds the outcome from per-task results (already in id order) and the
/// file system's counter deltas over the run.
fn assemble_outcome(
    tasks: Vec<TaskResult>,
    bins: Vec<BinReport>,
    pfs: &Pfs,
    stats0: cc_pfs::PfsStatsSnapshot,
    busy0: f64,
    plan_cache: PlanCacheStats,
) -> BatchOutcome {
    let stats1 = pfs.stats();
    let busy1 = pfs.ost_busy_secs();
    let makespan = tasks
        .iter()
        .map(|t| t.finished)
        .max()
        .unwrap_or(SimTime::ZERO);
    let latencies: Vec<SimTime> = tasks.iter().map(TaskResult::latency).collect();
    let latency_p99 = percentile_time(latencies, 99.0);
    BatchOutcome {
        tasks,
        bins,
        makespan,
        extents_served: stats1.extents_served - stats0.extents_served,
        bytes_read: stats1.bytes_read - stats0.bytes_read,
        ost_busy_secs: busy1 - busy0,
        latency_p99,
        plan_cache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_array::{DType, Shape};
    use cc_core::{MinLocKernel, SumKernel};
    use cc_model::{DiskModel, Topology};
    use cc_pfs::backend::{ElemKind, SyntheticBackend};
    use cc_pfs::StripeLayout;

    fn value(i: u64) -> f64 {
        ((i.wrapping_mul(31) ^ (i >> 3)) % 1009) as f64 - 500.0
    }

    fn cluster(nodes: usize, cores: usize) -> ClusterModel {
        let mut m = ClusterModel::test_tiny(cores);
        m.topology = Topology::new(nodes, cores);
        m
    }

    const ROWS: u64 = 64;
    const COLS: u64 = 32;

    fn fs() -> Arc<Pfs> {
        let fs = Pfs::new(4, DiskModel::lustre_like());
        fs.create(
            "f.nc",
            StripeLayout::round_robin(1 << 10, 4, 0, 4),
            Box::new(SyntheticBackend::new(ROWS * COLS, ElemKind::F64, value)),
        );
        Arc::new(fs)
    }

    fn var() -> Variable {
        Variable::new("v", Shape::new(vec![ROWS, COLS]), DType::F64, 0)
    }

    /// A mix of overlapping, disjoint, and duplicate partial-row regions.
    fn submit_mix(batch: &mut TaskBatch, n: usize) {
        for i in 0..n {
            let row = (i as u64 * 3) % (ROWS - 4);
            let col = (i as u64 * 5) % (COLS / 2);
            let kernel: Arc<dyn MapKernel> = if i % 3 == 0 {
                Arc::new(MinLocKernel)
            } else {
                Arc::new(SumKernel)
            };
            batch
                .submit(TaskSpec::new(
                    format!("t{i}"),
                    "f.nc",
                    var(),
                    vec![row, col],
                    vec![4, COLS / 2],
                    kernel,
                ))
                .unwrap_or_else(|e| panic!("task {i} refused: {e}"));
        }
    }

    fn batch(nprocs: usize) -> TaskBatch {
        TaskBatch::new(cluster(2, 2), fs()).with_policy(BatchPolicy {
            nprocs,
            ..BatchPolicy::default()
        })
    }

    #[test]
    fn admission_rejects_bad_selections() {
        let mut b = batch(2);
        let ok = TaskSpec::new(
            "ok",
            "f.nc",
            var(),
            vec![0, 0],
            vec![2, 8],
            Arc::new(SumKernel),
        );
        assert_eq!(
            b.submit(TaskSpec {
                file: "nope".into(),
                ..ok.clone()
            }),
            Err(BatchAdmissionError::UnknownFile("nope".into()))
        );
        assert_eq!(
            b.submit(TaskSpec {
                start: vec![0],
                ..ok.clone()
            }),
            Err(BatchAdmissionError::RankMismatch {
                task: "ok".into(),
                got: 2,
                var_rank: 2
            })
        );
        assert_eq!(
            b.submit(TaskSpec {
                count: vec![0, 8],
                ..ok.clone()
            }),
            Err(BatchAdmissionError::EmptySelection { task: "ok".into() })
        );
        assert_eq!(
            b.submit(TaskSpec {
                start: vec![ROWS - 1, 0],
                ..ok.clone()
            }),
            Err(BatchAdmissionError::OutOfBounds {
                task: "ok".into(),
                dim: 0,
                end: ROWS + 1,
                extent: ROWS
            })
        );
        assert_eq!(b.submit(ok), Ok(0));
    }

    #[test]
    fn admission_refuses_bounds_that_overflow() {
        let mut b = batch(2);
        let ok = TaskSpec::new(
            "ok",
            "f.nc",
            var(),
            vec![0, 0],
            vec![2, 8],
            Arc::new(SumKernel),
        );
        for start in [u64::MAX, u64::MAX - 1] {
            assert_eq!(
                b.submit(TaskSpec {
                    start: vec![start, 0],
                    ..ok.clone()
                }),
                Err(BatchAdmissionError::OutOfBounds {
                    task: "ok".into(),
                    dim: 0,
                    end: u64::MAX,
                    extent: ROWS
                })
            );
        }
        assert_eq!(b.submit(ok), Ok(0));
    }

    #[test]
    fn fused_matches_independent_and_solo_bitwise() {
        let mk = |n| {
            let mut b = batch(3);
            submit_mix(&mut b, n);
            b
        };
        let fused = mk(40).run_fused();
        let indep = mk(40).run_independent();
        let solo = mk(40).run_solo();
        assert_eq!(fused.tasks.len(), 40);
        for ((f, i), s) in fused.tasks.iter().zip(&indep.tasks).zip(&solo.tasks) {
            assert_eq!(
                f.checksum(),
                i.checksum(),
                "task {} fused != independent",
                f.name
            );
            assert_eq!(f.checksum(), s.checksum(), "task {} fused != solo", f.name);
            assert!(f.bin.is_some());
            assert!(f.finished >= f.submitted);
        }
        assert_eq!(fused.checksum(), solo.checksum());
        // The mix overlaps heavily: fusion must serve fewer extents.
        assert!(
            fused.extents_served < indep.extents_served,
            "fused {} vs independent {}",
            fused.extents_served,
            indep.extents_served
        );
        // Latencies are populated on both paths.
        for out in [&fused, &indep] {
            let latencies = out.tasks.iter().map(TaskResult::latency).collect();
            assert!(percentile_time(latencies, 50.0) <= out.latency_p99);
        }
        // Every task rode a compiled schedule; the amortization counter
        // says so (2 classes -> 2 bins -> at most 2 compiles for 40 tasks).
        assert_eq!(fused.plan_cache.fused_tasks, 40);
        assert!(fused.tasks_per_schedule() >= 40.0 / 2.0);
        assert_eq!(indep.plan_cache.fused_tasks, 0);
    }

    #[test]
    fn sum_tasks_match_analytic_oracle() {
        let mut b = batch(2);
        b.submit(TaskSpec::new(
            "s",
            "f.nc",
            var(),
            vec![3, 4],
            vec![2, 8],
            Arc::new(SumKernel),
        ))
        .unwrap();
        let out = b.run_fused();
        let mut expect = 0.0;
        for r in 3..5 {
            for c in 4..12 {
                expect += value(r * COLS + c);
            }
        }
        let got = out.tasks[0].value[0];
        assert!(
            (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
            "{got} != {expect}"
        );
    }

    #[test]
    fn fuse_window_splits_arrival_waves_into_bins() {
        let mut b = batch(2);
        for w in 0..3u64 {
            for i in 0..4u64 {
                b.submit(
                    TaskSpec::new(
                        format!("w{w}i{i}"),
                        "f.nc",
                        var(),
                        vec![w * 8 + i, 0],
                        vec![2, 8],
                        Arc::new(SumKernel),
                    )
                    .arrival(SimTime::from_secs(w as f64 * 1.0)),
                )
                .unwrap();
            }
        }
        let out = b.run_fused();
        // Window (1 ms) far smaller than wave spacing (1 s): 3 bins.
        assert_eq!(out.bins.len(), 3);
        assert!(out.bins.iter().all(|b| b.tasks == 4));
        // Bins start no earlier than their wave's arrival.
        for (w, bin) in out.bins.iter().enumerate() {
            assert!(bin.start >= SimTime::from_secs(w as f64 * 1.0));
        }
        // No task is served before it arrives.
        for t in &out.tasks {
            assert!(t.finished >= t.submitted);
        }
    }

    #[test]
    fn max_bin_tasks_caps_bin_size() {
        let mut b = TaskBatch::new(cluster(2, 2), fs()).with_policy(BatchPolicy {
            nprocs: 2,
            max_bin_tasks: 5,
            ..BatchPolicy::default()
        });
        for i in 0..12u64 {
            b.submit(TaskSpec::new(
                format!("t{i}"),
                "f.nc",
                var(),
                vec![i, 0],
                vec![1, 8],
                Arc::new(SumKernel),
            ))
            .unwrap();
        }
        let out = b.run_fused();
        assert_eq!(out.bins.len(), 3);
        assert!(out.bins.iter().all(|b| b.tasks <= 5));
        assert_eq!(out.bins.iter().map(|b| b.tasks).sum::<usize>(), 12);
    }

    /// Three waves on one node, so one aggregator books every OST read
    /// from one thread and every clock is deterministic. Wave 1 arrives
    /// while bin 0 is still sweeping and must start at the frontier; wave
    /// 2 arrives long after bin 1 ends and must start at its own arrival.
    fn frontier_batch() -> TaskBatch {
        let mut b = TaskBatch::new(cluster(1, 4), fs()).with_policy(BatchPolicy {
            nprocs: 4,
            fuse_window: SimTime::from_secs(1e-6),
            ..BatchPolicy::default()
        });
        for (w, at) in [0.0, 2e-6, 10.0].into_iter().enumerate() {
            for i in 0..6u64 {
                b.submit(
                    TaskSpec::new(
                        format!("w{w}i{i}"),
                        "f.nc",
                        var(),
                        vec![w as u64 * 16 + i * 2, (i % 2) * 8],
                        vec![3, 16],
                        Arc::new(SumKernel),
                    )
                    .arrival(SimTime::from_secs(at)),
                )
                .unwrap();
            }
        }
        b
    }

    #[test]
    fn frontier_clocks_match_one_world_per_bin() {
        let out = frontier_batch().run_fused();
        // Recorded from commit 55d9810, which ran each bin in a world of
        // its own and carried the frontier between worlds on the driver.
        let bins: Vec<(f64, f64)> = out
            .bins
            .iter()
            .map(|b| (b.start.secs(), b.end.secs()))
            .collect();
        assert_eq!(
            bins,
            [
                (0.0, 0.002012807111111111),
                (0.002012807111111111, 0.004025614222222222),
                (10.0, 10.00201280711111),
            ]
        );
        let finished: Vec<f64> = out.tasks.iter().map(|t| t.finished.secs()).collect();
        assert_eq!(
            finished,
            [
                0.0020113847111111107,
                0.0020117687111111107,
                0.002011514311111111,
                0.002011898311111111,
                0.002011984711111111,
                0.002012807111111111,
                0.004024191822222222,
                0.004024575822222222,
                0.004024321422222221,
                0.004024705422222221,
                0.0040247918222222215,
                0.004025614222222222,
                10.002011384711109,
                10.002011768711109,
                10.002011514311109,
                10.002011898311109,
                10.002011984711109,
                10.00201280711111,
            ]
        );
    }

    /// An exact-class kernel whose fold panics.
    struct FaultyKernel;

    impl MapKernel for FaultyKernel {
        fn name(&self) -> &'static str {
            "faulty"
        }

        fn identity(&self) -> cc_core::Partial {
            cc_core::Partial::new(vec![0.0])
        }

        fn map(&self, _: &mut cc_core::Partial, _: u64, _: &[f64]) {
            panic!("faulty kernel folded a region");
        }

        fn combine(&self, _: &mut cc_core::Partial, _: &cc_core::Partial) {}

        fn finalize(&self, acc: &cc_core::Partial) -> Vec<f64> {
            acc.values.clone()
        }
    }

    #[test]
    fn kernel_panic_in_a_later_bin_aborts_promptly_naming_its_rank() {
        // Three waves, one exact-class bin each. In bin 2 the faulty task
        // has the higher offset, so the offset-ordered deal gives it to
        // rank 1 while rank 0 finishes and parks at the frontier.
        let mut b = batch(2);
        for w in 0..3u64 {
            for i in 0..2u64 {
                let kernel: Arc<dyn MapKernel> = if w == 2 && i == 1 {
                    Arc::new(FaultyKernel)
                } else {
                    Arc::new(MinLocKernel)
                };
                b.submit(
                    TaskSpec::new(
                        format!("w{w}i{i}"),
                        "f.nc",
                        var(),
                        vec![w * 8 + i * 4, 0],
                        vec![2, 8],
                        kernel,
                    )
                    .arrival(SimTime::from_secs(w as f64)),
                )
                .unwrap();
            }
        }
        let t0 = std::time::Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.run_fused()));
        let elapsed = t0.elapsed();
        let payload = result.expect_err("the faulty kernel must abort the batch");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or("<non-string panic>");
        assert!(
            msg.contains("rank 1 panicked: faulty kernel folded a region"),
            "the abort must name the faulty task's rank, got: {msg}"
        );
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "abort took {elapsed:?}; a rank stayed parked at the frontier"
        );
    }

    #[test]
    fn duplicate_regions_are_read_once() {
        let mut b = batch(1);
        for i in 0..8 {
            b.submit(TaskSpec::new(
                format!("dup{i}"),
                "f.nc",
                var(),
                vec![10, 0],
                vec![2, COLS],
                Arc::new(SumKernel),
            ))
            .unwrap();
        }
        let out = b.run_fused();
        let bin = &out.bins[0];
        assert_eq!(bin.task_bytes, 8 * 2 * COLS * 8);
        assert_eq!(
            bin.fused_bytes,
            2 * COLS * 8,
            "duplicates must dedup to one copy"
        );
        // All 8 identical results.
        let first = out.tasks[0].checksum();
        assert!(out.tasks.iter().all(|t| t.checksum() == first));
    }
}
