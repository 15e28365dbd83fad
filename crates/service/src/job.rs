//! Job descriptions and results for the multi-job collective service.

use std::fmt;
use std::sync::Arc;

use cc_array::Variable;
use cc_core::{MapKernel, ObjectIo};
use cc_model::SimTime;
use cc_mpiio::{Hints, PlanCacheStats};

/// Quality-of-service class of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QosClass {
    /// Latency-sensitive: stepped ahead of every batch job at iteration
    /// boundaries, so its OST and backbone bookings land first where the
    /// demand windows overlap.
    Interactive,
    /// Throughput-oriented background work, scheduled by weighted fair
    /// queueing over attributed OST busy-time.
    #[default]
    Batch,
}

/// One step of a job's sweep: a global hyperslab the service partitions
/// row-wise (dimension 0) across the job's ranks. Every rank must get at
/// least one row, so `count[0] >= nprocs` is checked at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepSpec {
    /// Per-dimension selection start of the whole step.
    pub start: Vec<u64>,
    /// Per-dimension selection count of the whole step.
    pub count: Vec<u64>,
}

/// A job submitted to the service: which file and variable to sweep, how
/// many ranks to run on, when it arrives, its QoS class and fair-share
/// weight, and the kernel folded over the sweep.
#[derive(Clone)]
pub struct JobSpec {
    /// Display name (also carried into the result).
    pub(crate) name: String,
    /// Name of the file in the service's shared file system.
    pub file: String,
    /// The variable swept.
    pub var: Variable,
    /// Ranks this job runs on; the service carves
    /// `ceil(nprocs / cores_per_node)` whole nodes out of the cluster.
    pub nprocs: usize,
    /// Virtual arrival time; the job never starts earlier.
    pub arrival: SimTime,
    /// QoS class.
    pub class: QosClass,
    /// Weighted-fair-queueing weight (batch jobs; must be positive).
    pub(crate) weight: f64,
    /// Engine hints applied to every step.
    pub hints: Hints,
    /// The kernel applied inside the collective and folded across steps.
    pub(crate) kernel: Arc<dyn MapKernel>,
    /// The sweep, one global hyperslab per step.
    pub steps: Vec<StepSpec>,
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("file", &self.file)
            .field("nprocs", &self.nprocs)
            .field("arrival", &self.arrival)
            .field("class", &self.class)
            .field("weight", &self.weight)
            .field("steps", &self.steps.len())
            .finish_non_exhaustive()
    }
}

impl JobSpec {
    /// A batch job arriving at time zero with weight 1 and default hints;
    /// add steps with [`step`](Self::step).
    pub fn new(
        name: impl Into<String>,
        file: impl Into<String>,
        var: Variable,
        nprocs: usize,
        kernel: Arc<dyn MapKernel>,
    ) -> Self {
        Self {
            name: name.into(),
            file: file.into(),
            var,
            nprocs,
            arrival: SimTime::ZERO,
            class: QosClass::Batch,
            weight: 1.0,
            hints: Hints::default(),
            kernel,
            steps: Vec::new(),
        }
    }

    /// Appends one sweep step.
    pub fn step(mut self, start: Vec<u64>, count: Vec<u64>) -> Self {
        self.steps.push(StepSpec { start, count });
        self
    }

    /// Sets the arrival time.
    pub fn arrival(mut self, at: SimTime) -> Self {
        self.arrival = at;
        self
    }

    /// Sets the QoS class.
    pub fn class(mut self, class: QosClass) -> Self {
        self.class = class;
        self
    }

    /// Sets the fair-share weight.
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// The per-rank selection of `rank` within step `step`: an even
    /// row-partition of dimension 0 (first `rows % nprocs` ranks take one
    /// extra row). Identical in concurrent and solo runs, which is what
    /// makes their results bit-comparable.
    pub fn rank_io(&self, step: &StepSpec, rank: usize, nprocs: usize) -> ObjectIo {
        let rows = step.count[0];
        let n = nprocs as u64;
        let r = rank as u64;
        let base = rows / n;
        let extra = rows % n;
        let mine = base + u64::from(r < extra);
        let before = r * base + r.min(extra);
        let mut start = step.start.clone();
        let mut count = step.count.clone();
        start[0] += before;
        count[0] = mine;
        ObjectIo::new(start, count).hints(self.hints.clone())
    }
}

/// Why a [`JobSpec`] was refused at submission.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// `nprocs` was zero.
    ZeroRanks,
    /// The job had no steps.
    NoSteps,
    /// The job needs more nodes than the cluster has.
    TooLarge {
        /// Whole nodes the job needs.
        needed_nodes: usize,
        /// Nodes in the cluster.
        cluster_nodes: usize,
    },
    /// The named file does not exist in the service's file system.
    UnknownFile(String),
    /// A step has fewer rows than the job has ranks, so the row partition
    /// would leave a rank with an empty (invalid) selection.
    StepTooNarrow {
        /// Index of the offending step.
        step: usize,
        /// Its row count.
        rows: u64,
        /// The job's rank count.
        nprocs: usize,
    },
    /// The fair-share weight was not a positive finite number.
    BadWeight(f64),
    /// The engine hints violate an invariant (see
    /// [`Hints::check`](cc_mpiio::Hints::check)).
    BadHints(String),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::ZeroRanks => write!(f, "job requested zero ranks"),
            AdmissionError::NoSteps => write!(f, "job has no steps"),
            AdmissionError::TooLarge {
                needed_nodes,
                cluster_nodes,
            } => write!(
                f,
                "job needs {needed_nodes} nodes but the cluster has {cluster_nodes}"
            ),
            AdmissionError::UnknownFile(name) => {
                write!(f, "file {name:?} does not exist in the service file system")
            }
            AdmissionError::StepTooNarrow { step, rows, nprocs } => write!(
                f,
                "step {step} has {rows} rows, fewer than the job's {nprocs} ranks"
            ),
            AdmissionError::BadWeight(w) => write!(f, "fair-share weight {w} is not positive"),
            AdmissionError::BadHints(why) => write!(f, "bad hints: {why}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Ticket returned by a successful submission; indexes the job's
/// [`JobResult`] in the service outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobHandle {
    /// The job's id: its position in the outcome's result list.
    pub(crate) id: u64,
}

/// What one job produced and experienced.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's id (submit order).
    pub id: u64,
    /// The spec's display name.
    pub name: String,
    /// QoS class the job ran under.
    pub class: QosClass,
    /// Virtual arrival time (from the spec).
    pub submitted: SimTime,
    /// Virtual time the job was placed and began its first step.
    pub started: SimTime,
    /// Virtual completion time of its last step.
    pub finished: SimTime,
    /// The finalized fold of all steps' globals (at the reduce root).
    pub global: Option<Vec<f64>>,
    /// Each step's own finalized global, in step order.
    pub(crate) per_step: Option<Vec<Vec<f64>>>,
    /// Steps executed.
    pub steps: usize,
    /// Plan-cache counters of the job, one lookup per step; in a
    /// shared-cache run the `cross_job_*` fields say how often this job
    /// rode on schedules other jobs compiled.
    pub plan_cache: PlanCacheStats,
    /// OST busy-seconds attributed to this job (service booked by the
    /// file system while this job's steps executed).
    pub ost_busy_secs: f64,
    /// Inter-node bytes this job pushed over the shared backbone lane
    /// (0 when the service runs without one).
    pub lane_bytes: u64,
}

impl JobResult {
    /// Virtual time from arrival to completion — the job's latency as its
    /// submitter experienced it, queueing included.
    pub fn latency(&self) -> SimTime {
        self.finished.saturating_since(self.submitted)
    }

    /// FNV-1a fingerprint of the job's numeric results (`global` and
    /// `per_step`, bit patterns of every f64). Two runs of the same job —
    /// solo, serial, or against any mix of concurrent neighbours — must
    /// produce identical checksums: scheduling changes timing, never data.
    pub fn checksum(&self) -> u64 {
        let global = self.global.iter().flat_map(|g| crate::sized_words(g));
        let steps = self.per_step.iter().flat_map(|steps| {
            let each = steps.iter().flat_map(|s| crate::sized_words(s));
            std::iter::once(steps.len() as u64).chain(each)
        });
        crate::fnv1a(global.chain(steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_array::{DType, Shape};
    use cc_core::SumKernel;

    impl JobSpec {
        /// Sets the engine hints applied to every step.
        pub(crate) fn hints(mut self, hints: Hints) -> Self {
            self.hints = hints;
            self
        }
    }

    fn spec(nprocs: usize) -> JobSpec {
        let var = Variable::new("v", Shape::new(vec![16, 8]), DType::F64, 0);
        JobSpec::new("j", "f", var, nprocs, Arc::new(SumKernel)).step(vec![0, 0], vec![16, 8])
    }

    #[test]
    fn rank_io_partitions_rows_exactly() {
        let s = spec(3);
        let step = s.steps[0].clone();
        let ios: Vec<ObjectIo> = (0..3).map(|r| s.rank_io(&step, r, 3)).collect();
        // 16 rows over 3 ranks: 6, 5, 5 — contiguous and complete.
        assert_eq!(ios[0].start[0], 0);
        assert_eq!(ios[0].count[0], 6);
        assert_eq!(ios[1].start[0], 6);
        assert_eq!(ios[1].count[0], 5);
        assert_eq!(ios[2].start[0], 11);
        assert_eq!(ios[2].count[0], 5);
        let total: u64 = ios.iter().map(|io| io.count[0]).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn checksum_tracks_results_only() {
        let mk = |finished| JobResult {
            id: 0,
            name: "j".into(),
            class: QosClass::Batch,
            submitted: SimTime::ZERO,
            started: SimTime::ZERO,
            finished,
            global: Some(vec![1.5, -2.0]),
            per_step: Some(vec![vec![1.0], vec![0.5]]),
            steps: 2,
            plan_cache: PlanCacheStats::default(),
            ost_busy_secs: 0.0,
            lane_bytes: 0,
        };
        // Timing differs, data identical: checksums match.
        let a = mk(SimTime::from_secs(1.0));
        let b = mk(SimTime::from_secs(99.0));
        assert_eq!(a.checksum(), b.checksum());
        // Data differs: checksums split.
        let mut c = mk(SimTime::from_secs(1.0));
        c.global = Some(vec![1.5, -2.5]);
        assert_ne!(a.checksum(), c.checksum());
    }
}
