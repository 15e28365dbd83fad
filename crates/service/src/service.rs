//! The multi-job scheduler: admission, placement, fair queueing, and the
//! virtual-time event loop.

use std::sync::Arc;

use cc_core::{iterative_get_vara, object_get_vara_planned, Partial};
use cc_model::{ClusterModel, LaneStats, SharedLane, SimTime, Topology};
use cc_mpi::World;
use cc_mpiio::{PlanCacheStats, PlanSource, SharedPlanCache};
use cc_pfs::{OstSnapshot, Pfs};

use crate::job::{AdmissionError, JobHandle, JobResult, JobSpec, QosClass};

/// How the service picks the next job to step at an iteration boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServicePolicy {
    /// Interactive jobs always step before batch jobs (earliest job clock
    /// first among them); batch jobs are weighted-fair-queued by
    /// attributed OST busy-seconds over their weight. The default.
    #[default]
    QosWfq,
    /// Jobs step in admission order, each to completion, regardless of
    /// class (head-of-line blocking included — the baseline a QoS policy
    /// is judged against).
    Fifo,
    /// Jobs step in rotation, one iteration each.
    RoundRobin,
}

/// One submitted job's live state inside the service.
struct Job {
    id: u64,
    spec: JobSpec,
    /// Cluster nodes held while active (indices into the node pool).
    nodes: Vec<usize>,
    /// Order of admission (for FIFO).
    admit_seq: usize,
    world: Option<World>,
    started: SimTime,
    /// Virtual time the job's last completed step ended (= `started`
    /// before the first step).
    clock: SimTime,
    next_step: usize,
    folded: Option<Partial>,
    per_step: Vec<Vec<f64>>,
    plan_stats: PlanCacheStats,
    ost_busy: f64,
    lane_bytes: u64,
    /// Already-finalized global from the serial runner (the concurrent
    /// path finalizes `folded` instead).
    serial_global: Option<Vec<f64>>,
}

impl Job {
    fn finished(&self) -> bool {
        self.next_step >= self.spec.steps.len()
    }

    fn into_result(self) -> JobResult {
        let global = self
            .serial_global
            .or_else(|| self.folded.as_ref().map(|p| self.spec.kernel.finalize(p)));
        let per_step = (!self.per_step.is_empty()).then_some(self.per_step);
        JobResult {
            id: self.id,
            name: self.spec.name,
            class: self.spec.class,
            submitted: self.spec.arrival,
            started: self.started,
            finished: self.clock,
            global,
            per_step,
            steps: self.next_step,
            plan_cache: self.plan_stats,
            ost_busy_secs: self.ost_busy,
            lane_bytes: self.lane_bytes,
        }
    }
}

/// What a service run produced: per-job results (indexed by
/// [`JobHandle::id`]), the makespan, and the shared-resource accounting.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Every job's result, in submission order.
    pub jobs: Vec<JobResult>,
    /// Virtual time the last job finished.
    pub makespan: SimTime,
    /// Plan-cache counters: the shared cache's lifetime stats for a
    /// concurrent run, the fold of per-job private-cache stats for a
    /// serial run (where `cross_job_*` is structurally zero).
    pub cache: PlanCacheStats,
    /// Per-OST load snapshots at the makespan (backlog is zero by then;
    /// the totals and wait columns describe the whole run).
    pub ost: Vec<OstSnapshot>,
    /// Backbone-lane counters, when the service ran with a shared lane.
    pub lane: Option<LaneStats>,
    /// Median per-job latency (submission → finish). Both the concurrent
    /// and the serial/independent path fill this, so fused-vs-independent
    /// latency comparisons read off one struct instead of re-deriving
    /// percentiles from makespans.
    pub latency_p50: SimTime,
    /// 99th-percentile per-job latency (submission → finish).
    pub latency_p99: SimTime,
}

impl ServiceOutcome {
    /// Jobs completed per virtual second — the aggregate throughput the
    /// headline bench compares against serial execution.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.makespan == SimTime::ZERO {
            return 0.0;
        }
        self.jobs.len() as f64 / self.makespan.secs()
    }
}

/// The `p`-th percentile of a set of virtual durations (nearest-rank, the
/// same convention the bench harness uses); zero for an empty set.
pub fn percentile_time(mut times: Vec<SimTime>, p: f64) -> SimTime {
    if times.is_empty() {
        return SimTime::ZERO;
    }
    times.sort();
    let idx = ((times.len() as f64 * p / 100.0).ceil() as usize).clamp(1, times.len());
    times[idx - 1]
}

/// A scheduler running N concurrent collective jobs over one shared
/// cluster: one [`Pfs`] (OST contention), one optional backbone
/// [`SharedLane`] (inter-node contention), one process-wide
/// [`SharedPlanCache`] (cross-job schedule reuse), and per-job rank pools
/// carved from the cluster's nodes.
///
/// Jobs execute one engine step (one collective iteration of their sweep)
/// at a time; the [`ServicePolicy`] picks which admitted job steps next.
/// Real bytes move inside each step exactly as in a solo run — scheduling
/// changes *when* virtual-time demand lands on the shared resources, never
/// what any job computes, so per-job results are bit-identical to solo
/// runs under every policy and interleaving.
pub struct Service {
    model: ClusterModel,
    pfs: Arc<Pfs>,
    cache: SharedPlanCache,
    lane: Option<SharedLane>,
    policy: ServicePolicy,
    jobs: Vec<Job>,
}

impl Service {
    /// A service over `model`'s cluster and the shared file system `pfs`
    /// (files must already be created), with the default QoS-WFQ policy
    /// and no backbone lane.
    pub fn new(model: ClusterModel, pfs: Arc<Pfs>) -> Self {
        Self {
            model,
            pfs,
            cache: SharedPlanCache::new(),
            lane: None,
            policy: ServicePolicy::default(),
            jobs: Vec::new(),
        }
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: ServicePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Adds a shared backbone lane of `bytes_per_sec` aggregate capacity:
    /// each step's inter-node bytes are booked on it, and the step does
    /// not complete before its lane booking drains. Models the aggregate
    /// fabric the per-job `NetModel` cannot see.
    pub fn with_backbone(mut self, bytes_per_sec: f64) -> Self {
        self.lane = Some(SharedLane::new(bytes_per_sec));
        self
    }

    /// Admission control: validates the spec against the cluster and file
    /// system and enqueues the job. Placement happens inside
    /// [`run`](Self::run), at the job's virtual arrival (or when nodes
    /// free up, whichever is later).
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobHandle, AdmissionError> {
        if spec.nprocs == 0 {
            return Err(AdmissionError::ZeroRanks);
        }
        if spec.steps.is_empty() {
            return Err(AdmissionError::NoSteps);
        }
        if !(spec.weight.is_finite() && spec.weight > 0.0) {
            return Err(AdmissionError::BadWeight(spec.weight));
        }
        let cores = self.model.topology.cores_per_node;
        let needed_nodes = spec.nprocs.div_ceil(cores);
        if needed_nodes > self.model.topology.nodes {
            return Err(AdmissionError::TooLarge {
                needed_nodes,
                cluster_nodes: self.model.topology.nodes,
            });
        }
        if self.pfs.open(&spec.file).is_none() {
            return Err(AdmissionError::UnknownFile(spec.file.clone()));
        }
        for (i, step) in spec.steps.iter().enumerate() {
            assert_eq!(
                step.start.len(),
                step.count.len(),
                "job {:?} step {i}: start/count rank mismatch",
                spec.name,
            );
            let rows = step.count.first().copied().unwrap_or(0);
            if rows < spec.nprocs as u64 {
                return Err(AdmissionError::StepTooNarrow {
                    step: i,
                    rows,
                    nprocs: spec.nprocs,
                });
            }
        }
        let id = self.jobs.len() as u64;
        self.jobs.push(Job {
            id,
            spec,
            nodes: Vec::new(),
            admit_seq: usize::MAX,
            world: None,
            started: SimTime::ZERO,
            clock: SimTime::ZERO,
            next_step: 0,
            folded: None,
            per_step: Vec::new(),
            plan_stats: PlanCacheStats::default(),
            ost_busy: 0.0,
            lane_bytes: 0,
            serial_global: None,
        });
        Ok(JobHandle { id })
    }

    /// Runs every submitted job concurrently under the configured policy
    /// and returns the per-job results and shared-resource accounting.
    pub fn run(self) -> ServiceOutcome {
        let Service {
            model,
            pfs,
            cache,
            lane,
            policy,
            mut jobs,
        } = self;
        let cores = model.topology.cores_per_node;
        let total_nodes = model.topology.nodes;
        let mut free_at = vec![SimTime::ZERO; total_nodes];
        let mut held = vec![false; total_nodes];
        // Admission queue: arrival order, interactive before batch on
        // ties, submission order last.
        let mut queued: Vec<usize> = (0..jobs.len()).collect();
        queued.sort_by(|&a, &b| {
            let (ja, jb) = (&jobs[a], &jobs[b]);
            ja.spec
                .arrival
                .cmp(&jb.spec.arrival)
                .then_with(|| {
                    let rank = |c: QosClass| match c {
                        QosClass::Interactive => 0,
                        QosClass::Batch => 1,
                    };
                    rank(ja.spec.class).cmp(&rank(jb.spec.class))
                })
                .then(a.cmp(&b))
        });
        let mut active: Vec<usize> = Vec::new();
        let mut admit_seq = 0usize;
        let mut rr = 0usize;
        let mut remaining = jobs.len();
        while remaining > 0 {
            // Backfilling admission: walk the queue in order and place
            // every job whose node demand fits the currently free nodes —
            // a small interactive job is not stuck behind a wide batch
            // job waiting for the cluster to drain.
            let mut i = 0;
            while i < queued.len() {
                let idx = queued[i];
                let needed = jobs[idx].spec.nprocs.div_ceil(cores);
                let mut free: Vec<usize> = (0..total_nodes).filter(|&k| !held[k]).collect();
                if free.len() < needed {
                    i += 1;
                    continue;
                }
                // Take the `needed` free nodes that free up earliest; the
                // job starts once it has arrived AND its last node is free.
                free.sort_by_key(|&k| free_at[k]);
                free.truncate(needed);
                let nodes_ready = free.iter().map(|&k| free_at[k]).max().unwrap_or(SimTime::ZERO);
                let start = jobs[idx].spec.arrival.max(nodes_ready);
                for &k in &free {
                    held[k] = true;
                }
                let job = &mut jobs[idx];
                job.nodes = free;
                job.started = start;
                job.clock = start;
                job.admit_seq = admit_seq;
                admit_seq += 1;
                // The job's world spans exactly its carved-out nodes; jobs
                // of equal width get identical sub-topologies, which is
                // what lets their plan-cache keys collide (by design).
                let mut m = model.clone();
                m.topology = Topology::new(needed, cores);
                job.world = Some(World::new(job.spec.nprocs, m));
                active.push(idx);
                queued.remove(i);
            }
            let pos = pick(policy, &jobs, &active, &mut rr);
            let idx = active[pos];
            step_job(&mut jobs[idx], &pfs, &cache, lane.as_ref());
            if jobs[idx].finished() {
                let fin = jobs[idx].clock;
                for &k in &jobs[idx].nodes {
                    held[k] = false;
                    free_at[k] = fin;
                }
                jobs[idx].world = None;
                active.remove(pos);
                remaining -= 1;
            }
        }
        assemble(jobs, cache.stats(), &pfs, lane.as_ref())
    }

    /// Runs the same submitted jobs one after another (arrival order, ties
    /// by submission), each over the full event horizon of its
    /// predecessor: job i starts at `max(arrival_i, finish_{i-1})`, with a
    /// private per-rank plan cache — the no-sharing baseline the headline
    /// bench compares the concurrent run against.
    pub fn run_serial(self) -> ServiceOutcome {
        let Service {
            model,
            pfs,
            lane,
            mut jobs,
            ..
        } = self;
        let cores = model.topology.cores_per_node;
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .spec
                .arrival
                .cmp(&jobs[b].spec.arrival)
                .then(a.cmp(&b))
        });
        let mut prev_end = SimTime::ZERO;
        let mut cache_total = PlanCacheStats::default();
        for idx in order {
            let job = &mut jobs[idx];
            let needed = job.spec.nprocs.div_ceil(cores);
            let mut m = model.clone();
            m.topology = Topology::new(needed, cores);
            let world = World::new(job.spec.nprocs, m);
            let start = job.spec.arrival.max(prev_end);
            job.started = start;
            let busy_before: f64 = pfs.per_ost_busy_secs().iter().sum();
            let spec = &job.spec;
            let pfs_ref = &*pfs;
            let outs = world.run(move |comm| {
                comm.advance_to(start);
                let file = pfs_ref.open(&spec.file).unwrap_or_else(|| {
                    panic!("job {:?}: file {:?} disappeared", spec.name, spec.file)
                });
                let steps: Vec<_> = spec
                    .steps
                    .iter()
                    .map(|s| (&spec.var, spec.rank_io(s, comm.rank(), comm.nprocs())))
                    .collect();
                iterative_get_vara(comm, pfs_ref, &file, &steps, &*spec.kernel)
            });
            let busy_after: f64 = pfs.per_ost_busy_secs().iter().sum();
            let mut end = start;
            let mut inter = 0u64;
            for o in &outs {
                if let Some(last) = o.steps.last() {
                    end = end.max(last.report.end);
                }
                inter += o.comm.bytes_inter as u64;
                job.plan_stats = job.plan_stats.merge(&o.plan_cache);
            }
            if let Some(lane) = lane.as_ref() {
                if inter > 0 {
                    end = end.max(lane.book_bytes(start, inter));
                    job.lane_bytes = inter;
                }
            }
            // The root's finalized results, shaped exactly as the
            // concurrent path shapes them.
            let root = &outs[0];
            job.per_step = root.per_step.clone().unwrap_or_default();
            job.serial_global = root.global.clone();
            job.ost_busy = busy_after - busy_before;
            job.clock = end;
            job.next_step = job.spec.steps.len();
            cache_total = cache_total.merge(&job.plan_stats);
            prev_end = end;
        }
        assemble(jobs, cache_total, &pfs, lane.as_ref())
    }
}

/// Picks the position (within `active`) of the next job to step.
fn pick(policy: ServicePolicy, jobs: &[Job], active: &[usize], rr: &mut usize) -> usize {
    assert!(!active.is_empty(), "scheduler stepped with no active jobs");
    match policy {
        ServicePolicy::Fifo => active
            .iter()
            .enumerate()
            .min_by_key(|(_, &idx)| jobs[idx].admit_seq)
            .map(|(pos, _)| pos)
            .unwrap(),
        ServicePolicy::RoundRobin => {
            let pos = *rr % active.len();
            *rr = rr.wrapping_add(1);
            pos
        }
        ServicePolicy::QosWfq => {
            // Interactive first: earliest job clock wins, so the
            // latency-sensitive job whose virtual frontier is furthest
            // behind claims shared capacity before anyone else books it.
            let interactive = active
                .iter()
                .enumerate()
                .filter(|(_, &idx)| jobs[idx].spec.class == QosClass::Interactive)
                .min_by(|(_, &a), (_, &b)| {
                    jobs[a]
                        .clock
                        .cmp(&jobs[b].clock)
                        .then(jobs[a].id.cmp(&jobs[b].id))
                })
                .map(|(pos, _)| pos);
            if let Some(pos) = interactive {
                return pos;
            }
            // Batch: weighted fair queueing over attributed OST
            // busy-seconds — the job with the smallest service-per-weight
            // steps next; ties go to the earliest clock, then id.
            active
                .iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| {
                    let va = jobs[a].ost_busy / jobs[a].spec.weight;
                    let vb = jobs[b].ost_busy / jobs[b].spec.weight;
                    va.partial_cmp(&vb)
                        .unwrap()
                        .then(jobs[a].clock.cmp(&jobs[b].clock))
                        .then(jobs[a].id.cmp(&jobs[b].id))
                })
                .map(|(pos, _)| pos)
                .unwrap()
        }
    }
}

/// Runs one engine step of `job` against the shared resources.
fn step_job(job: &mut Job, pfs: &Pfs, cache: &SharedPlanCache, lane: Option<&SharedLane>) {
    let t0 = job.clock;
    let busy_before: f64 = pfs.per_ost_busy_secs().iter().sum();
    let spec = &job.spec;
    let step = &spec.steps[job.next_step];
    let jid = job.id;
    let world = job.world.as_ref().expect("active job has a world");
    let results = world.run(move |comm| {
        // Per-rank clocks start at zero in every World::run; advancing to
        // the job's frontier places this step at its virtual time, so OST
        // and lane bookings land where the job actually is.
        comm.advance_to(t0);
        let file = pfs.open(&spec.file).unwrap_or_else(|| {
            panic!("job {jid} ({:?}): file {:?} disappeared", spec.name, spec.file)
        });
        let io = spec.rank_io(step, comm.rank(), comm.nprocs());
        let mut plans = PlanSource::shared(cache, jid);
        let out = object_get_vara_planned(comm, pfs, &file, &spec.var, &io, &*spec.kernel, &mut plans);
        (out, plans.seen(), comm.stats())
    });
    let busy_after: f64 = pfs.per_ost_busy_secs().iter().sum();
    let mut end = t0;
    let mut inter = 0u64;
    for (out, seen, stats) in &results {
        end = end.max(out.report.end);
        inter += stats.bytes_inter as u64;
        job.plan_stats = job.plan_stats.merge(seen);
    }
    if let Some(lane) = lane {
        if inter > 0 {
            end = end.max(lane.book_bytes(t0, inter));
            job.lane_bytes += inter;
        }
    }
    // Fold the root's partial across steps, exactly as
    // `iterative_get_vara` does within a sweep.
    let root_out = &results[0].0;
    if let Some(p) = &root_out.global_partial {
        let global = root_out
            .global
            .clone()
            .unwrap_or_else(|| panic!("job {jid}: step produced a partial without its global"));
        job.per_step.push(global);
        match &mut job.folded {
            Some(acc) => spec.kernel.combine(acc, p),
            acc => *acc = Some(p.clone()),
        }
    }
    // Steps execute one at a time in real time, so the pool-wide busy
    // delta across this step is exactly the service this job booked.
    job.ost_busy += busy_after - busy_before;
    job.clock = end;
    job.next_step += 1;
}

/// Builds the outcome from finished jobs (already in id order).
fn assemble(
    jobs: Vec<Job>,
    cache: PlanCacheStats,
    pfs: &Pfs,
    lane: Option<&SharedLane>,
) -> ServiceOutcome {
    let makespan = jobs.iter().map(|j| j.clock).max().unwrap_or(SimTime::ZERO);
    let ost = pfs.ost_snapshot(makespan);
    let lane = lane.map(|l| l.stats());
    let jobs: Vec<JobResult> = jobs.into_iter().map(Job::into_result).collect();
    let latencies: Vec<SimTime> = jobs.iter().map(JobResult::latency).collect();
    let latency_p50 = percentile_time(latencies.clone(), 50.0);
    let latency_p99 = percentile_time(latencies, 99.0);
    ServiceOutcome {
        jobs,
        makespan,
        cache,
        ost,
        lane,
        latency_p50,
        latency_p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::StepSpec;
    use cc_array::{DType, Shape, Variable};
    use cc_core::SumKernel;
    use cc_model::DiskModel;
    use cc_pfs::backend::{ElemKind, SyntheticBackend};
    use cc_pfs::StripeLayout;

    fn value(i: u64) -> f64 {
        ((i * 29 + 7) % 127) as f64 - 60.0
    }

    fn cluster(nodes: usize, cores: usize) -> ClusterModel {
        let mut m = ClusterModel::test_tiny(cores);
        m.topology = Topology::new(nodes, cores);
        m
    }

    fn fs_with(files: &[&str], elems: u64) -> Arc<Pfs> {
        fs_striped(files, elems, 4)
    }

    /// `files` on a 4-OST file system, each striped over the first
    /// `stripe_count` OSTs.
    fn fs_striped(files: &[&str], elems: u64, stripe_count: usize) -> Arc<Pfs> {
        let fs = Pfs::new(4, DiskModel::lustre_like());
        for name in files {
            fs.create(
                name,
                StripeLayout::round_robin(4096, stripe_count, 0, 4),
                Box::new(SyntheticBackend::new(elems, ElemKind::F64, value)),
            );
        }
        Arc::new(fs)
    }

    fn var(rows: u64, cols: u64) -> Variable {
        Variable::new("v", Shape::new(vec![rows, cols]), DType::F64, 0)
    }

    /// A batch sweep over `file`: `nsteps` steps of `rows_per_step` rows.
    fn sweep_job(name: &str, file: &str, nprocs: usize, nsteps: u64, rows_per_step: u64, cols: u64) -> JobSpec {
        let mut spec = JobSpec::new(
            name,
            file,
            var(nsteps * rows_per_step, cols),
            nprocs,
            Arc::new(SumKernel),
        );
        for s in 0..nsteps {
            spec = spec.step(vec![s * rows_per_step, 0], vec![rows_per_step, cols]);
        }
        spec
    }

    #[test]
    fn admission_rejects_bad_specs() {
        let fs = fs_with(&["f"], 64 * 16);
        let mut svc = Service::new(cluster(2, 2), fs);
        let ok = sweep_job("ok", "f", 2, 2, 32, 16);
        assert_eq!(
            svc.submit(JobSpec { nprocs: 0, ..ok.clone() }),
            Err(AdmissionError::ZeroRanks)
        );
        assert_eq!(
            svc.submit(JobSpec { steps: vec![], ..ok.clone() }),
            Err(AdmissionError::NoSteps)
        );
        assert_eq!(
            svc.submit(ok.clone().weight(0.0)),
            Err(AdmissionError::BadWeight(0.0))
        );
        assert_eq!(
            svc.submit(JobSpec { nprocs: 32, ..ok.clone() }),
            Err(AdmissionError::TooLarge { needed_nodes: 16, cluster_nodes: 2 })
        );
        assert_eq!(
            svc.submit(JobSpec { file: "nope".into(), ..ok.clone() }),
            Err(AdmissionError::UnknownFile("nope".into()))
        );
        let narrow = JobSpec {
            steps: vec![StepSpec { start: vec![0, 0], count: vec![1, 16] }],
            ..ok.clone()
        };
        assert_eq!(
            svc.submit(narrow),
            Err(AdmissionError::StepTooNarrow { step: 0, rows: 1, nprocs: 2 })
        );
        assert!(svc.submit(ok).is_ok());
    }

    /// Three concurrent jobs (two batch sweeps on different files, one
    /// interactive ROI query) produce per-job results bit-identical to the
    /// same jobs run serially, while finishing no later in aggregate.
    #[test]
    fn concurrent_matches_serial_bit_identical() {
        let submit_all = |svc: &mut Service| {
            // Four ranks over two nodes each: the shuffle crosses nodes,
            // so the shared backbone lane sees real traffic.
            svc.submit(sweep_job("batch-a", "a", 4, 4, 16, 64)).unwrap();
            svc.submit(sweep_job("batch-b", "b", 4, 4, 16, 64)).unwrap();
            svc.submit(
                sweep_job("roi", "a", 2, 1, 8, 64)
                    .class(QosClass::Interactive)
                    .arrival(SimTime::from_secs(1e-4)),
            )
            .unwrap();
        };
        let mut concurrent = Service::new(cluster(4, 2), fs_with(&["a", "b"], 64 * 64))
            .with_backbone(5e8);
        submit_all(&mut concurrent);
        let conc = concurrent.run();
        let mut serial = Service::new(cluster(4, 2), fs_with(&["a", "b"], 64 * 64))
            .with_backbone(5e8);
        submit_all(&mut serial);
        let ser = serial.run_serial();
        assert_eq!(conc.jobs.len(), 3);
        for (c, s) in conc.jobs.iter().zip(&ser.jobs) {
            assert_eq!(c.id, s.id);
            assert_eq!(c.steps, s.steps);
            assert!(c.global.is_some(), "job {} lost its global", c.name);
            assert_eq!(c.checksum(), s.checksum(), "job {} diverged", c.name);
            assert!(c.finished > c.started);
        }
        // The batch sweep's fold matches the analytic sum of its file.
        let expect: f64 = (0..64 * 64).map(value).sum();
        let got = conc.jobs[0].global.as_ref().unwrap()[0];
        assert!((got - expect).abs() < 1e-9 * expect.abs().max(1.0));
        // Interleaving overlaps demand windows: the concurrent makespan
        // must beat chaining the jobs end to end.
        assert!(
            conc.makespan < ser.makespan,
            "concurrent {:?} vs serial {:?}",
            conc.makespan,
            ser.makespan
        );
        // Shared-resource accounting is populated.
        assert!(conc.jobs.iter().all(|j| j.ost_busy_secs > 0.0));
        assert!(conc.lane.unwrap().bytes > 0);
        assert!(conc.ost.iter().map(|o| o.bytes).sum::<u64>() > 0);
        // Two equal-shape sweeps on equally-striped files share plans.
        assert!(conc.cache.cross_job_hits + conc.cache.cross_job_translations > 0);
        // Serial jobs use private caches: cross-job reuse is impossible.
        assert_eq!(ser.cache.cross_job_hits, 0);
        assert_eq!(ser.cache.cross_job_translations, 0);
    }

    /// Exact shared-cache accounting with single-rank jobs: the first
    /// lookup anywhere compiles, every other identical lookup hits, and
    /// the two lookups made by the non-compiling job are cross-job.
    #[test]
    fn shared_cache_exact_cross_job_hits() {
        let fs = fs_with(&["a", "b"], 32 * 32);
        let mut svc = Service::new(cluster(2, 1), fs);
        svc.submit(sweep_job("a", "a", 1, 1, 16, 32).step(vec![0, 0], vec![16, 32])).unwrap();
        svc.submit(sweep_job("b", "b", 1, 1, 16, 32).step(vec![0, 0], vec![16, 32])).unwrap();
        let out = svc.run();
        assert_eq!(out.cache.misses, 1);
        assert_eq!(out.cache.hits, 3);
        assert_eq!(out.cache.translations, 0);
        assert_eq!(out.cache.cross_job_hits, 2);
        // Per-job counters partition the shared totals.
        let folded = out
            .jobs
            .iter()
            .fold(PlanCacheStats::default(), |acc, j| acc.merge(&j.plan_cache));
        assert_eq!(folded, out.cache);
        // One job compiled (no cross lookups), the other rode entirely on
        // the neighbour's schedule.
        let crosses: Vec<u64> = out.jobs.iter().map(|j| j.plan_cache.cross_job_hits).collect();
        assert!(crosses == vec![0, 2] || crosses == vec![2, 0], "{crosses:?}");
    }

    /// Same-shape steps at shifted offsets translate the neighbour's
    /// schedule instead of recompiling: translations never insert cache
    /// entries, so both shifted lookups translate and both are cross-job.
    #[test]
    fn shared_cache_exact_cross_job_translations() {
        let fs = fs_with(&["a", "b"], 32 * 32);
        let mut svc = Service::new(cluster(2, 1), fs);
        svc.submit(sweep_job("a", "a", 1, 1, 16, 32).step(vec![0, 0], vec![16, 32])).unwrap();
        svc.submit(sweep_job("b", "b", 1, 2, 8, 32)).unwrap();
        let out = svc.run();
        // Job a: two identical [16,32] lookups. Job b: two [8,32] lookups,
        // the second shifted 8 rows. Keys differ between jobs here, so the
        // cross-job traffic is zero but the within-job translation works:
        assert_eq!(out.cache.lookups(), 4);
        assert_eq!(out.cache.misses, 2);
        assert_eq!(out.cache.hits, 1);
        assert_eq!(out.cache.translations, 1);
        // Now two jobs whose steps are shifted copies of EACH OTHER.
        let fs = fs_with(&["a", "b"], 32 * 32);
        let mut svc = Service::new(cluster(2, 1), fs);
        svc.submit(sweep_job("a", "a", 1, 1, 16, 32).arrival(SimTime::ZERO)).unwrap();
        // Same [16,32] shape as job a's step, shifted 16 rows into a
        // 32-row variable.
        let base = sweep_job("b", "b", 1, 2, 16, 32);
        let shifted = JobSpec { steps: vec![base.steps[1].clone()], ..base };
        svc.submit(shifted).unwrap();
        let out = svc.run();
        assert_eq!(out.cache.lookups(), 2);
        assert_eq!(out.cache.misses, 1);
        assert_eq!(out.cache.translations, 1);
        assert_eq!(out.cache.cross_job_translations, 1);
    }

    /// Under QoS-WFQ an interactive job books shared capacity ahead of a
    /// long batch sweep it contends with; under FIFO it waits for the
    /// whole sweep. Its latency must strictly improve, and neither job's
    /// data may change.
    #[test]
    fn qos_beats_fifo_for_interactive_latency() {
        let run_with = |policy: ServicePolicy| {
            let mut svc = Service::new(cluster(4, 2), fs_with(&["f"], 64 * 64))
                .with_policy(policy);
            svc.submit(sweep_job("bg", "f", 2, 8, 8, 64)).unwrap();
            svc.submit(
                sweep_job("roi", "f", 2, 1, 8, 64)
                    .class(QosClass::Interactive)
                    .arrival(SimTime::from_secs(1e-4)),
            )
            .unwrap();
            svc.run()
        };
        let fifo = run_with(ServicePolicy::Fifo);
        let wfq = run_with(ServicePolicy::QosWfq);
        let (f_roi, w_roi) = (&fifo.jobs[1], &wfq.jobs[1]);
        assert!(
            w_roi.latency() < f_roi.latency(),
            "wfq {:?} vs fifo {:?}",
            w_roi.latency(),
            f_roi.latency()
        );
        for (a, b) in fifo.jobs.iter().zip(&wfq.jobs) {
            assert_eq!(a.checksum(), b.checksum(), "policy changed job {} data", a.name);
        }
    }

    /// WFQ weights steer batch service: with jobs of equal demand, the
    /// heavier job's virtual time grows slower, so it finishes first. Both
    /// files sit on one OST, so the jobs contend for it at every step and
    /// the order is the policy's doing: striped over all four, the sweeps
    /// rotate over the OSTs one step apart and never queue behind each
    /// other.
    #[test]
    fn wfq_weights_order_batch_completion() {
        let mut svc = Service::new(cluster(4, 2), fs_striped(&["a", "b"], 64 * 64, 1));
        svc.submit(sweep_job("light", "a", 2, 6, 8, 64).weight(1.0)).unwrap();
        svc.submit(sweep_job("heavy", "b", 2, 6, 8, 64).weight(8.0)).unwrap();
        let out = svc.run();
        assert!(
            out.jobs[1].finished < out.jobs[0].finished,
            "heavy {:?} should finish before light {:?}",
            out.jobs[1].finished,
            out.jobs[0].finished
        );
    }

    /// Round-robin also preserves per-job data (spot check that the loop
    /// is policy-agnostic about results).
    #[test]
    fn round_robin_matches_serial_checksums() {
        let mk = || {
            let mut svc = Service::new(cluster(2, 2), fs_with(&["a", "b"], 32 * 32))
                .with_policy(ServicePolicy::RoundRobin);
            svc.submit(sweep_job("a", "a", 2, 3, 8, 32)).unwrap();
            svc.submit(sweep_job("b", "b", 2, 3, 8, 32)).unwrap();
            svc
        };
        let conc = mk().run();
        let ser = mk().run_serial();
        for (c, s) in conc.jobs.iter().zip(&ser.jobs) {
            assert_eq!(c.checksum(), s.checksum());
        }
    }

    /// Both runners report latency percentiles over per-job (submission →
    /// finish) latencies, so fused-vs-independent comparisons read off one
    /// struct.
    #[test]
    fn outcomes_report_latency_percentiles() {
        let mk = || {
            let mut svc = Service::new(cluster(2, 2), fs_with(&["a", "b"], 32 * 32));
            svc.submit(sweep_job("a", "a", 2, 3, 8, 32)).unwrap();
            svc.submit(sweep_job("b", "b", 2, 3, 8, 32)).unwrap();
            svc
        };
        for out in [mk().run(), mk().run_serial()] {
            assert!(out.latency_p50 > SimTime::ZERO);
            assert!(out.latency_p50 <= out.latency_p99);
            let worst = out.jobs.iter().map(JobResult::latency).max().unwrap();
            assert_eq!(out.latency_p99, worst, "p99 of 2 jobs is the max");
        }
        // Nearest-rank percentile convention, pinned.
        let times: Vec<SimTime> = (1..=100).map(|i| SimTime::from_secs(i as f64)).collect();
        assert_eq!(percentile_time(times.clone(), 50.0), SimTime::from_secs(50.0));
        assert_eq!(percentile_time(times, 99.0), SimTime::from_secs(99.0));
        assert_eq!(percentile_time(Vec::new(), 50.0), SimTime::ZERO);
    }

    /// More queued jobs than nodes: placement queues the overflow and
    /// reuses freed nodes; every job still runs and finishes.
    #[test]
    fn placement_queues_when_cluster_full() {
        let mut svc = Service::new(cluster(2, 2), fs_with(&["f"], 64 * 64));
        for i in 0..5 {
            svc.submit(sweep_job(&format!("j{i}"), "f", 4, 2, 8, 64)).unwrap();
        }
        let out = svc.run();
        assert_eq!(out.jobs.len(), 5);
        assert!(out.jobs.iter().all(|j| j.steps == 2 && j.global.is_some()));
        // Only two nodes: at least three jobs had to start strictly after
        // an earlier job finished.
        let first_finish = out.jobs.iter().map(|j| j.finished).min().unwrap();
        let late_starters = out.jobs.iter().filter(|j| j.started >= first_finish).count();
        assert!(late_starters >= 3, "late starters: {late_starters}");
    }
}
