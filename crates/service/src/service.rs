//! The multi-job scheduler: admission, placement, fair queueing, and the
//! virtual-time event loop over resident job worlds.

use std::panic::resume_unwind;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use cc_core::{iterative_get_vara, object_get_vara, CcOutcome, Partial};
use cc_model::{Calendar, ClusterModel, Load, SimTime, Topology};
use cc_mpi::{Comm, World};
use cc_mpiio::{PlanCacheStats, PlanScope, SharedPlanCache};
use cc_pfs::Pfs;

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

/// One submitted job's live state inside the service; its spec sits at the
/// same index of the service's spec list.
#[derive(Default)]
struct Job {
    id: u64,
    /// Cluster nodes held while active (indices into the node pool).
    nodes: Vec<usize>,
    /// Order of admission (for FIFO).
    admit_seq: usize,
    /// The plan scope attached to the job's world while it is active.
    scope: Option<Arc<PlanScope>>,
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
    fn new(id: usize) -> Self {
        Self {
            id: id as u64,
            ..Self::default()
        }
    }

    fn into_result(self, spec: JobSpec) -> JobResult {
        let global = self
            .serial_global
            .or_else(|| self.folded.as_ref().map(|p| spec.kernel.finalize(p)));
        let per_step = (!self.per_step.is_empty()).then_some(self.per_step);
        JobResult {
            id: self.id,
            name: spec.name,
            class: spec.class,
            submitted: spec.arrival,
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

/// Where a resident job's ranks park between steps. The event loop grants
/// one step at a time and waits for the step's last deposit; each job has
/// its own pair of condvars, so a grant wakes that job's ranks only.
#[derive(Default)]
struct Gate {
    slot: Mutex<Slot>,
    /// The job's ranks wait here for their next grant.
    granted: Condvar,
    /// The event loop waits here for the granted step's last deposit.
    done: Condvar,
}

/// A gate's state: the current grant and what the ranks deposited for it.
#[derive(Default)]
struct Slot {
    /// Steps granted so far.
    granted: usize,
    /// Where the granted step starts: the job's virtual frontier.
    t0: SimTime,
    /// Ranks that have deposited the granted step.
    arrived: usize,
    /// The latest report end deposited (`t0` before any).
    end: SimTime,
    /// Inter-node bytes the ranks sent during the step.
    inter: u64,
    /// Rank 0's outcome: the step's global and its raw partial.
    root: Option<CcOutcome>,
    /// Set when the job's world unwinds or the event loop stops: parked
    /// ranks leave their world, and nobody waits for a deposit.
    aborted: bool,
}

impl Gate {
    /// The slot, poisoned or not: every update under the lock leaves it
    /// valid, and the abort path must not panic from a `Drop`.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks a rank until step `step` is granted and returns the step's
    /// start, or `None` once the gate has aborted.
    fn wait(&self, step: usize) -> Option<SimTime> {
        let slot = self
            .granted
            .wait_while(self.lock(), |s| s.granted <= step && !s.aborted)
            .unwrap_or_else(PoisonError::into_inner);
        (!slot.aborted).then_some(slot.t0)
    }

    /// Records rank `rank`'s share of the granted step; the last of the
    /// job's `nprocs` ranks wakes the event loop.
    fn deposit(&self, rank: usize, nprocs: usize, out: CcOutcome, inter: u64) {
        let mut slot = self.lock();
        slot.end = slot.end.max(out.report.end);
        slot.inter += inter;
        if rank == 0 {
            slot.root = Some(out);
        }
        slot.arrived += 1;
        if slot.arrived == nprocs {
            self.done.notify_one();
        }
    }

    /// Grants step `step` from `t0` and waits for every rank's deposit:
    /// the latest report end, the step's inter-node bytes and rank 0's
    /// outcome, or `None` if the job's world unwound instead.
    fn run_step(
        &self,
        step: usize,
        t0: SimTime,
        nprocs: usize,
    ) -> Option<(SimTime, u64, CcOutcome)> {
        let mut slot = self.lock();
        slot.granted = step + 1;
        slot.t0 = t0;
        slot.arrived = 0;
        slot.end = t0;
        slot.inter = 0;
        self.granted.notify_all();
        let mut slot = self
            .done
            .wait_while(slot, |s| s.arrived < nprocs && !s.aborted)
            .unwrap_or_else(PoisonError::into_inner);
        if slot.aborted {
            return None;
        }
        let root = slot.root.take().expect("rank 0 deposits every step");
        Some((slot.end, slot.inter, root))
    }

    /// Sends every parked rank out of its world and stops the event loop's
    /// wait.
    fn abort(&self) {
        self.lock().aborted = true;
        self.granted.notify_all();
        self.done.notify_all();
    }
}

/// Aborts its gate when dropped during a panic: a rank that fails, or is
/// unwound by its world's abort, frees the peers already parked for the
/// next step and the event loop waiting for its deposit.
struct AbortOnUnwind<'a>(&'a Gate);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.abort();
        }
    }
}

/// Aborts every gate when dropped, so no resident world outlives the event
/// loop, whether it ends, stops at a failed step, or panics itself. Every
/// job has finished by a normal end, so there the aborts free nobody.
struct ReleaseAll<'a>(&'a [Gate]);

impl Drop for ReleaseAll<'_> {
    fn drop(&mut self) {
        for gate in self.0 {
            gate.abort();
        }
    }
}

/// A resident job's rank: parks on the job's gate between steps and runs
/// each step it is granted.
fn serve_steps(comm: &mut Comm, spec: &JobSpec, jid: u64, gate: &Gate, pfs: &Pfs) {
    let _abort = AbortOnUnwind(gate);
    let mut since = comm.stats();
    for (k, step) in spec.steps.iter().enumerate() {
        let Some(t0) = gate.wait(k) else { return };
        // Advancing to the job's frontier places this step at its virtual
        // time, so OST and lane bookings land where the job actually is.
        // The frontier is at least every rank's previous report end, so
        // the clock lands on it exactly, as a fresh rank's would.
        comm.advance_to(t0);
        let file = pfs.open(&spec.file).unwrap_or_else(|| {
            panic!(
                "job {jid} ({:?}): file {:?} disappeared",
                spec.name, spec.file
            )
        });
        let io = spec.rank_io(step, comm.rank(), comm.nprocs());
        let out = object_get_vara(comm, pfs, &file, &spec.var, &io, &*spec.kernel);
        let stats = comm.stats();
        let inter = stats.delta(&since).bytes_inter as u64;
        since = stats;
        gate.deposit(comm.rank(), comm.nprocs(), out, inter);
    }
}

/// What a service run produced: per-job results (indexed by
/// `JobHandle::id`), the makespan, and the shared-resource accounting.
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
    pub ost: Vec<Load>,
    /// The backbone lane's load at the makespan, when the service ran
    /// with one.
    pub lane: Option<Load>,
}

/// The `p`-th percentile of a set of virtual durations (nearest-rank);
/// zero for an empty set.
pub fn percentile_time(mut times: Vec<SimTime>, p: f64) -> SimTime {
    if times.is_empty() {
        return SimTime::ZERO;
    }
    times.sort();
    let idx = ((times.len() as f64 * p / 100.0).ceil() as usize).clamp(1, times.len());
    times[idx - 1]
}

/// A scheduler running N concurrent collective jobs over one shared
/// cluster: one [`Pfs`] (OST contention), one optional backbone lane
/// [`Calendar`] (inter-node contention), one process-wide
/// [`SharedPlanCache`] (cross-job schedule reuse), and per-job rank pools
/// carved from the cluster's nodes.
///
/// Each admitted job's ranks are resident: one world per job, whose ranks
/// park between steps. Jobs execute one engine step (one collective
/// iteration of their sweep) at a time; the [`ServicePolicy`] picks which
/// admitted job steps next. Real bytes move inside each step exactly as in
/// a solo run — scheduling changes *when* virtual-time demand lands on the
/// shared resources, never what any job computes, so per-job results are
/// bit-identical to solo runs under every policy and interleaving.
pub struct Service {
    model: ClusterModel,
    pfs: Arc<Pfs>,
    cache: Arc<SharedPlanCache>,
    /// The backbone lane and its capacity in bytes per second.
    lane: Option<(Calendar, f64)>,
    policy: ServicePolicy,
    /// Every submitted job's spec; a job's id is its index.
    specs: Vec<JobSpec>,
}

impl Service {
    /// A service over `model`'s cluster and the shared file system `pfs`
    /// (files must already be created), with the default QoS-WFQ policy
    /// and no backbone lane.
    pub fn new(model: ClusterModel, pfs: Arc<Pfs>) -> Self {
        Self {
            model,
            pfs,
            cache: Arc::default(),
            lane: None,
            policy: ServicePolicy::default(),
            specs: Vec::new(),
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
    ///
    /// # Panics
    /// Panics on a non-positive capacity.
    pub fn with_backbone(mut self, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0,
            "backbone lane needs positive capacity, got {bytes_per_sec}"
        );
        self.lane = Some((Calendar::default(), bytes_per_sec));
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
        // Refused here, not by a panic inside a step under the shared
        // plan cache's lock.
        spec.hints.check().map_err(AdmissionError::BadHints)?;
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
        let id = self.specs.len() as u64;
        self.specs.push(spec);
        Ok(JobHandle { id })
    }

    /// Runs every submitted job concurrently under the configured policy
    /// and returns the per-job results and shared-resource accounting.
    ///
    /// Admission starts one [`World::run`] per job on a scoped driver
    /// thread; the job's ranks stay resident for its whole sweep, parked
    /// on the job's gate between steps.
    ///
    /// # Panics
    /// If a rank panics, every parked job is released and, once every
    /// driver has returned, the failed world's panic (naming the rank and
    /// its message) is raised here.
    pub fn run(self) -> ServiceOutcome {
        let Service {
            model,
            pfs,
            cache,
            lane,
            policy,
            specs,
        } = self;
        let mut jobs: Vec<Job> = (0..specs.len()).map(Job::new).collect();
        let gates: Vec<Gate> = specs.iter().map(|_| Gate::default()).collect();
        let cores = model.topology.cores_per_node;
        let total_nodes = model.topology.nodes;
        let mut free_at = vec![SimTime::ZERO; total_nodes];
        let mut held = vec![false; total_nodes];
        // Admission queue: arrival order, interactive before batch on
        // ties, submission order last.
        let mut queued: Vec<usize> = (0..specs.len()).collect();
        queued.sort_by(|&a, &b| {
            let (sa, sb) = (&specs[a], &specs[b]);
            sa.arrival
                .cmp(&sb.arrival)
                .then_with(|| {
                    let rank = |c: QosClass| match c {
                        QosClass::Interactive => 0,
                        QosClass::Batch => 1,
                    };
                    rank(sa.class).cmp(&rank(sb.class))
                })
                .then(a.cmp(&b))
        });
        let failure = thread::scope(|s| {
            let release = ReleaseAll(&gates);
            let mut drivers = Vec::with_capacity(specs.len());
            let mut active: Vec<usize> = Vec::new();
            let mut admit_seq = 0usize;
            let mut rr = 0usize;
            let mut remaining = specs.len();
            while remaining > 0 {
                // Backfilling admission: walk the queue in order and place
                // every job whose node demand fits the currently free nodes
                // — a small interactive job is not stuck behind a wide
                // batch job waiting for the cluster to drain.
                let mut i = 0;
                while i < queued.len() {
                    let idx = queued[i];
                    let spec = &specs[idx];
                    let needed = spec.nprocs.div_ceil(cores);
                    let mut free: Vec<usize> = (0..total_nodes).filter(|&k| !held[k]).collect();
                    if free.len() < needed {
                        i += 1;
                        continue;
                    }
                    // Take the `needed` free nodes that free up earliest;
                    // the job starts once it has arrived AND its last node
                    // is free.
                    free.sort_by_key(|&k| free_at[k]);
                    free.truncate(needed);
                    let nodes_ready = free
                        .iter()
                        .map(|&k| free_at[k])
                        .max()
                        .unwrap_or(SimTime::ZERO);
                    let start = spec.arrival.max(nodes_ready);
                    for &k in &free {
                        held[k] = true;
                    }
                    let job = &mut jobs[idx];
                    job.nodes = free;
                    job.started = start;
                    job.clock = start;
                    job.admit_seq = admit_seq;
                    admit_seq += 1;
                    // The job's world spans exactly its carved-out nodes;
                    // jobs of equal width get identical sub-topologies,
                    // which is what lets their plan-cache keys collide (by
                    // design). Every step of the job resolves its schedule
                    // through the scope attached to its world.
                    let mut m = model.clone();
                    m.topology = Topology::new(needed, cores);
                    let scope = Arc::new(PlanScope::new(Arc::clone(&cache), job.id));
                    let world = World::new(spec.nprocs, m).attach(Arc::clone(&scope));
                    job.scope = Some(scope);
                    let (jid, gate, fs) = (job.id, &gates[idx], &*pfs);
                    drivers.push(s.spawn(move || {
                        world.run(|comm| serve_steps(comm, spec, jid, gate, fs));
                    }));
                    active.push(idx);
                    queued.remove(i);
                }
                let pos = pick(policy, &specs, &jobs, &active, &mut rr);
                let idx = active[pos];
                let (job, spec) = (&mut jobs[idx], &specs[idx]);
                if !step_job(job, spec, &gates[idx], &pfs, lane.as_ref()) {
                    break;
                }
                if job.next_step == spec.steps.len() {
                    for &k in &job.nodes {
                        held[k] = false;
                        free_at[k] = job.clock;
                    }
                    let scope = job.scope.take().expect("active job has a plan scope");
                    job.plan_stats = scope.stats();
                    active.remove(pos);
                    remaining -= 1;
                }
            }
            // Release parked ranks before joining their drivers.
            drop(release);
            let mut failure = None;
            for driver in drivers {
                if let Err(payload) = driver.join() {
                    failure.get_or_insert(payload);
                }
            }
            failure
        });
        if let Some(payload) = failure {
            resume_unwind(payload);
        }
        assemble(specs, jobs, cache.stats(), &pfs, lane.as_ref())
    }

    /// Runs the same submitted jobs one after another (arrival order, ties
    /// by submission), each over the full event horizon of its
    /// predecessor: job i starts at `max(arrival_i, finish_{i-1})`, with a
    /// private plan cache per job — the no-sharing baseline the headline
    /// bench compares the concurrent run against.
    pub fn run_serial(self) -> ServiceOutcome {
        let Service {
            model,
            pfs,
            lane,
            specs,
            ..
        } = self;
        let mut jobs: Vec<Job> = (0..specs.len()).map(Job::new).collect();
        let cores = model.topology.cores_per_node;
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by(|&a, &b| specs[a].arrival.cmp(&specs[b].arrival).then(a.cmp(&b)));
        let mut prev_end = SimTime::ZERO;
        let mut cache_total = PlanCacheStats::default();
        for idx in order {
            let (job, spec) = (&mut jobs[idx], &specs[idx]);
            let needed = spec.nprocs.div_ceil(cores);
            let mut m = model.clone();
            m.topology = Topology::new(needed, cores);
            let scope = Arc::new(PlanScope::new(Arc::default(), job.id));
            let world = World::new(spec.nprocs, m).attach(Arc::clone(&scope));
            let start = spec.arrival.max(prev_end);
            job.started = start;
            let busy_before = pfs.ost_busy_secs();
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
            let busy_after = pfs.ost_busy_secs();
            let mut end = start;
            let mut inter = 0u64;
            for o in &outs {
                if let Some(last) = o.steps.last() {
                    end = end.max(last.report.end);
                }
                inter += o.comm.bytes_inter as u64;
            }
            job.plan_stats = scope.stats();
            let end = book_backbone(lane.as_ref(), job, start, inter, end);
            // The root's finalized results, shaped exactly as the
            // concurrent path shapes them.
            let root = &outs[0];
            job.per_step = root.per_step.clone().unwrap_or_default();
            job.serial_global = root.global.clone();
            job.ost_busy = busy_after - busy_before;
            job.clock = end;
            job.next_step = spec.steps.len();
            cache_total = cache_total.merge(&job.plan_stats);
            prev_end = end;
        }
        assemble(specs, jobs, cache_total, &pfs, lane.as_ref())
    }
}

/// Picks the position (within `active`) of the next job to step.
fn pick(
    policy: ServicePolicy,
    specs: &[JobSpec],
    jobs: &[Job],
    active: &[usize],
    rr: &mut usize,
) -> usize {
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
                .filter(|(_, &idx)| specs[idx].class == QosClass::Interactive)
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
                    let va = jobs[a].ost_busy / specs[a].weight;
                    let vb = jobs[b].ost_busy / specs[b].weight;
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

/// Runs `job`'s next step on its resident ranks and books it against the
/// shared resources; `false` if the job's world unwound instead.
fn step_job(
    job: &mut Job,
    spec: &JobSpec,
    gate: &Gate,
    pfs: &Pfs,
    lane: Option<&(Calendar, f64)>,
) -> bool {
    let t0 = job.clock;
    let busy_before = pfs.ost_busy_secs();
    let Some((end, inter, root)) = gate.run_step(job.next_step, t0, spec.nprocs) else {
        return false;
    };
    let busy_after = pfs.ost_busy_secs();
    let end = book_backbone(lane, job, t0, inter, end);
    // Fold the root's partial across steps, exactly as
    // `iterative_get_vara` does within a sweep.
    if let Some(p) = root.global_partial {
        let global = root.global.unwrap_or_else(|| {
            panic!("job {}: step produced a partial without its global", job.id)
        });
        job.per_step.push(global);
        match &mut job.folded {
            Some(acc) => spec.kernel.combine(acc, &p),
            acc => *acc = Some(p),
        }
    }
    // Steps execute one at a time in real time, so the pool-wide busy
    // delta across this step is exactly the service this job booked.
    job.ost_busy += busy_after - busy_before;
    job.clock = end;
    job.next_step += 1;
    true
}

/// Books `inter` inter-node bytes of `job`'s step, requested at `t0`, on
/// the backbone lane when the service has one: `inter / bytes_per_sec`
/// seconds of lane service. Returns the step's end, which is no earlier
/// than that booking's completion.
fn book_backbone(
    lane: Option<&(Calendar, f64)>,
    job: &mut Job,
    t0: SimTime,
    inter: u64,
    end: SimTime,
) -> SimTime {
    match lane {
        Some((calendar, bytes_per_sec)) if inter > 0 => {
            job.lane_bytes += inter;
            let service = SimTime::from_secs(inter as f64 / bytes_per_sec);
            end.max(calendar.book(t0, service, inter))
        }
        _ => end,
    }
}

/// Builds the outcome from finished jobs (already in id order).
fn assemble(
    specs: Vec<JobSpec>,
    jobs: Vec<Job>,
    cache: PlanCacheStats,
    pfs: &Pfs,
    lane: Option<&(Calendar, f64)>,
) -> ServiceOutcome {
    let makespan = jobs.iter().map(|j| j.clock).max().unwrap_or(SimTime::ZERO);
    let ost = pfs.ost_snapshot(makespan);
    let lane = lane.map(|(calendar, _)| calendar.load(makespan));
    let jobs: Vec<JobResult> = jobs
        .into_iter()
        .zip(specs)
        .map(|(job, spec)| job.into_result(spec))
        .collect();
    ServiceOutcome {
        jobs,
        makespan,
        cache,
        ost,
        lane,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::StepSpec;
    use cc_array::{DType, Shape, Variable};
    use cc_core::{MapKernel, SumKernel};
    use cc_model::DiskModel;
    use cc_mpiio::Hints;
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
    fn sweep_job(
        name: &str,
        file: &str,
        nprocs: usize,
        nsteps: u64,
        rows_per_step: u64,
        cols: u64,
    ) -> JobSpec {
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
            svc.submit(JobSpec {
                nprocs: 0,
                ..ok.clone()
            }),
            Err(AdmissionError::ZeroRanks)
        );
        assert_eq!(
            svc.submit(JobSpec {
                steps: vec![],
                ..ok.clone()
            }),
            Err(AdmissionError::NoSteps)
        );
        assert_eq!(
            svc.submit(ok.clone().weight(0.0)),
            Err(AdmissionError::BadWeight(0.0))
        );
        let zero_buffer = Hints {
            cb_buffer_size: 0,
            ..Hints::default()
        };
        assert_eq!(
            svc.submit(ok.clone().hints(zero_buffer)),
            Err(AdmissionError::BadHints(
                "cb_buffer_size must be positive".into()
            ))
        );
        assert_eq!(
            svc.submit(JobSpec {
                nprocs: 32,
                ..ok.clone()
            }),
            Err(AdmissionError::TooLarge {
                needed_nodes: 16,
                cluster_nodes: 2
            })
        );
        assert_eq!(
            svc.submit(JobSpec {
                file: "nope".into(),
                ..ok.clone()
            }),
            Err(AdmissionError::UnknownFile("nope".into()))
        );
        let narrow = JobSpec {
            steps: vec![StepSpec {
                start: vec![0, 0],
                count: vec![1, 16],
            }],
            ..ok.clone()
        };
        assert_eq!(
            svc.submit(narrow),
            Err(AdmissionError::StepTooNarrow {
                step: 0,
                rows: 1,
                nprocs: 2
            })
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
        let mut concurrent =
            Service::new(cluster(4, 2), fs_with(&["a", "b"], 64 * 64)).with_backbone(5e8);
        submit_all(&mut concurrent);
        let conc = concurrent.run();
        let mut serial =
            Service::new(cluster(4, 2), fs_with(&["a", "b"], 64 * 64)).with_backbone(5e8);
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
        assert!(conc.cache.cross_job_hits > 0);
        // Serial jobs use private caches: cross-job reuse is impossible.
        assert_eq!(ser.cache.cross_job_hits, 0);
    }

    /// Exact shared-cache accounting with single-rank jobs: the first
    /// lookup anywhere compiles, every other identical lookup hits, and
    /// the two lookups made by the non-compiling job are cross-job.
    #[test]
    fn shared_cache_exact_cross_job_hits() {
        let fs = fs_with(&["a", "b"], 32 * 32);
        let mut svc = Service::new(cluster(2, 1), fs);
        svc.submit(sweep_job("a", "a", 1, 1, 16, 32).step(vec![0, 0], vec![16, 32]))
            .unwrap();
        svc.submit(sweep_job("b", "b", 1, 1, 16, 32).step(vec![0, 0], vec![16, 32]))
            .unwrap();
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
        let crosses: Vec<u64> = out
            .jobs
            .iter()
            .map(|j| j.plan_cache.cross_job_hits)
            .collect();
        assert!(
            crosses == vec![0, 2] || crosses == vec![2, 0],
            "{crosses:?}"
        );
    }

    /// Under QoS-WFQ an interactive job books shared capacity ahead of a
    /// long batch sweep it contends with; under FIFO it waits for the
    /// whole sweep. Its latency must strictly improve, and neither job's
    /// data may change.
    #[test]
    fn qos_beats_fifo_for_interactive_latency() {
        let run_with = |policy: ServicePolicy| {
            let mut svc = Service::new(cluster(4, 2), fs_with(&["f"], 64 * 64)).with_policy(policy);
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
            assert_eq!(
                a.checksum(),
                b.checksum(),
                "policy changed job {} data",
                a.name
            );
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
        svc.submit(sweep_job("light", "a", 2, 6, 8, 64).weight(1.0))
            .unwrap();
        svc.submit(sweep_job("heavy", "b", 2, 6, 8, 64).weight(8.0))
            .unwrap();
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

    /// Both runners fill every job's (submission → finish) latency, so
    /// percentiles over a run read off its outcome.
    #[test]
    fn outcomes_report_latency_percentiles() {
        let mk = || {
            let mut svc = Service::new(cluster(2, 2), fs_with(&["a", "b"], 32 * 32));
            svc.submit(sweep_job("a", "a", 2, 3, 8, 32)).unwrap();
            svc.submit(sweep_job("b", "b", 2, 3, 8, 32)).unwrap();
            svc
        };
        for out in [mk().run(), mk().run_serial()] {
            let latencies: Vec<SimTime> = out.jobs.iter().map(JobResult::latency).collect();
            let p50 = percentile_time(latencies.clone(), 50.0);
            let p99 = percentile_time(latencies, 99.0);
            assert!(p50 > SimTime::ZERO);
            assert!(p50 <= p99);
            let worst = out.jobs.iter().map(JobResult::latency).max().unwrap();
            assert_eq!(p99, worst, "p99 of 2 jobs is the max");
        }
        // Nearest-rank percentile convention, pinned.
        let times: Vec<SimTime> = (1..=100).map(|i| SimTime::from_secs(i as f64)).collect();
        assert_eq!(
            percentile_time(times.clone(), 50.0),
            SimTime::from_secs(50.0)
        );
        assert_eq!(percentile_time(times, 99.0), SimTime::from_secs(99.0));
        assert_eq!(percentile_time(Vec::new(), 50.0), SimTime::ZERO);
    }

    #[test]
    fn percentile_picks_tail() {
        let lat: Vec<SimTime> = [0.5, 0.1, 0.9, 0.3].map(SimTime::from_secs).to_vec();
        assert_eq!(percentile_time(lat.clone(), 99.0), SimTime::from_secs(0.9));
        assert_eq!(percentile_time(lat, 50.0), SimTime::from_secs(0.3));
    }

    /// More queued jobs than nodes: placement queues the overflow and
    /// reuses freed nodes; every job still runs and finishes.
    #[test]
    fn placement_queues_when_cluster_full() {
        let mut svc = Service::new(cluster(2, 2), fs_with(&["f"], 64 * 64));
        for i in 0..5 {
            svc.submit(sweep_job(&format!("j{i}"), "f", 4, 2, 8, 64))
                .unwrap();
        }
        let out = svc.run();
        assert_eq!(out.jobs.len(), 5);
        assert!(out.jobs.iter().all(|j| j.steps == 2 && j.global.is_some()));
        // Only two nodes: at least three jobs had to start strictly after
        // an earlier job finished.
        let first_finish = out.jobs.iter().map(|j| j.finished).min().unwrap();
        let late_starters = out
            .jobs
            .iter()
            .filter(|j| j.started >= first_finish)
            .count();
        assert!(late_starters >= 3, "late starters: {late_starters}");
    }

    /// Two wide batch sweeps over two nodes each, and two interactive
    /// queries that queue for the fifth node, under QoS-WFQ with a
    /// backbone lane: one aggregator per node, each on its own stripes, so
    /// every clock repeats exactly.
    fn golden_mix() -> Service {
        let mut svc = Service::new(cluster(5, 2), fs_with(&["a", "b"], 64 * 64)).with_backbone(5e8);
        svc.submit(sweep_job("batch-a", "a", 4, 4, 16, 64)).unwrap();
        svc.submit(sweep_job("batch-b", "b", 4, 3, 16, 64).weight(2.0))
            .unwrap();
        svc.submit(
            sweep_job("roi-1", "a", 2, 1, 8, 64)
                .class(QosClass::Interactive)
                .arrival(SimTime::from_secs(1e-4)),
        )
        .unwrap();
        svc.submit(
            sweep_job("roi-2", "b", 2, 2, 8, 64)
                .class(QosClass::Interactive)
                .arrival(SimTime::from_secs(2e-4)),
        )
        .unwrap();
        svc
    }

    /// Resident job worlds place every step where a world per step placed
    /// it. Recorded from commit fe245af, which ran each job step in a
    /// world of its own: `(started, finished)` as `f64` bits, the lane
    /// bytes, and the result checksum of every job.
    #[test]
    fn resident_worlds_keep_every_clock() {
        let out = golden_mix().run();
        let got: Vec<(u64, u64, u64, u64)> = out
            .jobs
            .iter()
            .map(|j| {
                (
                    j.started.secs().to_bits(),
                    j.finished.secs().to_bits(),
                    j.lane_bytes,
                    j.checksum(),
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (0x0, 0x3f90bf228f4068e0, 611, 0x92ab53dff40269e9),
                (0x0, 0x3f89283e20237d0d, 455, 0xeaf13fa7334ab891),
                (
                    0x3f1a36e2eb1c432d,
                    0x3f61613ca0a6a739,
                    0,
                    0x8b65e7c01da33514
                ),
                (
                    0x3f61613ca0a6a739,
                    0x3f794023d9a118bc,
                    0,
                    0x6d2f450e02150fe8
                ),
            ]
        );
    }

    /// A sum kernel that panics on any element at or past `from`.
    struct PanicsFrom {
        from: u64,
    }

    impl MapKernel for PanicsFrom {
        fn name(&self) -> &'static str {
            "panics-from"
        }

        fn identity(&self) -> Partial {
            SumKernel.identity()
        }

        fn map(&self, acc: &mut Partial, start_elem: u64, values: &[f64]) {
            if start_elem + values.len() as u64 > self.from {
                panic!("kernel reached element {}", self.from);
            }
            SumKernel.map(acc, start_elem, values);
        }

        fn combine(&self, acc: &mut Partial, other: &Partial) {
            SumKernel.combine(acc, other);
        }

        fn finalize(&self, acc: &Partial) -> Vec<f64> {
            SumKernel.finalize(acc)
        }
    }

    /// A kernel panic in a job's third step, while the other jobs' ranks
    /// are parked between steps, aborts the whole run promptly and names
    /// the rank. Without the event loop releasing every parked job, the
    /// parked worlds never return and the run hangs.
    #[test]
    fn rank_panic_releases_parked_jobs() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut svc = Service::new(cluster(3, 2), fs_with(&["a", "b"], 64 * 64))
                .with_policy(ServicePolicy::RoundRobin);
            svc.submit(sweep_job("a", "a", 2, 5, 8, 64)).unwrap();
            // One node, one aggregator: rank 0 maps every step.
            let faulty = JobSpec {
                kernel: Arc::new(PanicsFrom { from: 2 * 8 * 64 }),
                ..sweep_job("faulty", "b", 2, 5, 8, 64)
            };
            svc.submit(faulty).unwrap();
            svc.submit(sweep_job("c", "b", 2, 5, 8, 64)).unwrap();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.run()));
            let _ = tx.send(result.map(|_| ()));
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("Service::run hung after a rank panic");
        let payload = result.expect_err("the faulty kernel must abort the run");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or("<non-string panic>");
        assert!(
            msg.contains("rank 0 panicked: kernel reached element 1024"),
            "the abort must name the rank and its message, got: {msg}"
        );
    }
}
