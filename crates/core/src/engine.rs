//! The collective-computing engine (the paper's Figs. 4, 7, 8).
//!
//! Phase 1 is the two-phase protocol's aggregated read, unchanged. But
//! instead of shuffling raw bytes, each aggregator *constructs* the logical
//! runs of every requester inside the chunk (the logical map), applies the
//! user kernel to them in place, and caches one partial result per owner.
//! The shuffle phase then moves only those partials, under one of two
//! reduce topologies (paper §III-C): all-to-one (everything to a single
//! node, which constructs per-process results and reduces) or all-to-all
//! (each process gets its own partials, reduces locally, and a final
//! reduce produces the global result).
//!
//! In non-blocking mode (the paper's default) the map of iteration `i`
//! runs on a separate lane and overlaps the read of iteration `i+1`, with
//! the map rate scaled by the node's idle cores (see the crate docs).

use cc_array::{construct_runs, Hyperslab, Variable};
use cc_model::{Lane, SimTime};
use cc_mpi::comm::TagValue;
use cc_mpi::Comm;
use cc_mpiio::schedule::prologue;
use cc_mpiio::{independent_read, PlanSchedule, Staging};
use cc_pfs::{FileHandle, Pfs};
use cc_profile::{Activity, Segment};

use crate::baseline::{map_buffer, traditional_get_vara_partial};
use crate::intermediate::IntermediateSet;
use crate::kernel::{MapKernel, Partial, PartialReduceOp};
use crate::object::{IoMode, ObjectIo, ReduceMode};
use crate::scratch::Scratch;

/// Tag for intermediate-result messages.
// Tag base for intermediate-result shuffles; each operation stamps its
// sequence number into the low bits (see `Comm::next_engine_tag`), so
// back-to-back operations never cross-match.
const TAG_RESULTS: TagValue = 0x5000_0000;

/// The default root rank for reductions.
pub(crate) fn default_root() -> usize {
    0
}

/// Durations of one collective-computing iteration at an aggregator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcIterTiming {
    /// Read-phase duration (including OST queueing).
    pub read: SimTime,
    /// Map-phase duration (kernel + metadata construction).
    pub map: SimTime,
}

/// What one rank observed during a collective-computing operation.
#[derive(Debug, Clone, Default)]
pub struct CcReport {
    /// Virtual time entering the operation.
    pub start: SimTime,
    /// Virtual time when this rank's role completed.
    pub end: SimTime,
    /// Per-iteration read/map timings (aggregators only).
    pub iterations: Vec<CcIterTiming>,
    /// Bytes this rank read from the file system (aggregator role).
    pub bytes_read: u64,
    /// Words of intermediate results this rank sent.
    pub result_words_shuffled: u64,
    /// Logical-run metadata entries this rank created (Fig. 12's x-axis
    /// sweep changes this through the buffer size).
    pub metadata_entries: u64,
    /// Bytes of that metadata.
    pub metadata_bytes: u64,
    /// The paper's "local reduction" overhead: logical construction plus
    /// intermediate-result combining (Fig. 11).
    pub local_reduction: SimTime,
    /// Activity segments for CPU profiling.
    pub segments: Vec<Segment>,
}

impl CcReport {}

/// The results of one object-I/O call.
#[derive(Debug, Clone)]
pub struct CcOutcome {
    /// This rank's own-subset result. Present on every rank under
    /// all-to-all reduce (and in independent/blocking modes); under
    /// all-to-one it is only known at the root.
    pub my_result: Option<Vec<f64>>,
    /// The global reduction — present at the reduce root only.
    pub global: Option<Vec<f64>>,
    /// Per-rank results, indexed by rank — present at the all-to-one root
    /// (where every process's partials were constructed).
    pub per_rank: Option<Vec<Option<Vec<f64>>>>,
    /// The raw (pre-finalize) global partial — present wherever `global`
    /// is. Iterative sweeps fold these; finalized outputs of kernels like
    /// `mean` cannot be folded.
    pub global_partial: Option<Partial>,
    /// This rank's phase observations.
    pub report: CcReport,
}

/// The paper's `ncmpi_object_get_vara` (Fig. 6, line 11): performs the
/// object I/O described by `io`, running `kernel` inside the collective.
/// Must be called by all ranks. The collective path takes its schedule
/// from the world's [`PlanScope`](cc_mpiio::PlanScope) when it has one
/// (see [`PlanSchedule::resolve`]).
pub fn object_get_vara(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    io: &ObjectIo,
    kernel: &dyn MapKernel,
) -> CcOutcome {
    let slab = Hyperslab::new(io.start.clone(), io.count.clone());
    if io.blocking {
        // io.block = true: "essentially identical to the traditional
        // MPI-IO code" (paper §III-A).
        return run_blocking(comm, pfs, file, var, &slab, io, kernel);
    }
    match io.mode {
        IoMode::Independent => run_independent(comm, pfs, file, var, &slab, io, kernel),
        IoMode::Collective => run_collective_computing(comm, pfs, file, var, &slab, io, kernel),
    }
}

/// Blocking escape hatch: delegate to the traditional baseline and adapt.
fn run_blocking(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    slab: &Hyperslab,
    io: &ObjectIo,
    kernel: &dyn MapKernel,
) -> CcOutcome {
    let root = io.reduce.root();
    // The traditional path shuffles *raw field bytes*, so an exact kernel
    // (min/max/located selection) must not see lossily-perturbed values:
    // clamp error-bounded hints to lossless before the read.
    let mut hints = io.hints.clone();
    hints.compression = hints.compression.clamp_for(kernel.tolerance());
    let (global, mine, rep) =
        traditional_get_vara_partial(comm, pfs, file, var, slab, &hints, kernel, root);
    CcOutcome {
        my_result: Some(kernel.finalize(&mine)),
        global: global.as_ref().map(|p| kernel.finalize(p)),
        global_partial: global,
        per_rank: None,
        report: CcReport {
            start: rep.start,
            end: rep.end,
            bytes_read: rep.two_phase.bytes_read,
            local_reduction: rep.reduce_elapsed,
            segments: rep.segments,
            ..CcReport::default()
        },
    }
}

/// Independent mode: every rank reads and maps its own request, then the
/// partials ride a plain reduce.
fn run_independent(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    slab: &Hyperslab,
    io: &ObjectIo,
    kernel: &dyn MapKernel,
) -> CcOutcome {
    let mut report = CcReport {
        start: comm.clock(),
        ..CcReport::default()
    };
    let mut scratch = Scratch::new();
    let request = var.byte_extents(slab);
    let (bytes, io_rep) = independent_read(comm, pfs, file, &request);
    report.bytes_read = io_rep.bytes_read;
    report
        .segments
        .push(Segment::new(report.start, comm.clock(), Activity::Wait));
    var.dtype().decode_into(&bytes, &mut scratch.values);
    let compute_start = comm.clock();
    let partial = map_buffer(var, slab, kernel, &scratch.values);
    comm.advance(comm.model().cpu.map_time(bytes.len()));
    report
        .segments
        .push(Segment::new(compute_start, comm.clock(), Activity::User));
    let global = final_reduce(comm, kernel, &partial, io.reduce.root(), &mut scratch);
    report.end = comm.clock();
    CcOutcome {
        my_result: Some(kernel.finalize(&partial)),
        global: global.as_ref().map(|p| kernel.finalize(p)),
        global_partial: global,
        per_rank: None,
        report,
    }
}

/// The collective-computing path proper.
fn run_collective_computing(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    slab: &Hyperslab,
    io: &ObjectIo,
    kernel: &dyn MapKernel,
) -> CcOutcome {
    let mut report = CcReport {
        start: comm.clock(),
        ..CcReport::default()
    };
    let esize = var.dtype().size();
    // Element-aligned planning: chunk and domain boundaries must never
    // split an element, or the logical map could not reconstruct it.
    let mut hints = io.hints.clone();
    // Error bounds are a kernel property: only kernels declaring bounded-
    // error tolerance may consume lossily-compressed field bytes; exact
    // (selection) kernels are clamped to lossless framing. The clamped
    // value also keys the plan cache, so the two classes never share a
    // compiled schedule.
    hints.compression = hints.compression.clamp_for(kernel.tolerance());
    hints.cb_buffer_size = round_up(hints.cb_buffer_size.max(esize), esize);
    hints.align_domains_to = Some(match hints.align_domains_to {
        Some(a) => lcm(a.max(1), esize),
        None => esize,
    });
    // The prologue adds the file's striping; if the stripe size is not
    // element-aligned the planner falls back to stripe-aligned-even
    // partitioning on its own.
    let request = var.byte_extents(slab);
    let (hints, schedule, results_tag) = prologue(comm, file, &request, hints, TAG_RESULTS);

    // --- Phase 1 + map: the aggregator pipeline (paper Fig. 7). ---------
    // One scratch arena serves the whole operation: decoded values and
    // shuffle words reuse their high-water allocations.
    let mut scratch = Scratch::new();
    let mut inter = IntermediateSet::new(comm.nprocs());
    let mut agg_done = comm.clock();
    if let Some(agg_idx) = schedule.aggregator_index(comm.rank()) {
        let stage = Staging::new(pfs, file, &schedule, agg_idx, &hints);
        agg_done = run_map_pipeline(
            comm,
            stage,
            var,
            kernel,
            &mut inter,
            &mut scratch,
            &mut report,
        );
    }
    report.metadata_entries = inter.metadata_entries;
    report.metadata_bytes = inter.metadata_bytes;

    // --- Phase 2: shuffle of intermediate results + reduce. -------------
    let outcome = match io.reduce {
        ReduceMode::AllToOne { root } => reduce_all_to_one(
            comm,
            kernel,
            &schedule,
            &inter,
            agg_done,
            root,
            results_tag,
            &mut scratch,
            &mut report,
        ),
        ReduceMode::AllToAll { root } => reduce_all_to_all(
            comm,
            kernel,
            &schedule,
            &inter,
            agg_done,
            root,
            results_tag,
            &mut scratch,
            &mut report,
        ),
    };
    report.end = comm.clock();
    CcOutcome {
        my_result: outcome.0,
        global: outcome.2.as_ref().map(|p| kernel.finalize(p)),
        global_partial: outcome.2,
        per_rank: outcome.1,
        report,
    }
}

/// What the reduce phases hand back: `(my_result, per_rank,
/// global_partial)`.
type ReduceOutcome = (
    Option<Vec<f64>>,
    Option<Vec<Option<Vec<f64>>>>,
    Option<Partial>,
);

/// Runs one aggregator's read→construct→map pipeline over `stage`.
/// Returns the time the last map completed.
fn run_map_pipeline(
    comm: &mut Comm,
    mut stage: Staging<'_>,
    var: &Variable,
    kernel: &dyn MapKernel,
    inter: &mut IntermediateSet,
    scratch: &mut Scratch,
    report: &mut CcReport,
) -> SimTime {
    let cpu = comm.model().cpu.clone();
    let esize = var.dtype().size() as usize;
    let (schedule, agg_idx) = (stage.schedule, stage.agg);
    // The map soaks up the node's idle cores (see crate docs): each
    // aggregator can draw on cores_per_node / aggregators_per_node workers.
    let workers =
        (comm.model().topology.cores_per_node / stage.hints.aggregators_per_node).max(1) as f64;
    let start = comm.clock();
    // The I/O lane models the paper's I/O thread; the map lane models the
    // node-parallel map workers (Fig. 7), draining each staged chunk while
    // later ones are read.
    let mut io_lane = Lane::free_from(start);
    let mut map_lane = Lane::free_from(start);
    let mut last = start;

    let mut blocks: Vec<(u64, u64)> = Vec::new();
    for pos in 0..stage.iters().len() {
        let Some((iter, rlo, ready, read_done, chunk)) =
            stage.next(pos, &mut io_lane, &mut report.segments)
        else {
            continue;
        };

        // Construct logical runs and map them, per destination owner and
        // per covered block — a merged iteration's bounding range spans
        // stride gaps whose bytes belong to other aggregators.
        blocks.clear();
        schedule.chunk_blocks(agg_idx, iter, |blo, bhi| blocks.push((blo, bhi)));
        let mut mapped_bytes = 0usize;
        let mut entries = 0u64;
        let mut meta_bytes = 0u64;
        for &dst in schedule.destinations(agg_idx, iter) {
            // One fold per (chunk, owner): the owner's arena slot is copied
            // into the set's working partial, every run maps into it, and
            // it is copied back.
            inter.fold(dst, kernel, |acc| {
                for &(blo, bhi) in &blocks {
                    for run in construct_runs(var, &schedule.plan().requests[dst], blo, bhi) {
                        let off = (var.byte_of_elem(run.start_elem) - rlo) as usize;
                        let len = run.len as usize * esize;
                        // Decode into the reused scratch slice: the kernel
                        // folds over `&[f64]` with no per-run allocation.
                        var.dtype()
                            .decode_into(&chunk[off..off + len], &mut scratch.values);
                        kernel.map(acc, run.start_elem, &scratch.values);
                        mapped_bytes += len;
                        entries += 1;
                        meta_bytes += run.metadata_bytes(var);
                    }
                }
            });
        }
        inter.note_metadata(entries, meta_bytes);

        let construct_cost = cpu.metadata_time(entries as usize);
        let map_cost = cpu.map_time(mapped_bytes).scale(1.0 / workers) + construct_cost;
        report.local_reduction += construct_cost;
        let map_start = read_done.max(map_lane.free_at());
        let map_done = map_lane.acquire(read_done, map_cost);
        // The slot is reusable once the kernel has folded its last run.
        stage.drain(pos, map_done);
        report
            .segments
            .push(Segment::new(map_start, map_done, Activity::User));
        report.iterations.push(CcIterTiming {
            read: read_done.saturating_since(ready),
            map: map_cost,
        });
        last = last.max(map_done);
    }
    report.bytes_read += stage.bytes_read();
    last
}

/// All-to-one reduce: every active aggregator ships its whole intermediate
/// set to `root`; the root constructs per-owner results and reduces them.
#[allow(clippy::too_many_arguments)]
fn reduce_all_to_one(
    comm: &mut Comm,
    kernel: &dyn MapKernel,
    schedule: &PlanSchedule,
    inter: &IntermediateSet,
    agg_done: SimTime,
    root: usize,
    tag: TagValue,
    scratch: &mut Scratch,
    report: &mut CcReport,
) -> ReduceOutcome {
    let cpu = comm.model().cpu.clone();
    let active: Vec<usize> = (0..schedule.plan().aggregators.len())
        .filter(|&a| schedule.is_active(a))
        .map(|a| schedule.aggregator_rank(a))
        .collect();

    // Sender side (aggregators): serialize into the scratch word buffer,
    // then onto a pooled wire buffer.
    let mut done = agg_done;
    if active.contains(&comm.rank()) && comm.rank() != root {
        inter.encode_all_into(&mut scratch.words);
        report.result_words_shuffled += scratch.words.len() as u64;
        let depart =
            agg_done + cpu.memcpy_time(scratch.words.len() * 8) + comm.model().net.send_cost();
        let mut bytes = comm.take_buf(scratch.words.len() * 8);
        cc_mpi::words::encode_into(&scratch.words, &mut bytes);
        comm.post_bytes_at(root, tag, bytes, depart);
        done = done.max(depart);
    }

    // Root side: construct and reduce.
    if comm.rank() == root {
        // The per-owner merge is an arena like the aggregators' own: an
        // owner's slot copies the first partial it sees and folds in the
        // rest, and every partial passes through the one `incoming`.
        let mut per_owner = IntermediateSet::new(comm.nprocs());
        let mut combines = 0u64;
        let mut incoming = kernel.identity();
        // The root's own set first, in owner order, as its message would be.
        inter.for_each(&mut incoming, |owner, p| {
            per_owner.absorb(owner, p, kernel);
            combines += 1;
        });
        for &agg in &active {
            if agg == root {
                continue;
            }
            let (bytes, arrival) = comm.recv_bytes_no_clock(agg, tag);
            cc_mpi::words::decode_into(&bytes, &mut scratch.words);
            comm.recycle_buf(bytes);
            combines += per_owner.absorb_encoded(&scratch.words, &mut incoming, kernel, agg, tag);
            done = done.max(arrival);
        }
        let reduce_start = done;
        let mut global = kernel.identity();
        let mut per_rank: Vec<Option<Vec<f64>>> = vec![None; comm.nprocs()];
        per_owner.for_each(&mut incoming, |owner, p| {
            kernel.combine(&mut global, p);
            per_rank[owner] = Some(kernel.finalize(p));
        });
        let any = !per_owner.is_empty();
        let reduce_cost = cpu.reduce_time(combines as usize + comm.nprocs());
        done += reduce_cost;
        report.local_reduction += reduce_cost;
        report
            .segments
            .push(Segment::new(reduce_start, done, Activity::User));
        comm.advance_to(done);
        let my = per_rank[root].clone();
        return (my, Some(per_rank), any.then_some(global));
    }

    comm.advance_to(done);
    (None, None, None)
}

/// All-to-all reduce: each aggregator ships each owner its partial; owners
/// reduce locally, then a tree reduce produces the global result at `root`.
#[allow(clippy::too_many_arguments)]
fn reduce_all_to_all(
    comm: &mut Comm,
    kernel: &dyn MapKernel,
    schedule: &PlanSchedule,
    inter: &IntermediateSet,
    agg_done: SimTime,
    root: usize,
    tag: TagValue,
    scratch: &mut Scratch,
    report: &mut CcReport,
) -> ReduceOutcome {
    let cpu = comm.model().cpu.clone();

    // Sender side: one small message per owner with data in my domain,
    // serialized through the scratch words and a pooled wire buffer.
    let mut shuffle_lane = Lane::free_from(agg_done);
    for owner in inter.owners() {
        if owner == comm.rank() {
            continue;
        }
        inter.encode_owner_into(owner, &mut scratch.words);
        report.result_words_shuffled += scratch.words.len() as u64;
        let same_node = comm.model().topology.same_node(comm.rank(), owner);
        let cost = cpu.memcpy_time(scratch.words.len() * 8)
            + comm.model().net.send_cost()
            + comm
                .model()
                .net
                .wire_time(scratch.words.len() * 8, same_node)
            + comm.model().net.msg_cost(same_node);
        let depart = shuffle_lane.acquire(agg_done, cost);
        let mut bytes = comm.take_buf(scratch.words.len() * 8);
        cc_mpi::words::encode_into(&scratch.words, &mut bytes);
        comm.post_bytes_at(owner, tag, bytes, depart);
    }
    let mut done = agg_done.max(shuffle_lane.free_at());

    // Receiver side: my partials come from every aggregator whose domain
    // holds any of my bytes — exactly the aggregators appearing in my
    // (round-ordered) source list, combined in aggregator order.
    let mut mine = kernel.identity();
    let mut incoming = kernel.identity();
    if inter.load(comm.rank(), &mut incoming) {
        kernel.combine(&mut mine, &incoming);
    }
    let mut my_aggs: Vec<usize> = schedule
        .sources_for(comm.rank())
        .iter()
        .map(|&(a, _)| a)
        .collect();
    my_aggs.sort_unstable();
    my_aggs.dedup();
    let mut combines = 0usize;
    let me = comm.rank();
    for a in my_aggs {
        let src = schedule.aggregator_rank(a);
        if src == me {
            continue;
        }
        let (bytes, arrival) = comm.recv_bytes_no_clock(src, tag);
        cc_mpi::words::decode_into(&bytes, &mut scratch.words);
        comm.recycle_buf(bytes);
        IntermediateSet::decode(&scratch.words, &mut incoming, |owner, p| {
            assert_eq!(
                owner, me,
                "rank {me}: misrouted intermediate result from rank {src} \
                 (owner {owner}, tag {tag:#x})",
            );
            kernel.combine(&mut mine, p);
            combines += 1;
        });
        done = done.max(arrival);
    }
    let local_cost = cpu.reduce_time(combines);
    done += local_cost;
    report.local_reduction += local_cost;
    comm.advance_to(done);

    // Final global reduce over the per-rank results.
    let global = final_reduce(comm, kernel, &mine, root, scratch);
    (Some(kernel.finalize(&mine)), None, global)
}

/// Tree-reduces `partial` to `root`; returns the global partial at the
/// root, `None` elsewhere.
fn final_reduce(
    comm: &mut Comm,
    kernel: &dyn MapKernel,
    partial: &Partial,
    root: usize,
    scratch: &mut Scratch,
) -> Option<Partial> {
    scratch.words.clear();
    partial.write_words_into(&mut scratch.words);
    comm.reduce(root, &scratch.words, &PartialReduceOp(kernel))
        .map(|words| Partial::from_words(&words).0)
}

/// Rounds `v` up to the next multiple of `m`.
fn round_up(v: u64, m: u64) -> u64 {
    v.div_ceil(m) * m
}

/// Least common multiple.
fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_helpers() {
        assert_eq!(round_up(7, 4), 8);
        assert_eq!(round_up(8, 4), 8);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(8, 8), 8);
        assert_eq!(gcd(12, 18), 6);
    }
}
