//! The metric names, units and regression bounds — the one list the report,
//! `--compare` and `BENCHMARK.json` agree on (a test checks the last).

/// A metric a user of the system would see. All are lower-is-better.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn bounded(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, bound }
}

/// The bounds are what this 2-core box can resolve (README.md has the
/// measured spreads): the virtual clock and the allocation count repeat to
/// well under 1 %; host time spreads 3-11 % between runs and its median
/// drifts up to 19 % between two sets of ten runs minutes apart.
pub const END_TO_END: [EndToEnd; 9] = [
    bounded("setup_s", "s", 0.25),
    bounded("virt_time_s", "s", 0.03),
    bounded("virt_ref_time_s", "s", 0.05),
    bounded("virt_latency_p50_s", "s", 0.05),
    bounded("virt_latency_p90_s", "s", 0.05),
    bounded("host_wall_s", "s", 0.25),
    bounded("host_cpu_s", "s", 0.25),
    bounded("host_allocs", "count", 0.03),
    bounded("host_peak_heap_mb", "MiB", 0.20),
];

/// A metric of a single layer (layer = crate): name, unit, and whether
/// higher is better. No bound: these explain, they do not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

pub const PER_LAYER: [PerLayer; 69] = [
    lower("cc-array.extents", "count"),
    lower("cc-array.flatten_host_s", "s"),
    lower("cc-mpiio.exchange_virt_s", "s"),
    lower("cc-mpiio.exchange_host_s", "s"),
    lower("cc-mpiio.exchange_msgs", "count"),
    lower("cc-mpiio.exchange_bytes", "B"),
    lower("cc-mpiio.plan_compile_host_s", "s"),
    higher("cc-mpiio.plan_hits", "count"),
    higher("cc-mpiio.plan_translations", "count"),
    lower("cc-mpiio.plan_misses", "count"),
    higher("cc-mpiio.plan_reuse_rate", "ratio"),
    lower("cc-mpiio.iterations", "count"),
    lower("cc-mpiio.read_virt_s", "s"),
    lower("cc-mpiio.queue_virt_s", "s"),
    lower("cc-mpiio.shuffle_virt_s", "s"),
    lower("cc-mpiio.bytes_shuffled", "B"),
    lower("cc-mpiio.write_calls", "count"),
    lower("cc-mpiio.write_bytes_shuffled", "B"),
    higher("cc-mpiio.fuse_extent_ratio", "ratio"),
    lower("cc-mpiio.ref_host_wall_s", "s"),
    lower("cc-pfs.reads", "count"),
    lower("cc-pfs.writes", "count"),
    lower("cc-pfs.bytes_read", "B"),
    lower("cc-pfs.bytes_written", "B"),
    lower("cc-pfs.extents_served", "count"),
    lower("cc-pfs.ost_busy_s", "s"),
    lower("cc-pfs.ost_wait_s", "s"),
    lower("cc-pfs.delayed_requests", "count"),
    lower("cc-pfs.ost_imbalance", "ratio"),
    lower("cc-pfs.read_host_s", "s"),
    lower("cc-mpi.msgs_intra", "count"),
    lower("cc-mpi.msgs_inter", "count"),
    lower("cc-mpi.bytes_intra", "B"),
    lower("cc-mpi.bytes_inter", "B"),
    lower("cc-mpi.reduce_virt_s", "s"),
    lower("cc-mpi.spawn_host_s", "s"),
    lower("cc-mpi.alltoallv_host_s", "s"),
    lower("cc-mpi.alltoallv_virt_s", "s"),
    lower("cc-mpi.host_us_per_msg", "us"),
    lower("cc-core.read_virt_s", "s"),
    lower("cc-core.map_virt_s", "s"),
    lower("cc-core.local_reduction_virt_s", "s"),
    lower("cc-core.result_words_shuffled", "count"),
    lower("cc-core.metadata_entries", "count"),
    lower("cc-core.metadata_bytes", "B"),
    lower("cc-core.compute_virt_s", "s"),
    lower("cc-core.decode_map_host_s", "s"),
    higher("cc-core.map_melems_per_host_s", "Melem/s"),
    lower("cc-compress.encode_host_s", "s"),
    lower("cc-compress.decode_host_s", "s"),
    higher("cc-compress.wire_ratio", "ratio"),
    higher("cc-service.admitted", "count"),
    lower("cc-service.refused", "count"),
    lower("cc-service.queue_wait_virt_s", "s"),
    higher("cc-service.cross_job_rate", "ratio"),
    lower("cc-service.lane_bytes", "B"),
    lower("cc-service.serial_makespan_virt_s", "s"),
    lower("cc-service.sched_overhead_host_s", "s"),
    lower("cc-service.bins", "count"),
    higher("cc-service.tasks_per_schedule", "count"),
    lower("cc-service.task_p99_virt_s", "s"),
    lower("cc-service.independent_makespan_virt_s", "s"),
    lower("cc-service.virt_jitter_frac", "ratio"),
    lower("cc-workloads.build_fs_host_s", "s"),
    higher("paper.cc_speedup", "ratio"),
    lower("paper.speedup_relerr", "ratio"),
    lower("trace.host_cpu_s", "s"),
    higher("trace.probe_coverage", "ratio"),
    lower("trace.overhead_frac", "ratio"),
];

/// The probes whose host time replays a share of the primary path; their
/// sum over `host_cpu_s` is `trace.probe_coverage`.
pub const COVERAGE_PROBES: [&str; 6] = [
    "cc-mpi.spawn_host_s",
    "cc-mpiio.exchange_host_s",
    "cc-mpiio.plan_compile_host_s",
    "cc-pfs.read_host_s",
    "cc-core.decode_map_host_s",
    "cc-mpi.alltoallv_host_s",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` is what the driver reads; this list is what the
    /// program prints. They must name the same metrics, units, directions
    /// and bounds, and `BENCHMARK.json` must keep within the contract's
    /// limits.
    #[test]
    fn benchmark_json_matches_this_list() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        let e2e = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(
                field(got, "unit").as_deref(),
                Some(want.unit),
                "{}",
                want.name
            );
            assert_eq!(
                field(got, "better").as_deref(),
                Some("lower"),
                "{}",
                want.name
            );
            assert_eq!(
                got.get("bound").and_then(Value::as_f64),
                Some(want.bound),
                "{}",
                want.name
            );
            assert!(want.bound <= 0.25);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is a metric");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );

        let layers = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(
                field(got, "unit").as_deref(),
                Some(want.unit),
                "{}",
                want.name
            );
            let better = if want.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                field(got, "better").as_deref(),
                Some(better),
                "{}",
                want.name
            );
        }

        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads");
        let names: Vec<_> = workloads.iter().filter_map(|w| field(w, "name")).collect();
        assert_eq!(names, crate::api::WORKLOADS);
        for w in workloads {
            let why = field(w, "why").expect("why");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }

        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.name));
        all.extend(crate::api::WORKLOADS);
        for name in &all {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "every name is used once");
    }
}
