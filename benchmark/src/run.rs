//! The harness: sets a workload up, runs its baseline and primary paths,
//! and turns the reps into named metrics. Two kinds of run: the untraced
//! run yields the end-to-end metrics, the traced run the per-layer ones.

use std::time::{Duration, Instant};

use crate::api::{self, Counters, Rep, Workload};
use crate::instruments::{allocs, cpu_seconds, peak_bytes, reset_peak, timed};
use crate::json::Value;
use crate::metrics::{COVERAGE_PROBES, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quartiles, tail_percentile};
use crate::trace::Tracer;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Test-only: perturb the oracle, to prove a failed check is fatal.
    pub wrong_oracle: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Quartiles, sample and rep counts — for the human-readable report.
    pub detail: String,
}

pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Set-ups per run: at least this many, more while they stay cheap, so the
/// reported median is steady even when one set-up takes milliseconds.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Baseline-path reps per run; the virtual clock needs few.
const REFERENCE_REPS: usize = 5;
/// Fewest timed primary reps, however slow the workload.
const MIN_REPS: usize = 9;

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line the contract fixes: exactly these four keys.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = vec![
                    ("value".to_string(), Value::Num(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                (m.name.to_string(), Value::Obj(entry))
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }

    /// Every metric by name, with unit. Goes before the result line.
    pub fn print_report(&self) {
        println!("== {} (seed {})", self.workload, self.seed);
        for m in &self.metrics {
            println!(
                "{:<40} {:>16.6} {:<8} {}",
                m.name, m.value, m.unit, m.detail
            );
        }
        println!(
            "{:<40} {:>16.6} {:<8} {} failed of {} operations",
            "ops_failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.failed,
            self.attempted
        );
    }
}

/// Runs one workload once. `Err` only for an unknown workload name.
pub fn run(workload: &str, opts: &Options) -> Result<RunResult, String> {
    if !api::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            api::WORKLOADS
        ));
    }
    Ok(if opts.trace {
        traced(workload, opts)
    } else {
        untraced(workload, opts)
    })
}

fn build(workload: &str, seed: u64, t: &mut Tracer) -> Box<dyn Workload> {
    api::build(workload, seed, t).expect("workload name was checked")
}

/// Counts a rep's operations into the run's totals.
fn tally(rep: &Rep, attempted: &mut u64, failed: &mut u64) {
    *attempted += rep.attempted;
    *failed += rep.failed;
}

fn untraced(workload: &str, opts: &Options) -> RunResult {
    let off = &mut Tracer::off();

    // Set-up, several times: its median is a metric of its own, so that
    // work moved out of the timed reps into set-up still shows.
    let mut setups = Vec::new();
    let mut built = None;
    let started = Instant::now();
    while setups.len() < MIN_SETUPS
        || (started.elapsed() < SETUP_BUDGET && setups.len() < MAX_SETUPS)
    {
        drop(built.take()); // one workload's inputs live at a time
        let (w, secs) = timed(|| build(workload, opts.seed, off));
        setups.push(secs);
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up ran");
    w.arm_oracle(opts.wrong_oracle);

    let (mut attempted, mut failed) = (0, 0);
    // The baseline path first: its results are what every primary rep is
    // compared with, inside the rep.
    let reference: Vec<Rep> = (0..REFERENCE_REPS).map(|_| w.reference(off)).collect();
    reference
        .iter()
        .for_each(|r| tally(r, &mut attempted, &mut failed));
    // One discarded warm-up: caches fill, lazy set-up finishes, threads'
    // stacks get mapped. Its operations still count.
    tally(&w.primary(off), &mut attempted, &mut failed);

    let (allocs0, cpu0, block) = (allocs(), cpu_seconds(), Instant::now());
    let (mut reps, mut peaks) = (Vec::new(), Vec::new());
    while reps.len() < MIN_REPS || block.elapsed().as_secs_f64() < opts.seconds {
        // The high-water mark of each rep on its own: the maximum over the
        // whole block is an extreme value and wanders with thread timing.
        reset_peak();
        reps.push(w.primary(off));
        peaks.push(peak_bytes() as f64 / (1 << 20) as f64);
    }
    let (allocs1, cpu1) = (allocs(), cpu_seconds());
    reps.iter()
        .for_each(|r| tally(r, &mut attempted, &mut failed));

    let n = reps.len() as f64;
    let walls: Vec<f64> = reps.iter().map(|r| r.host_wall_s).collect();
    let (q1, q3) = quartiles(&walls);
    let pooled: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.latencies_s.iter().copied())
        .collect();
    let p90 = tail_percentile(&pooled, 90.0);
    let value = |name: &str| -> (f64, String) {
        match name {
            "setup_s" => (
                median(&setups),
                format!("median of {} set-ups", setups.len()),
            ),
            "virt_time_s" => (
                median(&reps.iter().map(|r| r.virt_time_s).collect::<Vec<_>>()),
                format!("median of {} reps", reps.len()),
            ),
            "virt_ref_time_s" => (
                median(&reference.iter().map(|r| r.virt_time_s).collect::<Vec<_>>()),
                format!("median of {REFERENCE_REPS} baseline reps"),
            ),
            "virt_latency_p50_s" => (
                percentile(&pooled, 50.0),
                format!("{} samples pooled", pooled.len()),
            ),
            "virt_latency_p90_s" => (
                p90.value,
                if p90.fell_back_to_max {
                    format!(
                        "MAX of {} samples: only {} beyond p90",
                        pooled.len(),
                        p90.beyond
                    )
                } else {
                    format!("{} samples pooled, {} beyond", pooled.len(), p90.beyond)
                },
            ),
            "host_wall_s" => (
                median(&walls),
                format!("q1 {q1:.6} q3 {q3:.6} over {} reps", reps.len()),
            ),
            "host_cpu_s" => (
                ((cpu1.0 - cpu0.0) + (cpu1.1 - cpu0.1)) / n,
                format!(
                    "user {:.4} sys {:.4} per rep",
                    (cpu1.0 - cpu0.0) / n,
                    (cpu1.1 - cpu0.1) / n
                ),
            ),
            "host_allocs" => ((allocs1 - allocs0) as f64 / n, "per rep".to_string()),
            "host_peak_heap_mb" => (
                median(&peaks),
                "median of the reps' high-water marks".to_string(),
            ),
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (value, detail) = value(m.name);
            Metric {
                name: m.name,
                value,
                unit: m.unit,
                detail,
            }
        })
        .collect();
    RunResult {
        workload: workload.to_string(),
        seed: opts.seed,
        attempted,
        failed,
        metrics,
        tracer: None,
    }
}

fn traced(workload: &str, opts: &Options) -> RunResult {
    let mut tracer = Tracer::new(true, workload);
    let mut counters = Counters::new();
    let (mut attempted, mut failed) = (0, 0);

    tracer.span("workload", |t| {
        let (mut w, _) = t.span("setup", |t| build(workload, opts.seed, t));
        counters.extend(w.setup_counters().iter().copied());
        w.arm_oracle(opts.wrong_oracle);

        let reference = w.reference(t);
        tally(&reference, &mut attempted, &mut failed);
        t.counters(&reference.counters);
        counters.extend(reference.counters.iter().copied());
        tally(&w.primary(&mut Tracer::off()), &mut attempted, &mut failed);

        // Traced and untraced reps alternate, so both see the same machine;
        // the gap between their medians is what tracing costs.
        let (mut plain, mut spanned, mut last) = (Vec::new(), Vec::new(), Rep::default());
        let (cpu0, block) = (cpu_seconds(), Instant::now());
        while plain.len() < 3 || block.elapsed().as_secs_f64() < opts.seconds {
            let rep = w.primary(&mut Tracer::off());
            tally(&rep, &mut attempted, &mut failed);
            plain.push(rep.host_wall_s);
            let rep = w.primary(t);
            tally(&rep, &mut attempted, &mut failed);
            spanned.push(rep.host_wall_s);
            last = rep;
        }
        let cpu1 = cpu_seconds();
        let host_cpu_s = ((cpu1.0 - cpu0.0) + (cpu1.1 - cpu0.1)) / (2 * plain.len()) as f64;
        t.counters(&last.counters);
        counters.extend(last.counters.iter().copied());

        let (probes, _) = t.span("probes", |t| w.probes(t, &last));
        counters.extend(probes.iter().copied());

        let get = |name: &str| {
            counters
                .iter()
                .rev()
                .find(|(k, _)| *k == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let msgs = get("cc-mpi.msgs_intra") + get("cc-mpi.msgs_inter");
        let speedup = reference.virt_time_s / last.virt_time_s.max(f64::MIN_POSITIVE);
        let derived = [
            (
                "cc-mpi.host_us_per_msg",
                if msgs > 0.0 {
                    host_cpu_s * 1e6 / msgs
                } else {
                    0.0
                },
            ),
            ("trace.host_cpu_s", host_cpu_s),
            ("paper.cc_speedup", speedup),
            (
                "paper.speedup_relerr",
                w.paper_speedup().map_or(0.0, |p| (speedup - p).abs() / p),
            ),
            (
                "trace.probe_coverage",
                COVERAGE_PROBES.iter().map(|p| get(p)).sum::<f64>() / host_cpu_s.max(1e-9),
            ),
            (
                "trace.overhead_frac",
                median(&spanned) / median(&plain) - 1.0,
            ),
        ];
        counters.extend(derived);
    });

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            // Later sources win; a metric no source reported for this
            // workload does not apply to it and reads 0.
            let found = counters.iter().rev().find(|(k, _)| *k == m.name);
            Metric {
                name: m.name,
                value: found.map_or(0.0, |(_, v)| *v),
                unit: m.unit,
                detail: match (found, m.higher_is_better) {
                    (None, _) => "n/a on this workload",
                    (Some(_), true) => "higher is better",
                    (Some(_), false) => "",
                }
                .to_string(),
            }
        })
        .collect();
    RunResult {
        workload: workload.to_string(),
        seed: opts.seed,
        attempted,
        failed,
        metrics,
        tracer: Some(tracer),
    }
}
