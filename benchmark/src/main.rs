//! One end-to-end benchmark in both clocks: six whole-stack workloads,
//! nine bounded end-to-end metrics plus the failure count, per-layer
//! probes and a traced run. See README.md.

mod api;
mod compare;
mod instruments;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;

use std::io::Write as _;
use std::process::ExitCode;

use compare::{Record, Verdict};
use json::Value;
use run::{Options, RunResult};

#[global_allocator]
static ALLOC: instruments::CountingAlloc = instruments::CountingAlloc;

const USAGE: &str = "\
usage: cc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out FILE]
       cc-benchmark --compare A B
       cc-benchmark --selfcheck [--seed N] [--seconds S] [--runs N]

  --workload NAME  one of the six workloads; all six when omitted
  --seed N         generator seed (default 1); with --runs, the first of N consecutive seeds
  --seconds S      how long each run measures (default 10)
  --trace 0|1      0: untraced run, end-to-end metrics (default)
                   1: traced run, per-layer metrics, spans to benchmark/out/trace.json
  --runs N         runs per workload, each on the next seed (default 1; --selfcheck: 10)
  --out FILE       append one JSON record per run, the input of --compare
  --compare A B    compare two --out files; exit 1 if any row regressed
  --selfcheck      run the suite twice (A, then B) and compare; exit 1 on any
                   regressed or unresolved row";

/// Where the traced run writes its spans, relative to the directory the
/// benchmark is run from (the repository root).
const TRACE_PATH: &str = "benchmark/out/trace.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<u64>,
    out: Option<String>,
    compare: Option<(String, String)>,
    selfcheck: bool,
    wrong_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: None,
        out: None,
        compare: None,
        selfcheck: false,
        wrong_oracle: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |s: String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: {s:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => {
                let s = value()?;
                args.seconds = s
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| format!("--seconds: {s:?} is not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => args.runs = Some(number(value()?)?.max(1)),
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--selfcheck" => args.selfcheck = true,
            // Test-only: perturbs every oracle so a failed check can be
            // seen to turn the exit code non-zero. Not in the usage text.
            "--wrong-oracle" => args.wrong_oracle = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Runs the selected workloads `runs` times each, printing every report and
/// result line. The result line of the last run is the last line printed.
fn suite(args: &Args, runs: u64) -> Result<Vec<RunResult>, String> {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => api::WORKLOADS.to_vec(),
    };
    let mut results = Vec::new();
    for workload in workloads {
        for seed in args.seed..args.seed + runs {
            let opts = Options {
                seed,
                seconds: args.seconds,
                trace: args.trace,
                wrong_oracle: args.wrong_oracle,
            };
            results.push(run::run(workload, &opts)?);
            let result = results.last().expect("just pushed");
            result.print_report();
            if let Some(path) = &args.out {
                let line = compare::record_line(result, args.trace);
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| writeln!(f, "{line}"))
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            if args.trace {
                write_trace(&results)?;
            }
            // Nothing is printed after a run's result line, on either
            // stream: a caller may read the last line of both merged.
            println!("{}", result.to_json().to_json());
        }
    }
    Ok(results)
}

/// Writes the spans of every traced run so far to [`TRACE_PATH`].
fn write_trace(results: &[RunResult]) -> Result<(), String> {
    let runs: Vec<Value> = results
        .iter()
        .filter_map(|r| {
            let tracer = r.tracer.as_ref()?;
            Some(Value::Obj(vec![
                ("workload".into(), Value::Str(r.workload.clone())),
                ("seed".into(), Value::Num(r.seed as f64)),
                ("spans".into(), tracer.to_json()),
            ]))
        })
        .collect();
    println!("trace: spans of {} run(s) to {TRACE_PATH}", runs.len());
    let path = std::path::Path::new(TRACE_PATH);
    let dir = path.parent().expect("TRACE_PATH has a directory");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, Value::Arr(runs).to_json() + "\n"))
        .map_err(|e| format!("{TRACE_PATH}: {e}"))
}

fn main_inner() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let failed = |rows: &[compare::Row], also_unresolved: bool| {
        let regressed = compare::count(rows, Verdict::Regressed);
        let unresolved = compare::count(rows, Verdict::Unresolved);
        println!(
            "{} rows: {regressed} regressed, {unresolved} unresolved",
            rows.len()
        );
        regressed > 0 || (also_unresolved && unresolved > 0)
    };

    if let Some((a, b)) = &args.compare {
        let rows = compare::compare(&compare::load(a)?, &compare::load(b)?);
        compare::print(&rows);
        return Ok(if failed(&rows, false) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    if args.selfcheck {
        if args.trace {
            return Err("--selfcheck compares end-to-end metrics; it takes no --trace 1".into());
        }
        let runs = args.runs.unwrap_or(10);
        let side = |label: &str| -> Result<Vec<Record>, String> {
            println!("==== selfcheck side {label}");
            Ok(suite(&args, runs)?.iter().map(Record::of).collect())
        };
        let (a, b) = (side("A")?, side("B")?);
        let rows = compare::compare(&a, &b);
        compare::print(&rows);
        return Ok(if failed(&rows, true) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    let results = suite(&args, args.runs.unwrap_or(1))?;
    // A failed operation anywhere is fatal, after every line is printed.
    let correct = results.iter().all(RunResult::correct);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(code) => code,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("cc-benchmark: {message}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
