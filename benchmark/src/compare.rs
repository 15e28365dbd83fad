//! `--compare A B`: two sets of runs, workload by workload and metric by
//! metric, against the bounds the benchmark fixes.

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::run::RunResult;
use crate::stats::{median, spread};

/// One run's end-to-end metrics.
pub struct Record {
    pub workload: String,
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    pub fn of(run: &RunResult) -> Self {
        Self {
            workload: run.workload.clone(),
            metrics: run
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.value))
                .collect(),
        }
    }
}

/// The line `--out` appends per run: the result line plus what identifies
/// the run.
pub fn record_line(run: &RunResult, trace: bool) -> String {
    Value::Obj(vec![
        ("workload".into(), Value::Str(run.workload.clone())),
        ("seed".into(), Value::Num(run.seed as f64)),
        ("trace".into(), Value::Num(f64::from(u8::from(trace)))),
        ("result".into(), run.to_json()),
    ])
    .to_json()
}

/// Reads a file of record lines (one JSON object per line, as `--out`
/// writes them).
pub fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let doc = json::parse(line).map_err(|e| bad(&e))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("no result.metrics"))?;
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                value
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| bad("metric without a value"))
            })
            .collect::<Result<_, _>>()?;
        records.push(Record {
            workload: workload.to_string(),
            metrics,
        });
    }
    Ok(records)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot be told apart: neither "unchanged" nor "regressed".
    Unresolved,
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b - a) / a`; positive is worse, every metric being lower-is-better.
    pub change: f64,
    /// The wider of the two sides' interquartile spreads, as a share of the
    /// median; `None` with fewer than two runs on a side.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
        .collect()
}

/// One row per workload and end-to-end metric both sides measured.
pub fn compare(a: &[Record], b: &[Record]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in crate::api::WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(a, workload, m.name), values(b, workload, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma;
            let spread = (va.len() >= 2 && vb.len() >= 2).then(|| spread(&va).max(spread(&vb)));
            // As the driver does, set-up time is judged on medians alone.
            let noisy = m.name != "setup_s" && spread.is_some_and(|s| s > m.bound);
            let verdict = if noisy {
                Verdict::Unresolved
            } else if change > m.bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.name,
                a: ma,
                b: mb,
                change,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    rows
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for r in rows {
        let spread = r
            .spread
            .map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0));
        println!(
            "{:<16} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>9} {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.change * 100.0,
            spread,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
}

pub fn count(rows: &[Row], verdict: Verdict) -> usize {
    rows.iter().filter(|r| r.verdict == verdict).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(workload: &str, metric: &str, values: &[f64]) -> Vec<Record> {
        values
            .iter()
            .map(|v| Record {
                workload: workload.to_string(),
                metrics: vec![(metric.to_string(), *v)],
            })
            .collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.00];
        // virt_time_s has a 3 % bound.
        let a = runs("fig9_1to1", "virt_time_s", &steady);
        let same = compare(&a, &runs("fig9_1to1", "virt_time_s", &steady));
        assert_eq!(same[0].verdict, Verdict::Ok);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        let worse = compare(&a, &runs("fig9_1to1", "virt_time_s", &slower));
        assert_eq!(worse[0].verdict, Verdict::Regressed);
        assert!((worse[0].change - 0.05).abs() < 1e-9);
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.5).collect();
        assert_eq!(
            compare(&a, &runs("fig9_1to1", "virt_time_s", &faster))[0].verdict,
            Verdict::Ok
        );
        // A side that wanders by more than the bound resolves nothing.
        let noisy = compare(
            &a,
            &runs("fig9_1to1", "virt_time_s", &[0.8, 1.3, 1.0, 0.9, 1.2]),
        );
        assert_eq!(noisy[0].verdict, Verdict::Unresolved);
        // Set-up time is judged on medians alone.
        let a = runs("fig9_1to1", "setup_s", &[0.8, 1.3, 1.0, 0.9, 1.2]);
        assert_eq!(compare(&a, &a)[0].verdict, Verdict::Ok);
        // A metric only one side measured has no row; one run has no spread.
        assert!(compare(&a, &runs("ckpt_write", "setup_s", &[1.0])).is_empty());
        let single = compare(
            &runs("ckpt_write", "setup_s", &[1.0]),
            &runs("ckpt_write", "setup_s", &[1.5]),
        );
        assert_eq!(
            (single[0].spread, single[0].verdict),
            (None, Verdict::Regressed)
        );
    }

    #[test]
    fn record_lines_round_trip_through_a_file() {
        let run = RunResult {
            workload: "ckpt_write".into(),
            seed: 7,
            attempted: 10,
            failed: 0,
            metrics: vec![crate::run::Metric {
                name: "virt_time_s",
                value: 0.123456789,
                unit: "s",
                detail: String::new(),
            }],
            tracer: None,
        };
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("out/ is creatable");
        let path = dir.join(format!("compare-test-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            format!(
                "{}\n\n{}\n",
                record_line(&run, false),
                record_line(&run, false)
            ),
        )
        .expect("temp file is writable");
        let records = load(path.to_str().expect("utf-8 path")).expect("loads");
        std::fs::remove_file(&path).expect("temp file is removable");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].workload, "ckpt_write");
        assert_eq!(
            records[0].metrics,
            vec![("virt_time_s".to_string(), 0.123456789)]
        );
        assert!(load("/nonexistent/x.jsonl").is_err());
    }
}
