//! The steadiness command: runs every workload N times, interleaved,
//! each run its own process with its own seed, and reports each
//! end-to-end metric's median, quartiles and range with the sample
//! count, flagging any whose spread exceeds its bound.
//!
//! It also checks what must not vary: the host's thread count, and the
//! deterministic outputs (`ec_f1`, `oh_mae`, the output digest) across
//! the runs of a workload. `--out` saves the summary; `--compare`
//! checks a summary against a saved one, and refuses when the two were
//! measured with different thread counts.

use crate::catalog::{self, Better};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

struct Options {
    runs: usize,
    seconds: u64,
    workloads: Vec<String>,
    seed_base: u64,
    out: Option<String>,
    compare: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{flag}: not a number: {v}"))
        })
    };
    let workloads = match value("--workloads") {
        None => catalog::get()
            .workloads
            .iter()
            .map(|w| w.name.clone())
            .collect(),
        Some(list) => list
            .split(',')
            .map(|n| match crate::Variant::of(n) {
                Some(_) => Ok(n.to_string()),
                None => Err(format!("unknown workload {n:?}")),
            })
            .collect::<Result<_, _>>()?,
    };
    Ok(Options {
        runs: number("--runs", 10)? as usize,
        seconds: number("--seconds", 60)?,
        workloads,
        seed_base: number("--seed-base", 1)?,
        out: value("--out").cloned(),
        compare: value("--compare").cloned(),
    })
}

/// One finished run of one workload.
struct RunResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    nproc: Option<u64>,
    digest: Option<String>,
    /// The run's `perfbench-detail` line: per-iteration figures and the
    /// problems its checks found.
    detail: Value,
}

fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = serde_json::parse(last).map_err(|e| format!("bad result line: {e:?}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let detail = stderr
        .lines()
        .find_map(|l| l.strip_prefix("perfbench-detail "))
        .and_then(|d| serde_json::parse(d).ok())
        .unwrap_or(Value::Null);
    Ok(RunResult {
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        metrics,
        nproc: detail.get("nproc").and_then(Value::as_u64),
        digest: detail
            .get("digest")
            .and_then(Value::as_str)
            .map(str::to_string),
        detail,
    })
}

/// Order statistics of one metric over a set of runs.
struct Summary {
    n: usize,
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
    spread: f64,
}

fn summarize(values: &[f64]) -> Option<Summary> {
    let sorted = stats::sorted(values);
    let (q1, q3) = stats::quartiles(values)?;
    Some(Summary {
        n: values.len(),
        median: stats::median(values)?,
        q1,
        q3,
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        spread: stats::spread(values).unwrap_or(0.0),
    })
}

pub fn main(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench steady: {e}");
            return ExitCode::from(2);
        }
    };
    let host = crate::nproc() as u64;
    let mut results: BTreeMap<String, Vec<RunResult>> = BTreeMap::new();
    let mut problems = Vec::new();
    for i in 0..opts.runs {
        for w in &opts.workloads {
            let seed = opts.seed_base + i as u64;
            match run_once(w, seed, opts.seconds) {
                Ok(r) => {
                    eprintln!(
                        "steady: {} run {}/{} seed {seed}: correct={}",
                        w,
                        i + 1,
                        opts.runs,
                        r.correct
                    );
                    results.entry(w.clone()).or_default().push(r);
                }
                Err(e) => problems.push(format!("{w} seed {seed}: {e}")),
            }
        }
    }

    let mut doc = BTreeMap::new();
    println!(
        "host nproc {host}; {} runs per workload, {} s each, interleaved",
        opts.runs, opts.seconds
    );
    for (workload, runs) in &results {
        if runs.iter().any(|r| r.nproc != Some(host)) {
            problems.push(format!(
                "{workload}: a run reported a different thread count than {host}"
            ));
        }
        for r in runs.iter().filter(|r| !r.correct) {
            problems.push(format!(
                "{workload}: seed {} failed its checks: {}",
                r.detail.get("seed").and_then(Value::as_u64).unwrap_or(0),
                r.detail
                    .get("problems")
                    .and_then(|p| serde_json::to_string(p).ok())
                    .unwrap_or_else(|| "no detail line".into())
            ));
        }
        for deterministic in ["ec_f1", "oh_mae"] {
            let mut values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(deterministic).copied())
                .collect();
            values.dedup();
            if values.len() > 1 {
                problems.push(format!(
                    "{workload}: {deterministic} varies across runs: {values:?}"
                ));
            }
        }
        let mut digests: Vec<&Option<String>> = runs.iter().map(|r| &r.digest).collect();
        digests.dedup();
        if digests.len() > 1 {
            problems.push(format!("{workload}: output digests vary across runs"));
        }
        let why = catalog::get()
            .workloads
            .iter()
            .find(|w| &w.name == workload)
            .map_or("not gated", |w| w.why.as_str());
        println!("\n{workload}: {why}");
        println!(
            "  {:<26} {:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7} {:>6} better",
            "metric", "n", "median", "q1", "q3", "min", "max", "spread", "bound"
        );
        let mut per_metric = BTreeMap::new();
        for m in &catalog::get().end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(&m.name).copied())
                .collect();
            let Some(s) = summarize(&values) else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let flagged = s.spread > bound;
            println!(
                "  {:<26} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>7.3} {:>6} {}{}",
                m.name,
                s.n,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.spread,
                bound,
                m.better.as_str(),
                if flagged {
                    "  SPREAD > BOUND"
                } else if s.spread > bound / 3.0 {
                    "  (> bound/3)"
                } else {
                    ""
                }
            );
            if flagged {
                problems.push(format!(
                    "{workload}: {} spread {:.3} exceeds bound {bound}",
                    m.name, s.spread
                ));
            }
            per_metric.insert(
                m.name.clone(),
                serde_json::json!({
                    "n": s.n, "median": s.median, "q1": s.q1, "q3": s.q3,
                    "min": s.min, "max": s.max, "spread": s.spread, "bound": bound,
                    "values": values,
                }),
            );
        }
        // Each run's detail line, for reading its iterations afterwards.
        per_metric.insert(
            "runs".to_string(),
            Value::Array(runs.iter().map(|r| r.detail.clone()).collect()),
        );
        doc.insert(
            workload.to_string(),
            Value::Object(per_metric.into_iter().collect()),
        );
    }
    let summary = serde_json::json!({
        "nproc": host,
        "runs": opts.runs,
        "seconds": opts.seconds,
        "workloads": Value::Object(doc.into_iter().collect()),
    });

    if let Some(path) = &opts.compare {
        match compare(path, &summary) {
            Ok(lines) => lines.into_iter().for_each(|l| println!("{l}")),
            Err(e) => problems.push(e),
        }
    }
    if let Some(path) = &opts.out {
        let text = serde_json::to_string_pretty(&summary).expect("summary serializes");
        if let Err(e) = std::fs::write(path, text + "\n") {
            problems.push(format!("writing {path}: {e}"));
        }
    }
    for p in &problems {
        println!("FLAG: {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Compares this summary's medians with a saved one, metric by metric;
/// refuses when the two hosts ran different thread counts.
fn compare(path: &str, now: &Value) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let then = serde_json::parse(&text).map_err(|e| format!("parsing {path}: {e:?}"))?;
    let threads = |v: &Value| v.get("nproc").and_then(Value::as_u64);
    if threads(&then) != threads(now) {
        return Err(format!(
            "refusing to compare: {path} was measured with nproc {:?}, this host has {:?}",
            threads(&then),
            threads(now)
        ));
    }
    let median = |doc: &Value, w: &str, m: &str| {
        doc.get("workloads")?
            .get(w)?
            .get(m)?
            .get("median")?
            .as_f64()
    };
    let mut lines = vec![format!("compared with {path} (nproc {:?})", threads(now))];
    let workloads = now
        .get("workloads")
        .and_then(Value::as_object)
        .map(|o| o.keys().cloned().collect::<Vec<_>>())
        .unwrap_or_default();
    for w in &workloads {
        for m in &catalog::get().end_to_end {
            let (Some(a), Some(b)) = (median(&then, w, &m.name), median(now, w, &m.name)) else {
                continue;
            };
            let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
            let worse = match m.better {
                Better::Higher => -change,
                Better::Lower => change,
            };
            let verdict = if worse > m.bound.unwrap_or(0.0) {
                "REGRESSION"
            } else {
                "ok"
            };
            lines.push(format!(
                "  {w:<16} {:<26} {a:>12.4} -> {b:>12.4} ({:+.1}%) {verdict}",
                m.name,
                change * 100.0
            ));
        }
    }
    Ok(lines)
}
