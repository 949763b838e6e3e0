//! The suite runner behind `benchmark/run.sh` without `--trace`: every
//! workload untraced and traced, each in a child process of its own
//! (so `peak_rss_mb` is that run's), a results file, the cross-run
//! checks, and `--repeat` spread reporting.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::stats;
use crate::workload::{self, Workload};

pub struct SuiteArgs {
    /// `None` runs all four.
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub smoke: bool,
    pub out_dir: std::path::PathBuf,
}

/// One child run, as read back from its last line.
struct ChildRun {
    workload: &'static str,
    seed: u64,
    trace: bool,
    /// The run's own verdict: no operation failed or answered wrongly.
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl ChildRun {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }
}

/// Fewer timed operations than this make a run's percentiles too thin
/// to cite; the suite fails instead of printing them.
const MIN_OPERATIONS: u64 = 2_000;

fn run_child(
    args: &SuiteArgs,
    w: &'static Workload,
    seed: u64,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| e.to_string())?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{} (trace {}) exited with {status}", w.name, u8::from(trace)));
    }
    let doc = json::parse(&last).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
    let count = |key: &str| doc.get(key).and_then(Value::as_f64).map(|v| v as u64);
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64)?;
            let unit = m.get("unit").and_then(Value::as_str)?;
            Some((name.clone(), value, unit.to_owned()))
        })
        .collect();
    Ok(ChildRun {
        workload: w.name,
        seed,
        trace,
        correct: doc.get("correct").and_then(Value::as_bool).ok_or("result line has no correct")?,
        attempted: count("attempted").ok_or("result line has no attempted")?,
        failed: count("failed").ok_or("result line has no failed")?,
        metrics,
    })
}

fn results_json(args: &SuiteArgs, runs: &[ChildRun]) -> String {
    let body: Vec<String> = runs
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(n, v, u)| {
                    format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}", json::escape(u))
                })
                .collect();
            format!(
                "    {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \
                 \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                r.workload,
                r.seed,
                u8::from(r.trace),
                r.correct,
                r.attempted,
                r.failed,
                metrics.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"nproc\": {},\n  \"seconds\": {},\n  \"smoke\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        crate::run::nproc(),
        args.seconds,
        args.smoke,
        body.join(",\n")
    )
}

/// The cross-run statements the ledger makes about one workload: does
/// the traced decomposition add up to the untraced latency, and does
/// the workload still exercise (or bypass) the mechanism it is for.
fn cross_checks(w: &Workload, untraced: &ChildRun, traced: &ChildRun) {
    let get = |r: &ChildRun, n: &str| r.get(n).unwrap_or(f64::NAN);
    let p50 = get(untraced, "lat_p50_us");
    let sum = get(traced, "trace.door_self_sum_us");
    println!(
        "  {}: traced self times from the door inward sum to {sum:.1} us = {:.2} x untraced lat_p50_us {p50:.1}",
        w.name,
        sum / p50
    );
    // (metric, least, most): the range in which the workload still
    // exercises, or bypasses, what it is for.
    let mechanism: &[(&str, f64, f64)] = match w.name {
        "twig_inproc" => {
            &[("service.result_hit_ratio", 0.0, 0.0), ("storage.hit_ratio", 0.99, 1.0)]
        }
        "hot_wire" => &[("service.result_hit_ratio", 0.9, 1.0)],
        "cold_scan" => &[("storage.misses_per_op", 1.0, f64::INFINITY)],
        _ => &[],
    };
    for &(name, least, most) in mechanism {
        let v = get(traced, name);
        let verdict = if (least..=most).contains(&v) { "holds" } else { "VIOLATED" };
        println!("  {}: mechanism {name} in [{least}, {most}]: {v:.4} {verdict}", w.name);
    }
}

/// Spread of every end-to-end metric over the repeats of one workload.
fn spread_report(w: &Workload, runs: &[&ChildRun]) {
    println!(
        "## {}: {} untraced runs, seeds {:?}",
        w.name,
        runs.len(),
        runs.iter().map(|r| r.seed).collect::<Vec<_>>()
    );
    println!(
        "  {:<22} {:>14} {:>14} {:>14} {:>10} {:>7}",
        "metric", "median", "q1", "q3", "range/med", "bound"
    );
    for d in END_TO_END {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.get(d.name)).collect();
        if values.len() < 2 {
            continue;
        }
        let m = stats::median(&values);
        let (q1, q3) = stats::quartiles(&values);
        let rel = stats::range(&values) / m;
        let verdict = if rel > d.bound { "unresolved" } else { "within bound" };
        println!(
            "  {:<22} {m:>14.4} {q1:>14.4} {q3:>14.4} {rel:>10.4} {:>7.3}  {verdict}",
            d.name, d.bound
        );
    }
}

/// Runs the suite; returns the process exit code.
pub fn run(args: &SuiteArgs) -> i32 {
    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => workload::ALL.iter().collect(),
    };
    std::fs::create_dir_all(&args.out_dir).expect("create output directory");
    let mut runs = Vec::new();
    let mut bad = false;
    for rep in 0..args.repeat {
        let seed = args.seed + rep as u64;
        for &w in &selected {
            let mut pair = Vec::new();
            for trace in [false, true] {
                match run_child(args, w, seed, trace) {
                    Ok(r) => {
                        println!(
                            "== {} seed {seed} trace {}: attempted {}, failed {}",
                            w.name,
                            u8::from(trace),
                            r.attempted,
                            r.failed
                        );
                        if r.failed > 0 || !r.correct {
                            println!("  FAIL: failed_frac > 0");
                            bad = true;
                        }
                        if !trace && !args.smoke && r.attempted < MIN_OPERATIONS {
                            println!("  FAIL: fewer than {MIN_OPERATIONS} operations");
                            bad = true;
                        }
                        pair.push(r);
                    }
                    Err(e) => {
                        println!("  FAIL: {e}");
                        bad = true;
                    }
                }
            }
            if let [untraced, traced] = &pair[..] {
                cross_checks(w, untraced, traced);
            }
            runs.extend(pair);
        }
    }
    if args.repeat > 1 {
        for &w in &selected {
            let of: Vec<&ChildRun> =
                runs.iter().filter(|r| r.workload == w.name && !r.trace).collect();
            spread_report(w, &of);
        }
    }
    write_results(&args.out_dir.join("results.json"), &results_json(args, &runs));
    i32::from(bad)
}

fn write_results(path: &Path, text: &str) {
    match std::fs::write(path, text) {
        Ok(()) => println!("[results written to {}]", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
