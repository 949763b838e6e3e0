//! `bench_check` — the CI bench-regression gate.
//!
//! Compares a fresh `CRITERION_STUB_JSON` recording (the JSON-lines
//! file the vendored criterion stub appends per benchmark) against the
//! committed `BENCH_baseline.json` snapshot, and exits non-zero when
//! any shared benchmark's `min_ns` regressed by more than the
//! tolerance factor.
//!
//! The tolerance is deliberately generous (default 10x): CI runs the
//! stub in `--quick` mode (3 samples) on shared runners whose clocks
//! and load differ wildly from the recording host, so the gate exists
//! to catch *gross* regressions — an accidentally quadratic probe path,
//! a lost index fast path — not single-digit-percent drift. `min_ns` is
//! compared (not mean) because the minimum is the most
//! noise-resistant statistic a 3-sample quick run produces.
//!
//! ```text
//! bench_check --baseline BENCH_baseline.json --current current.jsonl \
//!             [--tolerance 10.0] [--min-matches 3]
//! ```
//!
//! Both inputs are parsed with a dependency-free scanner that extracts
//! `(group, bench, min_ns)` triples from any mix of pretty-printed
//! JSON and JSON lines — the two formats the repo produces.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One benchmark measurement extracted from a results file.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    group: String,
    bench: String,
    min_ns: f64,
}

/// Extracts the string value following `"key":` (or `"key": `) at or
/// after `from`, returning `(value, end_pos)`.
fn find_string_field(text: &str, key: &str, from: usize, until: usize) -> Option<(String, usize)> {
    let needle = format!("\"{key}\"");
    let start = text[from..until].find(&needle)? + from + needle.len();
    let colon = text[start..until].find(':')? + start + 1;
    let open = text[colon..until].find('"')? + colon + 1;
    let close = text[open..until].find('"')? + open;
    Some((text[open..close].to_owned(), close + 1))
}

/// Extracts the numeric value following `"key":` at or after `from`.
fn find_number_field(text: &str, key: &str, from: usize, until: usize) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let start = text[from..until].find(&needle)? + from + needle.len();
    let colon = text[start..until].find(':')? + start + 1;
    let rest = &text[colon..until];
    let trimmed = rest.trim_start();
    let end = trimmed
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(trimmed.len());
    trimmed[..end].parse().ok()
}

/// Scans a results file for every object carrying `group`, `bench`, and
/// `min_ns` fields. Works on both the pretty-printed snapshot (objects
/// inside a `"results": [...]` array) and the stub's JSON-lines output.
fn parse_samples(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(rel) = text[pos..].find("\"group\"") {
        let start = pos + rel;
        // The enclosing object ends at the next '}' after min_ns; bound
        // the field search to the next "group" occurrence (or EOF) so a
        // malformed object cannot pair fields across entries.
        let until =
            text[start + 7..].find("\"group\"").map(|r| start + 7 + r).unwrap_or(text.len());
        let Some((group, after_group)) = find_string_field(text, "group", start, until) else {
            break;
        };
        let bench = find_string_field(text, "bench", after_group, until);
        let min_ns = find_number_field(text, "min_ns", after_group, until);
        if let (Some((bench, _)), Some(min_ns)) = (bench, min_ns) {
            out.push(Sample { group, bench, min_ns });
        }
        pos = until.max(start + 7);
    }
    out
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|p| args.get(p + 1)).cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path =
        arg_value(&args, "--baseline").unwrap_or_else(|| "BENCH_baseline.json".into());
    let Some(current_path) = arg_value(&args, "--current") else {
        eprintln!(
            "usage: bench_check --baseline BENCH_baseline.json --current current.jsonl \
             [--tolerance 10.0] [--min-matches 3]"
        );
        return ExitCode::from(2);
    };
    let tolerance: f64 =
        arg_value(&args, "--tolerance").and_then(|v| v.parse().ok()).unwrap_or(10.0);
    let min_matches: usize =
        arg_value(&args, "--min-matches").and_then(|v| v.parse().ok()).unwrap_or(3);

    let read = |path: &str| -> Option<String> {
        match std::fs::read_to_string(path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("bench_check: cannot read {path}: {e}");
                None
            }
        }
    };
    let (Some(baseline_text), Some(current_text)) = (read(&baseline_path), read(&current_path))
    else {
        return ExitCode::FAILURE;
    };

    let baseline: BTreeMap<(String, String), f64> =
        parse_samples(&baseline_text).into_iter().map(|s| ((s.group, s.bench), s.min_ns)).collect();
    let current = parse_samples(&current_text);
    if baseline.is_empty() {
        eprintln!("bench_check: no samples parsed from baseline {baseline_path}");
        return ExitCode::FAILURE;
    }

    let mut matches = 0usize;
    let mut regressions = Vec::new();
    println!("bench_check: tolerance {tolerance}x vs {baseline_path}");
    for s in &current {
        let Some(&base) = baseline.get(&(s.group.clone(), s.bench.clone())) else {
            continue; // new bench: nothing to gate against
        };
        matches += 1;
        let ratio = if base > 0.0 { s.min_ns / base } else { 0.0 };
        let verdict = if ratio > tolerance { "REGRESSED" } else { "ok" };
        println!(
            "  {:<40} base {:>12.1} ns  now {:>12.1} ns  ratio {:>6.2}x  {verdict}",
            format!("{}/{}", s.group, s.bench),
            base,
            s.min_ns,
            ratio
        );
        if ratio > tolerance {
            regressions.push((s.clone(), ratio));
        }
    }

    if matches < min_matches {
        eprintln!(
            "bench_check: only {matches} benchmark(s) matched the baseline (need {min_matches}); \
             the gate would be vacuous — failing"
        );
        return ExitCode::FAILURE;
    }
    if !regressions.is_empty() {
        eprintln!("\nbench_check: {} gross regression(s) beyond {tolerance}x:", regressions.len());
        for (s, ratio) in &regressions {
            eprintln!("  {}/{}: {:.2}x", s.group, s.bench, ratio);
        }
        return ExitCode::FAILURE;
    }
    println!("bench_check: {matches} benchmark(s) within {tolerance}x of baseline");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_jsonl_and_pretty_snapshot() {
        let jsonl = r#"{"group":"g1","bench":"RP/Q1","min_ns":123.4,"mean_ns":130.0,"median_ns":125.0,"samples":3,"iters_per_sample":10}
{"group":"g1","bench":"DP/Q1","min_ns":88.0,"mean_ns":90.0,"median_ns":89.0,"samples":3,"iters_per_sample":10}"#;
        let got = parse_samples(jsonl);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].group, "g1");
        assert_eq!(got[0].bench, "RP/Q1");
        assert!((got[0].min_ns - 123.4).abs() < 1e-9);

        let pretty = r#"{
  "recorded": "2026-01-01",
  "host_parallelism": 1,
  "results": [
    {
      "group": "fig11_single_path",
      "bench": "RP/Q1x",
      "min_ns": 2743.6,
      "mean_ns": 2904.9
    },
    {
      "group": "fig11_single_path",
      "bench": "DP/Q1x",
      "min_ns": 2973.0,
      "mean_ns": 3107.3
    }
  ]
}"#;
        let got = parse_samples(pretty);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].bench, "DP/Q1x");
        assert!((got[1].min_ns - 2973.0).abs() < 1e-9);
    }

    #[test]
    fn ignores_objects_without_min_ns() {
        let text = r#"{"group":"g","bench":"a"} {"group":"g","bench":"b","min_ns":1.0}"#;
        let got = parse_samples(text);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].bench, "b");
    }
}
