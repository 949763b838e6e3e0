//! `--smoke`: all four workloads, untraced and traced, at scale 0.005
//! with 0.2 s windows — the whole harness end to end in seconds.

use std::process::Command;
use std::time::Instant;

#[test]
fn smoke_suite_runs_every_workload_both_ways() {
    let out = std::env::temp_dir().join(format!("xtwig-benchmark-smoke-{}", std::process::id()));
    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_xtwig-benchmark"))
        .arg("--smoke")
        .arg("--out-dir")
        .arg(&out)
        .output()
        .expect("run the benchmark binary");
    let elapsed = started.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "smoke suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    for workload in ["twig_inproc", "hot_wire", "cold_scan", "read_write"] {
        for trace in [0, 1] {
            let header = format!("== {workload} seed 1 trace {trace}: attempted");
            assert!(stdout.contains(&header), "no report for {workload} trace {trace}:\n{stdout}");
        }
        let spans = out.join(format!("{workload}.spans.jsonl"));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        assert!(text.lines().count() > 200, "{workload}: too few spans");
        assert!(text.lines().last().is_some_and(|l| l.starts_with("{\"counts\"")));
    }
    assert!(!stdout.contains("FAIL"), "a run failed:\n{stdout}");
    assert!(out.join("results.json").is_file());
    assert!(elapsed.as_secs() < 20, "smoke suite took {elapsed:?}");
    let _ = std::fs::remove_dir_all(&out);
}
