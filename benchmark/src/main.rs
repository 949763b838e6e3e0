//! `xtwig-benchmark` — the ledger of end-to-end and per-layer numbers
//! for the xtwig serving stack. See `README.md` beside `Cargo.toml` for
//! what each workload and metric means; `BENCHMARK.json` at the
//! repository root declares them to the driver.
//!
//! Two ways in, both through `benchmark/run.sh`:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run; the
//!   last line of standard output is the result object.
//! * without `--trace` — the suite: every workload (or `--workload W`)
//!   untraced and traced, `--repeat N` times with seeds `N, N+1, …`.

mod drive;
mod json;
mod layers;
mod metrics;
mod rng;
mod run;
mod spans;
mod stack;
mod stats;
mod suite;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Length of a timed run when `--seconds` is absent; `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 1.0;

const USAGE: &str = "usage: xtwig-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--repeat N] [--smoke] [--out-dir DIR]";

struct Args {
    workload: Option<&'static workload::Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeat: usize,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        repeat: 1,
        smoke: false,
        out_dir: PathBuf::from("target/benchmark"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat needs at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    match (args.trace, args.workload) {
        (Some(trace), Some(workload)) => {
            std::fs::create_dir_all(&args.out_dir).expect("create output directory");
            let result = run::run(&run::RunArgs {
                workload,
                seed: args.seed,
                seconds,
                trace,
                smoke: args.smoke,
                out_dir: args.out_dir,
            });
            result.ledger.print(result.table);
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                result.failed == 0,
                result.attempted,
                result.failed,
                result.ledger.render(result.table)
            );
            ExitCode::SUCCESS
        }
        (Some(_), None) => {
            eprintln!("--trace needs --workload\n{USAGE}");
            ExitCode::from(2)
        }
        (None, workload) => {
            let code = suite::run(&suite::SuiteArgs {
                workload,
                seed: args.seed,
                seconds,
                repeat: args.repeat,
                smoke: args.smoke,
                out_dir: args.out_dir,
            });
            ExitCode::from(code as u8)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = parse_args(&argv("--workload hot_wire --seed 42 --seconds 9 --trace 1")).unwrap();
        assert_eq!(a.workload.map(|w| w.name), Some("hot_wire"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(9.0), Some(true)));
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in
            ["--workload nope", "--trace 2", "--seed x", "--seconds 0", "--repeat 0", "--frob"]
        {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn default_run_length_is_the_declared_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc.get("run_seconds").and_then(json::Value::as_f64), Some(DEFAULT_SECONDS));
    }
}
