//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset of the criterion 0.5 API the bench targets use
//! (`Criterion::benchmark_group`, `BenchmarkGroup::{sample_size,
//! measurement_time, warm_up_time, bench_function, bench_with_input,
//! finish}`, `BenchmarkId`, `Bencher::iter`, `black_box`,
//! `criterion_group!`, `criterion_main!`) as a plain wall-clock harness:
//! each benchmark is warmed up, then timed for the configured number of
//! samples, and min/mean/median are printed. `--quick` or
//! `$CRITERION_STUB_QUICK` caps sampling so CI smoke runs stay fast.

use std::fmt;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark within a group, e.g. `RP/Q4x`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        let mut id = function_name.into();
        let _ = write!(id, "/{parameter}");
        BenchmarkId { id }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Top-level harness handle, one per `criterion_group!` function.
pub struct Criterion {
    quick: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var_os("CRITERION_STUB_QUICK").is_some();
        Criterion { quick }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        let quick = self.quick;
        println!("\n## bench group: {name}");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(300),
            quick,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let mut group = self.benchmark_group("default");
        group.run_one(id.into(), f);
        self
    }
}

/// A named group of related benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'c> {
    _criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    quick: bool,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.warm_up_time = t;
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        self.run_one(id.into(), f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.run_one(id.into(), |b| f(b, input));
        self
    }

    pub fn finish(self) {}

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, id: BenchmarkId, mut f: F) {
        let (samples, warm_up, measurement) = if self.quick {
            (3.min(self.sample_size), Duration::from_millis(20), Duration::from_millis(60))
        } else {
            (self.sample_size, self.warm_up_time, self.measurement_time)
        };

        // Warm-up: run the routine until the warm-up budget is spent, and
        // learn how many iterations fit in one sample.
        let mut bencher = Bencher { iters: 1, elapsed: Duration::ZERO };
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        let mut warm_time = Duration::ZERO;
        while warm_start.elapsed() < warm_up {
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            warm_iters += bencher.iters;
            warm_time += bencher.elapsed;
        }
        let per_iter = if warm_iters > 0 && !warm_time.is_zero() {
            warm_time / warm_iters as u32
        } else {
            Duration::from_nanos(1)
        };
        let budget_per_sample = measurement / samples as u32;
        let iters_per_sample =
            (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 20) as u64;

        let mut sample_ns: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            bencher.iters = iters_per_sample;
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            sample_ns.push(bencher.elapsed.as_nanos() as f64 / iters_per_sample as f64);
        }
        sample_ns.sort_by(|a, b| a.total_cmp(b));
        let min = sample_ns[0];
        let median = sample_ns[sample_ns.len() / 2];
        let mean = sample_ns.iter().sum::<f64>() / sample_ns.len() as f64;

        println!(
            "{:<40} min {:>12}  mean {:>12}  median {:>12}  ({} samples x {} iters)",
            format!("{}/{}", self.name, id.id),
            fmt_ns(min),
            fmt_ns(mean),
            fmt_ns(median),
            samples,
            iters_per_sample,
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Passed to the benchmark closure; `iter` times the routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed += start.elapsed();
    }
}

/// Declares a function that runs each listed benchmark target.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running each listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_reports() {
        let mut c = Criterion { quick: true };
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        let mut calls = 0u64;
        group.bench_function("counting", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        group.finish();
        assert!(calls > 0);
    }

    #[test]
    fn benchmark_id_formats() {
        let id = BenchmarkId::new("RP", "Q4x");
        assert_eq!(id.id, "RP/Q4x");
    }
}
