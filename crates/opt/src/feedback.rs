//! Optimizer feedback: observed-vs-estimated cost samples.
//!
//! The cost model's constants ([`crate::calibration`]) are fitted
//! offline by `fig_optimizer`. `xtwig advise` checks how the estimates
//! track reality on the queries it is given: it runs each under every
//! built strategy and pairs the answer's physical reads with the
//! optimizer's estimate for that strategy as one [`CalibrationSample`].
//! [`AdviseReport::from_samples`] aggregates them: per-strategy median
//! actual/estimated ratios with the calibration constant each one
//! would rescale, plus the worst individual misestimates. The report is
//! advisory only — it never mutates [`crate::Calibration`]; apply a
//! suggestion by editing the constants and re-running `fig_optimizer`
//! to confirm the fit.

use crate::cost::StrategyChoice;
use crate::strategy::Strategy;
use std::fmt;

/// One execution's estimate-vs-reality record.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSample {
    /// The XPath the execution answered.
    pub xpath: String,
    /// The strategy that actually executed.
    pub strategy: Strategy,
    /// The cost model's estimated page reads for that strategy.
    pub est_reads: f64,
    /// Physical page reads the execution actually performed.
    pub actual_reads: u64,
}

impl CalibrationSample {
    /// Pairs the cost model's estimate `choice` for `xpath` with the
    /// physical reads an execution under its strategy paid.
    pub fn new(xpath: &str, choice: &StrategyChoice, actual_reads: u64) -> Self {
        CalibrationSample {
            xpath: xpath.to_owned(),
            strategy: choice.strategy,
            est_reads: choice.est_page_reads,
            actual_reads,
        }
    }

    /// Smoothed actual/estimated ratio: `(actual + 1) / (est + 1)`.
    ///
    /// The +1 on both sides keeps warm-cache executions (0 actual
    /// reads) and trivially cheap estimates from collapsing to 0 or
    /// dividing by ~0; a perfectly calibrated sample still lands at 1.
    pub fn ratio(&self) -> f64 {
        (self.actual_reads as f64 + 1.0) / (self.est_reads.max(0.0) + 1.0)
    }

    /// How wrong the estimate is, direction-free: `max(r, 1/r)`.
    pub fn error(&self) -> f64 {
        let r = self.ratio();
        r.max(1.0 / r)
    }
}

/// The calibration constant a strategy's misestimate would rescale:
/// leaf-scan strategies price in scanned pages, the Edge family in
/// per-candidate walk probes.
fn constant_for(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::RootPaths | Strategy::DataPaths | Strategy::Asr => "scan_page",
        Strategy::Edge
        | Strategy::DataGuideEdge
        | Strategy::IndexFabricEdge
        | Strategy::JoinIndex => "walk_page",
        Strategy::Auto => "-",
    }
}

/// Per-strategy aggregate of the recorded samples.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyAdvice {
    /// Strategy the samples executed under.
    pub strategy: Strategy,
    /// Number of samples.
    pub samples: usize,
    /// Median actual/estimated page-read ratio (1.0 = calibrated).
    pub median_ratio: f64,
    /// Which calibration constant this ratio would rescale.
    pub constant: &'static str,
    /// Suggested multiplier for that constant (the median ratio).
    pub suggested_scale: f64,
}

/// What `xtwig advise` prints: ranked misestimates and suggested
/// constant adjustments, worst first.
#[derive(Debug, Clone, PartialEq)]
pub struct AdviseReport {
    /// Per-strategy aggregates, most misestimated first.
    pub per_strategy: Vec<StrategyAdvice>,
    /// The individually worst samples, most wrong first.
    pub worst: Vec<CalibrationSample>,
}

impl AdviseReport {
    /// Aggregates `samples` into per-strategy advice plus the `worst`
    /// most wrong individual samples.
    pub fn from_samples(samples: &[CalibrationSample], worst: usize) -> Self {
        let mut per_strategy = Vec::new();
        for s in Strategy::ALL {
            let mut ratios: Vec<f64> =
                samples.iter().filter(|x| x.strategy == s).map(|x| x.ratio()).collect();
            if ratios.is_empty() {
                continue;
            }
            ratios.sort_by(|a, b| a.total_cmp(b));
            let median = ratios[ratios.len() / 2];
            per_strategy.push(StrategyAdvice {
                strategy: s,
                samples: ratios.len(),
                median_ratio: median,
                constant: constant_for(s),
                suggested_scale: median,
            });
        }
        per_strategy.sort_by(|a, b| {
            let err = |x: &StrategyAdvice| x.median_ratio.max(1.0 / x.median_ratio);
            err(b).total_cmp(&err(a))
        });
        let mut ranked = samples.to_vec();
        ranked.sort_by(|a, b| b.error().total_cmp(&a.error()));
        ranked.truncate(worst);
        AdviseReport { per_strategy, worst: ranked }
    }
}

impl fmt::Display for AdviseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.per_strategy.is_empty() {
            return writeln!(f, "no executions to compare");
        }
        writeln!(
            f,
            "per-strategy estimate accuracy (ratio = actual/estimated physical reads):\n\
             {:<8} {:>8} {:>13}   suggested adjustment",
            "strategy", "samples", "median ratio"
        )?;
        for a in &self.per_strategy {
            writeln!(
                f,
                "{:<8} {:>8} {:>12.2}x   {} \u{00d7}{:.2}",
                a.strategy.label(),
                a.samples,
                a.median_ratio,
                a.constant,
                a.suggested_scale
            )?;
        }
        writeln!(f, "worst misestimates:")?;
        for s in &self.worst {
            writeln!(
                f,
                "{:>6.1}x  {:<8} est={:.1} actual={}  {}",
                s.error(),
                s.strategy.label(),
                s.est_reads,
                s.actual_reads,
                s.xpath
            )?;
        }
        write!(
            f,
            "(advisory only: apply by editing crates/opt/src/calibration.rs \
             and re-running fig_optimizer)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(strategy: Strategy, est: f64, actual: u64) -> CalibrationSample {
        let xpath = format!("//a[b='{actual}']");
        CalibrationSample { xpath, strategy, est_reads: est, actual_reads: actual }
    }

    #[test]
    fn ratio_is_smoothed_and_direction_free() {
        assert_eq!(sample(Strategy::RootPaths, 0.0, 0).ratio(), 1.0);
        let over = sample(Strategy::RootPaths, 1.0, 9); // 10/2 = 5x under-estimated
        assert_eq!(over.ratio(), 5.0);
        let under = sample(Strategy::RootPaths, 9.0, 1); // 2/10 = 0.2x over-estimated
        assert!((under.error() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn advise_aggregates_per_strategy_and_ranks_worst() {
        let mut samples: Vec<_> =
            [1u64, 3, 9].map(|actual| sample(Strategy::RootPaths, 1.0, actual)).into(); // ratios 1, 2, 5
        samples.push(sample(Strategy::Edge, 19.0, 0)); // 0.05x — most wrong
        let report = AdviseReport::from_samples(&samples, 2);
        assert_eq!(report.per_strategy.len(), 2);
        // Edge's 20x error outranks RP's median 2x.
        assert_eq!(report.per_strategy[0].strategy, Strategy::Edge);
        assert_eq!(report.per_strategy[0].constant, "walk_page");
        let rp = report.per_strategy.iter().find(|a| a.strategy == Strategy::RootPaths).unwrap();
        assert_eq!(rp.samples, 3);
        assert_eq!(rp.median_ratio, 2.0);
        assert_eq!(rp.constant, "scan_page");
        assert_eq!(report.worst.len(), 2);
        assert_eq!(report.worst[0].strategy, Strategy::Edge);
        let text = report.to_string();
        assert!(text.contains("scan_page"));
        assert!(text.contains("worst misestimates"));
        assert!(text.contains("//a[b='0']"), "a misestimate names its XPath:\n{text}");
    }

    #[test]
    fn no_samples_advise_nothing() {
        let report = AdviseReport::from_samples(&[], 5);
        assert!(report.per_strategy.is_empty());
        assert!(report.to_string().contains("no executions"));
    }
}
