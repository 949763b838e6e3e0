//! Cost-model calibration constants.
//!
//! The model in [`crate::cost`] prices every strategy in *estimated
//! page reads*: B+-tree descents, leaf-page scans, and point probes
//! (backward-link walks, join-index lookups, bound-index probes). The
//! constants below weight those components so the estimates track the
//! *measured* cold-cache physical reads of the real structures.
//!
//! They are derived by the `fig_optimizer` harness in `crates/bench`,
//! which replays the suite corpora (fig1, multi-document, XMark, DBLP,
//! and the skewed-value corpus) across every built strategy, prints
//! estimated-vs-actual page reads per query, and prints the
//! per-component ratios a recalibration should adopt. Re-run it after
//! changing page layout, codecs, or probe patterns:
//!
//! ```text
//! cargo run --release -p xtwig-bench --bin fig_optimizer
//! ```

/// Component weights of the physical cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Pages charged per internal B+-tree level on the first descent
    /// into a tree. Cold, internal pages are read once and then shared
    /// by every later probe of the same tree, so descents are charged
    /// per *tree touched*, not per probe.
    pub descent_page: f64,
    /// Pages charged per estimated leaf page of a range scan
    /// (`rows / rows-per-page`, from the structure's measured shape).
    pub scan_page: f64,
    /// Pages charged per point probe (Edge backward-link step, Join
    /// Index lookup) *before* the structure-size cap. Below 1.0 because
    /// probes for related candidates land on shared leaf pages.
    pub walk_page: f64,
    /// Pages charged per DATAPATHS BoundIndex probe in an
    /// index-nested-loop plan, before the cap.
    pub inlj_probe_page: f64,
}

/// Constants fitted by `fig_optimizer` against the suite corpora
/// (XMark scale 0.01, DBLP scale 0.01, fig1, multi-document, skew):
/// chosen so the per-strategy estimated/actual page-read ratio medians
/// sit near 1 and, more importantly, so the *ranking* reproduces the
/// measured-best strategy (or one within 2x of it) on ≥ 80% of the
/// replayed queries — the bar `tests/optimizer.rs` asserts.
pub const DEFAULT: Calibration =
    Calibration { descent_page: 1.0, scan_page: 1.0, walk_page: 0.5, inlj_probe_page: 1.0 };

impl Default for Calibration {
    fn default() -> Self {
        DEFAULT
    }
}
