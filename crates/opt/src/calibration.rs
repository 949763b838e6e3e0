//! Cost-model calibration constants.
//!
//! The model in [`crate::cost`] prices every strategy in *estimated
//! page reads*: B+-tree descents, leaf-page scans, and point probes
//! (backward-link walks, join-index lookups, bound-index probes). The
//! constants below weight those components so the estimates track the
//! *measured* cold-cache physical reads of the real structures.
//!
//! They are judged by the work record, `tests/golden/work_*.txt`: each
//! strategy line of each request pairs the estimate (`est=`) with the
//! cold physical reads (`physical=`) under 64-frame pools, and each
//! corpus ends with a summary line of `auto`'s picks against those
//! reads, its regret, and the geometric-mean factor by which the
//! estimates miss the reads. A change to any constant shows as a diff of
//! those files, summary lines first, and ROADMAP item 16, Step C refits them there, one
//! constant per change.

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

/// The constants in force: chosen so that the *ranking* picks the
/// strategy with the fewest cold physical reads, or one within 2x of
/// it, on at least 80% of each recorded corpus's requests — the bar the
/// work record's tests assert on its summary lines.
pub const DEFAULT: Calibration =
    Calibration { descent_page: 1.0, scan_page: 1.0, walk_page: 0.5, inlj_probe_page: 1.0 };

impl Default for Calibration {
    fn default() -> Self {
        DEFAULT
    }
}
