//! Cost-based index-strategy selection for the twig engine.
//!
//! The paper's evaluation (Figs. 9–13) shows that no single index
//! configuration wins everywhere: ROOTPATHS dominates single-path and
//! recursive twigs, the Index Fabric ties it on fully-specified valued
//! paths, DATAPATHS wins when an index-nested-loop plan applies, and the
//! Edge family pays per-step walks that grow with candidate counts. A
//! production service should not require clients to have read the paper
//! to get the fast path — this crate operationalizes those findings as a
//! cost model, the way a relational optimizer folds access-path choice
//! into plan selection.
//!
//! The crate sits *below* `xtwig-core` in the dependency graph so the
//! engine itself can resolve [`Strategy::Auto`]; core supplies the
//! inputs through small data types:
//!
//! * [`Strategy`] — the seven concrete index configurations plus the
//!   [`Strategy::Auto`] pseudo-strategy the optimizer resolves.
//! * [`CardinalitySource`] — the statistics interface (implemented by
//!   core's `PathStats`, whose path table doubles as the DataGuide's
//!   path catalog): exact path counts, suffix sums, tag counts, mean
//!   depth. A literal's instances are counted in the index that holds
//!   them and handed in with the query.
//! * [`Catalog`] / [`TreeProfile`] — physical shape of every built
//!   structure (pages, rows, B+-tree heights), measured from the built
//!   engine or a reopened index file.
//! * [`TwigCostInput`] — the planned query: its PCsubpath cover (with
//!   each literal's instances), how many rows feed `//` stitches, and
//!   the index-nested-loop alternative when the planner chose one.
//! * [`rank`] — the model itself: estimated page reads per strategy,
//!   sorted cheapest first, as [`StrategyChoice`] rows an EXPLAIN can
//!   print.
//!
//! The constants in [`calibration`] are judged by the work record in
//! `tests/golden/`: every strategy line pairs the model's estimate
//! (`est=`) with the cold physical reads it prices (`physical=`), and
//! each corpus's summary line counts how often `auto` picked the
//! fewest reads, or within 2x of them, its regret, and by what factor
//! the estimates miss the reads. A refit of the
//! constants (ROADMAP item 16, Step C) is made there, with the golden
//! diff as its claim.

pub mod calibration;
pub mod cost;
pub mod estimate;
pub mod strategy;

pub use calibration::Calibration;
pub use cost::{
    rank, Catalog, EdgeProfile, InljProbe, StrategyChoice, SubpathInput, TableSetProfile,
    TreeProfile, TwigCostInput,
};
pub use estimate::{leaf_candidates, pattern_matches, CardinalitySource};
pub use strategy::{ParseStrategyError, Strategy, Structure};
