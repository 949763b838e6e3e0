//! The per-strategy physical cost model.
//!
//! For each built strategy the model prices a planned twig in estimated
//! page reads, mirroring how the engine actually executes it
//! (see `xtwig-core`'s `engine::scan_subpath` and the §3 stitch phase):
//!
//! * **RP / DP** — one B+-tree range probe per PCsubpath (descent +
//!   leaf pages holding the matches). For each step the planner chose
//!   to answer by BoundIndex probes (`xtwig-core`'s `plan::price_step`),
//!   DATAPATHS instead pays one probe per distinct head.
//! * **Edge** — one value-index probe for the leaf candidates, then a
//!   backward-link walk per candidate per step (§5.2.1's join chain).
//! * **DG+Edge** — a DataGuide probe for anchored structural paths, an
//!   Edge value probe for the constant, and walks only when interior
//!   ids are consumed; `//`-headed patterns fall back to the Edge chain.
//! * **IF+Edge** — one fabric probe for fully-specified valued paths
//!   (the Fig. 11 case); anything else falls back to the Edge chain.
//! * **ASR** — one probe per matching path table, scanning the
//!   value-prefixed rows of each.
//! * **JI** — Edge value probe for constants, then one join-index
//!   lookup per candidate per matching expression (per interior step
//!   when interior ids are needed).
//!
//! Two cross-cutting terms make the Fig. 12/13 orderings come out:
//! point probes are capped at the probed structure's page count (cold
//! physical reads cannot exceed the pages that exist), and strategies
//! whose matches do not carry full root IdLists (the Edge family) pay
//! an ancestor-recovery walk per row that feeds a `//` stitch, which is
//! exactly why ROOTPATHS wins recursive twigs in the paper.

use crate::calibration::Calibration;
use crate::estimate::{leaf_candidates, pattern_matches, CardinalitySource};
use crate::strategy::{Strategy, Structure};
use xtwig_xml::TagId;

/// Measured shape of one B+-tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeProfile {
    /// Total pages (internal + leaf).
    pub pages: u64,
    /// Stored entries.
    pub rows: u64,
    /// Levels above the leaves (0 for a single-page tree).
    pub height: u32,
}

impl TreeProfile {
    /// Entries per page, floored at 1 to keep divisions sane.
    pub fn rows_per_page(&self) -> f64 {
        (self.rows as f64 / self.pages.max(1) as f64).max(1.0)
    }

    /// Estimated leaf pages holding `rows` entries, capped at the
    /// tree's total size and weighted by the calibration's scan-page
    /// factor.
    fn leaf_pages(&self, rows: f64, cal: &Calibration) -> f64 {
        (rows / self.rows_per_page()).ceil().min(self.pages as f64) * cal.scan_page
    }

    /// One descent's internal-page charge.
    fn descent(&self, cal: &Calibration) -> f64 {
        cal.descent_page * f64::from(self.height)
    }

    /// `probes` point probes, page-capped.
    fn point_probes(&self, probes: f64, cal: &Calibration) -> f64 {
        (probes * cal.walk_page).min(self.pages as f64)
    }
}

/// Measured shape of the Edge configuration's index trees.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeProfile {
    /// The `(tag, value, id)` value index.
    pub value: TreeProfile,
    /// The backward-link index (`id -> parent`).
    pub blink: TreeProfile,
    /// The forward-link index (`parent, tag -> id`).
    pub flink: TreeProfile,
    /// Heap pages of the base Edge relation.
    pub heap_pages: u64,
}

/// Measured shape of a per-path table set (ASR, Join Indices).
#[derive(Debug, Clone, Copy, Default)]
pub struct TableSetProfile {
    /// Number of per-path tables (table *pairs* for Join Indices).
    pub tables: u64,
    /// Total pages across the tables.
    pub pages: u64,
    /// Total rows across the tables.
    pub rows: u64,
    /// Maximum tree height across the tables.
    pub height: u32,
}

impl TableSetProfile {
    fn as_tree(&self) -> TreeProfile {
        TreeProfile { pages: self.pages, rows: self.rows, height: self.height }
    }
}

/// Physical shapes of every built structure — the optimizer's catalog,
/// measured from a built engine or a reopened `.xtwig` file.
#[derive(Debug, Clone, Copy, Default)]
pub struct Catalog {
    /// ROOTPATHS tree.
    pub rp: Option<TreeProfile>,
    /// DATAPATHS tree.
    pub dp: Option<TreeProfile>,
    /// Edge configuration (shared by DG+Edge, IF+Edge, JI).
    pub edge: Option<EdgeProfile>,
    /// DataGuide tree.
    pub dg: Option<TreeProfile>,
    /// Index Fabric tree.
    pub fab: Option<TreeProfile>,
    /// Access Support Relations tables.
    pub asr: Option<TableSetProfile>,
    /// Join Index table pairs.
    pub ji: Option<TableSetProfile>,
}

impl Catalog {
    /// True when the strategy's [`Strategy::structures`] are all
    /// present. [`Strategy::Auto`] is available as soon as any concrete
    /// strategy is.
    pub fn has(&self, strategy: Strategy) -> bool {
        if strategy.is_auto() {
            return Strategy::ALL.iter().any(|&s| self.has(s));
        }
        strategy.structures().iter().all(|structure| match structure {
            Structure::RootPaths => self.rp.is_some(),
            Structure::DataPaths => self.dp.is_some(),
            Structure::Edge => self.edge.is_some(),
            Structure::DataGuide => self.dg.is_some(),
            Structure::IndexFabric => self.fab.is_some(),
            Structure::Asr => self.asr.is_some(),
            Structure::JoinIndex => self.ji.is_some(),
        })
    }
}

/// One PCsubpath of the planned cover, as the cost model sees it.
#[derive(Debug, Clone)]
pub struct SubpathInput {
    /// Step tags, root-most first.
    pub tags: Vec<TagId>,
    /// Anchored at a document root (`/a/…`) vs. `//`-headed.
    pub anchored: bool,
    /// Instances of the final step's tag with the value its equality
    /// predicate asks for; `None` when it has no predicate.
    pub literal_instances: Option<u64>,
    /// True when the execution consumes interior step ids (join keys,
    /// probe anchors, output) — the leaf-only fast paths of DG+Edge,
    /// IF+Edge and JI only apply when this is false.
    pub interior_needed: bool,
}

/// One non-driver step of a plan with BoundIndex probes in it: the
/// probes of a bound step, or (`heads: 1`) the one lookup of a free one.
#[derive(Debug, Clone, Copy)]
pub struct InljProbe {
    /// Estimated distinct head bindings driving the probe.
    pub heads: u64,
    /// Estimated rows the probes fetch in total.
    pub rows: u64,
}

/// The planned twig, reduced to what the cost model prices.
#[derive(Debug, Clone, Default)]
pub struct TwigCostInput {
    /// The PCsubpath cover.
    pub subpaths: Vec<SubpathInput>,
    /// Estimated rows feeding `//` stitches whose ancestors must be
    /// recovered (zero for single-segment twigs).
    pub ancestor_rows: u64,
    /// When the planner answered some step by BoundIndex probes: the
    /// driver subpath's index and the steps after it. Only DATAPATHS
    /// executes this; every other strategy is priced on the merge plan.
    pub inlj: Option<(usize, Vec<InljProbe>)>,
}

/// One ranked alternative: a strategy with its estimated cost.
#[derive(Debug, Clone, Copy)]
pub struct StrategyChoice {
    /// The strategy priced.
    pub strategy: Strategy,
    /// Estimated page reads (the ranking key).
    pub est_page_reads: f64,
    /// Estimated index probes.
    pub est_probes: f64,
    /// Estimated match rows fetched.
    pub est_rows: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    pages: f64,
    probes: f64,
    rows: f64,
}

impl Cost {
    fn add(&mut self, other: Cost) {
        self.pages += other.pages;
        self.probes += other.probes;
        self.rows += other.rows;
    }
}

/// Ranks every strategy the catalog has built, cheapest first (ties
/// break in [`Strategy::ALL`] reporting order, so the result is
/// deterministic).
pub fn rank<S: CardinalitySource + ?Sized>(
    stats: &S,
    catalog: &Catalog,
    input: &TwigCostInput,
    cal: &Calibration,
) -> Vec<StrategyChoice> {
    let mut out: Vec<StrategyChoice> = Strategy::ALL
        .iter()
        .filter(|&&s| catalog.has(s))
        .map(|&s| {
            let c = twig_cost(s, stats, catalog, input, cal);
            StrategyChoice {
                strategy: s,
                est_page_reads: c.pages,
                est_probes: c.probes,
                est_rows: c.rows,
            }
        })
        .collect();
    out.sort_by(|a, b| a.est_page_reads.partial_cmp(&b.est_page_reads).expect("costs are finite"));
    out
}

fn twig_cost<S: CardinalitySource + ?Sized>(
    strategy: Strategy,
    stats: &S,
    catalog: &Catalog,
    input: &TwigCostInput,
    cal: &Calibration,
) -> Cost {
    let mut total = Cost::default();
    // DATAPATHS under a plan with bound steps: the driver subpath runs
    // free, every other step is the probes the planner priced for it.
    if strategy == Strategy::DataPaths {
        if let Some((driver, probes)) = &input.inlj {
            let dp = catalog.dp.expect("catalog.has checked");
            total.add(subpath_cost(strategy, stats, catalog, &input.subpaths[*driver], cal));
            for p in probes {
                total.pages += dp.descent(cal)
                    + (p.heads as f64 * cal.inlj_probe_page).min(dp.pages as f64)
                    + dp.leaf_pages(p.rows as f64, cal);
                total.probes += p.heads as f64;
                total.rows += p.rows as f64;
            }
            return total;
        }
    }
    for sp in &input.subpaths {
        total.add(subpath_cost(strategy, stats, catalog, sp, cal));
    }
    // Ancestor recovery for `//` stitches: strategies whose matches
    // carry full root IdLists (RP, DP, ASR) read them off the match;
    // the Edge family walks backward links per row.
    if input.ancestor_rows > 0
        && !matches!(strategy, Strategy::RootPaths | Strategy::DataPaths | Strategy::Asr)
    {
        let edge = catalog.edge.expect("Edge-family strategies carry an Edge profile");
        let walk_probes = input.ancestor_rows as f64 * stats.mean_depth();
        total.pages += edge.blink.descent(cal) + edge.blink.point_probes(walk_probes, cal);
        total.probes += walk_probes;
    }
    total
}

/// Prices one PCsubpath lookup under `strategy`'s probe pattern.
fn subpath_cost<S: CardinalitySource + ?Sized>(
    strategy: Strategy,
    stats: &S,
    catalog: &Catalog,
    sp: &SubpathInput,
    cal: &Calibration,
) -> Cost {
    let literal = sp.literal_instances;
    let m = pattern_matches(stats, &sp.tags, sp.anchored, literal) as f64;
    let k = sp.tags.len();
    match strategy {
        Strategy::RootPaths => {
            let t = catalog.rp.expect("catalog.has checked");
            Cost { pages: t.descent(cal) + t.leaf_pages(m, cal), probes: 1.0, rows: m }
        }
        Strategy::DataPaths => {
            let t = catalog.dp.expect("catalog.has checked");
            Cost { pages: t.descent(cal) + t.leaf_pages(m, cal), probes: 1.0, rows: m }
        }
        Strategy::Edge => edge_chain_cost(stats, catalog, sp, m, cal),
        Strategy::DataGuideEdge => {
            if !sp.anchored {
                return edge_chain_cost(stats, catalog, sp, m, cal);
            }
            let dg = catalog.dg.expect("catalog.has checked");
            let edge = catalog.edge.expect("catalog.has checked");
            let ms = stats.path_instances(&sp.tags) as f64;
            let mut c =
                Cost { pages: dg.descent(cal) + dg.leaf_pages(ms, cal), probes: 1.0, rows: ms };
            if let Some(vc) = literal {
                let vc = vc as f64;
                c.pages += edge.value.descent(cal) + edge.value.leaf_pages(vc, cal);
                c.probes += 1.0;
                c.rows += vc;
            }
            c.add(interior_walks(edge, m, k, sp.interior_needed, cal));
            c
        }
        Strategy::IndexFabricEdge => {
            let fab = catalog.fab.expect("catalog.has checked");
            let edge = catalog.edge.expect("catalog.has checked");
            if !(sp.anchored && literal.is_some()) {
                return edge_chain_cost(stats, catalog, sp, m, cal);
            }
            // The Fig. 11 case: a fully-specified valued path is one
            // fabric probe.
            let mut c =
                Cost { pages: fab.descent(cal) + fab.leaf_pages(m, cal), probes: 1.0, rows: m };
            c.add(interior_walks(edge, m, k, sp.interior_needed, cal));
            c
        }
        Strategy::Asr => {
            let asr = catalog.asr.expect("catalog.has checked").as_tree();
            let p = stats.matching_path_count(&sp.tags, sp.anchored).max(1) as f64;
            // One probe per matching table, each scanning its
            // value-prefixed rows (the whole table when structural).
            let scanned = if literal.is_some() { m } else { m.max(1.0) };
            Cost { pages: p * asr.descent(cal) + asr.leaf_pages(scanned, cal), probes: p, rows: m }
        }
        Strategy::JoinIndex => {
            let ji = catalog.ji.expect("catalog.has checked").as_tree();
            let edge = catalog.edge.expect("catalog.has checked");
            let p = stats.matching_path_count(&sp.tags, sp.anchored) as f64;
            match literal {
                Some(vc) => {
                    let vc = vc as f64;
                    // One backward probe per candidate per expression —
                    // per interior step when interior ids are needed.
                    let per_cand =
                        if sp.interior_needed { (k - 1) as f64 } else { f64::from(k > 1) };
                    let probes = vc * p * per_cand;
                    Cost {
                        pages: edge.value.descent(cal)
                            + edge.value.leaf_pages(vc, cal)
                            + if probes > 0.0 { ji.descent(cal) } else { 0.0 }
                            + ji.point_probes(probes, cal),
                        probes: 1.0 + probes,
                        rows: m,
                    }
                }
                None => {
                    // Structural: scan every matching expression's pair
                    // table, plus interior recovery probes.
                    let interior_probes = if k > 2 { m * (k - 2) as f64 } else { 0.0 };
                    Cost {
                        pages: p.max(1.0) * ji.descent(cal)
                            + ji.leaf_pages(m, cal)
                            + ji.point_probes(interior_probes, cal),
                        probes: p + interior_probes,
                        rows: m,
                    }
                }
            }
        }
        Strategy::Auto => unreachable!("Auto is resolved before costing"),
    }
}

/// §5.2.1's Edge join chain: a value-index probe for the leaf
/// candidates, then a backward-link walk per candidate per remaining
/// step (plus the root check for anchored patterns).
fn edge_chain_cost<S: CardinalitySource + ?Sized>(
    stats: &S,
    catalog: &Catalog,
    sp: &SubpathInput,
    m: f64,
    cal: &Calibration,
) -> Cost {
    let edge = catalog.edge.expect("Edge strategies carry an Edge profile");
    let cand = leaf_candidates(stats, &sp.tags, sp.literal_instances) as f64;
    let steps = (sp.tags.len() - 1) as f64 + f64::from(sp.anchored);
    let walk_probes = cand * steps;
    let mut pages = edge.value.descent(cal) + edge.value.leaf_pages(cand, cal);
    if walk_probes > 0.0 {
        pages += edge.blink.descent(cal) + edge.blink.point_probes(walk_probes, cal);
    }
    Cost { pages, probes: 1.0 + walk_probes, rows: m }
}

/// Backward-link recovery of interior step ids for known leaf matches
/// (`EdgeTable::walk_up`, which the engine runs on DataGuide and Index
/// Fabric leaves) — only paid when the execution consumes interior ids.
fn interior_walks(
    edge: EdgeProfile,
    m: f64,
    k: usize,
    interior_needed: bool,
    cal: &Calibration,
) -> Cost {
    if !interior_needed || k <= 1 {
        return Cost::default();
    }
    let probes = m * (k - 1) as f64;
    Cost {
        pages: edge.blink.descent(cal) + edge.blink.point_probes(probes, cal),
        probes,
        rows: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::testutil::TableStats;

    /// A catalog shaped like a mid-sized corpus: RP/DP trees, an Edge
    /// configuration, and the small auxiliary structures.
    fn catalog() -> Catalog {
        let tree = |pages, rows, height| TreeProfile { pages, rows, height };
        Catalog {
            rp: Some(tree(100, 10_000, 2)),
            dp: Some(tree(400, 40_000, 2)),
            edge: Some(EdgeProfile {
                value: tree(80, 10_000, 2),
                blink: tree(60, 10_000, 2),
                flink: tree(60, 10_000, 2),
                heap_pages: 120,
            }),
            dg: Some(tree(4, 10_000, 1)),
            fab: Some(tree(40, 4_000, 2)),
            asr: Some(TableSetProfile { tables: 20, pages: 150, rows: 10_000, height: 1 }),
            ji: Some(TableSetProfile { tables: 40, pages: 500, rows: 40_000, height: 1 }),
        }
    }

    /// Stats of path a(1)/b(2)/c(3).
    fn stats() -> TableStats {
        TableStats::default().path(&[1], 100).path(&[1, 2], 2_000).path(&[1, 2, 3], 2_000)
    }

    /// The instances of a selective literal of `c`.
    const RARE: Option<u64> = Some(2);

    fn sp(tags: &[u32], anchored: bool, literal: Option<u64>, interior: bool) -> SubpathInput {
        SubpathInput {
            tags: tags.iter().map(|&t| TagId(t)).collect(),
            anchored,
            literal_instances: literal,
            interior_needed: interior,
        }
    }

    fn cost_of(choices: &[StrategyChoice], s: Strategy) -> f64 {
        choices.iter().find(|c| c.strategy == s).expect("strategy ranked").est_page_reads
    }

    #[test]
    fn rank_covers_exactly_the_built_strategies_sorted() {
        let input = TwigCostInput {
            subpaths: vec![sp(&[1, 2, 3], true, RARE, false)],
            ..Default::default()
        };
        let choices = rank(&stats(), &catalog(), &input, &Calibration::default());
        assert_eq!(choices.len(), Strategy::ALL.len());
        assert!(choices.windows(2).all(|w| w[0].est_page_reads <= w[1].est_page_reads));

        let partial = Catalog { rp: catalog().rp, ..Default::default() };
        let choices = rank(&stats(), &partial, &input, &Calibration::default());
        assert_eq!(choices.len(), 1);
        assert_eq!(choices[0].strategy, Strategy::RootPaths);
    }

    #[test]
    fn fabric_ties_rootpaths_on_fully_specified_valued_paths() {
        // Fig. 11: a fully-specified valued single path is one probe for
        // RP and IF alike; the Edge chain pays per-candidate walks.
        let input = TwigCostInput {
            subpaths: vec![sp(&[1, 2, 3], true, RARE, false)],
            ..Default::default()
        };
        let choices = rank(&stats(), &catalog(), &input, &Calibration::default());
        let rp = cost_of(&choices, Strategy::RootPaths);
        let fab = cost_of(&choices, Strategy::IndexFabricEdge);
        let edge = cost_of(&choices, Strategy::Edge);
        assert!((rp - fab).abs() <= 3.0, "RP {rp} vs IF {fab} should be close");
        assert!(edge > rp, "Edge chain ({edge}) must cost more than RP ({rp})");
    }

    #[test]
    fn edge_family_pays_for_unselective_chains() {
        // A structural suffix pattern with many candidates: RP answers
        // with one range scan, the Edge family walks per candidate.
        let input =
            TwigCostInput { subpaths: vec![sp(&[2, 3], false, None, false)], ..Default::default() };
        let choices = rank(&stats(), &catalog(), &input, &Calibration::default());
        assert!(cost_of(&choices, Strategy::Edge) > 3.0 * cost_of(&choices, Strategy::RootPaths));
    }

    #[test]
    fn ancestor_recovery_penalizes_leaf_only_strategies() {
        let no_stitch = TwigCostInput {
            subpaths: vec![sp(&[1, 2, 3], true, RARE, false)],
            ..Default::default()
        };
        let stitch = TwigCostInput { ancestor_rows: 500, ..no_stitch.clone() };
        let cal = Calibration::default();
        let (s, c) = (stats(), catalog());
        let before = rank(&s, &c, &no_stitch, &cal);
        let after = rank(&s, &c, &stitch, &cal);
        // RP is unaffected; the fabric pays the walk.
        assert_eq!(cost_of(&before, Strategy::RootPaths), cost_of(&after, Strategy::RootPaths));
        assert!(
            cost_of(&after, Strategy::IndexFabricEdge)
                > cost_of(&before, Strategy::IndexFabricEdge)
        );
    }

    #[test]
    fn inlj_input_reprices_datapaths_only() {
        let merge = TwigCostInput {
            subpaths: vec![sp(&[2, 3], false, RARE, false), sp(&[2, 3], false, None, false)],
            ..Default::default()
        };
        let inlj = TwigCostInput {
            inlj: Some((0, vec![InljProbe { heads: 2, rows: 2 }])),
            ..merge.clone()
        };
        let cal = Calibration::default();
        let (s, c) = (stats(), catalog());
        let m = rank(&s, &c, &merge, &cal);
        let i = rank(&s, &c, &inlj, &cal);
        assert!(
            cost_of(&i, Strategy::DataPaths) < cost_of(&m, Strategy::DataPaths),
            "two selective probes must beat scanning 2000 unselective rows"
        );
        assert_eq!(
            cost_of(&i, Strategy::RootPaths),
            cost_of(&m, Strategy::RootPaths),
            "other strategies are priced on the merge plan either way"
        );
    }

    #[test]
    fn point_probes_are_capped_by_structure_size() {
        // A wildly unselective chain cannot cost more pages than the
        // blink tree plus the value index hold.
        let input = TwigCostInput {
            subpaths: vec![sp(&[1, 2, 3], true, None, true)],
            ..Default::default()
        };
        let c = catalog();
        let choices = rank(&stats(), &c, &input, &Calibration::default());
        let edge = c.edge.unwrap();
        let bound = (edge.value.pages + edge.blink.pages + 10) as f64;
        assert!(cost_of(&choices, Strategy::Edge) <= bound);
    }

    #[test]
    fn auto_availability_follows_any_built() {
        assert!(catalog().has(Strategy::Auto));
        assert!(!Catalog::default().has(Strategy::Auto));
        let dg_only = Catalog { dg: Some(TreeProfile::default()), ..Default::default() };
        assert!(!dg_only.has(Strategy::DataGuideEdge), "DG+Edge needs the Edge structures");
        assert!(!dg_only.has(Strategy::Auto));
    }
}
