//! Plan selection: merge joins over FreeIndex lookups vs. the
//! index-nested-loop strategy over BoundIndex probes (paper §2.3, §5.2.3).
//!
//! The paper lets DB2's optimizer pick join strategies from collected
//! statistics; this module plays that role for the twig engine. The
//! qualitative rule it reproduces (§5.2.3): INLJ wins when (a) one branch
//! is very selective, (b) the others are unselective, and (c) each
//! selective match meets few unselective matches — i.e., when the branch
//! point is *low* (many instances of the branch tag). When branch
//! selectivities are comparable, or the branch point is the root (one
//! instance), sort-merge over FreeIndex lookups is as good or better.
//!
//! The rule is applied **per step**, by one cost function
//! ([`price_step`]): a step that can be answered by BoundIndex probes is
//! priced both ways on the number of distinct heads that will drive the
//! probes, and keeps the cheaper method. The function runs twice: here,
//! on a running estimate of the rows flowing into each step, and again
//! in the executor on the exact head count of the rows that arrived and
//! the row estimate of the literal actually asked for — so a plan cached
//! for a twig *shape* does not lock a common literal into one descent per
//! head.

use crate::decompose::CompiledTwig;
use crate::family::PcSubpathQuery;
use crate::paths::PathStats;
use xtwig_xml::{TagDict, TagId};

/// What one level of a B+-tree descent costs, in fetched rows: the
/// ledger's `btree.get_ns` ÷ `btree.pages_per_get` (1 134 ns ÷ 3 ≈ 380 ns
/// on `twig_inproc`, traced, seed 1 — `storage.fetch_hit_ns` ≈ 210 ns of
/// it is the page fetch, the rest the search inside the page) over the
/// ≈ 45 ns a streamed row costs the executor (`core.exec_us.dp` of a
/// one-probe request ÷ its `rows_fetched`: 26–65 ns from rows that join
/// nothing to rows that all do). Checked against the executor itself on
/// XMark 0.1, where a bound probe of the three-level DATAPATHS tree
/// measures ≈ 1.0 µs ≈ 22–24 rows and `//item[quantity=…]/mailbox/mail/to`
/// breaks even at ≈ 70 heads against a 2 095-row free lookup.
const PAGE_ROWS: u64 = 8;

/// How a subpath's matches connect to the rows accumulated so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinHow {
    /// Equi-join on a twig node bound by both sides; `shared` lists every
    /// common node for consistency checking, `deepest` is the join key.
    SharedNode {
        /// Join-key twig node.
        deepest: usize,
        /// All shared twig nodes.
        shared: Vec<usize>,
    },
    /// The subpath's segment hangs below `upper` via a `//` edge: join on
    /// `row[upper]` being an ancestor of the match's segment root.
    AncestorOf {
        /// Upper twig node (bound by earlier steps).
        upper: usize,
        /// Segment root twig node bound by this subpath.
        seg_root: usize,
    },
    /// Reverse direction: this subpath binds `upper`, while earlier rows
    /// bound the lower segment root.
    DescendantBound {
        /// Upper twig node (bound by this subpath).
        upper: usize,
        /// Lower segment-root twig node (bound by earlier steps).
        seg_root: usize,
    },
}

impl JoinHow {
    /// The twig node whose instances the join pairs matches with rows on.
    fn key_node(&self) -> usize {
        match *self {
            JoinHow::SharedNode { deepest, .. } => deepest,
            JoinHow::AncestorOf { upper, .. } | JoinHow::DescendantBound { upper, .. } => upper,
        }
    }
}

/// A BoundIndex probe that can replace a free lookup for this subpath.
/// The probed literal is not part of it: it is the subpath's own
/// (`CompiledTwig::subpaths[..].q.value`), so one plan serves every
/// literal of its shape.
#[derive(Debug, Clone)]
pub struct ProbeSpec {
    /// Twig node whose binding becomes the probe head — the key node of
    /// the step's join.
    pub anchor: usize,
    /// The anchor's tag.
    pub anchor_tag: TagId,
    /// The residue pattern probed under the head.
    pub tags: Vec<TagId>,
    /// True when the residue's first step is a child of the head.
    pub anchored: bool,
    /// Twig node bound by each pattern step.
    pub step_nodes: Vec<usize>,
}

/// How a step fetches its subpath's matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// One FreeIndex lookup, joined with the rows so far.
    Free,
    /// One BoundIndex probe per distinct head among the rows so far.
    Bound,
}

impl Method {
    /// `free` / `bound`, as explain output and span annotations print it.
    pub fn label(self) -> &'static str {
        match self {
            Method::Free => "free",
            Method::Bound => "bound",
        }
    }
}

/// Both prices of one probe-capable step, in fetched-row units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepPrice {
    /// Distinct heads the bound probes are issued for.
    pub heads: u64,
    /// Rows the bound probes fetch in total.
    pub bound_rows: u64,
    /// `heads` descents plus the rows they fetch.
    pub bound: u64,
    /// One descent plus every match of the subpath.
    pub free: u64,
}

impl StepPrice {
    /// The cheaper method; a tie stays with the single free lookup.
    pub fn method(&self) -> Method {
        if self.bound < self.free {
            Method::Bound
        } else {
            Method::Free
        }
    }
}

/// What one B+-tree descent costs, in fetched-row units.
fn descent(height: u32) -> u64 {
    u64::from(height.max(1)) * PAGE_ROWS
}

/// The one cost function of the join-method choice: fetching a subpath
/// with `rows` matches, spread over the `key_count` instances of its
/// join key, for `heads` of those instances — by one BoundIndex probe per
/// head, or by one FreeIndex lookup of everything. `height` is the pages
/// a descent of the DATAPATHS tree fetches.
pub fn price_step(heads: u64, key_count: u64, rows: u64, height: u32) -> StepPrice {
    let key_count = key_count.max(1);
    let heads = heads.clamp(1, key_count);
    let bound_rows = scale(heads, rows, key_count);
    StepPrice {
        heads,
        bound_rows,
        bound: heads.saturating_mul(descent(height)).saturating_add(bound_rows),
        free: descent(height).saturating_add(rows),
    }
}

/// `a × b ÷ c` without overflow.
fn scale(a: u64, b: u64, c: u64) -> u64 {
    u64::try_from(u128::from(a) * u128::from(b) / u128::from(c.max(1))).unwrap_or(u64::MAX)
}

/// One evaluation step.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Index into `CompiledTwig::subpaths`.
    pub subpath: usize,
    /// Join method (None for the first step).
    pub join: Option<JoinHow>,
    /// The BoundIndex probe that can answer this step, when one exists.
    pub probe: Option<ProbeSpec>,
    /// Estimated match cardinality, for the literal the plan was made
    /// with.
    pub estimate: u64,
    /// Estimated match cardinality ignoring the literal — with one
    /// `(tag, value)` count it re-estimates the step for another literal.
    pub structural: u64,
    /// Instances of the join key's tag (1 for the first step).
    pub key_count: u64,
    /// Both prices on the rows estimated to reach this step; `None`
    /// without a probe.
    pub price: Option<StepPrice>,
}

impl PlanStep {
    /// The method planned for this step: the cheaper of its two prices,
    /// a free lookup where there is no probe to price.
    pub fn method(&self) -> Method {
        self.price.map_or(Method::Free, |p| p.method())
    }

    /// Prices a probe-capable step for the `heads` that actually reached
    /// it and the literal actually asked for (`q`, the step's subpath as
    /// compiled for this request): the executor's half of the decision.
    pub fn reprice(
        &self,
        heads: u64,
        q: &PcSubpathQuery,
        stats: &PathStats,
        height: u32,
    ) -> StepPrice {
        price_step(heads, self.key_count, with_literal(self.structural, q, stats), height)
    }
}

/// The matches of `q` given the `structural` count of its pattern: capped
/// by the instances of its literal, when it has one (the estimate of
/// `xtwig_opt::pattern_matches`, without recounting the pattern).
fn with_literal(structural: u64, q: &PcSubpathQuery, stats: &PathStats) -> u64 {
    match (&q.value, q.tags.last()) {
        (Some(v), Some(&leaf)) => structural.min(stats.tag_value_count(leaf, v)),
        _ => structural,
    }
}

/// Overall plan kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// FreeIndex lookups stitched with sorted-run joins (paper §3.2).
    Merge,
    /// At least one step answered by BoundIndex probes (paper §3.3).
    IndexNestedLoop,
}

/// A complete plan.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// [`PlanKind::IndexNestedLoop`] when some step plans bound probes.
    pub kind: PlanKind,
    /// Steps in evaluation order (driver first).
    pub steps: Vec<PlanStep>,
    /// Estimated cost with every step a free lookup.
    pub merge_cost: u64,
    /// Estimated cost with every probe-capable step bound probes.
    pub inlj_cost: u64,
}

/// The plan as EXPLAIN prints it (`xtwig explain`, the server's explain
/// text): the kind with both uniform alternatives, then per step the
/// planned method and — where a probe exists — the heads it was priced
/// on and both prices.
impl std::fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "plan: {:?} ({} steps, merge cost {} vs inlj cost {})",
            self.kind,
            self.steps.len(),
            self.merge_cost,
            self.inlj_cost
        )?;
        for step in &self.steps {
            write!(
                f,
                "  step subpath#{} est={} join={:?} method={}",
                step.subpath,
                step.estimate,
                step.join,
                step.method().label()
            )?;
            if let Some(p) = step.price {
                write!(f, " heads={} cost bound={} free={}", p.heads, p.bound, p.free)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Builds a plan for `compiled` using `stats`; `dp_height` is the pages
/// one descent of the DATAPATHS tree fetches (its `BTreeStats::height`).
pub fn choose_plan(
    compiled: &CompiledTwig,
    stats: &PathStats,
    dict: &TagDict,
    dp_height: u32,
) -> QueryPlan {
    let n = compiled.subpaths.len();
    // Each pattern is counted once, without its literal; the literal's
    // own count then caps it.
    let structural: Vec<u64> = compiled
        .subpaths
        .iter()
        .map(|sp| xtwig_opt::pattern_matches(stats, &sp.q.tags, sp.q.anchored, None))
        .collect();
    let estimates: Vec<u64> = compiled
        .subpaths
        .iter()
        .zip(&structural)
        .map(|(sp, &count)| with_literal(count, &sp.q, stats))
        .collect();

    // Driver: the most selective subpath.
    let driver = (0..n).min_by_key(|&i| estimates[i]).expect("twig has at least one subpath");

    // Greedy connected order starting at the driver.
    let mut bound: Vec<usize> = compiled.subpaths[driver].nodes.clone();
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != driver).collect();
    let mut steps: Vec<PlanStep> = vec![PlanStep {
        subpath: driver,
        join: None,
        probe: None,
        estimate: estimates[driver],
        structural: structural[driver],
        key_count: 1,
        price: None,
    }];
    // Rows estimated to flow out of the steps so far.
    let mut flow = estimates[driver].max(1);

    while !remaining.is_empty() {
        // Prefer: (1) connected by a shared node, (2) connected by an AD
        // edge in either direction; among eligible, the most selective.
        let mut best: Option<(usize, JoinHow)> = None;
        let mut best_est = u64::MAX;
        for &cand in &remaining {
            let sp = &compiled.subpaths[cand];
            // Three ways a subpath can connect to the bound set, tried in
            // order: a shared twig node; its segment's `//` parent bound
            // above it; or a bound child segment hanging below one of its
            // nodes.
            let shared_join = sp.nodes.iter().rev().find(|n| bound.contains(n)).map(|&deepest| {
                let shared: Vec<usize> =
                    sp.nodes.iter().filter(|n| bound.contains(n)).copied().collect();
                JoinHow::SharedNode { deepest, shared }
            });
            let ancestor_join = || {
                compiled.segments[sp.segment]
                    .parent
                    .filter(|(upper, _)| bound.contains(upper))
                    .map(|(upper, _)| JoinHow::AncestorOf { upper, seg_root: sp.nodes[0] })
            };
            let descendant_join = || {
                compiled
                    .segments
                    .iter()
                    .filter_map(|seg| seg.parent.map(|(u, _)| (u, seg.root)))
                    .find(|&(u, root)| sp.nodes.contains(&u) && bound.contains(&root))
                    .map(|(u, root)| JoinHow::DescendantBound { upper: u, seg_root: root })
            };
            let join = shared_join.or_else(ancestor_join).or_else(descendant_join);
            if let Some(j) = join {
                if estimates[cand] < best_est {
                    best_est = estimates[cand];
                    best = Some((cand, j));
                }
            }
        }
        let (next, join) = best.expect("twig is connected; some subpath must be joinable");
        remaining.retain(|&i| i != next);
        let probe = probe_spec(compiled, dict, next, &bound);
        bound.extend(compiled.subpaths[next].nodes.iter().copied());
        bound.sort_unstable();
        bound.dedup();
        let key_count = dict
            .lookup(&compiled.twig.nodes[join.key_node()].tag)
            .map_or(1, |t| stats.tag_count(t))
            .max(1);
        let price = probe.as_ref().map(|_| price_step(flow, key_count, estimates[next], dp_height));
        steps.push(PlanStep {
            subpath: next,
            join: Some(join),
            probe,
            estimate: estimates[next],
            structural: structural[next],
            key_count,
            price,
        });
        // Each row meets the matches under its own key instance.
        flow = scale(flow, estimates[next], key_count).max(1);
    }

    // The two uniform alternatives, for EXPLAIN: every step free, and
    // every probe-capable step bound.
    let free = |step: &PlanStep| descent(dp_height).saturating_add(step.estimate);
    let merge_cost = steps.iter().fold(0u64, |sum, step| sum.saturating_add(free(step)));
    let inlj_cost = steps.iter().fold(0u64, |sum, step| {
        sum.saturating_add(step.price.map_or_else(|| free(step), |p| p.bound))
    });
    let kind = if steps.iter().any(|step| step.method() == Method::Bound) {
        PlanKind::IndexNestedLoop
    } else {
        PlanKind::Merge
    };
    QueryPlan { kind, steps, merge_cost, inlj_cost }
}

/// Computes the BoundIndex probe for `subpath`, anchored at a node the
/// earlier steps have bound. Same-segment: the residue below the deepest
/// shared node, as an anchored (child) pattern. Cross-segment: the whole
/// subpath under the AD-edge's upper node, as a `//` pattern.
fn probe_spec(
    compiled: &CompiledTwig,
    dict: &TagDict,
    subpath: usize,
    bound: &[usize],
) -> Option<ProbeSpec> {
    let sp = &compiled.subpaths[subpath];
    let tag_of = |node: usize| dict.lookup(&compiled.twig.nodes[node].tag);
    if let Some(pos) = sp.nodes.iter().rposition(|n| bound.contains(n)) {
        // Shared node: probe the residue below it.
        if pos + 1 >= sp.nodes.len() {
            return None; // nothing below the shared node (value-only subpath)
        }
        let anchor = sp.nodes[pos];
        let step_nodes: Vec<usize> = sp.nodes[pos + 1..].to_vec();
        let tags = step_nodes.iter().map(|&n| tag_of(n)).collect::<Option<Vec<_>>>()?;
        Some(ProbeSpec { anchor, anchor_tag: tag_of(anchor)?, tags, anchored: true, step_nodes })
    } else {
        let (upper, _) = compiled.segments[sp.segment].parent?;
        if !bound.contains(&upper) {
            return None;
        }
        Some(ProbeSpec {
            anchor: upper,
            anchor_tag: tag_of(upper)?,
            tags: sp.q.tags.clone(),
            anchored: false,
            step_nodes: sp.nodes.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::paths::PathStats;
    use crate::xpath::parse_xpath;
    use xtwig_xml::tree::fig1_book_document;
    use xtwig_xml::XmlForest;

    fn setup(xpath: &str) -> (CompiledTwig, PathStats, TagDict) {
        let f = fig1_book_document();
        let twig = parse_xpath(xpath).unwrap();
        let c = decompose(&twig, f.dict()).unwrap();
        let stats = PathStats::build(&f);
        (c, stats, f.dict().clone())
    }

    #[test]
    fn single_path_plan_is_one_step_merge() {
        let (c, stats, dict) = setup("/book/title[. = 'XML']");
        let plan = choose_plan(&c, &stats, &dict, 1);
        assert_eq!(plan.kind, PlanKind::Merge);
        assert_eq!(plan.steps.len(), 1);
        assert!(plan.steps[0].join.is_none());
    }

    #[test]
    fn intro_twig_plan_is_connected() {
        let (c, stats, dict) = setup("/book[title='XML']//author[fn='jane'][ln='doe']");
        let plan = choose_plan(&c, &stats, &dict, 1);
        assert_eq!(plan.steps.len(), 3);
        // Every non-driver step has a join method.
        assert!(plan.steps[1..].iter().all(|s| s.join.is_some()));
        // The two author subpaths join on the shared author node.
        let shared_joins = plan
            .steps
            .iter()
            .filter(|s| matches!(s.join, Some(JoinHow::SharedNode { .. })))
            .count();
        let ad_joins = plan
            .steps
            .iter()
            .filter(|s| {
                matches!(
                    s.join,
                    Some(JoinHow::AncestorOf { .. }) | Some(JoinHow::DescendantBound { .. })
                )
            })
            .count();
        assert_eq!(shared_joins + ad_joins, 2);
        assert!(ad_joins >= 1, "book//author edge needs an ancestor join");
    }

    #[test]
    fn probe_specs_cover_same_segment_residues() {
        // /book[year='2000']/chapter/title : branch at book; the chapter
        // subpath's probe hangs below book as an anchored pattern.
        let (c, stats, dict) = setup("/book[year = '2000']/chapter/title");
        let plan = choose_plan(&c, &stats, &dict, 1);
        assert_eq!(plan.steps.len(), 2);
        let second = &plan.steps[1];
        let probe = second.probe.as_ref().expect("probe for same-segment branch");
        assert_eq!(c.twig.nodes[probe.anchor].tag, "book");
        assert_eq!(Some(probe.anchor_tag), dict.lookup("book"));
        assert!(probe.anchored);
        assert_eq!(probe.tags.len(), probe.step_nodes.len());
    }

    #[test]
    fn cross_segment_probe_is_descendant_pattern() {
        let (c, stats, dict) = setup("/book[title='XML']//author[fn='jane'][ln='doe']");
        let plan = choose_plan(&c, &stats, &dict, 1);
        // At least one step probes under the book anchor with a //
        // pattern (when the driver is the title subpath) or an anchored
        // author residue (when the driver is an author subpath).
        let has_probe = plan.steps[1..].iter().any(|s| s.probe.is_some());
        assert!(has_probe);
    }

    #[test]
    fn inlj_wins_with_low_branch_point_and_skew() {
        // Emulate the Fig. 12(d) shape on the book data: driver fn=john
        // (1 match) under author (3 instances), other branch nickname
        // (3 matches).
        let (c, stats, dict) = setup("//author[fn = 'john']/nickname");
        let plan = choose_plan(&c, &stats, &dict, 1);
        assert!(
            plan.inlj_cost <= plan.merge_cost + 1,
            "inlj {} merge {}",
            plan.inlj_cost,
            plan.merge_cost
        );
        // One head, one page per descent (the fig1 tree is a single
        // leaf): the probe fetches the one nickname under john's author
        // where the free lookup fetches all three.
        assert_eq!(plan.kind, PlanKind::IndexNestedLoop);
        let price = plan.steps[1].price.expect("nickname hangs below the shared author");
        assert_eq!((price.heads, price.bound_rows), (1, 1));
        assert_eq!((price.bound, price.free), (PAGE_ROWS + 1, PAGE_ROWS + 3));
        // The probe's price follows the tree's height, not a constant:
        // every level is one more page per head.
        for height in 1..=4u32 {
            let p = price_step(3, 3, 3, height);
            assert_eq!(p.bound, 3 * u64::from(height) * PAGE_ROWS + 3, "height {height}");
            assert_eq!(p.free, u64::from(height) * PAGE_ROWS + 3, "height {height}");
        }
    }

    /// A corpus whose root is a single node: `db` over 40 `rec`, ten of
    /// them keyed `a`, thirty `b` — and one more keyed `rare` on request.
    fn single_root_forest(with_rare: bool) -> XmlForest {
        let mut f = XmlForest::new();
        let mut b = f.builder();
        b.open("db");
        let keys = (0..40).map(|i| if i < 10 { "a" } else { "b" });
        for key in keys.chain(with_rare.then_some("rare")) {
            b.open("rec");
            b.leaf("key", key);
            b.leaf("val", "payload");
            b.close();
        }
        b.close();
        b.finish();
        f
    }

    #[test]
    fn a_step_is_priced_on_the_rows_flowing_into_it_not_on_the_driver() {
        // Driver `/db` is one row, but the step that probes under `rec`
        // is reached by the ten `rec[key='a']` rows of the step before
        // it: ten heads, not one.
        let f = single_root_forest(false);
        let twig = parse_xpath("/db//rec[key = 'a'][val = 'payload']").unwrap();
        let c = decompose(&twig, f.dict()).unwrap();
        let plan = choose_plan(&c, &PathStats::build(&f), f.dict(), 3);
        assert_eq!(plan.steps.len(), 3);
        assert_eq!(plan.steps[0].estimate, 1, "the driver is the single root");
        assert_eq!(plan.steps[1].estimate, 10);
        let under_db = plan.steps[1].price.expect("`//rec/key` can be probed under db");
        assert_eq!((under_db.heads, plan.steps[1].key_count), (1, 1));
        let under_rec = plan.steps[2].price.expect("`val` can be probed under rec");
        assert_eq!(under_rec.heads, plan.steps[1].estimate, "step 2 sees step 1's rows");
        assert_eq!(plan.steps[2].key_count, 40);
        assert_eq!(under_rec.bound_rows, 10);
        // Ten three-page descents against one descent and forty rows.
        assert_eq!(
            (under_rec.bound, under_rec.free),
            (10 * 3 * PAGE_ROWS + 10, 3 * PAGE_ROWS + 40)
        );
        assert_eq!(plan.steps[2].method(), Method::Free);
        assert_eq!(plan.kind, PlanKind::Merge, "no step kept its probe: {plan:?}");
    }

    #[test]
    fn steps_choose_their_method_independently() {
        // One rare key: probing `val` under its single `rec` beats
        // fetching all forty, while the step that reaches `rec` from the
        // root fetches the same rows either way and stays free.
        let f = single_root_forest(true);
        let twig = parse_xpath("/db//rec[key = 'rare'][val = 'payload']").unwrap();
        let c = decompose(&twig, f.dict()).unwrap();
        let stats = PathStats::build(&f);
        let plan = choose_plan(&c, &stats, f.dict(), 3);
        let methods: Vec<Method> = plan.steps.iter().map(PlanStep::method).collect();
        assert_eq!(methods, [Method::Free, Method::Free, Method::Bound], "{plan:?}");
        assert_eq!(plan.kind, PlanKind::IndexNestedLoop);
        // The executor's half: the same cached step, asked about the
        // common literal and the heads that really arrived, goes free.
        let common = parse_xpath("/db//rec[key = 'b'][val = 'payload']").unwrap();
        let cc = c.rebind(&common);
        let step = &plan.steps[2];
        let again = step.reprice(30, &cc.subpaths[step.subpath].q, &stats, 3);
        assert_eq!(again.heads, 30);
        assert_eq!(again.method(), Method::Free);
        let step = &plan.steps[1];
        assert_eq!(step.structural, 41, "every `//rec/key`, whatever its value");
        let again = step.reprice(1, &cc.subpaths[step.subpath].q, &stats, 3);
        assert_eq!(again.bound_rows, 30, "re-estimated for the literal asked for");
    }

    #[test]
    fn merge_wins_when_branch_point_is_root_like() {
        // Branch at book (single instance): probing buys nothing.
        let (c, stats, dict) = setup("/book[title = 'XML']/year");
        let plan = choose_plan(&c, &stats, &dict, 1);
        assert_eq!(plan.kind, PlanKind::Merge);
    }

    /// A flat corpus with exactly-Zipfian `key` values (32, 16, 8, 4,
    /// 2, 1 instances of `k0` … `k5`) — the §5.2.3 crossover data: the
    /// branch point `rec` is low (63 instances), one branch's
    /// selectivity sweeps from 1 to 32 while the other (`val`) stays
    /// unselective.
    fn zipf_forest() -> XmlForest {
        let mut f = XmlForest::new();
        let mut b = f.builder();
        b.open("db");
        for (i, count) in [32u64, 16, 8, 4, 2, 1].into_iter().enumerate() {
            for _ in 0..count {
                b.open("rec");
                b.leaf("key", &format!("k{i}"));
                b.leaf("val", "payload");
                b.close();
            }
        }
        b.close();
        b.finish();
        f
    }

    fn zipf_plan(f: &XmlForest, literal: &str) -> QueryPlan {
        let twig = parse_xpath(&format!("//rec[key = '{literal}']/val")).unwrap();
        let c = decompose(&twig, f.dict()).unwrap();
        choose_plan(&c, &PathStats::build(f), f.dict(), 1)
    }

    #[test]
    fn skewed_stats_flip_merge_vs_inlj_at_the_selectivity_boundary() {
        let f = zipf_forest();
        // Rarest literal: one selective driver row, probes beat
        // scanning every unselective `val` row (Fig. 12d's INLJ case).
        let rare = zipf_plan(&f, "k5");
        assert_eq!(rare.kind, PlanKind::IndexNestedLoop, "{rare:?}");
        assert_eq!(rare.steps[0].estimate, 1, "driver is the rare branch");
        // Commonest literal: selectivities are comparable, per-head
        // probing buys nothing over one merge pass.
        let common = zipf_plan(&f, "k0");
        assert_eq!(common.kind, PlanKind::Merge, "{common:?}");
        // Walking the Zipf ladder from rare to common crosses the
        // boundary exactly once: INLJ while selective, merge after.
        let kinds: Vec<PlanKind> =
            (0..6).rev().map(|i| zipf_plan(&f, &format!("k{i}")).kind).collect();
        let first_merge = kinds.iter().position(|&k| k == PlanKind::Merge).expect("k0 is merge");
        assert!(
            kinds[first_merge..].iter().all(|&k| k == PlanKind::Merge),
            "plan kind must flip at most once along the skew ladder: {kinds:?}"
        );
        assert!(first_merge >= 1, "the rare end must stay INLJ: {kinds:?}");
    }

    #[test]
    fn inlj_cost_tracks_driver_selectivity_under_skew() {
        let f = zipf_forest();
        // The INLJ estimate must grow monotonically with the driver's
        // cardinality while the merge estimate grows only additively —
        // that relationship is what creates the crossover.
        let costs: Vec<(u64, u64)> = (0..6)
            .map(|i| {
                let p = zipf_plan(&f, &format!("k{i}"));
                (p.inlj_cost, p.merge_cost)
            })
            .collect();
        for w in costs.windows(2) {
            assert!(w[0].0 >= w[1].0, "inlj cost must not grow as the driver gets rarer");
            assert!(w[0].1 >= w[1].1, "merge cost shrinks with the valued branch");
        }
        let (rare_inlj, rare_merge) = costs[5];
        assert!(rare_inlj < rare_merge);
        let (common_inlj, common_merge) = costs[0];
        assert!(common_inlj >= common_merge);
    }

    #[test]
    fn estimates_are_attached_to_steps() {
        let (c, stats, dict) = setup("//author[fn = 'jane']/ln");
        let plan = choose_plan(&c, &stats, &dict, 1);
        let driver = &plan.steps[0];
        assert_eq!(driver.estimate, 2); // two jane fns
        assert!(plan.steps[1].estimate >= 3); // all ln instances

        // Driver is the most selective subpath.
        assert!(plan.steps[1..].iter().all(|s| s.estimate >= driver.estimate));
    }
}
