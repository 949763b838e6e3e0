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
//!
//! A literal's rows are counted in the index that holds them
//! ([`crate::engine::QueryEngine::value_instances`]): the planner counts
//! each literal of the cover once, and the executor counts another
//! literal only as far as its method depends on it
//! ([`PlanStep::reprice`]).

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
    /// Estimated match cardinality ignoring the literal — with the
    /// count of another literal it re-estimates the step for that one.
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
    /// it and the literal actually asked for: the executor's half of the
    /// decision. `q` is the step's subpath as compiled for this request,
    /// `own_literal` says that its literal is the one the plan was made
    /// with, and `count(tag, v, enough)` counts the instances of a
    /// literal, stopping at the first count `enough` accepts.
    ///
    /// The plan's own literal is priced on the plan's estimate, which
    /// counted it. Another literal is counted only when the structural
    /// count, the most rows it can have, already prices bound probes:
    /// fewer rows never favour them ([`price_step`] is monotone in
    /// `rows`), so a step that count prices free is free for every
    /// literal. The count then stops at the first instance from which
    /// bound probes win. Either way the price picks the method the exact
    /// count would; its row figures are those of the count it stopped at.
    pub fn reprice(
        &self,
        heads: u64,
        q: &PcSubpathQuery,
        own_literal: bool,
        height: u32,
        count: impl FnOnce(TagId, &str, &mut dyn FnMut(u64) -> bool) -> u64,
    ) -> StepPrice {
        let price = |rows: u64| price_step(heads, self.key_count, rows, height);
        if own_literal {
            return price(self.estimate);
        }
        let most = price(self.structural);
        match (q.value.as_deref(), q.tags.last()) {
            (Some(v), Some(&leaf)) if most.method() == Method::Bound => {
                let structural = self.structural;
                let bound_wins = &mut |n: u64| price(n.min(structural)).method() == Method::Bound;
                price(count(leaf, v, bound_wins).min(structural))
            }
            _ => most,
        }
    }
}

/// The matches of `q` given the `structural` count of its pattern: capped
/// by the instances of its literal, when it has one (the estimate of
/// `xtwig_opt::pattern_matches`, without recounting the pattern).
fn with_literal(structural: u64, q: &PcSubpathQuery, literal: impl Fn(TagId, &str) -> u64) -> u64 {
    match (&q.value, q.tags.last()) {
        (Some(v), Some(&leaf)) => structural.min(literal(leaf, v)),
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

/// Builds a plan for `compiled` using `stats` for its patterns and
/// `literal(tag, v)`, the instances of `tag` with value `v`, for its
/// literals; `dp_height` is the pages one descent of the DATAPATHS tree
/// fetches (its `BTreeStats::height`).
pub fn choose_plan(
    compiled: &CompiledTwig,
    stats: &PathStats,
    literal: impl Fn(TagId, &str) -> u64,
    dict: &TagDict,
    dp_height: u32,
) -> QueryPlan {
    let n = compiled.subpaths.len();
    // Each pattern is counted once, without its literal; the literal's
    // own count, also taken once, then caps it.
    let structural: Vec<u64> = compiled
        .subpaths
        .iter()
        .map(|sp| xtwig_opt::pattern_matches(stats, &sp.q.tags, sp.q.anchored, None))
        .collect();
    let estimates: Vec<u64> = compiled
        .subpaths
        .iter()
        .zip(&structural)
        .map(|(sp, &count)| with_literal(count, &sp.q, &literal))
        .collect();

    // Driver: the most selective subpath that does not wait as an
    // existence filter ([`waits_as_filter`]); the most selective of all
    // when every subpath waits.
    let driver = (0..n)
        .min_by_key(|&i| (waits_as_filter(compiled, i, estimates[i], stats), estimates[i]))
        .expect("twig has at least one subpath");

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

/// Whether subpath `i`, estimated at `estimate` matches, waits for a
/// later step instead of driving. The plan drives with a waiting subpath
/// only when every subpath waits.
///
/// The subpath is an *existence filter* when every node of it that the
/// output, a `//` edge or another subpath reads is a node it shares with
/// another subpath: no later step consumes a binding only it makes. Joined
/// after the subpaths it shares with, it then runs as the executor's
/// semi-join keyed on its deepest shared node, which stops at the first
/// match that proves a key, so it costs at most one proof per instance of
/// that node (`PathStats::tag_count`). As the driver it fetches every one
/// of its `estimate` matches. When `estimate` is at least those instances,
/// driving cannot fetch fewer rows than the proofs would: the matches
/// collapse onto fewer keys, as Q4x–Q9x's `[people/person/profile/@income
/// = …]` does onto the single `site`. An estimate of 0 still drives,
/// because an empty driver ends the query before any other step runs.
///
/// The rule reads the literal only through `estimate`, so a shape whose
/// filter hangs under a single node plans alike for every literal the
/// data holds.
fn waits_as_filter(compiled: &CompiledTwig, i: usize, estimate: u64, stats: &PathStats) -> bool {
    if estimate == 0 {
        return false;
    }
    let sp = &compiled.subpaths[i];
    let shared = |node: &usize| {
        compiled.subpaths.iter().enumerate().any(|(j, other)| j != i && other.nodes.contains(node))
    };
    let edge_end = |node: usize| {
        compiled
            .segments
            .iter()
            .any(|seg| seg.parent.is_some_and(|(upper, _)| upper == node || seg.root == node))
    };
    let reads_own_node = sp
        .nodes
        .iter()
        .any(|&node| !shared(&node) && (node == compiled.twig.output || edge_end(node)));
    !reads_own_node
        && sp
            .nodes
            .iter()
            .rposition(shared)
            .is_some_and(|pos| estimate >= stats.tag_count(sp.q.tags[pos]))
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
    use crate::decompose::{decompose, SubpathSpec};
    use crate::paths::PathStats;
    use crate::xpath::parse_xpath;
    use xtwig_xml::tree::fig1_book_document;
    use xtwig_xml::XmlForest;

    fn setup(xpath: &str) -> (CompiledTwig, XmlForest) {
        let f = fig1_book_document();
        let twig = parse_xpath(xpath).unwrap();
        let c = decompose(&twig, f.dict()).unwrap();
        (c, f)
    }

    /// The instances of `tag` with value `v` in `f`, node by node.
    fn literal_in(f: &XmlForest) -> impl Fn(TagId, &str) -> u64 + '_ {
        move |tag, v| {
            f.iter_nodes().filter(|&n| f.tag(n) == tag && f.value_str(n) == Some(v)).count() as u64
        }
    }

    /// The plan of `c` over `f`, for a DATAPATHS tree of `height` pages.
    fn plan_of(c: &CompiledTwig, f: &XmlForest, height: u32) -> QueryPlan {
        choose_plan(c, &PathStats::build(f), literal_in(f), f.dict(), height)
    }

    #[test]
    fn single_path_plan_is_one_step_merge() {
        let (c, f) = setup("/book/title[. = 'XML']");
        let plan = plan_of(&c, &f, 1);
        assert_eq!(plan.kind, PlanKind::Merge);
        assert_eq!(plan.steps.len(), 1);
        assert!(plan.steps[0].join.is_none());
    }

    #[test]
    fn intro_twig_plan_is_connected() {
        let (c, f) = setup("/book[title='XML']//author[fn='jane'][ln='doe']");
        let plan = plan_of(&c, &f, 1);
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
        let (c, f) = setup("/book[year = '2000']/chapter/title");
        let plan = plan_of(&c, &f, 1);
        assert_eq!(plan.steps.len(), 2);
        let second = &plan.steps[1];
        let probe = second.probe.as_ref().expect("probe for same-segment branch");
        assert_eq!(c.twig.nodes[probe.anchor].tag, "book");
        assert_eq!(Some(probe.anchor_tag), f.dict().lookup("book"));
        assert!(probe.anchored);
        assert_eq!(probe.tags.len(), probe.step_nodes.len());
    }

    #[test]
    fn cross_segment_probe_is_descendant_pattern() {
        let (c, f) = setup("/book[title='XML']//author[fn='jane'][ln='doe']");
        let plan = plan_of(&c, &f, 1);
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
        let (c, f) = setup("//author[fn = 'john']/nickname");
        let plan = plan_of(&c, &f, 1);
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
        let plan = plan_of(&c, &f, 3);
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
        let plan = plan_of(&c, &f, 3);
        let methods: Vec<Method> = plan.steps.iter().map(PlanStep::method).collect();
        assert_eq!(methods, [Method::Free, Method::Free, Method::Bound], "{plan:?}");
        assert_eq!(plan.kind, PlanKind::IndexNestedLoop);
        // The executor's half: the same cached step, asked about the
        // heads that really arrived and the literals of another request.
        let asked = |step: &PlanStep, xpath: &str| {
            let mut sp = SubpathSpec::default();
            sp.rebind_from(&c.subpaths[step.subpath], &parse_xpath(xpath).unwrap());
            sp.q
        };
        let common = "/db//rec[key = 'b'][val = 'payload']";
        let uncounted = |_: TagId, _: &str, _: &mut dyn FnMut(u64) -> bool| -> u64 {
            panic!("no literal needed counting")
        };
        // The plan's own literal is priced on the plan's estimate: thirty
        // heads go free.
        let step = &plan.steps[2];
        let again = step.reprice(30, &asked(step, common), true, 3, uncounted);
        assert_eq!((again.heads, again.method()), (30, Method::Free));
        // Every `//rec/key` under the one `db` prices free, so no literal
        // of that step is counted.
        let step = &plan.steps[1];
        assert_eq!(step.structural, 41, "every `//rec/key`, whatever its value");
        let again = step.reprice(1, &asked(step, common), false, 3, uncounted);
        assert_eq!(again.method(), Method::Free);
        // Under one `rec`, the 41 `val`s price bound probes: another
        // literal is counted, until bound probes win at its first
        // instance, or to its end when it has none.
        let step = &plan.steps[2];
        let literal = literal_in(&f);
        for (xpath, read, method) in
            [(common, 1, Method::Bound), ("/db//rec[key = 'b'][val = 'absent']", 0, Method::Free)]
        {
            let mut read_to = 0;
            let again = step.reprice(1, &asked(step, xpath), false, 3, |tag, v, enough| {
                let all = literal(tag, v);
                (1..=all)
                    .find(|&n| {
                        read_to = n;
                        enough(n)
                    })
                    .unwrap_or(all)
            });
            assert_eq!((again.method(), read_to), (method, read), "{xpath}");
        }
    }

    #[test]
    fn merge_wins_when_branch_point_is_root_like() {
        // Branch at book (single instance): probing buys nothing.
        let (c, f) = setup("/book[title = 'XML']/year");
        let plan = plan_of(&c, &f, 1);
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
        plan_of(&c, f, 1)
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

    /// A one-document auction site: one `site` over four people, whose
    /// incomes are `100` once and `200` three times, and six open
    /// auctions, four of them with increase `3.00` and two with `75.00`,
    /// each with a `time` and an annotation by its own person `p0`…`p5`.
    fn auction_site() -> XmlForest {
        let mut f = XmlForest::new();
        let mut b = f.builder();
        b.open("site");
        b.open("people");
        for income in ["100", "200", "200", "200"] {
            b.open("person");
            b.open("profile");
            b.attr("income", income);
            b.close();
            b.close();
        }
        b.close();
        b.open("open_auctions");
        for i in 0..6 {
            b.open("open_auction");
            b.attr("increase", if i < 4 { "3.00" } else { "75.00" });
            b.open("annotation");
            b.open("author");
            b.attr("person", &format!("p{i}"));
            b.close();
            b.close();
            b.leaf("time", "noon");
            b.close();
        }
        b.close();
        b.close();
        b.finish();
        f
    }

    /// The plan of `xpath` over `f`, and the tags of its driver's
    /// subpath joined by `/`.
    fn driver_of(f: &XmlForest, xpath: &str) -> (QueryPlan, String) {
        let c = decompose(&parse_xpath(xpath).unwrap(), f.dict()).unwrap();
        let plan = plan_of(&c, f, 1);
        let tags = &c.subpaths[plan.steps[0].subpath].q.tags;
        let names: Vec<&str> = tags.iter().map(|&t| f.dict().name(t)).collect();
        (plan, names.join("/"))
    }

    #[test]
    fn a_filter_under_a_one_instance_root_waits_for_the_open_auction_branch() {
        // Each income branch matches fewer people than there are `3.00`
        // auctions, but all its matches prove the one `site`: the
        // auction branch drives, whatever the income asked for.
        let f = auction_site();
        for (income, estimate) in [("100", 1), ("200", 3)] {
            let xpath = format!(
                "/site[people/person/profile/@income = '{income}']\
                 /open_auctions/open_auction[@increase = '3.00']"
            );
            let (plan, driver) = driver_of(&f, &xpath);
            assert_eq!(driver, "site/open_auctions/open_auction/@increase", "{xpath}: {plan:?}");
            assert_eq!(plan.steps[0].estimate, 4);
            let filter = &plan.steps[1];
            assert_eq!(filter.estimate, estimate, "{xpath}");
            // It joins on the root it proves.
            assert_eq!(filter.join, Some(JoinHow::SharedNode { deepest: 0, shared: vec![0] }));
        }
    }

    #[test]
    fn a_title_rarer_than_the_documents_still_drives() {
        // Three one-book documents, each with two authors: `title = 'XML'`
        // proves one of the three books, so fetching its one match beats
        // six authors. A title every book has proves them all and waits.
        let mut f = XmlForest::new();
        for title in ["XML", "SQL", "SQL"] {
            let mut b = f.builder();
            b.open("book");
            b.leaf("title", title);
            b.leaf("author", "jane");
            b.leaf("author", "john");
            b.close();
            b.finish();
        }
        let (plan, driver) = driver_of(&f, "/book[title = 'XML']/author");
        assert_eq!((driver.as_str(), plan.steps[0].estimate), ("book/title", 1), "{plan:?}");
        let (plan, driver) = driver_of(&f, "/book[title]/author");
        assert_eq!((driver.as_str(), plan.steps[0].estimate), ("book/author", 6), "{plan:?}");
    }

    #[test]
    fn a_rare_literal_under_a_many_instance_node_still_drives() {
        // Q10x's shape: one annotation author among six auctions.
        let f = auction_site();
        let (plan, driver) = driver_of(
            &f,
            "/site/open_auctions/open_auction[annotation/author/@person = 'p2']/time",
        );
        assert_eq!(driver, "site/open_auctions/open_auction/annotation/author/@person", "{plan:?}");
        assert_eq!((plan.steps[0].estimate, plan.steps[1].key_count), (1, 6));
    }

    #[test]
    fn an_empty_filter_still_drives() {
        // No person earns `0`: the empty driver ends the query at once.
        let f = auction_site();
        let (plan, driver) = driver_of(
            &f,
            "/site[people/person/profile/@income = '0']\
             /open_auctions/open_auction[@increase = '3.00']",
        );
        assert_eq!(driver, "site/people/person/profile/@income", "{plan:?}");
        assert_eq!(plan.steps[0].estimate, 0);
    }

    #[test]
    fn estimates_are_attached_to_steps() {
        let (c, f) = setup("//author[fn = 'jane']/ln");
        let plan = plan_of(&c, &f, 1);
        let driver = &plan.steps[0];
        assert_eq!(driver.estimate, 2); // two jane fns
        assert!(plan.steps[1].estimate >= 3); // all ln instances

        // Driver is the most selective subpath.
        assert!(plan.steps[1..].iter().all(|s| s.estimate >= driver.estimate));
    }
}
