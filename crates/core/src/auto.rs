//! Cost-based strategy selection: the glue between the engine and the
//! `xtwig-opt` decision layer.
//!
//! The paper's Figs. 9–13 show the winning index configuration depends
//! on twig shape and selectivity; this module lets the engine make that
//! call per query. It measures the physical shape of every built
//! structure into an [`xtwig_opt::Catalog`], reduces a planned twig to
//! an [`xtwig_opt::TwigCostInput`], and asks the cost model to rank the
//! built strategies by estimated page reads. [`Strategy::Auto`]
//! resolves to the top of that ranking; [`QueryEngine::explain`]
//! surfaces the whole ranking for EXPLAIN output.
//!
//! Everything here works identically on a freshly built engine and on
//! one reopened from a persisted `.xtwig` file — the catalog is read
//! from the live structures (tree shapes survive reopen), and the
//! statistics come from the persisted `PathStats`, so `xtwig explain`
//! never needs to rebuild an index.

use crate::decompose::{CompiledTwig, UnknownTag};
use crate::engine::{QueryEngine, Strategy};
use crate::plan::{JoinHow, Method, PlanKind, QueryPlan};
use std::borrow::Borrow;
use xtwig_btree::BTree;
use xtwig_opt::{
    rank, Calibration, Catalog, InljProbe, StrategyChoice, SubpathInput, TreeProfile, TwigCostInput,
};
use xtwig_xml::{TwigPattern, XmlForest};

/// [`TreeProfile`] of a live B+-tree. The profile counts *internal*
/// levels (`BTreeStats::height` counts the root-is-leaf level as 1).
pub(crate) fn tree_profile(tree: &BTree) -> TreeProfile {
    let s = tree.stats();
    TreeProfile { pages: s.pages, rows: s.entries, height: s.height.saturating_sub(1) }
}

/// The optimizer's view of one compiled query: the chosen relational
/// plan plus every built strategy ranked by estimated page reads.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The merge/INLJ plan the engine would execute.
    pub plan: QueryPlan,
    /// Built strategies, cheapest first.
    pub choices: Vec<StrategyChoice>,
}

impl Explanation {
    /// The strategy [`Strategy::Auto`] resolves to (none only when no
    /// strategy was built at all).
    pub fn chosen(&self) -> Option<Strategy> {
        self.choices.first().map(|c| c.strategy)
    }
}

impl<F: Borrow<XmlForest>> QueryEngine<F> {
    /// Measures the physical shape of every built structure — the cost
    /// model's catalog.
    pub fn catalog(&self) -> Catalog {
        Catalog {
            rp: self.rp.as_ref().map(|(i, _)| tree_profile(i.tree())),
            dp: self.dp.as_ref().map(|(i, _)| tree_profile(i.tree())),
            edge: self.edge.as_ref().map(|(e, _)| e.cost_profile()),
            dg: self.dg.as_ref().map(|(d, _)| d.cost_profile()),
            fab: self.fab.as_ref().map(|(f, _)| f.cost_profile()),
            asr: self.asr.as_ref().map(|(a, _)| a.cost_profile()),
            ji: self.ji.as_ref().map(|(j, _)| j.cost_profile()),
        }
    }

    /// Reduces a planned twig to the cost model's input: its PCsubpath
    /// cover (with the interior-ids-needed flags the engine's own
    /// execution uses), the rows expected to feed `//` stitches, and
    /// the steps the planner chose to answer by BoundIndex probes.
    pub fn cost_input(&self, compiled: &CompiledTwig, plan: &QueryPlan) -> TwigCostInput {
        let needed = self.needed_nodes(compiled, plan);
        let subpaths = compiled
            .subpaths
            .iter()
            .map(|sp| SubpathInput {
                tags: sp.q.tags.clone(),
                anchored: sp.q.anchored,
                value: sp.q.value.clone(),
                interior_needed: sp.nodes[..sp.nodes.len() - 1].iter().any(|&n| needed[n]),
            })
            .collect();

        // Rows whose ancestors a `//` stitch must recover: for each
        // ancestor-descendant join, the smaller side of the join as the
        // running result size so far (semi-joins only shrink it).
        let mut ancestor_rows = 0u64;
        let mut running = plan.steps.first().map_or(0, |s| s.estimate);
        for step in &plan.steps[1..] {
            if matches!(
                step.join,
                Some(JoinHow::AncestorOf { .. }) | Some(JoinHow::DescendantBound { .. })
            ) {
                ancestor_rows += running.min(step.estimate);
            }
            running = running.min(step.estimate);
        }

        // The steps the planner answered by BoundIndex probes, with the
        // heads and rows it priced them on (`plan::price_step`).
        let inlj = (plan.kind == PlanKind::IndexNestedLoop).then(|| {
            let probes = plan.steps[1..]
                .iter()
                .map(|step| match step.price {
                    Some(p) if p.method() == Method::Bound => {
                        InljProbe { heads: p.heads, rows: p.bound_rows }
                    }
                    // Every other step is one free lookup of the subpath.
                    _ => InljProbe { heads: 1, rows: step.estimate },
                })
                .collect();
            (plan.steps[0].subpath, probes)
        });

        TwigCostInput { subpaths, ancestor_rows, inlj }
    }

    /// Ranks every built strategy for an already-compiled twig,
    /// cheapest estimated page reads first.
    pub fn rank_strategies(
        &self,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
    ) -> Vec<StrategyChoice> {
        rank(
            self.stats(),
            &self.catalog(),
            &self.cost_input(compiled, plan),
            &Calibration::default(),
        )
    }

    /// Resolves [`Strategy::Auto`] to the cheapest built configuration
    /// for this query; concrete strategies pass through unchanged.
    ///
    /// # Panics
    /// Panics when `strategy` is `Auto` and no strategy was built
    /// (parallel to the engine's unbuilt-strategy panics; services
    /// check [`QueryEngine::has_strategy`] up front).
    pub fn resolve_strategy(
        &self,
        strategy: Strategy,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
    ) -> Strategy {
        if !strategy.is_auto() {
            return strategy;
        }
        self.rank_strategies(compiled, plan)
            .first()
            .map(|c| c.strategy)
            .expect("Strategy::Auto requires at least one built configuration")
    }

    /// Compiles `twig` and ranks every built strategy — the data behind
    /// `xtwig explain`. Works on reopened `.xtwig` indexes without any
    /// rebuild (statistics and tree shapes are persisted).
    pub fn explain(&self, twig: &TwigPattern) -> Result<Explanation, UnknownTag> {
        let (compiled, plan) = self.compile(twig)?;
        let choices = self.rank_strategies(&compiled, &plan);
        Ok(Explanation { plan, choices })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::parse_xpath;
    use std::collections::BTreeSet;
    use xtwig_xml::naive;
    use xtwig_xml::tree::fig1_book_document;

    fn engine(forest: &XmlForest) -> QueryEngine<&XmlForest> {
        QueryEngine::build(forest, EngineOptions { pool_pages: 1024, ..Default::default() })
    }

    #[test]
    fn catalog_covers_built_strategies_only() {
        let f = fig1_book_document();
        let full = engine(&f).catalog();
        for s in Strategy::ALL {
            assert!(full.has(s), "{s}");
        }
        assert!(full.has(Strategy::Auto));
        let rp_only = QueryEngine::build(
            &f,
            EngineOptions {
                strategies: vec![Strategy::RootPaths],
                pool_pages: 1024,
                ..Default::default()
            },
        )
        .catalog();
        assert!(rp_only.has(Strategy::RootPaths));
        assert!(!rp_only.has(Strategy::Edge));
        assert!(!rp_only.has(Strategy::DataGuideEdge));
        assert!(rp_only.has(Strategy::Auto));
    }

    #[test]
    fn rank_is_sorted_and_complete() {
        let f = fig1_book_document();
        let e = engine(&f);
        let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
        let (compiled, plan) = e.compile(&twig).unwrap();
        let choices = e.rank_strategies(&compiled, &plan);
        assert_eq!(choices.len(), Strategy::ALL.len());
        assert!(choices.windows(2).all(|w| w[0].est_page_reads <= w[1].est_page_reads));
        assert!(choices.iter().all(|c| c.est_page_reads.is_finite()));
    }

    #[test]
    fn auto_answers_match_every_concrete_strategy() {
        let f = fig1_book_document();
        let e = engine(&f);
        for q in [
            "/book/title[. = 'XML']",
            "//author[fn = 'jane'][ln = 'doe']",
            "/book[title = 'XML']//section/head",
            "//chapter[title = 'XML']/section/head",
            "//title",
        ] {
            let twig = parse_xpath(q).unwrap();
            let expected: BTreeSet<u64> =
                naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
            let auto = e.answer(&twig, Strategy::Auto);
            assert_eq!(auto.ids, expected, "auto wrong on {q}");
            assert!(!auto.strategy.is_auto(), "answer must report the concrete pick");
            for s in Strategy::ALL {
                let concrete = e.answer(&twig, s);
                assert_eq!(concrete.ids, expected, "{s} wrong on {q}");
                assert_eq!(concrete.strategy, s);
            }
        }
    }

    #[test]
    fn resolve_strategy_passes_concrete_through() {
        let f = fig1_book_document();
        let e = engine(&f);
        let twig = parse_xpath("//author/fn").unwrap();
        let (compiled, plan) = e.compile(&twig).unwrap();
        for s in Strategy::ALL {
            assert_eq!(e.resolve_strategy(s, &compiled, &plan), s);
        }
        let pick = e.resolve_strategy(Strategy::Auto, &compiled, &plan);
        assert!(Strategy::ALL.contains(&pick));
        assert_eq!(pick, e.explain(&twig).unwrap().chosen().unwrap());
    }

    #[test]
    fn auto_resolves_within_the_built_subset() {
        let f = fig1_book_document();
        let e = QueryEngine::build(
            &f,
            EngineOptions {
                strategies: vec![Strategy::Edge, Strategy::Asr],
                pool_pages: 1024,
                ..Default::default()
            },
        );
        let twig = parse_xpath("//author[fn = 'jane']").unwrap();
        let a = e.answer(&twig, Strategy::Auto);
        assert!(matches!(a.strategy, Strategy::Edge | Strategy::Asr));
        let expected: BTreeSet<u64> = naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
        assert_eq!(a.ids, expected);
    }

    #[test]
    fn unknown_tag_under_auto_is_empty_without_resolution() {
        let f = fig1_book_document();
        let e = engine(&f);
        let twig = parse_xpath("//unknown_tag_never_seen").unwrap();
        let a = e.answer(&twig, Strategy::Auto);
        assert!(a.ids.is_empty());
        assert_eq!(a.strategy, Strategy::Auto, "nothing executed, nothing resolved");
    }

    #[test]
    fn explain_prefers_single_probe_strategies_for_valued_paths() {
        // Fig. 11's lesson: a fully-specified valued path should land
        // on a single-probe strategy (RP or IF+Edge), not the Edge
        // chain.
        let f = fig1_book_document();
        let e = engine(&f);
        let twig = parse_xpath("/book/allauthors/author/fn[. = 'jane']").unwrap();
        let ex = e.explain(&twig).unwrap();
        let chosen = ex.chosen().unwrap();
        assert!(
            matches!(chosen, Strategy::RootPaths | Strategy::IndexFabricEdge),
            "chose {chosen}"
        );
        let edge_cost =
            ex.choices.iter().find(|c| c.strategy == Strategy::Edge).unwrap().est_page_reads;
        assert!(ex.choices[0].est_page_reads <= edge_cost);
    }
}
