//! The twig query engine: builds the seven index configurations of §5.1.2
//! and evaluates query twigs against any of them.
//!
//! Each strategy gets its own buffer pool so the harness can attribute
//! logical/physical I/O per configuration (the paper uses one DB2 buffer
//! pool but reports per-configuration timings; separate pools give the
//! same attribution without cross-strategy cache pollution). Shared base
//! structures follow the paper's setup: the DG+Edge, IF+Edge, and Join
//! Index strategies use the Edge table's value/link indexes for the parts
//! their primary structure cannot answer.
//!
//! Execution follows §3: decompose the twig into PCsubpaths, evaluate
//! each with the strategy's probe pattern, and stitch the matches with
//! joins on ids extracted from IdLists (merge plan) or with BoundIndex
//! probes (index-nested-loop plan, DATAPATHS only) — a choice made per
//! step, from the rows that reach it (`crate::plan`). A branch that only
//! filters streams: its matches are looked up in the rows they filter as
//! the probe lends them, and the probe stops once every row is proven.
//!
//! Rows live in the flat binding table of `crate::table`, not in a
//! heap object each: a probe's sink writes the ids of an IdList — decoded
//! from the leaf page into one reused buffer — straight into the table,
//! joins build sorted `(key, row index)` runs over it, projection and
//! distinct work on row indices, and the answer set is materialized once,
//! from the output column. Every buffer a step needs belongs to the
//! execution (`Exec`) and is reused by the next step, so an execution
//! allocates by the plan step, not by the row (`tests/alloc_budget.rs`).

use crate::asr::AccessSupportRelations;
use crate::dataguide::DataGuide;
use crate::datapaths::{DataPaths, DataPathsOptions};
use crate::decompose::{decompose, CompiledTwig, SubpathSpec, UnknownTag};
use crate::edge::EdgeTable;
use crate::fabric::IndexFabric;
use crate::family::{value_needs_recheck, PathIndex, PathMatch, PcSubpathQuery};
use crate::joinindex::JoinIndices;
use crate::parallel::ShardPlan;
use crate::paths::PathStats;
use crate::plan::{choose_plan, JoinHow, Method, PlanKind, ProbeSpec, QueryPlan};
use crate::rootpaths::{RootPaths, RootPathsOptions};
use crate::table::{distinct_keys, key_runs, run_of, AncList, BindingTable, UNBOUND};
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashSet};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtwig_obs::{SpanCounters, Trace};
use xtwig_opt::{CalibrationLog, CalibrationSample};
use xtwig_storage::{BufferPool, IoStatsSnapshot, PoolCounters};
use xtwig_xml::{NodeId, TagId, TwigPattern, XmlForest};

// The strategy menu lives in `xtwig-opt` — the cost-based decision
// layer ranks `Strategy` values, and the engine re-exports the type so
// `xtwig_core::Strategy` paths keep working. `Strategy::Auto` is the
// optimizer-resolved pseudo-strategy; every execution path below
// resolves it to a concrete configuration before touching an index
// (see [`QueryEngine::resolve_strategy`] in `crate::auto`).
pub use xtwig_opt::{ParseStrategyError, Strategy};

/// Build options for [`QueryEngine`].
#[derive(Clone)]
pub struct EngineOptions {
    /// Which strategies to materialize. Listing [`Strategy::Auto`]
    /// requests **every** concrete configuration — auto is a
    /// query-time directive, and resolving it needs the full menu
    /// built (a bare `--strategies auto` must not silently persist an
    /// index with nothing in it).
    pub strategies: Vec<Strategy>,
    /// Buffer-pool frames per structure pool (default 2048 = 16 MiB; the
    /// harness uses 5120 = 40 MiB, matching §5.1.1).
    pub pool_pages: usize,
    /// ROOTPATHS options.
    pub rp: RootPathsOptions,
    /// DATAPATHS options.
    pub dp: DataPathsOptions,
    /// §4.3 HeadId pruning: retain only DATAPATHS rows headed at these
    /// tags (None = keep everything).
    pub head_filter_tags: Option<HashSet<String>>,
    /// Stitch `//` edges with the stack-based structural join
    /// ([`crate::stitch`]) instead of IdList-ancestor unnesting — the §6
    /// alternative the paper could not run inside DB2.
    pub structural_ad_joins: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            strategies: Strategy::ALL.to_vec(),
            pool_pages: 2048,
            rp: RootPathsOptions::default(),
            dp: DataPathsOptions::default(),
            head_filter_tags: None,
            structural_ad_joins: false,
        }
    }
}

/// Per-query metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryMetrics {
    /// Index probes issued (every B+-tree lookup counts as one).
    pub probes: u64,
    /// Match rows fetched from indexes.
    pub rows_fetched: u64,
    /// Buffer-pool page requests during the query.
    pub logical_reads: u64,
    /// Pages read from the backend (cold portion).
    pub physical_reads: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// A query result.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// Distinct ids bound to the twig's output node.
    pub ids: BTreeSet<u64>,
    /// The plan kind that ran: [`PlanKind::IndexNestedLoop`] when some
    /// step was answered by BoundIndex probes — decided per step, at run
    /// time, so it can differ from the cached plan's `kind`.
    pub plan: PlanKind,
    /// The concrete strategy that executed — the optimizer's pick when
    /// the query was submitted with [`Strategy::Auto`] (or the
    /// requested strategy verbatim when nothing executed at all, e.g.
    /// an unknown-tag twig).
    pub strategy: Strategy,
    /// Cost metrics.
    pub metrics: QueryMetrics,
}

impl QueryAnswer {
    /// The canonical answer for a twig that cannot match — e.g. it
    /// names a tag absent from the data (§2.2) — with nothing executed
    /// and all metrics zero.
    pub fn empty(strategy: Strategy) -> Self {
        QueryAnswer {
            ids: BTreeSet::new(),
            plan: PlanKind::Merge,
            strategy,
            metrics: QueryMetrics::default(),
        }
    }
}

/// The engine owning all built index configurations for one forest.
///
/// Generic over how the forest is held: `QueryEngine<&XmlForest>`
/// borrows it (the historical single-threaded shape), while
/// `QueryEngine<Arc<XmlForest>>` — the default — owns a shared handle
/// and is `Send + Sync`, so one engine can serve concurrent queries
/// from many threads (`answer` takes `&self` throughout; see
/// `xtwig-service`). The only `&mut self` surface is index maintenance
/// ([`QueryEngine::rootpaths_mut`] / [`QueryEngine::datapaths_mut`]);
/// rather than serializing maintenance against readers with a lock,
/// callers fork the engine ([`QueryEngine::fork`] — a copy-on-write
/// snapshot that copies no pages), mutate the fork, and publish it,
/// leaving the original to serve concurrent readers as a frozen
/// snapshot.
///
/// Concurrency note on metrics: result sets are always exact, but the
/// per-query `probes`/`logical_reads` attribution drains shared
/// counters, so it is only exact when queries against the *same*
/// strategy do not overlap in time.
pub struct QueryEngine<F: Borrow<XmlForest> = Arc<XmlForest>> {
    // Fields are crate-visible for `crate::persist`, which flushes each
    // structure's pool into an index file and reconstructs the engine
    // from the stored catalog on open.
    pub(crate) forest: F,
    // Immutable after build, so forks share it: the value maps are
    // large, and a commit must not pay for cloning them.
    pub(crate) stats: Arc<PathStats>,
    pub(crate) rp: Option<(RootPaths, Arc<BufferPool>)>,
    pub(crate) dp: Option<(DataPaths, Arc<BufferPool>)>,
    pub(crate) pruned_tags: Option<HashSet<TagId>>,
    pub(crate) edge: Option<(EdgeTable, Arc<BufferPool>)>,
    pub(crate) dg: Option<(DataGuide, Arc<BufferPool>)>,
    pub(crate) fab: Option<(IndexFabric, Arc<BufferPool>)>,
    pub(crate) asr: Option<(AccessSupportRelations, Arc<BufferPool>)>,
    pub(crate) ji: Option<(JoinIndices, Arc<BufferPool>)>,
    pub(crate) structural_ad_joins: bool,
    // Optimizer-feedback ring fed by traced executions; forks share the
    // parent's log so samples accumulate across snapshots.
    pub(crate) calibration: Arc<CalibrationLog>,
}

/// What one execution carries through the plan-step loop: the two
/// counters [`QueryMetrics`] reports, the trace being recorded when the
/// caller has one, and every buffer the steps work in — allocated at
/// most once per execution and reused from step to step.
#[derive(Default)]
struct Exec<'a> {
    io: ProbeIo,
    trace: Option<&'a mut Trace>,
    /// The rows accumulated by the steps so far.
    rows: BindingTable,
    /// The matches of the subpath the current step probed.
    fresh: BindingTable,
    /// Where a join, an INLJ extension or a distinct writes its output
    /// before it is swapped into `rows`.
    out: BindingTable,
    /// Captured ancestor lists of all three tables.
    arena: Vec<u64>,
    /// The build side of the current join.
    keys: Vec<(u64, usize)>,
    /// Row order scratch of distinct.
    order: Vec<usize>,
    /// Which rows a streamed semi-join has found a partner for.
    marks: Vec<bool>,
    /// True once some step ran as BoundIndex probes.
    ran_bound: bool,
    /// The identity net's handle on the choices `execute` makes.
    #[cfg(test)]
    forced: Option<Forced>,
}

/// What an index probe reads into and counts into.
#[derive(Default)]
struct ProbeIo {
    /// The IdList of the index entry being read.
    ids: Vec<u64>,
    /// Index probes issued.
    probes: u64,
    /// Match rows fetched from indexes.
    rows_fetched: u64,
}

/// Takes the per-step choices away from the pricing, so that the tests
/// can run every step both ways and compare the answers: bit `i` of
/// `bound_steps` makes step `i` BoundIndex probes where it can be (a free
/// lookup otherwise), and `full_joins` runs existence filters as full
/// joins followed by the projection.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct Forced {
    bound_steps: u32,
    full_joins: bool,
}

#[cfg(test)]
impl Forced {
    fn method(self, step: usize) -> Method {
        if self.bound_steps >> step & 1 == 1 {
            Method::Bound
        } else {
            Method::Free
        }
    }
}

/// The rows of a semi-join's left side still waiting for a partner.
struct Unproven<'a> {
    marks: &'a mut [bool],
    left: usize,
}

impl Unproven<'_> {
    /// Row `i` has a partner.
    fn prove(&mut self, i: usize) {
        if !std::mem::replace(&mut self.marks[i], true) {
            self.left -= 1;
        }
    }

    /// `Break` once no row is waiting: nothing a further match could add.
    fn flow(&self) -> ControlFlow<()> {
        match self.left {
            0 => ControlFlow::Break(()),
            _ => ControlFlow::Continue(()),
        }
    }
}

/// What the steps of one plan consume, computed once per execution.
struct StepMasks {
    /// Twig nodes per row.
    n: usize,
    /// Segment roots whose ancestor lists some `//` join reads; a row's
    /// ancestor-list slot `s` belongs to `anc_nodes[s]`.
    anc_nodes: Vec<usize>,
    /// `steps × n`: twig nodes that steps after step `i`, or the output,
    /// still consume.
    keep: Vec<bool>,
    /// `steps × anc_nodes.len()`: slots a later `//` join still reads.
    keep_anc: Vec<bool>,
}

impl StepMasks {
    fn new(compiled: &CompiledTwig, plan: &QueryPlan) -> Self {
        let n = compiled.twig.len();
        let mut anc_nodes: Vec<usize> = plan
            .steps
            .iter()
            .filter_map(|step| match step.join {
                Some(JoinHow::AncestorOf { seg_root, .. })
                | Some(JoinHow::DescendantBound { seg_root, .. }) => Some(seg_root),
                _ => None,
            })
            .collect();
        anc_nodes.sort_unstable();
        anc_nodes.dedup();
        let (steps, slots) = (plan.steps.len(), anc_nodes.len());
        let mut masks = StepMasks {
            n,
            keep: vec![false; steps * n],
            keep_anc: vec![false; steps * slots],
            anc_nodes,
        };
        // Walk the plan backwards: what step `i` must leave behind is
        // what step `i + 1` reads plus what that step must leave behind.
        let mut keep = vec![false; n];
        keep[compiled.twig.output] = true;
        let mut keep_anc = vec![false; slots];
        for i in (0..steps).rev() {
            masks.keep[i * n..(i + 1) * n].copy_from_slice(&keep);
            masks.keep_anc[i * slots..(i + 1) * slots].copy_from_slice(&keep_anc);
            let step = &plan.steps[i];
            for &node in &compiled.subpaths[step.subpath].nodes {
                keep[node] = true;
            }
            if let Some(probe) = &step.probe {
                keep[probe.anchor] = true;
            }
            match &step.join {
                Some(JoinHow::SharedNode { shared, deepest }) => {
                    keep[*deepest] = true;
                    for &node in shared {
                        keep[node] = true;
                    }
                }
                Some(JoinHow::AncestorOf { upper, seg_root }) => {
                    keep[*upper] = true;
                    keep[*seg_root] = true;
                }
                Some(JoinHow::DescendantBound { upper, seg_root }) => {
                    keep[*upper] = true;
                    keep[*seg_root] = true;
                    if let Some(slot) = masks.anc_slot(*seg_root) {
                        keep_anc[slot] = true;
                    }
                }
                None => {}
            }
        }
        masks
    }

    /// The ancestor-list slot of twig node `node`, when a `//` join reads
    /// its ancestors.
    fn anc_slot(&self, node: usize) -> Option<usize> {
        self.anc_nodes.iter().position(|&n| n == node)
    }

    /// Twig nodes consumed after step `done` (the output node included).
    fn keep_after(&self, done: usize) -> &[bool] {
        &self.keep[done * self.n..(done + 1) * self.n]
    }

    /// Ancestor-list slots a `//` join after step `done` reads.
    fn keep_anc_after(&self, done: usize) -> &[bool] {
        let slots = self.anc_nodes.len();
        &self.keep_anc[done * slots..(done + 1) * slots]
    }
}

impl<F: Borrow<XmlForest>> QueryEngine<F> {
    /// Builds the selected index configurations over `forest`.
    pub fn build(forest: F, options: EngineOptions) -> Self {
        let plan = ShardPlan::sequential(forest.borrow());
        Self::build_with_plan(forest, options, &plan)
    }

    /// Builds the selected configurations with a shard-parallel pass:
    /// the forest is partitioned into up to `shards` whole-document
    /// ranges and each structure's rows are enumerated and sorted on a
    /// worker pool, then merged into one deterministic bulk load per
    /// B+-tree. The resulting structures are **byte-identical** to
    /// [`QueryEngine::build`]'s — same page images, same answers — as
    /// asserted via [`QueryEngine::structure_digest`] in the
    /// `parallel_build` suite. `shards <= 1` degenerates to the
    /// sequential build.
    pub fn build_parallel(forest: F, options: EngineOptions, shards: usize) -> Self {
        let plan = ShardPlan::new(forest.borrow(), shards);
        Self::build_with_plan(forest, options, &plan)
    }

    /// [`QueryEngine::build_parallel`] with an explicit [`ShardPlan`]
    /// (tests pin shard boundaries and worker counts through this).
    pub fn build_with_plan(forest: F, options: EngineOptions, plan: &ShardPlan) -> Self {
        let f: &XmlForest = forest.borrow();
        let want = |s: Strategy| {
            options.strategies.contains(&s) || options.strategies.contains(&Strategy::Auto)
        };
        let needs_edge = want(Strategy::Edge)
            || want(Strategy::DataGuideEdge)
            || want(Strategy::IndexFabricEdge)
            || want(Strategy::JoinIndex);
        let pool = || Arc::new(BufferPool::in_memory(options.pool_pages));
        let stats = Arc::new(PathStats::build_sharded(f, plan));
        let pruned_tags = options
            .head_filter_tags
            .as_ref()
            .map(|names| names.iter().filter_map(|n| f.dict().lookup(n)).collect::<HashSet<_>>());
        let dp = want(Strategy::DataPaths).then(|| {
            let p = pool();
            let dp = match &pruned_tags {
                None => DataPaths::build_sharded(f, p.clone(), options.dp, plan),
                Some(tags) => DataPaths::build_filtered_sharded(
                    f,
                    p.clone(),
                    options.dp,
                    Some(&|_head, path_tags: &[TagId]| tags.contains(&path_tags[0])),
                    plan,
                ),
            };
            (dp, p)
        });
        let rp = want(Strategy::RootPaths).then(|| {
            let p = pool();
            (RootPaths::build_sharded(f, p.clone(), options.rp, plan), p)
        });
        let edge = needs_edge.then(|| {
            let p = pool();
            (EdgeTable::build_sharded(f, p.clone(), plan), p)
        });
        let dg = want(Strategy::DataGuideEdge).then(|| {
            let p = pool();
            (DataGuide::build_sharded(f, p.clone(), plan), p)
        });
        let fab = want(Strategy::IndexFabricEdge).then(|| {
            let p = pool();
            (IndexFabric::build_sharded(f, p.clone(), plan), p)
        });
        let asr = want(Strategy::Asr).then(|| {
            let p = pool();
            (AccessSupportRelations::build_sharded(f, p.clone(), plan), p)
        });
        let ji = want(Strategy::JoinIndex).then(|| {
            let p = pool();
            (JoinIndices::build_sharded(f, p.clone(), plan), p)
        });
        QueryEngine {
            forest,
            stats,
            rp,
            dp,
            pruned_tags,
            edge,
            dg,
            fab,
            asr,
            ji,
            structural_ad_joins: options.structural_ad_joins,
            calibration: Arc::new(CalibrationLog::new(CalibrationLog::DEFAULT_CAPACITY)),
        }
    }

    /// The forest under query.
    pub fn forest(&self) -> &XmlForest {
        self.forest.borrow()
    }

    /// A clone of the forest handle — e.g. the `Arc<XmlForest>` a
    /// background rebuild shares without copying the data (see
    /// `TwigService::rebuild_parallel`).
    pub fn forest_handle(&self) -> F
    where
        F: Clone,
    {
        self.forest.clone()
    }

    /// True when `strategy`'s structures were built (querying an
    /// unbuilt strategy panics; services check this up front).
    /// [`Strategy::Auto`] is available as soon as any concrete strategy
    /// is — the optimizer only ranks built configurations.
    pub fn has_strategy(&self, strategy: Strategy) -> bool {
        match strategy {
            Strategy::RootPaths => self.rp.is_some(),
            Strategy::DataPaths => self.dp.is_some(),
            Strategy::Edge => self.edge.is_some(),
            Strategy::DataGuideEdge => self.dg.is_some() && self.edge.is_some(),
            Strategy::IndexFabricEdge => self.fab.is_some() && self.edge.is_some(),
            Strategy::Asr => self.asr.is_some(),
            Strategy::JoinIndex => self.ji.is_some() && self.edge.is_some(),
            Strategy::Auto => Strategy::ALL.iter().any(|&s| self.has_strategy(s)),
        }
    }

    /// Mutable access to ROOTPATHS for the §7 maintenance path. Callers
    /// holding the engine behind a lock (see `xtwig-service`) must
    /// invalidate any cached results after mutating.
    pub fn rootpaths_mut(&mut self) -> Option<&mut RootPaths> {
        self.rp.as_mut().map(|(i, _)| i)
    }

    /// Mutable access to DATAPATHS; see [`QueryEngine::rootpaths_mut`].
    pub fn datapaths_mut(&mut self) -> Option<&mut DataPaths> {
        self.dp.as_mut().map(|(i, _)| i)
    }

    /// Path statistics (selectivity estimates).
    pub fn stats(&self) -> &PathStats {
        &self.stats
    }

    /// The built ROOTPATHS index, if any.
    pub fn rootpaths(&self) -> Option<&RootPaths> {
        self.rp.as_ref().map(|(i, _)| i)
    }

    /// The built DATAPATHS index, if any.
    pub fn datapaths(&self) -> Option<&DataPaths> {
        self.dp.as_ref().map(|(i, _)| i)
    }

    /// The built Edge configuration, if any.
    pub fn edge(&self) -> Option<&EdgeTable> {
        self.edge.as_ref().map(|(i, _)| i)
    }

    /// Space used by a strategy (Fig. 9): the primary structure plus any
    /// Edge structures it relies on. [`Strategy::Auto`] owns no
    /// structures of its own and reports zero.
    pub fn space_bytes(&self, strategy: Strategy) -> u64 {
        let edge = self.edge.as_ref().map_or(0, |(e, _)| e.space_bytes());
        match strategy {
            Strategy::RootPaths => self.rp.as_ref().map_or(0, |(i, _)| i.space_bytes()),
            Strategy::DataPaths => self.dp.as_ref().map_or(0, |(i, _)| i.space_bytes()),
            Strategy::Edge => edge,
            Strategy::DataGuideEdge => self.dg.as_ref().map_or(0, |(i, _)| i.space_bytes()) + edge,
            Strategy::IndexFabricEdge => {
                self.fab.as_ref().map_or(0, |(i, _)| i.space_bytes()) + edge
            }
            Strategy::Asr => self.asr.as_ref().map_or(0, |(i, _)| i.space_bytes()),
            Strategy::JoinIndex => self.ji.as_ref().map_or(0, |(i, _)| i.space_bytes()) + edge,
            Strategy::Auto => 0,
        }
    }

    pub(crate) fn pools_for(&self, strategy: Strategy) -> Vec<&Arc<BufferPool>> {
        let mut pools = Vec::new();
        match strategy {
            Strategy::RootPaths => {
                if let Some((_, p)) = &self.rp {
                    pools.push(p);
                }
            }
            Strategy::DataPaths => {
                if let Some((_, p)) = &self.dp {
                    pools.push(p);
                }
            }
            Strategy::Edge => {
                if let Some((_, p)) = &self.edge {
                    pools.push(p);
                }
            }
            Strategy::DataGuideEdge => {
                if let Some((_, p)) = &self.dg {
                    pools.push(p);
                }
                if let Some((_, p)) = &self.edge {
                    pools.push(p);
                }
            }
            Strategy::IndexFabricEdge => {
                if let Some((_, p)) = &self.fab {
                    pools.push(p);
                }
                if let Some((_, p)) = &self.edge {
                    pools.push(p);
                }
            }
            Strategy::Asr => {
                if let Some((_, p)) = &self.asr {
                    pools.push(p);
                }
            }
            Strategy::JoinIndex => {
                if let Some((_, p)) = &self.ji {
                    pools.push(p);
                }
                if let Some((_, p)) = &self.edge {
                    pools.push(p);
                }
            }
            // Auto owns no pools; metric attribution happens against
            // the concrete strategy it resolved to.
            Strategy::Auto => {}
        }
        pools
    }

    /// FNV-1a digest over the raw page images of every buffer pool
    /// backing `strategy` (the primary structure's pool, plus the Edge
    /// pool for the strategies that lean on it). Two engines built from
    /// the same forest and options digest equal iff their index pages
    /// are byte-identical — the acceptance check for
    /// [`QueryEngine::build_parallel`].
    pub fn structure_digest(&self, strategy: Strategy) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in self.pools_for(strategy) {
            h ^= p.content_hash();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Drops every cached page of the strategy's pools (flushes dirty
    /// pages first) so the next query runs cold — the paper's omitted
    /// cold-cache setting, used by the buffer-pool ablation bench.
    pub fn clear_caches(&self, strategy: Strategy) {
        for p in self.pools_for(strategy) {
            p.clear_cache();
        }
    }

    /// The engine's optimizer-feedback ring: one [`CalibrationSample`]
    /// per traced execution (see [`QueryEngine::answer_traced`]).
    /// Forks share the parent's log so samples accumulate across
    /// snapshots; indexes reopened from disk start with a fresh one.
    pub fn calibration_log(&self) -> &CalibrationLog {
        &self.calibration
    }

    /// Cheap shared counter handles, one per built structure's buffer
    /// pool: cumulative page reads, misses, and pins since build. The
    /// handles clone an `Arc` around the pool's atomics, so a metrics
    /// scraper can poll them without touching the query surface.
    pub fn pool_counters(&self) -> Vec<(&'static str, PoolCounters)> {
        let mut out = Vec::new();
        if let Some((_, p)) = &self.rp {
            out.push(("rootpaths", p.counters()));
        }
        if let Some((_, p)) = &self.dp {
            out.push(("datapaths", p.counters()));
        }
        if let Some((_, p)) = &self.edge {
            out.push(("edge", p.counters()));
        }
        if let Some((_, p)) = &self.dg {
            out.push(("dataguide", p.counters()));
        }
        if let Some((_, p)) = &self.fab {
            out.push(("fabric", p.counters()));
        }
        if let Some((_, p)) = &self.asr {
            out.push(("asr", p.counters()));
        }
        if let Some((_, p)) = &self.ji {
            out.push(("joinindex", p.counters()));
        }
        out
    }

    fn snapshot(&self, strategy: Strategy) -> IoStatsSnapshot {
        let mut total = IoStatsSnapshot::default();
        for p in self.pools_for(strategy) {
            let s = p.stats().snapshot();
            total.logical_reads += s.logical_reads;
            total.physical_reads += s.physical_reads;
            total.physical_writes += s.physical_writes;
        }
        total
    }

    fn drain_baseline_counters(&self, strategy: Strategy) -> u64 {
        let mut probes = 0;
        match strategy {
            Strategy::Edge => {
                if let Some((e, _)) = &self.edge {
                    probes += e.take_lookups();
                }
            }
            Strategy::DataGuideEdge => {
                if let Some((d, _)) = &self.dg {
                    probes += d.take_lookups();
                }
                if let Some((e, _)) = &self.edge {
                    probes += e.take_lookups();
                }
            }
            Strategy::IndexFabricEdge => {
                if let Some((f, _)) = &self.fab {
                    probes += f.take_lookups();
                }
                if let Some((e, _)) = &self.edge {
                    probes += e.take_lookups();
                }
            }
            Strategy::Asr => {
                if let Some((a, _)) = &self.asr {
                    probes += a.take_lookups();
                }
            }
            Strategy::JoinIndex => {
                if let Some((j, _)) = &self.ji {
                    probes += j.take_lookups();
                }
                if let Some((e, _)) = &self.edge {
                    probes += e.take_lookups();
                }
            }
            _ => {}
        }
        probes
    }

    /// Compiles and plans a twig in one step: the decompose/choose_plan
    /// front half of [`QueryEngine::answer`], exposed so plan caches
    /// (see `xtwig-service`) can skip it on repeated twig shapes.
    pub fn compile(&self, twig: &TwigPattern) -> Result<(CompiledTwig, QueryPlan), UnknownTag> {
        let compiled = decompose(twig, self.forest().dict())?;
        let dp_height = self.dp.as_ref().map_or(1, |(dp, _)| dp.tree().stats().height);
        let plan = choose_plan(&compiled, &self.stats, self.forest().dict(), dp_height);
        Ok((compiled, plan))
    }

    /// Compiles and plans a twig (exposed for the harness' plan reports).
    pub fn plan(&self, twig: &TwigPattern) -> Option<QueryPlan> {
        self.compile(twig).ok().map(|(_, p)| p)
    }

    /// Answers `twig` with `strategy`. [`Strategy::Auto`] is resolved
    /// to the cheapest built configuration by the cost model first (see
    /// [`QueryEngine::resolve_strategy`]); the answer's `strategy`
    /// field reports what actually ran.
    ///
    /// # Panics
    /// Panics if the strategy's structures were not built.
    pub fn answer(&self, twig: &TwigPattern, strategy: Strategy) -> QueryAnswer {
        match self.compile(twig) {
            // Unknown tag: the result is necessarily empty (§2.2).
            Err(_) => QueryAnswer::empty(strategy),
            Ok((compiled, plan)) => self.answer_compiled(&compiled, &plan, strategy),
        }
    }

    /// Answers an already-compiled twig — the execution back half of
    /// [`QueryEngine::answer`], taking the plan from a cache.
    pub fn answer_compiled(
        &self,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
        strategy: Strategy,
    ) -> QueryAnswer {
        self.answer_compiled_with(compiled, plan, strategy, None)
    }

    /// [`QueryEngine::answer_compiled`] with an optional [`Trace`].
    /// This is the one place a twig is executed:
    /// snapshot the strategy's pools, run the plan, drain the deferred
    /// lookup counters, report the deltas as [`QueryMetrics`].
    ///
    /// With a trace, the same execution additionally appends `resolve`,
    /// `execute`, `step` and `materialize` spans to it, ranks the
    /// strategy menu to capture the cost model's estimate, and records
    /// one [`CalibrationSample`] into [`QueryEngine::calibration_log`].
    /// Answer, strategy, plan and counter totals do not depend on
    /// whether a trace was passed (pinned by the `observability` suite).
    pub fn answer_compiled_with(
        &self,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
        strategy: Strategy,
        mut trace: Option<&mut Trace>,
    ) -> QueryAnswer {
        let requested = strategy;
        let resolve = trace.as_deref_mut().map(|t| t.begin("resolve", ""));
        // Auto resolves to a concrete strategy before any index (or
        // metric counter) is touched.
        let strategy = self.resolve_strategy(requested, compiled, plan);
        let mut est_reads = 0.0;
        if let (Some(t), Some(r)) = (trace.as_deref_mut(), resolve) {
            est_reads = self
                .rank_strategies(compiled, plan)
                .into_iter()
                .find(|c| c.strategy == strategy)
                .map_or(0.0, |c| c.est_page_reads);
            if requested == Strategy::Auto {
                t.annotate(r, format!("auto\u{2192}{}", strategy.label()));
            } else {
                t.annotate(r, strategy.label());
            }
            t.end(r, SpanCounters::default());
        }

        let execute = trace.as_deref_mut().map(|t| t.begin("execute", strategy.label()));
        let before = self.snapshot(strategy);
        self.drain_baseline_counters(strategy);
        let start = Instant::now();
        let mut cx = Exec { trace, ..Exec::default() };
        let ids = self.execute(compiled, plan, strategy, &mut cx);
        let elapsed = start.elapsed();
        let probes = cx.io.probes + self.drain_baseline_counters(strategy);
        let delta = self.snapshot(strategy).since(&before);
        let metrics = QueryMetrics {
            probes,
            rows_fetched: cx.io.rows_fetched,
            logical_reads: delta.logical_reads,
            physical_reads: delta.physical_reads,
            elapsed,
        };
        let ran = if cx.ran_bound { PlanKind::IndexNestedLoop } else { PlanKind::Merge };
        if let (Some(t), Some(e)) = (cx.trace, execute) {
            t.end(
                e,
                SpanCounters {
                    logical_reads: metrics.logical_reads,
                    physical_reads: metrics.physical_reads,
                    probes: metrics.probes,
                    rows: metrics.rows_fetched,
                },
            );
            self.calibration.record(CalibrationSample {
                shape: twig_shape(&compiled.twig),
                strategy,
                est_reads,
                actual_reads: metrics.physical_reads,
                micros: elapsed.as_micros() as u64,
            });
        }
        QueryAnswer { ids, plan: ran, strategy, metrics }
    }

    /// [`QueryEngine::answer`] with pipeline tracing: returns the
    /// answer plus a [`Trace`] — a span tree covering planning,
    /// auto-resolution, every plan step (index probe, structural join,
    /// or INLJ extension), and output materialization, each with wall
    /// time, buffer-pool logical/physical read deltas, probe counts,
    /// and rows.
    ///
    /// The trace is handed to the same executor [`QueryEngine::answer`]
    /// runs (see [`QueryEngine::answer_compiled_with`] for what a trace
    /// adds), so result and counter totals are identical to the
    /// untraced call; the ledger's `obs.traced_exec_ratio`
    /// (`benchmark/`) prices the spans.
    ///
    /// # Panics
    /// Panics if the strategy's structures were not built.
    pub fn answer_traced(&self, twig: &TwigPattern, strategy: Strategy) -> (QueryAnswer, Trace) {
        let mut trace = Trace::new();
        let q = trace.begin("query", strategy.label());
        let p = trace.begin("plan", "");
        match self.compile(twig) {
            Err(_) => {
                trace.annotate(p, "unknown tag: empty result");
                trace.end(p, SpanCounters::default());
                trace.end(q, SpanCounters::default());
                (QueryAnswer::empty(strategy), trace)
            }
            Ok((compiled, plan)) => {
                trace.annotate(p, format!("{:?}, {} steps", plan.kind, plan.steps.len()));
                trace.end(
                    p,
                    SpanCounters { rows: plan.steps.len() as u64, ..SpanCounters::default() },
                );
                let answer =
                    self.answer_compiled_with(&compiled, &plan, strategy, Some(&mut trace));
                let m = &answer.metrics;
                trace.end(
                    q,
                    SpanCounters {
                        logical_reads: m.logical_reads,
                        physical_reads: m.physical_reads,
                        probes: m.probes,
                        rows: answer.ids.len() as u64,
                    },
                );
                (answer, trace)
            }
        }
    }

    /// Twig nodes whose ids the execution actually consumes (`mask[node]`):
    /// the output node, nodes shared between subpaths (join keys), probe
    /// anchors, and the endpoints of `//` edges. Interior ids outside
    /// this set need not be materialized — which is what lets the Index
    /// Fabric answer a fully-specified single-path query in one probe
    /// (§5.2.1) while still paying the per-step walks on branching
    /// queries.
    pub(crate) fn needed_nodes(&self, compiled: &CompiledTwig, plan: &QueryPlan) -> Vec<bool> {
        let mut seen = vec![0u32; compiled.twig.len()];
        for sp in &compiled.subpaths {
            for &node in &sp.nodes {
                seen[node] += 1;
            }
        }
        let mut needed: Vec<bool> = seen.iter().map(|&c| c > 1).collect();
        needed[compiled.twig.output] = true;
        for seg in &compiled.segments {
            if let Some((upper, _)) = seg.parent {
                needed[upper] = true;
                needed[seg.root] = true;
            }
        }
        for step in &plan.steps {
            if let Some(probe) = &step.probe {
                needed[probe.anchor] = true;
            }
        }
        needed
    }

    /// Runs the plan: probe the first subpath, extend the rows by one
    /// join (or INLJ probe) per further step, project the output node.
    /// The one executor body — with `cx.trace` set it also records a
    /// `step` span per plan step (per-step pool and probe deltas) and a
    /// `materialize` span around the output projection; every snapshot,
    /// `format!` and clock read that costs sits under that `Some`.
    ///
    /// A step that can run as BoundIndex probes is priced again here, by
    /// the planner's own cost function, on the distinct heads among the
    /// rows that actually reached it and on the row estimate of the
    /// literal actually asked for: the plan is cached per twig *shape*,
    /// and the literal it was made for may have been far rarer, or far
    /// commoner, than this one.
    fn execute(
        &self,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
        strategy: Strategy,
        cx: &mut Exec<'_>,
    ) -> BTreeSet<u64> {
        // BoundIndex probes exist under DATAPATHS only; what one costs
        // follows the pages a descent of its tree fetches.
        let dp_height = match (strategy, &self.dp) {
            (Strategy::DataPaths, Some((dp, _))) => Some(dp.tree().stats().height),
            _ => None,
        };
        let needed = self.needed_nodes(compiled, plan);
        let interior_needed =
            |sp: &SubpathSpec| sp.nodes[..sp.nodes.len() - 1].iter().any(|&n| needed[n]);
        let masks = StepMasks::new(compiled, plan);
        let (width, slots) = (masks.n, masks.anc_nodes.len());
        cx.rows.reset(width, slots);
        cx.fresh.reset(width, slots);
        cx.out.reset(width, slots);
        let last = plan.steps.len() - 1;
        for (i, step) in plan.steps.iter().enumerate() {
            let sp = &compiled.subpaths[step.subpath];
            let span = cx.trace.as_deref_mut().map(|t| {
                (t.begin("step", ""), self.snapshot(strategy), cx.io.probes, cx.io.rows_fetched)
            });
            let how;
            let mut repriced = None;
            if i == 0 {
                self.probe_free(strategy, sp, interior_needed(sp), &masks, cx);
                std::mem::swap(&mut cx.rows, &mut cx.fresh);
                how = "probe";
            } else {
                if cx.rows.is_empty() {
                    if let (Some(t), Some((token, ..))) = (cx.trace.as_deref_mut(), span) {
                        t.annotate(token, format!("#{i} skipped: empty input"));
                        t.end(token, SpanCounters::default());
                    }
                    return BTreeSet::new();
                }
                // A branch is a pure existence filter when none of the
                // bindings it would add are consumed later: run it as a
                // semi-join (the relational plan for an EXISTS predicate).
                let keep = masks.keep_after(i);
                let join = step.join.as_ref().expect("non-first steps carry joins");
                let already: &[usize] = match join {
                    JoinHow::SharedNode { shared, .. } => shared,
                    JoinHow::AncestorOf { .. } | JoinHow::DescendantBound { .. } => &[],
                };
                let semi = sp.nodes.iter().all(|node| already.contains(node) || !keep[*node]);
                #[cfg(test)]
                let semi = semi && !cx.forced.is_some_and(|f| f.full_joins);
                // The build side of the step, whichever way it runs: the
                // rows so far, sorted by their join key. (The rows of a
                // `DescendantBound` step are keyed by their ancestors;
                // the join does that itself.)
                if let JoinHow::SharedNode { deepest: key, .. }
                | JoinHow::AncestorOf { upper: key, .. } = join
                {
                    key_runs(&cx.rows, *key, &mut cx.keys);
                }
                let probe = dp_height.and_then(|height| {
                    let probe = step.probe.as_ref().filter(|p| self.probe_head_allowed(p))?;
                    let price = step.reprice(distinct_keys(&cx.keys), &sp.q, &self.stats, height);
                    repriced = Some(price);
                    let method = price.method();
                    #[cfg(test)]
                    let method = cx.forced.map_or(method, |f| f.method(i));
                    (method == Method::Bound).then_some(probe)
                });
                if let Some(probe) = probe {
                    self.inlj_extend(probe, sp.q.value.as_deref(), semi, cx);
                    cx.ran_bound = true;
                    how = if semi { "inlj semi-join" } else { "inlj" };
                } else if semi {
                    self.semi_join(strategy, sp, interior_needed(sp), join, &masks, cx);
                    how = "semi-join";
                } else {
                    self.probe_free(strategy, sp, interior_needed(sp), &masks, cx);
                    self.join(join, &masks, cx);
                    how = "join";
                }
                std::mem::swap(&mut cx.rows, &mut cx.out);
            }
            // Early projection + duplicate elimination: existence
            // predicates must not enumerate full match tuples (a
            // relational engine would run these joins as semi-joins).
            // Keep only bindings that later steps or the output consume.
            // After the last step the output set itself is the distinct.
            if i < last {
                cx.rows.project(masks.keep_after(i), masks.keep_anc_after(i));
                cx.rows.distinct_into(&mut cx.order, &mut cx.out);
                std::mem::swap(&mut cx.rows, &mut cx.out);
            }
            if let (Some(t), Some((token, io_before, probes_before, fetched_before))) =
                (cx.trace.as_deref_mut(), span)
            {
                // Attribute the Edge family's deferred lookup counters to
                // the step that issued them; the caller's final drain then
                // collects nothing, so the query total is the same with
                // and without a trace.
                cx.io.probes += self.drain_baseline_counters(strategy);
                let io = self.snapshot(strategy).since(&io_before);
                let mut detail = format!("#{i} subpath {} {how}", step.subpath);
                if let (Some(ran), Some(planned)) = (repriced, step.price) {
                    // What the run-time pricing saw against what the
                    // planner assumed, and whether that changed the method.
                    detail.push_str(&format!(" heads={}/{}", ran.heads, planned.heads));
                    if ran.method() != planned.method() {
                        detail.push_str(&format!(" (planned {})", planned.method().label()));
                    }
                }
                t.annotate(token, detail);
                t.end(
                    token,
                    SpanCounters {
                        logical_reads: io.logical_reads,
                        physical_reads: io.physical_reads,
                        probes: cx.io.probes - probes_before,
                        rows: cx.io.rows_fetched - fetched_before,
                    },
                );
            }
        }
        let out = compiled.twig.output;
        let span =
            cx.trace.as_deref_mut().map(|t| t.begin("materialize", format!("output node {out}")));
        // The one materialization point: ids leave the table here.
        let ids: BTreeSet<u64> = cx.rows.column(out).filter(|&id| id != UNBOUND).collect();
        if let (Some(t), Some(token)) = (cx.trace.as_deref_mut(), span) {
            t.end(token, SpanCounters { rows: ids.len() as u64, ..SpanCounters::default() });
        }
        ids
    }

    /// §4.3: a pruned DATAPATHS index only supports probes on retained
    /// head tags.
    fn probe_head_allowed(&self, probe: &ProbeSpec) -> bool {
        self.pruned_tags.as_ref().is_none_or(|tags| tags.contains(&probe.anchor_tag))
    }

    /// Evaluates one PCsubpath with the strategy's probe pattern, lending
    /// each match to `sink(above, nodes, ids)` until it answers `Break`:
    /// `ids` binds the twig nodes `nodes` (every step of a full match,
    /// just the final one of a leaf-only match) and `above` is what the
    /// index entry listed in front of them — the ancestors of `ids[0]`
    /// when the index stores full root IdLists. ROOTPATHS, DATAPATHS and
    /// ASR stream each IdList from the leaf page through `ids_buf`; the
    /// Edge-family evaluators build their matches by walking and feed
    /// the same sink from them. Long values are rechecked before a match
    /// is lent.
    fn scan_subpath(
        &self,
        strategy: Strategy,
        sp: &SubpathSpec,
        interior: bool,
        io: &mut ProbeIo,
        mut sink: impl FnMut(&[u64], &[usize], &[u64]) -> ControlFlow<()>,
    ) {
        let ProbeIo { ids: ids_buf, probes, rows_fetched } = io;
        let (q, nodes) = (&sp.q, sp.nodes.as_slice());
        let recheck = q.value.as_deref().filter(|v| value_needs_recheck(v));
        let mut lend = |m: &[u64]| {
            *rows_fetched += 1;
            // Leaf-only matches (interior positions skipped) bind just the
            // final step; full matches bind every step.
            let bound = m.len().min(nodes.len());
            let (above, ids) = m.split_at(m.len() - bound);
            let Some(&leaf) = ids.last() else { return ControlFlow::Continue(()) };
            if recheck.is_some_and(|v| self.forest().value_str(NodeId(leaf)) != Some(v)) {
                return ControlFlow::Continue(());
            }
            sink(above, &nodes[nodes.len() - bound..], ids)
        };
        let mut lend_all = |matches: Vec<PathMatch>| {
            let _ = matches.iter().try_for_each(|m| lend(&m.ids));
        };
        match strategy {
            Strategy::RootPaths => {
                *probes += 1;
                let (rp, _) = self.rp.as_ref().expect("ROOTPATHS not built");
                rp.for_each_free(q, ids_buf, |_key, ids| lend(ids));
            }
            Strategy::DataPaths => {
                *probes += 1;
                let (dp, _) = self.dp.as_ref().expect("DATAPATHS not built");
                dp.for_each_free(q, ids_buf, |_key, ids| lend(ids));
            }
            Strategy::Asr => {
                let (asr, _) = self.asr.as_ref().expect("ASR not built");
                asr.for_each_match(q, ids_buf, |_path, ids| lend(ids));
            }
            Strategy::Edge => {
                // The Edge chain must walk every step regardless: interior
                // tags are only verifiable through backward-link probes.
                let (e, _) = self.edge.as_ref().expect("Edge not built");
                lend_all(e.eval_pcsubpath(q));
            }
            Strategy::DataGuideEdge => lend_all(self.eval_dataguide_edge(q, interior)),
            Strategy::IndexFabricEdge => lend_all(self.eval_fabric_edge(q, interior)),
            Strategy::JoinIndex => lend_all(self.eval_join_index(q, interior)),
            Strategy::Auto => unreachable!("Auto resolves before execution"),
        }
    }

    /// Writes the matches of one PCsubpath into `cx.fresh` as binding
    /// rows, capturing — when the index returns full root IdLists — the
    /// ancestor list of a segment root a `//` join will ask for.
    fn probe_free(
        &self,
        strategy: Strategy,
        sp: &SubpathSpec,
        interior: bool,
        masks: &StepMasks,
        cx: &mut Exec<'_>,
    ) {
        let full_root = lists_full_roots(strategy);
        let Exec { fresh, arena, io, .. } = cx;
        fresh.clear();
        self.scan_subpath(strategy, sp, interior, io, |above, nodes, m| {
            let (bind, anc) = fresh.push_unbound();
            for (&node, &id) in nodes.iter().zip(m) {
                bind[node] = id;
            }
            if let (true, Some(slot)) = (full_root, masks.anc_slot(nodes[0])) {
                anc[slot] = AncList { off: arena.len(), len: above.len() };
                arena.extend_from_slice(above);
            }
            ControlFlow::Continue(())
        });
    }

    /// DG+Edge (§5.1.2): the DataGuide answers anchored structural paths;
    /// values come from the Edge value index and are joined on node id;
    /// interior ids are recovered with backward-link walks; `//` patterns
    /// fall back to the Edge chain entirely.
    fn eval_dataguide_edge(&self, q: &PcSubpathQuery, interior: bool) -> Vec<PathMatch> {
        let (dg, _) = self.dg.as_ref().expect("DataGuide not built");
        let (edge, _) = self.edge.as_ref().expect("Edge not built");
        if !q.anchored {
            return edge.eval_pcsubpath(q);
        }
        let path_ids = dg.path_instances(&q.tags);
        let leaf_ids: Vec<u64> = match &q.value {
            None => path_ids,
            Some(v) => {
                let valued: HashSet<u64> =
                    edge.nodes_with(*q.tags.last().unwrap(), Some(v)).into_iter().collect();
                path_ids.into_iter().filter(|id| valued.contains(id)).collect()
            }
        };
        if interior {
            self.materialize_by_walking(edge, q, leaf_ids)
        } else {
            leaf_only_matches(q, leaf_ids)
        }
    }

    /// IF+Edge (§5.1.2): the fabric answers valued root-to-leaf paths in
    /// one probe; everything else falls back to the Edge chain.
    fn eval_fabric_edge(&self, q: &PcSubpathQuery, interior: bool) -> Vec<PathMatch> {
        let (fab, _) = self.fab.as_ref().expect("IndexFabric not built");
        let (edge, _) = self.edge.as_ref().expect("Edge not built");
        match (&q.value, q.anchored) {
            (Some(v), true) => {
                let leaf_ids = fab.leaf_instances(&q.tags, v);
                if interior {
                    self.materialize_by_walking(edge, q, leaf_ids)
                } else {
                    // The paper's Fig. 11 case: a fully-specified valued
                    // path is one fabric probe, nothing else.
                    leaf_only_matches(q, leaf_ids)
                }
            }
            _ => edge.eval_pcsubpath(q),
        }
    }

    /// Join Indices (§5.2.6): constants resolve through the Edge value
    /// index; endpoints and interior positions come from the per-path
    /// table pairs.
    fn eval_join_index(&self, q: &PcSubpathQuery, interior: bool) -> Vec<PathMatch> {
        let (ji, _) = self.ji.as_ref().expect("JoinIndices not built");
        match &q.value {
            Some(v) => {
                let (edge, _) = self.edge.as_ref().expect("Edge not built");
                let leaves = edge.nodes_with(*q.tags.last().unwrap(), Some(v));
                if interior {
                    ji.eval_pcsubpath_with_leaves(q, &leaves)
                } else {
                    // Path membership still needs one backward probe per
                    // candidate per matching expression; interior
                    // positions are skipped.
                    let mut out = Vec::new();
                    for (path, split) in ji.matching_expressions(q) {
                        for &leaf in &leaves {
                            if q.tags.len() == 1 || !ji.first_ids(&path, split, leaf).is_empty() {
                                out.push(PathMatch {
                                    head: 0,
                                    tags: vec![*q.tags.last().unwrap()],
                                    ids: vec![leaf],
                                });
                            }
                        }
                    }
                    out.sort_by(|a, b| a.ids.cmp(&b.ids));
                    out.dedup_by(|a, b| a.ids == b.ids);
                    out
                }
            }
            None => ji.eval_pcsubpath_structural(q),
        }
    }

    /// Recovers interior step ids for known root-anchored leaf matches by
    /// backward-link walks (one probe per step per candidate).
    fn materialize_by_walking(
        &self,
        edge: &EdgeTable,
        q: &PcSubpathQuery,
        leaf_ids: Vec<u64>,
    ) -> Vec<PathMatch> {
        let k = q.tags.len();
        leaf_ids
            .into_iter()
            .filter_map(|leaf| {
                let mut ids = vec![0u64; k];
                ids[k - 1] = leaf;
                let mut cur = leaf;
                for i in (0..k - 1).rev() {
                    let (parent, _) = edge.parent_of(cur)?;
                    ids[i] = parent;
                    cur = parent;
                }
                Some(PathMatch { head: 0, tags: q.tags.clone(), ids })
            })
            .collect()
    }

    /// The ancestors of the id row `i` of `table` binds to `node`:
    /// the IdList prefix captured with the row when there is one, else
    /// recovered ([`QueryEngine::recover_ancestors`]).
    fn ancestors(
        &self,
        table: &BindingTable,
        i: usize,
        node: usize,
        masks: &StepMasks,
        arena: &mut Vec<u64>,
        probes: &mut u64,
    ) -> AncList {
        let captured = masks.anc_slot(node).map_or(AncList::NONE, |slot| table.anc_row(i)[slot]);
        if !captured.is_none() {
            return captured;
        }
        let id = table.row(i)[node];
        debug_assert_ne!(id, UNBOUND);
        self.recover_ancestors(id, arena, probes)
    }

    /// Appends the ancestors of node `id` to the arena, recovered by
    /// backward-link walks (Edge family) or from the base tree.
    fn recover_ancestors(&self, id: u64, arena: &mut Vec<u64>, probes: &mut u64) -> AncList {
        let off = arena.len();
        if let Some((edge, _)) = &self.edge {
            arena.extend(edge.ancestors_of(id));
        } else {
            // Base-data fallback: one lookup per ancestor step, equivalent
            // in cost to the backward-link walk.
            let mut path = self.forest().root_path_ids(NodeId(id));
            path.pop(); // drop the node itself
            *probes += path.len() as u64;
            arena.extend(path.iter().map(|n| n.0));
        }
        AncList { off, len: arena.len() - off }
    }

    /// Joins `cx.rows` (left) with the matches just probed into
    /// `cx.fresh` (right), writing `cx.out`. Build sides are sorted
    /// `(key, row index)` runs over one table; for the two join kinds
    /// whose key the left rows bind, the caller has already sorted them
    /// into `cx.keys`.
    fn join(&self, how: &JoinHow, masks: &StepMasks, cx: &mut Exec<'_>) {
        let Exec { rows: left, fresh: right, out, arena, keys, io, .. } = cx;
        let (left, right, probes) = (&*left, &*right, &mut io.probes);
        out.clear();
        match how {
            JoinHow::SharedNode { deepest, shared } => {
                // Bindings of a twig node both sides carry must agree.
                let consistent = |i: usize, j: usize| {
                    let (r1, r2) = (left.row(i), right.row(j));
                    shared.iter().all(|&s| r1[s] == UNBOUND || r2[s] == UNBOUND || r1[s] == r2[s])
                };
                for j in 0..right.len() {
                    for &(_, i) in run_of(keys, right.row(j)[*deepest]) {
                        if consistent(i, j) {
                            out.push_merged(left, i, right, j);
                        }
                    }
                }
            }
            JoinHow::AncestorOf { upper, seg_root } if self.structural_ad_joins => {
                self.structural_join(left, *upper, right, *seg_root, keys, |i, j| {
                    out.push_merged(left, i, right, j);
                });
            }
            JoinHow::AncestorOf { seg_root, .. } => {
                // left rows bind `upper`; right rows bind the segment
                // root; unnest right's ancestors and equi-join.
                for j in 0..right.len() {
                    let anc = self.ancestors(right, j, *seg_root, masks, arena, probes);
                    for &a in anc.of(arena) {
                        for &(_, i) in run_of(keys, a) {
                            out.push_merged(left, i, right, j);
                        }
                    }
                }
            }
            JoinHow::DescendantBound { upper, seg_root } if self.structural_ad_joins => {
                self.structural_join(right, *upper, left, *seg_root, keys, |j, i| {
                    out.push_merged(left, i, right, j);
                });
            }
            JoinHow::DescendantBound { upper, seg_root } => {
                // left rows bind the lower segment root; right rows bind
                // `upper`.
                key_runs(right, *upper, keys);
                for i in 0..left.len() {
                    let anc = self.ancestors(left, i, *seg_root, masks, arena, probes);
                    for &a in anc.of(arena) {
                        for &(_, j) in run_of(keys, a) {
                            out.push_merged(left, i, right, j);
                        }
                    }
                }
            }
        }
    }

    /// The existence filter of a branch none of whose bindings are
    /// consumed later: keeps each row of `cx.rows` that has a partner
    /// among the subpath's matches, once, into `cx.out`, adding no
    /// binding. The matches are never materialized — each one lent by
    /// the probe is looked up in the rows' sorted `(key, row)` run and
    /// marks the rows it proves — and the probe stops as soon as every
    /// row is proven. For the two join kinds whose key the rows bind, the
    /// caller has already sorted them into `cx.keys`.
    fn semi_join(
        &self,
        strategy: Strategy,
        sp: &SubpathSpec,
        interior: bool,
        how: &JoinHow,
        masks: &StepMasks,
        cx: &mut Exec<'_>,
    ) {
        let Exec { rows: left, out, arena, io, keys, marks, .. } = cx;
        let left = &*left;
        if let JoinHow::DescendantBound { seg_root, .. } = how {
            // Rows bind the lower segment root: key each by every one of
            // its ancestors, any of which a match's `upper` may be.
            keys.clear();
            for i in 0..left.len() {
                let anc = self.ancestors(left, i, *seg_root, masks, arena, &mut io.probes);
                keys.extend(anc.of(arena).iter().map(|&a| (a, i)));
            }
            keys.sort_unstable();
        }
        marks.clear();
        marks.resize(left.len(), false);
        let mut unproven = Unproven { marks, left: left.len() };
        // Ancestors an index entry does not list are recovered per match,
        // into the arena's tail; the walks they cost are probes.
        let (scratch, mut walks) = (arena.len(), 0);
        let full_root = lists_full_roots(strategy);
        self.scan_subpath(strategy, sp, interior, io, |above, nodes, m| {
            let bound_to = |node: usize| nodes.iter().position(|&n| n == node).map(|at| m[at]);
            match how {
                JoinHow::SharedNode { deepest, shared } => {
                    // Bindings of a twig node both sides carry must agree.
                    let consistent = |i: usize| {
                        shared.iter().all(|&s| {
                            let mine = left.row(i)[s];
                            mine == UNBOUND || bound_to(s).is_none_or(|theirs| theirs == mine)
                        })
                    };
                    for &(_, i) in bound_to(*deepest).map_or(&[][..], |key| run_of(keys, key)) {
                        if consistent(i) {
                            unproven.prove(i);
                        }
                    }
                }
                JoinHow::AncestorOf { .. } => {
                    // Rows bind `upper`; the match binds the segment root
                    // first: any of its ancestors may be a row's `upper`.
                    let ancestors = if full_root {
                        above
                    } else {
                        arena.truncate(scratch);
                        self.recover_ancestors(m[0], arena, &mut walks).of(arena)
                    };
                    for &a in ancestors {
                        for &(_, i) in run_of(keys, a) {
                            unproven.prove(i);
                        }
                    }
                }
                JoinHow::DescendantBound { upper, .. } => {
                    for &(_, i) in bound_to(*upper).map_or(&[][..], |key| run_of(keys, key)) {
                        unproven.prove(i);
                    }
                }
            }
            unproven.flow()
        });
        arena.truncate(scratch);
        io.probes += walks;
        out.clear();
        for (i, _) in unproven.marks.iter().enumerate().filter(|(_, &proven)| proven) {
            out.push_copy(left, i);
        }
    }

    /// Stitches an ancestor-descendant edge with the stack-based
    /// structural join (§6's alternative): one merge pass over the
    /// interval-sorted binding sets instead of ancestor unnesting, then
    /// `emit(upper row, lower row)` for every row pair behind each
    /// `(ancestor, descendant)` id pair.
    fn structural_join(
        &self,
        upper_rows: &BindingTable,
        upper: usize,
        lower_rows: &BindingTable,
        seg_root: usize,
        upper_keys: &mut Vec<(u64, usize)>,
        mut emit: impl FnMut(usize, usize),
    ) {
        let upper_ids: Vec<u64> = upper_rows.column(upper).collect();
        let lower_ids: Vec<u64> = lower_rows.column(seg_root).collect();
        let pairs = crate::stitch::containment_join(self.forest(), &upper_ids, &lower_ids);
        let mut lower_keys = Vec::new();
        key_runs(upper_rows, upper, upper_keys);
        key_runs(lower_rows, seg_root, &mut lower_keys);
        for (a, d) in pairs {
            for &(_, u) in run_of(upper_keys, a) {
                for &(_, l) in run_of(&lower_keys, d) {
                    emit(u, l);
                }
            }
        }
    }

    /// The index-nested-loop extension (§3.3) of `cx.rows` into
    /// `cx.out`: one BoundIndex probe of the residue with leaf `value`
    /// per distinct head in `cx.keys` — the rows sorted by their anchor
    /// binding, so the probes walk the B+-tree left to right and their
    /// order does not depend on a hash seed — through one prebuilt key
    /// re-aimed at each head, fanning every match out over the head's
    /// rows. An existence probe (`semi`) stops at its first match.
    fn inlj_extend(&self, probe: &ProbeSpec, value: Option<&str>, semi: bool, cx: &mut Exec<'_>) {
        let (dp, _) = self.dp.as_ref().expect("INLJ requires DATAPATHS");
        let recheck = value.filter(|v| value_needs_recheck(v));
        let passes = |leaf: Option<&u64>| match (recheck, leaf) {
            (Some(v), Some(&leaf)) => self.forest().value_str(NodeId(leaf)) == Some(v),
            _ => true,
        };
        let Exec { rows, out, keys, io, .. } = cx;
        let ProbeIo { ids, probes, rows_fetched } = io;
        let rows = &*rows;
        out.clear();
        let mut bound = dp.bound_probe(probe.anchor_tag, &probe.tags, probe.anchored, value);
        for group in keys.chunk_by(|a, b| a.0 == b.0) {
            let head = group[0].0;
            debug_assert_ne!(head, UNBOUND);
            *probes += 1;
            dp.for_each_bound(&mut bound, head, ids, |_key, m| {
                *rows_fetched += 1;
                if !passes(m.last()) {
                    // The (rare) long-value recheck failed: not a match.
                    return ControlFlow::Continue(());
                }
                if semi {
                    // The head survives on its first match.
                    for &(_, i) in group {
                        out.push_copy(rows, i);
                    }
                    return ControlFlow::Break(());
                }
                let tail = &m[m.len() - probe.step_nodes.len()..];
                for &(_, i) in group {
                    let bind = out.push_copy(rows, i);
                    for (&node, &id) in probe.step_nodes.iter().zip(tail) {
                        bind[node] = id;
                    }
                }
                ControlFlow::Continue(())
            });
        }
    }
}

/// True for the strategies whose index entries list the full root
/// IdList of a match, ancestors of its first step included.
fn lists_full_roots(strategy: Strategy) -> bool {
    matches!(strategy, Strategy::RootPaths | Strategy::DataPaths | Strategy::Asr)
}

/// Shape of a twig for calibration-sample keys: tags and axes with
/// value literals elided (`=?`) and the output node starred, so
/// repeated queries differing only in constants aggregate together.
pub fn twig_shape(twig: &TwigPattern) -> String {
    fn node(t: &TwigPattern, i: usize, out: &mut String) {
        let n = &t.nodes[i];
        out.push_str(&n.tag);
        if n.value.is_some() {
            out.push_str("=?");
        }
        if i == t.output {
            out.push('*');
        }
        for (axis, c) in &n.children {
            out.push('[');
            out.push_str(&axis.to_string());
            node(t, *c, out);
            out.push(']');
        }
    }
    let mut s = twig.root_axis.to_string();
    node(twig, 0, &mut s);
    s
}

/// Matches carrying only the final step's id (interior skipped).
fn leaf_only_matches(q: &PcSubpathQuery, leaf_ids: Vec<u64>) -> Vec<PathMatch> {
    let leaf_tag = *q.tags.last().unwrap();
    leaf_ids
        .into_iter()
        .map(|id| PathMatch { head: 0, tags: vec![leaf_tag], ids: vec![id] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::parse_xpath;
    use xtwig_xml::naive;
    use xtwig_xml::tree::fig1_book_document;

    fn engine(forest: &XmlForest) -> QueryEngine<&XmlForest> {
        QueryEngine::build(forest, EngineOptions { pool_pages: 1024, ..Default::default() })
    }

    fn check_all_strategies(engine: &QueryEngine<&XmlForest>, xpath: &str) {
        let twig = parse_xpath(xpath).unwrap();
        let expected: BTreeSet<u64> =
            naive::select(engine.forest(), &twig).into_iter().map(|n| n.0).collect();
        for s in Strategy::ALL {
            let got = engine.answer(&twig, s);
            assert_eq!(
                got.ids,
                expected,
                "strategy {} disagrees with oracle on {xpath}",
                s.label()
            );
        }
    }

    #[test]
    fn all_strategies_answer_the_intro_query() {
        let f = fig1_book_document();
        let e = engine(&f);
        check_all_strategies(&e, "/book[title='XML']//author[fn='jane'][ln='doe']");
    }

    #[test]
    fn single_path_queries() {
        let f = fig1_book_document();
        let e = engine(&f);
        for q in [
            "/book/title[. = 'XML']",
            "/book/allauthors/author/fn[. = 'jane']",
            "/book/allauthors/author",
            "/book",
            "//title",
            "//author/ln[. = 'doe']",
            "//section/head",
        ] {
            check_all_strategies(&e, q);
        }
    }

    #[test]
    fn branching_queries() {
        let f = fig1_book_document();
        let e = engine(&f);
        for q in [
            "/book[year = '2000']/chapter/title",
            "//author[fn = 'jane'][ln = 'doe']",
            "//author[fn = 'jane']/ln",
            "/book[title = 'XML'][year = '2000']//section/head",
            "//chapter[title = 'XML']/section/head",
        ] {
            check_all_strategies(&e, q);
        }
    }

    #[test]
    fn recursive_edges_inside_twig() {
        let f = fig1_book_document();
        let e = engine(&f);
        for q in [
            "/book//head",
            "/book//author[fn = 'john']",
            "/book[title = 'XML']//section[head = 'Origins']",
            "//allauthors//ln[. = 'doe']",
            "/book//contact/detail",
        ] {
            check_all_strategies(&e, q);
        }
    }

    #[test]
    fn empty_results_are_consistent() {
        let f = fig1_book_document();
        let e = engine(&f);
        for q in [
            "/book/title[. = 'JSON']",
            "//author[fn = 'jane'][ln = 'poe']/nickname[. = 'nobody']",
            "/chapter/title", // chapter is not a document root
            "//unknown_tag_never_seen",
        ] {
            check_all_strategies(&e, q);
        }
    }

    #[test]
    fn inlj_and_merge_agree() {
        let f = fig1_book_document();
        let e = engine(&f);
        // Low branch point with a selective branch: //author[fn='john']/nickname
        let twig = parse_xpath("//author[fn = 'john']/nickname").unwrap();
        let expected: BTreeSet<u64> = naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
        let dp = e.answer(&twig, Strategy::DataPaths);
        let rp = e.answer(&twig, Strategy::RootPaths);
        assert_eq!(dp.ids, expected);
        assert_eq!(rp.ids, expected);
    }

    /// The identity net under the executor's freedom to choose: answers
    /// `twig` under every strategy with every choice `execute` makes
    /// taken each way — under DATAPATHS every subset of the steps as
    /// BoundIndex probes (the priced choice is one of them), everywhere
    /// existence filters streamed and as full joins — and holds each
    /// answer against the naive matcher. Returns the step annotations of
    /// the streamed DATAPATHS run with every step free.
    fn check_every_way(engine: &QueryEngine<&XmlForest>, twig: &TwigPattern) -> Vec<String> {
        let expected: BTreeSet<u64> =
            naive::select(engine.forest(), twig).into_iter().map(|n| n.0).collect();
        let Ok((compiled, plan)) = engine.compile(twig) else {
            assert!(expected.is_empty(), "{twig}: unknown tag yet the oracle matches");
            return Vec::new();
        };
        let mut annotations = Vec::new();
        for strategy in Strategy::ALL {
            let masks = match strategy {
                Strategy::DataPaths => 1u32 << plan.steps.len(),
                _ => 1,
            };
            for bound_steps in 0..masks {
                for full_joins in [false, true] {
                    let forced = Forced { bound_steps, full_joins };
                    let mut trace = Trace::new();
                    let mut cx =
                        Exec { forced: Some(forced), trace: Some(&mut trace), ..Exec::default() };
                    let got = engine.execute(&compiled, &plan, strategy, &mut cx);
                    assert_eq!(got, expected, "{twig} via {strategy} {forced:?}");
                    if strategy == Strategy::DataPaths && bound_steps == 0 && !full_joins {
                        annotations = trace.spans().into_iter().map(|s| s.detail).collect();
                    }
                }
            }
        }
        annotations
    }

    /// `oracle_property`'s generators (tests/oracle_property.rs), fed by
    /// a counter-mode mixer here: this crate has no proptest.
    mod programs {
        use xtwig_xml::{Axis, TwigPattern, XmlForest};

        // A smaller alphabet than the suite's and fewer valued steps, so
        // that most twigs match something and most joins meet several rows.
        const TAGS: &[&str] = &["a", "b"];
        const VALUES: &[&str] = &["x", "x", "y"];

        pub fn bytes(seed: u64, len: usize) -> Vec<u8> {
            (0..len as u64)
                .map(|i| {
                    // splitmix64 of (seed, i).
                    let mut z = (seed << 32 | i).wrapping_add(0x9E37_79B9_7F4A_7C15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    ((z ^ (z >> 31)) >> 24) as u8
                })
                .collect()
        }

        pub fn forest(program: &[u8]) -> XmlForest {
            let mut forest = XmlForest::new();
            let mut b = forest.builder();
            b.open("r");
            let mut depth = 1usize;
            for &op in program {
                match op % 8 {
                    0..=3 if depth < 8 => {
                        b.open(TAGS[(op as usize / 8) % TAGS.len()]);
                        depth += 1;
                    }
                    4 | 5 if depth > 1 => {
                        b.close();
                        depth -= 1;
                    }
                    6 | 7 => b.text(VALUES[(op as usize / 8) % VALUES.len()]),
                    _ => {}
                }
            }
            for _ in 0..depth {
                b.close();
            }
            b.finish();
            forest
        }

        pub fn twig(program: &[u8]) -> TwigPattern {
            let first = program[0];
            let root_axis = if first.is_multiple_of(2) { Axis::Child } else { Axis::Descendant };
            let root_tag = if first % 4 < 2 { "r" } else { TAGS[0] };
            let mut twig = TwigPattern::single(root_axis, root_tag, None);
            let mut nodes = vec![0usize];
            for chunk in program[1..].chunks_exact(3) {
                if twig.len() >= 5 {
                    break;
                }
                let parent = nodes[chunk[0] as usize % nodes.len()];
                let axis = if chunk[1].is_multiple_of(3) { Axis::Descendant } else { Axis::Child };
                let tag = TAGS[chunk[1] as usize % TAGS.len()];
                let value =
                    chunk[2].is_multiple_of(3).then(|| VALUES[chunk[2] as usize % VALUES.len()]);
                nodes.push(twig.add_child(parent, axis, tag, value));
            }
            twig.output = nodes[first as usize % nodes.len()];
            twig
        }
    }

    #[test]
    fn random_twigs_answer_the_same_whichever_way_each_step_runs() {
        for case in 0..96u64 {
            let forest =
                programs::forest(&programs::bytes(2 * case, 60 + (case as usize * 7) % 240));
            let twig = programs::twig(&programs::bytes(2 * case + 1, 1 + 3 * (case as usize % 5)));
            let e = QueryEngine::build(
                &forest,
                EngineOptions { pool_pages: 512, ..Default::default() },
            );
            check_every_way(&e, &twig);
        }
    }

    #[test]
    fn every_join_kind_streams_its_existence_filter() {
        // Three books titled alike, one of them with the author asked for.
        let mut f = XmlForest::new();
        for i in 0..3 {
            let mut b = f.builder();
            b.open("book");
            b.leaf("title", "XML");
            b.open("author");
            b.leaf("fn", if i == 1 { "john" } else { "jane" });
            b.leaf("ln", if i == 2 { "doe" } else { "poe" });
            b.leaf("nickname", "nick");
            b.close();
            b.close();
            b.finish();
        }
        let e = engine(&f);
        for (xpath, kind) in [
            // The `ln` branch binds nothing the output needs.
            ("//author[fn = 'jane'][ln = 'doe']", "SharedNode"),
            // So does a `//` branch below the rows' `book`…
            ("/book[title = 'XML'][//nickname = 'nick']", "AncestorOf"),
            // …and a `book/title` filter above rows that start at `fn`.
            ("/book[title = 'XML']//author[fn = 'john']/nickname", "DescendantBound"),
        ] {
            let twig = parse_xpath(xpath).unwrap();
            let (_, plan) = e.compile(&twig).unwrap();
            let seen = check_every_way(&e, &twig);
            let streamed = plan.steps.iter().enumerate().any(|(i, step)| {
                let join = format!("{:?}", step.join);
                let streamed = format!("#{i} subpath {} semi-join", step.subpath);
                join.contains(kind) && seen.iter().any(|detail| detail.starts_with(&streamed))
            });
            assert!(streamed, "{xpath}: no streamed {kind} semi-join in {plan:?} / {seen:?}");
        }
    }

    #[test]
    fn stress_shapes_answer_the_same_whichever_way_each_step_runs() {
        // Long values sharing the indexed key prefix: the recheck runs in
        // the free sink, in the streamed filter and in the bound probe.
        let shared = "x".repeat(120);
        let mut f = XmlForest::new();
        let mut b = f.builder();
        b.open("docs");
        for (i, suffix) in ["alpha", "beta", "alpha", "gamma"].into_iter().enumerate() {
            b.open("rec");
            b.leaf("blob", &format!("{shared}-{suffix}"));
            b.leaf("tag", if i % 2 == 0 { "even" } else { "odd" });
            b.close();
        }
        b.close();
        b.finish();
        let e = engine(&f);
        for xpath in [
            format!("/docs/rec[blob = '{shared}-alpha']/tag"),
            format!("//rec[tag = 'even'][blob = '{shared}-alpha']"),
            format!("/docs[//blob = '{shared}-beta']/rec/tag"),
            format!("//rec[blob = '{shared}-delta']/tag"),
        ] {
            check_every_way(&e, &parse_xpath(&xpath).unwrap());
        }
        // Deep same-tag nesting: strict-descendant semantics under `//`
        // joins in both directions.
        let mut f = XmlForest::new();
        let mut b = f.builder();
        for _ in 0..12 {
            b.open("n");
        }
        b.leaf("leaf", "bottom");
        for _ in 0..12 {
            b.close();
        }
        b.finish();
        let e = engine(&f);
        for xpath in ["//n//n//n/leaf", "/n/n/n[//leaf]", "//n[n/n]//leaf[. = 'bottom']"] {
            check_every_way(&e, &parse_xpath(xpath).unwrap());
        }
    }

    #[test]
    fn metrics_populate() {
        let f = fig1_book_document();
        let e = engine(&f);
        let twig = parse_xpath("//author[fn = 'jane'][ln = 'doe']").unwrap();
        let a = e.answer(&twig, Strategy::RootPaths);
        assert!(a.metrics.probes >= 2, "two subpath lookups");
        assert!(a.metrics.rows_fetched >= 2);
        assert!(a.metrics.logical_reads > 0);
        let edge = e.answer(&twig, Strategy::Edge);
        assert!(
            edge.metrics.probes > a.metrics.probes,
            "Edge must probe more than ROOTPATHS ({} vs {})",
            edge.metrics.probes,
            a.metrics.probes
        );
    }

    #[test]
    fn space_report_orders_like_fig9() {
        let f = fig1_book_document();
        let e = engine(&f);
        let rp = e.space_bytes(Strategy::RootPaths);
        let dp = e.space_bytes(Strategy::DataPaths);
        assert!(rp > 0 && dp > 0);
        assert!(dp >= rp, "DATAPATHS at least as large as ROOTPATHS");
        let ji = e.space_bytes(Strategy::JoinIndex);
        let asr = e.space_bytes(Strategy::Asr);
        assert!(ji > asr, "Fig 9: JI is the largest configuration");
    }

    #[test]
    fn pruned_engine_still_answers_off_workload_queries() {
        let f = fig1_book_document();
        let workload = vec![parse_xpath("/book[title='XML']//author[fn='jane']").unwrap()];
        let filter = crate::compress::workload_head_filter(&workload);
        let e = QueryEngine::build(
            &f,
            EngineOptions {
                strategies: vec![Strategy::DataPaths],
                pool_pages: 1024,
                head_filter_tags: Some(filter),
                ..Default::default()
            },
        );
        // Off-workload branching query must still be answered (merge plan
        // via the retained FreeIndex rows).
        let twig = parse_xpath("//chapter[title = 'XML']/section").unwrap();
        let expected: BTreeSet<u64> = naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
        let got = e.answer(&twig, Strategy::DataPaths);
        assert_eq!(got.ids, expected);
    }

    #[test]
    fn shared_engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryEngine<Arc<XmlForest>>>();
        assert_send_sync::<QueryAnswer>();
    }

    #[test]
    fn auto_in_build_options_materializes_every_strategy() {
        // `--strategies auto` must mean "build the full menu", not
        // "build nothing and persist an empty index".
        let f = fig1_book_document();
        let e = QueryEngine::build(
            &f,
            EngineOptions {
                strategies: vec![Strategy::Auto],
                pool_pages: 1024,
                ..Default::default()
            },
        );
        for s in Strategy::ALL {
            assert!(e.has_strategy(s), "{s}");
        }
        check_all_strategies(&e, "/book[title='XML']//author[fn='jane'][ln='doe']");
    }

    #[test]
    fn strategy_display_fromstr_roundtrip() {
        for s in Strategy::ALL {
            assert_eq!(s.to_string(), s.label());
            assert_eq!(s.label().parse::<Strategy>(), Ok(s));
            assert_eq!(s.label().to_lowercase().parse::<Strategy>(), Ok(s));
        }
        assert_eq!("ROOTPATHS".parse::<Strategy>(), Ok(Strategy::RootPaths));
        assert_eq!("dataguide".parse::<Strategy>(), Ok(Strategy::DataGuideEdge));
        assert!("nope".parse::<Strategy>().is_err());
    }

    #[test]
    fn arc_owned_engine_answers_like_borrowed() {
        let f = Arc::new(fig1_book_document());
        let e: QueryEngine =
            QueryEngine::build(f.clone(), EngineOptions { pool_pages: 1024, ..Default::default() });
        let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
        let expected: BTreeSet<u64> = naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
        for s in Strategy::ALL {
            assert!(e.has_strategy(s));
            assert_eq!(e.answer(&twig, s).ids, expected, "{s}");
        }
    }

    #[test]
    fn compile_then_answer_compiled_matches_answer() {
        let f = fig1_book_document();
        let e = engine(&f);
        let twig = parse_xpath("//author[fn = 'jane']/ln").unwrap();
        let (compiled, plan) = e.compile(&twig).unwrap();
        let direct = e.answer(&twig, Strategy::RootPaths);
        let precompiled = e.answer_compiled(&compiled, &plan, Strategy::RootPaths);
        assert_eq!(direct.ids, precompiled.ids);
        assert_eq!(direct.plan, precompiled.plan);
    }

    #[test]
    fn parallel_build_is_byte_identical_and_answers_agree() {
        let mut f = XmlForest::new();
        for i in 0..7 {
            let mut b = f.builder();
            b.open("book");
            b.leaf("title", if i % 2 == 0 { "XML" } else { "SQL" });
            b.open("allauthors");
            b.open("author");
            b.leaf("fn", "jane");
            b.leaf("ln", if i == 3 { "doe" } else { "poe" });
            b.close();
            b.close();
            b.close();
            b.finish();
        }
        let opts = || EngineOptions { pool_pages: 1024, ..Default::default() };
        let seq = QueryEngine::build(&f, opts());
        for shards in [1, 2, 3, 7] {
            let par = QueryEngine::build_parallel(&f, opts(), shards);
            for s in Strategy::ALL {
                assert_eq!(
                    par.structure_digest(s),
                    seq.structure_digest(s),
                    "{s} pages differ at {shards} shards"
                );
            }
            let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
            for s in Strategy::ALL {
                assert_eq!(par.answer(&twig, s).ids, seq.answer(&twig, s).ids, "{s}");
            }
        }
    }

    #[test]
    fn multi_document_queries() {
        let mut f = XmlForest::new();
        for i in 0..5 {
            let mut b = f.builder();
            b.open("book");
            b.leaf("title", if i % 2 == 0 { "XML" } else { "SQL" });
            b.open("allauthors");
            b.open("author");
            b.leaf("fn", "jane");
            b.leaf("ln", if i == 2 { "doe" } else { "poe" });
            b.close();
            b.close();
            b.close();
            b.finish();
        }
        let e = engine(&f);
        check_all_strategies(&e, "/book[title='XML']//author[fn='jane'][ln='doe']");
        check_all_strategies(&e, "/book/title[. = 'SQL']");
        check_all_strategies(&e, "//author[ln = 'poe']");
    }
}
