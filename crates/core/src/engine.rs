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
//! step, from the rows that reach it (`crate::plan`). A free join never
//! holds its right side: each match the probe lends is looked up in the
//! rows so far as it arrives, through a merge cursor that walks forward
//! while the ids ascend, and only rows that found a partner are written.
//! A join keyed on one id also leapfrogs through ROOTPATHS and DATAPATHS:
//! the scan seeks past the index entries below the cursor's next key
//! without decoding them. A branch that only filters stops its probe
//! once every row is proven. A `//` edge is always joined on ancestor
//! ids, never on containment intervals: ROOTPATHS, DATAPATHS and ASR list
//! a match's ancestors in front of it, and the Edge-based strategies
//! walk Edge's backward links for them.
//!
//! Rows live in the flat binding table of `crate::table`, not in a
//! heap object each: a probe's sink writes the ids of an IdList — decoded
//! from the leaf page into one reused buffer — straight into the table,
//! joins build sorted `(key, row index)` runs over it, and projection and
//! distinct work on row indices. A ROOTPATHS or DATAPATHS scan whose
//! matches are read for their last node alone decodes no IdList: it lends
//! the id the entry key ends with. The last step writes no rows: it
//! writes the output id of each result into one answer vector, and the
//! answer set is materialized once, from it. Every buffer a step needs
//! belongs to the execution (`Exec`) and is reused by the next step, so
//! an execution allocates by the plan step, not by the row
//! (`tests/alloc_budget.rs`).

use crate::asr::AccessSupportRelations;
use crate::dataguide::DataGuide;
use crate::datapaths::{DataPaths, DataPathsOptions};
use crate::decompose::{decompose, CompiledTwig, SubpathSpec, UnknownTag};
use crate::edge::EdgeTable;
use crate::fabric::IndexFabric;
use crate::family::{value_needs_recheck, Floor, PathIndex, PcSubpathQuery};
use crate::joinindex::JoinIndices;
use crate::parallel::ShardPlan;
use crate::paths::PathStats;
use crate::plan::{choose_plan, JoinHow, Method, PlanKind, ProbeSpec, QueryPlan};
use crate::rootpaths::{RootPaths, RootPathsOptions};
use crate::table::{distinct_keys, key_runs, AncList, BindingTable, MergeCursor, UNBOUND};
use std::cell::Cell;
use std::collections::{BTreeSet, HashSet};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtwig_btree::node::MAX_VAL;
use xtwig_obs::{SpanCounters, Trace};
use xtwig_opt::Structure;
use xtwig_rel::codec::encode_idlist;
use xtwig_storage::{hash, BufferPool, IoStatsSnapshot, PoolCounters};
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
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            strategies: Strategy::ALL.to_vec(),
            pool_pages: 2048,
            rp: RootPathsOptions::default(),
            dp: DataPathsOptions::default(),
            head_filter_tags: None,
        }
    }
}

/// Per-query metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryMetrics {
    /// Index probes issued (every B+-tree lookup counts as one).
    pub probes: u64,
    /// Match rows fetched from indexes: the entries whose IdLists were
    /// decoded. Entries a join sought past undecoded are not fetched.
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
/// It owns the forest through an `Arc` and is `Send + Sync`, so one
/// engine can serve concurrent queries from many threads (`answer` takes
/// `&self` throughout; see `xtwig-service`). The only `&mut self`
/// surface is index maintenance ([`QueryEngine::rootpaths_mut`] /
/// [`QueryEngine::datapaths_mut`]); rather than serializing maintenance
/// against readers with a lock, callers fork the engine
/// ([`QueryEngine::fork`] — a copy-on-write snapshot that copies no
/// pages), mutate the fork, and publish it, leaving the original to
/// serve concurrent readers as a frozen snapshot.
///
/// Concurrency note on metrics: every counter in [`QueryMetrics`] is
/// exact per query, however many queries overlap. Every strategy counts
/// its lookups and fetched rows into the execution's own counters, and
/// a query runs on its caller's thread, whose own tally of page reads
/// the storage layer keeps (`IoStatsSnapshot::of_this_thread`).
pub struct QueryEngine {
    // Fields are crate-visible for `crate::persist`, which flushes each
    // structure's pool into an index file and reconstructs the engine
    // from the stored catalog on open.
    pub(crate) forest: Arc<XmlForest>,
    pub(crate) rp: Option<(RootPaths, Arc<BufferPool>)>,
    pub(crate) dp: Option<(DataPaths, Arc<BufferPool>)>,
    // Nothing writes it after build, so forks share it.
    pub(crate) sealed: Arc<Sealed>,
}

/// The part of an engine that index maintenance never writes: the path
/// statistics, the DATAPATHS head filter and the five comparison
/// structures (Edge, DataGuide, Index Fabric, ASR, Join Indices) with
/// their pools. An engine holds it behind one `Arc`, which
/// [`QueryEngine::fork`] clones, so every generation reads the same
/// pages and a commit pays nothing for a structure it does not write.
pub(crate) struct Sealed {
    pub(crate) stats: PathStats,
    pub(crate) pruned_tags: Option<HashSet<TagId>>,
    pub(crate) edge: Option<(EdgeTable, Arc<BufferPool>)>,
    pub(crate) dg: Option<(DataGuide, Arc<BufferPool>)>,
    pub(crate) fab: Option<(IndexFabric, Arc<BufferPool>)>,
    pub(crate) asr: Option<(AccessSupportRelations, Arc<BufferPool>)>,
    pub(crate) ji: Option<(JoinIndices, Arc<BufferPool>)>,
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
    /// The ancestors of one match, recovered by walks.
    walked: Vec<u64>,
    /// One merge cursor per ancestor position of a streamed `//` join.
    cursors: Vec<MergeCursor>,
    /// The output ids the last step found, duplicates included.
    answer: Vec<u64>,
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

impl QueryEngine {
    /// Builds the selected index configurations over `forest`.
    pub fn build(forest: Arc<XmlForest>, options: EngineOptions) -> Self {
        let plan = ShardPlan::sequential(&forest);
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
    pub fn build_parallel(forest: Arc<XmlForest>, options: EngineOptions, shards: usize) -> Self {
        let plan = ShardPlan::new(&forest, shards);
        Self::build_with_plan(forest, options, &plan)
    }

    /// [`QueryEngine::build_parallel`] with an explicit [`ShardPlan`]
    /// (tests pin shard boundaries and worker counts through this).
    pub fn build_with_plan(
        forest: Arc<XmlForest>,
        options: EngineOptions,
        plan: &ShardPlan,
    ) -> Self {
        let f: &XmlForest = &forest;
        let want = |s: &Strategy| {
            options.strategies.contains(s) || options.strategies.contains(&Strategy::Auto)
        };
        let need = |structure: Structure| {
            Strategy::ALL.iter().any(|s| want(s) && s.structures().contains(&structure))
        };
        let pool = || Arc::new(BufferPool::in_memory(options.pool_pages));
        let stats = PathStats::build_sharded(f, plan);
        let pruned_tags = options
            .head_filter_tags
            .as_ref()
            .map(|names| names.iter().filter_map(|n| f.dict().lookup(n)).collect::<HashSet<_>>());
        let dp = need(Structure::DataPaths).then(|| {
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
        let rp = need(Structure::RootPaths).then(|| {
            let p = pool();
            (RootPaths::build_sharded(f, p.clone(), options.rp, plan), p)
        });
        let edge = need(Structure::Edge).then(|| {
            let p = pool();
            (EdgeTable::build_sharded(f, p.clone(), plan), p)
        });
        let dg = need(Structure::DataGuide).then(|| {
            let p = pool();
            (DataGuide::build_sharded(f, p.clone(), plan), p)
        });
        let fab = need(Structure::IndexFabric).then(|| {
            let p = pool();
            (IndexFabric::build_sharded(f, p.clone(), plan), p)
        });
        let asr = need(Structure::Asr).then(|| {
            let p = pool();
            (AccessSupportRelations::build_sharded(f, p.clone(), plan), p)
        });
        let ji = need(Structure::JoinIndex).then(|| {
            let p = pool();
            (JoinIndices::build_sharded(f, p.clone(), plan), p)
        });
        let sealed = Sealed { stats, pruned_tags, edge, dg, fab, asr, ji };
        QueryEngine { forest, rp, dp, sealed: Arc::new(sealed) }
    }

    /// The forest under query.
    pub fn forest(&self) -> &XmlForest {
        &self.forest
    }

    /// True when `strategy`'s structures were built (querying an
    /// unbuilt strategy panics; services check this up front).
    /// [`Strategy::Auto`] is available as soon as any concrete strategy
    /// is — the optimizer only ranks built configurations.
    pub fn has_strategy(&self, strategy: Strategy) -> bool {
        if strategy.is_auto() {
            return Strategy::ALL.iter().any(|&s| self.has_strategy(s));
        }
        strategy.structures().iter().all(|&s| self.structure(s).is_some())
    }

    /// A built structure and the pool it lives in.
    fn structure(&self, structure: Structure) -> Option<(&dyn PathIndex, &Arc<BufferPool>)> {
        fn built<I: PathIndex>(
            slot: &Option<(I, Arc<BufferPool>)>,
        ) -> Option<(&dyn PathIndex, &Arc<BufferPool>)> {
            slot.as_ref().map(|(index, pool)| (index as &dyn PathIndex, pool))
        }
        match structure {
            Structure::RootPaths => built(&self.rp),
            Structure::DataPaths => built(&self.dp),
            Structure::Edge => built(&self.sealed.edge),
            Structure::DataGuide => built(&self.sealed.dg),
            Structure::IndexFabric => built(&self.sealed.fab),
            Structure::Asr => built(&self.sealed.asr),
            Structure::JoinIndex => built(&self.sealed.ji),
        }
    }

    /// The built structures `strategy` reads, its own first.
    fn built_structures(
        &self,
        strategy: Strategy,
    ) -> impl Iterator<Item = (&dyn PathIndex, &Arc<BufferPool>)> {
        strategy.structures().iter().filter_map(|&s| self.structure(s))
    }

    /// True when every built maintainable index can store `ids` as one
    /// IdList: ROOTPATHS and DATAPATHS each encode a root path's ids
    /// into one B+-tree value of at most [`MAX_VAL`] bytes, and their
    /// `insert_path` panics on a longer one.
    pub fn idlist_fits(&self, ids: &[u64]) -> bool {
        let rp = self.rp.iter().map(|(rp, _)| rp.idlist);
        let mut codecs = rp.chain(self.dp.iter().map(|(dp, _)| dp.idlist));
        codecs.all(|codec| encode_idlist(codec, ids).len() <= MAX_VAL)
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
        &self.sealed.stats
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
        self.sealed.edge.as_ref().map(|(i, _)| i)
    }

    /// Space used by a strategy (Fig. 9): the primary structure plus any
    /// Edge structures it relies on. [`Strategy::Auto`] owns no
    /// structures of its own and reports zero.
    pub fn space_bytes(&self, strategy: Strategy) -> u64 {
        self.built_structures(strategy).map(|(index, _)| index.space_bytes()).sum()
    }

    pub(crate) fn pools_for(&self, strategy: Strategy) -> Vec<&Arc<BufferPool>> {
        self.built_structures(strategy).map(|(_, pool)| pool).collect()
    }

    /// Digest over the raw page images of every buffer pool backing
    /// `strategy` (the primary structure's pool, plus the Edge pool for
    /// the strategies that lean on it): each pool's
    /// [`BufferPool::content_hash`], folded in order. Two engines built
    /// from the same forest and options digest equal iff their index
    /// pages are byte-identical — the acceptance check for
    /// [`QueryEngine::build_parallel`].
    pub fn structure_digest(&self, strategy: Strategy) -> u64 {
        self.pools_for(strategy).iter().fold(hash::SEED, |h, p| hash::mix(h, p.content_hash()))
    }

    /// [`QueryEngine::structure_digest`] of every built strategy, in the
    /// paper's reporting order, hashing each pool once however many
    /// strategies share it (four lean on the Edge pool).
    pub(crate) fn structure_digests(&self) -> Vec<(Strategy, u64)> {
        let mut hashed: Vec<(*const BufferPool, u64)> = Vec::new();
        let mut pool_hash =
            |p: &Arc<BufferPool>| match hashed.iter().find(|&&(q, _)| q == Arc::as_ptr(p)) {
                Some(&(_, h)) => h,
                None => {
                    let h = p.content_hash();
                    hashed.push((Arc::as_ptr(p), h));
                    h
                }
            };
        self.built_strategies()
            .into_iter()
            .map(|s| {
                (s, self.pools_for(s).iter().fold(hash::SEED, |h, p| hash::mix(h, pool_hash(p))))
            })
            .collect()
    }

    /// Drops every cached page of the strategy's pools (flushes dirty
    /// pages first) so the next query runs cold — the paper's omitted
    /// cold-cache setting, used by the buffer-pool ablation bench.
    pub fn clear_caches(&self, strategy: Strategy) {
        for p in self.pools_for(strategy) {
            p.clear_cache();
        }
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
        if let Some((_, p)) = &self.sealed.edge {
            out.push(("edge", p.counters()));
        }
        if let Some((_, p)) = &self.sealed.dg {
            out.push(("dataguide", p.counters()));
        }
        if let Some((_, p)) = &self.sealed.fab {
            out.push(("fabric", p.counters()));
        }
        if let Some((_, p)) = &self.sealed.asr {
            out.push(("asr", p.counters()));
        }
        if let Some((_, p)) = &self.sealed.ji {
            out.push(("joinindex", p.counters()));
        }
        out
    }

    /// Compiles and plans a twig in one step: the decompose/choose_plan
    /// front half of [`QueryEngine::answer`], exposed so plan caches
    /// (see `xtwig-service`) can skip it on repeated twig shapes.
    pub fn compile(&self, twig: &TwigPattern) -> Result<(CompiledTwig, QueryPlan), UnknownTag> {
        let compiled = decompose(twig, self.forest().dict())?;
        let dp_height = self.dp.as_ref().map_or(1, |(dp, _)| dp.tree().stats().height);
        let plan = choose_plan(&compiled, &self.sealed.stats, self.forest().dict(), dp_height);
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
    /// run the plan on this thread, and report its probe and row counts
    /// and the page reads this thread made meanwhile as [`QueryMetrics`].
    ///
    /// With a trace, the same execution additionally appends `resolve`,
    /// `execute`, `step` and `materialize` spans to it, and nothing
    /// else. Answer, strategy, plan and counter totals do not depend on
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
        if let (Some(t), Some(r)) = (trace.as_deref_mut(), resolve) {
            if requested == Strategy::Auto {
                t.annotate(r, format!("auto\u{2192}{}", strategy.label()));
            } else {
                t.annotate(r, strategy.label());
            }
            t.end(r, SpanCounters::default());
        }

        let execute = trace.as_deref_mut().map(|t| t.begin("execute", strategy.label()));
        let before = IoStatsSnapshot::of_this_thread();
        let start = Instant::now();
        let mut cx = Exec { trace, ..Exec::default() };
        let ids = self.execute(compiled, plan, strategy, &mut cx);
        let elapsed = start.elapsed();
        let delta = IoStatsSnapshot::of_this_thread().since(&before);
        let metrics = QueryMetrics {
            probes: cx.io.probes,
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
        }
        QueryAnswer { ids, plan: ran, strategy, metrics }
    }

    /// [`QueryEngine::answer`] with pipeline tracing: returns the
    /// answer plus a [`Trace`] — a span tree covering planning,
    /// auto-resolution, every plan step (index probe, join, or INLJ
    /// extension), and output materialization, each with wall time,
    /// the logical/physical page reads it made, probe counts, and rows.
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
    /// join (or INLJ probe) per further step, and let the last step write
    /// the output id of each result into `cx.answer` instead of a row.
    /// The one executor body — with `cx.trace` set it also records a
    /// `step` span per plan step (per-step read and probe deltas) and a
    /// `materialize` span around the output projection; every read of the
    /// tally, `format!` and clock read that costs sits under that `Some`.
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
        cx.out.reset(width, slots);
        let last = plan.steps.len() - 1;
        for (i, step) in plan.steps.iter().enumerate() {
            let sp = &compiled.subpaths[step.subpath];
            let span = cx.trace.as_deref_mut().map(|t| {
                let reads = IoStatsSnapshot::of_this_thread();
                (t.begin("step", ""), reads, cx.io.probes, cx.io.rows_fetched)
            });
            let how;
            let (mut repriced, mut runs, mut seeks) = (None, None, 0);
            // The last step answers with the output ids of its results.
            let emit = (i == last).then_some(compiled.twig.output);
            // Whether a free scan of the step lends its matches' leaves
            // from the index keys; a bound probe decodes.
            let mut leaf = lends_key_leaves(strategy, sp, interior_needed(sp));
            if i == 0 {
                self.probe_free(strategy, sp, interior_needed(sp), &masks, emit, cx);
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
                    let price =
                        step.reprice(distinct_keys(&cx.keys), &sp.q, &self.sealed.stats, height);
                    repriced = Some(price);
                    let method = price.method();
                    #[cfg(test)]
                    let method = cx.forced.map_or(method, |f| f.method(i));
                    (method == Method::Bound).then_some(probe)
                });
                if let Some(probe) = probe {
                    self.inlj_extend(probe, sp.q.value.as_deref(), semi, emit, cx);
                    cx.ran_bound = true;
                    leaf = false;
                    how = if semi { "inlj semi-join" } else { "inlj" };
                } else {
                    let keep_anc = masks.keep_anc_after(i);
                    let (merged, sought) = self.stream_join(
                        strategy,
                        sp,
                        interior_needed(sp),
                        join,
                        semi,
                        emit,
                        keep_anc,
                        &masks,
                        cx,
                    );
                    how = if semi { "semi-join" } else { "join" };
                    runs = (!semi).then_some(merged);
                    seeks = sought;
                }
            }
            // Early projection + duplicate elimination: existence
            // predicates must not enumerate full match tuples (a
            // relational engine would run these joins as semi-joins).
            // Keep only bindings that later steps or the output consume.
            // After the last step the output set itself is the distinct.
            if i < last {
                cx.rows.project(masks.keep_after(i), masks.keep_anc_after(i));
                cx.rows.distinct(&mut cx.order, &mut cx.out);
            }
            if let (Some(t), Some((token, io_before, probes_before, fetched_before))) =
                (cx.trace.as_deref_mut(), span)
            {
                let io = IoStatsSnapshot::of_this_thread().since(&io_before);
                let mut detail = format!("#{i} subpath {} {how}", step.subpath);
                if let Some(runs) = runs {
                    // One run per schema path when the join merged; one
                    // per match when it searched.
                    detail.push_str(&format!(" runs={runs}"));
                }
                if seeks > 0 {
                    // Index entries the join jumped past undecoded.
                    detail.push_str(&format!(" seeks={seeks}"));
                }
                if let (Some(ran), Some(planned)) = (repriced, step.price) {
                    // What the run-time pricing saw against what the
                    // planner assumed, and whether that changed the method.
                    detail.push_str(&format!(" heads={}/{}", ran.heads, planned.heads));
                    if ran.method() != planned.method() {
                        detail.push_str(&format!(" (planned {})", planned.method().label()));
                    }
                }
                if leaf {
                    // The scan lent key leaves: it decoded no IdList.
                    detail.push_str(" leaf");
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
        // The one materialization point: the last step's ids, each once.
        let answer = &mut cx.answer;
        answer.sort_unstable();
        answer.dedup();
        if answer.last() == Some(&UNBOUND) {
            answer.pop();
        }
        let ids: BTreeSet<u64> = std::mem::take(answer).into_iter().collect();
        if let (Some(t), Some(token)) = (cx.trace.as_deref_mut(), span) {
            t.end(token, SpanCounters { rows: ids.len() as u64, ..SpanCounters::default() });
        }
        ids
    }

    /// §4.3: a pruned DATAPATHS index only supports probes on retained
    /// head tags.
    fn probe_head_allowed(&self, probe: &ProbeSpec) -> bool {
        self.sealed.pruned_tags.as_ref().is_none_or(|tags| tags.contains(&probe.anchor_tag))
    }

    /// Evaluates one PCsubpath with the strategy's probe pattern, lending
    /// each match to `sink(above, nodes, ids)` until it answers `Break`:
    /// `ids` binds the twig nodes `nodes` (every step of a full match,
    /// just the final one of a leaf-only match) and `above` is what the
    /// index entry listed in front of them — the ancestors of `ids[0]`
    /// when the index stores full root IdLists. ROOTPATHS, DATAPATHS and
    /// ASR stream each IdList from the leaf page through `ids_buf`; the
    /// Edge family writes each match it walks into the same buffer, and
    /// lends it from there. Every strategy counts its lookups into `io`.
    /// Long values are rechecked before a match is lent.
    ///
    /// `interior` says whether the caller reads the ids a match binds
    /// above its last step. When it does not, ROOTPATHS and DATAPATHS
    /// lend a subpath of more than one node as leaf-only matches, the
    /// leaf read from each entry key: no IdList is decoded
    /// ([`lends_key_leaves`]). The recheck then runs on that leaf.
    ///
    /// ROOTPATHS and DATAPATHS in document order seek past the entries
    /// below the id a `floor` answers: those are neither decoded nor
    /// fetched. Returns the seeks made.
    fn scan_subpath(
        &self,
        strategy: Strategy,
        sp: &SubpathSpec,
        interior: bool,
        io: &mut ProbeIo,
        floor: Option<Floor<'_>>,
        mut sink: impl FnMut(&[u64], &[usize], &[u64]) -> ControlFlow<()>,
    ) -> u64 {
        let ProbeIo { ids: ids_buf, probes, rows_fetched } = io;
        let (q, nodes) = (&sp.q, sp.nodes.as_slice());
        let leaf_only = lends_key_leaves(strategy, sp, interior);
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
        match strategy {
            Strategy::RootPaths => {
                *probes += 1;
                let (rp, _) = self.rp.as_ref().expect("ROOTPATHS not built");
                return rp.for_each_free(q, ids_buf, floor, leaf_only, |_key, ids| lend(ids));
            }
            Strategy::DataPaths => {
                *probes += 1;
                let (dp, _) = self.dp.as_ref().expect("DATAPATHS not built");
                return dp.for_each_free(q, ids_buf, floor, leaf_only, |_key, ids| lend(ids));
            }
            Strategy::Asr => {
                let (asr, _) = self.sealed.asr.as_ref().expect("ASR not built");
                asr.for_each_match(q, ids_buf, probes, |_path, ids| lend(ids));
            }
            Strategy::Edge => {
                // The Edge chain must walk every step regardless: interior
                // tags are only verifiable through backward-link probes.
                let (e, _) = self.sealed.edge.as_ref().expect("Edge not built");
                e.for_each_match(q, ids_buf, probes, lend);
            }
            Strategy::DataGuideEdge => self.dataguide_edge(q, interior, ids_buf, probes, lend),
            Strategy::IndexFabricEdge => self.fabric_edge(q, interior, ids_buf, probes, lend),
            Strategy::JoinIndex => {
                let (ji, _) = self.sealed.ji.as_ref().expect("JoinIndices not built");
                let (edge, _) = self.sealed.edge.as_ref().expect("Edge not built");
                ji.for_each_match(q, interior, edge, ids_buf, probes, lend);
            }
            Strategy::Auto => unreachable!("Auto resolves before execution"),
        }
        0
    }

    /// Writes the matches of the plan's first PCsubpath into `cx.rows`
    /// as binding rows, capturing, when the index returns full root
    /// IdLists, the ancestor list of a segment root a `//` join will ask
    /// for. A probe that is the plan's only step (`emit` is the
    /// output node) writes no rows: it pushes the output id of each match
    /// into `cx.answer`. `interior` is [`QueryEngine::scan_subpath`]'s.
    fn probe_free(
        &self,
        strategy: Strategy,
        sp: &SubpathSpec,
        interior: bool,
        masks: &StepMasks,
        emit: Option<usize>,
        cx: &mut Exec<'_>,
    ) {
        let full_root = lists_full_roots(strategy);
        let Exec { rows, arena, io, answer, .. } = cx;
        self.scan_subpath(strategy, sp, interior, io, None, |above, nodes, m| {
            if let Some(out) = emit {
                if let Some(at) = nodes.iter().position(|&n| n == out) {
                    answer.push(m[at]);
                }
                return ControlFlow::Continue(());
            }
            let (bind, anc) = rows.push_unbound();
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
    /// fall back to the Edge chain entirely. Lends as
    /// [`QueryEngine::scan_subpath`] does.
    fn dataguide_edge(
        &self,
        q: &PcSubpathQuery,
        interior: bool,
        ids: &mut Vec<u64>,
        probes: &mut u64,
        mut lend: impl FnMut(&[u64]) -> ControlFlow<()>,
    ) {
        let (dg, _) = self.sealed.dg.as_ref().expect("DataGuide not built");
        let (edge, _) = self.sealed.edge.as_ref().expect("Edge not built");
        if !q.anchored {
            return edge.for_each_match(q, ids, probes, lend);
        }
        // The join's build side: the valued ids, which the value index
        // lists in id order.
        let valued = q.value.as_deref().map(|v| {
            let mut valued = Vec::new();
            edge.nodes_with(
                *q.tags.last().expect("a subpath has a step"),
                Some(v),
                probes,
                |_, id| {
                    valued.push(id);
                    ControlFlow::Continue(())
                },
            );
            valued
        });
        dg.path_instances(&q.tags, probes, |probes, leaf| {
            if valued.as_ref().is_some_and(|valued| valued.binary_search(&leaf).is_err()) {
                return ControlFlow::Continue(());
            }
            lend_path_leaf(edge, q, interior, leaf, ids, probes, &mut lend)
        });
    }

    /// IF+Edge (§5.1.2): the fabric answers valued root-to-leaf paths in
    /// one probe; everything else falls back to the Edge chain. Lends as
    /// [`QueryEngine::scan_subpath`] does.
    fn fabric_edge(
        &self,
        q: &PcSubpathQuery,
        interior: bool,
        ids: &mut Vec<u64>,
        probes: &mut u64,
        mut lend: impl FnMut(&[u64]) -> ControlFlow<()>,
    ) {
        let (fab, _) = self.sealed.fab.as_ref().expect("IndexFabric not built");
        let (edge, _) = self.sealed.edge.as_ref().expect("Edge not built");
        match (q.value.as_deref(), q.anchored) {
            (Some(v), true) => fab.leaf_instances(&q.tags, v, probes, |probes, leaf| {
                lend_path_leaf(edge, q, interior, leaf, ids, probes, &mut lend)
            }),
            _ => edge.for_each_match(q, ids, probes, lend),
        }
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
    /// backward-link walks through the Edge table.
    ///
    /// Only Edge, DG+Edge, IF+Edge and JI get here, and all four build
    /// Edge. Under ROOTPATHS, DATAPATHS and ASR ([`lists_full_roots`]) a
    /// `//` join reads ancestors captured from the IdList: an
    /// `AncestorOf` join those in front of each match, a
    /// `DescendantBound` join those each row captured for the segment
    /// root it binds. The step that bound that root was a free probe or
    /// a streamed join, and both capture. An INLJ step, which does not,
    /// never binds the root of a segment whose `//` edge is still open:
    /// `plan::probe_spec` anchors a cross-segment probe at the edge's
    /// upper node, so the probe itself closes the edge, and a
    /// same-segment probe binds only the part below a shared node.
    fn recover_ancestors(&self, id: u64, arena: &mut Vec<u64>, probes: &mut u64) -> AncList {
        let off = arena.len();
        let (edge, _) = self.sealed.edge.as_ref().expect("Edge not built");
        edge.ancestors_of(id, probes, |a| arena.push(a));
        AncList { off, len: arena.len() - off }
    }

    /// Joins `cx.rows` (left) with the subpath's matches as the probe
    /// lends them; the matches are never written into a table. Each one
    /// is looked up in the left rows' sorted `(key, row)` run — by the
    /// twig node both sides bind (`SharedNode`), by each of the match's
    /// ancestors (`AncestorOf`), or by the match's `upper` among the rows
    /// keyed by their ancestors (`DescendantBound`). For the two join
    /// kinds whose key the rows bind, the caller has already sorted them
    /// into `cx.keys`.
    ///
    /// A full join writes each left row joined with each partner match
    /// into `cx.out` — capturing the match's ancestor list only for a slot
    /// `keep_anc` says a later `//` join reads — and swaps it into
    /// `cx.rows`. An existence filter (`semi`) of a branch none of whose
    /// bindings are consumed later only marks the rows a match proves,
    /// stops the probe as soon as every row is proven, and keeps the
    /// proven rows of `cx.rows` in place, adding no binding. As the last
    /// step (`emit` is the output node), a full join pushes the output id
    /// of each joined pair into `cx.answer` instead of writing the row,
    /// and a filter pushes those of the rows it kept.
    ///
    /// The lookups go through merge cursors, one per key position of a
    /// match: RP/DP/ASR lend ids in ascending order within each schema
    /// path, so the join merges, restarting once per path.
    ///
    /// A join keyed on one id the match binds (`SharedNode`,
    /// `DescendantBound`) also leapfrogs through a document-ordered
    /// ROOTPATHS or DATAPATHS index: no id of an entry exceeds its last
    /// one, and within a run the key id only rises, so an entry whose
    /// last id is below the cursor's next left key cannot match any key
    /// not yet passed, and the scan seeks to the first entry that can.
    /// Before it skips through a run it has not skipped through yet, the
    /// cursor rewinds: what it passed may belong to the runs before.
    ///
    /// Returns the runs it merged — one more than the number of
    /// restarts — and the seeks the scan made.
    #[allow(clippy::too_many_arguments)]
    fn stream_join(
        &self,
        strategy: Strategy,
        sp: &SubpathSpec,
        interior: bool,
        how: &JoinHow,
        semi: bool,
        emit: Option<usize>,
        keep_anc: &[bool],
        masks: &StepMasks,
        cx: &mut Exec<'_>,
    ) -> (u64, u64) {
        let Exec { rows, out, arena, io, keys, marks, walked, cursors, answer, .. } = cx;
        let left = &*rows;
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
        let keys = &**keys;
        out.clear();
        marks.clear();
        marks.resize(if semi { left.len() } else { 0 }, false);
        let mut unproven = Unproven { marks, left: left.len() };
        // Read by the scan's floor before an entry is decoded, and moved
        // by the sink after: shared by both.
        let cursor = Cell::new(MergeCursor::default());
        let mut floor = |new_run: bool| {
            let mut c = cursor.get();
            if new_run {
                c.rewind();
                cursor.set(c);
            }
            c.floor(keys)
        };
        let floor: Option<Floor<'_>> = match how {
            JoinHow::AncestorOf { .. } => None,
            JoinHow::SharedNode { .. } | JoinHow::DescendantBound { .. } => Some(&mut floor),
        };
        let run = |key: u64| {
            let mut c = cursor.get();
            let run = c.run(keys, key);
            cursor.set(c);
            run
        };
        cursors.clear();
        // Ancestors an index entry does not list are recovered per match;
        // the walks they cost are probes.
        let mut walks = 0;
        let full_root = lists_full_roots(strategy);
        let seeks = self.scan_subpath(strategy, sp, interior, io, floor, |above, nodes, m| {
            let bound_to = |node: usize| nodes.iter().position(|&n| n == node).map(|at| m[at]);
            // The ancestor list a joined row captures from this match,
            // stored on its first partner.
            let mut captured = None;
            let mut partner = |i: usize| {
                if semi {
                    unproven.prove(i);
                    return;
                }
                if let Some(output) = emit {
                    answer.push(bound_to(output).unwrap_or(left.row(i)[output]));
                    return;
                }
                let slot = masks.anc_slot(nodes[0]).filter(|&slot| full_root && keep_anc[slot]);
                let list = slot.map(|slot| {
                    let list = *captured.get_or_insert_with(|| {
                        arena.extend_from_slice(above);
                        AncList { off: arena.len() - above.len(), len: above.len() }
                    });
                    (slot, list)
                });
                out.push_joined(left, i, nodes, m, list);
            };
            match how {
                JoinHow::SharedNode { deepest, shared } => {
                    // Bindings of a twig node both sides carry must agree.
                    let consistent = |i: usize| {
                        shared.iter().all(|&s| {
                            let mine = left.row(i)[s];
                            mine == UNBOUND || bound_to(s).is_none_or(|theirs| theirs == mine)
                        })
                    };
                    if let Some(key) = bound_to(*deepest) {
                        for &(_, i) in run(key) {
                            if consistent(i) {
                                partner(i);
                            }
                        }
                    }
                }
                JoinHow::AncestorOf { .. } => {
                    // Rows bind `upper`; the match binds the segment root
                    // first: any of its ancestors may be a row's `upper`.
                    let ancestors = if full_root {
                        above
                    } else {
                        walked.clear();
                        self.recover_ancestors(m[0], walked, &mut walks).of(walked)
                    };
                    if cursors.len() < ancestors.len() {
                        cursors.resize(ancestors.len(), MergeCursor::default());
                    }
                    for (&a, cursor) in ancestors.iter().zip(cursors.iter_mut()) {
                        for &(_, i) in cursor.run(keys, a) {
                            partner(i);
                        }
                    }
                }
                JoinHow::DescendantBound { upper, .. } => {
                    if let Some(key) = bound_to(*upper) {
                        for &(_, i) in run(key) {
                            partner(i);
                        }
                    }
                }
            }
            if semi {
                unproven.flow()
            } else {
                ControlFlow::Continue(())
            }
        });
        io.probes += walks;
        if semi {
            rows.retain(unproven.marks);
            if let Some(output) = emit {
                answer.extend(rows.column(output));
            }
        } else {
            std::mem::swap(rows, out);
        }
        let restarts = cursor.get().restarts + cursors.iter().map(|c| c.restarts).sum::<u64>();
        (1 + restarts, seeks)
    }

    /// The index-nested-loop extension (§3.3) of `cx.rows`, written into
    /// `cx.out` and swapped in: one BoundIndex probe of the residue with leaf `value`
    /// per distinct head in `cx.keys` — the rows sorted by their anchor
    /// binding, so the probes walk the B+-tree left to right and their
    /// order does not depend on a hash seed — through one prebuilt key
    /// re-aimed at each head, fanning every match out over the head's
    /// rows. An existence probe (`semi`) stops at its first match. As
    /// the last step (`emit` is the output node), it pushes the output id
    /// of each extended row into `cx.answer` instead of writing the row.
    fn inlj_extend(
        &self,
        probe: &ProbeSpec,
        value: Option<&str>,
        semi: bool,
        emit: Option<usize>,
        cx: &mut Exec<'_>,
    ) {
        let (dp, _) = self.dp.as_ref().expect("INLJ requires DATAPATHS");
        let recheck = value.filter(|v| value_needs_recheck(v));
        let passes = |leaf: Option<&u64>| match (recheck, leaf) {
            (Some(v), Some(&leaf)) => self.forest().value_str(NodeId(leaf)) == Some(v),
            _ => true,
        };
        let Exec { rows, out, keys, io, answer, .. } = cx;
        let ProbeIo { ids, probes, rows_fetched } = io;
        let rows = &*rows;
        out.clear();
        // Where the output id sits in a match's tail, if the probe binds it.
        let output_at = emit.map(|o| (o, probe.step_nodes.iter().position(|&n| n == o)));
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
                let tail = &m[m.len() - probe.step_nodes.len()..];
                if let Some((output, at)) = output_at {
                    let id = at.map(|at| tail[at]);
                    answer.extend(group.iter().map(|&(_, i)| id.unwrap_or(rows.row(i)[output])));
                    return if semi { ControlFlow::Break(()) } else { ControlFlow::Continue(()) };
                }
                if semi {
                    // The head survives on its first match.
                    for &(_, i) in group {
                        out.push_copy(rows, i);
                    }
                    return ControlFlow::Break(());
                }
                for &(_, i) in group {
                    let bind = out.push_copy(rows, i);
                    for (&node, &id) in probe.step_nodes.iter().zip(tail) {
                        bind[node] = id;
                    }
                }
                ControlFlow::Continue(())
            });
        }
        std::mem::swap(&mut cx.rows, &mut cx.out);
    }
}

/// True for the strategies whose index entries list the full root
/// IdList of a match, ancestors of its first step included.
fn lists_full_roots(strategy: Strategy) -> bool {
    matches!(strategy, Strategy::RootPaths | Strategy::DataPaths | Strategy::Asr)
}

/// True when a free scan of `sp` under `strategy` lends each match as its
/// last id alone, read from the index key: under ROOTPATHS and DATAPATHS,
/// when the caller reads no `interior` id and the subpath has more than
/// one node. The node of a one-node subpath may be a segment root whose
/// ancestors — the IdList in front of it — the first step captures or a
/// `//` join reads; the first node of a longer one is interior.
fn lends_key_leaves(strategy: Strategy, sp: &SubpathSpec, interior: bool) -> bool {
    matches!(strategy, Strategy::RootPaths | Strategy::DataPaths) && !interior && sp.nodes.len() > 1
}

/// Lends `leaf`, which a DataGuide or Index Fabric probe found on the
/// pattern's exact root path: with the ids above it, recovered by a
/// backward-link walk (one probe per step), when the caller reads
/// `interior` ids; else alone — the paper's Fig. 11 case, where a
/// fully-specified valued path is one fabric probe and nothing else.
fn lend_path_leaf(
    edge: &EdgeTable,
    q: &PcSubpathQuery,
    interior: bool,
    leaf: u64,
    ids: &mut Vec<u64>,
    probes: &mut u64,
    lend: &mut impl FnMut(&[u64]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if !interior {
        lend(&[leaf])
    } else if edge.walk_up(&q.tags, leaf, ids, probes) {
        lend(ids)
    } else {
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::VALUE_KEY_PREFIX_BYTES;
    use crate::xpath::parse_xpath;
    use xtwig_xml::naive;
    use xtwig_xml::tree::fig1_book_document;

    fn engine(forest: &Arc<XmlForest>) -> QueryEngine {
        QueryEngine::build(forest.clone(), EngineOptions { pool_pages: 1024, ..Default::default() })
    }

    fn check_all_strategies(engine: &QueryEngine, xpath: &str) {
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
        let f = Arc::new(fig1_book_document());
        let e = engine(&f);
        check_all_strategies(&e, "/book[title='XML']//author[fn='jane'][ln='doe']");
    }

    #[test]
    fn single_path_queries() {
        let f = Arc::new(fig1_book_document());
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
        let f = Arc::new(fig1_book_document());
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
        let f = Arc::new(fig1_book_document());
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
        let f = Arc::new(fig1_book_document());
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
        let f = Arc::new(fig1_book_document());
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
    fn check_every_way(engine: &QueryEngine, twig: &TwigPattern) -> Vec<String> {
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
            let forest = Arc::new(programs::forest(&programs::bytes(
                2 * case,
                60 + (case as usize * 7) % 240,
            )));
            let twig = programs::twig(&programs::bytes(2 * case + 1, 1 + 3 * (case as usize % 5)));
            let e = QueryEngine::build(
                forest.clone(),
                EngineOptions { pool_pages: 512, ..Default::default() },
            );
            check_every_way(&e, &twig);
        }
    }

    /// Three books titled alike, one author each, named apart.
    fn three_books() -> XmlForest {
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
        f
    }

    #[test]
    fn every_join_kind_streams_its_existence_filter() {
        // One of the three books has the author asked for.
        let f = Arc::new(three_books());
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
    fn every_join_kind_streams_its_full_join() {
        let f = Arc::new(three_books());
        let e = engine(&f);
        for (xpath, kind) in [
            // The `ln` branch is the output: its bindings are consumed.
            ("//author[fn = 'jane']/ln", "SharedNode"),
            // So are those of a `//` branch below the rows' `book`.
            ("/book[title = 'XML']//nickname", "AncestorOf"),
        ] {
            let twig = parse_xpath(xpath).unwrap();
            check_every_way(&e, &twig);
            let (compiled, plan) = e.compile(&twig).unwrap();
            let needed = e.needed_nodes(&compiled, &plan);
            let (i, step) = plan
                .steps
                .iter()
                .enumerate()
                .find(|(_, step)| format!("{:?}", step.join).contains(kind))
                .unwrap_or_else(|| panic!("{xpath}: no {kind} step in {plan:?}"));
            let sp = &compiled.subpaths[step.subpath];
            let interior = sp.nodes[..sp.nodes.len() - 1].iter().any(|&n| needed[n]);
            // ROOTPATHS, DATAPATHS and ASR lend their ancestors with each
            // match; Edge recovers them by walks.
            for strategy in
                [Strategy::RootPaths, Strategy::DataPaths, Strategy::Asr, Strategy::Edge]
            {
                let mut trace = Trace::new();
                let forced = Forced { bound_steps: 0, full_joins: false };
                let mut cx =
                    Exec { forced: Some(forced), trace: Some(&mut trace), ..Exec::default() };
                e.execute(&compiled, &plan, strategy, &mut cx);
                let spans: Vec<_> =
                    trace.spans().into_iter().filter(|span| span.name == "step").collect();
                let span = &spans[i];
                let streamed = format!("#{i} subpath {} join runs=", step.subpath);
                assert!(span.detail.starts_with(&streamed), "{xpath} via {strategy}: {spans:?}");
                // Ran to completion: the step fetched every match a scan
                // of the subpath lends, and paid the same probes for them —
                // walks included, one per walked step.
                let (mut io, mut walks, mut walked) = (ProbeIo::default(), 0, Vec::new());
                e.scan_subpath(strategy, sp, interior, &mut io, None, |_, _, m| {
                    if kind == "AncestorOf" && !lists_full_roots(strategy) {
                        walked.clear();
                        e.recover_ancestors(m[0], &mut walked, &mut walks);
                    }
                    ControlFlow::Continue(())
                });
                let probes = io.probes + walks;
                assert_eq!(span.counters.rows, io.rows_fetched, "{xpath} via {strategy}: rows");
                assert_eq!(span.counters.probes, probes, "{xpath} via {strategy}: probes");
            }
        }
    }

    /// Twelve books titled alike, one author each: all named `doe`, two
    /// of them `john`.
    fn twelve_books() -> XmlForest {
        let mut f = XmlForest::new();
        for i in 0..12 {
            let mut b = f.builder();
            b.open("book");
            b.leaf("title", "XML");
            b.open("author");
            b.leaf("fn", if i % 6 == 3 { "john" } else { "jane" });
            b.leaf("ln", "doe");
            b.leaf("nickname", "nick");
            b.close();
            b.close();
            b.finish();
        }
        f
    }

    #[test]
    fn joins_on_one_id_seek_past_the_entries_no_row_can_match() {
        // Two rows against twelve entries: past the first `john`, the
        // entries of the books before the second are sought past.
        let f = Arc::new(twelve_books());
        let e = engine(&f);
        for (xpath, kind, how) in [
            ("//author[fn = 'john']/ln", "SharedNode", "join runs="),
            ("//author[fn = 'john'][ln = 'doe']", "SharedNode", "semi-join"),
            ("/book[title = 'XML']//author[fn = 'john']/nickname", "DescendantBound", "semi-join"),
        ] {
            let twig = parse_xpath(xpath).unwrap();
            check_every_way(&e, &twig);
            let expected: BTreeSet<u64> =
                naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
            let (compiled, plan) = e.compile(&twig).unwrap();
            let (i, step) = plan
                .steps
                .iter()
                .enumerate()
                .find(|(_, step)| format!("{:?}", step.join).contains(kind))
                .unwrap_or_else(|| panic!("{xpath}: no {kind} step in {plan:?}"));
            for strategy in [Strategy::RootPaths, Strategy::DataPaths] {
                let mut trace = Trace::new();
                let forced = Forced { bound_steps: 0, full_joins: false };
                let mut cx =
                    Exec { forced: Some(forced), trace: Some(&mut trace), ..Exec::default() };
                assert_eq!(e.execute(&compiled, &plan, strategy, &mut cx), expected, "{xpath}");
                let spans: Vec<_> =
                    trace.spans().into_iter().filter(|span| span.name == "step").collect();
                let detail = &spans[i].detail;
                let streamed = format!("#{i} subpath {} {how}", step.subpath);
                assert!(detail.starts_with(&streamed), "{xpath} via {strategy}: {spans:?}");
                let seeks = detail
                    .split(" seeks=")
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok());
                assert!(seeks > Some(0), "{xpath} via {strategy}: {detail}");
            }
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
        let f = Arc::new(f);
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
        let f = Arc::new(f);
        let e = engine(&f);
        for xpath in ["//n//n//n/leaf", "/n/n/n[//leaf]", "//n[n/n]//leaf[. = 'bottom']"] {
            check_every_way(&e, &parse_xpath(xpath).unwrap());
        }
    }

    #[test]
    fn scans_lend_key_leaves_only_where_nothing_reads_more() {
        // Each twig reaches a reader of the ids in front of a leaf, or
        // none: `(xpath, steps whose scan lends key leaves)`.
        let f = Arc::new(fig1_book_document());
        let e = engine(&f);
        let long = "x".repeat(VALUE_KEY_PREFIX_BYTES + 24);
        let mut docs = XmlForest::new();
        let mut b = docs.builder();
        b.open("docs");
        for suffix in ["alpha", "beta", "alpha"] {
            b.open("rec");
            b.leaf("blob", &format!("{long}-{suffix}"));
            b.close();
        }
        b.close();
        b.finish();
        let docs = Arc::new(docs);
        let long_docs = engine(&docs);
        for (engine, xpath, leaf_steps) in [
            // Nothing above the leaf is read: one-step plans of a free
            // scan each, ROOTPATHS' and DATAPATHS'.
            (&e, "/book/allauthors/author".to_owned(), 1),
            (&e, "//author/fn[. = 'jane']".to_owned(), 1),
            // The output is an interior node.
            (&e, "//allauthors/author[fn = 'jane']".to_owned(), 0),
            (&e, "/book/allauthors[author/fn = 'jane']".to_owned(), 0),
            // One-node subpaths whose ancestors a `//` join reads, from
            // the first step's capture or from each match.
            (&e, "/book//title".to_owned(), 0),
            (&e, "//allauthors//ln".to_owned(), 0),
            // A leaf-only step (`allauthors` is the `//` join's upper)
            // beside a one-node subpath that must still decode.
            (&e, "/book/allauthors//ln[. = 'doe']".to_owned(), 1),
            // Long values: the recheck reads the leaf from the key.
            (&long_docs, format!("/docs/rec/blob[. = '{long}-alpha']"), 1),
            (&long_docs, format!("//rec/blob[. = '{long}-beta']"), 1),
            (&long_docs, format!("//rec/blob[. = '{long}-gamma']"), 1),
        ] {
            let twig = parse_xpath(&xpath).unwrap();
            let steps: Vec<String> = check_every_way(engine, &twig)
                .into_iter()
                .filter(|detail| detail.starts_with('#'))
                .collect();
            let leaves = steps.iter().filter(|detail| detail.ends_with(" leaf")).count();
            assert_eq!(leaves, leaf_steps, "{xpath}: {steps:?}");
        }
    }

    #[test]
    fn a_one_step_plan_writes_no_row() {
        let f = Arc::new(fig1_book_document());
        let e = engine(&f);
        // The leaf is the answer; then an interior node is.
        for (xpath, leaf) in [("/book/allauthors/author", true), ("//author[fn = 'jane']", false)] {
            let twig = parse_xpath(xpath).unwrap();
            let expected: BTreeSet<u64> =
                naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
            let (compiled, plan) = e.compile(&twig).unwrap();
            assert_eq!(plan.steps.len(), 1, "{xpath}");
            for strategy in Strategy::ALL {
                let mut cx = Exec::default();
                assert_eq!(e.execute(&compiled, &plan, strategy, &mut cx), expected, "{xpath}");
                let written = cx.rows.len() + cx.out.len();
                assert_eq!(written, 0, "{xpath} via {strategy}: rows written");
                if matches!(strategy, Strategy::RootPaths | Strategy::DataPaths) {
                    // No IdList was decoded into the probe's buffer.
                    assert_eq!(cx.io.ids.capacity() == 0, leaf, "{xpath} via {strategy}");
                }
            }
        }
    }

    #[test]
    fn metrics_populate() {
        let f = Arc::new(fig1_book_document());
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
        let f = Arc::new(fig1_book_document());
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
        let f = Arc::new(fig1_book_document());
        let workload = vec![parse_xpath("/book[title='XML']//author[fn='jane']").unwrap()];
        let filter = crate::compress::workload_head_filter(&workload);
        let e = QueryEngine::build(
            f.clone(),
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
        assert_send_sync::<QueryEngine>();
        assert_send_sync::<QueryAnswer>();
    }

    #[test]
    fn auto_in_build_options_materializes_every_strategy() {
        // `--strategies auto` must mean "build the full menu", not
        // "build nothing and persist an empty index".
        let f = Arc::new(fig1_book_document());
        let e = QueryEngine::build(
            f.clone(),
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
        let f = Arc::new(fig1_book_document());
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
        let f = Arc::new(f);
        let seq = QueryEngine::build(f.clone(), opts());
        for shards in [1, 2, 3, 7] {
            let par = QueryEngine::build_parallel(f.clone(), opts(), shards);
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
        let f = Arc::new(f);
        let e = engine(&f);
        check_all_strategies(&e, "/book[title='XML']//author[fn='jane'][ln='doe']");
        check_all_strategies(&e, "/book/title[. = 'SQL']");
        check_all_strategies(&e, "//author[ln = 'poe']");
    }

    /// `xml::MAX_DEPTH` is the deepest path every structure but JI can
    /// hold: ASR's Plain IdList of that many ids is the largest value a
    /// leaf cell takes. At the limit (an element chain with a valued
    /// leaf, or one fewer element with an attribute) RP, DP, Edge, DG,
    /// IF and ASR all build and answer; one level deeper the parser
    /// refuses the document. JI is left out: its space grows with the
    /// square of the depth.
    #[test]
    fn every_structure_builds_at_the_parser_depth_limit() {
        use xtwig_btree::node::MAX_VAL;
        use xtwig_rel::codec::{encode_idlist, IdListCodec};
        use xtwig_xml::{parse_document, MAX_DEPTH};

        let ids: Vec<u64> = (1..=MAX_DEPTH as u64 + 1).collect();
        assert!(encode_idlist(IdListCodec::Plain, &ids[..MAX_DEPTH]).len() <= MAX_VAL);
        assert!(encode_idlist(IdListCodec::Plain, &ids).len() > MAX_VAL);

        let chain = |elements: usize, leaf: &str| {
            format!("{}{leaf}{}", "<a>".repeat(elements), "</a>".repeat(elements))
        };
        let deepest = [chain(MAX_DEPTH, "deep"), chain(MAX_DEPTH - 2, "<b k='deep'/>")];
        for doc in &deepest {
            let mut f = XmlForest::new();
            parse_document(&mut f, doc).unwrap();
            assert_eq!(f.iter_nodes().map(|n| f.depth(n)).max(), Some(MAX_DEPTH));
            let strategies = vec![
                Strategy::RootPaths,
                Strategy::DataPaths,
                Strategy::Edge,
                Strategy::DataGuideEdge,
                Strategy::IndexFabricEdge,
                Strategy::Asr,
            ];
            let f = Arc::new(f);
            let e = QueryEngine::build(
                f.clone(),
                EngineOptions {
                    strategies: strategies.clone(),
                    pool_pages: 1024,
                    ..Default::default()
                },
            );
            for xpath in ["//a[. = 'deep']", "//b[@k = 'deep']", "/a/a/a"] {
                let twig = parse_xpath(xpath).unwrap();
                let expected: BTreeSet<u64> =
                    naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
                for &s in &strategies {
                    assert_eq!(e.answer(&twig, s).ids, expected, "{s} on {xpath}");
                }
            }
        }
        let too_deep = chain(MAX_DEPTH + 1, "deep");
        let err = parse_document(&mut XmlForest::new(), &too_deep).unwrap_err();
        assert!(err.to_string().contains(&MAX_DEPTH.to_string()), "{err}");
    }
}
