//! Join Indices (paper §5.1.2, §5.2.6, Valduriez).
//!
//! A join index materializes the endpoint pairs of a path expression:
//! only the **starting and ending node id** of each instance are stored.
//! To support ad hoc queries we materialize, for every distinct
//! root-anchored schema path `p` and every split position `j`, the join
//! index of the path expression `p[j..]` *in the context of* `p` — i.e.,
//! pairs `(id at step j, leaf id)`.
//!
//! Two consequences the paper measures:
//!
//! * each materialized expression needs **two** B+-trees (forward on the
//!   start id, backward on the end id) so intermediate/branch nodes can
//!   be recovered from either side — which is why Join Indices are the
//!   largest configuration in Fig. 9;
//! * a `//` pattern matching *m* distinct schema paths opens *m*
//!   table pairs (Fig. 13's linear-in-paths cost), and recovering each
//!   interior position of a pattern costs one backward probe per
//!   candidate per position.

use crate::edge::EdgeTable;
use crate::family::{PathIndex, PcSubpathQuery};
use crate::parallel::{map_shards, ShardPlan};
use crate::paths::for_each_root_path_in;
use crate::rootpaths::key_leaf;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_btree::{bulk_build, merge_sorted_runs, BTree, BTreeOptions, RunArena};
use xtwig_rel::codec::{self, KeyBuf};
use xtwig_storage::BufferPool;
use xtwig_xml::{TagId, XmlForest};

struct JiPair {
    /// `(first id, last id) → ()`
    forward: BTree,
    /// `(last id, first id) → ()`
    backward: BTree,
}

/// The full set of join indices.
pub struct JoinIndices {
    /// Keyed by (full root path, split position).
    tables: HashMap<(Vec<TagId>, usize), JiPair>,
}

fn push_pair_key(out: &mut Vec<u8>, a: u64, b: u64) {
    KeyBuf::appending_to(out).push_u64(a).push_u64(b);
}

/// The start id paired with `last` in `pair` — one backward probe,
/// counted into `probes`. A leaf has one root path, so it has one start
/// id per split at most.
fn first_id(pair: &JiPair, last: u64, probes: &mut u64) -> Option<u64> {
    *probes += 1;
    let mut prefix = KeyBuf::new();
    prefix.push_u64(last);
    let mut first = None;
    pair.backward.for_each_prefix(prefix.as_bytes(), |key, _| {
        first = Some(key_leaf(key));
        ControlFlow::Break(())
    });
    first
}

impl JoinIndices {
    /// Materializes all join indices from `forest`.
    pub fn build(forest: &XmlForest, pool: Arc<BufferPool>) -> Self {
        Self::build_sharded(forest, pool, &ShardPlan::sequential(forest))
    }

    /// Shard-parallel [`Self::build`]: per-shard grouping and sorting on
    /// the worker pool, then one merged bulk load per `(path, split)`
    /// table pair **in sorted expression order** — deterministic page
    /// layout, identical table contents (see
    /// [`AccessSupportRelations::build_sharded`](crate::asr::AccessSupportRelations::build_sharded)).
    pub fn build_sharded(forest: &XmlForest, pool: Arc<BufferPool>, plan: &ShardPlan) -> Self {
        // Per schema path, one (forward, backward) run pair per split.
        type Runs = Vec<[RunArena; 2]>;
        let mut shard_groups: Vec<HashMap<Vec<TagId>, Runs>> = map_shards(plan, |range| {
            let mut grouped: HashMap<Vec<TagId>, Runs> = HashMap::new();
            for_each_root_path_in(forest, range, |tags, ids, value| {
                if value.is_some() {
                    return; // endpoints only; values live in the base data
                }
                if !grouped.contains_key(tags) {
                    grouped.insert(
                        tags.to_vec(),
                        (0..tags.len()).map(|_| Default::default()).collect(),
                    );
                }
                let splits = grouped.get_mut(tags).expect("inserted above");
                let last = *ids.last().unwrap();
                for ([fwd, bwd], &start) in splits.iter_mut().zip(ids) {
                    fwd.push_with(|k| push_pair_key(k, start, last), |_| {});
                    bwd.push_with(|k| push_pair_key(k, last, start), |_| {});
                }
            });
            for runs in grouped.values_mut().flatten() {
                runs.iter_mut().for_each(RunArena::sort);
            }
            grouped
        });
        let mut paths: Vec<Vec<TagId>> =
            shard_groups.iter().flat_map(|g| g.keys().cloned()).collect();
        paths.sort_unstable();
        paths.dedup();
        let mut tables = HashMap::with_capacity(paths.len());
        let opts = BTreeOptions::default();
        for path in paths {
            let mut splits: Vec<Runs> =
                shard_groups.iter_mut().filter_map(|g| g.remove(&path)).collect();
            for split in 0..path.len() {
                let (fwd_runs, bwd_runs): (Vec<RunArena>, Vec<RunArena>) = splits
                    .iter_mut()
                    .map(|s| {
                        let [fwd, bwd] = std::mem::take(&mut s[split]);
                        (fwd, bwd)
                    })
                    .unzip();
                tables.insert(
                    (path.clone(), split),
                    JiPair {
                        forward: bulk_build(pool.clone(), opts, merge_sorted_runs(&fwd_runs)),
                        backward: bulk_build(pool.clone(), opts, merge_sorted_runs(&bwd_runs)),
                    },
                );
            }
        }
        JoinIndices { tables }
    }

    /// Number of materialized path expressions (each holding two trees).
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Aggregate physical shape of the per-expression table pairs, for
    /// the optimizer's catalog (see [`crate::auto`]).
    pub fn cost_profile(&self) -> xtwig_opt::TableSetProfile {
        let mut p =
            xtwig_opt::TableSetProfile { tables: self.tables.len() as u64, ..Default::default() };
        for pair in self.tables.values() {
            for tree in [&pair.forward, &pair.backward] {
                let s = tree.stats();
                p.pages += s.pages;
                p.rows += s.entries;
                p.height = p.height.max(s.height.saturating_sub(1));
            }
        }
        p
    }

    /// The table pairs of the pattern's positions on every schema path
    /// it matches (the exact root path when anchored), in sorted path
    /// order: one chunk of `q.tags.len()` pairs per path, the pattern's
    /// position `i` at index `i`. Each `(path, split)` table is looked up
    /// once, in one pass over the expressions.
    fn pattern_tables(&self, q: &PcSubpathQuery) -> Vec<&JiPair> {
        let k = q.tags.len();
        let mut found: Vec<(&[TagId], usize, &JiPair)> = self
            .tables
            .iter()
            .filter(|((path, split), _)| {
                // Splits from the pattern's first position on.
                path.ends_with(&q.tags) && {
                    let start = path.len() - k;
                    *split >= start && (start == 0 || !q.anchored)
                }
            })
            .map(|((path, split), pair)| (path.as_slice(), *split, pair))
            .collect();
        found.sort_unstable_by_key(|&(path, split, _)| (path, split));
        found
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|positions| positions.len() == k)
            .flatten()
            .map(|&(_, _, pair)| pair)
            .collect()
    }

    /// Evaluates a PCsubpath — the one scan of these tables — lending
    /// each match to `sink` from the reused `ids` until it answers
    /// `Break`, and counting every probe into `probes`.
    ///
    /// A valued pattern takes its candidate leaves from `edge`'s value
    /// index (join indices store no values). For each candidate and each
    /// schema path the pattern matches, one backward probe per interior
    /// position recovers the ids above the leaf. When the caller reads
    /// no `interior` id, one backward probe instead checks that the path
    /// holds the candidate (none does for an unanchored one-node
    /// pattern), and the candidate is lent alone. A structural
    /// pattern scans each matching expression's forward tree for its
    /// endpoint pairs and recovers the positions between them the same
    /// way.
    pub fn for_each_match(
        &self,
        q: &PcSubpathQuery,
        interior: bool,
        edge: &EdgeTable,
        ids: &mut Vec<u64>,
        probes: &mut u64,
        mut sink: impl FnMut(&[u64]) -> ControlFlow<()>,
    ) {
        let k = q.tags.len();
        let tables = self.pattern_tables(q);
        let Some(value) = q.value.as_deref() else {
            for positions in tables.chunks(k) {
                *probes += 1;
                let mut flow = ControlFlow::Continue(());
                positions[0].forward.for_each_prefix(&[], |key, _| {
                    // key = [u64 first][u64 last]
                    let (first, last) = (codec::dec_u64(key, 0).0, key_leaf(key));
                    ids.clear();
                    ids.push(first);
                    for pair in positions.iter().take(k - 1).skip(1) {
                        let Some(id) = first_id(pair, last, probes) else {
                            return ControlFlow::Continue(());
                        };
                        ids.push(id);
                    }
                    if k > 1 {
                        ids.push(last);
                    }
                    flow = sink(ids);
                    flow
                });
                if flow.is_break() {
                    return;
                }
            }
            return;
        };
        // The positions probed per candidate and path: every interior
        // one, or the first alone to prove the path holds the candidate.
        // An unanchored one-node pattern needs no proof: it ends every
        // path its tag ends.
        let probed = match (interior, k, q.anchored) {
            (true, ..) => k - 1,
            (false, 1, false) => 0,
            (false, ..) => 1,
        };
        edge.nodes_with(
            *q.tags.last().expect("a subpath has a step"),
            Some(value),
            probes,
            |probes, leaf| {
                // A leaf has one root path: it is lent at most once.
                let mut lent = false;
                for positions in tables.chunks(k) {
                    ids.clear();
                    for pair in &positions[..probed] {
                        let Some(id) = first_id(pair, leaf, probes) else { break };
                        ids.push(id);
                    }
                    if ids.len() < probed || lent {
                        continue;
                    }
                    lent = true;
                    ids.push(leaf);
                    let lend = if interior { &ids[..] } else { &ids[ids.len() - 1..] };
                    sink(lend)?;
                }
                ControlFlow::Continue(())
            },
        );
    }
}

impl JoinIndices {
    /// Writes the catalog metadata a reopen needs (see
    /// [`crate::persist`]): every `(path, split)` expression's key and
    /// both trees' shapes, in sorted expression order.
    pub(crate) fn write_meta(&self, w: &mut crate::persist::ByteWriter) {
        let mut exprs: Vec<&(Vec<TagId>, usize)> = self.tables.keys().collect();
        exprs.sort_unstable();
        w.push_u32(exprs.len() as u32);
        for expr in exprs {
            crate::persist::write_tag_path(w, &expr.0);
            w.push_u32(expr.1 as u32);
            let pair = &self.tables[expr];
            crate::persist::write_tree_meta(w, &pair.forward);
            crate::persist::write_tree_meta(w, &pair.backward);
        }
    }

    /// Reattaches persisted Join Indices over `pool`.
    pub(crate) fn open_meta(
        r: &mut crate::persist::ByteReader<'_>,
        pool: Arc<BufferPool>,
    ) -> Result<Self, crate::persist::FormatError> {
        let n = r.u32()? as usize;
        let mut tables = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let path = crate::persist::read_tag_path(r)?;
            let split = r.u32()? as usize;
            if split >= path.len().max(1) {
                return crate::persist::format_err(format!(
                    "join-index split {split} outside its {}-step path",
                    path.len()
                ));
            }
            let forward = crate::persist::read_tree_meta(r, pool.clone())?;
            let backward = crate::persist::read_tree_meta(r, pool.clone())?;
            if tables.insert((path, split), JiPair { forward, backward }).is_some() {
                return crate::persist::format_err("duplicate join-index expression");
            }
        }
        Ok(JoinIndices { tables })
    }
}

impl PathIndex for JoinIndices {
    fn space_bytes(&self) -> u64 {
        self.tables.values().map(|p| p.forward.space_bytes() + p.backward.space_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_xml::tree::fig1_book_document;

    fn build(f: &XmlForest) -> JoinIndices {
        JoinIndices::build(f, Arc::new(BufferPool::in_memory(16384)))
    }

    fn q(f: &XmlForest, steps: &[&str], anchored: bool, value: Option<&str>) -> PcSubpathQuery {
        PcSubpathQuery::resolve(f.dict(), steps, anchored, value).unwrap()
    }

    /// Every match of `q`, in the order lent, and the probes counted.
    fn matches(
        f: &XmlForest,
        ji: &JoinIndices,
        q: &PcSubpathQuery,
        interior: bool,
    ) -> (Vec<Vec<u64>>, u64) {
        let edge = EdgeTable::build(f, Arc::new(BufferPool::in_memory(8192)));
        let (mut out, mut probes) = (Vec::new(), 0);
        ji.for_each_match(q, interior, &edge, &mut Vec::new(), &mut probes, |ids| {
            out.push(ids.to_vec());
            ControlFlow::Continue(())
        });
        (out, probes)
    }

    #[test]
    fn two_trees_per_expression_and_more_tables_than_asr() {
        let f = fig1_book_document();
        let ji = build(&f);
        let asr =
            crate::asr::AccessSupportRelations::build(&f, Arc::new(BufferPool::in_memory(8192)));
        assert!(ji.table_count() > asr.table_count());
        // Fig. 9: JI needs more space than ASR.
        assert!(ji.space_bytes() > asr.space_bytes());
    }

    #[test]
    fn backward_probes_recover_start_ids() {
        let f = fig1_book_document();
        let ji = build(&f);
        // From leaf fn=7 back to the book, allauthors and author
        // positions: one value probe, then one backward probe per
        // interior position of the one path the pattern matches.
        let query = q(&f, &["book", "allauthors", "author", "fn"], true, Some("jane"));
        let (ms, probes) = matches(&f, &ji, &query, true);
        assert_eq!(ms, vec![vec![1, 5, 6, 7], vec![1, 5, 41, 42]]);
        assert_eq!(probes, 1 + 2 * 3);
    }

    #[test]
    fn valued_eval_uses_the_value_index_leaves() {
        let f = fig1_book_document();
        let ji = build(&f);
        let query = q(&f, &["author", "fn"], false, Some("jane"));
        let (ms, probes) = matches(&f, &ji, &query, true);
        assert_eq!(ms, vec![vec![6, 7], vec![41, 42]]);
        assert_eq!(probes, 1 + 2);
        // Read for the leaf alone, each candidate still proves its path.
        let (leaves, probes) = matches(&f, &ji, &query, false);
        assert_eq!(leaves, vec![vec![7], vec![42]]);
        assert_eq!(probes, 1 + 2);
    }

    #[test]
    fn an_anchored_one_node_pattern_lends_roots_only() {
        let mut f = XmlForest::new();
        let mut b = f.builder();
        b.leaf("title", "XML");
        b.finish();
        let mut b = f.builder();
        b.open("book");
        b.leaf("title", "XML");
        b.close();
        b.finish();
        let ji = build(&f);
        let (roots, probes) = matches(&f, &ji, &q(&f, &["title"], true, Some("XML")), false);
        assert_eq!(roots, vec![vec![1]]);
        assert_eq!(probes, 1 + 2);
        let (all, probes) = matches(&f, &ji, &q(&f, &["title"], false, Some("XML")), false);
        assert_eq!(all, vec![vec![1], vec![3]]);
        assert_eq!(probes, 1);
    }

    #[test]
    fn structural_eval_scans_expressions() {
        let f = fig1_book_document();
        let ji = build(&f);
        let (ms, probes) = matches(&f, &ji, &q(&f, &["title"], false, None), false);
        let mut last: Vec<u64> = ms.iter().map(|ids| *ids.last().unwrap()).collect();
        last.sort_unstable();
        assert_eq!(last, vec![2, 48]);
        // Two distinct schema paths end in title -> 2 expressions scanned.
        assert_eq!(probes, 2);
    }

    #[test]
    fn recursion_touches_linear_tables() {
        // The multi-table effect needs distinct paths: //title matches
        // book/title and book/chapter/title.
        let f = fig1_book_document();
        let ji = build(&f);
        assert_eq!(ji.pattern_tables(&q(&f, &["title"], false, None)).len(), 2);
        let anchored = q(&f, &["book", "title"], true, None);
        // One path, one table pair per position.
        assert_eq!(ji.pattern_tables(&anchored).len(), 2);
    }

    #[test]
    fn missing_pattern_is_empty() {
        let f = fig1_book_document();
        let ji = build(&f);
        let (ms, probes) = matches(&f, &ji, &q(&f, &["chapter", "fn"], false, None), true);
        assert!(ms.is_empty());
        assert_eq!(probes, 0);
    }
}
