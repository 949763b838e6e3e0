//! Access Support Relations (paper §5.1.2, §5.2.6, [Kemper/Moerkotte]).
//!
//! ASRs materialize path instantiations as relations — one table per
//! path expression, with one column per node along the path. Following
//! the paper, we materialize **all distinct root-anchored schema paths**
//! present in the data (ad hoc queries preclude workload-driven
//! selection), giving 902 tables for XMark and 235 for DBLP at paper
//! scale.
//!
//! Each table is realized as a B+-tree keyed on `(LeafValue, last id)`
//! with the node-id columns as payload. Two properties measured in §5.2.6
//! follow from the design:
//!
//! * a `//` pattern matching *m* distinct schema paths must open *m*
//!   separate tables (cost linear in *m*, vs. one probe for DATAPATHS);
//! * id columns are separate attributes, so the differential IdList
//!   compression of §4.1 does not apply (we store ids uncompressed).

use crate::family::{
    value_key_prefix, FamilyPosition, IdListSublist, IndexedColumn, PathIndex, PathMatch,
    PcSubpathQuery, SchemaPathSubset,
};
use crate::parallel::{map_shards, ShardPlan};
use crate::paths::for_each_root_path_in;
use crate::rootpaths::push_value_part;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xtwig_btree::{bulk_build, merge_sorted_runs, BTree, BTreeOptions};
use xtwig_rel::codec::{self, IdListCodec, KeyBuf};
use xtwig_storage::BufferPool;
use xtwig_xml::{TagId, XmlForest};

/// The full set of per-path Access Support Relations.
pub struct AccessSupportRelations {
    tables: HashMap<Vec<TagId>, BTree>,
    lookups: AtomicU64,
}

impl AccessSupportRelations {
    /// Materializes one ASR per distinct root-anchored schema path.
    pub fn build(forest: &XmlForest, pool: Arc<BufferPool>) -> Self {
        Self::build_sharded(forest, pool, &ShardPlan::sequential(forest))
    }

    /// Shard-parallel [`Self::build`]: workers group and sort their own
    /// shard's rows per path; tables are then bulk-loaded from the
    /// merged runs **in sorted path order**, so page allocation — and
    /// the pool image — is deterministic regardless of shard count (the
    /// pre-sharding builder iterated a `HashMap` here, which made even
    /// two sequential builds lay out pages differently).
    pub fn build_sharded(forest: &XmlForest, pool: Arc<BufferPool>, plan: &ShardPlan) -> Self {
        type Entries = Vec<(Vec<u8>, Vec<u8>)>;
        let mut shard_groups: Vec<HashMap<Vec<TagId>, Entries>> = map_shards(plan, |range| {
            let mut grouped: HashMap<Vec<TagId>, Entries> = HashMap::new();
            for_each_root_path_in(forest, range, |tags, ids, value| {
                let mut key = KeyBuf::new();
                match value {
                    None => {
                        key.push_null();
                    }
                    Some(v) => {
                        key.push_str(value_key_prefix(v));
                    }
                }
                key.push_u64(*ids.last().unwrap());
                grouped.entry(tags.to_vec()).or_default().push((
                    key.finish(),
                    // Ids as separate columns -> no delta compression (§5.2.6).
                    codec::encode_idlist(IdListCodec::Plain, ids),
                ));
            });
            for run in grouped.values_mut() {
                run.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            }
            grouped
        });
        let mut paths: Vec<Vec<TagId>> =
            shard_groups.iter().flat_map(|g| g.keys().cloned()).collect();
        paths.sort_unstable();
        paths.dedup();
        let mut tables = HashMap::with_capacity(paths.len());
        for path in paths {
            let runs: Vec<Entries> =
                shard_groups.iter_mut().filter_map(|g| g.remove(&path)).collect();
            tables.insert(
                path,
                bulk_build(pool.clone(), BTreeOptions::default(), merge_sorted_runs(runs)),
            );
        }
        AccessSupportRelations { tables, lookups: AtomicU64::new(0) }
    }

    /// Number of materialized tables (paper: 902 XMark / 235 DBLP).
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Index probes issued since the last call.
    pub fn take_lookups(&self) -> u64 {
        self.lookups.swap(0, Ordering::Relaxed)
    }

    /// Aggregate physical shape of the per-path tables, for the
    /// optimizer's catalog (see [`crate::auto`]).
    pub fn cost_profile(&self) -> xtwig_opt::TableSetProfile {
        let mut p =
            xtwig_opt::TableSetProfile { tables: self.tables.len() as u64, ..Default::default() };
        for tree in self.tables.values() {
            let s = tree.stats();
            p.pages += s.pages;
            p.rows += s.entries;
            p.height = p.height.max(s.height.saturating_sub(1));
        }
        p
    }

    /// The distinct stored paths matching a pattern: the exact path when
    /// anchored, every path with the pattern as suffix otherwise.
    pub fn matching_paths(&self, q: &PcSubpathQuery) -> Vec<&Vec<TagId>> {
        if q.anchored {
            self.tables.get_key_value(&q.tags).map(|(k, _)| k).into_iter().collect()
        } else {
            self.tables.keys().filter(|p| p.ends_with(&q.tags)).collect()
        }
    }

    /// The streaming PCsubpath evaluation — the one scan of these
    /// tables: one indexed probe per matching table, in sorted path
    /// order, calling `sink(path, ids)` per row with the row's full
    /// root IdList (ASR rows are complete path instantiations) decoded
    /// into the caller's reused `ids` buffer. A `Break` from the sink
    /// ends the evaluation: no further row, no further table.
    pub fn for_each_match(
        &self,
        q: &PcSubpathQuery,
        ids: &mut Vec<u64>,
        mut sink: impl FnMut(&[TagId], &[u64]) -> ControlFlow<()>,
    ) {
        let mut prefix = KeyBuf::new();
        push_value_part(&mut prefix, q.value.as_deref());
        let mut paths = self.matching_paths(q);
        paths.sort_unstable();
        let mut flow = ControlFlow::Continue(());
        for path in paths {
            self.lookups.fetch_add(1, Ordering::Relaxed);
            self.tables[path].for_each_prefix(prefix.as_bytes(), |_key, payload| {
                ids.clear();
                codec::decode_idlist_into(IdListCodec::Plain, payload, ids);
                flow = sink(path, ids);
                flow
            });
            if flow.is_break() {
                return;
            }
        }
    }

    /// Evaluates a PCsubpath, collecting
    /// [`AccessSupportRelations::for_each_match`] into owned matches.
    pub fn eval_pcsubpath(&self, q: &PcSubpathQuery) -> Vec<PathMatch> {
        let mut out = Vec::new();
        self.for_each_match(q, &mut Vec::new(), |path, ids| {
            out.push(PathMatch { head: 0, tags: path.to_vec(), ids: ids.to_vec() });
            ControlFlow::Continue(())
        });
        out
    }
}

impl AccessSupportRelations {
    /// Writes the catalog metadata a reopen needs (see
    /// [`crate::persist`]): every per-path table's key and tree shape,
    /// in sorted path order (deterministic catalog bytes).
    pub(crate) fn write_meta(&self, w: &mut crate::persist::ByteWriter) {
        let mut paths: Vec<&Vec<TagId>> = self.tables.keys().collect();
        paths.sort_unstable();
        w.push_u32(paths.len() as u32);
        for path in paths {
            crate::persist::write_tag_path(w, path);
            crate::persist::write_tree_meta(w, &self.tables[path]);
        }
    }

    /// Reattaches persisted Access Support Relations over `pool`.
    pub(crate) fn open_meta(
        r: &mut crate::persist::ByteReader<'_>,
        pool: Arc<BufferPool>,
    ) -> Result<Self, crate::persist::FormatError> {
        let n = r.u32()? as usize;
        let mut tables = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let path = crate::persist::read_tag_path(r)?;
            let tree = crate::persist::read_tree_meta(r, pool.clone())?;
            if tables.insert(path, tree).is_some() {
                return crate::persist::format_err("duplicate ASR table path");
            }
        }
        Ok(AccessSupportRelations { tables, lookups: AtomicU64::new(0) })
    }
}

impl PathIndex for AccessSupportRelations {
    fn name(&self) -> &'static str {
        "ASR"
    }

    /// ASRs sit outside Fig. 3's single-index rows: schema is encoded as
    /// *relation names* (one table per path) rather than as an indexed
    /// column. The closest family description: root-to-leaf prefixes with
    /// full IdLists, value-indexed only.
    fn family_position(&self) -> FamilyPosition {
        FamilyPosition {
            schema_paths: SchemaPathSubset::RootToLeafPrefixes,
            idlist: IdListSublist::Full,
            indexed: vec![IndexedColumn::LeafValue],
        }
    }

    fn space_bytes(&self) -> u64 {
        self.tables.values().map(|t| t.space_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_xml::tree::fig1_book_document;

    fn build(f: &XmlForest) -> AccessSupportRelations {
        AccessSupportRelations::build(f, Arc::new(BufferPool::in_memory(8192)))
    }

    fn q(f: &XmlForest, steps: &[&str], anchored: bool, value: Option<&str>) -> PcSubpathQuery {
        PcSubpathQuery::resolve(f.dict(), steps, anchored, value).unwrap()
    }

    #[test]
    fn one_table_per_distinct_path() {
        let f = fig1_book_document();
        let asr = build(&f);
        let stats = crate::paths::PathStats::build(&f);
        assert_eq!(asr.table_count(), stats.distinct_schema_paths());
    }

    #[test]
    fn anchored_query_probes_one_table() {
        let f = fig1_book_document();
        let asr = build(&f);
        let ms = asr.eval_pcsubpath(&q(&f, &["book", "title"], true, Some("XML")));
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].ids, vec![1, 2]);
        assert_eq!(asr.take_lookups(), 1);
    }

    #[test]
    fn recursive_query_probes_many_tables() {
        let f = fig1_book_document();
        let asr = build(&f);
        // //title matches two distinct schema paths: book/title and
        // book/chapter/title -> two table accesses (the §5.2.6 effect).
        let ms = asr.eval_pcsubpath(&q(&f, &["title"], false, None));
        let mut last: Vec<u64> = ms.iter().map(|m| m.last_id()).collect();
        last.sort_unstable();
        assert_eq!(last, vec![2, 48]);
        assert_eq!(asr.take_lookups(), 2);
    }

    #[test]
    fn matches_carry_full_idlists() {
        let f = fig1_book_document();
        let asr = build(&f);
        let ms = asr.eval_pcsubpath(&q(&f, &["author", "fn"], false, Some("jane")));
        let mut lists: Vec<Vec<u64>> = ms.iter().map(|m| m.ids.clone()).collect();
        lists.sort();
        assert_eq!(lists, vec![vec![1, 5, 6, 7], vec![1, 5, 41, 42]]);
    }

    #[test]
    fn missing_path_yields_empty() {
        let f = fig1_book_document();
        let asr = build(&f);
        assert!(asr.eval_pcsubpath(&q(&f, &["author", "title"], false, None)).is_empty());
        assert_eq!(asr.take_lookups(), 0, "no table matches, no probes");
    }

    #[test]
    fn space_exceeds_a_page_per_table() {
        let f = fig1_book_document();
        let asr = build(&f);
        assert!(asr.space_bytes() >= asr.table_count() as u64 * 8192);
    }
}
