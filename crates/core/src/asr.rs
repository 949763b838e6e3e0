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

use crate::family::{value_key_prefix, PathIndex, PcSubpathQuery};
use crate::parallel::{map_shards, ShardPlan};
use crate::paths::for_each_root_path_in;
use crate::rootpaths::push_value_part;
use std::collections::{BTreeMap, HashMap};
use std::ops::{Bound, ControlFlow};
use std::sync::Arc;
use xtwig_btree::{bulk_build, merge_sorted_runs, BTree, BTreeOptions, RunArena};
use xtwig_rel::codec::{self, IdListCodec, KeyBuf};
use xtwig_storage::BufferPool;
use xtwig_xml::{TagId, XmlForest};

/// The full set of per-path Access Support Relations, in path order.
pub struct AccessSupportRelations {
    tables: BTreeMap<Vec<TagId>, BTree>,
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
        let mut shard_groups: Vec<HashMap<Vec<TagId>, RunArena>> = map_shards(plan, |range| {
            let mut grouped: HashMap<Vec<TagId>, RunArena> = HashMap::new();
            for_each_root_path_in(forest, range, |tags, ids, value| {
                if !grouped.contains_key(tags) {
                    grouped.insert(tags.to_vec(), RunArena::new());
                }
                let run = grouped.get_mut(tags).expect("inserted above");
                run.push_with(
                    |k| {
                        let mut key = KeyBuf::appending_to(k);
                        match value {
                            None => {
                                key.push_null();
                            }
                            Some(v) => {
                                key.push_str(value_key_prefix(v));
                            }
                        }
                        key.push_u64(*ids.last().unwrap());
                    },
                    // Ids as separate columns -> no delta compression (§5.2.6).
                    |v| codec::encode_idlist_into(IdListCodec::Plain, ids, v),
                );
            });
            grouped.values_mut().for_each(RunArena::sort);
            grouped
        });
        let mut paths: Vec<Vec<TagId>> =
            shard_groups.iter().flat_map(|g| g.keys().cloned()).collect();
        paths.sort_unstable();
        paths.dedup();
        let mut tables = BTreeMap::new();
        for path in paths {
            let runs: Vec<RunArena> =
                shard_groups.iter_mut().filter_map(|g| g.remove(&path)).collect();
            tables.insert(
                path,
                bulk_build(pool.clone(), BTreeOptions::default(), merge_sorted_runs(&runs)),
            );
        }
        AccessSupportRelations { tables }
    }

    /// Number of materialized tables (paper: 902 XMark / 235 DBLP).
    pub fn table_count(&self) -> usize {
        self.tables.len()
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

    /// The tables whose stored paths match a pattern, in path order:
    /// the exact path when anchored, every path with the pattern as
    /// suffix otherwise.
    fn matching<'a>(
        &'a self,
        q: &'a PcSubpathQuery,
    ) -> impl Iterator<Item = (&'a Vec<TagId>, &'a BTree)> + 'a {
        let exact = q.tags.as_slice();
        let range = match q.anchored {
            true => (Bound::Included(exact), Bound::Included(exact)),
            false => (Bound::Unbounded, Bound::Unbounded),
        };
        self.tables.range::<[TagId], _>(range).filter(|(path, _)| path.ends_with(&q.tags))
    }

    /// The streaming PCsubpath evaluation — the one scan of these
    /// tables: one indexed probe per matching table, in sorted path
    /// order, each counted into `probes`, calling `sink(path, ids)` per
    /// row with the row's full root IdList (ASR rows are complete path
    /// instantiations) decoded into the caller's reused `ids` buffer. A
    /// `Break` from the sink ends the evaluation: no further row, no
    /// further table.
    pub fn for_each_match(
        &self,
        q: &PcSubpathQuery,
        ids: &mut Vec<u64>,
        probes: &mut u64,
        mut sink: impl FnMut(&[TagId], &[u64]) -> ControlFlow<()>,
    ) {
        let mut prefix = KeyBuf::new();
        push_value_part(&mut prefix, q.value.as_deref());
        let mut flow = ControlFlow::Continue(());
        for (path, table) in self.matching(q) {
            *probes += 1;
            table.for_each_prefix(prefix.as_bytes(), |_key, payload| {
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
}

impl AccessSupportRelations {
    /// Writes the catalog metadata a reopen needs (see
    /// [`crate::persist`]): every per-path table's key and tree shape,
    /// in sorted path order (deterministic catalog bytes).
    pub(crate) fn write_meta(&self, w: &mut crate::persist::ByteWriter) {
        w.push_u32(self.tables.len() as u32);
        for (path, table) in &self.tables {
            crate::persist::write_tag_path(w, path);
            crate::persist::write_tree_meta(w, table);
        }
    }

    /// Reattaches persisted Access Support Relations over `pool`.
    pub(crate) fn open_meta(
        r: &mut crate::persist::ByteReader<'_>,
        pool: Arc<BufferPool>,
    ) -> Result<Self, crate::persist::FormatError> {
        let n = r.u32()? as usize;
        let mut tables = BTreeMap::new();
        for _ in 0..n {
            let path = crate::persist::read_tag_path(r)?;
            let tree = crate::persist::read_tree_meta(r, pool.clone())?;
            if tables.insert(path, tree).is_some() {
                return crate::persist::format_err("duplicate ASR table path");
            }
        }
        Ok(AccessSupportRelations { tables })
    }
}

impl PathIndex for AccessSupportRelations {
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

    /// Every row's IdList, in the order lent, and the probes counted.
    fn matches(asr: &AccessSupportRelations, q: &PcSubpathQuery) -> (Vec<Vec<u64>>, u64) {
        let (mut out, mut probes) = (Vec::new(), 0);
        asr.for_each_match(q, &mut Vec::new(), &mut probes, |_, ids| {
            out.push(ids.to_vec());
            ControlFlow::Continue(())
        });
        (out, probes)
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
        let (ms, probes) = matches(&asr, &q(&f, &["book", "title"], true, Some("XML")));
        assert_eq!(ms, vec![vec![1, 2]]);
        assert_eq!(probes, 1);
    }

    #[test]
    fn recursive_query_probes_many_tables() {
        let f = fig1_book_document();
        let asr = build(&f);
        // //title matches two distinct schema paths: book/title and
        // book/chapter/title -> two table accesses (the §5.2.6 effect).
        let (ms, probes) = matches(&asr, &q(&f, &["title"], false, None));
        let mut last: Vec<u64> = ms.iter().map(|ids| *ids.last().unwrap()).collect();
        last.sort_unstable();
        assert_eq!(last, vec![2, 48]);
        assert_eq!(probes, 2);
    }

    #[test]
    fn matches_carry_full_idlists() {
        let f = fig1_book_document();
        let asr = build(&f);
        let (mut lists, _) = matches(&asr, &q(&f, &["author", "fn"], false, Some("jane")));
        lists.sort();
        assert_eq!(lists, vec![vec![1, 5, 6, 7], vec![1, 5, 41, 42]]);
    }

    #[test]
    fn missing_path_yields_empty() {
        let f = fig1_book_document();
        let asr = build(&f);
        let (ms, probes) = matches(&asr, &q(&f, &["author", "title"], false, None));
        assert!(ms.is_empty());
        assert_eq!(probes, 0, "no table matches, no probes");
    }

    #[test]
    fn space_exceeds_a_page_per_table() {
        let f = fig1_book_document();
        let asr = build(&f);
        assert!(asr.space_bytes() >= asr.table_count() as u64 * 8192);
    }
}
