//! Enumeration of the 4-ary relational representation (paper Fig. 2).
//!
//! A data path is a schema path plus an optional leaf value, associated
//! with the node the path starts at (`HeadId`) and the ids along it
//! (`IdList`). This module walks the forest once in document order and
//! streams rows to index builders:
//!
//! * [`for_each_root_path`] — one row per node: the root-to-node path
//!   (plus a second, valued row when the node has a leaf value). These
//!   are the ROOTPATHS rows (Fig. 4) and the `HeadId = virtual root` rows
//!   of DATAPATHS (Fig. 5, footnote 4).
//! * [`for_each_subpath`] — for every node, one row per path *suffix
//!   start*: all subpaths of root-to-leaf paths (the remaining DATAPATHS
//!   rows).
//!
//! It also builds [`PathStats`], the statistics the planner uses to rank
//! branch selectivities (paper §5.1.1 collects DB2 statistics the same
//! way).

use crate::parallel::{map_shards, ShardPlan};
use std::collections::HashMap;
use xtwig_xml::{NodeRange, TagId, XmlForest};

/// Streams `(tags, ids, value)` for the root-to-node path of every node.
///
/// The callback runs once per node with `value = None`, and — when the
/// node carries a leaf value — a second time with `value = Some(..)`,
/// mirroring the paired `null` / valued rows of Fig. 2.
pub fn for_each_root_path<F>(forest: &XmlForest, f: F)
where
    F: FnMut(&[TagId], &[u64], Option<&str>),
{
    if let Some(range) = forest.full_range() {
        for_each_root_path_in(forest, range, f);
    }
}

/// Seeds the enumeration stacks with the proper ancestors of a range's
/// first node: the range may start mid-document (see
/// [`xtwig_xml::XmlForest::partition_nodes`]), and pre-order iteration
/// from there only needs the ancestor chain to resume exactly where a
/// full-forest walk would have been.
fn seed_stacks(
    forest: &XmlForest,
    first: xtwig_xml::NodeId,
    tags: &mut Vec<TagId>,
    ids: &mut Vec<u64>,
) {
    let path = forest.root_path_ids(first);
    for &n in &path[..path.len().saturating_sub(1)] {
        tags.push(forest.tag(n));
        ids.push(n.0);
    }
}

/// [`for_each_root_path`] over one shard range (any contiguous
/// pre-order span; the ancestor stack is seeded from the first node's
/// root path).
pub fn for_each_root_path_in<F>(forest: &XmlForest, range: NodeRange, mut f: F)
where
    F: FnMut(&[TagId], &[u64], Option<&str>),
{
    let mut tags: Vec<TagId> = Vec::with_capacity(32);
    let mut ids: Vec<u64> = Vec::with_capacity(32);
    seed_stacks(forest, range.first, &mut tags, &mut ids);
    for node in forest.iter_range(range) {
        let depth = forest.depth(node);
        tags.truncate(depth - 1);
        ids.truncate(depth - 1);
        tags.push(forest.tag(node));
        ids.push(node.0);
        f(&tags, &ids, None);
        if let Some(v) = forest.value_str(node) {
            f(&tags, &ids, Some(v));
        }
    }
}

/// Streams every subpath row: for each node and each suffix of its root
/// path, `(head_id, tags_from_head, ids_from_head, value)`. `tags[0]` is
/// the head's own tag and `ids[0]` its id, matching Fig. 5 (where the
/// stored IdList excludes the head — builders drop `ids[0]` at encode
/// time).
pub fn for_each_subpath<F>(forest: &XmlForest, f: F)
where
    F: FnMut(u64, &[TagId], &[u64], Option<&str>),
{
    if let Some(range) = forest.full_range() {
        for_each_subpath_in(forest, range, f);
    }
}

/// [`for_each_subpath`] over one shard range (any contiguous pre-order
/// span, as with [`for_each_root_path_in`]).
pub fn for_each_subpath_in<F>(forest: &XmlForest, range: NodeRange, mut f: F)
where
    F: FnMut(u64, &[TagId], &[u64], Option<&str>),
{
    let mut tags: Vec<TagId> = Vec::with_capacity(32);
    let mut ids: Vec<u64> = Vec::with_capacity(32);
    seed_stacks(forest, range.first, &mut tags, &mut ids);
    for node in forest.iter_range(range) {
        let depth = forest.depth(node);
        tags.truncate(depth - 1);
        ids.truncate(depth - 1);
        tags.push(forest.tag(node));
        ids.push(node.0);
        let value = forest.value_str(node);
        for start in 0..tags.len() {
            f(ids[start], &tags[start..], &ids[start..], None);
            if let Some(v) = value {
                f(ids[start], &tags[start..], &ids[start..], Some(v));
            }
        }
    }
}

/// Per-path and per-value statistics collected in one forest pass.
#[derive(Debug, Default, Clone)]
pub struct PathStats {
    /// Instances per distinct root-anchored schema path.
    path_counts: HashMap<Vec<TagId>, u64>,
    /// Instances per leaf tag, then per value: keyed so that a
    /// `(TagId, &str)` lookup borrows its value.
    tag_value_counts: HashMap<TagId, HashMap<Box<str>, u64>>,
    /// Instances per tag.
    tag_counts: HashMap<TagId, u64>,
    /// Total element/attribute nodes.
    nodes: u64,
}

impl PathStats {
    /// Collects statistics from `forest`.
    pub fn build(forest: &XmlForest) -> Self {
        Self::build_sharded(forest, &ShardPlan::sequential(forest))
    }

    /// Collects statistics shard-parallel, merging the per-shard counts.
    /// Counts are additive, so the merge is exact: the result equals
    /// [`PathStats::build`] on any shard plan.
    pub fn build_sharded(forest: &XmlForest, plan: &ShardPlan) -> Self {
        let shards = map_shards(plan, |range| Self::build_range(forest, range));
        let mut stats = PathStats::default();
        for shard in shards {
            stats.merge(shard);
        }
        stats
    }

    fn build_range(forest: &XmlForest, range: NodeRange) -> Self {
        let mut stats = PathStats::default();
        for_each_root_path_in(forest, range, |tags, _ids, value| match value {
            None => {
                *stats.path_counts.entry(tags.to_vec()).or_insert(0) += 1;
                *stats.tag_counts.entry(*tags.last().unwrap()).or_insert(0) += 1;
                stats.nodes += 1;
            }
            Some(v) => {
                *stats
                    .tag_value_counts
                    .entry(*tags.last().unwrap())
                    .or_default()
                    .entry(v.into())
                    .or_insert(0) += 1;
            }
        });
        stats
    }

    /// Adds another shard's counts into this one.
    pub fn merge(&mut self, other: PathStats) {
        for (k, v) in other.path_counts {
            *self.path_counts.entry(k).or_insert(0) += v;
        }
        for (tag, values) in other.tag_value_counts {
            let mine = self.tag_value_counts.entry(tag).or_default();
            for (value, count) in values {
                *mine.entry(value).or_insert(0) += count;
            }
        }
        for (k, v) in other.tag_counts {
            *self.tag_counts.entry(k).or_insert(0) += v;
        }
        self.nodes += other.nodes;
    }

    /// Number of distinct root-anchored schema paths (the paper reports
    /// 235 for DBLP and 902 for XMark, §4.2).
    pub fn distinct_schema_paths(&self) -> usize {
        self.path_counts.len()
    }

    /// Total element/attribute nodes.
    pub fn node_count(&self) -> u64 {
        self.nodes
    }

    /// Instances of an exact root-anchored schema path.
    pub fn path_count(&self, tags: &[TagId]) -> u64 {
        self.path_counts.get(tags).copied().unwrap_or(0)
    }

    /// Instances of nodes with `tag`.
    pub fn tag_count(&self, tag: TagId) -> u64 {
        self.tag_counts.get(&tag).copied().unwrap_or(0)
    }

    /// Instances of `(leaf tag, value)`.
    pub fn tag_value_count(&self, tag: TagId, value: &str) -> u64 {
        self.tag_value_counts.get(&tag).and_then(|values| values.get(value)).copied().unwrap_or(0)
    }

    /// Iterates distinct root paths with their instance counts.
    pub fn iter_paths(&self) -> impl Iterator<Item = (&[TagId], u64)> {
        self.path_counts.iter().map(|(k, &v)| (k.as_slice(), v))
    }

    /// Writes the statistics into an index catalog (see
    /// [`crate::persist`]) so a reopened engine plans queries without
    /// re-scanning the forest. Maps are emitted in sorted key order so
    /// the catalog bytes are deterministic.
    pub(crate) fn write_meta(&self, w: &mut crate::persist::ByteWriter) {
        let mut paths: Vec<(&Vec<TagId>, u64)> =
            self.path_counts.iter().map(|(k, &v)| (k, v)).collect();
        paths.sort_unstable();
        w.push_u32(paths.len() as u32);
        for (path, count) in paths {
            crate::persist::write_tag_path(w, path);
            w.push_u64(count);
        }
        let mut tag_values: Vec<(TagId, &str, u64)> = self
            .tag_value_counts
            .iter()
            .flat_map(|(&tag, values)| values.iter().map(move |(v, &c)| (tag, &**v, c)))
            .collect();
        tag_values.sort_unstable();
        w.push_u32(tag_values.len() as u32);
        for (tag, value, count) in tag_values {
            w.push_u32(tag.0);
            w.push_str(value);
            w.push_u64(count);
        }
        let mut tags: Vec<(TagId, u64)> = self.tag_counts.iter().map(|(&k, &v)| (k, v)).collect();
        tags.sort_unstable();
        w.push_u32(tags.len() as u32);
        for (tag, count) in tags {
            w.push_u32(tag.0);
            w.push_u64(count);
        }
        w.push_u64(self.nodes);
    }

    /// Reads statistics written by [`PathStats::write_meta`].
    pub(crate) fn open_meta(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<Self, crate::persist::FormatError> {
        let mut stats = PathStats::default();
        let n = r.u32()? as usize;
        for _ in 0..n {
            let path = crate::persist::read_tag_path(r)?;
            let count = r.u64()?;
            stats.path_counts.insert(path, count);
        }
        let n = r.u32()? as usize;
        for _ in 0..n {
            let tag = TagId(r.u32()?);
            let value = r.str()?;
            let count = r.u64()?;
            stats.tag_value_counts.entry(tag).or_default().insert(value.into(), count);
        }
        let n = r.u32()? as usize;
        for _ in 0..n {
            let tag = TagId(r.u32()?);
            let count = r.u64()?;
            stats.tag_counts.insert(tag, count);
        }
        stats.nodes = r.u64()?;
        Ok(stats)
    }

    /// Estimated matches of a PCsubpath pattern (delegates to the
    /// shared estimator in `xtwig-opt`, so the planner and the
    /// cost-based strategy selector agree on every cardinality).
    pub fn estimate(&self, q: &crate::family::PcSubpathQuery) -> u64 {
        xtwig_opt::pattern_matches(self, &q.tags, q.anchored, q.value.as_deref())
    }
}

/// `PathStats` is the optimizer's statistics source: its per-path
/// instance table doubles as the DataGuide's path catalog (annotated
/// with counts), and the `(leaf tag, value)` table supplies bound-
/// predicate selectivities.
impl xtwig_opt::CardinalitySource for PathStats {
    fn path_instances(&self, tags: &[TagId]) -> u64 {
        self.path_count(tags)
    }

    fn suffix_instances(&self, tags: &[TagId]) -> u64 {
        self.path_counts.iter().filter(|(path, _)| path.ends_with(tags)).map(|(_, &c)| c).sum()
    }

    fn matching_path_count(&self, tags: &[TagId], anchored: bool) -> u64 {
        if anchored {
            u64::from(self.path_counts.contains_key(tags))
        } else {
            self.path_counts.keys().filter(|path| path.ends_with(tags)).count() as u64
        }
    }

    fn tag_instances(&self, tag: TagId) -> u64 {
        self.tag_count(tag)
    }

    fn value_instances(&self, tag: TagId, value: &str) -> u64 {
        self.tag_value_count(tag, value)
    }

    fn node_count(&self) -> u64 {
        self.nodes
    }

    fn mean_depth(&self) -> f64 {
        let weighted: u64 = self.path_counts.iter().map(|(p, &c)| p.len() as u64 * c).sum();
        if self.nodes == 0 {
            1.0
        } else {
            weighted as f64 / self.nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::PcSubpathQuery;
    use xtwig_xml::tree::fig1_book_document;

    #[test]
    fn root_path_rows_count() {
        let f = fig1_book_document();
        let mut structural = 0u64;
        let mut valued = 0u64;
        for_each_root_path(&f, |_t, _i, v| {
            if v.is_none() {
                structural += 1;
            } else {
                valued += 1;
            }
        });
        assert_eq!(structural, (f.node_count() - 1) as u64); // per node, minus virtual root
        let with_values = f.iter_nodes().filter(|&n| f.value(n).is_some()).count() as u64;
        assert_eq!(valued, with_values);
    }

    #[test]
    fn root_path_rows_match_fig4_shape() {
        let f = fig1_book_document();
        #[allow(clippy::type_complexity)]
        let mut rows: Vec<(Vec<String>, Vec<u64>, Option<String>)> = Vec::new();
        for_each_root_path(&f, |t, i, v| {
            rows.push((
                t.iter().map(|&t| f.dict().name(t).to_owned()).collect(),
                i.to_vec(),
                v.map(str::to_owned),
            ));
        });
        // Fig. 4 row: FAUB jane [1,5,6,7] (forward path book/allauthors/author/fn).
        let jane = rows
            .iter()
            .find(|(t, _, v)| {
                t == &["book", "allauthors", "author", "fn"] && v.as_deref() == Some("jane")
            })
            .expect("jane row");
        assert_eq!(jane.1, vec![1, 5, 6, 7]);
        // Fig. 4 row: B null [1].
        let book = rows.iter().find(|(t, _, v)| t == &["book"] && v.is_none()).unwrap();
        assert_eq!(book.1, vec![1]);
    }

    #[test]
    fn subpath_rows_match_fig5_shape() {
        let f = fig1_book_document();
        #[allow(clippy::type_complexity)]
        let mut rows: Vec<(u64, Vec<String>, Vec<u64>, Option<String>)> = Vec::new();
        for_each_subpath(&f, |h, t, i, v| {
            rows.push((
                h,
                t.iter().map(|&t| f.dict().name(t).to_owned()).collect(),
                i.to_vec(),
                v.map(str::to_owned),
            ));
        });
        // Fig. 5: head=5 (allauthors), path UAF, idlist-from-head [5,6,7].
        let row = rows
            .iter()
            .find(|(h, t, _, v)| {
                *h == 5 && t == &["allauthors", "author", "fn"] && v.as_deref() == Some("jane")
            })
            .expect("UAF jane row under head 5");
        assert_eq!(row.2, vec![5, 6, 7]);
        // Fig. 5: head=1, path "B", single-node path.
        assert!(rows
            .iter()
            .any(|(h, t, i, v)| *h == 1 && t == &["book"] && i == &vec![1] && v.is_none()));
    }

    #[test]
    fn subpath_row_count_is_sum_of_depths() {
        let f = fig1_book_document();
        let mut structural = 0u64;
        for_each_subpath(&f, |_h, _t, _i, v| {
            if v.is_none() {
                structural += 1;
            }
        });
        let expected: u64 = f.iter_nodes().map(|n| f.depth(n) as u64).sum();
        assert_eq!(structural, expected);
    }

    #[test]
    fn stats_counts() {
        let f = fig1_book_document();
        let s = PathStats::build(&f);
        assert_eq!(s.node_count(), (f.node_count() - 1) as u64);
        let dict = f.dict();
        let author = dict.lookup("author").unwrap();
        assert_eq!(s.tag_count(author), 3);
        let fn_tag = dict.lookup("fn").unwrap();
        assert_eq!(s.tag_value_count(fn_tag, "jane"), 2);
        assert_eq!(s.tag_value_count(fn_tag, "john"), 1);
        assert_eq!(s.tag_value_count(fn_tag, "nobody"), 0);
        let path: Vec<TagId> =
            ["book", "allauthors", "author"].iter().map(|t| dict.lookup(t).unwrap()).collect();
        assert_eq!(s.path_count(&path), 3);
        assert!(s.distinct_schema_paths() >= 10);
    }

    #[test]
    fn sharded_stats_equal_sequential() {
        let mut f = XmlForest::new();
        for i in 0..9 {
            let mut b = f.builder();
            b.open("book");
            b.leaf("title", if i % 3 == 0 { "XML" } else { "SQL" });
            b.open("author");
            b.leaf("fn", "jane");
            b.close();
            b.close();
            b.finish();
        }
        let seq = PathStats::build(&f);
        for shards in [2, 3, 4, 9] {
            let plan = crate::parallel::ShardPlan::new(&f, shards);
            let par = PathStats::build_sharded(&f, &plan);
            assert_eq!(par.node_count(), seq.node_count());
            assert_eq!(par.distinct_schema_paths(), seq.distinct_schema_paths());
            for (path, count) in seq.iter_paths() {
                assert_eq!(par.path_count(path), count, "{shards} shards");
            }
            let title = f.dict().lookup("title").unwrap();
            assert_eq!(par.tag_value_count(title, "XML"), seq.tag_value_count(title, "XML"));
        }
    }

    #[test]
    fn estimates_track_selectivity() {
        let f = fig1_book_document();
        let s = PathStats::build(&f);
        let dict = f.dict();
        let q_all_fn = PcSubpathQuery::resolve(dict, &["author", "fn"], false, None).unwrap();
        let q_jane = PcSubpathQuery::resolve(dict, &["author", "fn"], false, Some("jane")).unwrap();
        let q_anchored = PcSubpathQuery::resolve(
            dict,
            &["book", "allauthors", "author", "fn"],
            true,
            Some("jane"),
        )
        .unwrap();
        assert_eq!(s.estimate(&q_all_fn), 3);
        assert_eq!(s.estimate(&q_jane), 2);
        assert_eq!(s.estimate(&q_anchored), 2);
        let q_title_xml =
            PcSubpathQuery::resolve(dict, &["book", "title"], true, Some("XML")).unwrap();
        // Two XML titles exist (book + chapter) but only one /book/title.
        assert_eq!(s.estimate(&q_title_xml), 1);
    }
}
