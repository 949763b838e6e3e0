//! Space optimizations (paper §4).
//!
//! Three techniques, measured in §5.2.5:
//!
//! * **Differential IdList encoding** (lossless, §4.1) — implemented in
//!   `xtwig_rel::codec` and selected through
//!   [`RootPathsOptions::idlist`](crate::rootpaths::RootPathsOptions)/
//!   [`DataPathsOptions::idlist`](crate::datapaths::DataPathsOptions).
//!   [`measure_idlist_bytes`] quantifies the saving without building
//!   trees.
//! * **SchemaPath dictionary compression** (lossy, §4.2) —
//!   [`DictDataPaths`] replaces the reversed designator path in the key
//!   with an indivisible path id. Keys shrink, but "one can no longer
//!   match a PCsubpath pattern that begins with a `//`": only exact
//!   (anchored) probes remain possible.
//! * **HeadId pruning** (lossy, §4.3) — implemented by
//!   [`DataPaths::build_filtered`](crate::datapaths::DataPaths::build_filtered);
//!   [`workload_head_filter`] derives the retained head tags from a
//!   query workload.

use crate::family::{value_key_prefix, PathMatch};
use crate::paths::{for_each_root_path, for_each_subpath};
use crate::rootpaths::push_value_part;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xtwig_btree::{bulk_build, BTree, BTreeOptions};
use xtwig_rel::codec::{self, IdListCodec, KeyBuf};
use xtwig_storage::BufferPool;
use xtwig_xml::{TagId, TwigPattern, XmlForest};

/// Total encoded IdList bytes for both indexes under both codecs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdListBytes {
    /// ROOTPATHS rows, delta codec.
    pub rootpaths_delta: u64,
    /// ROOTPATHS rows, plain 8-byte ids.
    pub rootpaths_plain: u64,
    /// DATAPATHS rows, delta codec.
    pub datapaths_delta: u64,
    /// DATAPATHS rows, plain 8-byte ids.
    pub datapaths_plain: u64,
}

impl IdListBytes {
    /// Fractional saving of delta over plain for DATAPATHS (the paper
    /// reports "about 30%" across its lossless schemes).
    pub fn datapaths_saving(&self) -> f64 {
        if self.datapaths_plain == 0 {
            0.0
        } else {
            1.0 - self.datapaths_delta as f64 / self.datapaths_plain as f64
        }
    }
}

/// Measures encoded IdList bytes without building any tree.
pub fn measure_idlist_bytes(forest: &XmlForest) -> IdListBytes {
    let mut out = IdListBytes::default();
    for_each_root_path(forest, |_tags, ids, _value| {
        out.rootpaths_delta += codec::encode_idlist(IdListCodec::Delta, ids).len() as u64;
        out.rootpaths_plain += codec::encode_idlist(IdListCodec::Plain, ids).len() as u64;
    });
    for_each_subpath(forest, |_head, _tags, ids, _value| {
        out.datapaths_delta += codec::encode_idlist(IdListCodec::Delta, &ids[1..]).len() as u64;
        out.datapaths_plain += codec::encode_idlist(IdListCodec::Plain, &ids[1..]).len() as u64;
    });
    out
}

/// Derives the §4.3 head filter from a workload: the set of tags that
/// appear as branch points (or segment roots under a `//` edge) in any
/// workload query. DATAPATHS rows headed at other tags can be pruned
/// without affecting the workload's INLJ plans.
pub fn workload_head_filter(workload: &[TwigPattern]) -> HashSet<String> {
    let mut tags = HashSet::new();
    for twig in workload {
        for &bp in &twig.branch_points() {
            tags.insert(twig.nodes[bp].tag.clone());
        }
        // Upper endpoints of // edges also serve as probe heads.
        for node in &twig.nodes {
            for &(axis, child) in &node.children {
                if axis == xtwig_xml::Axis::Descendant {
                    tags.insert(node.tag.clone());
                    let _ = child;
                }
            }
        }
    }
    tags
}

/// DATAPATHS with dictionary-compressed schema paths (paper §4.2,
/// Fig. 6): the key stores an indivisible `SchemaPathId` instead of the
/// reversed designator sequence.
pub struct DictDataPaths {
    tree: BTree,
    /// `(path tags from head) -> path id`.
    path_dict: HashMap<Vec<TagId>, u32>,
    idlist: IdListCodec,
}

impl DictDataPaths {
    /// Builds the dictionary-compressed variant.
    pub fn build(forest: &XmlForest, pool: Arc<BufferPool>) -> Self {
        let idlist = IdListCodec::Delta;
        let mut path_dict: HashMap<Vec<TagId>, u32> = HashMap::new();
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let intern = |tags: &[TagId], dict: &mut HashMap<Vec<TagId>, u32>| -> u32 {
            if let Some(&id) = dict.get(tags) {
                id
            } else {
                let id = dict.len() as u32;
                dict.insert(tags.to_vec(), id);
                id
            }
        };
        for_each_root_path(forest, |tags, ids, value| {
            let pid = intern(tags, &mut path_dict);
            entries.push(Self::encode_row(idlist, 0, pid, ids, ids, value));
        });
        for_each_subpath(forest, |head, tags, ids, value| {
            let pid = intern(tags, &mut path_dict);
            entries.push(Self::encode_row(idlist, head, pid, ids, &ids[1..], value));
        });
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let tree = bulk_build(pool, BTreeOptions::default(), entries);
        DictDataPaths { tree, path_dict, idlist }
    }

    fn encode_row(
        idlist: IdListCodec,
        head: u64,
        pid: u32,
        ids: &[u64],
        stored: &[u64],
        value: Option<&str>,
    ) -> (Vec<u8>, Vec<u8>) {
        let mut key = KeyBuf::new();
        key.push_u64(head);
        push_value_part(&mut key, value);
        // Fixed-width raw path id: the component position is fixed in
        // this layout, so no type byte or terminator is needed — this is
        // where the §4.2 space saving comes from.
        key.push_raw(&pid.to_be_bytes());
        key.push_u64(*ids.last().unwrap());
        (key.finish(), codec::encode_idlist(idlist, stored))
    }

    /// Number of distinct schema paths in the dictionary (the paper cites
    /// 235 for DBLP, 902 for XMark as root paths; this dictionary also
    /// holds interior subpaths).
    pub fn dict_len(&self) -> usize {
        self.path_dict.len()
    }

    /// Exact-path FreeIndex lookup (anchored only: the path id is
    /// indivisible, so `//` patterns are unanswerable — §4.2's loss).
    pub fn lookup_exact_free(&self, tags: &[TagId], value: Option<&str>) -> Vec<PathMatch> {
        self.lookup(0, tags, value)
    }

    /// Exact-path BoundIndex lookup: `tags` is the full path from the
    /// head (inclusive).
    pub fn lookup_exact_bound(
        &self,
        head: u64,
        tags: &[TagId],
        value: Option<&str>,
    ) -> Vec<PathMatch> {
        self.lookup(head, tags, value)
    }

    fn lookup(&self, head: u64, tags: &[TagId], value: Option<&str>) -> Vec<PathMatch> {
        let Some(&pid) = self.path_dict.get(tags) else { return Vec::new() };
        let mut key = KeyBuf::new();
        key.push_u64(head);
        match value {
            None => {
                key.push_null();
            }
            Some(v) => {
                key.push_str(value_key_prefix(v));
            }
        }
        key.push_raw(&pid.to_be_bytes());
        self.tree
            .scan_prefix(key.as_bytes())
            .map(|(_k, payload)| {
                let stored = codec::decode_idlist(self.idlist, &payload);
                let ids = if head == 0 {
                    stored
                } else {
                    let mut ids = Vec::with_capacity(stored.len() + 1);
                    ids.push(head);
                    ids.extend_from_slice(&stored);
                    ids
                };
                PathMatch { head, tags: tags.to_vec(), ids }
            })
            .collect()
    }

    /// Allocated bytes.
    pub fn space_bytes(&self) -> u64 {
        self.tree.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapaths::{DataPaths, DataPathsOptions};
    use crate::family::PathIndex;
    use crate::xpath::parse_xpath;
    use xtwig_xml::tree::fig1_book_document;

    #[test]
    fn delta_saves_bytes_on_deep_documents() {
        let f = fig1_book_document();
        let b = measure_idlist_bytes(&f);
        assert!(b.rootpaths_delta < b.rootpaths_plain);
        assert!(b.datapaths_delta < b.datapaths_plain);
        assert!(b.datapaths_saving() > 0.2, "saving {}", b.datapaths_saving());
    }

    #[test]
    fn dict_variant_answers_exact_paths() {
        let f = fig1_book_document();
        let dd = DictDataPaths::build(&f, Arc::new(BufferPool::in_memory(8192)));
        let tags: Vec<TagId> = ["book", "allauthors", "author", "fn"]
            .iter()
            .map(|t| f.dict().lookup(t).unwrap())
            .collect();
        let ms = dd.lookup_exact_free(&tags, Some("jane"));
        let mut lists: Vec<Vec<u64>> = ms.iter().map(|m| m.ids.clone()).collect();
        lists.sort();
        assert_eq!(lists, vec![vec![1, 5, 6, 7], vec![1, 5, 41, 42]]);
        // Bound probe: author/ln under allauthors head 5.
        let bound_tags: Vec<TagId> =
            ["allauthors", "author", "ln"].iter().map(|t| f.dict().lookup(t).unwrap()).collect();
        let ms = dd.lookup_exact_bound(5, &bound_tags, Some("doe"));
        let mut lists: Vec<Vec<u64>> = ms.iter().map(|m| m.ids.clone()).collect();
        lists.sort();
        assert_eq!(lists, vec![vec![5, 21, 25], vec![5, 41, 45]]);
    }

    #[test]
    fn dict_variant_cannot_do_recursion() {
        // §4.2: a suffix pattern has no path id — the lookup API only
        // accepts exact paths, and an unknown path returns nothing.
        let f = fig1_book_document();
        let dd = DictDataPaths::build(&f, Arc::new(BufferPool::in_memory(8192)));
        let suffix: Vec<TagId> =
            ["author", "fn"].iter().map(|t| f.dict().lookup(t).unwrap()).collect();
        assert!(dd.lookup_exact_free(&suffix, Some("jane")).is_empty());
    }

    #[test]
    fn dict_variant_is_smaller_than_reverse_paths() {
        let f = fig1_book_document();
        let dd = DictDataPaths::build(&f, Arc::new(BufferPool::in_memory(8192)));
        let dp = DataPaths::build(
            &f,
            Arc::new(BufferPool::in_memory(8192)),
            DataPathsOptions::default(),
        );
        assert!(dd.space_bytes() <= dp.space_bytes());
        assert!(dd.dict_len() > 0);
    }

    #[test]
    fn workload_filter_collects_branch_tags() {
        let w = vec![
            parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap(),
            parse_xpath("/site/open_auctions/open_auction[bidder]/seller").unwrap(),
        ];
        let tags = workload_head_filter(&w);
        assert!(tags.contains("book")); // branch + // upper endpoint
        assert!(tags.contains("author")); // branch point
        assert!(tags.contains("open_auction")); // branch point
        assert!(!tags.contains("seller"));
    }
}
