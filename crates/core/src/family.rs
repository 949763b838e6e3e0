//! The unified index-family framework (paper §3.1) and the two indexing
//! problems it solves (paper §2.3).
//!
//! Every index over the 4-ary relation `(HeadId, SchemaPath, LeafValue,
//! IdList)` is characterized by three choices (Fig. 3):
//!
//! 1. which subset of schema paths it stores,
//! 2. which sublist of each IdList it returns,
//! 3. which columns it indexes (i.e., what a single B+-tree probe can
//!    constrain).
//!
//! The [`FreeIndex`] and [`BoundIndex`] traits are the paper's two
//! problems: return all matches of a PCsubpath pattern in one index
//! lookup, optionally rooted at a given node id.

use xtwig_xml::{TagDict, TagId};

/// Which subset of the 4-ary relation's schema paths an index stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaPathSubset {
    /// Paths of length 1 only (Lore value/link indexes).
    Length1,
    /// All prefixes of root-to-leaf paths (DataGuide, ROOTPATHS).
    RootToLeafPrefixes,
    /// Full root-to-leaf paths only (Index Fabric).
    RootToLeaf,
    /// Every subpath of every root-to-leaf path (DATAPATHS).
    AllSubpaths,
}

/// Which sublist of each IdList an index returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdListSublist {
    /// Only the last id (value index, link index, DataGuide).
    LastOnly,
    /// First or last id (Index Fabric).
    FirstOrLast,
    /// The complete IdList (ROOTPATHS, DATAPATHS) — the extension that
    /// makes branch-point ids available without joins.
    Full,
}

/// A column an index key can constrain in one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexedColumn {
    /// The id the data path starts at.
    HeadId,
    /// The forward schema path.
    SchemaPath,
    /// The reversed schema path (enables `//`-prefix probes, §3.2).
    ReverseSchemaPath,
    /// The leaf value.
    LeafValue,
}

/// An index's coordinates in the family (paper Fig. 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyPosition {
    /// Stored schema paths.
    pub schema_paths: SchemaPathSubset,
    /// Returned IdList sublist.
    pub idlist: IdListSublist,
    /// Columns constrained by one probe, in key order.
    pub indexed: Vec<IndexedColumn>,
}

/// Longest leaf-value prefix stored inside index keys. Longer values are
/// prefix-indexed and re-checked against the forest by the executor
/// (commercial systems bound key size the same way; DB2 limits index keys
/// to ~1 KB).
pub const VALUE_KEY_PREFIX_BYTES: usize = 96;

/// Truncates `v` to the indexed prefix at a char boundary.
pub fn value_key_prefix(v: &str) -> &str {
    if v.len() <= VALUE_KEY_PREFIX_BYTES {
        return v;
    }
    let mut end = VALUE_KEY_PREFIX_BYTES;
    while !v.is_char_boundary(end) {
        end -= 1;
    }
    &v[..end]
}

/// True when an equality on `v` cannot be decided by the key prefix alone.
pub fn value_needs_recheck(v: &str) -> bool {
    v.len() > VALUE_KEY_PREFIX_BYTES
}

/// A PCsubpath pattern (paper §2.2): a chain of parent-child steps, a
/// permitted leading `//`, and an optional equality predicate on the leaf
/// value of the final step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PcSubpathQuery {
    /// Step tags, root-most first.
    pub tags: Vec<TagId>,
    /// True when the first step is anchored at a document root (`/a/…`);
    /// false for a leading `//`.
    pub anchored: bool,
    /// Equality predicate on the final step's leaf value.
    pub value: Option<String>,
}

impl PcSubpathQuery {
    /// Resolves textual step names against `dict`. Returns `None` when a
    /// tag does not occur in the data (the pattern then has no matches).
    pub fn resolve(
        dict: &TagDict,
        steps: &[&str],
        anchored: bool,
        value: Option<&str>,
    ) -> Option<Self> {
        let tags = steps.iter().map(|s| dict.lookup(s)).collect::<Option<Vec<_>>>()?;
        Some(PcSubpathQuery { tags, anchored, value: value.map(str::to_owned) })
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True for a pattern with no steps (not produced by constructors).
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }
}

/// One data path returned by an index lookup, in owned form.
///
/// This is what the collecting lookups of ROOTPATHS and DATAPATHS
/// ([`FreeIndex::lookup_free`], [`BoundIndex::lookup_bound`]) return to
/// tests, examples and benches. The executor never consumes it: every
/// structure lends each match as `&[u64]` from one reused buffer
/// (`for_each_free` / `for_each_bound`, which the collectors wrap, and
/// the baselines' `for_each_match`) and never decodes `tags`.
///
/// `tags[i]` / `ids[i]` are aligned; for a [`FreeIndex`] lookup they span
/// the document root down to the matched leaf step, for a [`BoundIndex`]
/// lookup they span the *head node* (`tags[0]`, `ids[0]`) down to the
/// matched step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathMatch {
    /// Head the lookup was rooted at (0 = virtual root / free lookup).
    pub head: u64,
    /// Schema path of the returned data path.
    pub tags: Vec<TagId>,
    /// The IdList (aligned with `tags`).
    pub ids: Vec<u64>,
}

impl PathMatch {
    /// Id bound to the final step of the query.
    pub fn last_id(&self) -> u64 {
        *self.ids.last().expect("empty PathMatch")
    }

    /// Id bound to the `k`-th step from the end (0 = final step). This is
    /// how branch-point ids are extracted from IdLists (paper §3.2).
    pub fn id_from_end(&self, k: usize) -> u64 {
        self.ids[self.ids.len() - 1 - k]
    }

    /// Path length in steps.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True for an empty match (never produced by lookups).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// What the caller of a streaming free lookup of ROOTPATHS or DATAPATHS
/// answers before an entry's IdList is decoded: the least last node id
/// still worth lending in the entry's run (one value and one schema
/// path). The entries below it are sought past, never decoded (see
/// [`crate::rootpaths`]). It is asked with `true` before the scan would
/// skip through a run it has not skipped through yet: the caller then
/// starts over, answering for that run alone.
pub type Floor<'a> = &'a mut dyn FnMut(bool) -> u64;

/// Metadata shared by every family member.
pub trait PathIndex {
    /// Display name (matches the paper's abbreviations: RP, DP, …).
    fn name(&self) -> &'static str;

    /// Position in the unified framework (Fig. 3).
    fn family_position(&self) -> FamilyPosition;

    /// Allocated bytes (Fig. 9's space metric).
    fn space_bytes(&self) -> u64;
}

/// Problem FreeIndex (paper §2.3): all n-tuples of node ids matching a
/// PCsubpath pattern, in a single index lookup.
pub trait FreeIndex: PathIndex {
    /// Looks up all matches of `q`.
    fn lookup_free(&self, q: &PcSubpathQuery) -> Vec<PathMatch>;
}

/// Problem BoundIndex (paper §2.3): all matches of a PCsubpath pattern
/// rooted at a given node id, in a single index lookup. Enables the
/// index-nested-loop join strategy.
pub trait BoundIndex: FreeIndex {
    /// Looks up matches of `q` among paths descending from `head`
    /// (`head_tag` = its tag). `q.anchored == false` means the first step
    /// may be any *proper* descendant of `head`; `q.anchored == true`
    /// requires it to be a child of `head`.
    fn lookup_bound(&self, head: u64, head_tag: TagId, q: &PcSubpathQuery) -> Vec<PathMatch>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_prefix_truncation_respects_char_boundaries() {
        let short = "united states";
        assert_eq!(value_key_prefix(short), short);
        assert!(!value_needs_recheck(short));
        let long: String = "é".repeat(100); // 2 bytes each
        let p = value_key_prefix(&long);
        assert!(p.len() <= VALUE_KEY_PREFIX_BYTES);
        assert!(p.len() >= VALUE_KEY_PREFIX_BYTES - 3);
        assert!(long.starts_with(p));
        assert!(value_needs_recheck(&long));
    }

    #[test]
    fn resolve_fails_on_unknown_tags() {
        let mut dict = TagDict::new();
        dict.intern("book");
        dict.intern("title");
        assert!(PcSubpathQuery::resolve(&dict, &["book", "title"], true, Some("XML")).is_some());
        assert!(PcSubpathQuery::resolve(&dict, &["book", "nosuch"], true, None).is_none());
    }

    #[test]
    fn path_match_position_helpers() {
        let m = PathMatch { head: 0, tags: vec![TagId(1), TagId(2), TagId(3)], ids: vec![1, 5, 6] };
        assert_eq!(m.last_id(), 6);
        assert_eq!(m.id_from_end(0), 6);
        assert_eq!(m.id_from_end(1), 5);
        assert_eq!(m.id_from_end(2), 1);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn family_positions_of_existing_indices_match_fig3() {
        // The Fig. 3 rows, expressed as data. Each index implementation's
        // family_position() is asserted against these in its own module;
        // here we pin the reference values themselves.
        let value_index = FamilyPosition {
            schema_paths: SchemaPathSubset::Length1,
            idlist: IdListSublist::LastOnly,
            indexed: vec![IndexedColumn::SchemaPath, IndexedColumn::LeafValue],
        };
        let rootpaths = FamilyPosition {
            schema_paths: SchemaPathSubset::RootToLeafPrefixes,
            idlist: IdListSublist::Full,
            indexed: vec![IndexedColumn::LeafValue, IndexedColumn::ReverseSchemaPath],
        };
        let datapaths = FamilyPosition {
            schema_paths: SchemaPathSubset::AllSubpaths,
            idlist: IdListSublist::Full,
            indexed: vec![
                IndexedColumn::HeadId,
                IndexedColumn::LeafValue,
                IndexedColumn::ReverseSchemaPath,
            ],
        };
        assert_ne!(value_index, rootpaths);
        assert_ne!(rootpaths, datapaths);
        assert_eq!(datapaths.indexed[0], IndexedColumn::HeadId);
    }
}
