//! The unified index-family framework (paper §3.1) and the two indexing
//! problems it solves (paper §2.3).
//!
//! Every index over the 4-ary relation `(HeadId, SchemaPath, LeafValue,
//! IdList)` is characterized by three choices (Fig. 3): which subset of
//! schema paths it stores, which sublist of each IdList it returns, and
//! which columns one B+-tree probe can constrain. The structures of this
//! crate sit in that space as follows:
//!
//! | Index | Schema paths | IdList sublist | Probe constrains |
//! |---|---|---|---|
//! | Edge's value index ([`crate::edge`]) | length 1 | last id | SchemaPath, LeafValue |
//! | Edge's link indexes ([`crate::edge`]) | length 1 | last id | HeadId, SchemaPath |
//! | DataGuide ([`crate::dataguide`]) | root-to-leaf prefixes | last id | SchemaPath |
//! | Index Fabric ([`crate::fabric`]) | full root-to-leaf paths | first or last id | SchemaPath, LeafValue |
//! | ASR ([`crate::asr`]) | root-to-leaf prefixes | full | LeafValue (schema as relation names) |
//! | Join Indices ([`crate::joinindex`]) | all subpaths | first or last id | HeadId (schema as relation names) |
//! | ROOTPATHS ([`crate::rootpaths`]) | root-to-leaf prefixes | full | LeafValue, ReverseSchemaPath |
//! | DATAPATHS ([`crate::datapaths`]) | all subpaths | full | HeadId, LeafValue, ReverseSchemaPath |
//!
//! The full IdList is the extension that makes branch-point ids
//! available without joins, and the reversed schema path is what lets
//! one probe answer a `//`-headed pattern (§3.2).
//!
//! The paper's two problems are solved by one streaming scan each:
//! FreeIndex — all matches of a PCsubpath pattern in one index lookup —
//! by `for_each_free` of ROOTPATHS and DATAPATHS, and BoundIndex — the
//! matches rooted at a given node id — by DATAPATHS' `bound_probe` and
//! `for_each_bound`.

use xtwig_xml::{TagDict, TagId};

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

/// True when an equality on `v` cannot be decided by the key prefix alone:
/// `v` is longer than the prefix, or as long as the prefix of a longer
/// stored value, which [`value_key_prefix`] may cut up to 3 bytes short
/// of a char that straddles the limit.
pub fn value_needs_recheck(v: &str) -> bool {
    v.len() + 3 >= VALUE_KEY_PREFIX_BYTES
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

/// What the caller of a streaming free lookup of ROOTPATHS or DATAPATHS
/// answers before an entry's IdList is decoded: the least last node id
/// still worth lending in the entry's run (one value and one schema
/// path). The entries below it are sought past, never decoded (see
/// [`crate::rootpaths`]). It is asked with `true` before the scan would
/// skip through a run it has not skipped through yet: the caller then
/// starts over, answering for that run alone.
pub type Floor<'a> = &'a mut dyn FnMut(bool) -> u64;

/// What every family member reports: its size.
pub trait PathIndex {
    /// Allocated bytes (Fig. 9's space metric).
    fn space_bytes(&self) -> u64;
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
    fn a_literal_as_long_as_a_cut_prefix_is_rechecked() {
        // A longer stored value shares its key with every literal of 93
        // to 96 bytes that equals its cut prefix; 92 bytes is no cut.
        assert!(!value_needs_recheck(&"p".repeat(VALUE_KEY_PREFIX_BYTES - 4)));
        for len in VALUE_KEY_PREFIX_BYTES - 3..=VALUE_KEY_PREFIX_BYTES {
            let literal = "p".repeat(len);
            assert!(value_needs_recheck(&literal), "{len} bytes");
        }
        let stored = format!("{}ONE", "p".repeat(VALUE_KEY_PREFIX_BYTES));
        assert_eq!(value_key_prefix(&stored), "p".repeat(VALUE_KEY_PREFIX_BYTES));
        // A 4-byte char from byte 93 on cuts the key at 93 bytes.
        let stored = format!("{}\u{1F600}tail", "q".repeat(VALUE_KEY_PREFIX_BYTES - 3));
        let literal = value_key_prefix(&stored);
        assert_eq!(literal.len(), VALUE_KEY_PREFIX_BYTES - 3);
        assert!(value_needs_recheck(literal));
    }

    #[test]
    fn resolve_fails_on_unknown_tags() {
        let mut dict = TagDict::new();
        dict.intern("book");
        dict.intern("title");
        assert!(PcSubpathQuery::resolve(&dict, &["book", "title"], true, Some("XML")).is_some());
        assert!(PcSubpathQuery::resolve(&dict, &["book", "nosuch"], true, None).is_none());
    }
}
