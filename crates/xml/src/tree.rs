//! Arena-based XML forest with pre-order node identifiers.
//!
//! The forest mirrors the paper's data model (§2.1): rooted, ordered,
//! labeled trees whose non-leaf nodes are elements and attributes. Leaf
//! string values are stored as an optional interned value on their owning
//! element/attribute node — exactly the information content of the paper's
//! value leaves, without materializing a separate node (value leaves carry
//! no ids in the paper: see Fig. 2, where `BUAF jane` and `BUAF null` share
//! the IdList `[5,6,7]`).
//!
//! Node ids are assigned in document order (pre-order, "depth-first
//! numbering", paper §4.1), so ids strictly increase along any downward
//! path — the property that makes differential IdList encoding effective.
//! Id 0 is a virtual root that parents every document (paper footnote 4),
//! letting DATAPATHS answer FreeIndex probes.

pub use crate::dictionary::SymbolId;
use crate::dictionary::{TagDict, TagId, ValueInterner};

/// Identifier of an element or attribute node: its pre-order rank in the
/// forest (0 = virtual root, documents numbered in insertion order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The virtual root that parents all document roots.
    pub const VIRTUAL_ROOT: NodeId = NodeId(0);

    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Whether a node is an element or an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An element node (`<tag>`).
    Element,
    /// An attribute node; its tag name carries a leading `'@'`.
    Attribute,
}

#[derive(Debug, Clone)]
struct NodeData {
    tag: TagId,
    kind: NodeKind,
    parent: u32,
    /// Pre-order index of the last node in this node's subtree (inclusive).
    subtree_end: u32,
    value: Option<SymbolId>,
    children: Vec<u32>,
    depth: u16,
}

/// A forest of XML documents sharing one tag dictionary and value interner.
#[derive(Debug)]
pub struct XmlForest {
    dict: TagDict,
    values: ValueInterner,
    nodes: Vec<NodeData>,
    roots: Vec<NodeId>,
}

/// A contiguous pre-order span of nodes, produced by
/// [`XmlForest::partition_nodes`]. A range may start anywhere — mid
/// document, mid subtree — because pre-order enumeration over it can be
/// resumed by seeding the ancestor stack with the first node's root
/// path (`xtwig-core`'s `for_each_root_path_in` does exactly that).
/// Splitting at arbitrary boundaries is what keeps shards balanced even
/// for the paper's single-document datasets (XMark and DBLP are each
/// one big document, so a whole-document partitioner could never split
/// them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRange {
    /// First node id of the range.
    pub first: NodeId,
    /// Last node id of the range, inclusive.
    pub last: NodeId,
}

impl NodeRange {
    /// Nodes covered by the range.
    pub fn len(&self) -> u64 {
        self.last.0 - self.first.0 + 1
    }

    /// Never true: ranges always cover at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Default for XmlForest {
    fn default() -> Self {
        Self::new()
    }
}

impl XmlForest {
    /// Creates an empty forest containing only the virtual root.
    pub fn new() -> Self {
        let dict = TagDict::new();
        let nodes = vec![NodeData {
            tag: TagId::VIRTUAL_ROOT,
            kind: NodeKind::Element,
            parent: 0,
            subtree_end: 0,
            value: None,
            children: Vec::new(),
            depth: 0,
        }];
        XmlForest { dict, values: ValueInterner::new(), nodes, roots: Vec::new() }
    }

    /// Begins building a new document in this forest.
    pub fn builder(&mut self) -> TreeBuilder<'_> {
        TreeBuilder { forest: self, stack: Vec::new() }
    }

    /// The tag dictionary.
    pub fn dict(&self) -> &TagDict {
        &self.dict
    }

    /// Mutable access to the tag dictionary (used by query compilers that
    /// must intern tags appearing only in queries).
    pub fn dict_mut(&mut self) -> &mut TagDict {
        &mut self.dict
    }

    /// The leaf-value interner.
    pub fn values(&self) -> &ValueInterner {
        &self.values
    }

    /// Document roots, in insertion order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Total node count, including the virtual root.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// True if `id` addresses a node in this forest.
    pub fn contains(&self, id: NodeId) -> bool {
        id.idx() < self.nodes.len()
    }

    /// Tag of `id`.
    pub fn tag(&self, id: NodeId) -> TagId {
        self.nodes[id.idx()].tag
    }

    /// Tag name of `id` (attributes include the leading `'@'`).
    pub fn tag_name(&self, id: NodeId) -> &str {
        self.dict.name(self.tag(id))
    }

    /// Element/attribute kind of `id`.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.idx()].kind
    }

    /// Parent of `id`; `None` for the virtual root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        if id == NodeId::VIRTUAL_ROOT {
            None
        } else {
            Some(NodeId(u64::from(self.nodes[id.idx()].parent)))
        }
    }

    /// Children of `id` in document order (attributes first, as built).
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[id.idx()].children.iter().map(|&c| NodeId(u64::from(c)))
    }

    /// Number of children of `id`.
    pub fn child_count(&self, id: NodeId) -> usize {
        self.nodes[id.idx()].children.len()
    }

    /// Interned leaf value of `id`, if any.
    pub fn value(&self, id: NodeId) -> Option<SymbolId> {
        self.nodes[id.idx()].value
    }

    /// Leaf value of `id` as a string, if any.
    pub fn value_str(&self, id: NodeId) -> Option<&str> {
        self.value(id).map(|s| self.values.value(s))
    }

    /// Depth of `id`: the virtual root has depth 0, document roots depth 1.
    pub fn depth(&self, id: NodeId) -> usize {
        usize::from(self.nodes[id.idx()].depth)
    }

    /// True iff `anc` is a proper ancestor of `desc` (O(1) via pre-order
    /// intervals).
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        anc.0 < desc.0 && desc.0 <= u64::from(self.nodes[anc.idx()].subtree_end)
    }

    /// Last pre-order id inside `id`'s subtree (inclusive).
    pub fn subtree_end(&self, id: NodeId) -> NodeId {
        NodeId(u64::from(self.nodes[id.idx()].subtree_end))
    }

    /// The document root that `id` belongs to (itself if it is one);
    /// `None` for the virtual root.
    pub fn document_root_of(&self, id: NodeId) -> Option<NodeId> {
        if id == NodeId::VIRTUAL_ROOT {
            return None;
        }
        let mut cur = id;
        loop {
            let parent = self.parent(cur)?;
            if parent == NodeId::VIRTUAL_ROOT {
                return Some(cur);
            }
            cur = parent;
        }
    }

    /// Ids along the path from the document root down to `id`, inclusive.
    pub fn root_path_ids(&self, id: NodeId) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(self.depth(id));
        let mut cur = Some(id);
        while let Some(n) = cur {
            if n == NodeId::VIRTUAL_ROOT {
                break;
            }
            ids.push(n);
            cur = self.parent(n);
        }
        ids.reverse();
        ids
    }

    /// Tags along the path from the document root down to `id`, inclusive.
    pub fn root_path_tags(&self, id: NodeId) -> Vec<TagId> {
        self.root_path_ids(id).into_iter().map(|n| self.tag(n)).collect()
    }

    /// Pre-order iterator over all element/attribute nodes (excluding the
    /// virtual root).
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.nodes.len() as u64).map(NodeId)
    }

    /// The range covering every document, or `None` for an empty forest.
    pub fn full_range(&self) -> Option<NodeRange> {
        if self.nodes.len() <= 1 {
            None
        } else {
            Some(NodeRange { first: NodeId(1), last: NodeId(self.nodes.len() as u64 - 1) })
        }
    }

    /// Pre-order iterator over one [`NodeRange`].
    pub fn iter_range(&self, range: NodeRange) -> impl Iterator<Item = NodeId> + '_ {
        debug_assert!(range.last.idx() < self.nodes.len());
        (range.first.0..=range.last.0).map(NodeId)
    }

    /// Partitions the forest into at most `max_shards` contiguous
    /// pre-order ranges of (near-)equal node count. Boundaries fall
    /// anywhere — shard enumeration reseeds its ancestor stack from the
    /// boundary node's root path — so even a forest holding one huge
    /// document splits evenly. Returns an empty vector for an empty
    /// forest; otherwise the ranges concatenate to
    /// [`XmlForest::full_range`].
    pub fn partition_nodes(&self, max_shards: usize) -> Vec<NodeRange> {
        let Some(full) = self.full_range() else {
            return Vec::new();
        };
        let total = full.last.0 - full.first.0 + 1;
        let shards = (max_shards.max(1) as u64).min(total);
        let mut out = Vec::with_capacity(shards as usize);
        let mut start = full.first.0;
        for s in 1..=shards {
            let end = full.first.0 + (total * s) / shards - 1;
            out.push(NodeRange { first: NodeId(start), last: NodeId(end) });
            start = end + 1;
        }
        debug_assert_eq!(out.first().map(|r| r.first), Some(full.first));
        debug_assert_eq!(out.last().map(|r| r.last), Some(full.last));
        out
    }

    /// Pre-order iterator over `root`'s subtree, including `root` itself.
    pub fn iter_subtree(&self, root: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let end = self.nodes[root.idx()].subtree_end;
        (root.0..=u64::from(end)).map(NodeId)
    }

    /// Maximum depth over all nodes (virtual root = 0).
    pub fn max_depth(&self) -> usize {
        self.nodes.iter().map(|n| usize::from(n.depth)).max().unwrap_or(0)
    }

    /// Approximate serialized size of the forest in bytes, used by the
    /// benchmark harness to report index-space/data-size ratios the way
    /// Fig. 9 does.
    pub fn approx_text_bytes(&self) -> u64 {
        let mut total = 0u64;
        for id in self.iter_nodes() {
            let name_len = self.tag_name(id).len() as u64;
            total += match self.kind(id) {
                // <tag> ... </tag>
                NodeKind::Element => 2 * name_len + 5,
                // name="value"
                NodeKind::Attribute => name_len + 3,
            };
            if let Some(v) = self.value_str(id) {
                total += v.len() as u64;
            }
        }
        total
    }

    fn push_node(
        &mut self,
        tag: TagId,
        kind: NodeKind,
        parent: NodeId,
        value: Option<SymbolId>,
    ) -> NodeId {
        let idx = u32::try_from(self.nodes.len()).expect("forest node-count overflow");
        let depth = self.nodes[parent.idx()].depth + 1;
        self.nodes.push(NodeData {
            tag,
            kind,
            parent: u32::try_from(parent.0).expect("parent id overflow"),
            subtree_end: idx,
            value,
            children: Vec::new(),
            depth,
        });
        self.nodes[parent.idx()].children.push(idx);
        NodeId(u64::from(idx))
    }

    fn seal_subtree(&mut self, id: NodeId) {
        let end = u32::try_from(self.nodes.len() - 1).expect("forest node-count overflow");
        self.nodes[id.idx()].subtree_end = end;
        // The virtual root's subtree always spans the whole forest.
        self.nodes[0].subtree_end = end;
    }
}

/// Streaming builder appending one document (in document order) to a forest.
///
/// The builder enforces pre-order construction, which is what guarantees
/// that node ids are document-order ranks.
pub struct TreeBuilder<'f> {
    forest: &'f mut XmlForest,
    stack: Vec<NodeId>,
}

impl<'f> TreeBuilder<'f> {
    /// Opens an element. The first `open` of a builder creates a document
    /// root (a child of the virtual root).
    pub fn open(&mut self, tag: &str) -> NodeId {
        let tag = self.forest.dict.intern(tag);
        let parent = self.stack.last().copied().unwrap_or(NodeId::VIRTUAL_ROOT);
        let id = self.forest.push_node(tag, NodeKind::Element, parent, None);
        if parent == NodeId::VIRTUAL_ROOT {
            self.forest.roots.push(id);
        }
        self.stack.push(id);
        id
    }

    /// Adds an attribute node (name is stored as `@name`) with a value.
    ///
    /// # Panics
    /// Panics if no element is open, or if the open element already has
    /// element children (attributes belong to the open tag, and node ids
    /// are pre-order ranks — an attribute after a child element would
    /// break document order).
    pub fn attr(&mut self, name: &str, value: &str) -> NodeId {
        let owner = *self.stack.last().expect("attr() with no open element");
        assert!(
            self.forest.children(owner).all(|c| self.forest.kind(c) == NodeKind::Attribute),
            "attr() must precede child elements"
        );
        let tag = if let Some(rest) = name.strip_prefix('@') {
            self.forest.dict.intern(&format!("@{rest}"))
        } else {
            self.forest.dict.intern(&format!("@{name}"))
        };
        let sym = self.forest.values.intern(value);
        self.forest.push_node(tag, NodeKind::Attribute, owner, Some(sym))
    }

    /// Sets (or appends to) the text value of the currently open element.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn text(&mut self, value: &str) {
        let owner = *self.stack.last().expect("text() with no open element");
        let combined = match self.forest.value_str(owner) {
            Some(existing) => {
                let mut s = String::with_capacity(existing.len() + value.len());
                s.push_str(existing);
                s.push_str(value);
                s
            }
            None => value.to_owned(),
        };
        let sym = self.forest.values.intern(&combined);
        self.forest.nodes[owner.idx()].value = Some(sym);
    }

    /// Convenience: `open`, `text`, `close` in one call.
    pub fn leaf(&mut self, tag: &str, value: &str) -> NodeId {
        let id = self.open(tag);
        self.text(value);
        self.close();
        id
    }

    /// Closes the innermost open element.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn close(&mut self) {
        let id = self.stack.pop().expect("close() with no open element");
        self.forest.seal_subtree(id);
    }

    /// Number of currently open elements.
    pub fn open_depth(&self) -> usize {
        self.stack.len()
    }

    /// Finishes the document.
    ///
    /// # Panics
    /// Panics if elements remain open.
    pub fn finish(self) {
        assert!(
            self.stack.is_empty(),
            "TreeBuilder::finish() with {} unclosed element(s)",
            self.stack.len()
        );
    }
}

/// Builds the paper's Figure 1 book document, used across the repo's tests,
/// examples, and documentation.
///
/// The node ids assigned here line up with the ids printed beside the nodes
/// in Figure 1(b): book=1, title=2, allauthors=5, first author=6, …
pub fn fig1_book_document() -> XmlForest {
    let mut forest = XmlForest::new();
    let mut b = forest.builder();
    b.open("book"); // 1
    b.leaf("title", "XML"); // 2

    // Nodes 3 and 4 are unnamed in the figure; the figure's id gaps (2 -> 5)
    // indicate siblings elided by the "..." in the source listing. We add
    // two filler nodes so the famous ids (5, 6, 7, 10, 21, 25, 41, 42, 45)
    // line up with the figure.
    b.leaf("isbn", "1-55860-622-X"); // 3
    b.leaf("publisher", "Morgan Kaufmann"); // 4
    b.open("allauthors"); // 5
    {
        b.open("author"); // 6
        b.leaf("fn", "jane"); // 7
        b.leaf("mi", "q"); // 8
        b.leaf("nickname", "janey"); // 9
        b.leaf("ln", "poe"); // 10
        b.close();
        // Filler to align the second author block at id 21.
        b.open("contact"); // 11
        for i in 0..9 {
            b.leaf("detail", &format!("d{i}")); // 12..=20
        }
        b.close();
        b.open("author"); // 21
        b.leaf("fn", "john"); // 22
        b.leaf("mi", "r"); // 23
        b.leaf("nickname", "johnny"); // 24
        b.leaf("ln", "doe"); // 25
        b.close();
        b.open("contact"); // 26
        for i in 0..14 {
            b.leaf("detail", &format!("e{i}")); // 27..=40
        }
        b.close();
        b.open("author"); // 41
        b.leaf("fn", "jane"); // 42
        b.leaf("mi", "s"); // 43
        b.leaf("nickname", "jd"); // 44
        b.leaf("ln", "doe"); // 45
        b.close();
    }
    b.close(); // allauthors
    b.open("year"); // 46
    b.text("2000");
    b.close();
    b.open("chapter"); // 47
    b.leaf("title", "XML"); // 48
    b.open("section"); // 49
    b.leaf("head", "Origins"); // 50
    b.leaf("p", "In the beginning"); // 51
    b.close(); // section
    b.close(); // chapter
    b.close(); // book
    b.finish();
    forest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> XmlForest {
        let mut f = XmlForest::new();
        let mut b = f.builder();
        b.open("book"); // 1
        b.leaf("title", "XML"); // 2
        b.open("allauthors"); // 3
        b.open("author"); // 4
        b.leaf("fn", "jane"); // 5
        b.leaf("ln", "doe"); // 6
        b.close();
        b.close();
        b.close();
        b.finish();
        f
    }

    #[test]
    fn preorder_ids_are_assigned_in_document_order() {
        let f = tiny();
        assert_eq!(f.roots(), &[NodeId(1)]);
        assert_eq!(f.tag_name(NodeId(1)), "book");
        assert_eq!(f.tag_name(NodeId(2)), "title");
        assert_eq!(f.tag_name(NodeId(3)), "allauthors");
        assert_eq!(f.tag_name(NodeId(4)), "author");
        assert_eq!(f.tag_name(NodeId(5)), "fn");
        assert_eq!(f.tag_name(NodeId(6)), "ln");
        assert_eq!(f.node_count(), 7); // virtual root + 6
    }

    #[test]
    fn values_attach_to_owning_nodes() {
        let f = tiny();
        assert_eq!(f.value_str(NodeId(2)), Some("XML"));
        assert_eq!(f.value_str(NodeId(5)), Some("jane"));
        assert_eq!(f.value_str(NodeId(1)), None);
    }

    #[test]
    fn parent_child_navigation() {
        let f = tiny();
        assert_eq!(f.parent(NodeId(1)), Some(NodeId::VIRTUAL_ROOT));
        assert_eq!(f.parent(NodeId::VIRTUAL_ROOT), None);
        assert_eq!(f.parent(NodeId(5)), Some(NodeId(4)));
        let kids: Vec<_> = f.children(NodeId(4)).collect();
        assert_eq!(kids, vec![NodeId(5), NodeId(6)]);
        assert_eq!(f.child_count(NodeId(1)), 2);
    }

    #[test]
    fn ancestor_test_uses_preorder_intervals() {
        let f = tiny();
        assert!(f.is_ancestor(NodeId(1), NodeId(6)));
        assert!(f.is_ancestor(NodeId(3), NodeId(4)));
        assert!(!f.is_ancestor(NodeId(4), NodeId(4))); // not reflexive
        assert!(!f.is_ancestor(NodeId(2), NodeId(3))); // sibling subtrees
        assert!(f.is_ancestor(NodeId::VIRTUAL_ROOT, NodeId(1)));
    }

    #[test]
    fn depths_and_root_paths() {
        let f = tiny();
        assert_eq!(f.depth(NodeId(1)), 1);
        assert_eq!(f.depth(NodeId(5)), 4);
        assert_eq!(f.root_path_ids(NodeId(5)), vec![NodeId(1), NodeId(3), NodeId(4), NodeId(5)]);
        let tags: Vec<_> =
            f.root_path_tags(NodeId(5)).iter().map(|&t| f.dict().name(t).to_owned()).collect();
        assert_eq!(tags, vec!["book", "allauthors", "author", "fn"]);
        assert_eq!(f.max_depth(), 4);
    }

    #[test]
    fn ids_strictly_increase_down_any_path() {
        // The property underpinning delta-encoded IdLists (paper §4.1).
        let f = fig1_book_document();
        for id in f.iter_nodes() {
            let path = f.root_path_ids(id);
            for w in path.windows(2) {
                assert!(w[0] < w[1], "ids must increase along root paths");
            }
        }
    }

    #[test]
    fn attributes_get_at_prefixed_tags_and_values() {
        let mut f = XmlForest::new();
        let mut b = f.builder();
        b.open("open_auction");
        let a = b.attr("increase", "75.00");
        b.close();
        b.finish();
        assert_eq!(f.kind(a), NodeKind::Attribute);
        assert_eq!(f.tag_name(a), "@increase");
        assert_eq!(f.value_str(a), Some("75.00"));
    }

    #[test]
    fn text_appends_on_mixed_content() {
        let mut f = XmlForest::new();
        let mut b = f.builder();
        b.open("p");
        b.text("hello ");
        b.open("b");
        b.text("bold");
        b.close();
        b.text("world");
        b.close();
        b.finish();
        assert_eq!(f.value_str(NodeId(1)), Some("hello world"));
        assert_eq!(f.value_str(NodeId(2)), Some("bold"));
    }

    #[test]
    fn multiple_documents_share_virtual_root() {
        let mut f = XmlForest::new();
        let mut b = f.builder();
        b.open("a");
        b.close();
        b.finish();
        let mut b = f.builder();
        b.open("b");
        b.close();
        b.finish();
        assert_eq!(f.roots().len(), 2);
        assert_eq!(f.parent(f.roots()[0]), Some(NodeId::VIRTUAL_ROOT));
        assert_eq!(f.parent(f.roots()[1]), Some(NodeId::VIRTUAL_ROOT));
        assert!(f.is_ancestor(NodeId::VIRTUAL_ROOT, f.roots()[1]));
    }

    #[test]
    fn subtree_iteration_matches_interval() {
        let f = fig1_book_document();
        let authors: Vec<_> = f.iter_nodes().filter(|&n| f.tag_name(n) == "author").collect();
        assert_eq!(authors, vec![NodeId(6), NodeId(21), NodeId(41)]);
        let sub: Vec<_> = f.iter_subtree(NodeId(6)).collect();
        assert_eq!(sub.len(), 5); // author + fn, mi, nickname, ln
        assert_eq!(sub[0], NodeId(6));
    }

    #[test]
    fn fig1_ids_line_up_with_the_paper() {
        let f = fig1_book_document();
        assert_eq!(f.tag_name(NodeId(1)), "book");
        assert_eq!(f.tag_name(NodeId(2)), "title");
        assert_eq!(f.value_str(NodeId(2)), Some("XML"));
        assert_eq!(f.tag_name(NodeId(5)), "allauthors");
        assert_eq!(f.tag_name(NodeId(6)), "author");
        assert_eq!(f.value_str(NodeId(7)), Some("jane"));
        assert_eq!(f.value_str(NodeId(10)), Some("poe"));
        assert_eq!(f.value_str(NodeId(22)), Some("john"));
        assert_eq!(f.value_str(NodeId(25)), Some("doe"));
        assert_eq!(f.tag_name(NodeId(41)), "author");
        assert_eq!(f.value_str(NodeId(42)), Some("jane"));
        assert_eq!(f.value_str(NodeId(45)), Some("doe"));
    }

    #[test]
    fn document_root_of_resolves_through_depth() {
        let f = fig1_book_document();
        assert_eq!(f.document_root_of(NodeId(45)), Some(NodeId(1)));
        assert_eq!(f.document_root_of(NodeId(1)), Some(NodeId(1)));
        assert_eq!(f.document_root_of(NodeId::VIRTUAL_ROOT), None);
    }

    #[test]
    #[should_panic(expected = "attr() must precede child elements")]
    fn attr_after_child_element_is_rejected() {
        let mut f = XmlForest::new();
        let mut b = f.builder();
        b.open("a");
        b.open("b");
        b.close();
        b.attr("x", "1");
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_panics_on_unclosed_elements() {
        let mut f = XmlForest::new();
        let mut b = f.builder();
        b.open("a");
        b.finish();
    }
}
