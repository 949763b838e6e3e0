//! XML serialization of forest subtrees.
//!
//! Used by the data generators to emit on-disk datasets and by tests for
//! parse/serialize round-trips. Values are re-escaped so that
//! `parse(serialize(f))` reproduces `f` node-for-node (modulo the
//! placement of mixed-content text, which this model attaches to the
//! owning element).

use crate::tree::{NodeId, NodeKind, XmlForest};
use std::fmt::Write;

/// Serializes the subtree rooted at `root` to an XML string.
pub fn serialize_subtree(forest: &XmlForest, root: NodeId) -> String {
    let mut out = String::new();
    write_node(forest, root, &mut out, 0, false);
    out
}

/// Serializes the subtree rooted at `root` with two-space indentation.
pub fn serialize_pretty(forest: &XmlForest, root: NodeId) -> String {
    let mut out = String::new();
    write_node(forest, root, &mut out, 0, true);
    out
}

fn write_node(forest: &XmlForest, id: NodeId, out: &mut String, indent: usize, pretty: bool) {
    if pretty {
        for _ in 0..indent {
            out.push_str("  ");
        }
    }
    let name = forest.tag_name(id);
    out.push('<');
    out.push_str(name);
    let mut element_children = Vec::new();
    for child in forest.children(id) {
        match forest.kind(child) {
            NodeKind::Attribute => {
                let aname = &forest.tag_name(child)[1..]; // strip '@'
                let _ = write!(
                    out,
                    " {}=\"{}\"",
                    aname,
                    escape_attr(forest.value_str(child).unwrap_or(""))
                );
            }
            NodeKind::Element => element_children.push(child),
        }
    }
    let text = forest.value_str(id);
    if element_children.is_empty() && text.is_none() {
        out.push_str("/>");
        if pretty {
            out.push('\n');
        }
        return;
    }
    out.push('>');
    if let Some(t) = text {
        out.push_str(&escape_text(t));
    }
    if !element_children.is_empty() {
        if pretty {
            out.push('\n');
        }
        for child in element_children {
            write_node(forest, child, out, indent + 1, pretty);
        }
        if pretty {
            for _ in 0..indent {
                out.push_str("  ");
            }
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
    if pretty {
        out.push('\n');
    }
}

/// Escapes text content.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes an attribute value (double-quoted context).
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;
    use crate::tree::XmlForest;

    fn roundtrip(input: &str) {
        let mut f1 = XmlForest::new();
        let r1 = parse_document(&mut f1, input).unwrap();
        let text = serialize_subtree(&f1, r1);
        let mut f2 = XmlForest::new();
        let r2 = parse_document(&mut f2, &text).unwrap();
        // Structural equality: same tag/value/kind sequence in pre-order.
        let n1: Vec<_> = f1.iter_subtree(r1).collect();
        let n2: Vec<_> = f2.iter_subtree(r2).collect();
        assert_eq!(n1.len(), n2.len(), "node counts differ for {input:?} -> {text:?}");
        for (&a, &b) in n1.iter().zip(&n2) {
            assert_eq!(f1.tag_name(a), f2.tag_name(b));
            assert_eq!(f1.value_str(a), f2.value_str(b));
            assert_eq!(f1.kind(a), f2.kind(b));
            assert_eq!(f1.depth(a), f2.depth(b));
        }
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip("<book><title>XML</title></book>");
    }

    #[test]
    fn roundtrip_attributes() {
        roundtrip(r#"<a x="1" y="2&quot;3"><b z="&lt;"/></a>"#);
    }

    #[test]
    fn roundtrip_escapes() {
        roundtrip("<a>1 &lt; 2 &amp; 3 &gt; 2</a>");
    }

    #[test]
    fn roundtrip_empty_elements() {
        roundtrip("<a><b/><c></c><d>x</d></a>");
    }

    #[test]
    fn roundtrip_paper_fig1() {
        let f = crate::tree::fig1_book_document();
        let text = serialize_subtree(&f, f.roots()[0]);
        let mut f2 = XmlForest::new();
        let r2 = parse_document(&mut f2, &text).unwrap();
        assert_eq!(f.iter_subtree(f.roots()[0]).count(), f2.iter_subtree(r2).count());
    }

    #[test]
    fn pretty_output_is_parseable() {
        let f = crate::tree::fig1_book_document();
        let text = serialize_pretty(&f, f.roots()[0]);
        assert!(text.contains('\n'));
        let mut f2 = XmlForest::new();
        parse_document(&mut f2, &text).unwrap();
    }
}
