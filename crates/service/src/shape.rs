//! Canonical cache keys for twig patterns.
//!
//! The plan cache is keyed by twig **shape**: the indexed node structure
//! (tags, axes, child edges), which nodes carry a value predicate, and
//! the output node — everything except the predicate *literals*. Two
//! twigs with equal shape keys are identical up to those literals, so
//! their node indices line up and one cached
//! (`CompiledTwig`, `QueryPlan`) pair serves both after
//! [`CompiledTwig::rebind`](xtwig_core::decompose::CompiledTwig::rebind).
//!
//! The result cache is keyed by the **exact** key: shape plus literals —
//! the full identity of a query's answer (for a fixed index generation).
//!
//! Keys serialize the `TwigPattern::nodes` array in index order rather
//! than any tree traversal: equality of the serialized form then implies
//! equality of the indexed representation itself, which is exactly the
//! contract value rebinding needs. (The parser produces deterministic
//! indices for a given XPath string, so textual resubmissions of the
//! same query — or of a same-shaped query with other constants — share
//! an entry.)

use std::fmt::Write as _;
use xtwig_xml::TwigPattern;

/// Shape key: structure + value-predicate positions, literals elided.
pub fn shape_key(twig: &TwigPattern) -> String {
    key(twig, false)
}

/// Exact key: shape plus the predicate literals.
pub fn exact_key(twig: &TwigPattern) -> String {
    key(twig, true)
}

fn key(twig: &TwigPattern, with_values: bool) -> String {
    let mut s = String::with_capacity(twig.nodes.len() * 16 + 8);
    let _ = write!(s, "{}@{}", twig.root_axis, twig.output);
    for node in &twig.nodes {
        // Debug formatting quotes and escapes, so tags or literals
        // containing the separator characters cannot forge a key.
        let _ = write!(s, ";{:?}", node.tag);
        match (&node.value, with_values) {
            (Some(v), true) => {
                let _ = write!(s, "={v:?}");
            }
            (Some(_), false) => s.push_str("=?"),
            (None, _) => {}
        }
        for (axis, c) in &node.children {
            let _ = write!(s, "|{axis}{c}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_core::parse_xpath;

    #[test]
    fn same_shape_different_literals_share_a_shape_key() {
        let a = parse_xpath("/book[title='XML']//author[fn='jane']").unwrap();
        let b = parse_xpath("/book[title='SQL']//author[fn='john']").unwrap();
        assert_eq!(shape_key(&a), shape_key(&b));
        assert_ne!(exact_key(&a), exact_key(&b));
    }

    #[test]
    fn exact_key_is_stable_for_resubmission() {
        let a = parse_xpath("//author[fn='jane']/ln").unwrap();
        let b = parse_xpath("//author[fn='jane']/ln").unwrap();
        assert_eq!(exact_key(&a), exact_key(&b));
    }

    #[test]
    fn structure_differences_change_the_shape_key() {
        let shapes = [
            "/book/title",
            "//book/title",         // root axis differs
            "/book//title",         // inner axis differs
            "/book/title[. = 'x']", // value presence differs
            "/book[title]/year",    // output node differs from /book/title
            "/book/year",           // tag differs
        ];
        let keys: Vec<String> =
            shapes.iter().map(|q| shape_key(&parse_xpath(q).unwrap())).collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "{} vs {}", shapes[i], shapes[j]);
            }
        }
    }

    #[test]
    fn hostile_tag_text_cannot_forge_separators() {
        use xtwig_xml::{Axis, TwigPattern};
        // A tag textually containing the separator syntax must not
        // collide with the structure it mimics.
        let mut a = TwigPattern::single(Axis::Child, "a", None);
        a.add_child(0, Axis::Child, "b|1", None);
        let mut b = TwigPattern::single(Axis::Child, "a", None);
        b.add_child(0, Axis::Child, "b", None);
        b.add_child(1, Axis::Child, "c", None);
        assert_ne!(shape_key(&a), shape_key(&b));
    }
}
