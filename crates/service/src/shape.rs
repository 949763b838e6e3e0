//! Canonical forms, fingerprints and labels of twig patterns.
//!
//! The plan cache is keyed by twig **shape**: the indexed node structure
//! (tags, axes, child edges), which nodes carry a value predicate, and
//! the output node — everything except the predicate *literals*. Two
//! twigs of one shape are identical up to those literals, so their node
//! indices line up and one cached (`CompiledTwig`, `QueryPlan`) pair
//! serves both: the executor reads each request's literals from its own
//! twig ([`SubpathSpec::literal`](xtwig_core::decompose::SubpathSpec::literal)).
//!
//! The result cache is keyed by the **exact** form: shape plus literals —
//! the full identity of a query's answer (for a fixed index generation).
//!
//! Both forms serialize the `TwigPattern::nodes` array in index order
//! rather than any tree traversal, with every tag and literal preceded
//! by its length: equality of the forms is equality of the indexed
//! representation itself, which is exactly the contract literal
//! rebinding needs. (The parser produces deterministic indices for a
//! given XPath string, so textual resubmissions of the same query — or
//! of a same-shaped query with other constants — share an entry.)
//!
//! A request hashes both forms once, in one pass that allocates nothing:
//! its [`Fingerprint`]. The caches are keyed by a fingerprint lane, and
//! each entry keeps the [`Canonical`] form it was admitted for and
//! compares it with the request's twig on a hit, so a fingerprint
//! collision costs a miss, never another query's plan or answer. The
//! human-readable [`shape_label`] is rendered once per admitted shape,
//! for the metrics.

use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use xtwig_storage::hash::{hash_bytes, mix, SEED};
use xtwig_xml::{Axis, TwigPattern};

/// One piece of a twig's canonical form: structure bytes, or the
/// literal of one node (`None` when the node has no value predicate).
enum Piece<'a> {
    Bytes(&'a [u8]),
    Literal(Option<&'a str>),
}

/// Walks `twig`'s canonical form, piece by piece. Every count and index
/// is a fixed-width word and every tag is preceded by its length, so the
/// sequence of pieces determines the twig.
fn pieces(twig: &TwigPattern, mut piece: impl FnMut(Piece<'_>)) {
    let axis = |a: Axis| [u8::from(a == Axis::Descendant)];
    let word = |n: usize| (n as u64).to_le_bytes();
    piece(Piece::Bytes(&axis(twig.root_axis)));
    piece(Piece::Bytes(&word(twig.output)));
    piece(Piece::Bytes(&word(twig.nodes.len())));
    for node in &twig.nodes {
        piece(Piece::Bytes(&word(node.tag.len())));
        piece(Piece::Bytes(node.tag.as_bytes()));
        piece(Piece::Literal(node.value.as_deref()));
        piece(Piece::Bytes(&word(node.children.len())));
        for &(a, child) in &node.children {
            piece(Piece::Bytes(&axis(a)));
            piece(Piece::Bytes(&word(child)));
        }
    }
}

/// Feeds the bytes of `piece` to `out`: a literal is its presence byte
/// and, in the exact form (`literals`), its length and text.
fn bytes_of(piece: Piece<'_>, literals: bool, mut out: impl FnMut(&[u8])) {
    match piece {
        Piece::Bytes(b) => out(b),
        Piece::Literal(v) => {
            out(&[u8::from(v.is_some())]);
            if let (true, Some(v)) = (literals, v) {
                out(&(v.len() as u64).to_le_bytes());
                out(v.as_bytes());
            }
        }
    }
}

/// The two hashes a request is looked up by, computed once per request
/// in one allocation-free pass ([`Fingerprint::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Hash of the shape form: the plan cache and the per-shape metrics
    /// are keyed by it.
    pub shape: u64,
    /// Hash of the exact form: the result cache is keyed by it.
    pub exact: u64,
}

impl Fingerprint {
    /// `twig`'s fingerprint.
    pub fn of(twig: &TwigPattern) -> Fingerprint {
        let (mut shape, mut exact) = (SEED, SEED);
        pieces(twig, |piece| match piece {
            Piece::Bytes(b) => {
                shape = hash_bytes(shape, b);
                exact = hash_bytes(exact, b);
            }
            Piece::Literal(v) => {
                shape = mix(shape, u64::from(v.is_some()));
                exact = match v {
                    Some(v) => hash_bytes(mix(exact, 1), v.as_bytes()),
                    None => mix(exact, 0),
                };
            }
        });
        Fingerprint { shape, exact }
    }
}

/// A twig's canonical form, kept by a cache entry to tell the twig it
/// was admitted for from another one under the same fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canonical {
    bytes: Box<[u8]>,
    literals: bool,
}

impl Canonical {
    /// `twig`'s shape form: its literals elided.
    pub fn shape(twig: &TwigPattern) -> Canonical {
        Canonical::of(twig, false)
    }

    /// `twig`'s exact form: shape plus literals.
    pub fn exact(twig: &TwigPattern) -> Canonical {
        Canonical::of(twig, true)
    }

    fn of(twig: &TwigPattern, literals: bool) -> Canonical {
        let mut bytes = Vec::new();
        pieces(twig, |piece| bytes_of(piece, literals, |b| bytes.extend_from_slice(b)));
        Canonical { bytes: bytes.into_boxed_slice(), literals }
    }

    /// Whether `twig` has this form, compared piece by piece without
    /// rendering the twig's own.
    pub fn matches(&self, twig: &TwigPattern) -> bool {
        let mut rest: &[u8] = &self.bytes;
        let mut same = true;
        pieces(twig, |piece| {
            bytes_of(piece, self.literals, |b| {
                same = same && rest.starts_with(b);
                rest = rest.get(b.len()..).unwrap_or_default();
            })
        });
        same && rest.is_empty()
    }
}

/// A [`Hasher`] for keys that hash well already — fingerprints, and
/// small integers beside them: each word is folded in with one
/// multiply, where the standard library's SipHash would cost a request
/// more than the rest of its lookup.
#[derive(Default)]
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = hash_bytes(self.0, bytes);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0, n);
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = mix(self.0, n as u64);
    }
}

/// The hasher state of every map keyed by a fingerprint.
pub type FoldState = BuildHasherDefault<FoldHasher>;

/// The shape's human-readable label — structure and value-predicate
/// positions, literals elided — as the metrics name a shape. Debug
/// formatting quotes and escapes each tag, so a tag containing the
/// separator characters cannot forge another shape's label.
pub fn shape_label(twig: &TwigPattern) -> String {
    let mut s = String::with_capacity(twig.nodes.len() * 16 + 8);
    let _ = write!(s, "{}@{}", twig.root_axis, twig.output);
    for node in &twig.nodes {
        let _ = write!(s, ";{:?}", node.tag);
        if node.value.is_some() {
            s.push_str("=?");
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

    fn twig(xpath: &str) -> TwigPattern {
        parse_xpath(xpath).unwrap()
    }

    #[test]
    fn same_shape_different_literals_share_a_shape_fingerprint() {
        let a = twig("/book[title='XML']//author[fn='jane']");
        let b = twig("/book[title='SQL']//author[fn='john']");
        let (fa, fb) = (Fingerprint::of(&a), Fingerprint::of(&b));
        assert_eq!(fa.shape, fb.shape);
        assert_ne!(fa.exact, fb.exact);
        assert_eq!(shape_label(&a), shape_label(&b));
        assert!(Canonical::shape(&a).matches(&b));
        assert!(!Canonical::exact(&a).matches(&b));
    }

    #[test]
    fn a_resubmission_has_the_same_fingerprint_and_form() {
        let a = twig("//author[fn='jane']/ln");
        let b = twig("//author[fn='jane']/ln");
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
        assert!(Canonical::exact(&a).matches(&b));
        assert!(Canonical::shape(&a).matches(&b));
    }

    #[test]
    fn structure_differences_change_fingerprint_form_and_label() {
        let shapes = [
            "/book/title",
            "//book/title",         // root axis differs
            "/book//title",         // inner axis differs
            "/book/title[. = 'x']", // value presence differs
            "/book[title]/year",    // output node differs from /book/title
            "/book/year",           // tag differs
        ];
        let twigs: Vec<TwigPattern> = shapes.iter().map(|q| twig(q)).collect();
        for i in 0..twigs.len() {
            for j in 0..twigs.len() {
                let same = i == j;
                let (a, b) = (&twigs[i], &twigs[j]);
                let pair = format!("{} vs {}", shapes[i], shapes[j]);
                assert_eq!(Fingerprint::of(a).shape == Fingerprint::of(b).shape, same, "{pair}");
                assert_eq!(Canonical::shape(a).matches(b), same, "{pair}");
                assert_eq!(shape_label(a) == shape_label(b), same, "{pair}");
            }
        }
    }

    #[test]
    fn a_literal_that_spells_structure_matches_no_other_twig() {
        // The exact form frames each literal by its length, so a literal
        // holding what follows it in another twig cannot line up with it.
        let a = twig("/a[b = 'x'][c]");
        let b = twig("/a[b = 'x\u{1}'][c]");
        assert!(!Canonical::exact(&a).matches(&b));
        assert!(!Canonical::exact(&b).matches(&a));
        assert!(Canonical::shape(&a).matches(&b));
    }

    #[test]
    fn hostile_tag_text_cannot_forge_separators() {
        // A tag textually containing the separator syntax must not
        // collide with the structure it mimics.
        let mut a = TwigPattern::single(Axis::Child, "a", None);
        a.add_child(0, Axis::Child, "b|1", None);
        let mut b = TwigPattern::single(Axis::Child, "a", None);
        b.add_child(0, Axis::Child, "b", None);
        b.add_child(1, Axis::Child, "c", None);
        assert_ne!(shape_label(&a), shape_label(&b));
        assert_ne!(Fingerprint::of(&a).shape, Fingerprint::of(&b).shape);
        assert!(!Canonical::shape(&a).matches(&b));
    }

    #[test]
    fn the_label_is_the_one_the_metrics_always_rendered() {
        let label = shape_label(&twig("/book[title = 'XML']//author[fn = 'jane']/ln"));
        assert_eq!(label, r#"/@4;"book"|/1|//2;"title"=?;"author"|/3|/4;"fn"=?;"ln""#);
    }
}
