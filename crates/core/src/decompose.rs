//! Covering a query twig with PCsubpath patterns (paper §2.2–2.3).
//!
//! "Any query twig pattern can always be covered by a set of PCsubpath
//! patterns": cut the twig at every ancestor-descendant edge — each
//! maximal parent-child-connected piece is a **segment** — then take the
//! root-to-leaf paths of each segment (plus an extra root-to-node path
//! for every valued interior node, so each value condition sits at the
//! leaf of some PCsubpath).
//!
//! The segments also record how they connect (which twig node the `//`
//! edge descends from), which is everything the engine needs to stitch
//! subpath matches back together with joins on IdList-extracted ids.

use crate::family::PcSubpathQuery;
use std::fmt;
use xtwig_xml::{Axis, TagDict, TwigPattern};

/// One PCsubpath of the cover.
#[derive(Debug, Clone, Default)]
pub struct SubpathSpec {
    /// The resolved pattern.
    pub q: PcSubpathQuery,
    /// Twig node index bound by each step (`nodes.len() == q.len()`).
    pub nodes: Vec<usize>,
    /// Owning segment.
    pub segment: usize,
}

/// A maximal parent-child-connected piece of the twig.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Twig node at the segment root.
    pub root: usize,
    /// `(upper twig node, its segment)` for the `//` edge above this
    /// segment; `None` for the root segment.
    pub parent: Option<(usize, usize)>,
    /// Indices into [`CompiledTwig::subpaths`].
    pub subpath_ids: Vec<usize>,
}

/// A twig compiled into its PCsubpath cover.
#[derive(Debug, Clone)]
pub struct CompiledTwig {
    /// The source twig.
    pub twig: TwigPattern,
    /// The covering PCsubpaths.
    pub subpaths: Vec<SubpathSpec>,
    /// The segments.
    pub segments: Vec<Segment>,
}

/// A twig references a tag that does not occur in the data; its result
/// is necessarily empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTag(pub String);

impl fmt::Display for UnknownTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag {:?} does not occur in the data", self.0)
    }
}

impl std::error::Error for UnknownTag {}

/// Decomposes `twig`, resolving tags against `dict`.
pub fn decompose(twig: &TwigPattern, dict: &TagDict) -> Result<CompiledTwig, UnknownTag> {
    let n = twig.len();
    // Assign segments: cut at Descendant edges.
    let mut segment_of = vec![usize::MAX; n];
    let mut segments: Vec<Segment> = Vec::new();
    segments.push(Segment { root: 0, parent: None, subpath_ids: Vec::new() });
    segment_of[0] = 0;
    for qi in twig.preorder() {
        let seg = segment_of[qi];
        for &(axis, child) in &twig.nodes[qi].children {
            match axis {
                Axis::Child => segment_of[child] = seg,
                Axis::Descendant => {
                    segment_of[child] = segments.len();
                    segments.push(Segment {
                        root: child,
                        parent: Some((qi, seg)),
                        subpath_ids: Vec::new(),
                    });
                }
            }
        }
    }

    // Enumerate each segment's root-to-leaf paths, plus root-to-node
    // paths for valued interior nodes.
    let mut subpaths: Vec<SubpathSpec> = Vec::new();
    for (seg_idx, seg) in segments.iter().enumerate() {
        let anchored = seg.parent.is_none() && twig.root_axis == Axis::Child;
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(seg.root, vec![seg.root])];
        while let Some((qi, path)) = stack.pop() {
            let pc_children: Vec<usize> = twig.nodes[qi]
                .children
                .iter()
                .filter(|&&(axis, _)| axis == Axis::Child)
                .map(|&(_, c)| c)
                .collect();
            let is_leaf = pc_children.is_empty();
            let valued = twig.nodes[qi].value.is_some();
            if is_leaf || valued {
                subpaths.push(make_spec(twig, dict, &path, anchored, seg_idx, valued)?);
            }
            for c in pc_children.into_iter().rev() {
                let mut p = path.clone();
                p.push(c);
                stack.push((c, p));
            }
        }
    }
    // Tie subpaths back to segments.
    for (i, sp) in subpaths.iter().enumerate() {
        segments[sp.segment].subpath_ids.push(i);
    }
    Ok(CompiledTwig { twig: twig.clone(), subpaths, segments })
}

fn make_spec(
    twig: &TwigPattern,
    dict: &TagDict,
    path: &[usize],
    anchored: bool,
    segment: usize,
    use_value: bool,
) -> Result<SubpathSpec, UnknownTag> {
    let tags = path
        .iter()
        .map(|&qi| {
            dict.lookup(&twig.nodes[qi].tag).ok_or_else(|| UnknownTag(twig.nodes[qi].tag.clone()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let value = if use_value { twig.nodes[*path.last().unwrap()].value.clone() } else { None };
    Ok(SubpathSpec { q: PcSubpathQuery { tags, anchored, value }, nodes: path.to_vec(), segment })
}

impl CompiledTwig {
    /// The subpath binding the output node (engineered to always exist:
    /// the output node lies on some root-to-leaf path of its segment).
    pub fn output_subpath(&self) -> Option<usize> {
        self.subpaths.iter().position(|sp| sp.nodes.contains(&self.twig.output))
    }

    /// Deepest twig node shared by two subpaths (`None` when disjoint).
    pub fn deepest_shared(&self, a: usize, b: usize) -> Option<usize> {
        let bn = &self.subpaths[b].nodes;
        self.subpaths[a].nodes.iter().rev().find(|n| bn.contains(n)).copied()
    }
}

impl SubpathSpec {
    /// The literal `twig` gives this subpath's value condition: the value
    /// of the twig node at its leaf, when the subpath carries one. `twig`
    /// must have the cover's shape — node indices, axes, tags and value
    /// *presence* (the contract a shape-keyed plan cache enforces) — so
    /// one cover serves every twig of the shape, each with its own
    /// literals (a parameterized plan, in relational terms).
    pub fn literal<'t>(&self, twig: &'t TwigPattern) -> Option<&'t str> {
        self.q.value.as_ref()?;
        twig.nodes.get(*self.nodes.last()?)?.value.as_deref()
    }

    /// Makes `self` the subpath `spec` with the literal `twig` gives it
    /// ([`SubpathSpec::literal`]), reusing the buffers `self` holds.
    pub fn rebind_from(&mut self, spec: &SubpathSpec, twig: &TwigPattern) {
        self.q.tags.clone_from(&spec.q.tags);
        self.q.anchored = spec.q.anchored;
        match (&mut self.q.value, spec.literal(twig)) {
            (Some(mine), Some(value)) => {
                mine.clear();
                mine.push_str(value);
            }
            (mine, value) => *mine = value.map(str::to_owned),
        }
        self.nodes.clone_from(&spec.nodes);
        self.segment = spec.segment;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::parse_xpath;

    fn dict_for(twig: &TwigPattern) -> TagDict {
        let mut dict = TagDict::new();
        for node in &twig.nodes {
            dict.intern(&node.tag);
        }
        dict
    }

    fn names(_twig: &TwigPattern, dict: &TagDict, sp: &SubpathSpec) -> Vec<String> {
        sp.q.tags.iter().map(|&t| dict.name(t).to_owned()).collect()
    }

    #[test]
    fn paper_intro_twig_decomposes_into_three_subpaths() {
        // §2.2: /book[title='XML']//author[fn='jane'][ln='doe'] consists
        // of /book/title, //author/fn, //author/ln (each a PCsubpath).
        let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
        let dict = dict_for(&twig);
        let c = decompose(&twig, &dict).unwrap();
        assert_eq!(c.segments.len(), 2);
        assert_eq!(c.subpaths.len(), 3);
        let sp_names: Vec<(Vec<String>, bool, Option<String>)> = c
            .subpaths
            .iter()
            .map(|sp| (names(&twig, &dict, sp), sp.q.anchored, sp.q.value.clone()))
            .collect();
        assert!(sp_names.contains(&(
            vec!["book".into(), "title".into()],
            true,
            Some("XML".into())
        )));
        assert!(sp_names.contains(&(
            vec!["author".into(), "fn".into()],
            false,
            Some("jane".into())
        )));
        assert!(sp_names.contains(&(
            vec!["author".into(), "ln".into()],
            false,
            Some("doe".into())
        )));
        // The lower segment hangs off the book node (twig node 0).
        let lower = &c.segments[1];
        assert_eq!(lower.parent, Some((0, 0)));
        assert_eq!(twig.nodes[lower.root].tag, "author");
    }

    #[test]
    fn single_path_is_one_subpath() {
        let twig = parse_xpath("/site/regions/namerica/item/quantity[. = '5']").unwrap();
        let dict = dict_for(&twig);
        let c = decompose(&twig, &dict).unwrap();
        assert_eq!(c.segments.len(), 1);
        assert_eq!(c.subpaths.len(), 1);
        assert!(c.subpaths[0].q.anchored);
        assert_eq!(c.subpaths[0].q.value.as_deref(), Some("5"));
        assert_eq!(c.subpaths[0].nodes, vec![0, 1, 2, 3, 4]);
        assert_eq!(c.output_subpath(), Some(0));
    }

    #[test]
    fn pc_branches_share_a_segment() {
        let twig = parse_xpath(
            "/site[people/person/profile/@income = 9876.00]\
             /open_auctions/open_auction[@increase = 3.00]",
        )
        .unwrap();
        let dict = dict_for(&twig);
        let c = decompose(&twig, &dict).unwrap();
        assert_eq!(c.segments.len(), 1, "no // edges -> one segment");
        assert_eq!(c.subpaths.len(), 2);
        // Both subpaths share the site node (twig node 0).
        assert_eq!(c.deepest_shared(0, 1), Some(0));
    }

    #[test]
    fn descendant_edge_splits_segments() {
        let twig = parse_xpath("/site//item[quantity = 2]/mailbox/mail/to").unwrap();
        let dict = dict_for(&twig);
        let c = decompose(&twig, &dict).unwrap();
        assert_eq!(c.segments.len(), 2);
        let lower = &c.segments[1];
        assert_eq!(twig.nodes[lower.root].tag, "item");
        // Lower segment has two subpaths: item/quantity=2, item/mailbox/mail/to.
        assert_eq!(lower.subpath_ids.len(), 2);
        // Upper segment: just /site.
        assert_eq!(c.segments[0].subpath_ids.len(), 1);
        let upper = &c.subpaths[c.segments[0].subpath_ids[0]];
        assert_eq!(upper.q.tags.len(), 1);
        assert!(upper.q.anchored);
    }

    #[test]
    fn interior_value_gets_its_own_subpath() {
        // /a/b[. = 'v']/c — value on an interior node b.
        let twig = parse_xpath("/a/b[. = 'v']/c").unwrap();
        let dict = dict_for(&twig);
        let c = decompose(&twig, &dict).unwrap();
        assert_eq!(c.subpaths.len(), 2);
        let valued: Vec<_> = c.subpaths.iter().filter(|sp| sp.q.value.is_some()).collect();
        assert_eq!(valued.len(), 1);
        assert_eq!(valued[0].nodes, vec![0, 1]);
        let structural: Vec<_> = c.subpaths.iter().filter(|sp| sp.q.value.is_none()).collect();
        assert_eq!(structural[0].nodes, vec![0, 1, 2]);
    }

    #[test]
    fn leading_descendant_root_segment_is_unanchored() {
        let twig = parse_xpath("//author/fn").unwrap();
        let dict = dict_for(&twig);
        let c = decompose(&twig, &dict).unwrap();
        assert_eq!(c.segments.len(), 1);
        assert!(!c.subpaths[0].q.anchored);
    }

    #[test]
    fn unknown_tag_is_reported() {
        let twig = parse_xpath("/site/never_seen_tag").unwrap();
        let dict = {
            let mut d = TagDict::new();
            d.intern("site");
            d
        };
        let err = decompose(&twig, &dict).unwrap_err();
        assert_eq!(err, UnknownTag("never_seen_tag".into()));
    }

    #[test]
    fn output_subpath_found_for_branching_queries() {
        let twig =
            parse_xpath("/site/open_auctions/open_auction[annotation/author/@person = 'p1']/time")
                .unwrap();
        let dict = dict_for(&twig);
        let c = decompose(&twig, &dict).unwrap();
        let out_sp = c.output_subpath().unwrap();
        assert!(c.subpaths[out_sp].nodes.contains(&twig.output));
        assert_eq!(twig.nodes[twig.output].tag, "time");
    }

    #[test]
    fn nested_descendants_chain_segments() {
        let twig = parse_xpath("/a//b//c[d = 'x']").unwrap();
        let dict = dict_for(&twig);
        let c = decompose(&twig, &dict).unwrap();
        assert_eq!(c.segments.len(), 3);
        assert_eq!(c.segments[1].parent.map(|p| p.1), Some(0));
        assert_eq!(c.segments[2].parent.map(|p| p.1), Some(1));
    }
}
