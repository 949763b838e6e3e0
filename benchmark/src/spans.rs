//! Spans recorded from outside the program, around the calls into each
//! layer. They are kept in memory and written once, when the run ends.

use std::io::Write;
use std::path::Path;

/// Span names: the layer prefixes of the per-layer metrics, outermost
/// door first. ROADMAP item 2 asks in-program traces to adopt the same
/// vocabulary later.
pub const NET_CLIENT_QUERY: &str = "net.client_query";
pub const NET_FRAME_RW: &str = "net.frame_rw";
pub const NET_RESP_CODEC: &str = "net.resp_codec";
pub const NET_DISPATCH: &str = "net.dispatch";
pub const CORE_PARSE_XPATH: &str = "core.parse_xpath";
pub const SERVICE_EXECUTE: &str = "service.execute";
pub const OPT_PLAN: &str = "opt.plan";
pub const CORE_EXEC: &str = "core.exec";

pub const NAMES: [&str; 8] = [
    NET_CLIENT_QUERY,
    NET_FRAME_RW,
    NET_RESP_CODEC,
    NET_DISPATCH,
    CORE_PARSE_XPATH,
    SERVICE_EXECUTE,
    OPT_PLAN,
    CORE_EXEC,
];

/// One timed call. `id` is unique within its request; `parent` names
/// the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub request_id: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span tree under construction for one request. Each door of the
/// replay is timed on its own (the doors cannot be entered from inside
/// one another without instrumenting the program), so a child's
/// *duration* is measured and its *position* is laid out here: children
/// follow one another from their parent's start and are clipped to its
/// end.
pub struct Tree {
    request_id: u64,
    spans: Vec<Span>,
    /// Next free offset inside each span, parallel to `spans`.
    cursor: Vec<u64>,
}

impl Tree {
    pub fn new(request_id: u64, root: &'static str, start_ns: u64, dur_ns: u64) -> Tree {
        let span = Span {
            request_id,
            id: 0,
            parent: None,
            name: root,
            start_ns,
            end_ns: start_ns + dur_ns,
        };
        Tree { request_id, spans: vec![span], cursor: vec![start_ns] }
    }

    /// Adds a child of `parent` lasting `dur_ns`; returns its id.
    pub fn child(&mut self, parent: u32, name: &'static str, dur_ns: u64) -> u32 {
        let p = parent as usize;
        let limit = self.spans[p].end_ns;
        let start_ns = self.cursor[p].min(limit);
        let end_ns = (start_ns + dur_ns).min(limit);
        self.cursor[p] = end_ns;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            request_id: self.request_id,
            id,
            parent: Some(parent),
            name,
            start_ns,
            end_ns,
        });
        self.cursor.push(start_ns);
        id
    }

    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span of **one request**: its duration minus the
/// part of its interval that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.name, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Writes one JSON object per span, then one closing object with the
/// run's counts.
pub fn write_jsonl(path: &Path, spans: &[Span], counts: &[(&str, u64)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"request_id\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.request_id, s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    let fields: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    writeln!(out, "{{\"counts\": {{{}}}}}", fields.join(", "))?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { request_id: 1, id, parent, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, NET_CLIENT_QUERY, 100, 200),
            span(1, Some(0), NET_DISPATCH, 110, 150),
            // Overlaps its sibling by 10 and overruns the parent by 20:
            // only [150, 200) counts.
            span(2, Some(0), NET_RESP_CODEC, 140, 220),
            span(3, Some(1), SERVICE_EXECUTE, 120, 145),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], (NET_CLIENT_QUERY, 100 - 40 - 50));
        assert_eq!(selfs[1], (NET_DISPATCH, 40 - 25));
        assert_eq!(selfs[2], (NET_RESP_CODEC, 80));
        assert_eq!(selfs[3], (SERVICE_EXECUTE, 25));
    }

    #[test]
    fn self_times_of_a_laid_out_tree_sum_to_the_root() {
        let mut tree = Tree::new(9, NET_CLIENT_QUERY, 1_000, 500);
        tree.child(0, NET_FRAME_RW, 20);
        let dispatch = tree.child(0, NET_DISPATCH, 300);
        tree.child(dispatch, CORE_PARSE_XPATH, 30);
        let exec = tree.child(dispatch, SERVICE_EXECUTE, 400); // clipped to 270
        tree.child(exec, CORE_EXEC, 100);
        let spans = tree.finish();
        assert_eq!(spans[4], span_with(9, 4, Some(2), SERVICE_EXECUTE, 1_050, 1_320));
        let total: u64 = self_times(&spans).iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, 500, "self times partition the root span");
    }

    fn span_with(
        request_id: u64,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span { request_id, id, parent, name, start_ns, end_ns }
    }
}
