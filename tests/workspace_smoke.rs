//! End-to-end smoke test for the assembled workspace: parse a small
//! document, build every index strategy, and run the paper's
//! introductory twig (§1, Fig. 1) through each one, cross-checking
//! against the naive in-memory matcher.

use std::collections::BTreeSet;
use std::path::Path;
use xtwig::prelude::*;
use xtwig::xml::naive;

const INTRO_TWIG: &str = "/book[title='XML']//author[fn='jane'][ln='doe']";

fn intro_forest() -> XmlForest {
    let mut forest = XmlForest::new();
    // The matching book from the paper's introduction...
    xtwig::xml::parse_document(
        &mut forest,
        "<book><title>XML</title><allauthors>\
         <author><fn>jane</fn><ln>doe</ln></author>\
         <author><fn>john</fn><ln>smith</ln></author>\
         </allauthors></book>",
    )
    .unwrap();
    // ...plus decoys: right title but wrong author, and vice versa.
    xtwig::xml::parse_document(
        &mut forest,
        "<book><title>XML</title><allauthors>\
         <author><fn>jane</fn><ln>smith</ln></author>\
         </allauthors></book>",
    )
    .unwrap();
    xtwig::xml::parse_document(
        &mut forest,
        "<book><title>SQL</title><allauthors>\
         <author><fn>jane</fn><ln>doe</ln></author>\
         </allauthors></book>",
    )
    .unwrap();
    forest
}

/// The docs advertise the integration-suite inventory in three places
/// (README's test-net paragraph, ROADMAP's current-state section, and
/// the suite count itself); this test derives the ground truth from
/// `tests/*.rs` so a new suite that forgets the docs — or a doc that
/// invents a suite — fails CI instead of drifting silently. The same
/// goes for every bench snapshot, `--bin`, `--bench` and `--example` the
/// docs name.
#[test]
fn docs_track_the_integration_suite_inventory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut suites: Vec<String> = std::fs::read_dir(root.join("tests"))
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_suffix(".rs").map(str::to_owned)
        })
        .collect();
    suites.sort();
    assert!(
        suites.contains(&"workspace_smoke".to_owned()),
        "suite discovery is broken: did not find this very file"
    );

    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let roadmap = std::fs::read_to_string(root.join("ROADMAP.md")).unwrap();
    let count_phrase = format!("{} integration suites", suites.len());
    for (doc, text) in [("README.md", &readme), ("ROADMAP.md", &roadmap)] {
        assert!(
            text.contains(&count_phrase),
            "{doc} must state the suite count exactly as {count_phrase:?} \
             (found {} suites under tests/)",
            suites.len()
        );
        for suite in &suites {
            assert!(
                text.contains(suite.as_str()),
                "{doc} never mentions integration suite `{suite}`"
            );
        }
    }

    // The same docs, the CI workflow and the verify notes name bench
    // snapshots and `cargo` targets; each name must resolve, so that
    // deleting a binary or a snapshot cannot leave a dangling command.
    let bench_manifest = std::fs::read_to_string(root.join("crates/bench/Cargo.toml")).unwrap();
    for doc in ["README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for stem in names_after(&text, "BENCH_") {
            let snapshot = format!("BENCH_{stem}.json");
            if text.contains(&snapshot) {
                assert!(root.join(&snapshot).is_file(), "{doc} names missing {snapshot}");
            }
        }
        for bin in names_after(&text, "--bin ") {
            let file = format!("{bin}.rs");
            assert!(
                root.join("src/bin").join(&file).is_file()
                    || root.join("crates/bench/src/bin").join(&file).is_file(),
                "{doc} runs `--bin {bin}`, which no src/bin has"
            );
        }
        for bench in names_after(&text, "--bench ") {
            assert!(
                bench_manifest.contains(&format!("name = \"{bench}\""))
                    && root.join("crates/bench/benches").join(format!("{bench}.rs")).is_file(),
                "{doc} runs `--bench {bench}`, which crates/bench does not declare"
            );
        }
        for example in names_after(&text, "--example ") {
            assert!(
                root.join("examples").join(format!("{example}.rs")).is_file(),
                "{doc} runs `--example {example}`, which examples/ does not have"
            );
        }
    }
}

/// The identifier (`[A-Za-z0-9_]+`) following each occurrence of
/// `marker` in `text`; occurrences followed by none are skipped.
fn names_after<'t>(text: &'t str, marker: &str) -> Vec<&'t str> {
    text.match_indices(marker)
        .filter_map(|(at, _)| {
            let rest = &text[at + marker.len()..];
            let end =
                rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(rest.len());
            (end > 0).then(|| &rest[..end])
        })
        .collect()
}

/// Clippy enforces the no-panic table of the serving crates and a
/// `// SAFETY:` argument on every `unsafe`; this pins the pieces that
/// wire it — the workspace lint table, CI's deny flags, and the README's
/// house-rules table — so deleting one fails loudly instead of quietly
/// un-gating the workspace.
#[test]
fn lint_gates_stay_wired() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap();
    assert!(
        ci.contains("-- -D warnings -D clippy::undocumented_unsafe_blocks"),
        "CI clippy must deny warnings and undocumented unsafe"
    );
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    for lint in ["unwrap_used", "expect_used", "panic", "indexing_slicing"] {
        assert!(manifest.contains(&format!("{lint} = \"warn\"")), "workspace lints lost {lint}");
    }
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(readme.contains("## House rules"), "README lost its house-rules section");
}

/// The code of `source` above its first `#[cfg(test)]` (every such
/// attribute in `crates/net` and `crates/service` opens the test module
/// that ends its file), as (1-based line, line without string literals
/// or `//` comments).
fn code_lines(source: &str) -> Vec<(usize, String)> {
    let prefix = source.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
    prefix
        .enumerate()
        .map(|(at, line)| {
            let (mut code, mut in_str, mut chars) = (String::new(), false, line.chars());
            while let Some(c) = chars.next() {
                match c {
                    '\\' if in_str => drop(chars.next()),
                    '"' => in_str = !in_str,
                    '/' if !in_str && chars.as_str().starts_with('/') => break,
                    _ if !in_str => code.push(c),
                    _ => {}
                }
            }
            (at + 1, code)
        })
        .collect()
}

fn workspace_source(rel: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)).unwrap()
}

/// `Server`'s OS listener lifecycle, not the request path: `io::Error`
/// is the honest type.
const LISTENER_LIFECYCLE: [&str; 5] = ["bind", "bind_with", "local_addr", "handle", "run"];

/// The `pub fn`s of `source` whose signature (up to the first `{` or
/// `;`) names `io::Result`, or `String`, `Box<dyn ..>` or `io::Error` as
/// a `Result`'s error argument, which callers cannot map onto a wire
/// `ErrorCode`: (line, name).
fn untyped_results(path: &str, source: &str) -> Vec<(usize, String)> {
    let lines = code_lines(source);
    let mut found = Vec::new();
    for (at, (line, code)) in lines.iter().enumerate() {
        let Some(rest) = code.trim_start().strip_prefix("pub fn ") else { continue };
        let name = &rest[..rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(0)];
        if path.ends_with("crates/net/src/server.rs") && LISTENER_LIFECYCLE.contains(&name) {
            continue;
        }
        let sig: String = lines[at..].iter().flat_map(|(_, l)| l.split_whitespace()).collect();
        let sig = &sig[..sig.find(['{', ';']).unwrap_or(sig.len())];
        if ["io::Result<", ",String>", ",Box<dyn", "io::Error>"].iter().any(|t| sig.contains(t)) {
            found.push((*line, name.to_owned()));
        }
    }
    found
}

#[test]
fn public_results_in_net_and_service_are_typed() {
    const FIXTURE: &str = "//! Fixture: leaky public Result signatures fire `typed-errors`;
//! crate-local error types and non-public fns stay clean.

pub fn leaks_string() -> Result<u8, String> {
    Ok(0)
}

pub fn leaks_io_alias() -> io::Result<u8> {
    Ok(0)
}

pub fn leaks_boxed() -> Result<u8, Box<dyn std::error::Error>> {
    Ok(0)
}

pub fn typed_is_clean() -> Result<u8, FrameError> {
    Ok(0)
}

pub(crate) fn crate_scoped_is_clean() -> Result<u8, String> {
    Ok(0)
}
";
    let found = untyped_results("crates/net/src/fixture.rs", FIXTURE);
    assert_eq!(found.iter().map(|(line, _)| *line).collect::<Vec<_>>(), [4, 8, 12]);
    for dir in ["crates/net/src", "crates/service/src"] {
        for entry in std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(dir)).unwrap() {
            let rel = format!("{dir}/{}", entry.unwrap().file_name().to_string_lossy());
            let found = untyped_results(&rel, &workspace_source(&rel));
            assert!(found.is_empty(), "{rel}: untyped public Results {found:?}");
        }
    }
    // Every exemption still names a listener function that needs it.
    let server = workspace_source("crates/net/src/server.rs");
    let names: Vec<String> = untyped_results("", &server).into_iter().map(|(_, n)| n).collect();
    assert_eq!(names, LISTENER_LIFECYCLE, "the listener exemptions went stale");
}

/// Request dispatch runs on connection threads, where inline
/// filesystem work is tail latency for the peer and invisible to
/// admission. These identifiers may not appear in its code.
const FILESYSTEM: [&str; 7] =
    ["File", "OpenOptions", "read_to_string", "read_dir", "open", "rename", "remove_file"];

/// The catalog's two deliberate exceptions: (line content, why).
const CATALOG_FILESYSTEM: [(&str, &str); 2] = [
    (
        "TwigService::open(&slot.path",
        "open-on-demand is the catalog's whole contract: one cold attach per index, \
         serialized by the catalog lock, counted in CatalogStats::opens",
    ),
    (
        "std::fs::read_dir(dir)",
        "scan_dir is an explicit admin operation (startup registration), \
         never on the per-request path",
    ),
];

/// The lines of `source` that name a [`FILESYSTEM`] identifier, less
/// the [`CATALOG_FILESYSTEM`] exceptions when `path` is the catalog.
fn dispatch_filesystem_lines(path: &str, source: &str) -> Vec<usize> {
    let excused = |code: &str| {
        path.ends_with("crates/service/src/catalog.rs")
            && CATALOG_FILESYSTEM.iter().any(|(site, _)| code.contains(site))
    };
    code_lines(source)
        .into_iter()
        .filter(|(_, code)| {
            let mut idents = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            idents.any(|ident| FILESYSTEM.contains(&ident)) && !excused(code)
        })
        .map(|(line, _)| line)
        .collect()
}

#[test]
fn request_dispatch_touches_no_filesystem() {
    const FIXTURE: &str = "//! Fixture: blocking filesystem work inside request-dispatch code.
//! Both production fns fire; the `#[cfg(test)]` block is exempt.

fn handle_debug_dump() -> String {
    std::fs::read_to_string(\"index.xtwig\").unwrap_or_default()
}

fn handle_side_channel() {
    let _ = std::fs::File::create(\"access.log\");
}

#[cfg(test)]
mod tests {
    use std::fs::File;

    fn scratch() {
        let _ = File::create(\"fixture.tmp\");
    }
}
";
    assert_eq!(dispatch_filesystem_lines("crates/net/src/server.rs", FIXTURE), [5, 9]);
    for rel in ["crates/net/src/server.rs", "crates/service/src/catalog.rs"] {
        let found = dispatch_filesystem_lines(rel, &workspace_source(rel));
        assert!(found.is_empty(), "{rel}: filesystem calls on lines {found:?}");
    }
    // Each exception still excuses exactly one site.
    let catalog = workspace_source("crates/service/src/catalog.rs");
    let sites = dispatch_filesystem_lines("", &catalog);
    let code = code_lines(&catalog);
    for (site, why) in CATALOG_FILESYSTEM {
        let hits = sites.iter().filter(|&&line| code[line - 1].1.contains(site)).count();
        assert_eq!(hits, 1, "stale exception {site:?} ({why})");
    }
    assert_eq!(sites.len(), CATALOG_FILESYSTEM.len());
}

#[test]
fn every_strategy_answers_the_intro_twig() {
    let forest = intro_forest();
    let twig = parse_xpath(INTRO_TWIG).unwrap();
    let expected: BTreeSet<u64> = naive::select(&forest, &twig).into_iter().map(|n| n.0).collect();
    assert_eq!(expected.len(), 1, "exactly one book matches the intro query");

    let engine = QueryEngine::build(
        &forest,
        EngineOptions { strategies: Strategy::ALL.to_vec(), pool_pages: 256, ..Default::default() },
    );
    for s in Strategy::ALL {
        let answer = engine.answer(&twig, s);
        assert_eq!(answer.ids, expected, "strategy {} disagrees with xml::naive", s.label());
    }
}

#[test]
fn strategies_agree_on_every_intro_subpattern() {
    // Smaller patterns hit different planner paths (single-path lookups
    // vs. branching twigs); all strategies must still agree everywhere.
    let forest = intro_forest();
    let engine =
        QueryEngine::build(&forest, EngineOptions { pool_pages: 256, ..Default::default() });
    for xpath in [
        "/book",
        "/book/title",
        "//author",
        "//author[fn='jane']",
        "/book[title='XML']",
        "/book//author[ln='doe']",
        "//allauthors/author[fn='jane'][ln='doe']",
    ] {
        let twig = parse_xpath(xpath).unwrap();
        let expected: BTreeSet<u64> =
            naive::select(&forest, &twig).into_iter().map(|n| n.0).collect();
        for s in Strategy::ALL {
            let answer = engine.answer(&twig, s);
            assert_eq!(
                answer.ids,
                expected,
                "strategy {} disagrees with xml::naive on {xpath}",
                s.label()
            );
        }
    }
}
