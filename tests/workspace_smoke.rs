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

/// The static-analysis gate is wired in several places — the
/// checked-in config, the per-rule fixtures, the CI lint job, and the
/// README — and this test pins them together so that deleting any one
/// piece fails loudly instead of quietly un-gating the workspace.
#[test]
fn xray_gate_stays_wired() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // The checked-in config parses, references only known rules, and
    // justifies every exception (empty `why` is a parse error, but the
    // assertion documents the contract where the drift test lives).
    let cfg = xtwig::xray::load_config(&root.join("xray.toml")).unwrap();
    assert!(!cfg.allow.is_empty(), "xray.toml lost its allow entries");
    assert!(cfg.allow.iter().all(|a| !a.why.trim().is_empty()), "every allow entry needs a why");
    // One fixture per rule keeps the rule engine honest, and the config
    // scopes no rule the engine does not have (the parser rejects an
    // unknown section already; this is where the contract is written
    // down). Both follow `ALL_RULES`, so adding or retiring a rule is
    // one edit in `rules.rs`.
    let fixtures = root.join("crates/xray/tests/fixtures");
    for rule in xtwig::xray::ALL_RULES {
        let fixture = format!("{}.rs", rule.replace('-', "_"));
        assert!(fixtures.join(&fixture).is_file(), "missing xray fixture {fixture}");
    }
    let toml = std::fs::read_to_string(root.join("xray.toml")).unwrap();
    for section in toml.lines().filter_map(|l| l.strip_prefix("[rule.")) {
        let rule = section.trim_end().trim_end_matches(']');
        assert!(xtwig::xray::ALL_RULES.contains(&rule), "xray.toml scopes unknown rule {rule}");
    }
    // CI runs the pass in the fail-fast lint job, and the README
    // documents the gate. The panic-path and SAFETY-comment rules xray
    // used to carry are clippy's now: the same job must keep denying
    // them.
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap();
    assert!(ci.contains("cargo run -p xtwig-xray"), "CI lint job must run xray");
    assert!(
        ci.contains("-- -D warnings -D clippy::undocumented_unsafe_blocks"),
        "CI clippy must deny warnings and undocumented unsafe"
    );
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    for lint in ["unwrap_used", "expect_used", "panic", "indexing_slicing"] {
        assert!(manifest.contains(&format!("{lint} = \"warn\"")), "workspace lints lost {lint}");
    }
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(readme.contains("## Static analysis"), "README lost its static-analysis section");
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
