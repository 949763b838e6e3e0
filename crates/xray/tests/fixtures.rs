//! Fixture-driven rule tests: each fixture under `tests/fixtures/`
//! deliberately violates one rule at known lines, and the suite pins
//! the exact (rule, line) set each scan produces — plus the two
//! properties that keep the pass honest in CI: allow entries suppress
//! only what they name, and the real workspace is clean under the
//! checked-in `xray.toml`.

use xtwig_xray::{analyze, analyze_source, load_config, AllowEntry, Config, Finding};

/// The scoping the fixtures assume; mirrors the shape of the real
/// `xray.toml` but points the path-scoped rules at the fixtures'
/// pretend locations.
fn fixture_config() -> Config {
    Config {
        typed_errors_paths: vec!["crates/net/src".into()],
        maintenance_receiver: "maintenance".into(),
        epoch_receiver: "epoch".into(),
        pool_receiver: "inner".into(),
        frame_receiver: "data".into(),
        blocking_paths: vec!["crates/net/src/server.rs".into()],
        blocking_forbid: vec!["File".into(), "read_to_string".into()],
        allow: Vec::new(),
    }
}

fn rule_lines(findings: &[Finding]) -> Vec<(&str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn lock_order_fixture_fires_on_both_inversions_only() {
    let src = include_str!("fixtures/lock_order.rs");
    let findings = analyze_source("crates/service/src/lock_order.rs", src, &fixture_config());
    assert_eq!(rule_lines(&findings), vec![("lock-order", 8), ("lock-order", 14)], "{findings:#?}");
}

#[test]
fn typed_errors_fixture_flags_the_three_leaky_signatures() {
    let src = include_str!("fixtures/typed_errors.rs");
    let findings = analyze_source("crates/net/src/typed_errors.rs", src, &fixture_config());
    assert_eq!(
        rule_lines(&findings),
        vec![("typed-errors", 4), ("typed-errors", 8), ("typed-errors", 12)],
        "{findings:#?}"
    );
    // The same content outside the scoped paths is not xray's business.
    assert!(analyze_source("crates/core/src/typed_errors.rs", src, &fixture_config()).is_empty());
}

#[test]
fn no_blocking_fixture_fires_outside_cfg_test_and_scoped_path_only() {
    let src = include_str!("fixtures/no_blocking_in_handler.rs");
    let findings = analyze_source("crates/net/src/server.rs", src, &fixture_config());
    assert_eq!(
        rule_lines(&findings),
        vec![("no-blocking-in-handler", 5), ("no-blocking-in-handler", 9)],
        "{findings:#?}"
    );
    // The same content outside the dispatch paths is not xray's business.
    assert!(analyze_source("crates/net/src/client.rs", src, &fixture_config()).is_empty());
}

#[test]
fn allow_entries_suppress_by_rule_path_and_line_content() {
    let src = include_str!("fixtures/typed_errors.rs");
    let mut cfg = fixture_config();
    cfg.allow.push(AllowEntry {
        rule: "typed-errors".into(),
        path: "crates/net/src/typed_errors.rs".into(),
        contains: "pub fn leaks_string".into(),
        why: "fixture exercises suppression".into(),
    });
    let findings = analyze_source("crates/net/src/typed_errors.rs", src, &cfg);
    // Only the named line disappears; the other two still fire.
    assert_eq!(
        rule_lines(&findings),
        vec![("typed-errors", 8), ("typed-errors", 12)],
        "{findings:#?}"
    );
    // The same entry scoped to a different file suppresses nothing.
    let mut other = fixture_config();
    other.allow.push(AllowEntry {
        rule: "typed-errors".into(),
        path: "crates/net/src/elsewhere.rs".into(),
        contains: "pub fn leaks_string".into(),
        why: "wrong file on purpose".into(),
    });
    assert_eq!(analyze_source("crates/net/src/typed_errors.rs", src, &other).len(), 3);
}

#[test]
fn the_workspace_is_clean_under_the_checked_in_config() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = load_config(&root.join("xray.toml")).expect("xray.toml loads");
    let report = analyze(&root, &cfg).expect("workspace scan runs");
    assert!(report.files_scanned > 50, "walk found {} files — broken?", report.files_scanned);
    assert!(report.is_clean(), "xray findings:\n{}", report.render());
}
