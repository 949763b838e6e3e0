//! xtwig-xray: workspace static analysis for the serving layer's
//! concurrency and error-discipline invariants.
//!
//! The pass walks every `src/` file in the workspace (skipping
//! `target/` and test/fixture directories — fixtures deliberately
//! violate the rules), lexes each with a hand-rolled line/column
//! tracking lexer, and runs three repo-specific rules (panic paths,
//! unchecked indexing and undocumented `unsafe` are clippy's: see
//! `[workspace.lints.clippy]` in the root manifest):
//!
//! * `lock-order` — maintenance mutex before epoch lock; no pool
//!   re-acquisition while a frame lock is held;
//! * `typed-errors` — `pub fn` Results in the scoped crates use
//!   crate-local error types (no `String`/`Box<dyn Error>`/`io::Error`);
//! * `no-blocking-in-handler` — no inline filesystem work in
//!   request-dispatch code.
//!
//! Deliberate exceptions live in `xray.toml` `[[allow]]` entries keyed
//! by (rule, path suffix, line-content substring) with a mandatory
//! justification; entries that match nothing are themselves findings
//! (`stale-allow`), so the allowlist cannot rot.

mod config;
mod lexer;
mod rules;

pub use config::{parse as parse_config, AllowEntry, Config, ConfigError};
pub use rules::{Finding, ALL_RULES, RULE_STALE_ALLOW};

use std::fmt;
use std::path::{Path, PathBuf};

/// The result of one analysis run.
#[derive(Debug)]
pub struct Report {
    /// Findings that survived the allowlist, sorted by (file, line,
    /// col).
    pub findings: Vec<Finding>,
    /// How many files were scanned (sanity signal: a broken walk that
    /// scans nothing must not read as a clean run).
    pub files_scanned: usize,
}

impl Report {
    /// True when the run produced no findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders findings one per line as `file:line:col RULE message`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{}:{}:{} {} {}\n", f.file, f.line, f.col, f.rule, f.message));
        }
        out
    }
}

/// A failure of the run itself (I/O or config), as opposed to
/// findings, which are the run's *output*.
#[derive(Debug)]
pub enum XrayError {
    /// The config file failed to load or parse.
    Config(ConfigError),
    /// A workspace file could not be read.
    Io { path: PathBuf, error: std::io::Error },
    /// An allow entry references a rule id that does not exist.
    UnknownRule { rule: String },
}

impl fmt::Display for XrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XrayError::Config(e) => write!(f, "{e}"),
            XrayError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            XrayError::UnknownRule { rule } => {
                write!(
                    f,
                    "allow entry references unknown rule {rule:?} (known: {})",
                    ALL_RULES.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for XrayError {}

impl From<ConfigError> for XrayError {
    fn from(e: ConfigError) -> XrayError {
        XrayError::Config(e)
    }
}

/// Loads `xray.toml` from `path` and validates rule references.
pub fn load_config(path: &Path) -> Result<Config, XrayError> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| XrayError::Io { path: path.to_owned(), error })?;
    let cfg = config::parse(&text)?;
    for entry in &cfg.allow {
        if !ALL_RULES.contains(&entry.rule.as_str()) {
            return Err(XrayError::UnknownRule { rule: entry.rule.clone() });
        }
    }
    Ok(cfg)
}

/// Analyzes every workspace `src/` file under `root`. Findings matched
/// by an allow entry are suppressed; allow entries that matched nothing
/// become `stale-allow` findings against the config.
pub fn analyze(root: &Path, cfg: &Config) -> Result<Report, XrayError> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut used = vec![false; cfg.allow.len()];
    let mut findings = Vec::new();
    let files_scanned = files.len();
    for rel in files {
        let abs = root.join(&rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|error| XrayError::Io { path: abs.clone(), error })?;
        findings.extend(check_source(&rel, &src, cfg, &mut used));
    }
    for (i, entry) in cfg.allow.iter().enumerate() {
        if !used[i] {
            findings.push(Finding {
                rule: RULE_STALE_ALLOW,
                file: "xray.toml".to_owned(),
                line: 1,
                col: 1,
                message: format!(
                    "allow entry (rule {:?}, path {:?}, contains {:?}) matched nothing; remove it",
                    entry.rule, entry.path, entry.contains
                ),
            });
        }
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.col).cmp(&(b.file.as_str(), b.line, b.col)));
    Ok(Report { findings, files_scanned })
}

/// Analyzes a single in-memory source file (fixture tests drive this
/// directly). `rel` is the path the rules see for scoping; allow
/// entries in `cfg` are applied but stale entries are not reported.
pub fn analyze_source(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let mut used = vec![false; cfg.allow.len()];
    check_source(rel, src, cfg, &mut used)
}

fn check_source(rel: &str, src: &str, cfg: &Config, used: &mut [bool]) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    rules::scan_file(rel, src, cfg)
        .into_iter()
        .filter(|f| {
            let line_text = lines.get(f.line as usize - 1).copied().unwrap_or("");
            let mut suppressed = false;
            for (i, entry) in cfg.allow.iter().enumerate() {
                if entry.rule == f.rule
                    && path_suffix_match(rel, &entry.path)
                    && line_text.contains(&entry.contains)
                {
                    used[i] = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect()
}

/// Allow entries match by path suffix on component boundaries, so
/// `net/src/frame.rs` matches `crates/net/src/frame.rs` but `rame.rs`
/// does not.
fn path_suffix_match(rel: &str, suffix: &str) -> bool {
    rel == suffix || rel.ends_with(&format!("/{suffix}"))
}

/// Recursively collects workspace-relative paths of `.rs` files that
/// live under a `src/` directory. Skips `target`, hidden directories,
/// and anything under a `tests/`, `benches/`, or `fixtures/` directory
/// (fixtures violate the rules on purpose; integration tests are
/// covered by clippy's pass, not xray's serving-path rules).
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), XrayError> {
    let entries =
        std::fs::read_dir(dir).map_err(|error| XrayError::Io { path: dir.to_owned(), error })?;
    for entry in entries {
        let entry = entry.map_err(|error| XrayError::Io { path: dir.to_owned(), error })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target"
                || name == "tests"
                || name == "benches"
                || name == "fixtures"
                || name.starts_with('.')
            {
                continue;
            }
            collect_rs_files(root, &path, out)?;
            continue;
        }
        if !name.ends_with(".rs") {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        if rel.split('/').any(|seg| seg == "src") {
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_with_allow() -> Config {
        let mut cfg =
            Config { typed_errors_paths: vec!["crates/net/src".into()], ..Config::default() };
        cfg.allow.push(AllowEntry {
            rule: "typed-errors".into(),
            path: "crates/net/src/a.rs".into(),
            contains: "pub fn bind".into(),
            why: "OS listener lifecycle".into(),
        });
        cfg
    }

    #[test]
    fn allowlist_suppresses_by_line_content() {
        let cfg = cfg_with_allow();
        let hit = "pub fn bind() -> std::io::Result<u8> { Ok(0) }";
        assert!(analyze_source("crates/net/src/a.rs", hit, &cfg).is_empty());
        // Same rule, different line content: still fires.
        let miss = "pub fn accept() -> std::io::Result<u8> { Ok(0) }";
        assert_eq!(analyze_source("crates/net/src/a.rs", miss, &cfg).len(), 1);
        // Same content, different file: still fires.
        assert_eq!(analyze_source("crates/net/src/b.rs", hit, &cfg).len(), 1);
    }

    #[test]
    fn suffix_match_respects_component_boundaries() {
        assert!(path_suffix_match("crates/net/src/frame.rs", "net/src/frame.rs"));
        assert!(path_suffix_match("crates/net/src/frame.rs", "crates/net/src/frame.rs"));
        assert!(!path_suffix_match("crates/net/src/frame.rs", "rame.rs"));
    }

    #[test]
    fn render_format_is_stable() {
        let report = Report {
            findings: vec![Finding {
                rule: "lock-order",
                file: "crates/net/src/a.rs".into(),
                line: 3,
                col: 7,
                message: "boom".into(),
            }],
            files_scanned: 1,
        };
        assert_eq!(report.render(), "crates/net/src/a.rs:3:7 lock-order boom\n");
    }
}
