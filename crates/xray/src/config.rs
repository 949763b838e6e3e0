//! Parser for `xray.toml` — rule scoping plus the allowlist.
//!
//! The grammar is a deliberately small TOML subset, read by hand (the
//! workspace is std-only): `[section]` and `[[allow]]` headers,
//! `key = "string"`, `key = ["a", "b"]` (arrays may span lines), and
//! `#` comments. Anything outside that subset is a hard error with a
//! line number — a config typo silently skipping a rule would be worse
//! than the tool refusing to run.

use std::collections::BTreeMap;
use std::fmt;

/// One deliberate exception: a finding is suppressed when its file path
/// ends with `path`, its rule equals `rule`, and the *source line text*
/// contains `contains`. Matching on line content rather than line
/// numbers keeps entries from rotting as files shift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub contains: String,
    /// Human justification; required so every exception carries its
    /// reasoning in the diff that adds it.
    pub why: String,
}

/// Scoping and parameters for the rule set.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes (workspace-relative) where `typed-errors` applies
    /// to `pub fn` returns.
    pub typed_errors_paths: Vec<String>,
    /// Receiver name of the maintenance `Mutex` (lock-order rule).
    pub maintenance_receiver: String,
    /// Receiver name of the epoch `RwLock` (lock-order rule).
    pub epoch_receiver: String,
    /// Receiver name of the buffer-pool table lock, a `Mutex` or an
    /// `RwLock` (lock-order).
    pub pool_receiver: String,
    /// Receiver name of per-frame data locks (lock-order).
    pub frame_receiver: String,
    /// Path prefixes where `no-blocking-in-handler` applies: request
    /// dispatch code that must not do filesystem work inline.
    pub blocking_paths: Vec<String>,
    /// Identifiers forbidden in those paths (outside `#[cfg(test)]`).
    pub blocking_forbid: Vec<String>,
    /// Deliberate exceptions.
    pub allow: Vec<AllowEntry>,
}

/// A config-file syntax or completeness error, with its line number.
#[derive(Debug)]
pub struct ConfigError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xray.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError { line, message: message.into() }
}

#[derive(Debug, Clone)]
enum Value {
    Str(String),
    List(Vec<String>),
}

impl Value {
    fn into_str(self, line: u32, key: &str) -> Result<String, ConfigError> {
        match self {
            Value::Str(s) => Ok(s),
            Value::List(_) => Err(err(line, format!("key {key:?} must be a string"))),
        }
    }

    fn into_list(self, line: u32, key: &str) -> Result<Vec<String>, ConfigError> {
        match self {
            Value::List(l) => Ok(l),
            Value::Str(_) => Err(err(line, format!("key {key:?} must be an array"))),
        }
    }
}

/// A `[section]` or one `[[allow]]` instance, as raw key/value pairs.
struct Section {
    name: String,
    header_line: u32,
    entries: BTreeMap<String, (u32, Value)>,
}

/// Parses config text into a [`Config`], validating that every section
/// and key is one the tool knows about.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let sections = split_sections(text)?;
    let mut cfg = Config::default();
    for mut sec in sections {
        let line = sec.header_line;
        match sec.name.as_str() {
            "rule.typed-errors" => {
                cfg.typed_errors_paths = take_list(&mut sec, "paths")?;
                finish(sec)?;
            }
            "rule.lock-order" => {
                cfg.maintenance_receiver = take_str(&mut sec, "maintenance_receiver")?;
                cfg.epoch_receiver = take_str(&mut sec, "epoch_receiver")?;
                cfg.pool_receiver = take_str(&mut sec, "pool_receiver")?;
                cfg.frame_receiver = take_str(&mut sec, "frame_receiver")?;
                finish(sec)?;
            }
            "rule.no-blocking-in-handler" => {
                cfg.blocking_paths = take_list(&mut sec, "paths")?;
                cfg.blocking_forbid = take_list(&mut sec, "forbid")?;
                finish(sec)?;
            }
            "allow" => {
                let entry = AllowEntry {
                    rule: take_str(&mut sec, "rule")?,
                    path: take_str(&mut sec, "path")?,
                    contains: take_str(&mut sec, "contains")?,
                    why: take_str(&mut sec, "why")?,
                };
                if entry.why.trim().is_empty() {
                    return Err(err(line, "allow entry has an empty `why` justification"));
                }
                finish(sec)?;
                cfg.allow.push(entry);
            }
            other => return Err(err(line, format!("unknown section [{other}]"))),
        }
    }
    Ok(cfg)
}

fn take_str(sec: &mut Section, key: &str) -> Result<String, ConfigError> {
    match sec.entries.remove(key) {
        Some((line, v)) => v.into_str(line, key),
        None => Err(err(sec.header_line, format!("section [{}] is missing key {key:?}", sec.name))),
    }
}

fn take_list(sec: &mut Section, key: &str) -> Result<Vec<String>, ConfigError> {
    match sec.entries.remove(key) {
        Some((line, v)) => v.into_list(line, key),
        None => Err(err(sec.header_line, format!("section [{}] is missing key {key:?}", sec.name))),
    }
}

fn finish(sec: Section) -> Result<(), ConfigError> {
    if let Some((key, (line, _))) = sec.entries.into_iter().next() {
        return Err(err(line, format!("unknown key {key:?} in section [{}]", sec.name)));
    }
    Ok(())
}

fn split_sections(text: &str) -> Result<Vec<Section>, ConfigError> {
    let mut sections: Vec<Section> = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx as u32 + 1;
        let line = strip_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let name =
                rest.strip_suffix("]]").ok_or_else(|| err(lineno, "malformed [[table]] header"))?;
            sections.push(Section {
                name: name.trim().to_owned(),
                header_line: lineno,
                entries: BTreeMap::new(),
            });
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name =
                rest.strip_suffix(']').ok_or_else(|| err(lineno, "malformed [section] header"))?;
            sections.push(Section {
                name: name.trim().to_owned(),
                header_line: lineno,
                entries: BTreeMap::new(),
            });
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(err(lineno, format!("expected `key = value`, got {line:?}")));
        };
        let key = line[..eq].trim().to_owned();
        let mut value = line[eq + 1..].trim().to_owned();
        // Arrays may span lines: keep consuming until brackets balance.
        while value.starts_with('[') && !array_closed(&value) {
            let Some((_, next)) = lines.next() else {
                return Err(err(lineno, format!("unterminated array for key {key:?}")));
            };
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        let parsed = parse_value(&value, lineno)?;
        let Some(sec) = sections.last_mut() else {
            return Err(err(lineno, format!("key {key:?} appears before any [section]")));
        };
        if sec.entries.insert(key.clone(), (lineno, parsed)).is_some() {
            return Err(err(lineno, format!("duplicate key {key:?} in section [{}]", sec.name)));
        }
    }
    Ok(sections)
}

/// Strips a `#` comment, respecting `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in line.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// True once a `[` array literal has its matching `]` outside strings.
fn array_closed(value: &str) -> bool {
    let mut in_str = false;
    let mut escape = false;
    for c in value.chars() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            ']' if !in_str => return true,
            _ => {}
        }
    }
    false
}

fn parse_value(value: &str, line: u32) -> Result<Value, ConfigError> {
    if let Some(body) = value.strip_prefix('[') {
        let body =
            body.strip_suffix(']').ok_or_else(|| err(line, "array missing closing bracket"))?;
        let mut items = Vec::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            if rest.starts_with(',') {
                rest = rest[1..].trim_start();
                continue;
            }
            let (s, remainder) = parse_string(rest, line)?;
            items.push(s);
            rest = remainder.trim_start();
        }
        return Ok(Value::List(items));
    }
    let (s, rest) = parse_string(value, line)?;
    if !rest.trim().is_empty() {
        return Err(err(line, format!("trailing content after string: {rest:?}")));
    }
    Ok(Value::Str(s))
}

/// Parses one double-quoted string off the front of `input`, handling
/// `\"` and `\\` escapes; returns (string, remainder).
fn parse_string(input: &str, line: u32) -> Result<(String, &str), ConfigError> {
    let rest = input
        .strip_prefix('"')
        .ok_or_else(|| err(line, format!("expected a double-quoted string at {input:?}")))?;
    let mut out = String::new();
    let mut escape = false;
    for (i, c) in rest.char_indices() {
        if escape {
            out.push(match c {
                'n' => '\n',
                't' => '\t',
                other => other,
            });
            escape = false;
            continue;
        }
        match c {
            '\\' => escape = true,
            '"' => return Ok((out, &rest[i + 1..])),
            other => out.push(other),
        }
    }
    Err(err(line, "unterminated string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# scoping for the typed-errors rule
[rule.typed-errors]
paths = [
    "crates/net/src",
    "crates/service/src", # serving dispatch
]

[rule.lock-order]
maintenance_receiver = "maintenance"
epoch_receiver = "epoch"
pool_receiver = "inner"
frame_receiver = "data"

[rule.no-blocking-in-handler]
paths = ["crates/net/src/server.rs"]
forbid = ["File", "read_to_string"]

[[allow]]
rule = "typed-errors"
path = "crates/net/src/server.rs"
contains = "pub fn bind"
why = "OS listener lifecycle, not the request path"
"#;

    #[test]
    fn parses_full_config() {
        let cfg = parse(SAMPLE).unwrap();
        assert_eq!(cfg.typed_errors_paths, vec!["crates/net/src", "crates/service/src"]);
        assert_eq!(cfg.maintenance_receiver, "maintenance");
        assert_eq!(cfg.blocking_paths, vec!["crates/net/src/server.rs"]);
        assert_eq!(cfg.blocking_forbid, vec!["File", "read_to_string"]);
        assert_eq!(cfg.allow.len(), 1);
        assert_eq!(cfg.allow[0].contains, "pub fn bind");
    }

    #[test]
    fn rejects_unknown_section_and_key() {
        assert!(parse("[rule.nonsense]\npaths = []\n").is_err());
        let e = parse("[rule.typed-errors]\npaths = []\nbogus = \"x\"\n").unwrap_err();
        assert!(e.to_string().contains("bogus"), "{e}");
    }

    #[test]
    fn rejects_empty_justification() {
        let text = "[[allow]]\nrule = \"r\"\npath = \"p\"\ncontains = \"c\"\nwhy = \"  \"\n";
        assert!(parse(text).unwrap_err().to_string().contains("justification"));
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let text = "[[allow]]\nrule = \"r\"\npath = \"p\"\ncontains = \"a # b\"\nwhy = \"ok\"\n";
        assert_eq!(parse(text).unwrap().allow[0].contains, "a # b");
    }

    #[test]
    fn missing_key_names_the_section() {
        let e = parse("[rule.lock-order]\nmaintenance_receiver = \"m\"\n").unwrap_err();
        assert!(e.to_string().contains("lock-order"), "{e}");
    }
}
