//! The rule engine: walks one file's token stream and reports
//! violations of the serving layer's invariants.
//!
//! Shared machinery lives in [`FileView`]: comment-free token indexing,
//! `#[cfg(test)]` suppression spans, and function-boundary spans (the
//! lock-order rule is function-scoped, and the typed-errors rule needs
//! signatures). Each rule is then a small pass over that view.

use crate::config::Config;
use crate::lexer::{lex, Token, TokenKind};

/// One rule violation, pinned to a source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`lock-order`, `typed-errors`, …).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Rule identifiers, shared with the renderer and the allowlist.
pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_TYPED_ERRORS: &str = "typed-errors";
pub const RULE_NO_BLOCKING: &str = "no-blocking-in-handler";
/// Reported against the config file itself when an allow entry matches
/// nothing — stale exceptions are drift, not documentation.
pub const RULE_STALE_ALLOW: &str = "stale-allow";

/// Every rule id the allowlist may reference.
pub const ALL_RULES: &[&str] = &[RULE_LOCK_ORDER, RULE_TYPED_ERRORS, RULE_NO_BLOCKING];

/// True when `rel` is `prefix` itself or lies under it as a directory.
fn path_in(rel: &str, prefix: &str) -> bool {
    rel == prefix || (rel.starts_with(prefix) && rel[prefix.len()..].starts_with('/'))
}

fn path_in_any(rel: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path_in(rel, p))
}

/// A function found in the token stream. Ranges index into
/// [`FileView::code`] (comment-free token positions).
struct FnSpan {
    name: String,
    /// Position of the `fn` keyword.
    fn_ci: usize,
    /// Signature: from after the name up to (exclusive) the body brace
    /// or terminating semicolon.
    sig: (usize, usize),
    /// Body: positions of the `{` and its matching `}`; `None` for
    /// bodyless trait-method declarations.
    body: Option<(usize, usize)>,
}

/// Pre-computed navigation over one file's tokens.
struct FileView<'a> {
    tokens: &'a [Token],
    /// Indices of non-comment tokens, in order.
    code: Vec<usize>,
    /// Ranges over `code` positions covered by a `#[cfg(test)]` item.
    suppressed: Vec<(usize, usize)>,
    fns: Vec<FnSpan>,
}

impl<'a> FileView<'a> {
    fn new(tokens: &'a [Token]) -> FileView<'a> {
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut view = FileView { tokens, code, suppressed: Vec::new(), fns: Vec::new() };
        view.suppressed = view.find_cfg_test_spans();
        view.fns = view.find_fns();
        view
    }

    fn tok(&self, ci: usize) -> &Token {
        &self.tokens[self.code[ci]]
    }

    fn len(&self) -> usize {
        self.code.len()
    }

    fn is_ident(&self, ci: usize, text: &str) -> bool {
        ci < self.len() && self.tok(ci).is_ident(text)
    }

    fn is_punct(&self, ci: usize, text: &str) -> bool {
        ci < self.len() && self.tok(ci).is_punct(text)
    }

    fn suppressed(&self, ci: usize) -> bool {
        self.suppressed.iter().any(|&(a, b)| ci >= a && ci <= b)
    }

    /// Finds every `#[cfg(test)]`-attributed item and returns the span
    /// from the attribute through the item's closing `}` (or `;`).
    /// `#[cfg(all(test, …))]` counts too: any `cfg` attribute whose
    /// argument mentions `test` is treated as test-only.
    fn find_cfg_test_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut ci = 0;
        while ci + 1 < self.len() {
            if !(self.is_punct(ci, "#") && self.is_punct(ci + 1, "[")) {
                ci += 1;
                continue;
            }
            let attr_start = ci;
            let Some(attr_end) = self.match_delim(ci + 1, "[", "]") else { break };
            let is_cfg_test = self.is_ident(ci + 2, "cfg")
                && (ci + 2..attr_end).any(|i| self.is_ident(i, "test"));
            ci = attr_end + 1;
            if !is_cfg_test {
                continue;
            }
            // Skip any further attributes stacked on the same item.
            let mut item = ci;
            while self.is_punct(item, "#") && self.is_punct(item + 1, "[") {
                match self.match_delim(item + 1, "[", "]") {
                    Some(end) => item = end + 1,
                    None => return spans,
                }
            }
            // The item ends at its matching `}` — or at `;` before any
            // brace opens (e.g. `use` declarations).
            let mut j = item;
            let end = loop {
                if j >= self.len() {
                    break self.len().saturating_sub(1);
                }
                if self.is_punct(j, ";") {
                    break j;
                }
                if self.is_punct(j, "{") {
                    break self.match_delim(j, "{", "}").unwrap_or(self.len() - 1);
                }
                j += 1;
            };
            spans.push((attr_start, end));
            ci = end + 1;
        }
        spans
    }

    /// Given the position of an opening delimiter, returns the position
    /// of its matching closer.
    fn match_delim(&self, open_ci: usize, open: &str, close: &str) -> Option<usize> {
        let mut depth = 0i32;
        for ci in open_ci..self.len() {
            if self.is_punct(ci, open) {
                depth += 1;
            } else if self.is_punct(ci, close) {
                depth -= 1;
                if depth == 0 {
                    return Some(ci);
                }
            }
        }
        None
    }

    fn find_fns(&self) -> Vec<FnSpan> {
        let mut fns = Vec::new();
        let mut ci = 0;
        while ci + 1 < self.len() {
            if !self.is_ident(ci, "fn") || self.tok(ci + 1).kind != TokenKind::Ident {
                ci += 1;
                continue;
            }
            let name = self.tok(ci + 1).text.clone();
            // The body `{` is the first brace at paren/bracket depth 0
            // after the name; a `;` there instead means no body.
            let mut depth = 0i32;
            let mut j = ci + 2;
            let mut sig_end = None;
            let mut body = None;
            while j < self.len() {
                let t = self.tok(j);
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => {
                            sig_end = Some(j);
                            body = self.match_delim(j, "{", "}").map(|end| (j, end));
                            break;
                        }
                        ";" if depth == 0 => {
                            sig_end = Some(j);
                            break;
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            let sig_end = sig_end.unwrap_or(self.len());
            fns.push(FnSpan { name, fn_ci: ci, sig: (ci + 2, sig_end), body });
            // Continue *inside* the signature/body so nested fns are
            // found too.
            ci += 2;
        }
        fns
    }
}

/// Runs every applicable rule over one file. `rel` is the file's
/// workspace-relative path with forward slashes.
pub fn scan_file(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let tokens = lex(src);
    let view = FileView::new(&tokens);
    let mut findings = Vec::new();
    rule_lock_order(rel, &view, cfg, &mut findings);
    if path_in_any(rel, &cfg.typed_errors_paths) {
        rule_typed_errors(rel, &view, &mut findings);
    }
    if path_in_any(rel, &cfg.blocking_paths) {
        rule_no_blocking(rel, &view, cfg, &mut findings);
    }
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

fn finding(rule: &'static str, rel: &str, tok: &Token, message: String) -> Finding {
    Finding { rule, file: rel.to_owned(), line: tok.line, col: tok.col, message }
}

/// What a lock-site method call means for ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockKind {
    Maintenance,
    Epoch,
    Pool,
    Frame,
}

/// Rule 1: lock acquisition order. The serving layer's documented order
/// is maintenance mutex → epoch RwLock → pool frame locks, and a frame
/// lock must never be held across a second acquisition of the pool's
/// table lock (`lock`, `read` or `write`). The pass walks each function
/// body, tracks `let`-bound guards (a guard consumed in the same
/// expression — e.g. `.read().clone()` — dies at the statement end and
/// is not tracked), and flags acquisitions that invert the order while
/// an earlier guard is live.
fn rule_lock_order(rel: &str, view: &FileView<'_>, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.maintenance_receiver.is_empty() {
        return; // rule unconfigured
    }
    for f in &view.fns {
        let Some((body_start, body_end)) = f.body else { continue };
        if view.suppressed(f.fn_ci) {
            continue;
        }
        // Live guards: (kind, binding name, brace depth at binding).
        let mut live: Vec<(LockKind, Option<String>, i32)> = Vec::new();
        let mut depth = 0i32;
        for ci in body_start..=body_end {
            let t = view.tok(ci);
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        live.retain(|&(_, _, d)| d <= depth);
                    }
                    _ => {}
                }
                continue;
            }
            // drop(name) releases a guard early.
            if t.is_ident("drop") && view.is_punct(ci + 1, "(") {
                if ci + 2 <= body_end && view.tok(ci + 2).kind == TokenKind::Ident {
                    let name = &view.tok(ci + 2).text;
                    live.retain(|(_, n, _)| n.as_deref() != Some(name.as_str()));
                }
                continue;
            }
            // Lock site: `recv . method ( )` with a configured receiver.
            let Some((kind, site)) = lock_event(view, ci, cfg) else { continue };
            match kind {
                LockKind::Maintenance if live.iter().any(|&(k, _, _)| k == LockKind::Epoch) => {
                    out.push(finding(
                        RULE_LOCK_ORDER,
                        rel,
                        site,
                        format!(
                            "fn {} acquires the maintenance mutex while an epoch guard is live; required order is maintenance -> epoch",
                            f.name
                        ),
                    ));
                }
                LockKind::Pool if live.iter().any(|&(k, _, _)| k == LockKind::Frame) => {
                    out.push(finding(
                        RULE_LOCK_ORDER,
                        rel,
                        site,
                        format!(
                            "fn {} re-acquires the buffer-pool table lock while holding a frame lock; release the frame first",
                            f.name
                        ),
                    ));
                }
                _ => {}
            }
            if let Some(name) = let_binding_for(view, ci, body_start) {
                live.push((kind, Some(name), depth));
            }
        }
    }
}

/// If `ci` starts a `recv.method()` lock acquisition on one of the
/// configured receivers, returns its kind and the receiver token.
fn lock_event<'v>(
    view: &'v FileView<'_>,
    ci: usize,
    cfg: &Config,
) -> Option<(LockKind, &'v Token)> {
    let recv = view.tok(ci);
    if recv.kind != TokenKind::Ident {
        return None;
    }
    if !(view.is_punct(ci + 1, ".") && view.is_punct(ci + 3, "(")) {
        return None;
    }
    let method = view.tok(ci + 2);
    if method.kind != TokenKind::Ident {
        return None;
    }
    let kind = match (recv.text.as_str(), method.text.as_str()) {
        (r, "lock") if r == cfg.maintenance_receiver => LockKind::Maintenance,
        (r, "read" | "write" | "lock") if r == cfg.pool_receiver => LockKind::Pool,
        (r, "read" | "write") if r == cfg.epoch_receiver => LockKind::Epoch,
        (r, "read" | "write" | "lock") if r == cfg.frame_receiver => LockKind::Frame,
        _ => return None,
    };
    Some((kind, recv))
}

/// If the lock expression at `ci` is the whole right-hand side of a
/// `let` statement (`let g = recv.read();`), returns the binding name.
/// A guard consumed further in the same expression (`.clone()`, a
/// method chain) is a temporary; it dies at the statement end and is
/// not treated as held.
fn let_binding_for(view: &FileView<'_>, recv_ci: usize, body_start: usize) -> Option<String> {
    // Walk right: the call's `)` must be followed by `;`.
    let close = view.match_delim(recv_ci + 3, "(", ")")?;
    if !view.is_punct(close + 1, ";") {
        return None;
    }
    // Walk left over the receiver chain (`self . pool . inner`), then
    // expect `= name [mut] let`.
    let mut ci = recv_ci;
    while ci >= 2 && view.is_punct(ci - 1, ".") && view.tok(ci - 2).kind == TokenKind::Ident {
        ci -= 2;
    }
    if ci == body_start || !view.is_punct(ci - 1, "=") {
        return None;
    }
    let name_ci = ci.checked_sub(2)?;
    let name = view.tok(name_ci);
    if name.kind != TokenKind::Ident {
        return None;
    }
    let mut before = name_ci.checked_sub(1)?;
    if view.is_ident(before, "mut") {
        before = before.checked_sub(1)?;
    }
    if view.is_ident(before, "let") {
        Some(name.text.clone())
    } else {
        None
    }
}

/// Rule 2: typed errors in public signatures. A `pub fn` in the scoped
/// crates returning `Result` must not leak `String`,
/// `Box<dyn Error>`, or `io::Error` as its error type.
fn rule_typed_errors(rel: &str, view: &FileView<'_>, out: &mut Vec<Finding>) {
    for f in &view.fns {
        if view.suppressed(f.fn_ci) {
            continue;
        }
        // Plain `pub fn` only: `pub(crate)` is not a public signature.
        if f.fn_ci == 0 || !view.is_ident(f.fn_ci - 1, "pub") {
            continue;
        }
        let (sig_start, sig_end) = f.sig;
        // Find `->` at paren/bracket depth 0.
        let mut depth = 0i32;
        let mut arrow = None;
        for ci in sig_start..sig_end {
            let t = view.tok(ci);
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "-" if depth == 0 && view.is_punct(ci + 1, ">") => {
                        arrow = Some(ci + 2);
                        break;
                    }
                    _ => {}
                }
            }
        }
        let Some(ret_start) = arrow else { continue };
        // Return type runs to the body brace / `;` or a `where` clause.
        let mut ret_end = sig_end;
        for ci in ret_start..sig_end {
            if view.is_ident(ci, "where") {
                ret_end = ci;
                break;
            }
        }
        check_return_type(rel, view, &f.name, ret_start, ret_end, out);
    }
}

fn check_return_type(
    rel: &str,
    view: &FileView<'_>,
    fn_name: &str,
    ret_start: usize,
    ret_end: usize,
    out: &mut Vec<Finding>,
) {
    // Locate `Result` (if any) in the return type.
    let Some(res_ci) = (ret_start..ret_end).find(|&ci| view.is_ident(ci, "Result")) else {
        return;
    };
    let site = view.tok(res_ci);
    // `io::Result` / `std::io::Result` leak io::Error through an alias.
    if res_ci >= 3 && view.is_ident(res_ci - 3, "io") && view.is_punct(res_ci - 1, ":") {
        out.push(finding(
            RULE_TYPED_ERRORS,
            rel,
            site,
            format!("pub fn {fn_name} returns std::io::Result; define a crate-local error type"),
        ));
        return;
    }
    // Split `Result<..>` generics and inspect the error argument.
    if !view.is_punct(res_ci + 1, "<") {
        return; // bare alias like `ServiceResult` — assumed typed
    }
    let mut depth = 0i32;
    let mut top_comma = None;
    let mut end = ret_end;
    for ci in res_ci + 1..ret_end {
        let t = view.tok(ci);
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    end = ci;
                    break;
                }
            }
            "," if depth == 1 => top_comma = top_comma.or(Some(ci)),
            _ => {}
        }
    }
    let Some(comma) = top_comma else { return }; // single-arg alias
    let err_range = comma + 1..end;
    let bad = (err_range.clone()).find_map(|ci| {
        let t = view.tok(ci);
        if t.is_ident("String") {
            return Some("String");
        }
        if t.is_ident("Box") && view.is_punct(ci + 1, "<") && view.is_ident(ci + 2, "dyn") {
            return Some("Box<dyn Error>");
        }
        if t.is_ident("Error") && ci >= 3 && view.is_ident(ci - 3, "io") {
            return Some("io::Error");
        }
        None
    });
    if let Some(ty) = bad {
        out.push(finding(
            RULE_TYPED_ERRORS,
            rel,
            site,
            format!(
                "pub fn {fn_name} leaks {ty} in its public Result; use a crate-local typed error"
            ),
        ));
    }
}

/// Rule 3: no blocking filesystem work in request-dispatch code. The
/// configured paths run on connection threads where every millisecond
/// of inline I/O is tail latency for that peer; filesystem access
/// belongs behind the catalog's attach path or in maintenance. Flags
/// any configured identifier outside `#[cfg(test)]`; deliberate
/// exceptions (e.g. catalog open-on-demand) go in the allowlist with a
/// justification.
fn rule_no_blocking(rel: &str, view: &FileView<'_>, cfg: &Config, out: &mut Vec<Finding>) {
    for ci in 0..view.len() {
        if view.suppressed(ci) {
            continue;
        }
        let t = view.tok(ci);
        if t.kind == TokenKind::Ident && cfg.blocking_forbid.contains(&t.text) {
            out.push(finding(
                RULE_NO_BLOCKING,
                rel,
                t,
                format!(
                    "request-dispatch code must not block on the filesystem, but mentions `{}`",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
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

    fn rules_fired(rel: &str, src: &str) -> Vec<&'static str> {
        scan_file(rel, src, &cfg()).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn blocking_fs_work_fires_only_in_handler_paths_and_not_in_tests() {
        let src = "fn f() -> String { std::fs::read_to_string(\"x\").unwrap_or_default() }";
        assert!(rules_fired("crates/net/src/server.rs", src).contains(&RULE_NO_BLOCKING));
        assert!(!rules_fired("crates/net/src/client.rs", src).contains(&RULE_NO_BLOCKING));
        let test_src = "#[cfg(test)]\nmod tests {\n use std::fs::File;\n}";
        assert!(!rules_fired("crates/net/src/server.rs", test_src).contains(&RULE_NO_BLOCKING));
    }

    #[test]
    fn lock_order_flags_epoch_before_maintenance() {
        let src = "fn f(&self) { let e = self.epoch.read(); let m = self.maintenance.lock(); }";
        assert_eq!(rules_fired("crates/x/src/a.rs", src), vec![RULE_LOCK_ORDER]);
        // Correct order is clean.
        let ok = "fn f(&self) { let m = self.maintenance.lock(); let e = self.epoch.read(); }";
        assert!(rules_fired("crates/x/src/a.rs", ok).is_empty());
    }

    #[test]
    fn lock_order_respects_scopes_and_drop() {
        // Guard dropped before the second acquisition: clean.
        let dropped =
            "fn f(&self) { let e = self.epoch.read(); drop(e); let m = self.maintenance.lock(); }";
        assert!(rules_fired("crates/x/src/a.rs", dropped).is_empty());
        // Guard scoped to an inner block: clean.
        let scoped =
            "fn f(&self) { { let e = self.epoch.read(); } let m = self.maintenance.lock(); }";
        assert!(rules_fired("crates/x/src/a.rs", scoped).is_empty());
        // Momentary pin (`.read().clone()`) is a temporary: clean.
        let pin =
            "fn f(&self) { let s = self.epoch.read().clone(); let m = self.maintenance.lock(); }";
        assert!(rules_fired("crates/x/src/a.rs", pin).is_empty());
    }

    #[test]
    fn frame_across_pool_fires() {
        // The table lock may be a `Mutex` or an `RwLock`.
        for table in ["lock", "read", "write"] {
            let src = format!(
                "fn f(&self) {{ let g = frame.data.write(); let p = self.inner.{table}(); }}"
            );
            assert_eq!(rules_fired("crates/x/src/a.rs", &src), vec![RULE_LOCK_ORDER], "{table}");
        }
    }

    #[test]
    fn typed_errors_flags_leaky_signatures() {
        let bad = "pub fn f() -> Result<u8, String> { Ok(0) }";
        assert_eq!(rules_fired("crates/net/src/a.rs", bad), vec![RULE_TYPED_ERRORS]);
        let io_alias = "pub fn f() -> io::Result<u8> { Ok(0) }";
        assert_eq!(rules_fired("crates/net/src/a.rs", io_alias), vec![RULE_TYPED_ERRORS]);
        let boxed = "pub fn f() -> Result<u8, Box<dyn std::error::Error>> { Ok(0) }";
        assert_eq!(rules_fired("crates/net/src/a.rs", boxed), vec![RULE_TYPED_ERRORS]);
        let typed = "pub fn f() -> Result<u8, FrameError> { Ok(0) }";
        assert!(rules_fired("crates/net/src/a.rs", typed).is_empty());
        // pub(crate) is not a public signature.
        let scoped = "pub(crate) fn f() -> Result<u8, String> { Ok(0) }";
        assert!(rules_fired("crates/net/src/a.rs", scoped).is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r#"fn f() { let s = "File::open"; } // and File here"#;
        assert!(rules_fired("crates/net/src/server.rs", src).is_empty());
    }
}
