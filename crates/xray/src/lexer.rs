//! A hand-rolled Rust lexer with line/column tracking.
//!
//! The rules need exactly what a token stream gives: identifiers,
//! punctuation, literals, and comments, each pinned to a source
//! position — not a full parse tree. Rolling the lexer by hand keeps
//! the crate std-only (no `syn`; the build environment is offline).
//! Comments stay in the stream as tokens of their own, which the rules
//! filter out.
//!
//! Correctness notes the rules depend on:
//! * string/char/byte literals are consumed whole, so `"unwrap()"` in a
//!   string can never look like a call;
//! * raw strings honor their `#` fences (`r#"…"#`), so embedded quotes
//!   don't end them early;
//! * block comments nest, as in real Rust;
//! * lifetimes (`'a`) are distinguished from char literals (`'a'`) so a
//!   lifetime never eats the rest of the line as a "string".

/// What a token is; `text` carries the exact source slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `maintenance`, …).
    Ident,
    /// A lifetime such as `'a` (without a closing quote).
    Lifetime,
    /// Any literal: number, string, raw string, char, byte string.
    Literal,
    /// One punctuation character (`.`, `(`, `[`, `!`, …).
    Punct,
    /// `// …` to end of line (text includes the slashes).
    LineComment,
    /// `/* … */`, nesting respected (text includes the delimiters).
    BlockComment,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification (see [`TokenKind`]).
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Token {
    /// True for `Ident` tokens with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True for `Punct` tokens with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Cursor<'a> {
        Cursor { chars: src.chars().peekable(), line: 1, col: 1 }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    /// Peeks one past the next character (clones the cheap iterator).
    fn peek2(&self) -> Option<char> {
        let mut it = self.chars.clone();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into a token stream. Never fails: unterminated literals
/// and comments are consumed to end of input (the rules prefer a best-
/// effort stream over refusing a file rustc itself would reject later).
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if c == '/' && cur.peek2() == Some('/') {
            out.push(lex_line_comment(&mut cur, line, col));
            continue;
        }
        if c == '/' && cur.peek2() == Some('*') {
            out.push(lex_block_comment(&mut cur, line, col));
            continue;
        }
        if c == '"' {
            out.push(lex_string(&mut cur, line, col));
            continue;
        }
        if c == 'r' || c == 'b' {
            if let Some(tok) = try_lex_prefixed_literal(&mut cur, line, col) {
                out.push(tok);
                continue;
            }
        }
        if c == '\'' {
            out.push(lex_quote(&mut cur, line, col));
            continue;
        }
        if is_ident_start(c) {
            let mut text = String::new();
            while let Some(c) = cur.peek() {
                if is_ident_continue(c) {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
            out.push(Token { kind: TokenKind::Ident, text, line, col });
            continue;
        }
        if c.is_ascii_digit() {
            out.push(lex_number(&mut cur, line, col));
            continue;
        }
        cur.bump();
        out.push(Token { kind: TokenKind::Punct, text: c.to_string(), line, col });
    }
    out
}

fn lex_line_comment(cur: &mut Cursor<'_>, line: u32, col: u32) -> Token {
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    Token { kind: TokenKind::LineComment, text, line, col }
}

fn lex_block_comment(cur: &mut Cursor<'_>, line: u32, col: u32) -> Token {
    let mut text = String::new();
    let mut depth = 0u32;
    while let Some(c) = cur.peek() {
        if c == '/' && cur.peek2() == Some('*') {
            depth += 1;
            text.push('/');
            text.push('*');
            cur.bump();
            cur.bump();
            continue;
        }
        if c == '*' && cur.peek2() == Some('/') {
            depth -= 1;
            text.push('*');
            text.push('/');
            cur.bump();
            cur.bump();
            if depth == 0 {
                break;
            }
            continue;
        }
        text.push(c);
        cur.bump();
    }
    Token { kind: TokenKind::BlockComment, text, line, col }
}

fn lex_string(cur: &mut Cursor<'_>, line: u32, col: u32) -> Token {
    let mut text = String::new();
    text.push(cur.bump().expect("caller saw an opening quote")); // opening "
    while let Some(c) = cur.bump() {
        text.push(c);
        if c == '\\' {
            if let Some(next) = cur.bump() {
                text.push(next);
            }
            continue;
        }
        if c == '"' {
            break;
        }
    }
    Token { kind: TokenKind::Literal, text, line, col }
}

/// `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`, `b'x'` — or `None` when the
/// `r`/`b` starts a plain identifier.
fn try_lex_prefixed_literal(cur: &mut Cursor<'_>, line: u32, col: u32) -> Option<Token> {
    // Look ahead without consuming: prefix chars, optional hashes, then
    // a quote — anything else is an identifier like `raw` or `bytes`.
    let mut it = cur.chars.clone();
    let mut prefix = String::new();
    let first = it.next()?;
    prefix.push(first);
    let mut second = it.next();
    if first == 'b' && second == Some('r') {
        prefix.push('r');
        second = it.next();
    }
    let mut hashes = 0usize;
    while second == Some('#') {
        hashes += 1;
        second = it.next();
    }
    match second {
        Some('"') => {}
        Some('\'') if prefix == "b" && hashes == 0 => {
            // Byte char literal b'x' (escapes included).
            let mut text = String::new();
            text.push(cur.bump()?); // b
            text.push(cur.bump()?); // '
            while let Some(c) = cur.bump() {
                text.push(c);
                if c == '\\' {
                    if let Some(n) = cur.bump() {
                        text.push(n);
                    }
                    continue;
                }
                if c == '\'' {
                    break;
                }
            }
            return Some(Token { kind: TokenKind::Literal, text, line, col });
        }
        _ => return None,
    }
    let raw = prefix.contains('r');
    if !raw && hashes > 0 {
        return None; // `b#` is not a literal prefix
    }
    // Consume prefix + hashes + opening quote for real.
    let mut text = String::new();
    for _ in 0..prefix.len() + hashes + 1 {
        text.push(cur.bump()?);
    }
    if raw {
        // Ends at `"` followed by exactly `hashes` hashes.
        while let Some(c) = cur.bump() {
            text.push(c);
            if c == '"' {
                let mut it = cur.chars.clone();
                if (0..hashes).all(|_| it.next() == Some('#')) {
                    for _ in 0..hashes {
                        text.push(cur.bump()?);
                    }
                    break;
                }
            }
        }
    } else {
        // Escaped string body (b"…").
        while let Some(c) = cur.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(n) = cur.bump() {
                    text.push(n);
                }
                continue;
            }
            if c == '"' {
                break;
            }
        }
    }
    Some(Token { kind: TokenKind::Literal, text, line, col })
}

/// Disambiguates `'a'` (char literal) from `'a` (lifetime).
fn lex_quote(cur: &mut Cursor<'_>, line: u32, col: u32) -> Token {
    let mut it = cur.chars.clone();
    it.next(); // the opening quote
    let first = it.next();
    let second = it.next();
    let is_char = match first {
        Some('\\') => true,
        Some(c) if is_ident_start(c) => second == Some('\''),
        Some(_) => true, // '(' , '1' , … are char literals
        None => false,
    };
    if is_char {
        let mut text = String::new();
        text.push(cur.bump().expect("caller saw an opening quote"));
        while let Some(c) = cur.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(n) = cur.bump() {
                    text.push(n);
                }
                continue;
            }
            if c == '\'' {
                break;
            }
        }
        Token { kind: TokenKind::Literal, text, line, col }
    } else {
        let mut text = String::new();
        text.push(cur.bump().expect("caller saw an opening quote"));
        while let Some(c) = cur.peek() {
            if is_ident_continue(c) {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
        Token { kind: TokenKind::Lifetime, text, line, col }
    }
}

fn lex_number(cur: &mut Cursor<'_>, line: u32, col: u32) -> Token {
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if c.is_alphanumeric() || c == '_' {
            text.push(c);
            cur.bump();
        } else if c == '.' {
            // `1.5` continues the number; `1..n` and `x.method()` do not.
            match cur.peek2() {
                Some(d) if d.is_ascii_digit() => {
                    text.push(c);
                    cur.bump();
                }
                _ => break,
            }
        } else {
            break;
        }
    }
    Token { kind: TokenKind::Literal, text, line, col }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_puncts_and_positions() {
        let toks = lex("foo.unwrap()\n  bar");
        assert_eq!(toks.len(), 6);
        assert!(toks[0].is_ident("foo"));
        assert!(toks[1].is_punct("."));
        assert!(toks[2].is_ident("unwrap"));
        assert_eq!((toks[2].line, toks[2].col), (1, 5));
        assert_eq!((toks[5].line, toks[5].col), (2, 3));
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "x.unwrap()";"#);
        assert!(toks.iter().filter(|(k, _)| *k == TokenKind::Literal).count() == 1);
        assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn raw_strings_honor_hash_fences() {
        let toks = lex(r##"let s = r#"contains " quote"#; x.unwrap()"##);
        let lit = toks.iter().find(|t| t.kind == TokenKind::Literal).unwrap();
        assert!(lit.text.contains("quote"));
        assert!(toks.iter().any(|t| t.is_ident("unwrap")), "lexing continues after the raw string");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'b' }");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Lifetime && t == "'a"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Literal && t == "'b'"));
    }

    #[test]
    fn block_comments_nest() {
        let toks = kinds("/* outer /* inner */ still outer */ ident");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert_eq!(toks[1].1, "ident");
    }

    #[test]
    fn byte_and_raw_byte_literals() {
        let toks = kinds(r#"w.write(b"XTWG"); let c = b'\n'; let r = br"raw";"#);
        let lits: Vec<&String> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Literal).map(|(_, t)| t).collect();
        assert!(lits.iter().any(|t| t.starts_with("b\"")));
        assert!(lits.iter().any(|t| t.starts_with("b'")));
        assert!(lits.iter().any(|t| t.starts_with("br")));
    }

    #[test]
    fn numbers_keep_suffixes_and_stop_at_ranges() {
        let toks = kinds("for i in 0..10u32 { a[i] }");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Literal && t == "0"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Literal && t == "10u32"));
        let floats = kinds("let x = 1.5;");
        assert!(floats.iter().any(|(k, t)| *k == TokenKind::Literal && t == "1.5"));
    }
}
