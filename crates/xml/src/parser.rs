//! A small, dependency-free XML parser.
//!
//! Supports the subset needed for the paper's datasets: elements,
//! attributes, character data, CDATA sections, comments, processing
//! instructions (skipped), an optional XML declaration and DOCTYPE line
//! (skipped, no internal subset expansion), and the five predefined
//! entities plus decimal/hex character references.
//!
//! Whitespace-only text between elements is dropped (the paper's data
//! model has no whitespace nodes); any other text becomes the owning
//! element's leaf value.

use crate::tree::{NodeId, XmlForest};
use std::fmt;

/// The deepest node a parsed document may hold: its root element is at
/// depth 1, and an attribute sits one level below its element.
///
/// The bound comes from the index layouts, not from XML. An ASR row
/// stores its root path's ids as separate 8-byte columns (a Plain
/// IdList: a one-byte count plus 8 bytes an id), so a path 206 nodes
/// deep needs a 1 650-byte value — more than the 1 644 bytes a B+-tree
/// leaf cell takes — and the build would fail long after the parse
/// succeeded. Refusing the document here names the limit instead.
pub const MAX_DEPTH: usize = 205;

/// Parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one XML document from `input`, appending it to `forest`.
/// Returns the document root id.
pub fn parse_document(forest: &mut XmlForest, input: &str) -> Result<NodeId, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_prolog()?;
    let mut builder = forest.builder();
    let mut root: Option<NodeId> = None;
    let mut depth = 0usize;
    loop {
        p.skip_ws_if(depth == 0);
        if p.at_end() {
            break;
        }
        if p.peek() == Some(b'<') {
            match p.peek_at(1) {
                Some(b'/') => {
                    let name = p.parse_close_tag()?;
                    if depth == 0 {
                        return Err(p.err(format!("unmatched close tag </{name}>")));
                    }
                    builder.close();
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Some(b'!') => p.skip_comment_or_cdata(&mut builder, depth)?,
                Some(b'?') => p.skip_pi()?,
                _ => {
                    if depth == 0 && root.is_some() {
                        return Err(p.err("multiple root elements".into()));
                    }
                    let (name, attrs, self_closing) = p.parse_open_tag()?;
                    // Attributes are one level below their element.
                    let deepest = depth + 1 + usize::from(!attrs.is_empty());
                    if deepest > MAX_DEPTH {
                        return Err(p.err(format!(
                            "<{name}> nests a node at depth {deepest}, deeper than the limit of \
                             {MAX_DEPTH} (xml::MAX_DEPTH)"
                        )));
                    }
                    let id = builder.open(&name);
                    if root.is_none() {
                        root = Some(id);
                    }
                    for (k, v) in attrs {
                        builder.attr(&k, &v);
                    }
                    if self_closing {
                        builder.close();
                        if depth == 0 {
                            break;
                        }
                    } else {
                        depth += 1;
                    }
                }
            }
        } else {
            let text = p.parse_text()?;
            if depth == 0 {
                if !text.trim().is_empty() {
                    return Err(p.err("text outside root element".into()));
                }
            } else if !text.trim().is_empty() {
                builder.text(&text);
            }
        }
    }
    if depth != 0 {
        return Err(p.err(format!("{depth} unclosed element(s) at end of input")));
    }
    p.skip_trailing()?;
    builder.finish();
    root.ok_or_else(|| ParseError { offset: 0, message: "no root element".into() })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: String) -> ParseError {
        ParseError { offset: self.pos, message }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_ws_if(&mut self, cond: bool) {
        if cond {
            self.skip_ws();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{}', found {:?}",
                b as char,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.bytes[self.pos..].starts_with(s)
    }

    fn skip_until(&mut self, s: &[u8]) -> Result<(), ParseError> {
        while self.pos < self.bytes.len() {
            if self.starts_with(s) {
                self.pos += s.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.err(format!("unterminated construct, expected {:?}", String::from_utf8_lossy(s))))
    }

    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with(b"<?") {
                self.skip_until(b"?>")?;
            } else if self.starts_with(b"<!--") {
                self.skip_until(b"-->")?;
            } else if self.starts_with(b"<!DOCTYPE") {
                // Skip to the matching '>' (no internal-subset nesting of
                // '<' beyond one level of [...]).
                let mut bracket = 0i32;
                loop {
                    match self.bump() {
                        None => return Err(self.err("unterminated DOCTYPE".into())),
                        Some(b'[') => bracket += 1,
                        Some(b']') => bracket -= 1,
                        Some(b'>') if bracket <= 0 => break,
                        _ => {}
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn skip_trailing(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.at_end() {
                return Ok(());
            }
            if self.starts_with(b"<!--") {
                self.skip_until(b"-->")?;
            } else if self.starts_with(b"<?") {
                self.skip_until(b"?>")?;
            } else {
                return Err(self.err("content after document element".into()));
            }
        }
    }

    fn skip_pi(&mut self) -> Result<(), ParseError> {
        debug_assert!(self.starts_with(b"<?"));
        self.skip_until(b"?>")
    }

    fn skip_comment_or_cdata(
        &mut self,
        builder: &mut crate::tree::TreeBuilder<'_>,
        depth: usize,
    ) -> Result<(), ParseError> {
        if self.starts_with(b"<!--") {
            self.skip_until(b"-->")
        } else if self.starts_with(b"<![CDATA[") {
            self.pos += b"<![CDATA[".len();
            let start = self.pos;
            while self.pos < self.bytes.len() && !self.starts_with(b"]]>") {
                self.pos += 1;
            }
            if !self.starts_with(b"]]>") {
                return Err(self.err("unterminated CDATA section".into()));
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("CDATA is not valid UTF-8".into()))?;
            self.pos += 3;
            if depth > 0 && !text.is_empty() {
                builder.text(text);
            }
            Ok(())
        } else {
            Err(self.err("unsupported '<!' construct inside document".into()))
        }
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if Self::is_name_start(b) => self.pos += 1,
            other => {
                return Err(self.err(format!("expected name, found {:?}", other.map(|c| c as char))))
            }
        }
        while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map(str::to_owned)
            .map_err(|_| self.err("name is not valid UTF-8".into()))
    }

    #[allow(clippy::type_complexity)]
    fn parse_open_tag(&mut self) -> Result<(String, Vec<(String, String)>, bool), ParseError> {
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok((name, attrs, false));
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok((name, attrs, true));
                }
                Some(b) if Self::is_name_start(b) => {
                    let aname = self.parse_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = match self.bump() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value".into())),
                    };
                    let start = self.pos;
                    while self.peek() != Some(quote) {
                        if self.at_end() {
                            return Err(self.err("unterminated attribute value".into()));
                        }
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("attribute value is not valid UTF-8".into()))?;
                    let value = decode_entities(raw).map_err(|m| self.err(m))?;
                    self.pos += 1;
                    attrs.push((aname, value));
                }
                other => {
                    return Err(
                        self.err(format!("unexpected {:?} in open tag", other.map(|c| c as char)))
                    )
                }
            }
        }
    }

    fn parse_close_tag(&mut self) -> Result<String, ParseError> {
        self.expect(b'<')?;
        self.expect(b'/')?;
        let name = self.parse_name()?;
        self.skip_ws();
        self.expect(b'>')?;
        Ok(name)
    }

    fn parse_text(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'<' {
                break;
            }
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("text is not valid UTF-8".into()))?;
        decode_entities(raw).map_err(|m| self.err(m))
    }
}

/// Decodes the predefined entities and character references in `raw`.
fn decode_entities(raw: &str) -> Result<String, String> {
    if !raw.contains('&') {
        return Ok(raw.to_owned());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest.find(';').ok_or_else(|| {
            let head: String = rest.chars().take(10).collect();
            format!("unterminated entity reference near {head:?}")
        })?;
        let entity = &rest[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("bad hex character reference &{entity};"))?;
                out.push(
                    char::from_u32(code).ok_or_else(|| format!("invalid code point &{entity};"))?,
                );
            }
            _ if entity.starts_with('#') => {
                let code = entity[1..]
                    .parse::<u32>()
                    .map_err(|_| format!("bad character reference &{entity};"))?;
                out.push(
                    char::from_u32(code).ok_or_else(|| format!("invalid code point &{entity};"))?,
                );
            }
            other => return Err(format!("unknown entity &{other};")),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeId;

    fn parse(input: &str) -> XmlForest {
        let mut f = XmlForest::new();
        parse_document(&mut f, input).expect("parse failed");
        f
    }

    #[test]
    fn parses_paper_fragment() {
        let f = parse(
            "<book><title>XML</title><allauthors>\
             <author><fn>jane</fn><ln>poe</ln></author>\
             <author><fn>john</fn><ln>doe</ln></author>\
             </allauthors><year>2000</year></book>",
        );
        assert_eq!(f.tag_name(NodeId(1)), "book");
        assert_eq!(f.value_str(NodeId(2)), Some("XML"));
        let authors: Vec<_> = f.iter_nodes().filter(|&n| f.tag_name(n) == "author").collect();
        assert_eq!(authors.len(), 2);
        assert_eq!(f.value_str(NodeId(5)), Some("jane"));
    }

    #[test]
    fn depth_limit_counts_attributes_as_a_level() {
        let chain = |elements: usize, attr: &str| {
            format!("{}{}", format!("<a{attr}>").repeat(elements), "</a>".repeat(elements))
        };
        let f = parse(&chain(MAX_DEPTH, ""));
        assert_eq!(f.iter_nodes().map(|n| f.depth(n)).max(), Some(MAX_DEPTH));
        parse(&chain(MAX_DEPTH - 1, " k='v'"));
        for deep in [chain(MAX_DEPTH + 1, ""), chain(MAX_DEPTH, " k='v'")] {
            let err = parse_document(&mut XmlForest::new(), &deep).unwrap_err();
            assert!(err.message.contains(&format!("limit of {MAX_DEPTH}")), "{err}");
        }
    }

    #[test]
    fn parses_attributes_as_nodes() {
        let f = parse(r#"<open_auction increase="75.00" id="a1"><bidder/></open_auction>"#);
        let attrs: Vec<_> = f
            .children(NodeId(1))
            .filter(|&n| f.kind(n) == crate::tree::NodeKind::Attribute)
            .collect();
        assert_eq!(attrs.len(), 2);
        assert_eq!(f.tag_name(attrs[0]), "@increase");
        assert_eq!(f.value_str(attrs[0]), Some("75.00"));
        assert_eq!(f.tag_name(attrs[1]), "@id");
    }

    #[test]
    fn self_closing_elements() {
        let f = parse("<a><b/><c/></a>");
        assert_eq!(f.child_count(NodeId(1)), 2);
        assert_eq!(f.tag_name(NodeId(2)), "b");
        assert_eq!(f.tag_name(NodeId(3)), "c");
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let f = parse("<a>\n  <b>x</b>\n  <c>y</c>\n</a>");
        assert_eq!(f.value_str(NodeId(1)), None);
        assert_eq!(f.value_str(NodeId(2)), Some("x"));
    }

    #[test]
    fn entities_and_char_refs() {
        let f = parse("<a>&lt;tag&gt; &amp; &quot;q&quot; &#65;&#x42;</a>");
        assert_eq!(f.value_str(NodeId(1)), Some("<tag> & \"q\" AB"));
    }

    #[test]
    fn cdata_sections() {
        let f = parse("<a><![CDATA[1 < 2 && 3 > 2]]></a>");
        assert_eq!(f.value_str(NodeId(1)), Some("1 < 2 && 3 > 2"));
    }

    #[test]
    fn comments_and_pis_are_skipped() {
        let f = parse("<?xml version=\"1.0\"?><!-- hi --><a><!-- inner --><?pi data?><b>x</b></a>");
        assert_eq!(f.tag_name(NodeId(1)), "a");
        assert_eq!(f.tag_name(NodeId(2)), "b");
    }

    #[test]
    fn doctype_is_skipped() {
        let f = parse("<!DOCTYPE book [<!ELEMENT book (#PCDATA)>]><book>x</book>");
        assert_eq!(f.value_str(NodeId(1)), Some("x"));
    }

    #[test]
    fn mixed_content_concatenates() {
        let f = parse("<p>hello <b>bold</b> world</p>");
        assert_eq!(f.value_str(NodeId(1)), Some("hello  world"));
        assert_eq!(f.value_str(NodeId(2)), Some("bold"));
    }

    #[test]
    fn error_on_mismatched_tags() {
        let mut f = XmlForest::new();
        // Depth bookkeeping rejects extra closers; tag-name mismatches
        // parse as well-nested (names are not cross-checked, like many
        // recovering parsers). Unbalanced input must error.
        assert!(parse_document(&mut f, "<a><b></b></a></c>").is_err());
    }

    #[test]
    fn error_on_unclosed() {
        let mut f = XmlForest::new();
        assert!(parse_document(&mut f, "<a><b>").is_err());
    }

    #[test]
    fn error_on_garbage() {
        let mut f = XmlForest::new();
        assert!(parse_document(&mut f, "hello").is_err());
        let mut f = XmlForest::new();
        assert!(parse_document(&mut f, "<a></a><b></b>").is_err());
        let mut f = XmlForest::new();
        assert!(parse_document(&mut f, "<a>&bogus;</a>").is_err());
    }

    #[test]
    fn two_documents_into_one_forest() {
        let mut f = XmlForest::new();
        let r1 = parse_document(&mut f, "<a><x>1</x></a>").unwrap();
        let r2 = parse_document(&mut f, "<b><y>2</y></b>").unwrap();
        assert_eq!(f.roots(), &[r1, r2]);
        assert!(r1 < r2);
    }
}
