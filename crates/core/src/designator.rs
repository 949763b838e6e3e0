//! Designator encoding of schema paths (paper §3.1).
//!
//! "Schema paths can be dictionary-encoded using special characters
//! (whose lengths depend on the dictionary size) as designators for the
//! schema components." This module is that encoding, tuned for B+-tree
//! keys:
//!
//! * Each [`TagId`] becomes a **prefix-free, non-zero** byte sequence:
//!   one byte (`0x02..=0xFE`) for the first 253 tags, or `0xFF` + 2 bytes
//!   for larger dictionaries. Both the paper's datasets stay in the
//!   1-byte regime (XMark has 902 distinct *paths* but < 100 tags).
//! * A path is its designators concatenated, closed by the terminator
//!   byte `0x01`.
//!
//! Because designators never contain `0x01` **as their first byte** and
//! the code is prefix-free, two probe forms fall out of plain byte-prefix
//! scans (paper §3.2):
//!
//! * **anchored** (`/a/b`): probe `des(a)·des(b)·0x01` — matches exactly
//!   the stored path, because the terminator pins the end.
//! * **recursive head** (`//a/b` over *reversed* stored paths): probe
//!   `des(b)·des(a)` without the terminator — matches every stored
//!   reversed path that begins with `b, a`, i.e. every data path that
//!   *ends* with `a/b`.

use xtwig_xml::TagId;

/// Path terminator byte.
pub const TERMINATOR: u8 = 0x01;
/// First byte value available for 1-byte designators.
const ONE_BYTE_BASE: u8 = 0x02;
/// Number of tag ids encodable in one byte.
const ONE_BYTE_TAGS: u32 = 0xFF - ONE_BYTE_BASE as u32; // 0x02..=0xFE -> 253
/// Escape byte introducing a 3-byte designator.
const ESCAPE: u8 = 0xFF;

/// Appends the designator for `tag` to `out`.
pub fn push_designator(out: &mut Vec<u8>, tag: TagId) {
    out.extend(designator(tag));
}

/// The designator bytes of `tag`, in order.
pub fn designator(tag: TagId) -> impl Iterator<Item = u8> {
    let (bytes, len) = if tag.0 < ONE_BYTE_TAGS {
        ([ONE_BYTE_BASE + tag.0 as u8, 0, 0], 1)
    } else {
        let rest = tag.0 - ONE_BYTE_TAGS;
        assert!(rest <= u32::from(u16::MAX), "tag dictionary too large for designators");
        let [high, low] = (rest as u16).to_be_bytes();
        ([ESCAPE, high, low], 3)
    };
    bytes.into_iter().take(len)
}

/// Appends the designators for `tags` in order (no terminator).
pub fn push_path(out: &mut Vec<u8>, tags: &[TagId]) {
    for &t in tags {
        push_designator(out, t);
    }
}

/// Appends the designators for `tags` in **reverse** order (no
/// terminator) — the `ReverseSchemaPath` of Fig. 4/5.
pub fn push_path_reversed(out: &mut Vec<u8>, tags: &[TagId]) {
    for &t in tags.iter().rev() {
        push_designator(out, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u32) -> TagId {
        TagId(v)
    }

    /// `tags` (forward) with a terminator.
    fn encode_path(tags: &[TagId]) -> Vec<u8> {
        let mut out = Vec::new();
        push_path(&mut out, tags);
        out.push(TERMINATOR);
        out
    }

    /// `tags` reversed with a terminator.
    fn encode_path_reversed(tags: &[TagId]) -> Vec<u8> {
        let mut out = Vec::new();
        push_path_reversed(&mut out, tags);
        out.push(TERMINATOR);
        out
    }

    /// Decodes a designator sequence starting at `pos`, up to and
    /// including its terminator, into `(tags, next_pos)`: the reference
    /// reader of the prefix-free code. Panics on a malformed byte.
    fn decode_path(bytes: &[u8], pos: usize) -> (Vec<TagId>, usize) {
        let mut tags = Vec::new();
        let mut i = pos;
        loop {
            match bytes[i] {
                TERMINATOR => return (tags, i + 1),
                ESCAPE => {
                    let rest = u16::from_be_bytes([bytes[i + 1], bytes[i + 2]]);
                    tags.push(TagId(ONE_BYTE_TAGS + u32::from(rest)));
                    i += 3;
                }
                b if b >= ONE_BYTE_BASE => {
                    tags.push(TagId(u32::from(b - ONE_BYTE_BASE)));
                    i += 1;
                }
                other => panic!("bad designator byte {other:#x} at {i}"),
            }
        }
    }

    #[test]
    fn single_byte_designators_roundtrip() {
        let tags = vec![t(0), t(1), t(100), t(252)];
        let enc = encode_path(&tags);
        assert_eq!(enc.len(), 5); // 4 designators + terminator
        let (dec, next) = decode_path(&enc, 0);
        assert_eq!(dec, tags);
        assert_eq!(next, enc.len());
    }

    #[test]
    fn multi_byte_designators_roundtrip() {
        let tags = vec![t(253), t(300), t(65_000), t(5)];
        let enc = encode_path(&tags);
        let (dec, next) = decode_path(&enc, 0);
        assert_eq!(dec, tags);
        assert_eq!(next, enc.len());
    }

    #[test]
    fn reversed_encoding_reverses() {
        let tags = vec![t(1), t(2), t(3)];
        let fwd = encode_path(&tags);
        let rev = encode_path_reversed(&tags);
        assert_ne!(fwd, rev);
        let (mut dec, _) = decode_path(&rev, 0);
        dec.reverse();
        assert_eq!(dec, tags);
    }

    #[test]
    fn no_designator_contains_terminator_as_lead_byte() {
        for id in [0u32, 1, 252, 253, 254, 1000, 60_000] {
            let mut out = Vec::new();
            push_designator(&mut out, t(id));
            assert_ne!(out[0], TERMINATOR, "lead byte collides with terminator for {id}");
            assert_ne!(out[0], 0x00, "lead byte must be non-zero for {id}");
        }
    }

    #[test]
    fn code_is_prefix_free() {
        let ids = [0u32, 1, 5, 252, 253, 254, 300, 40_000];
        let codes: Vec<Vec<u8>> = ids
            .iter()
            .map(|&i| {
                let mut v = Vec::new();
                push_designator(&mut v, t(i));
                v
            })
            .collect();
        for (i, a) in codes.iter().enumerate() {
            for (j, b) in codes.iter().enumerate() {
                if i != j {
                    assert!(!b.starts_with(a), "code {i} is a prefix of code {j}");
                }
            }
        }
    }

    #[test]
    fn anchored_probe_matches_only_exact_path() {
        // Stored: reverse(/book/title) = [T, B, term]; reverse of
        // /x/book/title = [T, B, X, term].
        let stored_exact = encode_path_reversed(&[t(1), t(2)]); // book=1,title=2
        let stored_deeper = encode_path_reversed(&[t(9), t(1), t(2)]);
        // Anchored /book/title probe includes the terminator:
        let mut probe = Vec::new();
        push_path_reversed(&mut probe, &[t(1), t(2)]);
        probe.push(TERMINATOR);
        assert!(stored_exact.starts_with(&probe));
        assert!(!stored_deeper.starts_with(&probe));
        // Recursive //book/title probe omits it and matches both:
        let mut probe2 = Vec::new();
        push_path_reversed(&mut probe2, &[t(1), t(2)]);
        assert!(stored_exact.starts_with(&probe2));
        assert!(stored_deeper.starts_with(&probe2));
    }

    #[test]
    fn recursive_probe_does_not_match_partial_tags() {
        // //title must not match a path ending in some OTHER tag whose
        // designator shares bytes. With 1-byte designators distinctness is
        // trivial; check the 3-byte regime.
        let title = t(300);
        let other = t(301);
        let stored = encode_path_reversed(&[t(1), other]);
        let mut probe = Vec::new();
        push_designator(&mut probe, title); // reversed single-tag probe
        assert!(!stored.starts_with(&probe));
    }

    #[test]
    fn empty_path_is_just_terminator() {
        let enc = encode_path(&[]);
        assert_eq!(enc, vec![TERMINATOR]);
        let (dec, next) = decode_path(&enc, 0);
        assert!(dec.is_empty());
        assert_eq!(next, 1);
    }
}
