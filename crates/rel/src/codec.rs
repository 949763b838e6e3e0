//! Order-preserving composite-key codec and IdList compression.
//!
//! B+-tree keys are byte strings compared lexicographically, so every
//! index key in the reproduction is built by concatenating
//! order-preserving encodings of its components:
//!
//! * `null`   → `0x01`
//! * integer  → `0x02` + sign-flipped big-endian 8 bytes
//! * raw u64  → `0x03` + big-endian 8 bytes (node ids, uniquifiers)
//! * string   → `0x04` + bytes with `0x00` escaped as `0x00 0xFF`,
//!   terminated by `0x00 0x01`
//!
//! The escape/terminator scheme keeps prefix relationships intact:
//! `enc(s)` is a byte-prefix of `enc(s')` only in controlled positions,
//! and `s < t ⇔ enc(s) < enc(t)`.
//!
//! Schema-path *designator* sequences (paper §3.1) are encoded by
//! `xtwig-core` with their own non-zero alphabet and do not pass through
//! the string encoder; they are appended with [`KeyBuf::push_raw`].
//!
//! This module also implements the paper's lossless IdList compression
//! (§4.1): differential (delta) varint encoding, exploiting that ids
//! along a path are strictly increasing under pre-order numbering.

use std::borrow::BorrowMut;

/// Incremental builder for composite keys: an owned buffer by default,
/// or — through [`KeyBuf::appending_to`] — the tail of a caller's
/// buffer, so a key can be encoded straight into a row arena.
#[derive(Debug, Default, Clone)]
pub struct KeyBuf<B: BorrowMut<Vec<u8>> = Vec<u8>>(B);

const T_NULL: u8 = 0x01;
const T_INT: u8 = 0x02;
const T_U64: u8 = 0x03;
const T_STR: u8 = 0x04;

impl KeyBuf {
    /// Empty key.
    pub fn new() -> Self {
        KeyBuf(Vec::with_capacity(32))
    }

    /// Finishes the key.
    pub fn finish(self) -> Vec<u8> {
        self.0
    }

    /// Current encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no component has been pushed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<'a> KeyBuf<&'a mut Vec<u8>> {
    /// A key encoded onto the end of `out`, after whatever it holds.
    pub fn appending_to(out: &'a mut Vec<u8>) -> Self {
        KeyBuf(out)
    }
}

impl<B: BorrowMut<Vec<u8>>> KeyBuf<B> {
    fn buf(&mut self) -> &mut Vec<u8> {
        self.0.borrow_mut()
    }

    /// Appends a NULL component.
    pub fn push_null(&mut self) -> &mut Self {
        self.buf().push(T_NULL);
        self
    }

    /// Appends a signed integer component.
    pub fn push_i64(&mut self, v: i64) -> &mut Self {
        self.buf().extend_from_slice(&i64_component(v));
        self
    }

    /// Appends an unsigned 64-bit component (node ids).
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.buf().extend_from_slice(&u64_component(v));
        self
    }

    /// Appends a string component (escaped + terminated).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        let buf = self.buf();
        buf.reserve(s.len() + 3);
        buf.extend(str_component(s));
        self
    }

    /// Appends pre-encoded bytes verbatim (designator sequences manage
    /// their own alphabet/termination).
    pub fn push_raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf().extend_from_slice(bytes);
        self
    }

    /// The buffer the key is appended to, for components encoded by
    /// other modules (designator sequences) without a staging copy.
    pub fn raw_mut(&mut self) -> &mut Vec<u8> {
        self.buf()
    }
}

/// The bytes [`KeyBuf::push_i64`] appends for `v`.
pub fn i64_component(v: i64) -> [u8; 9] {
    u64_tagged(T_INT, (v as u64) ^ (1u64 << 63))
}

/// The bytes [`KeyBuf::push_u64`] appends for `v`.
pub fn u64_component(v: u64) -> [u8; 9] {
    u64_tagged(T_U64, v)
}

fn u64_tagged(tag: u8, v: u64) -> [u8; 9] {
    let mut out = [tag; 9];
    out[1..].copy_from_slice(&v.to_be_bytes());
    out
}

/// The bytes [`KeyBuf::push_str`] appends for `s`, in order: a key
/// prefix can be assembled from them without a heap buffer.
pub fn str_component(s: &str) -> impl Iterator<Item = u8> + '_ {
    let escaped = s.bytes().flat_map(|b| [b, 0xFF].into_iter().take(if b == 0x00 { 2 } else { 1 }));
    std::iter::once(T_STR).chain(escaped).chain([0x00, 0x01])
}

/// Encodes a string exactly as [`KeyBuf::push_str`] (convenience).
pub fn enc_str(s: &str) -> Vec<u8> {
    let mut k = KeyBuf::new();
    k.push_str(s);
    k.finish()
}

/// Decodes a string component starting at `pos`; returns `(string,
/// next_pos)`.
///
/// # Panics
/// Panics on malformed input.
pub fn dec_str(bytes: &[u8], pos: usize) -> (String, usize) {
    assert_eq!(bytes[pos], T_STR, "expected string component");
    let mut out = Vec::new();
    let mut i = pos + 1;
    loop {
        match bytes[i] {
            0x00 => match bytes[i + 1] {
                0x01 => return (String::from_utf8(out).expect("key utf8"), i + 2),
                0xFF => {
                    out.push(0x00);
                    i += 2;
                }
                other => panic!("bad escape byte {other:#x}"),
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
}

/// Position just past the string component starting at `pos` —
/// [`dec_str`] without building the string, for readers that only need
/// what follows it.
///
/// # Panics
/// Panics on malformed input.
pub fn skip_str(bytes: &[u8], pos: usize) -> usize {
    assert_eq!(bytes[pos], T_STR, "expected string component");
    let mut i = pos + 1;
    loop {
        // Every 0x00 opens a two-byte escape; 0x00 0x01 is the terminator.
        match (bytes[i], bytes[i + 1]) {
            (0x00, 0x01) => return i + 2,
            (0x00, _) => i += 2,
            _ => i += 1,
        }
    }
}

/// Overwrites the value of the u64 component at `pos` in place, so one
/// prebuilt probe key can be re-aimed without re-encoding the rest.
pub fn set_u64(bytes: &mut [u8], pos: usize, v: u64) {
    assert_eq!(bytes[pos], T_U64, "expected u64 component");
    bytes[pos + 1..pos + 9].copy_from_slice(&v.to_be_bytes());
}

/// Decodes a u64 component at `pos`; returns `(value, next_pos)`.
pub fn dec_u64(bytes: &[u8], pos: usize) -> (u64, usize) {
    assert_eq!(bytes[pos], T_U64, "expected u64 component");
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[pos + 1..pos + 9]);
    (u64::from_be_bytes(b), pos + 9)
}

/// Decodes an i64 component at `pos`; returns `(value, next_pos)`.
pub fn dec_i64(bytes: &[u8], pos: usize) -> (i64, usize) {
    assert_eq!(bytes[pos], T_INT, "expected int component");
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[pos + 1..pos + 9]);
    ((u64::from_be_bytes(b) ^ (1u64 << 63)) as i64, pos + 9)
}

/// True if the component at `pos` is NULL; returns `next_pos` when so.
pub fn dec_null(bytes: &[u8], pos: usize) -> Option<usize> {
    (bytes[pos] == T_NULL).then_some(pos + 1)
}

// ---------------------------------------------------------------------
// Varints and IdList compression
// ---------------------------------------------------------------------

/// Appends a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint at `pos`; returns `(value, next_pos)`.
pub fn read_varint(bytes: &[u8], pos: usize) -> (u64, usize) {
    let mut v = 0u64;
    let mut shift = 0u32;
    let mut i = pos;
    loop {
        let b = bytes[i];
        v |= u64::from(b & 0x7F) << shift;
        i += 1;
        if b & 0x80 == 0 {
            return (v, i);
        }
        shift += 7;
        assert!(shift < 64, "varint overflow");
    }
}

/// IdList storage format (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdListCodec {
    /// Differential varint encoding — the paper's lossless compression.
    #[default]
    Delta,
    /// Fixed 8-byte ids — the uncompressed baseline for the ablation.
    Plain,
}

/// Encodes `ids` (strictly increasing) with the chosen codec, prefixed by
/// the list length as a varint.
pub fn encode_idlist(codec: IdListCodec, ids: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + ids.len() * 2);
    encode_idlist_into(codec, ids, &mut out);
    out
}

/// [`encode_idlist`] appending to `out` — the form bulk builds use to
/// encode a row's IdList straight into their row arena.
pub fn encode_idlist_into(codec: IdListCodec, ids: &[u64], out: &mut Vec<u8>) {
    write_varint(out, ids.len() as u64);
    match codec {
        IdListCodec::Delta => {
            let mut prev = 0u64;
            for (i, &id) in ids.iter().enumerate() {
                if i == 0 {
                    write_varint(out, id);
                } else {
                    debug_assert!(id > prev, "IdList ids must strictly increase");
                    write_varint(out, id - prev);
                }
                prev = id;
            }
        }
        IdListCodec::Plain => {
            for &id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
    }
}

/// Decodes an IdList produced by [`encode_idlist`].
pub fn decode_idlist(codec: IdListCodec, bytes: &[u8]) -> Vec<u64> {
    let mut out = Vec::new();
    decode_idlist_into(codec, bytes, &mut out);
    out
}

/// Decodes an IdList produced by [`encode_idlist`], appending its ids to
/// `out` — the form scans use to decode entry after entry into one
/// reused buffer.
///
/// Ids along a path are close under pre-order numbering, so most deltas
/// fit one byte; those are taken without entering the general varint
/// loop, and the ids land through one `extend` over the known count,
/// which checks capacity once rather than per id. A truncated payload
/// fails exactly as [`read_varint`] does.
pub fn decode_idlist_into(codec: IdListCodec, bytes: &[u8], out: &mut Vec<u64>) {
    let (n, mut pos) = read_varint(bytes, 0);
    out.reserve(n as usize);
    match codec {
        IdListCodec::Delta => {
            // The first id is stored as its delta from 0.
            let mut id = 0u64;
            out.extend((0..n).map(|_| {
                id += match bytes.get(pos) {
                    Some(&b) if b < 0x80 => {
                        pos += 1;
                        u64::from(b)
                    }
                    _ => {
                        let (v, next) = read_varint(bytes, pos);
                        pos = next;
                        v
                    }
                };
                id
            }));
        }
        IdListCodec::Plain => {
            for _ in 0..n {
                let mut b = [0u8; 8];
                b.copy_from_slice(&bytes[pos..pos + 8]);
                out.push(u64::from_le_bytes(b));
                pos += 8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn str_encoding_roundtrip() {
        for s in ["", "jane", "united states", "a\x00b", "\x00", "ünïcødé", "a\x00\x00"] {
            let enc = enc_str(s);
            let (dec, next) = dec_str(&enc, 0);
            assert_eq!(dec, s);
            assert_eq!(next, enc.len());
        }
    }

    #[test]
    fn appending_forms_write_what_the_owned_forms_return() {
        let mut owned = KeyBuf::new();
        owned.push_null().push_i64(-3).push_u64(7).push_str("a\x00b").push_raw(b"\x05\x01");
        let mut out = b"head".to_vec();
        let mut key = KeyBuf::appending_to(&mut out);
        key.push_null().push_i64(-3).push_u64(7).push_str("a\x00b");
        key.raw_mut().extend_from_slice(b"\x05\x01");
        assert_eq!(&out[4..], owned.as_bytes());
        for codec in [IdListCodec::Delta, IdListCodec::Plain] {
            let ids = [3, 9, 300, 70_000];
            let mut out = vec![0xAA];
            encode_idlist_into(codec, &ids, &mut out);
            assert_eq!(out[1..], encode_idlist(codec, &ids)[..]);
        }
    }

    #[test]
    fn skip_str_lands_where_dec_str_does() {
        for s in ["", "jane", "a\x00b", "\x00", "ünïcødé", "a\x00\x00"] {
            let mut k = KeyBuf::new();
            k.push_u64(9).push_str(s).push_u64(4);
            let enc = k.finish();
            assert_eq!(skip_str(&enc, 9), dec_str(&enc, 9).1, "{s:?}");
        }
    }

    #[test]
    fn set_u64_re_aims_a_built_key() {
        let mut k = KeyBuf::new();
        k.push_u64(1).push_str("v");
        let mut key = k.finish();
        set_u64(&mut key, 0, 77);
        let mut want = KeyBuf::new();
        want.push_u64(77).push_str("v");
        assert_eq!(key, want.finish());
    }

    #[test]
    fn numeric_roundtrip() {
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            let mut k = KeyBuf::new();
            k.push_i64(v);
            let enc = k.finish();
            assert_eq!(dec_i64(&enc, 0), (v, 9));
        }
        for v in [0u64, 1, u64::MAX, 1 << 40] {
            let mut k = KeyBuf::new();
            k.push_u64(v);
            let enc = k.finish();
            assert_eq!(dec_u64(&enc, 0), (v, 9));
        }
    }

    #[test]
    fn null_sorts_before_strings_and_ints() {
        let null = KeyBuf::new().push_null().as_bytes().to_vec();
        let int = {
            let mut k = KeyBuf::new();
            k.push_i64(i64::MIN);
            k.finish()
        };
        let s = enc_str("");
        assert!(null < int);
        assert!(int < s);
    }

    #[test]
    fn composite_key_order_matches_component_order() {
        // (LeafValue, u64) pairs: value dominates, id breaks ties.
        let mk = |v: Option<&str>, id: u64| {
            let mut k = KeyBuf::new();
            match v {
                None => k.push_null(),
                Some(s) => k.push_str(s),
            };
            k.push_u64(id);
            k.finish()
        };
        let keys = [
            mk(None, 1),
            mk(None, 2),
            mk(Some(""), 0),
            mk(Some("a"), 9),
            mk(Some("a"), 10),
            mk(Some("ab"), 0),
            mk(Some("b"), 0),
        ];
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(read_varint(&buf, 0), (v, buf.len()));
        }
    }

    #[test]
    fn idlist_codecs_roundtrip() {
        let lists: Vec<Vec<u64>> = vec![
            vec![],
            vec![1],
            vec![1, 5, 6, 7],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            vec![10, 1_000_000, 1_000_001],
        ];
        for l in lists {
            for codec in [IdListCodec::Delta, IdListCodec::Plain] {
                let enc = encode_idlist(codec, &l);
                assert_eq!(decode_idlist(codec, &enc), l);
                let mut appended = vec![42];
                decode_idlist_into(codec, &enc, &mut appended);
                assert_eq!(appended[0], 42);
                assert_eq!(appended[1..], l[..]);
            }
        }
    }

    #[test]
    fn delta_decode_crosses_every_varint_width() {
        let ids = [127, 128, 255, 16_639, 16_640, 33_024, 1 << 35, u64::MAX - 1, u64::MAX];
        let enc = encode_idlist(IdListCodec::Delta, &ids);
        assert_eq!(decode_idlist(IdListCodec::Delta, &enc), ids);
        let enc = encode_idlist(IdListCodec::Delta, &[u64::MAX]);
        assert_eq!(enc.len(), 1 + 10, "u64::MAX is a 10-byte varint");
        assert_eq!(decode_idlist(IdListCodec::Delta, &enc), [u64::MAX]);
    }

    #[test]
    fn a_truncated_delta_list_fails_like_read_varint() {
        // Cut inside a one-byte delta, inside a multi-byte one, and right
        // after the length: never a shorter or a wrong list.
        let ids = [3, 5, 300, 301];
        let enc = encode_idlist(IdListCodec::Delta, &ids);
        for cut in 1..enc.len() {
            let truncated = &enc[..cut];
            let decoded = std::panic::catch_unwind(|| decode_idlist(IdListCodec::Delta, truncated));
            let varint = std::panic::catch_unwind(|| {
                let mut pos = read_varint(truncated, 0).1;
                for _ in 0..ids.len() {
                    pos = read_varint(truncated, pos).1;
                }
            });
            assert!(decoded.is_err(), "cut at {cut} decoded to {decoded:?}");
            assert!(varint.is_err(), "cut at {cut}: read_varint did not fail");
        }
    }

    #[test]
    fn delta_encoding_is_smaller_on_path_idlists() {
        // Parent-child correlated ids: deltas are tiny (paper §4.1 claims
        // "significant savings in space").
        let ids: Vec<u64> = (0..12).map(|i| 100_000 + i * 3).collect();
        let delta = encode_idlist(IdListCodec::Delta, &ids);
        let plain = encode_idlist(IdListCodec::Plain, &ids);
        assert!(delta.len() * 2 < plain.len(), "delta {} vs plain {}", delta.len(), plain.len());
    }

    proptest! {
        #[test]
        fn prop_string_encoding_preserves_order(a in ".{0,24}", b in ".{0,24}") {
            let (ea, eb) = (enc_str(&a), enc_str(&b));
            prop_assert_eq!(a.as_bytes().cmp(b.as_bytes()), ea.cmp(&eb));
        }

        #[test]
        fn prop_i64_encoding_preserves_order(a in any::<i64>(), b in any::<i64>()) {
            let mut ka = KeyBuf::new();
            ka.push_i64(a);
            let mut kb = KeyBuf::new();
            kb.push_i64(b);
            prop_assert_eq!(a.cmp(&b), ka.finish().cmp(&kb.finish()));
        }

        #[test]
        fn prop_idlist_delta_roundtrip(
            start in prop_oneof![0u64..1_000_000, Just(127u64), Just(128), Just(16_383), Just(16_384), (u64::MAX - 1_000_000)..u64::MAX],
            steps in proptest::collection::vec(prop_oneof![1u64..10_000, 126u64..=129, 16_382u64..=16_385, 1u64..(1 << 40)], 0..20),
        ) {
            // Deltas on both sides of the 1/2/3-byte varint boundaries,
            // first ids up to the 10-byte ones; a step that would run past
            // `u64::MAX` is dropped.
            let mut ids = vec![start];
            for s in steps {
                if let Some(next) = ids.last().unwrap().checked_add(s) {
                    ids.push(next);
                }
            }
            let enc = encode_idlist(IdListCodec::Delta, &ids);
            prop_assert_eq!(decode_idlist(IdListCodec::Delta, &enc), ids);
        }

        #[test]
        fn prop_str_roundtrip(s in ".{0,64}") {
            let enc = enc_str(&s);
            let (dec, next) = dec_str(&enc, 0);
            prop_assert_eq!(dec, s);
            prop_assert_eq!(next, enc.len());
        }
    }
}
