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

/// Incremental builder for composite keys.
#[derive(Debug, Default, Clone)]
pub struct KeyBuf(Vec<u8>);

const T_NULL: u8 = 0x01;
const T_INT: u8 = 0x02;
const T_U64: u8 = 0x03;
const T_STR: u8 = 0x04;

impl KeyBuf {
    /// Empty key.
    pub fn new() -> Self {
        KeyBuf(Vec::with_capacity(32))
    }

    /// Appends a NULL component.
    pub fn push_null(&mut self) -> &mut Self {
        self.0.push(T_NULL);
        self
    }

    /// Appends a signed integer component.
    pub fn push_i64(&mut self, v: i64) -> &mut Self {
        self.0.push(T_INT);
        self.0.extend_from_slice(&((v as u64) ^ (1u64 << 63)).to_be_bytes());
        self
    }

    /// Appends an unsigned 64-bit component (node ids).
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.0.push(T_U64);
        self.0.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a string component (escaped + terminated).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.0.push(T_STR);
        for &b in s.as_bytes() {
            if b == 0x00 {
                self.0.extend_from_slice(&[0x00, 0xFF]);
            } else {
                self.0.push(b);
            }
        }
        self.0.extend_from_slice(&[0x00, 0x01]);
        self
    }

    /// Appends pre-encoded bytes verbatim (designator sequences manage
    /// their own alphabet/termination).
    pub fn push_raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.extend_from_slice(bytes);
        self
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
    write_varint(&mut out, ids.len() as u64);
    match codec {
        IdListCodec::Delta => {
            let mut prev = 0u64;
            for (i, &id) in ids.iter().enumerate() {
                if i == 0 {
                    write_varint(&mut out, id);
                } else {
                    debug_assert!(id > prev, "IdList ids must strictly increase");
                    write_varint(&mut out, id - prev);
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
    out
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
pub fn decode_idlist_into(codec: IdListCodec, bytes: &[u8], out: &mut Vec<u64>) {
    let (n, mut pos) = read_varint(bytes, 0);
    out.reserve(n as usize);
    match codec {
        IdListCodec::Delta => {
            let mut prev = 0u64;
            for i in 0..n {
                let (v, next) = read_varint(bytes, pos);
                pos = next;
                let id = if i == 0 { v } else { prev + v };
                out.push(id);
                prev = id;
            }
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
        fn prop_idlist_delta_roundtrip(start in 0u64..1_000_000, steps in proptest::collection::vec(1u64..10_000, 0..20)) {
            let mut ids = vec![start];
            for s in steps {
                ids.push(ids.last().unwrap() + s);
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
