//! Property tests for the wire frame codec and message layer: a peer
//! feeding the socket garbage — truncated frames, hostile length
//! prefixes, byte soup, drip-fed partial reads — must get an error or
//! a clean decode, never a panic or a runaway allocation. Mirrors the
//! `parser_fuzz` harness pattern.

use proptest::prelude::*;
use std::io::{Cursor, Read};
use xtwig_net::frame::{read_frame, write_frame, Frame, FrameError, MAGIC, MAX_FRAME_LEN};
use xtwig_net::proto::{Request, Response};

/// A reader that hands out at most `chunk` bytes per `read` call —
/// the interleaved-partial-delivery shape a real TCP stream produces.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Trickle<'_> {
    #[allow(clippy::indexing_slicing)] // test reader: `n` is clamped to both slices' lengths
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk.max(1)).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic_the_frame_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = read_frame(&mut Cursor::new(&bytes));
    }

    #[test]
    fn frames_roundtrip_even_under_partial_reads(
        opcode in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..16,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, opcode, &payload).unwrap();
        let mut trickle = Trickle { data: &wire, pos: 0, chunk };
        let frame = read_frame(&mut trickle).unwrap();
        prop_assert_eq!(frame.opcode, opcode);
        prop_assert_eq!(frame.payload, payload);
    }

    #[test]
    fn truncating_a_valid_frame_errors_instead_of_hanging_or_panicking(
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        cut_pct in 0usize..100,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, 0x02, &payload).unwrap();
        let cut = (wire.len() - 1) * cut_pct / 100; // always strictly short
        let err = read_frame(&mut Cursor::new(&wire[..cut])).unwrap_err();
        match err {
            FrameError::Closed => prop_assert_eq!(cut, 0, "Closed only before any byte"),
            FrameError::Io(e) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => prop_assert!(false, "unexpected error: {}", other),
        }
    }

    #[test]
    fn garbage_length_prefixes_never_allocate_past_the_bound(
        len in any::<u32>(),
        opcode in any::<u8>(),
    ) {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_le_bytes());
        wire.push(opcode);
        wire.extend_from_slice(&len.to_le_bytes());
        // No payload follows the header: every outcome must be typed.
        match read_frame(&mut Cursor::new(&wire)) {
            Ok(frame) => prop_assert!(frame.payload.is_empty()),
            Err(FrameError::Oversized(n)) => prop_assert!(n > MAX_FRAME_LEN),
            Err(FrameError::Io(e)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
    }

    #[test]
    fn bad_magic_is_always_typed(
        magic in any::<u32>().prop_filter("not the real magic", |m| *m != MAGIC),
        rest in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut wire = magic.to_le_bytes().to_vec();
        wire.extend_from_slice(&rest);
        match read_frame(&mut Cursor::new(&wire)) {
            Err(FrameError::BadMagic(got)) => prop_assert_eq!(got, magic),
            Err(FrameError::Io(e)) => {
                // Fewer than 4 bytes total: died inside the magic word.
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => prop_assert!(false, "expected BadMagic, got {:?}", other.map(|f| f.opcode)),
        }
    }

    #[test]
    fn message_decoders_never_panic_on_arbitrary_frames(
        opcode in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let frame = Frame { opcode, payload };
        let _ = Request::decode(&frame);
        let _ = Response::decode(&frame);
    }

    #[test]
    fn corrupting_one_byte_of_a_valid_request_never_panics(
        index in ".{0,12}",
        xpath in ".{0,24}",
        strategy in ".{0,8}",
        flip_at in any::<usize>(),
        flip_with in 1u8..=255,
    ) {
        // Single-byte corruption of a well-formed message exercises the
        // decoder's interior length/utf8 checks, not just its opcode
        // dispatch (which pure byte-soup frames mostly bounce off).
        let (opcode, mut payload) = Request::Query { index, xpath, strategy }.encode();
        if !payload.is_empty() {
            let at = flip_at % payload.len();
            payload[at] ^= flip_with;
        }
        let frame = Frame { opcode, payload };
        if let Ok(req) = Request::decode(&frame) {
            let (op2, payload2) = req.encode();
            prop_assert_eq!(op2, frame.opcode);
            prop_assert_eq!(payload2, frame.payload);
        }
    }

    #[test]
    fn truncating_a_valid_request_payload_is_typed_not_a_panic(
        index in ".{1,12}",
        xpath in ".{1,24}",
        keep_pct in 0usize..100,
    ) {
        let (opcode, payload) =
            Request::Explain { index, xpath }.encode();
        let keep = payload.len() * keep_pct / 100; // always strictly short
        let frame = Frame { opcode, payload: payload[..keep].to_vec() };
        // Interior truncation must surface as a decode error, never as
        // a slice-out-of-bounds panic.
        prop_assert!(Request::decode(&frame).is_err());
    }

    #[test]
    fn corrupting_a_valid_answer_response_never_panics(
        ids in proptest::collection::vec(any::<u64>(), 0..16),
        micros in any::<u64>(),
        from_cache in any::<bool>(),
        flip_at in any::<usize>(),
        flip_with in 1u8..=255,
    ) {
        // The Answer encoding carries counted u64 lists — the decode
        // path where a corrupted count could over-read if unchecked.
        let resp = Response::Answer {
            strategy: "RP".to_owned(),
            plan: "RootPaths".to_owned(),
            from_cache,
            micros,
            ids,
        };
        let (opcode, mut payload) = resp.encode();
        if !payload.is_empty() {
            let at = flip_at % payload.len();
            payload[at] ^= flip_with;
        }
        let _ = Response::decode(&Frame { opcode, payload });
    }

    #[test]
    fn decoded_requests_reencode_identically(
        opcode in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Any frame the decoder accepts must survive a re-encode
        // round-trip — the codec cannot silently normalize.
        let frame = Frame { opcode, payload };
        if let Ok(req) = Request::decode(&frame) {
            let (op2, payload2) = req.encode();
            prop_assert_eq!(op2, frame.opcode);
            prop_assert_eq!(payload2, frame.payload);
        }
    }
}
