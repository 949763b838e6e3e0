//! The length-prefixed frame layer: the only thing that touches raw
//! bytes on the socket.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! +----------+--------+----------+---------------+
//! | magic u32| op u8  | len u32  | payload bytes |
//! | LE       |        | LE       | (len bytes)   |
//! +----------+--------+----------+---------------+
//! ```
//!
//! The magic word (`b"XTWG"`) rejects strangers talking to the port
//! before any length is trusted; the length is bounded by
//! [`MAX_FRAME_LEN`] so a hostile or corrupt prefix cannot make the
//! peer allocate gigabytes. Payload semantics live one layer up in
//! [`crate::proto`] — this module neither knows nor cares what the
//! opcode means, which is what makes it independently fuzzable.

use std::io::{Read, Write};

/// Frame magic: ASCII `XTWG`, little-endian on the wire.
pub const MAGIC: u32 = u32::from_le_bytes(*b"XTWG");

/// Upper bound on a frame payload (16 MiB). Large enough for any
/// realistic answer id-list or metrics dump; small enough that a
/// garbage length prefix cannot drive allocation.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Header bytes per frame (magic u32 + opcode u8 + length u32), used by
/// per-connection byte accounting.
pub const FRAME_OVERHEAD: usize = 9;

/// One decoded frame: an opcode and its raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminator (see [`crate::proto`] for assignments).
    pub opcode: u8,
    /// Undecoded payload bytes.
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The first four bytes were not [`MAGIC`] — not our protocol.
    BadMagic(u32),
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// The underlying transport failed (including mid-frame EOF, which
    /// surfaces as `UnexpectedEof`).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::BadMagic(got) => {
                write!(f, "bad frame magic {got:#010x} (expected {MAGIC:#010x})")
            }
            FrameError::Oversized(len) => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit")
            }
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame. A payload over [`MAX_FRAME_LEN`], which the peer's
/// [`read_frame`] would refuse, is [`FrameError::Oversized`] before any
/// byte is written, so the stream stays framed. A partial write
/// surfaces as `Io`; the stream is unusable afterwards (framing is
/// lost), so callers drop it.
pub fn write_frame<W: Write>(w: &mut W, opcode: u8, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(payload.len()));
    }
    let mut header = [0u8; 9];
    header[..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = opcode;
    header[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, validating magic and length before allocating.
///
/// A clean EOF *before any header byte* is [`FrameError::Closed`] (the
/// peer hung up between messages — normal); EOF anywhere later is a
/// truncated frame and surfaces as `Io(UnexpectedEof)`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut magic = [0u8; 4];
    // First byte by hand so "closed between frames" and "died
    // mid-frame" stay distinguishable.
    let mut first = [0u8; 1];
    match r.read(&mut first) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => magic[0] = first[0],
        Err(e) => return Err(FrameError::Io(e)),
    }
    r.read_exact(&mut magic[1..])?;
    let got = u32::from_le_bytes(magic);
    if got != MAGIC {
        return Err(FrameError::BadMagic(got));
    }
    let mut rest = [0u8; 5];
    r.read_exact(&mut rest)?;
    let opcode = rest[0];
    let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Frame { opcode, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x02, b"hello").unwrap();
        write_frame(&mut buf, 0x81, b"").unwrap();
        let mut r = Cursor::new(buf);
        let a = read_frame(&mut r).unwrap();
        assert_eq!((a.opcode, a.payload.as_slice()), (0x02, b"hello".as_slice()));
        let b = read_frame(&mut r).unwrap();
        assert_eq!((b.opcode, b.payload.len()), (0x81, 0));
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn bad_magic_is_rejected_before_the_length_is_trusted() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"HTTP");
        buf.extend_from_slice(&[0x02]);
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile length
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(_)));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(0x02);
        buf.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Oversized(_)));
    }

    #[test]
    fn an_oversized_payload_is_refused_before_any_byte_is_written() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, 0x81, &vec![0u8; MAX_FRAME_LEN + 1]).unwrap_err();
        assert!(matches!(err, FrameError::Oversized(len) if len == MAX_FRAME_LEN + 1));
        assert!(buf.is_empty(), "the stream stays framed");
    }

    #[test]
    fn truncated_frames_surface_as_io_not_closed() {
        // Header promises 10 bytes, stream carries 3.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(0x02);
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        match err {
            FrameError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected Io(UnexpectedEof), got {other}"),
        }
    }
}
