//! Fixed-size pages.

// The read path the query engine touches: a panic here kills the
// serving thread that touched it (same table as `[workspace.lints.clippy]`).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

/// Page size in bytes. 8 KiB mirrors common relational defaults (DB2 uses
/// 4–32 KiB; the paper does not state its page size, so we pick the middle
/// of that range).
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page within one storage file. Page ids are dense and
/// allocated in increasing order; there is no free list (indexes in this
/// workload are bulk-built and then read-mostly, matching the paper's
/// read-only query experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel for "no page" (e.g. a leaf with no right sibling).
    pub const INVALID: PageId = PageId(u32::MAX);

    /// True unless this is the [`PageId::INVALID`] sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != PageId::INVALID
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An owned page buffer.
#[derive(Clone)]
pub struct PageBuf(pub Box<[u8; PAGE_SIZE]>);

impl Default for PageBuf {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl PageBuf {
    /// A page of zeroes.
    #[allow(clippy::expect_used)] // infallible: the boxed slice is exactly PAGE_SIZE long by construction
    pub fn zeroed() -> Self {
        PageBuf(vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().expect("PAGE_SIZE box"))
    }

    /// Immutable view of the page bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.0[..]
    }

    /// Mutable view of the page bytes.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.0[..]
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageBuf(..)")
    }
}

// Little-endian fixed-width field helpers used by page layouts across the
// btree and rel crates. Each indexes unchecked on purpose: callers pass
// compile-time layout offsets into PAGE_SIZE buffers.

/// Reads a `u16` at `off`.
#[inline]
#[allow(clippy::indexing_slicing)] // page-layout offset
pub fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

/// Writes a `u16` at `off`.
#[inline]
#[allow(clippy::indexing_slicing)] // page-layout offset
pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Reads a `u32` at `off`.
#[inline]
#[allow(clippy::indexing_slicing)] // page-layout offset
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Writes a `u32` at `off`.
#[inline]
#[allow(clippy::indexing_slicing)] // page-layout offset
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Reads a `u64` at `off`.
#[inline]
#[allow(clippy::indexing_slicing)] // page-layout offset
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Writes a `u64` at `off`.
#[inline]
#[allow(clippy::indexing_slicing)] // page-layout offset
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_all_zero() {
        let p = PageBuf::zeroed();
        assert!(p.bytes().iter().all(|&b| b == 0));
        assert_eq!(p.bytes().len(), PAGE_SIZE);
    }

    #[test]
    fn field_helpers_roundtrip() {
        let mut p = PageBuf::zeroed();
        put_u16(p.bytes_mut(), 0, 0xBEEF);
        put_u32(p.bytes_mut(), 2, 0xDEAD_BEEF);
        put_u64(p.bytes_mut(), 6, 0x0123_4567_89AB_CDEF);
        assert_eq!(get_u16(p.bytes(), 0), 0xBEEF);
        assert_eq!(get_u32(p.bytes(), 2), 0xDEAD_BEEF);
        assert_eq!(get_u64(p.bytes(), 6), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn page_id_sentinel() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
        assert_eq!(PageId(7).to_string(), "p7");
    }

    #[test]
    fn clone_is_deep() {
        let mut a = PageBuf::zeroed();
        a.bytes_mut()[0] = 1;
        let b = a.clone();
        a.bytes_mut()[0] = 2;
        assert_eq!(b.bytes()[0], 1);
    }
}
