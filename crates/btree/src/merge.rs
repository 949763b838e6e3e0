//! Sorted entry runs in one arena each, and their k-way merge.
//!
//! An index build enumerates its rows per shard, sorts them, and feeds
//! the union as one strictly increasing key sequence to
//! [`crate::bulk_build`]. A [`RunArena`] holds one shard's run as
//! length-prefixed records in a single byte vector, so a run of a
//! million rows is a handful of allocations rather than two per row;
//! it sorts through fixed-size handles that carry each key's first
//! bytes, so most comparisons never leave the handle array.
//!
//! [`merge_sorted_runs`] streams the union of sorted runs as borrowed
//! `(key, value)` slices, without concatenating and re-sorting: the
//! merged order over sorted runs is exactly the order a single global
//! sort would produce, so a tree bulk-loaded from the merge is
//! byte-identical to one loaded from the sequential build's single run.
//!
//! Ties across runs yield the lower-indexed run's entry first (a stable
//! merge); the index builders never produce duplicate keys, so in
//! practice `bulk_build`'s strictly-increasing assertion still guards
//! the merged stream.

use std::cmp::Ordering;

/// Bytes of a record header: key length and value length, `u32` each.
const HEADER: usize = 8;

/// One record's place in the arena, with the key's first eight bytes
/// (zero-padded, big-endian) to order by before the arena is read.
#[derive(Clone, Copy)]
struct Handle {
    prefix: u64,
    offset: usize,
}

/// A run of `(key, value)` entries stored back to back in one buffer;
/// see the module docs.
#[derive(Default)]
pub struct RunArena {
    bytes: Vec<u8>,
    handles: Vec<Handle>,
}

impl RunArena {
    /// An empty run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one entry whose key and value `key` and `value` write
    /// straight onto the end of the arena's buffer (they must only
    /// append to it), so encoding a row allocates nothing.
    pub fn push_with(&mut self, key: impl FnOnce(&mut Vec<u8>), value: impl FnOnce(&mut Vec<u8>)) {
        let offset = self.bytes.len();
        self.bytes.extend_from_slice(&[0; HEADER]);
        key(&mut self.bytes);
        let klen = self.bytes.len() - offset - HEADER;
        value(&mut self.bytes);
        let vlen = self.bytes.len() - offset - HEADER - klen;
        let len = |n: usize| u32::try_from(n).expect("arena entry longer than 4 GiB").to_le_bytes();
        self.bytes[offset..offset + 4].copy_from_slice(&len(klen));
        self.bytes[offset + 4..offset + HEADER].copy_from_slice(&len(vlen));
        let key = &self.bytes[offset + HEADER..offset + HEADER + klen];
        let mut prefix = [0u8; 8];
        let n = key.len().min(8);
        prefix[..n].copy_from_slice(&key[..n]);
        self.handles.push(Handle { prefix: u64::from_be_bytes(prefix), offset });
    }

    /// Sorts the run by key. Equal keys keep no particular order.
    pub fn sort(&mut self) {
        let bytes = &self.bytes;
        self.handles.sort_unstable_by(|a, b| {
            a.prefix.cmp(&b.prefix).then_with(|| entry_at(bytes, a).0.cmp(entry_at(bytes, b).0))
        });
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True if the run holds no entry.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The entries, in handle order (key order once sorted).
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> + '_ {
        self.handles.iter().map(|h| entry_at(&self.bytes, h))
    }
}

fn entry_at<'a>(bytes: &'a [u8], h: &Handle) -> (&'a [u8], &'a [u8]) {
    let at = h.offset;
    let field = |i: usize| {
        let mut n = [0u8; 4];
        n.copy_from_slice(&bytes[at + i..at + i + 4]);
        u32::from_le_bytes(n) as usize
    };
    let (klen, vlen) = (field(0), field(4));
    bytes[at + HEADER..at + HEADER + klen + vlen].split_at(klen)
}

/// Streaming merge over sorted runs; see the module docs.
pub struct MergeRuns<'a> {
    runs: Vec<std::slice::Iter<'a, Handle>>,
    arenas: &'a [RunArena],
    heads: Vec<Option<Handle>>,
}

/// Merges arenas that are each sorted by key into one sorted stream of
/// borrowed entries.
///
/// The number of runs is expected to be small (one per build shard), so
/// the merge scans run heads linearly instead of maintaining a heap.
pub fn merge_sorted_runs(runs: &[RunArena]) -> MergeRuns<'_> {
    let mut iters: Vec<_> = runs.iter().map(|r| r.handles.iter()).collect();
    let heads = iters.iter_mut().map(|i| i.next().copied()).collect();
    MergeRuns { runs: iters, arenas: runs, heads }
}

impl<'a> Iterator for MergeRuns<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let arenas = self.arenas;
        let mut best: Option<(usize, Handle)> = None;
        for (i, head) in self.heads.iter().enumerate() {
            let Some(h) = *head else { continue };
            let better = match best {
                None => true,
                Some((b, bh)) => {
                    let order = h.prefix.cmp(&bh.prefix).then_with(|| {
                        entry_at(&arenas[i].bytes, &h).0.cmp(entry_at(&arenas[b].bytes, &bh).0)
                    });
                    order == Ordering::Less
                }
            };
            if better {
                best = Some((i, h));
            }
        }
        let (i, h) = best?;
        self.heads[i] = self.runs[i].next().copied();
        Some(entry_at(&arenas[i].bytes, &h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Entry = (Vec<u8>, Vec<u8>);

    fn e(k: &str) -> Entry {
        (k.as_bytes().to_vec(), Vec::new())
    }

    fn arena(entries: &[Entry]) -> RunArena {
        let mut a = RunArena::new();
        for (k, v) in entries {
            a.push_with(|b| b.extend_from_slice(k), |b| b.extend_from_slice(v));
        }
        a.sort();
        a
    }

    fn owned<'a>(it: impl Iterator<Item = (&'a [u8], &'a [u8])>) -> Vec<Entry> {
        it.map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
    }

    #[test]
    fn arena_sorts_like_a_vector_of_pairs() {
        // Shared 8-byte prefixes, keys shorter than a prefix, and a key
        // that is a prefix of another all order as byte strings do.
        let mut entries: Vec<Entry> =
            [&b"abcdefgh2"[..], b"abcdefgh1", b"a", b"a\0", b"", b"abcdefgh", b"zz", b"b\xff"]
                .iter()
                .enumerate()
                .map(|(i, k)| (k.to_vec(), vec![i as u8; i]))
                .collect();
        let a = arena(&entries);
        entries.sort_unstable_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(a.len(), entries.len());
        assert_eq!(owned(a.iter()), entries);
    }

    #[test]
    fn merge_equals_global_sort() {
        let runs = [
            vec![e("a"), e("d"), e("g")],
            vec![e("b"), e("c")],
            Vec::new(),
            vec![e("e"), e("f"), e("h")],
        ];
        let mut expected: Vec<_> = runs.iter().flatten().cloned().collect();
        expected.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let arenas: Vec<_> = runs.iter().map(|r| arena(r)).collect();
        assert_eq!(owned(merge_sorted_runs(&arenas)), expected);
    }

    #[test]
    fn empty_and_single_run() {
        assert_eq!(merge_sorted_runs(&[]).count(), 0);
        assert_eq!(merge_sorted_runs(&[RunArena::new()]).count(), 0);
        let one = owned(merge_sorted_runs(&[arena(&[e("y"), e("x")])]));
        assert_eq!(one, vec![e("x"), e("y")]);
    }

    #[test]
    fn ties_prefer_lower_run() {
        let runs = [
            arena(&[(b"k".to_vec(), b"run0".to_vec())]),
            arena(&[(b"k".to_vec(), b"run1".to_vec())]),
        ];
        let merged = owned(merge_sorted_runs(&runs));
        assert_eq!(merged[0].1, b"run0");
        assert_eq!(merged[1].1, b"run1");
    }

    #[test]
    fn bulk_build_from_merge_matches_sorted_vec() {
        use crate::builder::bulk_build;
        use crate::tree::BTreeOptions;
        use std::sync::Arc;
        use xtwig_storage::BufferPool;

        let all: Vec<_> = (0..5_000u32)
            .map(|i| (format!("k{i:06}").into_bytes(), i.to_le_bytes().to_vec()))
            .collect();
        // Deal entries round-robin into 3 runs.
        let mut runs = [Vec::new(), Vec::new(), Vec::new()];
        for (i, ent) in all.iter().enumerate() {
            runs[i % 3].push(ent.clone());
        }
        let arenas: Vec<_> = runs.iter().map(|r| arena(r)).collect();
        let merged = bulk_build(
            Arc::new(BufferPool::in_memory(4096)),
            BTreeOptions::default(),
            merge_sorted_runs(&arenas),
        );
        let pool = Arc::new(BufferPool::in_memory(4096));
        let sorted = bulk_build(pool.clone(), BTreeOptions::default(), all.clone());
        assert_eq!(merged.len(), sorted.len());
        let a: Vec<_> = merged.scan_all().collect();
        let b: Vec<_> = sorted.scan_all().collect();
        assert_eq!(a, b);
        assert_eq!(merged.stats().pages, sorted.stats().pages);
        assert_eq!(merged.pool().content_hash(), pool.content_hash());
    }
}
