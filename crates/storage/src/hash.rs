//! The one content hash of the storage stack.
//!
//! [`BufferPool::content_hash`](crate::BufferPool::content_hash) digests
//! page images with it, and index persistence guards its catalog blob
//! with it. It consumes the input eight bytes at a time: each
//! little-endian word is xored into the state, the state is multiplied
//! by an odd constant, and its high half is folded down into its low
//! half. Every step is a bijection of the state for a fixed word, so a
//! change confined to one word always changes the digest. The fold is
//! what makes a *pair* of changes hard to cancel: a multiply alone only
//! carries upward, so a plain word-wise FNV-1a, which lacks it, loses
//! the same top bit flipped in any two words.

/// Digest of zero bytes: the state a hash chain starts from.
pub const SEED: u64 = 0xcbf2_9ce4_8422_2325;

const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds one word into the state `h`.
#[inline]
pub fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(K);
    h ^ (h >> 32)
}

/// Folds `bytes` into the state `h`: whole words first, then the
/// zero-padded tail, then the length, so inputs that differ only in
/// trailing zeros digest apart. Chain calls to digest a sequence of
/// buffers; start from [`SEED`].
pub fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    for &w in words {
        h = mix(h, u64::from_le_bytes(w));
    }
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(w));
    }
    mix(h, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    /// A page with no two equal words, so a swap always changes bytes.
    fn page() -> Vec<u8> {
        (0..PAGE_SIZE / 8)
            .flat_map(|i| (i as u64).wrapping_mul(0x0123_4567_89ab_cdef).to_le_bytes())
            .collect()
    }

    fn digest(page: &[u8]) -> u64 {
        hash_bytes(SEED, page)
    }

    fn flip(page: &mut [u8], word: usize, bit: u32) {
        page[word * 8 + (bit / 8) as usize] ^= 1 << (bit % 8);
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let mut p = page();
        let base = digest(&p);
        for bit in 0..(PAGE_SIZE * 8) as u32 {
            let (word, b) = ((bit / 64) as usize, bit % 64);
            flip(&mut p, word, b);
            assert_ne!(digest(&p), base, "bit {b} of word {word}");
            flip(&mut p, word, b);
        }
    }

    #[test]
    fn the_same_bit_flipped_in_two_words_changes_the_digest() {
        let words = PAGE_SIZE / 8;
        let mut p = page();
        let base = digest(&p);
        let pairs = [
            (0, 1),
            (0, words - 1),
            (1, 2),
            (7, 300),
            (511, 512),
            (words - 2, words - 1),
            (3, 999),
        ];
        for b in 0..64 {
            for &(i, j) in &pairs {
                flip(&mut p, i, b);
                flip(&mut p, j, b);
                assert_ne!(digest(&p), base, "bit {b} in words {i} and {j}");
                flip(&mut p, i, b);
                flip(&mut p, j, b);
            }
        }
        // The design this rules out: FNV-1a over words carries bit 63 of
        // a difference unchanged through every multiply, so the second
        // flip cancels the first.
        let fnv = |p: &[u8]| {
            p.as_chunks::<8>()
                .0
                .iter()
                .fold(SEED, |h, &w| (h ^ u64::from_le_bytes(w)).wrapping_mul(0x0000_0100_0000_01b3))
        };
        let fnv_base = fnv(&p);
        flip(&mut p, 0, 63);
        flip(&mut p, 5, 63);
        assert_eq!(fnv(&p), fnv_base);
    }

    #[test]
    fn swapping_two_words_changes_the_digest() {
        let words = PAGE_SIZE / 8;
        let base = digest(&page());
        for (i, j) in [(0, 1), (0, words - 1), (100, 101), (17, 900)] {
            let mut p = page();
            for k in 0..8 {
                p.swap(i * 8 + k, j * 8 + k);
            }
            assert_ne!(digest(&p), base, "words {i} and {j} swapped");
        }
    }

    #[test]
    fn tails_and_lengths_digest_apart() {
        assert_ne!(hash_bytes(SEED, b""), hash_bytes(SEED, b"\0"));
        assert_ne!(hash_bytes(SEED, b"a"), hash_bytes(SEED, b"b"));
        assert_ne!(hash_bytes(SEED, &[0; 8]), hash_bytes(SEED, &[0; 9]));
    }
}
