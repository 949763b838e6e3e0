//! Seeded randomness for the load generator: a SplitMix64 stream, a
//! Fisher–Yates shuffle, and the Zipf request schedule.
//!
//! The harness owns its generator instead of using the workspace's
//! `rand` stand-in so that a schedule depends on `--seed` alone, not on
//! which version of a stub crate the program under test links.

/// SplitMix64: one 64-bit state word, full period, good enough to
/// shuffle a few thousand requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// the sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finalizer; also the per-id hash of the answer
/// checksum (see [`crate::workload::checksum`]).
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A request schedule of `len` slots over `n` items in which item `i`
/// (rank `i + 1`) fills its exact Zipf(`s`) share of the slots — at
/// least one — spaced evenly through the schedule from a phase drawn
/// from `seed`.
///
/// Exact shares and even spacing instead of independent draws: the mix
/// is then the same for every seed and for every stretch of a run, and
/// only the interleaving changes, so a throughput difference between
/// two runs or two windows is the program's and not the sampler's.
/// (Independent draws at ~500 requests/s move the share of the slowest
/// requests by ±7 % from run to run.)
pub fn zipf_schedule(n: usize, s: f64, len: usize, seed: u64) -> Vec<u32> {
    assert!(n > 0 && len >= n, "schedule needs at least one slot per item");
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let spare = len - n; // one slot per item is reserved up front
    let mut shares: Vec<usize> =
        weights.iter().map(|w| 1 + (w / total * spare as f64).floor() as usize).collect();
    // Flooring leaves a few slots over; the most popular item takes them.
    shares[0] += len - shares.iter().sum::<usize>();

    // Item i's k-th request falls at (k + phase_i) / share_i of the way
    // through; ties between items break on a seeded draw.
    let mut rng = Rng::new(seed);
    let mut slots: Vec<(f64, u64, u32)> = Vec::with_capacity(len);
    for (i, &share) in shares.iter().enumerate() {
        let phase = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        for k in 0..share {
            slots.push(((k as f64 + phase) / share as f64, rng.next_u64(), i as u32));
        }
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, _, item)| item).collect()
}

/// `rounds` back-to-back permutations of `0..n`, each shuffled
/// independently: a round robin in which every item appears exactly
/// once per round but never in a fixed neighbourhood.
pub fn shuffled_rounds(n: usize, rounds: usize, seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed);
    let mut schedule = Vec::with_capacity(n * rounds);
    for _ in 0..rounds {
        let mut round: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut round);
        schedule.extend(round);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_schedule_is_a_function_of_the_seed() {
        let a = zipf_schedule(60, 1.1, 4096, 7);
        assert_eq!(a, zipf_schedule(60, 1.1, 4096, 7));
        let b = zipf_schedule(60, 1.1, 4096, 8);
        assert_ne!(a, b, "another seed must reorder the schedule");
        // ...but never change the mix.
        let (mut sa, mut sb) = (a.clone(), b);
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
    }

    #[test]
    fn zipf_schedule_shares_follow_the_rank() {
        let schedule = zipf_schedule(60, 1.1, 4096, 1);
        assert_eq!(schedule.len(), 4096);
        let mut counts = [0usize; 60];
        for &i in &schedule {
            counts[i as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c >= 1), "every item is requested");
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "shares fall with rank");
        // Rank 1 of Zipf(1.1) over 60 items holds ~27 % of the mass.
        let top = counts[0] as f64 / 4096.0;
        assert!((0.2..0.35).contains(&top), "rank-1 share {top}");
    }

    #[test]
    fn zipf_schedule_keeps_the_mix_in_every_stretch() {
        let schedule = zipf_schedule(60, 1.1, 4096, 5);
        let whole = schedule.iter().filter(|&&i| i == 11).count();
        for eighth in schedule.chunks(512) {
            let here = eighth.iter().filter(|&&i| i == 11).count();
            assert!(here.abs_diff(whole / 8) <= 1, "{here} of {whole} in one eighth");
        }
    }

    #[test]
    fn shuffled_rounds_visit_every_item_once_per_round() {
        let schedule = shuffled_rounds(15, 4, 3);
        for round in schedule.chunks(15) {
            let mut seen: Vec<u32> = round.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..15).collect::<Vec<u32>>());
        }
        assert_eq!(schedule, shuffled_rounds(15, 4, 3));
        assert_ne!(schedule, shuffled_rounds(15, 4, 4));
    }
}
