//! Deterministic pseudo-random number generation for trace synthesis.
//!
//! Reproducibility of every figure matters more than statistical strength
//! here, so we ship a self-contained xoshiro256** implementation seeded via
//! SplitMix64. Its output is stable across platforms and Rust releases, and
//! it is the only randomness source in the workspace — property-style tests
//! fork it per case instead of pulling in an external RNG.

use std::sync::Arc;

/// A deterministic xoshiro256** PRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Seed the generator. Any seed (including 0) produces a full-period
    /// state thanks to the SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Self { s }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`. Uses the widening-multiply method
    /// (Lemire); bias is negligible for the bounds used in trace synthesis.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Serialize the generator state (snapshot/resume support).
    pub fn save_state(&self, w: &mut crate::snap::SnapWriter) {
        for &s in &self.s {
            w.u64(s);
        }
    }

    /// Restore a previously saved generator state.
    pub fn load_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> crate::snap::SnapResult<()> {
        for s in &mut self.s {
            *s = r.u64()?;
        }
        Ok(())
    }

    /// Fork a child generator that is decorrelated from `self` but fully
    /// determined by (parent seed, label). Used to give each workload stream
    /// its own independent sequence.
    pub fn fork(&self, label: u64) -> SimRng {
        let mut sm = self.s[0] ^ self.s[3] ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        SimRng { s }
    }
}

/// A Zipf(θ) sampler over `[0, n)` using the standard inverse-CDF table
/// construction. Zipfian popularity is how OLTP-style workloads (pgbench,
/// SPECjbb warehouses) concentrate heat on a few macro pages.
///
/// The tables are immutable once built and live behind one `Arc`, so
/// `clone` is O(1): patterns, streams and trace iterators cloned from one
/// sampler share its tables instead of copying megabytes of CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    table: Arc<ZipfTable>,
}

#[derive(Debug)]
struct ZipfTable {
    cdf: Vec<f64>,
    /// Guide table over the unit interval: `guide[j]` is the first index
    /// whose CDF value exceeds `j / G`, where `G = guide.len() - 1` is a
    /// power of two. A draw lands in `[j/G, (j+1)/G)`, so its inverse-CDF
    /// answer lies in `guide[j]..=guide[j+1]` — the binary search runs
    /// over that handful of entries instead of the whole table, returning
    /// exactly the same rank.
    guide: Vec<u32>,
}

/// `guide[j]` = the first index with `cdf > j / g`, for `j` in `0..=g`,
/// built in one merge pass over the sorted CDF: the bounds `j / g` rise
/// with `j`, so each answer is found by walking on from the previous one
/// — O(n + g) instead of `g + 1` binary searches.
fn build_guide(cdf: &[f64], g: usize) -> Vec<u32> {
    let mut guide = Vec::with_capacity(g + 1);
    let mut i = 0;
    for j in 0..=g {
        let bound = j as f64 / g as f64;
        while i < cdf.len() && cdf[i] <= bound {
            i += 1;
        }
        guide.push(i as u32);
    }
    guide
}

impl Zipf {
    /// Build a sampler over `n` items with skew `theta` (theta = 0 is
    /// uniform; ~0.99 is the classic YCSB-zipfian skew). `n` must be > 0.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Power-of-two guide size makes the `u -> j` bucketing exact in
        // floating point (scaling by 2^k and the `j / G` boundaries are
        // both exact), so the narrowed search provably brackets the
        // full-table answer.
        let g = n.next_power_of_two().clamp(64, 1 << 16);
        let guide = build_guide(&cdf, g);
        Self { table: Arc::new(ZipfTable { cdf, guide }) }
    }

    /// Number of items in the domain.
    pub fn len(&self) -> usize {
        self.table.cdf.len()
    }

    /// True if the domain is a single item.
    pub fn is_empty(&self) -> bool {
        self.table.cdf.is_empty()
    }

    /// True if `self` and `other` draw from the same table allocation.
    pub fn shares_table(&self, other: &Zipf) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }

    /// Number of samplers holding this sampler's table.
    pub fn table_holders(&self) -> usize {
        Arc::strong_count(&self.table)
    }

    /// Draw one item. Rank 0 is the most popular.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit_f64();
        let ZipfTable { cdf, guide } = &*self.table;
        let g = guide.len() - 1;
        // u < 1.0, and scaling by the power-of-two G is exact, so
        // j < G and u lies in [j/G, (j+1)/G).
        let j = (u * g as f64) as usize;
        let lo = guide[j] as usize;
        let hi = guide[j + 1] as usize;
        // partition_point returns the first index with cdf > u; entries
        // below `lo` are all <= j/G <= u and entries from `hi` on are all
        // > (j+1)/G > u, so the narrowed search equals the full search.
        let i = lo + cdf[lo..hi].partition_point(|&c| c <= u);
        i.min(cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
        for _ in 0..10_000 {
            let v = r.range(100, 200);
            assert!((100..200).contains(&v));
        }
    }

    #[test]
    fn unit_f64_in_half_open_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            // each bucket expects 10_000; allow 5% deviation
            assert!((9_500..10_500).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    fn fork_decorrelates() {
        let parent = SimRng::new(99);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
        // Forks are themselves deterministic.
        let mut c1b = parent.fork(1);
        let mut c1a = parent.fork(1);
        for _ in 0..100 {
            assert_eq!(c1a.next_u64(), c1b.next_u64());
        }
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let z = Zipf::new(10, 0.0);
        let mut r = SimRng::new(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c));
        }
    }

    #[test]
    fn zipf_high_theta_concentrates_on_rank_zero() {
        let z = Zipf::new(1000, 1.2);
        let mut r = SimRng::new(5);
        let mut rank0 = 0;
        let n = 50_000;
        for _ in 0..n {
            if z.sample(&mut r) == 0 {
                rank0 += 1;
            }
        }
        // With theta=1.2 over 1000 items, rank 0 should take well over 10%.
        assert!(rank0 > n / 10, "rank0 draws: {rank0}");
    }

    #[test]
    fn linear_guide_matches_the_partition_point_definition() {
        for n in [1usize, 63, 64, 65, 1000, 1 << 18] {
            for theta in [0.0, 0.45, 0.99, 1.3] {
                let z = Zipf::new(n, theta);
                let ZipfTable { cdf, guide } = &*z.table;
                let g = guide.len() - 1;
                let want: Vec<u32> = (0..=g)
                    .map(|j| cdf.partition_point(|&c| c <= j as f64 / g as f64) as u32)
                    .collect();
                assert_eq!(*guide, want, "n {n} theta {theta}");
            }
        }
    }

    #[test]
    fn clones_share_one_table() {
        let z = Zipf::new(1000, 0.99);
        let c = z.clone();
        assert!(c.shares_table(&z));
        assert_eq!(z.table_holders(), 2);
        assert!(!Zipf::new(1000, 0.99).shares_table(&z));
    }

    #[test]
    fn zipf_samples_within_domain() {
        let z = Zipf::new(17, 0.9);
        let mut r = SimRng::new(8);
        for _ in 0..10_000 {
            assert!(z.sample(&mut r) < 17);
        }
    }
}
