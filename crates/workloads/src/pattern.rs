//! Composable address-stream primitives.
//!
//! A [`Pattern`] produces byte offsets (plus a read/write flag) within a
//! region of the workload's footprint. Patterns carry their own cursor
//! state, so cloning a pattern clones its position (its Zipf rank table,
//! immutable, is shared rather than copied). All randomness comes
//! from the caller-supplied [`SimRng`], keeping traces reproducible.

use hmm_sim_base::rng::{SimRng, Zipf};
use hmm_sim_base::snap::{SnapReader, SnapResult, SnapWriter};
use hmm_sim_base::FxHashMap;

/// Application-level page used by the locality patterns (independent of
/// the migration macro-page size).
pub const APP_PAGE_BYTES: u64 = 4096;

/// One address-stream primitive.
#[derive(Debug, Clone)]
pub enum Pattern {
    /// Sequential sweep over `[start, start+len)` with a byte stride,
    /// wrapping at the end. Streams like an FFT pass or a grid smoother.
    Sweep {
        /// Region start offset (bytes).
        start: u64,
        /// Region length (bytes).
        len: u64,
        /// Stride between consecutive accesses (bytes).
        stride: u64,
        /// Probability an access is a store.
        write_ratio: f64,
        /// Cursor.
        pos: u64,
    },
    /// Zipf-popular 4 KB pages scattered pseudo-randomly over the region
    /// (rank-to-page scattering prevents the hot set from trivially
    /// coinciding with the lowest addresses, which static mapping would
    /// capture for free).
    ZipfPages {
        /// Region start offset (bytes).
        start: u64,
        /// Region length (bytes).
        len: u64,
        /// Probability an access is a store.
        write_ratio: f64,
        /// Rank sampler.
        zipf: Zipf,
        /// Power-of-two page count the ranks are scattered over.
        page_domain: u64,
    },
    /// Uniform random accesses over the region.
    Uniform {
        /// Region start offset (bytes).
        start: u64,
        /// Region length (bytes).
        len: u64,
        /// Probability an access is a store.
        write_ratio: f64,
    },
    /// Pointer chase: a pseudo-random permutation walk over the region's
    /// cache lines (mcf-style dependent misses, no spatial locality).
    Chase {
        /// Region start offset (bytes).
        start: u64,
        /// Region length (bytes).
        len: u64,
        /// Probability an access is a store.
        write_ratio: f64,
        /// Cursor (line index within region).
        pos: u64,
    },
    /// Pass-structured sweep: the region is divided into windows; each
    /// window is swept `passes` times before moving on (an FFT dimension
    /// pass or a sort phase re-reads its working chunk several times).
    /// This is what gives large-footprint workloads DRAM-cache-capturable
    /// reuse despite streaming through gigabytes overall.
    WindowedSweep {
        /// Region start offset (bytes).
        start: u64,
        /// Region length (bytes).
        len: u64,
        /// Window length (bytes).
        window: u64,
        /// Sweeps per window before advancing.
        passes: u32,
        /// Stride between consecutive accesses (bytes).
        stride: u64,
        /// Probability an access is a store.
        write_ratio: f64,
        /// Current window index.
        win: u64,
        /// Completed passes in the current window.
        pass: u32,
        /// Cursor within the window.
        pos: u64,
    },
    /// Multigrid V-cycle: sweeps each level from finest to coarsest and
    /// back, one full sweep per level visit. `levels` are `(start, len)`
    /// regions, finest first.
    VCycle {
        /// Grid levels, finest first.
        levels: Vec<(u64, u64)>,
        /// Sweep stride in bytes.
        stride: u64,
        /// Probability an access is a store.
        write_ratio: f64,
        /// Current level index.
        level: usize,
        /// true = descending towards coarse grids.
        descending: bool,
        /// Cursor within the current level.
        pos: u64,
    },
}

/// Largest power of two `<= n`, at least 1.
fn pow2_floor(n: u64) -> u64 {
    if n == 0 {
        1
    } else {
        1u64 << (63 - n.leading_zeros())
    }
}

/// Hot pages cluster in blocks of this many app pages (256 KB): real
/// allocators give hot structures contiguity at this scale, which is what
/// lets coarse macro pages stay meaningfully hot (the paper migrates pages
/// up to 4 MB). Blocks themselves are scattered so the hot set never
/// coincides with the low addresses a static mapping would capture free.
const SCATTER_GROUP_PAGES: u64 = 64;

/// Scatter a zipf rank over the power-of-two page domain: consecutive
/// ranks stay together within a [`SCATTER_GROUP_PAGES`] block, blocks are
/// permuted with a fixed odd multiplier (a bijection on the power-of-two
/// domain). Every size is a power of two, so the split takes shifts and
/// masks, not divisions.
#[inline]
fn scatter(rank: u64, domain: u64) -> u64 {
    debug_assert!(domain.is_power_of_two());
    let shift = SCATTER_GROUP_PAGES.min(domain).trailing_zeros();
    let group = rank >> shift;
    let within = rank & ((1 << shift) - 1);
    let groups = domain >> shift;
    // Affine permutation on the power-of-two group space (odd multiplier,
    // odd offset) so no group — in particular not the hottest, group 0 —
    // keeps its identity position.
    let scattered = group.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x5851_F42D_4C95_7F2D)
        & (groups - 1);
    scattered << shift | within
}

/// The Zipf rank tables one workload build has made, keyed by rank count
/// and skew. Patterns over equal-size regions with equal θ — pgbench's
/// four streams, SPECjbb's four warehouses — then share one immutable
/// table instead of each building its own. The map lives as long as the
/// build that owns it, so each build still makes its tables once.
#[derive(Debug, Default)]
pub struct ZipfTables(FxHashMap<(usize, u64), Zipf>);

impl ZipfTables {
    /// Zipf-popular pages with skew `theta` over a region, drawing from
    /// this build's table for the region's rank count and `theta`.
    pub fn zipf_pages(&mut self, start: u64, len: u64, theta: f64, write_ratio: f64) -> Pattern {
        assert!(len >= APP_PAGE_BYTES);
        let pages = pow2_floor(len / APP_PAGE_BYTES);
        // Cap the rank table so huge footprints stay cheap to construct;
        // past ~256k ranks the tail is effectively uniform anyway.
        let ranks = pages.min(1 << 18) as usize;
        let zipf = self
            .0
            .entry((ranks, theta.to_bits()))
            .or_insert_with(|| Zipf::new(ranks, theta))
            .clone();
        Pattern::ZipfPages { start, len, write_ratio, zipf, page_domain: pages }
    }
}

impl Pattern {
    /// A wrapping sequential sweep.
    pub fn sweep(start: u64, len: u64, stride: u64, write_ratio: f64) -> Self {
        assert!(len > 0 && stride > 0);
        Pattern::Sweep { start, len, stride, write_ratio, pos: 0 }
    }

    /// Zipf-popular pages with skew `theta` over a region, with a rank
    /// table of its own; [`ZipfTables::zipf_pages`] shares tables.
    pub fn zipf_pages(start: u64, len: u64, theta: f64, write_ratio: f64) -> Self {
        ZipfTables::default().zipf_pages(start, len, theta, write_ratio)
    }

    /// Uniform random accesses.
    pub fn uniform(start: u64, len: u64, write_ratio: f64) -> Self {
        assert!(len > 0);
        Pattern::Uniform { start, len, write_ratio }
    }

    /// A pointer chase over the region's lines.
    pub fn chase(start: u64, len: u64, write_ratio: f64) -> Self {
        assert!(len >= 64);
        Pattern::Chase { start, len, write_ratio, pos: 0 }
    }

    /// A pass-structured sweep: `passes` sweeps per `window`, then advance.
    pub fn windowed_sweep(
        start: u64,
        len: u64,
        window: u64,
        passes: u32,
        stride: u64,
        write_ratio: f64,
    ) -> Self {
        assert!(window > 0 && len >= window && passes >= 1);
        assert!(stride > 0 && stride <= window, "stride must fit in the window");
        Pattern::WindowedSweep {
            start,
            len,
            window,
            passes,
            stride,
            write_ratio,
            win: 0,
            pass: 0,
            pos: 0,
        }
    }

    /// A multigrid V-cycle over `levels` (finest first).
    pub fn v_cycle(levels: Vec<(u64, u64)>, stride: u64, write_ratio: f64) -> Self {
        assert!(!levels.is_empty() && stride > 0);
        assert!(levels.iter().all(|&(_, len)| len >= stride));
        Pattern::VCycle { levels, stride, write_ratio, level: 0, descending: true, pos: 0 }
    }

    /// Offset the pattern's cursor by a fraction of its period, so
    /// parallel workers (or repeated runs) start from different positions.
    /// OpenMP-style codes genuinely partition their sweeps this way.
    /// No-op for stateless patterns.
    pub fn set_phase(&mut self, frac: f64) {
        let frac = frac.rem_euclid(1.0);
        match self {
            Pattern::Sweep { len, stride, pos, .. } => {
                let steps = *len / *stride;
                *pos = ((steps as f64 * frac) as u64 % steps.max(1)) * *stride;
            }
            Pattern::WindowedSweep { len, window, win, .. } => {
                let windows = (*len / *window).max(1);
                *win = (windows as f64 * frac) as u64 % windows;
            }
            Pattern::Chase { len, pos, .. } => {
                let lines = (*len / 64).max(1);
                *pos = (lines as f64 * frac) as u64 % lines;
            }
            Pattern::VCycle { levels, level, .. } => {
                *level = ((levels.len() as f64 * frac) as usize).min(levels.len() - 1);
            }
            Pattern::ZipfPages { .. } | Pattern::Uniform { .. } => {}
        }
    }

    /// Produce the next `(byte offset, is_write)` pair.
    pub fn next(&mut self, rng: &mut SimRng) -> (u64, bool) {
        match self {
            Pattern::Sweep { start, len, stride, write_ratio, pos } => {
                let addr = *start + *pos;
                *pos += *stride;
                if *pos >= *len {
                    // Carry the remainder so a stride that does not divide
                    // the region length walks a different phase each wrap
                    // (a transpose pass visits different columns, not the
                    // same subset forever).
                    *pos %= *len;
                }
                (addr, rng.chance(*write_ratio))
            }
            Pattern::ZipfPages { start, len, write_ratio, zipf, page_domain } => {
                let rank = zipf.sample(rng) as u64;
                let page = scatter(rank, *page_domain);
                let within = rng.below(APP_PAGE_BYTES) & !63;
                let addr = (*start + page * APP_PAGE_BYTES + within).min(*start + *len - 64);
                (addr, rng.chance(*write_ratio))
            }
            Pattern::Uniform { start, len, write_ratio } => {
                let addr = *start + (rng.below(*len) & !63);
                (addr, rng.chance(*write_ratio))
            }
            Pattern::Chase { start, len, write_ratio, pos } => {
                let lines = *len / 64;
                // A full-period LCG step over the line space (Hull-Dobell:
                // odd increment, multiplier = 1 mod 4 on a pow2 domain).
                let domain = pow2_floor(lines);
                *pos = (pos.wrapping_mul(4 * 1103 + 1).wrapping_add(12345)) & (domain - 1);
                (*start + *pos * 64, rng.chance(*write_ratio))
            }
            Pattern::WindowedSweep {
                start,
                len,
                window,
                passes,
                stride,
                write_ratio,
                win,
                pass,
                pos,
            } => {
                let windows = (*len / *window).max(1);
                let addr = *start + *win * *window + *pos;
                *pos += *stride;
                if *pos >= *window {
                    *pos %= *window;
                    *pass += 1;
                    if *pass == *passes {
                        *pass = 0;
                        *win = (*win + 1) % windows;
                    }
                }
                (addr, rng.chance(*write_ratio))
            }
            Pattern::VCycle { levels, stride, write_ratio, level, descending, pos } => {
                let (lstart, llen) = levels[*level];
                let addr = lstart + *pos;
                *pos += *stride;
                if *pos >= llen {
                    *pos = 0;
                    // Move to the next level of the V.
                    if *descending {
                        if *level + 1 < levels.len() {
                            *level += 1;
                        } else {
                            *descending = false;
                            *level = level.saturating_sub(1);
                        }
                    } else if *level > 0 {
                        *level -= 1;
                    } else {
                        *descending = true;
                        if levels.len() > 1 {
                            *level = 1;
                        }
                    }
                }
                (addr, rng.chance(*write_ratio))
            }
        }
    }

    /// Serialize the pattern's cursor (snapshot/resume support). The
    /// pattern's structure — regions, strides, samplers — is rebuilt from
    /// the workload definition on resume; only the position state that
    /// advances per access is recorded.
    pub fn save_state(&self, w: &mut SnapWriter) {
        match self {
            Pattern::Sweep { pos, .. } => {
                w.u8(0);
                w.u64(*pos);
            }
            Pattern::ZipfPages { .. } => w.u8(1),
            Pattern::Uniform { .. } => w.u8(2),
            Pattern::Chase { pos, .. } => {
                w.u8(3);
                w.u64(*pos);
            }
            Pattern::WindowedSweep { win, pass, pos, .. } => {
                w.u8(4);
                w.u64(*win);
                w.u32(*pass);
                w.u64(*pos);
            }
            Pattern::VCycle { level, descending, pos, .. } => {
                w.u8(5);
                w.usize(*level);
                w.bool(*descending);
                w.u64(*pos);
            }
        }
    }

    /// Restore a cursor saved by [`Pattern::save_state`] onto a freshly
    /// built pattern of the same kind.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        let tag = r.u8()?;
        match (tag, self) {
            (0, Pattern::Sweep { pos, .. }) => *pos = r.u64()?,
            (1, Pattern::ZipfPages { .. }) | (2, Pattern::Uniform { .. }) => {}
            (3, Pattern::Chase { pos, .. }) => *pos = r.u64()?,
            (4, Pattern::WindowedSweep { win, pass, pos, .. }) => {
                *win = r.u64()?;
                *pass = r.u32()?;
                *pos = r.u64()?;
            }
            (5, Pattern::VCycle { level, descending, pos, levels, .. }) => {
                let lv = r.usize()?;
                if lv >= levels.len() {
                    return Err(format!("v-cycle level {lv} out of range"));
                }
                *level = lv;
                *descending = r.bool()?;
                *pos = r.u64()?;
            }
            (t, _) => return Err(format!("pattern kind mismatch (snapshot tag {t})")),
        }
        Ok(())
    }

    /// Highest byte offset this pattern can emit (exclusive), used to
    /// validate that mixtures stay inside the declared footprint.
    pub fn region_end(&self) -> u64 {
        match self {
            Pattern::Sweep { start, len, .. }
            | Pattern::ZipfPages { start, len, .. }
            | Pattern::Uniform { start, len, .. }
            | Pattern::Chase { start, len, .. }
            | Pattern::WindowedSweep { start, len, .. } => start + len,
            Pattern::VCycle { levels, .. } => levels.iter().map(|&(s, l)| s + l).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    #[test]
    fn sweep_is_sequential_and_wraps() {
        let mut p = Pattern::sweep(1000, 256, 64, 0.0);
        let mut r = rng();
        let offs: Vec<u64> = (0..5).map(|_| p.next(&mut r).0).collect();
        assert_eq!(offs, vec![1000, 1064, 1128, 1192, 1000]);
    }

    #[test]
    fn zipf_pages_concentrate_heat() {
        let mut p = Pattern::zipf_pages(0, 64 << 20, 0.99, 0.0);
        let mut r = rng();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            let (a, _) = p.next(&mut r);
            *counts.entry(a / APP_PAGE_BYTES).or_insert(0u64) += 1;
        }
        let mut v: Vec<u64> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = v.iter().take(v.len() / 10 + 1).sum();
        assert!(
            top as f64 > 0.4 * 50_000.0,
            "top-decile pages should take >40% of accesses, got {top}"
        );
    }

    #[test]
    fn zipf_hot_blocks_are_scattered_away_from_low_addresses() {
        let region = 64u64 << 20;
        let mut p = Pattern::zipf_pages(0, region, 0.99, 0.0);
        let mut r = rng();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            let (a, _) = p.next(&mut r);
            *counts.entry(a / APP_PAGE_BYTES).or_insert(0u64) += 1;
        }
        let mut hot: Vec<(u64, u64)> = counts.into_iter().collect();
        hot.sort_unstable_by_key(|&(_, c)| std::cmp::Reverse(c));
        // Hot pages cluster into 256 KB blocks (allocator locality), but
        // the blocks themselves must be spread over the region — a static
        // low-address mapping must not capture the hot set for free.
        let top_blocks: std::collections::HashSet<u64> =
            hot.iter().take(256).map(|&(p, _)| p / SCATTER_GROUP_PAGES).collect();
        assert!(top_blocks.len() >= 3, "expected several hot blocks");
        let low_eighth = region / APP_PAGE_BYTES / SCATTER_GROUP_PAGES / 8;
        let in_low = top_blocks.iter().filter(|&&b| b < low_eighth).count();
        assert!(in_low < top_blocks.len(), "hot blocks must not all sit in the lowest addresses");
        let span = top_blocks.iter().max().unwrap() - top_blocks.iter().min().unwrap();
        assert!(span > 4, "blocks should be spread, span {span}");
    }

    /// The shift-and-mask `scatter` against the division form it
    /// replaced, for every power-of-two domain 2^0..=2^40.
    #[test]
    fn scatter_matches_the_division_form() {
        fn by_division(rank: u64, domain: u64) -> u64 {
            let g = SCATTER_GROUP_PAGES.min(domain);
            let groups = (domain / g).max(1);
            let scattered = group_hash(rank / g) % groups;
            scattered * g + rank % g
        }
        fn group_hash(group: u64) -> u64 {
            group.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x5851_F42D_4C95_7F2D)
        }
        let mut r = rng();
        for bits in 0..=40 {
            let domain = 1u64 << bits;
            let edges = [0, domain - 1, domain / 2, SCATTER_GROUP_PAGES.min(domain) - 1];
            let sampled = (0..500).map(|_| r.below(domain));
            for rank in edges.into_iter().chain(sampled) {
                assert_eq!(scatter(rank, domain), by_division(rank, domain), "{rank} of 2^{bits}");
            }
        }
    }

    #[test]
    fn patterns_stay_in_region() {
        let mut r = rng();
        let cases: Vec<Pattern> = vec![
            Pattern::sweep(4096, 1 << 20, 64, 0.3),
            Pattern::zipf_pages(4096, 1 << 20, 0.9, 0.3),
            Pattern::uniform(4096, 1 << 20, 0.3),
            Pattern::chase(4096, 1 << 20, 0.3),
            Pattern::v_cycle(vec![(4096, 1 << 20), (1 << 21, 1 << 18)], 64, 0.3),
        ];
        for mut p in cases {
            let end = p.region_end();
            for _ in 0..10_000 {
                let (a, _) = p.next(&mut r);
                assert!(a >= 4096 && a < end, "addr {a:#x} escaped region (end {end:#x})");
            }
        }
    }

    #[test]
    fn chase_visits_many_distinct_lines() {
        let mut p = Pattern::chase(0, 1 << 20, 0.0);
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            seen.insert(p.next(&mut r).0);
        }
        assert!(seen.len() > 9_000, "chase should rarely revisit, saw {}", seen.len());
    }

    #[test]
    fn v_cycle_visits_all_levels_in_order() {
        // Two tiny levels; stride = len so each visit is one access.
        let mut p = Pattern::v_cycle(vec![(0, 64), (1024, 64), (2048, 64)], 64, 0.0);
        let mut r = rng();
        let seq: Vec<u64> = (0..8).map(|_| p.next(&mut r).0).collect();
        // V shape: 0, 1024, 2048 (bottom), 1024, 0, then down again 1024, ...
        assert_eq!(seq[0], 0);
        assert_eq!(seq[1], 1024);
        assert_eq!(seq[2], 2048);
        assert_eq!(seq[3], 1024);
        assert_eq!(seq[4], 0);
        assert_eq!(seq[5], 1024);
    }

    #[test]
    fn windowed_sweep_repeats_then_advances() {
        // window = 128 B, 2 passes, stride 64: expect 0,64,0,64,128,192,...
        let mut p = Pattern::windowed_sweep(0, 512, 128, 2, 64, 0.0);
        let mut r = rng();
        let seq: Vec<u64> = (0..10).map(|_| p.next(&mut r).0).collect();
        assert_eq!(seq, vec![0, 64, 0, 64, 128, 192, 128, 192, 256, 320]);
    }

    #[test]
    fn windowed_sweep_wraps_to_first_window() {
        let mut p = Pattern::windowed_sweep(0, 256, 128, 1, 64, 0.0);
        let mut r = rng();
        let seq: Vec<u64> = (0..6).map(|_| p.next(&mut r).0).collect();
        assert_eq!(seq, vec![0, 64, 128, 192, 0, 64]);
    }

    #[test]
    fn write_ratio_respected() {
        let mut p = Pattern::uniform(0, 1 << 20, 0.25);
        let mut r = rng();
        let writes = (0..40_000).filter(|_| p.next(&mut r).1).count();
        assert!((8_000..12_000).contains(&writes), "writes: {writes}");
    }

    #[test]
    fn determinism_across_clones() {
        let p0 = Pattern::zipf_pages(0, 1 << 24, 0.9, 0.5);
        let mut a = p0.clone();
        let mut b = p0;
        let mut ra = SimRng::new(7);
        let mut rb = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next(&mut ra), b.next(&mut rb));
        }
    }

    #[test]
    fn pow2_floor_edges() {
        assert_eq!(pow2_floor(0), 1);
        assert_eq!(pow2_floor(1), 1);
        assert_eq!(pow2_floor(3), 2);
        assert_eq!(pow2_floor(1024), 1024);
        assert_eq!(pow2_floor(1025), 1024);
    }
}
