//! Cached CDF-inversion samplers.
//!
//! The campaign kernel draws one binomial (or hypergeometric) per task, but a
//! plan has only a handful of distinct multiplicities (Balanced: head, tail,
//! ringers), so the same `(n, p)` walk is recomputed hundreds of thousands of
//! times.  [`BinomialCache`] and [`HypergeometricCache`] precompute the
//! inversion CDF table once per distinct parameter set, turning each draw
//! into one uniform plus one binary search.
//!
//! **Bit-for-bit contract:** for every parameter set and every RNG state, a
//! cached draw returns the same value *and consumes the same number of
//! uniforms* as the corresponding free function ([`sample_binomial`] /
//! [`sample_hypergeometric`]).  The tables are built with the identical
//! floating-point recurrence, in the identical order, so each partial CDF sum
//! is the same `f64` the per-draw walk would have computed; parameter sets
//! the walk handles specially (no-draw edge cases, the normal-approximation
//! underflow fallback) are captured as dedicated plan variants or delegated
//! to the free function verbatim.  This is what lets the batched engine keep
//! the golden snapshots byte-identical.
//!
//! ```
//! use redundancy_stats::{BinomialCache, DeterministicRng};
//! let mut cache = BinomialCache::default();
//! let id = cache.prepare(40, 0.3); // hoisted out of the hot loop
//! let mut rng = DeterministicRng::new(7);
//! let x = cache.sample_prepared(id, &mut rng);
//! assert!(x <= 40);
//! ```

use std::collections::HashMap;

use super::alias::DiscreteAlias;
use super::{binomial_pmf_zero, sample_binomial, sample_hypergeometric, SamplerMode};
use crate::rng::{DeterministicRng, JumpCache};
use crate::special::ln_binomial;

/// Largest inversion table a cache will materialise.  Campaign multiplicities
/// are ≤ ~80; anything beyond this bound is not a hot-loop parameter set and
/// is delegated to the exact free function instead.
const MAX_TABLE_LEN: usize = 4096;

/// Tables at most this long are searched with a forward linear scan (the
/// expected stop index is tiny); longer ones use binary search.
const LINEAR_SCAN_MAX: usize = 128;

/// Tables at most this long are binned by threshold counts in
/// [`PreparedSampler::sample_binned`]: their `len − 1` thresholds fit one
/// fixed-width register array of at most this many lanes.
const THRESHOLD_LANES_MAX: usize = 16;

/// Groups of at least this many draws are binned by the AVX2 lane kernel
/// (where the CPU has AVX2); smaller ones, whose 7 jumps would not pay
/// for themselves, draw serially.  Measured best of 2048, 4096 and 8192.
const LANE_KERNEL_MIN: u64 = 4096;

/// One prepared sampling strategy for a distinct parameter set.
#[derive(Debug, Clone)]
enum Plan {
    /// Degenerate: return this value without consuming any randomness
    /// (binomial `n == 0 || p == 0` → 0, `p == 1` → n; hypergeometric
    /// `draws == 0 || successes == 0` → 0).
    Certain(u64),
    /// One uniform + binary search over the precomputed partial CDF sums.
    /// Entry `i` is the CDF at `base + i`; `mirror == Some(n)` means the
    /// table was built at `1 − p` and the draw is reflected to `n − k`,
    /// matching [`sample_binomial`]'s `p > ½` recursion.
    /// `raw_thresholds` is built with the table when it is short enough
    /// for threshold-count binning and its entries are non-negative and
    /// non-decreasing, the condition that makes the binning exact: entry
    /// `i` is [`DeterministicRng::raw_threshold`] of `cdf[i]` for every
    /// threshold `i < len − 1`.
    Table {
        base: u64,
        cdf: Box<[f64]>,
        mirror: Option<u64>,
        raw_thresholds: Option<Box<[u64]>>,
    },
    /// Parameter sets the walk handles via fallback (pmf(0) underflow) or
    /// that exceed [`MAX_TABLE_LEN`]: call the free function so the RNG
    /// consumption stays identical.
    DelegateBinomial { n: u64, p: f64 },
    DelegateHypergeometric {
        total: u64,
        successes: u64,
        draws: u64,
    },
    /// [`SamplerMode::Fast`] only: a Walker/Vose alias table — one uniform
    /// and two array reads per draw, *not* RNG-stream-compatible with the
    /// inversion walk (see [`super::alias`]).
    Alias(DiscreteAlias),
}

impl Plan {
    /// A CDF-table plan, checked once for threshold-count binning.
    fn table(base: u64, cdf: Vec<f64>, mirror: Option<u64>) -> Plan {
        let binnable = cdf.len() <= THRESHOLD_LANES_MAX
            && cdf.iter().all(|&c| c >= 0.0)
            && cdf.windows(2).all(|w| w[0] <= w[1]);
        let raw_thresholds = binnable.then(|| {
            cdf[..cdf.len() - 1]
                .iter()
                .map(|&c| DeterministicRng::raw_threshold(c))
                .collect()
        });
        Plan::Table {
            base,
            cdf: cdf.into_boxed_slice(),
            mirror,
            raw_thresholds,
        }
    }

    #[inline]
    fn sample(&self, rng: &mut DeterministicRng) -> u64 {
        match self {
            Plan::Certain(value) => *value,
            Plan::Table {
                base, cdf, mirror, ..
            } => {
                let u = rng.uniform();
                // The inversion walk returns the first `k` with `cdf_k ≥ u`,
                // clamped to the end of the support — exactly
                // `partition_point` (first index not `< u`) with the same
                // clamp.  At campaign parameters the CDF mass is
                // front-loaded, so most draws stop within the first couple
                // of entries: a predictable linear scan beats binary
                // search there; big tables keep the binary search.
                let idx = if cdf.len() <= LINEAR_SCAN_MAX {
                    let mut i = 0usize;
                    while i + 1 < cdf.len() && cdf[i] < u {
                        i += 1;
                    }
                    i
                } else {
                    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
                };
                let k = base + idx as u64;
                match mirror {
                    Some(n) => n - k,
                    None => k,
                }
            }
            Plan::DelegateBinomial { n, p } => sample_binomial(rng, *n, *p),
            Plan::DelegateHypergeometric {
                total,
                successes,
                draws,
            } => sample_hypergeometric(rng, *total, *successes, *draws),
            Plan::Alias(table) => table.sample(rng),
        }
    }
}

/// A resolved plan handle: the id-to-plan lookup hoisted out of the draw
/// loop.
///
/// Obtained from [`BinomialCache::prepared`] / [`HypergeometricCache::prepared`];
/// drawing through it skips the per-draw indexing that
/// [`BinomialCache::sample_prepared`] pays, which matters in loops that
/// draw hundreds of thousands of times from one parameter set.
#[derive(Debug, Clone, Copy)]
pub struct PreparedSampler<'a> {
    plan: &'a Plan,
}

impl<'a> PreparedSampler<'a> {
    /// Draw one value (same contract as `sample_prepared`).
    #[inline]
    pub fn sample(&self, rng: &mut DeterministicRng) -> u64 {
        self.plan.sample(rng)
    }

    /// Draw `count` values and tally them: `counts[x] += 1` for each draw
    /// `x`.
    ///
    /// Equivalent to `count` calls of [`sample`](Self::sample) — the same
    /// draws, the same RNG consumption and the same tallies — but a short
    /// CDF table is hoisted out of the loop and binned by threshold
    /// counts: each raw draw adds `(raw > R_i)` into a register lane per
    /// threshold `i < len − 1`, where `R_i` is the raw-integer form of
    /// `cdf[i] < u` ([`DeterministicRng::raw_threshold`]), and the bins
    /// are recovered at the end by differencing the lanes.  Because the
    /// table's partial sums are non-decreasing, the number of thresholds
    /// below `u` is exactly the linear scan's first index with
    /// `cdf[i] ≥ u`, its clamp at `len − 1` included.
    ///
    /// A group of at least [`LANE_KERNEL_MIN`] draws on an AVX2 host is
    /// cut into 8 contiguous segments of `count / 8` draws, each lane
    /// started by one jump from the previous one (`jumps` caches the jump
    /// polynomial per segment length), and the segments are drawn side by
    /// side in vector registers; the remainder is drawn serially from the
    /// last lane's end, which leaves `rng` where `count` serial draws
    /// would.  Every other plan draws one value at a time.
    ///
    /// Panics if a draw falls outside `counts`.
    pub fn sample_binned(
        &self,
        count: u64,
        rng: &mut DeterministicRng,
        counts: &mut [u64],
        jumps: &mut JumpCache,
    ) {
        let Plan::Table {
            base,
            mirror,
            raw_thresholds: Some(thresholds),
            ..
        } = self.plan
        else {
            for _ in 0..count {
                counts[self.sample(rng) as usize] += 1;
            }
            return;
        };
        // `above[i]` = draws whose index exceeds `i`; lanes past the last
        // threshold stay 0, which supplies `above[len − 1] = 0`.
        let above = count_above(thresholds, count, rng, jumps);
        let mut prev = count;
        for (idx, &next) in above[..=thresholds.len()].iter().enumerate() {
            let k = base + idx as u64;
            let value = match mirror {
                Some(n) => n - k,
                None => k,
            };
            counts[value as usize] += prev - next;
            prev = next;
        }
    }

    /// The underlying alias table, when this plan is a
    /// [`SamplerMode::Fast`] table.
    ///
    /// Hot loops that draw many times from one prepared sampler use this
    /// to hoist the plan dispatch out of the loop entirely: the alias
    /// draw then inlines to one uniform and two array reads.  Returns
    /// `None` for every bit-compat plan and for the fast-mode parameter
    /// sets that delegate (degenerate, oversize, underflow).
    #[inline]
    pub fn as_alias(&self) -> Option<&'a DiscreteAlias> {
        match self.plan {
            Plan::Alias(table) => Some(table),
            _ => None,
        }
    }
}

/// Threshold-count kernel of [`PreparedSampler::sample_binned`]: lane `i`
/// counts the `count` raw draws above `thresholds[i]` (at most
/// [`THRESHOLD_LANES_MAX`]); the lanes past the last threshold are 0.
fn count_above(
    thresholds: &[u64],
    count: u64,
    rng: &mut DeterministicRng,
    jumps: &mut JumpCache,
) -> [u64; THRESHOLD_LANES_MAX] {
    let mut above = [0u64; THRESHOLD_LANES_MAX];
    match thresholds.len() {
        0..=1 => count_above_width::<1>(thresholds, count, rng, jumps, &mut above),
        2 => count_above_width::<2>(thresholds, count, rng, jumps, &mut above),
        3..=4 => count_above_width::<4>(thresholds, count, rng, jumps, &mut above),
        5..=8 => count_above_width::<8>(thresholds, count, rng, jumps, &mut above),
        _ => count_above_width::<16>(thresholds, count, rng, jumps, &mut above),
    }
    above
}

/// [`count_above`] in `N` lanes: the thresholds padded with `u64::MAX`
/// (never below a raw draw), so the inner loop has a fixed trip count, no
/// branch and no store-to-load chain, and the lanes live in registers.
#[inline]
fn count_above_width<const N: usize>(
    thresholds: &[u64],
    count: u64,
    rng: &mut DeterministicRng,
    jumps: &mut JumpCache,
    above: &mut [u64; THRESHOLD_LANES_MAX],
) {
    let mut padded = [u64::MAX; N];
    padded[..thresholds.len()].copy_from_slice(thresholds);
    let mut lanes = [0u64; N];
    // Tables of 6–16 entries go to the AVX2 build even for serial draws:
    // baseline x86-64 has no 64-bit vector compare, and its emulation
    // makes 8 and 16 integer lanes slower than AVX2's `vpcmpgtq`.
    #[cfg(target_arch = "x86_64")]
    if (count >= LANE_KERNEL_MIN || N >= 8) && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked at run time just above.
        unsafe { avx2::count_above(&padded, count, rng, jumps, &mut lanes) };
        above[..N].copy_from_slice(&lanes);
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = jumps; // only the AVX2 kernel jumps
    count_above_serial(&padded, count, rng, &mut lanes);
    above[..N].copy_from_slice(&lanes);
}

/// The serial loop of [`count_above_width`]: one draw at a time.
#[inline]
fn count_above_serial<const N: usize>(
    thresholds: &[u64; N],
    count: u64,
    rng: &mut DeterministicRng,
    lanes: &mut [u64; N],
) {
    for _ in 0..count {
        let raw = rng.next_raw();
        for (lane, &t) in lanes.iter_mut().zip(thresholds) {
            *lane += u64::from(raw > t);
        }
    }
}

/// The AVX2 lane kernel of [`count_above_width`].
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{count_above_serial, LANE_KERNEL_MIN};
    use crate::rng::{DeterministicRng, JumpCache};
    use std::arch::x86_64::*;

    /// Generator lanes drawn side by side: two `__m256i` per state word.
    const LANES: usize = 8;

    /// [`count_above_serial`]'s result for `count` draws from `rng`,
    /// compiled for AVX2.  From [`LANE_KERNEL_MIN`] draws on, the stream
    /// is cut into [`LANES`] jumped-ahead segments of `count / LANES` draws
    /// drawn side by side, and the remainder is drawn serially after the
    /// last segment.  Leaves `rng` after draw `count`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn count_above<const N: usize>(
        thresholds: &[u64; N],
        count: u64,
        rng: &mut DeterministicRng,
        jumps: &mut JumpCache,
        lanes: &mut [u64; N],
    ) {
        if count < LANE_KERNEL_MIN {
            count_above_serial(thresholds, count, rng, lanes);
            return;
        }
        let segment = count / LANES as u64;
        let jump = jumps.get(segment);
        let mut starts = [[0u64; 4]; LANES];
        let mut lane_rng = rng.clone();
        for (i, start) in starts.iter_mut().enumerate() {
            if i > 0 {
                lane_rng.jump(jump);
            }
            *start = lane_rng.state();
        }
        let last = draw_segments(thresholds, segment, &starts, lanes);
        *rng = DeterministicRng::from_state(last);
        count_above_serial(thresholds, count % LANES as u64, rng, lanes);
    }

    /// Step the 8 lane generators `steps` times from `starts`, adding
    /// `(raw > thresholds[i])` per lane draw into `lanes[i]`; returns the
    /// last lane's end state.
    ///
    /// Unsigned `raw > t` is the signed `_mm256_cmpgt_epi64` of both sides
    /// with their sign bits flipped; a true compare is all ones (−1), so
    /// subtracting it counts.
    #[target_feature(enable = "avx2")]
    fn draw_segments<const N: usize>(
        thresholds: &[u64; N],
        steps: u64,
        starts: &[[u64; 4]; LANES],
        lanes: &mut [u64; N],
    ) -> [u64; 4] {
        let sign = _mm256_set1_epi64x(i64::MIN);
        let biased = thresholds.map(|t| _mm256_set1_epi64x((t ^ 1 << 63) as i64));
        let word = |half: usize, w: usize| {
            let lane = |i: usize| starts[4 * half + i][w] as i64;
            _mm256_set_epi64x(lane(3), lane(2), lane(1), lane(0))
        };
        let mut s: [[__m256i; 4]; 2] =
            [0, 1].map(|half| [word(half, 0), word(half, 1), word(half, 2), word(half, 3)]);
        let mut acc = [_mm256_setzero_si256(); N];
        for _ in 0..steps {
            let mut raws = [_mm256_setzero_si256(); 2];
            for (raw, s) in raws.iter_mut().zip(s.iter_mut()) {
                // xoshiro256++: rotl(s0 + s3, 23) + s0, then the linear step.
                let sum = _mm256_add_epi64(s[0], s[3]);
                let rot =
                    _mm256_or_si256(_mm256_slli_epi64::<23>(sum), _mm256_srli_epi64::<41>(sum));
                *raw = _mm256_xor_si256(_mm256_add_epi64(rot, s[0]), sign);
                let t = _mm256_slli_epi64::<17>(s[1]);
                s[2] = _mm256_xor_si256(s[2], s[0]);
                s[3] = _mm256_xor_si256(s[3], s[1]);
                s[1] = _mm256_xor_si256(s[1], s[2]);
                s[0] = _mm256_xor_si256(s[0], s[3]);
                s[2] = _mm256_xor_si256(s[2], t);
                s[3] =
                    _mm256_or_si256(_mm256_slli_epi64::<45>(s[3]), _mm256_srli_epi64::<19>(s[3]));
            }
            for (a, &t) in acc.iter_mut().zip(&biased) {
                let lo = _mm256_cmpgt_epi64(raws[0], t);
                let hi = _mm256_cmpgt_epi64(raws[1], t);
                *a = _mm256_sub_epi64(_mm256_sub_epi64(*a, lo), hi);
            }
        }
        for (lane, &a) in lanes.iter_mut().zip(&acc) {
            *lane += sum_lanes(a);
        }
        let last = |w: usize| _mm256_extract_epi64::<3>(s[1][w]) as u64;
        [last(0), last(1), last(2), last(3)]
    }

    /// The sum of the four `u64` lanes of `v`.
    #[target_feature(enable = "avx2")]
    fn sum_lanes(v: __m256i) -> u64 {
        [
            _mm256_extract_epi64::<0>(v),
            _mm256_extract_epi64::<1>(v),
            _mm256_extract_epi64::<2>(v),
            _mm256_extract_epi64::<3>(v),
        ]
        .iter()
        .fold(0u64, |sum, &x| sum.wrapping_add(x as u64))
    }
}

/// Cached binomial sampler keyed by `(n, p)`.
///
/// [`prepare`](Self::prepare) resolves a parameter set to a stable plan id
/// (building the CDF table on first sight); [`sample_prepared`](Self::sample_prepared)
/// draws through that id with no hashing on the hot path.
#[derive(Debug, Clone, Default)]
pub struct BinomialCache {
    plans: Vec<Plan>,
    index: HashMap<(u64, u64, SamplerMode), usize>,
    hits: u64,
    misses: u64,
}

impl BinomialCache {
    /// Resolve `(n, p)` to a bit-compat plan id, building the plan on
    /// first use.
    ///
    /// Panics (like [`sample_binomial`]) if `p` is not a probability.
    pub fn prepare(&mut self, n: u64, p: f64) -> usize {
        self.prepare_mode(n, p, SamplerMode::BitCompat)
    }

    /// Resolve `(n, p)` under a [`SamplerMode`] to a plan id, building the
    /// plan on first use.  One cache holds both modes' plans side by side
    /// (distinct ids), so a worker switching modes between campaigns keeps
    /// all its tables.
    pub fn prepare_mode(&mut self, n: u64, p: f64, mode: SamplerMode) -> usize {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        if let Some(&id) = self.index.get(&(n, p.to_bits(), mode)) {
            self.hits += 1;
            return id;
        }
        self.misses += 1;
        let plan = match mode {
            SamplerMode::BitCompat => Self::build_plan(n, p),
            // Parameter sets the alias method cannot carry (degenerate,
            // oversize, underflow) fall back to the bit-compat plan: the
            // degenerate ones consume no RNG either way and the rest are
            // off the hot path by construction.
            SamplerMode::Fast => match DiscreteAlias::binomial(n, p) {
                Some(table) => Plan::Alias(table),
                None => Self::build_plan(n, p),
            },
        };
        let id = self.plans.len();
        self.plans.push(plan);
        self.index.insert((n, p.to_bits(), mode), id);
        id
    }

    fn build_plan(n: u64, p: f64) -> Plan {
        if n == 0 || p == 0.0 {
            return Plan::Certain(0);
        }
        if p == 1.0 {
            return Plan::Certain(n);
        }
        // Mirror exactly like the walk: table at q ≤ ½, reflect the draw.
        let (q, mirror) = if p > 0.5 {
            (1.0 - p, Some(n))
        } else {
            (p, None)
        };
        if n as u128 + 1 > MAX_TABLE_LEN as u128 {
            return Plan::DelegateBinomial { n, p };
        }
        let mut pmf = binomial_pmf_zero(n, q);
        if pmf == 0.0 {
            // The walk takes the normal-approximation fallback here, which
            // consumes a different number of uniforms; delegate verbatim.
            return Plan::DelegateBinomial { n, p };
        }
        // Identical recurrence and summation order as `sample_binomial`, so
        // every partial sum is bit-equal to the walk's running `cdf`.
        let odds = q / (1.0 - q);
        let mut cdf = Vec::with_capacity(n as usize + 1);
        let mut acc = pmf;
        cdf.push(acc);
        for k in 0..n {
            pmf *= (n - k) as f64 / (k + 1) as f64 * odds;
            acc += pmf;
            cdf.push(acc);
        }
        Plan::table(0, cdf, mirror)
    }

    /// Draw through a plan id returned by [`prepare`](Self::prepare).
    #[inline]
    pub fn sample_prepared(&self, id: usize, rng: &mut DeterministicRng) -> u64 {
        self.plans[id].sample(rng)
    }

    /// Borrow the plan behind `id` for repeated hot-loop draws.
    pub fn prepared(&self, id: usize) -> PreparedSampler<'_> {
        PreparedSampler {
            plan: &self.plans[id],
        }
    }

    /// Convenience: prepare-and-draw in one call (hashes per draw; hot loops
    /// should hoist [`prepare`](Self::prepare) instead).
    pub fn sample(&mut self, rng: &mut DeterministicRng, n: u64, p: f64) -> u64 {
        let id = self.prepare(n, p);
        self.sample_prepared(id, rng)
    }

    /// Number of distinct parameter sets prepared so far.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True if no parameter set has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// `prepare` calls answered from the index.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// `prepare` calls that built a new plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Cached hypergeometric sampler keyed by `(total, successes, draws)`.
///
/// Same contract as [`BinomialCache`]: bit-identical draws and RNG
/// consumption versus [`sample_hypergeometric`].
#[derive(Debug, Clone, Default)]
pub struct HypergeometricCache {
    plans: Vec<Plan>,
    index: HashMap<(u64, u64, u64, SamplerMode), usize>,
    hits: u64,
    misses: u64,
}

impl HypergeometricCache {
    /// Resolve `(total, successes, draws)` to a bit-compat plan id,
    /// building the CDF table on first use.
    ///
    /// Panics (like [`sample_hypergeometric`]) if `successes > total` or
    /// `draws > total`.
    pub fn prepare(&mut self, total: u64, successes: u64, draws: u64) -> usize {
        self.prepare_mode(total, successes, draws, SamplerMode::BitCompat)
    }

    /// Resolve `(total, successes, draws)` under a [`SamplerMode`]; same
    /// contract as [`BinomialCache::prepare_mode`].
    pub fn prepare_mode(
        &mut self,
        total: u64,
        successes: u64,
        draws: u64,
        mode: SamplerMode,
    ) -> usize {
        assert!(successes <= total, "successes {successes} > total {total}");
        assert!(draws <= total, "draws {draws} > total {total}");
        if let Some(&id) = self.index.get(&(total, successes, draws, mode)) {
            self.hits += 1;
            return id;
        }
        self.misses += 1;
        let plan = match mode {
            SamplerMode::BitCompat => Self::build_plan(total, successes, draws),
            SamplerMode::Fast => match DiscreteAlias::hypergeometric(total, successes, draws) {
                Some(table) => Plan::Alias(table),
                None => Self::build_plan(total, successes, draws),
            },
        };
        let id = self.plans.len();
        self.plans.push(plan);
        self.index.insert((total, successes, draws, mode), id);
        id
    }

    fn build_plan(total: u64, successes: u64, draws: u64) -> Plan {
        if draws == 0 || successes == 0 {
            return Plan::Certain(0);
        }
        let k_min = draws.saturating_sub(total - successes);
        let k_max = successes.min(draws);
        if (k_max - k_min) as u128 + 1 > MAX_TABLE_LEN as u128 {
            return Plan::DelegateHypergeometric {
                total,
                successes,
                draws,
            };
        }
        // Same pmf seed and ratio recurrence as `sample_hypergeometric`.
        let mut pmf = (ln_binomial(successes, k_min)
            + ln_binomial(total - successes, draws - k_min)
            - ln_binomial(total, draws))
        .exp();
        let mut cdf = Vec::with_capacity((k_max - k_min) as usize + 1);
        let mut acc = pmf;
        cdf.push(acc);
        for k in k_min..k_max {
            let remaining_failures = (total - successes + k + 1) - draws;
            let ratio = (successes - k) as f64 * (draws - k) as f64
                / ((k + 1) as f64 * remaining_failures as f64);
            pmf *= ratio;
            acc += pmf;
            cdf.push(acc);
        }
        Plan::table(k_min, cdf, None)
    }

    /// Draw through a plan id returned by [`prepare`](Self::prepare).
    #[inline]
    pub fn sample_prepared(&self, id: usize, rng: &mut DeterministicRng) -> u64 {
        self.plans[id].sample(rng)
    }

    /// Borrow the plan behind `id` for repeated hot-loop draws.
    pub fn prepared(&self, id: usize) -> PreparedSampler<'_> {
        PreparedSampler {
            plan: &self.plans[id],
        }
    }

    /// Convenience: prepare-and-draw in one call.
    pub fn sample(
        &mut self,
        rng: &mut DeterministicRng,
        total: u64,
        successes: u64,
        draws: u64,
    ) -> u64 {
        let id = self.prepare(total, successes, draws);
        self.sample_prepared(id, rng)
    }

    /// Number of distinct parameter sets prepared so far.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True if no parameter set has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// `prepare` calls answered from the index.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// `prepare` calls that built a new plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Draw `draws` times from both the free function and the cache on
    /// clones of the same RNG, asserting value-for-value equality and that
    /// both streams end in the same state (same uniforms consumed).
    fn assert_binomial_matches(n: u64, p: f64, draws: usize, seed: u64) {
        let mut walk_rng = DeterministicRng::new(seed);
        let mut cache_rng = walk_rng.clone();
        let mut cache = BinomialCache::default();
        let id = cache.prepare(n, p);
        for i in 0..draws {
            let want = sample_binomial(&mut walk_rng, n, p);
            let got = cache.sample_prepared(id, &mut cache_rng);
            assert_eq!(want, got, "n={n} p={p} draw {i}");
        }
        assert_eq!(
            walk_rng, cache_rng,
            "RNG streams diverged for n={n} p={p}: cached draw consumed a \
             different number of uniforms"
        );
    }

    fn assert_hypergeometric_matches(
        total: u64,
        successes: u64,
        draws: u64,
        reps: usize,
        seed: u64,
    ) {
        let mut walk_rng = DeterministicRng::new(seed);
        let mut cache_rng = walk_rng.clone();
        let mut cache = HypergeometricCache::default();
        let id = cache.prepare(total, successes, draws);
        for i in 0..reps {
            let want = sample_hypergeometric(&mut walk_rng, total, successes, draws);
            let got = cache.sample_prepared(id, &mut cache_rng);
            assert_eq!(want, got, "({total},{successes},{draws}) draw {i}");
        }
        assert_eq!(
            walk_rng, cache_rng,
            "RNG streams diverged for ({total},{successes},{draws})"
        );
    }

    #[test]
    fn binomial_matches_walk_on_grid() {
        let mut seed = 100;
        for &n in &[1u64, 2, 3, 7, 20, 40, 80] {
            for &p in &[0.01, 0.1, 0.3, 0.5, 0.55, 0.7, 0.9, 0.99] {
                seed += 1;
                assert_binomial_matches(n, p, 400, seed);
            }
        }
    }

    #[test]
    fn binomial_matches_walk_on_edges() {
        assert_binomial_matches(0, 0.5, 50, 1);
        assert_binomial_matches(10, 0.0, 50, 2);
        assert_binomial_matches(10, 1.0, 50, 3);
        assert_binomial_matches(1, 0.5, 200, 4);
    }

    #[test]
    fn binomial_matches_walk_through_underflow_fallback() {
        // 0.5^4000 underflows: the walk takes the clamped-normal fallback
        // (three uniforms per draw) and the cache must delegate to it.
        assert_binomial_matches(4000, 0.5, 60, 5);
        // Mirrored underflow: table would be built at q = 1 − p.
        assert_binomial_matches(4000, 0.50001, 60, 6);
    }

    #[test]
    fn binomial_delegates_oversize_tables() {
        assert_binomial_matches(MAX_TABLE_LEN as u64 + 1, 0.3, 60, 7);
        assert_binomial_matches(1 << 40, 0.25, 10, 8);
    }

    #[test]
    fn binomial_prepare_is_idempotent_and_counts() {
        let mut cache = BinomialCache::default();
        assert!(cache.is_empty());
        let a = cache.prepare(40, 0.3);
        let b = cache.prepare(40, 0.3);
        let c = cache.prepare(40, 0.31);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn binomial_convenience_sample_matches_prepared() {
        let mut one = DeterministicRng::new(9);
        let mut two = one.clone();
        let mut cache = BinomialCache::default();
        let id = cache.prepare(20, 0.4);
        let mut cache2 = BinomialCache::default();
        for _ in 0..100 {
            assert_eq!(
                cache.sample_prepared(id, &mut one),
                cache2.sample(&mut two, 20, 0.4)
            );
        }
    }

    #[test]
    fn hypergeometric_matches_walk_on_grid() {
        let mut seed = 500;
        for &(t, s, d) in &[
            (1u64, 1u64, 1u64),
            (10, 4, 5),
            (20, 8, 15), // k_min = 3 > 0
            (50, 50, 7),
            (100, 30, 12),
            (100, 1, 99),
            (200, 120, 200),
        ] {
            seed += 1;
            assert_hypergeometric_matches(t, s, d, 400, seed);
        }
    }

    #[test]
    fn hypergeometric_matches_walk_on_edges() {
        assert_hypergeometric_matches(10, 0, 5, 50, 600);
        assert_hypergeometric_matches(10, 4, 0, 50, 601);
        assert_hypergeometric_matches(5, 5, 5, 50, 602);
    }

    #[test]
    fn hypergeometric_delegates_oversize_tables() {
        let span = MAX_TABLE_LEN as u64 + 10;
        assert_hypergeometric_matches(4 * span, 2 * span, 2 * span, 20, 603);
    }

    #[test]
    fn hypergeometric_prepare_counts() {
        let mut cache = HypergeometricCache::default();
        let a = cache.prepare(100, 30, 12);
        let b = cache.prepare(100, 30, 12);
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(!cache.is_empty());
    }

    #[test]
    fn fast_mode_plans_are_distinct_and_expose_alias_tables() {
        let mut cache = BinomialCache::default();
        let compat = cache.prepare_mode(12, 0.1, SamplerMode::BitCompat);
        let fast = cache.prepare_mode(12, 0.1, SamplerMode::Fast);
        assert_ne!(compat, fast, "modes must not share plan ids");
        assert_eq!(cache.prepare(12, 0.1), compat, "prepare == bit-compat");
        assert_eq!(cache.prepare_mode(12, 0.1, SamplerMode::Fast), fast);
        assert!(cache.prepared(compat).as_alias().is_none());
        let table = cache.prepared(fast).as_alias().expect("fast plan is alias");
        assert_eq!(table.len(), 13);

        let mut hyper = HypergeometricCache::default();
        let h_compat = hyper.prepare_mode(100, 30, 12, SamplerMode::BitCompat);
        let h_fast = hyper.prepare_mode(100, 30, 12, SamplerMode::Fast);
        assert_ne!(h_compat, h_fast);
        assert!(hyper.prepared(h_fast).as_alias().is_some());
    }

    #[test]
    fn fast_mode_draws_stay_in_support_and_replay() {
        let mut cache = BinomialCache::default();
        let id = cache.prepare_mode(40, 0.3, SamplerMode::Fast);
        let mut one = DeterministicRng::new(21);
        let mut two = one.clone();
        for _ in 0..2_000 {
            let x = cache.sample_prepared(id, &mut one);
            assert!(x <= 40);
            assert_eq!(x, cache.sample_prepared(id, &mut two), "fast draws replay");
        }
    }

    #[test]
    fn fast_mode_falls_back_where_alias_cannot() {
        let mut cache = BinomialCache::default();
        // Degenerate: no RNG either way.
        let certain = cache.prepare_mode(10, 0.0, SamplerMode::Fast);
        assert!(cache.prepared(certain).as_alias().is_none());
        let mut rng = DeterministicRng::new(5);
        let before = rng.clone();
        assert_eq!(cache.sample_prepared(certain, &mut rng), 0);
        assert_eq!(rng, before, "degenerate fast plan consumes no RNG");
        // Underflow fallback delegates to the exact free function.
        let delegated = cache.prepare_mode(4000, 0.5, SamplerMode::Fast);
        assert!(cache.prepared(delegated).as_alias().is_none());
        let mut a = DeterministicRng::new(6);
        let mut b = a.clone();
        for _ in 0..20 {
            assert_eq!(
                cache.sample_prepared(delegated, &mut a),
                sample_binomial(&mut b, 4000, 0.5)
            );
        }
    }

    /// `sample_binned` must equal `count` calls of `sample`: same bins
    /// and the same RNG state afterwards.
    fn assert_binned_matches(sampler: PreparedSampler<'_>, bins: usize, count: u64, seed: u64) {
        let mut one_rng = DeterministicRng::new(seed);
        let mut binned_rng = one_rng.clone();
        let mut want = vec![0u64; bins];
        for _ in 0..count {
            want[sampler.sample(&mut one_rng) as usize] += 1;
        }
        let mut got = vec![0u64; bins];
        sampler.sample_binned(count, &mut binned_rng, &mut got, &mut JumpCache::default());
        assert_eq!(want, got, "{:?}: bins diverged", sampler.plan);
        assert_eq!(one_rng, binned_rng, "{:?}: RNG diverged", sampler.plan);
    }

    /// A table whose last entry is `top < 1`, so every uniform above it
    /// lands on the linear scan's clamp at `len − 1`.
    fn clamped_table(len: usize, top: f64, mirror: Option<u64>) -> Plan {
        let cdf = (1..=len).map(|i| top * i as f64 / len as f64).collect();
        Plan::table(2, cdf, mirror)
    }

    #[test]
    fn binned_draws_clamp_at_the_last_entry_at_every_lane_width() {
        for len in [1usize, 2, 3, 4, 5, 8, 9, 15, 16, 17] {
            for mirror in [None, Some(40)] {
                let plan = clamped_table(len, 0.3, mirror);
                let binnable = matches!(
                    plan,
                    Plan::Table {
                        raw_thresholds: Some(_),
                        ..
                    }
                );
                assert_eq!(binnable, len <= THRESHOLD_LANES_MAX, "len {len}");
                let sampler = PreparedSampler { plan: &plan };
                assert_binned_matches(sampler, 41, 5_000, len as u64);
            }
        }
    }

    #[test]
    fn binned_draws_fall_back_on_tables_that_fail_the_monotone_check() {
        let decreasing = Plan::table(0, vec![0.5, 0.2, 0.9, 1.0], None);
        let nan = Plan::table(0, vec![0.1, f64::NAN, 0.8, 1.0], None);
        for plan in [&decreasing, &nan] {
            assert!(matches!(
                plan,
                Plan::Table {
                    raw_thresholds: None,
                    ..
                }
            ));
            assert_binned_matches(PreparedSampler { plan }, 4, 2_000, 3);
        }
    }

    #[test]
    fn binned_draws_match_sample_on_real_plans() {
        let mut binomial = BinomialCache::default();
        let mut hyper = HypergeometricCache::default();
        let mut seed = 700;
        // Lane-width edges: tables of 2, 4, 8, 16 and 17 entries, plain
        // and mirrored; degenerate and delegated plans.
        for n in [0u64, 1, 3, 7, 15, 16, 40, 4000] {
            for p in [0.0, 0.1, 0.5, 0.8, 1.0] {
                seed += 1;
                let id = binomial.prepare(n, p);
                assert_binned_matches(binomial.prepared(id), n as usize + 1, 3_000, seed);
            }
        }
        for (t, s, d) in [(20u64, 8u64, 15u64), (10, 0, 5), (5, 5, 5), (100, 30, 12)] {
            seed += 1;
            let id = hyper.prepare(t, s, d);
            assert_binned_matches(hyper.prepared(id), d as usize + 1, 3_000, seed);
        }
    }

    #[test]
    fn binned_draws_of_zero_tasks_touch_nothing() {
        let mut cache = BinomialCache::default();
        let id = cache.prepare(5, 0.3);
        let mut rng = DeterministicRng::new(1);
        let before = rng.clone();
        let mut counts = vec![7u64; 6];
        let mut jumps = JumpCache::default();
        cache
            .prepared(id)
            .sample_binned(0, &mut rng, &mut counts, &mut jumps);
        assert_eq!(counts, vec![7u64; 6]);
        assert_eq!(rng, before);
        assert!(jumps.is_empty());
    }

    /// Thresholds of every lane width, with edge values: 0, a saturated
    /// `u64::MAX` (a CDF entry at 1) and a duplicate.
    fn threshold_sets() -> Vec<Vec<u64>> {
        let mut gen = DeterministicRng::new(99);
        let mut sets = vec![vec![], vec![0], vec![u64::MAX], vec![1 << 63, u64::MAX]];
        for len in [1usize, 2, 3, 4, 5, 8, 11, 15] {
            let mut set: Vec<u64> = (0..len).map(|_| gen.next_raw()).collect();
            set.sort_unstable();
            if len > 2 {
                set[1] = set[0];
            }
            sets.push(set);
        }
        sets
    }

    /// The serial loop against one `next_raw` per draw, and the AVX2
    /// kernel (where the CPU has it) against the serial loop, on the same
    /// thresholds, counts and seeds: the same lanes and the same RNG end
    /// state.  Counts straddle the cutoff and every residue mod 8.
    #[test]
    fn serial_and_avx2_kernels_agree_on_the_same_inputs() {
        let counts = [0u64, 1, 7, 8, 9, 4095, 4096, 4097, 4103, 8191, 20_005];
        let mut jumps = JumpCache::default();
        for (seed, thresholds) in threshold_sets().iter().enumerate() {
            let mut padded = [u64::MAX; 16];
            padded[..thresholds.len()].copy_from_slice(thresholds);
            for &count in &counts {
                let start = DeterministicRng::new(seed as u64);
                let mut want_rng = start.clone();
                let mut want = [0u64; 16];
                for _ in 0..count {
                    let raw = want_rng.next_raw();
                    for (w, &t) in want.iter_mut().zip(thresholds) {
                        *w += u64::from(raw > t);
                    }
                }
                let mut serial_rng = start.clone();
                let mut serial = [0u64; 16];
                count_above_serial(&padded, count, &mut serial_rng, &mut serial);
                assert_eq!(serial, want, "{thresholds:?} x {count}");
                assert_eq!(serial_rng, want_rng, "{thresholds:?} x {count}");
                let mut dispatched_rng = start.clone();
                let dispatched = count_above(thresholds, count, &mut dispatched_rng, &mut jumps);
                assert_eq!(dispatched, want, "{thresholds:?} x {count}");
                assert_eq!(dispatched_rng, want_rng, "{thresholds:?} x {count}");

                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut vector_rng = start.clone();
                    let mut vector = [0u64; 16];
                    // SAFETY: the CPU supports AVX2, checked just above.
                    unsafe {
                        avx2::count_above(&padded, count, &mut vector_rng, &mut jumps, &mut vector)
                    };
                    assert_eq!(vector, want, "avx2 {thresholds:?} x {count}");
                    assert_eq!(vector_rng, want_rng, "avx2 {thresholds:?} x {count}");
                }
            }
        }
    }

    #[test]
    fn binned_draws_keep_one_jump_polynomial_per_segment_length() {
        let mut cache = BinomialCache::default();
        let id = cache.prepare(3, 0.2);
        let sampler = cache.prepared(id);
        let mut rng = DeterministicRng::new(4);
        let mut counts = [0u64; 4];
        let mut jumps = JumpCache::default();
        for count in [5_000u64, 5_001, 5_007, 9_000, 100] {
            sampler.sample_binned(count, &mut rng, &mut counts, &mut jumps);
        }
        assert_eq!(counts.iter().sum::<u64>(), 24_108);
        // 5000..=5007 share the segment length 625; 100 draws serially.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(jumps.len(), 2);
            return;
        }
        assert!(jumps.is_empty());
    }

    #[test]
    #[should_panic(expected = "p must be a probability")]
    fn binomial_prepare_rejects_bad_p() {
        BinomialCache::default().prepare(10, 1.5);
    }

    #[test]
    #[should_panic(expected = "successes")]
    fn hypergeometric_prepare_rejects_bad_params() {
        HypergeometricCache::default().prepare(10, 11, 5);
    }
}
