//! Deterministic, splittable random number generation.
//!
//! Every experiment in this workspace must be exactly replayable from a
//! 64-bit seed, independent of platform, `rand` version quirks, or thread
//! count.  We therefore implement the generators ourselves:
//!
//! * [`SeedSequence`] — a SplitMix64-based seed deriver, used both to expand
//!   a user seed into xoshiro state and to mint independent child seeds for
//!   parallel workers (`derive(child_index)`);
//! * [`DeterministicRng`] — xoshiro256++ (Blackman & Vigna), a small, fast,
//!   well-tested generator with 2²⁵⁶−1 period.  All distribution helpers the
//!   workspace needs (`uniform`, `bernoulli`, `below`, `shuffle`, …) are
//!   inherent methods, so no external RNG ecosystem is required;
//! * [`JumpPoly`] / [`JumpCache`] — jump-ahead by any step count `m`
//!   (`x^m mod P`, Haramoto et al. 2008), which cuts one stream into exact
//!   contiguous segments that can be drawn side by side.

/// SplitMix64 step: the standard 64-bit finalizer-based generator used to
/// expand seeds (Steele, Lea & Flood 2014).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives arbitrarily many independent seeds from one root seed.
///
/// ```
/// use redundancy_stats::SeedSequence;
/// let seq = SeedSequence::new(42);
/// assert_ne!(seq.derive(0), seq.derive(1));
/// assert_eq!(seq.derive(7), SeedSequence::new(42).derive(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    root: u64,
}

impl SeedSequence {
    /// Create a sequence rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeedSequence { root: seed }
    }

    /// Deterministically derive the `index`-th child seed.
    ///
    /// Children are pairwise independent for all practical purposes: the
    /// root and index are mixed through two SplitMix64 finalizer rounds.
    pub fn derive(&self, index: u64) -> u64 {
        let mut s = self
            .root
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add(index.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        let a = splitmix64(&mut s);
        splitmix64(&mut s).wrapping_add(a.rotate_left(17))
    }
}

/// xoshiro256++ generator with SplitMix64 seeding.
///
/// ```
/// use redundancy_stats::DeterministicRng;
/// let mut rng = DeterministicRng::new(7);
/// let x = rng.uniform();
/// assert!((0.0..1.0).contains(&x));
/// // Same seed, same stream:
/// let mut rng2 = DeterministicRng::new(7);
/// assert_eq!(rng2.uniform(), x);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicRng {
    s: [u64; 4],
}

impl DeterministicRng {
    /// Seed via SplitMix64 expansion (never produces the all-zero state).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DeterministicRng { s }
    }

    /// Next raw 64-bit output (xoshiro256++ scrambler).
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        Self::uniform_of(self.next_raw())
    }

    /// The uniform [`uniform`](Self::uniform) returns for raw output
    /// `raw`: its top 53 bits scaled by `2⁻⁵³`, exactly.
    #[inline]
    pub fn uniform_of(raw: u64) -> f64 {
        (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The raw-output threshold of a probability `c ≥ 0`:
    /// `c < uniform_of(raw)` holds iff `raw > raw_threshold(c)`.
    ///
    /// `c·2⁵³` is exact (a power-of-two scale), and `uniform_of(raw)·2⁵³`
    /// is the integer `raw >> 11`, so `c < u` iff `raw >> 11 ≥ ⌊c·2⁵³⌋ + 1`
    /// iff `raw > ((⌊c·2⁵³⌋ + 1) << 11) − 1`.  When `⌊c·2⁵³⌋ ≥ 2⁵³ − 1`
    /// no uniform exceeds `c` and the threshold saturates at `u64::MAX`.
    /// Callers comparing many draws against a fixed `c` compare raw
    /// integers instead of converting each draw to `f64`.
    pub fn raw_threshold(c: f64) -> u64 {
        debug_assert!(c >= 0.0, "raw_threshold needs c >= 0, got {c}");
        const TOP: u64 = (1 << 53) - 1;
        let scaled = (c * (1u64 << 53) as f64).floor();
        if scaled >= TOP as f64 {
            u64::MAX
        } else {
            ((scaled as u64 + 1) << 11) - 1
        }
    }

    /// The four state words, for kernels that step the generator in
    /// vector lanes.
    pub(crate) fn state(&self) -> [u64; 4] {
        self.s
    }

    /// A generator resumed from [`state`](Self::state) words.
    pub(crate) fn from_state(s: [u64; 4]) -> Self {
        DeterministicRng { s }
    }

    /// Advance the stream by the step count `poly` was built for, as if
    /// [`next_raw`](Self::next_raw) had been called that many times.
    ///
    /// The state after `m` steps is `Tᵐ s`, and `Tᵐ = J(T)` for
    /// `J = xᵐ mod P` (Cayley–Hamilton), so the jump XOR-accumulates the
    /// states `Tⁱ s` for every coefficient `jᵢ = 1` over 256 steps — the
    /// loop of xoshiro's published `jump()`, for any `m`.
    pub fn jump(&mut self, poly: &JumpPoly) {
        let mut acc = [0u64; 4];
        for (w, &word) in poly.coeffs.iter().enumerate() {
            for b in 0..64 {
                if word >> b & 1 == 1 {
                    for (a, s) in acc.iter_mut().zip(&self.s) {
                        *a ^= s;
                    }
                }
                if w < 3 || b < 63 {
                    self.next_raw();
                }
            }
        }
        self.s = acc;
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// (unbiased; rejects at most a vanishing fraction of draws).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_raw();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: accept unless in the biased residue class.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (uniformly, without
    /// replacement) using Floyd's algorithm; output is sorted.
    pub fn sample_indices(&mut self, n: u64, k: u64) -> Vec<u64> {
        assert!(k <= n, "cannot sample {k} of {n} without replacement");
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.below(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }

    /// Next 32-bit output (upper half of the 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }

    /// Next 64-bit output (alias of [`Self::next_raw`]).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    /// Fill a byte buffer with generator output.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_raw().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Characteristic polynomial `P` of xoshiro256's linear engine (the state
/// transition `T`, without the `++` scrambler): degree 256 over GF(2),
/// coefficients of `x⁰ … x²⁵⁵` little-endian by word and bit, the leading
/// `x²⁵⁶` implicit.  `rng::tests::characteristic_polynomial_rederived`
/// re-derives it by Berlekamp–Massey.
const CHAR_POLY: [u64; 4] = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// The jump polynomial `xᵐ mod P` for advancing a stream by `m` steps
/// with [`DeterministicRng::jump`].
///
/// ```
/// use redundancy_stats::{DeterministicRng, JumpPoly};
/// let mut stepped = DeterministicRng::new(3);
/// let mut jumped = stepped.clone();
/// for _ in 0..1000 {
///     stepped.next_raw();
/// }
/// jumped.jump(&JumpPoly::new(1000));
/// assert_eq!(stepped, jumped);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JumpPoly {
    coeffs: [u64; 4],
}

impl JumpPoly {
    /// `x^steps mod P`, by square-and-multiply over the bits of `steps`.
    pub fn new(steps: u64) -> Self {
        let mut coeffs = [1, 0, 0, 0];
        for bit in (0..u64::BITS - steps.leading_zeros()).rev() {
            coeffs = poly_square_mod(coeffs);
            if steps >> bit & 1 == 1 {
                coeffs = poly_times_x_mod(coeffs);
            }
        }
        JumpPoly { coeffs }
    }
}

/// `a·x mod P`.
fn poly_times_x_mod(a: [u64; 4]) -> [u64; 4] {
    let overflow = a[3] >> 63 == 1;
    let mut r = [
        a[0] << 1,
        a[1] << 1 | a[0] >> 63,
        a[2] << 1 | a[1] >> 63,
        a[3] << 1 | a[2] >> 63,
    ];
    if overflow {
        for (r, p) in r.iter_mut().zip(&CHAR_POLY) {
            *r ^= p;
        }
    }
    r
}

/// `a² mod P`.  Squaring over GF(2) spreads the bits (`(Σ aᵢxⁱ)² =
/// Σ aᵢx²ⁱ`); the 512-bit square is then reduced from the top, replacing
/// each `xⁱ` with `i ≥ 256` by `xⁱ⁻²⁵⁶·(P − x²⁵⁶)`.
fn poly_square_mod(a: [u64; 4]) -> [u64; 4] {
    fn spread(half: u64) -> u64 {
        let mut x = half & 0xffff_ffff;
        x = (x | x << 16) & 0x0000_ffff_0000_ffff;
        x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
        x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
        x = (x | x << 2) & 0x3333_3333_3333_3333;
        (x | x << 1) & 0x5555_5555_5555_5555
    }
    let mut wide = [0u64; 8];
    for (i, &word) in a.iter().enumerate() {
        wide[2 * i] = spread(word);
        wide[2 * i + 1] = spread(word >> 32);
    }
    for i in (256..512).rev() {
        if wide[i / 64] >> (i % 64) & 1 == 1 {
            wide[i / 64] ^= 1 << (i % 64);
            // XOR `CHAR_POLY · x^(i − 256)` into bits `i − 256 .. i`.
            let (word, shift) = ((i - 256) / 64, (i - 256) % 64);
            for (k, &p) in CHAR_POLY.iter().enumerate() {
                wide[word + k] ^= p << shift;
                if shift > 0 {
                    wide[word + k + 1] ^= p >> (64 - shift);
                }
            }
        }
    }
    [wide[0], wide[1], wide[2], wide[3]]
}

/// Per-worker cache of [`JumpPoly`]s keyed by step count.
///
/// A polynomial costs tens of microseconds to build and a jump well under
/// one, so kernels that jump by the same segment length campaign after
/// campaign keep them here.  The map is a short list: a worker sees a
/// handful of distinct lengths (one per large spec group).
#[derive(Debug, Clone, Default)]
pub struct JumpCache {
    polys: Vec<(u64, JumpPoly)>,
}

impl JumpCache {
    /// Distinct step counts kept before the cache starts over.
    const CAPACITY: usize = 32;

    /// The polynomial for `steps`, built on first use.
    pub fn get(&mut self, steps: u64) -> &JumpPoly {
        let at = match self.polys.iter().position(|&(m, _)| m == steps) {
            Some(at) => at,
            None => {
                if self.polys.len() == Self::CAPACITY {
                    self.polys.clear();
                }
                self.polys.push((steps, JumpPoly::new(steps)));
                self.polys.len() - 1
            }
        };
        &self.polys[at].1
    }

    /// Number of step counts cached.
    pub fn len(&self) -> usize {
        self.polys.len()
    }

    /// True if no polynomial has been built yet.
    pub fn is_empty(&self) -> bool {
        self.polys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_by_m_equals_m_steps() {
        for m in [0u64, 1, 255, 256, 257, 12345, 100_003] {
            let mut stepped = DeterministicRng::new(m ^ 0x5eed);
            let mut jumped = stepped.clone();
            for _ in 0..m {
                stepped.next_raw();
            }
            jumped.jump(&JumpPoly::new(m));
            assert_eq!(stepped, jumped, "m = {m}");
        }
    }

    #[test]
    fn jump_matches_the_published_2_pow_128_jump() {
        // xoshiro256's reference `jump()` constant is `x^(2^128) mod P`.
        let mut coeffs = [2, 0, 0, 0];
        for _ in 0..128 {
            coeffs = poly_square_mod(coeffs);
        }
        assert_eq!(
            coeffs,
            [
                0x180e_c6d3_3cfd_0aba,
                0xd5a6_1266_f0c9_392c,
                0xa958_2618_e03f_c9aa,
                0x39ab_dc45_29b1_661c,
            ]
        );
    }

    /// Berlekamp–Massey over GF(2) on one state bit's sequence recovers the
    /// minimal polynomial of `T`, which is its degree-256 characteristic
    /// polynomial (primitive, hence irreducible).
    #[test]
    fn characteristic_polynomial_rederived() {
        let n = 512;
        let mut rng = DeterministicRng { s: [1, 2, 3, 4] };
        let bits: Vec<u8> = (0..n)
            .map(|_| {
                let bit = (rng.s[0] & 1) as u8;
                rng.next_raw();
                bit
            })
            .collect();
        // Connection polynomial `c` (c[0] = 1) of length `len`.
        let (mut c, mut b) = (vec![0u8; n + 1], vec![0u8; n + 1]);
        c[0] = 1;
        b[0] = 1;
        let (mut len, mut gap) = (0usize, 1usize);
        for i in 0..n {
            let d = (1..=len).fold(bits[i], |d, j| d ^ (c[j] & bits[i - j]));
            if d == 0 {
                gap += 1;
                continue;
            }
            let prev = c.clone();
            for j in 0..=n - gap {
                c[j + gap] ^= b[j];
            }
            if 2 * len <= i {
                len = i + 1 - len;
                b = prev;
                gap = 1;
            } else {
                gap += 1;
            }
        }
        assert_eq!(len, 256);
        // P(x) = x²⁵⁶·c(1/x): the coefficient of xᵏ is c[256 − k].
        let mut derived = [0u64; 4];
        for k in 0..256 {
            derived[k / 64] |= u64::from(c[256 - k]) << (k % 64);
        }
        assert_eq!(derived, CHAR_POLY);
    }

    #[test]
    fn jump_cache_builds_each_length_once() {
        let mut cache = JumpCache::default();
        assert!(cache.is_empty());
        let a = *cache.get(4096);
        assert_eq!(a, *cache.get(4096));
        assert_eq!(cache.len(), 1);
        assert_eq!(*cache.get(7), JumpPoly::new(7));
        assert_eq!(cache.len(), 2);
        for m in 0..100 {
            assert_eq!(*cache.get(m), JumpPoly::new(m));
        }
        assert!(cache.len() <= JumpCache::CAPACITY);
    }

    #[test]
    fn raw_threshold_edges() {
        let check = |c: f64| {
            let r = DeterministicRng::raw_threshold(c);
            if r < u64::MAX {
                assert!(c < DeterministicRng::uniform_of(r + 1), "c = {c:e}");
            }
            assert!(c >= DeterministicRng::uniform_of(r), "c = {c:e}");
            r
        };
        assert_eq!(check(0.0), (1 << 11) - 1);
        assert_eq!(check(f64::from_bits(1)), (1 << 11) - 1);
        assert_eq!(check(f64::MIN_POSITIVE / 2.0), (1 << 11) - 1);
        // At `k/2⁵³` and the floats either side of it (below 2⁻¹ the next
        // float up still floors to `k`; from there on it is `(k + 1)/2⁵³`).
        let ulp = 1.0 / (1u64 << 53) as f64;
        for k in [1u64, 2, 3, 1 << 20, (1 << 52) + 1, (1 << 53) - 2] {
            let at = k as f64 * ulp;
            assert_eq!(check(at), ((k + 1) << 11) - 1, "k = {k}");
            assert_eq!(check(f64::from_bits(at.to_bits() - 1)), (k << 11) - 1);
            let want = match k {
                k if k < 1 << 52 => ((k + 1) << 11) - 1,
                k if k + 2 < 1 << 53 => ((k + 2) << 11) - 1,
                _ => u64::MAX,
            };
            assert_eq!(check(f64::from_bits(at.to_bits() + 1)), want, "k = {k}");
        }
        assert_eq!(check(1.0 - ulp), u64::MAX);
        assert_eq!(check(1.0), u64::MAX);
        assert_eq!(check(1.5), u64::MAX);
        assert_eq!(check(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn reference_vector_xoshiro256pp() {
        // State {1,2,3,4} must produce the published xoshiro256++ outputs.
        let mut rng = DeterministicRng { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expected {
            assert_eq!(rng.next_raw(), e);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::new(123);
        let mut b = DeterministicRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let same = (0..32).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = DeterministicRng::new(9);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = DeterministicRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = DeterministicRng::new(5);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 600, "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        DeterministicRng::new(0).below(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DeterministicRng::new(77);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = DeterministicRng::new(3);
        for _ in 0..100 {
            let s = rng.sample_indices(20, 7);
            assert_eq!(s.len(), 7);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_indices_full_and_empty() {
        let mut rng = DeterministicRng::new(3);
        assert_eq!(rng.sample_indices(5, 5), vec![0, 1, 2, 3, 4]);
        assert!(rng.sample_indices(5, 0).is_empty());
    }

    #[test]
    fn sample_indices_is_uniform_ish() {
        // Each index of 0..10 should appear in a 3-sample with prob 0.3.
        let mut rng = DeterministicRng::new(8);
        let mut counts = [0u32; 10];
        let trials = 30_000;
        for _ in 0..trials {
            for i in rng.sample_indices(10, 3) {
                counts[i as usize] += 1;
            }
        }
        for &c in &counts {
            let frac = c as f64 / trials as f64;
            assert!((frac - 0.3).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn seed_sequence_children_are_stable_and_distinct() {
        let seq = SeedSequence::new(0xDEADBEEF);
        let children: Vec<u64> = (0..64).map(|i| seq.derive(i)).collect();
        let unique: std::collections::HashSet<_> = children.iter().collect();
        assert_eq!(unique.len(), children.len());
        assert_eq!(children[5], SeedSequence::new(0xDEADBEEF).derive(5));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = DeterministicRng::new(1);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn rngcore_next_u32_works() {
        let mut rng = DeterministicRng::new(4);
        let a = rng.next_u32();
        let b = rng.next_u32();
        // Just exercise the path and confirm progression.
        assert!(a != b || rng.next_u32() != b);
    }
}
