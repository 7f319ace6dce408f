//! Deterministic random number generation and sampling.
//!
//! Everything stochastic in the workspace (SNR processes, failure tickets,
//! demand matrices, AWGN channels) draws from [`Xoshiro256`], a from-scratch
//! implementation of the xoshiro256** generator seeded through SplitMix64.
//! Implementing the generator and the distribution samplers locally — instead
//! of depending on `StdRng`/`rand_distr` — guarantees that a given seed
//! reproduces the *same* synthetic backbone forever, independent of upstream
//! algorithm changes. `rand::RngCore` is implemented so the generator remains
//! interoperable with the wider `rand` ecosystem (e.g. `SliceRandom`).

use rand::RngCore;

/// xoshiro256** 1.0 — a small, fast, high-quality PRNG.
///
/// State is seeded via SplitMix64 from a single `u64`, following the
/// reference implementation by Blackman & Vigna.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators created from the same seed produce identical streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        // Multiply-shift rejection-free mapping is fine here: simulation code
        // tolerates the ~2^-64 modulo bias, and determinism matters more.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        // Draw u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Lognormal sample parameterised by the *underlying* normal's `mu` and
    /// `sigma` (i.e. the sample is `exp(N(mu, sigma))`).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Lognormal sample parameterised by the desired *median* and the
    /// multiplicative spread `sigma` (log-space standard deviation).
    pub fn lognormal_median(&mut self, median: f64, sigma: f64) -> f64 {
        assert!(median > 0.0, "lognormal median must be positive");
        self.lognormal(median.ln(), sigma)
    }

    /// Exponential sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Poisson sample with the given rate `lambda`.
    ///
    /// Uses Knuth's product method for small `lambda` and a normal
    /// approximation above 30 (rates in this workspace are small — events per
    /// link per observation window — so the approximation branch is rare).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "poisson rate must be non-negative");
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let x = self.normal(lambda, lambda.sqrt());
            return x.max(0.0).round() as u64;
        }
        let limit = (-lambda).exp();
        let mut product = self.uniform();
        let mut count = 0u64;
        while product > limit {
            count += 1;
            product *= self.uniform();
        }
        count
    }

    /// Picks an index according to the given (not necessarily normalised)
    /// non-negative weights. Panics if all weights are zero or the slice is
    /// empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index requires a positive total weight");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

impl RngCore for Xoshiro256 {
    fn next_u32(&mut self) -> u32 {
        (Xoshiro256::next_u64(self) >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        Xoshiro256::next_u64(self)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&Xoshiro256::next_u64(self).to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = Xoshiro256::next_u64(self).to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
    }

    #[test]
    fn below_covers_range() {
        let mut rng = Xoshiro256::seed_from_u64(17);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256::seed_from_u64(19);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean={mean}");
        assert!((var - 4.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn poisson_mean_small_rate() {
        let mut rng = Xoshiro256::seed_from_u64(29);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.poisson(2.5) as f64).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn poisson_large_rate_uses_normal_approx() {
        let mut rng = Xoshiro256::seed_from_u64(31);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.poisson(100.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 0.5, "mean={mean}");
    }

    #[test]
    fn poisson_zero_rate() {
        let mut rng = Xoshiro256::seed_from_u64(37);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn lognormal_median_matches() {
        let mut rng = Xoshiro256::seed_from_u64(41);
        let n = 100_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.lognormal_median(60.0, 0.4)).collect();
        samples.sort_unstable_by(f64::total_cmp);
        let median = samples[n / 2];
        assert!((median - 60.0).abs() < 1.5, "median={median}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Xoshiro256::seed_from_u64(47);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio={ratio}");
    }

    #[test]
    #[should_panic]
    fn weighted_index_panics_on_zero_total() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        rng.weighted_index(&[0.0, 0.0]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(53);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely identity shuffle");
    }

    #[test]
    fn rngcore_fill_bytes_deterministic() {
        use rand::RngCore;
        let mut a = Xoshiro256::seed_from_u64(59);
        let mut b = Xoshiro256::seed_from_u64(59);
        let mut ba = [0u8; 13];
        let mut bb = [0u8; 13];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba, bb);
    }
}

// ---------------------------------------------------------------------------
// Counter-based generation (the batch path)
// ---------------------------------------------------------------------------

/// Philox-2×64 round multiplier (Salmon et al., *Parallel Random Numbers:
/// As Easy as 1, 2, 3*, SC'11).
pub(crate) const PHILOX_M: u64 = 0xD2B7_4407_B1CE_6E93;
/// Weyl key increment (the 64-bit golden ratio), per the same paper.
pub(crate) const PHILOX_W: u64 = 0x9E37_79B9_7F4A_7C15;
/// Round count. The reference implementation recommends 10 for Philox-2×64
/// (BigCrush passes from 6; 10 keeps the published safety margin).
pub(crate) const PHILOX_ROUNDS: u32 = 10;

/// A counter-based random generator: Philox-2×64-10 keyed by
/// `(seed, stream, domain)` and indexed by a 64-bit block counter.
///
/// Unlike [`Xoshiro256`], a `CounterRng` has **no mutable state**: block
/// `k` of a given key is a pure function, so any window of a stream can be
/// produced independently, in any order, on any thread — nothing needs to
/// be threaded, checkpointed or replayed. This is what makes batch SNR
/// generation embarrassingly parallel: sample `k` of link `j` is
/// `f(seed, j, domain, k)` and nothing else.
///
/// The uniform and normal accessors below are the *canonical scalar
/// definitions* of the batch sample stream; [`crate::simd`] provides
/// vectorized fills that are bit-identical to them (every operation is a
/// correctly-rounded IEEE-754 primitive evaluated in the same order, and
/// fused multiply-add is never used).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    pub(crate) key: u64,
    pub(crate) ctr_hi: u64,
}

impl CounterRng {
    /// Keys a generator from `(seed, stream, domain)`.
    ///
    /// `stream` is typically a link id and `domain` a purpose tag; distinct
    /// tuples give statistically independent streams (the tuple is mixed
    /// through SplitMix64 into the Philox key and the counter's high word).
    pub fn keyed(seed: u64, stream: u64, domain: u64) -> Self {
        let mut state = seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(domain.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let key = splitmix64(&mut state);
        let ctr_hi = splitmix64(&mut state);
        Self { key, ctr_hi }
    }

    /// Derives an independent sub-stream (same seed material, new domain).
    pub fn derive(&self, salt: u64) -> Self {
        let mut state = self
            .key
            .wrapping_add(self.ctr_hi.rotate_left(32))
            .wrapping_add(salt.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let key = splitmix64(&mut state);
        let ctr_hi = splitmix64(&mut state);
        Self { key, ctr_hi }
    }

    /// The raw 128-bit Philox block at `counter`: a pure function of
    /// `(key, counter)` — calling it twice, in any order, on any thread,
    /// returns the same words.
    #[inline]
    pub fn block(&self, counter: u64) -> [u64; 2] {
        let mut x0 = counter;
        let mut x1 = self.ctr_hi;
        let mut key = self.key;
        for _ in 0..PHILOX_ROUNDS {
            let prod = (PHILOX_M as u128) * (x0 as u128);
            let (hi, lo) = ((prod >> 64) as u64, prod as u64);
            x0 = hi ^ key ^ x1;
            x1 = lo;
            key = key.wrapping_add(PHILOX_W);
        }
        [x0, x1]
    }

    /// The canonical batch normal pair at `counter`: a pair-consuming
    /// Box–Muller over the block's two uniforms, `(r·cos, r·sin)`.
    ///
    /// Uses `fast_ln` / `fast_sincos_turn` (absolute error < 1e-8 on
    /// the resulting normals) so the vector paths in [`crate::simd`] can
    /// reproduce it bit-for-bit.
    #[inline]
    pub fn normal_pair(&self, counter: u64) -> (f64, f64) {
        let [a, b] = self.block(counter);
        // u1 ∈ (0, 1]: 2 − splice(a) is exact (both operands share the
        // [1, 2) binade), which keeps ln's argument away from zero.
        let u1 = 2.0 - f64::from_bits((a >> 12) | 0x3FF0_0000_0000_0000);
        let u2 = unit_f64(b);
        let r = (-2.0 * fast_ln(u1)).sqrt();
        let (s, c) = fast_sincos_turn(u2);
        (r * c, r * s)
    }

    /// Normal `index` of the stream: lane `index & 1` of pair `index >> 1`.
    #[inline]
    pub fn normal_at(&self, index: u64) -> f64 {
        let pair = self.normal_pair(index >> 1);
        if index & 1 == 0 { pair.0 } else { pair.1 }
    }
}

/// `[0, 1)` uniform from the top 52 bits of a random word: splice the bits
/// into the mantissa of a `[1, 2)` double and subtract 1. Unlike a
/// `u64 → f64` convert this is two integer ops plus one exact subtraction,
/// so it vectorizes on every SIMD ISA.
#[inline]
pub(crate) fn unit_f64(bits: u64) -> f64 {
    f64::from_bits((bits >> 12) | 0x3FF0_0000_0000_0000) - 1.0
}

/// Natural log for finite positive inputs, accurate to ~1e-11 relative.
///
/// Branch-free polynomial form (exponent extracted by bit-splicing, the
/// `m > √2` adjustment done with an arithmetic select) so the SIMD paths
/// can mirror it operation-for-operation. **Not** a general `ln`: no
/// handling of zero, negatives, infinities, NaN or subnormals — callers
/// feed it uniforms from `(0, 1]`.
#[inline]
pub(crate) fn fast_ln(x: f64) -> f64 {
    let bits = x.to_bits();
    // Biased exponent to f64 without an int→float convert: splice it into
    // the mantissa of 2^52, subtract (2^52 + bias).
    let e_raw =
        f64::from_bits(0x4330_0000_0000_0000 | (bits >> 52)) - (4_503_599_627_370_496.0 + 1023.0);
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    // Halve mantissas above √2 so t below stays in [−0.1716, 0.1716].
    let adj = if m > std::f64::consts::SQRT_2 { 1.0 } else { 0.0 };
    let e = e_raw + adj;
    let m = m * (1.0 - 0.5 * adj);
    // atanh form: ln m = 2 atanh t, t = (m−1)/(m+1); odd series in t.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut p = 2.0 / 11.0;
    p = p * t2 + 2.0 / 9.0;
    p = p * t2 + 2.0 / 7.0;
    p = p * t2 + 2.0 / 5.0;
    p = p * t2 + 2.0 / 3.0;
    p = p * t2 + 2.0;
    e * std::f64::consts::LN_2 + t * p
}

/// Round-to-nearest-integer constant: adding and subtracting 1.5·2^52
/// forces a f64 in (−2^51, 2^51) to the nearest integer in the rounding
/// step, with no float→int→float round trip.
pub(crate) const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `(sin 2πu, cos 2πu)` for `u ∈ [0, 1)`, absolute error < 1e-8.
///
/// Quarter-turn range reduction with a float-only parity select
/// (`k·(2−k)` is the parity of `k ∈ {0, 1, 2}`), then odd/even Taylor
/// polynomials on `|φ| ≤ π/2` — fully branch-free so the SIMD paths can
/// mirror it bit-for-bit.
#[inline]
pub(crate) fn fast_sincos_turn(u: f64) -> (f64, f64) {
    let k2 = (2.0 * u + ROUND_MAGIC) - ROUND_MAGIC; // rint(2u) ∈ {0, 1, 2}
    let w = u - 0.5 * k2; // |w| ≤ 0.25 turn
    let phi = std::f64::consts::TAU * w; // |φ| ≤ π/2
    let z = phi * phi;
    let mut s = 1.0 / 6_227_020_800.0; // 1/13!
    s = s * z - 1.0 / 39_916_800.0;
    s = s * z + 1.0 / 362_880.0;
    s = s * z - 1.0 / 5_040.0;
    s = s * z + 1.0 / 120.0;
    s = s * z - 1.0 / 6.0;
    s = s * z + 1.0;
    let s = phi * s;
    let mut c = 1.0 / 479_001_600.0; // 1/12!
    c = c * z - 1.0 / 3_628_800.0;
    c = c * z + 1.0 / 40_320.0;
    c = c * z - 1.0 / 720.0;
    c = c * z + 1.0 / 24.0;
    c = c * z - 0.5;
    c = c * z + 1.0;
    // sin(φ + kπ) = ±sin φ, cos(φ + kπ) = ±cos φ, same sign, by k's parity.
    let sign = 1.0 - 2.0 * (k2 * (2.0 - k2));
    (sign * s, sign * c)
}

#[cfg(test)]
mod counter_tests {
    use super::*;

    #[test]
    fn same_key_same_block() {
        let a = CounterRng::keyed(7, 3, 1);
        let b = CounterRng::keyed(7, 3, 1);
        for k in [0u64, 1, 2, 1_000_000, u64::MAX] {
            assert_eq!(a.block(k), b.block(k));
        }
    }

    #[test]
    fn counter_access_is_pure_and_order_independent() {
        let rng = CounterRng::keyed(42, 11, 2);
        let forward: Vec<[u64; 2]> = (0..64).map(|k| rng.block(k)).collect();
        let backward: Vec<[u64; 2]> = (0..64).rev().map(|k| rng.block(k)).collect();
        for (k, blk) in forward.iter().enumerate() {
            assert_eq!(*blk, backward[63 - k]);
            assert_eq!(*blk, rng.block(k as u64), "revisit must reproduce");
        }
    }

    #[test]
    fn distinct_tuples_give_distinct_streams() {
        let base = CounterRng::keyed(1, 2, 3);
        for other in [
            CounterRng::keyed(2, 2, 3),
            CounterRng::keyed(1, 3, 3),
            CounterRng::keyed(1, 2, 4),
            base.derive(1),
            base.derive(2),
        ] {
            assert_ne!(base.block(0), other.block(0));
            assert_ne!(base.block(1), other.block(1));
        }
    }

    #[test]
    fn derive_is_deterministic_and_salt_sensitive() {
        let rng = CounterRng::keyed(9, 9, 9);
        assert_eq!(rng.derive(5), rng.derive(5));
        assert_ne!(rng.derive(5), rng.derive(6));
    }

    #[test]
    fn normal_pair_moments() {
        let rng = CounterRng::keyed(17, 4, 1);
        let (mut sum, mut sum2, mut sum3, mut sum4) = (0.0, 0.0, 0.0, 0.0);
        let pairs = 500_000u64;
        for k in 0..pairs {
            let (a, b) = rng.normal_pair(k);
            for x in [a, b] {
                sum += x;
                sum2 += x * x;
                sum3 += x * x * x;
                sum4 += x * x * x * x;
            }
        }
        let n = (2 * pairs) as f64;
        let mean = sum / n;
        let var = sum2 / n - mean * mean;
        assert!(mean.abs() < 5e-3, "mean {mean}");
        assert!((var - 1.0).abs() < 5e-3, "var {var}");
        assert!((sum3 / n).abs() < 2e-2, "skew {}", sum3 / n);
        assert!((sum4 / n - 3.0).abs() < 5e-2, "kurtosis {}", sum4 / n);
    }

    #[test]
    fn normal_at_selects_pair_lanes() {
        let rng = CounterRng::keyed(3, 3, 3);
        for k in 0..32u64 {
            let (a, b) = rng.normal_pair(k);
            assert_eq!(rng.normal_at(2 * k), a);
            assert_eq!(rng.normal_at(2 * k + 1), b);
        }
    }

    #[test]
    fn fast_ln_matches_std_on_unit_interval() {
        let rng = CounterRng::keyed(23, 0, 0);
        let mut worst = 0.0f64;
        for k in 0..200_000u64 {
            let u = unit_f64(rng.block(k)[0]);
            let x = 1.0 - u; // (0, 1]
            worst = worst.max((fast_ln(x) - x.ln()).abs());
        }
        for x in [f64::MIN_POSITIVE, 2f64.powi(-52), 0.5, 1.0 - 1e-15, 1.0] {
            worst = worst.max((fast_ln(x) - x.ln()).abs());
        }
        assert!(worst < 1e-9, "worst abs error {worst:e}");
    }

    #[test]
    fn fast_sincos_matches_std_on_unit_interval() {
        let rng = CounterRng::keyed(29, 0, 0);
        let mut worst = 0.0f64;
        let mut check = |u: f64| {
            let (s, c) = fast_sincos_turn(u);
            let (s2, c2) = (std::f64::consts::TAU * u).sin_cos();
            worst = worst.max((s - s2).abs().max((c - c2).abs()));
        };
        for k in 0..200_000u64 {
            check(unit_f64(rng.block(k)[1]));
        }
        for u in [0.0, 0.25, 0.5, 0.75, 0.249_999_999_9, 0.750_000_000_1, 1.0 - 1e-16] {
            check(u);
        }
        assert!(worst < 1e-8, "worst abs error {worst:e}");
    }

    #[test]
    fn philox_avalanche_between_adjacent_counters() {
        // Adjacent counters must differ in roughly half the output bits.
        let rng = CounterRng::keyed(101, 7, 0);
        let mut total = 0u32;
        let trials = 1024u64;
        for k in 0..trials {
            let a = rng.block(k);
            let b = rng.block(k + 1);
            total += (a[0] ^ b[0]).count_ones() + (a[1] ^ b[1]).count_ones();
        }
        let mean_flips = total as f64 / trials as f64;
        assert!((mean_flips - 64.0).abs() < 3.0, "mean flips {mean_flips}");
    }
}
