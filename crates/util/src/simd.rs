//! Vectorized batch sampling kernels.
//!
//! [`fill_normal_pairs`] materialises a contiguous run of
//! [`CounterRng`](crate::rng::CounterRng) Box–Muller pairs into a caller
//! buffer. The output is **bit-identical on every path** — AVX2, SSE2 and
//! the plain scalar fallback — because each lane evaluates exactly the same
//! sequence of correctly-rounded IEEE-754 operations as
//! [`CounterRng::normal_pair`](crate::rng::CounterRng::normal_pair):
//! the same polynomial, in the same order, with no fused multiply-add and
//! no reassociation. The SIMD paths are therefore a pure throughput
//! optimisation; determinism and cross-machine reproducibility are decided
//! by the scalar definition alone.
//!
//! `unsafe` policy: this is the one module in `rwc-util` allowed to use
//! `unsafe` (mirroring the counting allocator in `rwc-bench`). It is
//! confined to `core::arch` intrinsic calls plus two raw-pointer stores
//! into a bounds-checked output slice; everything is testable against the
//! safe scalar path, and [`simd_tests`] asserts bitwise equality on every
//! path the host supports.

use crate::rng::{CounterRng, PHILOX_M, PHILOX_ROUNDS, PHILOX_W};

/// Fills `out` (an even-length slice) with consecutive Box–Muller pairs:
/// `out[2i] = pair(first_pair + i).0`, `out[2i + 1] = pair(first_pair + i).1`.
///
/// Dispatches to the widest SIMD path the host supports; the result does
/// not depend on the path taken.
pub fn fill_normal_pairs(rng: &CounterRng, first_pair: u64, out: &mut [f64]) {
    assert_eq!(out.len() % 2, 0, "normal pairs come two samples at a time");
    #[cfg(target_arch = "x86_64")]
    {
        x86::fill_dispatch(rng, first_pair, out);
    }
    #[cfg(not(target_arch = "x86_64"))]
    fill_scalar(rng, first_pair, out);
}

/// The canonical scalar fill: one [`CounterRng::normal_pair`] per slot.
/// Reference implementation for the SIMD paths and non-x86 fallback.
pub(crate) fn fill_scalar(rng: &CounterRng, first_pair: u64, out: &mut [f64]) {
    assert_eq!(out.len() % 2, 0, "normal pairs come two samples at a time");
    for (i, slot) in out.chunks_exact_mut(2).enumerate() {
        let (a, b) = rng.normal_pair(first_pair + i as u64);
        slot[0] = a;
        slot[1] = b;
    }
}

/// Four Philox-2×64 blocks with interleaved rounds: the serial multiply
/// chain of one block hides behind the other three, which roughly triples
/// scalar throughput. Bit-identical to four [`CounterRng::block`] calls.
#[inline(always)]
fn philox4(ctr0: u64, ctr_hi: u64, seed_key: u64) -> [[u64; 2]; 4] {
    let mut x = [ctr0, ctr0 + 1, ctr0 + 2, ctr0 + 3];
    let mut y = [ctr_hi; 4];
    let mut key = seed_key;
    for _ in 0..PHILOX_ROUNDS {
        for lane in 0..4 {
            let prod = (PHILOX_M as u128) * (x[lane] as u128);
            let (hi, lo) = ((prod >> 64) as u64, prod as u64);
            x[lane] = hi ^ key ^ y[lane];
            y[lane] = lo;
        }
        key = key.wrapping_add(PHILOX_W);
    }
    [[x[0], y[0]], [x[1], y[1]], [x[2], y[2]], [x[3], y[3]]]
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{philox4, CounterRng};
    use core::arch::x86_64::*;

    const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
    const EXP_SPLICE: i64 = 0x4330_0000_0000_0000;
    const MANTISSA: i64 = 0x000F_FFFF_FFFF_FFFF_u64 as i64;
    const EXP_BIAS: f64 = 4_503_599_627_370_496.0 + 1023.0;
    const ROUND_MAGIC: f64 = crate::rng::ROUND_MAGIC;

    /// Picks the widest available path: AVX2 if the host has it, else SSE2
    /// (unconditional on x86_64).
    pub(super) fn fill_dispatch(rng: &CounterRng, first_pair: u64, out: &mut [f64]) {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { fill_avx2(rng, first_pair, out) };
        } else {
            fill_sse2(rng, first_pair, out);
        }
    }

    /// SSE2 path (baseline on x86_64): two Box–Muller pairs per vector.
    pub(super) fn fill_sse2(rng: &CounterRng, first_pair: u64, out: &mut [f64]) {
        let n_pairs = out.len() / 2;
        let main = n_pairs & !3;
        let (key, ctr_hi) = (rng.key, rng.ctr_hi);
        for i in (0..main).step_by(4) {
            let blocks = philox4(first_pair + i as u64, ctr_hi, key);
            // SAFETY: `i + 3 < n_pairs`, so slots `2i .. 2i + 8` are in
            // bounds; `bm2` writes exactly four f64 from `dst`.
            unsafe {
                let dst = out.as_mut_ptr().add(2 * i);
                bm2(blocks[0], blocks[1], dst);
                bm2(blocks[2], blocks[3], dst.add(4));
            }
        }
        super::fill_scalar(rng, first_pair + main as u64, &mut out[2 * main..]);
    }

    /// Two pairs (four samples) of Box–Muller via 2-lane SSE2.
    ///
    /// SAFETY contract: `dst` must be valid for four consecutive writes.
    #[inline(always)]
    unsafe fn bm2(blk0: [u64; 2], blk1: [u64; 2], dst: *mut f64) {
        // SAFETY: SSE2 is unconditionally available on x86_64; the only
        // memory access is the two stores through `dst` (caller contract).
        unsafe {
            let ubits = _mm_set_epi64x(
                ((blk1[0] >> 12) | ONE_BITS) as i64,
                ((blk0[0] >> 12) | ONE_BITS) as i64,
            );
            let vbits = _mm_set_epi64x(
                ((blk1[1] >> 12) | ONE_BITS) as i64,
                ((blk0[1] >> 12) | ONE_BITS) as i64,
            );
            // u1 = 2 − splice ∈ (0, 1]; u2 = splice − 1 ∈ [0, 1).
            let u1 = _mm_sub_pd(_mm_set1_pd(2.0), _mm_castsi128_pd(ubits));
            let u2 = _mm_sub_pd(_mm_castsi128_pd(vbits), _mm_set1_pd(1.0));
            // ln(u1), mirroring rng::fast_ln.
            let bits = _mm_castpd_si128(u1);
            let e_raw = _mm_sub_pd(
                _mm_castsi128_pd(_mm_or_si128(
                    _mm_srli_epi64(bits, 52),
                    _mm_set1_epi64x(EXP_SPLICE),
                )),
                _mm_set1_pd(EXP_BIAS),
            );
            let m = _mm_castsi128_pd(_mm_or_si128(
                _mm_and_si128(bits, _mm_set1_epi64x(MANTISSA)),
                _mm_set1_epi64x(ONE_BITS as i64),
            ));
            let mask = _mm_cmpgt_pd(m, _mm_set1_pd(std::f64::consts::SQRT_2));
            let adj = _mm_and_pd(mask, _mm_set1_pd(1.0));
            let e = _mm_add_pd(e_raw, adj);
            let m = _mm_mul_pd(
                m,
                _mm_sub_pd(_mm_set1_pd(1.0), _mm_mul_pd(_mm_set1_pd(0.5), adj)),
            );
            let one = _mm_set1_pd(1.0);
            let t = _mm_div_pd(_mm_sub_pd(m, one), _mm_add_pd(m, one));
            let t2 = _mm_mul_pd(t, t);
            let mut p = _mm_set1_pd(2.0 / 11.0);
            p = _mm_add_pd(_mm_mul_pd(p, t2), _mm_set1_pd(2.0 / 9.0));
            p = _mm_add_pd(_mm_mul_pd(p, t2), _mm_set1_pd(2.0 / 7.0));
            p = _mm_add_pd(_mm_mul_pd(p, t2), _mm_set1_pd(2.0 / 5.0));
            p = _mm_add_pd(_mm_mul_pd(p, t2), _mm_set1_pd(2.0 / 3.0));
            p = _mm_add_pd(_mm_mul_pd(p, t2), _mm_set1_pd(2.0));
            let lnv = _mm_add_pd(
                _mm_mul_pd(e, _mm_set1_pd(std::f64::consts::LN_2)),
                _mm_mul_pd(t, p),
            );
            let r = _mm_sqrt_pd(_mm_mul_pd(_mm_set1_pd(-2.0), lnv));
            // (sin, cos) of 2π·u2, mirroring rng::fast_sincos_turn.
            let magic = _mm_set1_pd(ROUND_MAGIC);
            let k2 = _mm_sub_pd(_mm_add_pd(_mm_add_pd(u2, u2), magic), magic);
            let w = _mm_sub_pd(u2, _mm_mul_pd(_mm_set1_pd(0.5), k2));
            let phi = _mm_mul_pd(_mm_set1_pd(std::f64::consts::TAU), w);
            let z = _mm_mul_pd(phi, phi);
            let mut s = _mm_set1_pd(1.0 / 6_227_020_800.0);
            s = _mm_sub_pd(_mm_mul_pd(s, z), _mm_set1_pd(1.0 / 39_916_800.0));
            s = _mm_add_pd(_mm_mul_pd(s, z), _mm_set1_pd(1.0 / 362_880.0));
            s = _mm_sub_pd(_mm_mul_pd(s, z), _mm_set1_pd(1.0 / 5_040.0));
            s = _mm_add_pd(_mm_mul_pd(s, z), _mm_set1_pd(1.0 / 120.0));
            s = _mm_sub_pd(_mm_mul_pd(s, z), _mm_set1_pd(1.0 / 6.0));
            s = _mm_add_pd(_mm_mul_pd(s, z), one);
            let s = _mm_mul_pd(phi, s);
            let mut c = _mm_set1_pd(1.0 / 479_001_600.0);
            c = _mm_sub_pd(_mm_mul_pd(c, z), _mm_set1_pd(1.0 / 3_628_800.0));
            c = _mm_add_pd(_mm_mul_pd(c, z), _mm_set1_pd(1.0 / 40_320.0));
            c = _mm_sub_pd(_mm_mul_pd(c, z), _mm_set1_pd(1.0 / 720.0));
            c = _mm_add_pd(_mm_mul_pd(c, z), _mm_set1_pd(1.0 / 24.0));
            c = _mm_sub_pd(_mm_mul_pd(c, z), _mm_set1_pd(0.5));
            c = _mm_add_pd(_mm_mul_pd(c, z), one);
            let two = _mm_set1_pd(2.0);
            let sign = _mm_sub_pd(one, _mm_mul_pd(two, _mm_mul_pd(k2, _mm_sub_pd(two, k2))));
            let rc = _mm_mul_pd(r, _mm_mul_pd(sign, c));
            let rs = _mm_mul_pd(r, _mm_mul_pd(sign, s));
            _mm_storeu_pd(dst, _mm_unpacklo_pd(rc, rs));
            _mm_storeu_pd(dst.add(2), _mm_unpackhi_pd(rc, rs));
        }
    }

    /// AVX2 path: four Box–Muller pairs per vector.
    ///
    /// SAFETY contract: the caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    unsafe fn fill_avx2(rng: &CounterRng, first_pair: u64, out: &mut [f64]) {
        let n_pairs = out.len() / 2;
        let main = n_pairs & !3;
        let (key, ctr_hi) = (rng.key, rng.ctr_hi);
        // SAFETY: AVX2 is enabled for this fn (caller-verified); stores go
        // through `dst` at offsets `2i .. 2i + 8` with `i + 3 < n_pairs`.
        unsafe {
            let one = _mm256_set1_pd(1.0);
            let two = _mm256_set1_pd(2.0);
            for i in (0..main).step_by(4) {
                let bl = philox4(first_pair + i as u64, ctr_hi, key);
                let ubits = _mm256_set_epi64x(
                    ((bl[3][0] >> 12) | ONE_BITS) as i64,
                    ((bl[2][0] >> 12) | ONE_BITS) as i64,
                    ((bl[1][0] >> 12) | ONE_BITS) as i64,
                    ((bl[0][0] >> 12) | ONE_BITS) as i64,
                );
                let vbits = _mm256_set_epi64x(
                    ((bl[3][1] >> 12) | ONE_BITS) as i64,
                    ((bl[2][1] >> 12) | ONE_BITS) as i64,
                    ((bl[1][1] >> 12) | ONE_BITS) as i64,
                    ((bl[0][1] >> 12) | ONE_BITS) as i64,
                );
                let u1 = _mm256_sub_pd(two, _mm256_castsi256_pd(ubits));
                let u2 = _mm256_sub_pd(_mm256_castsi256_pd(vbits), one);
                let bits = _mm256_castpd_si256(u1);
                let e_raw = _mm256_sub_pd(
                    _mm256_castsi256_pd(_mm256_or_si256(
                        _mm256_srli_epi64(bits, 52),
                        _mm256_set1_epi64x(EXP_SPLICE),
                    )),
                    _mm256_set1_pd(EXP_BIAS),
                );
                let m = _mm256_castsi256_pd(_mm256_or_si256(
                    _mm256_and_si256(bits, _mm256_set1_epi64x(MANTISSA)),
                    _mm256_set1_epi64x(ONE_BITS as i64),
                ));
                let mask = _mm256_cmp_pd(m, _mm256_set1_pd(std::f64::consts::SQRT_2), _CMP_GT_OQ);
                let adj = _mm256_and_pd(mask, one);
                let e = _mm256_add_pd(e_raw, adj);
                let m = _mm256_mul_pd(
                    m,
                    _mm256_sub_pd(one, _mm256_mul_pd(_mm256_set1_pd(0.5), adj)),
                );
                let t = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
                let t2 = _mm256_mul_pd(t, t);
                let mut p = _mm256_set1_pd(2.0 / 11.0);
                p = _mm256_add_pd(_mm256_mul_pd(p, t2), _mm256_set1_pd(2.0 / 9.0));
                p = _mm256_add_pd(_mm256_mul_pd(p, t2), _mm256_set1_pd(2.0 / 7.0));
                p = _mm256_add_pd(_mm256_mul_pd(p, t2), _mm256_set1_pd(2.0 / 5.0));
                p = _mm256_add_pd(_mm256_mul_pd(p, t2), _mm256_set1_pd(2.0 / 3.0));
                p = _mm256_add_pd(_mm256_mul_pd(p, t2), two);
                let lnv = _mm256_add_pd(
                    _mm256_mul_pd(e, _mm256_set1_pd(std::f64::consts::LN_2)),
                    _mm256_mul_pd(t, p),
                );
                let r = _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), lnv));
                let magic = _mm256_set1_pd(ROUND_MAGIC);
                let k2 = _mm256_sub_pd(_mm256_add_pd(_mm256_add_pd(u2, u2), magic), magic);
                let w = _mm256_sub_pd(u2, _mm256_mul_pd(_mm256_set1_pd(0.5), k2));
                let phi = _mm256_mul_pd(_mm256_set1_pd(std::f64::consts::TAU), w);
                let z = _mm256_mul_pd(phi, phi);
                let mut s = _mm256_set1_pd(1.0 / 6_227_020_800.0);
                s = _mm256_sub_pd(_mm256_mul_pd(s, z), _mm256_set1_pd(1.0 / 39_916_800.0));
                s = _mm256_add_pd(_mm256_mul_pd(s, z), _mm256_set1_pd(1.0 / 362_880.0));
                s = _mm256_sub_pd(_mm256_mul_pd(s, z), _mm256_set1_pd(1.0 / 5_040.0));
                s = _mm256_add_pd(_mm256_mul_pd(s, z), _mm256_set1_pd(1.0 / 120.0));
                s = _mm256_sub_pd(_mm256_mul_pd(s, z), _mm256_set1_pd(1.0 / 6.0));
                s = _mm256_add_pd(_mm256_mul_pd(s, z), one);
                let s = _mm256_mul_pd(phi, s);
                let mut c = _mm256_set1_pd(1.0 / 479_001_600.0);
                c = _mm256_sub_pd(_mm256_mul_pd(c, z), _mm256_set1_pd(1.0 / 3_628_800.0));
                c = _mm256_add_pd(_mm256_mul_pd(c, z), _mm256_set1_pd(1.0 / 40_320.0));
                c = _mm256_sub_pd(_mm256_mul_pd(c, z), _mm256_set1_pd(1.0 / 720.0));
                c = _mm256_add_pd(_mm256_mul_pd(c, z), _mm256_set1_pd(1.0 / 24.0));
                c = _mm256_sub_pd(_mm256_mul_pd(c, z), _mm256_set1_pd(0.5));
                c = _mm256_add_pd(_mm256_mul_pd(c, z), one);
                let sign =
                    _mm256_sub_pd(one, _mm256_mul_pd(two, _mm256_mul_pd(k2, _mm256_sub_pd(two, k2))));
                let rc = _mm256_mul_pd(r, _mm256_mul_pd(sign, c));
                let rs = _mm256_mul_pd(r, _mm256_mul_pd(sign, s));
                // Interleave lanes to (rc0, rs0, rc1, rs1, rc2, rs2, rc3, rs3).
                let lo = _mm256_unpacklo_pd(rc, rs);
                let hi = _mm256_unpackhi_pd(rc, rs);
                let dst = out.as_mut_ptr().add(2 * i);
                _mm256_storeu_pd(dst, _mm256_permute2f128_pd(lo, hi, 0x20));
                _mm256_storeu_pd(dst.add(4), _mm256_permute2f128_pd(lo, hi, 0x31));
            }
        }
        super::fill_scalar(rng, first_pair + main as u64, &mut out[2 * main..]);
    }
}

#[cfg(test)]
mod simd_tests {
    use super::*;

    fn reference(rng: &CounterRng, first_pair: u64, n_pairs: usize) -> Vec<u64> {
        let mut out = vec![0.0; 2 * n_pairs];
        fill_scalar(rng, first_pair, &mut out);
        out.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dispatched_fill_matches_scalar_bitwise() {
        for (seed, stream, first) in [(1u64, 0u64, 0u64), (42, 13, 7), (9, 2, 1 << 40)] {
            let rng = CounterRng::keyed(seed, stream, 5);
            // Odd pair counts exercise the tail path.
            for n_pairs in [1usize, 2, 3, 4, 5, 8, 127, 4096] {
                let mut out = vec![0.0; 2 * n_pairs];
                fill_normal_pairs(&rng, first, &mut out);
                let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, reference(&rng, first, n_pairs), "n_pairs {n_pairs}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_path_matches_scalar_bitwise() {
        let rng = CounterRng::keyed(77, 5, 5);
        let mut out = vec![0.0; 2 * 1027];
        x86::fill_sse2(&rng, 123, &mut out);
        let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, reference(&rng, 123, 1027));
    }

    #[test]
    fn fill_is_windowable() {
        // Filling [0, 2n) in one go equals filling [0, n) and [n, 2n).
        let rng = CounterRng::keyed(3, 3, 3);
        let mut whole = vec![0.0; 4 * 100];
        fill_normal_pairs(&rng, 0, &mut whole);
        let mut first = vec![0.0; 2 * 100];
        let mut second = vec![0.0; 2 * 100];
        fill_normal_pairs(&rng, 0, &mut first);
        fill_normal_pairs(&rng, 100, &mut second);
        let recombined: Vec<f64> = first.into_iter().chain(second).collect();
        assert_eq!(
            whole.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            recombined.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "two samples at a time")]
    fn odd_length_output_panics() {
        let rng = CounterRng::keyed(1, 1, 1);
        fill_normal_pairs(&rng, 0, &mut [0.0; 3]);
    }
}
