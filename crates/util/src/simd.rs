//! Vectorized batch kernels.
//!
//! [`fill_normal_pairs`] materialises a contiguous run of
//! [`CounterRng`] Box–Muller pairs into a caller
//! buffer. The output is **bit-identical on every path** — AVX-512, AVX2
//! and the plain scalar fallback — because each lane evaluates exactly the
//! same sequence of correctly-rounded IEEE-754 operations as
//! [`CounterRng::normal_pair`](crate::rng::CounterRng::normal_pair):
//! the same polynomial, in the same order, with no fused multiply-add and
//! no reassociation. Philox is integer arithmetic: the AVX-512 path runs it
//! in 64-bit lanes and forms each 64×64→128 product from four 32×32→64
//! partial products, which is exact. The SIMD paths are therefore a pure
//! throughput optimisation; determinism and cross-machine reproducibility
//! are decided by the scalar definition alone.
//!
//! [`bin_grid`] puts readings on the 0.1 dB instrument grid, eight lanes at
//! a time on AVX-512, and agrees with the scalar [`grid_bin`] on every
//! input, NaN and infinities included: the vector clamps are `max`/`min`
//! instructions whose operand order makes them the scalar's two
//! comparisons.
//!
//! `unsafe` policy: this is the one module in `rwc-util` allowed to use
//! `unsafe` (mirroring the counting allocator in `rwc-bench`). It is
//! confined to `core::arch` intrinsic calls plus unaligned loads from and
//! stores into bounds-checked slices, in the normal fill and the binning
//! kernel; everything is testable against the safe scalar definitions, and
//! `simd_tests` calls every path the host supports directly and asserts
//! bitwise equality.

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
/// Reference implementation for the SIMD paths and the fallback on hosts
/// without AVX2.
pub(crate) fn fill_scalar(rng: &CounterRng, first_pair: u64, out: &mut [f64]) {
    assert_eq!(out.len() % 2, 0, "normal pairs come two samples at a time");
    for (i, slot) in out.chunks_exact_mut(2).enumerate() {
        let (a, b) = rng.normal_pair(first_pair + i as u64);
        slot[0] = a;
        slot[1] = b;
    }
}

/// Bins on the 0.1 dB instrument grid: 0.0 to 63.9 dB.
pub const GRID_BINS: usize = 640;

/// The grid bin of a reading, `min(⌊10·v + 0.5⌋, 639)`: the nearest
/// 0.1 dB step, halves rounding up. NaN and negatives land in bin 0.
///
/// The scalar definition of [`bin_grid`].
#[inline]
pub fn grid_bin(v: f64) -> u16 {
    // Clamped by comparisons (NaN fails `> 0`), so the cast never
    // saturates and compiles to one conversion.
    let x = 10.0 * v + 0.5;
    let x = if x > 0.0 { x } else { 0.0 };
    let x = if x < (GRID_BINS - 1) as f64 { x } else { (GRID_BINS - 1) as f64 };
    x as u16
}

/// Bins a run of readings: `out[i] = grid_bin(values[i])`.
///
/// Eight lanes at a time on hosts with AVX-512F/DQ, one [`grid_bin`] per
/// reading elsewhere; the bins do not depend on the path taken.
pub fn bin_grid(values: &[f64], out: &mut [u16]) {
    assert_eq!(values.len(), out.len(), "one bin per reading");
    #[cfg(target_arch = "x86_64")]
    {
        x86::bin_dispatch(values, out);
    }
    #[cfg(not(target_arch = "x86_64"))]
    bin_scalar(values, out);
}

/// [`grid_bin`] reading by reading: the reference for the vector binning
/// and its fallback.
pub(crate) fn bin_scalar(values: &[f64], out: &mut [u16]) {
    for (bin, &v) in out.iter_mut().zip(values) {
        *bin = grid_bin(v);
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
    use super::{philox4, CounterRng, GRID_BINS, PHILOX_M, PHILOX_ROUNDS, PHILOX_W};
    use core::arch::x86_64::*;

    const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
    const EXP_SPLICE: i64 = 0x4330_0000_0000_0000;
    const MANTISSA: i64 = 0x000F_FFFF_FFFF_FFFF_u64 as i64;
    const EXP_BIAS: f64 = 4_503_599_627_370_496.0 + 1023.0;
    const ROUND_MAGIC: f64 = crate::rng::ROUND_MAGIC;
    const LOW32: i64 = 0xFFFF_FFFF;

    /// Whether the host runs the AVX-512 kernels (F for the arithmetic,
    /// DQ for the 64-bit conversion in the binning).
    pub(super) fn has_avx512() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }

    /// Picks the widest available path: AVX-512, then AVX2, then scalar.
    pub(super) fn fill_dispatch(rng: &CounterRng, first_pair: u64, out: &mut [f64]) {
        if has_avx512() {
            // SAFETY: AVX-512F/DQ support was just verified at runtime.
            unsafe { fill_avx512(rng, first_pair, out) };
        } else if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { fill_avx2(rng, first_pair, out) };
        } else {
            super::fill_scalar(rng, first_pair, out);
        }
    }

    /// The vector binning on AVX-512 hosts, the scalar one elsewhere.
    pub(super) fn bin_dispatch(values: &[f64], out: &mut [u16]) {
        if has_avx512() {
            // SAFETY: AVX-512F/DQ support was just verified at runtime.
            unsafe { bin_avx512(values, out) };
        } else {
            super::bin_scalar(values, out);
        }
    }

    /// AVX-512 path: sixteen pairs per step, as two independent 8-counter
    /// Philox chains whose rounds interleave, then eight Box–Muller pairs
    /// per vector straight from the Philox lanes. The last < 16 pairs are
    /// scalar.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F/DQ support.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn fill_avx512(rng: &CounterRng, first_pair: u64, out: &mut [f64]) {
        let n_pairs = out.len() / 2;
        let mut i = 0;
        while i + 16 <= n_pairs {
            let ctr = first_pair + i as u64;
            let [(a0, b0), (a1, b1)] = philox8x2(ctr, rng);
            // SAFETY: `i + 16 <= n_pairs`, so slots `2i .. 2i + 32` are in
            // bounds; each call writes sixteen f64 from its pointer.
            unsafe {
                let dst = out.as_mut_ptr().add(2 * i);
                box_muller8(a0, b0, dst);
                box_muller8(a1, b1, dst.add(16));
            }
            i += 16;
        }
        super::fill_scalar(rng, first_pair + i as u64, &mut out[2 * i..]);
    }

    /// Philox-2×64-10 on the sixteen counters `ctr0 .. ctr0 + 16`, as two
    /// chains of eight: returns each chain's `(x, y)` words, lane `l` of
    /// chain `c` holding block `ctr0 + 8c + l`. The chains share the round
    /// keys and their rounds interleave, so one chain's multiplies hide
    /// the other's.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn philox8x2(ctr0: u64, rng: &CounterRng) -> [(__m512i, __m512i); 2] {
        let lanes = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        let mut x = [ctr0, ctr0 + 8].map(|c| _mm512_add_epi64(_mm512_set1_epi64(c as i64), lanes));
        let mut y = [_mm512_set1_epi64(rng.ctr_hi as i64); 2];
        let mut key = rng.key;
        for _ in 0..PHILOX_ROUNDS {
            let k = _mm512_set1_epi64(key as i64);
            for c in 0..2 {
                let (hi, lo) = mul_wide8(x[c]);
                x[c] = _mm512_xor_si512(_mm512_xor_si512(hi, k), y[c]);
                y[c] = lo;
            }
            key = key.wrapping_add(PHILOX_W);
        }
        [(x[0], y[0]), (x[1], y[1])]
    }

    /// `(hi, lo)` of `PHILOX_M · x` per 64-bit lane, from the four 32×32→64
    /// partial products (`mul_epu32` multiplies the low halves of each
    /// lane): with `x = xh·2³² + xl` and `M = mh·2³² + ml`, the middle
    /// products carry in turn, `t = xl·mh + (xl·ml >> 32)` and
    /// `u = xh·ml + lo32(t)`, so `hi = xh·mh + (t >> 32) + (u >> 32)` and
    /// `lo = u << 32 | lo32(xl·ml)`. No sum exceeds 64 bits.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn mul_wide8(x: __m512i) -> (__m512i, __m512i) {
        let ml = _mm512_set1_epi64((PHILOX_M & LOW32 as u64) as i64);
        let mh = _mm512_set1_epi64((PHILOX_M >> 32) as i64);
        let low32 = _mm512_set1_epi64(LOW32);
        let xh = _mm512_srli_epi64::<32>(x);
        let ll = _mm512_mul_epu32(x, ml);
        let lh = _mm512_mul_epu32(x, mh);
        let hl = _mm512_mul_epu32(xh, ml);
        let hh = _mm512_mul_epu32(xh, mh);
        let t = _mm512_add_epi64(lh, _mm512_srli_epi64::<32>(ll));
        let u = _mm512_add_epi64(hl, _mm512_and_si512(t, low32));
        let hi = _mm512_add_epi64(
            hh,
            _mm512_add_epi64(_mm512_srli_epi64::<32>(t), _mm512_srli_epi64::<32>(u)),
        );
        let lo = _mm512_or_si512(_mm512_slli_epi64::<32>(u), _mm512_and_si512(ll, low32));
        (hi, lo)
    }

    /// Eight Box–Muller pairs from the Philox words `a` (radius) and `b`
    /// (angle), in [`CounterRng::normal_pair`]'s operations and order,
    /// stored interleaved as `(r·cos, r·sin)` per lane.
    ///
    /// # Safety
    ///
    /// `dst` must be valid for sixteen consecutive `f64` writes.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    unsafe fn box_muller8(a: __m512i, b: __m512i, dst: *mut f64) {
        let one = _mm512_set1_pd(1.0);
        let two = _mm512_set1_pd(2.0);
        let one_bits = _mm512_set1_epi64(ONE_BITS as i64);
        let ubits = _mm512_or_si512(_mm512_srli_epi64::<12>(a), one_bits);
        let vbits = _mm512_or_si512(_mm512_srli_epi64::<12>(b), one_bits);
        // u1 = 2 − splice ∈ (0, 1]; u2 = splice − 1 ∈ [0, 1).
        let u1 = _mm512_sub_pd(two, _mm512_castsi512_pd(ubits));
        let u2 = _mm512_sub_pd(_mm512_castsi512_pd(vbits), one);
        // ln(u1), mirroring rng::fast_ln.
        let bits = _mm512_castpd_si512(u1);
        let e_raw = _mm512_sub_pd(
            _mm512_castsi512_pd(_mm512_or_si512(
                _mm512_srli_epi64::<52>(bits),
                _mm512_set1_epi64(EXP_SPLICE),
            )),
            _mm512_set1_pd(EXP_BIAS),
        );
        let m = _mm512_castsi512_pd(_mm512_or_si512(
            _mm512_and_si512(bits, _mm512_set1_epi64(MANTISSA)),
            one_bits,
        ));
        let mask = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(m, _mm512_set1_pd(std::f64::consts::SQRT_2));
        let adj = _mm512_maskz_mov_pd(mask, one);
        let e = _mm512_add_pd(e_raw, adj);
        let m = _mm512_mul_pd(m, _mm512_sub_pd(one, _mm512_mul_pd(_mm512_set1_pd(0.5), adj)));
        let t = _mm512_div_pd(_mm512_sub_pd(m, one), _mm512_add_pd(m, one));
        let t2 = _mm512_mul_pd(t, t);
        let mut p = _mm512_set1_pd(2.0 / 11.0);
        p = _mm512_add_pd(_mm512_mul_pd(p, t2), _mm512_set1_pd(2.0 / 9.0));
        p = _mm512_add_pd(_mm512_mul_pd(p, t2), _mm512_set1_pd(2.0 / 7.0));
        p = _mm512_add_pd(_mm512_mul_pd(p, t2), _mm512_set1_pd(2.0 / 5.0));
        p = _mm512_add_pd(_mm512_mul_pd(p, t2), _mm512_set1_pd(2.0 / 3.0));
        p = _mm512_add_pd(_mm512_mul_pd(p, t2), two);
        let lnv = _mm512_add_pd(
            _mm512_mul_pd(e, _mm512_set1_pd(std::f64::consts::LN_2)),
            _mm512_mul_pd(t, p),
        );
        let r = _mm512_sqrt_pd(_mm512_mul_pd(_mm512_set1_pd(-2.0), lnv));
        // (sin, cos) of 2π·u2, mirroring rng::fast_sincos_turn.
        let magic = _mm512_set1_pd(ROUND_MAGIC);
        let k2 = _mm512_sub_pd(_mm512_add_pd(_mm512_add_pd(u2, u2), magic), magic);
        let w = _mm512_sub_pd(u2, _mm512_mul_pd(_mm512_set1_pd(0.5), k2));
        let phi = _mm512_mul_pd(_mm512_set1_pd(std::f64::consts::TAU), w);
        let z = _mm512_mul_pd(phi, phi);
        let mut s = _mm512_set1_pd(1.0 / 6_227_020_800.0);
        s = _mm512_sub_pd(_mm512_mul_pd(s, z), _mm512_set1_pd(1.0 / 39_916_800.0));
        s = _mm512_add_pd(_mm512_mul_pd(s, z), _mm512_set1_pd(1.0 / 362_880.0));
        s = _mm512_sub_pd(_mm512_mul_pd(s, z), _mm512_set1_pd(1.0 / 5_040.0));
        s = _mm512_add_pd(_mm512_mul_pd(s, z), _mm512_set1_pd(1.0 / 120.0));
        s = _mm512_sub_pd(_mm512_mul_pd(s, z), _mm512_set1_pd(1.0 / 6.0));
        s = _mm512_add_pd(_mm512_mul_pd(s, z), one);
        let s = _mm512_mul_pd(phi, s);
        let mut c = _mm512_set1_pd(1.0 / 479_001_600.0);
        c = _mm512_sub_pd(_mm512_mul_pd(c, z), _mm512_set1_pd(1.0 / 3_628_800.0));
        c = _mm512_add_pd(_mm512_mul_pd(c, z), _mm512_set1_pd(1.0 / 40_320.0));
        c = _mm512_sub_pd(_mm512_mul_pd(c, z), _mm512_set1_pd(1.0 / 720.0));
        c = _mm512_add_pd(_mm512_mul_pd(c, z), _mm512_set1_pd(1.0 / 24.0));
        c = _mm512_sub_pd(_mm512_mul_pd(c, z), _mm512_set1_pd(0.5));
        c = _mm512_add_pd(_mm512_mul_pd(c, z), one);
        let sign =
            _mm512_sub_pd(one, _mm512_mul_pd(two, _mm512_mul_pd(k2, _mm512_sub_pd(two, k2))));
        let rc = _mm512_mul_pd(r, _mm512_mul_pd(sign, c));
        let rs = _mm512_mul_pd(r, _mm512_mul_pd(sign, s));
        // Interleave lanes to (rc0, rs0, rc1, rs1, …); index bit 3 picks rs.
        let lo = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
        let hi = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
        // SAFETY: sixteen writes from `dst` (caller contract).
        unsafe {
            _mm512_storeu_pd(dst, _mm512_permutex2var_pd(rc, lo, rs));
            _mm512_storeu_pd(dst.add(8), _mm512_permutex2var_pd(rc, hi, rs));
        }
    }

    /// AVX-512 binning, eight readings per vector: `10·v + 0.5`, then
    /// `max(x, 0)` and `min(x, 639)` — `vmaxpd`/`vminpd` return their
    /// second operand unless the first compares greater (less), which is
    /// the scalar's `x > 0 ? x : 0` (`x < 639 ? x : 639`) for NaN and
    /// signed zeros too — and a truncating convert. The last < 8 readings
    /// are scalar.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F/DQ support.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn bin_avx512(values: &[f64], out: &mut [u16]) {
        assert_eq!(values.len(), out.len(), "one bin per reading");
        let main = values.len() & !7;
        let ten = _mm512_set1_pd(10.0);
        let half = _mm512_set1_pd(0.5);
        let zero = _mm512_setzero_pd();
        let top = _mm512_set1_pd((GRID_BINS - 1) as f64);
        for i in (0..main).step_by(8) {
            // SAFETY: `i + 8 <= main <= len` for both slices.
            unsafe {
                let v = _mm512_loadu_pd(values.as_ptr().add(i));
                let x = _mm512_add_pd(_mm512_mul_pd(ten, v), half);
                let x = _mm512_min_pd(_mm512_max_pd(x, zero), top);
                let bins = _mm512_cvtepi64_epi16(_mm512_cvttpd_epi64(x));
                _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), bins);
            }
        }
        super::bin_scalar(&values[main..], &mut out[main..]);
    }

    /// AVX2 path: four Box–Muller pairs per vector, from four scalar
    /// Philox blocks.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_avx2(rng: &CounterRng, first_pair: u64, out: &mut [f64]) {
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
    use crate::rng::Xoshiro256;

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

    /// The 64×64→128 product the AVX-512 Philox forms from four 32×32→64
    /// partial products, written out in scalar `u64`, step for step.
    fn mul_wide_by_parts(x: u64, m: u64) -> (u64, u64) {
        const LOW32: u64 = 0xFFFF_FFFF;
        let (xl, xh, ml, mh) = (x & LOW32, x >> 32, m & LOW32, m >> 32);
        let (ll, lh, hl, hh) = (xl * ml, xl * mh, xh * ml, xh * mh);
        let t = lh + (ll >> 32);
        let u = hl + (t & LOW32);
        let hi = hh + ((t >> 32) + (u >> 32));
        let lo = (u << 32) | (ll & LOW32);
        (hi, lo)
    }

    #[test]
    fn partial_products_equal_the_wide_product() {
        let mut rng = Xoshiro256::seed_from_u64(128);
        let edges = [0, 1, u32::MAX as u64, 1 << 32, (1 << 32) + 1, u64::MAX, PHILOX_M];
        let random = (0..10_000).map(|_| rng.next_u64());
        let words: Vec<u64> = edges.into_iter().chain(random).collect();
        for &x in &words {
            for m in [PHILOX_M, u64::MAX, x] {
                let wide = x as u128 * m as u128;
                let expect = ((wide >> 64) as u64, wide as u64);
                assert_eq!(mul_wide_by_parts(x, m), expect, "{x:#x} · {m:#x}");
            }
        }
    }

    /// Every tail length from 0 to 33 pairs, at counters that straddle 2³²
    /// and at ordinary ones, plus one long run.
    fn fill_cases() -> Vec<(CounterRng, u64, usize)> {
        let mut cases = Vec::new();
        let starts = [(77u64, 123u64), (5, (1 << 32) - 17), (6, u32::MAX as u64), (7, 1 << 40)];
        for (seed, first) in starts {
            let rng = CounterRng::keyed(seed, 5, 5);
            cases.extend((0..=33).map(|n| (rng, first, n)));
            cases.push((rng, first, 1027));
        }
        cases
    }

    /// Calls each vector fill the host supports directly (the dispatcher
    /// only ever runs the widest) and compares it with the scalar fill.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_fills_match_scalar_bitwise() {
        type Fill = unsafe fn(&CounterRng, u64, &mut [f64]);
        let paths: [(&str, bool, Fill); 2] = [
            ("avx2", std::arch::is_x86_feature_detected!("avx2"), x86::fill_avx2),
            ("avx512", x86::has_avx512(), x86::fill_avx512),
        ];
        let mut ran = vec!["scalar"];
        for (name, supported, fill) in paths {
            if !supported {
                println!("fill: {name} not supported on this host, not checked");
                continue;
            }
            for (rng, first, n_pairs) in fill_cases() {
                let mut out = vec![0.0; 2 * n_pairs];
                // SAFETY: the host supports this path (checked above).
                #[allow(unsafe_code)]
                unsafe {
                    fill(&rng, first, &mut out)
                };
                let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                let expect = reference(&rng, first, n_pairs);
                assert_eq!(got, expect, "{name}: {n_pairs} pairs from {first}");
            }
            ran.push(name);
        }
        println!("fill: checked bit for bit against the scalar definition: {}", ran.join(", "));
    }

    /// Readings on the grid's edges and off it: half steps, thresholds,
    /// signed zeros, subnormals, ±`f64::MAX`, infinities, NaN and readings
    /// past the top bin, with ordinary ones in between.
    fn binning_inputs() -> Vec<f64> {
        let mut rng = Xoshiro256::seed_from_u64(640);
        let mut v = vec![
            0.0, -0.0, 0.05, 0.04999999999999999, -0.05, 5e-324, -5e-324, f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE, 6.5, 7.0, 9.5, 11.5, 12.0, 63.85, 63.9, 63.95, 64.0, 1e300,
            f64::MAX, f64::MIN, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN,
        ];
        v.extend((0..640).map(|b| b as f64 / 10.0 + 0.05));
        v.extend((0..400).map(|_| rng.uniform_in(-5.0, 70.0)));
        v
    }

    /// Calls the vector binning directly, when the host has it, on every
    /// length from 0 to 33 and every start offset of the edge values.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_binning_matches_scalar() {
        let values = binning_inputs();
        let mut expect = vec![0; values.len()];
        bin_scalar(&values, &mut expect);
        assert!(expect.iter().all(|&b| (b as usize) < GRID_BINS));
        if !x86::has_avx512() {
            println!("binning: avx512 not supported on this host, checked: scalar");
            return;
        }
        for start in 0..8 {
            for len in (0..=33).chain([values.len() - start]) {
                let window = &values[start..start + len];
                let mut got = vec![u16::MAX; len];
                // SAFETY: the host supports AVX-512F/DQ (checked above).
                #[allow(unsafe_code)]
                unsafe {
                    x86::bin_avx512(window, &mut got)
                };
                assert_eq!(got, &expect[start..start + len], "avx512: {len} readings from {start}");
            }
        }
        println!("binning: checked against the scalar definition: scalar, avx512");
    }

    #[test]
    fn dispatched_binning_matches_scalar() {
        let values = binning_inputs();
        let (mut got, mut expect) = (vec![0; values.len()], vec![0; values.len()]);
        bin_grid(&values, &mut got);
        bin_scalar(&values, &mut expect);
        assert_eq!(got, expect);
        assert_eq!(grid_bin(f64::NAN), 0);
        assert_eq!(grid_bin(0.05), 1);
        assert_eq!(grid_bin(f64::INFINITY), 639);
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
