//! Batch-shaped samplers and frozen polynomial kernels for the v3 trial
//! kernel.
//!
//! The v1 Monte-Carlo trial loop draws normals one at a time through
//! [`crate::normal::sample_standard_normal`] (a scalar Box–Muller that
//! throws away the sine half of every transform) and evaluates the
//! alpha-power slowdown with `powf`. Everything in this module exists to
//! replace those two costs **under a new, explicitly versioned
//! determinism contract**: each function here is a pure function of its
//! input bits with every coefficient frozen in source, so v3 results are
//! exactly as reproducible as v1 — they are simply *different* pure
//! functions.
//!
//! Three families live here:
//!
//! * **Pinned-coefficient inverse-CDF** ([`standard_normal_inv_cdf`],
//!   [`fill_standard_normals_inv_cdf`]) — Acklam's rational
//!   approximation *without* the Halley refinement that
//!   [`crate::inv_cap_phi`] applies: one uniform (one `u64`) per normal
//!   and, in the central branch covering ~95.15% of draws, no
//!   transcendental calls at all. Absolute error ≤ 1.2e-9 everywhere.
//!   The v3 kernel draws its die-level, latch-jitter and criticality
//!   normals through it.
//! * **Fused inverse-CDF** ([`standard_normal_inv_cdf_fma`],
//!   [`fill_standard_normals_inv_cdf_fma_lanes`]) — the same quantile
//!   with its central Horner chains fused; the v3 kernel's gate normals.
//!   The lane fills draw many generator streams at once, gate-major
//!   (`out[k * n + lane]`), and run their quantile pass under the
//!   detected [`crate::simd`] tier.
//! * **Frozen `powf` replacement** ([`ln_one_minus_fma`],
//!   [`exp_approx_fma`]) — the two polynomial halves of
//!   `(1-r)^(-alpha) = exp(-alpha · ln(1-r))`, the alpha-power slowdown
//!   factor's reachable form. Coefficients are literal rationals in
//!   source; combined relative error is below 5e-8 over the delay
//!   model's documented domain `|r| <= 0.6`.
//!
//! None of these functions is used by any v1 code path: v1's bytes are
//! pinned by the scalar implementations and must never change.

use rand::rngs::StdRng;
use rand::Rng;

use crate::simd;

/// `2^-52`, the uniform-grid step of the open-interval conversion.
const TWO_NEG_52: f64 = 1.0 / 4_503_599_627_370_496.0;

/// Maps a raw `u64` to an **open-interval** uniform in `(0, 1)`:
/// `(top52 + 0.5) · 2^-52`.
///
/// The vendored RNG's own conversion (`(u >> 11) · 2^-53`) lands on the
/// half-open `[0, 1)` and can produce exactly `0`, which the quantile
/// function must reject. Centering each 52-bit grid cell keeps the
/// spacing uniform while making both endpoints unreachable — with 52
/// bits (not 53) the half-step offset stays exactly representable at
/// both ends, so no rounding can re-create an endpoint. This exact
/// mapping is part of the v3 contract.
#[inline]
pub fn uniform_open_from_u64(u: u64) -> f64 {
    ((u >> 12) as f64 + 0.5) * TWO_NEG_52
}

// Acklam's rational approximation of the standard normal quantile —
// the same frozen coefficient set `crate::inv_cap_phi` starts from,
// duplicated here deliberately: the v3 kernel pins these numerals as
// *its own* contract, independent of any future refinement of the
// scalar quantile.
const ACKLAM_A: [f64; 6] = [
    -3.969683028665376e+01,
    2.209460984245205e+02,
    -2.759285104469687e+02,
    1.383_577_518_672_69e2,
    -3.066479806614716e+01,
    2.506628277459239e+00,
];
const ACKLAM_B: [f64; 5] = [
    -5.447609879822406e+01,
    1.615858368580409e+02,
    -1.556989798598866e+02,
    6.680131188771972e+01,
    -1.328068155288572e+01,
];
const ACKLAM_C: [f64; 6] = [
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e+00,
    -2.549732539343734e+00,
    4.374664141464968e+00,
    2.938163982698783e+00,
];
const ACKLAM_D: [f64; 4] = [
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e+00,
    3.754408661907416e+00,
];
/// Branch point between Acklam's central rational and its tail form.
const ACKLAM_P_LOW: f64 = 0.02425;

/// Acklam's central rational in `q = p - 0.5` (valid for
/// `|q| <= 0.5 - ACKLAM_P_LOW`): a degree-5/degree-5 rational in `q²`,
/// no transcendental calls. Shared verbatim by the scalar quantile and
/// the vectorizable fill so the two are bit-identical per element.
#[inline]
fn acklam_central(q: f64) -> f64 {
    let (a, b) = (ACKLAM_A, ACKLAM_B);
    let r = q * q;
    (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
        / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
}

/// Acklam's tail rational in `q = sqrt(-2·ln(p_tail))`; the caller
/// negates for the upper tail.
#[inline]
fn acklam_tail(q: f64) -> f64 {
    let (c, d) = (ACKLAM_C, ACKLAM_D);
    (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
        / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
}

/// Standard normal quantile by Acklam's rational approximation
/// **without** the Halley refinement step that [`crate::inv_cap_phi`]
/// adds.
///
/// In the central branch (`0.02425 <= p <= 0.97575`, ~95.15% of uniform
/// draws) this is a pure degree-5/degree-5 rational in `(p - 0.5)^2` —
/// no transcendental calls. The tails use one `ln` + `sqrt` each.
/// Relative error against the exact quantile is below `1.2e-9` over the
/// full open interval (absolute error below ~4e-9), which is orders of
/// magnitude below the Monte-Carlo noise floor at any feasible trial
/// count.
///
/// # Panics
///
/// Debug-asserts `p` in the open interval `(0, 1)`; feed it
/// [`uniform_open_from_u64`] outputs, which cannot touch the endpoints.
#[inline]
pub fn standard_normal_inv_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1), got {p}");
    if p < ACKLAM_P_LOW {
        acklam_tail((-2.0 * p.ln()).sqrt())
    } else if p <= 1.0 - ACKLAM_P_LOW {
        acklam_central(p - 0.5)
    } else {
        -acklam_tail((-2.0 * (1.0 - p).ln()).sqrt())
    }
}

/// Draws one standard normal from `rng` via the inverse CDF — one `u64`
/// per normal, half of v1's Box–Muller consumption.
#[inline]
pub fn sample_standard_normal_inv_cdf<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    standard_normal_inv_cdf(uniform_open_from_u64(rng.next_u64()))
}

/// Fills `out` with standard normals via the inverse CDF, one `u64` per
/// element in order — element-wise identical to calling
/// [`standard_normal_inv_cdf`] on each uniform, but structured for
/// throughput: a chunk of generator words is drawn first, then the lane
/// fills' quantile pass converts the whole chunk (vectorized central
/// rational, ~95.15% of draws need nothing else; only the tails are
/// re-evaluated).
pub fn fill_standard_normals_inv_cdf<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut words = [0u64; 64];
    for chunk in out.chunks_mut(64) {
        let words = &mut words[..chunk.len()];
        for w in words.iter_mut() {
            *w = rng.next_u64();
        }
        simd::dispatch(QuantileWords::<false> { words, out: chunk });
    }
}

// ---------------------------------------------------------------------
// FMA-fused variants.
//
// The plain quantile above deliberately avoids fused multiply-add:
// plain mul/add vectorization is IEEE-exact per element on every
// target. The price is that every Horner step costs two serially
// dependent operations (multiply, then add), which makes the chains
// latency-bound — measured on the trial hot path, unfused polynomial
// passes run at ~13 cycles per element despite vectorizing cleanly.
//
// The v3 kernel's gate normals and slowdown factors therefore use
// **fused** steps: `f64::mul_add` is correctly rounded (a single
// rounding per step) and LLVM lowers it to hardware FMA where available
// and to the correctly-rounded `fma` runtime everywhere else, so the
// bits are identical on every dispatch target — the same bit-stability
// guarantee as the unfused chains, at half the operation count and half
// the chain latency. The coefficients are the very same frozen
// numerals; only the rounding schedule (one rounding per step instead
// of two) differs, so each `_fma` quantile agrees with its plain twin to
// within a few ULP while never being bit-interchangeable with it.

/// [`standard_normal_inv_cdf`] with the central rational's Horner chains
/// fused (`mul_add`) — the v3 kernel's quantile. Same frozen Acklam
/// coefficients and branch structure; the tail branches (~4.85% of
/// uniform draws) share [`acklam_tail`] with the plain quantile verbatim.
///
/// # Panics
///
/// Debug-asserts `p` in the open interval `(0, 1)`.
// Kept: the scalar reference the batch fill tests compare against.
#[inline]
pub fn standard_normal_inv_cdf_fma(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1), got {p}");
    if p < ACKLAM_P_LOW {
        acklam_tail((-2.0 * p.ln()).sqrt())
    } else if p <= 1.0 - ACKLAM_P_LOW {
        acklam_central_fma(p - 0.5)
    } else {
        -acklam_tail((-2.0 * (1.0 - p).ln()).sqrt())
    }
}

/// [`acklam_central`] with both Horner chains fused and regrouped
/// Estrin-style: the numerator and denominator each become three
/// independent degree-1 leaves combined through `r2`/`r4`, cutting the
/// serial chain ahead of the closing division roughly in half.
#[inline]
fn acklam_central_fma(q: f64) -> f64 {
    let (a, b) = (ACKLAM_A, ACKLAM_B);
    let r = q * q;
    let r2 = r * r;
    let r4 = r2 * r2;
    let n01 = a[4].mul_add(r, a[5]);
    let n23 = a[2].mul_add(r, a[3]);
    let n45 = a[0].mul_add(r, a[1]);
    let num = n45.mul_add(r4, n23.mul_add(r2, n01)) * q;
    let d01 = b[4].mul_add(r, 1.0);
    let d23 = b[2].mul_add(r, b[3]);
    let d45 = b[0].mul_add(r, b[1]);
    let den = d45.mul_add(r4, d23.mul_add(r2, d01));
    num / den
}

/// Standard normals from several **independent** generator streams at
/// once, lane-interleaved — the v3 kernel's die and latch-jitter draws:
/// with `n = streams.len()`, `out[k * n + lane]` is
/// `standard_normal_inv_cdf(uniform_open_from_u64(w))` for the word `w`
/// stream `lane`'s `k`-th `next_u64` returns, and every stream ends
/// where `out.len() / n` such calls leave it. See
/// [`fill_standard_normals_inv_cdf_fma_lanes`] for the pass structure.
///
/// # Panics
///
/// Panics if `streams` is empty or holds more than 256 streams, or if
/// `out.len()` is not a multiple of `streams.len()`.
pub fn fill_standard_normals_inv_cdf_lanes(streams: &mut [StdRng], out: &mut [f64]) {
    fill_lanes::<false>(streams, out);
}

/// [`fill_standard_normals_inv_cdf_lanes`] on the fused quantile — the
/// v3 kernel's gate normals, `out[k * n + lane]` being
/// [`standard_normal_inv_cdf_fma`] of stream `lane`'s `k`-th uniform, so
/// a stage's `gates × n` block lands gate-major, ready for the wide
/// slowdown pass. [`StdRng::fill_lanes`] draws a chunk of words four
/// streams per SIMD register; one pass then converts them to uniforms
/// (the exact magic-number form of [`uniform_open_from_u64`]), marks
/// the tails, evaluates the central rational over the whole chunk and
/// fixes up only the marked tails.
///
/// # Panics
///
/// Panics if `streams` is empty or holds more than 256 streams, or if
/// `out.len()` is not a multiple of `streams.len()`.
pub fn fill_standard_normals_inv_cdf_fma_lanes(streams: &mut [StdRng], out: &mut [f64]) {
    fill_lanes::<true>(streams, out);
}

/// [`fill_standard_normals_inv_cdf_fma_lanes`] under the name the
/// perfbench normal-fill probe calls; the layout is the lane fill's
/// (`out[k * n + lane]`).
///
/// # Panics
///
/// As [`fill_standard_normals_inv_cdf_fma_lanes`].
// Kept: perfbench's v3 fill probe calls it.
pub fn fill_standard_normals_inv_cdf_fma_multi(streams: &mut [StdRng], out: &mut [f64]) {
    fill_standard_normals_inv_cdf_fma_lanes(streams, out);
}

/// Generator words per lane-fill chunk: one stack buffer of draws, run
/// through the quantile pass before the next chunk is drawn. Large
/// enough that loading and storing the streams' states once per chunk
/// stays cheap.
const LANE_CHUNK: usize = 256;

/// The body of both lane fills: whole rows of every stream per chunk, so
/// each chunk's output is contiguous.
#[inline]
fn fill_lanes<const FUSED: bool>(streams: &mut [StdRng], out: &mut [f64]) {
    let n = streams.len();
    assert!(
        (1..=LANE_CHUNK).contains(&n),
        "need 1..={LANE_CHUNK} streams, got {n}"
    );
    assert!(
        out.len().is_multiple_of(n),
        "output length {} is not a multiple of the stream count {n}",
        out.len()
    );
    let mut words = [0u64; LANE_CHUNK];
    for chunk in out.chunks_mut(LANE_CHUNK / n * n) {
        let words = &mut words[..chunk.len()];
        StdRng::fill_lanes(streams, words);
        simd::dispatch(QuantileWords::<FUSED> { words, out: chunk });
    }
}

/// `2^52`'s bit pattern: OR-ing a 52-bit integer into its mantissa gives
/// the double `2^52 + m` exactly.
const MAGIC_2_52: u64 = 0x4330_0000_0000_0000;

/// [`uniform_open_from_u64`] in a form that vectorizes without a
/// 64-bit integer conversion: `(2^52 + m) - (2^52 - 0.5)` is exactly
/// `m + 0.5` (both operands and the result are representable and within
/// a factor of two of each other), and the scaling by `2^-52` is exact,
/// so the result is bit-identical to the reference for every `u`.
#[inline(always)]
fn uniform_open_magic(u: u64) -> f64 {
    (f64::from_bits((u >> 12) | MAGIC_2_52) - (4_503_599_627_370_496.0 - 0.5)) * TWO_NEG_52
}

/// The quantile pass of every inverse-CDF fill over raw generator words:
/// `out[i]` is [`standard_normal_inv_cdf_fma`] (`FUSED`) or
/// [`standard_normal_inv_cdf`] of `uniform_open_from_u64(words[i])`.
/// Per 64 words: one tail bit per element in a mask (a vector compare,
/// no index bookkeeping), the central rational over every element (for
/// a tail element it is finite junk, overwritten below; staying
/// branch-free lets it vectorize), then the tail rational on the set
/// bits only, gathered so it runs vectorized. Every element sees the
/// scalar quantile's operations, so the bits are its bits on every
/// [`simd`] tier.
#[inline(always)]
fn quantile_words<const FUSED: bool>(words: &[u64], out: &mut [f64]) {
    debug_assert_eq!(words.len(), out.len());
    let mut tail_at = [0u8; 64];
    let mut tail_q = [0.0f64; 64];
    for (wc, chunk) in words.chunks(64).zip(out.chunks_mut(64)) {
        let mut mask = 0u64;
        for (i, &w) in wc.iter().enumerate() {
            let p = uniform_open_magic(w);
            mask |= u64::from(!(ACKLAM_P_LOW..=1.0 - ACKLAM_P_LOW).contains(&p)) << i;
        }
        for (z, &w) in chunk.iter_mut().zip(wc) {
            let q = uniform_open_magic(w) - 0.5;
            *z = if FUSED {
                acklam_central_fma(q)
            } else {
                acklam_central(q)
            };
        }
        // Tails: the `ln` of each tail's distance to its end (a libm
        // call per tail, the argument of the scalar quantile's tail
        // branch), then the square root and tail rational of all of them
        // in one vectorizable sweep, then the branch's sign.
        let mut tn = 0usize;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let p = uniform_open_magic(wc[i]);
            tail_at[tn] = i as u8;
            tail_q[tn] = if p >= ACKLAM_P_LOW { 1.0 - p } else { p }.ln();
            tn += 1;
        }
        for q in &mut tail_q[..tn] {
            *q = acklam_tail((-2.0 * *q).sqrt());
        }
        for (&i, &t) in tail_at[..tn].iter().zip(&tail_q[..tn]) {
            let i = usize::from(i);
            chunk[i] = if uniform_open_magic(wc[i]) >= ACKLAM_P_LOW {
                -t
            } else {
                t
            };
        }
    }
}

/// [`quantile_words`] as a [`simd::Kernel`], so every fill runs it under
/// the detected tier.
struct QuantileWords<'a, const FUSED: bool> {
    words: &'a [u64],
    out: &'a mut [f64],
}

impl<const FUSED: bool> simd::Kernel for QuantileWords<'_, FUSED> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        quantile_words::<FUSED>(self.words, self.out);
    }
}

/// Largest `|r|` the polynomial `ln(1-r)`/`exp` pair is certified for.
///
/// The delay model's reachable domain is far inside this: the paper's
/// variation mixes put 6σ of total ΔVth near 0.27 V against a 0.7 V
/// overdrive (`r ≈ 0.39`), and callers fall back to exact `powf` beyond
/// the certified range rather than extrapolate.
pub const LN_ONE_MINUS_MAX_R: f64 = 0.6;

/// Largest `|x|` [`exp_approx_fma`] is certified for.
pub const EXP_APPROX_MAX_X: f64 = 3.0;

/// `ln(1 - r)` by the atanh series, for `|r| <=` [`LN_ONE_MINUS_MAX_R`]
/// — the v3 kernel's half of the alpha-power slowdown.
///
/// With `u = r / (2 - r)` one has `1 - r = (1 - u)/(1 + u)`, hence
/// `ln(1-r) = -2·atanh(u) = -2·(u + u³/3 + u⁵/5 + …)`; the series is
/// truncated after the `u¹⁷/17` term. At the domain edge (`u ≈ 0.4286`)
/// the truncation error is below `2e-8` absolute, and it falls off as
/// `u¹⁹` inside it. No transcendental calls: one division plus a fixed
/// odd-power chain whose nine reciprocal coefficients are frozen in
/// source, fused (`mul_add`) and regrouped Estrin-style so the serial
/// dependency chain is roughly half a Horner chain's (the pass is
/// latency-bound, not throughput-bound).
///
/// # Panics
///
/// Debug-asserts the certified domain.
#[inline]
pub fn ln_one_minus_fma(r: f64) -> f64 {
    debug_assert!(
        r.abs() <= LN_ONE_MINUS_MAX_R,
        "ln_one_minus_fma certified only for |r| <= {LN_ONE_MINUS_MAX_R}, got {r}"
    );
    ln_series_fma(r / (2.0 - r))
}

/// `ln(1 - num/den)` through the same fused atanh series as
/// [`ln_one_minus_fma`], but with the series argument formed in a
/// **single** division: for `r = num/den` one has `u = r/(2-r) =
/// num/(2·den - num)`, and `2·den` is an exact power-of-two scaling, so
/// this spends one rounding (and one divide — the hot loops' scarcest
/// resource) where the two-step form spends two of each. No domain
/// check: callers range-test `|num| <= `[`LN_ONE_MINUS_MAX_R`]`·den`
/// themselves and must discard out-of-domain junk.
#[inline]
pub fn ln_one_minus_ratio_fma_raw(num: f64, den: f64) -> f64 {
    ln_series_fma(num / (2.0 * den - num))
}

/// The shared fused atanh series `-2·u·(1 + u²/3 + … + u¹⁶/17)` behind
/// both `_fma` forms of `ln(1-r)`.
#[allow(clippy::excessive_precision)]
#[inline]
fn ln_series_fma(u: f64) -> f64 {
    let u2 = u * u;
    let u4 = u2 * u2;
    let u8 = u4 * u4;
    let u16 = u8 * u8;
    // The frozen reciprocals 1/3 .. 1/17 of the odd integers,
    // paired degree-1 (in u2), then degree-2 (in u4), then combined in
    // u8/u16 — four independent leaf chains instead of one serial one.
    let q0 = 0.333_333_333_333_333_33f64.mul_add(u2, 1.0);
    let q1 = 0.142_857_142_857_142_85f64.mul_add(u2, 0.2);
    let q2 = 0.090_909_090_909_090_91f64.mul_add(u2, 0.111_111_111_111_111_11);
    let q3 = 0.066_666_666_666_666_67f64.mul_add(u2, 0.076_923_076_923_076_92);
    let e0 = q1.mul_add(u4, q0);
    let e1 = q3.mul_add(u4, q2);
    let s = 0.058_823_529_411_764_705f64.mul_add(u16, e1.mul_add(u8, e0));
    -2.0 * u * s
}

/// `exp(x)` by argument quartering and a degree-12 Taylor polynomial,
/// for `|x| <=` [`EXP_APPROX_MAX_X`] — the v3 kernel's other half of the
/// alpha-power slowdown.
///
/// `exp(x) = (T₁₂(x/4))⁴` with `T₁₂` the Maclaurin polynomial of the
/// exponential (coefficients `1/k!` frozen in source). At the domain
/// edge the quartered argument is `0.75`, where the truncation error of
/// `T₁₂` is ~1e-11; two squarings at most quadruple the relative error,
/// keeping it below `5e-11`. No transcendental calls: the chain is fused
/// (`mul_add`) and regrouped Estrin-style, six independent degree-1
/// leaves combined in `log` depth instead of a 13-step serial Horner
/// chain.
///
/// # Panics
///
/// Debug-asserts the certified domain.
#[inline]
pub fn exp_approx_fma(x: f64) -> f64 {
    debug_assert!(
        x.abs() <= EXP_APPROX_MAX_X,
        "exp_approx_fma certified only for |x| <= {EXP_APPROX_MAX_X}, got {x}"
    );
    exp_approx_fma_raw(x)
}

/// [`exp_approx_fma`] without the domain check, for fused-sweep callers
/// that evaluate speculatively and range-test afterwards. Out-of-domain
/// inputs produce junk (never a trap); the caller must discard such
/// results.
#[allow(clippy::excessive_precision)]
#[inline]
pub fn exp_approx_fma_raw(x: f64) -> f64 {
    let y = 0.25 * x;
    let y2 = y * y;
    let y4 = y2 * y2;
    let y8 = y4 * y4;
    // The frozen factorials 1/0! .. 1/12!, paired
    // degree-1 (in y), then degree-3 (in y2), then combined in y4/y8.
    let q0 = y + 1.0;
    let q1 = 0.166_666_666_666_666_66f64.mul_add(y, 0.5);
    let q2 = 0.008_333_333_333_333_333f64.mul_add(y, 0.041_666_666_666_666_664);
    let q3 = 1.984_126_984_126_984e-4f64.mul_add(y, 0.001_388_888_888_888_889);
    let q4 = 2.755_731_922_398_589_4e-6f64.mul_add(y, 2.480_158_730_158_730_2e-5);
    let q5 = 2.505_210_838_544_172e-8f64.mul_add(y, 2.755_731_922_398_589_4e-7);
    let e0 = q1.mul_add(y2, q0);
    let e1 = q3.mul_add(y2, q2);
    let e2 = q5.mul_add(y2, q4);
    let f0 = e1.mul_add(y4, e0);
    let f1 = 2.087_675_698_786_81e-9f64.mul_add(y4, e2);
    let t = f1.mul_add(y8, f0);
    let t2 = t * t;
    t2 * t2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::RunningStats;
    use crate::normal::inv_cap_phi;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn open_uniform_never_touches_endpoints() {
        assert!(uniform_open_from_u64(0) > 0.0);
        assert!(uniform_open_from_u64(u64::MAX) < 1.0);
        // Mid-range value is the expected grid point.
        let u = 1u64 << 63;
        assert!((uniform_open_from_u64(u) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn inv_cdf_matches_refined_quantile() {
        // The no-Halley rational must sit within Acklam's published
        // error envelope of the refined quantile over both branches.
        let rel = |p: f64| {
            let got = standard_normal_inv_cdf(p);
            let want = inv_cap_phi(p);
            (got - want).abs() / want.abs().max(1.0)
        };
        let mut worst = 0.0_f64;
        for i in 1..20_000 {
            worst = worst.max(rel(f64::from(i) / 20_000.0));
        }
        // Deep tails, too (the CLT-free part of the domain).
        for &p in &[1e-12, 1e-9, 1e-6, 1.0 - 1e-9, 1.0 - 1e-12] {
            worst = worst.max(rel(p));
        }
        assert!(worst < 2e-9, "max rel error {worst}");
    }

    #[test]
    fn inv_cdf_sampler_moments_match_standard_normal() {
        let mut rng = StdRng::seed_from_u64(0x1CDF);
        let mut buf = [0.0; 64];
        let mut stats = RunningStats::new();
        for _ in 0..4_000 {
            fill_standard_normals_inv_cdf(&mut rng, &mut buf);
            for &z in &buf {
                stats.push(z);
            }
        }
        assert!(stats.mean().abs() < 0.005, "mean {}", stats.mean());
        assert!(
            (stats.sample_sd() - 1.0).abs() < 0.005,
            "sd {}",
            stats.sample_sd()
        );
        assert!(stats.skewness().abs() < 0.01, "skew {}", stats.skewness());
    }

    #[test]
    fn inv_cdf_fill_matches_scalar_elementwise() {
        // The vector-pass + recorded-tail fill must be bit-identical to
        // the scalar quantile per element, with one draw per element, at
        // every length across the 64-element chunk edges (so tail indices
        // land on the first and last slot of full and partial chunks).
        let mut buf = [0.0; 130];
        // Tails seen at a chunk's first slot, its 64th, and the last slot
        // of a partial chunk.
        let mut edges = [false; 3];
        for seed in [0xF1FF, 1, 2, 0x5EED] {
            for len in 0..=buf.len() {
                let mut a = StdRng::seed_from_u64(seed ^ len as u64);
                fill_standard_normals_inv_cdf(&mut a, &mut buf[..len]);
                let mut b = StdRng::seed_from_u64(seed ^ len as u64);
                for (i, &z) in buf[..len].iter().enumerate() {
                    let p = uniform_open_from_u64(b.next_u64());
                    if !(ACKLAM_P_LOW..=1.0 - ACKLAM_P_LOW).contains(&p) {
                        edges[0] |= i % 64 == 0;
                        edges[1] |= i % 64 == 63;
                        edges[2] |= i + 1 == len && len % 64 != 0;
                    }
                    assert_eq!(
                        z,
                        standard_normal_inv_cdf(p),
                        "seed {seed} len {len} at {i}"
                    );
                }
                assert_eq!(
                    a.next_u64(),
                    b.next_u64(),
                    "seed {seed} len {len} consumption"
                );
            }
        }
        assert_eq!(edges, [true; 3], "tail draws at chunk edges");
    }

    /// Both lane fills give `out[k * n + lane]` the single-stream
    /// quantile of stream `lane`'s `k`-th word and park every stream where
    /// the scalar calls do, for 1..=17 streams and row counts across the
    /// chunk edges (zero-length output included), with tails seen.
    #[test]
    fn lane_fills_match_per_stream_quantiles() {
        type Lanes = fn(&mut [StdRng], &mut [f64]);
        type Quantile = fn(f64) -> f64;
        let fills: [(Lanes, Quantile); 2] = [
            (fill_standard_normals_inv_cdf_lanes, standard_normal_inv_cdf),
            (
                fill_standard_normals_inv_cdf_fma_lanes,
                standard_normal_inv_cdf_fma,
            ),
        ];
        let mut tails = [false; 2];
        for (lanes, quantile) in fills {
            for n in 1..=17usize {
                for rows in [0usize, 1, 3, 15, 16, 17, 64, 65] {
                    let seeded = || -> Vec<StdRng> {
                        (0..n as u64)
                            .map(|s| StdRng::seed_from_u64(s * 977 + rows as u64))
                            .collect()
                    };
                    let (mut a, mut b) = (seeded(), seeded());
                    let mut out = vec![0.0; n * rows];
                    lanes(&mut a, &mut out);
                    for k in 0..rows {
                        for (lane, rng) in b.iter_mut().enumerate() {
                            let p = uniform_open_from_u64(rng.next_u64());
                            tails[0] |= p < ACKLAM_P_LOW;
                            tails[1] |= p > 1.0 - ACKLAM_P_LOW;
                            let got = out[k * n + lane];
                            assert_eq!(
                                got.to_bits(),
                                quantile(p).to_bits(),
                                "{n} streams, row {k}"
                            );
                        }
                    }
                    assert_eq!(a, b, "{n} streams, {rows} rows: stream positions");
                }
            }
        }
        assert_eq!(tails, [true; 2], "both tails drawn");
    }

    /// The magic-number uniform equals the reference conversion at the
    /// ends of the word range and around every 2^12 step it keeps.
    #[test]
    fn magic_uniform_equals_reference() {
        let mut words = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
        for k in [1u64, 2, 3, 1 << 20, (1 << 52) - 1] {
            let b = k << 12;
            words.extend([b - 1, b, b + 1, b | 0xfff]);
        }
        for u in words {
            let (got, want) = (uniform_open_magic(u), uniform_open_from_u64(u));
            assert_eq!(got.to_bits(), want.to_bits(), "word {u:#x}");
        }
    }

    /// The quantile pass under `tier`, which this CPU must support.
    fn quantile_on(tier: simd::SimdTier, fused: bool, words: &[u64]) -> Vec<f64> {
        let mut out = vec![0.0; words.len()];
        let ran = if fused {
            simd::run_on(
                tier,
                QuantileWords::<true> {
                    words,
                    out: &mut out,
                },
            )
        } else {
            simd::run_on(
                tier,
                QuantileWords::<false> {
                    words,
                    out: &mut out,
                },
            )
        };
        ran.expect("supported tier");
        out
    }

    /// The quantile pass over words equals both scalar quantiles element
    /// by element on every tier this CPU supports (so the tiers equal
    /// each other bit for bit), at lengths 1..=130 (whole and partial
    /// 64-word chunks) and at full length, with words on the branch
    /// points, deep in both tails, and at `0` and `u64::MAX` spread
    /// through the first two chunks.
    #[test]
    fn word_quantile_pass_matches_scalar_and_dispatch() {
        let mut rng = StdRng::seed_from_u64(0x70DD);
        let mut words: Vec<u64> = (0..700).map(|_| rng.next_u64()).collect();
        let word_of = |p: f64| ((p / TWO_NEG_52) as u64) << 12;
        let mut special = vec![0, u64::MAX];
        for p in [
            1e-15,
            1e-9,
            0.001,
            ACKLAM_P_LOW,
            0.5,
            1.0 - ACKLAM_P_LOW,
            0.999_999,
        ] {
            special.extend([
                word_of(p).wrapping_sub(1 << 12),
                word_of(p),
                word_of(p) + (1 << 12),
            ]);
        }
        for (i, w) in special.into_iter().enumerate() {
            words[i * 5 + 1] = w;
        }
        for tier in simd::SimdTier::ALL {
            if !tier.supported() {
                eprintln!("skipping the {} tier: this CPU lacks it", tier.name());
                continue;
            }
            for fused in [false, true] {
                for len in (1..=130).chain([words.len()]) {
                    let words = &words[..len];
                    let out = quantile_on(tier, fused, words);
                    for (i, (&w, &z)) in words.iter().zip(&out).enumerate() {
                        let p = uniform_open_from_u64(w);
                        let want = if fused {
                            standard_normal_inv_cdf_fma(p)
                        } else {
                            standard_normal_inv_cdf(p)
                        };
                        assert_eq!(
                            z.to_bits(),
                            want.to_bits(),
                            "{tier:?} fused={fused} len {len}: word {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inv_cdf_uses_one_draw_per_normal() {
        let mut a = StdRng::seed_from_u64(21);
        let _ = sample_standard_normal_inv_cdf(&mut a);
        let next = a.next_u64();
        let mut b = StdRng::seed_from_u64(21);
        b.next_u64();
        assert_eq!(next, b.next_u64());
    }

    #[test]
    fn fma_fill_matches_fma_scalar_quantile_elementwise() {
        // The fused lane fill on one stream must be bit-identical to the
        // fused scalar quantile per element, with one draw per element
        // (97 draws ⇒ tail elements and a partial final chunk lane).
        let mut a = StdRng::seed_from_u64(0xF3A);
        let mut buf = [0.0; 97];
        fill_standard_normals_inv_cdf_fma_lanes(std::slice::from_mut(&mut a), &mut buf);
        let mut b = StdRng::seed_from_u64(0xF3A);
        for (i, &z) in buf.iter().enumerate() {
            let want = standard_normal_inv_cdf_fma(uniform_open_from_u64(b.next_u64()));
            assert_eq!(z, want, "element {i}");
        }
        assert_eq!(a.next_u64(), b.next_u64(), "RNG consumption diverged");
    }

    #[test]
    fn fma_quantile_agrees_with_plain_quantile_but_not_bitwise() {
        // Same frozen coefficients, different rounding schedule: the two
        // quantiles must agree far below the Monte-Carlo noise floor
        // while remaining distinct functions in the central branch (the
        // tails are shared verbatim).
        let mut any_differ = false;
        for i in 1..=9_999 {
            let p = f64::from(i) / 10_000.0;
            let fused = standard_normal_inv_cdf_fma(p);
            let plain = standard_normal_inv_cdf(p);
            assert!(
                (fused - plain).abs() <= 1e-12 * plain.abs().max(1.0),
                "p={p}: {fused} vs {plain}"
            );
            any_differ |= fused.to_bits() != plain.to_bits();
        }
        assert!(any_differ, "fused central branch never changed a bit");
    }

    #[test]
    fn ln_one_minus_matches_reference() {
        let mut worst = 0.0_f64;
        let mut r = -LN_ONE_MINUS_MAX_R;
        while r <= LN_ONE_MINUS_MAX_R {
            if r.abs() > 1e-12 {
                let got = ln_one_minus_fma(r);
                let want = (1.0 - r).ln();
                worst = worst.max((got - want).abs());
            }
            r += 1e-4;
        }
        assert!(worst < 2e-8, "max abs error {worst}");
        assert_eq!(ln_one_minus_fma(0.0), 0.0);
    }

    #[test]
    fn exp_approx_matches_reference() {
        let mut worst = 0.0_f64;
        let mut x = -EXP_APPROX_MAX_X;
        while x <= EXP_APPROX_MAX_X {
            let got = exp_approx_fma(x);
            let want = x.exp();
            worst = worst.max(((got - want) / want).abs());
            x += 1e-3;
        }
        assert!(worst < 5e-11, "max rel error {worst}");
        assert_eq!(exp_approx_fma(0.0), 1.0);
    }
}
