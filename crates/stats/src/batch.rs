//! Batch-shaped samplers and frozen polynomial kernels for the v2 trial
//! kernel.
//!
//! The v1 Monte-Carlo trial loop draws normals one at a time through
//! [`crate::normal::sample_standard_normal`] (a scalar Box–Muller that
//! throws away the sine half of every transform) and evaluates the
//! alpha-power slowdown with `powf`. Everything in this module exists to
//! replace those two costs **under a new, explicitly versioned
//! determinism contract**: each function here is a pure function of its
//! input bits with every coefficient frozen in source, so v2 results are
//! exactly as reproducible as v1 — they are simply *different* pure
//! functions.
//!
//! Three families live here:
//!
//! * **Pair-producing Box–Muller** ([`normal_pair_bm`],
//!   [`fill_standard_normals_bm`]) — one `(ln, sqrt, sin_cos)` group per
//!   *two* normals instead of per one.
//! * **Pinned-coefficient inverse-CDF** ([`standard_normal_inv_cdf`],
//!   [`fill_standard_normals_inv_cdf`]) — Acklam's rational
//!   approximation *without* the Halley refinement that
//!   [`crate::inv_cap_phi`] applies: one uniform (one `u64`) per normal
//!   and, in the central branch covering ~95.15% of draws, no
//!   transcendental calls at all. Absolute error ≤ 1.2e-9 everywhere.
//! * **Frozen `powf` replacement** ([`ln_one_minus`], [`exp_approx`]) —
//!   the two polynomial halves of
//!   `(1-r)^(-alpha) = exp(-alpha · ln(1-r))`, the alpha-power slowdown
//!   factor's reachable form. Coefficients are literal rationals in
//!   source; combined relative error is below 5e-8 over the delay
//!   model's documented domain `|r| <= 0.6`.
//!
//! None of these functions is used by any v1 code path: v1's bytes are
//! pinned by the scalar implementations and must never change.

use rand::Rng;

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
/// mapping is part of the v2 contract.
#[inline]
pub fn uniform_open_from_u64(u: u64) -> f64 {
    ((u >> 12) as f64 + 0.5) * TWO_NEG_52
}

/// One pair-producing Box–Muller transform: maps two open-interval
/// uniforms to two independent standard normals, keeping **both** the
/// cosine and sine halves (v1's scalar sampler discards the sine half,
/// doubling its uniform consumption).
///
/// # Panics
///
/// Debug-asserts that `u1` is in `(0, 1)` (the `ln` argument).
#[inline]
pub fn normal_pair_bm(u1: f64, u2: f64) -> (f64, f64) {
    debug_assert!(u1 > 0.0 && u1 < 1.0, "u1 must be in (0,1), got {u1}");
    let r = (-2.0 * u1.ln()).sqrt();
    let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
    (r * c, r * s)
}

/// Fills `out` with standard normals using the pair-producing
/// Box–Muller transform, two per `(u64, u64)` uniform pair drawn from
/// `rng` in order.
///
/// An odd final element consumes a full pair and keeps only the cosine
/// half, so RNG consumption is `2 * ceil(out.len() / 2)` draws — a fixed
/// function of the length, which is what makes the fill reproducible
/// inside a counter-seeded trial.
pub fn fill_standard_normals_bm<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut chunks = out.chunks_exact_mut(2);
    for pair in &mut chunks {
        let u1 = uniform_open_from_u64(rng.next_u64());
        let u2 = uniform_open_from_u64(rng.next_u64());
        let (a, b) = normal_pair_bm(u1, u2);
        pair[0] = a;
        pair[1] = b;
    }
    if let [last] = chunks.into_remainder() {
        let u1 = uniform_open_from_u64(rng.next_u64());
        let u2 = uniform_open_from_u64(rng.next_u64());
        *last = normal_pair_bm(u1, u2).0;
    }
}

// Acklam's rational approximation of the standard normal quantile —
// the same frozen coefficient set `crate::inv_cap_phi` starts from,
// duplicated here deliberately: the v2 kernel pins these numerals as
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

/// The central-rational map over one lane of uniforms. Marked
/// `inline(always)` so the AVX-multiversioned wrapper below inherits the
/// body and auto-vectorizes it 4-wide; plain mul/add/div vectorization
/// is IEEE-exact per element (FMA is *not* enabled), so every dispatch
/// target produces identical bits.
#[inline(always)]
fn acklam_central_pass(out: &mut [f64], u: &[f64]) {
    for (z, &p) in out.iter_mut().zip(u) {
        *z = acklam_central(p - 0.5);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn acklam_central_pass_avx(out: &mut [f64], u: &[f64]) {
    acklam_central_pass(out, u);
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn acklam_central_pass_dispatch(out: &mut [f64], u: &[f64]) {
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: the AVX feature was just detected at runtime.
        unsafe { acklam_central_pass_avx(out, u) }
    } else {
        acklam_central_pass(out, u);
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn acklam_central_pass_dispatch(out: &mut [f64], u: &[f64]) {
    acklam_central_pass(out, u);
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
/// throughput: uniforms for a whole lane are drawn into scratch first
/// (recording the tail indices as they are drawn), then a branch-free
/// pass evaluates the central rational for every element (vectorizable —
/// ~95.15% of draws need nothing else), and only the recorded tail
/// elements are re-evaluated.
pub fn fill_standard_normals_inv_cdf<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    fill_row(rng, out, quantile_chunk);
}

/// One quantile chunk of the non-fused fill: the vectorized central
/// rational over every element, then the tail fixup on the recorded
/// indices only.
#[inline]
fn quantile_chunk(chunk: &mut [f64], u: &[f64], tails: &[u8]) {
    // For tail elements this evaluates the central rational out of its
    // domain — finite junk, overwritten below. Keeping the map
    // reduction-free lets it vectorize.
    acklam_central_pass_dispatch(chunk, u);
    fix_tails(chunk, u, tails);
}

/// Fills one row from one stream, 64 uniforms at a time, through
/// `quantile` — the single-stream body of every inverse-CDF fill.
#[inline]
fn fill_row<R: Rng + ?Sized>(
    rng: &mut R,
    out: &mut [f64],
    quantile: impl Fn(&mut [f64], &[f64], &[u8]),
) {
    let mut uniforms = [0.0f64; 64];
    let mut tails = [0u8; 64];
    for chunk in out.chunks_mut(64) {
        let u = &mut uniforms[..chunk.len()];
        let tn = draw_uniform_chunk(rng, u, &mut tails);
        quantile(chunk, u, &tails[..tn]);
    }
}

// ---------------------------------------------------------------------
// FMA-fused v3 variants.
//
// The v2 polynomial kernels above deliberately avoid fused
// multiply-add: their contract predates the v3 kernel, and plain
// mul/add vectorization is IEEE-exact per element on every target. The
// price is that every Horner step costs two serially dependent
// operations (multiply, then add), which makes the chains latency-bound
// — measured on the trial hot path, the polynomial passes run at ~13
// cycles per element despite vectorizing cleanly.
//
// The v3 wide kernel defines its own contract on **fused** steps:
// `f64::mul_add` is correctly rounded (a single rounding per step) and
// LLVM lowers it to hardware FMA where available and to the
// correctly-rounded `fma` runtime everywhere else, so the bits are
// identical on every dispatch target — the same bit-stability guarantee
// as the v2 kernels, at half the operation count and half the chain
// latency. The coefficients are the very same frozen numerals; only the
// rounding schedule (one rounding per step instead of two) differs, so
// each `_fma` variant agrees with its v2 twin to within a few ULP while
// never being bit-interchangeable with it.

/// [`standard_normal_inv_cdf`] with the central rational's Horner chains
/// fused (`mul_add`) — the v3 kernel's quantile. Same frozen Acklam
/// coefficients and branch structure; the tail branches (~4.85% of
/// uniform draws) share [`acklam_tail`] with the v2 quantile verbatim.
///
/// # Panics
///
/// Debug-asserts `p` in the open interval `(0, 1)`.
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

/// The fused central-rational map over one lane of uniforms; the
/// `avx,fma` wrapper below inherits the body, where `mul_add` lowers to
/// 4-wide `vfmadd` — and to the correctly-rounded `fma` runtime call in
/// the portable build, producing identical bits.
#[inline(always)]
fn acklam_central_pass_fma(out: &mut [f64], u: &[f64]) {
    // Two independent rational chains per iteration (lock-step halves):
    // the num/den/divide chain is latency-bound, and pairing elements
    // doubles what the out-of-order core can overlap. Identical
    // per-element operations, so bits match the straight-line walk.
    let n = out.len();
    let half = n / 2;
    let (z_lo, z_hi) = out.split_at_mut(half);
    let (u_lo, u_hi) = u.split_at(half);
    for ((zl, &pl), (zh, &ph)) in z_lo.iter_mut().zip(u_lo).zip(z_hi.iter_mut().zip(u_hi)) {
        *zl = acklam_central_fma(pl - 0.5);
        *zh = acklam_central_fma(ph - 0.5);
    }
    if n % 2 == 1 {
        z_hi[half] = acklam_central_fma(u_hi[half] - 0.5);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn acklam_central_pass_fma_avx(out: &mut [f64], u: &[f64]) {
    acklam_central_pass_fma(out, u);
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn acklam_central_pass_fma_dispatch(out: &mut [f64], u: &[f64]) {
    if std::arch::is_x86_feature_detected!("fma") && std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: both features were just detected at runtime.
        unsafe { acklam_central_pass_fma_avx(out, u) }
    } else {
        acklam_central_pass_fma(out, u);
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn acklam_central_pass_fma_dispatch(out: &mut [f64], u: &[f64]) {
    acklam_central_pass_fma(out, u);
}

/// Draw one chunk of open-interval uniforms, recording which indices
/// fall in the quantile's tail regions. The branchless index push rides
/// in the shadow of the generator's serial dependency chain, so tail
/// detection is free here where a separate scan pass over the chunk is
/// not.
#[inline]
fn draw_uniform_chunk<R: Rng + ?Sized>(rng: &mut R, u: &mut [f64], tails: &mut [u8; 64]) -> usize {
    let mut tn = 0usize;
    for (i, v) in u.iter_mut().enumerate() {
        let p = uniform_open_from_u64(rng.next_u64());
        *v = p;
        tails[tn] = i as u8;
        tn += usize::from(!(ACKLAM_P_LOW..=1.0 - ACKLAM_P_LOW).contains(&p));
    }
    tn
}

/// One quantile chunk of the fused fill: the vectorized central
/// rational over every element, then the tail fixup on the recorded
/// indices only. Shared by the single- and multi-stream fills so both
/// produce identical bits for identical uniforms.
#[inline]
fn quantile_chunk_fma(chunk: &mut [f64], u: &[f64], tails: &[u8]) {
    // For tail elements this evaluates the central rational out of
    // its domain — finite junk, overwritten below.
    acklam_central_pass_fma_dispatch(chunk, u);
    fix_tails(chunk, u, tails);
}

/// Overwrites the recorded tail indices of a quantile chunk with the
/// tail rational — the fix-up shared by the v2 and fused v3 fills (both
/// use [`acklam_tail`] verbatim).
#[inline]
fn fix_tails(chunk: &mut [f64], u: &[f64], tails: &[u8]) {
    for &i in tails {
        let i = i as usize;
        let p = u[i];
        chunk[i] = if p < ACKLAM_P_LOW {
            acklam_tail((-2.0 * p.ln()).sqrt())
        } else {
            -acklam_tail((-2.0 * (1.0 - p).ln()).sqrt())
        };
    }
}

/// [`fill_standard_normals_inv_cdf`] on the fused quantile — the v3
/// kernel's gate-normal fill. One `u64` per element in order (identical
/// RNG consumption to the v2 fill, so swapping fills cannot shift any
/// later draw), element-wise identical to
/// [`standard_normal_inv_cdf_fma`] on each uniform.
pub fn fill_standard_normals_inv_cdf_fma<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    fill_row(rng, out, quantile_chunk_fma);
}

/// [`fill_standard_normals_inv_cdf`] over several **independent**
/// generator streams at once — the v3 kernel's die and latch-jitter
/// draws: row `i` of `out` (rows are `out.len() / rngs.len()`
/// contiguous elements) is filled element-wise and bit-identically as
/// `fill_standard_normals_inv_cdf(&mut rngs[i], row_i)` would fill it,
/// consuming only `rngs[i]`. See
/// [`fill_standard_normals_inv_cdf_fma_multi`] for the interleaving.
///
/// # Panics
///
/// Panics if `rngs` is empty or `out.len()` is not a multiple of
/// `rngs.len()`.
pub fn fill_standard_normals_inv_cdf_multi<R: Rng>(rngs: &mut [R], out: &mut [f64]) {
    fill_rows(rngs, out, quantile_chunk);
}

/// [`fill_standard_normals_inv_cdf_fma`] over several **independent**
/// generator streams at once: row `i` of `out` (rows are `out.len() /
/// rngs.len()` contiguous elements) is filled element-wise and
/// bit-identically as `fill_standard_normals_inv_cdf_fma(&mut rngs[i],
/// row_i)` would fill it, consuming only `rngs[i]`. The point is
/// throughput: a single xoshiro stream is a serial dependency chain
/// (~4–5 cycles per `u64`, un-hideable), but four interleaved
/// independent streams keep the scalar units saturated, roughly
/// tripling generation throughput. Rows are processed in quads;
/// leftover rows (fewer than four) fall back to the single-stream
/// fill, which produces the same bits.
///
/// # Panics
///
/// Panics if `rngs` is empty or `out.len()` is not a multiple of
/// `rngs.len()`.
pub fn fill_standard_normals_inv_cdf_fma_multi<R: Rng>(rngs: &mut [R], out: &mut [f64]) {
    fill_rows(rngs, out, quantile_chunk_fma);
}

/// The multi-stream body of both inverse-CDF fills: rows in quads of
/// interleaved streams, leftover rows through [`fill_row`], every chunk
/// through `quantile`.
#[inline]
fn fill_rows<R: Rng>(
    rngs: &mut [R],
    out: &mut [f64],
    quantile: impl Fn(&mut [f64], &[f64], &[u8]),
) {
    assert!(!rngs.is_empty(), "need at least one stream");
    assert!(
        out.len().is_multiple_of(rngs.len()),
        "output length {} is not a multiple of the stream count {}",
        out.len(),
        rngs.len()
    );
    let row_len = out.len() / rngs.len();
    if row_len == 0 {
        // Zero-length rows consume nothing from any stream — exactly
        // like the single-stream fill on an empty slice.
        return;
    }
    for (rq, oq) in rngs.chunks_mut(4).zip(out.chunks_mut(row_len * 4)) {
        if let [a, b, c, d] = rq {
            let mut u = [[0.0f64; 64]; 4];
            let mut tails = [[0u8; 64]; 4];
            let mut start = 0usize;
            while start < row_len {
                let len = 64.min(row_len - start);
                let mut tn = [0usize; 4];
                let (u01, u23) = u.split_at_mut(2);
                let (u0, u1) = u01.split_at_mut(1);
                let (u2, u3) = u23.split_at_mut(1);
                let rows = u0[0][..len]
                    .iter_mut()
                    .zip(&mut u1[0][..len])
                    .zip(u2[0][..len].iter_mut().zip(&mut u3[0][..len]));
                for (i, ((v0, v1), (v2, v3))) in rows.enumerate() {
                    let p0 = uniform_open_from_u64(a.next_u64());
                    let p1 = uniform_open_from_u64(b.next_u64());
                    let p2 = uniform_open_from_u64(c.next_u64());
                    let p3 = uniform_open_from_u64(d.next_u64());
                    *v0 = p0;
                    *v1 = p1;
                    *v2 = p2;
                    *v3 = p3;
                    let range = ACKLAM_P_LOW..=1.0 - ACKLAM_P_LOW;
                    tails[0][tn[0]] = i as u8;
                    tn[0] += usize::from(!range.contains(&p0));
                    tails[1][tn[1]] = i as u8;
                    tn[1] += usize::from(!range.contains(&p1));
                    tails[2][tn[2]] = i as u8;
                    tn[2] += usize::from(!range.contains(&p2));
                    tails[3][tn[3]] = i as u8;
                    tn[3] += usize::from(!range.contains(&p3));
                }
                for (lane, ul) in u.iter().enumerate() {
                    let off = lane * row_len + start;
                    quantile(
                        &mut oq[off..off + len],
                        &ul[..len],
                        &tails[lane][..tn[lane]],
                    );
                }
                start += len;
            }
        } else {
            for (rng, row) in rq.iter_mut().zip(oq.chunks_mut(row_len)) {
                fill_row(rng, row, &quantile);
            }
        }
    }
}

/// Largest `|r|` the polynomial `ln(1-r)`/`exp` pair is certified for.
///
/// The delay model's reachable domain is far inside this: the paper's
/// variation mixes put 6σ of total ΔVth near 0.27 V against a 0.7 V
/// overdrive (`r ≈ 0.39`), and callers fall back to exact `powf` beyond
/// the certified range rather than extrapolate.
pub const LN_ONE_MINUS_MAX_R: f64 = 0.6;

/// `ln(1 - r)` by the atanh series, for `|r| <=` [`LN_ONE_MINUS_MAX_R`].
///
/// With `u = r / (2 - r)` one has `1 - r = (1 - u)/(1 + u)`, hence
/// `ln(1-r) = -2·atanh(u) = -2·(u + u³/3 + u⁵/5 + …)`; the series is
/// truncated after the `u¹⁷/17` term. At the domain edge (`u ≈ 0.4286`)
/// the truncation error is below `2e-8` absolute, and it falls off as
/// `u¹⁹` inside it. No transcendental calls: one division plus a fixed
/// odd-power chain whose nine reciprocal coefficients are frozen
/// below.
///
/// # Panics
///
/// Debug-asserts the certified domain.
// rustfmt::skip: the deeply nested Horner chain below makes rustfmt's
// expression layout search take effectively unbounded time. The allow
// keeps the frozen coefficients at full printed precision — they are
// the contract, not a derivation to be re-rounded.
#[rustfmt::skip]
#[allow(clippy::excessive_precision)]
#[inline]
pub fn ln_one_minus(r: f64) -> f64 {
    debug_assert!(
        r.abs() <= LN_ONE_MINUS_MAX_R,
        "ln_one_minus certified only for |r| <= {LN_ONE_MINUS_MAX_R}, got {r}"
    );
    let u = r / (2.0 - r);
    let u2 = u * u;
    // 1/3, 1/5, …, 1/17 — frozen reciprocals of the odd integers.
    let s = 1.0
        + u2 * (0.333_333_333_333_333_33
            + u2 * (0.2
                + u2 * (0.142_857_142_857_142_85
                    + u2 * (0.111_111_111_111_111_11
                        + u2 * (0.090_909_090_909_090_91
                            + u2 * (0.076_923_076_923_076_92
                                + u2 * (0.066_666_666_666_666_67
                                    + u2 * 0.058_823_529_411_764_705)))))));
    -2.0 * u * s
}

/// Largest `|x|` [`exp_approx`] is certified for.
pub const EXP_APPROX_MAX_X: f64 = 3.0;

/// `exp(x)` by argument quartering and a degree-12 Taylor polynomial,
/// for `|x| <=` [`EXP_APPROX_MAX_X`].
///
/// `exp(x) = (T₁₂(x/4))⁴` with `T₁₂` the Maclaurin polynomial of the
/// exponential (coefficients `1/k!` frozen below). At the domain edge
/// the quartered argument is `0.75`, where the truncation error of
/// `T₁₂` is ~1e-11; two squarings at most quadruple the relative error,
/// keeping it below `5e-11`. No transcendental calls.
///
/// # Panics
///
/// Debug-asserts the certified domain.
// rustfmt::skip + allow: same hazards as ln_one_minus.
#[rustfmt::skip]
#[allow(clippy::excessive_precision)]
#[inline]
pub fn exp_approx(x: f64) -> f64 {
    debug_assert!(
        x.abs() <= EXP_APPROX_MAX_X,
        "exp_approx certified only for |x| <= {EXP_APPROX_MAX_X}, got {x}"
    );
    let y = 0.25 * x;
    // Horner over 1/k! for k = 0..=12, frozen.
    let t = 1.0
        + y * (1.0
            + y * (0.5
                + y * (0.166_666_666_666_666_66
                    + y * (0.041_666_666_666_666_664
                        + y * (0.008_333_333_333_333_333
                            + y * (0.001_388_888_888_888_889
                                + y * (1.984_126_984_126_984e-4
                                    + y * (2.480_158_730_158_730_2e-5
                                        + y * (2.755_731_922_398_589_4e-6
                                            + y * (2.755_731_922_398_589_4e-7
                                                + y * (2.505_210_838_544_172e-8
                                                    + y * 2.087_675_698_786_81e-9)))))))))));
    let t2 = t * t;
    t2 * t2
}

/// [`ln_one_minus`] with the odd-power chain fused (`mul_add`) and
/// regrouped Estrin-style — the v3 kernel's half of the alpha-power
/// slowdown. Same frozen reciprocal coefficients, same truncation, and
/// same certified domain as [`ln_one_minus`]; fusing removes one
/// rounding per step and the Estrin tree cuts the serial dependency
/// chain roughly in half (the pass is latency-bound, not
/// throughput-bound), so results agree with [`ln_one_minus`] to a few
/// ULP without being bit-interchangeable.
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
    ln_one_minus_fma_raw(r)
}

/// [`ln_one_minus_fma`] without the domain check, for fused-sweep
/// callers that evaluate speculatively and range-test afterwards.
/// Out-of-domain inputs produce finite-or-non-finite junk (never a
/// trap); the caller must discard such results.
#[inline]
pub fn ln_one_minus_fma_raw(r: f64) -> f64 {
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
    // The same frozen reciprocals 1/3 .. 1/17 as `ln_one_minus`,
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

/// [`exp_approx`] with the Maclaurin chain fused (`mul_add`) and
/// regrouped Estrin-style — the v3 kernel's other half of the
/// alpha-power slowdown. Same frozen `1/k!` coefficients, same
/// truncation, quartering, and certified domain as the v2 twin; the
/// Estrin tree replaces the 13-step serial Horner chain with six
/// independent degree-1 leaves combined in `log` depth, roughly
/// halving the latency of this latency-bound kernel.
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
    // The same frozen factorials 1/0! .. 1/12! as `exp_approx`, paired
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

    /// Satellite requirement: pair-producing Box–Muller moment checks
    /// against N(0,1) — mean, variance, and skewness, including the
    /// sine halves v1 never emits.
    #[test]
    fn pair_bm_moments_match_standard_normal() {
        let mut rng = StdRng::seed_from_u64(0xB0C5);
        let mut buf = [0.0; 64];
        let mut stats = RunningStats::new();
        for _ in 0..4_000 {
            fill_standard_normals_bm(&mut rng, &mut buf);
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
        assert!(
            stats.excess_kurtosis().abs() < 0.03,
            "kurt {}",
            stats.excess_kurtosis()
        );
    }

    #[test]
    fn pair_bm_halves_are_independent() {
        // Correlation between the cosine and sine halves of each pair
        // must vanish — they are the two coordinates of an isotropic
        // Gaussian point.
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum_ab = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let u1 = uniform_open_from_u64(rng.next_u64());
            let u2 = uniform_open_from_u64(rng.next_u64());
            let (a, b) = normal_pair_bm(u1, u2);
            sum_ab += a * b;
        }
        let rho = sum_ab / n as f64;
        assert!(rho.abs() < 0.01, "cos/sin halves correlate: {rho}");
    }

    #[test]
    fn odd_fill_consumes_a_fixed_number_of_draws() {
        // Same seed, lengths 5 then 2: the 5-fill must consume exactly
        // 6 draws (3 pairs), so the next draw after it equals draw #7
        // of a fresh stream.
        let mut a = StdRng::seed_from_u64(11);
        let mut buf5 = [0.0; 5];
        fill_standard_normals_bm(&mut a, &mut buf5);
        let next = a.next_u64();
        let mut b = StdRng::seed_from_u64(11);
        for _ in 0..6 {
            b.next_u64();
        }
        assert_eq!(next, b.next_u64());
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

    /// Both multi-stream fills give every row the single-stream fill's
    /// bits and leave each stream where that fill leaves it, across quad
    /// and leftover rows and 64-element chunk edges.
    #[test]
    fn multi_stream_fills_match_single_stream_rows() {
        type Multi = fn(&mut [StdRng], &mut [f64]);
        type Single = fn(&mut StdRng, &mut [f64]);
        let fills: [(Multi, Single); 2] = [
            (
                fill_standard_normals_inv_cdf_multi,
                fill_standard_normals_inv_cdf,
            ),
            (
                fill_standard_normals_inv_cdf_fma_multi,
                fill_standard_normals_inv_cdf_fma,
            ),
        ];
        for (multi, single) in fills {
            for streams in [1usize, 2, 4, 5, 16] {
                for row in [0usize, 1, 3, 20, 64, 65, 130] {
                    let seeded = || -> Vec<StdRng> {
                        (0..streams as u64)
                            .map(|s| StdRng::seed_from_u64(s * 977 + row as u64))
                            .collect()
                    };
                    let (mut a, mut b) = (seeded(), seeded());
                    let mut out = vec![0.0; streams * row];
                    multi(&mut a, &mut out);
                    let mut want = vec![0.0; row];
                    for (i, (ra, rb)) in a.iter_mut().zip(&mut b).enumerate() {
                        single(rb, &mut want);
                        let got = &out[i * row..(i + 1) * row];
                        assert_eq!(got, &want[..], "{streams} streams, row {i} of {row}");
                        assert_eq!(ra.next_u64(), rb.next_u64(), "row {i} consumption");
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
        // The fused vector-pass fill must be bit-identical to the fused
        // scalar quantile per element, with identical RNG consumption to
        // the v2 fill (97 draws ⇒ tail elements and a partial final
        // lane).
        let mut a = StdRng::seed_from_u64(0xF3A);
        let mut buf = [0.0; 97];
        fill_standard_normals_inv_cdf_fma(&mut a, &mut buf);
        let mut b = StdRng::seed_from_u64(0xF3A);
        for (i, &z) in buf.iter().enumerate() {
            let want = standard_normal_inv_cdf_fma(uniform_open_from_u64(b.next_u64()));
            assert_eq!(z, want, "element {i}");
        }
        assert_eq!(a.next_u64(), b.next_u64(), "RNG consumption diverged");
    }

    #[test]
    fn fma_quantile_agrees_with_v2_quantile_but_not_bitwise() {
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
    fn fma_poly_kernels_agree_with_v2_kernels() {
        let mut r = -LN_ONE_MINUS_MAX_R;
        while r <= LN_ONE_MINUS_MAX_R {
            let fused = ln_one_minus_fma(r);
            let plain = ln_one_minus(r);
            assert!(
                (fused - plain).abs() <= 1e-13 * plain.abs().max(1e-3),
                "r={r}: {fused} vs {plain}"
            );
            r += 1e-3;
        }
        let mut x = -EXP_APPROX_MAX_X;
        while x <= EXP_APPROX_MAX_X {
            let fused = exp_approx_fma(x);
            let plain = exp_approx(x);
            assert!(
                ((fused - plain) / plain).abs() <= 1e-13,
                "x={x}: {fused} vs {plain}"
            );
            x += 1e-3;
        }
        assert_eq!(exp_approx_fma(0.0), 1.0);
        assert_eq!(ln_one_minus_fma(0.0), 0.0);
    }

    #[test]
    fn ln_one_minus_matches_reference() {
        let mut worst = 0.0_f64;
        let mut r = -LN_ONE_MINUS_MAX_R;
        while r <= LN_ONE_MINUS_MAX_R {
            if r.abs() > 1e-12 {
                let got = ln_one_minus(r);
                let want = (1.0 - r).ln();
                worst = worst.max((got - want).abs());
            }
            r += 1e-4;
        }
        assert!(worst < 2e-8, "max abs error {worst}");
        assert_eq!(ln_one_minus(0.0), 0.0);
    }

    #[test]
    fn exp_approx_matches_reference() {
        let mut worst = 0.0_f64;
        let mut x = -EXP_APPROX_MAX_X;
        while x <= EXP_APPROX_MAX_X {
            let got = exp_approx(x);
            let want = x.exp();
            worst = worst.max(((got - want) / want).abs());
            x += 1e-3;
        }
        assert!(worst < 5e-11, "max rel error {worst}");
        assert_eq!(exp_approx(0.0), 1.0);
    }
}
