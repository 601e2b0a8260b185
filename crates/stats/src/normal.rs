//! Scalar Gaussian mathematics.
//!
//! Everything here is implemented from first principles (series and continued
//! fractions for `erf`/`erfc`, Acklam's rational approximation plus a Halley
//! refinement for the quantile) so the workspace carries no external special-
//! function dependency and the numerics are auditable.

use std::fmt;

use rand::{Rng, RngExt as _};
use serde::{Deserialize, Serialize};

use crate::simd;

/// `1/sqrt(2*pi)`.
pub(crate) const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
/// `sqrt(2)`.
const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Error function `erf(x) = 2/sqrt(pi) * Integral_0^x exp(-t^2) dt`.
///
/// Uses the Maclaurin series for small `|x|` and the continued-fraction
/// expansion of `erfc` for large `|x|`; accurate to ~1e-15 relative error
/// over the whole real line.
///
/// ```
/// use vardelay_stats::erf;
/// assert!((erf(0.0)).abs() < 1e-15);
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-14);
/// ```
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.0 {
        return -erf(-x);
    }
    if x < 2.0 {
        erf_series(x)
    } else {
        1.0 - erfc_cf(x)
    }
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Remains accurate in the far tail (down to ~1e-300) where `1 - erf(x)`
/// would suffer catastrophic cancellation.
///
/// ```
/// use vardelay_stats::erfc;
/// assert!((erfc(0.0) - 1.0).abs() < 1e-15);
/// // Deep-tail value stays finite and positive.
/// assert!(erfc(10.0) > 0.0 && erfc(10.0) < 1e-40);
/// ```
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 2.0 {
        1.0 - erf_series(x)
    } else {
        erfc_cf(x)
    }
}

/// Non-alternating Maclaurin series for `erf`, valid (fast-converging)
/// for `|x| < 2`.
fn erf_series(x: f64) -> f64 {
    // erf(x) = 2/sqrt(pi) * exp(-x^2) * sum_{n>=0} (2x^2)^n * x / (1*3*...*(2n+1))
    // — every term is positive, so there is no cancellation.
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    let mut n = 0u32;
    loop {
        n += 1;
        term *= 2.0 * x2 / (2.0 * f64::from(n) + 1.0);
        let new = sum + term;
        if new == sum || n > 300 {
            break;
        }
        sum = new;
    }
    2.0 / std::f64::consts::PI.sqrt() * (-x2).exp() * sum
}

/// Stieltjes continued fraction for `erfc`, valid for `x >= 2`
/// (evaluated bottom-up with a fixed depth that is ample in that range).
fn erfc_cf(x: f64) -> f64 {
    // erfc(x) = exp(-x^2)/(x*sqrt(pi)) * 1/(1 + q1/(1 + q2/(1 + ...)))
    // with q_n = n / (2 x^2).
    let c = 0.5 / (x * x);
    let depth = 120;
    let mut frac = 0.0_f64;
    for k in (1..=depth).rev() {
        frac = f64::from(k) * c / (1.0 + frac);
    }
    (-x * x).exp() / (x * std::f64::consts::PI.sqrt()) / (1.0 + frac)
}

/// Standard normal probability density `phi(x) = exp(-x^2/2)/sqrt(2*pi)`.
///
/// ```
/// use vardelay_stats::phi;
/// assert!((phi(0.0) - 0.3989422804014327).abs() < 1e-15);
/// ```
#[inline]
pub fn phi(x: f64) -> f64 {
    FRAC_1_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Standard normal cumulative distribution `Phi(x)`.
///
/// The name `cap_phi` ("capital phi") follows the paper's notation where
/// `Φ` is the CDF and `φ` ([`phi`]) the PDF.
///
/// ```
/// use vardelay_stats::cap_phi;
/// assert!((cap_phi(0.0) - 0.5).abs() < 1e-15);
/// assert!((cap_phi(1.959963984540054) - 0.975).abs() < 1e-12);
/// ```
#[inline]
pub fn cap_phi(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// Inverse standard normal CDF (the quantile function `Phi^-1`).
///
/// Acklam's rational approximation refined with one Halley step against the
/// high-precision [`cap_phi`]; absolute error is at the machine-precision
/// level for `p` in `(1e-300, 1 - 1e-16)`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)` (the open interval) or is NaN.
///
/// ```
/// use vardelay_stats::{cap_phi, inv_cap_phi};
/// let x = inv_cap_phi(0.8);
/// assert!((cap_phi(x) - 0.8).abs() < 1e-14);
/// ```
pub fn inv_cap_phi(p: f64) -> f64 {
    let x = acklam_quantile(p);
    halley_step(p, x, cap_phi(x))
}

/// Series [`inv_cap_phi_lanes`] steps side by side.
const QUANTILE_LANES: usize = 16;

/// Elements [`inv_cap_phi_lanes`] stages at a time.
const QUANTILE_BATCH: usize = 256;

/// [`inv_cap_phi`] over a slice, in place: every element is replaced by
/// its quantile, bit for bit what the scalar function returns.
///
/// Each element runs the exact scalar operation sequence, but the Halley
/// step's `erf` series — a serial chain of one divide, multiply and add
/// per term, 1 to ~45 terms deep — runs 16 elements side by side
/// instead of one latency-bound chain after another. A lane's series
/// sum freezes once its own `new == sum || n > 300` rule fires; lanes
/// are grouped by series argument, so a group's lanes need similar term
/// counts and few steps are spent on frozen lanes. The `ln` tails, the
/// `exp` calls and the continued-fraction branch (`|x|/√2 >= 2`) stay
/// scalar per element.
///
/// # Panics
///
/// Panics if any element is outside `(0, 1)` or is NaN.
pub fn inv_cap_phi_lanes(p: &mut [f64]) {
    for batch in p.chunks_mut(QUANTILE_BATCH) {
        inv_cap_phi_batch(batch);
    }
}

/// One batch (at most [`QUANTILE_BATCH`] elements) of
/// [`inv_cap_phi_lanes`]: `cap_phi(x) = 0.5 · erfc(-x/√2)` unrolled into
/// [`erfc`]'s branches, with the series branch run 16 lanes at a time
/// over the series elements in order of their argument.
fn inv_cap_phi_batch(p: &mut [f64]) {
    const B: usize = QUANTILE_BATCH;
    const L: usize = QUANTILE_LANES;
    let n = p.len();
    debug_assert!(n <= B);
    // `erfc(y)` at `y = -x/√2` evaluates at `a = |y|` and reflects when
    // `y < 0`; the series elements are those with `a < 2`.
    let mut x = [0.0; B];
    let mut a = [0.0; B];
    for i in 0..n {
        x[i] = acklam_quantile(p[i]);
        let y = -x[i] / SQRT_2;
        a[i] = if y < 0.0 { -y } else { y };
    }
    // Counting-sort the series elements by `⌊8a⌋`: the term count grows
    // with `a`, so each 16-lane group gets similar counts.
    let bucket = |a: f64| (a * 8.0) as usize;
    let mut starts = [0usize; L + 1];
    for &ai in a[..n].iter().filter(|&&ai| ai < 2.0) {
        starts[bucket(ai) + 1] += 1;
    }
    for b in 0..L {
        starts[b + 1] += starts[b];
    }
    let series = starts[L];
    let mut order = [0u8; B];
    for (i, &ai) in a[..n].iter().enumerate().filter(|(_, &ai)| ai < 2.0) {
        let slot = &mut starts[bucket(ai)];
        order[*slot] = i as u8;
        *slot += 1;
    }
    let mut sum = [0.0; B];
    for group in order[..series].chunks(L) {
        let (mut lanes, mut live) = ([0.0; L], [false; L]);
        for ((v, l), &i) in lanes.iter_mut().zip(&mut live).zip(group) {
            (*v, *l) = (a[usize::from(i)], true);
        }
        let s = simd::dispatch(ErfSeriesLanes(&lanes, live));
        for (&i, &v) in group.iter().zip(&s) {
            sum[usize::from(i)] = v;
        }
    }
    for i in 0..n {
        let r = if a[i] < 2.0 {
            1.0 - 2.0 / std::f64::consts::PI.sqrt() * (-(a[i] * a[i])).exp() * sum[i]
        } else {
            erfc_cf(a[i])
        };
        let erfc = if -x[i] / SQRT_2 < 0.0 { 2.0 - r } else { r };
        p[i] = halley_step(p[i], x[i], 0.5 * erfc);
    }
}

type Lanes = [f64; QUANTILE_LANES];

/// The term loop of [`erf_series`] at every `live` lane's argument at
/// once, returning each lane's sum: each lane takes the scalar steps in
/// the scalar order and stops (its sum frozen) on the step its own
/// stopping rule fires. Frozen lanes keep stepping their term (never
/// read again) so the body stays branch-free. Marked `inline(always)`
/// so each [`simd`] tier's wrapper inherits the body and vectorizes it;
/// mul/add/div vectorization is IEEE-exact per element (and the body has
/// no `mul_add`), so every tier produces the scalar bits.
#[inline(always)]
fn erf_series_lanes(x: &Lanes, mut live: [bool; QUANTILE_LANES]) -> Lanes {
    let x2 = x.map(|v| v * v);
    let (mut term, mut sum) = (*x, *x);
    let mut n = 0u32;
    while live.contains(&true) {
        n += 1;
        let d = 2.0 * f64::from(n) + 1.0;
        let cap = n > 300;
        for i in 0..QUANTILE_LANES {
            term[i] *= 2.0 * x2[i] / d;
            let new = sum[i] + term[i];
            let go = live[i] && !(new == sum[i] || cap);
            sum[i] = if go { new } else { sum[i] };
            live[i] = go;
        }
    }
    sum
}

/// [`erf_series_lanes`] as a [`simd::Kernel`].
struct ErfSeriesLanes<'a>(&'a Lanes, [bool; QUANTILE_LANES]);

impl simd::Kernel for ErfSeriesLanes<'_> {
    type Output = Lanes;
    #[inline(always)]
    fn run(self) -> Lanes {
        erf_series_lanes(self.0, self.1)
    }
}

/// Acklam's rational approximation of the quantile — the starting point
/// [`inv_cap_phi`] refines.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)` or is NaN.
#[inline]
fn acklam_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "inv_cap_phi requires p in the open interval (0, 1), got {p}"
    );
    // Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

/// One Halley refinement of the quantile estimate `x` of `p`, given
/// `cdf = Phi(x)`: `u = (Phi(x) - p) / phi(x)`, `x - u / (1 + x·u/2)`.
#[inline]
fn halley_step(p: f64, x: f64, cdf: f64) -> f64 {
    let e = cdf - p;
    let u = e / phi(x);
    x - u / (1.0 + 0.5 * x * u)
}

/// Error constructing a [`Normal`] distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalError {
    /// The mean was NaN or infinite.
    NonFiniteMean,
    /// The standard deviation was negative, NaN, or infinite.
    InvalidStdDev,
}

impl fmt::Display for NormalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormalError::NonFiniteMean => write!(f, "mean must be finite"),
            NormalError::InvalidStdDev => {
                write!(f, "standard deviation must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for NormalError {}

/// A univariate Gaussian distribution `N(mean, sd^2)`.
///
/// A zero standard deviation is allowed and denotes a degenerate
/// (deterministic) distribution — useful as the limit case of perfectly
/// determined delays.
///
/// ```
/// use vardelay_stats::Normal;
/// let d = Normal::new(200.0, 3.0)?;
/// assert!((d.cdf(200.0) - 0.5).abs() < 1e-12);
/// assert!((d.quantile(0.99) - (200.0 + 3.0 * 2.3263478740408408)).abs() < 1e-6);
/// # Ok::<(), vardelay_stats::NormalError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a Gaussian with the given mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`NormalError`] if `mean` is not finite or `sd` is negative
    /// or not finite.
    pub fn new(mean: f64, sd: f64) -> Result<Self, NormalError> {
        if !mean.is_finite() {
            return Err(NormalError::NonFiniteMean);
        }
        if !sd.is_finite() || sd < 0.0 {
            return Err(NormalError::InvalidStdDev);
        }
        Ok(Normal { mean, sd })
    }

    /// The standard normal `N(0, 1)`.
    #[inline]
    pub fn standard() -> Self {
        Normal { mean: 0.0, sd: 1.0 }
    }

    /// A degenerate (zero-variance) distribution concentrated at `value`.
    // Kept: the crates/opt/src/verify.rs tests call it.
    #[inline]
    pub fn degenerate(value: f64) -> Self {
        Normal {
            mean: value,
            sd: 0.0,
        }
    }

    /// The mean.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    #[inline]
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// The variance `sd^2`.
    #[inline]
    pub fn variance(&self) -> f64 {
        self.sd * self.sd
    }

    /// The coefficient of variation `sd / mean` — the paper's
    /// "variability" metric (σ/μ).
    ///
    /// Returns `NaN` when the mean is zero.
    #[inline]
    pub fn variability(&self) -> f64 {
        self.sd / self.mean
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        if self.sd == 0.0 {
            return if x == self.mean { f64::INFINITY } else { 0.0 };
        }
        phi((x - self.mean) / self.sd) / self.sd
    }

    /// Cumulative probability `Pr{X <= x}`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sd == 0.0 {
            return if x >= self.mean { 1.0 } else { 0.0 };
        }
        cap_phi((x - self.mean) / self.sd)
    }

    /// Quantile (inverse CDF) at probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.sd == 0.0 {
            assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
            return self.mean;
        }
        self.mean + self.sd * inv_cap_phi(p)
    }

    /// Draws one sample using the Box–Muller transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sd * sample_standard_normal(rng)
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// The distribution of `X + Y` for independent `X`, `Y`.
    pub fn add_independent(&self, other: &Normal) -> Normal {
        Normal {
            mean: self.mean + other.mean,
            sd: (self.variance() + other.variance()).sqrt(),
        }
    }
}

impl Default for Normal {
    fn default() -> Self {
        Normal::standard()
    }
}

impl fmt::Display for Normal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N({:.6}, {:.6}²)", self.mean, self.sd)
    }
}

/// Draws a standard-normal variate via the Box–Muller transform.
///
/// Kept as a free function so samplers that only need standard variates
/// (e.g. the multivariate sampler) avoid constructing a [`Normal`].
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller; u1 in (0,1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun / mpmath.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (1.5, 0.9661051464753107),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
            (-1.0, -0.8427007929497149),
        ];
        for (x, want) in cases {
            assert!(
                (erf(x) - want).abs() < 1e-13,
                "erf({x}) = {} want {want}",
                erf(x)
            );
        }
    }

    #[test]
    fn erfc_tail_accuracy() {
        // erfc(3) = 2.2090496998585441e-05, erfc(5) = 1.5374597944280349e-12
        assert!((erfc(3.0) - 2.209049699858544e-5).abs() / 2.209049699858544e-5 < 1e-10);
        assert!((erfc(5.0) - 1.537_459_794_428_035e-12).abs() / 1.537_459_794_428_035e-12 < 1e-10);
        assert!((erfc(8.0) - 1.1224297172982928e-29).abs() / 1.1224297172982928e-29 < 1e-9);
    }

    #[test]
    fn erf_erfc_complementarity() {
        for i in -40..=40 {
            let x = f64::from(i) * 0.1;
            assert!(
                (erf(x) + erfc(x) - 1.0).abs() < 1e-13,
                "complementarity fails at {x}"
            );
        }
    }

    #[test]
    fn cap_phi_symmetry_and_known_points() {
        assert!((cap_phi(0.0) - 0.5).abs() < 1e-15);
        for i in 0..=30 {
            let x = f64::from(i) * 0.2;
            assert!((cap_phi(x) + cap_phi(-x) - 1.0).abs() < 1e-13);
        }
        // 95th percentile.
        assert!((cap_phi(1.6448536269514722) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn inv_cap_phi_roundtrip() {
        for &p in &[1e-10, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-9] {
            let x = inv_cap_phi(p);
            assert!(
                (cap_phi(x) - p).abs() < 1e-12 * p.max(1e-3),
                "roundtrip p={p}: Phi(Phi^-1(p)) = {}",
                cap_phi(x)
            );
        }
    }

    #[test]
    #[should_panic(expected = "open interval")]
    fn inv_cap_phi_rejects_zero() {
        let _ = inv_cap_phi(0.0);
    }

    #[test]
    #[should_panic(expected = "open interval")]
    fn inv_cap_phi_lanes_rejects_one() {
        inv_cap_phi_lanes(&mut [0.5, 1.0]);
    }

    /// Asserts the lane quantile of every element of `p` is the scalar
    /// quantile's bits, at every chunk position the slice puts it in.
    fn assert_lanes_match_scalar(p: &[f64]) {
        let mut lanes = p.to_vec();
        inv_cap_phi_lanes(&mut lanes);
        for (&pi, &qi) in p.iter().zip(&lanes) {
            let want = inv_cap_phi(pi);
            assert_eq!(qi.to_bits(), want.to_bits(), "p = {pi:e}: {qi} vs {want}");
        }
    }

    fn ulp_neighbours(v: f64) -> [f64; 3] {
        [
            f64::from_bits(v.to_bits() - 1),
            v,
            f64::from_bits(v.to_bits() + 1),
        ]
    }

    #[test]
    fn inv_cap_phi_lanes_matches_scalar_at_branch_edges() {
        let mut p = Vec::new();
        // Acklam's branch points, ±1 ulp.
        p.extend(ulp_neighbours(0.02425));
        p.extend(ulp_neighbours(1.0 - 0.02425));
        // The series / continued-fraction switch: the last `p` whose
        // Acklam estimate has |x|/√2 on one side of 2, the first on the
        // other, ±1 ulp — in both tails.
        for (lo, hi) in [(cap_phi(-3.0), cap_phi(-2.5)), (cap_phi(2.5), cap_phi(3.0))] {
            let (side, edge) = erfc_switch(lo, hi);
            p.extend(ulp_neighbours(side));
            p.extend(ulp_neighbours(edge));
        }
        p.extend([0.5, f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0]);
        // Each value alone (a 1-lane chunk), then packed so chunks mix
        // series and continued-fraction lanes.
        for &v in &p {
            assert_lanes_match_scalar(&[v]);
        }
        assert_lanes_match_scalar(&p);
    }

    /// Bisects `lo..hi` (one side of the median) for the adjacent pair
    /// of `p` whose Acklam estimates put `|x|/√2` on either side of 2,
    /// where [`erfc`] switches from the series to the continued
    /// fraction.
    fn erfc_switch(mut lo: f64, mut hi: f64) -> (f64, f64) {
        let series = |p: f64| (acklam_quantile(p) / SQRT_2).abs() < 2.0;
        let lo_side = series(lo);
        assert_ne!(lo_side, series(hi), "range does not straddle the switch");
        while hi.to_bits() - lo.to_bits() > 1 {
            let mid = f64::from_bits(lo.to_bits() + (hi.to_bits() - lo.to_bits()) / 2);
            if series(mid) == lo_side {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo, hi)
    }

    #[test]
    fn inv_cap_phi_lanes_matches_scalar_on_random_uniforms() {
        let mut rng = StdRng::seed_from_u64(0x0DD5_EED5);
        let p: Vec<f64> = (0..1_000_000)
            .map(|_| crate::batch::uniform_open_from_u64(rng.next_u64()))
            .collect();
        // A ragged length, so the last chunk is partial.
        assert_lanes_match_scalar(&p[..999_997]);
    }

    #[test]
    fn normal_construction_validation() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
        assert!(Normal::new(5.0, 0.0).is_ok());
    }

    #[test]
    fn normal_pdf_integrates_to_one() {
        let d = Normal::new(2.0, 3.0).unwrap();
        // Trapezoidal integration over +-8 sigma.
        let n = 4000;
        let lo = 2.0 - 24.0;
        let hi = 2.0 + 24.0;
        let h = (hi - lo) / n as f64;
        let mut s = 0.5 * (d.pdf(lo) + d.pdf(hi));
        for i in 1..n {
            s += d.pdf(lo + h * i as f64);
        }
        assert!((s * h - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_normal_behaviour() {
        let d = Normal::degenerate(7.0);
        assert_eq!(d.cdf(6.999), 0.0);
        assert_eq!(d.cdf(7.0), 1.0);
        assert_eq!(d.quantile(0.5), 7.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng), 7.0);
    }

    #[test]
    fn sampling_matches_moments() {
        let d = Normal::new(-3.0, 2.5).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let xs = d.sample_n(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        assert!((mean - -3.0).abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 2.5).abs() < 0.02, "sd {}", var.sqrt());
    }

    #[test]
    fn affine_and_sum() {
        let a = Normal::new(1.0, 2.0).unwrap();
        let b = Normal::new(3.0, 4.0).unwrap();
        let s = a.add_independent(&b);
        assert!((s.mean() - 4.0).abs() < 1e-15);
        assert!((s.sd() - 20.0_f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn variability_is_cov() {
        let d = Normal::new(200.0, 10.0).unwrap();
        assert!((d.variability() - 0.05).abs() < 1e-15);
    }
}
