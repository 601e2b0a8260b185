//! Stratified-sampling permutations and importance-sampling estimator
//! math for the trial-plan contracts.
//!
//! The stratified (Latin-hypercube) trial plan partitions the unit
//! interval into `n` equal strata per leading dimension and assigns each
//! trial of a block exactly one stratum per dimension. The assignment is
//! a keyed permutation — a pure function of `(stream key, block, dim)` —
//! so shards and resumed runs reproduce it without coordination, and
//! different dimensions use independent permutations (the Latin
//! hypercube property).
//!
//! The blockade (importance-sampling) plan shifts the inter-die normal
//! toward the failure region and reweights; the self-normalized
//! estimator and its delta-method confidence interval live here so the
//! Monte-Carlo and reporting layers share one audited implementation.

use crate::mix::splitmix64_mix;

/// Two-sided 95% normal critical value (matches the Wilson interval used
/// by the binomial yield estimator).
const Z_95: f64 = 1.959_963_984_540_054;

/// A keyed bijection on `0..256` (4-round Feistel on two 4-bit halves).
///
/// Used to assign block-local trial slots to strata: for a fixed `key`
/// every `j` in `0..=255` maps to a distinct stratum, so a full block
/// covers every stratum exactly once per dimension. [`Permute256`]
/// evaluates the same bijection for a whole block.
#[must_use]
pub fn permute256(key: u64, j: u8) -> u8 {
    let mut l = j >> 4;
    let mut r = j & 0x0f;
    for round in 0..4u64 {
        let new_r = l ^ feistel_round(key, round, r);
        l = r;
        r = new_r;
    }
    (l << 4) | r
}

/// The round function of [`permute256`]: a keyed 4-bit value of the
/// round index and the right half.
#[inline]
fn feistel_round(key: u64, round: u64, r: u8) -> u8 {
    (splitmix64_mix(key ^ (round << 8) ^ u64::from(r)) & 0x0f) as u8
}

/// [`permute256`] for one key with its round function tabulated: the 4
/// rounds × 16 right halves cost 64 mixes once, after which each of a
/// block's 256 slots costs four table lookups instead of four mixes.
#[derive(Debug, Clone, Copy)]
pub struct Permute256 {
    rounds: [[u8; 16]; 4],
}

impl Permute256 {
    /// Tabulates the round function of `key`.
    #[must_use]
    pub fn new(key: u64) -> Self {
        let mut rounds = [[0u8; 16]; 4];
        for (round, table) in (0u64..).zip(&mut rounds) {
            for (r, f) in (0u8..).zip(table.iter_mut()) {
                *f = feistel_round(key, round, r);
            }
        }
        Permute256 { rounds }
    }

    /// `permute256(key, j)`, bit for bit.
    #[inline]
    #[must_use]
    pub fn apply(&self, j: u8) -> u8 {
        let mut l = j >> 4;
        let mut r = j & 0x0f;
        for table in &self.rounds {
            let new_r = l ^ table[usize::from(r)];
            l = r;
            r = new_r;
        }
        (l << 4) | r
    }
}

/// The permutation key for `(stream key, block, dim)`: independent keys
/// per dimension give the Latin-hypercube property, and folding the
/// block index in re-randomizes stratum assignment from block to block.
#[must_use]
pub fn stratum_key(stream_key: u64, block: u64, dim: usize) -> u64 {
    splitmix64_mix(
        stream_key
            ^ block.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (dim as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
    )
}

/// A uniform variate from stratum `slot` of `n` equal strata, jittered
/// by `jitter` in `[0, 1)`: `(slot + jitter) / n`, clamped into the open
/// unit interval so it can feed a quantile function directly.
#[must_use]
pub fn stratified_uniform(slot: u64, jitter: f64, n: u64) -> f64 {
    let u = (slot as f64 + jitter) / n as f64;
    u.clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0)
}

/// The likelihood ratio of a mean-shifted normal draw: a standard-normal
/// sample `z` reported at the shifted location `z + shift` carries
/// weight `exp(-shift * z - shift^2 / 2)` so reweighted averages remain
/// unbiased for the unshifted distribution.
#[must_use]
pub fn mean_shift_weight(shift: f64, z: f64) -> f64 {
    (-shift * z - 0.5 * shift * shift).exp()
}

/// Unnormalized importance-sampling estimate of a failure fraction,
/// with a 95% confidence half-width.
///
/// Inputs are the trial count and the weight sums restricted to
/// *failing* trials: `fail_w = sum w_i 1{fail_i}` and
/// `fail_w2 = sum w_i^2 1{fail_i}`. Returns `(p_hat, half_width)` with
/// `p_hat = fail_w / n` — exactly unbiased, since `E[w] = 1` under the
/// shifted sampler — and the half-width from the sample variance of
/// `w_i 1{fail_i}`, which reduces to the binomial normal approximation
/// for unit weights.
///
/// The unnormalized form is deliberate: under a mean shift *toward* the
/// failure region, failing trials carry small bounded weights
/// (`w <= exp(-shift^2/2)` at the shift point and beyond), while the
/// handful of huge weights live on the never-failing side — a
/// self-normalized ratio estimator would drag those into its
/// denominator and inherit their variance (and finite-sample bias) for
/// nothing.
#[must_use]
pub fn weighted_fraction_ci(n_trials: f64, fail_w: f64, fail_w2: f64) -> (f64, f64) {
    if n_trials <= 0.0 {
        return (0.0, 0.5);
    }
    let p = (fail_w / n_trials).clamp(0.0, 1.0);
    let var = ((fail_w2 / n_trials - p * p) / n_trials).max(0.0);
    (p, Z_95 * var.sqrt())
}

/// Kish effective sample size `(sum w)^2 / sum w^2` of a weighted
/// sample: the number of equally-weighted trials carrying the same
/// information. Equals the trial count when all weights are 1.
#[must_use]
pub fn effective_sample_size(sum_w: f64, sum_w2: f64) -> f64 {
    if sum_w2 <= 0.0 {
        return 0.0;
    }
    sum_w * sum_w / sum_w2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permute256_is_a_bijection_for_any_key() {
        for key in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let mut seen = [false; 256];
            for j in 0..=255u8 {
                let p = permute256(key, j);
                assert!(!seen[p as usize], "key {key:#x}: duplicate image {p}");
                seen[p as usize] = true;
            }
        }
    }

    #[test]
    fn tabulated_permutation_equals_permute256() {
        for key in [0u64, 1, 0xDEAD_BEEF, u64::MAX, stratum_key(7, 3, 15)] {
            let table = Permute256::new(key);
            for j in 0..=255u8 {
                assert_eq!(table.apply(j), permute256(key, j), "key {key:#x}, j {j}");
            }
        }
    }

    #[test]
    fn stratum_coverage_is_exact_per_block_and_dimension() {
        // ISSUE 9 satellite: stratum coverage exactness. A full block of
        // 256 trials must land exactly once in each of 256 strata, in
        // every dimension, for any block index.
        for block in [0u64, 1, 77] {
            for dim in 0..3 {
                let key = stratum_key(0x5EED, block, dim);
                let mut seen = [false; 256];
                for j in 0..=255u8 {
                    let slot = u64::from(permute256(key, j));
                    let u = stratified_uniform(slot, 0.5, 256);
                    let cell = (u * 256.0) as usize;
                    assert!(
                        !seen[cell],
                        "block {block} dim {dim}: stratum {cell} reused"
                    );
                    seen[cell] = true;
                }
            }
        }
    }

    #[test]
    fn dimensions_use_distinct_permutations() {
        let a = stratum_key(1, 0, 0);
        let b = stratum_key(1, 0, 1);
        let differs = (0..=255u8).any(|j| permute256(a, j) != permute256(b, j));
        assert!(differs, "dims 0 and 1 share a permutation");
    }

    #[test]
    fn stratified_uniform_stays_open() {
        assert!(stratified_uniform(0, 0.0, 256) > 0.0);
        assert!(stratified_uniform(255, 1.0 - 1e-16, 256) < 1.0);
    }

    #[test]
    fn mean_shift_weight_integrates_to_one() {
        // E[w(Z)] over Z ~ N(0,1) is exactly 1 for any shift; check by
        // midpoint quadrature over a wide range.
        for shift in [0.5, 1.5, 3.0] {
            let mut total = 0.0;
            let n = 20_000;
            for i in 0..n {
                let z = -10.0 + 20.0 * (i as f64 + 0.5) / n as f64;
                total += mean_shift_weight(shift, z) * crate::normal::phi(z) * (20.0 / n as f64);
            }
            assert!((total - 1.0).abs() < 1e-6, "shift {shift}: {total}");
        }
    }

    #[test]
    fn weighted_ci_reduces_to_binomial_for_unit_weights() {
        // 1000 trials, 50 failures, all weights 1: p = 0.05 and the
        // half-width matches the normal-approximation binomial width.
        let n = 1000.0;
        let fails = 50.0;
        let (p, hw) = weighted_fraction_ci(n, fails, fails);
        assert!((p - 0.05).abs() < 1e-12);
        let expect = Z_95 * (0.05 * 0.95 / n).sqrt();
        assert!((hw - expect).abs() < 1e-9, "hw {hw} vs {expect}");
        assert!((effective_sample_size(n, n) - n).abs() < 1e-9);
    }

    #[test]
    fn weighted_estimator_is_unbiased_under_a_mean_shift() {
        // Estimate Pr{Z > 3} by sampling Z' = Z + 3 and reweighting:
        // quadrature over the shifted density must recover the exact
        // tail probability with a small half-width.
        let shift = 3.0;
        let b = 3.0;
        let n = 50_000.0;
        let (mut fail_w, mut fail_w2) = (0.0, 0.0);
        let steps = 40_000;
        for i in 0..steps {
            // z' ~ N(shift, 1) by quadrature; pre-shift z = z' - shift.
            let zp = shift - 10.0 + 20.0 * (i as f64 + 0.5) / steps as f64;
            let density = crate::normal::phi(zp - shift) * (20.0 / steps as f64);
            if zp > b {
                let w = mean_shift_weight(shift, zp - shift);
                fail_w += n * density * w;
                fail_w2 += n * density * w * w;
            }
        }
        let (p, hw) = weighted_fraction_ci(n, fail_w, fail_w2);
        let truth = 1.0 - crate::normal::cap_phi(b);
        assert!((p - truth).abs() / truth < 1e-4, "p {p} vs {truth}");
        assert!(hw < truth / 10.0, "half-width {hw} too wide for {truth}");
    }

    #[test]
    fn degenerate_sums_do_not_blow_up() {
        let (p, hw) = weighted_fraction_ci(0.0, 0.0, 0.0);
        assert_eq!(p, 0.0);
        assert_eq!(hw, 0.5);
        assert_eq!(effective_sample_size(0.0, 0.0), 0.0);
    }
}
