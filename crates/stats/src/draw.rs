//! How a Monte-Carlo trial turns its random stream into standard normals.
//!
//! Two orthogonal choices shape every batch of standard normals a trial
//! draws:
//!
//! * the [`NormalFill`] — the arithmetic that turns the RNG stream into
//!   normals, which the trial kernel pins (scalar Box–Muller for v1,
//!   pair-producing Box–Muller for v2, inverse-CDF for v3);
//! * the [`DrawOverlay`] — what the trial plan does to the drawn normals
//!   (antithetic sign, stratified/Sobol overrides of the leading dims,
//!   blockade mean shift). Plain Monte-Carlo is the identity overlay.
//!
//! Samplers take both, so each keeps one body for every kernel × plan
//! pair. The overlay never changes how many values the fill consumes, so
//! a trial's RNG consumption is fixed by the fill alone.

use rand::Rng;

use crate::batch::{fill_standard_normals_bm, fill_standard_normals_inv_cdf};
use crate::normal::sample_standard_normal;
use crate::strata::mean_shift_weight;

/// Which arithmetic fills a slice with iid standard normals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormalFill {
    /// One scalar Box–Muller normal per slot (cosine half only), in slot
    /// order — the v1 stream.
    Scalar,
    /// Pair-producing batch Box–Muller
    /// ([`fill_standard_normals_bm`]) — the v2 stream.
    BoxMullerPairs,
    /// One-uniform batch inverse-CDF
    /// ([`fill_standard_normals_inv_cdf`]) — the v3 stream.
    InvCdf,
}

impl NormalFill {
    /// Overwrites every slot of `out` with a fresh standard normal.
    #[inline]
    pub fn fill<R: Rng + ?Sized>(self, rng: &mut R, out: &mut [f64]) {
        match self {
            NormalFill::Scalar => {
                for z in out.iter_mut() {
                    *z = sample_standard_normal(rng);
                }
            }
            NormalFill::BoxMullerPairs => fill_standard_normals_bm(rng, out),
            NormalFill::InvCdf => fill_standard_normals_inv_cdf(rng, out),
        }
    }
}

/// A trial plan's modification of one trial's drawn normals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrawOverlay<'a> {
    /// Antithetic reflection multiplied into every normal (`1.0` or
    /// `-1.0`).
    pub sign: f64,
    /// Overrides for the leading dims (stratified or Sobol quantiles);
    /// dims past its length keep their drawn value.
    pub lead: &'a [f64],
    /// Mean shift, in sigmas, of the first die-level normal (blockade);
    /// `0.0` shifts nothing.
    pub shift: f64,
}

impl DrawOverlay<'static> {
    /// Plain Monte-Carlo: every drawn normal passes through unchanged.
    pub const IDENTITY: DrawOverlay<'static> = DrawOverlay {
        sign: 1.0,
        lead: &[],
        shift: 0.0,
    };
}

impl DrawOverlay<'_> {
    /// Replaces the leading dims of `z` with the overrides, then applies
    /// the sign. Bit-exact no-op under [`DrawOverlay::IDENTITY`].
    #[inline]
    pub fn apply(&self, z: &mut [f64]) {
        for (zi, &l) in z.iter_mut().zip(self.lead) {
            *zi = l;
        }
        if self.sign != 1.0 {
            for zi in z.iter_mut() {
                *zi *= self.sign;
            }
        }
    }

    /// Mean-shifts `z` by [`DrawOverlay::shift`] and returns the
    /// likelihood-ratio weight `exp(-shift·z - shift²/2)` of the
    /// pre-shift value (`1.0`, with `z` untouched, when the shift is 0).
    #[inline]
    pub fn shift_weight(&self, z: &mut f64) -> f64 {
        if self.shift == 0.0 {
            return 1.0;
        }
        let w = mean_shift_weight(self.shift, *z);
        *z += self.shift;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_overlay_is_bit_inert() {
        let mut z = [0.25, -1.5, 3.0];
        DrawOverlay::IDENTITY.apply(&mut z);
        assert_eq!(z, [0.25, -1.5, 3.0]);
        assert_eq!(DrawOverlay::IDENTITY.shift_weight(&mut z[0]), 1.0);
        assert_eq!(z[0], 0.25);
    }

    #[test]
    fn overlay_overrides_reflects_and_shifts() {
        let lead = [2.0];
        let o = DrawOverlay {
            sign: -1.0,
            lead: &lead,
            shift: 3.0,
        };
        let mut z = [0.5, 1.0];
        o.apply(&mut z);
        assert_eq!(z, [-2.0, -1.0]);
        let w = o.shift_weight(&mut z[0]);
        assert_eq!(z[0], 1.0);
        assert_eq!(w, mean_shift_weight(3.0, -2.0));
    }

    #[test]
    fn scalar_fill_replays_the_scalar_sampler() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let mut z = [0.0; 5];
        NormalFill::Scalar.fill(&mut a, &mut z);
        for v in z {
            assert_eq!(v, sample_standard_normal(&mut b));
        }
    }
}
