//! Statistics substrate for variation-aware timing analysis.
//!
//! This crate provides the probabilistic machinery used throughout the
//! `vardelay` workspace:
//!
//! * [`normal`] — scalar Gaussian math: `erf`/`erfc`, the standard normal
//!   PDF/CDF ([`phi`], [`cap_phi`]) and quantile ([`inv_cap_phi`]), and the
//!   [`Normal`] distribution type.
//! * [`clark`] — Clark's moment-matching approximation for the maximum of
//!   correlated Gaussian random variables (Clark, *Operations Research* 1961),
//!   the core operator behind the paper's pipeline-delay model (eqs. 4–6).
//! * [`matrix`] — small dense symmetric matrices and Cholesky factorization.
//! * [`correlation`] — validated correlation matrices and builders.
//! * [`mvn`] — sampling from multivariate normal distributions.
//! * [`draw`] — the per-kernel normal fill and the trial-plan draw
//!   overlay every Monte-Carlo sampler consumes.
//! * [`descriptive`] — streaming moments (Welford), quantiles, histograms.
//! * [`mix`] — SplitMix64 bit-mixing for counter-based Monte-Carlo
//!   seeding (shared by the sweep engine and the MC runners).
//! * [`batch`] — batch-shaped normal samplers (pinned-coefficient
//!   inverse-CDF, plain and fused) and frozen polynomial `ln`/`exp`
//!   kernels for the versioned v3 Monte-Carlo trial kernel.
//! * [`ks`] — Kolmogorov–Smirnov distance between samples and a reference
//!   distribution, used to validate analytical models against Monte-Carlo.
//! * [`sobol`] — hand-rolled Sobol low-discrepancy sequences with
//!   counter-based digital-shift scrambling for the QMC trial plan.
//! * [`strata`] — stratified-sampling permutations and the reweighted
//!   (importance-sampling) estimator math for the trial-plan contracts.
//!
//! # Example
//!
//! Estimate the distribution of the max of two correlated stage delays and
//! compare with brute-force sampling:
//!
//! ```
//! use vardelay_stats::{Normal, clark};
//!
//! let a = Normal::new(100.0, 5.0).unwrap();
//! let b = Normal::new(98.0, 7.0).unwrap();
//! let m = clark::max_pair(a, b, 0.3);
//! assert!(m.mean() > 100.0 && m.mean() < 110.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod clark;
pub mod correlation;
pub mod descriptive;
pub mod draw;
pub mod ks;
pub mod matrix;
pub mod mix;
pub mod mvn;
pub mod normal;
pub mod sobol;
pub mod strata;

pub use batch::{
    fill_standard_normals_inv_cdf, sample_standard_normal_inv_cdf, standard_normal_inv_cdf,
    uniform_open_from_u64,
};
pub use clark::{max_of, max_of_with_order, max_pair, MaxPairMoments};
pub use correlation::CorrelationMatrix;
pub use descriptive::{Histogram, Quantiles, RunningStats};
pub use draw::{DrawOverlay, NormalFill};
pub use matrix::SymMatrix;
pub use mix::{counter_seed, splitmix64_mix};
pub use mvn::MultivariateNormal;
pub use normal::{cap_phi, erf, erfc, inv_cap_phi, inv_cap_phi_lanes, phi, Normal, NormalError};
pub use sobol::{sobol_shift, SobolSequence, SOBOL_MAX_DIMS};
pub use strata::{
    effective_sample_size, mean_shift_weight, permute256, stratified_uniform, stratum_key,
    weighted_fraction_ci, Permute256,
};
