//! Technology and process-variation models for sub-100nm statistical timing.
//!
//! This crate is the "silicon" substrate of the workspace. The paper draws
//! per-stage delay statistics from SPICE Monte-Carlo on 70nm BPTM transistor
//! models; we replace that with a gate-level model whose knobs map directly
//! onto the paper's experiments:
//!
//! * [`tech`] — technology parameters (supply, threshold, alpha-power-law
//!   exponent, unit delays), with a BPTM-70nm-like preset.
//! * [`variation`] — the three variation components of §2.1: **inter-die**
//!   (shifts every gate on a die together), **random intra-die** (independent
//!   per gate, e.g. random dopant fluctuation), and **systematic intra-die**
//!   (spatially correlated across the die).
//! * [`pelgrom`] — Pelgrom-law scaling of random σVth with device size
//!   (upsizing a gate reduces its random variability as `1/sqrt(x)`).
//! * [`delay_model`] — alpha-power-law gate delay and its first-order
//!   sensitivity to threshold-voltage shifts.
//! * [`spatial`] — a die grid with exponential distance-decay correlation
//!   for the systematic component.
//! * [`sample`] — per-die sampling of all variation components for
//!   Monte-Carlo runs.
//!
//! # Example
//!
//! ```
//! use vardelay_process::{Technology, VariationConfig};
//!
//! let tech = Technology::bptm70();
//! let var = VariationConfig::combined(20.0, 35.0, 15.0);
//! // Fractional delay sensitivity per volt of Vth shift:
//! let s = tech.delay_vth_sensitivity();
//! assert!(s > 0.5 && s < 10.0);
//! assert!(var.sigma_vth_inter_v() > 0.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod delay_model;
pub mod pelgrom;
pub mod sample;
pub mod spatial;
pub mod tech;
pub mod variation;

pub use delay_model::{
    slowdown_factor_approx, slowdown_factor_approx_fma, slowdown_factors_approx_into,
    slowdown_factors_shift_approx_into, AlphaPowerDelay,
};
pub use pelgrom::pelgrom_sigma;
pub use sample::{DieLanes, DieSample, ProcessSampler};
pub use spatial::{SpatialCorrelator, SpatialGrid};
pub use tech::Technology;
pub use variation::VariationConfig;
