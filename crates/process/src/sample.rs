//! Per-die sampling of all process-variation components.
//!
//! A [`ProcessSampler`] draws one [`DieSample`] per Monte-Carlo trial: the
//! shared inter-die shift, one correlated systematic value per spatial
//! region, and (on demand) independent random shifts per gate. The total
//! ΔVth seen by a gate is the sum of the three components, which is exactly
//! the decomposition of §2.1.

use rand::Rng;

use vardelay_stats::normal::sample_standard_normal;
use vardelay_stats::{DrawOverlay, NormalFill};

use crate::pelgrom::pelgrom_sigma;
use crate::spatial::{DiePosition, SpatialCorrelator, SpatialGrid};
use crate::variation::VariationConfig;

/// One die's worth of shared variation: the inter-die shift and the
/// per-region systematic shifts (all in volts of ΔVth).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DieSample {
    /// Inter-die ΔVth shared by every gate on the die (V).
    pub global_dvth: f64,
    /// Per-region systematic ΔVth (V); empty if no systematic component.
    pub region_dvth: Vec<f64>,
}

impl DieSample {
    /// The shared (non-random) ΔVth seen by a gate in region `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range while systematic variation is
    /// configured.
    pub fn shared_dvth(&self, region: usize) -> f64 {
        if self.region_dvth.is_empty() {
            self.global_dvth
        } else {
            self.global_dvth + self.region_dvth[region]
        }
    }
}

/// `W` dies' shared components side by side, lane-major: the
/// structure-of-arrays twin of [`DieSample`] that
/// [`ProcessSampler::shape_die_lanes`] writes.
#[derive(Debug, Clone, PartialEq)]
pub struct DieLanes<const W: usize> {
    /// Inter-die ΔVth of each lane (V).
    global: [f64; W],
    /// Per-region systematic ΔVth, `region * W + lane` (V); empty if no
    /// systematic component.
    region_dvth: Vec<f64>,
}

impl<const W: usize> Default for DieLanes<W> {
    fn default() -> Self {
        DieLanes {
            global: [0.0; W],
            region_dvth: Vec::new(),
        }
    }
}

impl<const W: usize> DieLanes<W> {
    /// The shared (non-random) ΔVth each lane's gates see in region
    /// `region` — [`DieSample::shared_dvth`], lane by lane.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range while systematic variation is
    /// configured.
    pub fn shared_dvth(&self, region: usize) -> [f64; W] {
        let mut shared = self.global;
        if !self.region_dvth.is_empty() {
            let r = &self.region_dvth[region * W..(region + 1) * W];
            for (s, v) in shared.iter_mut().zip(r) {
                *s += v;
            }
        }
        shared
    }

    /// Grows the region buffer to hold `regions` regions, so a later
    /// [`ProcessSampler::shape_die_lanes`] with up to that many
    /// allocates nothing.
    pub fn reserve(&mut self, regions: usize) {
        let n = regions * W;
        self.region_dvth
            .reserve(n.saturating_sub(self.region_dvth.len()));
    }

    /// The region buffer, for callers that watch its storage for
    /// reallocation.
    pub fn storage(&self) -> &Vec<f64> {
        &self.region_dvth
    }
}

/// Draws per-die and per-gate variation samples.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use vardelay_process::{ProcessSampler, SpatialGrid, VariationConfig};
///
/// let var = VariationConfig::combined(20.0, 35.0, 15.0);
/// let sampler = ProcessSampler::new(var, Some(SpatialGrid::new(4, 4, 0.5)));
/// let mut rng = StdRng::seed_from_u64(7);
/// let die = sampler.sample_die(&mut rng);
/// assert_eq!(die.region_dvth.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct ProcessSampler {
    variation: VariationConfig,
    grid: Option<SpatialGrid>,
    correlator: Option<SpatialCorrelator>,
}

impl ProcessSampler {
    /// Creates a sampler. A grid is required only when the variation config
    /// has a systematic component; passing `None` with systematic variation
    /// uses a default 4x4 grid.
    pub fn new(variation: VariationConfig, grid: Option<SpatialGrid>) -> Self {
        let grid = if variation.has_systematic() {
            Some(grid.unwrap_or_else(|| SpatialGrid::new(4, 4, variation.correlation_length())))
        } else {
            grid
        };
        let correlator = grid.as_ref().map(SpatialGrid::correlator);
        ProcessSampler {
            variation,
            grid,
            correlator,
        }
    }

    /// The variation configuration.
    pub fn variation(&self) -> &VariationConfig {
        &self.variation
    }

    /// The spatial grid, if any.
    pub fn grid(&self) -> Option<&SpatialGrid> {
        self.grid.as_ref()
    }

    /// Region index for a die position (0 when no grid is configured).
    pub fn region_of(&self, pos: DiePosition) -> usize {
        self.grid.as_ref().map_or(0, |g| g.region_of(pos))
    }

    /// Draws the shared components for one die.
    pub fn sample_die<R: Rng + ?Sized>(&self, rng: &mut R) -> DieSample {
        let mut die = DieSample {
            global_dvth: 0.0,
            region_dvth: Vec::new(),
        };
        let mut z = Vec::new();
        self.sample_die_into(rng, &mut z, &mut die);
        die
    }

    /// Number of correlated regions a [`DieSample`] from this sampler
    /// carries (0 when no systematic component is configured).
    pub fn region_value_count(&self) -> usize {
        if self.variation.has_systematic() {
            self.correlator
                .as_ref()
                .expect("systematic variation implies a grid")
                .region_count()
        } else {
            0
        }
    }

    /// Number of die-level standard normals one die draws: the
    /// inter-die normal when configured, then one per correlated region
    /// — the leading dims a stratified or Sobol trial plan shapes.
    pub fn die_dims(&self) -> usize {
        usize::from(self.variation.has_inter()) + self.region_value_count()
    }

    /// Allocation-free variant of [`ProcessSampler::sample_die`]: the v1
    /// (scalar-fill, plain) case of [`ProcessSampler::sample_die_with`].
    pub fn sample_die_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        z: &mut Vec<f64>,
        die: &mut DieSample,
    ) {
        self.sample_die_with(NormalFill::Scalar, &DrawOverlay::IDENTITY, rng, z, die);
    }

    /// The v3 (inverse-CDF fill, plain) case of
    /// [`ProcessSampler::sample_die_with`].
    // Kept: perfbench's v3 die probe calls it.
    pub fn sample_die_into_v3<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        z: &mut Vec<f64>,
        die: &mut DieSample,
    ) {
        self.sample_die_with(NormalFill::InvCdf, &DrawOverlay::IDENTITY, rng, z, die);
    }

    /// Draws one die's shared components into `die`, the one die sampler
    /// every trial kernel and trial plan runs through.
    ///
    /// The die-level standard normals — the inter-die normal when
    /// configured, then one iid normal per correlated region — are drawn
    /// into `z` in that order by `fill` (the kernel's normal source), then
    /// the plan's `overlay` is applied: leading-dim overrides and the
    /// antithetic sign on every die-level normal, and the mean shift on
    /// the inter-die normal only (no inter-die component, no shift). The
    /// region normals are then correlated and scaled. Returns the trial's
    /// importance weight: the likelihood ratio of the shift, else `1.0`.
    ///
    /// `z` is scratch sized to `regions + 1` at most; passing the same
    /// buffers across calls keeps a Monte-Carlo loop allocation-free.
    pub fn sample_die_with<R: Rng + ?Sized>(
        &self,
        fill: NormalFill,
        overlay: &DrawOverlay<'_>,
        rng: &mut R,
        z: &mut Vec<f64>,
        die: &mut DieSample,
    ) -> f64 {
        let n_inter = usize::from(self.variation.has_inter());
        let regions = self.region_value_count();
        if n_inter + regions == 0 {
            die.global_dvth = 0.0;
            die.region_dvth.clear();
            return 1.0;
        }
        z.resize(n_inter + regions, 0.0);
        fill.fill(rng, z);
        overlay.apply(z);
        let mut weight = 1.0;
        die.global_dvth = if n_inter == 1 {
            weight = overlay.shift_weight(&mut z[0]);
            self.variation.sigma_vth_inter_v() * z[0]
        } else {
            0.0
        };
        if regions > 0 {
            let corr = self
                .correlator
                .as_ref()
                .expect("systematic variation implies a grid");
            die.region_dvth.resize(regions, 0.0);
            corr.correlate_into(&z[n_inter..], &mut die.region_dvth);
            let s = self.variation.sigma_vth_sys_v();
            for v in &mut die.region_dvth {
                *v *= s;
            }
        } else {
            die.region_dvth.clear();
        }
        weight
    }

    /// The lane-major twin of [`ProcessSampler::sample_die_with`] after
    /// its fill, for `W` dies at once.
    ///
    /// `z[j][lane]` holds lane `lane`'s die-level normals (the inter-die
    /// normal when configured, then one per region) with the plan's
    /// leading-dim overrides and sign already applied. Mean-shifts each
    /// lane's inter-die normal by `shift` (writing its likelihood-ratio
    /// weight, else `1.0`, into `weight`), then writes the dies into
    /// `die`, correlating the regions lane-major. Each lane gets the bits
    /// `sample_die_with` gives the same normals. Allocation-free once
    /// `die` has served a call for this sampler.
    ///
    /// # Panics
    ///
    /// Panics if `z` has fewer rows than the die has dims.
    pub fn shape_die_lanes<const W: usize>(
        &self,
        z: &mut [[f64; W]],
        shift: f64,
        weight: &mut [f64; W],
        die: &mut DieLanes<W>,
    ) {
        let n_inter = usize::from(self.variation.has_inter());
        let regions = self.region_value_count();
        *weight = [1.0; W];
        if n_inter == 1 {
            let overlay = DrawOverlay {
                sign: 1.0,
                lead: &[],
                shift,
            };
            let s = self.variation.sigma_vth_inter_v();
            for ((g, w), z0) in die.global.iter_mut().zip(weight).zip(&mut z[0]) {
                *w = overlay.shift_weight(z0);
                *g = s * *z0;
            }
        } else {
            die.global = [0.0; W];
        }
        die.region_dvth.resize(regions * W, 0.0);
        if regions > 0 {
            let corr = self
                .correlator
                .as_ref()
                .expect("systematic variation implies a grid");
            let out = die.region_dvth.as_chunks_mut::<W>().0;
            corr.correlate_lanes(&z[n_inter..n_inter + regions], out);
            let s = self.variation.sigma_vth_sys_v();
            for v in &mut die.region_dvth {
                *v *= s;
            }
        }
    }

    /// Draws the independent random ΔVth (V) for one gate of size factor
    /// `x` (Pelgrom scaling).
    ///
    /// # Panics
    ///
    /// Panics if `x <= 0`.
    pub fn sample_gate_random<R: Rng + ?Sized>(&self, rng: &mut R, x: f64) -> f64 {
        if !self.variation.has_random() {
            return 0.0;
        }
        pelgrom_sigma(self.variation.sigma_vth_rand_v(), x) * sample_standard_normal(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vardelay_stats::RunningStats;

    fn with<R: Rng + ?Sized>(
        s: &ProcessSampler,
        fill: NormalFill,
        overlay: (f64, &[f64], f64),
        rng: &mut R,
        z: &mut Vec<f64>,
        die: &mut DieSample,
    ) -> f64 {
        let (sign, lead, shift) = overlay;
        s.sample_die_with(fill, &DrawOverlay { sign, lead, shift }, rng, z, die)
    }

    /// The historical per-kernel die bodies: v1 draws the inter-die
    /// normal, then each region normal, one scalar call at a time; v3
    /// fills every die-level normal in one batch call.
    fn reference(s: &ProcessSampler, fill: NormalFill, rng: &mut StdRng) -> DieSample {
        let n_inter = usize::from(s.variation.has_inter());
        let regions = s.region_value_count();
        let mut z = vec![0.0; n_inter + regions];
        if fill == NormalFill::Scalar {
            for zi in z.iter_mut() {
                *zi = sample_standard_normal(rng);
            }
        } else {
            fill.fill(rng, &mut z);
        }
        let mut region_dvth = vec![0.0; regions];
        if regions > 0 {
            s.correlator
                .as_ref()
                .unwrap()
                .correlate_into(&z[n_inter..], &mut region_dvth);
            for v in &mut region_dvth {
                *v *= s.variation.sigma_vth_sys_v();
            }
        }
        DieSample {
            global_dvth: if n_inter == 1 {
                s.variation.sigma_vth_inter_v() * z[0]
            } else {
                0.0
            },
            region_dvth,
        }
    }

    #[test]
    fn no_variation_samples_zero() {
        let s = ProcessSampler::new(VariationConfig::none(), None);
        let mut rng = StdRng::seed_from_u64(1);
        let die = s.sample_die(&mut rng);
        assert_eq!(die.global_dvth, 0.0);
        assert!(die.region_dvth.is_empty());
        assert_eq!(s.sample_gate_random(&mut rng, 1.0), 0.0);
    }

    #[test]
    fn inter_die_sigma_matches_config() {
        let s = ProcessSampler::new(VariationConfig::inter_only(40.0), None);
        let mut rng = StdRng::seed_from_u64(2);
        let stats: RunningStats = (0..50_000)
            .map(|_| s.sample_die(&mut rng).global_dvth)
            .collect();
        assert!(
            (stats.sample_sd() - 0.040).abs() < 0.001,
            "{}",
            stats.sample_sd()
        );
        assert!(stats.mean().abs() < 0.001);
    }

    #[test]
    fn random_component_shrinks_with_size() {
        let s = ProcessSampler::new(VariationConfig::random_only(35.0), None);
        let mut rng = StdRng::seed_from_u64(3);
        let sd_x1: RunningStats = (0..40_000)
            .map(|_| s.sample_gate_random(&mut rng, 1.0))
            .collect();
        let sd_x4: RunningStats = (0..40_000)
            .map(|_| s.sample_gate_random(&mut rng, 4.0))
            .collect();
        assert!(
            (sd_x4.sample_sd() - sd_x1.sample_sd() / 2.0).abs() < 0.001,
            "pelgrom: {} vs {}",
            sd_x4.sample_sd(),
            sd_x1.sample_sd()
        );
    }

    #[test]
    fn systematic_gets_default_grid() {
        let s = ProcessSampler::new(VariationConfig::combined(0.0, 0.0, 15.0), None);
        assert!(s.grid().is_some());
        let mut rng = StdRng::seed_from_u64(4);
        let die = s.sample_die(&mut rng);
        assert_eq!(die.region_dvth.len(), 16);
        // Per-region sd should be ~15 mV.
        let stats: RunningStats = (0..20_000)
            .map(|_| s.sample_die(&mut rng).region_dvth[0])
            .collect();
        assert!((stats.sample_sd() - 0.015).abs() < 5e-4);
    }

    #[test]
    fn v3_die_sampler_matches_component_moments_and_differs_from_v1() {
        // Same semantics as the v1 sampler — inter-die sd, per-region sd
        // — only the normal source changes (batch inverse-CDF), so the
        // component moments must survive, and the per-seed bytes must
        // differ from the v1 (scalar Box–Muller) draws.
        let s = ProcessSampler::new(VariationConfig::combined(20.0, 35.0, 15.0), None);
        let mut rng = StdRng::seed_from_u64(0x3D1E);
        let mut z = Vec::new();
        let mut die = DieSample::default();
        let mut inter = RunningStats::new();
        let mut region0 = RunningStats::new();
        for _ in 0..30_000 {
            s.sample_die_into_v3(&mut rng, &mut z, &mut die);
            inter.push(die.global_dvth);
            region0.push(die.region_dvth[0]);
        }
        assert!((inter.sample_sd() - 0.020).abs() < 5e-4, "{inter}");
        assert!((region0.sample_sd() - 0.015).abs() < 5e-4, "{region0}");
        assert!(inter.mean().abs() < 5e-4);

        let mut a = DieSample::default();
        let mut b = DieSample::default();
        for seed in 0..8u64 {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            s.sample_die_into(&mut r1, &mut z, &mut a);
            s.sample_die_into_v3(&mut r2, &mut z, &mut b);
            assert_ne!(a, b, "v3 die bytes must not coincide with v1");
        }

        // No variation: nothing drawn, nothing allocated.
        let none = ProcessSampler::new(VariationConfig::none(), None);
        none.sample_die_into_v3(&mut rng, &mut z, &mut die);
        assert_eq!(die.global_dvth, 0.0);
        assert!(die.region_dvth.is_empty());
    }

    #[test]
    fn plan_sampler_with_identity_mods_matches_plain_bit_for_bit() {
        // sign 1, no overrides, no shift: the one die sampler must replay
        // each kernel's historical plain stream exactly (weight 1,
        // identical bits).
        let s = ProcessSampler::new(VariationConfig::combined(20.0, 35.0, 15.0), None);
        let mut z = Vec::new();
        let mut b = DieSample::default();
        for fill in [NormalFill::Scalar, NormalFill::InvCdf] {
            for seed in 0..20u64 {
                let mut r1 = StdRng::seed_from_u64(seed);
                let mut r2 = StdRng::seed_from_u64(seed);
                let a = reference(&s, fill, &mut r1);
                let w = with(&s, fill, (1.0, &[], 0.0), &mut r2, &mut z, &mut b);
                assert_eq!(w, 1.0);
                assert_eq!(a, b, "{fill:?}");
            }
        }
    }

    #[test]
    fn antithetic_sign_reflects_every_die_component() {
        // The die is linear in its standard normals, so sign -1 must
        // negate the inter-die shift and every region value exactly.
        let s = ProcessSampler::new(VariationConfig::combined(20.0, 0.0, 15.0), None);
        let mut za = Vec::new();
        let mut zb = Vec::new();
        let mut a = DieSample::default();
        let mut b = DieSample::default();
        for seed in [3u64, 0xA5A5] {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            with(
                &s,
                NormalFill::Scalar,
                (1.0, &[], 0.0),
                &mut r1,
                &mut za,
                &mut a,
            );
            with(
                &s,
                NormalFill::Scalar,
                (-1.0, &[], 0.0),
                &mut r2,
                &mut zb,
                &mut b,
            );
            assert_eq!(a.global_dvth, -b.global_dvth);
            for (x, y) in a.region_dvth.iter().zip(&b.region_dvth) {
                assert_eq!(*x, -*y, "region values must reflect");
            }
        }
    }

    #[test]
    fn lead_overrides_replace_the_leading_dims() {
        let s = ProcessSampler::new(VariationConfig::inter_only(40.0), None);
        let mut z = Vec::new();
        let mut die = DieSample::default();
        let mut rng = StdRng::seed_from_u64(9);
        let w = with(
            &s,
            NormalFill::Scalar,
            (1.0, &[2.5], 0.0),
            &mut rng,
            &mut z,
            &mut die,
        );
        assert_eq!(w, 1.0);
        assert!((die.global_dvth - 0.040 * 2.5).abs() < 1e-15);
    }

    #[test]
    fn blockade_shift_carries_the_likelihood_ratio() {
        let s = ProcessSampler::new(VariationConfig::inter_only(40.0), None);
        let shift = 3.0;
        let mut z = Vec::new();
        let mut plain = DieSample::default();
        let mut shifted = DieSample::default();
        for seed in 0..50u64 {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            s.sample_die_into(&mut r1, &mut z, &mut plain);
            let w = with(
                &s,
                NormalFill::Scalar,
                (1.0, &[], shift),
                &mut r2,
                &mut z,
                &mut shifted,
            );
            let z0 = plain.global_dvth / 0.040;
            assert!((shifted.global_dvth - 0.040 * (z0 + shift)).abs() < 1e-12);
            let want = vardelay_stats::mean_shift_weight(shift, z0);
            assert!((w - want).abs() / want < 1e-9, "weight {w} vs {want}");
        }
    }

    #[test]
    fn shared_dvth_combines_components() {
        let die = DieSample {
            global_dvth: 0.01,
            region_dvth: vec![0.002, -0.003],
        };
        assert!((die.shared_dvth(0) - 0.012).abs() < 1e-15);
        assert!((die.shared_dvth(1) - 0.007).abs() < 1e-15);
    }
}
