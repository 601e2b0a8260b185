//! The SIMD tier every hot v3 kernel runs under, detected once.
//!
//! A kernel is one `#[inline(always)]` portable body behind a
//! [`Kernel`] impl; [`dispatch`] runs it inside a thin
//! `#[target_feature]` wrapper for the host's [`SimdTier`], so the same
//! body compiles once per tier. The bytes cannot depend on the tier:
//! the bodies use only operations whose vector forms round every
//! element exactly like the scalar ones — IEEE `+ - * /` and `sqrt`,
//! `f64::max`, and `mul_add` (one correctly rounded `vfmadd`, or the
//! correctly rounded `fma` routine on the portable tier). Rust never
//! contracts a separate multiply and add, so enabling FMA changes no
//! bit of an unfused chain. Nothing selects a tier but the CPU.

use std::sync::atomic::{AtomicU8, Ordering};

/// An instruction-set tier the hot kernels are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// The build's baseline target features (SSE2 on x86-64).
    Portable,
    /// AVX2 with FMA: four `f64` lanes per register.
    Avx2Fma,
    /// AVX-512 (F, DQ, VL, BW) plus AVX2 and FMA: eight `f64` lanes per
    /// register.
    Avx512,
}

/// [`SimdTier::detected`]'s cache: `0` until the first call, then the
/// tier's index plus one.
static DETECTED: AtomicU8 = AtomicU8::new(0);

impl SimdTier {
    /// Every tier, slowest first.
    pub const ALL: [SimdTier; 3] = [SimdTier::Portable, SimdTier::Avx2Fma, SimdTier::Avx512];

    /// The best tier this CPU supports, detected on the first call and
    /// cached — the one tier-detection site of the workspace crates.
    #[inline]
    pub fn detected() -> SimdTier {
        match DETECTED.load(Ordering::Relaxed) {
            0 => {
                let tier = SimdTier::ALL
                    .into_iter()
                    .rev()
                    .find(|t| t.supported())
                    .unwrap_or(SimdTier::Portable);
                DETECTED.store(tier as u8 + 1, Ordering::Relaxed);
                tier
            }
            n => SimdTier::ALL[usize::from(n - 1)],
        }
    }

    /// Whether this CPU can run code compiled for the tier.
    pub fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let avx2 = has!("avx2") && has!("fma");
            match self {
                SimdTier::Portable => true,
                SimdTier::Avx2Fma => avx2,
                SimdTier::Avx512 => {
                    avx2 && has!("avx512f")
                        && has!("avx512dq")
                        && has!("avx512vl")
                        && has!("avx512bw")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == SimdTier::Portable
        }
    }

    /// The tier's name in `--metrics` and `vardelay report`.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Portable => "portable",
            SimdTier::Avx2Fma => "avx2-fma",
            SimdTier::Avx512 => "avx512",
        }
    }
}

/// A hot kernel: its arguments, and a portable body that [`dispatch`]
/// compiles once per tier.
pub trait Kernel {
    /// What the kernel returns.
    type Output;

    /// The portable body. Implementations must mark it
    /// `#[inline(always)]`: only code inlined into a tier's wrapper is
    /// compiled for that tier.
    fn run(self) -> Self::Output;
}

/// Runs `k` under the detected tier.
#[inline]
pub fn dispatch<K: Kernel>(k: K) -> K::Output {
    // SAFETY: the detected tier is one the CPU supports.
    unsafe { run_unchecked(SimdTier::detected(), k) }
}

/// Runs `k` under `tier`, or returns `None` when the CPU lacks it — how
/// the tests compare tiers bit for bit.
// Kept: the tier-equality tests in stats, process and mc call it.
pub fn run_on<K: Kernel>(tier: SimdTier, k: K) -> Option<K::Output> {
    // SAFETY: the tier was just checked to be supported.
    tier.supported().then(|| unsafe { run_unchecked(tier, k) })
}

/// # Safety
///
/// The CPU must support `tier`.
#[inline]
unsafe fn run_unchecked<K: Kernel>(tier: SimdTier, k: K) -> K::Output {
    match tier {
        // SAFETY: the caller guarantees the tier's features.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { run_avx512(k) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2Fma => unsafe { run_avx2(k) },
        _ => k.run(),
    }
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<K: Kernel>(k: K) -> K::Output {
    k.run()
}

/// # Safety
///
/// The CPU must support AVX-512 F/DQ/VL/BW, AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw,avx2,fma")]
unsafe fn run_avx512<K: Kernel>(k: K) -> K::Output {
    k.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_cached_and_supported() {
        let tier = SimdTier::detected();
        assert_eq!(SimdTier::detected(), tier);
        assert!(tier.supported());
        assert!(SimdTier::Portable.supported());
        // A tier implies every tier below it.
        for t in SimdTier::ALL.into_iter().filter(|&t| t <= tier) {
            assert!(t.supported(), "{t:?}");
        }
    }

    struct Sum<'a>(&'a [f64]);
    impl Kernel for Sum<'_> {
        type Output = f64;
        #[inline(always)]
        fn run(self) -> f64 {
            self.0.iter().sum()
        }
    }

    #[test]
    fn run_on_refuses_unsupported_tiers() {
        let xs = [0.1, 0.2, 0.3];
        for tier in SimdTier::ALL {
            let got = run_on(tier, Sum(&xs));
            assert_eq!(got.is_some(), tier.supported());
            if let Some(s) = got {
                assert_eq!(s.to_bits(), dispatch(Sum(&xs)).to_bits());
            }
        }
    }
}
