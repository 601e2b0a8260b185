//! The benchmark's own arithmetic: order statistics, reference-loop
//! normalization, result digests, and the host reference loop itself.

use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartiles, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread the benchmark reports matches the one its acceptance
/// check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Rescales a raw duration to the host speed at which the reference
/// loop takes `ref_nominal_s`: `raw × ref_nominal_s / mean(ref_before,
/// ref_after)`. The host runs in speed phases lasting seconds; a loop
/// timed right before and right after an iteration slows down with it,
/// so the ratio cancels most of the phase.
pub fn normalize(raw_s: f64, ref_before_s: f64, ref_after_s: f64, ref_nominal_s: f64) -> f64 {
    raw_s * ref_nominal_s / (0.5 * (ref_before_s + ref_after_s))
}

/// 64-bit FNV-1a digest of result bytes, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Gates of the reference loop's netlist.
const REF_GATES: usize = 2048;
/// Trials per reference timing (about 20-35 ms on this class of x86-64
/// core, depending on the host's speed phase).
pub const REF_TRIALS: u64 = 1000;

/// The reference loop: a miniature gate-level Monte Carlo that shares no
/// code with the crates under test, so no change to them can move it.
/// Per trial it fills one near-normal draw per gate from an xorshift
/// stream, turns each into a slowdown with `exp`, and propagates arrival
/// times through a fixed random two-input DAG. Being throughput- and
/// cache-bound like the program's trial loops (rather than a scalar
/// latency chain), it slows down in the same host phases they do.
pub fn reference_loop(trials: u64) -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let fanin: Vec<(usize, usize)> = (0..REF_GATES)
        .map(|i| match i {
            0 => (0, 0),
            _ => ((next() as usize) % i, (next() as usize) % i),
        })
        .collect();
    let mut z = vec![0.0f64; REF_GATES];
    let mut at = vec![0.0f64; REF_GATES];
    let mut worst = 0.0f64;
    for _ in 0..trials {
        for v in z.iter_mut() {
            let r = next();
            let sum = (r & 0xffff) + ((r >> 16) & 0xffff) + ((r >> 32) & 0xffff);
            *v = sum as f64 * (1.0 / 65536.0) - 1.5;
        }
        at[0] = 10.0 * (0.08 * z[0]).exp();
        for i in 1..REF_GATES {
            let (a, b) = fanin[i];
            at[i] = at[a].max(at[b]) + 10.0 * (0.08 * z[i]).exp();
        }
        worst = worst.max(at[REF_GATES - 1]);
    }
    worst
}

/// Seconds one [`reference_loop`] of [`REF_TRIALS`] takes right now.
pub fn time_reference() -> f64 {
    let t = Instant::now();
    black_box(reference_loop(black_box(REF_TRIALS)));
    t.elapsed().as_secs_f64()
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this process (and every child it spawns afterwards) to the CPU
/// it is running on, so the reference loop and the program under test
/// always share one CPU and see the same speed phases. Returns the CPU.
pub fn pin_to_current_cpu() -> std::io::Result<usize> {
    // SAFETY: sched_getcpu takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| std::io::Error::last_os_error())?;
    // A cpu_set_t of 1024 bits, as glibc defines it.
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other("CPU index beyond a 1024-bit mask"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized 128-byte buffer, the size we
    // pass; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Effective parallelism of the host: how many reference loops two
/// threads complete in the time one thread completes one, i.e.
/// `2 × t(one) / t(two concurrent)`. Near 2 on two free cores, near 1
/// when the "second CPU" is shared.
pub fn host_parallelism() -> f64 {
    let one = time_reference();
    let t = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(time_reference);
        let b = s.spawn(time_reference);
        a.join().expect("reference thread panicked");
        b.join().expect("reference thread panicked");
    });
    2.0 * one / t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]: the
        // index clamps to the ends and the quartiles extrapolate.
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 10.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_scales_by_mean_reference() {
        // The host ran at half speed: references took 2× nominal, so the
        // raw time halves.
        assert_eq!(normalize(3.0, 0.08, 0.08, 0.04), 1.5);
        // Before/after differ: their mean is the speed estimate.
        assert_eq!(normalize(1.0, 0.03, 0.05, 0.04), 1.0);
    }

    #[test]
    fn digest_is_fnv1a_64() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
        assert_eq!(digest(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn reference_loop_is_deterministic_and_bounded() {
        let a = reference_loop(20);
        assert_eq!(a, reference_loop(20));
        assert!(a.is_finite() && a > 0.0);
    }
}
