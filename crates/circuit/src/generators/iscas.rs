//! Synthetic equivalents of the ISCAS85 benchmarks used in Tables II/III.
//!
//! The paper builds its 4-stage pipeline from ISCAS85 circuits c3540,
//! c2670, "c1980" (the standard suite contains c1908; we follow the suite),
//! and c432. The original netlists are distributed as proprietary-format
//! benchmark files; we substitute seeded random DAGs matching each
//! circuit's published profile (primary inputs, outputs, gate count, and
//! approximate logic depth). The sizing experiments only depend on the
//! area/delay/variability structure of the stages — dominated by gate count
//! and depth — so the optimization landscape has the same shape.
//!
//! | circuit | PIs | POs | gates | depth (approx) | function (original) |
//! |---------|-----|-----|-------|-------|---------------------|
//! | c432    | 36  | 7   | 160   | 17    | priority decoder    |
//! | c1908   | 33  | 25  | 880   | 40    | ECC                 |
//! | c2670   | 233 | 140 | 1193  | 32    | ALU + control       |
//! | c3540   | 50  | 22  | 1669  | 47    | ALU + control       |

use crate::netlist::Netlist;

use super::random::{random_logic, RandomLogicConfig};

/// Fixed seed namespace so every call yields the identical benchmark.
const SEED_BASE: u64 = 0x1985_85c0;

fn build(
    name: &str,
    inputs: usize,
    outputs: usize,
    gates: usize,
    depth: usize,
    salt: u64,
) -> Netlist {
    random_logic(&RandomLogicConfig {
        name: name.to_owned(),
        inputs,
        gates,
        depth,
        outputs,
        seed: SEED_BASE ^ salt,
    })
}

/// Synthetic c432: 36 PIs, 7 POs, 160 gates, depth 17.
pub fn c432() -> Netlist {
    build("c432", 36, 7, 160, 17, 0x432)
}

/// Synthetic c1908 (the paper's "c1980"): 33 PIs, 25 POs, 880 gates,
/// depth 40.
pub fn c1908() -> Netlist {
    build("c1908", 33, 25, 880, 40, 0x1908)
}

/// Synthetic c2670: 233 PIs, 140 POs, 1193 gates, depth 32.
pub fn c2670() -> Netlist {
    build("c2670", 233, 140, 1193, 32, 0x2670)
}

/// Synthetic c3540: 50 PIs, 22 POs, 1669 gates, depth 47.
pub fn c3540() -> Netlist {
    build("c3540", 50, 22, 1669, 47, 0x3540)
}

/// The paper's 4-stage pipeline in Table II/III order
/// (c3540, c2670, c1908, c432).
// Kept: the bench fixtures test calls it.
pub fn table2_stages() -> Vec<Netlist> {
    vec![c3540(), c2670(), c1908(), c432()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_published_counts() {
        let cases = [
            (c432(), 36, 7, 160, 17),
            (c1908(), 33, 25, 880, 40),
            (c2670(), 233, 140, 1193, 32),
            (c3540(), 50, 22, 1669, 47),
        ];
        for (n, pi, po, gates, depth) in cases {
            assert_eq!(n.input_count(), pi, "{}", n.name());
            assert_eq!(n.outputs().len(), po, "{}", n.name());
            assert_eq!(n.gate_count(), gates, "{}", n.name());
            assert_eq!(n.depth(), depth, "{}", n.name());
        }
    }

    #[test]
    fn benchmarks_are_reproducible() {
        assert_eq!(c432(), c432());
        assert_eq!(c3540(), c3540());
    }

    #[test]
    fn area_ordering_matches_paper() {
        // Table II lists area shares c3540 > c2670 > c1908 > c432.
        let a: Vec<f64> = table2_stages().iter().map(Netlist::area).collect();
        assert!(a[0] > a[1] && a[1] > a[2] && a[2] > a[3], "{a:?}");
    }
}
