//! Combinational netlists as levelized DAGs.
//!
//! Signals are identified by [`SignalId`]: ids `0..input_count` are primary
//! inputs; id `input_count + i` is the output of gate `i`. Gates are stored
//! in topological order by construction (a gate may only reference signals
//! with smaller ids), which makes timing propagation a single forward scan.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::gate::GateKind;

/// Identifier of a signal: a primary input or a gate output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SignalId(pub usize);

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// The cell kind.
    pub kind: GateKind,
    /// Drive-strength factor (multiple of minimum size); always `> 0`.
    pub size: f64,
    /// Input signals, length equal to `kind.arity()`.
    pub fanins: Vec<SignalId>,
}

/// Error from netlist validation or construction.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistError {
    /// A gate's fanin count does not match its kind's arity.
    ArityMismatch {
        /// Gate index.
        gate: usize,
        /// Expected fanin count.
        expected: usize,
        /// Actual fanin count.
        actual: usize,
    },
    /// A gate references a signal defined at or after its own output
    /// (breaks topological order / creates a cycle).
    ForwardReference {
        /// Gate index.
        gate: usize,
        /// Offending signal.
        signal: SignalId,
    },
    /// A gate size was non-positive or non-finite.
    InvalidSize {
        /// Gate index.
        gate: usize,
        /// Offending size.
        size: f64,
    },
    /// A primary output references an undefined signal.
    UnknownOutput {
        /// Offending signal.
        signal: SignalId,
    },
    /// The netlist has no gates.
    Empty,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ArityMismatch {
                gate,
                expected,
                actual,
            } => write!(f, "gate {gate}: expected {expected} fanins, got {actual}"),
            NetlistError::ForwardReference { gate, signal } => {
                write!(f, "gate {gate} references later signal {signal}")
            }
            NetlistError::InvalidSize { gate, size } => {
                write!(f, "gate {gate} has invalid size {size}")
            }
            NetlistError::UnknownOutput { signal } => {
                write!(f, "primary output references unknown signal {signal}")
            }
            NetlistError::Empty => write!(f, "netlist has no gates"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A validated combinational netlist.
///
/// Construct with [`Netlist::new`] or incrementally via
/// [`crate::builder::NetlistBuilder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    input_count: usize,
    gates: Vec<Gate>,
    outputs: Vec<SignalId>,
}

impl Netlist {
    /// Builds and validates a netlist.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if any gate has wrong arity, a forward
    /// reference, or an invalid size; if an output is undefined; or if the
    /// netlist is empty.
    pub fn new(
        name: &str,
        input_count: usize,
        gates: Vec<Gate>,
        outputs: Vec<SignalId>,
    ) -> Result<Self, NetlistError> {
        if gates.is_empty() {
            return Err(NetlistError::Empty);
        }
        for (i, g) in gates.iter().enumerate() {
            if g.fanins.len() != g.kind.arity() {
                return Err(NetlistError::ArityMismatch {
                    gate: i,
                    expected: g.kind.arity(),
                    actual: g.fanins.len(),
                });
            }
            if !g.size.is_finite() || g.size <= 0.0 {
                return Err(NetlistError::InvalidSize {
                    gate: i,
                    size: g.size,
                });
            }
            let own = input_count + i;
            for &f in &g.fanins {
                if f.0 >= own {
                    return Err(NetlistError::ForwardReference { gate: i, signal: f });
                }
            }
        }
        let signal_count = input_count + gates.len();
        for &o in &outputs {
            if o.0 >= signal_count {
                return Err(NetlistError::UnknownOutput { signal: o });
            }
        }
        Ok(Netlist {
            name: name.to_owned(),
            input_count,
            gates,
            outputs,
        })
    }

    /// The netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The gates, in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Primary outputs.
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// The [`SignalId`] of gate `i`'s output.
    pub fn gate_output(&self, i: usize) -> SignalId {
        SignalId(self.input_count + i)
    }

    /// The gate index driving `signal`, or `None` for primary inputs.
    pub fn driver_of(&self, signal: SignalId) -> Option<usize> {
        signal.0.checked_sub(self.input_count)
    }

    /// Sets gate `i`'s size in place.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `size <= 0`.
    pub fn set_gate_size(&mut self, i: usize, size: f64) {
        assert!(i < self.gates.len(), "gate index out of range");
        assert!(size.is_finite() && size > 0.0, "invalid size {size}");
        self.gates[i].size = size;
    }

    /// Scales every gate size by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0`.
    // Kept: the ssta, mc and opt tests and crates/circuit/tests/properties.rs call it.
    pub fn scale_sizes(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "invalid factor");
        for g in &mut self.gates {
            g.size *= factor;
        }
    }

    /// Total cell area: `Σ size_i * area_unit(kind_i)`.
    pub fn area(&self) -> f64 {
        self.gates.iter().map(|g| g.size * g.kind.area_unit()).sum()
    }

    /// Logic level of every signal (primary inputs at level 0; a gate's
    /// level is `1 + max(level of fanins)`).
    pub fn levels(&self) -> Vec<usize> {
        let mut lv = vec![0usize; self.input_count + self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            let m = g.fanins.iter().map(|f| lv[f.0]).max().unwrap_or(0);
            lv[self.input_count + i] = m + 1;
        }
        lv
    }

    /// Logic depth: the maximum level over all gates.
    pub fn depth(&self) -> usize {
        self.levels().into_iter().max().unwrap_or(0)
    }

    /// Capacitive load (in min-inverter input-cap units) seen by every
    /// signal: the sum of `size * logical_effort` over fanout gates, plus
    /// `output_load` for each primary output driving downstream latches.
    pub fn loads(&self, output_load: f64) -> Vec<f64> {
        let mut load = vec![0.0; self.input_count + self.gates.len()];
        for g in &self.gates {
            let cin = g.size * g.kind.logical_effort();
            for &f in &g.fanins {
                load[f.0] += cin;
            }
        }
        for &o in &self.outputs {
            load[o.0] += output_load;
        }
        load
    }

    /// Gate sizes as a vector (the sizing algorithms' decision variables).
    pub fn sizes(&self) -> Vec<f64> {
        self.gates.iter().map(|g| g.size).collect()
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} gates, {} outputs, depth {}, area {:.1}",
            self.name,
            self.input_count,
            self.gates.len(),
            self.outputs.len(),
            self.depth(),
            self.area()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        // in0, in1 -> NAND2(g0) -> INV(g1) -> out
        Netlist::new(
            "tiny",
            2,
            vec![
                Gate {
                    kind: GateKind::Nand2,
                    size: 1.0,
                    fanins: vec![SignalId(0), SignalId(1)],
                },
                Gate {
                    kind: GateKind::Inv,
                    size: 2.0,
                    fanins: vec![SignalId(2)],
                },
            ],
            vec![SignalId(3)],
        )
        .unwrap()
    }

    #[test]
    fn validation_catches_arity() {
        let e = Netlist::new(
            "bad",
            1,
            vec![Gate {
                kind: GateKind::Nand2,
                size: 1.0,
                fanins: vec![SignalId(0)],
            }],
            vec![],
        );
        assert!(matches!(e, Err(NetlistError::ArityMismatch { .. })));
    }

    #[test]
    fn validation_catches_forward_reference() {
        let e = Netlist::new(
            "bad",
            1,
            vec![Gate {
                kind: GateKind::Inv,
                size: 1.0,
                fanins: vec![SignalId(1)], // its own output
            }],
            vec![],
        );
        assert!(matches!(e, Err(NetlistError::ForwardReference { .. })));
    }

    #[test]
    fn validation_catches_bad_size_and_output() {
        let e = Netlist::new(
            "bad",
            1,
            vec![Gate {
                kind: GateKind::Inv,
                size: 0.0,
                fanins: vec![SignalId(0)],
            }],
            vec![],
        );
        assert!(matches!(e, Err(NetlistError::InvalidSize { .. })));
        let e2 = Netlist::new(
            "bad",
            1,
            vec![Gate {
                kind: GateKind::Inv,
                size: 1.0,
                fanins: vec![SignalId(0)],
            }],
            vec![SignalId(9)],
        );
        assert!(matches!(e2, Err(NetlistError::UnknownOutput { .. })));
        assert!(matches!(
            Netlist::new("bad", 1, vec![], vec![]),
            Err(NetlistError::Empty)
        ));
    }

    #[test]
    fn levels_and_depth() {
        let n = tiny();
        let lv = n.levels();
        assert_eq!(lv, vec![0, 0, 1, 2]);
        assert_eq!(n.depth(), 2);
    }

    #[test]
    fn area_sums_sized_cells() {
        let n = tiny();
        // NAND2 area 2.0 * size 1.0 + INV area 1.0 * size 2.0 = 4.0
        assert!((n.area() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn loads_account_for_fanout_and_output() {
        let n = tiny();
        let loads = n.loads(3.0);
        // in0 drives NAND2 input: 1.0 * 4/3.
        assert!((loads[0] - 4.0 / 3.0).abs() < 1e-12);
        // NAND2 output drives INV (size 2, g=1): 2.0.
        assert!((loads[2] - 2.0).abs() < 1e-12);
        // INV output is a primary output: 3.0.
        assert!((loads[3] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn resize_helpers() {
        let mut n = tiny();
        n.set_gate_size(0, 4.0);
        assert_eq!(n.gates()[0].size, 4.0);
        n.scale_sizes(2.0);
        assert_eq!(n.sizes(), vec![8.0, 4.0]);
    }

    #[test]
    fn driver_lookup() {
        let n = tiny();
        assert_eq!(n.driver_of(SignalId(0)), None);
        assert_eq!(n.driver_of(SignalId(2)), Some(0));
        assert_eq!(n.gate_output(1), SignalId(3));
    }
}
