//! Gate kinds and their Boolean structure.

use std::fmt;

/// The kind of a circuit node.
///
/// Every node drives exactly one net; the node id doubles as the net id.
/// `Input` nodes are primary inputs, `Dff` nodes are D flip-flops (their
/// single fanin is the D pin; the node's output is Q), and the remaining
/// kinds are combinational gates.
///
/// # Examples
///
/// ```
/// use fscan_netlist::GateKind;
///
/// assert_eq!(GateKind::And.controlling_value(), Some(false));
/// assert_eq!(GateKind::Nor.controlling_value(), Some(true));
/// assert!(GateKind::Nand.output_inverted());
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Primary input (no fanin).
    Input,
    /// Constant logic 0 (no fanin).
    Const0,
    /// Constant logic 1 (no fanin).
    Const1,
    /// Non-inverting buffer (one fanin).
    Buf,
    /// Inverter (one fanin).
    Not,
    /// AND gate (one or more fanins).
    And,
    /// NAND gate (one or more fanins).
    Nand,
    /// OR gate (one or more fanins).
    Or,
    /// NOR gate (one or more fanins).
    Nor,
    /// XOR gate (one or more fanins).
    Xor,
    /// XNOR gate (one or more fanins).
    Xnor,
    /// D flip-flop (one fanin: the D pin).
    Dff,
}

impl GateKind {
    /// All combinational multi-input kinds, useful for random generation.
    pub const COMBINATIONAL: [GateKind; 8] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];

    /// Returns `true` for combinational gates (everything except
    /// `Input`, `Dff` and the constants).
    pub fn is_gate(self) -> bool {
        !matches!(
            self,
            GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
        )
    }

    /// The controlling input value of the gate, if it has one.
    ///
    /// A controlling value on any input determines the output regardless
    /// of the other inputs. AND/NAND are controlled by 0, OR/NOR by 1;
    /// XOR/XNOR and single-input gates have no controlling value.
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// The side-input value that makes the gate transparent to one
    /// selected input, as used when sensitizing functional scan paths.
    ///
    /// For AND/NAND this is 1, for OR/NOR it is 0. For XOR/XNOR we pick
    /// 0 (the gate is then a buffer/inverter of the remaining input).
    /// Single-input gates return `None` because they have no side inputs.
    pub fn transparent_side_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(true),
            GateKind::Or | GateKind::Nor | GateKind::Xor | GateKind::Xnor => Some(false),
            _ => None,
        }
    }

    /// Whether the path through this gate inverts the sensitized input
    /// when all side inputs hold [`GateKind::transparent_side_value`].
    pub fn output_inverted(self) -> bool {
        matches!(
            self,
            GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor
        )
    }

    /// The number of fanins this kind requires: `Some(n)` for fixed
    /// arity, `None` for one-or-more.
    pub fn fixed_arity(self) -> Option<usize> {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => Some(0),
            GateKind::Buf | GateKind::Not | GateKind::Dff => Some(1),
            _ => None,
        }
    }

    /// Evaluate the gate over fully-specified Boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics if called on `Input`, `Dff` or with an arity mismatch.
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Input | GateKind::Dff => {
                panic!("eval_bool called on non-combinational node kind {self:?}")
            }
        }
    }

    /// The `.bench` keyword for this kind, if it is representable.
    pub fn bench_keyword(self) -> Option<&'static str> {
        match self {
            GateKind::Buf => Some("BUF"),
            GateKind::Not => Some("NOT"),
            GateKind::And => Some("AND"),
            GateKind::Nand => Some("NAND"),
            GateKind::Or => Some("OR"),
            GateKind::Nor => Some("NOR"),
            GateKind::Xor => Some("XOR"),
            GateKind::Xnor => Some("XNOR"),
            GateKind::Dff => Some("DFF"),
            GateKind::Const0 => Some("CONST0"),
            GateKind::Const1 => Some("CONST1"),
            GateKind::Input => None,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Input => "INPUT",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Dff => "DFF",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert_eq!(GateKind::Buf.controlling_value(), None);
    }

    #[test]
    fn transparency_is_non_controlling() {
        for kind in [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor] {
            let t = kind.transparent_side_value().unwrap();
            let c = kind.controlling_value().unwrap();
            assert_ne!(t, c, "{kind} transparent value must be non-controlling");
        }
    }

    #[test]
    fn inversion_parity_matches_eval() {
        // With side inputs at the transparent value, the gate must act as
        // BUF or NOT of the remaining input, per output_inverted().
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            let side = kind.transparent_side_value().unwrap();
            for data in [false, true] {
                let out = kind.eval_bool(&[data, side, side]);
                let expect = data ^ kind.output_inverted();
                assert_eq!(out, expect, "{kind} data={data}");
            }
        }
        assert!(!GateKind::Buf.output_inverted());
        assert!(GateKind::Not.output_inverted());
    }

    #[test]
    fn eval_bool_basics() {
        assert!(GateKind::And.eval_bool(&[true, true]));
        assert!(!GateKind::And.eval_bool(&[true, false]));
        assert!(GateKind::Nand.eval_bool(&[true, false]));
        assert!(GateKind::Or.eval_bool(&[false, true]));
        assert!(!GateKind::Nor.eval_bool(&[false, true]));
        assert!(GateKind::Xor.eval_bool(&[true, false, false]));
        assert!(!GateKind::Xor.eval_bool(&[true, true, false]));
        assert!(GateKind::Xnor.eval_bool(&[true, true]));
        assert!(GateKind::Not.eval_bool(&[false]));
        assert!(GateKind::Buf.eval_bool(&[true]));
        assert!(!GateKind::Const0.eval_bool(&[]));
        assert!(GateKind::Const1.eval_bool(&[]));
    }

    #[test]
    fn arity_table() {
        assert_eq!(GateKind::Input.fixed_arity(), Some(0));
        assert_eq!(GateKind::Dff.fixed_arity(), Some(1));
        assert_eq!(GateKind::Not.fixed_arity(), Some(1));
        assert_eq!(GateKind::And.fixed_arity(), None);
    }

    #[test]
    fn display_roundtrip_keywords() {
        for kind in GateKind::COMBINATIONAL {
            assert_eq!(kind.bench_keyword().unwrap(), kind.to_string());
        }
    }
}
