//! ISCAS'89 `.bench` format reader and writer.
//!
//! The `.bench` dialect accepted here covers the ISCAS'85/'89 benchmark
//! distributions: `INPUT(x)` / `OUTPUT(x)` declarations and
//! `y = KIND(a, b, ...)` gate lines with kinds `AND OR NAND NOR NOT BUF
//! BUFF XOR XNOR DFF CONST0 CONST1`. `#` starts a comment.
//!
//! Parsing is streaming and line-oriented (see
//! [`BenchReader`](crate::BenchReader) /
//! [`NetlistBuilder`](crate::NetlistBuilder)); [`parse_bench`] is the
//! whole-text convenience wrapper.

use std::error::Error;
use std::fmt;

use crate::circuit::{Circuit, NodeId};
use crate::gate::GateKind;
use crate::reader::BenchReader;

/// Error produced when parsing a `.bench` description fails.
///
/// Carries both the 1-based line number and the byte offset of the
/// offending line's first byte, so streaming consumers can point back
/// into large inputs without re-counting lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchError {
    line: usize,
    offset: u64,
    message: String,
}

impl ParseBenchError {
    pub(crate) fn at(line: usize, offset: u64, message: impl Into<String>) -> ParseBenchError {
        ParseBenchError {
            line,
            offset,
            message: message.into(),
        }
    }

    /// 1-based line number of the offending line.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Byte offset of the offending line's first byte in the input.
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bench parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseBenchError {}

pub(crate) fn kind_from_keyword(kw: &str) -> Option<GateKind> {
    match kw.to_ascii_uppercase().as_str() {
        "AND" => Some(GateKind::And),
        "NAND" => Some(GateKind::Nand),
        "OR" => Some(GateKind::Or),
        "NOR" => Some(GateKind::Nor),
        "NOT" | "INV" => Some(GateKind::Not),
        "BUF" | "BUFF" => Some(GateKind::Buf),
        "XOR" => Some(GateKind::Xor),
        "XNOR" => Some(GateKind::Xnor),
        "DFF" => Some(GateKind::Dff),
        "CONST0" => Some(GateKind::Const0),
        "CONST1" => Some(GateKind::Const1),
        _ => None,
    }
}

/// Parses a circuit from ISCAS'89 `.bench` text.
///
/// Signals may be used before they are defined; the streaming builder
/// patches forward references as their definitions arrive. Nodes are
/// created in file order. The circuit is validated before being
/// returned.
///
/// This is a thin wrapper over [`BenchReader`](crate::BenchReader): one
/// `feed` of the whole text followed by `finish`. Feeding the same text
/// in arbitrary chunks produces a bit-identical circuit and identical
/// errors (see the differential oracle in `tests/props.rs`).
///
/// # Errors
///
/// Returns [`ParseBenchError`] on malformed lines, unknown gate kinds,
/// undefined signals, duplicate definitions, or structural violations
/// (e.g. combinational cycles).
///
/// # Examples
///
/// ```
/// let src = "
/// INPUT(a)
/// INPUT(b)
/// OUTPUT(y)
/// s = DFF(y)
/// y = NAND(a, b, s)
/// ";
/// let c = fscan_netlist::parse_bench(src, "toy")?;
/// assert_eq!(c.inputs().len(), 2);
/// assert_eq!(c.dffs().len(), 1);
/// # Ok::<(), fscan_netlist::ParseBenchError>(())
/// ```
pub fn parse_bench(text: &str, name: &str) -> Result<Circuit, ParseBenchError> {
    let mut reader = BenchReader::new(name);
    reader.feed(text)?;
    reader.finish()
}

/// Serializes a circuit to ISCAS'89 `.bench` text.
///
/// Nodes without names are given synthetic `n<i>` names. The output can
/// be fed back to [`parse_bench`] to reconstruct an isomorphic circuit.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{parse_bench, write_bench, Circuit, GateKind};
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let g = c.add_gate(GateKind::Not, vec![a], "g");
/// c.mark_output(g);
/// let text = write_bench(&c);
/// let back = parse_bench(&text, "t")?;
/// assert_eq!(back.num_gates(), 1);
/// # Ok::<(), fscan_netlist::ParseBenchError>(())
/// ```
pub fn write_bench(circuit: &Circuit) -> String {
    use std::fmt::Write as _;
    let name_of = |id: NodeId| -> String {
        circuit
            .node(id)
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("n{}", id.index()))
    };
    let mut out = String::new();
    let _ = writeln!(out, "# {}", circuit.name());
    for &i in circuit.inputs() {
        let _ = writeln!(out, "INPUT({})", name_of(i));
    }
    for &o in circuit.outputs() {
        let _ = writeln!(out, "OUTPUT({})", name_of(o));
    }
    for (id, node) in circuit.iter() {
        let Some(kw) = node.kind().bench_keyword() else {
            continue; // primary input, already declared
        };
        let args: Vec<String> = node.fanin().iter().map(|&f| name_of(f)).collect();
        let _ = writeln!(out, "{} = {}({})", name_of(id), kw, args.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const S27_LIKE: &str = "
# small sequential circuit in the s27 spirit
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
G17 = NOT(G11)
";

    #[test]
    fn parses_sequential_circuit() {
        let c = parse_bench(S27_LIKE, "s27").unwrap();
        assert_eq!(c.inputs().len(), 4);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.dffs().len(), 3);
        assert_eq!(c.num_gates(), 10);
        c.validate().unwrap();
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let c = parse_bench(S27_LIKE, "s27").unwrap();
        let text = write_bench(&c);
        let c2 = parse_bench(&text, "s27").unwrap();
        assert_eq!(c.inputs().len(), c2.inputs().len());
        assert_eq!(c.outputs().len(), c2.outputs().len());
        assert_eq!(c.dffs().len(), c2.dffs().len());
        assert_eq!(c.num_gates(), c2.num_gates());
        // Outputs must drive same-named nodes.
        let out1 = c.node(c.outputs()[0]).name().unwrap();
        let out2 = c2.node(c2.outputs()[0]).name().unwrap();
        assert_eq!(out1, out2);
    }

    #[test]
    fn rejects_zero_fanin_gate() {
        // `AND()` must be a parse error, not a constant-1 node: the
        // three-valued kernel's fold identities give zero-fanin And = 1
        // and Or = 0, so letting one through would invent logic.
        for kind in ["AND", "OR", "NAND", "NOR", "XOR"] {
            let src = format!("INPUT(a)\ny = {kind}()\nOUTPUT(y)\n");
            let err = parse_bench(&src, "t").unwrap_err();
            assert!(err.to_string().contains("no inputs"), "{kind}: {err}");
            assert_eq!(err.line(), 2, "{kind}");
            assert_eq!(err.offset(), 9, "{kind}");
        }
    }

    #[test]
    fn rejects_fixed_arity_mismatch() {
        // A typed error with the offending line, not an `add_gate`
        // panic deep inside the builder.
        let err = parse_bench("INPUT(a)\nINPUT(b)\ny = NOT(a, b)\nOUTPUT(y)\n", "t").unwrap_err();
        assert!(err.to_string().contains("exactly 1"), "{err}");
        assert_eq!(err.line(), 3);
        assert_eq!(err.offset(), 18);
        let err = parse_bench("INPUT(a)\ny = BUF(a, a)\nOUTPUT(y)\n", "t").unwrap_err();
        assert!(err.to_string().contains("exactly 1"), "{err}");
    }

    #[test]
    fn rejects_unknown_kind() {
        let err = parse_bench("x = FROB(a)\nINPUT(a)\n", "t").unwrap_err();
        assert!(err.to_string().contains("unknown gate kind"));
        assert_eq!(err.line(), 1);
        assert_eq!(err.offset(), 0);
    }

    #[test]
    fn rejects_undefined_signal() {
        let err = parse_bench("INPUT(a)\nOUTPUT(z)\ny = AND(a, q)\n", "t").unwrap_err();
        assert!(err.to_string().contains("undefined"));
    }

    #[test]
    fn rejects_duplicate_definition() {
        let err = parse_bench("INPUT(a)\na = NOT(a)\n", "t").unwrap_err();
        assert!(err.to_string().contains("twice"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let c = parse_bench("# hi\n\nINPUT(a) # trailing\nOUTPUT(a)\n", "t").unwrap();
        assert_eq!(c.inputs().len(), 1);
    }

    #[test]
    fn forward_references_ok() {
        let c = parse_bench("INPUT(a)\ny = AND(a, z)\nz = NOT(a)\nOUTPUT(y)\n", "t").unwrap();
        assert_eq!(c.num_gates(), 2);
    }

    #[test]
    fn nodes_are_created_in_file_order() {
        // The streaming builder creates nodes as their lines arrive
        // (the old parser reordered inputs/flip-flops first).
        let c = parse_bench("INPUT(a)\ny = NOT(a)\ns = DFF(y)\nOUTPUT(s)\n", "t").unwrap();
        let a = c.find_by_name("a").unwrap();
        let y = c.find_by_name("y").unwrap();
        let s = c.find_by_name("s").unwrap();
        assert!(a.index() < y.index());
        assert!(y.index() < s.index());
    }

    #[test]
    fn const_nodes() {
        let c = parse_bench("INPUT(a)\nk = CONST1()\ny = AND(a, k)\nOUTPUT(y)\n", "t").unwrap();
        assert_eq!(c.num_gates(), 1);
    }
}
