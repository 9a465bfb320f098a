//! Streaming, line-oriented `.bench` ingestion.
//!
//! [`parse_bench`](crate::parse_bench) historically collected every
//! declaration of the file into an intermediate `Vec<(line, name,
//! Decl)>` before building the [`Circuit`] — a second in-memory copy of
//! the whole netlist that a million-gate file cannot afford. This module
//! splits the parser into two streaming halves:
//!
//! * [`BenchReader`] — a chunk- or [`BufRead`]-fed tokenizer that tracks
//!   line numbers and byte offsets and never buffers more than the
//!   current (possibly chunk-split) line;
//! * [`NetlistBuilder`] — an incremental builder that creates nodes the
//!   moment their defining line arrives and patches forward references
//!   (signals used before they are defined) through a pending-reference
//!   table that only ever holds the *unresolved* names.
//!
//! `parse_bench(text, name)` is now a thin wrapper: one `feed` of the
//! whole text followed by `finish`. The typed
//! [`ParseBenchError`](crate::ParseBenchError) carries both the 1-based
//! line number and the byte offset of the offending line, and chunked
//! feeding reports errors at exactly the same positions as whole-text
//! parsing (pinned by the differential proptest oracle in
//! `tests/props.rs`).

use std::collections::HashMap;
use std::io::BufRead;

use crate::bench::{kind_from_keyword, ParseBenchError};
use crate::circuit::{Circuit, NodeId};
use crate::gate::GateKind;
use crate::hash::Fnv1a64;

/// Source position of a `.bench` line: 1-based line number plus the byte
/// offset of the line's first byte in the overall input stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SrcPos {
    /// 1-based line number.
    pub line: usize,
    /// Byte offset of the line start within the full input.
    pub offset: u64,
}

impl SrcPos {
    fn err(self, message: impl Into<String>) -> ParseBenchError {
        ParseBenchError::at(self.line, self.offset, message)
    }
}

/// A deferred reference to a signal that has not been defined yet.
#[derive(Copy, Clone, Debug)]
enum FwdRef {
    /// Pin `pin` of combinational gate `node` reads the signal.
    Pin {
        node: NodeId,
        pin: usize,
        at: SrcPos,
    },
    /// The D input of flip-flop `ff` reads the signal.
    DffD { ff: NodeId, at: SrcPos },
}

impl FwdRef {
    fn at(&self) -> SrcPos {
        match self {
            FwdRef::Pin { at, .. } | FwdRef::DffD { at, .. } => *at,
        }
    }
}

/// Incremental circuit builder fed one declaration at a time.
///
/// Nodes are created in file order the moment their defining line is
/// seen. A fanin naming a not-yet-defined signal is temporarily wired to
/// the reading gate itself and recorded in a forward-reference table;
/// the reference is patched as soon as the signal's definition arrives
/// (or reported as `undefined signal` at [`finish`](Self::finish), at
/// the first position that referenced it). Output markers are recorded
/// by name and resolved at `finish` so their order matches the file.
///
/// Memory high-water: the [`Circuit`] under construction, the name → id
/// map, the pending output names, and the currently-unresolved forward
/// references — never a second copy of the input text.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{NetlistBuilder, SrcPos, GateKind};
///
/// let mut b = NetlistBuilder::new("toy");
/// let p = |line| SrcPos { line, offset: 0 };
/// b.input("a", p(1))?;
/// b.gate("y", GateKind::Not, &["a"], p(2))?;
/// b.output("y", p(3));
/// let c = b.finish()?;
/// assert_eq!(c.num_gates(), 1);
/// # Ok::<(), fscan_netlist::ParseBenchError>(())
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    circuit: Circuit,
    ids: HashMap<String, NodeId>,
    fwd: HashMap<String, Vec<FwdRef>>,
    outputs: Vec<(String, SrcPos)>,
}

impl NetlistBuilder {
    /// Creates an empty builder for a circuit with the given name.
    pub fn new(name: impl Into<String>) -> NetlistBuilder {
        NetlistBuilder {
            circuit: Circuit::new(name),
            ids: HashMap::new(),
            fwd: HashMap::new(),
            outputs: Vec::new(),
        }
    }

    /// Number of nodes created so far.
    pub fn num_nodes(&self) -> usize {
        self.circuit.num_nodes()
    }

    /// Number of currently-unresolved forward references.
    pub fn pending_refs(&self) -> usize {
        self.fwd.values().map(Vec::len).sum()
    }

    /// Registers a defined signal and patches every deferred reference
    /// to it.
    fn define(&mut self, sig: &str, id: NodeId, at: SrcPos) -> Result<(), ParseBenchError> {
        if self.ids.insert(sig.to_string(), id).is_some() {
            return Err(at.err(format!("signal '{sig}' defined twice")));
        }
        if let Some(refs) = self.fwd.remove(sig) {
            for r in refs {
                match r {
                    FwdRef::Pin { node, pin, at } => {
                        self.circuit
                            .replace_fanin(node, pin, id)
                            .map_err(|e| at.err(e.to_string()))?;
                    }
                    FwdRef::DffD { ff, at } => {
                        self.circuit
                            .set_dff_input(ff, id)
                            .map_err(|e| at.err(e.to_string()))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Declares a primary input (`INPUT(sig)`).
    pub fn input(&mut self, sig: &str, at: SrcPos) -> Result<(), ParseBenchError> {
        let id = self.circuit.add_input(sig);
        self.define(sig, id, at)
    }

    /// Declares a primary output marker (`OUTPUT(sig)`); resolved at
    /// [`finish`](Self::finish) in declaration order.
    pub fn output(&mut self, sig: &str, at: SrcPos) {
        self.outputs.push((sig.to_string(), at));
    }

    /// Declares a gate line `target = KIND(args...)`, covering
    /// combinational gates, flip-flops and constants.
    pub fn gate(
        &mut self,
        target: &str,
        kind: GateKind,
        args: &[&str],
        at: SrcPos,
    ) -> Result<(), ParseBenchError> {
        match kind {
            GateKind::Dff => {
                if args.len() != 1 {
                    return Err(at.err("DFF requires exactly one input"));
                }
                let ff = self.circuit.add_dff_placeholder(target);
                match self.ids.get(args[0]) {
                    Some(&d) => self
                        .circuit
                        .set_dff_input(ff, d)
                        .map_err(|e| at.err(e.to_string()))?,
                    None => self
                        .fwd
                        .entry(args[0].to_string())
                        .or_default()
                        .push(FwdRef::DffD { ff, at }),
                }
                self.define(target, ff, at)
            }
            GateKind::Const0 | GateKind::Const1 => {
                let id = self.circuit.add_const(kind == GateKind::Const1, target);
                self.define(target, id, at)
            }
            GateKind::Input => Err(at.err("INPUT is not a gate kind")),
            _ => {
                if args.is_empty() {
                    // A zero-fanin logic gate has no defined value: the
                    // kernel's fold identities would evaluate `AND()` to
                    // a constant 1 (`OR()` to 0), silently inventing
                    // logic.
                    return Err(at.err("gate with no inputs"));
                }
                if let Some(n) = kind.fixed_arity() {
                    if args.len() != n {
                        return Err(at.err(format!(
                            "{kind} requires exactly {n} input(s), got {}",
                            args.len()
                        )));
                    }
                }
                // The gate reads itself on any pin whose source is not
                // defined yet; the self edge is patched when the source
                // definition arrives (or reported at finish).
                let id = NodeId::from_index(self.circuit.num_nodes());
                let mut fanin = Vec::with_capacity(args.len());
                let mut deferred: Vec<(usize, &str)> = Vec::new();
                for (pin, &arg) in args.iter().enumerate() {
                    match self.ids.get(arg) {
                        Some(&src) => fanin.push(src),
                        None => {
                            fanin.push(id);
                            deferred.push((pin, arg));
                        }
                    }
                }
                let created = self.circuit.add_gate(kind, fanin, target);
                debug_assert_eq!(created, id);
                for (pin, arg) in deferred {
                    self.fwd
                        .entry(arg.to_string())
                        .or_default()
                        .push(FwdRef::Pin { node: id, pin, at });
                }
                self.define(target, id, at)
            }
        }
    }

    /// Resolves the remaining forward references and output markers,
    /// validates the structure and returns the finished circuit.
    ///
    /// # Errors
    ///
    /// An unresolved signal is reported as `undefined signal` at the
    /// earliest position that referenced it; an unresolved output as
    /// `undefined output` at its declaration; structural violations
    /// (combinational cycles, arity) at line 0.
    pub fn finish(mut self) -> Result<Circuit, ParseBenchError> {
        if !self.fwd.is_empty() {
            // Deterministic choice independent of hash-map order: the
            // reference with the smallest byte offset, ties (several
            // undefined signals on one line) broken by name.
            let (sig, at) = self
                .fwd
                .iter()
                .flat_map(|(sig, refs)| refs.iter().map(move |r| (sig, r.at())))
                .min_by_key(|&(sig, at)| (at.offset, at.line, sig))
                .map(|(sig, at)| (sig.clone(), at))
                .expect("non-empty fwd map");
            return Err(at.err(format!("undefined signal '{sig}'")));
        }
        for (sig, at) in &self.outputs {
            let id = *self
                .ids
                .get(sig)
                .ok_or_else(|| at.err(format!("undefined output '{sig}'")))?;
            self.circuit.mark_output(id);
        }
        self.circuit
            .validate()
            .map_err(|e| ParseBenchError::at(0, 0, e.to_string()))?;
        Ok(self.circuit)
    }
}

/// Streaming `.bench` reader: feed text in arbitrary chunks (lines may
/// split anywhere, even mid-token) or drain any [`BufRead`] source, then
/// [`finish`](Self::finish) into a [`Circuit`].
///
/// Only the current partial line is ever buffered; full lines inside a
/// chunk are parsed in place. Positions (line numbers and byte offsets)
/// are identical no matter how the input is chunked.
///
/// # Examples
///
/// ```
/// use fscan_netlist::BenchReader;
///
/// let mut r = BenchReader::new("toy");
/// r.feed("INPUT(a)\ny = NO")?;
/// r.feed("T(a)\nOUTPUT(y)\n")?;
/// let c = r.finish()?;
/// assert_eq!(c.num_gates(), 1);
/// # Ok::<(), fscan_netlist::ParseBenchError>(())
/// ```
#[derive(Debug)]
pub struct BenchReader {
    builder: NetlistBuilder,
    /// The current line's bytes so far, when it straddles a chunk
    /// boundary. Capacity is retained across lines.
    carry: String,
    /// 1-based number of the line currently being accumulated.
    line: usize,
    /// Byte offset of the current line's first byte.
    line_start: u64,
    /// Total bytes fed so far.
    total: u64,
    /// Running FNV-1a hash of every byte fed so far.
    hasher: Fnv1a64,
}

impl BenchReader {
    /// Creates a reader building a circuit with the given name.
    pub fn new(name: impl Into<String>) -> BenchReader {
        BenchReader {
            builder: NetlistBuilder::new(name),
            carry: String::new(),
            line: 1,
            line_start: 0,
            total: 0,
            hasher: Fnv1a64::new(),
        }
    }

    /// The [`content_hash64`](crate::content_hash64) of every byte fed
    /// so far, computed incrementally while streaming — after the last
    /// chunk this equals `content_hash64` of the whole input, without a
    /// second pass over a buffered copy.
    pub fn content_hash64(&self) -> u64 {
        self.hasher.finish()
    }

    /// Feeds the next chunk of text. Chunks may split lines and tokens
    /// arbitrarily.
    pub fn feed(&mut self, chunk: &str) -> Result<(), ParseBenchError> {
        self.hasher.write(chunk.as_bytes());
        let mut rest = chunk;
        while let Some(nl) = rest.find('\n') {
            let head = &rest[..nl];
            self.total += (nl + 1) as u64;
            let at = SrcPos {
                line: self.line,
                offset: self.line_start,
            };
            if self.carry.is_empty() {
                parse_line(&mut self.builder, head, at)?;
            } else {
                self.carry.push_str(head);
                let owned = std::mem::take(&mut self.carry);
                parse_line(&mut self.builder, &owned, at)?;
                self.carry = owned;
                self.carry.clear();
            }
            self.line += 1;
            self.line_start = self.total;
            rest = &rest[nl + 1..];
        }
        self.total += rest.len() as u64;
        self.carry.push_str(rest);
        Ok(())
    }

    /// Drains a [`BufRead`] source through [`feed`](Self::feed). The
    /// read buffer is reused across lines, so the source is never held
    /// in memory as a whole.
    pub fn read_from<R: BufRead>(&mut self, mut source: R) -> Result<(), ParseBenchError> {
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = source.read_line(&mut buf).map_err(|e| {
                ParseBenchError::at(self.line, self.total, format!("io error: {e}"))
            })?;
            if n == 0 {
                return Ok(());
            }
            self.feed(&buf)?;
        }
    }

    /// Parses any final unterminated line, resolves forward references
    /// and returns the finished circuit.
    pub fn finish(mut self) -> Result<Circuit, ParseBenchError> {
        if !self.carry.is_empty() {
            let at = SrcPos {
                line: self.line,
                offset: self.line_start,
            };
            let owned = std::mem::take(&mut self.carry);
            parse_line(&mut self.builder, &owned, at)?;
        }
        self.builder.finish()
    }
}

/// Parses one `.bench` line into builder calls.
fn parse_line(builder: &mut NetlistBuilder, raw: &str, at: SrcPos) -> Result<(), ParseBenchError> {
    let line = match raw.find('#') {
        Some(i) => &raw[..i],
        None => raw,
    }
    .trim();
    if line.is_empty() {
        return Ok(());
    }
    if starts_with_ignore_case(line, "INPUT") {
        let sig = paren_arg(line, at)?;
        builder.input(sig, at)
    } else if starts_with_ignore_case(line, "OUTPUT") {
        let sig = paren_arg(line, at)?;
        builder.output(sig, at);
        Ok(())
    } else if let Some(eq) = line.find('=') {
        let target = line[..eq].trim();
        let rhs = line[eq + 1..].trim();
        let open = rhs
            .find('(')
            .ok_or_else(|| at.err("expected '(' in gate line"))?;
        let close = rhs
            .rfind(')')
            .ok_or_else(|| at.err("expected ')' in gate line"))?;
        let kw = rhs[..open].trim();
        let kind =
            kind_from_keyword(kw).ok_or_else(|| at.err(format!("unknown gate kind '{kw}'")))?;
        let args: Vec<&str> = rhs[open + 1..close]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        builder.gate(target, kind, &args, at)
    } else {
        Err(at.err("unrecognized line"))
    }
}

/// Compares bytes, so a prefix that ends inside a multi-byte character
/// of `line` is simply no match.
fn starts_with_ignore_case(line: &str, prefix: &str) -> bool {
    line.as_bytes()
        .get(..prefix.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes()))
}

fn paren_arg(line: &str, at: SrcPos) -> Result<&str, ParseBenchError> {
    let open = line.find('(').ok_or_else(|| at.err("expected '('"))?;
    let close = line.rfind(')').ok_or_else(|| at.err("expected ')'"))?;
    if close < open {
        return Err(at.err("expected ')'"));
    }
    let sig = line[open + 1..close].trim();
    if sig.is_empty() {
        return Err(at.err("empty signal name"));
    }
    Ok(sig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::parse_bench;

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

    fn assert_same_circuit(a: &Circuit, b: &Circuit) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.inputs(), b.inputs());
        assert_eq!(a.outputs(), b.outputs());
        assert_eq!(a.dffs(), b.dffs());
        for (ia, ib) in a.iter().zip(b.iter()) {
            assert_eq!(ia.1, ib.1, "node {}", ia.0);
        }
    }

    #[test]
    fn chunked_feed_matches_whole_text_at_every_split() {
        let whole = parse_bench(S27_LIKE, "s27").unwrap();
        for split in 0..S27_LIKE.len() {
            let mut r = BenchReader::new("s27");
            r.feed(&S27_LIKE[..split]).unwrap();
            r.feed(&S27_LIKE[split..]).unwrap();
            let c = r.finish().unwrap();
            assert_same_circuit(&whole, &c);
        }
    }

    #[test]
    fn byte_sized_chunks_match_whole_text() {
        let whole = parse_bench(S27_LIKE, "s27").unwrap();
        let mut r = BenchReader::new("s27");
        for i in 0..S27_LIKE.len() {
            r.feed(&S27_LIKE[i..i + 1]).unwrap();
        }
        assert_same_circuit(&whole, &r.finish().unwrap());
    }

    #[test]
    fn bufread_source_matches_whole_text() {
        let whole = parse_bench(S27_LIKE, "s27").unwrap();
        let mut r = BenchReader::new("s27");
        r.read_from(S27_LIKE.as_bytes()).unwrap();
        assert_same_circuit(&whole, &r.finish().unwrap());
    }

    #[test]
    fn streaming_hash_matches_one_shot_at_every_split() {
        let whole = crate::hash::content_hash64(S27_LIKE.as_bytes());
        for split in [0, 1, 7, S27_LIKE.len() / 2, S27_LIKE.len()] {
            let mut r = BenchReader::new("s27");
            r.feed(&S27_LIKE[..split]).unwrap();
            r.feed(&S27_LIKE[split..]).unwrap();
            assert_eq!(r.content_hash64(), whole, "split at {split}");
        }
    }

    #[test]
    fn missing_final_newline_still_parses() {
        let src = "INPUT(a)\ny = NOT(a)\nOUTPUT(y)"; // no trailing \n
        let mut r = BenchReader::new("t");
        r.feed(src).unwrap();
        let c = r.finish().unwrap();
        assert_eq!(c.num_gates(), 1);
        assert_eq!(c.outputs().len(), 1);
    }

    #[test]
    fn error_offsets_are_chunking_invariant() {
        // Line 3 starts at byte 18; the unknown kind must be reported
        // there no matter how the text is split.
        let src = "INPUT(a)\nINPUT(b)\ny = FROB(a, b)\n";
        let whole_err = {
            let mut r = BenchReader::new("t");
            r.feed(src).unwrap_err()
        };
        assert_eq!(whole_err.line(), 3);
        assert_eq!(whole_err.offset(), 18);
        for split in 0..src.len() {
            let mut r = BenchReader::new("t");
            let err = r
                .feed(&src[..split])
                .and_then(|()| r.feed(&src[split..]))
                .unwrap_err();
            assert_eq!(err, whole_err, "split at {split}");
        }
    }

    #[test]
    fn undefined_signal_reported_at_first_reference() {
        // `q` is referenced at line 2 (offset 9) and line 3; the error
        // must name the earliest reference deterministically.
        let src = "INPUT(a)\nx = AND(a, q)\ny = OR(q, a)\nOUTPUT(x)\n";
        let mut r = BenchReader::new("t");
        r.feed(src).unwrap();
        let err = r.finish().unwrap_err();
        assert!(err.to_string().contains("undefined signal 'q'"), "{err}");
        assert_eq!(err.line(), 2);
        assert_eq!(err.offset(), 9);
    }

    #[test]
    fn builder_tracks_pending_refs() {
        let mut b = NetlistBuilder::new("t");
        let p = |line| SrcPos { line, offset: 0 };
        b.input("a", p(1)).unwrap();
        b.gate("y", GateKind::And, &["a", "z"], p(2)).unwrap();
        assert_eq!(b.pending_refs(), 1);
        b.gate("z", GateKind::Not, &["a"], p(3)).unwrap();
        assert_eq!(b.pending_refs(), 0);
        b.output("y", p(4));
        let c = b.finish().unwrap();
        assert_eq!(c.num_gates(), 2);
        // The forward reference was patched to the real source.
        let y = c.find_by_name("y").unwrap();
        let z = c.find_by_name("z").unwrap();
        assert_eq!(c.node(y).fanin()[1], z);
    }

    #[test]
    fn forward_dff_input_is_patched() {
        let src = "INPUT(a)\ns = DFF(y)\ny = NAND(a, s)\nOUTPUT(y)\n";
        let mut r = BenchReader::new("t");
        r.feed(src).unwrap();
        let c = r.finish().unwrap();
        let s = c.find_by_name("s").unwrap();
        let y = c.find_by_name("y").unwrap();
        assert_eq!(c.node(s).fanin(), &[y]);
        c.validate().unwrap();
    }

    #[test]
    fn duplicate_definition_reported_at_second_site() {
        let src = "INPUT(a)\na = NOT(a)\n";
        let mut r = BenchReader::new("t");
        let err = r.feed(src).unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
        assert_eq!(err.line(), 2);
        assert_eq!(err.offset(), 9);
    }
}
