//! The concrete test program produced by the flow.

use std::fmt;
use std::io::{self, Write};

use fscan_scan::ScanDesign;
use fscan_sim::V3;

/// One named scan-mode test: a sequence of primary-input vectors applied
/// from power-up (unknown flip-flop state), strictly in scan mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanTest {
    /// What the test is for (e.g. `alternating`, `comb n42 s-a-1`).
    pub label: String,
    /// Per-cycle primary-input vectors in `Circuit::inputs` order.
    pub vectors: Vec<Vec<V3>>,
}

impl ScanTest {
    /// Creates a test.
    pub fn new(label: impl Into<String>, vectors: Vec<Vec<V3>>) -> ScanTest {
        ScanTest {
            label: label.into(),
            vectors,
        }
    }

    /// Number of clock cycles the test takes.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the test is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }
}

/// The ordered collection of tests the pipeline emits: the alternating
/// sequence first, then every confirmed step-2 window and step-3
/// sequence. Applying the whole program in order (each test restarted
/// from arbitrary state — every test begins with a full scan load, so no
/// reset is needed between them) detects every fault the pipeline
/// reports as detected.
///
/// # Examples
///
/// ```
/// use fscan::{ScanTest, TestProgram};
/// use fscan_sim::V3;
///
/// let mut program = TestProgram::default();
/// program.push(ScanTest::new("alternating", vec![vec![V3::Zero, V3::One]]));
/// assert_eq!(program.total_cycles(), 1);
/// let mut out = Vec::new();
/// program.write_text(&mut out)?;
/// assert!(String::from_utf8(out)?.contains("# alternating"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TestProgram {
    tests: Vec<ScanTest>,
}

impl TestProgram {
    /// An empty program.
    pub fn new() -> TestProgram {
        TestProgram::default()
    }

    /// Appends a test.
    pub fn push(&mut self, test: ScanTest) {
        self.tests.push(test);
    }

    /// The tests in application order.
    pub fn tests(&self) -> &[ScanTest] {
        &self.tests
    }

    /// Consumes the program and yields its tests by value, so callers
    /// that reshuffle or filter tests (compaction) can move them instead
    /// of cloning vector payloads.
    pub fn into_tests(self) -> Vec<ScanTest> {
        self.tests
    }

    /// Number of tests.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// Total tester cycles across all tests.
    pub fn total_cycles(&self) -> usize {
        self.tests.iter().map(ScanTest::len).sum()
    }

    /// All vectors concatenated in order — the exact stimulus the
    /// pipeline's fault simulations replay.
    pub fn concatenated(&self) -> Vec<Vec<V3>> {
        self.tests
            .iter()
            .flat_map(|t| t.vectors.iter().cloned())
            .collect()
    }

    /// The first `tests` tests of the program — the paper's Section 6
    /// observation: the test set can be truncated with only a small
    /// increase in undetected faults, because detections saturate early
    /// (Figure 5).
    pub fn truncated(&self, tests: usize) -> TestProgram {
        TestProgram {
            tests: self.tests.iter().take(tests).cloned().collect(),
        }
    }

    /// Writes the program as plain text: one `# label` line per test,
    /// then one line of `0`/`1`/`X` characters per cycle (inputs in
    /// circuit order).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer (a `&mut Vec<u8>` or
    /// `&mut File` both work).
    pub fn write_text<W: Write>(&self, mut w: W) -> io::Result<()> {
        for test in &self.tests {
            writeln!(w, "# {}", test.label)?;
            for v in &test.vectors {
                let line: String = v.iter().map(|&b| v3_char(b)).collect();
                writeln!(w, "{line}")?;
            }
        }
        Ok(())
    }

    /// A header comment block describing the input columns of a design,
    /// to prepend before [`TestProgram::write_text`] output.
    pub fn column_legend(design: &ScanDesign) -> String {
        let mut s = String::from("# input columns:\n");
        for (k, &pi) in design.circuit().inputs().iter().enumerate() {
            let name = design
                .circuit()
                .node(pi)
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| pi.to_string());
            s.push_str(&format!("#   [{k}] {name}\n"));
        }
        s
    }
}

fn v3_char(v: V3) -> char {
    match v {
        V3::Zero => '0',
        V3::One => '1',
        V3::X => 'X',
    }
}

impl fmt::Display for TestProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "test program: {} tests, {} cycles",
            self.len(),
            self.total_cycles()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format() {
        let mut p = TestProgram::new();
        p.push(ScanTest::new(
            "t0",
            vec![
                vec![V3::Zero, V3::One, V3::X],
                vec![V3::One, V3::One, V3::Zero],
            ],
        ));
        p.push(ScanTest::new("t1", vec![vec![V3::X, V3::X, V3::X]]));
        let mut out = Vec::new();
        p.write_text(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "# t0\n01X\n110\n# t1\nXXX\n");
        assert_eq!(p.total_cycles(), 3);
        assert_eq!(p.concatenated().len(), 3);
        assert!(p.to_string().contains("2 tests"));
    }
}
