//! Spans recorded around the public calls the benchmark makes.
//!
//! A span holds a name, start, end, parent and operation id. Spans stay in
//! memory while the run measures and are written out when it ends. A
//! layer's self time is its span minus the spans nested in it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; otherwise every call is a plain call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: usize) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds: each span's duration minus
    /// the durations of the spans directly nested in it.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(*c);
        }
        out
    }

    /// One tab-separated line per span: op, name, parent, start, end.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("op\tname\tparent\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.op, s.name, parent, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Measured cost of recording one span, in nanoseconds.
pub fn ns_per_span() -> f64 {
    const N: usize = 100_000;
    let mut t = Tracer::new(true, Instant::now());
    let start = Instant::now();
    for i in 0..N {
        t.span("calibrate", i, || ());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_spans() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            Span {
                name: "op",
                op: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                op: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                op: 0,
                parent: Some(0),
                start_ns: 40,
                end_ns: 90,
            },
            Span {
                name: "a",
                op: 1,
                parent: None,
                start_ns: 100,
                end_ns: 105,
            },
        ];
        let own = t.self_ns();
        assert_eq!(own["op"], 20);
        assert_eq!(own["a"], 35);
        assert_eq!(own["b"], 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
