//! Fault classification (paper, Section 3).

use std::collections::HashMap;
use std::fmt;

use fscan_fault::{Fault, FaultSite};
use fscan_netlist::{GateKind, NodeId};
use fscan_scan::ScanDesign;
use fscan_sim::kernel::{Rail, R256};
use fscan_sim::{
    shard_map_counted, ConeHist, ImplicationEngine, LaneWidth, NetChange, PackedImplicationEngine,
    ShardStats, StageMetrics, WorkCounters, V3,
};

/// The paper's three fault categories.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// Category 1: the fault pins a scan-chain net to 0/1 — detected by
    /// the alternating sequence (`f_easy`).
    AlternatingDetectable,
    /// Category 2: the fault drives an unknown value onto a chain side
    /// input — may escape the alternating sequence (`f_hard`).
    Hard,
    /// Category 3: the fault cannot affect any scan chain.
    Unaffected,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::AlternatingDetectable => "category 1 (easy)",
            Category::Hard => "category 2 (hard)",
            Category::Unaffected => "category 3 (unaffected)",
        };
        f.write_str(s)
    }
}

/// A chain location: the segment feeding cell `cell` of chain `chain`.
///
/// A fault "affects the chain at location (c, k)" when it corrupts the
/// logic between cell `k-1` (or scan-in) and cell `k` of chain `c`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainLocation {
    /// Chain index.
    pub chain: usize,
    /// Cell index within the chain (0 = nearest scan-in).
    pub cell: usize,
}

/// One classified fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassifiedFault {
    /// The fault.
    pub fault: Fault,
    /// Its category.
    pub category: Category,
    /// Every chain location it affects, sorted and deduplicated
    /// (empty for category 3).
    pub locations: Vec<ChainLocation>,
}

impl ClassifiedFault {
    /// Whether the fault touches more than one chain.
    pub fn multi_chain(&self) -> bool {
        self.locations.windows(2).any(|w| w[0].chain != w[1].chain)
    }
}

/// Aggregate classification counts (the paper's Table 2 row).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassifySummary {
    /// Total faults classified.
    pub total: usize,
    /// Category-1 faults (`f_easy`).
    pub easy: usize,
    /// Category-2 faults (`f_hard`).
    pub hard: usize,
    /// The stage's cost triple: wall-clock, work distribution across
    /// classifier workers, and deterministic work counters (implication
    /// events, cone sizes — bit-identical for every thread count).
    pub metrics: StageMetrics,
}

impl ClassifySummary {
    /// Faults affecting any scan chain (`f_sc = f_easy + f_hard`).
    pub fn affected(&self) -> usize {
        self.easy + self.hard
    }
}

impl fmt::Display for ClassifySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faults: {} easy ({:.1}%), {} hard ({:.1}%), {:.2}s",
            self.total,
            self.easy,
            100.0 * self.easy as f64 / self.total.max(1) as f64,
            self.hard,
            100.0 * self.hard as f64 / self.total.max(1) as f64,
            self.metrics.cpu.as_secs_f64()
        )
    }
}

/// Reusable classifier for one scan design.
///
/// Precomputes the chain geometry lookups and borrows the design's
/// scan-mode steady values, then classifies faults via forward
/// implication — one by one ([`classify`](Self::classify), the scalar
/// reference) or `W::LANES` per packed word
/// ([`classify_word`](Self::classify_word); 64 lanes at the default
/// `u64` rail, 256 at `R256`).
///
/// # Examples
///
/// See [`classify_faults`].
pub struct Classifier<'d, W: Rail = u64> {
    design: &'d ScanDesign,
    /// The scalar engine [`classify`](Self::classify) runs, built on its
    /// first call.
    engine: Option<ImplicationEngine>,
    /// The packed engine [`classify_word`](Self::classify_word) runs,
    /// built on its first call.
    packed: Option<PackedImplicationEngine<W>>,
    steady: &'d [V3],
    /// net → locations where it carries shifted chain data.
    chain_net_loc: HashMap<NodeId, Vec<ChainLocation>>,
    /// net → (location, required value) pairs where it is a forced side.
    side_loc: HashMap<NodeId, Vec<(ChainLocation, bool)>>,
    /// flip-flop → its chain location (for D-pin branch faults).
    ff_loc: HashMap<NodeId, ChainLocation>,
    /// Cone-size distribution of every fault classified so far; each
    /// fault's cone is lane-exact, so this is width- and
    /// thread-invariant.
    cone_hist: ConeHist,
}

impl<'d, W: Rail> Classifier<'d, W> {
    /// Builds a classifier for `design` at rail width `W`. Each
    /// implication engine is built when its path first runs, so a
    /// classifier allocates only the engine it uses.
    pub fn new_wide(design: &'d ScanDesign) -> Classifier<'d, W> {
        let steady = design.scan_mode_values();
        let mut chain_net_loc: HashMap<NodeId, Vec<ChainLocation>> = HashMap::new();
        let mut side_loc: HashMap<NodeId, Vec<(ChainLocation, bool)>> = HashMap::new();
        let mut ff_loc = HashMap::new();
        for (c, chain) in design.chains().iter().enumerate() {
            for (k, cell) in chain.cells.iter().enumerate() {
                let loc = ChainLocation { chain: c, cell: k };
                for net in cell.chain_nets() {
                    chain_net_loc.entry(net).or_default().push(loc);
                }
                for side in &cell.sides {
                    side_loc
                        .entry(side.net)
                        .or_default()
                        .push((loc, side.required));
                }
                ff_loc.insert(cell.ff, loc);
            }
            // The last cell's Q is the scan-out wire; treat it as part of
            // the last location.
            if let Some(last) = chain.cells.last() {
                chain_net_loc
                    .entry(last.ff)
                    .or_default()
                    .push(ChainLocation {
                        chain: c,
                        cell: chain.cells.len() - 1,
                    });
            }
        }
        Classifier {
            design,
            engine: None,
            packed: None,
            steady,
            chain_net_loc,
            side_loc,
            ff_loc,
            cone_hist: ConeHist::default(),
        }
    }

    /// Classifies one fault via the scalar implication engine (the
    /// reference path; the pipeline uses [`classify_word`](Self::classify_word)).
    pub fn classify(&mut self, fault: Fault) -> ClassifiedFault {
        let engine = self
            .engine
            .get_or_insert_with(|| ImplicationEngine::with_topology(self.design.topology()));
        let changes = engine.run(self.steady, fault);
        self.cone_hist.record(changes.len() as u64);
        self.assemble(fault, changes.into_iter())
    }

    /// Classifies up to `W::LANES` faults in one packed implication
    /// word.
    ///
    /// The packed engine's per-lane changes are bit-identical, in the
    /// same order, to a scalar run on each fault alone, so the verdicts
    /// match [`classify`](Self::classify) exactly — at a fraction of the
    /// gate evaluations.
    pub fn classify_word(&mut self, faults: &[Fault]) -> Vec<ClassifiedFault> {
        self.packed
            .get_or_insert_with(|| PackedImplicationEngine::with_topology(self.design.topology()))
            .run_word(self.steady, faults);
        let packed = self.packed.as_ref().expect("built above");
        let mut out = Vec::with_capacity(faults.len());
        for (lane, &fault) in faults.iter().enumerate() {
            // Count the lane's cone while assembling: lane-exactness
            // makes this the same size a scalar run would report.
            let mut size = 0u64;
            let cf = self.assemble(
                fault,
                packed.lane_changes(lane as u32).inspect(|_| size += 1),
            );
            self.cone_hist.record(size);
            out.push(cf);
        }
        out
    }

    /// Turns a fault's net-change sequence into its classification.
    fn assemble(&self, fault: Fault, changes: impl Iterator<Item = NetChange>) -> ClassifiedFault {
        let circuit = self.design.circuit();
        let mut locations: Vec<ChainLocation> = Vec::new();
        let mut any_hard = false;

        // Faults sitting directly on a chain flip-flop's D pin are on
        // the chain wire itself: category 1 at that cell (the forward
        // implication cannot see pin-level effects behind a flip-flop).
        if let FaultSite::Branch { gate, pin: 0 } = fault.site {
            if circuit.node(gate).kind() == GateKind::Dff {
                if let Some(&loc) = self.ff_loc.get(&gate) {
                    locations.push(loc);
                }
            }
        }

        for change in changes {
            if let Some(locs) = self.chain_net_loc.get(&change.node) {
                if change.faulty.is_known() {
                    locations.extend(locs.iter().copied());
                }
            }
            if let Some(sides) = self.side_loc.get(&change.node) {
                for &(loc, required) in sides {
                    match change.faulty {
                        V3::X => {
                            // Side input loses its forced value: the data
                            // passing this location becomes unknown.
                            any_hard = true;
                            locations.push(loc);
                        }
                        v if v != V3::from_bool(required) => {
                            // Side input flips to the controlling value:
                            // the chain net downstream is pinned, which
                            // the chain-net scan above also records; keep
                            // the location for completeness.
                            locations.push(loc);
                        }
                        _ => {}
                    }
                }
            }
        }
        locations.sort();
        locations.dedup();
        let category = if locations.is_empty() {
            Category::Unaffected
        } else if any_hard {
            // Paper §3: a fault in both categories is placed in
            // category 2 — the alternating sequence may miss it.
            Category::Hard
        } else {
            Category::AlternatingDetectable
        };
        ClassifiedFault {
            fault,
            category,
            locations,
        }
    }

    /// Drains the implication engines' accumulated [`WorkCounters`].
    pub fn take_counters(&mut self) -> WorkCounters {
        let scalar = self.engine.as_mut().map(ImplicationEngine::take_counters);
        let packed = self
            .packed
            .as_mut()
            .map(PackedImplicationEngine::take_counters);
        scalar.unwrap_or_default() + packed.unwrap_or_default()
    }

    /// Drains the accumulated cone-size histogram.
    pub fn take_cone_hist(&mut self) -> ConeHist {
        std::mem::take(&mut self.cone_hist)
    }
}

/// Classifies every fault of a list against a scan design, returning
/// per-fault classifications (paper, Section 3).
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_fault::{all_faults, collapse};
/// use fscan_scan::{insert_functional_scan, TpiConfig};
/// use fscan::{classify_faults, Category};
///
/// let circuit = generate(&GeneratorConfig::new("demo", 2).gates(100).dffs(8));
/// let design = insert_functional_scan(&circuit, &TpiConfig::default())?;
/// let faults = collapse(design.circuit(), &all_faults(design.circuit()));
/// let classified = classify_faults(&design, &faults);
/// let affected = classified
///     .iter()
///     .filter(|c| c.category != Category::Unaffected)
///     .count();
/// assert!(affected > 0);
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
pub fn classify_faults(design: &ScanDesign, faults: &[Fault]) -> Vec<ClassifiedFault> {
    let mut classifier = Classifier::<u64>::new_wide(design);
    faults.iter().map(|&f| classifier.classify(f)).collect()
}

/// [`classify_faults`] sharded across `threads` workers (`0` = hardware
/// thread count), running the packed implication engine at the rail
/// width `width` (the switch [`PipelineConfig`](crate::PipelineConfig)
/// carries).
pub fn classify_faults_sharded_at(
    design: &ScanDesign,
    faults: &[Fault],
    threads: usize,
    width: LaneWidth,
) -> (Vec<ClassifiedFault>, ShardStats, WorkCounters, ConeHist) {
    match width {
        LaneWidth::W64 => classify_faults_sharded_wide::<u64>(design, faults, threads),
        LaneWidth::W256 => classify_faults_sharded_wide::<R256>(design, faults, threads),
    }
}

/// [`classify_faults_sharded_at`] at rail width `W`: the packed
/// `W::LANES`-fault implication engine.
///
/// Faults are permuted into words whose implication cones overlap under
/// the scan-mode steady state ([`fscan_sim::pack_order`] — the
/// permutation is width-invariant, so verdicts are byte-identical
/// across rail widths), each worker classifies whole words (the
/// word-aligned chunking keeps every word intact for any thread count),
/// and the verdicts are scattered back to input order. The
/// classifications are identical to the serial scalar
/// [`classify_faults`], and the summed [`WorkCounters`] and
/// [`ConeHist`] are bit-identical for every thread count (bucket sums
/// commute, so shard merge order cannot matter).
fn classify_faults_sharded_wide<W: Rail>(
    design: &ScanDesign,
    faults: &[Fault],
    threads: usize,
) -> (Vec<ClassifiedFault>, ShardStats, WorkCounters, ConeHist) {
    // The packer keys on the scan-mode steady state.
    let order = fscan_sim::pack_order(&design.topology(), design.scan_mode_values(), faults);
    let packed: Vec<Fault> = order.iter().map(|&i| faults[i]).collect();
    let lanes = W::LANES as usize;
    let hist = std::sync::Mutex::new(ConeHist::default());
    let (classified, stats, work) = shard_map_counted(
        threads,
        lanes,
        &packed,
        || Classifier::<W>::new_wide(design),
        |classifier, _, chunk| {
            let out: Vec<ClassifiedFault> = chunk
                .chunks(lanes)
                .flat_map(|word| classifier.classify_word(word))
                .collect();
            hist.lock().unwrap().merge(&classifier.take_cone_hist());
            (out, classifier.take_counters())
        },
    );
    let mut slots: Vec<Option<ClassifiedFault>> = vec![None; faults.len()];
    for (&slot, cf) in order.iter().zip(classified) {
        slots[slot] = Some(cf);
    }
    let unpacked = slots
        .into_iter()
        .map(|s| s.expect("pack_order is a permutation"))
        .collect();
    (unpacked, stats, work, hist.into_inner().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_netlist::{Circuit, GateKind};
    use fscan_scan::{insert_functional_scan, TpiConfig};

    /// Builds the paper's Figure 2(b) situation: a functional scan path
    /// through an AND gate whose side input is a primary input forced to
    /// the non-controlling value 1 during scan mode.
    fn figure2() -> (ScanDesign, NodeId, NodeId) {
        let mut c = Circuit::new("fig2");
        let pi = c.add_input("PI");
        let ff1 = c.add_dff_placeholder("ff1");
        let a = c.add_gate(GateKind::And, vec![ff1, pi], "A");
        let ff2 = c.add_dff(a, "ff2");
        let f_net = c.add_gate(GateKind::Buf, vec![ff2], "F");
        let ff3 = c.add_dff(f_net, "ff3");
        let loop_back = c.add_gate(GateKind::Not, vec![ff3], "loop");
        c.set_dff_input(ff1, loop_back).unwrap();
        c.mark_output(ff3);
        let design = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
        (design, pi, a)
    }

    #[test]
    fn side_input_x_fault_is_category_2() {
        let (design, pi, a) = figure2();
        // Find the functional cell through gate A, and its side input.
        let mut side_net = None;
        for chain in design.chains() {
            for cell in &chain.cells {
                for s in &cell.sides {
                    if s.gate == a {
                        side_net = Some(s.net);
                    }
                }
            }
        }
        let Some(side_net) = side_net else {
            // TPI may have chosen a different route; the remaining
            // assertions need the A-path, so require it.
            panic!("expected a functional path through gate A");
        };
        // The paper's fig-2 fault: side input stuck at the *controlling*
        // value would pin the chain (category 1); a fault that makes the
        // side X is category 2. With side = PI (forced 1), PI s-a-0 pins
        // A to 0 → category 1. A fault upstream that makes PI's value
        // unknown is impossible here, so use the branch-fault form: the
        // side net is the PI itself, and classification of PI s-a-0 must
        // be category 1 at A's location.
        let mut cls = Classifier::<u64>::new_wide(&design);
        let c1 = cls.classify(Fault::stem(side_net, false));
        assert_eq!(c1.category, Category::AlternatingDetectable);
        assert!(!c1.locations.is_empty());
        let _ = pi;
    }

    #[test]
    fn chain_net_fault_is_category_1() {
        let (design, _, a) = figure2();
        let mut cls = Classifier::<u64>::new_wide(&design);
        for stuck in [false, true] {
            let c = cls.classify(Fault::stem(a, stuck));
            assert_eq!(c.category, Category::AlternatingDetectable, "A s-a-{stuck}");
        }
    }

    #[test]
    fn category_2_priority_over_category_1() {
        // A fault that pins one chain net AND makes a side input of a
        // later location unknown must be category 2 (paper §3).
        let mut c = Circuit::new("prio");
        let pi = c.add_input("PI");
        let ff0 = c.add_dff_placeholder("ff0");
        // Chain segment ff0 → g1(AND, side = buf(PI)) → ff1.
        let side1 = c.add_gate(GateKind::Buf, vec![pi], "side1");
        let g1 = c.add_gate(GateKind::And, vec![ff0, side1], "g1");
        let ff1 = c.add_dff(g1, "ff1");
        // Chain segment ff1 → g2(AND, side = ff_aux-driven net) → ff2.
        let ff_aux = c.add_dff_placeholder("aux");
        let side2 = c.add_gate(GateKind::Or, vec![pi, ff_aux], "side2");
        let g2 = c.add_gate(GateKind::And, vec![ff1, side2], "g2");
        let ff2 = c.add_dff(g2, "ff2");
        let nb = c.add_gate(GateKind::Not, vec![ff2], "nb");
        c.set_dff_input(ff0, nb).unwrap();
        c.set_dff_input(ff_aux, nb).unwrap();
        c.mark_output(ff2);
        let design = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
        // Verify both g1 and g2 are on the chain as functional segments;
        // otherwise the scenario does not apply.
        let on_chain = |g| {
            design
                .chains()
                .iter()
                .flat_map(|ch| ch.cells.iter())
                .any(|cell| cell.path.iter().any(|&(pg, _)| pg == g))
        };
        if !(on_chain(g1) && on_chain(g2)) {
            return; // TPI found another layout; scenario not constructible
        }
        // PI s-a-0: side1 (required 1 for g1) goes to 0 → g1 pinned
        // (category-1 effect); side2 = OR(PI, aux): with PI = 0 it
        // becomes X (aux is a flip-flop) → category-2 effect at g2.
        let mut cls = Classifier::<u64>::new_wide(&design);
        let cf = cls.classify(Fault::stem(pi, false));
        assert_eq!(cf.category, Category::Hard);
        assert!(cf.locations.len() >= 2, "{:?}", cf.locations);
    }

    #[test]
    fn unrelated_fault_is_category_3() {
        let (design, ..) = figure2();
        // A fault on a primary output cone that never reaches any chain
        // net: pick the PO buffer "F"? F feeds ff3 which is chained, so
        // use a fresh design with an isolated output gate instead.
        let mut c = Circuit::new("iso");
        let pi = c.add_input("pi");
        let ff = c.add_dff_placeholder("ff");
        let g = c.add_gate(GateKind::Buf, vec![ff], "g");
        c.set_dff_input(ff, g).unwrap();
        let iso = c.add_gate(GateKind::Not, vec![pi], "iso");
        c.mark_output(iso);
        let design2 = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
        let mut cls = Classifier::<u64>::new_wide(&design2);
        let cf = cls.classify(Fault::stem(iso, false));
        assert_eq!(cf.category, Category::Unaffected);
        assert!(cf.locations.is_empty());
        let _ = design;
    }

    #[test]
    fn dff_dpin_branch_fault_located() {
        let (design, ..) = figure2();
        let chain = &design.chains()[0];
        let cell1 = &chain.cells[1];
        let mut cls = Classifier::<u64>::new_wide(&design);
        let cf = cls.classify(Fault::branch(cell1.ff, 0, true));
        assert_eq!(cf.category, Category::AlternatingDetectable);
        assert_eq!(cf.locations, vec![ChainLocation { chain: 0, cell: 1 }]);
    }

    #[test]
    fn sharded_classification_matches_serial() {
        let circuit = fscan_netlist::generate(
            &fscan_netlist::GeneratorConfig::new("shard", 5)
                .gates(150)
                .dffs(10),
        );
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let faults =
            fscan_fault::collapse(design.circuit(), &fscan_fault::all_faults(design.circuit()));
        let serial = classify_faults(&design, &faults);
        let mut reference_work = None;
        let mut reference_hist = None;
        for threads in [1, 2, 4] {
            let (sharded, stats, work, hist) =
                classify_faults_sharded_at(&design, &faults, threads, LaneWidth::W64);
            assert_eq!(sharded, serial, "threads = {threads}");
            assert_eq!(stats.items(), faults.len());
            assert!(work.implication_events > 0);
            assert_eq!(hist.total_cones(), faults.len() as u64);
            let expect = *reference_work.get_or_insert(work);
            assert_eq!(work, expect, "counters must not depend on threads");
            let expect_hist = *reference_hist.get_or_insert(hist);
            assert_eq!(hist, expect_hist, "cone hist must not depend on threads");
        }
        // The scalar reference path tallies the same distribution.
        let mut cls = Classifier::<u64>::new_wide(&design);
        for &f in &faults {
            cls.classify(f);
        }
        assert_eq!(Some(cls.take_cone_hist()), reference_hist);
    }

    #[test]
    fn classification_is_identical_across_lane_widths() {
        let circuit = fscan_netlist::generate(
            &fscan_netlist::GeneratorConfig::new("width", 7)
                .gates(180)
                .dffs(12),
        );
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let faults =
            fscan_fault::collapse(design.circuit(), &fscan_fault::all_faults(design.circuit()));
        // A tail word at 256 lanes exercises the partial-mask path.
        assert!(
            !faults.len().is_multiple_of(256),
            "want a 256-lane tail word"
        );
        let serial = classify_faults(&design, &faults);
        let (w64, _, work64, hist64) =
            classify_faults_sharded_at(&design, &faults, 1, LaneWidth::W64);
        let (w256, _, work256, hist256) =
            classify_faults_sharded_at(&design, &faults, 1, LaneWidth::W256);
        assert_eq!(w64, serial);
        assert_eq!(w256, serial, "verdicts must be width-invariant");
        assert_eq!(hist64, hist256, "cone hist must be width-invariant");
        assert_eq!(hist64.total_cones(), faults.len() as u64);
        // The per-lane implication behavior is width-invariant…
        assert_eq!(work64.implication_events, work256.implication_events);
        assert_eq!(work64.cone_nets, work256.cone_nets);
        // …while the wider rail amortizes each union-cone walk over four
        // times as many faults: strictly fewer kernel evaluations.
        assert!(
            work256.kernel_gate_evals < work64.kernel_gate_evals,
            "256-lane kernel evals {} not below 64-lane {}",
            work256.kernel_gate_evals,
            work64.kernel_gate_evals
        );
        assert!(work256.implication_words < work64.implication_words);
        // Wide verdicts are also thread-invariant.
        for threads in [2, 4] {
            let (w, _, work, hist) =
                classify_faults_sharded_at(&design, &faults, threads, LaneWidth::W256);
            assert_eq!(w, serial, "threads = {threads}");
            assert_eq!(work, work256, "counters must not depend on threads");
            assert_eq!(hist, hist256, "cone hist must not depend on threads");
        }
    }

    #[test]
    fn multi_chain_detection() {
        let circuit = fscan_netlist::generate(
            &fscan_netlist::GeneratorConfig::new("mc", 3)
                .gates(200)
                .dffs(12),
        );
        let cfg = TpiConfig { num_chains: 2 };
        let design = insert_functional_scan(&circuit, &cfg).unwrap();
        let faults =
            fscan_fault::collapse(design.circuit(), &fscan_fault::all_faults(design.circuit()));
        let classified = classify_faults(&design, &faults);
        // Some fault should affect a chain; the multi_chain() helper must
        // agree with the raw location data.
        for cf in &classified {
            let chains: std::collections::HashSet<usize> =
                cf.locations.iter().map(|l| l.chain).collect();
            assert_eq!(cf.multi_chain(), chains.len() > 1);
        }
        assert!(classified
            .iter()
            .any(|c| c.category != Category::Unaffected));
    }
}
