//! Cross-crate property-based tests on the core invariants.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use fscan::{
    alternating_vectors, classify_faults, compact_program, Category, CombPhase, LaneWidth,
    PipelineConfig, ScanTest, TestProgram,
};
use fscan_atpg::PodemConfig;
use fscan_fault::{all_faults, collapse, Fault};
use fscan_netlist::{
    generate, parse_bench, write_bench, BenchReader, CompiledTopology, FanoutTable,
    GeneratorConfig, Levelization, ParseBenchError,
};
use fscan_scan::{insert_functional_scan, insert_mux_scan, TpiConfig};
use fscan_sim::kernel::R256;
use fscan_sim::{
    CombEvaluator, GoodTrace, ImplicationEngine, NetChange, PackedImplicationEngine,
    ParallelFaultSim, SeqSim, TopoQueue, WorkCounters, V3,
};

fn arb_circuit() -> impl Strategy<Value = fscan_netlist::Circuit> {
    (0u64..1000, 30usize..150, 2usize..12, 4usize..10).prop_map(|(seed, gates, dffs, inputs)| {
        generate(
            &GeneratorConfig::new(format!("p{seed}"), seed)
                .inputs(inputs)
                .gates(gates)
                .dffs(dffs),
        )
    })
}

/// Streams `text` into a [`BenchReader`] split at the given byte
/// positions — the chunked counterpart of batch [`parse_bench`].
fn stream_chunked(text: &str, cuts: &[usize]) -> Result<fscan_netlist::Circuit, ParseBenchError> {
    let mut reader = BenchReader::new("p");
    let mut prev = 0;
    for &cut in cuts {
        reader.feed(&text[prev..cut])?;
        prev = cut;
    }
    reader.feed(&text[prev..])?;
    reader.finish()
}

fn arb_vectors(inputs: usize, cycles: usize) -> impl Strategy<Value = Vec<Vec<V3>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![Just(V3::Zero), Just(V3::One), Just(V3::X)],
            inputs,
        ),
        1..cycles,
    )
}

/// The cycles a single fault word reads: through its last detection
/// when every lane is detected, otherwise the whole sequence.
fn cycles_read(verdicts: &[Option<usize>], cycles: usize) -> usize {
    if verdicts.is_empty() {
        return 0;
    }
    verdicts
        .iter()
        .try_fold(0, |last, d| d.map(|t| last.max(t + 1)))
        .unwrap_or(cycles)
}

/// One fault simulation's verdicts and counters.
type Simulated = (Vec<Option<usize>>, WorkCounters);

/// `fault_sim_sharded`, and `fault_sim_sharded_with_trace` over the
/// `eager` trace, at one width.
fn sharded_at<W: fscan_sim::kernel::Rail>(
    sim: &ParallelFaultSim<W>,
    vectors: &[Vec<V3>],
    init: &[V3],
    faults: &[Fault],
    eager: &GoodTrace,
    threads: usize,
) -> (Simulated, Simulated) {
    let (verdicts, _, work) = sim.fault_sim_sharded(vectors, init, faults, threads);
    let (eager_verdicts, _, faulty) = sim.fault_sim_sharded_with_trace(faults, eager, threads);
    ((verdicts, work), (eager_verdicts, faulty))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `.bench` round-trip preserves sequential behavior, not just
    /// structure: both circuits produce identical traces.
    #[test]
    fn bench_roundtrip_preserves_behavior(circuit in arb_circuit(), seed in 0u64..100) {
        let text = write_bench(&circuit);
        let back = parse_bench(&text, circuit.name()).expect("roundtrip parse");
        prop_assert_eq!(circuit.num_nodes(), back.num_nodes());
        let vectors = fscan_atpg::random_vectors(circuit.inputs().len(), 12, &[], seed);
        let init: Vec<V3> = (0..circuit.dffs().len())
            .map(|i| if i % 2 == 0 { V3::Zero } else { V3::One })
            .collect();
        let t1 = SeqSim::new(&circuit).run(&vectors, &init, None);
        let t2 = SeqSim::new(&back).run(&vectors, &init, None);
        prop_assert_eq!(t1.outputs, t2.outputs);
    }

    /// Differential oracle for streaming ingestion: feeding `.bench`
    /// text through [`BenchReader`] in arbitrary chunks must be
    /// indistinguishable from batch [`parse_bench`] — the same circuit
    /// on success and the same typed error (line, byte offset, message)
    /// on failure — wherever the chunk boundaries fall, including
    /// mid-token splits and corrupted inputs.
    #[test]
    fn streaming_reader_is_equivalent_to_batch_parse(
        circuit in arb_circuit(),
        permille in proptest::collection::vec(0usize..1000, 0..8),
        which in 0usize..1000,
        kind in 0usize..4,
    ) {
        let mut text = write_bench(&circuit);
        // Three corruption kinds (the fourth arm leaves the text valid):
        // unknown gate keyword, truncated declaration, and a definition
        // replaced so some signal ends up undefined.
        if kind < 3 {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let at = which % lines.len();
            lines[at] = match kind {
                0 => "bad = FROB(a, b)".to_string(),
                1 => "INPUT(".to_string(),
                _ => "bad = AND(never_defined_a, never_defined_b)".to_string(),
            };
            text = lines.join("\n");
            text.push('\n');
        }
        let mut cuts: Vec<usize> = permille.iter().map(|p| p * text.len() / 1000).collect();
        cuts.sort_unstable();
        let batch = parse_bench(&text, "p");
        let streamed = stream_chunked(&text, &cuts);
        match (batch, streamed) {
            (Ok(b), Ok(s)) => {
                prop_assert_eq!(b.num_nodes(), s.num_nodes());
                prop_assert_eq!(write_bench(&b), write_bench(&s));
            }
            (Err(b), Err(s)) => {
                prop_assert_eq!(b.line(), s.line(), "error line diverges");
                prop_assert_eq!(b.offset(), s.offset(), "error offset diverges");
                prop_assert_eq!(b, s);
            }
            (b, s) => prop_assert!(false, "batch {:?} but streamed {:?}", b, s),
        }
    }

    /// The parallel fault simulator agrees with the serial reference on
    /// arbitrary circuits, vectors (including X inputs) and faults — at
    /// the 64-lane default and at the 256-lane wide rail (96 faults
    /// leave a 32-lane tail word at 64 lanes and a partial word at 256,
    /// so both widths exercise their partial-mask paths).
    #[test]
    fn parallel_equals_serial_fault_sim(
        circuit in arb_circuit(),
        seed in 0u64..100,
    ) {
        let faults: Vec<Fault> = collapse(&circuit, &all_faults(&circuit))
            .into_iter()
            .take(96)
            .collect();
        let vectors = fscan_atpg::random_vectors(circuit.inputs().len(), 10, &[], seed);
        let init = vec![V3::X; circuit.dffs().len()];
        let serial = SeqSim::new(&circuit).fault_sim(&vectors, &init, &faults);
        let topo = CompiledTopology::shared(&circuit);
        let parallel = ParallelFaultSim::with_topology(Arc::clone(&topo)).fault_sim(&vectors, &init, &faults);
        prop_assert_eq!(&serial, &parallel);
        let wide = ParallelFaultSim::<R256>::with_topology_wide(topo).fault_sim(&vectors, &init, &faults);
        prop_assert_eq!(&serial, &wide, "verdicts must be width-invariant");
    }

    /// Three-valued simulation is monotone: refining an X input to a
    /// known value never flips a known output, only refines X outputs.
    #[test]
    fn simulation_is_monotone_in_information_order(
        circuit in arb_circuit(),
        vectors in arb_vectors(8, 6),
    ) {
        // arb_circuit uses 4..10 inputs; pad/trim vectors to match.
        let n = circuit.inputs().len();
        let vectors: Vec<Vec<V3>> = vectors
            .into_iter()
            .map(|mut v| { v.resize(n, V3::X); v })
            .collect();
        let init = vec![V3::X; circuit.dffs().len()];
        let base = SeqSim::new(&circuit).run(&vectors, &init, None);
        // Refine: replace every X input with 0.
        let refined_vs: Vec<Vec<V3>> = vectors
            .iter()
            .map(|v| v.iter().map(|&b| if b == V3::X { V3::Zero } else { b }).collect())
            .collect();
        let refined = SeqSim::new(&circuit).run(&refined_vs, &init, None);
        for (bo, ro) in base.outputs.iter().zip(refined.outputs.iter()) {
            for (&b, &r) in bo.iter().zip(ro.iter()) {
                if b.is_known() {
                    prop_assert_eq!(b, r, "known output changed under refinement");
                }
            }
        }
    }

    /// Scan insertion (either style) preserves normal-mode behavior
    /// exactly: with scan_mode = 0 the original and transformed circuits
    /// agree on every original primary output.
    #[test]
    fn scan_insertion_preserves_normal_mode(circuit in arb_circuit(), seed in 0u64..50) {
        let designs = [
            insert_mux_scan(&circuit, 1).expect("mux scan"),
            insert_functional_scan(&circuit, &TpiConfig::default()).expect("tpi"),
        ];
        let vectors = fscan_atpg::random_vectors(circuit.inputs().len(), 8, &[], seed);
        let init: Vec<V3> = (0..circuit.dffs().len()).map(|i| V3::from(i % 3 == 0)).collect();
        let orig = SeqSim::new(&circuit).run(&vectors, &init, None);
        for design in &designs {
            let c = design.circuit();
            let padded: Vec<Vec<V3>> = vectors
                .iter()
                .map(|v| {
                    let mut w = v.clone();
                    w.resize(c.inputs().len(), V3::Zero); // scan_mode = 0, scan_in = 0
                    w
                })
                .collect();
            let new = SeqSim::new(c).run(&padded, &init, None);
            for (t, (o, n)) in orig.outputs.iter().zip(new.outputs.iter()).enumerate() {
                for k in 0..circuit.outputs().len() {
                    prop_assert_eq!(o[k], n[k], "cycle {} po {}", t, k);
                }
            }
        }
    }

    /// Chain parity helpers agree with real simulation: loading any
    /// state through the chain and shifting it out reproduces the
    /// predicted scan-out stream.
    #[test]
    fn scan_out_stream_matches_prediction(circuit in arb_circuit(), bits in any::<u64>()) {
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).expect("tpi");
        let chain = &design.chains()[0];
        let l = chain.len();
        let state: Vec<bool> = (0..l).map(|i| bits >> (i % 64) & 1 == 1).collect();
        // Load, then shift out l cycles and compare with prediction.
        let c = design.circuit();
        let layout_pos = |n| c.inputs().iter().position(|&p| p == n).unwrap();
        let mut vectors = fscan::scan_load_vectors(&design, std::slice::from_ref(&state));
        let base: Vec<V3> = {
            let mut v = vec![V3::Zero; c.inputs().len()];
            for &(pi, val) in design.constraints() {
                v[layout_pos(pi)] = V3::from(val);
            }
            v
        };
        for _ in 0..l {
            vectors.push(base.clone());
        }
        let trace = SeqSim::new(c).run(&vectors, &vec![V3::X; c.dffs().len()], None);
        let so_pos = c
            .outputs()
            .iter()
            .position(|&o| o == chain.scan_out())
            .expect("scan-out is a PO");
        let predicted = chain.expected_scan_out(&state);
        // The load completes at the end of cycle l-1; primary outputs at
        // cycle t reflect the state after t clock edges, so the loaded
        // last-cell value (predicted[0]) appears at cycle l and
        // predicted[t] at cycle l+t.
        for (t, &bit) in predicted.iter().enumerate().take(l) {
            prop_assert_eq!(
                trace.outputs[l + t][so_pos],
                V3::from(bit),
                "scan-out cycle {}", t
            );
        }
    }

    /// Differential oracle for the event-driven good-machine trace: the
    /// persistent per-net values it maintains (cycle-0 snapshot plus
    /// per-cycle deltas) must agree, net for net and cycle for cycle,
    /// with a brute-force full levelized re-evaluation of every gate at
    /// every cycle — and its outputs and final state must match the
    /// serial sequential reference simulator.
    #[test]
    fn event_driven_trace_matches_full_resimulation(
        circuit in arb_circuit(),
        vectors in arb_vectors(10, 8),
    ) {
        // arb_circuit uses 4..10 inputs; pad/trim vectors to match.
        let n = circuit.inputs().len();
        let vectors: Vec<Vec<V3>> = vectors
            .into_iter()
            .map(|mut v| { v.resize(n, V3::X); v })
            .collect();
        let init = vec![V3::X; circuit.dffs().len()];
        let trace = ParallelFaultSim::with_topology(CompiledTopology::shared(&circuit)).good_trace(&vectors, &init);

        // Brute force: drive, fully re-evaluate every gate, and clock —
        // no events, no deltas.
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&circuit));
        let mut reference = vec![V3::X; circuit.num_nodes()];
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            reference[ff.index()] = init[i];
        }
        let mut replayed: Vec<V3> = Vec::new();
        for (t, vec) in vectors.iter().enumerate() {
            if t > 0 {
                let state: Vec<V3> = circuit
                    .dffs()
                    .iter()
                    .map(|&ff| reference[circuit.node(ff).fanin()[0].index()])
                    .collect();
                for (i, &ff) in circuit.dffs().iter().enumerate() {
                    reference[ff.index()] = state[i];
                }
            }
            for (k, &pi) in circuit.inputs().iter().enumerate() {
                reference[pi.index()] = vec[k];
            }
            eval.eval(&mut reference);
            // Reconstruct the event-driven view of this cycle from the
            // snapshot plus the recorded deltas.
            if t == 0 {
                replayed = trace.values0().to_vec();
            } else {
                for (node, value) in trace.changes(t) {
                    replayed[node.index()] = value;
                }
            }
            prop_assert_eq!(&replayed, &reference, "per-net values diverge at cycle {}", t);
            for (k, &po) in circuit.outputs().iter().enumerate() {
                prop_assert_eq!(trace.outputs()[t][k], reference[po.index()], "po {} cycle {}", k, t);
            }
        }
        let serial = SeqSim::new(&circuit).run(&vectors, &init, None);
        prop_assert_eq!(serial.outputs.as_slice(), trace.outputs());
        prop_assert_eq!(serial.final_state.as_slice(), trace.final_state());
    }

    /// Differential oracle for the compile-once topology plan: on random
    /// generator circuits, the CSR-packed fanin/fanout adjacency, the
    /// levelized order, the per-node levels, and the index tables of
    /// [`CompiledTopology`] must agree element for element with the
    /// naive per-engine derivations it replaced ([`Levelization`],
    /// [`FanoutTable`], and the circuit's own fanin lists).
    #[test]
    fn compiled_topology_matches_naive_derivation(circuit in arb_circuit()) {
        let topo = CompiledTopology::compile(&circuit);
        let lv = Levelization::new(&circuit);
        let fot = FanoutTable::new(&circuit);
        prop_assert_eq!(topo.num_nodes(), circuit.num_nodes());
        prop_assert_eq!(topo.order(), lv.order());
        prop_assert_eq!(topo.depth(), lv.depth());
        prop_assert_eq!(topo.inputs(), circuit.inputs());
        prop_assert_eq!(topo.outputs(), circuit.outputs());
        prop_assert_eq!(topo.dffs(), circuit.dffs());
        for id in circuit.node_ids() {
            prop_assert_eq!(topo.kind(id), circuit.node(id).kind());
            prop_assert_eq!(topo.level(id), lv.level(id), "level of {:?}", id);
            prop_assert_eq!(topo.fanin(id), circuit.node(id).fanin(), "fanin of {:?}", id);
            let naive = fot.fanouts(id);
            let csr: Vec<(fscan_netlist::NodeId, usize)> = topo.fanouts(id).collect();
            prop_assert_eq!(csr.as_slice(), naive, "fanouts of {:?}", id);
            prop_assert_eq!(topo.fanout_count(id), naive.len());
            let sinks: Vec<_> = naive.iter().map(|&(s, _)| s).collect();
            let pins: Vec<u32> = naive.iter().map(|&(_, p)| p as u32).collect();
            prop_assert_eq!(topo.fanout_sinks(id), sinks.as_slice());
            prop_assert_eq!(topo.fanout_pins(id), pins.as_slice());
        }
        // eval_order is the evaluable subsequence of the full order, and
        // order_positions is its inverse: each evaluable node maps to its
        // eval_order slot, everything else (inputs, DFFs) to u32::MAX.
        let evaluable: Vec<_> = lv
            .order()
            .iter()
            .copied()
            .filter(|&id| {
                let k = circuit.node(id).kind();
                k.is_gate() || matches!(k, fscan_netlist::GateKind::Const0 | fscan_netlist::GateKind::Const1)
            })
            .collect();
        prop_assert_eq!(topo.eval_order(), evaluable.as_slice());
        let mut expect_pos = vec![u32::MAX; circuit.num_nodes()];
        for (pos, &id) in evaluable.iter().enumerate() {
            expect_pos[id.index()] = pos as u32;
        }
        prop_assert_eq!(topo.order_positions(), expect_pos.as_slice());
    }

    /// Differential oracle for the forward-implication engine: its
    /// incremental cone must agree, net for net and value for value,
    /// with a brute-force faulty-circuit re-simulation from the same
    /// steady state — every reported change is real, no change goes
    /// unreported, and the scratch overlays never leak between runs.
    #[test]
    fn implication_cone_matches_bruteforce_resimulation(
        circuit in arb_circuit(),
        seed in 0u64..1000,
    ) {
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&circuit));
        // Scan-mode-like steady state: random known/unknown PI values,
        // X flip-flops (deterministic xorshift, so failures replay).
        let mut state = seed.wrapping_mul(2).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut good = vec![V3::X; circuit.num_nodes()];
        for &pi in circuit.inputs() {
            good[pi.index()] = match next() % 3 {
                0 => V3::Zero,
                1 => V3::One,
                _ => V3::X,
            };
        }
        eval.eval(&mut good);

        let faults = collapse(&circuit, &all_faults(&circuit));
        let mut engine = ImplicationEngine::with_topology(Arc::clone(eval.topology()));
        for fault in faults.into_iter().take(64) {
            let changes = engine.run(&good, fault);
            // Topological order of the reported cone.
            let order_pos: std::collections::HashMap<_, _> = eval
                .order()
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i))
                .collect();
            for pair in changes.windows(2) {
                if let (Some(&a), Some(&b)) =
                    (order_pos.get(&pair[0].node), order_pos.get(&pair[1].node))
                {
                    prop_assert!(a < b, "cone not topological for {}", fault);
                }
            }
            // Brute force: re-evaluate the whole circuit under the fault
            // from the same preset PI/FF values.
            let mut faulty = good.clone();
            eval.eval_with_fault(&mut faulty, fault);
            let reported: std::collections::HashMap<_, _> = changes
                .iter()
                .map(|ch| (ch.node, (ch.good, ch.faulty)))
                .collect();
            prop_assert_eq!(reported.len(), changes.len(), "duplicate nets in cone");
            for id in circuit.node_ids() {
                let g = good[id.index()];
                let f = faulty[id.index()];
                match reported.get(&id) {
                    Some(&(cg, cf)) => {
                        prop_assert_eq!(cg, g, "wrong good value for {:?} under {}", id, fault);
                        prop_assert_eq!(cf, f, "wrong faulty value for {:?} under {}", id, fault);
                        prop_assert!(cg != cf, "non-change reported for {:?} under {}", id, fault);
                    }
                    None => prop_assert_eq!(
                        g, f,
                        "unreported change on {:?} under {}", id, fault
                    ),
                }
            }
        }
    }

    /// Differential oracle for the packed 64-lane implication engine:
    /// on random circuits, every lane of every 64-fault word must
    /// reproduce the scalar engine's change list exactly — same nets,
    /// same values, same order — and the packed work counters
    /// (`implication_events`, `cone_nets`) must equal the scalar totals,
    /// so the two engines report identical work regardless of packing.
    #[test]
    fn packed_implication_matches_scalar(
        circuit in arb_circuit(),
        seed in 0u64..1000,
    ) {
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&circuit));
        // Same scan-mode-like steady state as the scalar oracle above:
        // random known/unknown PI values, X flip-flops.
        let mut state = seed.wrapping_mul(2).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut good = vec![V3::X; circuit.num_nodes()];
        for &pi in circuit.inputs() {
            good[pi.index()] = match next() % 3 {
                0 => V3::Zero,
                1 => V3::One,
                _ => V3::X,
            };
        }
        eval.eval(&mut good);

        let faults = collapse(&circuit, &all_faults(&circuit));
        let mut scalar = ImplicationEngine::with_topology(Arc::clone(eval.topology()));
        let mut packed = PackedImplicationEngine::<u64>::with_topology(Arc::clone(eval.topology()));
        for word in faults.chunks(64) {
            packed.run_word(&good, word);
            for (lane, &fault) in word.iter().enumerate() {
                let expect = scalar.run(&good, fault);
                let got: Vec<NetChange> = packed.lane_changes(lane as u32).collect();
                prop_assert_eq!(got, expect, "lane {} under {}", lane, fault);
            }
        }
        let s = scalar.take_counters();
        let p = packed.take_counters();
        prop_assert_eq!(p.implication_events, s.implication_events);
        prop_assert_eq!(p.cone_nets, s.cone_nets);
        prop_assert_eq!(p.implication_words, (faults.len() as u64).div_ceil(64));
        // Every packed gate evaluation goes through the shared kernel,
        // and packing never evaluates more words than the scalar engine
        // evaluates gates.
        prop_assert_eq!(p.kernel_gate_evals, p.gate_evals);
        prop_assert!(p.gate_evals <= s.gate_evals);
    }

    /// The same lane-by-lane oracle at the 256-lane rail: every lane of
    /// every 256-fault word — including the final partial word, since a
    /// collapsed fault list is practically never a multiple of 256 —
    /// must reproduce the scalar engine's change list exactly, with
    /// width-invariant `implication_events`/`cone_nets` and strictly
    /// fewer packed words than at 64 lanes.
    #[test]
    fn wide_packed_implication_matches_scalar(
        circuit in arb_circuit(),
        seed in 0u64..1000,
    ) {
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&circuit));
        let mut state = seed.wrapping_mul(2).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut good = vec![V3::X; circuit.num_nodes()];
        for &pi in circuit.inputs() {
            good[pi.index()] = match next() % 3 {
                0 => V3::Zero,
                1 => V3::One,
                _ => V3::X,
            };
        }
        eval.eval(&mut good);

        let faults = collapse(&circuit, &all_faults(&circuit));
        let mut scalar = ImplicationEngine::with_topology(Arc::clone(eval.topology()));
        let mut wide = PackedImplicationEngine::<R256>::with_topology(Arc::clone(eval.topology()));
        for word in faults.chunks(256) {
            wide.run_word(&good, word);
            for (lane, &fault) in word.iter().enumerate() {
                let expect = scalar.run(&good, fault);
                let got: Vec<NetChange> = wide.lane_changes(lane as u32).collect();
                prop_assert_eq!(got, expect, "lane {} under {}", lane, fault);
            }
        }
        let s = scalar.take_counters();
        let w = wide.take_counters();
        prop_assert_eq!(w.implication_events, s.implication_events);
        prop_assert_eq!(w.cone_nets, s.cone_nets);
        prop_assert_eq!(w.implication_words, (faults.len() as u64).div_ceil(256));
        prop_assert_eq!(w.kernel_gate_evals, w.gate_evals);
        prop_assert!(w.gate_evals <= s.gate_evals);
    }

    /// Oracle for one-pass reverse-order compaction: re-simulating every
    /// test alone from all-X with the serial reference, the faults the
    /// full pre-compaction program (the alternating sequence plus every
    /// comb window) detects are exactly the faults the compacted program
    /// detects, and the report counts that same set before and after —
    /// at 64 and 256 lanes and at 1 and 2 threads, which all keep the
    /// same tests.
    #[test]
    fn compaction_keeps_every_detection(circuit in arb_circuit()) {
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).expect("tpi");
        let faults = collapse(design.circuit(), &all_faults(design.circuit()));
        let classified = classify_faults(&design, &faults);
        let affected: Vec<Fault> = classified
            .iter()
            .filter(|c| c.category != Category::Unaffected)
            .map(|c| c.fault)
            .collect();
        let hard: Vec<Fault> = classified
            .iter()
            .filter(|c| c.category == Category::Hard)
            .map(|c| c.fault)
            .collect();
        let mut program = TestProgram::new();
        program.push(ScanTest::new("alternating", alternating_vectors(&design)));
        // One thread and the default PODEM budget.
        let comb_config = PipelineConfig {
            podem: PodemConfig::default(),
            threads: 1,
            ..PipelineConfig::default()
        };
        for test in CombPhase::new(&design, &comb_config).run(&hard).program {
            program.push(test);
        }
        let sim = SeqSim::new(design.circuit());
        let init = vec![V3::X; design.circuit().dffs().len()];
        let detected = |program: &TestProgram| {
            let mut caught = BTreeSet::new();
            for test in program.tests() {
                let verdicts = sim.fault_sim(&test.vectors, &init, &affected);
                caught.extend(verdicts.iter().enumerate().filter_map(|(i, d)| d.map(|_| i)));
            }
            caught
        };
        let before = detected(&program);
        let mut kept: Option<TestProgram> = None;
        for width in [LaneWidth::W64, LaneWidth::W256] {
            for threads in [1, 2] {
                let config = PipelineConfig { threads, lane_width: width, ..PipelineConfig::default() };
                let outcome = compact_program(&design, &config, program.clone(), &affected);
                let report = &outcome.report;
                prop_assert_eq!(report.tests_before, program.len());
                prop_assert_eq!(report.detected_before, before.len());
                prop_assert_eq!(report.detected_after, report.detected_before);
                prop_assert_eq!(report.lost, 0);
                match &kept {
                    Some(k) => prop_assert_eq!(&outcome.program, k, "{:?} x {}", width, threads),
                    None => {
                        prop_assert_eq!(detected(&outcome.program), before.clone());
                        kept = Some(outcome.program);
                    }
                }
            }
        }
    }

    /// Oracle for the single-word fault-sim path. A list that fits one
    /// word steps its good machine only as far as the word reads it,
    /// and a list of at most 64 faults runs on the 64-lane rail at
    /// either width. On random circuits and three-valued vectors, for
    /// lists of 0, 1–64, 65–256 and more than 256 faults, at 64 and 256
    /// lanes and 1 and 2 threads:
    ///
    /// * verdicts equal the serial reference's;
    /// * against an eagerly computed trace, the verdicts and the faulty
    ///   machines' counters are equal, and the good machine's
    ///   `gate_evals` never exceed the eager trace's;
    /// * one word's good machine ran exactly the cycles the word read,
    ///   and stepping it k cycles records the eager trace's first k
    ///   cycles; several words share the eager trace, counters and all;
    /// * at most 64 faults give identical counters at both widths.
    #[test]
    fn single_word_fault_sim_matches_eager_and_serial(
        circuit in arb_circuit(),
        vectors in arb_vectors(10, 24),
        pick in any::<u64>(),
    ) {
        let n = circuit.inputs().len();
        let vectors: Vec<Vec<V3>> = vectors
            .into_iter()
            .map(|mut v| { v.resize(n, V3::X); v })
            .collect();
        let init = vec![V3::X; circuit.dffs().len()];
        let topo = CompiledTopology::shared(&circuit);
        let eval = CombEvaluator::with_topology(Arc::clone(&topo));
        let eager = GoodTrace::compute(&eval, &vectors, &init);
        let serial_sim = SeqSim::new(&circuit);
        let narrow = ParallelFaultSim::with_topology(Arc::clone(&topo));
        let wide = ParallelFaultSim::<R256>::with_topology_wide(topo);
        // Lists longer than their pool repeat faults; every lane is
        // simulated on its own, so the reference still holds. One list
        // is drawn from the detected faults alone, so that its word is
        // fully detected and its good machine can stop early.
        let universe = all_faults(&circuit);
        let verdicts = serial_sim.fault_sim(&vectors, &init, &universe);
        let detected: Vec<Fault> = universe
            .iter()
            .zip(&verdicts)
            .filter_map(|(&f, d)| d.map(|_| f))
            .collect();
        let pick = pick as usize;
        let lists = [
            (&universe, 0),
            (if detected.is_empty() { &universe } else { &detected }, 1 + pick % 64),
            (&universe, 1 + (pick >> 6) % 64),
            (&universe, 65 + (pick >> 12) % 192),
            (&universe, 257 + (pick >> 20) % 160),
        ];
        for (pool, size) in lists {
            let faults: Vec<Fault> =
                pool.iter().cycle().skip(pick % pool.len()).take(size).copied().collect();
            let serial = serial_sim.fault_sim(&vectors, &init, &faults);
            let mut first_work: Option<WorkCounters> = None;
            for lanes in [64, 256] {
                for threads in [1, 2] {
                    let ((verdicts, work), (eager_verdicts, faulty)) = if lanes == 64 {
                        sharded_at(&narrow, &vectors, &init, &faults, &eager, threads)
                    } else {
                        sharded_at(&wide, &vectors, &init, &faults, &eager, threads)
                    };
                    let at = format!("{size} faults, {lanes} lanes, {threads} threads");
                    prop_assert_eq!(&verdicts, &serial, "{}", at);
                    prop_assert_eq!(&eager_verdicts, &serial, "{}", at);
                    prop_assert_eq!(work.kernel_gate_evals, faulty.kernel_gate_evals, "{}", at);
                    prop_assert_eq!(work.cone_nets, faulty.cone_nets, "{}", at);
                    prop_assert_eq!(work.scratch_reuses, faulty.scratch_reuses, "{}", at);
                    prop_assert_eq!(work.early_exits, faulty.early_exits, "{}", at);
                    let good_evals = work.gate_evals - faulty.gate_evals;
                    let good_cycles = work.lane_cycles - faulty.lane_cycles;
                    prop_assert!(good_evals <= eager.counters().gate_evals, "{}", at);
                    if size <= lanes {
                        let read = cycles_read(&verdicts, vectors.len());
                        let stepped = GoodTrace::compute(&eval, &vectors[..read], &init);
                        prop_assert_eq!(good_cycles, read as u64, "{}", at);
                        prop_assert_eq!(good_evals, stepped.counters().gate_evals, "{}", at);
                        prop_assert_eq!(stepped.outputs(), &eager.outputs()[..read], "{}", at);
                        if read > 0 {
                            prop_assert_eq!(stepped.values0(), eager.values0(), "{}", at);
                        }
                        for t in 1..read {
                            prop_assert!(stepped.changes(t).eq(eager.changes(t)), "{} cycle {}", at, t);
                        }
                    } else {
                        prop_assert_eq!(work, faulty + eager.counters(), "{}", at);
                    }
                    if size <= 64 {
                        let first = *first_work.get_or_insert(work);
                        prop_assert_eq!(work, first, "{} vs the first run", at);
                    }
                }
            }
        }
    }
}

/// Single-chain helper used by the proptest above must hold for multiple
/// chains too; spot-check deterministically (proptest would be slow).
#[test]
fn multi_chain_loads_are_independent() {
    let circuit = generate(&GeneratorConfig::new("mc", 5).gates(240).dffs(18));
    let design = insert_functional_scan(&circuit, &TpiConfig { num_chains: 3 }).unwrap();
    let states: Vec<Vec<bool>> = design
        .chains()
        .iter()
        .enumerate()
        .map(|(ci, ch)| (0..ch.len()).map(|k| (k + ci) % 2 == 0).collect())
        .collect();
    let vectors = fscan::scan_load_vectors(&design, &states);
    let c = design.circuit();
    let trace = SeqSim::new(c).run(&vectors, &vec![V3::X; c.dffs().len()], None);
    for (ci, chain) in design.chains().iter().enumerate() {
        for (k, cell) in chain.cells.iter().enumerate() {
            let pos = c.dffs().iter().position(|&f| f == cell.ff).unwrap();
            assert_eq!(trace.final_state[pos], V3::from(states[ci][k]));
        }
    }
}

/// The scheduler [`TopoQueue`] replaced: a min-heap plus a membership set.
struct HeapQueue {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>>,
    member: Vec<bool>,
}

impl HeapQueue {
    fn insert(&mut self, pos: usize) {
        if !std::mem::replace(&mut self.member[pos], true) {
            self.heap.push(std::cmp::Reverse(pos));
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let std::cmp::Reverse(pos) = self.heap.pop()?;
        self.member[pos] = false;
        Some(pos)
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.member.fill(false);
    }
}

/// Queue sizes on both sides of the 64-position word and the
/// 4096-position summary-word boundaries.
const QUEUE_SIZES: [usize; 7] = [1, 63, 64, 65, 4095, 4096, 4097];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential oracle for the event-driven engines' work-list:
    /// random interleavings of insert, pop and clear pop the same
    /// positions from [`TopoQueue`] as from a heap, including
    /// re-inserting the position just popped and inserting below it.
    #[test]
    fn topo_queue_matches_heap_reference(
        ops in proptest::collection::vec((0u8..10, any::<u32>()), 1..400),
    ) {
        for len in QUEUE_SIZES {
            let mut q = TopoQueue::new(len);
            let mut r = HeapQueue {
                heap: std::collections::BinaryHeap::new(),
                member: vec![false; len],
            };
            let mut last = None;
            for &(op, raw) in &ops {
                let raw = raw as usize;
                match (op, last) {
                    (0..=3, _) => {
                        q.insert(raw % len);
                        r.insert(raw % len);
                    }
                    // The two ends and the word edges.
                    (4, _) => {
                        let pos = [0, len - 1, 63, 64, 4095, 4096][raw % 6].min(len - 1);
                        q.insert(pos);
                        r.insert(pos);
                    }
                    (5, Some(p)) => {
                        q.insert(p);
                        r.insert(p);
                    }
                    (6, Some(p)) => {
                        q.insert(raw % (p + 1));
                        r.insert(raw % (p + 1));
                    }
                    (7 | 8, _) => {
                        let popped = q.pop();
                        prop_assert_eq!(popped, r.pop(), "len {}", len);
                        last = popped.or(last);
                    }
                    (9, _) if raw.is_multiple_of(4) => {
                        q.clear();
                        r.clear();
                    }
                    _ => {}
                }
            }
            loop {
                let popped = q.pop();
                prop_assert_eq!(popped, r.pop(), "len {} drain", len);
                if popped.is_none() {
                    break;
                }
            }
        }
    }
}
