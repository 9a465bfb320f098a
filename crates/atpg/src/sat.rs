//! The untestability screen: a good/faulty miter over a PODEM view and a
//! small CDCL SAT solver that decides it, or, where the view leaves state
//! unknown, a linear three-valued reachability check.
//!
//! PODEM proves a fault undetectable by exhausting its decision space,
//! which is exponential where the search thrashes. A SAT solver settles
//! the same question on a miter with Larrabee's active-path clauses
//! (IEEE TCAD 1992) by propagation and clause learning, usually with few
//! or no conflicts. [`Podem`](crate::Podem) consults this screen once per
//! search, the first time the search backtracks past a fixed threshold.
//!
//! An *X source* is an `Input`/`Dff` source that the view neither
//! controls nor pins. A view is *exact* for a set of faults when no X
//! source is in the support of their fanout cone. [`screen`] answers
//! every view with one of two checks:
//! - In an exact view it decides the miter below. The miter is
//!   satisfiable exactly when some assignment of the controllable sources
//!   makes an observable's good and faulty values differ, which is the
//!   question PODEM searches, so `Unsat` is a proof.
//! - Otherwise it runs the three-valued reachability check. It computes
//!   the known values each node can take over every three-valued
//!   simulation of the view: in the good machine everywhere, and in the
//!   faulty machine inside the fanout cone. An X source takes none. It
//!   proves the faults undetectable when no fault can be excited, or when
//!   no chain of nodes that can carry a known difference (known in both
//!   machines and different) joins a fault to an observable. A PODEM
//!   test puts D or D̄ on an observable, which is such a chain's end, so
//!   a proof rules out every test PODEM can find. The check finds no
//!   tests: where it proves nothing, the search goes on.
//!
//! The miter:
//! - a good copy of the transitive fanin of the faults' fanout cone;
//! - a faulty copy of the cone's nodes, which reads the good copy outside
//!   the cone. Effects stop at flip-flops, as in PODEM. A stem injection
//!   makes the faulty node a constant; a branch injection makes that gate
//!   pin a constant;
//! - fixed sources and constant gates as constants, controllable sources
//!   as free variables. A node whose value three-valued simulation
//!   settles from the constants alone is a constant too, with no variable
//!   and no clauses, and what only settled nodes read is left out;
//! - one clause asking that some fault be excited (a unit clause for a
//!   single fault: the good site value is the opposite of the stuck
//!   value), which every test implies;
//! - Larrabee's active-path clauses: one *active* literal per cone node.
//!   An active node's good and faulty values differ, and an active node
//!   that is not observable has an active gate among its readers. Some
//!   fault's starting node is active, so an active path runs from it to
//!   an observable whose values differ. The clauses let unit propagation
//!   refute blocked paths; most redundancies are proven with no conflict.
//!
//! The solver keeps two watched literals per clause, learns first-UIP
//! clauses and backjumps, branches on VSIDS activity kept in a binary
//! heap with saved phases, and restarts on the Luby sequence. It draws no
//! random numbers and iterates no hash maps, so its conflict count is a
//! pure function of the miter.

use fscan_fault::{Fault, FaultSite};
use fscan_netlist::{CompiledTopology, GateKind, NodeId};
use fscan_sim::kernel::eval_v3;
use fscan_sim::V3;

/// Conflicts one screen may spend before it leaves the verdict to the
/// search.
const CONFLICT_BUDGET: u64 = 20_000;

/// Conflicts between restarts, scaled by the Luby sequence.
const RESTART_BASE: u64 = 100;

/// VSIDS activity decay per conflict.
const VAR_DECAY: f64 = 0.95;

/// The PODEM view a screen runs over: which sources the search may
/// assign, which are pinned, and which nets it observes.
pub(crate) struct View<'a> {
    pub(crate) topo: &'a CompiledTopology,
    /// Node index → the search may assign it.
    pub(crate) controllable: &'a [bool],
    /// Sources pinned to constants.
    pub(crate) fixed: &'a [(NodeId, bool)],
    /// Node index → its value is observed.
    pub(crate) observable: &'a [bool],
}

/// What one screen found.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Screen {
    /// The view is exact for the faults and the miter was decided:
    /// `Unsat` proves no assignment of the controllable sources makes an
    /// observable differ.
    Miter {
        result: SatResult,
        /// Solver conflicts spent.
        conflicts: u64,
    },
    /// The faults' cone reads an X source and the three-valued
    /// reachability check ran: `proof` when no three-valued test exists.
    Reach { proof: bool },
}

impl Screen {
    /// Whether the screen proved the faults undetectable in the view.
    pub(crate) fn proof(self) -> bool {
        match self {
            Screen::Miter { result, .. } => result == SatResult::Unsat,
            Screen::Reach { proof } => proof,
        }
    }
}

/// Screens `faults` over `view`: decides their miter within the conflict
/// budget when the view is exact for them, and runs the three-valued
/// reachability check otherwise.
pub(crate) fn screen(view: &View<'_>, faults: &[Fault]) -> Screen {
    let cone = Cone::new(view, faults);
    if cone.exact {
        let (mut solver, _) = miter(view, &cone);
        let result = solver.solve(CONFLICT_BUDGET);
        Screen::Miter {
            result,
            conflicts: solver.conflicts,
        }
    } else {
        Screen::Reach {
            proof: !reachable(view, &cone),
        }
    }
}

/// The faults' injections, fanout cone and support over a view: what
/// both checks read.
struct Cone {
    /// Node index → the stuck value of its stem injection. The last stem
    /// injection on a node wins, as in PODEM.
    stem: Vec<Option<bool>>,
    /// Branch injections `(gate, pin, stuck)` in fault order; the first
    /// on a pin wins, as in PODEM.
    branches: Vec<(NodeId, usize, bool)>,
    /// Per fault that reaches its cone: the good site literal that
    /// excites it, and the node where its effect starts.
    sites: Vec<(NodeId, bool)>,
    seeds: Vec<NodeId>,
    /// Node index → it is in the fanout cone: its faulty value may differ.
    in_cone: Vec<bool>,
    /// The cone: sources (stem sites) first, then gates in evaluation
    /// order.
    nodes: Vec<NodeId>,
    /// Every node the cone reads, transitively, in the same order.
    support: Vec<NodeId>,
    /// Node index → the value the view pins it to.
    fixed: Vec<Option<bool>>,
    /// No X source is in the support.
    exact: bool,
}

impl Cone {
    fn new(view: &View<'_>, faults: &[Fault]) -> Cone {
        let topo = view.topo;
        let n = topo.num_nodes();
        let ordered = |id: NodeId| topo.order_positions()[id.index()] != u32::MAX;
        let mut stem: Vec<Option<bool>> = vec![None; n];
        let mut branches: Vec<(NodeId, usize, bool)> = Vec::new();
        let mut in_cone = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut sites: Vec<(NodeId, bool)> = Vec::new();
        let mut seeds: Vec<NodeId> = Vec::new();
        for f in faults {
            let seed = match f.site {
                FaultSite::Stem(node) => {
                    stem[node.index()] = Some(f.stuck);
                    sites.push((node, !f.stuck));
                    node
                }
                FaultSite::Branch { gate, pin } => {
                    // A flip-flop pin is no gate pin: its effect is never
                    // seen in the view.
                    if !ordered(gate) {
                        continue;
                    }
                    branches.push((gate, pin, f.stuck));
                    sites.push((topo.fanin(gate)[pin], !f.stuck));
                    gate
                }
            };
            seeds.push(seed);
            if !in_cone[seed.index()] {
                in_cone[seed.index()] = true;
                stack.push(seed);
            }
        }
        while let Some(id) = stack.pop() {
            for &sink in topo.fanout_sinks(id) {
                if ordered(sink) && !in_cone[sink.index()] {
                    in_cone[sink.index()] = true;
                    stack.push(sink);
                }
            }
        }
        // Sources (stem sites) first, then gates in evaluation order.
        let by_order = |id: &NodeId| topo.order_positions()[id.index()].wrapping_add(1);
        let mut nodes: Vec<NodeId> = (0..n)
            .map(NodeId::from_index)
            .filter(|id| in_cone[id.index()])
            .collect();
        nodes.sort_by_key(by_order);

        // The support: every node the cone reads, transitively.
        let mut in_support = vec![false; n];
        let mut support: Vec<NodeId> = Vec::new();
        for &root in &nodes {
            if in_support[root.index()] {
                continue;
            }
            in_support[root.index()] = true;
            stack.push(root);
            while let Some(id) = stack.pop() {
                support.push(id);
                // A flip-flop is a source here: what it captures belongs
                // to the next frame.
                if !ordered(id) {
                    continue;
                }
                for &src in topo.fanin(id) {
                    if !in_support[src.index()] {
                        in_support[src.index()] = true;
                        stack.push(src);
                    }
                }
            }
        }
        support.sort_by_key(by_order);
        let mut fixed: Vec<Option<bool>> = vec![None; n];
        for &(node, value) in view.fixed {
            fixed[node.index()] = Some(value);
        }
        let exact = support.iter().all(|&id| {
            !matches!(topo.kind(id), GateKind::Input | GateKind::Dff)
                || view.controllable[id.index()]
                || fixed[id.index()].is_some()
        });
        Cone {
            stem,
            branches,
            sites,
            seeds,
            in_cone,
            nodes,
            support,
            fixed,
            exact,
        }
    }

    /// The stuck value injected on pin `pin` of `gate`, if any.
    fn injected(&self, gate: NodeId, pin: usize) -> Option<bool> {
        self.branches
            .iter()
            .find(|&&(g, p, _)| g == gate && p == pin)
            .map(|&(_, _, stuck)| stuck)
    }
}

/// The known values a node can take, as a bit set: bit 0 for 0, bit 1
/// for 1. An empty set means the node is X in every simulation.
type Values = u8;

/// The set holding only `value`.
fn only(value: bool) -> Values {
    1 << u8::from(value)
}

/// Whether `set` holds `value`.
fn holds(set: Values, value: bool) -> bool {
    set & only(value) != 0
}

/// The set with each value negated.
fn negated(set: Values) -> Values {
    (set & 1) << 1 | set >> 1
}

/// The values a gate of `kind` can output when each pin can take the
/// values of its set, independently of the others: a superset of what
/// three-valued simulation can produce, since a known output needs known
/// pins (a controlling one for the AND family, all of them for XOR).
fn gate_values(kind: GateKind, mut pins: impl Iterator<Item = Values>) -> Values {
    let out = match kind {
        GateKind::Const0 => only(false),
        GateKind::Const1 => only(true),
        GateKind::Buf | GateKind::Not => pins.next().expect("one pin"),
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let ctrl = kind.controlling_value().expect("and/or family");
            let (mut any_ctrl, mut all_non) = (false, true);
            for p in pins {
                any_ctrl |= holds(p, ctrl);
                all_non &= holds(p, !ctrl);
            }
            let controlled = if any_ctrl { only(ctrl) } else { 0 };
            controlled | if all_non { only(!ctrl) } else { 0 }
        }
        GateKind::Xor | GateKind::Xnor => pins.fold(only(false), |parity, p| {
            let even = (holds(parity, false) && holds(p, false))
                || (holds(parity, true) && holds(p, true));
            let odd = (holds(parity, false) && holds(p, true))
                || (holds(parity, true) && holds(p, false));
            u8::from(even) | u8::from(odd) << 1
        }),
        GateKind::Input | GateKind::Dff => unreachable!("sources are not evaluated"),
    };
    if kind.output_inverted() {
        negated(out)
    } else {
        out
    }
}

/// The three-valued reachability check: whether a chain of nodes that
/// can carry a known difference runs from an excitable fault to an
/// observable. `false` proves that no assignment of the controllable
/// sources, in three-valued simulation, makes an observable known in
/// both machines and different.
///
/// Soundness: every three-valued simulation of the view refines the
/// value sets, because assigning a source only turns X into a known
/// value. Walk back from an observable whose two values are known and
/// different. A gate whose two outputs are known and different, and
/// which carries no injection, has a pin whose two values are known and
/// different: for the AND family the pin that controls one machine's
/// output, for XOR any pin that differs. So the walk ends at an excited
/// stem site or an excited branch pin, and every node on it passes the
/// test below.
fn reachable(view: &View<'_>, cone: &Cone) -> bool {
    let topo = view.topo;
    let n = topo.num_nodes();
    let mut good: Vec<Values> = vec![0; n];
    for &id in &cone.support {
        good[id.index()] = match topo.kind(id) {
            GateKind::Input | GateKind::Dff => match cone.fixed[id.index()] {
                Some(value) => only(value),
                None if view.controllable[id.index()] => only(false) | only(true),
                None => 0,
            },
            kind => gate_values(kind, topo.fanin(id).iter().map(|s| good[s.index()])),
        };
    }
    let mut faulty: Vec<Values> = vec![0; n];
    // Node index → it can carry a known difference.
    let mut differs = vec![false; n];
    for &id in &cone.nodes {
        let i = id.index();
        if let Some(stuck) = cone.stem[i] {
            faulty[i] = only(stuck);
            differs[i] = holds(good[i], !stuck);
        } else {
            let fanin = topo.fanin(id);
            let pins = fanin
                .iter()
                .enumerate()
                .map(|(pin, &src)| match cone.injected(id, pin) {
                    Some(stuck) => only(stuck),
                    None if cone.in_cone[src.index()] => faulty[src.index()],
                    None => good[src.index()],
                });
            faulty[i] = gate_values(topo.kind(id), pins);
            let fed = fanin
                .iter()
                .enumerate()
                .any(|(pin, &src)| match cone.injected(id, pin) {
                    Some(stuck) => holds(good[src.index()], !stuck),
                    None => differs[src.index()],
                });
            let (g, f) = (good[i], faulty[i]);
            differs[i] =
                fed && ((holds(g, false) && holds(f, true)) || (holds(g, true) && holds(f, false)));
        }
        if differs[i] && view.observable[i] {
            return true;
        }
    }
    false
}

/// Encodes the miter of the faults behind `cone`, over a view exact for
/// them, into a solver. Also returns each node's good-copy variable
/// (`u32::MAX` for a node with none: outside the support, settled, or
/// read only by settled nodes).
fn miter(view: &View<'_>, cone: &Cone) -> (Solver, Vec<u32>) {
    debug_assert!(cone.exact);
    let topo = view.topo;
    let n = topo.num_nodes();
    let ordered = |id: NodeId| topo.order_positions()[id.index()] != u32::MAX;
    let Cone {
        stem,
        sites,
        seeds,
        in_cone,
        support,
        fixed,
        ..
    } = cone;
    let mut stack: Vec<NodeId> = Vec::new();

    // Three-valued values under the fixed sources alone, free sources X:
    // a node they settle is a constant of the miter, with no variable and
    // no clauses.
    let mut good_known = vec![V3::X; n];
    for &id in support {
        good_known[id.index()] = match topo.kind(id) {
            GateKind::Input | GateKind::Dff => fixed[id.index()].map_or(V3::X, V3::from_bool),
            kind => eval_v3(kind, topo.fanin(id).iter().map(|s| good_known[s.index()])),
        };
    }
    let mut faulty_known = vec![V3::X; n];
    for &id in &cone.nodes {
        let value = match stem[id.index()] {
            Some(stuck) => V3::from_bool(stuck),
            None => {
                let pins = topo.fanin(id).iter().enumerate();
                eval_v3(
                    topo.kind(id),
                    pins.map(|(pin, &src)| match cone.injected(id, pin) {
                        Some(stuck) => V3::from_bool(stuck),
                        None if in_cone[src.index()] => faulty_known[src.index()],
                        None => good_known[src.index()],
                    }),
                )
            }
        };
        faulty_known[id.index()] = value;
    }
    // What the encoding reads: the cone and the fault sites, and
    // transitively what their unsettled nodes read.
    let mut needed = in_cone.clone();
    stack.extend_from_slice(&cone.nodes);
    for &(site, _) in sites {
        if !needed[site.index()] {
            needed[site.index()] = true;
            stack.push(site);
        }
    }
    while let Some(id) = stack.pop() {
        let unsettled = !good_known[id.index()].is_known()
            || (in_cone[id.index()] && !faulty_known[id.index()].is_known());
        if !ordered(id) || !unsettled {
            continue;
        }
        for &src in topo.fanin(id) {
            if !needed[src.index()] {
                needed[src.index()] = true;
                stack.push(src);
            }
        }
    }
    let mut solver = Solver::new();
    let one = solver.new_var();
    solver.add_clause(&[Lit::new(one, true)]);
    let constant = |value: bool| Lit::new(one, value);
    let literal = |vars: &[u32], known: &[V3], id: NodeId| match known[id.index()].to_bool() {
        Some(value) => constant(value),
        None => Lit::new(vars[id.index()], true),
    };
    // The good copy.
    let open = |id: &&NodeId| needed[id.index()] && !good_known[id.index()].is_known();
    let mut good = vec![u32::MAX; n];
    for &id in support.iter().filter(open) {
        good[id.index()] = solver.new_var();
    }
    let mut pins: Vec<Lit> = Vec::new();
    for &id in support.iter().filter(open).filter(|&&id| ordered(id)) {
        pins.clear();
        pins.extend(
            topo.fanin(id)
                .iter()
                .map(|&src| literal(&good, &good_known, src)),
        );
        let out = literal(&good, &good_known, id);
        solver.encode_gate(topo.kind(id), out, &pins);
    }
    // The faulty copy.
    let mut faulty = vec![u32::MAX; n];
    for &id in &cone.nodes {
        if !faulty_known[id.index()].is_known() {
            faulty[id.index()] = solver.new_var();
        }
    }
    for &id in cone
        .nodes
        .iter()
        .filter(|id| !faulty_known[id.index()].is_known())
    {
        pins.clear();
        for (pin, &src) in topo.fanin(id).iter().enumerate() {
            pins.push(match cone.injected(id, pin) {
                Some(stuck) => constant(stuck),
                None if in_cone[src.index()] => literal(&faulty, &faulty_known, src),
                None => literal(&good, &good_known, src),
            });
        }
        let out = literal(&faulty, &faulty_known, id);
        solver.encode_gate(topo.kind(id), out, &pins);
    }
    // Some fault is excited.
    let excited: Vec<Lit> = sites
        .iter()
        .map(|&(node, value)| {
            let g = literal(&good, &good_known, node);
            if value {
                g
            } else {
                !g
            }
        })
        .collect();
    solver.add_clause(&excited);
    // Active paths: an active node differs, and unless it is observable
    // one of the gates reading it is active too (a flip-flop ends the
    // path in this frame). Some fault's start is active, so an active
    // path runs from it to an observable. A node settled to equal good
    // and faulty values is never active.
    let mut active = vec![u32::MAX; n];
    for &id in &cone.nodes {
        let (g, f) = (good_known[id.index()], faulty_known[id.index()]);
        if !g.is_known() || g != f {
            active[id.index()] = solver.new_var();
        }
    }
    let active_lit = |active: &[u32], id: NodeId| match active[id.index()] {
        u32::MAX => constant(false),
        var => Lit::new(var, true),
    };
    for &id in cone
        .nodes
        .iter()
        .filter(|id| active[id.index()] != u32::MAX)
    {
        let a = active_lit(&active, id);
        let g = literal(&good, &good_known, id);
        let f = literal(&faulty, &faulty_known, id);
        solver.add_clause(&[!a, g, f]);
        solver.add_clause(&[!a, !g, !f]);
        if !view.observable[id.index()] {
            pins.clear();
            pins.push(!a);
            let readers = topo.fanout_sinks(id).iter();
            let gates = readers.filter(|&&r| ordered(r) && in_cone[r.index()]);
            pins.extend(gates.map(|&r| active_lit(&active, r)));
            solver.add_clause(&pins);
        }
    }
    let starts: Vec<Lit> = seeds.iter().map(|&id| active_lit(&active, id)).collect();
    solver.add_clause(&starts);
    (solver, good)
}

/// A literal: variable `var` taken positively (`2·var`) or negated
/// (`2·var + 1`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Lit(u32);

impl Lit {
    /// The literal that holds when `var` takes `value`.
    fn new(var: u32, value: bool) -> Lit {
        Lit(var << 1 | u32::from(!value))
    }

    fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// The value of its variable under which the literal holds.
    fn sign(self) -> bool {
        self.0 & 1 == 0
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// A solver verdict.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum SatResult {
    /// A satisfying assignment exists (and is held by the solver).
    Sat,
    /// No assignment satisfies every clause.
    Unsat,
    /// The conflict budget ran out first.
    Unknown,
}

/// One watcher of a clause: the clause and another of its literals,
/// whose truth satisfies the clause without visiting it.
#[derive(Copy, Clone, Debug)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// Reason of a decision or of a level-0 fact.
const NO_REASON: u32 = u32::MAX;

/// A CDCL solver. Clauses are added at decision level 0, before
/// [`Solver::solve`].
#[derive(Debug, Default)]
struct Solver {
    /// Every clause's literals, back to back; `clauses[c]` is `(start,
    /// len)` into it. The first two literals of a clause are watched, and
    /// a clause that implied a literal holds it first.
    lits: Vec<Lit>,
    clauses: Vec<(u32, u32)>,
    /// Literal index → the clauses watching it, visited when it turns
    /// false.
    watches: Vec<Vec<Watch>>,
    assign: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    /// Trail length where each decision level starts.
    trail_lim: Vec<usize>,
    /// Trail position of the next literal to propagate.
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    /// The value each variable last held, tried first when it is next
    /// decided.
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Scratch for [`Solver::add_clause`] and conflict analysis.
    buffer: Vec<Lit>,
    /// An empty clause was derived at level 0.
    unsat: bool,
    conflicts: u64,
}

impl Solver {
    fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            ..Solver::default()
        }
    }

    fn new_var(&mut self) -> u32 {
        let v = self.assign.len() as u32;
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var()].map(|v| v == l.sign())
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause at level 0, dropping false and repeated literals and
    /// skipping satisfied or tautological clauses.
    fn add_clause(&mut self, clause: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        if self.unsat {
            return;
        }
        let mut c = std::mem::take(&mut self.buffer);
        c.clear();
        c.extend_from_slice(clause);
        c.sort_unstable_by_key(|l| l.0);
        c.dedup();
        let tautology = c.windows(2).any(|w| w[0] == !w[1]);
        if !tautology && !c.iter().any(|&l| self.value(l) == Some(true)) {
            c.retain(|&l| self.value(l).is_none());
            match c.len() {
                0 => self.unsat = true,
                1 => self.enqueue(c[0], NO_REASON),
                _ => {
                    self.attach(&c);
                }
            }
        }
        self.buffer = c;
    }

    /// Stores `c` (two literals or more) and watches its first two.
    fn attach(&mut self, c: &[Lit]) -> u32 {
        let id = self.clauses.len() as u32;
        self.clauses.push((self.lits.len() as u32, c.len() as u32));
        self.lits.extend_from_slice(c);
        self.watches[c[0].index()].push(Watch {
            clause: id,
            blocker: c[1],
        });
        self.watches[c[1].index()].push(Watch {
            clause: id,
            blocker: c[0],
        });
        id
    }

    /// Tseitin clauses for `out = kind(pins)`.
    fn encode_gate(&mut self, kind: GateKind, out: Lit, pins: &[Lit]) {
        match kind {
            GateKind::Buf | GateKind::Not => {
                let a = if kind == GateKind::Not {
                    !pins[0]
                } else {
                    pins[0]
                };
                self.add_clause(&[!out, a]);
                self.add_clause(&[out, !a]);
            }
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                // `y` holds iff every pin holds its non-controlling value:
                // the AND of the pins' non-controlling literals.
                let ctrl = kind.controlling_value().expect("and/or family");
                let y = if ctrl == kind.output_inverted() {
                    out
                } else {
                    !out
                };
                let non_controlling = |p: Lit| if ctrl { !p } else { p };
                let mut all = Vec::with_capacity(pins.len() + 1);
                all.push(y);
                for &p in pins {
                    self.add_clause(&[!y, non_controlling(p)]);
                    all.push(!non_controlling(p));
                }
                self.add_clause(&all);
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut acc = pins[0];
                for &p in &pins[1..] {
                    let t = Lit::new(self.new_var(), true);
                    self.add_clause(&[!t, acc, p]);
                    self.add_clause(&[!t, !acc, !p]);
                    self.add_clause(&[t, !acc, p]);
                    self.add_clause(&[t, acc, !p]);
                    acc = t;
                }
                let y = if kind == GateKind::Xnor { !out } else { out };
                self.add_clause(&[!y, acc]);
                self.add_clause(&[y, !acc]);
            }
            GateKind::Const0 | GateKind::Const1 | GateKind::Input | GateKind::Dff => {
                unreachable!("constants are settled and sources are not gates")
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var();
        self.assign[v] = Some(l.sign());
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Propagates every queued literal; returns a conflicting clause.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let false_lit = !self.trail[self.qhead];
            self.qhead += 1;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let (mut i, mut j) = (0, 0);
            let mut conflict = None;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value(w.blocker) == Some(true) {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let (start, len) = self.clauses[w.clause as usize];
                let (start, len) = (start as usize, len as usize);
                if self.lits[start] == false_lit {
                    self.lits.swap(start, start + 1);
                }
                let first = self.lits[start];
                let kept = Watch {
                    clause: w.clause,
                    blocker: first,
                };
                if first != w.blocker && self.value(first) == Some(true) {
                    ws[j] = kept;
                    j += 1;
                    continue;
                }
                // Another literal that is not false takes over the watch.
                if let Some(k) = (2..len).find(|&k| self.value(self.lits[start + k]) != Some(false))
                {
                    self.lits.swap(start + 1, start + k);
                    self.watches[self.lits[start + 1].index()].push(kept);
                    continue;
                }
                ws[j] = kept;
                j += 1;
                if self.value(first) == Some(false) {
                    conflict = Some(w.clause);
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                } else {
                    self.enqueue(first, w.clause);
                }
            }
            ws.truncate(j);
            self.watches[false_lit.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis: the learnt clause, asserting literal
    /// first and a literal of the backjump level second, and that level.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, usize) {
        let mut learnt = vec![Lit(0)];
        let mut pending = 0usize;
        let mut idx = self.trail.len();
        let mut clause = conflict;
        let mut skip = 0;
        let current = self.decision_level() as u32;
        let uip = loop {
            let (start, len) = self.clauses[clause as usize];
            for k in skip..len as usize {
                let q = self.lits[start as usize + k];
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.bump(v);
                    self.seen[v] = true;
                    if self.level[v] >= current {
                        pending += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            let p = loop {
                idx -= 1;
                if self.seen[self.trail[idx].var()] {
                    break self.trail[idx];
                }
            };
            self.seen[p.var()] = false;
            pending -= 1;
            if pending == 0 {
                break p;
            }
            clause = self.reason[p.var()];
            skip = 1;
        };
        learnt[0] = !uip;
        // Drop literals implied by the rest of the clause.
        let mut marked = std::mem::take(&mut self.buffer);
        marked.clear();
        marked.extend_from_slice(&learnt);
        let mut kept = 1;
        for i in 1..learnt.len() {
            let q = learnt[i];
            let r = self.reason[q.var()];
            let implied = r != NO_REASON && {
                let (start, len) = self.clauses[r as usize];
                (1..len as usize).all(|k| {
                    let v = self.lits[start as usize + k].var();
                    self.seen[v] || self.level[v] == 0
                })
            };
            if !implied {
                learnt[kept] = q;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        for l in &marked[1..] {
            self.seen[l.var()] = false;
        }
        self.buffer = marked;
        let mut back = 0;
        if learnt.len() > 1 {
            let at = (1..learnt.len())
                .max_by_key(|&i| (self.level[learnt[i].var()], std::cmp::Reverse(i)))
                .expect("two literals or more");
            learnt.swap(1, at);
            back = self.level[learnt[1].var()] as usize;
        }
        (learnt, back)
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.increase(v as u32, &self.activity);
    }

    /// Undoes every assignment above decision level `level`, saving each
    /// variable's phase.
    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let to = self.trail_lim[level];
        for i in (to..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.phase[v] = self.assign[v].expect("trail literals are assigned");
            self.assign[v] = None;
            self.reason[v] = NO_REASON;
            self.heap.insert(v as u32, &self.activity);
        }
        self.trail.truncate(to);
        self.trail_lim.truncate(level);
        self.qhead = to;
    }

    /// The unassigned variable of highest activity, at its saved phase.
    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assign[v as usize].is_none() {
                return Some(Lit::new(v, self.phase[v as usize]));
            }
        }
        None
    }

    /// Decides the clauses within `budget` conflicts in all (counted
    /// across calls).
    fn solve(&mut self, budget: u64) -> SatResult {
        if self.unsat || self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        let mut restarts = 0;
        loop {
            let limit = RESTART_BASE * luby(restarts);
            restarts += 1;
            let mut since_restart = 0;
            loop {
                if let Some(conflict) = self.propagate() {
                    self.conflicts += 1;
                    since_restart += 1;
                    if self.decision_level() == 0 {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                    let (learnt, back) = self.analyze(conflict);
                    self.cancel_until(back);
                    if learnt.len() == 1 {
                        self.enqueue(learnt[0], NO_REASON);
                    } else {
                        let c = self.attach(&learnt);
                        self.enqueue(learnt[0], c);
                    }
                    self.var_inc /= VAR_DECAY;
                    if self.conflicts >= budget {
                        return SatResult::Unknown;
                    }
                } else if since_restart >= limit {
                    self.cancel_until(0);
                    break;
                } else {
                    match self.pick_branch() {
                        None => return SatResult::Sat,
                        Some(l) => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(l, NO_REASON);
                        }
                    }
                }
            }
        }
    }
}

/// The Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, … at index `i`.
fn luby(mut i: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) >> 1;
        seq -= 1;
        i %= size;
    }
    1 << seq
}

/// Binary max-heap of variables by activity, ties to the lower index.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<u32>,
    /// Variable → its heap slot, `u32::MAX` when absent.
    slot: Vec<u32>,
}

impl VarHeap {
    fn above(a: u32, b: u32, activity: &[f64]) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn insert(&mut self, v: u32, activity: &[f64]) {
        if self.slot.len() <= v as usize {
            self.slot.resize(v as usize + 1, u32::MAX);
        }
        if self.slot[v as usize] != u32::MAX {
            return;
        }
        self.slot[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.up(self.heap.len() - 1, activity);
    }

    /// Restores the order after `v`'s activity rose.
    fn increase(&mut self, v: u32, activity: &[f64]) {
        if let Some(&at) = self.slot.get(v as usize).filter(|&&s| s != u32::MAX) {
            self.up(at as usize, activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.slot[top as usize] = u32::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.slot[last as usize] = 0;
            self.down(0, activity);
        }
        Some(top)
    }

    fn up(&mut self, mut at: usize, activity: &[f64]) {
        let v = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if !Self::above(v, self.heap[parent], activity) {
                break;
            }
            self.heap[at] = self.heap[parent];
            self.slot[self.heap[at] as usize] = at as u32;
            at = parent;
        }
        self.heap[at] = v;
        self.slot[v as usize] = at as u32;
    }

    fn down(&mut self, mut at: usize, activity: &[f64]) {
        let v = self.heap[at];
        loop {
            let left = 2 * at + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::above(self.heap[right], self.heap[left], activity)
            {
                right
            } else {
                left
            };
            if !Self::above(self.heap[child], v, activity) {
                break;
            }
            self.heap[at] = self.heap[child];
            self.slot[self.heap[at] as usize] = at as u32;
            at = child;
        }
        self.heap[at] = v;
        self.slot[v as usize] = at as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_fault::{all_faults, collapse};
    use fscan_netlist::{generate, Circuit, GeneratorConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A generated circuit and a view of it: every source controllable,
    /// fixed or, when the case allows X state, neither; at most 12
    /// controllable. Observables are some primary outputs and some
    /// flip-flop D nets, as in the scan-mode view.
    struct Case {
        circuit: Circuit,
        topo: CompiledTopology,
        controllable: Vec<bool>,
        fixed: Vec<(NodeId, bool)>,
        observable: Vec<bool>,
    }

    impl Case {
        fn generate(seed: u64, gates: usize, x_sources: bool) -> Case {
            let mut rng = StdRng::seed_from_u64(seed);
            let circuit = generate(
                &GeneratorConfig::new("miter", seed)
                    .inputs(rng.gen_range(2..8usize))
                    .gates(gates)
                    .dffs(rng.gen_range(0..7usize)),
            );
            let topo = CompiledTopology::compile(&circuit);
            let n = circuit.num_nodes();
            let mut controllable = vec![false; n];
            let mut fixed = Vec::new();
            let mut free = 0;
            for &src in circuit.inputs().iter().chain(circuit.dffs()) {
                match rng.gen_range(0..5u32) {
                    0 => fixed.push((src, rng.gen_bool(0.5))),
                    1 if x_sources => {}
                    _ if free < 12 => {
                        controllable[src.index()] = true;
                        free += 1;
                    }
                    _ => fixed.push((src, rng.gen_bool(0.5))),
                }
            }
            let mut observable = vec![false; n];
            let captures = circuit.dffs().iter().map(|&ff| circuit.node(ff).fanin()[0]);
            for o in circuit.outputs().iter().copied().chain(captures) {
                if rng.gen_bool(0.6) {
                    observable[o.index()] = true;
                }
            }
            Case {
                circuit,
                topo,
                controllable,
                fixed,
                observable,
            }
        }

        fn view(&self) -> View<'_> {
            View {
                topo: &self.topo,
                controllable: &self.controllable,
                fixed: &self.fixed,
                observable: &self.observable,
            }
        }

        fn free_sources(&self) -> Vec<NodeId> {
            let c = &self.circuit;
            c.inputs()
                .iter()
                .chain(c.dffs())
                .copied()
                .filter(|s| self.controllable[s.index()])
                .collect()
        }

        /// Whether some node of the faults' fanout cone depends on a
        /// source that is neither controllable nor fixed, by one
        /// topological sweep.
        fn cone_reads_x(&self, faults: &[Fault]) -> bool {
            let n = self.circuit.num_nodes();
            let mut in_cone = vec![false; n];
            let mut reads_x = vec![false; n];
            for &src in self.circuit.inputs().iter().chain(self.circuit.dffs()) {
                reads_x[src.index()] =
                    !self.controllable[src.index()] && !self.fixed.iter().any(|&(f, _)| f == src);
            }
            for f in faults {
                if let FaultSite::Stem(node) = f.site {
                    in_cone[node.index()] = true;
                }
            }
            for &id in self.topo.eval_order() {
                let fanin = self.topo.fanin(id);
                let branch = faults
                    .iter()
                    .any(|f| matches!(f.site, FaultSite::Branch { gate, .. } if gate == id));
                in_cone[id.index()] |= branch || fanin.iter().any(|s| in_cone[s.index()]);
                reads_x[id.index()] = fanin.iter().any(|s| reads_x[s.index()]);
            }
            (0..n).any(|i| in_cone[i] && reads_x[i])
        }

        /// Three-valued good and faulty simulation of 64 assignments at
        /// once, each value a `(zeros, ones)` pair of lane masks:
        /// `sources` gives each controllable source's value per lane,
        /// fixed sources hold their values and X sources stay X. Returns
        /// the lanes where some observable is known in both machines and
        /// differs: the lanes that are three-valued tests. In an exact
        /// view no observable reads X, so these are the two-valued tests.
        fn test_lanes(&self, faults: &[Fault], sources: &[(NodeId, u64)]) -> u64 {
            let n = self.circuit.num_nodes();
            let word = |b: bool| if b { (0, !0u64) } else { (!0u64, 0) };
            let mut good = vec![(0u64, 0u64); n];
            for &(src, lanes) in sources {
                good[src.index()] = (!lanes, lanes);
            }
            for &(src, v) in &self.fixed {
                good[src.index()] = word(v);
            }
            let mut bad = good.clone();
            let stem = |id: NodeId| {
                faults
                    .iter()
                    .rev()
                    .find(|f| f.site == FaultSite::Stem(id))
                    .map(|f| word(f.stuck))
            };
            for &src in self.circuit.inputs().iter().chain(self.circuit.dffs()) {
                if let Some(v) = stem(src) {
                    bad[src.index()] = v;
                }
            }
            for &id in self.topo.eval_order() {
                let kind = self.topo.kind(id);
                let fanin = self.topo.fanin(id);
                good[id.index()] = eval_rails(kind, fanin.iter().map(|s| good[s.index()]));
                let pins = fanin.iter().enumerate().map(|(pin, s)| {
                    faults
                        .iter()
                        .find(|f| f.site == FaultSite::Branch { gate: id, pin })
                        .map_or(bad[s.index()], |f| word(f.stuck))
                });
                bad[id.index()] = stem(id).unwrap_or_else(|| eval_rails(kind, pins));
            }
            (0..n).filter(|&i| self.observable[i]).fold(0, |acc, i| {
                let ((g0, g1), (f0, f1)) = (good[i], bad[i]);
                acc | (g0 & f1) | (g1 & f0)
            })
        }

        /// Whether any assignment of the controllable sources is a
        /// three-valued test: every two-valued assignment, 64 per word,
        /// with X sources left X. Leaving a controllable source X too
        /// adds no test, since simulation is monotone: a value known
        /// under a partial assignment stays known under its completions.
        fn testable_by_enumeration(&self, faults: &[Fault]) -> bool {
            let free = self.free_sources();
            let total = 1usize << free.len();
            let valid = if total >= 64 {
                !0u64
            } else {
                (1u64 << total) - 1
            };
            (0..total.div_ceil(64)).any(|w| {
                let sources: Vec<(NodeId, u64)> = free
                    .iter()
                    .enumerate()
                    .map(|(k, &src)| {
                        let lanes = (0..64)
                            .filter(|b| ((w * 64 + b) >> k) & 1 == 1)
                            .fold(0u64, |acc, b| acc | 1 << b);
                        (src, lanes)
                    })
                    .collect();
                self.test_lanes(faults, &sources) & valid != 0
            })
        }
    }

    /// Three-valued gate evaluation on `(zeros, ones)` lane masks.
    fn eval_rails(kind: GateKind, mut pins: impl Iterator<Item = (u64, u64)>) -> (u64, u64) {
        let swap = |(z, o): (u64, u64)| (o, z);
        let and = |(z, o): (u64, u64), (pz, po): (u64, u64)| (z | pz, o & po);
        let or = |(z, o): (u64, u64), (pz, po): (u64, u64)| (z & pz, o | po);
        let xor = |(z, o): (u64, u64), (pz, po): (u64, u64)| (z & pz | o & po, z & po | o & pz);
        match kind {
            GateKind::Const0 => (!0, 0),
            GateKind::Const1 => (0, !0),
            GateKind::Buf => pins.next().expect("one pin"),
            GateKind::Not => swap(pins.next().expect("one pin")),
            GateKind::And => pins.fold((0, !0), and),
            GateKind::Nand => swap(pins.fold((0, !0), and)),
            GateKind::Or => pins.fold((!0, 0), or),
            GateKind::Nor => swap(pins.fold((!0, 0), or)),
            GateKind::Xor => pins.fold((!0, 0), xor),
            GateKind::Xnor => swap(pins.fold((!0, 0), xor)),
            GateKind::Input | GateKind::Dff => unreachable!("sources are not evaluated"),
        }
    }

    /// Fault sets whose cone reads X state, tallied by [`check`].
    #[derive(Default)]
    struct Tally {
        /// Sets with no three-valued test.
        untestable: usize,
        /// Sets the reachability check proved.
        proved: usize,
    }

    /// Checks the screen on one fault set against exhaustive simulation.
    /// Where the cone reads X state, the reachability check runs and
    /// proves only sets with no three-valued test. Otherwise the miter
    /// runs: it proves the set untestable iff no assignment makes an
    /// observable differ, and a satisfying model is such an assignment.
    fn check(case: &Case, faults: &[Fault], tally: &mut Tally) {
        let view = case.view();
        let verdict = screen(&view, faults);
        let testable = case.testable_by_enumeration(faults);
        if case.cone_reads_x(faults) {
            let Screen::Reach { proof } = verdict else {
                panic!("the miter ran on a view with X state: {faults:?}");
            };
            assert!(
                !(proof && testable),
                "proved {faults:?}, which has a three-valued test"
            );
            tally.untestable += usize::from(!testable);
            tally.proved += usize::from(proof);
            return;
        }
        let Screen::Miter { result, .. } = verdict else {
            panic!("an exact view ran the reachability check: {faults:?}");
        };
        let expected = if testable {
            SatResult::Sat
        } else {
            SatResult::Unsat
        };
        assert_eq!(result, expected, "{faults:?}");
        if testable {
            let (mut solver, good) = miter(&view, &Cone::new(&view, faults));
            assert_eq!(solver.solve(CONFLICT_BUDGET), SatResult::Sat);
            let sources: Vec<(NodeId, u64)> = case
                .free_sources()
                .into_iter()
                .map(|src| {
                    let var = good[src.index()];
                    let value = var != u32::MAX && solver.assign[var as usize] == Some(true);
                    (src, if value { !0 } else { 0 })
                })
                .collect();
            assert!(
                case.test_lanes(faults, &sources) != 0,
                "the model of {faults:?} is no test"
            );
        }
    }

    /// Checks every collapsed fault of `case` and eight random fault
    /// pairs.
    fn check_case(case: &Case, seed: u64, tally: &mut Tally) {
        let faults = collapse(&case.circuit, &all_faults(&case.circuit));
        for &fault in &faults {
            check(case, &[fault], tally);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a7);
        for _ in 0..8 {
            let pair = [
                faults[rng.gen_range(0..faults.len())],
                faults[rng.gen_range(0..faults.len())],
            ];
            check(case, &pair, tally);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random small circuits and views, for every collapsed fault
        /// and for random fault pairs: where the fanout cone reads X
        /// state, the reachability check proves only faults that no
        /// three-valued simulation detects; otherwise the miter proves
        /// the faults untestable exactly when exhaustive two-valued
        /// simulation finds no assignment that makes an observable
        /// differ.
        #[test]
        fn screen_matches_exhaustive_simulation(
            seed in any::<u64>(),
            gates in 4usize..80,
            x_sources in any::<bool>(),
        ) {
            check_case(&Case::generate(seed, gates, x_sources), seed, &mut Tally::default());
        }
    }

    /// The reachability check is not vacuous: on fixed views with X
    /// sources it proves most fault sets that have no three-valued test,
    /// and each proof is checked against exhaustive simulation.
    #[test]
    fn reachability_proves_most_x_untestable_faults() {
        let mut tally = Tally::default();
        for seed in 0..60u64 {
            let gates = 4 + (seed as usize * 37) % 76;
            check_case(&Case::generate(seed, gates, true), seed, &mut tally);
        }
        eprintln!("proved {} of {}", tally.proved, tally.untestable);
        assert!(
            tally.untestable >= 100,
            "{} untestable sets",
            tally.untestable
        );
        assert!(
            tally.proved * 10 >= tally.untestable * 8,
            "proved {} of {} untestable sets",
            tally.proved,
            tally.untestable
        );
    }

    #[test]
    fn proves_the_classic_redundancy_and_finds_a_test_otherwise() {
        // y = a OR (a AND b): the AND output stuck-at-0 is redundant, the
        // AND output stuck-at-1 is not.
        let mut c = Circuit::new("red");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b], "g");
        let y = c.add_gate(GateKind::Or, vec![a, g], "y");
        c.mark_output(y);
        let topo = CompiledTopology::compile(&c);
        let mut controllable = vec![false; c.num_nodes()];
        controllable[a.index()] = true;
        controllable[b.index()] = true;
        let mut observable = vec![false; c.num_nodes()];
        observable[y.index()] = true;
        let view = View {
            topo: &topo,
            controllable: &controllable,
            fixed: &[],
            observable: &observable,
        };
        let proof = screen(&view, &[Fault::stem(g, false)]);
        assert!(matches!(
            proof,
            Screen::Miter {
                result: SatResult::Unsat,
                ..
            }
        ));
        let test = screen(&view, &[Fault::stem(g, true)]);
        assert!(matches!(
            test,
            Screen::Miter {
                result: SatResult::Sat,
                ..
            }
        ));
        // With b left X, the cone of g reads X state and the reachability
        // check runs: g can be 0 but never 1, so stuck-at-0 is never
        // excited, and stuck-at-1 reaches y through the OR when a = 0.
        let a_only: Vec<bool> = (0..c.num_nodes()).map(|i| i == a.index()).collect();
        let view = View {
            controllable: &a_only,
            ..view
        };
        assert_eq!(
            screen(&view, &[Fault::stem(g, false)]),
            Screen::Reach { proof: true }
        );
        assert_eq!(
            screen(&view, &[Fault::stem(g, true)]),
            Screen::Reach { proof: false }
        );
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }
}
