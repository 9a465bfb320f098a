//! The five-valued D-calculus, represented as good/faulty value pairs.

use std::fmt;

use fscan_netlist::GateKind;
use fscan_sim::kernel::{self, DualRail};
use fscan_sim::V3;

/// A five-valued (Roth D-calculus) logic value, stored as the pair of
/// the good-machine and faulty-machine three-valued values.
///
/// The classic five values map as: `0 = (0,0)`, `1 = (1,1)`,
/// `D = (1,0)`, `D̄ = (0,1)`, `X` = anything involving an unknown.
/// Keeping the two machines explicit makes gate evaluation trivially
/// correct: evaluate each machine independently.
///
/// The pair is one two-lane dual-rail value on the kernel's byte rail:
/// lane 0 is the good machine, lane 1 the faulty one, and the other six
/// lanes stay X. One [`kernel::eval_gate`] walk evaluates both machines.
///
/// # Examples
///
/// ```
/// use fscan_atpg::D5;
/// use fscan_sim::V3;
///
/// let d = D5::D;
/// assert_eq!(d.good(), V3::One);
/// assert_eq!(d.faulty(), V3::Zero);
/// assert!(d.is_fault_effect());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct D5 {
    rails: DualRail<u8>,
}

/// The lanes a [`D5`] uses: good (bit 0) and faulty (bit 1).
const GOOD: u8 = 0b01;
const FAULTY: u8 = 0b10;
const PAIR: u8 = GOOD | FAULTY;

impl D5 {
    /// Both machines at 0.
    pub const ZERO: D5 = D5::from_bytes(PAIR, 0);
    /// Both machines at 1.
    pub const ONE: D5 = D5::from_bytes(0, PAIR);
    /// Good 1, faulty 0 (Roth's D).
    pub const D: D5 = D5::from_bytes(FAULTY, GOOD);
    /// Good 0, faulty 1 (Roth's D̄).
    pub const DBAR: D5 = D5::from_bytes(GOOD, FAULTY);
    /// Both machines unknown.
    pub const X: D5 = D5::from_bytes(0, 0);

    const fn from_bytes(zeros: u8, ones: u8) -> D5 {
        D5 {
            rails: DualRail::from_bytes(zeros, ones),
        }
    }

    /// The bits of `lane` set by `v`: (zeros, ones).
    fn lane_bits(v: V3, lane: u8) -> (u8, u8) {
        match v {
            V3::Zero => (lane, 0),
            V3::One => (0, lane),
            V3::X => (0, 0),
        }
    }

    fn lane(self, lane: u8) -> V3 {
        if self.rails.zeros() & lane != 0 {
            V3::Zero
        } else if self.rails.ones() & lane != 0 {
            V3::One
        } else {
            V3::X
        }
    }

    /// Builds a value from its machine pair.
    pub fn new(good: V3, faulty: V3) -> D5 {
        let (gz, go) = D5::lane_bits(good, GOOD);
        let (fz, fo) = D5::lane_bits(faulty, FAULTY);
        D5 {
            rails: DualRail::new(gz | fz, go | fo),
        }
    }

    /// A known equal value on both machines.
    pub fn known(b: bool) -> D5 {
        if b {
            D5::ONE
        } else {
            D5::ZERO
        }
    }

    /// This value with the faulty machine stuck at `stuck`: a fault
    /// injection, keeping the good machine.
    pub(crate) fn with_faulty(self, stuck: bool) -> D5 {
        let (fz, fo) = D5::lane_bits(V3::from_bool(stuck), FAULTY);
        D5 {
            rails: DualRail::new(
                self.rails.zeros() & GOOD | fz,
                self.rails.ones() & GOOD | fo,
            ),
        }
    }

    /// The good-machine value.
    pub fn good(self) -> V3 {
        self.lane(GOOD)
    }

    /// The faulty-machine value.
    pub fn faulty(self) -> V3 {
        self.lane(FAULTY)
    }

    /// True for D or D̄: both machines known and different.
    pub fn is_fault_effect(self) -> bool {
        self == D5::D || self == D5::DBAR
    }

    /// True when either machine is unknown.
    pub fn has_x(self) -> bool {
        self.rails.known() != PAIR
    }

    /// Evaluates a gate over five-valued inputs in one dual-rail kernel
    /// walk: lane 0 carries the good machine, lane 1 the faulty machine,
    /// so a single pass covers both (no `Clone` bound on the iterator).
    ///
    /// Non-combinational kinds ([`GateKind::Input`], [`GateKind::Dff`])
    /// debug-assert and yield [`D5::X`] in release builds — see
    /// [`fscan_sim::kernel::eval_gate`].
    pub fn eval(kind: GateKind, inputs: impl IntoIterator<Item = D5>) -> D5 {
        let out = kernel::eval_gate(kind, inputs.into_iter().map(|d| d.rails));
        // Constants and empty folds fill every lane; keep the pair's two.
        D5 {
            rails: DualRail::new(out.zeros() & PAIR, out.ones() & PAIR),
        }
    }
}

impl Default for D5 {
    fn default() -> D5 {
        D5::X
    }
}

impl fmt::Debug for D5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for D5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match (self.good(), self.faulty()) {
            (V3::Zero, V3::Zero) => "0",
            (V3::One, V3::One) => "1",
            (V3::One, V3::Zero) => "D",
            (V3::Zero, V3::One) => "D'",
            (V3::X, V3::X) => "X",
            (g, fa) => return write!(f, "({g}/{fa})"),
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d_algebra_and() {
        // D AND D = D; D AND D' = 0; D AND 1 = D; D AND 0 = 0; D AND X = X-ish.
        let and = |a, b| D5::eval(GateKind::And, [a, b]);
        assert_eq!(and(D5::D, D5::D), D5::D);
        assert_eq!(and(D5::D, D5::DBAR), D5::ZERO);
        assert_eq!(and(D5::D, D5::ONE), D5::D);
        assert_eq!(and(D5::D, D5::ZERO), D5::ZERO);
        assert!(and(D5::D, D5::X).has_x());
    }

    #[test]
    fn d_algebra_not() {
        let not = |a| D5::eval(GateKind::Not, [a]);
        assert_eq!(not(D5::D), D5::DBAR);
        assert_eq!(not(D5::DBAR), D5::D);
        assert_eq!(not(D5::ZERO), D5::ONE);
    }

    #[test]
    fn xor_propagates_d() {
        let xor = |a, b| D5::eval(GateKind::Xor, [a, b]);
        assert_eq!(xor(D5::D, D5::ZERO), D5::D);
        assert_eq!(xor(D5::D, D5::ONE), D5::DBAR);
        assert_eq!(xor(D5::D, D5::D), D5::ZERO);
    }

    #[test]
    fn fault_effect_detection() {
        assert!(D5::D.is_fault_effect());
        assert!(D5::DBAR.is_fault_effect());
        assert!(!D5::ONE.is_fault_effect());
        assert!(!D5::X.is_fault_effect());
        assert!(!D5::new(V3::One, V3::X).is_fault_effect());
    }

    /// The nine (good, faulty) pairs.
    fn nine() -> Vec<(V3, V3)> {
        let v3 = [V3::Zero, V3::One, V3::X];
        v3.iter()
            .flat_map(|&g| v3.iter().map(move |&f| (g, f)))
            .collect()
    }

    #[test]
    fn accessors_follow_pair_semantics() {
        assert_eq!(std::mem::size_of::<D5>(), 2);
        for (g, f) in nine() {
            let d = D5::new(g, f);
            assert_eq!((d.good(), d.faulty()), (g, f));
            assert_eq!(d.is_fault_effect(), g.is_known() && f.is_known() && g != f);
            assert_eq!(d.has_x(), !g.is_known() || !f.is_known());
            let shown = match (g, f) {
                (V3::Zero, V3::Zero) => "0".to_string(),
                (V3::One, V3::One) => "1".to_string(),
                (V3::One, V3::Zero) => "D".to_string(),
                (V3::Zero, V3::One) => "D'".to_string(),
                (V3::X, V3::X) => "X".to_string(),
                _ => format!("({g}/{f})"),
            };
            assert_eq!(d.to_string(), shown);
            for stuck in [false, true] {
                assert_eq!(d.with_faulty(stuck), D5::new(g, V3::from_bool(stuck)));
            }
        }
        assert_eq!(D5::ZERO, D5::new(V3::Zero, V3::Zero));
        assert_eq!(D5::ONE, D5::new(V3::One, V3::One));
        assert_eq!(D5::D, D5::new(V3::One, V3::Zero));
        assert_eq!(D5::DBAR, D5::new(V3::Zero, V3::One));
        assert_eq!(D5::X, D5::new(V3::X, V3::X));
        assert_eq!(D5::default(), D5::X);
    }

    #[test]
    fn eval_is_the_kernel_on_each_machine() {
        // Every combinational kind (constants included) over every input
        // tuple of the nine pairs, arity 1-3 or the kind's fixed arity.
        let nine: Vec<D5> = nine().into_iter().map(|(g, f)| D5::new(g, f)).collect();
        let kinds = [GateKind::Const0, GateKind::Const1]
            .into_iter()
            .chain(GateKind::COMBINATIONAL);
        for kind in kinds {
            let arities = match kind.fixed_arity() {
                Some(a) => a..=a,
                None => 1..=3,
            };
            for arity in arities {
                for code in 0..9usize.pow(arity as u32) {
                    let ins: Vec<D5> = (0..arity)
                        .map(|k| nine[code / 9usize.pow(k as u32) % 9])
                        .collect();
                    let good = kernel::eval_v3(kind, ins.iter().map(|d| d.good()));
                    let faulty = kernel::eval_v3(kind, ins.iter().map(|d| d.faulty()));
                    assert_eq!(
                        D5::eval(kind, ins.iter().copied()),
                        D5::new(good, faulty),
                        "{kind} {ins:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(D5::D.to_string(), "D");
        assert_eq!(D5::DBAR.to_string(), "D'");
        assert_eq!(D5::new(V3::One, V3::X).to_string(), "(1/X)");
    }
}
