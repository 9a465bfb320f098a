//! Width-generic packed three-valued values.
//!
//! [`Pv<W>`](Pv) packs `W::LANES` three-valued logic values into one
//! dual-rail pair of lane masks; `Pv<u64>` is the 64-lane instance and
//! [`Pv256`] the 256-lane instance behind the pipeline's default packed
//! width.

use std::fmt;

use fscan_netlist::GateKind;

use crate::kernel::{self, DualRail, NonCombinational, Rail, R256};
use crate::value::V3;

/// `W::LANES` three-valued logic values packed into two lane masks.
///
/// Lane `i` of `zeros`/`ones` describes machine `i`: `zeros` set means
/// 0, `ones` set means 1, neither means X. The invariant
/// `zeros & ones == EMPTY` is maintained by all constructors and
/// operations. All lane-indexed accessors are width-checked in every
/// build profile: an out-of-range lane panics instead of silently
/// wrapping onto the wrong machine.
///
/// # Examples
///
/// ```
/// use fscan_sim::{Pv, Pv256, V3};
///
/// let a = Pv::<u64>::splat(V3::One);
/// let b = Pv::<u64>::splat(V3::X);
/// let c = a.and(b);
/// assert_eq!(c.get(17), V3::X);
/// assert_eq!(a.and(Pv::splat(V3::Zero)).get(0), V3::Zero);
///
/// let wide = Pv256::splat(V3::Zero).with(200, V3::One);
/// assert_eq!(wide.get(200), V3::One);
/// assert_eq!(wide.get(199), V3::Zero);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Pv<W: Rail> {
    zeros: W,
    ones: W,
}

/// The 256-lane packed value (four 64-bit words per rail).
pub type Pv256 = Pv<R256>;

impl<W: Rail> Default for Pv<W> {
    fn default() -> Pv<W> {
        Pv::ALL_X
    }
}

impl<W: Rail> Pv<W> {
    /// All machines at X.
    pub const ALL_X: Pv<W> = Pv {
        zeros: W::EMPTY,
        ones: W::EMPTY,
    };

    /// Creates a packed value from raw masks.
    ///
    /// # Panics
    ///
    /// Panics if `zeros & ones != EMPTY`.
    pub fn from_masks(zeros: W, ones: W) -> Pv<W> {
        assert!((zeros & ones).is_empty(), "contradictory packed value");
        Pv { zeros, ones }
    }

    /// All machines at the same value.
    pub fn splat(v: V3) -> Pv<W> {
        match v {
            V3::Zero => Pv {
                zeros: W::FULL,
                ones: W::EMPTY,
            },
            V3::One => Pv {
                zeros: W::EMPTY,
                ones: W::FULL,
            },
            V3::X => Pv::ALL_X,
        }
    }

    /// The mask of machines holding 0.
    pub fn zeros(self) -> W {
        self.zeros
    }

    /// The mask of machines holding 1.
    pub fn ones(self) -> W {
        self.ones
    }

    /// The mask of machines holding a known value.
    pub fn known(self) -> W {
        self.zeros | self.ones
    }

    /// The value of machine `lane`.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= W::LANES` — in release builds too. The old
    /// `1u64 << lane` read the *wrong machine* (`lane % 64`) on an
    /// out-of-range index in release builds; [`Rail::lane_bit`] is the
    /// checked replacement.
    pub fn get(self, lane: u32) -> V3 {
        let bit = W::lane_bit(lane);
        if !(self.zeros & bit).is_empty() {
            V3::Zero
        } else if !(self.ones & bit).is_empty() {
            V3::One
        } else {
            V3::X
        }
    }

    /// Returns a copy with machine `lane` set to `v`.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= W::LANES` — see [`Pv::get`].
    #[must_use]
    pub fn with(self, lane: u32, v: V3) -> Pv<W> {
        let bit = W::lane_bit(lane);
        let mut r = Pv {
            zeros: self.zeros & !bit,
            ones: self.ones & !bit,
        };
        match v {
            V3::Zero => r.zeros |= bit,
            V3::One => r.ones |= bit,
            V3::X => {}
        }
        r
    }

    /// Forces the machines in `mask` to the Boolean value `stuck`
    /// (stuck-at injection).
    #[must_use]
    pub fn force(self, mask: W, stuck: bool) -> Pv<W> {
        if stuck {
            Pv {
                zeros: self.zeros & !mask,
                ones: self.ones | mask,
            }
        } else {
            Pv {
                zeros: self.zeros | mask,
                ones: self.ones & !mask,
            }
        }
    }

    // The logic operations delegate to the dual-rail kernel (`Pv<W>` is
    // its `W`-lane instance), so the workspace has exactly one
    // three-valued truth table.

    /// Lane-wise NOT.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pv<W> {
        DualRail::from(self).not().into()
    }

    /// Lane-wise three-valued AND.
    #[must_use]
    pub fn and(self, rhs: Pv<W>) -> Pv<W> {
        DualRail::from(self).and(rhs.into()).into()
    }

    /// Lane-wise three-valued OR.
    #[must_use]
    pub fn or(self, rhs: Pv<W>) -> Pv<W> {
        DualRail::from(self).or(rhs.into()).into()
    }

    /// Lane-wise three-valued XOR.
    #[must_use]
    pub fn xor(self, rhs: Pv<W>) -> Pv<W> {
        DualRail::from(self).xor(rhs.into()).into()
    }

    /// Evaluates a combinational gate kind lane-wise through the
    /// dual-rail kernel.
    ///
    /// Non-combinational kinds ([`GateKind::Input`], [`GateKind::Dff`])
    /// debug-assert and yield all-X in release builds — see
    /// [`kernel::eval_gate`]; use [`Pv::try_eval`] to handle them as a
    /// typed error.
    pub fn eval(kind: GateKind, inputs: impl IntoIterator<Item = Pv<W>>) -> Pv<W> {
        kernel::eval_gate(kind, inputs.into_iter().map(DualRail::from)).into()
    }

    /// [`Pv::eval`] returning a typed error for non-combinational
    /// kinds.
    pub fn try_eval(
        kind: GateKind,
        inputs: impl IntoIterator<Item = Pv<W>>,
    ) -> Result<Pv<W>, NonCombinational> {
        kernel::try_eval_gate(kind, inputs.into_iter().map(DualRail::from)).map(Pv::from)
    }
}

impl<W: Rail> From<Pv<W>> for DualRail<W> {
    fn from(p: Pv<W>) -> DualRail<W> {
        DualRail::new(p.zeros, p.ones)
    }
}

impl<W: Rail> From<DualRail<W>> for Pv<W> {
    fn from(d: DualRail<W>) -> Pv<W> {
        Pv {
            zeros: d.zeros(),
            ones: d.ones(),
        }
    }
}

impl<W: Rail> fmt::Debug for Pv<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Pv<{} lanes>(zeros={:?}, ones={:?})",
            W::LANES,
            self.zeros,
            self.ones
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_pv<W: Rail>(rng: &mut StdRng) -> Pv<W> {
        let mut p = Pv::ALL_X;
        for lane in 0..W::LANES {
            let v = match rng.gen_range(0..3) {
                0 => V3::Zero,
                1 => V3::One,
                _ => V3::X,
            };
            p = p.with(lane, v);
        }
        p
    }

    #[test]
    fn splat_get_roundtrip() {
        for v in [V3::Zero, V3::One, V3::X] {
            let p = Pv::<u64>::splat(v);
            for lane in [0, 13, 63] {
                assert_eq!(p.get(lane), v);
            }
            let w = Pv256::splat(v);
            for lane in [0, 64, 129, 255] {
                assert_eq!(w.get(lane), v);
            }
        }
    }

    fn lanes_agree_at<W: Rail>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let a = random_pv::<W>(&mut rng);
            let b = random_pv::<W>(&mut rng);
            for lane in 0..W::LANES {
                let (va, vb) = (a.get(lane), b.get(lane));
                assert_eq!(a.and(b).get(lane), va & vb);
                assert_eq!(a.or(b).get(lane), va | vb);
                assert_eq!(a.xor(b).get(lane), va ^ vb);
                assert_eq!(a.not().get(lane), !va);
            }
        }
    }

    #[test]
    fn lanes_agree_with_v3_semantics() {
        lanes_agree_at::<u64>(11);
        lanes_agree_at::<R256>(12);
    }

    #[test]
    fn force_overrides_everything() {
        let p = Pv::<u64>::splat(V3::X)
            .force(0b101, true)
            .force(0b010, false);
        assert_eq!(p.get(0), V3::One);
        assert_eq!(p.get(1), V3::Zero);
        assert_eq!(p.get(2), V3::One);
        assert_eq!(p.get(3), V3::X);
        let w = Pv256::splat(V3::X)
            .force(R256::lane_bit(190), true)
            .force(R256::lane_bit(70), false);
        assert_eq!(w.get(190), V3::One);
        assert_eq!(w.get(70), V3::Zero);
        assert_eq!(w.get(71), V3::X);
    }

    #[test]
    fn lane_out_of_range_is_rejected() {
        // A hard (release-mode) check at every width: the old
        // debug_assert let `1u64 << lane` wrap in release builds and
        // read lane `lane % 64` — the wrong machine.
        assert!(std::panic::catch_unwind(|| Pv::<u64>::splat(V3::X).get(64)).is_err());
        assert!(std::panic::catch_unwind(|| Pv::<u64>::splat(V3::X).with(64, V3::One)).is_err());
        assert!(std::panic::catch_unwind(|| Pv256::splat(V3::X).get(256)).is_err());
        assert!(std::panic::catch_unwind(|| Pv256::splat(V3::X).with(256, V3::One)).is_err());
    }

    #[test]
    fn invariant_checked() {
        let r = std::panic::catch_unwind(|| Pv::<u64>::from_masks(1, 1));
        assert!(r.is_err());
        let bad = R256::lane_bit(100);
        let r = std::panic::catch_unwind(|| Pv256::from_masks(bad, bad));
        assert!(r.is_err());
    }

    fn gate_eval_matches_scalar_at<W: Rail>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in GateKind::COMBINATIONAL {
            let arity = kind.fixed_arity().unwrap_or(3);
            let ins: Vec<Pv<W>> = (0..arity).map(|_| random_pv(&mut rng)).collect();
            let out = Pv::eval(kind, ins.iter().copied());
            for lane in 0..W::LANES {
                let scalar = crate::kernel::eval_v3(kind, ins.iter().map(|p| p.get(lane)));
                assert_eq!(out.get(lane), scalar, "{kind} lane {lane}");
            }
        }
    }

    #[test]
    fn gate_eval_lanes_match_scalar() {
        gate_eval_matches_scalar_at::<u64>(5);
        gate_eval_matches_scalar_at::<R256>(6);
    }

    #[test]
    fn try_eval_rejects_non_combinational() {
        let err = Pv::<u64>::try_eval(GateKind::Dff, [Pv::splat(V3::One)]).unwrap_err();
        assert_eq!(err, NonCombinational(GateKind::Dff));
    }
}
