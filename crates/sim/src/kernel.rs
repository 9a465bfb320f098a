//! The dual-rail three-valued gate-evaluation kernel.
//!
//! Every engine in the workspace reasons over the same three-valued
//! algebra (0, 1, X), and before this module each of them carried its
//! own copy of the gate truth tables: scalar [`V3`], 64-lane packed
//! [`Pv<u64>`](crate::Pv), and the ATPG's good/faulty `D5` pairs. This
//! module is the single implementation they all call.
//!
//! The representation is *dual-rail*: a value is a pair of lane masks
//! `(zeros, ones)` where bit `i` of `zeros` set means lane `i` holds 0,
//! bit `i` of `ones` set means it holds 1, and neither means X (the
//! masks are disjoint by invariant). Every three-valued gate function
//! then becomes a handful of bitwise operations, identical for any mask
//! width — [`Rail`] abstracts the width, with `bool` the 1-lane
//! instance behind [`V3`], `u8` the rail behind the ATPG's two-lane
//! good/faulty `D5`, and `u64` the 64-lane instance behind
//! [`Pv<u64>`](crate::Pv).

use std::fmt;
use std::hash::Hash;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, Not};

use fscan_netlist::GateKind;

use crate::value::V3;

/// A lane mask: the rail type of a dual-rail value.
///
/// Implemented for `bool` (one lane), `u8` (8 lanes), `u64` (64 lanes)
/// and [`Lanes<N>`] (`64 * N` lanes). The required operators are
/// lane-wise, so every dual-rail formula written against this trait is
/// automatically lane-exact at any width, and the lane-indexed
/// accessors ([`lane_bit`](Rail::lane_bit), [`low_mask`](Rail::low_mask))
/// are *width-checked in every build profile*: an out-of-range lane
/// index panics instead of silently wrapping onto the wrong lane.
pub trait Rail:
    Copy
    + Eq
    + Hash
    + fmt::Debug
    + Send
    + Sync
    + 'static
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + BitAndAssign
    + BitOrAssign
    + Not<Output = Self>
{
    /// Number of lanes this mask carries.
    const LANES: u32;
    /// No lanes set.
    const EMPTY: Self;
    /// Every lane set.
    const FULL: Self;

    /// The mask with only `lane` set.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= Self::LANES` — in release builds too. A
    /// plain `1u64 << lane` wraps the shift amount on x86 and silently
    /// reads the *wrong lane*; this accessor is the checked replacement.
    fn lane_bit(lane: u32) -> Self;

    /// The mask with the low `n` lanes set (`n == LANES` gives `FULL`).
    ///
    /// # Panics
    ///
    /// Panics when `n > Self::LANES`.
    fn low_mask(n: u32) -> Self;

    /// Number of set lanes.
    fn count(self) -> u32;

    /// Whether no lanes are set.
    fn is_empty(self) -> bool {
        self == Self::EMPTY
    }

    /// Calls `f` with every set lane index, lowest first.
    fn for_each_set_lane(self, f: impl FnMut(u32));
}

#[cold]
#[inline(never)]
fn lane_out_of_range(lane: u32, lanes: u32) -> ! {
    panic!("lane index {lane} out of range for a {lanes}-lane rail");
}

impl Rail for bool {
    const LANES: u32 = 1;
    const EMPTY: bool = false;
    const FULL: bool = true;

    fn lane_bit(lane: u32) -> bool {
        if lane >= 1 {
            lane_out_of_range(lane, 1);
        }
        true
    }

    fn low_mask(n: u32) -> bool {
        if n > 1 {
            lane_out_of_range(n, 1);
        }
        n == 1
    }

    fn count(self) -> u32 {
        self as u32
    }

    fn for_each_set_lane(self, mut f: impl FnMut(u32)) {
        if self {
            f(0);
        }
    }
}

/// The word rails: every bit of a primitive unsigned word is one lane.
macro_rules! word_rail {
    ($($word:ty),*) => {$(
        impl Rail for $word {
            const LANES: u32 = <$word>::BITS;
            const EMPTY: $word = 0;
            const FULL: $word = !0;

            fn lane_bit(lane: u32) -> $word {
                if lane >= Self::LANES {
                    lane_out_of_range(lane, Self::LANES);
                }
                1 << lane
            }

            fn low_mask(n: u32) -> $word {
                match n.cmp(&Self::LANES) {
                    std::cmp::Ordering::Less => (1 << n) - 1,
                    std::cmp::Ordering::Equal => !0,
                    std::cmp::Ordering::Greater => lane_out_of_range(n, Self::LANES),
                }
            }

            fn count(self) -> u32 {
                self.count_ones()
            }

            fn for_each_set_lane(self, mut f: impl FnMut(u32)) {
                let mut m = self;
                while m != 0 {
                    f(m.trailing_zeros());
                    m &= m - 1;
                }
            }
        }
    )*};
}

word_rail!(u8, u64);

/// A wide lane mask: `N` 64-bit words glued into one `64 * N`-lane
/// rail. `Lanes<4>` (aliased [`R256`]) is the 256-lane mask behind the
/// pipeline's default packed width.
///
/// The newtype exists because coherence forbids implementing the `std`
/// bit operators directly on `[u64; N]`; all operators act word-wise,
/// which is exactly lane-wise.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Lanes<const N: usize>(pub [u64; N]);

/// The 256-lane rail (four 64-bit words).
pub type R256 = Lanes<4>;

impl<const N: usize> BitAnd for Lanes<N> {
    type Output = Lanes<N>;
    fn bitand(mut self, rhs: Lanes<N>) -> Lanes<N> {
        for i in 0..N {
            self.0[i] &= rhs.0[i];
        }
        self
    }
}

impl<const N: usize> BitOr for Lanes<N> {
    type Output = Lanes<N>;
    fn bitor(mut self, rhs: Lanes<N>) -> Lanes<N> {
        for i in 0..N {
            self.0[i] |= rhs.0[i];
        }
        self
    }
}

impl<const N: usize> BitXor for Lanes<N> {
    type Output = Lanes<N>;
    fn bitxor(mut self, rhs: Lanes<N>) -> Lanes<N> {
        for i in 0..N {
            self.0[i] ^= rhs.0[i];
        }
        self
    }
}

impl<const N: usize> BitAndAssign for Lanes<N> {
    fn bitand_assign(&mut self, rhs: Lanes<N>) {
        for i in 0..N {
            self.0[i] &= rhs.0[i];
        }
    }
}

impl<const N: usize> BitOrAssign for Lanes<N> {
    fn bitor_assign(&mut self, rhs: Lanes<N>) {
        for i in 0..N {
            self.0[i] |= rhs.0[i];
        }
    }
}

impl<const N: usize> Not for Lanes<N> {
    type Output = Lanes<N>;
    fn not(mut self) -> Lanes<N> {
        for i in 0..N {
            self.0[i] = !self.0[i];
        }
        self
    }
}

impl<const N: usize> Rail for Lanes<N> {
    const LANES: u32 = 64 * N as u32;
    const EMPTY: Lanes<N> = Lanes([0; N]);
    const FULL: Lanes<N> = Lanes([!0; N]);

    fn lane_bit(lane: u32) -> Lanes<N> {
        if lane >= Self::LANES {
            lane_out_of_range(lane, Self::LANES);
        }
        let mut words = [0u64; N];
        words[(lane / 64) as usize] = 1u64 << (lane % 64);
        Lanes(words)
    }

    fn low_mask(n: u32) -> Lanes<N> {
        if n > Self::LANES {
            lane_out_of_range(n, Self::LANES);
        }
        let mut words = [0u64; N];
        for (i, w) in words.iter_mut().enumerate() {
            let lo = i as u32 * 64;
            *w = u64::low_mask(n.saturating_sub(lo).min(64));
        }
        Lanes(words)
    }

    fn count(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    fn for_each_set_lane(self, mut f: impl FnMut(u32)) {
        for (i, &word) in self.0.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                f(i as u32 * 64 + m.trailing_zeros());
                m &= m - 1;
            }
        }
    }
}

/// A dual-rail three-valued value over the lane mask `M`.
///
/// Lane `i` holds 0 when `zeros` has bit `i`, 1 when `ones` has bit
/// `i`, and X when neither; the rails never overlap.
///
/// # Examples
///
/// ```
/// use fscan_sim::kernel::DualRail;
///
/// let zero: DualRail<bool> = DualRail::ZERO;
/// let x: DualRail<bool> = DualRail::ALL_X;
/// assert_eq!(zero.and(x), zero); // controlling 0 wins
/// assert_eq!(zero.or(x), x);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct DualRail<M: Rail> {
    zeros: M,
    ones: M,
}

impl<M: Rail> DualRail<M> {
    /// Every lane at X.
    pub const ALL_X: DualRail<M> = DualRail {
        zeros: M::EMPTY,
        ones: M::EMPTY,
    };
    /// Every lane at 0.
    pub const ZERO: DualRail<M> = DualRail {
        zeros: M::FULL,
        ones: M::EMPTY,
    };
    /// Every lane at 1.
    pub const ONE: DualRail<M> = DualRail {
        zeros: M::EMPTY,
        ones: M::FULL,
    };

    /// Builds a value from its rails.
    ///
    /// The rails must be disjoint (`zeros & ones == EMPTY`); a debug
    /// assertion enforces it.
    pub fn new(zeros: M, ones: M) -> DualRail<M> {
        debug_assert!(zeros & ones == M::EMPTY, "contradictory dual-rail value");
        DualRail { zeros, ones }
    }

    /// The mask of lanes holding 0.
    pub fn zeros(self) -> M {
        self.zeros
    }

    /// The mask of lanes holding 1.
    pub fn ones(self) -> M {
        self.ones
    }

    /// The mask of lanes holding a known value.
    pub fn known(self) -> M {
        self.zeros | self.ones
    }

    /// Lane-wise NOT: swap the rails.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> DualRail<M> {
        DualRail {
            zeros: self.ones,
            ones: self.zeros,
        }
    }

    /// Lane-wise three-valued AND: a 0 on either side controls, a 1
    /// needs both.
    #[must_use]
    pub fn and(self, rhs: DualRail<M>) -> DualRail<M> {
        DualRail {
            zeros: self.zeros | rhs.zeros,
            ones: self.ones & rhs.ones,
        }
    }

    /// Lane-wise three-valued OR: a 1 on either side controls, a 0
    /// needs both.
    #[must_use]
    pub fn or(self, rhs: DualRail<M>) -> DualRail<M> {
        DualRail {
            zeros: self.zeros & rhs.zeros,
            ones: self.ones | rhs.ones,
        }
    }

    /// Lane-wise three-valued XOR: known only where both sides are.
    #[must_use]
    pub fn xor(self, rhs: DualRail<M>) -> DualRail<M> {
        let known = self.known() & rhs.known();
        let val = (self.ones ^ rhs.ones) & known;
        DualRail {
            zeros: known & !val,
            ones: val,
        }
    }
}

impl DualRail<u8> {
    /// [`DualRail::new`] as a `const fn`, for constants over the byte
    /// rail.
    ///
    /// # Panics
    ///
    /// Panics if the rails overlap (at compile time in a constant).
    pub const fn from_bytes(zeros: u8, ones: u8) -> DualRail<u8> {
        assert!(zeros & ones == 0, "contradictory dual-rail value");
        DualRail { zeros, ones }
    }
}

impl<M: Rail> Default for DualRail<M> {
    fn default() -> DualRail<M> {
        DualRail::ALL_X
    }
}

impl From<V3> for DualRail<bool> {
    fn from(v: V3) -> DualRail<bool> {
        match v {
            V3::Zero => DualRail::ZERO,
            V3::One => DualRail::ONE,
            V3::X => DualRail::ALL_X,
        }
    }
}

impl From<DualRail<bool>> for V3 {
    fn from(d: DualRail<bool>) -> V3 {
        if d.zeros {
            V3::Zero
        } else if d.ones {
            V3::One
        } else {
            V3::X
        }
    }
}

/// Error for a gate evaluation requested on a kind that has no
/// combinational function ([`GateKind::Input`] or [`GateKind::Dff`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NonCombinational(pub GateKind);

impl fmt::Display for NonCombinational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gate evaluation on non-combinational kind {:?}", self.0)
    }
}

impl std::error::Error for NonCombinational {}

/// Evaluates a combinational gate kind over dual-rail inputs, at any
/// lane width.
///
/// This is the one gate-truth-table implementation in the workspace;
/// [`V3`], [`Pv<u64>`](crate::Pv) and the ATPG's `D5` all evaluate
/// through it.
///
/// Non-combinational kinds ([`GateKind::Input`], [`GateKind::Dff`])
/// have no gate function: in debug builds this asserts, in release
/// builds it returns all-X (the sound "don't know" answer) instead of
/// panicking — callers that need to handle the case explicitly use
/// [`try_eval_gate`].
pub fn eval_gate<M: Rail>(
    kind: GateKind,
    inputs: impl IntoIterator<Item = DualRail<M>>,
) -> DualRail<M> {
    match try_eval_gate(kind, inputs) {
        Ok(v) => v,
        Err(e) => {
            debug_assert!(false, "{e}");
            DualRail::ALL_X
        }
    }
}

/// [`eval_gate`] returning a typed error for non-combinational kinds.
pub fn try_eval_gate<M: Rail>(
    kind: GateKind,
    inputs: impl IntoIterator<Item = DualRail<M>>,
) -> Result<DualRail<M>, NonCombinational> {
    let mut it = inputs.into_iter();
    Ok(match kind {
        GateKind::Const0 => DualRail::ZERO,
        GateKind::Const1 => DualRail::ONE,
        GateKind::Buf => it.next().unwrap_or(DualRail::ALL_X),
        GateKind::Not => it.next().unwrap_or(DualRail::ALL_X).not(),
        GateKind::And => it.fold(DualRail::ONE, DualRail::and),
        GateKind::Nand => it.fold(DualRail::ONE, DualRail::and).not(),
        GateKind::Or => it.fold(DualRail::ZERO, DualRail::or),
        GateKind::Nor => it.fold(DualRail::ZERO, DualRail::or).not(),
        GateKind::Xor => it.fold(DualRail::ZERO, DualRail::xor),
        GateKind::Xnor => it.fold(DualRail::ZERO, DualRail::xor).not(),
        GateKind::Input | GateKind::Dff => return Err(NonCombinational(kind)),
    })
}

/// [`eval_gate`] over scalar [`V3`] values (the 1-lane instance).
///
/// # Examples
///
/// ```
/// use fscan_netlist::GateKind;
/// use fscan_sim::{kernel, V3};
///
/// assert_eq!(kernel::eval_v3(GateKind::And, [V3::Zero, V3::X]), V3::Zero);
/// assert_eq!(kernel::eval_v3(GateKind::Xor, [V3::One, V3::X]), V3::X);
/// ```
pub fn eval_v3(kind: GateKind, inputs: impl IntoIterator<Item = V3>) -> V3 {
    eval_gate::<bool>(kind, inputs.into_iter().map(DualRail::from)).into()
}

/// [`try_eval_gate`] over scalar [`V3`] values.
pub fn try_eval_v3(
    kind: GateKind,
    inputs: impl IntoIterator<Item = V3>,
) -> Result<V3, NonCombinational> {
    try_eval_gate::<bool>(kind, inputs.into_iter().map(DualRail::from)).map(V3::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [V3; 3] = [V3::Zero, V3::One, V3::X];

    #[test]
    fn v3_roundtrips_through_dual_rail() {
        for v in ALL {
            assert_eq!(V3::from(DualRail::from(v)), v);
        }
    }

    #[test]
    fn gate_eval_matches_bool_eval() {
        for kind in GateKind::COMBINATIONAL {
            let arity = kind.fixed_arity().unwrap_or(3);
            for bits in 0..(1u32 << arity) {
                let ins: Vec<bool> = (0..arity).map(|i| bits >> i & 1 == 1).collect();
                let v3s: Vec<V3> = ins.iter().map(|&b| V3::from(b)).collect();
                let got = eval_v3(kind, v3s.iter().copied());
                assert_eq!(got.to_bool(), Some(kind.eval_bool(&ins)), "{kind} {ins:?}");
            }
        }
    }

    #[test]
    fn controlling_value_decides_despite_x() {
        assert_eq!(eval_v3(GateKind::And, [V3::Zero, V3::X]), V3::Zero);
        assert_eq!(eval_v3(GateKind::Nand, [V3::Zero, V3::X]), V3::One);
        assert_eq!(eval_v3(GateKind::Or, [V3::One, V3::X]), V3::One);
        assert_eq!(eval_v3(GateKind::Nor, [V3::One, V3::X]), V3::Zero);
        assert_eq!(eval_v3(GateKind::Xor, [V3::One, V3::X]), V3::X);
    }

    #[test]
    fn wide_lanes_agree_with_scalar_lanes() {
        // A deterministic pattern filling all 64 lanes with 0/1/X.
        let pat = |salt: u64| {
            let zeros = 0x9e37_79b9_7f4a_7c15u64.rotate_left(salt as u32);
            let ones = !zeros & 0x5555_5555_5555_5555u64.rotate_left((salt * 7) as u32);
            DualRail::new(zeros & !ones, ones)
        };
        let lane_of = |d: DualRail<u64>, i: u32| {
            DualRail::<bool>::new(d.zeros() >> i & 1 == 1, d.ones() >> i & 1 == 1)
        };
        for kind in GateKind::COMBINATIONAL {
            let arity = kind.fixed_arity().unwrap_or(3);
            let ins: Vec<DualRail<u64>> = (0..arity as u64).map(pat).collect();
            let wide = eval_gate(kind, ins.iter().copied());
            for i in 0..64 {
                let narrow = eval_gate(kind, ins.iter().map(|&d| lane_of(d, i)));
                assert_eq!(lane_of(wide, i), narrow, "{kind} lane {i}");
            }
        }
    }

    #[test]
    fn non_combinational_is_a_typed_error() {
        for kind in [GateKind::Input, GateKind::Dff] {
            let err = try_eval_v3(kind, []).unwrap_err();
            assert_eq!(err, NonCombinational(kind));
            assert!(err.to_string().contains("non-combinational"));
        }
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn non_combinational_is_all_x_in_release() {
        assert_eq!(eval_v3(GateKind::Dff, [V3::One]), V3::X);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn non_combinational_asserts_in_debug() {
        assert!(std::panic::catch_unwind(|| eval_v3(GateKind::Dff, [V3::One])).is_err());
    }

    #[test]
    fn wide_rail_lanes_agree_with_scalar_lanes() {
        // Same oracle as the u64 test, at 256 lanes: every lane of a
        // Lanes<4> evaluation equals the scalar evaluation of that lane.
        let pat = |salt: u64| {
            let word = |k: u64| {
                let zeros = 0x9e37_79b9_7f4a_7c15u64.rotate_left((salt + 13 * k) as u32);
                let ones = !zeros & 0x5555_5555_5555_5555u64.rotate_left((salt * 7 + k) as u32);
                (zeros & !ones, ones)
            };
            let ws: Vec<(u64, u64)> = (0..4).map(word).collect();
            DualRail::new(
                Lanes([ws[0].0, ws[1].0, ws[2].0, ws[3].0]),
                Lanes([ws[0].1, ws[1].1, ws[2].1, ws[3].1]),
            )
        };
        let lane_of = |d: DualRail<R256>, i: u32| {
            let (w, b) = ((i / 64) as usize, i % 64);
            DualRail::<bool>::new(d.zeros().0[w] >> b & 1 == 1, d.ones().0[w] >> b & 1 == 1)
        };
        for kind in GateKind::COMBINATIONAL {
            let arity = kind.fixed_arity().unwrap_or(3);
            let ins: Vec<DualRail<R256>> = (0..arity as u64).map(pat).collect();
            let wide = eval_gate(kind, ins.iter().copied());
            for i in 0..256 {
                let narrow = eval_gate(kind, ins.iter().map(|&d| lane_of(d, i)));
                assert_eq!(lane_of(wide, i), narrow, "{kind} lane {i}");
            }
        }
    }

    #[test]
    fn rail_lane_accessors_are_width_checked() {
        // Hard checks at every width, release builds included.
        assert_eq!(u64::lane_bit(63), 1u64 << 63);
        assert_eq!(u64::low_mask(64), !0u64);
        assert_eq!(u64::low_mask(0), 0);
        assert!(std::panic::catch_unwind(|| u64::lane_bit(64)).is_err());
        assert!(std::panic::catch_unwind(|| bool::lane_bit(1)).is_err());
        assert_eq!(u8::lane_bit(7), 0x80);
        assert_eq!(u8::low_mask(8), 0xff);
        assert_eq!(u8::low_mask(2), 0b11);
        assert_eq!(u8::low_mask(0), 0);
        assert!(std::panic::catch_unwind(|| u8::lane_bit(8)).is_err());
        assert!(std::panic::catch_unwind(|| u8::low_mask(9)).is_err());
        assert!(std::panic::catch_unwind(|| u64::low_mask(65)).is_err());
        assert!(std::panic::catch_unwind(|| R256::lane_bit(256)).is_err());
        assert!(std::panic::catch_unwind(|| R256::low_mask(257)).is_err());
        assert_eq!(R256::lane_bit(130), Lanes([0, 0, 4, 0]));
        assert_eq!(R256::low_mask(256), R256::FULL);
        assert_eq!(R256::low_mask(70), Lanes([!0, 0x3f, 0, 0]));
    }

    #[test]
    fn wide_rail_set_lane_iteration_is_ordered() {
        let m = Lanes([1u64 << 5, 0, 1 | 1 << 63, 1 << 2]);
        let mut seen = Vec::new();
        m.for_each_set_lane(|l| seen.push(l));
        assert_eq!(seen, vec![5, 128, 191, 194]);
        assert_eq!(m.count(), 4);
        assert!(!m.is_empty());
        assert!(R256::EMPTY.is_empty());
    }

    #[test]
    fn demorgan_holds_dual_rail() {
        for a in ALL {
            for b in ALL {
                let (da, db) = (DualRail::from(a), DualRail::from(b));
                assert_eq!(da.and(db).not(), da.not().or(db.not()));
                assert_eq!(da.or(db).not(), da.not().and(db.not()));
            }
        }
    }
}
