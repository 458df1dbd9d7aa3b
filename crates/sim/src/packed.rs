use crate::{Logic, SimError};
use std::fmt;

/// A bitmask over the lanes of a [`PackedWord`] — the bookkeeping type the
/// fault-simulation engines use to track which faulty machines are still
/// undetected and which lanes diverged from the good machine this cycle.
///
/// Implemented by `u64` (for [`PackedValue`]) and `[u64; N]` (for
/// [`PackedVec`]). All operations are branch-free bit manipulation so the
/// detection loop stays cheap at any width.
pub trait LaneMask: Copy + PartialEq + Send + Sync + 'static {
    /// The mask with no lanes set.
    const EMPTY: Self;

    /// The mask with lanes `0..n` set.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the number of lanes.
    fn first_n(n: usize) -> Self;

    /// True if no lane is set.
    fn is_empty(self) -> bool;

    /// Lanes set in both masks.
    #[must_use]
    fn intersect(self, rhs: Self) -> Self;

    /// Lanes set in `self` but not in `rhs`.
    #[must_use]
    fn subtract(self, rhs: Self) -> Self;

    /// Lanes set in either mask.
    #[must_use]
    fn union(self, rhs: Self) -> Self;

    /// Calls `f` with the index of every set lane, in ascending order.
    fn for_each_lane(self, f: impl FnMut(usize));
}

impl LaneMask for u64 {
    const EMPTY: Self = 0;

    fn first_n(n: usize) -> Self {
        assert!(n <= 64, "mask width {n} exceeds 64 lanes");
        if n == 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    fn is_empty(self) -> bool {
        self == 0
    }

    fn intersect(self, rhs: Self) -> Self {
        self & rhs
    }

    fn subtract(self, rhs: Self) -> Self {
        self & !rhs
    }

    fn union(self, rhs: Self) -> Self {
        self | rhs
    }

    fn for_each_lane(self, mut f: impl FnMut(usize)) {
        let mut bits = self;
        while bits != 0 {
            f(bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

impl<const N: usize> LaneMask for [u64; N] {
    const EMPTY: Self = [0; N];

    fn first_n(n: usize) -> Self {
        assert!(n <= 64 * N, "mask width {n} exceeds {} lanes", 64 * N);
        let mut words = [0u64; N];
        let (full, rem) = (n / 64, n % 64);
        for w in words.iter_mut().take(full) {
            *w = u64::MAX;
        }
        if rem != 0 {
            words[full] = (1u64 << rem) - 1;
        }
        words
    }

    fn is_empty(self) -> bool {
        self.iter().all(|&w| w == 0)
    }

    fn intersect(self, rhs: Self) -> Self {
        let mut out = [0u64; N];
        for i in 0..N {
            out[i] = self[i] & rhs[i];
        }
        out
    }

    fn subtract(self, rhs: Self) -> Self {
        let mut out = [0u64; N];
        for i in 0..N {
            out[i] = self[i] & !rhs[i];
        }
        out
    }

    fn union(self, rhs: Self) -> Self {
        let mut out = [0u64; N];
        for i in 0..N {
            out[i] = self[i] | rhs[i];
        }
        out
    }

    fn for_each_lane(self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(wi * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// A fixed-width vector of three-valued logic values — the algebra the
/// bit-parallel fault-simulation engines are generic over.
///
/// Lane `i` carries one machine's value of a signal. [`PackedValue`]
/// provides 64 lanes in two `u64` planes; [`PackedVec<N>`] provides
/// `64·N` lanes (256 via the [`PackedValue256`] alias) in `[u64; N]`
/// planes whose element-wise loops autovectorize on capable hosts.
///
/// The algebra must agree with the scalar [`Logic`] algebra in every lane
/// (property-tested for each implementation).
pub trait PackedWord: Copy + PartialEq + Send + Sync + 'static {
    /// The lane-mask type paired with this width.
    type Mask: LaneMask;

    /// Number of lanes.
    const LANES: usize;

    /// The word with every lane `X`.
    const ALL_X: Self;

    /// Broadcasts one value to all lanes.
    #[must_use]
    fn splat(v: Logic) -> Self;

    /// Reads lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Self::LANES`; see [`try_lane`](Self::try_lane) for
    /// the checked variant.
    #[must_use]
    fn lane(self, i: usize) -> Logic;

    /// Writes lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Self::LANES`; see
    /// [`try_set_lane`](Self::try_set_lane) for the checked variant.
    fn set_lane(&mut self, i: usize, v: Logic);

    /// Checked [`lane`](Self::lane): out-of-range indices surface a typed
    /// [`SimError::LaneOutOfRange`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SimError::LaneOutOfRange`] if `i >= Self::LANES`.
    fn try_lane(self, i: usize) -> Result<Logic, SimError> {
        if i < Self::LANES {
            Ok(self.lane(i))
        } else {
            Err(SimError::LaneOutOfRange { lane: i, lanes: Self::LANES })
        }
    }

    /// Checked [`set_lane`](Self::set_lane).
    ///
    /// # Errors
    ///
    /// [`SimError::LaneOutOfRange`] if `i >= Self::LANES`.
    fn try_set_lane(&mut self, i: usize, v: Logic) -> Result<(), SimError> {
        if i < Self::LANES {
            self.set_lane(i, v);
            Ok(())
        } else {
            Err(SimError::LaneOutOfRange { lane: i, lanes: Self::LANES })
        }
    }

    /// Lane-wise three-valued AND.
    #[must_use]
    fn and(self, rhs: Self) -> Self;

    /// Lane-wise three-valued OR.
    #[must_use]
    fn or(self, rhs: Self) -> Self;

    /// Lane-wise three-valued XOR.
    #[must_use]
    fn xor(self, rhs: Self) -> Self;

    /// Lane-wise three-valued NOT.
    #[must_use]
    fn not(self) -> Self;

    /// Mask of lanes holding logic 1.
    #[must_use]
    fn ones_mask(self) -> Self::Mask;

    /// Mask of lanes holding logic 0.
    #[must_use]
    fn zeros_mask(self) -> Self::Mask;

    /// Mask of lanes whose value differs from `rhs`'s (`X` counts as a
    /// value of its own).
    #[must_use]
    fn differs(self, rhs: Self) -> Self::Mask;

    /// `rhs`'s value in every lane of `lanes` and `self`'s in the rest —
    /// how the engines write one lane group's inputs or state.
    #[must_use]
    fn select(self, rhs: Self, lanes: Self::Mask) -> Self;

    /// Applies a force word: every lane where `mask` holds 1 or 0 takes
    /// that value, every lane where `mask` is `X` keeps `self`'s. This is
    /// how the engines inject a chunk's stuck-at faults, one lane each.
    #[must_use]
    fn force(self, mask: Self) -> Self;
}

/// 64 three-valued logic values packed into two machine words.
///
/// Lane `i` is encoded by bit `i` of two words: `ones` (the lane is 1) and
/// `zeros` (the lane is 0). Exactly one of the bits is set for a binary
/// value; neither is set for `X`. Both set is an illegal state that the
/// algebra never produces from legal inputs (checked by
/// [`is_valid`](Self::is_valid) and a property test).
///
/// This encoding makes every gate a handful of bitwise operations over all
/// 64 lanes at once — the workhorse of the parallel-fault simulator, where
/// each lane carries one faulty machine.
///
/// # Example
///
/// ```
/// use bist_sim::{Logic, PackedValue};
///
/// let a = PackedValue::splat(Logic::One);
/// let mut b = PackedValue::splat(Logic::X);
/// b.set_lane(3, Logic::Zero);
/// let c = a.and(b);
/// assert_eq!(c.lane(3), Logic::Zero);
/// assert_eq!(c.lane(0), Logic::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedValue {
    /// Bit `i` set ⇔ lane `i` is logic 1.
    pub ones: u64,
    /// Bit `i` set ⇔ lane `i` is logic 0.
    pub zeros: u64,
}

impl PackedValue {
    /// Number of lanes.
    pub const LANES: usize = 64;

    /// All lanes `X`.
    pub const ALL_X: PackedValue = PackedValue { ones: 0, zeros: 0 };

    /// All lanes 0.
    pub const ALL_ZERO: PackedValue = PackedValue { ones: 0, zeros: u64::MAX };

    /// All lanes 1.
    pub const ALL_ONE: PackedValue = PackedValue { ones: u64::MAX, zeros: 0 };

    /// Broadcasts one value to all lanes.
    #[must_use]
    pub fn splat(v: Logic) -> Self {
        match v {
            Logic::Zero => Self::ALL_ZERO,
            Logic::One => Self::ALL_ONE,
            Logic::X => Self::ALL_X,
        }
    }

    /// Reads lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[must_use]
    pub fn lane(self, i: usize) -> Logic {
        assert!(i < Self::LANES, "lane {i} out of range");
        let bit = 1u64 << i;
        match (self.ones & bit != 0, self.zeros & bit != 0) {
            (true, false) => Logic::One,
            (false, true) => Logic::Zero,
            (false, false) => Logic::X,
            (true, true) => unreachable!("invalid packed encoding in lane {i}"),
        }
    }

    /// Writes lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    pub fn set_lane(&mut self, i: usize, v: Logic) {
        assert!(i < Self::LANES, "lane {i} out of range");
        let bit = 1u64 << i;
        self.ones &= !bit;
        self.zeros &= !bit;
        match v {
            Logic::One => self.ones |= bit,
            Logic::Zero => self.zeros |= bit,
            Logic::X => {}
        }
    }

    /// True if no lane has both bits set.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self.ones & self.zeros == 0
    }

    /// Lane-wise three-valued AND.
    #[must_use]
    pub fn and(self, rhs: Self) -> Self {
        PackedValue { ones: self.ones & rhs.ones, zeros: self.zeros | rhs.zeros }
    }

    /// Lane-wise three-valued OR.
    #[must_use]
    pub fn or(self, rhs: Self) -> Self {
        PackedValue { ones: self.ones | rhs.ones, zeros: self.zeros & rhs.zeros }
    }

    /// Lane-wise three-valued XOR.
    #[must_use]
    pub fn xor(self, rhs: Self) -> Self {
        PackedValue {
            ones: (self.ones & rhs.zeros) | (self.zeros & rhs.ones),
            zeros: (self.ones & rhs.ones) | (self.zeros & rhs.zeros),
        }
    }

    /// Bitmask of lanes holding binary (non-`X`) values.
    #[must_use]
    pub fn binary_mask(self) -> u64 {
        self.ones | self.zeros
    }

    /// Checked [`lane`](Self::lane): surfaces a typed error instead of
    /// panicking on an out-of-range index.
    ///
    /// # Errors
    ///
    /// [`SimError::LaneOutOfRange`] if `i >= 64`.
    pub fn try_lane(self, i: usize) -> Result<Logic, SimError> {
        PackedWord::try_lane(self, i)
    }

    /// Checked [`set_lane`](Self::set_lane).
    ///
    /// # Errors
    ///
    /// [`SimError::LaneOutOfRange`] if `i >= 64`.
    pub fn try_set_lane(&mut self, i: usize, v: Logic) -> Result<(), SimError> {
        PackedWord::try_set_lane(self, i, v)
    }
}

impl PackedWord for PackedValue {
    type Mask = u64;

    const LANES: usize = 64;

    const ALL_X: Self = PackedValue::ALL_X;

    fn splat(v: Logic) -> Self {
        PackedValue::splat(v)
    }

    fn lane(self, i: usize) -> Logic {
        PackedValue::lane(self, i)
    }

    fn set_lane(&mut self, i: usize, v: Logic) {
        PackedValue::set_lane(self, i, v);
    }

    fn and(self, rhs: Self) -> Self {
        PackedValue::and(self, rhs)
    }

    fn or(self, rhs: Self) -> Self {
        PackedValue::or(self, rhs)
    }

    fn xor(self, rhs: Self) -> Self {
        PackedValue::xor(self, rhs)
    }

    fn not(self) -> Self {
        PackedValue { ones: self.zeros, zeros: self.ones }
    }

    fn ones_mask(self) -> u64 {
        self.ones
    }

    fn zeros_mask(self) -> u64 {
        self.zeros
    }

    fn differs(self, rhs: Self) -> u64 {
        (self.ones ^ rhs.ones) | (self.zeros ^ rhs.zeros)
    }

    fn select(self, rhs: Self, lanes: u64) -> Self {
        PackedValue {
            ones: (self.ones & !lanes) | (rhs.ones & lanes),
            zeros: (self.zeros & !lanes) | (rhs.zeros & lanes),
        }
    }

    fn force(self, mask: Self) -> Self {
        PackedValue {
            ones: (self.ones & !mask.zeros) | mask.ones,
            zeros: (self.zeros & !mask.ones) | mask.zeros,
        }
    }
}

/// `64·N` three-valued logic values packed into two `[u64; N]` planes —
/// the wide-word generalization of [`PackedValue`].
///
/// The element-wise plane loops compile to straight-line SIMD (AVX2 at
/// `N = 4`), so one gate evaluation advances 256 faulty machines. The
/// engines use the [`PackedValue256`] alias.
///
/// # Example
///
/// ```
/// use bist_sim::{Logic, PackedValue256, PackedWord};
///
/// let mut w = PackedValue256::ALL_X;
/// w.set_lane(200, Logic::Zero);
/// let a = PackedValue256::splat(Logic::One);
/// assert_eq!(a.and(w).lane(200), Logic::Zero);
/// assert_eq!(a.and(w).lane(0), Logic::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedVec<const N: usize> {
    /// Bit `i` of word `w` set ⇔ lane `64·w + i` is logic 1.
    pub ones: [u64; N],
    /// Bit `i` of word `w` set ⇔ lane `64·w + i` is logic 0.
    pub zeros: [u64; N],
}

/// 256-lane packed word (`[u64; 4]` planes).
pub type PackedValue256 = PackedVec<4>;

impl<const N: usize> PackedVec<N> {
    /// True if no lane has both plane bits set.
    #[must_use]
    pub fn is_valid(self) -> bool {
        (0..N).all(|i| self.ones[i] & self.zeros[i] == 0)
    }
}

impl<const N: usize> Default for PackedVec<N> {
    fn default() -> Self {
        Self::ALL_X
    }
}

impl<const N: usize> PackedWord for PackedVec<N> {
    type Mask = [u64; N];

    const LANES: usize = 64 * N;

    const ALL_X: Self = PackedVec { ones: [0; N], zeros: [0; N] };

    fn splat(v: Logic) -> Self {
        match v {
            Logic::One => PackedVec { ones: [u64::MAX; N], zeros: [0; N] },
            Logic::Zero => PackedVec { ones: [0; N], zeros: [u64::MAX; N] },
            Logic::X => Self::ALL_X,
        }
    }

    fn lane(self, i: usize) -> Logic {
        assert!(i < Self::LANES, "lane {i} out of range");
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        match (self.ones[w] & bit != 0, self.zeros[w] & bit != 0) {
            (true, false) => Logic::One,
            (false, true) => Logic::Zero,
            (false, false) => Logic::X,
            (true, true) => unreachable!("invalid packed encoding in lane {i}"),
        }
    }

    fn set_lane(&mut self, i: usize, v: Logic) {
        assert!(i < Self::LANES, "lane {i} out of range");
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        self.ones[w] &= !bit;
        self.zeros[w] &= !bit;
        match v {
            Logic::One => self.ones[w] |= bit,
            Logic::Zero => self.zeros[w] |= bit,
            Logic::X => {}
        }
    }

    fn and(self, rhs: Self) -> Self {
        let (mut ones, mut zeros) = ([0u64; N], [0u64; N]);
        for i in 0..N {
            ones[i] = self.ones[i] & rhs.ones[i];
            zeros[i] = self.zeros[i] | rhs.zeros[i];
        }
        PackedVec { ones, zeros }
    }

    fn or(self, rhs: Self) -> Self {
        let (mut ones, mut zeros) = ([0u64; N], [0u64; N]);
        for i in 0..N {
            ones[i] = self.ones[i] | rhs.ones[i];
            zeros[i] = self.zeros[i] & rhs.zeros[i];
        }
        PackedVec { ones, zeros }
    }

    fn xor(self, rhs: Self) -> Self {
        let (mut ones, mut zeros) = ([0u64; N], [0u64; N]);
        for i in 0..N {
            ones[i] = (self.ones[i] & rhs.zeros[i]) | (self.zeros[i] & rhs.ones[i]);
            zeros[i] = (self.ones[i] & rhs.ones[i]) | (self.zeros[i] & rhs.zeros[i]);
        }
        PackedVec { ones, zeros }
    }

    fn not(self) -> Self {
        PackedVec { ones: self.zeros, zeros: self.ones }
    }

    fn ones_mask(self) -> [u64; N] {
        self.ones
    }

    fn zeros_mask(self) -> [u64; N] {
        self.zeros
    }

    fn differs(self, rhs: Self) -> [u64; N] {
        std::array::from_fn(|i| (self.ones[i] ^ rhs.ones[i]) | (self.zeros[i] ^ rhs.zeros[i]))
    }

    fn select(self, rhs: Self, lanes: [u64; N]) -> Self {
        let pick = |a: [u64; N], b: [u64; N]| {
            std::array::from_fn(|i| (a[i] & !lanes[i]) | (b[i] & lanes[i]))
        };
        PackedVec { ones: pick(self.ones, rhs.ones), zeros: pick(self.zeros, rhs.zeros) }
    }

    fn force(self, mask: Self) -> Self {
        let (mut ones, mut zeros) = ([0u64; N], [0u64; N]);
        for i in 0..N {
            ones[i] = (self.ones[i] & !mask.zeros[i]) | mask.ones[i];
            zeros[i] = (self.zeros[i] & !mask.ones[i]) | mask.zeros[i];
        }
        PackedVec { ones, zeros }
    }
}

impl std::ops::Not for PackedValue {
    type Output = PackedValue;

    /// Lane-wise three-valued NOT (swap the planes).
    fn not(self) -> PackedValue {
        PackedValue { ones: self.zeros, zeros: self.ones }
    }
}

impl Default for PackedValue {
    fn default() -> Self {
        Self::ALL_X
    }
}

impl fmt::Display for PackedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..Self::LANES {
            write!(f, "{}", self.lane(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::{One, Zero, X};

    const ALL: [Logic; 3] = [Zero, One, X];

    #[test]
    fn splat_and_lane_round_trip() {
        for v in ALL {
            let p = PackedValue::splat(v);
            assert!(p.is_valid());
            for i in [0, 1, 31, 63] {
                assert_eq!(p.lane(i), v);
            }
        }
    }

    #[test]
    fn set_lane_round_trip() {
        let mut p = PackedValue::ALL_X;
        p.set_lane(0, One);
        p.set_lane(63, Zero);
        p.set_lane(17, One);
        p.set_lane(17, X); // overwrite back to X
        assert_eq!(p.lane(0), One);
        assert_eq!(p.lane(63), Zero);
        assert_eq!(p.lane(17), X);
        assert_eq!(p.lane(5), X);
        assert!(p.is_valid());
    }

    /// The packed algebra must agree with the scalar algebra in all lanes.
    #[test]
    fn packed_matches_scalar_exhaustively() {
        for a in ALL {
            for b in ALL {
                let pa = PackedValue::splat(a);
                let pb = PackedValue::splat(b);
                assert_eq!(pa.and(pb).lane(7), a.and(b), "and {a} {b}");
                assert_eq!(pa.or(pb).lane(7), a.or(b), "or {a} {b}");
                assert_eq!(pa.xor(pb).lane(7), a.xor(b), "xor {a} {b}");
                assert_eq!(PackedWord::not(pa).lane(7), !a, "not {a}");
                assert_eq!(!pa, PackedWord::not(pa), "ops::Not and PackedWord::not agree");
                assert!(pa.and(pb).is_valid());
                assert!(pa.or(pb).is_valid());
                assert!(pa.xor(pb).is_valid());
            }
        }
    }

    #[test]
    fn mixed_lanes_evaluate_independently() {
        let mut a = PackedValue::ALL_X;
        let mut b = PackedValue::ALL_X;
        // lane 0: 1 AND 1; lane 1: 0 AND X; lane 2: X AND X.
        a.set_lane(0, One);
        b.set_lane(0, One);
        a.set_lane(1, Zero);
        let c = a.and(b);
        assert_eq!(c.lane(0), One);
        assert_eq!(c.lane(1), Zero);
        assert_eq!(c.lane(2), X);
    }

    #[test]
    fn binary_mask() {
        let mut p = PackedValue::ALL_X;
        p.set_lane(2, One);
        p.set_lane(5, Zero);
        assert_eq!(p.binary_mask(), (1 << 2) | (1 << 5));
        assert_eq!(PackedValue::ALL_ONE.binary_mask(), u64::MAX);
        assert_eq!(PackedValue::ALL_X.binary_mask(), 0);
    }

    #[test]
    fn default_is_all_x() {
        assert_eq!(PackedValue::default(), PackedValue::ALL_X);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_out_of_range_panics() {
        let _ = PackedValue::ALL_X.lane(64);
    }

    #[test]
    fn try_lane_surfaces_typed_error() {
        let mut p = PackedValue::ALL_X;
        assert_eq!(p.try_lane(63), Ok(X));
        assert_eq!(p.try_lane(64), Err(SimError::LaneOutOfRange { lane: 64, lanes: 64 }));
        assert_eq!(p.try_set_lane(2, One), Ok(()));
        assert_eq!(p.lane(2), One);
        assert_eq!(
            p.try_set_lane(100, One),
            Err(SimError::LaneOutOfRange { lane: 100, lanes: 64 })
        );
        let mut w = PackedValue256::ALL_X;
        assert_eq!(w.try_set_lane(255, Zero), Ok(()));
        assert_eq!(w.try_lane(256), Err(SimError::LaneOutOfRange { lane: 256, lanes: 256 }));
    }

    /// Every lane of every wide width must follow the scalar algebra.
    #[test]
    fn wide_matches_scalar_exhaustively() {
        fn check<W: PackedWord>() {
            for a in ALL {
                for b in ALL {
                    let (pa, pb) = (W::splat(a), W::splat(b));
                    for lane in [0, 63, W::LANES / 2, W::LANES - 1] {
                        assert_eq!(pa.and(pb).lane(lane), a.and(b), "and {a} {b} lane {lane}");
                        assert_eq!(pa.or(pb).lane(lane), a.or(b), "or {a} {b} lane {lane}");
                        assert_eq!(pa.xor(pb).lane(lane), a.xor(b), "xor {a} {b} lane {lane}");
                        assert_eq!(W::not(pa).lane(lane), !a, "not {a} lane {lane}");
                    }
                }
            }
        }
        check::<PackedValue>();
        check::<PackedValue256>();
    }

    #[test]
    fn wide_lanes_are_independent_across_words() {
        let mut a = PackedValue256::ALL_X;
        let mut b = PackedValue256::ALL_X;
        // Lanes straddling all four plane words.
        a.set_lane(0, One);
        b.set_lane(0, One);
        a.set_lane(70, Zero);
        a.set_lane(130, One);
        a.set_lane(255, Zero);
        let c = a.and(b);
        assert_eq!(c.lane(0), One);
        assert_eq!(c.lane(70), Zero);
        assert_eq!(c.lane(130), X);
        assert_eq!(c.lane(255), Zero);
        assert!(c.is_valid());
    }

    #[test]
    fn lane_mask_first_n_and_iteration() {
        assert_eq!(<u64 as LaneMask>::first_n(0), 0);
        assert_eq!(<u64 as LaneMask>::first_n(3), 0b111);
        assert_eq!(<u64 as LaneMask>::first_n(64), u64::MAX);
        let m = <[u64; 4] as LaneMask>::first_n(70);
        assert_eq!(m, [u64::MAX, 0b11_1111, 0, 0]);
        let mut lanes = Vec::new();
        m.subtract(<[u64; 4] as LaneMask>::first_n(63)).for_each_lane(|l| lanes.push(l));
        assert_eq!(lanes, vec![63, 64, 65, 66, 67, 68, 69]);
        assert!(<[u64; 4] as LaneMask>::EMPTY.is_empty());
        assert!(!m.is_empty());
        assert_eq!(m.intersect(<[u64; 4] as LaneMask>::first_n(1)), [1, 0, 0, 0]);
        assert_eq!(<u64 as LaneMask>::first_n(2).union(0b1000), 0b1011);
        assert_eq!([1u64, 0, 0, 2].union([4, 0, 8, 0]), [5, 0, 8, 2]);
    }

    #[test]
    fn differs_marks_exactly_the_lanes_that_differ() {
        fn check<W: PackedWord>() {
            for (i, a) in ALL.into_iter().enumerate() {
                for (j, b) in ALL.into_iter().enumerate() {
                    let (mut x, mut y) = (W::ALL_X, W::ALL_X);
                    let lane = W::LANES - 1 - 3 * i - j;
                    x.set_lane(lane, a);
                    y.set_lane(lane, b);
                    let mut lanes = Vec::new();
                    x.differs(y).for_each_lane(|l| lanes.push(l));
                    assert_eq!(lanes, if a == b { vec![] } else { vec![lane] }, "{a} vs {b}");
                }
            }
        }
        check::<PackedValue>();
        check::<PackedValue256>();
    }

    #[test]
    fn select_takes_the_masked_lanes_and_keeps_the_rest() {
        fn check<W: PackedWord>() {
            for (i, a) in ALL.into_iter().enumerate() {
                for (j, b) in ALL.into_iter().enumerate() {
                    let lane = W::LANES - 1 - 3 * i - j;
                    let (mut x, y) = (W::splat(a), W::splat(b));
                    let mask = W::Mask::first_n(lane + 1).subtract(W::Mask::first_n(lane));
                    let picked = x.select(y, mask);
                    x.set_lane(lane, b);
                    assert!(picked == x, "lane {lane} takes {b}, the rest keep {a}");
                    assert!(x.select(y, W::Mask::EMPTY) == x);
                    assert!(x.select(y, W::Mask::first_n(W::LANES)) == y);
                }
            }
        }
        check::<PackedValue>();
        check::<PackedValue256>();
    }

    #[test]
    fn force_sets_the_binary_lanes_of_the_mask_and_keeps_the_rest() {
        fn check<W: PackedWord>() {
            for (i, v) in ALL.into_iter().enumerate() {
                for (j, m) in ALL.into_iter().enumerate() {
                    let lane = W::LANES - 1 - 3 * i - j;
                    let (mut value, mut mask) = (W::splat(v), W::ALL_X);
                    mask.set_lane(lane, m);
                    let forced = value.force(mask);
                    assert_eq!(forced.lane(lane), if m == X { v } else { m }, "{v} forced by {m}");
                    value.set_lane(lane, forced.lane(lane));
                    assert!(forced == value, "other lanes keep {v}");
                }
            }
        }
        check::<PackedValue>();
        check::<PackedValue256>();
    }

    #[test]
    fn wide_splat_and_set_round_trip() {
        for v in ALL {
            let w = PackedValue256::splat(v);
            assert!(w.is_valid());
            for lane in [0, 64, 200, 255] {
                assert_eq!(w.lane(lane), v);
            }
        }
        let mut w = PackedValue256::default();
        w.set_lane(130, One);
        w.set_lane(130, X);
        assert_eq!(w.lane(130), X);
    }
}
