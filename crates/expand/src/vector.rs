use crate::ExpandError;
use std::fmt;
use std::str::FromStr;

/// A fully specified (binary) test vector over a circuit's primary inputs.
///
/// Bit 0 is the *leftmost* position — the first primary input in circuit
/// declaration order — matching the paper's notation where `S << 1` moves
/// every bit one position to the left with the leftmost bit wrapping to the
/// rightmost position.
///
/// Vectors of arbitrary width are supported (bits are packed into `u64`
/// words).
///
/// # Example
///
/// ```
/// use bist_expand::TestVector;
///
/// let v: TestVector = "001".parse()?;
/// assert_eq!(v.rotate_left(1).to_string(), "010");   // paper's example
/// let w: TestVector = "101".parse()?;
/// assert_eq!(w.rotate_left(1).to_string(), "011");   // paper's example
/// assert_eq!(w.complement().to_string(), "010");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TestVector {
    words: Vec<u64>,
    width: usize,
}

impl TestVector {
    /// An all-zero vector of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0.
    #[must_use]
    pub fn zeros(width: usize) -> Self {
        assert!(width > 0, "test vector width must be positive");
        TestVector { words: vec![0; width.div_ceil(64)], width }
    }

    /// An all-one vector of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0.
    #[must_use]
    pub fn ones(width: usize) -> Self {
        let mut v = TestVector::zeros(width);
        for w in &mut v.words {
            *w = u64::MAX;
        }
        v.mask_tail();
        v
    }

    /// Builds a vector from a bit slice (`bits[0]` is the leftmost bit).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    #[must_use]
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut v = TestVector::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Builds a vector of the given width from a function of bit index.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0.
    #[must_use]
    pub fn from_fn(width: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut v = TestVector::zeros(width);
        for i in 0..width {
            v.set(i, f(i));
        }
        v
    }

    /// The number of bits (primary inputs).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reads bit `i` (0 = leftmost).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.width, "bit index {i} out of range (width {})", self.width);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i` (0 = leftmost).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.width, "bit index {i} out of range (width {})", self.width);
        let (w, b) = (i / 64, i % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Returns the complemented vector (every bit inverted).
    #[must_use]
    pub fn complement(&self) -> Self {
        let mut out = self.clone();
        out.invert();
        out
    }

    /// Inverts every bit in place.
    pub fn invert(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Overwrites `self` with `src` (widths may differ), reusing `self`'s
    /// allocation.
    pub fn copy_from(&mut self, src: &TestVector) {
        self.words.clear();
        self.words.extend_from_slice(&src.words);
        self.width = src.width;
    }

    /// Returns the vector circularly shifted left by `k` positions:
    /// `out[i] = self[(i + k) mod width]`. `rotate_left(1)` is the paper's
    /// `S << 1` applied to one vector.
    #[must_use]
    pub fn rotate_left(&self, k: usize) -> Self {
        let mut out = TestVector::zeros(self.width);
        self.rotate_left_into(k, &mut out);
        out
    }

    /// [`rotate_left`](Self::rotate_left) into `out`, reusing its
    /// allocation.
    pub fn rotate_left_into(&self, k: usize, out: &mut TestVector) {
        let m = self.width;
        let k = k % m;
        match self.words[..] {
            _ if k == 0 => out.copy_from(self),
            // One word: a plain rotation within the low `m` bits.
            [w] => {
                out.words.clear();
                out.words.push((w >> k) | (w << (m - k)));
                out.width = m;
                out.mask_tail();
            }
            _ => {
                out.copy_from(self);
                for i in 0..m {
                    out.set(i, self.get((i + k) % m));
                }
            }
        }
    }

    /// Iterates over the bits from leftmost to rightmost.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.width).map(move |i| self.get(i))
    }

    /// Number of bits set to 1.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears bits beyond `width` in the last word (internal invariant).
    fn mask_tail(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << rem) - 1;
        }
    }
}

impl fmt::Display for TestVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl FromStr for TestVector {
    type Err = ExpandError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ExpandError::Empty);
        }
        let mut bits = Vec::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '0' => bits.push(false),
                '1' => bits.push(true),
                other => return Err(ExpandError::BadLiteral { ch: other }),
            }
        }
        Ok(TestVector::from_bits(&bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0", "1", "0110", "10101010101010101010"] {
            let v: TestVector = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
            assert_eq!(v.width(), s.len());
        }
    }

    #[test]
    fn parse_rejects_bad_chars() {
        assert_eq!("01x1".parse::<TestVector>(), Err(ExpandError::BadLiteral { ch: 'x' }));
        assert_eq!("".parse::<TestVector>(), Err(ExpandError::Empty));
        assert_eq!("  ".parse::<TestVector>(), Err(ExpandError::Empty));
    }

    #[test]
    fn complement_is_involution() {
        let v: TestVector = "0110010".parse().unwrap();
        assert_eq!(v.complement().complement(), v);
        assert_eq!(v.complement().to_string(), "1001101");
    }

    #[test]
    fn complement_wide_vector_masks_tail() {
        let v = TestVector::zeros(70);
        let c = v.complement();
        assert_eq!(c.count_ones(), 70);
        assert_eq!(c, TestVector::ones(70));
    }

    #[test]
    fn rotation_matches_paper_examples() {
        // Paper §2: S = (001, 101), S << 1 = (010, 011).
        let a: TestVector = "001".parse().unwrap();
        let b: TestVector = "101".parse().unwrap();
        assert_eq!(a.rotate_left(1).to_string(), "010");
        assert_eq!(b.rotate_left(1).to_string(), "011");
    }

    #[test]
    fn rotation_has_period_width() {
        let v: TestVector = "1101001".parse().unwrap();
        assert_eq!(v.rotate_left(7), v);
        assert_eq!(v.rotate_left(3).rotate_left(4), v);
        assert_eq!(v.rotate_left(0), v);
    }

    #[test]
    fn in_place_forms_match_the_allocating_ones() {
        for s in ["1", "0110", "1011001", "10101010101010101010", &"1100101".repeat(19)] {
            let v: TestVector = s.parse().unwrap();
            let mut out: TestVector = "01".parse().unwrap();
            for k in 0..=v.width() + 1 {
                v.rotate_left_into(k, &mut out);
                assert_eq!(out, TestVector::from_fn(v.width(), |i| v.get((i + k) % v.width())));
            }
            out.copy_from(&v);
            out.invert();
            assert_eq!(out, v.complement());
            assert_eq!(out.count_ones(), v.width() - v.count_ones());
        }
    }

    #[test]
    fn rotation_across_word_boundary() {
        let mut v = TestVector::zeros(65);
        v.set(0, true);
        let r = v.rotate_left(1);
        // out[i] = in[(i+1) % 65]; in[0] = 1 so out[64] = 1.
        assert!(r.get(64));
        assert_eq!(r.count_ones(), 1);
    }

    #[test]
    fn get_set_across_words() {
        let mut v = TestVector::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(128));
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let v = TestVector::zeros(4);
        let _ = v.get(4);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        let _ = TestVector::zeros(0);
    }

    #[test]
    fn from_fn_and_iter_agree() {
        let v = TestVector::from_fn(9, |i| i % 3 == 0);
        let bits: Vec<bool> = v.iter().collect();
        assert_eq!(bits, (0..9).map(|i| i % 3 == 0).collect::<Vec<_>>());
    }
}
