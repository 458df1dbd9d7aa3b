use crate::{ExpandError, TestVector};
use std::fmt;
use std::ops::Index;
use std::str::FromStr;

/// A sequence of equally wide test vectors, applied one per clock cycle.
///
/// Sequences parse from whitespace-separated vector literals (newlines are
/// treated like spaces), matching the notation used in the paper's tables:
///
/// ```
/// use bist_expand::TestSequence;
///
/// let s: TestSequence = "000 110".parse()?;
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.reversed().to_string(), "110 000");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TestSequence {
    vectors: Vec<TestVector>,
    width: usize,
}

impl TestSequence {
    /// An empty sequence of the given vector width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "sequence width must be positive");
        TestSequence { vectors: Vec::new(), width }
    }

    /// Builds a sequence from vectors, validating widths.
    ///
    /// # Errors
    ///
    /// [`ExpandError::Empty`] if `vectors` is empty,
    /// [`ExpandError::WidthMismatch`] if widths disagree.
    pub fn from_vectors(vectors: Vec<TestVector>) -> Result<Self, ExpandError> {
        let first = vectors.first().ok_or(ExpandError::Empty)?;
        let width = first.width();
        for v in &vectors {
            if v.width() != width {
                return Err(ExpandError::WidthMismatch { expected: width, got: v.width() });
            }
        }
        Ok(TestSequence { vectors, width })
    }

    /// The vector width (number of primary inputs).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of vectors (time units).
    #[must_use]
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the sequence has no vectors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Appends a vector.
    ///
    /// # Errors
    ///
    /// [`ExpandError::WidthMismatch`] if the vector width differs.
    pub fn push(&mut self, v: TestVector) -> Result<(), ExpandError> {
        if v.width() != self.width {
            return Err(ExpandError::WidthMismatch { expected: self.width, got: v.width() });
        }
        self.vectors.push(v);
        Ok(())
    }

    /// The vectors as a slice.
    #[must_use]
    pub fn vectors(&self) -> &[TestVector] {
        &self.vectors
    }

    /// Iterates over the vectors in application order.
    pub fn iter(&self) -> std::slice::Iter<'_, TestVector> {
        self.vectors.iter()
    }

    /// The subsequence covering time units `from..=to` (inclusive), i.e.
    /// the paper's `T0[u1, u2]`.
    ///
    /// # Panics
    ///
    /// Panics if `from > to` or `to >= len()`.
    #[must_use]
    pub fn subsequence(&self, from: usize, to: usize) -> TestSequence {
        assert!(from <= to && to < self.len(), "bad subsequence range {from}..={to}");
        TestSequence { vectors: self.vectors[from..=to].to_vec(), width: self.width }
    }

    /// Returns a copy with the vector at `index` removed (the paper's
    /// "omission of `T'[u]`").
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    pub fn without(&self, index: usize) -> TestSequence {
        assert!(index < self.len(), "index {index} out of range");
        let mut vectors = self.vectors.clone();
        vectors.remove(index);
        TestSequence { vectors, width: self.width }
    }

    /// Removes and returns the vector at `index`, in place:
    /// [`without`](Self::without) with no copy of the other vectors.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn remove(&mut self, index: usize) -> TestVector {
        self.vectors.remove(index)
    }

    /// Concatenation `self · other`.
    ///
    /// # Errors
    ///
    /// [`ExpandError::WidthMismatch`] if widths differ.
    pub fn concat(&self, other: &TestSequence) -> Result<TestSequence, ExpandError> {
        if other.width != self.width {
            return Err(ExpandError::WidthMismatch { expected: self.width, got: other.width });
        }
        let mut vectors = self.vectors.clone();
        vectors.extend(other.vectors.iter().cloned());
        Ok(TestSequence { vectors, width: self.width })
    }

    /// Repetition `S^n`: the sequence repeated `n` times.
    ///
    /// # Errors
    ///
    /// [`ExpandError::BadRepetition`] if `n == 0`.
    pub fn repeated(&self, n: usize) -> Result<TestSequence, ExpandError> {
        if n == 0 {
            return Err(ExpandError::BadRepetition { got: 0 });
        }
        let mut vectors = Vec::with_capacity(self.len() * n);
        for _ in 0..n {
            vectors.extend(self.vectors.iter().cloned());
        }
        Ok(TestSequence { vectors, width: self.width })
    }

    /// Complementation `~S`: every vector complemented.
    #[must_use]
    pub fn complemented(&self) -> TestSequence {
        TestSequence {
            vectors: self.vectors.iter().map(TestVector::complement).collect(),
            width: self.width,
        }
    }

    /// Circular left shift `S << k`: every vector rotated left by `k`.
    #[must_use]
    pub fn shifted(&self, k: usize) -> TestSequence {
        TestSequence {
            vectors: self.vectors.iter().map(|v| v.rotate_left(k)).collect(),
            width: self.width,
        }
    }

    /// Reversal `rS`: the vectors in reverse order.
    #[must_use]
    pub fn reversed(&self) -> TestSequence {
        let mut vectors = self.vectors.clone();
        vectors.reverse();
        TestSequence { vectors, width: self.width }
    }

    /// Hold `S@k`: every vector repeated `k` consecutive times — the
    /// input-holding manipulation of Nachman et al. \[3\] that the paper
    /// builds on (holding inputs helps sequential circuits traverse
    /// state space).
    ///
    /// # Errors
    ///
    /// [`ExpandError::BadRepetition`] if `k == 0`.
    pub fn held(&self, k: usize) -> Result<TestSequence, ExpandError> {
        if k == 0 {
            return Err(ExpandError::BadRepetition { got: 0 });
        }
        let mut vectors = Vec::with_capacity(self.len() * k);
        for v in &self.vectors {
            for _ in 0..k {
                vectors.push(v.clone());
            }
        }
        Ok(TestSequence { vectors, width: self.width })
    }

    /// Total number of input bits stored (`len × width`) — the on-chip
    /// memory cost of holding this sequence.
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.len() * self.width
    }
}

impl Index<usize> for TestSequence {
    type Output = TestVector;

    fn index(&self, index: usize) -> &TestVector {
        &self.vectors[index]
    }
}

impl<'a> IntoIterator for &'a TestSequence {
    type Item = &'a TestVector;
    type IntoIter = std::slice::Iter<'a, TestVector>;

    fn into_iter(self) -> Self::IntoIter {
        self.vectors.iter()
    }
}

impl fmt::Display for TestSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.vectors.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

impl FromStr for TestSequence {
    type Err = ExpandError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let vectors =
            s.split_whitespace().map(str::parse).collect::<Result<Vec<TestVector>, _>>()?;
        TestSequence::from_vectors(vectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> TestSequence {
        s.parse().unwrap()
    }

    #[test]
    fn parse_multiline() {
        let s: TestSequence = "000\n110\n 011 ".parse().unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.width(), 3);
        assert_eq!(s.to_string(), "000 110 011");
    }

    #[test]
    fn parse_rejects_ragged_widths() {
        assert_eq!(
            "000 11".parse::<TestSequence>(),
            Err(ExpandError::WidthMismatch { expected: 3, got: 2 })
        );
    }

    #[test]
    fn parse_rejects_empty() {
        assert_eq!("".parse::<TestSequence>(), Err(ExpandError::Empty));
        assert_eq!("   \n ".parse::<TestSequence>(), Err(ExpandError::Empty));
    }

    #[test]
    fn push_checks_width() {
        let mut s = TestSequence::new(3);
        s.push("010".parse().unwrap()).unwrap();
        let err = s.push("0101".parse().unwrap()).unwrap_err();
        assert_eq!(err, ExpandError::WidthMismatch { expected: 3, got: 4 });
    }

    #[test]
    fn repetition_example_from_paper() {
        // §2: S = (000, 111) → S^2 = (000, 111, 000, 111).
        let s = seq("000 111");
        assert_eq!(s.repeated(2).unwrap().to_string(), "000 111 000 111");
        assert_eq!(s.repeated(3).unwrap().len(), 6);
        assert_eq!(s.repeated(1).unwrap(), s);
        assert!(s.repeated(0).is_err());
    }

    #[test]
    fn complementation_example_from_paper() {
        // §2: S = (000, 111) → ~S = (111, 000).
        assert_eq!(seq("000 111").complemented().to_string(), "111 000");
    }

    #[test]
    fn shifting_example_from_paper() {
        // §2: S = (001, 101) → S << 1 = (010, 011).
        assert_eq!(seq("001 101").shifted(1).to_string(), "010 011");
    }

    #[test]
    fn reversal_example_from_paper() {
        // §2: S = (000, 001, 111) → rS = (111, 001, 000).
        assert_eq!(seq("000 001 111").reversed().to_string(), "111 001 000");
    }

    #[test]
    fn reversal_and_complement_are_involutions() {
        let s = seq("001 110 010 111");
        assert_eq!(s.reversed().reversed(), s);
        assert_eq!(s.complemented().complemented(), s);
    }

    #[test]
    fn subsequence_is_inclusive() {
        let s = seq("000 001 010 011 100");
        let sub = s.subsequence(1, 3);
        assert_eq!(sub.to_string(), "001 010 011");
    }

    #[test]
    fn without_removes_one_vector() {
        let s = seq("000 001 010");
        assert_eq!(s.without(1).to_string(), "000 010");
        assert_eq!(s.len(), 3, "original untouched");
    }

    #[test]
    fn remove_in_place_equals_without() {
        let s = seq("000 001 010 011");
        for u in 0..s.len() {
            let mut removed = s.clone();
            assert_eq!(removed.remove(u), s[u]);
            assert_eq!(removed, s.without(u), "u={u}");
        }
    }

    #[test]
    fn concat_checks_width() {
        let a = seq("00 11");
        let b = seq("000");
        assert!(a.concat(&b).is_err());
        assert_eq!(a.concat(&a).unwrap().len(), 4);
    }

    #[test]
    fn storage_bits() {
        assert_eq!(seq("0000 1111 0101").storage_bits(), 12);
    }

    #[test]
    fn indexing_and_iteration() {
        let s = seq("01 10 11");
        assert_eq!(s[2].to_string(), "11");
        let all: Vec<String> = s.iter().map(ToString::to_string).collect();
        assert_eq!(all, vec!["01", "10", "11"]);
        let via_into: usize = (&s).into_iter().count();
        assert_eq!(via_into, 3);
    }
}
