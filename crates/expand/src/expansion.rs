//! The paper's expansion function `S → Sexp`.
//!
//! Section 2 composes the four operations into a single fixed recipe:
//!
//! ```text
//! S'    = S^n
//! S''   = S' · ~S'
//! S'''  = S'' · (S'' << 1)
//! Sexp  = S''' · r(S''')
//! ```
//!
//! giving `|Sexp| = 8·n·|S|`. The expansion is *the* test sequence applied
//! to the circuit; the loaded `S` itself is never applied directly.
//!
//! [`ExpansionConfig::expand`] computes `Sexp` by the definition above.
//! [`ExpansionConfig::phases`] exposes the equivalent flat phase schedule —
//! eight segments, each re-walking the stored memory with fixed
//! complement/shift/direction mux settings — which is exactly what the
//! hardware FSM executes. Unit tests prove both views identical.

use crate::stream::ExpansionIter;
use crate::{ExpandError, TestSequence, TestVector};
use std::fmt;

/// Anything that can expand a loaded sequence into an applied sequence.
///
/// Implemented by [`ExpansionConfig`] (the paper's full recipe) and
/// [`CustomExpansion`] (arbitrary subsets of the four operations, used by
/// the ablation study). The selection procedures in `bist-core` are
/// written against this trait, so the whole scheme can be re-run under a
/// weaker expander to measure what each operation buys.
///
/// Every recipe is equivalent to a flat [`Phase`] schedule — a list of
/// memory walks with fixed mux settings — which is what the on-chip
/// hardware executes and what [`stream`](Expand::stream) replays lazily.
/// The hot paths in `bist-core` consume the stream, so the full
/// `length_factor()·|S|`-vector expansion is never materialized there.
pub trait Expand {
    /// Expands `s` into the sequence applied to the circuit
    /// (materialized; prefer [`stream`](Expand::stream) on hot paths).
    fn expand(&self, s: &TestSequence) -> TestSequence;

    /// The fixed length multiplier: `expand(s).len() == length_factor() * s.len()`.
    fn length_factor(&self) -> usize;

    /// The flat phase schedule equivalent to [`expand`](Expand::expand):
    /// each entry re-walks the loaded memory with fixed complement /
    /// shift / direction settings.
    fn phase_schedule(&self) -> Vec<Phase>;

    /// A lazy, replayable view of `expand(s)` computed one vector at a
    /// time from the phase schedule — no `Sexp` allocation.
    fn stream<'s>(&self, s: &'s TestSequence) -> ExpansionIter<'s> {
        ExpansionIter::new(s, self.phase_schedule())
    }
}

/// One of the eight segments of `Sexp`.
///
/// During a phase the test memory is walked once per repetition (`reps`
/// times total), in ascending address order (`reverse == false`) or
/// descending order (`reverse == true`), with the complement and shift
/// multiplexers held at fixed settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Phase {
    /// Walk the memory in descending address order.
    pub reverse: bool,
    /// Route memory outputs through the circular-shift multiplexer.
    pub shift: bool,
    /// Route memory outputs through the inverters.
    pub complement: bool,
    /// Number of memory walks in this phase (the repetition count `n`).
    pub reps: usize,
}

impl Phase {
    /// Applies this phase's vector transformation to one memory word.
    #[must_use]
    pub fn transform(&self, v: &TestVector) -> TestVector {
        let mut out = TestVector::zeros(v.width());
        self.transform_into(v, &mut out);
        out
    }

    /// [`transform`](Self::transform) into `out`, reusing its allocation —
    /// the per-clock step of a streamed expansion.
    pub fn transform_into(&self, v: &TestVector, out: &mut TestVector) {
        if self.shift {
            v.rotate_left_into(1, out);
        } else {
            out.copy_from(v);
        }
        if self.complement {
            out.invert();
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}×{}",
            if self.reverse { "r" } else { "f" },
            if self.complement { "c" } else { "-" },
            if self.shift { "s" } else { "-" },
            self.reps
        )
    }
}

/// Configuration of the expansion function: the repetition count `n`.
///
/// The paper evaluates `n ∈ {2, 4, 8, 16}` and uses `n = 1` in the worked
/// s27 example; any `n ≥ 1` is accepted.
///
/// # Example
///
/// ```
/// use bist_expand::expansion::ExpansionConfig;
/// use bist_expand::TestSequence;
///
/// let cfg = ExpansionConfig::new(1)?;
/// let s: TestSequence = "1011".parse()?;
/// // §3.1 worked example: expanding T0[9,9] = (1011) with n = 1.
/// assert_eq!(
///     cfg.expand(&s).to_string(),
///     "1011 0100 0111 1000 1000 0111 0100 1011"
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExpansionConfig {
    n: usize,
}

impl ExpansionConfig {
    /// Creates a configuration with repetition count `n`.
    ///
    /// # Errors
    ///
    /// [`ExpandError::BadRepetition`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, ExpandError> {
        if n == 0 {
            return Err(ExpandError::BadRepetition { got: 0 });
        }
        Ok(ExpansionConfig { n })
    }

    /// The repetition count.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Length of `Sexp` for a loaded sequence of length `len`: `8·n·len`.
    #[must_use]
    pub fn expanded_len(&self, len: usize) -> usize {
        8 * self.n * len
    }

    /// Computes `Sexp` from `S` by the paper's definition.
    #[must_use]
    pub fn expand(&self, s: &TestSequence) -> TestSequence {
        let s1 = s.repeated(self.n).expect("n >= 1 by construction");
        let s2 = s1.concat(&s1.complemented()).expect("same width");
        let s3 = s2.concat(&s2.shifted(1)).expect("same width");
        s3.concat(&s3.reversed()).expect("same width")
    }

    /// The flat phase schedule equivalent to [`expand`](Self::expand):
    /// eight memory walks with fixed mux settings.
    ///
    /// Forward half (`S'''`): plain, complemented, shifted,
    /// complemented+shifted. Reverse half (`rS'''`): the same four in
    /// reverse order, walked backwards.
    #[must_use]
    pub fn phases(&self) -> [Phase; 8] {
        let n = self.n;
        let p = |reverse, complement, shift| Phase { reverse, shift, complement, reps: n };
        [
            p(false, false, false),
            p(false, true, false),
            p(false, false, true),
            p(false, true, true),
            p(true, true, true),
            p(true, false, true),
            p(true, true, false),
            p(true, false, false),
        ]
    }

    /// Computes `Sexp` by executing the phase schedule (the hardware's
    /// view). Equal to [`expand`](Self::expand) for every input; the
    /// software definition is kept as the reference.
    #[must_use]
    pub fn expand_by_phases(&self, s: &TestSequence) -> TestSequence {
        let len = s.len();
        let mut out = TestSequence::new(s.width());
        for phase in self.phases() {
            for _ in 0..phase.reps {
                for t in 0..len {
                    let addr = if phase.reverse { len - 1 - t } else { t };
                    out.push(phase.transform(&s[addr])).expect("same width");
                }
            }
        }
        out
    }
}

impl Expand for ExpansionConfig {
    fn expand(&self, s: &TestSequence) -> TestSequence {
        ExpansionConfig::expand(self, s)
    }

    fn length_factor(&self) -> usize {
        8 * self.n
    }

    fn phase_schedule(&self) -> Vec<Phase> {
        self.phases().to_vec()
    }
}

/// An arbitrary subset of the paper's expansion recipe, for ablation.
///
/// The stages compose exactly like the paper's (`repeat`, then
/// `· complement`, then `· shift`, then `· reverse`), but each doubling
/// stage can be disabled. With every stage enabled this is identical to
/// [`ExpansionConfig`]; with everything disabled it degenerates to plain
/// repetition (`repeat = 1` ⇒ the identity: loading `T0` fragments and
/// replaying them verbatim).
///
/// # Example
///
/// ```
/// use bist_expand::expansion::{CustomExpansion, Expand, ExpansionConfig};
/// use bist_expand::TestSequence;
///
/// let s: TestSequence = "000 110".parse()?;
/// let full = CustomExpansion::new(2)?.complement(true).shift(true).reverse(true);
/// assert_eq!(Expand::expand(&full, &s), ExpansionConfig::new(2)?.expand(&s));
/// let plain = CustomExpansion::new(1)?;
/// assert_eq!(Expand::expand(&plain, &s), s);   // identity
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CustomExpansion {
    repeat: usize,
    use_complement: bool,
    use_shift: bool,
    use_reverse: bool,
}

impl CustomExpansion {
    /// Repetition-only recipe with `n ≥ 1` repeats.
    ///
    /// # Errors
    ///
    /// [`ExpandError::BadRepetition`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, ExpandError> {
        if n == 0 {
            return Err(ExpandError::BadRepetition { got: 0 });
        }
        Ok(CustomExpansion {
            repeat: n,
            use_complement: false,
            use_shift: false,
            use_reverse: false,
        })
    }

    /// Enables/disables the complementation stage.
    #[must_use]
    pub fn complement(mut self, on: bool) -> Self {
        self.use_complement = on;
        self
    }

    /// Enables/disables the circular-shift stage.
    #[must_use]
    pub fn shift(mut self, on: bool) -> Self {
        self.use_shift = on;
        self
    }

    /// Enables/disables the reversal stage.
    #[must_use]
    pub fn reverse(mut self, on: bool) -> Self {
        self.use_reverse = on;
        self
    }

    /// Short recipe description, e.g. `"n4+c+s+r"`.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "n{}{}{}{}",
            self.repeat,
            if self.use_complement { "+c" } else { "" },
            if self.use_shift { "+s" } else { "" },
            if self.use_reverse { "+r" } else { "" },
        )
    }
}

impl Expand for CustomExpansion {
    fn expand(&self, s: &TestSequence) -> TestSequence {
        let mut cur = s.repeated(self.repeat).expect("repeat >= 1");
        if self.use_complement {
            cur = cur.concat(&cur.complemented()).expect("same width");
        }
        if self.use_shift {
            cur = cur.concat(&cur.shifted(1)).expect("same width");
        }
        if self.use_reverse {
            cur = cur.concat(&cur.reversed()).expect("same width");
        }
        cur
    }

    fn length_factor(&self) -> usize {
        self.repeat
            * (1 << (usize::from(self.use_complement)
                + usize::from(self.use_shift)
                + usize::from(self.use_reverse)))
    }

    fn phase_schedule(&self) -> Vec<Phase> {
        // Each enabled doubling stage concatenates the current stream
        // with a transformed copy of itself; on the phase schedule that
        // is "append every phase with one mux toggled". Reversal also
        // flips segment order and walk direction (r(A·B) = rB·rA).
        let mut phases =
            vec![Phase { reverse: false, shift: false, complement: false, reps: self.repeat }];
        if self.use_complement {
            let tail: Vec<Phase> =
                phases.iter().map(|p| Phase { complement: !p.complement, ..*p }).collect();
            phases.extend(tail);
        }
        if self.use_shift {
            let tail: Vec<Phase> = phases.iter().map(|p| Phase { shift: !p.shift, ..*p }).collect();
            phases.extend(tail);
        }
        if self.use_reverse {
            let tail: Vec<Phase> =
                phases.iter().rev().map(|p| Phase { reverse: !p.reverse, ..*p }).collect();
            phases.extend(tail);
        }
        phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> TestSequence {
        s.parse().unwrap()
    }

    /// The golden test: Table 1 of the paper, reproduced bit for bit.
    #[test]
    fn table1_golden() {
        let s = seq("000 110");
        let cfg = ExpansionConfig::new(2).unwrap();

        let s1 = s.repeated(2).unwrap();
        assert_eq!(s1.to_string(), "000 110 000 110");

        let s2 = s1.concat(&s1.complemented()).unwrap();
        assert_eq!(s2.to_string(), "000 110 000 110 111 001 111 001");

        let s3 = s2.concat(&s2.shifted(1)).unwrap();
        assert_eq!(
            s3.to_string(),
            "000 110 000 110 111 001 111 001 000 101 000 101 111 010 111 010"
        );

        let sexp = cfg.expand(&s);
        assert_eq!(
            sexp.to_string(),
            "000 110 000 110 111 001 111 001 \
             000 101 000 101 111 010 111 010 \
             010 111 010 111 101 000 101 000 \
             001 111 001 111 110 000 110 000"
        );
    }

    /// The s27 worked example in §3.1: T' = (1011), n = 1.
    #[test]
    fn s27_single_vector_expansion() {
        let cfg = ExpansionConfig::new(1).unwrap();
        let sexp = cfg.expand(&seq("1011"));
        assert_eq!(sexp.to_string(), "1011 0100 0111 1000 1000 0111 0100 1011");
    }

    #[test]
    fn expanded_len_is_8nl() {
        for n in [1, 2, 4, 8, 16] {
            let cfg = ExpansionConfig::new(n).unwrap();
            for l in [1, 2, 5, 9] {
                let s = TestSequence::from_vectors(
                    (0..l).map(|i| TestVector::from_fn(5, |b| (b + i) % 2 == 0)).collect(),
                )
                .unwrap();
                let sexp = cfg.expand(&s);
                assert_eq!(sexp.len(), 8 * n * l);
                assert_eq!(sexp.len(), cfg.expanded_len(l));
            }
        }
    }

    #[test]
    fn phases_equal_reference() {
        for n in [1, 2, 3, 4] {
            let cfg = ExpansionConfig::new(n).unwrap();
            let s = seq("0010 1101 0111");
            assert_eq!(cfg.expand_by_phases(&s), cfg.expand(&s), "n={n}");
        }
    }

    #[test]
    fn phase_count_and_structure() {
        let cfg = ExpansionConfig::new(4).unwrap();
        let phases = cfg.phases();
        assert_eq!(phases.len(), 8);
        // First four forward, last four reverse.
        assert!(phases[..4].iter().all(|p| !p.reverse));
        assert!(phases[4..].iter().all(|p| p.reverse));
        // Mirror symmetry: phase 7-i has the same muxes as phase i.
        for i in 0..4 {
            assert_eq!(phases[i].complement, phases[7 - i].complement);
            assert_eq!(phases[i].shift, phases[7 - i].shift);
        }
        assert!(phases.iter().all(|p| p.reps == 4));
    }

    #[test]
    fn sexp_is_palindromic() {
        // Sexp = S''' · rS''', so reading Sexp backwards gives Sexp.
        let cfg = ExpansionConfig::new(2).unwrap();
        let sexp = cfg.expand(&seq("010 110 001"));
        assert_eq!(sexp.reversed(), sexp);
    }

    #[test]
    fn zero_n_rejected() {
        assert_eq!(ExpansionConfig::new(0), Err(ExpandError::BadRepetition { got: 0 }));
    }

    #[test]
    fn phase_display() {
        let cfg = ExpansionConfig::new(2).unwrap();
        let shown: Vec<String> = cfg.phases().iter().map(ToString::to_string).collect();
        assert_eq!(shown[0], "f--×2");
        assert_eq!(shown[3], "fcs×2");
        assert_eq!(shown[7], "r--×2");
    }
}
