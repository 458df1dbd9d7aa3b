//! Streaming (lazy) views of test-vector sequences.
//!
//! The materialized [`expand`](crate::expansion::ExpansionConfig::expand)
//! allocates all `8·n·|S|` vectors of `Sexp` up front. The on-chip
//! hardware never does that: it re-walks the loaded memory once per phase,
//! producing one vector per clock. [`ExpansionIter`] is the software
//! equivalent — it computes each vector of `Sexp` on the fly from the
//! loaded sequence and the flat phase schedule, clock-for-clock identical
//! to [`OnChipExpander`](crate::hardware::OnChipExpander).
//!
//! [`VectorSource`] abstracts "a finite, replayable stream of equally
//! wide vectors" so that fault simulators can consume either a stored
//! [`TestSequence`] or a lazy expansion without the caller materializing
//! anything. A source also describes its [`Walks`]: runs of memory walks
//! that apply the same vectors on every repetition. An expansion reports
//! its eight phases (`n` walks of `|S|` vectors each); a simulator that
//! sees a walk end in the state it began in may resume the stream at the
//! end of that run ([`VectorSource::vector_into`] reads any time), since
//! the remaining walks can only replay it.

use crate::expansion::Phase;
use crate::{TestSequence, TestVector};

/// A run of `reps` consecutive memory walks of `len` vectors each, every
/// walk applying the same `len` vectors — one phase of an expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Walks {
    /// Vectors per walk.
    pub len: usize,
    /// Number of walks.
    pub reps: usize,
}

/// A finite, replayable stream of equally wide test vectors.
///
/// Implementors must produce the same vectors on every [`visit`] — fault
/// simulators replay the stream once per fault chunk. `Sync` is a
/// supertrait so that thread-sharded simulators can replay one stream
/// concurrently from several worker threads; [`visit`] takes `&self`, so
/// implementors need no interior mutability to satisfy it.
///
/// The stream's [`walks`] cut it into consecutive runs of repeated walks;
/// simulators rely on every walk of a run applying identical vectors and
/// jump over the rest of a run once a walk returns to the state it began
/// in, reading each vector by time with [`vector_into`], which must agree
/// with [`visit`]. The provided default describes the stream as one walk
/// of one repetition, so a source that repeats nothing keeps it.
///
/// [`visit`]: VectorSource::visit
/// [`walks`]: VectorSource::walks
/// [`vector_into`]: VectorSource::vector_into
pub trait VectorSource: Sync {
    /// The vector width (number of primary inputs driven).
    fn width(&self) -> usize;

    /// Number of vectors in the stream.
    fn num_vectors(&self) -> usize;

    /// Whether the stream holds no vectors.
    fn is_empty(&self) -> bool {
        self.num_vectors() == 0
    }

    /// Visits every vector in application order. The visitor receives the
    /// time unit and the vector and returns `true` to continue; returning
    /// `false` stops the walk early (used by simulators once every fault
    /// of a pass has been detected).
    fn visit(&self, visitor: &mut dyn FnMut(usize, &TestVector) -> bool);

    /// The stream cut into runs of repeated walks, in application order:
    /// run `i` is `walks()[i].reps` walks of `walks()[i].len` vectors
    /// each, every walk applying the same vectors, and the runs cover the
    /// stream (`Σ len·reps = num_vectors()`). The default is the whole
    /// stream as one walk of one repetition.
    fn walks(&self) -> Vec<Walks> {
        vec![Walks { len: self.num_vectors(), reps: 1 }]
    }

    /// Writes the vector of time unit `t` into `out` — the vector
    /// [`visit`](Self::visit) passes at `t` — reusing its allocation:
    /// random access for simulators that step streams on their own
    /// clocks, one vector of each per clock.
    ///
    /// # Panics
    ///
    /// May panic if `t >= num_vectors()`.
    fn vector_into(&self, t: usize, out: &mut TestVector);

    /// Collects the stream into a stored sequence (mainly for tests and
    /// hardware co-simulation; defeats the purpose on hot paths).
    fn materialize(&self) -> TestSequence {
        let mut out = TestSequence::new(self.width());
        self.visit(&mut |_, v| {
            out.push(v.clone()).expect("uniform width by contract");
            true
        });
        out
    }
}

impl VectorSource for TestSequence {
    fn width(&self) -> usize {
        TestSequence::width(self)
    }

    fn num_vectors(&self) -> usize {
        TestSequence::len(self)
    }

    fn visit(&self, visitor: &mut dyn FnMut(usize, &TestVector) -> bool) {
        for (t, v) in self.iter().enumerate() {
            if !visitor(t, v) {
                return;
            }
        }
    }

    fn vector_into(&self, t: usize, out: &mut TestVector) {
        out.copy_from(&self[t]);
    }
}

/// A lazy `Sexp` stream: the expansion of a loaded sequence, produced one
/// vector at a time from a flat [`Phase`] schedule.
///
/// Obtained from [`Expand::stream`](crate::expansion::Expand::stream).
/// Implements [`Iterator`] for consumption and [`VectorSource`] for
/// replayable simulation; `visit` always replays the *entire* expansion,
/// regardless of how far the iterator cursor has advanced.
///
/// # Example
///
/// ```
/// use bist_expand::expansion::{Expand, ExpansionConfig};
/// use bist_expand::{TestSequence, VectorSource};
///
/// let s: TestSequence = "000 110".parse()?;
/// let cfg = ExpansionConfig::new(2)?;
/// let streamed = TestSequence::from_vectors(cfg.stream(&s).collect())?;
/// assert_eq!(streamed, cfg.expand(&s));
/// assert_eq!(cfg.stream(&s).len(), 8 * 2 * s.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExpansionIter<'s> {
    /// The vectors the loaded memory is read from...
    memory: &'s [TestVector],
    /// ...leaving out this index, if any ([`without`](Self::without)).
    skip: Option<usize>,
    width: usize,
    phases: Vec<Phase>,
    /// Time unit of the next vector the iterator cursor emits.
    next: usize,
}

impl<'s> ExpansionIter<'s> {
    /// Creates a stream over `seq` for the given phase schedule.
    ///
    /// Degenerate inputs are well-defined rather than panics: an empty
    /// loaded sequence (or an all-zero-rep schedule) yields an empty
    /// stream — [`next`](Iterator::next) returns `None` and
    /// [`visit`](VectorSource::visit) makes no calls — identically on
    /// every replay. Zero-rep phases are skipped.
    #[must_use]
    pub fn new(seq: &'s TestSequence, phases: Vec<Phase>) -> Self {
        ExpansionIter { memory: seq.vectors(), skip: None, width: seq.width(), phases, next: 0 }
    }

    /// The stream of the loaded window `seq[from..=to]` — equal to
    /// streaming [`seq.subsequence(from, to)`](TestSequence::subsequence)
    /// without copying the window.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`, `to` is out of range, or a vector was
    /// already left out.
    #[must_use]
    pub fn window(mut self, from: usize, to: usize) -> Self {
        assert!(self.skip.is_none(), "window of a stream that omits a vector");
        self.memory = &self.memory[from..=to];
        self
    }

    /// The stream with loaded vector `index` left out — equal to
    /// streaming [`seq.without(index)`](TestSequence::without) without
    /// copying the sequence.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or a vector was already left
    /// out.
    #[must_use]
    pub fn without(mut self, index: usize) -> Self {
        assert!(self.skip.is_none(), "stream already omits a vector");
        assert!(index < self.memory.len(), "index {index} out of range");
        self.skip = Some(index);
        self
    }

    /// The phase schedule driving the stream.
    #[must_use]
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Number of loaded vectors `|S|` one memory walk reads.
    fn loaded_len(&self) -> usize {
        self.memory.len() - usize::from(self.skip.is_some())
    }

    /// Total stream length: `|S| · Σ reps`.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.loaded_len() * self.phases.iter().map(|p| p.reps).sum::<usize>()
    }

    /// Vectors already emitted through the iterator cursor.
    #[must_use]
    pub fn emitted(&self) -> usize {
        self.next
    }

    /// The memory word read by phase `p` at walk offset `pos`.
    fn word(&self, p: &Phase, pos: usize) -> &'s TestVector {
        let addr = if p.reverse { self.loaded_len() - 1 - pos } else { pos };
        match self.skip {
            Some(skip) if addr >= skip => &self.memory[addr + 1],
            _ => &self.memory[addr],
        }
    }
}

impl Iterator for ExpansionIter<'_> {
    type Item = TestVector;

    fn next(&mut self) -> Option<TestVector> {
        if self.next == self.total_len() {
            return None;
        }
        let mut out = TestVector::zeros(self.width);
        self.vector_into(self.next, &mut out);
        self.next += 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total_len() - self.emitted();
        (left, Some(left))
    }
}

impl ExactSizeIterator for ExpansionIter<'_> {}

impl VectorSource for ExpansionIter<'_> {
    fn width(&self) -> usize {
        self.width
    }

    fn num_vectors(&self) -> usize {
        self.total_len()
    }

    fn visit(&self, visitor: &mut dyn FnMut(usize, &TestVector) -> bool) {
        // Always the entire expansion, whatever the iterator cursor; one
        // reused buffer carries every transformed vector.
        let walk = self.loaded_len();
        if walk == 0 {
            return;
        }
        let mut out = TestVector::zeros(self.width);
        let mut t = 0;
        for phase in &self.phases {
            for _ in 0..phase.reps {
                for pos in 0..walk {
                    phase.transform_into(self.word(phase, pos), &mut out);
                    if !visitor(t, &out) {
                        return;
                    }
                    t += 1;
                }
            }
        }
    }

    /// One run per phase: `reps` walks of the loaded length (zero-rep
    /// phases and an empty memory contribute nothing).
    fn walks(&self) -> Vec<Walks> {
        let len = self.loaded_len();
        if len == 0 {
            return Vec::new();
        }
        self.phases.iter().filter(|p| p.reps > 0).map(|p| Walks { len, reps: p.reps }).collect()
    }

    fn vector_into(&self, t: usize, out: &mut TestVector) {
        let walk = self.loaded_len();
        let mut left = t;
        for phase in &self.phases {
            let span = phase.reps * walk;
            if left < span {
                phase.transform_into(self.word(phase, left % walk), out);
                return;
            }
            left -= span;
        }
        panic!("time {t} is past the end of a {}-vector expansion", self.total_len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expansion::{CustomExpansion, Expand, ExpansionConfig};

    fn seq(s: &str) -> TestSequence {
        s.parse().unwrap()
    }

    #[test]
    fn iterator_equals_materialized_table1() {
        let s = seq("000 110");
        let cfg = ExpansionConfig::new(2).unwrap();
        let collected = TestSequence::from_vectors(cfg.stream(&s).collect()).unwrap();
        assert_eq!(collected, cfg.expand(&s));
    }

    #[test]
    fn visit_equals_iterator_and_restarts() {
        let s = seq("0010 1101 0111");
        for n in [1, 2, 4, 8, 16] {
            let cfg = ExpansionConfig::new(n).unwrap();
            let stream = cfg.stream(&s);
            let via_iter: Vec<TestVector> = stream.clone().collect();
            // visit twice: the stream must replay identically.
            for _ in 0..2 {
                let mut via_visit = Vec::new();
                stream.visit(&mut |t, v| {
                    assert_eq!(t, via_visit.len());
                    via_visit.push(v.clone());
                    true
                });
                assert_eq!(via_visit, via_iter, "n={n}");
            }
        }
    }

    #[test]
    fn random_access_equals_visit() {
        let s = seq("0010 1101 0111");
        let mut out = TestVector::zeros(1);
        for n in [1, 3] {
            let stream = ExpansionConfig::new(n).unwrap().stream(&s);
            stream.visit(&mut |t, v| {
                stream.vector_into(t, &mut out);
                assert_eq!(&out, v, "n={n} t={t}");
                true
            });
        }
        s.vector_into(2, &mut out);
        assert_eq!(out, s[2]);
    }

    #[test]
    fn windows_and_omissions_stream_without_copying() {
        let s = seq("0010 1101 0111 1000 0110");
        let cfg = ExpansionConfig::new(2).unwrap();
        for from in 0..s.len() {
            for to in from..s.len() {
                let window = cfg.stream(&s).window(from, to);
                assert_eq!(window.materialize(), cfg.expand(&s.subsequence(from, to)));
                assert_eq!(window.loaded_len(), to - from + 1);
            }
        }
        let mut out = TestVector::zeros(1);
        for u in 0..s.len() {
            let omitted = cfg.stream(&s).without(u);
            let want = cfg.expand(&s.without(u));
            assert_eq!(omitted.materialize(), want, "u={u}");
            assert_eq!(TestSequence::from_vectors(omitted.clone().collect()).unwrap(), want);
            for t in [0, want.len() / 2, want.len() - 1] {
                omitted.vector_into(t, &mut out);
                assert_eq!(out, want[t], "u={u} t={t}");
            }
        }
        let single = seq("101");
        assert_eq!(cfg.stream(&single).without(0).total_len(), 0);
    }

    #[test]
    fn visit_ignores_iterator_cursor() {
        let s = seq("01 10 11");
        let cfg = ExpansionConfig::new(2).unwrap();
        let mut stream = cfg.stream(&s);
        let full: Vec<TestVector> = stream.clone().collect();
        let _ = stream.next();
        let _ = stream.next();
        let mut replay = Vec::new();
        stream.visit(&mut |_, v| {
            replay.push(v.clone());
            true
        });
        assert_eq!(replay, full, "visit replays from the start");
    }

    #[test]
    fn early_exit_stops_walk() {
        let s = seq("01 10");
        let cfg = ExpansionConfig::new(4).unwrap();
        let stream = cfg.stream(&s);
        let mut seen = 0usize;
        stream.visit(&mut |_, _| {
            seen += 1;
            seen < 5
        });
        assert_eq!(seen, 5);
    }

    #[test]
    fn exact_size_counts_down() {
        let s = seq("011 101");
        let cfg = ExpansionConfig::new(2).unwrap();
        let mut stream = cfg.stream(&s);
        let total = stream.total_len();
        assert_eq!(total, 8 * 2 * 2);
        for left in (0..total).rev() {
            assert_eq!(stream.len(), left + 1);
            stream.next().unwrap();
        }
        assert_eq!(stream.len(), 0);
        assert!(stream.next().is_none());
    }

    #[test]
    fn custom_recipe_streams_equal_expand() {
        let s = seq("001 110 010 101");
        for (c, sh, r) in [
            (false, false, false),
            (true, false, false),
            (false, true, false),
            (false, false, true),
            (true, true, false),
            (true, false, true),
            (false, true, true),
            (true, true, true),
        ] {
            for n in [1, 2, 3] {
                let recipe = CustomExpansion::new(n).unwrap().complement(c).shift(sh).reverse(r);
                let streamed = TestSequence::from_vectors(recipe.stream(&s).collect()).unwrap();
                assert_eq!(
                    streamed,
                    Expand::expand(&recipe, &s),
                    "recipe {} n={n}",
                    recipe.describe()
                );
            }
        }
    }

    #[test]
    fn empty_sequence_streams_empty_on_every_replay() {
        let s = TestSequence::new(3);
        let cfg = ExpansionConfig::new(4).unwrap();
        let mut stream = cfg.stream(&s);
        assert_eq!(stream.total_len(), 0);
        assert_eq!(VectorSource::num_vectors(&stream), 0);
        assert!(VectorSource::is_empty(&stream));
        assert!(stream.next().is_none());
        assert!(stream.next().is_none(), "stays exhausted");
        // visit must make no calls — identically on every replay.
        for _ in 0..3 {
            stream.visit(&mut |_, _| panic!("empty stream must not visit"));
        }
        assert_eq!(stream.materialize(), s);
        // The materialized expansion of an empty sequence is empty too.
        assert_eq!(cfg.expand(&s), s);
    }

    #[test]
    fn zero_rep_phases_are_skipped() {
        let s = seq("01 10");
        let phases = vec![
            Phase { reverse: false, shift: false, complement: false, reps: 0 },
            Phase { reverse: false, shift: false, complement: true, reps: 1 },
            Phase { reverse: false, shift: false, complement: false, reps: 0 },
        ];
        let stream = ExpansionIter::new(&s, phases);
        assert_eq!(stream.total_len(), 2);
        let out = TestSequence::from_vectors(stream.clone().collect()).unwrap();
        assert_eq!(out.to_string(), "10 01");
        // Replay through visit matches the iterator.
        assert_eq!(stream.materialize(), out);
        // All-zero-rep schedules are an empty stream.
        let none = ExpansionIter::new(
            &s,
            vec![Phase { reverse: true, shift: true, complement: true, reps: 0 }],
        );
        assert_eq!(none.total_len(), 0);
        assert_eq!(none.clone().count(), 0);
        none.visit(&mut |_, _| panic!("must not visit"));
    }

    #[test]
    fn single_vector_sequence_replays_consistently() {
        let s = seq("1011");
        for n in [1, 2, 4] {
            let cfg = ExpansionConfig::new(n).unwrap();
            let stream = cfg.stream(&s);
            assert_eq!(stream.total_len(), 8 * n);
            let first = stream.materialize();
            let second = stream.materialize();
            assert_eq!(first, second, "replays identical at n={n}");
            assert_eq!(first, cfg.expand(&s), "stream equals materialized at n={n}");
        }
    }

    #[test]
    fn materialize_round_trips() {
        let s = seq("0110 1001");
        let cfg = ExpansionConfig::new(3).unwrap();
        assert_eq!(cfg.stream(&s).materialize(), cfg.expand(&s));
        assert_eq!(VectorSource::materialize(&s), s);
    }

    #[test]
    fn sequence_is_a_vector_source() {
        let s = seq("01 10 11");
        assert_eq!(VectorSource::num_vectors(&s), 3);
        assert_eq!(VectorSource::width(&s), 2);
        let mut seen = Vec::new();
        VectorSource::visit(&s, &mut |t, v| {
            seen.push((t, v.clone()));
            true
        });
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2].1, s[2]);
    }
}
