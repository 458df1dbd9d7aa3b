//! Static compaction of test sequences by vector omission.
//!
//! Substitute for the vector-restoration compaction of Pomeranz & Reddy
//! \[12\]: vectors are tentatively omitted (in random order) and each
//! omission is kept if the sequence still detects every fault of the
//! target set. Because sequential-circuit fault simulation is the cost
//! driver, the procedure takes an explicit *budget* of trial simulations.
//!
//! Trials are incremental. Omitting vector `u` leaves the prefix
//! `[0, u)` unchanged, and with it every detection before `u`, so a trial
//! re-simulates only the target faults detected at `u` or later,
//! resuming from the nearest *checkpoint* at or before `u` rather than
//! from the all-`X` state. Checkpoints are [`MachineState`]s at every
//! multiple of `2⌊√len⌋` vectors. The spacing follows from the input
//! length alone; denser checkpoints measured no faster, and each one
//! holds a row per still-undetected fault. One from-reset pass at the
//! start captures them, yields the detection times and checks that the
//! input detects the whole target set. A successful trial keeps the
//! checkpoints up to `u` and replaces the later ones with snapshots from
//! its own walk; a failed trial changes nothing. A trial with no target
//! fault detected at or after `u` succeeds without simulating (it still
//! counts against the budget). Sequences, trial counts and removals are
//! exactly those of re-simulating every candidate from scratch.
//!
//! Checkpoints past the last detection time are never read — a trial
//! there has nothing to simulate — so the snapshots a walk could not
//! reach (every chunk stopped at its last detection) are simply absent.

use bist_expand::{TestSequence, TestVector, VectorSource};
use bist_netlist::Circuit;
use bist_sim::{Fault, FaultSimulator, MachineState, SimError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The outcome of static compaction.
#[derive(Debug, Clone)]
pub struct CompactionStats {
    /// The compacted sequence (detects the whole target set).
    pub sequence: TestSequence,
    /// Length before compaction.
    pub original_len: usize,
    /// Number of vectors removed.
    pub removed: usize,
    /// Number of trial fault simulations spent.
    pub trials: usize,
}

impl CompactionStats {
    /// Fraction of vectors removed.
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.original_len == 0 {
            0.0
        } else {
            self.removed as f64 / self.original_len as f64
        }
    }
}

const UNDETECTED_KEEP: &str =
    "static_compact requires the input sequence to detect every kept fault";

/// Compacts `sequence` while preserving detection of every fault in
/// `keep`.
///
/// Vectors are tried in random order (seeded); after a successful
/// omission all positions are reconsidered, exactly like the omission loop
/// of the paper's Procedure 2 but with a whole fault set as the criterion.
/// Stops when no further vector can be omitted or `budget` trial
/// simulations have been spent. Builds its own simulator (compiling the
/// circuit's tape); test generation runs the same loop on the simulator
/// it already holds.
///
/// # Errors
///
/// Propagates simulator errors (e.g. width mismatch).
///
/// # Panics
///
/// Panics if `keep` contains a fault the input sequence does not detect —
/// callers must pass the detected set.
pub fn static_compact(
    circuit: &Circuit,
    sequence: &TestSequence,
    keep: &[Fault],
    budget: usize,
    seed: u64,
) -> Result<CompactionStats, SimError> {
    compact_on(&FaultSimulator::new(circuit), sequence, keep, budget, seed)
}

/// The compaction loop over a caller-supplied simulator.
pub(crate) fn compact_on(
    sim: &FaultSimulator<'_>,
    sequence: &TestSequence,
    keep: &[Fault],
    budget: usize,
    seed: u64,
) -> Result<CompactionStats, SimError> {
    let original_len = sequence.len();
    let mut current = sequence.clone();
    if sequence.is_empty() {
        assert!(keep.is_empty(), "{UNDETECTED_KEEP}");
        return Ok(CompactionStats { sequence: current, original_len, removed: 0, trials: 0 });
    }
    let spacing = 2 * original_len.isqrt();
    let walked = sim.resume(
        &MachineState::reset(),
        sequence,
        keep,
        &checkpoint_times(spacing, 1, original_len),
    )?;
    assert!(walked.times.iter().all(Option::is_some), "{UNDETECTED_KEEP}");
    let mut udet: Vec<usize> = walked.times.into_iter().flatten().collect();
    // `checkpoints[j]` is the state before vector `j * spacing`.
    let mut checkpoints: Vec<Option<MachineState>> =
        std::iter::once(Some(MachineState::reset())).chain(walked.states).collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut trials = 0usize;

    'outer: loop {
        if current.len() <= 1 {
            break;
        }
        let mut order: Vec<usize> = (0..current.len()).collect();
        order.shuffle(&mut rng);
        for &u in &order {
            if trials >= budget {
                break 'outer;
            }
            // Positions shift as vectors are removed; clamp.
            if u >= current.len() {
                continue;
            }
            trials += 1;
            // Only faults detected at `u` or later can be lost.
            let pending: Vec<usize> = (0..keep.len()).filter(|&i| udet[i] >= u).collect();
            let new_len = current.len() - 1;
            if !pending.is_empty() {
                let c = u / spacing;
                let continuation = Omitted { seq: &current, from: c * spacing, skip: u };
                if continuation.is_empty() {
                    // `u` is the last vector and its own checkpoint: the
                    // faults detected there are lost.
                    continue;
                }
                let from = checkpoints[c]
                    .as_ref()
                    .expect("checkpoints up to the last detection time are captured");
                let faults: Vec<Fault> = pending.iter().map(|&i| keep[i]).collect();
                let capture = checkpoint_times(spacing, c + 1, new_len);
                let resumed = sim.resume(from, &continuation, &faults, &capture)?;
                if resumed.times.iter().any(Option::is_none) {
                    continue;
                }
                for (&i, t) in pending.iter().zip(resumed.times) {
                    udet[i] = t.expect("checked above");
                }
                checkpoints.truncate(c + 1);
                checkpoints.extend(resumed.states);
            }
            checkpoints.truncate(new_len.div_ceil(spacing));
            current = current.without(u);
            // Restart the scan over the shortened sequence.
            continue 'outer;
        }
        break;
    }

    Ok(CompactionStats {
        removed: original_len - current.len(),
        original_len,
        sequence: current,
        trials,
    })
}

/// Checkpoint times `j * spacing` for `j >= first`, below `len`.
fn checkpoint_times(spacing: usize, first: usize, len: usize) -> Vec<usize> {
    (first * spacing..len).step_by(spacing).collect()
}

/// `seq[from..]` with the vector at `skip` left out: a trial's
/// continuation after its checkpoint, streamed without building the
/// candidate sequence.
struct Omitted<'a> {
    seq: &'a TestSequence,
    from: usize,
    skip: usize,
}

impl VectorSource for Omitted<'_> {
    fn width(&self) -> usize {
        self.seq.width()
    }

    fn num_vectors(&self) -> usize {
        self.seq.len() - self.from - 1
    }

    fn visit(&self, visitor: &mut dyn FnMut(usize, &TestVector) -> bool) {
        let vectors = self.seq.vectors();
        let kept = vectors[self.from..self.skip].iter().chain(&vectors[self.skip + 1..]);
        for (t, v) in kept.enumerate() {
            if !visitor(t, v) {
                return;
            }
        }
    }

    fn vector_into(&self, t: usize, out: &mut TestVector) {
        let at = self.from + t;
        out.copy_from(&self.seq[if at < self.skip { at } else { at + 1 }]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_netlist::benchmarks;
    use bist_sim::{collapse, fault_universe};

    fn seq(s: &str) -> TestSequence {
        s.parse().unwrap()
    }

    fn s27_t0() -> TestSequence {
        seq("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011")
    }

    #[test]
    fn omitted_random_access_equals_its_walk() {
        let t0 = s27_t0();
        let continuation = Omitted { seq: &t0, from: 2, skip: 5 };
        let mut out = TestVector::zeros(1);
        let mut seen = 0;
        continuation.visit(&mut |t, v| {
            continuation.vector_into(t, &mut out);
            assert_eq!(&out, v, "t={t}");
            seen += 1;
            true
        });
        assert_eq!(seen, continuation.num_vectors());
    }

    #[test]
    fn compaction_preserves_coverage() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let stats = static_compact(&c, &s27_t0(), &faults, 200, 1).unwrap();
        let sim = FaultSimulator::new(&c);
        let times = sim.detection_times(&stats.sequence, &faults).unwrap();
        assert!(times.iter().all(Option::is_some), "coverage lost");
        assert!(stats.sequence.len() <= 10);
        assert_eq!(stats.original_len, 10);
        assert_eq!(stats.removed, 10 - stats.sequence.len());
    }

    #[test]
    fn budget_zero_changes_nothing() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let stats = static_compact(&c, &s27_t0(), &faults, 0, 1).unwrap();
        assert_eq!(stats.sequence, s27_t0());
        assert_eq!(stats.trials, 0);
    }

    #[test]
    fn empty_keep_set_compacts_to_one_vector() {
        let c = benchmarks::s27();
        let stats = static_compact(&c, &s27_t0(), &[], 100, 1).unwrap();
        assert_eq!(stats.sequence.len(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let a = static_compact(&c, &s27_t0(), &faults, 200, 5).unwrap();
        let b = static_compact(&c, &s27_t0(), &faults, 200, 5).unwrap();
        assert_eq!(a.sequence, b.sequence);
    }

    #[test]
    #[should_panic(expected = "detect every kept fault")]
    fn undetected_keep_fault_panics() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        // A single vector cannot detect everything.
        let _ = static_compact(&c, &seq("0000"), &faults, 10, 1);
    }

    #[test]
    fn reduction_statistic() {
        let stats = CompactionStats { sequence: seq("01"), original_len: 4, removed: 3, trials: 9 };
        assert!((stats.reduction() - 0.75).abs() < 1e-12);
    }
}
