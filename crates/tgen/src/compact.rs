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
//! re-simulates only the *pending* faults, those detected at `u` or
//! later, resuming from the latest *reference* at or before `u` rather
//! than from the all-`X` state. A trial with no pending fault succeeds
//! without simulating (it still counts against the budget).
//!
//! **References.** The compactor keeps [`MachineState`]s of the current
//! sequence's walk from reset, in a list sorted by
//! [`MachineState::time`]. The reference at time `t` holds the good
//! machine's flip-flops and a row for every fault the walk has not
//! detected before `t` (its *live* faults); a state with no live fault
//! is never read and is not kept. The list starts as the reset state
//! plus snapshots at every multiple of `2⌊√len⌋` vectors, captured by
//! one pass from reset that also yields the detection times `udet` and
//! checks that the input detects the whole target set. The spacing
//! follows from the input length alone.
//!
//! **Rejoining.** Past `u`, trial time `τ` applies the vector of
//! original time `τ + 1`. A trial walks in segments: from its resume
//! point to one step before the next reference after `u`, then on to one
//! step before the following one, and so on. After each segment it
//! compares its state at trial time `T − 1` with the reference at `T`.
//! It *rejoins* when the good machines' flip-flops are equal and every
//! pending fault still undetected in the trial has an equal row in the
//! reference with `udet ≥ T`. Three-valued simulation is deterministic
//! from equal states, `X` included, so from there on the trial is the
//! original walk one step earlier: each of those faults is detected at
//! `udet − 1`, and the trial is accepted with no further walking. A trial
//! that does not rejoin walks on: it is accepted once every pending fault
//! is detected and rejected at the end of the sequence. Sequences,
//! trial counts, removals and detection times are therefore exactly
//! those of re-simulating every candidate from reset.
//!
//! **Keeping references valid.** A failed trial changes nothing. An
//! accepted trial keeps the references up to `u` and replaces the ones
//! it passed with the snapshots its segments ended in. After a rejoin at
//! `T`, the later references describe the new walk one step earlier, so
//! they stay, retimed by −1 ([`MachineState::retimed`]). Their rows of
//! faults the trial detected before rejoining are stale: the new walk
//! detects those faults before `T − 1`, and a row captured on the old
//! walk no longer describes their machines. The `udet ≥ T` guard is what
//! keeps a chance match against such a row from accepting a wrong trial;
//! retiming also drops the stale rows, so references stay no larger than
//! the snapshots they stand for. Without a rejoin, the references the
//! trial did not reach have no live fault left and are dropped.

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
    /// Accepted trials that ended early by rejoining the walk of the
    /// sequence before the omission (at most `removed`).
    pub rejoined: usize,
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
        return Ok(CompactionStats {
            sequence: current,
            original_len,
            removed: 0,
            trials: 0,
            rejoined: 0,
        });
    }
    let spacing = 2 * original_len.isqrt();
    let capture: Vec<usize> = (spacing..original_len).step_by(spacing).collect();
    let walked = sim.resume(&MachineState::reset(), sequence, keep, &capture)?;
    assert!(walked.times.iter().all(Option::is_some), "{UNDETECTED_KEEP}");
    let mut udet: Vec<usize> = walked.times.into_iter().flatten().collect();
    let mut refs: Vec<MachineState> =
        std::iter::once(MachineState::reset()).chain(walked.states.into_iter().flatten()).collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut trials = 0usize;
    let mut rejoined = 0usize;

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
            let Some(trial) = Trial::run(sim, &current, u, keep, &pending, &udet, &refs)? else {
                continue;
            };
            for (&i, t) in pending.iter().zip(trial.times) {
                udet[i] = t;
            }
            // References up to `u` stand; the ones the trial passed give
            // way to its snapshots; after a rejoin, the later ones move
            // one step earlier, without the rows the trial made stale.
            let passed = refs.partition_point(|r| r.time() <= u);
            let later = trial.rejoined.map_or_else(Vec::new, |k| refs.split_off(k + 1));
            refs.truncate(passed);
            refs.extend(trial.states);
            rejoined += usize::from(trial.rejoined.is_some());
            let stale = |f: Fault| trial.detected.binary_search(&f).is_ok();
            refs.extend(
                later
                    .into_iter()
                    .map(|r| {
                        let time = r.time() - 1;
                        r.retimed(time, |f| !stale(f))
                    })
                    .filter(|r| !r.faults().is_empty()),
            );
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
        rejoined,
    })
}

/// An accepted trial: what the shortened sequence's walk looks like.
struct Trial {
    /// New detection times of the pending faults, in `pending` order.
    times: Vec<usize>,
    /// The snapshots the trial's segments ended in, ascending in time.
    states: Vec<MachineState>,
    /// The pending faults the trial's own walk detected, sorted: after a
    /// rejoin, their rows in the later references are stale.
    detected: Vec<Fault>,
    /// Index of the reference the trial rejoined, if it did.
    rejoined: Option<usize>,
}

impl Trial {
    /// Runs the trial that omits vector `u` of `current`: `Some` if every
    /// pending fault stays detected.
    fn run(
        sim: &FaultSimulator<'_>,
        current: &TestSequence,
        u: usize,
        keep: &[Fault],
        pending: &[usize],
        udet: &[usize],
        refs: &[MachineState],
    ) -> Result<Option<Trial>, SimError> {
        let mut times: Vec<Option<usize>> = vec![None; pending.len()];
        let mut states: Vec<MachineState> = Vec::new();
        // Pending faults (indices into `pending`) the trial has not
        // detected yet.
        let mut live: Vec<usize> = (0..pending.len()).collect();
        let mut next = refs.partition_point(|r| r.time() <= u);
        let start = &refs[next - 1];
        let rejoined = loop {
            let at = states.last().unwrap_or(start);
            let reference = refs.get(next);
            // Walk to one step before the next reference, or to the end.
            let stop = reference.map(|r| r.time() - 1);
            let end = stop.unwrap_or(current.len() - 1);
            if !live.is_empty() && end > at.time() {
                let segment = Omitted { seq: current, from: at.time(), skip: u, end };
                let faults: Vec<Fault> = live.iter().map(|&k| keep[pending[k]]).collect();
                let mut walked = sim.resume(at, &segment, &faults, stop.as_slice())?;
                for (&k, &t) in live.iter().zip(&walked.times) {
                    times[k] = t;
                }
                live.retain(|&k| times[k].is_none());
                states.extend(walked.states.pop().flatten());
            }
            if live.is_empty() {
                break None;
            }
            // The end of the sequence, with a pending fault undetected.
            let Some(reference) = reference else { return Ok(None) };
            let at = states.last().unwrap_or(start);
            let rejoins = live.iter().all(|&k| udet[pending[k]] >= reference.time())
                && at.good() == reference.good()
                && live.iter().all(|&k| {
                    let f = keep[pending[k]];
                    at.fault_state(f).is_some_and(|row| reference.fault_state(f) == Some(row))
                });
            if rejoins {
                break Some(next);
            }
            next += 1;
        };
        let mut detected: Vec<Fault> = pending
            .iter()
            .zip(&times)
            .filter(|(_, t)| t.is_some())
            .map(|(&i, _)| keep[i])
            .collect();
        detected.sort_unstable();
        for &k in &live {
            times[k] = Some(udet[pending[k]] - 1);
        }
        let times = times.into_iter().map(|t| t.expect("detected or rejoined")).collect();
        Ok(Some(Trial { times, states, detected, rejoined }))
    }
}

/// The vectors a trial applies at trial times `from..end` when it omits
/// the vector at `skip`: trial time `τ` applies `seq[τ]` before `skip`
/// and `seq[τ + 1]` from `skip` on, so `from` may lie past `skip`. One
/// segment of a trial's walk, streamed without building the candidate
/// sequence.
struct Omitted<'a> {
    seq: &'a TestSequence,
    from: usize,
    skip: usize,
    end: usize,
}

impl VectorSource for Omitted<'_> {
    fn width(&self) -> usize {
        self.seq.width()
    }

    fn num_vectors(&self) -> usize {
        self.end - self.from
    }

    fn visit(&self, visitor: &mut dyn FnMut(usize, &TestVector) -> bool) {
        let vectors = self.seq.vectors();
        let (from, end, skip) = (self.from, self.end, self.skip);
        let before = &vectors[from.min(skip)..end.min(skip)];
        let after = &vectors[from.max(skip) + 1..end.max(skip) + 1];
        for (t, v) in before.iter().chain(after).enumerate() {
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
    use crate::{generate_t0_with_faults, TgenConfig};
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
        let mut out = TestVector::zeros(1);
        // Every view: starting before, at or past the omitted vector, up
        // to every bounded end, against the candidate sequence itself.
        for skip in 0..t0.len() {
            let candidate = t0.without(skip);
            for from in 0..candidate.len() {
                for end in from..=candidate.len() {
                    let view = Omitted { seq: &t0, from, skip, end };
                    let mut seen = 0;
                    view.visit(&mut |t, v| {
                        view.vector_into(t, &mut out);
                        assert_eq!(&out, v, "skip={skip} from={from} end={end} t={t}");
                        assert_eq!(v, &candidate[from + t], "skip={skip} from={from} t={t}");
                        seen += 1;
                        true
                    });
                    assert_eq!(seen, view.num_vectors(), "skip={skip} from={from} end={end}");
                    assert_eq!(seen, end - from);
                }
            }
        }
        // A visitor that stops is not called again.
        let view = Omitted { seq: &t0, from: 6, skip: 2, end: 9 };
        let mut calls = 0;
        view.visit(&mut |_, _| {
            calls += 1;
            calls < 2
        });
        assert_eq!(calls, 2);
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
    fn rejoined_trials_are_counted() {
        let c =
            benchmarks::suite().into_iter().find(|e| e.name == "a298").unwrap().build().unwrap();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        // The campaign defaults: a 1024-vector cap and a 300-trial budget.
        let config = TgenConfig::new().max_length(1024).compaction_budget(0).seed(1999);
        let raw = generate_t0_with_faults(&c, &config, faults).unwrap();
        let detected = raw.detected_faults();
        let stats = static_compact(&c, &raw.sequence, &detected, 300, 1999).unwrap();
        assert!(stats.rejoined > 0, "a298 trials rejoin");
        assert!(stats.rejoined <= stats.removed, "{} > {}", stats.rejoined, stats.removed);
        let idle = static_compact(&c, &raw.sequence, &detected, 0, 1999).unwrap();
        assert_eq!((idle.trials, idle.removed, idle.rejoined), (0, 0, 0));
    }

    #[test]
    fn reduction_statistic() {
        let stats = CompactionStats {
            sequence: seq("01"),
            original_len: 4,
            removed: 3,
            trials: 9,
            rejoined: 2,
        };
        assert!((stats.reduction() - 0.75).abs() < 1e-12);
    }
}
