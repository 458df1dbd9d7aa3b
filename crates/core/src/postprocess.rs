//! Static compaction of the sequence set `S` (§3.2).
//!
//! A sequence added early may become redundant once later sequences cover
//! all its faults. The paper identifies such sequences by re-simulating
//! the whole set in four different orders, dropping any sequence whose
//! expansion detects no new fault when its turn comes:
//!
//! 1. by increasing length (drops long sequences if possible),
//! 2. by decreasing length (long sequences detect most faults, exposing
//!    redundant short ones),
//! 3. in reverse generation order (later sequences subsume earlier ones),
//! 4. by decreasing number of faults detected in the previous pass
//!    (sequences that detected few faults go last and tend to be dropped).

use crate::procedure2::SelectedSequence;
use bist_expand::expansion::Expand;
use bist_sim::{Fault, FaultSimulator, SimError};

/// The order in which a compaction pass simulates the sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassOrder {
    /// Increasing loaded-sequence length.
    IncreasingLength,
    /// Decreasing loaded-sequence length.
    DecreasingLength,
    /// Reverse of generation order.
    ReverseGeneration,
    /// Decreasing detection count from the previous pass.
    DecreasingPreviousDetections,
}

/// The paper's four-pass schedule.
pub const PAPER_SCHEDULE: [PassOrder; 4] = [
    PassOrder::IncreasingLength,
    PassOrder::DecreasingLength,
    PassOrder::ReverseGeneration,
    PassOrder::DecreasingPreviousDetections,
];

/// Statistics of a compaction run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Sequences dropped across all passes.
    pub dropped: usize,
    /// Expanded-sequence fault simulations actually run. A sequence whose
    /// outcome against every remaining fault is already known from an
    /// earlier pass is not simulated again, so this counts fewer than
    /// one per sequence per pass.
    pub simulations: usize,
}

/// One sequence of the set being compacted, with its detection count in
/// the previous pass and what is known of its expansion against each
/// fault. From reset, whether an expansion detects a fault does not
/// depend on which other faults share the pass, so every (sequence,
/// fault) outcome is simulated at most once across the four passes.
struct Entry {
    selected: SelectedSequence,
    detections: usize,
    /// Bit `i`: the outcome against `faults[i]` is known...
    known: Vec<u64>,
    /// ...and bit `i`: the expansion detects `faults[i]`.
    detects: Vec<u64>,
}

impl Entry {
    fn new(selected: SelectedSequence, num_faults: usize) -> Self {
        let words = num_faults.div_ceil(64);
        Entry { selected, detections: 0, known: vec![0; words], detects: vec![0; words] }
    }

    fn bit(words: &[u64], i: usize) -> bool {
        words[i / 64] >> (i % 64) & 1 == 1
    }
}

/// One pass: simulate the sequences against the full fault set in the
/// given order, dropping sequences that detect nothing new, and record
/// each survivor's detection count for the next pass's order.
fn run_pass(
    sim: &FaultSimulator<'_>,
    sequences: &mut Vec<Entry>,
    order: &[usize],
    faults: &[Fault],
    expansion: &dyn Expand,
    stats: &mut CompactionStats,
) -> Result<(), SimError> {
    // Indices into `faults` no sequence of this pass has detected yet.
    let mut remaining: Vec<usize> = (0..faults.len()).collect();
    let mut keep = vec![true; sequences.len()];
    for &idx in order {
        let entry = &mut sequences[idx];
        if remaining.is_empty() {
            // Whatever has not been simulated yet detects nothing new.
            keep[idx] = false;
            entry.detections = 0;
            stats.dropped += 1;
            continue;
        }
        let unknown: Vec<usize> =
            remaining.iter().copied().filter(|&i| !Entry::bit(&entry.known, i)).collect();
        if !unknown.is_empty() {
            let pending: Vec<Fault> = unknown.iter().map(|&i| faults[i]).collect();
            let times =
                sim.detection_times_stream(&expansion.stream(&entry.selected.sequence), &pending)?;
            stats.simulations += 1;
            for (&i, t) in unknown.iter().zip(times) {
                entry.known[i / 64] |= 1 << (i % 64);
                if t.is_some() {
                    entry.detects[i / 64] |= 1 << (i % 64);
                }
            }
        }
        let before = remaining.len();
        remaining.retain(|&i| !Entry::bit(&entry.detects, i));
        entry.detections = before - remaining.len();
        if entry.detections == 0 {
            keep[idx] = false;
            stats.dropped += 1;
        }
    }
    let mut it = keep.iter();
    sequences.retain(|_| *it.next().expect("keep aligned"));
    Ok(())
}

/// Runs the four-pass static compaction of `S`, preserving joint coverage
/// of `faults`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn compact_set(
    sim: &FaultSimulator<'_>,
    sequences: Vec<SelectedSequence>,
    faults: &[Fault],
    expansion: &dyn Expand,
) -> Result<(Vec<SelectedSequence>, CompactionStats), SimError> {
    let mut stats = CompactionStats::default();
    // Generation order is the original index, preserved as we only ever
    // retain in order.
    let mut seqs: Vec<Entry> = sequences.into_iter().map(|s| Entry::new(s, faults.len())).collect();

    for pass in PAPER_SCHEDULE {
        if seqs.is_empty() {
            break;
        }
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        match pass {
            PassOrder::IncreasingLength => {
                order.sort_by_key(|&i| (seqs[i].selected.len(), i));
            }
            PassOrder::DecreasingLength => {
                order.sort_by_key(|&i| (usize::MAX - seqs[i].selected.len(), i));
            }
            PassOrder::ReverseGeneration => order.reverse(),
            PassOrder::DecreasingPreviousDetections => {
                order.sort_by_key(|&i| (usize::MAX - seqs[i].detections, i));
            }
        }
        run_pass(sim, &mut seqs, &order, faults, expansion, &mut stats)?;
    }

    Ok((seqs.into_iter().map(|e| e.selected).collect(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure1::{select_subsequences, verify_full_coverage};
    use bist_expand::expansion::ExpansionConfig;
    use bist_expand::TestSequence;
    use bist_netlist::benchmarks;
    use bist_sim::{collapse, fault_universe, FaultCoverage};

    fn s27_t0() -> TestSequence {
        "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse().unwrap()
    }

    fn setup(
        n: usize,
    ) -> (bist_netlist::Circuit, Vec<Fault>, Vec<SelectedSequence>, ExpansionConfig) {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let sim = FaultSimulator::new(&c);
        let t0 = s27_t0();
        let cov = FaultCoverage::simulate(&sim, &t0, faults.clone()).unwrap();
        let expansion = ExpansionConfig::new(n).unwrap();
        let sel = select_subsequences(&sim, &t0, &cov, &expansion, 0).unwrap();
        (c, faults, sel.sequences, expansion)
    }

    #[test]
    fn compaction_preserves_coverage() {
        let (c, faults, sequences, expansion) = setup(1);
        let sim = FaultSimulator::new(&c);
        let before = sequences.len();
        let (after, stats) = compact_set(&sim, sequences, &faults, &expansion).unwrap();
        assert!(after.len() <= before);
        assert_eq!(stats.dropped, before - after.len());
        assert!(verify_full_coverage(&sim, &after, &expansion, &faults).unwrap());
    }

    #[test]
    fn known_outcomes_are_not_resimulated() {
        let (c, faults, sequences, expansion) = setup(1);
        let sim = FaultSimulator::new(&c);
        let first = sequences[0].clone();
        let times = sim.detection_times(&expansion.expand(&first.sequence), &faults).unwrap();
        let covered: Vec<Fault> =
            faults.iter().zip(&times).filter_map(|(&f, t)| t.map(|_| f)).collect();
        // Pass 1 learns every outcome of the first copy and drops the
        // second unsimulated; passes 2-4 already know all they need.
        let (after, stats) =
            compact_set(&sim, vec![first.clone(), first], &covered, &expansion).unwrap();
        assert_eq!(after.len(), 1);
        assert_eq!(stats, CompactionStats { dropped: 1, simulations: 1 });
    }

    #[test]
    fn redundant_duplicate_is_dropped() {
        let (c, faults, mut sequences, expansion) = setup(1);
        let sim = FaultSimulator::new(&c);
        // Duplicate the first sequence: one of the copies must go.
        sequences.push(sequences[0].clone());
        let n = sequences.len();
        let (after, _) = compact_set(&sim, sequences, &faults, &expansion).unwrap();
        assert!(after.len() < n);
        assert!(verify_full_coverage(&sim, &after, &expansion, &faults).unwrap());
    }

    #[test]
    fn empty_set_is_fine() {
        let c = benchmarks::s27();
        let sim = FaultSimulator::new(&c);
        let (after, stats) =
            compact_set(&sim, vec![], &[], &ExpansionConfig::new(2).unwrap()).unwrap();
        assert!(after.is_empty());
        assert_eq!(stats.simulations, 0);
    }

    #[test]
    fn single_sequence_survives() {
        let (c, faults, sequences, expansion) = setup(1);
        let sim = FaultSimulator::new(&c);
        // Keep only the first sequence and only the faults it detects.
        let first = sequences[0].clone();
        let times = sim.detection_times(&expansion.expand(&first.sequence), &faults).unwrap();
        let covered: Vec<Fault> =
            faults.iter().zip(&times).filter_map(|(&f, t)| t.map(|_| f)).collect();
        let (after, _) = compact_set(&sim, vec![first], &covered, &expansion).unwrap();
        assert_eq!(after.len(), 1);
    }
}
