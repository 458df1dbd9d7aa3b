//! Differential test of static compaction against a from-reset oracle.
//!
//! [`oracle_compact`] is the compaction loop with none of the
//! incremental machinery: every candidate `current.without(u)` is
//! simulated from reset over the whole target set, in the same random
//! order and under the same budget as [`static_compact`]. The real
//! compactor resumes trials from reference states and ends them early
//! when they rejoin the walk of the sequence before the omission; the two
//! must agree on the compacted sequence, the trial and removal counts and
//! the final detection times, on seeded fuzz circuits and on the suite.

use bist_expand::TestSequence;
use bist_netlist::fuzz::fuzz_circuit;
use bist_netlist::{benchmarks, Circuit};
use bist_sim::{collapse, fault_universe, Fault, FaultSimulator};
use bist_tgen::{generate_t0_with_faults, static_compact, TgenConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One accepted omission of the oracle: the omitted position and the
/// detection times of the target set before and after it.
struct Accepted {
    u: usize,
    before: Vec<usize>,
    after: Vec<usize>,
}

/// What the oracle compaction produced.
struct Oracle {
    sequence: TestSequence,
    trials: usize,
    removed: usize,
    times: Vec<usize>,
    accepted: Vec<Accepted>,
}

/// Detection times of `keep` under `seq` from reset, if all are detected.
fn all_detected(
    sim: &FaultSimulator<'_>,
    seq: &TestSequence,
    keep: &[Fault],
) -> Option<Vec<usize>> {
    sim.detection_times(seq, keep).unwrap().into_iter().collect()
}

/// Static compaction by re-simulating every candidate from reset.
fn oracle_compact(
    circuit: &Circuit,
    sequence: &TestSequence,
    keep: &[Fault],
    budget: usize,
    seed: u64,
) -> Oracle {
    let sim = FaultSimulator::new(circuit);
    let mut current = sequence.clone();
    let mut times = all_detected(&sim, &current, keep).expect("the input detects every kept fault");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut trials = 0;
    let mut accepted = Vec::new();
    'outer: while current.len() > 1 {
        let mut order: Vec<usize> = (0..current.len()).collect();
        order.shuffle(&mut rng);
        for &u in &order {
            if trials >= budget {
                break 'outer;
            }
            if u >= current.len() {
                continue;
            }
            trials += 1;
            let candidate = current.without(u);
            if let Some(after) = all_detected(&sim, &candidate, keep) {
                accepted.push(Accepted { u, before: times, after: after.clone() });
                times = after;
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    Oracle { removed: sequence.len() - current.len(), sequence: current, trials, times, accepted }
}

/// Whether the oracle's run holds the shape that makes stale reference
/// rows dangerous: an accepted omission detects some fault earlier than
/// the one-step shift, and a later accepted omission still has that
/// fault pending (detected at or after its omitted position).
fn stale_row_shape(oracle: &Oracle) -> bool {
    oracle.accepted.iter().enumerate().any(|(a, first)| {
        (0..first.before.len())
            .filter(|&f| first.after[f] + 1 < first.before[f])
            .any(|f| oracle.accepted[a + 1..].iter().any(|later| later.before[f] >= later.u))
    })
}

/// Compacts `sequence` both ways and checks they agree; returns the
/// oracle's run and the number of trials that rejoined.
fn check(
    circuit: &Circuit,
    sequence: &TestSequence,
    keep: &[Fault],
    budget: usize,
    seed: u64,
    label: &str,
) -> (Oracle, usize) {
    let stats = static_compact(circuit, sequence, keep, budget, seed).unwrap();
    let oracle = oracle_compact(circuit, sequence, keep, budget, seed);
    assert_eq!(stats.sequence, oracle.sequence, "{label}: sequence");
    assert_eq!(stats.trials, oracle.trials, "{label}: trials");
    assert_eq!(stats.removed, oracle.removed, "{label}: removed");
    assert!(stats.rejoined <= stats.removed, "{label}: rejoined {}", stats.rejoined);
    let sim = FaultSimulator::new(circuit);
    let times =
        all_detected(&sim, &stats.sequence, keep).expect("compaction keeps every fault detected");
    assert_eq!(times, oracle.times, "{label}: final detection times");
    (oracle, stats.rejoined)
}

/// A raw (uncompacted) `T0` of `circuit` and the faults it detects.
fn raw_t0(circuit: &Circuit, max_length: usize, seed: u64) -> (TestSequence, Vec<Fault>) {
    let faults = collapse(circuit, &fault_universe(circuit)).representatives().to_vec();
    let config = TgenConfig::new().max_length(max_length).compaction_budget(0).seed(seed);
    let raw = generate_t0_with_faults(circuit, &config, faults).unwrap();
    let detected = raw.detected_faults();
    (raw.sequence, detected)
}

fn suite_circuit(name: &str) -> Circuit {
    benchmarks::suite().into_iter().find(|e| e.name == name).unwrap().build().unwrap()
}

fn fuzz_corpus(seeds: std::ops::Range<u64>, max_length: usize, budget: usize) {
    for seed in seeds {
        let circuit = fuzz_circuit(seed);
        let (raw, detected) = raw_t0(&circuit, max_length, seed);
        if raw.is_empty() {
            continue;
        }
        check(&circuit, &raw, &detected, budget, seed, &format!("fuzz {seed}"));
    }
}

/// Seeded fuzz circuits with short `T0`s, every degenerate shape class
/// included; fast enough for unoptimized test runs.
#[test]
fn compaction_matches_oracle_fast_subset() {
    fuzz_corpus(0..24, 64, 120);
    let s27 = benchmarks::s27();
    for seed in [1, 1999, 2027] {
        let (raw, detected) = raw_t0(&s27, 1024, seed);
        check(&s27, &raw, &detected, 300, seed, &format!("s27/{seed}"));
    }
}

/// The stale-row trap: one accepted rejoin detects a fault earlier than
/// the shift, and a later accepted trial has that fault pending. A
/// reference kept across the first rejoin still holds that fault's row
/// from the old walk; matching against it would accept a wrong trial.
/// Both cases go wrong when the `udet ≥ T` guard and the dropping of
/// stale rows are taken out together.
#[test]
fn compaction_matches_oracle_across_stale_rows() {
    let a298 = suite_circuit("a298");
    let (raw, detected) = raw_t0(&a298, 1024, 2027);
    let fuzz4 = fuzz_circuit(4);
    let (fuzz_raw, fuzz_detected) = raw_t0(&fuzz4, 256, 4);
    for (circuit, raw, detected, budget, seed, label) in [
        (&a298, &raw, &detected, 300, 2027, "a298/2027"),
        (&fuzz4, &fuzz_raw, &fuzz_detected, 400, 4, "fuzz 4"),
    ] {
        let (oracle, rejoined) = check(circuit, raw, detected, budget, seed, label);
        assert!(rejoined >= 2, "{label}: two accepted rejoins, got {rejoined}");
        assert!(stale_row_shape(&oracle), "{label}: a fault detected early, then pending");
    }
}

/// The full sweep: more and longer fuzz cases and the `cold_suite`
/// circuits at the campaign defaults. Slow unoptimized; run with
/// `cargo test --release -p bist-tgen --test compact_oracle --
/// --include-ignored`.
#[test]
#[ignore = "full differential sweep; run in release with --include-ignored"]
fn compaction_matches_oracle_full_sweep() {
    fuzz_corpus(0..208, 256, 400);
    for name in ["s27", "a298", "a344", "a382", "a400", "a526"] {
        let circuit = suite_circuit(name);
        for seed in [1999, 2027] {
            let (raw, detected) = raw_t0(&circuit, 1024, seed);
            check(&circuit, &raw, &detected, 300, seed, &format!("{name}/{seed}"));
        }
    }
}
