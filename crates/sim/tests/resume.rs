//! Differential suite for resumable passes.
//!
//! Resuming from the state a prefix `P` leaves behind, over a burst `B`,
//! must report exactly what the from-reset pass over `P ++ B` reports for
//! every fault `P` did not detect (times are times since reset, so
//! "shifted by `|P|`" is built in), and must leave the same state behind.
//! Checked on the scalar reference engine, whose every `Resumed` —
//! captured machine states compared with `==` — every other engine of the
//! shared test grid (packed64 and the sharded engine on two and four
//! threads) must reproduce, over fault lists spanning several chunks,
//! re-ordered subsets (so faults land in other lanes than the ones they
//! were captured from) and prefixes in which whole chunks stopped early.

use std::sync::Arc;

use bist_expand::{TestSequence, TestVector};
use bist_netlist::{benchmarks, Circuit, GateTape};
use bist_obs::Registry;
use bist_sim::{
    collapse, fault_universe, Fault, MachineState, Obs, PackedBackend, Resumed, ScalarBackend,
    ShardedBackend, SimBackend, SimError,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

mod common;

/// The engines checked against the scalar reference: the shared grid's
/// packed and sharded engines.
fn packed_engines() -> Vec<Box<dyn SimBackend>> {
    let scalar = ScalarBackend.name();
    common::engine_grid().into_iter().filter(|e| e.name() != scalar).collect()
}

fn suite_circuit(name: &str) -> Circuit {
    benchmarks::suite().into_iter().find(|e| e.name == name).unwrap().build().unwrap()
}

fn random_sequence(circuit: &Circuit, len: usize, rng: &mut StdRng) -> TestSequence {
    TestSequence::from_vectors(
        (0..len)
            .map(|_| TestVector::from_fn(circuit.num_inputs(), |_| rng.gen_bool(0.5)))
            .collect(),
    )
    .unwrap()
}

fn split(seq: &TestSequence, at: usize) -> (TestSequence, TestSequence) {
    (seq.subsequence(0, at - 1), seq.subsequence(at, seq.len() - 1))
}

/// For each split point `p`: walks the prefix `seq[..p]` from reset over
/// `faults`, resumes the undetected ones (shuffled) over the rest, and
/// checks times and the final state against the from-reset pass over the
/// whole of `seq` on the scalar reference engine. One scalar walk over
/// `seq`, capturing at every split point and at the end, serves as the
/// whole pass and, cut at `p`, as each prefix walk. Every packed engine
/// must return the scalar engine's `Resumed` for every pass.
fn check_resume(
    tape: &GateTape,
    seq: &TestSequence,
    splits: &[usize],
    faults: &[Fault],
    rng: &mut StdRng,
) {
    let end = seq.len();
    let obs = Obs::noop();
    let reset = MachineState::reset();
    let capture: Vec<usize> = splits.iter().copied().chain([end]).collect();
    let reference =
        ScalarBackend.resume_tape_obs(tape, &reset, seq, faults, &capture, &obs).unwrap();
    let final_state = reference.states.last().unwrap();
    let engines = packed_engines();
    for engine in &engines {
        let name = engine.name();
        let whole = engine.resume_tape_obs(tape, &reset, seq, faults, &capture, &obs).unwrap();
        assert_eq!(whole, reference, "{name}: whole pass");
        assert_eq!(engine.detection_times_tape(tape, seq, faults).unwrap(), reference.times);
    }
    for (k, &p) in splits.iter().enumerate() {
        let (prefix, burst) = split(seq, p);
        let walked = Resumed {
            times: reference.times.iter().map(|t| t.filter(|&t| t < p)).collect(),
            states: vec![reference.states[k].clone()],
        };
        let mut pending: Vec<Fault> = faults
            .iter()
            .zip(&walked.times)
            .filter(|(_, t)| t.is_none())
            .map(|(&f, _)| f)
            .collect();
        pending.shuffle(rng);
        let keep = rng.gen_range(pending.len().div_ceil(2)..=pending.len());
        pending.truncate(keep);
        let resume = |engine: &dyn SimBackend| {
            walked.states[0].as_ref().map(|state| {
                engine.resume_tape_obs(tape, state, &burst, &pending, &[end], &obs).unwrap()
            })
        };
        let resumed = resume(&ScalarBackend);
        match (&walked.states[0], &resumed) {
            (Some(state), Some(resumed)) => {
                assert_eq!(state.time(), p);
                for (f, t) in pending.iter().zip(&resumed.times) {
                    let i = faults.iter().position(|g| g == f).unwrap();
                    assert_eq!(*t, reference.times[i], "resumed time of {f} at {p}");
                }
                // The state left behind matches the whole pass's, fault by
                // fault.
                match (&resumed.states[0], final_state) {
                    (Some(got), Some(want)) => {
                        assert_eq!(got.time(), end);
                        assert_eq!(got.good(), want.good(), "good machine state");
                        for &f in got.faults() {
                            assert_eq!(got.fault_state(f), want.fault_state(f), "state of {f}");
                        }
                        let survivors = resumed.times.iter().filter(|t| t.is_none()).count();
                        assert_eq!(got.faults().len(), survivors);
                    }
                    (None, _) => assert!(resumed.times.iter().all(Option::is_some)),
                    (Some(_), None) => panic!("resumed pass reached a time the full pass did not"),
                }
            }
            _ => assert!(pending.is_empty(), "undetected faults must carry the state"),
        }
        for engine in &engines {
            let name = engine.name();
            let walk = engine.resume_tape_obs(tape, &reset, &prefix, faults, &[p], &obs).unwrap();
            assert_eq!(walk, walked, "{name}: prefix walk to {p}");
            assert_eq!(resume(&**engine), resumed, "{name}: resumed at {p}");
        }
    }
}

#[test]
fn resume_matches_the_whole_pass_over_several_chunks() {
    let mut rng = StdRng::seed_from_u64(0x5e5u64);
    for name in ["s27", "a298", "a382"] {
        let circuit = suite_circuit(name);
        let tape = GateTape::compile(&circuit);
        let faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
        assert!(name == "s27" || faults.len() > 63, "{name} must span several chunks");
        let seq = random_sequence(&circuit, 40, &mut rng);
        check_resume(&tape, &seq, &[1, 7, 23, 39], &faults, &mut rng);
    }
}

#[test]
fn resume_after_a_prefix_where_whole_chunks_stopped_early() {
    let circuit = suite_circuit("a382");
    let tape = GateTape::compile(&circuit);
    let mut rng = StdRng::seed_from_u64(77);
    let seq = random_sequence(&circuit, 48, &mut rng);
    let prefix = seq.subsequence(0, 23);
    let universe = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
    // Faults the prefix detects first, so the leading chunks exhaust and
    // stop before the prefix ends. The list is longer than one 64-lane
    // word, so `PackedBackend` packs it into 255-fault words: the block
    // must fill a whole one.
    let times = PackedBackend.detection_times_tape(&tape, &prefix, &universe).unwrap();
    let detected_first = |early: bool| {
        universe.iter().zip(&times).filter(move |(_, t)| t.is_some() == early).map(|(&f, _)| f)
    };
    let mut faults: Vec<Fault> = detected_first(true).collect();
    assert!(faults.len() >= 255, "need a whole 255-fault word of prefix-detected faults");
    faults.extend(detected_first(false));
    let registry = Arc::new(Registry::new());
    let obs = Obs::with_registry(Arc::clone(&registry));
    PackedBackend
        .resume_tape_obs(&tape, &MachineState::reset(), &prefix, &faults, &[24], &obs)
        .unwrap();
    assert!(registry.snapshot().counter("sim.chunk_early_exits").unwrap_or(0) >= 1);
    check_resume(&tape, &seq, &[24], &faults, &mut rng);
}

/// Over the whole collapsed list and over its first 63, 64, 255, 256 and
/// 257 faults — the lengths at which `PackedBackend` switches from one
/// 64-lane word to 255-fault words and at which its chunks roll over.
#[test]
fn captures_along_one_walk_match_separate_walks() {
    let circuit = suite_circuit("a382");
    let tape = GateTape::compile(&circuit);
    let mut rng = StdRng::seed_from_u64(3);
    let seq = random_sequence(&circuit, 30, &mut rng);
    let collapsed = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
    assert!(collapsed.len() > 257, "a382 must span two 255-fault words");
    let obs = Obs::noop();
    let at = [5, 12, 30];
    let reset = MachineState::reset();
    for len in [63, 64, 255, 256, 257, collapsed.len()] {
        let faults = &collapsed[..len];
        let scalar = ScalarBackend.resume_tape_obs(&tape, &reset, &seq, faults, &at, &obs).unwrap();
        for engine in packed_engines() {
            let name = engine.name();
            let all = engine.resume_tape_obs(&tape, &reset, &seq, faults, &at, &obs).unwrap();
            assert_eq!(all, scalar, "{name}, {len} faults");
            for (k, &t) in at.iter().enumerate() {
                let head = seq.subsequence(0, t - 1);
                let one = engine.resume_tape_obs(&tape, &reset, &head, faults, &[t], &obs).unwrap();
                assert_eq!(all.states[k], one.states[0], "{name}, {len} faults, capture at {t}");
            }
        }
    }
}

/// 257 faults on two threads: the list is one 255-fault word too long, so
/// the sharded engine splits it into two shards, and both shards must
/// report what `PackedBackend`'s single pass reports.
#[test]
fn a_list_one_word_too_long_splits_across_two_threads() {
    let circuit = suite_circuit("a382");
    let tape = GateTape::compile(&circuit);
    let mut rng = StdRng::seed_from_u64(257);
    let seq = random_sequence(&circuit, 30, &mut rng);
    let collapsed = collapse(&circuit, &fault_universe(&circuit));
    let faults = &collapsed.representatives()[..257];
    let (reset, at) = (MachineState::reset(), [5, 12, 30]);
    let registry = Arc::new(Registry::new());
    let obs = Obs::with_registry(Arc::clone(&registry));
    let sharded = ShardedBackend::new(2).unwrap();
    let split = sharded.resume_tape_obs(&tape, &reset, &seq, faults, &at, &obs).unwrap();
    let shards = registry.snapshot().histogram("sim.shard_busy_us").map(|h| h.count);
    assert_eq!(shards, Some(2), "257 faults on two threads run as two shards");
    let whole = PackedBackend.resume_tape_obs(&tape, &reset, &seq, faults, &at, &obs).unwrap();
    assert_eq!(split.times, whole.times);
    assert_eq!(split.states, whole.states);
}

#[test]
fn resume_errors_are_typed() {
    let circuit = benchmarks::s27();
    let tape = GateTape::compile(&circuit);
    let faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
    let prefix: TestSequence = "0111 1001".parse().unwrap();
    let obs = Obs::noop();
    let reset = MachineState::reset();
    for engine in common::engine_grid() {
        let walked = engine.resume_tape_obs(&tape, &reset, &prefix, &faults, &[2], &obs).unwrap();
        let state = walked.states[0].clone().unwrap();
        let pending: Vec<Fault> = faults
            .iter()
            .zip(&walked.times)
            .filter(|(_, t)| t.is_none())
            .map(|(&f, _)| f)
            .collect();
        let detected = faults[walked.times.iter().position(Option::is_some).unwrap()];
        let resume = |source: &TestSequence, faults: &[Fault], capture: &[usize]| {
            engine.resume_tape_obs(&tape, &state, source, faults, capture, &obs).unwrap_err()
        };
        let name = engine.name();
        let narrow: TestSequence = "011".parse().unwrap();
        assert!(matches!(resume(&narrow, &pending, &[]), SimError::WidthMismatch { .. }), "{name}");
        assert_eq!(resume(&TestSequence::new(4), &pending, &[]), SimError::EmptySequence, "{name}");
        assert_eq!(
            resume(&prefix, &[detected], &[]),
            SimError::MissingFaultState { fault: detected },
            "{name}"
        );
        assert_eq!(resume(&prefix, &pending, &[2]), SimError::InvalidCapture { time: 2 }, "{name}");
        assert_eq!(
            resume(&prefix, &pending, &[4, 3]),
            SimError::InvalidCapture { time: 3 },
            "{name}"
        );
        // A state from a circuit with another flip-flop count.
        let other = suite_circuit("a298");
        let other_tape = GateTape::compile(&other);
        let err = engine
            .resume_tape_obs(
                &other_tape,
                &state,
                &"011 101".parse::<TestSequence>().unwrap(),
                &[],
                &[],
                &obs,
            )
            .unwrap_err();
        assert_eq!(err, SimError::StateMismatch { state_dffs: 3, tape_dffs: other.num_dffs() });
    }
}
