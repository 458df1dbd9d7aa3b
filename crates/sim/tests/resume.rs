//! Differential suite for resumable passes.
//!
//! Resuming from the state a prefix `P` leaves behind, over a burst `B`,
//! must report exactly what the from-reset pass over `P ++ B` reports for
//! every fault `P` did not detect (times are times since reset, so
//! "shifted by `|P|`" is built in), and must leave the same state behind.
//! Checked on every packed engine of the shared test grid (packed64 and
//! the sharded engine at 64, 256 and 512 lanes with one and two
//! threads), over fault lists spanning several chunks, re-ordered
//! subsets (so faults land in other lanes than the ones they were
//! captured from) and prefixes in which whole chunks stopped early.

use std::sync::Arc;

use bist_expand::{TestSequence, TestVector};
use bist_netlist::{benchmarks, Circuit, GateTape};
use bist_obs::Registry;
use bist_sim::{
    collapse, fault_universe, Fault, MachineState, Obs, PackedBackend, ScalarBackend, SimBackend,
    SimError,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

mod common;

/// The engines that load and capture machine state: the shared grid
/// without the scalar reference.
fn resumable_engines() -> Vec<Box<dyn SimBackend>> {
    let scalar = ScalarBackend.name();
    common::engine_grid(&[1, 2]).into_iter().filter(|e| e.name() != scalar).collect()
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

/// Walks `prefix` from reset over `faults`, resumes the undetected ones
/// (shuffled) over `burst`, and checks times and the final state against
/// the from-reset pass over the whole sequence.
fn check_resume(
    engine: &dyn SimBackend,
    tape: &GateTape,
    prefix: &TestSequence,
    burst: &TestSequence,
    faults: &[Fault],
    rng: &mut StdRng,
) {
    let name = engine.name();
    let whole = prefix.concat(burst).unwrap();
    let end = whole.len();
    let obs = Obs::noop();
    let reference =
        engine.resume_tape_obs(tape, &MachineState::reset(), &whole, faults, &[end], &obs).unwrap();
    assert_eq!(reference.times, engine.detection_times_tape(tape, &whole, faults).unwrap());

    let p = prefix.len();
    let walked =
        engine.resume_tape_obs(tape, &MachineState::reset(), prefix, faults, &[p], &obs).unwrap();
    let mut pending: Vec<Fault> = Vec::new();
    for ((&f, &t), &want) in faults.iter().zip(&walked.times).zip(&reference.times) {
        match t {
            Some(t) => assert_eq!(Some(t), want, "{name}: prefix time of {f}"),
            None => {
                assert!(want.is_none_or(|w| w >= p), "{name}: {f} missed in the prefix");
                pending.push(f);
            }
        }
    }
    let Some(state) = walked.states[0].clone() else {
        assert!(pending.is_empty(), "{name}: undetected faults must carry the state");
        return;
    };
    assert_eq!(state.time(), p);
    assert_eq!(state.faults().len(), pending.len());

    pending.shuffle(rng);
    let keep = rng.gen_range(pending.len().div_ceil(2)..=pending.len());
    pending.truncate(keep);
    let resumed = engine.resume_tape_obs(tape, &state, burst, &pending, &[end], &obs).unwrap();
    for (f, t) in pending.iter().zip(&resumed.times) {
        let i = faults.iter().position(|g| g == f).unwrap();
        assert_eq!(*t, reference.times[i], "{name}: resumed time of {f}");
    }
    // The state left behind matches the from-reset pass, fault by fault.
    match (&resumed.states[0], &reference.states[0]) {
        (Some(got), Some(want)) => {
            assert_eq!(got.time(), end);
            assert_eq!(got.good(), want.good(), "{name}: good machine state");
            for &f in got.faults() {
                assert_eq!(got.fault_state(f), want.fault_state(f), "{name}: state of {f}");
            }
            let survivors = resumed.times.iter().filter(|t| t.is_none()).count();
            assert_eq!(got.faults().len(), survivors);
        }
        (None, _) => assert!(resumed.times.iter().all(Option::is_some), "{name}"),
        (Some(_), None) => panic!("{name}: resumed pass reached a time the full pass did not"),
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
        for at in [1, 7, 23, 39] {
            let (prefix, burst) = split(&seq, at);
            for engine in resumable_engines() {
                check_resume(&*engine, &tape, &prefix, &burst, &faults, &mut rng);
            }
        }
    }
}

#[test]
fn resume_after_a_prefix_where_whole_chunks_stopped_early() {
    let circuit = suite_circuit("a298");
    let tape = GateTape::compile(&circuit);
    let mut rng = StdRng::seed_from_u64(77);
    let seq = random_sequence(&circuit, 48, &mut rng);
    let (prefix, burst) = split(&seq, 24);
    let universe = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
    // Faults the prefix detects first, so the leading chunks exhaust and
    // stop before the prefix ends.
    let times = PackedBackend.detection_times_tape(&tape, &prefix, &universe).unwrap();
    let detected_first = |early: bool| {
        universe.iter().zip(&times).filter(move |(_, t)| t.is_some() == early).map(|(&f, _)| f)
    };
    let mut faults: Vec<Fault> = detected_first(true).collect();
    assert!(faults.len() >= 63, "need a whole chunk of prefix-detected faults");
    faults.extend(detected_first(false));
    let registry = Arc::new(Registry::new());
    let obs = Obs::with_registry(Arc::clone(&registry));
    PackedBackend
        .resume_tape_obs(&tape, &MachineState::reset(), &prefix, &faults, &[24], &obs)
        .unwrap();
    assert!(registry.snapshot().counter("sim.chunk_early_exits").unwrap_or(0) >= 1);
    for engine in resumable_engines() {
        check_resume(&*engine, &tape, &prefix, &burst, &faults, &mut rng);
    }
}

#[test]
fn captures_along_one_walk_match_separate_walks() {
    let circuit = suite_circuit("a382");
    let tape = GateTape::compile(&circuit);
    let mut rng = StdRng::seed_from_u64(3);
    let seq = random_sequence(&circuit, 30, &mut rng);
    let faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
    let obs = Obs::noop();
    let at = [5, 12, 30];
    for engine in resumable_engines() {
        let reset = MachineState::reset();
        let all = engine.resume_tape_obs(&tape, &reset, &seq, &faults, &at, &obs).unwrap();
        for (k, &t) in at.iter().enumerate() {
            let head = seq.subsequence(0, t - 1);
            let one = engine.resume_tape_obs(&tape, &reset, &head, &faults, &[t], &obs).unwrap();
            assert_eq!(all.states[k], one.states[0], "{} capture at {t}", engine.name());
        }
    }
}

#[test]
fn resume_errors_are_typed() {
    let circuit = benchmarks::s27();
    let tape = GateTape::compile(&circuit);
    let faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
    let prefix: TestSequence = "0111 1001".parse().unwrap();
    let obs = Obs::noop();
    let reset = MachineState::reset();
    for engine in resumable_engines() {
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
    // The scalar reference keeps no explicit state: it serves plain
    // passes and refuses the rest.
    let plain = ScalarBackend.resume_tape_obs(&tape, &reset, &prefix, &faults, &[], &obs).unwrap();
    assert_eq!(plain.times, ScalarBackend.detection_times_tape(&tape, &prefix, &faults).unwrap());
    let err =
        ScalarBackend.resume_tape_obs(&tape, &reset, &prefix, &faults, &[2], &obs).unwrap_err();
    assert_eq!(err, SimError::ResumeUnsupported { engine: ScalarBackend.name() });
}
