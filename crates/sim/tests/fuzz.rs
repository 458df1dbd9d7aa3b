//! Randomized-netlist differential fuzz suite.
//!
//! The hand-built 13-circuit suite in `differential.rs` pins the engines
//! on realistic shapes; this suite pins them on *adversarial* ones: a
//! seeded stream of random circuits from [`bist_netlist::fuzz`] —
//! zero-gate netlists with POs wired straight to PIs/DFFs, single gates
//! of every opcode, deep chains, extreme fanout/fanin, and general
//! random levelized circuits — each simulated under random stimulus by
//! **every** engine (scalar tape, packed64, sharded × widths 64/256/512
//! × threads 1/2/4) and compared bit-for-bit
//! against the node-graph oracle in [`bist_sim::reference`].
//!
//! Each corpus circuit also gets a seeded resume case: every engine
//! resumes from a random prefix and must reproduce the oracle's times for
//! every fault the prefix left undetected, and the scalar reference
//! engine's `Resumed` — captured machine states included. And a seeded
//! candidate-parallel case: `first_detecting` over random candidate
//! streams must name the candidate the oracle's sequential scan names.
//!
//! Two entry points, like the 13-circuit campaign acceptance test:
//! a fast subset that runs in debug `cargo test` on every push, and the
//! full ≥200-circuit sweep, ignored in debug and executed in release CI.

use bist_expand::{TestSequence, TestVector, VectorSource};
use bist_netlist::fuzz::fuzz_circuit;
use bist_netlist::{CircuitBuilder, GateKind, GateTape};
use bist_sim::{
    collapse, fault_universe, reference, Fault, FaultSite, MachineState, Obs, ScalarBackend,
    SimBackend, SimError,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

mod common;

/// Every tape-executing engine.
fn engine_grid() -> Vec<Box<dyn SimBackend>> {
    common::engine_grid(&[1, 2, 4])
}

/// Runs the corpus of `seeds`: every engine's detection times must equal
/// the node-graph oracle's on every circuit.
fn run_corpus(seeds: std::ops::Range<u64>, max_faults: usize, max_seq_len: usize) {
    let grid = engine_grid();
    for seed in seeds {
        let circuit = fuzz_circuit(seed);
        let tape = GateTape::compile(&circuit);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa57_f00d);
        let mut faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
        while faults.len() > max_faults {
            let victim = rng.gen_range(0..faults.len());
            faults.swap_remove(victim);
        }
        let len = rng.gen_range(4..=max_seq_len);
        let seq = TestSequence::from_vectors(
            (0..len)
                .map(|_| TestVector::from_fn(circuit.num_inputs(), |_| rng.gen_bool(0.5)))
                .collect(),
        )
        .expect("uniform width");
        let oracle = reference::detection_times(&circuit, &seq, &faults)
            .unwrap_or_else(|e| panic!("oracle failed on {} (seed {seed}): {e}", circuit.name()));
        for engine in &grid {
            let times = engine.detection_times_tape(&tape, &seq, &faults).unwrap_or_else(|e| {
                panic!("{} failed on {} (seed {seed}): {e}", engine.name(), circuit.name())
            });
            assert_eq!(
                times,
                oracle,
                "{} diverges from the node-graph oracle on {} (seed {seed})",
                engine.name(),
                circuit.name()
            );
        }
        // Seeded resume case: the scalar reference walks a random prefix,
        // capturing the state it leaves behind, then resumes the faults it
        // left undetected — shuffled, so they land in other lanes of the
        // packed engines — over the rest, capturing the final state. Its
        // times must be the oracle's, and every engine's `Resumed`, each
        // captured `MachineState` included, must equal the scalar one.
        let at = rng.gen_range(1..len);
        let (prefix, rest) = (seq.subsequence(0, at - 1), seq.subsequence(at, len - 1));
        let obs = Obs::noop();
        let fail = |engine: &dyn SimBackend, e: SimError| -> ! {
            panic!("{} failed on {} (seed {seed}): {e}", engine.name(), circuit.name())
        };
        let walk = |engine: &dyn SimBackend| {
            engine
                .resume_tape_obs(&tape, &MachineState::reset(), &prefix, &faults, &[at], &obs)
                .unwrap_or_else(|e| fail(engine, e))
        };
        let walked = walk(&ScalarBackend);
        let mut pending: Vec<usize> = Vec::new();
        for (i, &t) in walked.times.iter().enumerate() {
            match t {
                Some(_) => assert_eq!(t, oracle[i], "scalar prefix (seed {seed})"),
                None => pending.push(i),
            }
        }
        assert_eq!(walked.states[0].is_some(), !pending.is_empty(), "scalar state (seed {seed})");
        pending.shuffle(&mut rng);
        let subset: Vec<Fault> = pending.iter().map(|&i| faults[i]).collect();
        let resume = |engine: &dyn SimBackend| {
            walked.states[0].as_ref().map(|state| {
                engine
                    .resume_tape_obs(&tape, state, &rest, &subset, &[len], &obs)
                    .unwrap_or_else(|e| fail(engine, e))
            })
        };
        let resumed = resume(&ScalarBackend);
        for (&i, &t) in pending.iter().zip(resumed.iter().flat_map(|r| &r.times)) {
            assert_eq!(
                t,
                oracle[i],
                "scalar resumed at {at} diverges from the oracle on {} (seed {seed})",
                circuit.name()
            );
        }
        for engine in &grid {
            let name = engine.name();
            assert_eq!(walk(&**engine), walked, "{name} prefix walk (seed {seed})");
            assert_eq!(resume(&**engine), resumed, "{name} resumed at {at} (seed {seed})");
        }
        // Seeded candidate-parallel case: up to 40 random streams of mixed
        // length (so some probes span two 32-candidate passes) for a few
        // faults; every engine must name the candidate the oracle's
        // sequential scan names.
        let candidates: Vec<TestSequence> = (0..rng.gen_range(1usize..=40))
            .map(|_| {
                let len = rng.gen_range(1..=max_seq_len);
                TestSequence::from_vectors(
                    (0..len)
                        .map(|_| TestVector::from_fn(circuit.num_inputs(), |_| rng.gen_bool(0.5)))
                        .collect(),
                )
                .expect("uniform width")
            })
            .collect();
        let sources: Vec<&dyn VectorSource> =
            candidates.iter().map(|c| c as &dyn VectorSource).collect();
        for _ in 0..faults.len().min(2) {
            let fault = faults[rng.gen_range(0..faults.len())];
            let want = candidates.iter().position(|c| {
                reference::detection_times(&circuit, c, &[fault]).expect("oracle")[0].is_some()
            });
            for engine in &grid {
                let got = engine.first_detecting_tape_obs(&tape, &sources, fault, &Obs::noop());
                assert_eq!(
                    got,
                    Ok(want),
                    "{} first_detecting diverges from the oracle's scan on {} (seed {seed})",
                    engine.name(),
                    circuit.name()
                );
            }
        }
    }
}

/// Fast subset: runs in debug builds on every `cargo test`, covering all
/// five shape classes several times over, with a resume case each.
#[test]
fn randomized_differential_fast_subset() {
    run_corpus(0..48, 48, 10);
}

/// The full sweep: 208 seeded circuits (26 of each degenerate class, 104
/// general) at larger fault/stimulus budgets. Ignored in debug builds —
/// the scalar oracle over 200+ circuits × the full engine grid takes
/// minutes unoptimized — and executed in release by CI, like the
/// 13-circuit campaign acceptance test.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "200+-circuit sweep × full engine grid is slow unoptimized; run with --release"
)]
fn randomized_differential_full_sweep() {
    run_corpus(0..208, 128, 16);
}

/// Stem faults inside a dead cone (logic no primary output observes)
/// match the oracle on every engine — and are exactly the faults nothing
/// detects.
#[test]
fn dead_cone_faults_match_the_oracle_and_stay_undetected() {
    let mut b = CircuitBuilder::new("dead_cone");
    b.add_input("a");
    b.add_input("c");
    b.add_gate("o", GateKind::And, ["a", "c"]);
    // Dead cone: d1 feeds d2 feeds nothing observable.
    b.add_gate("d1", GateKind::Or, ["a", "c"]);
    b.add_gate("d2", GateKind::Not, ["d1"]);
    b.add_output("o");
    let circuit = b.finish().unwrap();
    let tape = GateTape::compile(&circuit);
    let faults = fault_universe(&circuit);
    let dead = ["d1", "d2"].map(|n| circuit.find(n).unwrap());
    let seq: TestSequence = "00 01 10 11 11 00".parse().unwrap();
    let oracle = reference::detection_times(&circuit, &seq, &faults).unwrap();
    for engine in &engine_grid() {
        let times = engine.detection_times_tape(&tape, &seq, &faults).unwrap();
        assert_eq!(times, oracle, "{}", engine.name());
    }
    for (f, t) in faults.iter().zip(&oracle) {
        if dead.contains(&f.site.node()) {
            assert_eq!(*t, None, "dead-cone fault detected: {}", f.describe(&circuit));
        }
    }
}

/// Faults at (and on pins of) a gate that can never leave X — fed by a
/// self-looped flip-flop — match the oracle on every engine.
#[test]
fn always_x_cone_faults_match_the_oracle() {
    let mut b = CircuitBuilder::new("always_x");
    b.add_input("a");
    b.add_dff("q", "q"); // self-loop: permanently X
    b.add_gate("g", GateKind::Not, ["q"]); // never leaves X either
    b.add_gate("o", GateKind::Or, ["g", "a"]);
    b.add_output("o");
    let circuit = b.finish().unwrap();
    let tape = GateTape::compile(&circuit);
    let g = circuit.find("g").unwrap();
    let faults = fault_universe(&circuit);
    assert!(faults.iter().any(|f| matches!(f.site, FaultSite::Output(n) if n == g)));
    let seq: TestSequence = "0 1 0 1 1 0 0 1".parse().unwrap();
    let oracle = reference::detection_times(&circuit, &seq, &faults).unwrap();
    for engine in &engine_grid() {
        let times = engine.detection_times_tape(&tape, &seq, &faults).unwrap();
        assert_eq!(times, oracle, "{}", engine.name());
    }
}
