//! Differential suite for candidate-parallel probes.
//!
//! `first_detecting` must return exactly what the sequential scan
//! `candidates.iter().position(|c| detects(c, fault))` returns — the
//! index, `None`, or the error of the first invalid candidate the scan
//! reaches — on every engine of the shared test grid. The packed engines
//! test 32 candidates per pass (faulty machines in the low lanes, each
//! candidate's good machine 32 lanes up), so the cases cover the shapes
//! Procedure 2 submits: growing windows of mixed length, equal-length
//! omission candidates (which fast-forward repeated memory walks when the
//! expansion repeats them), more than one pass, no winner, and every kind
//! of fault site.

use std::sync::Arc;

use bist_expand::expansion::{Expand, ExpansionConfig};
use bist_expand::{ExpansionIter, TestSequence, TestVector, VectorSource};
use bist_netlist::{benchmarks, Circuit, GateTape};
use bist_obs::Registry;
use bist_sim::{
    collapse, fault_universe, Fault, FaultSimulator, FaultSite, Obs, PackedBackend, SimBackend,
    SimError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

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

/// The contract: the sequential scan, one single-fault pass per candidate.
fn sequential(
    engine: &dyn SimBackend,
    tape: &GateTape,
    candidates: &[&dyn VectorSource],
    fault: Fault,
) -> Result<Option<usize>, SimError> {
    for (i, c) in candidates.iter().enumerate() {
        if engine.detection_times_tape(tape, *c, &[fault])?[0].is_some() {
            return Ok(Some(i));
        }
    }
    Ok(None)
}

/// Checks every engine of the grid against the scalar engine's scan,
/// returning the agreed answer.
fn check(
    tape: &GateTape,
    candidates: &[&dyn VectorSource],
    fault: Fault,
    what: &str,
) -> Result<Option<usize>, SimError> {
    let grid = common::engine_grid();
    let want = sequential(&*grid[0], tape, candidates, fault);
    for engine in &grid {
        let got = engine.first_detecting_tape_obs(tape, candidates, fault, &Obs::noop());
        assert_eq!(got, want, "{}: {what}, fault {fault}", engine.name());
    }
    want
}

fn sources<'a>(streams: &'a [ExpansionIter<'a>]) -> Vec<&'a dyn VectorSource> {
    streams.iter().map(|s| s as &dyn VectorSource).collect()
}

#[test]
fn grow_shaped_windows_agree_with_the_scan() {
    let mut rng = StdRng::seed_from_u64(0x9e0);
    for name in ["s27", "a298"] {
        let circuit = suite_circuit(name);
        let tape = GateTape::compile(&circuit);
        let faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
        let t0 = random_sequence(&circuit, 36, &mut rng);
        let expansion = ExpansionConfig::new(1).unwrap();
        let mut winners = 0;
        for &fault in faults.iter().step_by(5) {
            // T0[end - k, end] for k = 0, 1, ...: mixed lengths, and more
            // than one pass whenever the window must grow past 32.
            let end = rng.gen_range(0..t0.len());
            let windows: Vec<TestSequence> =
                (0..=end).map(|k| t0.subsequence(end - k, end)).collect();
            let streams: Vec<ExpansionIter<'_>> =
                windows.iter().map(|w| expansion.stream(w)).collect();
            let found = check(&tape, &sources(&streams), fault, name).unwrap();
            winners += usize::from(found.is_some());
        }
        assert!(winners > 0, "{name}: the sample must contain detecting windows");
    }
}

#[test]
fn omission_shaped_candidates_agree_with_the_scan() {
    let mut rng = StdRng::seed_from_u64(0x0a1);
    let circuit = suite_circuit("a298");
    let tape = GateTape::compile(&circuit);
    let faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
    let expansion = ExpansionConfig::new(1).unwrap();
    for &fault in faults.iter().step_by(12) {
        // Equal-length candidates: one vector left out of a window each.
        let current = random_sequence(&circuit, rng.gen_range(2usize..40), &mut rng);
        let candidates: Vec<TestSequence> =
            (0..current.len()).map(|u| current.without(u)).collect();
        let streams: Vec<ExpansionIter<'_>> =
            candidates.iter().map(|c| expansion.stream(c)).collect();
        check(&tape, &sources(&streams), fault, "omission").unwrap();
    }
}

/// Expansions that repeat their walks (`n ≥ 2`): the streamed omission
/// batches Procedure 2 submits report equal walks, so the packed probe
/// fast-forwards repeated walks under the undecided lane pairs; window
/// batches of mixed length do not. Both must stay the sequential scan,
/// and the omission batches must really skip.
#[test]
fn repeated_walk_batches_agree_with_the_scan() {
    let mut rng = StdRng::seed_from_u64(0x5c1b);
    let registry = Arc::new(Registry::new());
    let obs = Obs::with_registry(Arc::clone(&registry));
    for name in ["s27", "a298"] {
        let circuit = suite_circuit(name);
        let tape = GateTape::compile(&circuit);
        let faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
        for n in [2, 8] {
            let expansion = ExpansionConfig::new(n).unwrap();
            for &fault in faults.iter().step_by(faults.len() / 6) {
                let current = random_sequence(&circuit, rng.gen_range(2usize..10), &mut rng);
                let omissions: Vec<ExpansionIter<'_>> =
                    (0..current.len()).map(|u| expansion.stream(&current).without(u)).collect();
                check(&tape, &sources(&omissions), fault, &format!("{name} n={n} omission"))
                    .unwrap();
                PackedBackend
                    .first_detecting_tape_obs(&tape, &sources(&omissions), fault, &obs)
                    .unwrap();
                let end = rng.gen_range(0..current.len());
                let windows: Vec<ExpansionIter<'_>> =
                    (0..=end).map(|k| expansion.stream(&current).window(end - k, end)).collect();
                check(&tape, &sources(&windows), fault, &format!("{name} n={n} window")).unwrap();
            }
        }
    }
    let snap = registry.snapshot();
    assert!(snap.counter("sim.walks_skipped").unwrap_or(0) > 0, "omission probes must skip");
}

#[test]
fn winner_in_a_later_pass_and_no_winner() {
    let circuit = benchmarks::shift_register3();
    let tape = GateTape::compile(&circuit);
    let q2 = Fault::output(circuit.find("q2").unwrap(), false);
    // q2 s-a-0 shows only after three 1s have been shifted in.
    let short: TestSequence = "11 11".parse().unwrap();
    let long: TestSequence = "11 11 11 11".parse().unwrap();
    for lead in [0, 31, 32, 35, 64, 70] {
        let mut candidates: Vec<&dyn VectorSource> = vec![&short; lead];
        candidates.extend([&long as &dyn VectorSource, &short, &long]);
        assert_eq!(check(&tape, &candidates, q2, "late winner"), Ok(Some(lead)));
        assert_eq!(check(&tape, &candidates[..lead], q2, "no winner"), Ok(None));
    }
    // A pass ends early at its winner, and the next pass runs only when
    // this one found none: 70 losers then a winner take three passes.
    let registry = Arc::new(Registry::new());
    let obs = Obs::with_registry(Arc::clone(&registry));
    let longer: TestSequence = "11 11 11 11 11 11".parse().unwrap();
    let mut candidates: Vec<&dyn VectorSource> = vec![&short; 70];
    candidates.extend([&longer as &dyn VectorSource; 40]);
    assert_eq!(PackedBackend.first_detecting_tape_obs(&tape, &candidates, q2, &obs), Ok(Some(70)));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("sim.chunks"), Some(3));
    assert_eq!(snap.counter("sim.chunk_early_exits"), Some(1));
}

#[test]
fn every_fault_site_kind_agrees() {
    let mut rng = StdRng::seed_from_u64(0x517e);
    let circuit = benchmarks::s27();
    let tape = GateTape::compile(&circuit);
    // The uncollapsed universe: PI and DFF stems, gate stems, branches.
    let faults = fault_universe(&circuit);
    let is_source = |f: &Fault, dff: bool| match f.site {
        FaultSite::Output(n) => {
            let i = n.index() as u32;
            if dff {
                tape.dffs().contains(&i)
            } else {
                tape.inputs().contains(&i)
            }
        }
        FaultSite::Input { .. } => false,
    };
    assert!(faults.iter().any(|f| is_source(f, false)), "PI stems");
    assert!(faults.iter().any(|f| is_source(f, true)), "DFF stems");
    assert!(faults.iter().any(|f| matches!(f.site, FaultSite::Input { .. })), "branches");
    let t0 = random_sequence(&circuit, 12, &mut rng);
    let expansion = ExpansionConfig::new(1).unwrap();
    for &fault in &faults {
        let end = rng.gen_range(0..t0.len());
        let windows: Vec<TestSequence> = (0..=end).map(|k| t0.subsequence(end - k, end)).collect();
        let streams: Vec<ExpansionIter<'_>> = windows.iter().map(|w| expansion.stream(w)).collect();
        check(&tape, &sources(&streams), fault, "site").unwrap();
        // Plain stored sequences too, not only expansions.
        let plain: Vec<&dyn VectorSource> =
            windows.iter().map(|w| w as &dyn VectorSource).collect();
        check(&tape, &plain, fault, "plain").unwrap();
    }
}

#[test]
fn empty_and_invalid_candidate_lists() {
    let circuit = benchmarks::shift_register3();
    let tape = GateTape::compile(&circuit);
    let q2 = Fault::output(circuit.find("q2").unwrap(), false);
    let long: TestSequence = "11 11 11 11".parse().unwrap();
    let short: TestSequence = "11 11".parse().unwrap();
    let narrow: TestSequence = "1 1 1 1".parse().unwrap();
    let empty = TestSequence::new(2);
    assert_eq!(check(&tape, &[], q2, "empty list"), Ok(None));
    // The scan stops at the first invalid candidate it reaches...
    let mismatch = check(&tape, &[&short, &narrow, &long], q2, "width");
    assert!(matches!(mismatch, Err(SimError::WidthMismatch { .. })), "{mismatch:?}");
    assert_eq!(check(&tape, &[&short, &empty, &long], q2, "empty"), Err(SimError::EmptySequence));
    // ...and never reaches one behind a winner.
    assert_eq!(check(&tape, &[&short, &long, &narrow], q2, "winner first"), Ok(Some(1)));
    let mut late: Vec<&dyn VectorSource> = vec![&short; 40];
    late.push(&narrow);
    assert!(matches!(check(&tape, &late, q2, "late"), Err(SimError::WidthMismatch { .. })));
}

#[test]
fn facade_agrees_with_the_sequential_scan() {
    let mut rng = StdRng::seed_from_u64(0xfaca);
    let circuit = suite_circuit("a298");
    let faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
    let plain = FaultSimulator::new(&circuit);
    let scalar = FaultSimulator::scalar(&circuit);
    let t0 = random_sequence(&circuit, 24, &mut rng);
    let expansion = ExpansionConfig::new(2).unwrap();
    for &fault in faults.iter().step_by(4) {
        let end = rng.gen_range(0..t0.len());
        let windows: Vec<TestSequence> = (0..=end).map(|k| t0.subsequence(end - k, end)).collect();
        let streams: Vec<ExpansionIter<'_>> = windows.iter().map(|w| expansion.stream(w)).collect();
        let candidates = sources(&streams);
        let mut want = None;
        for (i, c) in candidates.iter().enumerate() {
            if plain.detects_stream(*c, fault).unwrap() {
                want = Some(i);
                break;
            }
        }
        assert_eq!(plain.first_detecting(&candidates, fault), Ok(want), "{fault}");
        assert_eq!(scalar.first_detecting(&candidates, fault), Ok(want), "{fault}");
    }
}
