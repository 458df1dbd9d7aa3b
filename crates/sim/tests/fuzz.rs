//! Randomized-netlist differential fuzz suite.
//!
//! The hand-built 13-circuit suite in `differential.rs` pins the engines
//! on realistic shapes; this suite pins them on *adversarial* ones: a
//! seeded stream of random circuits from [`bist_netlist::fuzz`] —
//! zero-gate netlists with POs wired straight to PIs/DFFs, single gates
//! of every opcode, deep chains, extreme fanout/fanin, and general
//! random levelized circuits — each simulated under random stimulus by
//! **every** engine (scalar tape, packed64, sharded on 2 and 4 threads)
//! and compared bit-for-bit against the node-graph oracle in
//! [`bist_sim::reference`].
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
//!
//! The walk fast-forward sweep does the same for expansion streams, whose
//! repeated memory walks the packed engines skip once a walk returns to
//! its start state: on fuzz circuits, s27 and a298, under `n ∈ {1, 2, 3,
//! 8, 16}` and a custom recipe, over whole, windowed and omitting
//! streams, from reset and from a captured state, with captures inside
//! the repeated phases. Every engine's `Resumed` must equal the scalar
//! engine's (which never skips) and the same engine's on a wrapper that
//! hides the walks; `first_detecting` over omission and window batches
//! must name the candidate the sequential scan names.

use std::sync::Arc;

use bist_expand::expansion::{CustomExpansion, Expand, ExpansionConfig};
use bist_expand::{TestSequence, TestVector, VectorSource};
use bist_netlist::fuzz::fuzz_circuit;
use bist_netlist::{benchmarks, Circuit, CircuitBuilder, GateKind, GateTape};
use bist_obs::Registry;
use bist_sim::{
    collapse, fault_universe, reference, Fault, FaultSite, MachineState, Obs, ScalarBackend,
    SimBackend, SimError,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

mod common;

/// Runs the corpus of `seeds`: every engine's detection times must equal
/// the node-graph oracle's on every circuit.
fn run_corpus(seeds: std::ops::Range<u64>, max_faults: usize, max_seq_len: usize) {
    let grid = common::engine_grid();
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
    for engine in &common::engine_grid() {
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
    for engine in &common::engine_grid() {
        let times = engine.detection_times_tape(&tape, &seq, &faults).unwrap();
        assert_eq!(times, oracle, "{}", engine.name());
    }
}

/// A source that hides its walk structure: the same vectors, described as
/// one walk of one repetition, so an engine simulates every vector.
struct Opaque<'a>(&'a dyn VectorSource);

impl VectorSource for Opaque<'_> {
    fn width(&self) -> usize {
        self.0.width()
    }

    fn num_vectors(&self) -> usize {
        self.0.num_vectors()
    }

    fn visit(&self, visitor: &mut dyn FnMut(usize, &TestVector) -> bool) {
        self.0.visit(visitor);
    }

    fn vector_into(&self, t: usize, out: &mut TestVector) {
        self.0.vector_into(t, out);
    }
}

fn random_sequence(width: usize, len: usize, rng: &mut StdRng) -> TestSequence {
    TestSequence::from_vectors(
        (0..len).map(|_| TestVector::from_fn(width, |_| rng.gen_bool(0.5))).collect(),
    )
    .expect("uniform width")
}

/// The expansions the walk sweep covers: the paper's recipe at
/// `n ∈ {1, 2, 3, 8, 16}` and one random custom recipe.
fn expansions(rng: &mut StdRng) -> Vec<(String, Box<dyn Expand>)> {
    let mut out: Vec<(String, Box<dyn Expand>)> = [1, 2, 3, 8, 16]
        .into_iter()
        .map(|n| {
            let cfg: Box<dyn Expand> = Box::new(ExpansionConfig::new(n).expect("n >= 1"));
            (format!("n={n}"), cfg)
        })
        .collect();
    let custom = CustomExpansion::new(rng.gen_range(2usize..=4))
        .expect("n >= 1")
        .complement(rng.gen_bool(0.5))
        .shift(rng.gen_bool(0.5))
        .reverse(rng.gen_bool(0.5));
    out.push((custom.describe(), Box::new(custom)));
    out
}

/// Capture times for a pass of `len` vectors from time `base`: random
/// times, the end of the first run of walks (where a skip lands) and the
/// end of the stream.
fn capture_times(source: &dyn VectorSource, base: usize, rng: &mut StdRng) -> Vec<usize> {
    let len = source.num_vectors();
    let first_run = source.walks().first().map_or(len, |w| w.len * w.reps).clamp(1, len);
    let mut times: Vec<usize> = (0..3).map(|_| rng.gen_range(1..=len)).collect();
    times.extend([first_run, len]);
    times.sort_unstable();
    times.dedup();
    times.into_iter().map(|t| base + t).collect()
}

/// The walk fast-forward differential on one circuit: every engine of
/// `grid` (sweep telemetry into `obs`) against the scalar engine and
/// against itself on the walk-hiding wrapper, for every expansion, whole,
/// windowed and omitting, from reset and resumed after a random prefix.
fn check_walks(
    circuit: &Circuit,
    grid: &[Box<dyn SimBackend>],
    obs: &Obs,
    max_faults: usize,
    max_loaded: usize,
    rng: &mut StdRng,
) {
    let name = circuit.name();
    let tape = GateTape::compile(circuit);
    let mut faults = collapse(circuit, &fault_universe(circuit)).representatives().to_vec();
    faults.shuffle(rng);
    faults.truncate(max_faults);
    let width = circuit.num_inputs();
    let loaded = random_sequence(width, rng.gen_range(2..=max_loaded), rng);
    let prefix = random_sequence(width, rng.gen_range(1usize..=4), rng);
    let reset = MachineState::reset();
    let walked = ScalarBackend
        .resume_tape_obs(&tape, &reset, &prefix, &faults, &[prefix.len()], obs)
        .expect("scalar prefix walk");
    let pending: Vec<Fault> =
        faults.iter().zip(&walked.times).filter(|(_, t)| t.is_none()).map(|(&f, _)| f).collect();

    for (what, expansion) in expansions(rng) {
        let from = rng.gen_range(0..loaded.len());
        let to = rng.gen_range(from..loaded.len());
        let omit = rng.gen_range(0..loaded.len());
        let streams = [
            ("whole", expansion.stream(&loaded)),
            ("window", expansion.stream(&loaded).window(from, to)),
            ("omit", expansion.stream(&loaded).without(omit)),
        ];
        for (shape, stream) in &streams {
            if stream.num_vectors() == 0 {
                continue;
            }
            let hidden = Opaque(stream);
            let mut passes = vec![(&reset, &faults, capture_times(stream, 0, rng))];
            if let Some(state) = &walked.states[0] {
                passes.push((state, &pending, capture_times(stream, prefix.len(), rng)));
            }
            for (start, list, capture) in passes {
                let at = start.time();
                let want = ScalarBackend
                    .resume_tape_obs(&tape, start, stream, list, &capture, obs)
                    .expect("scalar pass");
                for engine in grid {
                    let label = format!(
                        "{} on {name}, {what} {shape} from {at}, captures {capture:?}",
                        engine.name()
                    );
                    let got = engine.resume_tape_obs(&tape, start, stream, list, &capture, obs);
                    assert_eq!(got.as_ref(), Ok(&want), "{label}");
                    let plain = engine.resume_tape_obs(&tape, start, &hidden, list, &capture, obs);
                    assert_eq!(plain.as_ref(), Ok(&want), "{label}, walks hidden");
                }
            }
        }

        // Procedure 2's batches: every omission of the loaded sequence
        // (equal walks), growing windows (walks of mixed length), and each
        // window next to its walk-hiding twin, so candidates that skip and
        // candidates that cannot share one word.
        let omitting: Vec<_> =
            (0..loaded.len()).map(|u| expansion.stream(&loaded).without(u)).collect();
        let end = rng.gen_range(0..loaded.len());
        let growing: Vec<_> =
            (0..=end).map(|k| expansion.stream(&loaded).window(end - k, end)).collect();
        let twins: Vec<_> = growing.iter().map(|w| Opaque(w)).collect();
        let omissions: Vec<&dyn VectorSource> =
            omitting.iter().map(|c| c as &dyn VectorSource).collect();
        let windows: Vec<&dyn VectorSource> =
            growing.iter().map(|c| c as &dyn VectorSource).collect();
        let mixed: Vec<&dyn VectorSource> = growing
            .iter()
            .zip(&twins)
            .flat_map(|(w, twin)| [w as &dyn VectorSource, twin as &dyn VectorSource])
            .collect();
        for (shape, candidates) in
            [("omissions", &omissions), ("windows", &windows), ("mixed", &mixed)]
        {
            for _ in 0..2 {
                let fault = faults[rng.gen_range(0..faults.len())];
                let want = candidates.iter().position(|c| {
                    ScalarBackend.detection_times_tape(&tape, *c, &[fault]).expect("scan")[0]
                        .is_some()
                });
                for engine in grid {
                    assert_eq!(
                        engine.first_detecting_tape_obs(&tape, candidates, fault, obs),
                        Ok(want),
                        "{} first_detecting on {name}, {what} {shape}, fault {fault}",
                        engine.name()
                    );
                }
            }
        }
    }
}

/// Runs the walk sweep over `circuits` and checks the packed engines
/// really skipped walks along the way (a sweep that never skips proves
/// nothing about skipping).
fn run_walk_sweep(
    circuits: impl IntoIterator<Item = (u64, Circuit)>,
    max_faults: usize,
    max_loaded: usize,
) {
    let registry = Arc::new(Registry::new());
    let obs = Obs::with_registry(Arc::clone(&registry));
    let grid = common::engine_grid();
    for (seed, circuit) in circuits {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3a1c_f00d);
        check_walks(&circuit, &grid, &obs, max_faults, max_loaded, &mut rng);
    }
    let snap = registry.snapshot();
    assert!(snap.counter("sim.walks_skipped").unwrap_or(0) > 0, "the sweep must skip walks");
    assert!(snap.counter("sim.vectors_skipped").unwrap_or(0) > 0, "the sweep must skip vectors");
}

fn suite_circuit(name: &str) -> Circuit {
    benchmarks::suite().into_iter().find(|e| e.name == name).unwrap().build().unwrap()
}

/// Checks that every engine detects `fault` when the node-graph oracle
/// does — first at `want` under the `n = 8` expansion of the one-vector
/// `loaded` — over that expansion, over the same expansion of `loaded`
/// twice, and as the winner of an omission batch. One machine repeats its
/// walk before another there, so a skip that compared the wrong lanes
/// would move or lose the detection.
fn check_late_detection(circuit: &Circuit, fault: Fault, loaded: &str, want: usize) {
    let tape = GateTape::compile(circuit);
    let twice: TestSequence = format!("{loaded} {loaded}").parse().unwrap();
    let expansion = ExpansionConfig::new(8).unwrap();
    let stream = expansion.stream(&twice);
    let single = expansion.stream(&twice).without(0);
    let name = circuit.name();
    let oracle = reference::detection_times(circuit, &single, &[fault]).unwrap();
    assert_eq!(oracle, [Some(want)], "{name}: oracle");
    let oracle_twice = reference::detection_times(circuit, &stream, &[fault]).unwrap();
    let omissions = [&single as &dyn VectorSource, &expansion.stream(&twice).without(1)];
    for engine in &common::engine_grid() {
        for (source, want) in [(&stream as &dyn VectorSource, &oracle_twice), (&single, &oracle)] {
            let times = engine.detection_times_tape(&tape, source, &[fault]).unwrap();
            assert_eq!(&times, want, "{} on {name}", engine.name());
        }
        let found = engine.first_detecting_tape_obs(&tape, &omissions, fault, &Obs::noop());
        assert_eq!(found, Ok(Some(0)), "{} first_detecting on {name}", engine.name());
    }
}

/// A skip needs every machine a pass tracks to repeat its walk: the good
/// machine and each faulty one.
#[test]
fn a_walk_repeats_only_when_every_tracked_machine_repeats() {
    // The faulty machine repeats first. In a three-stage shift register
    // the `q1 → q2` branch stuck at 0 pins the faulty `q2` low, so under
    // a run of `1`s the faulty state repeats one walk before the good
    // state does, and the fault shows (`o = q2 ∧ a`) on the walk after.
    let mut b = CircuitBuilder::new("late_good");
    b.add_input("a");
    b.add_dff("q0", "a");
    b.add_dff("q1", "q0");
    b.add_dff("q2", "q1");
    b.add_gate("o", GateKind::And, ["q2", "a"]);
    b.add_output("o");
    let circuit = b.finish().unwrap();
    let fault = Fault::input(circuit.find("q2").unwrap(), 0, false);
    check_late_detection(&circuit, fault, "1", 3);

    // The good machine repeats first. `en = a ∧ ¬a` is 0 in the good
    // machine, so its two-stage counter `c0' = a ∧ en`, `c1' = c0 ∧ a ∧
    // en` holds 0 from the first clock on; with `en` stuck at 1 the
    // faulty counter fills under a run of `1`s and shows (`o = c1 ∧ a`)
    // on the third vector, two walks after the good state repeats.
    let mut b = CircuitBuilder::new("late_faulty");
    b.add_input("a");
    b.add_gate("na", GateKind::Not, ["a"]);
    b.add_gate("en", GateKind::And, ["a", "na"]);
    b.add_gate("d0", GateKind::And, ["a", "en"]);
    b.add_gate("d1", GateKind::And, ["c0", "a", "en"]);
    b.add_dff("c0", "d0");
    b.add_dff("c1", "d1");
    b.add_gate("o", GateKind::And, ["c1", "a"]);
    b.add_output("o");
    let circuit = b.finish().unwrap();
    let fault = Fault::output(circuit.find("en").unwrap(), true);
    check_late_detection(&circuit, fault, "1", 2);
}

/// Fast subset of the walk sweep: a few fuzz circuits and s27, small
/// budgets, one and two threads.
#[test]
fn walk_fast_forward_fast_subset() {
    let circuits = (0..3).map(|seed| (seed, fuzz_circuit(seed)));
    run_walk_sweep(circuits.chain([(1999, benchmarks::s27())]), 8, 3);
}

/// The full walk sweep: 32 fuzz circuits, s27 and a298 at larger fault
/// and loaded-sequence budgets, on the whole engine grid. Ignored in
/// debug builds, executed in release by CI.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the walk sweep × full engine grid is slow unoptimized; run with --release"
)]
fn walk_fast_forward_full_sweep() {
    let circuits = (0..32).map(|seed| (seed, fuzz_circuit(seed)));
    let suite = [(1999, benchmarks::s27()), (2027, suite_circuit("a298"))];
    run_walk_sweep(circuits.chain(suite), 48, 6);
}
