//! Fault-simulation-guided test sequence generation (STRATEGATE
//! substitute).
//!
//! The generator grows `T0` burst by burst and keeps the
//! fault-simulation state explicit: after each accepted burst it holds
//! the [`MachineState`] the sequence leaves its still-undetected faults
//! (and the good machine) in. A candidate burst is simulated alone,
//! resumed from that state against the remaining faults, and its
//! detection times are already times within the whole sequence. An
//! accepted burst is cut after its last new detection and its kept
//! vectors are walked once more for the surviving faults to step the
//! state past them; a rejected burst leaves the state untouched. Every
//! vector of `T0` is therefore simulated a bounded number of times,
//! instead of the whole prefix being replayed from the all-`X` state for
//! every candidate. The compaction that follows runs on the same
//! simulator ([`crate::static_compact`]).

use crate::compact::compact_on;
use crate::{RandomSequence, TgenConfig};
use bist_expand::TestSequence;
use bist_netlist::{Circuit, GateTape};
use bist_sim::{
    collapse, fault_universe, Fault, FaultCoverage, FaultSimulator, MachineState, PackedBackend,
    SimError,
};
use std::sync::Arc;

/// The result of test generation: the sequence `T0` and its coverage of
/// the collapsed fault universe (with first-detection times `udet`).
#[derive(Debug, Clone)]
pub struct GeneratedTest {
    /// The generated (and compacted) test sequence.
    pub sequence: TestSequence,
    /// Coverage of the collapsed fault universe under
    /// [`sequence`](Self::sequence), including detection times.
    pub coverage: FaultCoverage,
}

impl GeneratedTest {
    /// The detected-fault set `F` of the paper's Procedure 1.
    #[must_use]
    pub fn detected_faults(&self) -> Vec<Fault> {
        self.coverage.detected().map(|(f, _)| f).collect()
    }
}

/// Generates a deterministic test sequence for `circuit`.
///
/// Candidate bursts of hold-biased random vectors are appended to the
/// sequence only if fault simulation shows they detect at least one
/// not-yet-detected fault of the collapsed universe. Generation stops when
/// every fault is detected, the stall limit is reached, or the length cap
/// is hit; the sequence is then statically compacted while preserving the
/// detected set, and the compacted sequence is fault-simulated once for
/// its definitive detection times.
///
/// Each burst is simulated alone, resumed from the machine state the
/// accepted prefix left its undetected faults in, so generation costs
/// time linear in the final length rather than quadratic.
///
/// # Errors
///
/// Propagates simulator errors (these indicate impossible configurations
/// — e.g. a circuit with zero-width vectors — and do not occur for valid
/// circuits).
pub fn generate_t0(circuit: &Circuit, config: &TgenConfig) -> Result<GeneratedTest, SimError> {
    let faults = collapse(circuit, &fault_universe(circuit)).representatives().to_vec();
    generate_t0_with_faults(circuit, config, faults)
}

/// [`generate_t0`] over a caller-supplied collapsed fault universe.
///
/// Callers that already hold the circuit's collapsed representatives (the
/// `Session` pipeline, the batch campaign's artifact cache) pass them in
/// so the universe is collapsed exactly once per circuit. `faults` must be
/// the representatives for `circuit`; detection results are reported in
/// its order. Generation itself always runs on the packed reference
/// engine, so the produced `T0` is independent of any session backend.
///
/// # Errors
///
/// As for [`generate_t0`].
pub fn generate_t0_with_faults(
    circuit: &Circuit,
    config: &TgenConfig,
    faults: Vec<Fault>,
) -> Result<GeneratedTest, SimError> {
    generate_on(&FaultSimulator::new(circuit), config, faults)
}

/// [`generate_t0_with_faults`] over a caller-compiled [`GateTape`].
///
/// Generation fault-simulates every candidate burst, so it is by far the
/// heaviest consumer of the tape: callers that already hold the
/// circuit's compiled tape (a `Session`, the batch campaign's artifact
/// cache) pass it in and the whole generation run compiles nothing.
/// Generation always runs on the packed engine regardless of any session
/// backend, so the produced `T0` stays backend-independent.
///
/// # Errors
///
/// [`SimError::TapeMismatch`] if `tape` does not belong to `circuit`;
/// otherwise as for [`generate_t0`].
pub fn generate_t0_with_artifacts(
    circuit: &Circuit,
    config: &TgenConfig,
    faults: Vec<Fault>,
    tape: Arc<GateTape>,
) -> Result<GeneratedTest, SimError> {
    let sim = FaultSimulator::with_backend_and_tape(circuit, tape, Arc::new(PackedBackend))?;
    generate_on(&sim, config, faults)
}

/// The generation loop itself, over whatever simulator the entry points
/// assembled.
fn generate_on(
    sim: &FaultSimulator<'_>,
    config: &TgenConfig,
    faults: Vec<Fault>,
) -> Result<GeneratedTest, SimError> {
    let circuit = sim.circuit();
    let mut source =
        RandomSequence::new(circuit.num_inputs(), config.hold_probability, config.seed);

    let mut t0 = TestSequence::new(circuit.num_inputs());
    // First detection time of every fault under `t0`: appending vectors
    // never moves a detection, so these are final once recorded.
    let mut times: Vec<Option<usize>> = vec![None; faults.len()];
    // The faults `t0` does not detect yet, their indices in `faults`, and
    // the machine state `t0` leaves them in.
    let mut pending: Vec<Fault> = faults.clone();
    let mut slots: Vec<usize> = (0..faults.len()).collect();
    let mut state = MachineState::reset();
    let mut stall = 0usize;
    let mut burst_len = config.burst_len;

    while !pending.is_empty() && stall < config.max_stall {
        if t0.len() >= config.max_length {
            break;
        }
        let burst = source.burst(burst_len.min(config.max_length - t0.len()));
        let found = sim.resume(&state, &burst, &pending, &[])?.times;
        let Some(last_useful) = found.iter().flatten().copied().max() else {
            stall += 1;
            // Occasionally try longer bursts: deep faults need longer
            // justification sequences.
            if stall.is_multiple_of(10) {
                burst_len = (burst_len * 2).min(128);
            }
            continue;
        };
        // Truncate the useless tail of the burst: nothing after the last
        // new detection contributes.
        let kept = burst.subsequence(0, last_useful - t0.len());
        let mut found_in = found.iter();
        slots.retain(|&i| match found_in.next() {
            Some(&Some(t)) => {
                times[i] = Some(t);
                false
            }
            _ => true,
        });
        let mut found_in = found.iter();
        pending.retain(|_| found_in.next().is_some_and(Option::is_none));
        if !pending.is_empty() {
            // Walk the kept vectors once more, for the survivors only, to
            // step their machines (and the good one) past them.
            let end = t0.len() + kept.len();
            state = sim
                .resume(&state, &kept, &pending, &[end])?
                .states
                .pop()
                .flatten()
                .expect("undetected faults walk the whole kept burst");
        }
        for v in &kept {
            t0.push(v.clone()).expect("same width");
        }
        stall = 0;
    }

    if t0.is_empty() {
        // Degenerate: nothing was ever detected; keep one burst so the
        // contract (nonempty sequence) holds.
        t0 = source.burst(config.burst_len);
        times = sim.detection_times(&t0, &faults)?;
    }

    // Compact while preserving the detected set, then re-simulate the
    // compacted sequence for final detection times.
    let detected: Vec<Fault> =
        faults.iter().zip(&times).filter_map(|(&f, t)| t.map(|_| f)).collect();
    if config.compaction_budget == 0 || detected.is_empty() {
        return Ok(GeneratedTest { sequence: t0, coverage: FaultCoverage::new(faults, times) });
    }
    let compacted =
        compact_on(sim, &t0, &detected, config.compaction_budget, config.seed)?.sequence;
    let coverage = FaultCoverage::simulate(sim, &compacted, faults)?;
    Ok(GeneratedTest { sequence: compacted, coverage })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_netlist::benchmarks;
    use bist_netlist::generate::GeneratorSpec;

    #[test]
    fn s27_reaches_full_coverage() {
        let c = benchmarks::s27();
        let t0 = generate_t0(&c, &TgenConfig::new().seed(7)).unwrap();
        // All 32 collapsed faults of s27 are detectable; random generation
        // finds them quickly.
        assert_eq!(t0.coverage.total(), 32);
        assert_eq!(t0.coverage.detected_count(), 32);
        assert!(!t0.sequence.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let c = benchmarks::s27();
        let a = generate_t0(&c, &TgenConfig::new().seed(3)).unwrap();
        let b = generate_t0(&c, &TgenConfig::new().seed(3)).unwrap();
        assert_eq!(a.sequence, b.sequence);
        let d = generate_t0(&c, &TgenConfig::new().seed(4)).unwrap();
        assert!(a.sequence != d.sequence || a.coverage == d.coverage);
    }

    #[test]
    fn respects_length_cap() {
        let c = benchmarks::s27();
        let t0 = generate_t0(&c, &TgenConfig::new().seed(1).max_length(6)).unwrap();
        assert!(t0.sequence.len() <= 6);
    }

    #[test]
    fn covers_synthetic_circuit_reasonably() {
        let c = GeneratorSpec::new("cov")
            .inputs(5)
            .outputs(4)
            .dffs(6)
            .gates(60)
            .seed(2)
            .build()
            .unwrap();
        let t0 = generate_t0(&c, &TgenConfig::new().seed(5)).unwrap();
        assert!(t0.coverage.fraction() > 0.5, "coverage too low: {:.2}", t0.coverage.fraction());
    }

    #[test]
    fn detected_faults_matches_coverage() {
        let c = benchmarks::s27();
        let t0 = generate_t0(&c, &TgenConfig::new().seed(2)).unwrap();
        assert_eq!(t0.detected_faults().len(), t0.coverage.detected_count());
    }

    #[test]
    fn with_injected_tape_matches_self_compiling_path() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let cfg = TgenConfig::new().seed(9);
        let tape = Arc::new(GateTape::compile(&c));
        let a = generate_t0_with_artifacts(&c, &cfg, faults.clone(), Arc::clone(&tape)).unwrap();
        let b = generate_t0(&c, &cfg).unwrap();
        assert_eq!(a.sequence, b.sequence);
        assert_eq!(a.coverage, b.coverage);
        // A tape from another circuit is a typed error, not a bad T0.
        let alien = Arc::new(GateTape::compile(&benchmarks::shift_register3()));
        assert!(matches!(
            generate_t0_with_artifacts(&c, &cfg, faults, alien),
            Err(SimError::TapeMismatch { .. })
        ));
    }

    #[test]
    fn with_faults_matches_self_collapsing_path() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let cfg = TgenConfig::new().seed(9);
        let a = generate_t0(&c, &cfg).unwrap();
        let b = generate_t0_with_faults(&c, &cfg, faults).unwrap();
        assert_eq!(a.sequence, b.sequence);
        assert_eq!(a.coverage, b.coverage);
    }

    #[test]
    fn shift_register_detectable_faults_found() {
        let c = benchmarks::shift_register3();
        let t0 = generate_t0(&c, &TgenConfig::new().seed(11)).unwrap();
        // All faults of the shift register are detectable.
        assert_eq!(t0.coverage.fraction(), 1.0);
    }
}
