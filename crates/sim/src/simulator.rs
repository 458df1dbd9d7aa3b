//! The sequential stuck-at fault simulator facade.
//!
//! [`FaultSimulator`] binds a circuit — compiled once into its
//! [`GateTape`] instruction form — to a [`SimBackend`] engine. The
//! default engine runs one faulty machine per low lane of a packed word,
//! 64 lanes wide for up to 63 faults and 256 otherwise, with the
//! fault-free machine fused into the top lane; [`FaultSimulator::sharded`]
//! selects the same pass split across threads, and the scalar reference
//! engine, the differential oracle for every query, via
//! [`FaultSimulator::scalar`]. A fault is *detected* at time unit
//! `u` if some primary output has a binary value in the fault-free circuit
//! and the complementary binary value in the faulty circuit at time `u` —
//! the standard pessimistic three-valued criterion, matching the paper's
//! definition of a subsequence detecting a fault from the all-unspecified
//! state.
//!
//! The tape is compiled at construction and shared by every query, so a
//! simulator that runs thousands of passes (test generation, Procedure
//! 1/2 sweeps) compiles exactly once. Callers that already hold a tape —
//! a `Session`, a batch campaign's artifact cache — inject it through
//! [`FaultSimulator::with_backend_and_tape`] and nothing is recompiled.
//!
//! Every query has a `*_stream` variant taking a [`VectorSource`], so the
//! expanded sequences of the paper's scheme can be simulated straight from
//! the lazy [`ExpansionIter`](bist_expand::ExpansionIter) without ever
//! materializing `Sexp`.
//!
//! Machine state is explicit: [`FaultSimulator::resume`] continues a
//! pass from a [`MachineState`] (the good machine's flip-flops plus each
//! fault's) and can snapshot the state at chosen times, so a caller that
//! extends or edits a sequence re-simulates only the vectors after the
//! change. Every query above is that pass started from
//! [`MachineState::reset`].

use crate::backend::{PackedBackend, ScalarBackend, ShardedBackend, SimBackend};
use crate::good::GoodTrace;
use crate::{Fault, MachineState, Resumed, SimError};
use bist_expand::{TestSequence, VectorSource};
use bist_netlist::{Circuit, GateTape};
use bist_obs::Obs;
use std::sync::Arc;

/// Sequential stuck-at fault simulator for one circuit.
///
/// # Example
///
/// ```
/// use bist_expand::TestSequence;
/// use bist_netlist::benchmarks;
/// use bist_sim::{collapse, fault_universe, FaultSimulator};
///
/// let c = benchmarks::s27();
/// let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
/// let sim = FaultSimulator::new(&c);
/// // The paper's Table 2 sequence detects 32 of the 32 collapsed faults.
/// let t0: TestSequence =
///     "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse()?;
/// let times = sim.detection_times(&t0, &faults)?;
/// assert_eq!(times.iter().filter(|t| t.is_some()).count(), 32);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FaultSimulator<'c> {
    circuit: &'c Circuit,
    tape: Arc<GateTape>,
    backend: Arc<dyn SimBackend>,
    /// Telemetry sink threaded into every engine pass. Defaults to the
    /// no-op sink; results never depend on it.
    obs: Obs,
}

impl<'c> FaultSimulator<'c> {
    /// Creates a simulator bound to `circuit` with the default 64-lane
    /// packed engine, compiling the circuit's tape.
    #[must_use]
    pub fn new(circuit: &'c Circuit) -> Self {
        FaultSimulator::with_backend(circuit, Arc::new(PackedBackend))
    }

    /// Creates a simulator using the scalar reference engine (one faulty
    /// machine at a time) — the differential oracle for every query,
    /// resume included.
    #[must_use]
    pub fn scalar(circuit: &'c Circuit) -> Self {
        FaultSimulator::with_backend(circuit, Arc::new(ScalarBackend))
    }

    /// Creates a simulator using the thread-sharded packed engine.
    ///
    /// # Errors
    ///
    /// [`SimError::ZeroThreads`] if `threads == 0`.
    pub fn sharded(circuit: &'c Circuit, threads: usize) -> Result<Self, SimError> {
        Ok(FaultSimulator::with_backend(circuit, Arc::new(ShardedBackend::new(threads)?)))
    }

    /// Creates a simulator with an explicit engine, compiling the
    /// circuit's tape.
    #[must_use]
    pub fn with_backend(circuit: &'c Circuit, backend: Arc<dyn SimBackend>) -> Self {
        let tape = Arc::new(GateTape::compile(circuit));
        #[cfg(debug_assertions)]
        bist_verify::audit_tape(circuit, &tape);
        FaultSimulator { circuit, tape, backend, obs: Obs::noop() }
    }

    /// Creates a simulator reusing an already-compiled tape — the
    /// zero-recompilation entry point for sessions and campaign caches.
    ///
    /// # Errors
    ///
    /// [`SimError::TapeMismatch`] if `tape` was not compiled from a
    /// circuit of the same shape (node/input/output/DFF/gate counts).
    pub fn with_backend_and_tape(
        circuit: &'c Circuit,
        tape: Arc<GateTape>,
        backend: Arc<dyn SimBackend>,
    ) -> Result<Self, SimError> {
        check_tape_shape(&tape, circuit)?;
        // The shape check above is O(1) and release-safe; debug builds
        // additionally prove the tape is *this* circuit's, field by field.
        #[cfg(debug_assertions)]
        bist_verify::audit_tape(circuit, &tape);
        Ok(FaultSimulator { circuit, tape, backend, obs: Obs::noop() })
    }

    /// The simulated circuit.
    #[must_use]
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The compiled tape every query executes — shareable with other
    /// simulators over the same circuit.
    #[must_use]
    pub fn tape(&self) -> &Arc<GateTape> {
        &self.tape
    }

    /// The engine behind this simulator.
    #[must_use]
    pub fn backend(&self) -> &dyn SimBackend {
        &*self.backend
    }

    /// Attaches a telemetry sink: every subsequent engine pass records
    /// its sweep counters and shard busy time into `obs`. Telemetry is
    /// observation-only — results are bit-identical with any sink.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The telemetry sink engine passes record into (the no-op sink
    /// unless [`with_obs`](Self::with_obs) was used). Layers above the
    /// simulator (scheme sweeps, sessions) share it for their own spans.
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Fault-free simulation (see [`simulate_good`](crate::simulate_good))
    /// — over this
    /// simulator's cached tape, so repeated calls compile nothing.
    ///
    /// # Errors
    ///
    /// Width mismatch / empty sequence.
    pub fn good(&self, seq: &TestSequence) -> Result<GoodTrace, SimError> {
        crate::good::simulate_machine(&self.tape, seq, None)
    }

    /// First detection time of every fault in `faults` under `seq`, or
    /// `None` if undetected.
    ///
    /// # Errors
    ///
    /// Width mismatch / empty sequence.
    pub fn detection_times(
        &self,
        seq: &TestSequence,
        faults: &[Fault],
    ) -> Result<Vec<Option<usize>>, SimError> {
        self.detection_times_stream(seq, faults)
    }

    /// [`detection_times`](Self::detection_times) over any replayable
    /// vector stream — e.g. a lazy expansion — without materializing it.
    ///
    /// # Errors
    ///
    /// Width mismatch / empty stream.
    pub fn detection_times_stream(
        &self,
        source: &dyn VectorSource,
        faults: &[Fault],
    ) -> Result<Vec<Option<usize>>, SimError> {
        self.backend.detection_times_tape_obs(&self.tape, source, faults, &self.obs)
    }

    /// Resumes a pass from an explicit machine state — the incremental
    /// form of [`detection_times_stream`](Self::detection_times_stream)
    /// (which is this call from [`MachineState::reset`] without
    /// captures). The stream continues whatever history left `from`
    /// behind; detection times are times since reset, and each requested
    /// `capture` time yields a snapshot to resume from later. See
    /// [`SimBackend::resume_tape_obs`] for the exact contract.
    ///
    /// ```
    /// use bist_expand::TestSequence;
    /// use bist_netlist::benchmarks;
    /// use bist_sim::{collapse, fault_universe, FaultSimulator, MachineState};
    ///
    /// let c = benchmarks::s27();
    /// let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
    /// let sim = FaultSimulator::new(&c);
    /// let prefix: TestSequence = "0111 1001 0111 1001".parse()?;
    /// let burst: TestSequence = "0100 1011 1001 0000 0000 1011".parse()?;
    /// // Walk the prefix once, keeping the state it leaves behind.
    /// let walked = sim.resume(&MachineState::reset(), &prefix, &faults, &[4])?;
    /// let state = walked.states[0].clone().expect("undetected faults walk the whole prefix");
    /// let pending: Vec<_> =
    ///     faults.iter().zip(&walked.times).filter(|(_, t)| t.is_none()).map(|(&f, _)| f).collect();
    /// // Continuing over the burst matches simulating prefix ++ burst.
    /// let resumed = sim.resume(&state, &burst, &pending, &[])?;
    /// let whole = sim.detection_times(&prefix.concat(&burst)?, &pending)?;
    /// assert_eq!(resumed.times, whole);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// Every engine serves it, the scalar reference included, with
    /// bit-identical times and snapshots.
    ///
    /// # Errors
    ///
    /// As for [`SimBackend::resume_tape_obs`].
    pub fn resume(
        &self,
        from: &MachineState,
        source: &dyn VectorSource,
        faults: &[Fault],
        capture: &[usize],
    ) -> Result<Resumed, SimError> {
        self.backend.resume_tape_obs(&self.tape, from, source, faults, capture, &self.obs)
    }

    /// First detection time of a single fault (early exit at detection).
    ///
    /// # Errors
    ///
    /// Width mismatch / empty sequence.
    pub fn first_detection(
        &self,
        seq: &TestSequence,
        fault: Fault,
    ) -> Result<Option<usize>, SimError> {
        Ok(self.detection_times(seq, &[fault])?[0])
    }

    /// Whether `seq` detects `fault` (early exit at detection).
    ///
    /// # Errors
    ///
    /// Width mismatch / empty sequence.
    pub fn detects(&self, seq: &TestSequence, fault: Fault) -> Result<bool, SimError> {
        Ok(self.first_detection(seq, fault)?.is_some())
    }

    /// Whether the vector stream detects `fault` (early exit at
    /// detection), without materializing the stream.
    ///
    /// # Errors
    ///
    /// Width mismatch / empty stream.
    pub fn detects_stream(
        &self,
        source: &dyn VectorSource,
        fault: Fault,
    ) -> Result<bool, SimError> {
        Ok(self.detection_times_stream(source, &[fault])?[0].is_some())
    }

    /// Index of the first candidate stream that detects `fault` — exactly
    /// `candidates.iter().position(|c| detects_stream(c, fault))`, errors
    /// included, but the packed engines test 32 candidates per pass (see
    /// [`SimBackend::first_detecting_tape_obs`]). Procedure 2 asks this
    /// of its growing windows and of its omission candidates.
    ///
    /// ```
    /// use bist_expand::{TestSequence, VectorSource};
    /// use bist_netlist::benchmarks;
    /// use bist_sim::{Fault, FaultSimulator};
    ///
    /// let c = benchmarks::shift_register3();
    /// let sim = FaultSimulator::new(&c);
    /// let q2 = Fault::output(c.find("q2").unwrap(), false);
    /// // q2 s-a-0 needs three 1s shifted in before the output shows it.
    /// let short: TestSequence = "11 11".parse()?;
    /// let long: TestSequence = "11 11 11 11".parse()?;
    /// let candidates: [&dyn VectorSource; 3] = [&short, &long, &long];
    /// assert_eq!(sim.first_detecting(&candidates, q2)?, Some(1));
    /// assert_eq!(sim.first_detecting(&candidates[..1], q2)?, None);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Width mismatch / empty stream of the first invalid candidate the
    /// sequential scan would reach.
    pub fn first_detecting(
        &self,
        candidates: &[&dyn VectorSource],
        fault: Fault,
    ) -> Result<Option<usize>, SimError> {
        self.backend.first_detecting_tape_obs(&self.tape, candidates, fault, &self.obs)
    }
}

/// O(1) guard against a miskeyed tape: the `(nodes, inputs, outputs,
/// DFFs, gates)` fingerprint of the tape must match the circuit's. Two
/// different circuits can in principle still collide on all five counts,
/// but a wrong cache key almost never does — and the alternative, a
/// structural walk, would cost as much as recompiling.
fn check_tape_shape(tape: &GateTape, circuit: &Circuit) -> Result<(), SimError> {
    let tape_shape = (
        tape.num_nodes(),
        tape.num_inputs(),
        tape.num_outputs(),
        tape.num_dffs(),
        tape.num_gates(),
    );
    let circuit_shape = (
        circuit.num_nodes(),
        circuit.num_inputs(),
        circuit.num_outputs(),
        circuit.num_dffs(),
        circuit.num_gates(),
    );
    if tape_shape != circuit_shape {
        return Err(SimError::TapeMismatch { tape_shape, circuit_shape });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collapse, fault_universe};
    use bist_expand::expansion::{Expand, ExpansionConfig};
    use bist_netlist::benchmarks;

    fn seq(s: &str) -> TestSequence {
        s.parse().unwrap()
    }

    /// The paper's Table 2 sequence for s27.
    fn table2_t0() -> TestSequence {
        seq("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011")
    }

    #[test]
    fn table2_sequence_detects_all_32_collapsed_faults() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        assert_eq!(faults.len(), 32);
        let sim = FaultSimulator::new(&c);
        let times = sim.detection_times(&table2_t0(), &faults).unwrap();
        let detected = times.iter().filter(|t| t.is_some()).count();
        // Table 2 shows every one of the 32 faults detected by time 9.
        assert_eq!(detected, 32);
        assert!(times.iter().flatten().all(|&t| t <= 9));
    }

    #[test]
    fn table2_detection_time_histogram_matches_paper() {
        // Table 2 lists how many faults are first detected at each time
        // unit: u=1:9, u=2:4, u=4:1, u=5:11, u=6:2, u=8:3, u=9:2.
        // Our fault numbering differs but the histogram is an invariant of
        // the circuit + sequence (for the same collapsed universe).
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let sim = FaultSimulator::new(&c);
        let times = sim.detection_times(&table2_t0(), &faults).unwrap();
        let mut hist = [0usize; 10];
        for t in times.iter().flatten() {
            hist[*t] += 1;
        }
        assert_eq!(hist, [0, 9, 4, 0, 1, 11, 2, 0, 3, 2]);
    }

    #[test]
    fn shared_tape_is_not_recompiled() {
        let c = benchmarks::s27();
        let sim = FaultSimulator::new(&c);
        let tape = Arc::clone(sim.tape());
        let shared =
            FaultSimulator::with_backend_and_tape(&c, Arc::clone(&tape), Arc::new(ScalarBackend))
                .unwrap();
        assert!(Arc::ptr_eq(shared.tape(), &tape));
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        assert_eq!(
            shared.detection_times(&table2_t0(), &faults).unwrap(),
            sim.detection_times(&table2_t0(), &faults).unwrap()
        );
    }

    #[test]
    fn mismatched_tape_is_a_typed_error() {
        let c = benchmarks::s27();
        let other = benchmarks::shift_register3();
        let alien = Arc::new(GateTape::compile(&other));
        let err = FaultSimulator::with_backend_and_tape(&c, alien, Arc::new(PackedBackend));
        assert!(matches!(err, Err(SimError::TapeMismatch { .. })));
    }

    #[test]
    fn stuck_output_detected_in_shift_register() {
        let c = benchmarks::shift_register3();
        let sim = FaultSimulator::new(&c);
        let q2 = c.find("q2").unwrap();
        // q2 s-a-0: drive 1s through; good q2 becomes 1 at t=3.
        let f = Fault::output(q2, false);
        let t = sim.first_detection(&seq("11 11 11 11 11"), f).unwrap();
        assert_eq!(t, Some(3));
        // q2 s-a-1: good q2 is X until t=3 (all-1 stream), so drive 0s.
        let f1 = Fault::output(q2, true);
        let t1 = sim.first_detection(&seq("01 01 01 01 01"), f1).unwrap();
        assert_eq!(t1, Some(3));
    }

    #[test]
    fn undetectable_without_activation() {
        let c = benchmarks::shift_register3();
        let sim = FaultSimulator::new(&c);
        let q2 = c.find("q2").unwrap();
        // q2 s-a-0 cannot be seen while only 0s are shifted in.
        let f = Fault::output(q2, false);
        assert_eq!(sim.first_detection(&seq("01 01 01 01"), f).unwrap(), None);
    }

    #[test]
    fn x_state_blocks_detection() {
        let c = benchmarks::shift_register3();
        let sim = FaultSimulator::new(&c);
        let q2 = c.find("q2").unwrap();
        let f = Fault::output(q2, false);
        // Only 2 vectors: good q2 still X at both times — no detection.
        assert_eq!(sim.first_detection(&seq("11 11"), f).unwrap(), None);
    }

    #[test]
    fn input_branch_fault_differs_from_stem() {
        let c = benchmarks::s27();
        let universe = fault_universe(&c);
        let sim = FaultSimulator::new(&c);
        // G11 branches to G17, G10 and the DFF G6. The branch fault
        // G17.0 s-a-1 and the stem fault G11 s-a-1 may have different
        // detection times under T0.
        let g17 = c.find("G17").unwrap();
        let g11 = c.find("G11").unwrap();
        let branch = Fault::input(g17, 0, true);
        let stem = Fault::output(g11, true);
        assert!(universe.contains(&branch));
        let tb = sim.first_detection(&table2_t0(), branch).unwrap();
        let ts = sim.first_detection(&table2_t0(), stem).unwrap();
        // The stem fault affects strictly more paths: it must be detected
        // no later than the branch fault here.
        assert!(tb.is_some());
        assert!(ts.is_some());
        assert!(ts.unwrap() <= tb.unwrap());
    }

    #[test]
    fn parallel_matches_serial_on_s27() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let sim = FaultSimulator::new(&c);
        let t0 = table2_t0();
        let parallel = sim.detection_times(&t0, &faults).unwrap();
        for (i, &f) in faults.iter().enumerate() {
            let serial = sim.first_detection(&t0, f).unwrap();
            assert_eq!(serial, parallel[i], "fault {}", f.describe(&c));
        }
    }

    #[test]
    fn sharded_simulator_matches_packed() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let t0 = table2_t0();
        let packed = FaultSimulator::new(&c).detection_times(&t0, &faults).unwrap();
        for threads in [1, 2, 4] {
            let sim = FaultSimulator::sharded(&c, threads).unwrap();
            assert_eq!(sim.detection_times(&t0, &faults).unwrap(), packed, "threads={threads}");
        }
        assert!(FaultSimulator::sharded(&c, 0).is_err());
    }

    #[test]
    fn scalar_backend_matches_packed_backend_times() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let packed = FaultSimulator::new(&c);
        let scalar = FaultSimulator::scalar(&c);
        assert_ne!(packed.backend().name(), scalar.backend().name());
        let t0 = table2_t0();
        assert_eq!(
            packed.detection_times(&t0, &faults).unwrap(),
            scalar.detection_times(&t0, &faults).unwrap()
        );
    }

    #[test]
    fn streamed_expansion_matches_materialized() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let sim = FaultSimulator::new(&c);
        let s = seq("1011 0100 0111");
        let cfg = ExpansionConfig::new(2).unwrap();
        let streamed = sim.detection_times_stream(&cfg.stream(&s), &faults).unwrap();
        let materialized = sim.detection_times(&cfg.expand(&s), &faults).unwrap();
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn more_than_64_faults_chunk_correctly() {
        let c = benchmarks::s27();
        let universe = fault_universe(&c); // 52 faults
                                           // Duplicate the universe to exceed one chunk; duplicated faults
                                           // must get identical times.
        let mut doubled = universe.clone();
        doubled.extend(universe.iter().copied());
        let sim = FaultSimulator::new(&c);
        let times = sim.detection_times(&table2_t0(), &doubled).unwrap();
        for i in 0..universe.len() {
            assert_eq!(times[i], times[i + universe.len()]);
        }
    }

    #[test]
    fn empty_fault_list_is_fine() {
        let c = benchmarks::s27();
        let sim = FaultSimulator::new(&c);
        let times = sim.detection_times(&table2_t0(), &[]).unwrap();
        assert!(times.is_empty());
    }

    #[test]
    fn width_mismatch_propagates() {
        let c = benchmarks::s27();
        let sim = FaultSimulator::new(&c);
        assert!(matches!(
            sim.detection_times(&seq("000"), &[]),
            Err(SimError::WidthMismatch { .. })
        ));
    }
}
