//! The unified `Session` pipeline: one entry point for the whole scheme.
//!
//! A [`Session`] owns everything the paper's flow needs — the circuit, the
//! off-chip test sequence `T0`, the fault universe, the scheme
//! configuration and the simulation backend — and runs
//! circuit → `T0` → fault simulation → Procedure 1/2 → §3.2 compaction →
//! verification in one call. [`SessionBuilder`] is the only configuration
//! surface; no direct imports from `bist_sim` / `bist_expand` internals
//! are needed:
//!
//! ```
//! use subseq_bist::Session;
//!
//! let report = Session::builder().s27().seed(1999).run()?;
//! assert_eq!(report.verified(), Some(true));
//! println!("{}", report.summary());
//! # Ok::<(), subseq_bist::BistError>(())
//! ```
//!
//! The expanded sequences are simulated through the streaming
//! [`ExpansionIter`](bist_expand::ExpansionIter) path: `Sexp` is never
//! materialized during selection, compaction or verification.

use crate::BistError;
use bist_core::{
    monolithic_cost, run_scheme, scheme_cost, verify_full_coverage, MemoryCost, SchemeConfig,
    SchemeResult, SchemeRun,
};
use bist_expand::expansion::ExpansionConfig;
use bist_expand::TestSequence;
use bist_netlist::{benchmarks, Circuit, GateTape};
use bist_obs::Obs;
use bist_sim::{
    collapse, fault_universe, Fault, FaultCoverage, FaultSimulator, ShardedBackend, SimBackend,
};
use bist_tgen::{generate_t0_with_artifacts, GeneratedTest, TgenConfig};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Which fault-simulation engine a session uses.
///
/// Maps onto the [`SimBackend`](bist_sim::SimBackend) implementations of
/// `bist-sim`; the scalar engine exists for differential testing and is
/// dramatically slower on large fault lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The default single-threaded production engine: one faulty machine
    /// per lane plus the fused good machine, in one 64-lane word when the
    /// fault list has at most 63 faults and in 256-lane words otherwise.
    #[default]
    Packed,
    /// One faulty machine at a time (reference engine).
    Scalar,
    /// `Packed`'s pass with the fault list sharded across OS threads; the
    /// word width follows the fault list, as for `Packed`.
    ///
    /// `threads == 0` means "auto": it resolves to
    /// [`ShardedBackend::auto`] at build time, so portable configurations
    /// (batch campaign specs in particular) can say "use all cores"
    /// without probing the host. The raw [`ShardedBackend::new`] boundary
    /// keeps its typed `ZeroThreads` error — only the Session level
    /// interprets 0.
    Sharded {
        /// Number of worker threads (0 = one per available core).
        threads: usize,
    },
}

impl Backend {
    fn engine(self) -> Result<Arc<dyn SimBackend>, BistError> {
        match self {
            Backend::Packed => Ok(Arc::new(bist_sim::PackedBackend)),
            Backend::Scalar => Ok(Arc::new(bist_sim::ScalarBackend)),
            Backend::Sharded { threads: 0 } => Ok(Arc::new(ShardedBackend::auto())),
            Backend::Sharded { threads } => Ok(Arc::new(ShardedBackend::new(threads)?)),
        }
    }
}

/// Pre-built pipeline artifacts injected through
/// [`SessionBuilder::with_artifacts`].
///
/// A batch campaign (or any caller running many sessions over the same
/// circuit) computes these once and shares them via [`Arc`] across every
/// session that touches the circuit: the parsed [`Circuit`], its
/// compiled [`GateTape`], its collapsed fault universe, and a generated
/// `T0` with coverage. All fields are optional; anything absent is
/// computed by the session as usual. The caller is responsible for
/// keying artifacts by circuit identity — the builder only checks cheap
/// invariants (fault sites in range, tape node count, `T0` width).
#[derive(Debug, Clone, Default)]
pub struct SessionArtifacts {
    circuit: Option<Arc<Circuit>>,
    tape: Option<Arc<GateTape>>,
    faults: Option<Arc<Vec<Fault>>>,
    t0: Option<Arc<GeneratedTest>>,
    t0_seconds: Option<f64>,
}

impl SessionArtifacts {
    /// No pre-built artifacts.
    #[must_use]
    pub fn new() -> Self {
        SessionArtifacts::default()
    }

    /// Supplies the parsed circuit (overrides any circuit source set on
    /// the builder).
    #[must_use]
    pub fn circuit(mut self, circuit: Arc<Circuit>) -> Self {
        self.circuit = Some(circuit);
        self
    }

    /// Supplies the compiled gate tape of the session's circuit, so the
    /// session (and everything it fault-simulates — `T0` generation,
    /// Procedure 1/2 sweeps, verification) compiles nothing.
    #[must_use]
    pub fn tape(mut self, tape: Arc<GateTape>) -> Self {
        self.tape = Some(tape);
        self
    }

    /// Supplies the collapsed fault universe (the representatives of
    /// [`collapse`] for the session's circuit, in its order).
    #[must_use]
    pub fn faults(mut self, faults: Arc<Vec<Fault>>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Supplies a generated `T0` with its coverage (as produced by
    /// [`bist_tgen::generate_t0`]), skipping test generation entirely.
    /// Ignored when an explicit [`SessionBuilder::t0`] is also set.
    #[must_use]
    pub fn generated_t0(mut self, t0: Arc<GeneratedTest>) -> Self {
        self.t0 = Some(t0);
        self
    }

    /// Records how long producing the injected `T0` originally took;
    /// reported as the session's
    /// [`t0_seconds`](SessionReport::t0_seconds) so timing context
    /// survives cache injection (otherwise a prebuilt `T0` reports the
    /// near-zero time of cloning it).
    #[must_use]
    pub fn t0_seconds(mut self, seconds: f64) -> Self {
        self.t0_seconds = Some(seconds);
        self
    }
}

/// How the builder's engine was selected: by name (resolved and validated
/// at [`SessionBuilder::build`] time) or supplied directly.
#[derive(Debug, Clone)]
enum EngineSel {
    Named(Backend),
    Custom(Arc<dyn SimBackend>),
}

impl EngineSel {
    fn resolve(&self) -> Result<Arc<dyn SimBackend>, BistError> {
        match self {
            EngineSel::Named(backend) => backend.engine(),
            EngineSel::Custom(engine) => Ok(Arc::clone(engine)),
        }
    }
}

/// Where a session's circuit comes from.
#[derive(Debug, Clone)]
enum CircuitSource {
    /// The paper's worked example (ISCAS-89 `s27`).
    S27,
    /// A circuit supplied directly.
    Owned(Box<Circuit>),
    /// Inline ISCAS-89 `.bench` text.
    Bench { name: String, text: String },
    /// An ISCAS-89 `.bench` file on disk.
    File(PathBuf),
    /// A named entry of the built-in benchmark suite (`s27`, `a298`, ...).
    Suite(String),
}

impl CircuitSource {
    fn build(&self) -> Result<Circuit, BistError> {
        match self {
            CircuitSource::S27 => Ok(benchmarks::s27()),
            CircuitSource::Owned(c) => Ok((**c).clone()),
            CircuitSource::Bench { name, text } => {
                Ok(bist_netlist::parser::parse_bench(name.clone(), text)?)
            }
            CircuitSource::File(path) => {
                // Attach the offending path: a bare io::Error ("No such
                // file or directory") is useless once the builder chain
                // has moved on.
                let text = std::fs::read_to_string(path).map_err(|e| {
                    BistError::Io(std::io::Error::new(
                        e.kind(),
                        format!("reading bench file `{}`: {e}", path.display()),
                    ))
                })?;
                let name =
                    path.file_stem().and_then(|s| s.to_str()).unwrap_or("circuit").to_string();
                Ok(bist_netlist::parser::parse_bench(name, &text)?)
            }
            CircuitSource::Suite(name) => {
                let entries = benchmarks::suite();
                let entry = entries.iter().find(|e| e.name == name).ok_or_else(|| {
                    let known: Vec<&str> = entries.iter().map(|e| e.name).collect();
                    BistError::Config(format!(
                        "unknown suite circuit `{name}`; known: {}",
                        known.join(", ")
                    ))
                })?;
                Ok(entry.build()?)
            }
        }
    }
}

/// Builder for a [`Session`]. Obtained from [`Session::builder`].
///
/// Defaults: the `s27` circuit, a generated `T0` (seed 0), the paper's
/// `n ∈ {2, 4, 8, 16}` sweep with §3.2 postprocessing, the packed
/// backend, and post-run coverage verification.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    source: CircuitSource,
    tgen: TgenConfig,
    scheme: SchemeConfig,
    engine: EngineSel,
    seed: Option<u64>,
    t0: Option<TestSequence>,
    artifacts: SessionArtifacts,
    verify: bool,
    obs: Obs,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            source: CircuitSource::S27,
            tgen: TgenConfig::new(),
            scheme: SchemeConfig::new(),
            engine: EngineSel::Named(Backend::Packed),
            seed: None,
            t0: None,
            artifacts: SessionArtifacts::default(),
            verify: true,
            obs: Obs::noop(),
        }
    }
}

impl SessionBuilder {
    /// Uses the paper's worked example circuit (ISCAS-89 `s27`).
    #[must_use]
    pub fn s27(mut self) -> Self {
        self.source = CircuitSource::S27;
        self
    }

    /// Uses a circuit built elsewhere.
    #[must_use]
    pub fn circuit(mut self, circuit: Circuit) -> Self {
        self.source = CircuitSource::Owned(Box::new(circuit));
        self
    }

    /// Parses an ISCAS-89 `.bench` netlist from text.
    #[must_use]
    pub fn bench(mut self, name: impl Into<String>, text: impl Into<String>) -> Self {
        self.source = CircuitSource::Bench { name: name.into(), text: text.into() };
        self
    }

    /// Reads an ISCAS-89 `.bench` netlist from a file.
    #[must_use]
    pub fn bench_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.source = CircuitSource::File(path.into());
        self
    }

    /// Uses a circuit of the built-in benchmark suite by name
    /// (`"s27"`, `"a298"`, ...).
    #[must_use]
    pub fn suite_circuit(mut self, name: impl Into<String>) -> Self {
        self.source = CircuitSource::Suite(name.into());
        self
    }

    /// Supplies `T0` directly instead of generating it. Its coverage
    /// (detected faults + `udet`) is obtained by fault simulation.
    #[must_use]
    pub fn t0(mut self, t0: TestSequence) -> Self {
        self.t0 = Some(t0);
        self
    }

    /// Seeds both `T0` generation and Procedure 2's omission order.
    ///
    /// Applied at [`build`](Self::build) time, so the call order relative
    /// to [`tgen`](Self::tgen) does not matter.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The repetition counts to sweep (the paper's default is
    /// `[2, 4, 8, 16]`).
    ///
    /// # Panics
    ///
    /// Panics if `ns` is empty or contains 0.
    #[must_use]
    pub fn ns(mut self, ns: impl Into<Vec<usize>>) -> Self {
        self.scheme = self.scheme.ns(ns.into());
        self
    }

    /// Enables/disables the §3.2 static compaction of `S`.
    #[must_use]
    pub fn postprocess(mut self, on: bool) -> Self {
        self.scheme = self.scheme.postprocess(on);
        self
    }

    /// Selects one of the built-in fault-simulation engines, resolved at
    /// [`build`](Self::build) time.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.engine = EngineSel::Named(backend);
        self
    }

    /// Plugs in any [`SimBackend`] implementation — the extension point
    /// for engines beyond the built-in three.
    #[must_use]
    pub fn backend_impl(mut self, engine: Arc<dyn SimBackend>) -> Self {
        self.engine = EngineSel::Custom(engine);
        self
    }

    /// Replaces the `T0`-generation configuration wholesale (burst length,
    /// stall limit, hold probability, length cap, compaction budget).
    #[must_use]
    pub fn tgen(mut self, config: TgenConfig) -> Self {
        self.tgen = config;
        self
    }

    /// Enables/disables the post-run coverage verification (streamed
    /// re-simulation of the best run's expansions; on by default).
    #[must_use]
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Attaches a telemetry sink. Every pipeline stage (parse, collapse,
    /// tape compile, `T0`, the scheme's fault-simulation sweeps,
    /// verification) records a `session.*_us` span into it, and
    /// the sink is threaded through the fault-simulation engines
    /// ([`bist_sim::SimBackend::detection_times_tape_obs`]).
    /// Observation-only: results are bit-identical to an uninstrumented
    /// session, and the default no-op sink records nothing.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Injects pre-built artifacts shared across sessions — the facade's
    /// entry point for the batch campaign's [`Arc`]-shared caches. A
    /// supplied circuit overrides the builder's circuit source; supplied
    /// faults pre-fill the session's collapsed-universe cache; a supplied
    /// generated `T0` skips test generation (unless an explicit
    /// [`t0`](Self::t0) takes precedence).
    #[must_use]
    pub fn with_artifacts(mut self, artifacts: SessionArtifacts) -> Self {
        self.artifacts = artifacts;
        self
    }

    /// Materializes the circuit and fixes the configuration.
    ///
    /// # Errors
    ///
    /// Circuit construction / file / configuration errors.
    pub fn build(self) -> Result<Session, BistError> {
        let circuit = match self.artifacts.circuit {
            Some(shared) => shared,
            None => {
                let _span = self.obs.span("session.parse_us", String::new());
                Arc::new(self.source.build()?)
            }
        };
        let engine = self.engine.resolve()?;
        if let Some(t0) = &self.t0 {
            if t0.is_empty() {
                return Err(BistError::Config("supplied T0 is empty".to_string()));
            }
            if t0.width() != circuit.num_inputs() {
                return Err(BistError::Config(format!(
                    "supplied T0 width {} does not match circuit input count {}",
                    t0.width(),
                    circuit.num_inputs()
                )));
            }
        }
        let tape = OnceLock::new();
        if let Some(shared) = self.artifacts.tape {
            // Same O(1) shape fingerprint the sim layer checks
            // (`SimError::TapeMismatch`), surfaced as a config error at
            // build time instead of deep inside the first run.
            let tape_shape = (
                shared.num_nodes(),
                shared.num_inputs(),
                shared.num_outputs(),
                shared.num_dffs(),
                shared.num_gates(),
            );
            let circuit_shape = (
                circuit.num_nodes(),
                circuit.num_inputs(),
                circuit.num_outputs(),
                circuit.num_dffs(),
                circuit.num_gates(),
            );
            if tape_shape != circuit_shape {
                return Err(BistError::Config(format!(
                    "injected tape does not match circuit `{}`: tape shape {tape_shape:?} vs \
                     circuit shape {circuit_shape:?} (nodes/inputs/outputs/DFFs/gates)",
                    circuit.name(),
                )));
            }
            let _ = tape.set(shared);
        }
        let faults = OnceLock::new();
        if let Some(shared) = self.artifacts.faults {
            if let Some(bad) = shared.iter().find(|f| f.site.node().index() >= circuit.num_nodes())
            {
                return Err(BistError::Config(format!(
                    "injected fault universe does not match circuit `{}`: site index {} out of \
                     range",
                    circuit.name(),
                    bad.site.node().index()
                )));
            }
            let _ = faults.set(shared);
        }
        let prebuilt = match self.artifacts.t0 {
            Some(gen) => {
                if gen.sequence.is_empty() {
                    return Err(BistError::Config("injected generated T0 is empty".to_string()));
                }
                if gen.sequence.width() != circuit.num_inputs() {
                    return Err(BistError::Config(format!(
                        "injected generated T0 width {} does not match circuit input count {}",
                        gen.sequence.width(),
                        circuit.num_inputs()
                    )));
                }
                Some(gen)
            }
            None => None,
        };
        let (mut tgen, mut scheme) = (self.tgen, self.scheme);
        if let Some(seed) = self.seed {
            tgen = tgen.seed(seed);
            scheme = scheme.seed(seed);
        }
        Ok(Session {
            circuit,
            t0: self.t0,
            prebuilt,
            prebuilt_seconds: self.artifacts.t0_seconds,
            tape,
            faults,
            tgen,
            scheme,
            engine,
            verify: self.verify,
            obs: self.obs,
        })
    }

    /// [`build`](Self::build) + [`Session::run`] in one call.
    ///
    /// # Errors
    ///
    /// As for [`build`](Self::build) and [`Session::run`].
    pub fn run(self) -> Result<SessionReport, BistError> {
        self.build()?.run()
    }
}

/// A fully configured pipeline over one circuit.
///
/// Create with [`Session::builder`]; [`run`](Session::run) executes the
/// complete flow and can be called repeatedly (it is deterministic for a
/// fixed configuration).
#[derive(Debug, Clone)]
pub struct Session {
    circuit: Arc<Circuit>,
    t0: Option<TestSequence>,
    /// Injected generated `T0` (sequence + coverage), if any.
    prebuilt: Option<Arc<GeneratedTest>>,
    /// Original generation time of the injected `T0`, if recorded.
    prebuilt_seconds: Option<f64>,
    /// Compiled gate tape, compiled on first [`run`](Session::run) (or
    /// injected at build time) — the tape every simulation executes.
    tape: OnceLock<Arc<GateTape>>,
    /// Collapsed fault universe, computed on first [`run`](Session::run)
    /// (or injected at build time) and shared by every later run.
    faults: OnceLock<Arc<Vec<Fault>>>,
    tgen: TgenConfig,
    scheme: SchemeConfig,
    engine: Arc<dyn SimBackend>,
    verify: bool,
    /// Telemetry sink every stage and engine pass records into
    /// ([`SessionBuilder::obs`]; no-op by default).
    obs: Obs,
}

impl Session {
    /// Starts configuring a session.
    #[must_use]
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The circuit under test.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The compiled gate tape of the circuit — compiled on first access
    /// (or injected via [`SessionBuilder::with_artifacts`]) and cached
    /// for the session's lifetime; every simulation the session performs
    /// (T0 generation, selection sweeps, verification, repeated
    /// [`run`](Session::run) calls) executes this one tape.
    #[must_use]
    pub fn tape(&self) -> &Arc<GateTape> {
        self.tape.get_or_init(|| {
            let _span = self.obs.span("session.tape_compile_us", self.circuit.name().to_string());
            let tape = Arc::new(GateTape::compile(&self.circuit));
            #[cfg(debug_assertions)]
            bist_verify::audit_tape(&self.circuit, &tape);
            tape
        })
    }

    /// The collapsed fault universe of the circuit — computed on first
    /// access (or injected via [`SessionBuilder::with_artifacts`]) and
    /// cached for the session's lifetime; repeated [`run`](Session::run)
    /// calls never re-collapse.
    #[must_use]
    pub fn collapsed_faults(&self) -> &[Fault] {
        self.faults
            .get_or_init(|| {
                let _span = self.obs.span("session.collapse_us", self.circuit.name().to_string());
                Arc::new(
                    collapse(&self.circuit, &fault_universe(&self.circuit))
                        .representatives()
                        .to_vec(),
                )
            })
            .as_slice()
    }

    /// Runs the full pipeline: collapse the fault universe (once per
    /// session), obtain `T0` and its coverage, sweep the scheme over the
    /// configured `n` values, and (unless disabled) verify the best run's
    /// joint coverage through the streaming expansion path.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors (these indicate impossible
    /// configurations and do not occur for valid circuits).
    pub fn run(&self) -> Result<SessionReport, BistError> {
        let mut stages = StageSeconds::default();

        // The two lazy artifacts record their compile time into the run
        // that first forces them; cached runs observe ~0 here.
        let stage = Instant::now();
        let faults = self.collapsed_faults();
        stages.collapse = stage.elapsed().as_secs_f64();
        let stage = Instant::now();
        let tape = Arc::clone(self.tape());
        stages.tape_compile = stage.elapsed().as_secs_f64();
        let sim_built = Instant::now();
        let sim = FaultSimulator::with_backend_and_tape(
            &self.circuit,
            Arc::clone(&tape),
            Arc::clone(&self.engine),
        )?
        .with_obs(self.obs.clone());
        let sim_seconds = sim_built.elapsed().as_secs_f64();

        let span = self.obs.span("session.t0_us", self.circuit.name().to_string());
        let started = Instant::now();
        let mut injected = false;
        let (t0, coverage) = match (&self.t0, &self.prebuilt) {
            (Some(seq), _) => (seq.clone(), FaultCoverage::simulate(&sim, seq, faults.to_vec())?),
            (None, Some(gen)) => {
                injected = true;
                (gen.sequence.clone(), gen.coverage.clone())
            }
            (None, None) => {
                let generated =
                    generate_t0_with_artifacts(&self.circuit, &self.tgen, faults.to_vec(), tape)?;
                (generated.sequence, generated.coverage)
            }
        };
        stages.t0 = started.elapsed().as_secs_f64();
        drop(span);
        // An injected T0 reports the producer's recorded generation time
        // (cloning an Arc'd artifact would otherwise report ~0).
        let t0_seconds = match (injected, self.prebuilt_seconds) {
            (true, Some(seconds)) => seconds,
            _ => stages.t0,
        };

        let span = self.obs.span("session.fault_sim_us", self.circuit.name().to_string());
        let stage = Instant::now();
        let scheme = run_scheme(&sim, &t0, &coverage, &self.scheme)?;
        // Simulator construction is fault-simulation set-up.
        stages.fault_sim = sim_seconds + stage.elapsed().as_secs_f64();
        drop(span);

        let span = self.obs.span("session.verify_us", self.circuit.name().to_string());
        let stage = Instant::now();
        let verified = if self.verify {
            let best = scheme.best_run();
            let detected: Vec<Fault> = coverage.detected().map(|(f, _)| f).collect();
            Some(verify_full_coverage(
                &sim,
                &best.sequences,
                &ExpansionConfig::new(best.n)?,
                &detected,
            )?)
        } else {
            None
        };
        stages.verify = stage.elapsed().as_secs_f64();
        drop(span);

        Ok(SessionReport {
            circuit: (*self.circuit).clone(),
            backend: sim.backend().name(),
            faults_total: faults.len(),
            t0,
            coverage,
            scheme,
            verified,
            t0_seconds,
            stages,
        })
    }

    /// The telemetry sink this session records into (no-op unless set via
    /// [`SessionBuilder::obs`]).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }
}

/// Wall-clock seconds spent in each pipeline stage of one
/// [`Session::run`], independent of any telemetry sink (always recorded).
///
/// The lazy artifacts (fault collapse, tape compile) charge their cost to
/// the run that first forces them; cached later runs observe ~0 for those
/// stages.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSeconds {
    /// Fault-universe collapse (~0 when injected or cached).
    pub collapse: f64,
    /// Tape compile (~0 when injected or cached).
    pub tape_compile: f64,
    /// Obtaining `T0` and its coverage (generation or re-simulation).
    pub t0: f64,
    /// Simulator construction plus the scheme sweep — Procedure 1/2 +
    /// compaction over every `n`.
    pub fault_sim: f64,
    /// Post-run coverage verification (0 when disabled).
    pub verify: f64,
}

impl StageSeconds {
    /// Sum over all stages — the pipeline time this run accounts for.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.collapse + self.tape_compile + self.t0 + self.fault_sim + self.verify
    }
}

/// A [`SessionReport`] decomposed into owned pieces — for consumers that
/// keep the data (pipelines, caches) without re-cloning what the report
/// already owns. See [`SessionReport::into_parts`].
#[derive(Debug, Clone)]
pub struct SessionParts {
    /// The circuit under test.
    pub circuit: Circuit,
    /// Name of the fault-simulation engine used.
    pub backend: &'static str,
    /// Size of the collapsed fault universe.
    pub faults_total: usize,
    /// The off-chip test sequence the scheme started from.
    pub t0: TestSequence,
    /// Coverage of `T0` (detected set + `udet` times).
    pub coverage: FaultCoverage,
    /// The full sweep result.
    pub scheme: SchemeResult,
    /// Outcome of the post-run verification (`None` if disabled).
    pub verified: Option<bool>,
    /// Wall-clock seconds spent obtaining `T0` and its coverage.
    pub t0_seconds: f64,
    /// Per-stage wall-clock breakdown of the run.
    pub stages: StageSeconds,
}

/// Everything one pipeline run produced.
#[derive(Debug, Clone)]
pub struct SessionReport {
    circuit: Circuit,
    backend: &'static str,
    faults_total: usize,
    t0: TestSequence,
    coverage: FaultCoverage,
    scheme: SchemeResult,
    verified: Option<bool>,
    t0_seconds: f64,
    stages: StageSeconds,
}

impl SessionReport {
    /// The circuit under test.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Name of the fault-simulation engine used.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.backend
    }

    /// Size of the collapsed fault universe.
    #[must_use]
    pub fn faults_total(&self) -> usize {
        self.faults_total
    }

    /// The off-chip test sequence the scheme started from.
    #[must_use]
    pub fn t0(&self) -> &TestSequence {
        &self.t0
    }

    /// Coverage of `T0` (detected set + `udet` times).
    #[must_use]
    pub fn coverage(&self) -> &FaultCoverage {
        &self.coverage
    }

    /// Wall-clock seconds spent obtaining `T0` and its coverage.
    #[must_use]
    pub fn t0_seconds(&self) -> f64 {
        self.t0_seconds
    }

    /// Per-stage wall-clock breakdown of the run (always recorded, with
    /// or without a telemetry sink).
    #[must_use]
    pub fn stages(&self) -> &StageSeconds {
        &self.stages
    }

    /// The full sweep result (one run per `n`).
    #[must_use]
    pub fn scheme(&self) -> &SchemeResult {
        &self.scheme
    }

    /// The best run: smallest max len, then total len, then the smaller
    /// `n` (see [`SchemeResult::best`]).
    #[must_use]
    pub fn best(&self) -> &SchemeRun {
        self.scheme.best_run()
    }

    /// Whether the best run's expansions were re-verified to cover every
    /// fault `T0` detects (`None` if verification was disabled).
    #[must_use]
    pub fn verified(&self) -> Option<bool> {
        self.verified
    }

    /// Loaded vectors as a fraction of `|T0|` — the paper's headline
    /// *tot len / |T0|* ratio (Table 5 averages 0.46).
    #[must_use]
    pub fn loaded_fraction(&self) -> f64 {
        self.best().after.total_len as f64 / self.t0.len().max(1) as f64
    }

    /// On-chip memory cost of the best run vs. storing all of `T0`.
    #[must_use]
    pub fn memory_costs(&self) -> (MemoryCost, MemoryCost) {
        let width = self.circuit.num_inputs();
        let best = self.best();
        (
            scheme_cost(best.after.max_len.max(1), width, best.n),
            monolithic_cost(self.t0.len().max(1), width),
        )
    }

    /// Decomposes the report into its owned pieces (no cloning).
    #[must_use]
    pub fn into_parts(self) -> SessionParts {
        SessionParts {
            circuit: self.circuit,
            backend: self.backend,
            faults_total: self.faults_total,
            t0: self.t0,
            coverage: self.coverage,
            scheme: self.scheme,
            verified: self.verified,
            t0_seconds: self.t0_seconds,
            stages: self.stages,
        }
    }

    /// A compact human-readable summary of the run.
    #[must_use]
    pub fn summary(&self) -> String {
        let best = self.best();
        let verified = match self.verified {
            Some(true) => "verified",
            Some(false) => "FAILED VERIFICATION",
            None => "not verified",
        };
        format!(
            "{}: T0 = {} vectors covering {}/{} faults; best n = {}: |S| = {}, \
             tot len = {} ({:.0}% of T0), max len = {}, applied at speed = {} \
             [{} backend, coverage {}]",
            self.circuit.name(),
            self.t0.len(),
            self.coverage.detected_count(),
            self.faults_total,
            best.n,
            best.after.count,
            best.after.total_len,
            100.0 * self.loaded_fraction(),
            best.after.max_len,
            best.applied_test_len(),
            self.backend,
            verified,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_session_runs_s27() {
        let report = Session::builder().seed(1999).ns(vec![1, 2]).run().unwrap();
        assert_eq!(report.circuit().name(), "s27");
        assert_eq!(report.faults_total(), 32);
        assert_eq!(report.coverage().detected_count(), 32);
        assert_eq!(report.verified(), Some(true));
        assert!(report.loaded_fraction() <= 1.0);
        assert!(report.summary().contains("s27"));
    }

    #[test]
    fn supplied_t0_is_used_verbatim() {
        let t0: TestSequence = "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse().unwrap();
        let report = Session::builder().s27().t0(t0.clone()).ns(vec![1]).run().unwrap();
        assert_eq!(report.t0(), &t0);
        assert_eq!(report.coverage().detected_count(), 32);
    }

    #[test]
    fn t0_width_mismatch_is_a_config_error() {
        let t0: TestSequence = "000 111".parse().unwrap();
        let err = Session::builder().s27().t0(t0).build().unwrap_err();
        assert!(matches!(err, BistError::Config(_)), "{err}");
    }

    #[test]
    fn unknown_suite_circuit_is_a_config_error() {
        let err = Session::builder().suite_circuit("nope").build().unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn scalar_backend_matches_packed_results() {
        let t0: TestSequence = "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse().unwrap();
        let run = |backend| {
            Session::builder().s27().t0(t0.clone()).ns(vec![1]).backend(backend).run().unwrap()
        };
        let packed = run(Backend::Packed);
        let scalar = run(Backend::Scalar);
        assert_eq!(packed.backend_name(), "packed64");
        assert_eq!(scalar.backend_name(), "scalar");
        // Identical detection times drive identical selections.
        assert_eq!(packed.coverage().times(), scalar.coverage().times());
        assert_eq!(packed.best().after.total_len, scalar.best().after.total_len);
    }

    #[test]
    fn sharded_backend_matches_packed_results() {
        let t0: TestSequence = "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse().unwrap();
        let run = |backend| {
            Session::builder().s27().t0(t0.clone()).ns(vec![1]).backend(backend).run().unwrap()
        };
        let packed = run(Backend::Packed);
        for threads in [1, 2, 4] {
            let sharded = run(Backend::Sharded { threads });
            assert_eq!(sharded.backend_name(), "sharded");
            assert_eq!(packed.coverage().times(), sharded.coverage().times());
            assert_eq!(packed.best().after.total_len, sharded.best().after.total_len);
            assert_eq!(sharded.verified(), Some(true));
        }
    }

    #[test]
    fn sharded_zero_threads_means_auto_at_the_session_level() {
        // `threads: 0` resolves to available_parallelism at build time;
        // the raw backend boundary keeps its typed ZeroThreads error.
        let report = Session::builder()
            .s27()
            .seed(5)
            .ns(vec![1])
            .backend(Backend::Sharded { threads: 0 })
            .run()
            .unwrap();
        assert_eq!(report.backend_name(), "sharded");
        assert_eq!(report.verified(), Some(true));
        assert_eq!(ShardedBackend::new(0), Err(bist_sim::SimError::ZeroThreads));
    }

    #[test]
    fn tape_is_compiled_once_and_cached_across_runs() {
        let session = Session::builder().s27().seed(7).ns(vec![1]).build().unwrap();
        let before = Arc::as_ptr(session.tape());
        session.run().unwrap();
        session.run().unwrap();
        assert_eq!(before, Arc::as_ptr(session.tape()), "tape was recompiled");
    }

    #[test]
    fn injected_tape_is_served_back_and_validated() {
        let circuit = Arc::new(benchmarks::s27());
        let tape = Arc::new(GateTape::compile(&circuit));
        let session = Session::builder()
            .with_artifacts(
                SessionArtifacts::new().circuit(Arc::clone(&circuit)).tape(Arc::clone(&tape)),
            )
            .seed(3)
            .ns(vec![1])
            .build()
            .unwrap();
        assert!(Arc::ptr_eq(session.tape(), &tape));
        let report = session.run().unwrap();
        assert_eq!(report.coverage().detected_count(), 32);
        // A tape compiled from another circuit is rejected at build time.
        let alien = Arc::new(GateTape::compile(&benchmarks::suite()[1].build().unwrap()));
        let err = Session::builder()
            .with_artifacts(SessionArtifacts::new().circuit(circuit).tape(alien))
            .build()
            .unwrap_err();
        assert!(matches!(err, BistError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("tape"), "{err}");
    }

    #[test]
    fn collapsed_fault_universe_is_cached_across_runs() {
        let session = Session::builder().s27().seed(7).ns(vec![1]).build().unwrap();
        let before = session.collapsed_faults().as_ptr();
        session.run().unwrap();
        session.run().unwrap();
        let after = session.collapsed_faults().as_ptr();
        assert!(std::ptr::eq(before, after), "fault universe was recomputed");
    }

    #[test]
    fn injected_artifacts_produce_identical_reports() {
        use bist_tgen::generate_t0;

        let circuit = Arc::new(benchmarks::s27());
        let faults =
            Arc::new(collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec());
        let t0 = Arc::new(generate_t0(&circuit, &TgenConfig::new().seed(1999)).unwrap());
        let injected = Session::builder()
            .with_artifacts(
                SessionArtifacts::new()
                    .circuit(Arc::clone(&circuit))
                    .faults(Arc::clone(&faults))
                    .generated_t0(Arc::clone(&t0))
                    .t0_seconds(1.5),
            )
            .seed(1999)
            .ns(vec![1, 2])
            .build()
            .unwrap();
        // The injected universe is served back without re-collapsing.
        assert!(std::ptr::eq(injected.collapsed_faults().as_ptr(), faults.as_ptr()));
        let a = injected.run().unwrap();
        let b = Session::builder().s27().seed(1999).ns(vec![1, 2]).run().unwrap();
        assert_eq!(a.t0(), b.t0());
        assert_eq!(a.coverage(), b.coverage());
        assert_eq!(a.best().after.total_len, b.best().after.total_len);
        assert_eq!(a.verified(), b.verified());
        // The producer's recorded generation time survives injection.
        assert_eq!(a.t0_seconds(), 1.5);
    }

    #[test]
    fn mismatched_injected_artifacts_are_config_errors() {
        let circuit = Arc::new(benchmarks::s27());
        // Fault universe from a bigger circuit: site indices out of range.
        let big = benchmarks::suite()[1].build().unwrap();
        let alien = Arc::new(collapse(&big, &fault_universe(&big)).representatives().to_vec());
        let err = Session::builder()
            .with_artifacts(SessionArtifacts::new().circuit(circuit).faults(alien))
            .build()
            .unwrap_err();
        assert!(matches!(err, BistError::Config(_)), "{err:?}");
        // Generated T0 of the wrong width.
        let wide = benchmarks::suite()[1].build().unwrap();
        let t0 = Arc::new(
            bist_tgen::generate_t0(&wide, &TgenConfig::new().seed(1).max_length(8)).unwrap(),
        );
        let err = Session::builder()
            .s27()
            .with_artifacts(SessionArtifacts::new().generated_t0(t0))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("width"), "{err}");
    }

    #[test]
    fn bench_file_error_names_the_path() {
        let err = Session::builder().bench_file("/no/such/dir/missing.bench").build().unwrap_err();
        assert!(matches!(err, BistError::Io(_)), "{err:?}");
        assert!(err.to_string().contains("missing.bench"), "{err}");
    }

    #[test]
    fn empty_t0_is_a_config_error() {
        let empty = TestSequence::new(4);
        let err = Session::builder().s27().t0(empty).build().unwrap_err();
        assert!(matches!(err, BistError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn custom_backend_impl_plugs_in() {
        let t0: TestSequence = "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse().unwrap();
        let report = Session::builder()
            .s27()
            .t0(t0)
            .ns(vec![1])
            .backend_impl(Arc::new(bist_sim::ScalarBackend))
            .run()
            .unwrap();
        assert_eq!(report.backend_name(), "scalar");
        assert_eq!(report.verified(), Some(true));
    }

    #[test]
    fn into_parts_decomposes_without_loss() {
        let report = Session::builder().s27().seed(2).ns(vec![1]).run().unwrap();
        let total = report.best().after.total_len;
        let parts = report.into_parts();
        assert_eq!(parts.circuit.name(), "s27");
        assert_eq!(parts.scheme.best_run().after.total_len, total);
        assert_eq!(parts.coverage.detected_count(), 32);
        assert_eq!(parts.verified, Some(true));
    }

    #[test]
    fn session_is_reusable_and_deterministic() {
        let session = Session::builder().s27().seed(7).ns(vec![2]).build().unwrap();
        let a = session.run().unwrap();
        let b = session.run().unwrap();
        assert_eq!(a.t0(), b.t0());
        assert_eq!(a.best().after.total_len, b.best().after.total_len);
    }

    #[test]
    fn bench_text_source() {
        let report = Session::builder()
            .bench("s27", bist_netlist::benchmarks::S27_BENCH)
            .seed(3)
            .ns(vec![1])
            .run()
            .unwrap();
        assert_eq!(report.circuit().num_inputs(), 4);
    }

    #[test]
    fn instrumented_session_records_stage_spans_and_engine_counters() {
        let registry = Arc::new(bist_obs::Registry::new());
        registry.enable_tracing();
        let report = Session::builder()
            .s27()
            .seed(1999)
            .ns(vec![1, 2])
            .obs(Obs::with_registry(Arc::clone(&registry)))
            .run()
            .unwrap();
        let snap = registry.snapshot();
        // Every stage span landed in its histogram exactly once.
        for name in ["session.t0_us", "session.fault_sim_us", "session.verify_us"] {
            let h = snap.histogram(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(h.count, 1, "{name}");
        }
        // Lazy artifacts were forced exactly once by this run.
        assert_eq!(snap.histogram("session.collapse_us").unwrap().count, 1);
        assert_eq!(snap.histogram("session.tape_compile_us").unwrap().count, 1);
        // The scheme sweep recorded one Procedure-1 span per n.
        assert_eq!(snap.histogram("core.procedure1_us").unwrap().count, 2);
        // Procedure 2's probe counters add up to its statistics, with at
        // least one probe per candidate-parallel pass.
        let probes: usize = report
            .scheme()
            .runs
            .iter()
            .map(|r| r.selection.stats.grow_simulations + r.selection.stats.omit_simulations)
            .sum();
        assert_eq!(snap.counter("core.p2_probes"), Some(probes as u64));
        let passes = snap.counter("core.p2_passes").unwrap();
        assert!(0 < passes && passes <= probes as u64, "{passes} passes, {probes} probes");
        // The engines saw real work through the threaded sink.
        assert!(snap.counter("sim.vectors").unwrap() > 0);
        let chunks = snap.counter("sim.chunks").unwrap();
        assert!(chunks > 0);
        // Chunks force their gate sites' runs, at most every run each.
        let runs = GateTape::compile(&benchmarks::s27()).runs().len();
        let forced_runs = snap.counter("sim.forced_runs").unwrap();
        assert!(0 < forced_runs && forced_runs <= chunks * runs as u64, "{forced_runs} runs");
        // Tracing captured the same spans as events.
        let events = registry.trace_events();
        assert!(events.iter().any(|e| e.span == "session.fault_sim_us" && e.labels == "s27"));
        // Stage wall-clock breakdown is recorded regardless of the sink.
        let stages = report.stages();
        assert!(stages.fault_sim > 0.0);
        assert!(stages.total() >= stages.fault_sim);
    }

    #[test]
    fn instrumented_session_is_bit_identical_to_uninstrumented() {
        let base = Session::builder().s27().seed(7).ns(vec![1, 2]).run().unwrap();
        let registry = Arc::new(bist_obs::Registry::new());
        let instrumented = Session::builder()
            .s27()
            .seed(7)
            .ns(vec![1, 2])
            .obs(Obs::with_registry(registry))
            .run()
            .unwrap();
        assert_eq!(instrumented.t0(), base.t0());
        assert_eq!(instrumented.coverage(), base.coverage());
        assert_eq!(instrumented.best().after.total_len, base.best().after.total_len);
        assert_eq!(instrumented.verified(), base.verified());
    }

    #[test]
    fn memory_costs_favor_the_scheme() {
        let report = Session::builder().s27().seed(1999).ns(vec![2]).run().unwrap();
        let (ours, mono) = report.memory_costs();
        assert!(ours.data_bits <= mono.data_bits);
    }
}
