//! Declarative campaign specifications and their expansion into a job
//! matrix.
//!
//! A [`Campaign`] names the axes of a batch experiment — circuits ×
//! backends × scheme configurations × seeds — plus the shared `T0`
//! generator configuration and verification switch. [`Campaign::expand`]
//! turns it into the flat, deterministic list of [`JobSpec`]s the
//! [`CampaignEngine`](crate::CampaignEngine) executes.

use crate::BatchError;
use std::path::PathBuf;
use subseq_bist::netlist::{self as bist_netlist, benchmarks};
use subseq_bist::tgen::TgenConfig;
use subseq_bist::{Backend, BistError, Session};

/// Where a campaign circuit comes from.
///
/// Unlike a [`Session`](subseq_bist::Session) circuit source, a spec is
/// also the circuit's *cache identity*: two jobs whose specs share a
/// [`key`](CircuitSpec::key) share one parsed netlist, one collapsed
/// fault universe and (per seed) one generated `T0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CircuitSpec {
    /// A named entry of the built-in benchmark suite (`s27`, `a298`, ...).
    Suite(String),
    /// An ISCAS-89 `.bench` file on disk.
    File(PathBuf),
}

impl CircuitSpec {
    /// The cache key: suite name, or the file path verbatim.
    #[must_use]
    pub fn key(&self) -> String {
        match self {
            CircuitSpec::Suite(name) => name.clone(),
            CircuitSpec::File(path) => path.display().to_string(),
        }
    }

    /// A short human label (suite name or file stem).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            CircuitSpec::Suite(name) => name.clone(),
            CircuitSpec::File(path) => {
                path.file_stem().and_then(|s| s.to_str()).unwrap_or("circuit").to_string()
            }
        }
    }

    /// Materializes the circuit (the cache's miss path). Delegates to
    /// the [`Session`] facade so suite lookup, file reading and their
    /// error messages have exactly one implementation.
    pub(crate) fn build(&self) -> Result<bist_netlist::Circuit, BistError> {
        let builder = match self {
            CircuitSpec::Suite(name) => Session::builder().suite_circuit(name.clone()),
            CircuitSpec::File(path) => Session::builder().bench_file(path.clone()),
        };
        Ok(builder.build()?.circuit().clone())
    }
}

/// One scheme configuration axis entry: a labelled `n` sweep with its
/// postprocessing switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeSpec {
    /// Label used in reports and JSONL rows.
    pub label: String,
    /// Repetition counts to sweep (all ≥ 1, non-empty).
    pub ns: Vec<usize>,
    /// Whether the §3.2 static compaction of `S` runs.
    pub postprocess: bool,
}

impl SchemeSpec {
    /// A labelled spec with the paper's default sweep and postprocessing.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        SchemeSpec { label: label.into(), ns: vec![2, 4, 8, 16], postprocess: true }
    }

    /// Replaces the `n` sweep.
    #[must_use]
    pub fn ns(mut self, ns: impl Into<Vec<usize>>) -> Self {
        self.ns = ns.into();
        self
    }

    /// Enables/disables the §3.2 static compaction.
    #[must_use]
    pub fn postprocess(mut self, on: bool) -> Self {
        self.postprocess = on;
        self
    }
}

impl Default for SchemeSpec {
    fn default() -> Self {
        SchemeSpec::new("default")
    }
}

/// A declarative batch experiment: circuits × backends × schemes × seeds.
///
/// Built incrementally; [`expand`](Campaign::expand) validates the spec
/// and produces the job matrix. Defaults: no circuits (must be added),
/// the packed backend, one default [`SchemeSpec`], seed 1999, default
/// `T0` generation, verification on.
///
/// # Example
///
/// ```
/// use bist_batch::Campaign;
/// use subseq_bist::Backend;
///
/// let jobs = Campaign::new()
///     .suite_circuits(["s27", "a298"])
///     .backends([Backend::Packed, Backend::Scalar])
///     .seeds([1, 2])
///     .expand()?;
/// assert_eq!(jobs.len(), 2 * 2 * 2);
/// # Ok::<(), bist_batch::BatchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    circuits: Vec<CircuitSpec>,
    backends: Vec<Backend>,
    schemes: Vec<SchemeSpec>,
    seeds: Vec<u64>,
    tgen: TgenConfig,
    verify: bool,
}

impl Campaign {
    /// An empty campaign with the defaults above.
    #[must_use]
    pub fn new() -> Self {
        Campaign {
            circuits: Vec::new(),
            backends: vec![Backend::Packed],
            schemes: vec![SchemeSpec::default()],
            seeds: vec![1999],
            tgen: TgenConfig::new(),
            verify: true,
        }
    }

    /// Adds built-in suite circuits by name.
    #[must_use]
    pub fn suite_circuits<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.circuits.extend(names.into_iter().map(|n| CircuitSpec::Suite(n.into())));
        self
    }

    /// Adds every built-in suite circuit with at most `max_gates` gates.
    #[must_use]
    pub fn suite_up_to(mut self, max_gates: usize) -> Self {
        self.circuits.extend(
            benchmarks::suite_up_to(max_gates)
                .iter()
                .map(|e| CircuitSpec::Suite(e.name.to_string())),
        );
        self
    }

    /// Adds an ISCAS-89 `.bench` file.
    #[must_use]
    pub fn circuit_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.circuits.push(CircuitSpec::File(path.into()));
        self
    }

    /// Replaces the backend axis.
    #[must_use]
    pub fn backends(mut self, backends: impl Into<Vec<Backend>>) -> Self {
        self.backends = backends.into();
        self
    }

    /// Replaces the scheme axis.
    #[must_use]
    pub fn schemes(mut self, schemes: impl Into<Vec<SchemeSpec>>) -> Self {
        self.schemes = schemes.into();
        self
    }

    /// Shortcut: one default scheme spec with the given `n` sweep.
    #[must_use]
    pub fn ns(mut self, ns: impl Into<Vec<usize>>) -> Self {
        self.schemes = vec![SchemeSpec::default().ns(ns)];
        self
    }

    /// Replaces the seed axis.
    #[must_use]
    pub fn seeds(mut self, seeds: impl Into<Vec<u64>>) -> Self {
        self.seeds = seeds.into();
        self
    }

    /// The shared `T0`-generation configuration (its seed field is
    /// overridden per job by the seed axis).
    #[must_use]
    pub fn tgen(mut self, tgen: TgenConfig) -> Self {
        self.tgen = tgen;
        self
    }

    /// Enables/disables post-run coverage verification for every job.
    #[must_use]
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// The circuit axis.
    #[must_use]
    pub fn circuits(&self) -> &[CircuitSpec] {
        &self.circuits
    }

    /// The scheme axis.
    #[must_use]
    pub fn scheme_specs(&self) -> &[SchemeSpec] {
        &self.schemes
    }

    /// The shared `T0`-generation configuration.
    #[must_use]
    pub fn tgen_config(&self) -> &TgenConfig {
        &self.tgen
    }

    /// Whether jobs verify coverage post-run.
    #[must_use]
    pub fn verifies(&self) -> bool {
        self.verify
    }

    /// A stable hex fingerprint of everything that shapes the campaign's
    /// results: every axis (circuits, backends, schemes, seeds), the
    /// `T0`-generation configuration and the verification switch. Stamped onto every JSONL journal row
    /// (via [`JsonlSink::with_fingerprint`](crate::JsonlSink::with_fingerprint))
    /// so `--resume` can refuse a journal written by a different
    /// configuration instead of silently merging incompatible results.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |text: &str| {
            for b in text.bytes().chain(std::iter::once(0x1f)) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for circuit in &self.circuits {
            eat(&circuit.key());
        }
        for &backend in &self.backends {
            eat(&backend_label(backend));
        }
        for scheme in &self.schemes {
            eat(&scheme.label);
            eat(&format!("{:?}", scheme.ns));
            eat(&format!("{}", scheme.postprocess));
        }
        for &seed in &self.seeds {
            eat(&seed.to_string());
        }
        // TgenConfig is a plain config struct; its Debug form spells out
        // every field, which is exactly the identity we need.
        eat(&format!("{:?}", self.tgen));
        eat(&format!("{}", self.verify));
        format!("{h:016x}")
    }

    /// Expands the campaign into its deterministic job matrix, ordered
    /// circuit-major (so all jobs touching one circuit are adjacent and
    /// the artifact cache warms in one stride).
    ///
    /// # Errors
    ///
    /// [`BatchError::Config`] if any axis is empty or a scheme sweep
    /// contains `n = 0`.
    pub fn expand(&self) -> Result<Vec<JobSpec>, BatchError> {
        if self.circuits.is_empty() {
            return Err(BatchError::Config("campaign has no circuits".to_string()));
        }
        if self.backends.is_empty() {
            return Err(BatchError::Config("campaign has no backends".to_string()));
        }
        if self.schemes.is_empty() {
            return Err(BatchError::Config("campaign has no scheme specs".to_string()));
        }
        if self.seeds.is_empty() {
            return Err(BatchError::Config("campaign has no seeds".to_string()));
        }
        for scheme in &self.schemes {
            if scheme.ns.is_empty() || scheme.ns.contains(&0) {
                return Err(BatchError::Config(format!(
                    "scheme `{}` has an empty n sweep or n = 0",
                    scheme.label
                )));
            }
        }
        let mut jobs = Vec::with_capacity(
            self.circuits.len() * self.backends.len() * self.schemes.len() * self.seeds.len(),
        );
        for circuit in &self.circuits {
            for &seed in &self.seeds {
                for scheme in &self.schemes {
                    for &backend in &self.backends {
                        jobs.push(JobSpec {
                            id: jobs.len(),
                            circuit: circuit.clone(),
                            backend,
                            scheme: scheme.clone(),
                            seed,
                        });
                    }
                }
            }
        }
        Ok(jobs)
    }
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign::new()
    }
}

/// One fully specified unit of work: a point of the campaign matrix.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Position in the expanded matrix (stable across runs).
    pub id: usize,
    /// The circuit to run on.
    pub circuit: CircuitSpec,
    /// The fault-simulation engine.
    pub backend: Backend,
    /// The scheme configuration.
    pub scheme: SchemeSpec,
    /// Seed for `T0` generation and Procedure 2's omission order.
    pub seed: u64,
}

impl JobSpec {
    /// A short stable label for the backend axis (used in reports even
    /// when the job failed before an engine reported its own name).
    #[must_use]
    pub fn backend_label(&self) -> String {
        backend_label(self.backend)
    }
}

/// Stable textual form of a [`Backend`] (the CLI's `--backends` syntax).
#[must_use]
pub fn backend_label(backend: Backend) -> String {
    match backend {
        Backend::Packed => "packed".to_string(),
        Backend::Scalar => "scalar".to_string(),
        Backend::Sharded { threads } => format!("sharded:{threads}"),
    }
}

/// Parses the CLI's backend syntax: `packed`, `scalar`, or
/// `sharded[:threads]` (`threads` 0 = auto, the default). The word width
/// follows the fault list, so the retired `sharded:threads:width` form is
/// refused rather than read without its width.
///
/// # Errors
///
/// [`BatchError::Config`] naming the offending token.
pub fn parse_backend(token: &str) -> Result<Backend, BatchError> {
    match token {
        "packed" => Ok(Backend::Packed),
        "scalar" => Ok(Backend::Scalar),
        "sharded" => Ok(Backend::Sharded { threads: 0 }),
        other => match other.strip_prefix("sharded:") {
            Some(threads) if threads.contains(':') => Err(BatchError::Config(format!(
                "backend `{token}` sets a word width, which is no longer an option: the width \
                 follows the fault list (use sharded[:threads])"
            ))),
            Some(threads) => {
                threads.parse().map(|threads| Backend::Sharded { threads }).map_err(|_| {
                    BatchError::Config(format!("bad thread count `{threads}` in backend `{token}`"))
                })
            }
            None => Err(BatchError::Config(format!(
                "unknown backend `{other}` (expected packed, scalar or sharded[:threads])"
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_circuit_major_and_complete() {
        let jobs = Campaign::new()
            .suite_circuits(["s27", "a298"])
            .backends([Backend::Packed, Backend::Scalar])
            .seeds([1, 2])
            .ns(vec![1])
            .expand()
            .unwrap();
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].id, 0);
        // Circuit-major: first half all on s27.
        assert!(jobs[..4].iter().all(|j| j.circuit.key() == "s27"));
        assert!(jobs[4..].iter().all(|j| j.circuit.key() == "a298"));
    }

    #[test]
    fn empty_axes_are_config_errors() {
        assert!(matches!(Campaign::new().expand(), Err(BatchError::Config(_))));
        let no_backends = Campaign::new().suite_circuits(["s27"]).backends([]);
        assert!(matches!(no_backends.expand(), Err(BatchError::Config(_))));
        let zero_n = Campaign::new().suite_circuits(["s27"]).ns(vec![0]);
        assert!(matches!(zero_n.expand(), Err(BatchError::Config(_))));
        let no_seeds = Campaign::new().suite_circuits(["s27"]).seeds([]);
        assert!(matches!(no_seeds.expand(), Err(BatchError::Config(_))));
    }

    #[test]
    fn suite_up_to_adds_the_small_prefix() {
        let c = Campaign::new().suite_up_to(200);
        assert!(c.circuits().len() >= 4);
        assert!(c.circuits().iter().all(|s| matches!(s, CircuitSpec::Suite(_))));
    }

    #[test]
    fn backend_labels_round_trip() {
        for backend in [
            Backend::Packed,
            Backend::Scalar,
            Backend::Sharded { threads: 0 },
            Backend::Sharded { threads: 4 },
        ] {
            assert_eq!(parse_backend(&backend_label(backend)).unwrap(), backend);
        }
        assert_eq!(parse_backend("sharded").unwrap(), Backend::Sharded { threads: 0 });
        assert_eq!(parse_backend("sharded:4").unwrap(), Backend::Sharded { threads: 4 });
        assert!(parse_backend("vectorized").is_err());
        assert!(parse_backend("sharded:x").is_err());
        // The retired width form names its token instead of dropping the
        // width.
        match parse_backend("sharded:0:256") {
            Err(BatchError::Config(message)) => assert!(message.contains("`sharded:0:256`")),
            other => panic!("the width form must be refused, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive_to_every_axis() {
        let base = || Campaign::new().suite_circuits(["s27"]).seeds([1999]).ns(vec![1]);
        let fp = base().fingerprint();
        assert_eq!(fp.len(), 16, "16 hex chars: {fp}");
        assert_eq!(fp, base().fingerprint(), "same spec, same fingerprint");
        for changed in [
            base().suite_circuits(["a298"]).fingerprint(),
            base().backends([Backend::Scalar]).fingerprint(),
            base().ns(vec![2]).fingerprint(),
            base().seeds([1999, 2000]).fingerprint(),
            base().tgen(TgenConfig::new().max_length(9)).fingerprint(),
            base().verify(false).fingerprint(),
        ] {
            assert_ne!(fp, changed, "every configuration axis must move the fingerprint");
        }
    }

    #[test]
    fn circuit_spec_identity_and_build() {
        let spec = CircuitSpec::Suite("s27".to_string());
        assert_eq!(spec.key(), "s27");
        assert_eq!(spec.label(), "s27");
        assert_eq!(spec.build().unwrap().num_inputs(), 4);
        let missing = CircuitSpec::Suite("nope".to_string());
        assert!(missing.build().is_err());
        let file = CircuitSpec::File(PathBuf::from("/no/such/file.bench"));
        assert_eq!(file.label(), "file");
        assert!(file.build().is_err());
    }
}
