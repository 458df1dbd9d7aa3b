//! # bist-batch — the batch campaign engine
//!
//! A layer above the [`Session`](subseq_bist::Session) pipeline for
//! running *many* sessions at once: a declarative [`Campaign`] spec
//! (circuits × backends × scheme configs × seeds) expands into a job
//! matrix that a [`CampaignEngine`] executes concurrently on a
//! scoped-thread worker pool with a bounded job queue, first-error
//! cancellation (configurable `keep_going`) and per-job timing.
//!
//! All jobs share one [`ArtifactCache`]: each circuit is parsed once,
//! its fault universe collapsed once, and each (circuit, seed) `T0`
//! generated once — shared via `Arc` into every session through
//! [`SessionBuilder::with_artifacts`](subseq_bist::SessionBuilder::with_artifacts).
//! Results stream through pluggable [`ReportSink`]s ([`MemorySink`],
//! JSONL via [`JsonlSink`]) and roll up into a [`CampaignSummary`].
//!
//! The `subseq-bist` binary in this crate is the CLI front end
//! (`subseq-bist run --smoke`, `list-circuits`, `validate`).
//!
//! # Example
//!
//! ```
//! use bist_batch::{Campaign, CampaignEngine};
//! use subseq_bist::tgen::TgenConfig;
//! use subseq_bist::Backend;
//!
//! let campaign = Campaign::new()
//!     .suite_circuits(["s27"])
//!     .backends([Backend::Packed, Backend::Sharded { threads: 0 }])
//!     .ns(vec![1, 2])
//!     .tgen(TgenConfig::new().max_length(32))
//!     .seeds([1999]);
//! let outcome = CampaignEngine::new().run(&campaign, &mut [])?;
//! assert_eq!(outcome.summary.jobs_ok, 2);
//! assert_eq!(outcome.cache.circuit_misses, 1);   // parsed once, shared
//! println!("{}", outcome.summary);
//! # Ok::<(), bist_batch::BatchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod campaign;
mod engine;
pub mod faultpoint;
pub mod jsonl;
mod report;
pub mod serve;

pub use cache::{
    ArtifactCache, CachePolicy, CacheResidency, CacheStats, ShelfId, ShelfResidency, ShelfSet,
};
pub use campaign::{backend_label, parse_backend, Campaign, CircuitSpec, JobSpec, SchemeSpec};
pub use engine::{
    CampaignEngine, CampaignOutcome, EngineConfig, FailureKind, JobFailure, JobOutcome, RetryPolicy,
};
pub use report::{
    AxisLine, CampaignSummary, JobMetrics, JobRecord, JobStatus, JsonlSink, MemorySink, ReportSink,
    ResumeLog,
};
pub use serve::{campaign_from_spec, CampaignServer, ServeConfig};

use std::fmt;
use subseq_bist::BistError;

/// Any error the batch layer can produce.
#[derive(Debug)]
#[non_exhaustive]
pub enum BatchError {
    /// An underlying pipeline error.
    Bist(BistError),
    /// Reading or writing campaign I/O failed.
    Io(std::io::Error),
    /// The campaign or engine was configured inconsistently.
    Config(String),
    /// Computing a shared artifact failed (the message is shared by every
    /// job that requested it).
    Artifact {
        /// Which artifact (circuit, fault universe, `T0`).
        artifact: String,
        /// The underlying failure.
        message: String,
        /// Whether a retry could plausibly succeed (interrupted/timed-out
        /// I/O, injected chaos). Permanent failures — parse errors,
        /// missing files — stay cached and are never retried.
        transient: bool,
    },
    /// A job failed and `keep_going` was off.
    JobFailed {
        /// Matrix id of the failing job.
        job: usize,
        /// Circuit label of the failing job.
        circuit: String,
        /// The underlying failure.
        message: String,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Bist(e) => write!(f, "pipeline error: {e}"),
            BatchError::Io(e) => write!(f, "i/o error: {e}"),
            BatchError::Config(msg) => write!(f, "campaign configuration error: {msg}"),
            BatchError::Artifact { artifact, message, transient } => {
                let hint = if *transient { " (transient)" } else { "" };
                write!(f, "building shared {artifact} failed{hint}: {message}")
            }
            BatchError::JobFailed { job, circuit, message } => {
                write!(f, "job {job} ({circuit}) failed: {message}")
            }
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Bist(e) => Some(e),
            BatchError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BistError> for BatchError {
    fn from(e: BistError) -> Self {
        BatchError::Bist(e)
    }
}

impl From<std::io::Error> for BatchError {
    fn from(e: std::io::Error) -> Self {
        BatchError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversions() {
        let e: BatchError = BistError::Config("bad".to_string()).into();
        assert!(e.to_string().contains("bad"));
        let io: BatchError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
        let cfg = BatchError::Config("no circuits".to_string());
        assert!(cfg.to_string().contains("no circuits"));
        let art = BatchError::Artifact {
            artifact: "circuit `x`".to_string(),
            message: "parse failed".to_string(),
            transient: false,
        };
        assert!(art.to_string().contains("circuit `x`"));
        let transient = BatchError::Artifact {
            artifact: "T0 of `x`".to_string(),
            message: "interrupted".to_string(),
            transient: true,
        };
        assert!(transient.to_string().contains("(transient)"));
        let job = BatchError::JobFailed {
            job: 3,
            circuit: "s27".to_string(),
            message: "sim".to_string(),
        };
        assert!(job.to_string().contains("job 3"));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(cfg.source().is_none());
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<BatchError>();
    }
}
