//! # subseq-bist — built-in test sequence generation by loading and
//! expansion of test subsequences
//!
//! A full Rust reproduction of **Pomeranz & Reddy, "Built-In Test
//! Sequence Generation for Synchronous Sequential Circuits Based on
//! Loading and Expansion of Test Subsequences", DAC 1999**, including
//! every substrate the paper depends on: a gate-level netlist model with
//! ISCAS-89 `.bench` I/O, a three-valued sequential fault simulator with
//! pluggable backends, a deterministic test generator standing in for
//! STRATEGATE, the on-chip expansion hardware at register-transfer
//! accuracy, and the paper's Procedures 1 & 2 with the §3.2 static
//! compaction.
//!
//! # Quickstart
//!
//! The [`Session`] pipeline is the single entry point: it owns circuit
//! loading, `T0` generation, fault collapsing, the scheme sweep and
//! verification. One builder chain runs the paper's whole flow:
//!
//! ```
//! use subseq_bist::Session;
//!
//! let report = Session::builder().s27().seed(1999).ns(vec![1, 2]).run()?;
//! let best = report.best();
//! println!(
//!     "load {} vectors (T0 has {}), memory depth {}, applied {} at speed",
//!     best.after.total_len,
//!     report.t0().len(),
//!     best.after.max_len,
//!     best.applied_test_len(),
//! );
//! assert_eq!(report.verified(), Some(true));   // the paper's guarantee
//! # Ok::<(), subseq_bist::BistError>(())
//! ```
//!
//! Underneath, the expanded sequences are *streamed*
//! ([`ExpansionIter`](expand::ExpansionIter)) through a pluggable
//! fault-simulation backend ([`SimBackend`](sim::SimBackend)) — the
//! `8·n·|S|`-vector `Sexp` is never materialized on the selection,
//! compaction or verification paths, mirroring the on-chip hardware that
//! regenerates it clock by clock.
//!
//! # Layers
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`netlist`] — circuits, `.bench` parsing, benchmark generators
//! * [`sim`] — 3-valued logic + stuck-at fault simulation backends
//! * [`expand`] — test sequences, the `Sexp` expansion, hardware model
//! * [`tgen`] — `T0` generation and static compaction
//! * [`core`] — subsequence selection (the paper's contribution)
//! * [`obs`] — zero-dependency telemetry: counters, histograms, spans
//!
//! plus the [`Session`] pipeline and the workspace-wide [`BistError`].
//!
//! See `examples/` for runnable end-to-end scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod session;

pub use bist_core as core;
pub use bist_expand as expand;
pub use bist_netlist as netlist;
pub use bist_sim as sim;
pub use bist_tgen as tgen;
pub use bist_verify as verify;

/// Re-exported from `bist-obs`: the zero-dependency telemetry layer.
/// Pass an active [`Obs`] to [`SessionBuilder::obs`] to collect span
/// histograms, engine counters and (optionally) trace events; snapshot
/// and export via [`obs::Registry`] and [`obs::export`].
pub use bist_obs as obs;
pub use bist_obs::{MetricsSnapshot, Obs, Registry};
pub use error::BistError;
pub use session::{
    Backend, Session, SessionArtifacts, SessionBuilder, SessionParts, SessionReport, StageSeconds,
};
