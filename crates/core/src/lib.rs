//! # subseq-bist core — loading and expansion of test subsequences
//!
//! Reproduction of the on-chip test generation scheme of **Pomeranz &
//! Reddy, "Built-In Test Sequence Generation for Synchronous Sequential
//! Circuits Based on Loading and Expansion of Test Subsequences", DAC
//! 1999**.
//!
//! Given a deterministic test sequence `T0` (see `bist-tgen`), the scheme
//! selects a set `S` of short subsequences of `T0` such that the on-chip
//! *expansions* of the sequences in `S` (see `bist-expand`) jointly detect
//! every fault `T0` detects. Only `S` is ever loaded into the on-chip
//! memory; the much longer expansions are generated by trivial hardware
//! and applied at speed.
//!
//! * [`find_subsequence`] — **Procedure 2**: grow a window of `T0` ending
//!   at `udet(f)` until its expansion detects `f`, then minimize it by
//!   randomized vector omission.
//! * [`select_subsequences`] — **Procedure 1**: repeatedly target the
//!   yet-uncovered fault with the highest detection time and drop
//!   everything its new sequence's expansion detects.
//! * [`compact_set`] — the §3.2 four-pass static compaction of `S`.
//! * [`run_scheme`] — the full flow swept over `n ∈ {2,4,8,16}` with the
//!   paper's best-`n` rule; produces everything Tables 3-5 report.
//! * [`partition_baseline`] / [`lfsr_hold_baseline`] — the comparison
//!   points discussed in the paper's introduction.
//! * [`scheme_cost`] / [`monolithic_cost`] — the on-chip memory model.
//!
//! # Example
//!
//! ```
//! use bist_core::{run_scheme, verify_full_coverage, SchemeConfig};
//! use bist_expand::expansion::ExpansionConfig;
//! use bist_netlist::benchmarks;
//! use bist_sim::{collapse, fault_universe, FaultCoverage, FaultSimulator};
//!
//! let c = benchmarks::s27();
//! let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
//! let sim = FaultSimulator::new(&c);
//! let t0 = "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse()?;
//! let cov = FaultCoverage::simulate(&sim, &t0, faults.clone())?;
//!
//! let result = run_scheme(&sim, &t0, &cov, &SchemeConfig::new())?;
//! let best = result.best_run();
//! // The paper's guarantee: the expanded subsequences cover all of F.
//! assert!(verify_full_coverage(
//!     &sim,
//!     &best.sequences,
//!     &ExpansionConfig::new(best.n)?,
//!     &faults,
//! )?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod memory_model;
mod postprocess;
mod procedure1;
mod procedure2;
mod report;
mod scheme;

pub use baseline::{lfsr_hold_baseline, partition_baseline, LfsrBaseline, PartitionBaseline};
pub use memory_model::{monolithic_cost, scheme_cost, MemoryCost};
pub use postprocess::{compact_set, CompactionStats, PassOrder, PAPER_SCHEDULE};
pub use procedure1::{select_subsequences, verify_full_coverage, Procedure1Stats, SelectionResult};
pub use procedure2::{find_subsequence, Procedure2Stats, SelectedSequence};
pub use report::{figure1, Table3Row, Table4Row, Table5Row};
pub use scheme::{run_for_n, run_scheme, SchemeConfig, SchemeResult, SchemeRun, SetStats};
