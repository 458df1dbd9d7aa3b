//! Off-chip deterministic test sequence generation and compaction.
//!
//! The paper takes as input a test sequence `T0` *"generated by
//! STRATEGATE \[11\] and compacted by the static compaction procedure of
//! \[12\]"*. Neither tool is publicly available, so this crate provides a
//! functional substitute with the same contract: produce a compact test
//! sequence with a known detected-fault set `F` and detection times
//! `udet(f)` for a synchronous sequential circuit.
//!
//! * [`generate_t0`] — fault-simulation-guided randomized test generation:
//!   candidate bursts of (hold-biased) random vectors are appended only
//!   when they detect new faults, until the fault list is exhausted or the
//!   generator stalls. This is the spirit of random/simulation-based
//!   sequential ATPG; it exercises exactly the code paths the paper's
//!   scheme needs from `T0`. Each burst is simulated alone, resumed from
//!   the machine state the accepted prefix left behind, so generation is
//!   linear in the length of `T0`.
//! * [`static_compact`] — restoration-style static compaction (substitute
//!   for \[12\]): vectors are tentatively omitted and the omission is kept
//!   when the full target fault set stays detected. A trial re-simulates
//!   only the faults detected at or after the omitted vector, from the
//!   nearest machine-state reference before it, and stops as soon as its
//!   state rejoins the walk of the sequence without the omission.
//! * [`Lfsr`] and [`RandomSequence`] — pseudo-random stimulus sources,
//!   also used by the LFSR-with-hold baseline of \[3\] in `bist-core`.
//!
//! # Example
//!
//! ```
//! use bist_netlist::benchmarks;
//! use bist_tgen::{generate_t0, TgenConfig};
//!
//! let c = benchmarks::s27();
//! let t0 = generate_t0(&c, &TgenConfig::new().seed(1))?;
//! assert!(t0.coverage.fraction() > 0.9);   // s27 is easy to cover
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compact;
mod config;
mod generate;
mod random;

pub use compact::{static_compact, CompactionStats};
pub use config::TgenConfig;
pub use generate::{
    generate_t0, generate_t0_with_artifacts, generate_t0_with_faults, GeneratedTest,
};
pub use random::{Lfsr, RandomSequence};
