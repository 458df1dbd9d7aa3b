//! Three-valued logic simulation and sequential stuck-at fault simulation.
//!
//! This crate is the simulation substrate for the `subseq-bist` workspace
//! (a reproduction of Pomeranz & Reddy, DAC 1999). It provides:
//!
//! * [`Logic`] — scalar `0/1/X` values with the standard pessimistic
//!   three-valued algebra, and the [`PackedWord`] family — 64
//!   ([`PackedValue`]) or `64·N` ([`PackedVec`], autovectorizing
//!   `[u64; N]` planes) such values packed for bit-parallel evaluation.
//! * [`fault_universe`] / [`collapse`] — the single stuck-at fault model
//!   (stem + fanout-branch faults) with classic gate-local equivalence
//!   collapsing. On `s27` this yields the 52 → 32 fault counts the paper
//!   works with.
//! * [`simulate_good`] — fault-free simulation from the all-unknown state.
//! * [`FaultSimulator`] — the sequential fault simulator facade over a
//!   pluggable [`SimBackend`]: the default [`PackedBackend`] runs one
//!   faulty machine per lane plus the fused good machine in the top lane,
//!   in one 64-lane word for up to 63 faults and in 256-lane words for
//!   longer lists; [`ShardedBackend`] splits the same pass across OS
//!   threads, the word width following the whole list's length; the
//!   [`ScalarBackend`] reference engine steps one good/faulty pair of the
//!   crate's scalar machine (the one behind [`SteppedSim`],
//!   [`simulate_good`] and [`simulate_faulty`]) at a time, as the
//!   differential oracle for every query, resume included. Every engine
//!   implements one contract, [`SimBackend::resume_tape_obs`], and
//!   executes the compiled [`GateTape`] (flat CSR fanin arrays + byte
//!   opcodes, compiled once per circuit and shareable via
//!   [`SimBackend::detection_times_tape`]); the node-graph oracle of the
//!   seed implementation survives in [`reference`](mod@reference) purely as a
//!   differential-test baseline. All engines fuse the fault-free machine
//!   into the fault passes (no precollected PO trace), report first
//!   detection times (the `udet(f)` of Procedure 1) and consume
//!   replayable [`VectorSource`] streams, so lazily expanded sequences
//!   simulate without materialization.
//! * [`MachineState`] — the explicit, cloneable state of a pass (the
//!   good machine's flip-flops plus each fault's).
//!   [`FaultSimulator::resume`] / [`SimBackend::resume_tape_obs`]
//!   continue a pass from one and snapshot new ones on every engine, so
//!   sequences that grow or change late (test generation, static
//!   compaction) are re-simulated only from the change on.
//! * [`FaultCoverage`] — fault list + detection times bookkeeping.
//!
//! # Example
//!
//! ```
//! use bist_expand::TestSequence;
//! use bist_netlist::benchmarks;
//! use bist_sim::{collapse, fault_universe, FaultSimulator};
//!
//! let c = benchmarks::s27();
//! let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
//! assert_eq!(faults.len(), 32);
//!
//! let sim = FaultSimulator::new(&c);
//! let t0: TestSequence =
//!     "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse()?;
//! let times = sim.detection_times(&t0, &faults)?;
//! assert!(times.iter().all(|t| t.is_some()));   // full coverage
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod collapse;
mod coverage;
mod error;
pub mod eval;
mod fault;
mod good;
mod logic;
mod packed;
pub mod reference;
mod simulator;
mod state;
mod stepped;
pub mod transition;

pub use backend::{PackedBackend, ScalarBackend, ShardedBackend, SimBackend, PROBE_LANES};
/// Re-exported from `bist-expand`: the replayable vector-stream trait the
/// backends consume.
pub use bist_expand::VectorSource;
/// Re-exported from `bist-netlist`: the compiled instruction form every
/// engine executes ([`SimBackend::detection_times_tape`]).
pub use bist_netlist::GateTape;
/// Re-exported from `bist-obs`: the telemetry sink engines record into.
pub use bist_obs::Obs;
pub use collapse::{collapse, CollapsedFaults};
pub use coverage::FaultCoverage;
pub use error::SimError;
pub use eval::{eval_gate, eval_gate_scalar};
pub use fault::{fault_universe, sort_faults_by_site, Fault, FaultSite};
pub use good::{simulate_faulty, simulate_good, GoodTrace};
pub use logic::Logic;
pub use packed::{LaneMask, PackedValue, PackedValue256, PackedVec, PackedWord};
pub use simulator::FaultSimulator;
pub use state::{MachineState, Resumed};
pub use stepped::SteppedSim;
pub use transition::{
    detects_transition, transition_detection_times, transition_universe, TransitionFault,
};
