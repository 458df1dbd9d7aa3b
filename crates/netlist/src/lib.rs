//! Gate-level model of synchronous sequential circuits.
//!
//! This crate provides the circuit substrate used by the whole `subseq-bist`
//! workspace, which reproduces the on-chip test generation scheme of
//! Pomeranz & Reddy, *"Built-In Test Sequence Generation for Synchronous
//! Sequential Circuits Based on Loading and Expansion of Test Subsequences"*,
//! DAC 1999.
//!
//! It contains:
//!
//! * [`Circuit`] — an immutable, validated, levelized netlist of primitive
//!   gates ([`GateKind`]), D flip-flops and primary inputs/outputs.
//! * [`CircuitBuilder`] — the only way to construct a [`Circuit`]; performs
//!   full structural validation (undriven nets, combinational loops,
//!   arity checks, duplicate names).
//! * [`parser`] / [`writer`] — ISCAS-89 `.bench` format I/O, so the real
//!   ISCAS-89 benchmark files can be dropped in unmodified.
//! * [`generate`] — a seeded random sequential circuit generator used to
//!   build synthetic analogs of the ISCAS-89 circuits evaluated in the paper.
//! * [`fuzz`] — seeded random circuits for differential fuzzing,
//!   including the degenerate shapes (zero-gate netlists, extreme
//!   chains/fanout) that the benchmark analogs never produce.
//! * [`benchmarks`] — the embedded `s27` circuit (the paper's worked
//!   example) plus the synthetic benchmark suite mirroring Table 3.
//! * [`GateTape`] — the netlist compiled into flat, cache-linear
//!   evaluation-order arrays (CSR fanin indices, byte opcodes,
//!   pre-resolved PI/PO/DFF tables) — the instruction form every
//!   simulation engine executes.
//!
//! # Example
//!
//! ```
//! use bist_netlist::benchmarks;
//!
//! let s27 = benchmarks::s27();
//! assert_eq!(s27.num_inputs(), 4);
//! assert_eq!(s27.num_dffs(), 3);
//! assert_eq!(s27.num_outputs(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod circuit;
mod error;
mod gate;
mod stats;
mod tape;

pub mod benchmarks;
pub mod fuzz;
pub mod generate;
pub mod parser;
pub mod writer;

pub use builder::CircuitBuilder;
pub use circuit::{Circuit, FanoutRef, Node, NodeId, NodeKind};
pub use error::NetlistError;
pub use gate::GateKind;
pub use stats::CircuitStats;
pub use tape::{GateRun, GateTape, RunArity};
