//! Static analysis for the `subseq-bist` pipeline.
//!
//! Three generations of hot-path machinery (packed-word lanes, compiled
//! gate tapes, force-word injection) rest on
//! structural invariants that until now were only exercised
//! *dynamically*, by differential tests. This crate checks them
//! statically — without simulating a single vector:
//!
//! * [`lint`] — netlist lint over `.bench` sources and validated
//!   [`Circuit`](bist_netlist::Circuit)s: combinational cycles, undriven
//!   nets, duplicate drivers, degenerate fanin, dangling logic,
//!   unreachable flip-flops, unused inputs, always-X nets, duplicate
//!   cones. Every diagnostic carries a stable code (`L001`…), a
//!   severity and the offending net names.
//! * [`tape_check`] — audits a compiled
//!   [`GateTape`](bist_netlist::GateTape) against its source circuit:
//!   monotone levelized order, in-bounds CSR windows, run homogeneity,
//!   PI/PO/DFF table bijection. Wired behind
//!   `debug_assertions` at every compile site, so every debug test run
//!   audits every tape for free.
//! * [`equiv`] — a SAT/BDD-free structural equivalence checker
//!   (canonicalize, hash, compare PI/PO/DFF cones) gating the
//!   writer→parser round trip.
//!
//! # Example
//!
//! ```
//! use bist_netlist::{benchmarks, GateTape};
//!
//! let c = benchmarks::s27();
//! // A validated benchmark circuit lints clean...
//! assert!(bist_verify::lint::is_clean(&bist_verify::lint::lint_circuit(&c)));
//! // ...its compiled tape satisfies every engine invariant...
//! let tape = GateTape::compile(&c);
//! assert!(bist_verify::tape_check::verify_tape(&c, &tape).is_ok());
//! // ...and it is structurally equivalent to itself.
//! assert!(bist_verify::equiv::check_equiv(&c, &c).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod equiv;
pub mod lint;
pub mod tape_check;

pub use equiv::{check_equiv, structural_hash, Inequivalence};
pub use lint::{lint_circuit, lint_source, Diagnostic, LintCode, Severity};
pub use tape_check::{audit_tape, verify_tape, TapeViolation};
