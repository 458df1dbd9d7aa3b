//! Test sequences and their on-chip expansion.
//!
//! This crate implements Section 2 of Pomeranz & Reddy (DAC 1999): the
//! sequence manipulations — **repetition**, **complementation**, **circular
//! shifting** and **reversal** — that expand a short loaded sequence `S`
//! into the test sequence `Sexp` applied to the circuit at speed:
//!
//! ```text
//! S'    = S^n                  (repeat n times)
//! S''   = S' · ~S'             (concatenate with its complement)
//! S'''  = S'' · (S'' << 1)     (concatenate with its circular left shift)
//! Sexp  = S''' · r(S''')       (concatenate with its reversal)
//! ```
//!
//! so that `|Sexp| = 8·n·|S|`.
//!
//! Three implementations are provided and cross-checked against each
//! other:
//!
//! * [`expansion::expand`](expansion::ExpansionConfig::expand) — the
//!   software reference, built from the sequence operations in [`ops`];
//!   materializes all `8·n·|S|` vectors.
//! * [`ExpansionIter`] (via [`Expand::stream`](expansion::Expand::stream))
//!   — the lazy stream: one vector at a time from the flat phase
//!   schedule, clock-for-clock identical to the hardware. The fault
//!   simulators consume this through [`VectorSource`], so `Sexp` is never
//!   allocated on hot paths.
//! * [`hardware::OnChipExpander`] — a cycle-accurate register-transfer
//!   model of the paper's on-chip hardware: a test memory, an up/down
//!   address counter, a repetition counter, complement/shift multiplexers
//!   and a small phase FSM. One clock produces one vector of `Sexp`.
//!
//! # Example — the paper's Table 1
//!
//! ```
//! use bist_expand::{TestSequence, expansion::ExpansionConfig};
//!
//! let s: TestSequence = "000 110".parse()?;
//! let sexp = ExpansionConfig::new(2)?.expand(&s);
//! assert_eq!(sexp.len(), 8 * 2 * s.len());
//! assert_eq!(
//!     sexp.to_string(),
//!     "000 110 000 110 111 001 111 001 \
//!      000 101 000 101 111 010 111 010 \
//!      010 111 010 111 101 000 101 000 \
//!      001 111 001 111 110 000 110 000"
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod sequence;
mod vector;

pub mod encoding;
pub mod expansion;
pub mod hardware;
pub mod ops;
pub mod stream;

pub use error::ExpandError;
pub use sequence::TestSequence;
pub use stream::{ExpansionIter, VectorSource, Walks};
pub use vector::TestVector;
