//! Gate evaluation over packed three-valued values.

use crate::{Logic, PackedWord};
use bist_netlist::GateKind;
use std::ops::Not;

/// Evaluates a gate over packed fanin values (all lanes at once).
///
/// Generic over any [`PackedWord`] width — the same code evaluates 64
/// machines per [`PackedValue`](crate::PackedValue) or `64·N` per
/// [`PackedVec`](crate::PackedVec).
///
/// # Panics
///
/// Panics if `fanin` is empty (the netlist layer guarantees arity ≥ 1).
///
/// # Example
///
/// ```
/// use bist_netlist::GateKind;
/// use bist_sim::{eval_gate, Logic, PackedValue};
///
/// let a = PackedValue::splat(Logic::One);
/// let b = PackedValue::splat(Logic::X);
/// // 1 NAND X = X, but 0 NAND X = 1:
/// assert_eq!(eval_gate(GateKind::Nand, &[a, b]).lane(0), Logic::X);
/// let z = PackedValue::splat(Logic::Zero);
/// assert_eq!(eval_gate(GateKind::Nand, &[z, b]).lane(0), Logic::One);
/// ```
#[must_use]
pub fn eval_gate<W: PackedWord>(kind: GateKind, fanin: &[W]) -> W {
    assert!(!fanin.is_empty(), "gate must have at least one fanin");
    eval_gate_fold(kind, fanin[0], fanin[1..].iter().copied())
}

/// Folds a gate over `first` and the remaining fanin values — the single
/// definition of packed gate semantics, shared by [`eval_gate`] and the
/// engines' allocation-free table-reading fast path.
#[inline]
#[must_use]
pub fn eval_gate_fold<W: PackedWord>(kind: GateKind, first: W, rest: impl Iterator<Item = W>) -> W {
    match kind {
        GateKind::Buf => first,
        GateKind::Not => W::not(first),
        GateKind::And => rest.fold(first, W::and),
        GateKind::Nand => W::not(rest.fold(first, W::and)),
        GateKind::Or => rest.fold(first, W::or),
        GateKind::Nor => W::not(rest.fold(first, W::or)),
        GateKind::Xor => rest.fold(first, W::xor),
        GateKind::Xnor => W::not(rest.fold(first, W::xor)),
    }
}

/// Scalar convenience wrapper over [`eval_gate`].
#[must_use]
pub fn eval_gate_scalar(kind: GateKind, fanin: &[Logic]) -> Logic {
    eval_scalar_fold(kind, fanin.iter().copied())
}

/// Allocation-free scalar gate evaluation over an iterator of fanin
/// values — the inner loop of the fault-free simulator.
///
/// # Panics
///
/// Panics if the iterator is empty.
#[must_use]
pub fn eval_scalar_fold(kind: GateKind, mut fanin: impl Iterator<Item = Logic>) -> Logic {
    let first = fanin.next().expect("gate must have at least one fanin");
    match kind {
        GateKind::Buf => first,
        GateKind::Not => first.not(),
        GateKind::And => fanin.fold(first, Logic::and),
        GateKind::Nand => fanin.fold(first, Logic::and).not(),
        GateKind::Or => fanin.fold(first, Logic::or),
        GateKind::Nor => fanin.fold(first, Logic::or).not(),
        GateKind::Xor => fanin.fold(first, Logic::xor),
        GateKind::Xnor => fanin.fold(first, Logic::xor).not(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackedValue, PackedValue256};
    use Logic::{One, Zero, X};

    const ALL: [Logic; 3] = [Zero, One, X];

    #[test]
    fn two_input_tables() {
        for a in ALL {
            for b in ALL {
                assert_eq!(eval_gate_scalar(GateKind::And, &[a, b]), a.and(b));
                assert_eq!(eval_gate_scalar(GateKind::Nand, &[a, b]), a.and(b).not());
                assert_eq!(eval_gate_scalar(GateKind::Or, &[a, b]), a.or(b));
                assert_eq!(eval_gate_scalar(GateKind::Nor, &[a, b]), a.or(b).not());
                assert_eq!(eval_gate_scalar(GateKind::Xor, &[a, b]), a.xor(b));
                assert_eq!(eval_gate_scalar(GateKind::Xnor, &[a, b]), a.xor(b).not());
            }
        }
    }

    #[test]
    fn unary_gates() {
        for a in ALL {
            assert_eq!(eval_gate_scalar(GateKind::Buf, &[a]), a);
            assert_eq!(eval_gate_scalar(GateKind::Not, &[a]), a.not());
        }
    }

    #[test]
    fn wide_gates_fold() {
        assert_eq!(eval_gate_scalar(GateKind::And, &[One, One, One, Zero]), Zero);
        assert_eq!(eval_gate_scalar(GateKind::And, &[One, One, X]), X);
        assert_eq!(eval_gate_scalar(GateKind::Or, &[Zero, Zero, One, X]), One);
        assert_eq!(eval_gate_scalar(GateKind::Nor, &[Zero, Zero, Zero]), One);
        // Odd parity of three ones = 1.
        assert_eq!(eval_gate_scalar(GateKind::Xor, &[One, One, One]), One);
        assert_eq!(eval_gate_scalar(GateKind::Xnor, &[One, One, One]), Zero);
    }

    #[test]
    fn controlling_value_beats_x() {
        assert_eq!(eval_gate_scalar(GateKind::And, &[Zero, X]), Zero);
        assert_eq!(eval_gate_scalar(GateKind::Nand, &[Zero, X]), One);
        assert_eq!(eval_gate_scalar(GateKind::Or, &[One, X]), One);
        assert_eq!(eval_gate_scalar(GateKind::Nor, &[One, X]), Zero);
    }

    #[test]
    fn packed_lanes_independent() {
        let mut a = PackedValue::ALL_ONE;
        a.set_lane(3, Zero);
        let b = PackedValue::ALL_ONE;
        let out = eval_gate(GateKind::Nand, &[a, b]);
        assert_eq!(out.lane(3), One);
        assert_eq!(out.lane(0), Zero);
        assert!(out.is_valid());
    }

    #[test]
    fn wide_words_evaluate_like_narrow() {
        for kind in [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Xor] {
            for a in ALL {
                for b in ALL {
                    let narrow =
                        eval_gate(kind, &[PackedValue::splat(a), PackedValue::splat(b)]).lane(10);
                    let wide =
                        eval_gate(kind, &[PackedValue256::splat(a), PackedValue256::splat(b)])
                            .lane(200);
                    assert_eq!(narrow, wide, "{kind:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one fanin")]
    fn empty_fanin_panics() {
        let _ = eval_gate::<PackedValue>(GateKind::And, &[]);
    }
}
