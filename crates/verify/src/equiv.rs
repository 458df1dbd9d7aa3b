//! SAT/BDD-free structural equivalence of sequential circuits.
//!
//! Two circuits are *structurally equivalent* when their primary-output
//! and next-state functions are built from identical gate structure over
//! positionally-matched sources: PI `k` of one circuit corresponds to PI
//! `k` of the other, flip-flop `k` to flip-flop `k` (test vectors and
//! state vectors are positional throughout the workspace, so position
//! *is* the interface). [`check_equiv`] walks each PO cone and each
//! flip-flop D cone pair-wise, memoizing proven-equal node pairs;
//! flip-flop outputs are cut points, so the walk is combinational and
//! terminates even on self-feeding state.
//!
//! The check is **sound, not complete**: a pass certifies functional
//! equivalence (same gates over the same sources compute the same
//! values), while a mismatch only means "not structurally identical" —
//! e.g. commutative fanin swaps are reported as different, by design.
//! That conservative direction is exactly what the writer→parser round
//! trip needs from a gate: false alarms are reviewable, false passes are
//! not.
//!
//! [`structural_hash`] is the one-sided fingerprint of the same
//! canonical form: equivalent circuits always hash equal, so campaign
//! caches can use it as a cheap pre-filter before the full walk.

use bist_netlist::{Circuit, NodeId, NodeKind};
use std::collections::HashMap;
use std::fmt;

/// Why two circuits failed the structural equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inequivalence {
    /// Which part of the comparison failed (`"interface"` for
    /// PI/PO/DFF count mismatches, `"po-cone"` / `"dff-cone"` for
    /// structural differences inside a cone).
    pub scope: &'static str,
    /// Human-readable account, naming nets from both circuits.
    pub detail: String,
}

impl fmt::Display for Inequivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not structurally equivalent ({}): {}", self.scope, self.detail)
    }
}

impl std::error::Error for Inequivalence {}

/// Pair-wise cone walker with memoized proven-equal pairs.
struct Matcher<'a> {
    a: &'a Circuit,
    b: &'a Circuit,
    /// Position of each node in its circuit's PI table (or `u32::MAX`).
    a_pi_pos: Vec<u32>,
    b_pi_pos: Vec<u32>,
    /// Position of each node in its circuit's DFF table (or `u32::MAX`).
    a_dff_pos: Vec<u32>,
    b_dff_pos: Vec<u32>,
    /// Proven-equal `(a, b)` node pairs. The cones are DAGs, so plain
    /// success memoization is enough — no in-progress marking needed.
    proven: HashMap<(u32, u32), bool>,
}

fn positions(len: usize, ids: &[NodeId]) -> Vec<u32> {
    let mut pos = vec![u32::MAX; len];
    for (k, id) in ids.iter().enumerate() {
        pos[id.index()] = u32::try_from(k).expect("table index exceeds u32");
    }
    pos
}

impl<'a> Matcher<'a> {
    fn new(a: &'a Circuit, b: &'a Circuit) -> Self {
        Matcher {
            a,
            b,
            a_pi_pos: positions(a.num_nodes(), a.inputs()),
            b_pi_pos: positions(b.num_nodes(), b.inputs()),
            a_dff_pos: positions(a.num_nodes(), a.dffs()),
            b_dff_pos: positions(b.num_nodes(), b.dffs()),
            proven: HashMap::new(),
        }
    }

    /// Do `na` (in `a`) and `nb` (in `b`) compute the same function of
    /// the positional PIs and flip-flop outputs?
    fn cones_match(&mut self, na: NodeId, nb: NodeId) -> bool {
        let key = (na.index() as u32, nb.index() as u32);
        if let Some(&hit) = self.proven.get(&key) {
            return hit;
        }
        let node_a = self.a.node(na);
        let node_b = self.b.node(nb);
        let ok = match (node_a.kind(), node_b.kind()) {
            (NodeKind::Input, NodeKind::Input) => {
                self.a_pi_pos[na.index()] == self.b_pi_pos[nb.index()]
            }
            (NodeKind::Dff, NodeKind::Dff) => {
                // Cut point: same state position. The D cones are
                // compared once, from the top-level loop — recursing
                // here would chase sequential feedback forever.
                self.a_dff_pos[na.index()] == self.b_dff_pos[nb.index()]
            }
            (NodeKind::Gate(ka), NodeKind::Gate(kb)) => {
                ka == kb
                    && node_a.fanin().len() == node_b.fanin().len()
                    && node_a
                        .fanin()
                        .iter()
                        .zip(node_b.fanin())
                        .all(|(&fa, &fb)| self.cones_match(fa, fb))
            }
            _ => false,
        };
        self.proven.insert(key, ok);
        ok
    }
}

/// Certifies that `a` and `b` are structurally equivalent.
///
/// Accepts any relabeling/reordering of the *gates* (names and
/// declaration order are canonicalized away); requires positional
/// agreement of the PI, PO and flip-flop interfaces, matching opcodes
/// and pin-ordered fanin throughout every cone.
///
/// # Errors
///
/// An [`Inequivalence`] naming the first differing cone.
pub fn check_equiv(a: &Circuit, b: &Circuit) -> Result<(), Inequivalence> {
    let interface = [
        ("inputs", a.num_inputs(), b.num_inputs()),
        ("outputs", a.num_outputs(), b.num_outputs()),
        ("flip-flops", a.num_dffs(), b.num_dffs()),
    ];
    for (label, na, nb) in interface {
        if na != nb {
            return Err(Inequivalence {
                scope: "interface",
                detail: format!("`{}` has {na} {label}, `{}` has {nb}", a.name(), b.name()),
            });
        }
    }
    let mut m = Matcher::new(a, b);
    for (k, (&oa, &ob)) in a.outputs().iter().zip(b.outputs()).enumerate() {
        if !m.cones_match(oa, ob) {
            return Err(Inequivalence {
                scope: "po-cone",
                detail: format!(
                    "output {k} (`{}` vs `{}`) differs structurally",
                    a.node(oa).name(),
                    b.node(ob).name()
                ),
            });
        }
    }
    for (k, (&da, &db)) in a.dffs().iter().zip(b.dffs()).enumerate() {
        let sa = a.node(da).fanin()[0];
        let sb = b.node(db).fanin()[0];
        if !m.cones_match(sa, sb) {
            return Err(Inequivalence {
                scope: "dff-cone",
                detail: format!(
                    "flip-flop {k} d-input (`{}` vs `{}`) differs structurally",
                    a.node(sa).name(),
                    b.node(sb).name()
                ),
            });
        }
    }
    debug_assert_eq!(
        structural_hash(a),
        structural_hash(b),
        "cone walk accepted but canonical hashes differ"
    );
    Ok(())
}

/// splitmix64 — the standard 64-bit finalizer; good avalanche, no deps.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn combine(h: u64, v: u64) -> u64 {
    mix(h ^ mix(v))
}

/// A canonical fingerprint of a circuit's structure.
///
/// Names and gate declaration order do not enter the hash; PI/PO/DFF
/// positions, opcodes and pin order do. [`check_equiv`]-equal circuits
/// therefore always hash equal, so an unequal hash proves structural
/// inequivalence — the cheap pre-filter for caches. (Equal hashes do
/// *not* prove equivalence; run the full check.)
#[must_use]
pub fn structural_hash(circuit: &Circuit) -> u64 {
    let mut node_hash = vec![0u64; circuit.num_nodes()];
    for (k, &id) in circuit.inputs().iter().enumerate() {
        node_hash[id.index()] = combine(0x01, k as u64);
    }
    for (k, &id) in circuit.dffs().iter().enumerate() {
        node_hash[id.index()] = combine(0x02, k as u64);
    }
    // eval_order is topological, so every fanin hash is final when read.
    for &id in circuit.eval_order() {
        let node = circuit.node(id);
        let NodeKind::Gate(kind) = node.kind() else {
            unreachable!("eval_order contains only gates")
        };
        let mut h = combine(0x03, *kind as u64);
        for &f in node.fanin() {
            h = combine(h, node_hash[f.index()]);
        }
        node_hash[id.index()] = h;
    }
    let mut h = combine(0x10, circuit.num_inputs() as u64);
    h = combine(h, circuit.num_dffs() as u64);
    for &o in circuit.outputs() {
        h = combine(h, node_hash[o.index()]);
    }
    for &d in circuit.dffs() {
        h = combine(h, node_hash[circuit.node(d).fanin()[0].index()]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_netlist::parser::parse_bench;
    use bist_netlist::{benchmarks, fuzz, writer};

    #[test]
    fn every_suite_circuit_equals_itself() {
        for entry in benchmarks::suite_up_to(2000) {
            let c = entry.build().unwrap();
            assert_eq!(check_equiv(&c, &c), Ok(()), "{}", entry.name);
        }
    }

    #[test]
    fn writer_parser_round_trip_is_equivalent() {
        for entry in benchmarks::suite_up_to(2000) {
            let c = entry.build().unwrap();
            let text = writer::to_bench(&c);
            let back = parse_bench(entry.name, &text).unwrap();
            assert_eq!(check_equiv(&c, &back), Ok(()), "{}", entry.name);
            assert_eq!(structural_hash(&c), structural_hash(&back), "{}", entry.name);
        }
    }

    #[test]
    fn gate_reordering_is_equivalent() {
        // The same netlist with gate lines declared in reverse order:
        // different NodeIds, identical structure.
        let fwd = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
u = AND(a, b)
v = OR(u, a)
y = XOR(u, v)
";
        let rev = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(u, v)
v = OR(u, a)
u = AND(a, b)
";
        let cf = parse_bench("fwd", fwd).unwrap();
        let cr = parse_bench("rev", rev).unwrap();
        assert_eq!(check_equiv(&cf, &cr), Ok(()));
        assert_eq!(structural_hash(&cf), structural_hash(&cr));
    }

    #[test]
    fn renaming_is_equivalent() {
        let orig = "INPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = NAND(a, q)\n";
        let renamed = "INPUT(in0)\nOUTPUT(out0)\nstate = DFF(out0)\nout0 = NAND(in0, state)\n";
        let a = parse_bench("orig", orig).unwrap();
        let b = parse_bench("renamed", renamed).unwrap();
        assert_eq!(check_equiv(&a, &b), Ok(()));
    }

    #[test]
    fn opcode_flip_is_rejected() {
        let and = parse_bench("a", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let nand = parse_bench("b", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n").unwrap();
        let err = check_equiv(&and, &nand).unwrap_err();
        assert_eq!(err.scope, "po-cone", "{err}");
        assert_ne!(structural_hash(&and), structural_hash(&nand));
    }

    #[test]
    fn swapped_fanins_on_asymmetric_cones_are_rejected() {
        // The gates are commutative, but the *cones* behind pin 0 and
        // pin 1 differ: swapping them changes the structure. The checker
        // is order-sensitive by design (sound, not complete).
        let ab = parse_bench("ab", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\ny = AND(n, b)\n")
            .unwrap();
        let ba = parse_bench("ba", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\ny = AND(b, n)\n")
            .unwrap();
        let err = check_equiv(&ab, &ba).unwrap_err();
        assert_eq!(err.scope, "po-cone", "{err}");
    }

    #[test]
    fn dff_cone_mutation_is_rejected() {
        let a =
            parse_bench("a", "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(d)\nd = OR(a, b)\n").unwrap();
        let b =
            parse_bench("b", "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(d)\nd = OR(a, a)\n").unwrap();
        let err = check_equiv(&a, &b).unwrap_err();
        assert_eq!(err.scope, "dff-cone", "{err}");
    }

    #[test]
    fn interface_mismatch_is_rejected() {
        let one = parse_bench("one", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let two = parse_bench("two", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let err = check_equiv(&one, &two).unwrap_err();
        assert_eq!(err.scope, "interface", "{err}");
        assert!(err.to_string().contains("inputs"), "{err}");
    }

    #[test]
    fn pi_position_swap_is_rejected() {
        // Same gates, PI declaration order swapped: vectors are
        // positional, so this is a different circuit.
        let ab = parse_bench("ab", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let ba = parse_bench("ba", "INPUT(b)\nINPUT(a)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        assert!(check_equiv(&ab, &ba).is_err());
    }

    #[test]
    fn self_feeding_state_terminates() {
        // q = DFF(q): the cut-point rule must stop the walk.
        let src = "INPUT(a)\nOUTPUT(y)\nq = DFF(q)\ny = AND(a, q)\n";
        let a = parse_bench("a", src).unwrap();
        let b = parse_bench("b", src).unwrap();
        assert_eq!(check_equiv(&a, &b), Ok(()));
    }

    #[test]
    fn fuzz_round_trips_are_equivalent() {
        for seed in 0..24 {
            let c = fuzz::fuzz_circuit(seed);
            let back = parse_bench("rt", &writer::to_bench(&c)).unwrap();
            assert_eq!(check_equiv(&c, &back), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn hash_is_name_insensitive_but_structure_sensitive() {
        let a = parse_bench("x", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let b = parse_bench("y", "INPUT(p)\nOUTPUT(q)\nq = NOT(p)\n").unwrap();
        assert_eq!(structural_hash(&a), structural_hash(&b));
        let c = parse_bench("z", "INPUT(p)\nOUTPUT(q)\nq = BUF(p)\n").unwrap();
        assert_ne!(structural_hash(&a), structural_hash(&c));
    }
}
