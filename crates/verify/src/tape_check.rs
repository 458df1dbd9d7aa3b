//! Compiled-tape audit: proves a [`GateTape`] is a faithful, engine-safe
//! encoding of its source [`Circuit`].
//!
//! Every simulation engine walks the tape open-loop — no bounds checks
//! beyond the slice accesses, no re-validation of topological order. The
//! invariants they silently assume are exactly what [`verify_tape`]
//! checks:
//!
//! * **tables** — the PI/PO/DFF/D-source index tables are the circuit's,
//!   in declaration order;
//! * **csr** — `fanin_start` is monotone, sized `gates + 1`, ends at
//!   `fanin.len()`, and every fanin index is a valid node;
//! * **bijection** — tape gates ↔ circuit gates one-to-one, with matching
//!   opcode and pin-ordered fanin, and `gate_pos` as the inverse map;
//! * **order** — the tape is topological *and* level-monotone (the
//!   levelized schedule the run machinery was built around);
//! * **runs** — runs partition the tape homogeneously in kind and arity
//!   class.
//!
//! [`audit_tape`] wraps the check in a panic for use behind
//! `debug_assertions` at the compile sites ([`ArtifactCache`],
//! `FaultSimulator`, `Session`), so every debug test run audits every
//! tape for free while release builds pay nothing.
//!
//! [`ArtifactCache`]: https://docs.rs/bist-batch

use bist_netlist::{Circuit, GateTape, NodeId, NodeKind, RunArity};
use std::fmt;

/// A violated tape invariant.
///
/// `check` is a stable short name of the violated invariant family
/// (`"tables"`, `"csr"`, `"bijection"`, `"order"`, `"runs"`);
/// `detail` is a human-readable account of the specific failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeViolation {
    /// The invariant family that failed.
    pub check: &'static str,
    /// What exactly was wrong.
    pub detail: String,
}

impl TapeViolation {
    fn new(check: &'static str, detail: String) -> Self {
        TapeViolation { check, detail }
    }
}

impl fmt::Display for TapeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tape invariant `{}` violated: {}", self.check, self.detail)
    }
}

impl std::error::Error for TapeViolation {}

/// The arity class the run machinery assigns to a fanin count.
fn arity_class(n: usize) -> RunArity {
    match n {
        1 => RunArity::One,
        2 => RunArity::Two,
        _ => RunArity::Many,
    }
}

/// Audits `tape` against the `circuit` it claims to encode.
///
/// `O(nodes + fanin)` — cheap enough to run on every compile in debug
/// builds. Returns the first violation found; a tape produced by
/// [`GateTape::compile`] from the same circuit always passes.
///
/// # Errors
///
/// A [`TapeViolation`] naming the invariant family and the failing
/// gate/node.
pub fn verify_tape(circuit: &Circuit, tape: &GateTape) -> Result<(), TapeViolation> {
    let nodes = circuit.num_nodes();
    let gates = tape.num_gates();

    // --- tables ------------------------------------------------------
    if tape.num_nodes() != nodes {
        return Err(TapeViolation::new(
            "tables",
            format!("tape has {} nodes, circuit has {nodes}", tape.num_nodes()),
        ));
    }
    if gates != circuit.num_gates() {
        return Err(TapeViolation::new(
            "tables",
            format!("tape has {gates} gates, circuit has {}", circuit.num_gates()),
        ));
    }
    let table_eq = |label: &str, got: &[u32], want: &[NodeId]| -> Result<(), TapeViolation> {
        if got.len() != want.len() || got.iter().zip(want).any(|(&g, w)| g as usize != w.index()) {
            return Err(TapeViolation::new(
                "tables",
                format!("{label} table does not match the circuit's declaration order"),
            ));
        }
        Ok(())
    };
    table_eq("input", tape.inputs(), circuit.inputs())?;
    table_eq("output", tape.outputs(), circuit.outputs())?;
    table_eq("dff", tape.dffs(), circuit.dffs())?;
    if tape.dff_src().len() != circuit.num_dffs() {
        return Err(TapeViolation::new(
            "tables",
            format!("dff_src has {} entries for {} dffs", tape.dff_src().len(), circuit.num_dffs()),
        ));
    }
    for (k, &d) in circuit.dffs().iter().enumerate() {
        let want = circuit.node(d).fanin()[0].index();
        if tape.dff_src()[k] as usize != want {
            return Err(TapeViolation::new(
                "tables",
                format!(
                    "dff {k} d-source is node {} on the tape, {want} in the circuit",
                    tape.dff_src()[k]
                ),
            ));
        }
    }

    // --- csr ---------------------------------------------------------
    let starts = tape.fanin_start();
    if starts.len() != gates + 1 {
        return Err(TapeViolation::new(
            "csr",
            format!("fanin_start has {} entries for {gates} gates", starts.len()),
        ));
    }
    if starts.first() != Some(&0) {
        return Err(TapeViolation::new("csr", "fanin_start does not begin at 0".to_string()));
    }
    if let Some(g) = starts.windows(2).position(|w| w[0] > w[1]) {
        return Err(TapeViolation::new("csr", format!("fanin_start decreases at gate {g}")));
    }
    if *starts.last().expect("nonempty") as usize != tape.fanin().len() {
        return Err(TapeViolation::new(
            "csr",
            format!(
                "fanin_start ends at {} but fanin holds {} entries",
                starts.last().expect("nonempty"),
                tape.fanin().len()
            ),
        ));
    }
    if let Some(&f) = tape.fanin().iter().find(|&&f| f as usize >= nodes) {
        return Err(TapeViolation::new(
            "csr",
            format!("fanin references node {f}, but the circuit has {nodes} nodes"),
        ));
    }
    if tape.ops().len() != gates || tape.gate_out().len() != gates {
        return Err(TapeViolation::new(
            "csr",
            "ops / gate_out length disagrees with the gate count".to_string(),
        ));
    }

    // --- bijection ---------------------------------------------------
    let mut seen = vec![false; nodes];
    for g in 0..gates {
        let out = tape.gate_out()[g] as usize;
        if out >= nodes {
            return Err(TapeViolation::new(
                "bijection",
                format!("gate {g} writes node {out}, out of range"),
            ));
        }
        let id = NodeId::from_index(out);
        let node = circuit.node(id);
        let NodeKind::Gate(kind) = node.kind() else {
            return Err(TapeViolation::new(
                "bijection",
                format!("gate {g} writes `{}`, which is not a gate node", node.name()),
            ));
        };
        if seen[out] {
            return Err(TapeViolation::new(
                "bijection",
                format!("node `{}` is driven by two tape positions", node.name()),
            ));
        }
        seen[out] = true;
        if tape.ops()[g] != *kind {
            return Err(TapeViolation::new(
                "bijection",
                format!(
                    "gate {g} (`{}`) has opcode {:?} on the tape, {kind:?} in the circuit",
                    node.name(),
                    tape.ops()[g]
                ),
            ));
        }
        let fanin = tape.fanin_of(g);
        if fanin.len() != node.fanin().len()
            || fanin.iter().zip(node.fanin()).any(|(&f, w)| f as usize != w.index())
        {
            return Err(TapeViolation::new(
                "bijection",
                format!("gate {g} (`{}`) fanin window disagrees with the circuit", node.name()),
            ));
        }
        if tape.gate_pos(out) != Some(g) {
            return Err(TapeViolation::new(
                "bijection",
                format!("gate_pos(`{}`) does not invert gate_out", node.name()),
            ));
        }
    }
    for &g in circuit.eval_order() {
        if !seen[g.index()] {
            return Err(TapeViolation::new(
                "bijection",
                format!("circuit gate `{}` is missing from the tape", circuit.node(g).name()),
            ));
        }
    }
    for &id in circuit.inputs().iter().chain(circuit.dffs()) {
        if tape.gate_pos(id.index()).is_some() {
            return Err(TapeViolation::new(
                "bijection",
                format!("non-gate node `{}` has a tape position", circuit.node(id).name()),
            ));
        }
    }

    // --- order -------------------------------------------------------
    // Topological: every gate fanin that is itself a gate was evaluated
    // at an earlier position. Level-monotone: positions never decrease
    // in circuit level (the levelized schedule runs assume).
    let mut prev_level = 0u32;
    for g in 0..gates {
        for &f in tape.fanin_of(g) {
            if let Some(src) = tape.gate_pos(f as usize) {
                if src >= g {
                    return Err(TapeViolation::new(
                        "order",
                        format!("gate {g} reads gate {src} before it is evaluated"),
                    ));
                }
            }
        }
        let level = circuit.level(NodeId::from_index(tape.gate_out()[g] as usize));
        if level < prev_level {
            return Err(TapeViolation::new(
                "order",
                format!("tape level decreases at gate {g} ({prev_level} -> {level})"),
            ));
        }
        prev_level = level;
    }

    // --- runs --------------------------------------------------------
    let mut next = 0u32;
    for (i, run) in tape.runs().iter().enumerate() {
        if run.start != next || run.end <= run.start {
            return Err(TapeViolation::new(
                "runs",
                format!("run {i} [{}, {}) does not tile the tape at {next}", run.start, run.end),
            ));
        }
        for g in run.start as usize..run.end as usize {
            if tape.ops()[g] != run.kind || arity_class(tape.fanin_of(g).len()) != run.arity {
                return Err(TapeViolation::new(
                    "runs",
                    format!("gate {g} breaks the homogeneity of run {i}"),
                ));
            }
        }
        next = run.end;
    }
    if next as usize != gates {
        return Err(TapeViolation::new("runs", format!("runs cover {next} of {gates} gates")));
    }

    Ok(())
}

/// Panics if `tape` is not a faithful encoding of `circuit`.
///
/// The `debug_assertions` hook for compile sites:
///
/// ```ignore
/// let tape = GateTape::compile(&circuit);
/// #[cfg(debug_assertions)]
/// bist_verify::audit_tape(&circuit, &tape);
/// ```
///
/// # Panics
///
/// On the first [`TapeViolation`], with its message.
pub fn audit_tape(circuit: &Circuit, tape: &GateTape) {
    if let Err(v) = verify_tape(circuit, tape) {
        panic!("{} (circuit `{}`)", v, circuit.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_netlist::{benchmarks, fuzz, CircuitBuilder};

    #[test]
    fn compiled_tapes_verify_on_the_suite() {
        for entry in benchmarks::suite() {
            let c = entry.build().unwrap();
            let tape = GateTape::compile(&c);
            assert_eq!(verify_tape(&c, &tape), Ok(()), "{}", entry.name);
            audit_tape(&c, &tape);
        }
    }

    #[test]
    fn compiled_tapes_verify_on_fuzz_shapes() {
        // One representative of each generator shape class, including the
        // zero-gate tape.
        for seed in 0..16 {
            let c = fuzz::fuzz_circuit(seed);
            let tape = GateTape::compile(&c);
            assert_eq!(verify_tape(&c, &tape), Ok(()), "seed {seed}");
        }
    }

    /// Two same-shape circuits (identical node counts and tables) whose
    /// gates differ — the O(1) shape fingerprint used by the simulator
    /// cannot tell them apart, the auditor must.
    fn xor_pair() -> (Circuit, Circuit) {
        let build = |kind: &str| {
            let mut b = CircuitBuilder::new("pair");
            b.add_input("a");
            b.add_input("b");
            b.add_gate("y", kind.parse().unwrap(), ["a", "b"]);
            b.add_output("y");
            b.finish().unwrap()
        };
        (build("XOR"), build("NAND"))
    }

    #[test]
    fn opcode_mismatch_is_caught() {
        let (xor, nand) = xor_pair();
        let tape = GateTape::compile(&nand);
        let v = verify_tape(&xor, &tape).unwrap_err();
        assert_eq!(v.check, "bijection", "{v}");
        assert!(v.to_string().contains("opcode"), "{v}");
    }

    #[test]
    fn fanin_mismatch_is_caught() {
        let build = |pins: [&str; 2]| {
            let mut b = CircuitBuilder::new("pair");
            b.add_input("a");
            b.add_input("b");
            b.add_gate("y", "NAND".parse().unwrap(), pins);
            b.add_output("y");
            b.finish().unwrap()
        };
        let ab = build(["a", "b"]);
        let ba = build(["b", "a"]);
        let tape = GateTape::compile(&ba);
        let v = verify_tape(&ab, &tape).unwrap_err();
        assert_eq!(v.check, "bijection", "{v}");
        assert!(v.detail.contains("fanin"), "{v}");
    }

    #[test]
    fn table_mismatch_is_caught() {
        // Same node count, outputs table points elsewhere.
        let build = |out: &str| {
            let mut b = CircuitBuilder::new("pair");
            b.add_input("a");
            b.add_input("b");
            b.add_gate("y", "AND".parse().unwrap(), ["a", "b"]);
            b.add_output(out);
            b.add_output("y");
            b.finish().unwrap()
        };
        let c1 = build("a");
        let c2 = build("b");
        let tape = GateTape::compile(&c2);
        let v = verify_tape(&c1, &tape).unwrap_err();
        assert_eq!(v.check, "tables", "{v}");
    }

    #[test]
    fn gate_count_mismatch_is_caught() {
        let s27 = benchmarks::s27();
        let (xor, _) = xor_pair();
        let v = verify_tape(&s27, &GateTape::compile(&xor)).unwrap_err();
        assert_eq!(v.check, "tables");
        // And the panicking wrapper actually panics.
        let err = std::panic::catch_unwind(|| audit_tape(&s27, &GateTape::compile(&xor)));
        assert!(err.is_err());
    }

    #[test]
    fn dff_source_mismatch_is_caught() {
        let build = |src: &str| {
            let mut b = CircuitBuilder::new("pair");
            b.add_input("a");
            b.add_input("b");
            b.add_gate("g", "OR".parse().unwrap(), ["a", "b"]);
            b.add_dff("q", src);
            b.add_output("q");
            b.add_output("g");
            b.finish().unwrap()
        };
        let from_a = build("a");
        let from_b = build("b");
        let v = verify_tape(&from_a, &GateTape::compile(&from_b)).unwrap_err();
        assert_eq!(v.check, "tables", "{v}");
        assert!(v.detail.contains("d-source"), "{v}");
    }

    #[test]
    fn violation_display_names_the_check() {
        let v = TapeViolation::new("order", "gate 3 reads gate 7".to_string());
        let s = v.to_string();
        assert!(s.contains("order") && s.contains("gate 3"), "{s}");
    }
}
