//! The compiled gate tape: a flat, cache-linear instruction form of a
//! [`Circuit`].
//!
//! The simulation engines' inner loop runs per gate, per vector, per
//! fault chunk — walking the [`Circuit`] node graph there means
//! dereferencing a heap-scattered [`Node`](crate::Node) (with its
//! `String` name and per-node fanin `Vec`) for every gate evaluation.
//! [`GateTape::compile`] flattens the netlist once into four contiguous
//! arrays:
//!
//! * `ops` — one byte-sized [`GateKind`] opcode per gate, in tape order;
//! * `gate_out` — the value-table slot (node index) each gate writes;
//! * `fanin_start`/`fanin` — CSR-layout fanin node indices: gate `g`
//!   reads `fanin[fanin_start[g]..fanin_start[g + 1]]`;
//!
//! plus pre-resolved `u32` index tables for the primary inputs, primary
//! outputs, flip-flop outputs and flip-flop D-sources. A simulator walks
//! the tape with zero pointer chasing: the per-gate metadata is ~13
//! contiguous bytes and names and `Vec` headers never enter the cache.
//!
//! **Tape order.** The tape is free to pick *any* topological order of
//! the gates — every such order computes identical values, because each
//! gate is evaluated exactly once from already-final fanins. `compile`
//! exploits that freedom: gates are levelized (level = longest distance
//! from a primary input or flip-flop) and, within each level, sorted by
//! opcode and arity class. Consecutive same-shaped gates form [`GateRun`]s
//! ([`GateTape::runs`]), so an engine dispatches on the opcode **once per
//! run** and then evaluates the whole run in a branch-free loop — instead
//! of taking an 8-way indirect branch per gate, which mispredicts heavily
//! on mixed-kind circuits.
//!
//! A tape is immutable and only meaningful for the circuit that produced
//! it; node indices on the tape are exactly [`NodeId::index`] values of
//! that circuit, so fault sites and value tables keyed by `NodeId` work
//! unchanged. [`GateTape::gate_pos`] maps a node index back to its tape
//! position, and [`GateTape::runs`] that position to its run, which is how
//! fault injectors find the runs a chunk's forces touch.

use crate::{Circuit, GateKind, NodeId, NodeKind};

/// The fanin-count class of a [`GateRun`]: runs are homogeneous in arity
/// so engines can pick a fixed-stride loop per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunArity {
    /// Every gate in the run has exactly one fanin (BUF/NOT).
    One,
    /// Every gate in the run has exactly two fanins — the overwhelming
    /// majority of `.bench` gates.
    Two,
    /// Gates with three or more fanins; engines fall back to a
    /// per-gate fold over the CSR window.
    Many,
}

/// A maximal range of consecutive tape positions holding gates of the
/// same [`GateKind`] and [`RunArity`] — the unit of engine dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateRun {
    /// The opcode shared by every gate in the run.
    pub kind: GateKind,
    /// The fanin-count class shared by every gate in the run.
    pub arity: RunArity,
    /// First tape position of the run (inclusive).
    pub start: u32,
    /// One past the last tape position of the run.
    pub end: u32,
}

/// A [`Circuit`] compiled into flat tape-order arrays.
///
/// # Example
///
/// ```
/// use bist_netlist::{benchmarks, GateTape};
///
/// let c = benchmarks::s27();
/// let tape = GateTape::compile(&c);
/// assert_eq!(tape.num_gates(), c.num_gates());
/// // Gate g reads its fanins from one contiguous CSR window, and the
/// // node it writes maps back to its tape position:
/// let out = tape.gate_out()[0] as usize;
/// assert_eq!(tape.gate_pos(out), Some(0));
/// assert!(!tape.fanin_of(0).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateTape {
    num_nodes: usize,
    /// Primary-input node indices, in declaration order.
    inputs: Vec<u32>,
    /// Primary-output node indices, in declaration order.
    outputs: Vec<u32>,
    /// Flip-flop output node indices, in declaration order.
    dffs: Vec<u32>,
    /// D-source node index of each flip-flop, aligned with `dffs`.
    dff_src: Vec<u32>,
    /// One opcode per gate, in tape order. `GateKind` is a fieldless
    /// enum, so this is a plain byte array.
    ops: Vec<GateKind>,
    /// The node index each gate writes, aligned with `ops`.
    gate_out: Vec<u32>,
    /// CSR offsets into `fanin`: gate `g` reads
    /// `fanin[fanin_start[g]..fanin_start[g + 1]]`. Length `gates + 1`.
    fanin_start: Vec<u32>,
    /// All gate fanin node indices, concatenated in tape order.
    fanin: Vec<u32>,
    /// Maximal same-kind/same-arity ranges of the tape, in order.
    runs: Vec<GateRun>,
    /// Tape position of each node's driving gate; `u32::MAX` for
    /// non-gate nodes (PIs and flip-flops).
    pos_of_node: Vec<u32>,
}

impl GateTape {
    /// Compiles `circuit` into its flat tape form: levelize, sort each
    /// level by opcode and arity class, lay the gates out contiguously
    /// and record the [`GateRun`] boundaries. `O(nodes log nodes)` —
    /// vanishingly cheap next to a single simulation pass; callers that
    /// simulate repeatedly should still compile once and share the tape.
    #[must_use]
    pub fn compile(circuit: &Circuit) -> Self {
        let num_nodes = circuit.num_nodes();
        let gate = |g: NodeId| -> (GateKind, &[NodeId]) {
            let node = circuit.node(g);
            let NodeKind::Gate(kind) = node.kind() else {
                unreachable!("eval_order contains only gates")
            };
            (*kind, node.fanin())
        };
        // Longest distance from a source (PI/DFF = 0). `eval_order` is
        // topological, so one forward pass settles every gate.
        let mut level = vec![0u32; num_nodes];
        for &g in circuit.eval_order() {
            let (_, fanins) = gate(g);
            level[g.index()] = 1 + fanins.iter().map(|f| level[f.index()]).max().unwrap_or(0);
        }
        let arity_class = |n: usize| -> u8 {
            match n {
                1 => 0,
                2 => 1,
                _ => 2,
            }
        };
        let mut order: Vec<NodeId> = circuit.eval_order().to_vec();
        // Stable sort: equal keys keep `eval_order`, so the tape is
        // deterministic for a given circuit.
        order.sort_by_key(|&g| {
            let (kind, fanins) = gate(g);
            (level[g.index()], kind as u8, arity_class(fanins.len()))
        });

        let gates = order.len();
        let mut ops = Vec::with_capacity(gates);
        let mut gate_out = Vec::with_capacity(gates);
        let mut fanin_start = Vec::with_capacity(gates + 1);
        let mut fanin = Vec::new();
        let mut runs: Vec<GateRun> = Vec::new();
        let mut pos_of_node = vec![u32::MAX; num_nodes];
        fanin_start.push(0u32);
        for (pos, &g) in order.iter().enumerate() {
            let (kind, gate_fanin) = gate(g);
            let arity = match gate_fanin.len() {
                1 => RunArity::One,
                2 => RunArity::Two,
                _ => RunArity::Many,
            };
            let pos = u32::try_from(pos).expect("gate count exceeds u32");
            match runs.last_mut() {
                Some(run) if run.kind == kind && run.arity == arity => run.end = pos + 1,
                _ => runs.push(GateRun { kind, arity, start: pos, end: pos + 1 }),
            }
            pos_of_node[g.index()] = pos;
            ops.push(kind);
            gate_out.push(g.0);
            fanin.extend(gate_fanin.iter().map(|f| f.0));
            fanin_start.push(u32::try_from(fanin.len()).expect("fanin count exceeds u32"));
        }
        let as_u32 = |ids: &[NodeId]| ids.iter().map(|id| id.0).collect::<Vec<u32>>();
        GateTape {
            num_nodes,
            inputs: as_u32(circuit.inputs()),
            outputs: as_u32(circuit.outputs()),
            dffs: as_u32(circuit.dffs()),
            dff_src: circuit.dffs().iter().map(|&d| circuit.node(d).fanin()[0].0).collect(),
            ops,
            gate_out,
            fanin_start,
            fanin,
            runs,
            pos_of_node,
        }
    }

    /// Total number of nodes (inputs + DFFs + gates) — the value-table
    /// size a simulator must allocate.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of D flip-flops.
    #[must_use]
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// Number of combinational gates.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.ops.len()
    }

    /// Primary-input node indices, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// Primary-output node indices, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// Flip-flop output node indices, in declaration order.
    #[must_use]
    pub fn dffs(&self) -> &[u32] {
        &self.dffs
    }

    /// D-source node index of each flip-flop, aligned with
    /// [`dffs`](Self::dffs).
    #[must_use]
    pub fn dff_src(&self) -> &[u32] {
        &self.dff_src
    }

    /// Gate opcodes in evaluation order.
    #[must_use]
    pub fn ops(&self) -> &[GateKind] {
        &self.ops
    }

    /// The node index each gate writes, aligned with [`ops`](Self::ops).
    #[must_use]
    pub fn gate_out(&self) -> &[u32] {
        &self.gate_out
    }

    /// CSR offsets into [`fanin`](Self::fanin); length
    /// [`num_gates`](Self::num_gates)` + 1`.
    #[must_use]
    pub fn fanin_start(&self) -> &[u32] {
        &self.fanin_start
    }

    /// All gate fanin node indices, concatenated in evaluation order.
    #[must_use]
    pub fn fanin(&self) -> &[u32] {
        &self.fanin
    }

    /// The fanin window of gate `g` (tape position, not node index).
    ///
    /// # Panics
    ///
    /// Panics if `g >= num_gates()`.
    #[inline]
    #[must_use]
    pub fn fanin_of(&self, g: usize) -> &[u32] {
        &self.fanin[self.fanin_start[g] as usize..self.fanin_start[g + 1] as usize]
    }

    /// The maximal same-kind/same-arity runs of the tape, in tape order.
    /// Together they partition `0..num_gates()`.
    #[must_use]
    pub fn runs(&self) -> &[GateRun] {
        &self.runs
    }

    /// The tape position of the gate driving `node`, or `None` if `node`
    /// is a primary input or flip-flop output (or out of range).
    #[inline]
    #[must_use]
    pub fn gate_pos(&self, node: usize) -> Option<usize> {
        match self.pos_of_node.get(node) {
            Some(&pos) if pos != u32::MAX => Some(pos as usize),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn tape_mirrors_the_node_graph() {
        for entry in benchmarks::suite_up_to(600) {
            let c = entry.build().unwrap();
            let tape = GateTape::compile(&c);
            assert_eq!(tape.num_nodes(), c.num_nodes());
            assert_eq!(tape.num_inputs(), c.num_inputs());
            assert_eq!(tape.num_outputs(), c.num_outputs());
            assert_eq!(tape.num_dffs(), c.num_dffs());
            assert_eq!(tape.num_gates(), c.num_gates());
            // Every gate appears exactly once on the tape, with its
            // circuit opcode and fanin list (tape order is free, so
            // positions need not match `eval_order`).
            let mut seen = vec![false; c.num_nodes()];
            for g in 0..tape.num_gates() {
                let id = crate::NodeId::from_index(tape.gate_out()[g] as usize);
                let node = c.node(id);
                assert!(!seen[id.index()], "{} drives two tape slots", entry.name);
                seen[id.index()] = true;
                assert_eq!(tape.gate_pos(id.index()), Some(g));
                assert_eq!(&NodeKind::Gate(tape.ops()[g]), node.kind());
                let fanin: Vec<usize> = tape.fanin_of(g).iter().map(|&f| f as usize).collect();
                let expect: Vec<usize> = node.fanin().iter().map(|f| f.index()).collect();
                assert_eq!(fanin, expect, "{} gate {g}", entry.name);
            }
            for &id in c.eval_order() {
                assert!(seen[id.index()], "{} missing gate {id:?}", entry.name);
            }
            for (k, &d) in c.dffs().iter().enumerate() {
                assert_eq!(tape.dffs()[k] as usize, d.index());
                assert_eq!(tape.dff_src()[k] as usize, c.node(d).fanin()[0].index());
                assert_eq!(tape.gate_pos(d.index()), None, "DFF is not a gate");
            }
            for &pi in c.inputs() {
                assert_eq!(tape.gate_pos(pi.index()), None, "PI is not a gate");
            }
        }
    }

    #[test]
    fn tape_order_is_topological() {
        // Each gate's fanins are sources or gates at earlier tape
        // positions — the property every single-sweep engine relies on.
        for entry in benchmarks::suite_up_to(600) {
            let c = entry.build().unwrap();
            let tape = GateTape::compile(&c);
            for g in 0..tape.num_gates() {
                for &f in tape.fanin_of(g) {
                    if let Some(src) = tape.gate_pos(f as usize) {
                        assert!(src < g, "{}: gate {g} reads gate {src}", entry.name);
                    }
                }
            }
        }
    }

    #[test]
    fn runs_partition_the_tape_homogeneously() {
        for entry in benchmarks::suite_up_to(600) {
            let c = entry.build().unwrap();
            let tape = GateTape::compile(&c);
            let mut next = 0u32;
            for run in tape.runs() {
                assert_eq!(run.start, next, "{}: runs must tile the tape", entry.name);
                assert!(run.end > run.start);
                for g in run.start as usize..run.end as usize {
                    assert_eq!(tape.ops()[g], run.kind);
                    let arity = match tape.fanin_of(g).len() {
                        1 => RunArity::One,
                        2 => RunArity::Two,
                        _ => RunArity::Many,
                    };
                    assert_eq!(arity, run.arity, "{} gate {g}", entry.name);
                }
                next = run.end;
            }
            assert_eq!(next as usize, tape.num_gates());
        }
    }

    #[test]
    fn csr_offsets_are_consistent() {
        let c = benchmarks::s27();
        let tape = GateTape::compile(&c);
        assert_eq!(tape.fanin_start().len(), tape.num_gates() + 1);
        assert_eq!(*tape.fanin_start().last().unwrap() as usize, tape.fanin().len());
        let total: usize = (0..tape.num_gates()).map(|g| tape.fanin_of(g).len()).sum();
        assert_eq!(total, tape.fanin().len());
        // Every fanin index is a valid node.
        assert!(tape.fanin().iter().all(|&f| (f as usize) < tape.num_nodes()));
    }

    #[test]
    fn tape_is_deterministic() {
        let c = benchmarks::s27();
        assert_eq!(GateTape::compile(&c), GateTape::compile(&c));
    }

    #[test]
    fn zero_gate_circuit_compiles_to_an_empty_program() {
        // POs wired straight to PIs/DFFs, no gates: the tape must be a
        // well-formed empty program, not a panic.
        let mut b = crate::CircuitBuilder::new("degenerate");
        b.add_input("a");
        b.add_dff("q", "a");
        b.add_output("a");
        b.add_output("q");
        let c = b.finish().unwrap();
        let tape = GateTape::compile(&c);
        assert_eq!(tape.num_gates(), 0);
        assert!(tape.runs().is_empty());
        assert_eq!(tape.fanin_start(), &[0]);
        assert!(tape.fanin().is_empty());
        assert_eq!(tape.outputs(), &[0, 1]);
        assert_eq!(tape.dff_src(), &[0]);
        assert_eq!(tape.gate_pos(0), None);
        // The fuzz generator's zero-gate class goes through the same path.
        let fz = crate::fuzz::fuzz_circuit(0);
        assert_eq!(GateTape::compile(&fz).num_gates(), 0);
    }
}
