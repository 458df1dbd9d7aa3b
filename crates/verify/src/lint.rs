//! Netlist lint: structural diagnostics over `.bench` sources and
//! validated circuits.
//!
//! Two entry points share one code table:
//!
//! * [`lint_source`] runs on raw `.bench` text via the lenient
//!   [`parse_bench_raw`] layer, so
//!   it can *diagnose* netlists the strict parser would refuse —
//!   duplicate drivers, combinational cycles, undriven nets, degenerate
//!   arities — instead of stopping at the first defect. Only outright
//!   syntax junk (unparseable lines, unknown gate kinds) is an error.
//! * [`lint_circuit`] runs on an already-validated
//!   [`Circuit`]. Construction has excluded the
//!   error-class defects, so only the warning-class analyses (dead
//!   logic, duplicate fanin, constant always-X nets, duplicate cones)
//!   can fire.
//!
//! Every diagnostic carries a stable [`LintCode`] (`L001`…), a
//! [`Severity`] and the offending net names. "Lint-clean" means **no
//! error-severity diagnostics** ([`is_clean`]): warnings flag dead or
//! redundant structure that simulates fine — the fuzz corpus
//! deliberately contains such shapes.

use bist_netlist::parser::{parse_bench, parse_bench_raw, RawStatement};
use bist_netlist::{Circuit, GateKind, NetlistError, NodeId, NodeKind};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The netlist violates an invariant every engine assumes; the strict
    /// parser/builder would reject it.
    Error,
    /// Dead or redundant structure: legal to build and simulate, but
    /// almost certainly not what the author meant.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// Stable lint code. The `L0xx` string form is the public contract —
/// JSONL consumers and the dirty fuzz generator key on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `L001` — combinational cycle not broken by a flip-flop.
    CombinationalCycle,
    /// `L002` — a signal is read but never driven.
    UndrivenNet,
    /// `L003` — a signal is defined more than once.
    DuplicateDriver,
    /// `L004` — degenerate fanin: arity-0 gate, multi-input NOT/BUF/DFF,
    /// or a single-input AND/OR/XOR-class gate.
    DegenerateFanin,
    /// `L005` — a combinational gate reads its own output.
    SelfDrivingNet,
    /// `L006` — a primary input is also driven by a gate or flip-flop.
    InputDriven,
    /// `L007` — `OUTPUT(x)` references a signal that is never defined.
    UnknownOutput,
    /// `L008` — a gate that cannot reach any primary output (through any
    /// number of flip-flops); its value is computed and discarded.
    DanglingGate,
    /// `L009` — a flip-flop that cannot reach any primary output: state
    /// that is clocked but never observed.
    UnreachableDff,
    /// `L010` — a primary input that cannot reach any primary output.
    UnusedInput,
    /// `L011` — a gate lists the same fanin signal twice.
    DuplicateFanin,
    /// `L012` — the netlist declares no primary inputs.
    NoInputs,
    /// `L013` — the netlist declares no primary outputs.
    NoOutputs,
    /// `L014` — a gate or flip-flop whose value can never leave `X`
    /// under the pessimistic 3-valued semantics (a member of the
    /// always-X closure): logic that computes nothing observable.
    ConstantGate,
    /// `L015` — a pair of gates computing the identical function (same
    /// opcode over the same nets, after buffer/same-fanin forwarding):
    /// one of the two is redundant.
    DuplicateCone,
}

impl LintCode {
    /// All codes, in code order — the public catalogue.
    pub const ALL: [LintCode; 15] = [
        LintCode::CombinationalCycle,
        LintCode::UndrivenNet,
        LintCode::DuplicateDriver,
        LintCode::DegenerateFanin,
        LintCode::SelfDrivingNet,
        LintCode::InputDriven,
        LintCode::UnknownOutput,
        LintCode::DanglingGate,
        LintCode::UnreachableDff,
        LintCode::UnusedInput,
        LintCode::DuplicateFanin,
        LintCode::NoInputs,
        LintCode::NoOutputs,
        LintCode::ConstantGate,
        LintCode::DuplicateCone,
    ];

    /// The stable `L0xx` string form.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            LintCode::CombinationalCycle => "L001",
            LintCode::UndrivenNet => "L002",
            LintCode::DuplicateDriver => "L003",
            LintCode::DegenerateFanin => "L004",
            LintCode::SelfDrivingNet => "L005",
            LintCode::InputDriven => "L006",
            LintCode::UnknownOutput => "L007",
            LintCode::DanglingGate => "L008",
            LintCode::UnreachableDff => "L009",
            LintCode::UnusedInput => "L010",
            LintCode::DuplicateFanin => "L011",
            LintCode::NoInputs => "L012",
            LintCode::NoOutputs => "L013",
            LintCode::ConstantGate => "L014",
            LintCode::DuplicateCone => "L015",
        }
    }

    /// The fixed severity of this code.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            LintCode::CombinationalCycle
            | LintCode::UndrivenNet
            | LintCode::DuplicateDriver
            | LintCode::DegenerateFanin
            | LintCode::SelfDrivingNet
            | LintCode::InputDriven
            | LintCode::UnknownOutput
            | LintCode::NoInputs
            | LintCode::NoOutputs => Severity::Error,
            LintCode::DanglingGate
            | LintCode::UnreachableDff
            | LintCode::UnusedInput
            | LintCode::DuplicateFanin
            | LintCode::ConstantGate
            | LintCode::DuplicateCone => Severity::Warning,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One lint finding: a stable code plus the offending nets and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code (severity is a property of the code).
    pub code: LintCode,
    /// Human-readable description, lowercase, one line.
    pub message: String,
    /// The offending net/gate names, sorted and deduplicated.
    pub nets: Vec<String>,
}

impl Diagnostic {
    /// The severity of this diagnostic (fixed per code).
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    fn new(code: LintCode, message: String, mut nets: Vec<String>) -> Self {
        nets.sort();
        nets.dedup();
        Diagnostic { code, message, nets }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.severity(), self.code, self.message)
    }
}

/// `true` if `diags` contains no error-severity diagnostics.
///
/// Warnings (dead logic, duplicate fanin) do not make a netlist dirty:
/// the fuzz corpus deliberately produces such shapes and every engine
/// simulates them correctly.
#[must_use]
pub fn is_clean(diags: &[Diagnostic]) -> bool {
    diags.iter().all(|d| d.severity() != Severity::Error)
}

/// What a signal is defined as, in the raw statement stream.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DefKind {
    Input,
    Dff,
    Gate(GateKind),
}

/// Lints raw `.bench` text.
///
/// Structural defects become [`Diagnostic`]s; only syntactic junk is an
/// error. Diagnostics are sorted by code, then nets — deterministic for
/// a given source.
///
/// # Errors
///
/// Propagates [`NetlistError::ParseLine`] / [`NetlistError::UnknownGate`]
/// from the raw tokenizer; nothing else.
pub fn lint_source(source: &str) -> Result<Vec<Diagnostic>, NetlistError> {
    let statements = parse_bench_raw(source)?;
    let mut diags: Vec<Diagnostic> = Vec::new();

    // --- definition table (first definition wins for graph analyses) ---
    let mut def_lines: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut first_def: HashMap<&str, &RawStatement> = HashMap::new();
    let mut inputs: Vec<&str> = Vec::new();
    let mut outputs: Vec<(&str, usize)> = Vec::new();
    for raw in &statements {
        match &raw.stmt {
            RawStatement::Output(name) => outputs.push((name, raw.line)),
            stmt => {
                let name = stmt.defined().expect("non-OUTPUT statements define a signal");
                def_lines.entry(name).or_default().push(raw.line);
                first_def.entry(name).or_insert(stmt);
                if matches!(stmt, RawStatement::Input(_)) {
                    inputs.push(name);
                }
            }
        }
    }

    // L003 duplicate driver / L006 input driven. A signal that is both an
    // INPUT and gate-driven is the dedicated L006, not a generic L003.
    for (name, lines) in &def_lines {
        if lines.len() < 2 {
            continue;
        }
        let kinds: Vec<DefKind> = statements
            .iter()
            .filter(|r| r.stmt.defined() == Some(name))
            .map(|r| match &r.stmt {
                RawStatement::Input(_) => DefKind::Input,
                RawStatement::Dff { .. } => DefKind::Dff,
                RawStatement::Gate { kind, .. } => DefKind::Gate(*kind),
                RawStatement::Output(_) => unreachable!("outputs define nothing"),
            })
            .collect();
        let mixed = kinds.contains(&DefKind::Input) && kinds.iter().any(|k| *k != DefKind::Input);
        let lines_str = lines.iter().map(usize::to_string).collect::<Vec<_>>().join(", ");
        if mixed {
            diags.push(Diagnostic::new(
                LintCode::InputDriven,
                format!("primary input `{name}` is also driven (lines {lines_str})"),
                vec![(*name).to_string()],
            ));
        } else {
            diags.push(Diagnostic::new(
                LintCode::DuplicateDriver,
                format!("signal `{name}` has {} definitions (lines {lines_str})", lines.len()),
                vec![(*name).to_string()],
            ));
        }
    }

    // L005 self-driving gates, L004 degenerate fanin, L011 duplicate
    // fanin, L002 undriven references — one sweep over the statements.
    let mut undriven: BTreeSet<&str> = BTreeSet::new();
    for raw in &statements {
        match &raw.stmt {
            RawStatement::Input(_) | RawStatement::Output(_) => {}
            RawStatement::Dff { q, d } => {
                if d.len() != 1 {
                    diags.push(Diagnostic::new(
                        LintCode::DegenerateFanin,
                        format!("dff `{q}` has {} d-inputs on line {} (want 1)", d.len(), raw.line),
                        vec![q.clone()],
                    ));
                }
                for src in d {
                    if !def_lines.contains_key(src.as_str()) {
                        undriven.insert(src);
                    }
                }
            }
            RawStatement::Gate { out, kind, fanin } => {
                let want_one = matches!(kind, GateKind::Not | GateKind::Buf);
                let degenerate = fanin.is_empty()
                    || (want_one && fanin.len() != 1)
                    || (!want_one && fanin.len() < 2);
                if degenerate {
                    diags.push(Diagnostic::new(
                        LintCode::DegenerateFanin,
                        format!(
                            "gate `{out}` of kind {kind} has {} fanins on line {}",
                            fanin.len(),
                            raw.line
                        ),
                        vec![out.clone()],
                    ));
                }
                if fanin.iter().any(|f| f == out) {
                    diags.push(Diagnostic::new(
                        LintCode::SelfDrivingNet,
                        format!("gate `{out}` reads its own output on line {}", raw.line),
                        vec![out.clone()],
                    ));
                }
                let mut seen: HashSet<&str> = HashSet::new();
                let mut dup: BTreeSet<&str> = BTreeSet::new();
                for f in fanin {
                    if !seen.insert(f) {
                        dup.insert(f);
                    }
                    if !def_lines.contains_key(f.as_str()) {
                        undriven.insert(f);
                    }
                }
                if !dup.is_empty() {
                    let mut nets = vec![out.clone()];
                    nets.extend(dup.iter().map(|s| (*s).to_string()));
                    diags.push(Diagnostic::new(
                        LintCode::DuplicateFanin,
                        format!("gate `{out}` lists a fanin more than once on line {}", raw.line),
                        nets,
                    ));
                }
            }
        }
    }
    for name in &undriven {
        diags.push(Diagnostic::new(
            LintCode::UndrivenNet,
            format!("signal `{name}` is read but never driven"),
            vec![(*name).to_string()],
        ));
    }

    // L007 unknown outputs.
    for (name, line) in &outputs {
        if !def_lines.contains_key(name) {
            diags.push(Diagnostic::new(
                LintCode::UnknownOutput,
                format!("output `{name}` on line {line} is never defined"),
                vec![(*name).to_string()],
            ));
        }
    }

    // L012 / L013.
    if inputs.is_empty() {
        diags.push(Diagnostic::new(
            LintCode::NoInputs,
            "netlist declares no primary inputs".to_string(),
            Vec::new(),
        ));
    }
    if outputs.is_empty() {
        diags.push(Diagnostic::new(
            LintCode::NoOutputs,
            "netlist declares no primary outputs".to_string(),
            Vec::new(),
        ));
    }

    // L001 combinational cycles: Kahn's algorithm over gate→gate edges
    // (flip-flops break cycles; undefined fanins have no edge). Forward
    // Kahn leaves the gates on or downstream of a cycle; a reverse Kahn
    // over the leftover subgraph then prunes the downstream tail, so the
    // reported nets are exactly the cyclic structure. `O(V + E)`.
    let gates: Vec<(&str, &Vec<String>)> = first_def
        .iter()
        .filter_map(|(n, s)| match s {
            RawStatement::Gate { fanin, .. } => Some((*n, fanin)),
            _ => None,
        })
        .collect();
    let gate_idx: HashMap<&str, usize> =
        gates.iter().enumerate().map(|(i, (n, _))| (*n, i)).collect();
    // consumers[f] = gate indices reading gate f; indeg[g] = gate fanins.
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); gates.len()];
    let mut indeg: Vec<usize> = vec![0; gates.len()];
    for (g, (_, fanin)) in gates.iter().enumerate() {
        for f in *fanin {
            if let Some(&src) = gate_idx.get(f.as_str()) {
                consumers[src].push(g);
                indeg[g] += 1;
            }
        }
    }
    let mut alive = vec![true; gates.len()];
    let mut queue: Vec<usize> = (0..gates.len()).filter(|&g| indeg[g] == 0).collect();
    while let Some(g) = queue.pop() {
        alive[g] = false;
        for &c in &consumers[g] {
            indeg[c] -= 1;
            if indeg[c] == 0 {
                queue.push(c);
            }
        }
    }
    // Reverse prune within the leftover subgraph.
    let mut outdeg: Vec<usize> = vec![0; gates.len()];
    for g in (0..gates.len()).filter(|&g| alive[g]) {
        outdeg[g] = consumers[g].iter().filter(|&&c| alive[c]).count();
    }
    let mut queue: Vec<usize> = (0..gates.len()).filter(|&g| alive[g] && outdeg[g] == 0).collect();
    while let Some(g) = queue.pop() {
        alive[g] = false;
        for f in gates[g].1 {
            if let Some(&src) = gate_idx.get(f.as_str()) {
                if alive[src] {
                    outdeg[src] -= 1;
                    if outdeg[src] == 0 {
                        queue.push(src);
                    }
                }
            }
        }
    }
    let cyclic: Vec<String> =
        (0..gates.len()).filter(|&g| alive[g]).map(|g| gates[g].0.to_string()).collect();
    if !cyclic.is_empty() {
        diags.push(Diagnostic::new(
            LintCode::CombinationalCycle,
            format!("combinational cycle through {} gate(s)", cyclic.len()),
            cyclic,
        ));
    }

    // Warning-class liveness (dead logic). Only meaningful when the graph
    // itself is sound — on an error-ridden netlist reachability over a
    // half-defined graph produces noise, so skip it.
    if is_clean(&diags) {
        let live = live_set_raw(&first_def, &outputs);
        push_dead_logic(
            &mut diags,
            first_def.iter().map(|(n, s)| {
                let kind = match s {
                    RawStatement::Input(_) => DefKind::Input,
                    RawStatement::Dff { .. } => DefKind::Dff,
                    RawStatement::Gate { kind, .. } => DefKind::Gate(*kind),
                    RawStatement::Output(_) => unreachable!("outputs define nothing"),
                };
                (*n, kind, live.contains(n))
            }),
        );
        // The structure warnings (L014/L015) need a validated
        // graph; a clean raw lint is exactly what the strict parser
        // accepts, so parse failure only means there is nothing to add.
        if let Ok(circuit) = parse_bench("lint", source) {
            push_structure_warnings(&mut diags, &circuit);
        }
    }

    diags.sort_by(|a, b| (a.code, &a.nets, &a.message).cmp(&(b.code, &b.nets, &b.message)));
    Ok(diags)
}

/// Backward closure from the primary outputs over the raw graph,
/// traversing flip-flops into their D-sources.
fn live_set_raw<'a>(
    first_def: &HashMap<&'a str, &'a RawStatement>,
    outputs: &[(&'a str, usize)],
) -> HashSet<&'a str> {
    let mut live: HashSet<&str> = HashSet::new();
    let mut work: Vec<&str> = outputs.iter().map(|(n, _)| *n).collect();
    while let Some(name) = work.pop() {
        if !live.insert(name) {
            continue;
        }
        match first_def.get(name) {
            Some(RawStatement::Gate { fanin, .. }) => work.extend(fanin.iter().map(String::as_str)),
            Some(RawStatement::Dff { d, .. }) => work.extend(d.iter().map(String::as_str)),
            _ => {}
        }
    }
    live
}

/// Emits L008/L009/L010 from `(name, kind, live)` triples.
fn push_dead_logic<'a>(
    diags: &mut Vec<Diagnostic>,
    nodes: impl Iterator<Item = (&'a str, DefKind, bool)>,
) {
    let mut dead_gates: Vec<String> = Vec::new();
    let mut dead_dffs: Vec<String> = Vec::new();
    let mut dead_inputs: Vec<String> = Vec::new();
    for (name, kind, live) in nodes {
        if live {
            continue;
        }
        match kind {
            DefKind::Gate(_) => dead_gates.push(name.to_string()),
            DefKind::Dff => dead_dffs.push(name.to_string()),
            DefKind::Input => dead_inputs.push(name.to_string()),
        }
    }
    if !dead_gates.is_empty() {
        diags.push(Diagnostic::new(
            LintCode::DanglingGate,
            format!("{} gate(s) cannot reach any primary output", dead_gates.len()),
            dead_gates,
        ));
    }
    if !dead_dffs.is_empty() {
        diags.push(Diagnostic::new(
            LintCode::UnreachableDff,
            format!("{} flip-flop(s) cannot reach any primary output", dead_dffs.len()),
            dead_dffs,
        ));
    }
    if !dead_inputs.is_empty() {
        diags.push(Diagnostic::new(
            LintCode::UnusedInput,
            format!("{} primary input(s) cannot reach any primary output", dead_inputs.len()),
            dead_inputs,
        ));
    }
}

/// The always-X closure of `circuit`: index-aligned flags marking every
/// node whose value can never leave `X` under the pessimistic 3-valued
/// semantics (all state starts `X`; a DFF is in the closure iff its
/// D-source is, an AND/NAND/OR/NOR/BUF/NOT iff *all* fanins are, an
/// XOR/XNOR iff *any* fanin is) — the greatest fixpoint of that rule.
/// Boolean constants (`OR(a, NOT a)`) are deliberately not members:
/// under pessimistic 3-valued evaluation `X OR X = X`, so the always-X
/// closure is the only sound "constant" domain.
fn always_x_closure(circuit: &Circuit) -> Vec<bool> {
    let n = circuit.num_nodes();
    let fanout = circuit.fanout_table();
    let mut in_closure: Vec<bool> =
        circuit.nodes().iter().map(|node| !matches!(node.kind(), NodeKind::Input)).collect();
    let holds = |i: usize, in_closure: &[bool]| -> bool {
        let node = circuit.node(NodeId::from_index(i));
        match node.kind() {
            NodeKind::Input => false,
            NodeKind::Dff => in_closure[node.fanin()[0].index()],
            NodeKind::Gate(GateKind::Xor | GateKind::Xnor) => {
                node.fanin().iter().any(|f| in_closure[f.index()])
            }
            NodeKind::Gate(_) => node.fanin().iter().all(|f| in_closure[f.index()]),
        }
    };
    // Remove nodes whose membership rule fails until stable; removal
    // re-queues the node's consumers, so the sweep is O(edges · arity).
    let mut work: Vec<usize> = (0..n).collect();
    while let Some(i) = work.pop() {
        if in_closure[i] && !holds(i, &in_closure) {
            in_closure[i] = false;
            for r in &fanout[i] {
                if in_closure[r.node.index()] {
                    work.push(r.node.index());
                }
            }
        }
    }
    in_closure
}

/// `(duplicate, representative)` pairs of gates computing identical
/// functions: hash-consing on `(opcode, fanin list)` after value
/// forwarding (`BUF(a) → a`, and `AND`/`OR` whose fanins are all one
/// node) in one topological sweep. Gates driving primary outputs are
/// included: a redundant cone is worth reporting wherever it sits.
fn duplicate_cone_pairs(circuit: &Circuit) -> Vec<(NodeId, NodeId)> {
    let mut forward: Vec<NodeId> = (0..circuit.num_nodes()).map(NodeId::from_index).collect();
    let mut representative: HashMap<(GateKind, Vec<NodeId>), NodeId> = HashMap::new();
    let mut pairs = Vec::new();
    for &g in circuit.eval_order() {
        let node = circuit.node(g);
        let NodeKind::Gate(kind) = node.kind() else {
            unreachable!("eval_order contains only gates")
        };
        let subst: Vec<NodeId> = node.fanin().iter().map(|f| forward[f.index()]).collect();
        let forwardable = match kind {
            GateKind::Buf => true,
            GateKind::And | GateKind::Or => subst.iter().all(|&f| f == subst[0]),
            _ => false,
        };
        if forwardable {
            forward[g.index()] = subst[0];
            continue;
        }
        match representative.entry((*kind, subst)) {
            Entry::Occupied(e) => {
                let rep = *e.get();
                forward[g.index()] = rep;
                pairs.push((g, rep));
            }
            Entry::Vacant(e) => {
                e.insert(g);
            }
        }
    }
    pairs
}

/// Emits L014 from the always-X closure and L015 from the duplicate-cone
/// pairs.
fn push_structure_warnings(diags: &mut Vec<Diagnostic>, circuit: &Circuit) {
    let constant = always_x_closure(circuit);
    let nets: Vec<String> = circuit
        .nodes()
        .iter()
        .zip(&constant)
        .filter(|(_, in_closure)| **in_closure)
        .map(|(node, _)| node.name().to_string())
        .collect();
    if !nets.is_empty() {
        diags.push(Diagnostic::new(
            LintCode::ConstantGate,
            format!("{} net(s) can never leave X under 3-valued simulation", nets.len()),
            nets,
        ));
    }
    for (dup, rep) in duplicate_cone_pairs(circuit) {
        let (dup, rep) = (circuit.node(dup).name(), circuit.node(rep).name());
        diags.push(Diagnostic::new(
            LintCode::DuplicateCone,
            format!("gate `{dup}` computes the same function as `{rep}`"),
            vec![dup.to_string(), rep.to_string()],
        ));
    }
}

/// Lints a validated [`Circuit`].
///
/// Construction already excludes every error-class defect, so only the
/// warning-class analyses can fire: dangling gates (L008), unreachable
/// flip-flops (L009), unused inputs (L010), duplicate fanin (L011),
/// constant always-X nets (L014) and duplicate cones (L015).
/// An empty result means the circuit is free of dead logic too.
#[must_use]
pub fn lint_circuit(circuit: &Circuit) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();

    // L011 duplicate fanin.
    for &g in circuit.eval_order() {
        let node = circuit.node(g);
        let mut seen = HashSet::new();
        let dup: BTreeSet<&str> = node
            .fanin()
            .iter()
            .filter(|f| !seen.insert(**f))
            .map(|f| circuit.node(*f).name())
            .collect();
        if !dup.is_empty() {
            let mut nets = vec![node.name().to_string()];
            nets.extend(dup.iter().map(|s| (*s).to_string()));
            diags.push(Diagnostic::new(
                LintCode::DuplicateFanin,
                format!("gate `{}` lists a fanin more than once", node.name()),
                nets,
            ));
        }
    }

    // Liveness: backward from the POs, through DFFs into their D-sources.
    let mut live = vec![false; circuit.num_nodes()];
    let mut work: Vec<bist_netlist::NodeId> = circuit.outputs().to_vec();
    while let Some(id) = work.pop() {
        if std::mem::replace(&mut live[id.index()], true) {
            continue;
        }
        work.extend(circuit.node(id).fanin().iter().copied());
    }
    push_dead_logic(
        &mut diags,
        circuit.nodes().iter().enumerate().map(|(i, node)| {
            let kind = match node.kind() {
                NodeKind::Input => DefKind::Input,
                NodeKind::Dff => DefKind::Dff,
                NodeKind::Gate(k) => DefKind::Gate(*k),
            };
            (node.name(), kind, live[i])
        }),
    );
    push_structure_warnings(&mut diags, circuit);

    diags.sort_by(|a, b| (a.code, &a.nets, &a.message).cmp(&(b.code, &b.nets, &b.message)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_netlist::parser::parse_bench;
    use bist_netlist::{benchmarks, fuzz};

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.code()).collect()
    }

    /// A netlist that triggers nothing.
    const CLEAN: &str = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
q = DFF(d)
d = AND(a, b)
y = XOR(q, b)
";

    #[test]
    fn clean_source_has_no_diagnostics() {
        assert_eq!(lint_source(CLEAN).unwrap(), Vec::new());
    }

    #[test]
    fn l001_combinational_cycle() {
        let src = "\
INPUT(a)
OUTPUT(y)
u = AND(a, w)
w = OR(u, a)
y = NOT(u)
";
        let diags = lint_source(src).unwrap();
        assert_eq!(codes(&diags), ["L001"]);
        // `y` is downstream of the cycle, not on it.
        assert_eq!(diags[0].nets, ["u", "w"]);
        assert!(!is_clean(&diags));
        // Counterexample: the same loop broken by a DFF is sequential
        // feedback, not a combinational cycle.
        let src = "\
INPUT(a)
OUTPUT(y)
u = AND(a, w)
w = DFF(u)
y = NOT(u)
";
        assert_eq!(lint_source(src).unwrap(), Vec::new());
    }

    #[test]
    fn l002_undriven_net() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        let diags = lint_source(src).unwrap();
        assert_eq!(codes(&diags), ["L002"]);
        assert_eq!(diags[0].nets, ["ghost"]);
        let src = "INPUT(a)\nOUTPUT(y)\nq = DFF(ghost)\ny = AND(a, q)\n";
        assert_eq!(codes(&lint_source(src).unwrap()), ["L002"]);
        assert_eq!(lint_source(CLEAN).unwrap(), Vec::new());
    }

    #[test]
    fn l003_duplicate_driver() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n";
        let diags = lint_source(src).unwrap();
        assert_eq!(codes(&diags), ["L003"]);
        assert_eq!(diags[0].nets, ["y"]);
        assert!(diags[0].message.contains("lines 4, 5"), "{}", diags[0].message);
    }

    #[test]
    fn l004_degenerate_fanin() {
        // Single-input AND, two-input NOT, two-input DFF.
        let src = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
OUTPUT(q)
y = AND(a)
z = NOT(a, b)
q = DFF(a, b)
";
        let diags = lint_source(src).unwrap();
        assert_eq!(codes(&diags), ["L004", "L004", "L004"]);
        // Counterexample: NOT with one input and AND with two are fine.
        assert_eq!(lint_source(CLEAN).unwrap(), Vec::new());
    }

    #[test]
    fn l005_self_driving_net() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n";
        let diags = lint_source(src).unwrap();
        // The self-loop is both the tightest cycle (L001) and its own
        // dedicated code.
        assert!(codes(&diags).contains(&"L005"), "{diags:?}");
        // Counterexample: a DFF may feed itself.
        let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(q)\n";
        let diags = lint_source(src).unwrap();
        assert!(!codes(&diags).contains(&"L005"), "{diags:?}");
    }

    #[test]
    fn l006_input_driven() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(a)\na = AND(b, b)\n";
        let diags = lint_source(src).unwrap();
        assert!(codes(&diags).contains(&"L006"), "{diags:?}");
        // Not double-reported as a generic duplicate.
        assert!(!codes(&diags).contains(&"L003"), "{diags:?}");
    }

    #[test]
    fn l007_unknown_output() {
        let src = "INPUT(a)\nOUTPUT(y)\nOUTPUT(nope)\ny = NOT(a)\n";
        let diags = lint_source(src).unwrap();
        assert_eq!(codes(&diags), ["L007"]);
        assert_eq!(diags[0].nets, ["nope"]);
    }

    #[test]
    fn l008_dangling_gate() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ndead = AND(a, y)\n";
        let diags = lint_source(src).unwrap();
        assert_eq!(codes(&diags), ["L008"]);
        assert_eq!(diags[0].nets, ["dead"]);
        assert_eq!(diags[0].severity(), Severity::Warning);
        assert!(is_clean(&diags), "warnings do not dirty a netlist");
    }

    #[test]
    fn l009_unreachable_dff() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nq = DFF(a)\n";
        let diags = lint_source(src).unwrap();
        assert_eq!(codes(&diags), ["L009"]);
        assert_eq!(diags[0].nets, ["q"]);
        // Counterexample: a DFF observed only through another cycle of
        // state is still live.
        let src = "INPUT(a)\nOUTPUT(y)\nq1 = DFF(a)\nq2 = DFF(q1)\ny = NOT(q2)\n";
        assert_eq!(lint_source(src).unwrap(), Vec::new());
    }

    #[test]
    fn l010_unused_input() {
        let src = "INPUT(a)\nINPUT(unused)\nOUTPUT(y)\ny = NOT(a)\n";
        let diags = lint_source(src).unwrap();
        assert_eq!(codes(&diags), ["L010"]);
        assert_eq!(diags[0].nets, ["unused"]);
    }

    #[test]
    fn l011_duplicate_fanin() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, a)\n";
        let diags = lint_source(src).unwrap();
        // `b` is also unused; filter to the duplicate-fanin finding.
        assert!(codes(&diags).contains(&"L011"), "{diags:?}");
        let d = diags.iter().find(|d| d.code == LintCode::DuplicateFanin).unwrap();
        assert_eq!(d.nets, ["a", "y"]);
    }

    #[test]
    fn l014_constant_gate() {
        // q never leaves X (DFF self-loop); g is in the closure with it.
        let src = "INPUT(a)\nOUTPUT(y)\nq = DFF(q)\ng = NOT(q)\ny = OR(g, a)\n";
        let diags = lint_source(src).unwrap();
        assert_eq!(codes(&diags), ["L014"]);
        assert_eq!(diags[0].nets, ["g", "q"]);
        assert_eq!(diags[0].severity(), Severity::Warning);
        assert!(is_clean(&diags));
        // The circuit-level pass agrees.
        let c = parse_bench("t", src).unwrap();
        assert_eq!(codes(&lint_circuit(&c)), ["L014"]);
        // Counterexample: a DFF fed from a PI leaves X after one clock.
        let src = "INPUT(a)\nOUTPUT(y)\nq = DFF(a)\ny = NOT(q)\n";
        assert_eq!(lint_source(src).unwrap(), Vec::new());
    }

    #[test]
    fn l015_duplicate_cone() {
        let src = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
g1 = NOR(a, b)
g2 = NOR(a, b)
y = XOR(g1, g2)
";
        let diags = lint_source(src).unwrap();
        assert_eq!(codes(&diags), ["L015"]);
        assert_eq!(diags[0].nets, ["g1", "g2"]);
        assert!(diags[0].message.contains("same function"), "{}", diags[0].message);
        let c = parse_bench("t", src).unwrap();
        assert_eq!(codes(&lint_circuit(&c)), ["L015"]);
        // A duplicate hidden behind a buffer is still found (forwarding).
        let src = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
p = BUF(a)
g1 = NAND(p, b)
g2 = NAND(a, b)
y = AND(g1, g2)
";
        assert!(codes(&lint_source(src).unwrap()).contains(&"L015"));
        // Counterexample: same fanins, different opcode — no duplicate.
        let src =
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ng1 = NOR(a, b)\ng2 = NAND(a, b)\ny = XOR(g1, g2)\n";
        assert_eq!(lint_source(src).unwrap(), Vec::new());
    }

    #[test]
    fn always_x_closure_is_the_greatest_fixpoint() {
        // q = DFF(q) never leaves X; NOT(q) joins it, AND(g, a) does not
        // (one binary fanin can decide an AND), XOR(g, a) does (any X
        // fanin makes an XOR X).
        let src = "INPUT(a)\nOUTPUT(o)\nOUTPUT(x)\nq = DFF(q)\ng = NOT(q)\n\
                   o = AND(g, a)\nx = XOR(g, a)\n";
        let c = parse_bench("t", src).unwrap();
        let closure = always_x_closure(&c);
        let members: BTreeSet<&str> = c
            .nodes()
            .iter()
            .zip(&closure)
            .filter(|(_, &in_closure)| in_closure)
            .map(|(node, _)| node.name())
            .collect();
        assert_eq!(members, BTreeSet::from(["g", "q", "x"]));
    }

    #[test]
    fn duplicate_cones_are_found_through_forwarding() {
        // b = BUF(a) forwards to a, so n1 = NAND(b, x) duplicates
        // n2 = NAND(a, x); o = AND(n1, n2) then reads one net twice.
        let src = "INPUT(a)\nINPUT(x)\nOUTPUT(o)\nb = BUF(a)\nn1 = NAND(b, x)\n\
                   n2 = NAND(a, x)\no = AND(n1, n2)\n";
        let c = parse_bench("t", src).unwrap();
        let pairs: Vec<BTreeSet<&str>> = duplicate_cone_pairs(&c)
            .into_iter()
            .map(|(dup, rep)| BTreeSet::from([c.node(dup).name(), c.node(rep).name()]))
            .collect();
        assert_eq!(pairs, [BTreeSet::from(["n1", "n2"])]);
        // A PO driver is reported like any other gate.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = OR(a, b)\nz = OR(a, b)\n";
        let c = parse_bench("t", src).unwrap();
        assert_eq!(duplicate_cone_pairs(&c).len(), 1);
    }

    #[test]
    fn l012_l013_missing_interface() {
        let diags = lint_source("y = AND(x, x)\nOUTPUT(y)\n").unwrap();
        assert!(codes(&diags).contains(&"L012"), "{diags:?}");
        let diags = lint_source("INPUT(a)\n").unwrap();
        assert!(codes(&diags).contains(&"L013"), "{diags:?}");
    }

    #[test]
    fn syntax_junk_is_an_error_not_a_diagnostic() {
        assert!(lint_source("INPUT(a)\ny FROB a\n").is_err());
        assert!(lint_source("INPUT(a)\ny = FROB(a)\n").is_err());
    }

    #[test]
    fn suite_circuits_are_lint_clean() {
        for entry in benchmarks::suite() {
            let c = entry.build().unwrap();
            let diags = lint_circuit(&c);
            assert!(is_clean(&diags), "{}: {diags:?}", entry.name);
        }
    }

    #[test]
    fn fuzz_corpus_is_lint_clean_fast_subset() {
        // The full 208-seed sweep lives in the integration suite; keep a
        // fast cross-section here covering every shape class.
        for seed in 0..24 {
            let c = fuzz::fuzz_circuit(seed);
            let diags = lint_circuit(&c);
            assert!(is_clean(&diags), "seed {seed}: {diags:?}");
        }
    }

    #[test]
    fn source_and_circuit_lints_agree_on_warnings() {
        let src = "INPUT(a)\nINPUT(u)\nOUTPUT(y)\ny = NOT(a)\ndead = AND(a, a)\nq = DFF(dead)\n";
        let from_source = lint_source(src).unwrap();
        let c = parse_bench("t", src).unwrap();
        let from_circuit = lint_circuit(&c);
        // Messages differ (the source layer cites lines); codes and nets
        // must agree exactly.
        let key =
            |ds: &[Diagnostic]| ds.iter().map(|d| (d.code, d.nets.clone())).collect::<Vec<_>>();
        assert_eq!(key(&from_source), key(&from_circuit));
        assert_eq!(codes(&from_source), ["L008", "L009", "L010", "L011"], "{from_source:?}");
    }

    #[test]
    fn code_table_is_stable() {
        let strs: Vec<&str> = LintCode::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(
            strs,
            [
                "L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008", "L009", "L010",
                "L011", "L012", "L013", "L014", "L015"
            ]
        );
        // Codes are unique and each maps to exactly one severity.
        let unique: HashSet<&str> = strs.iter().copied().collect();
        assert_eq!(unique.len(), LintCode::ALL.len());
        assert_eq!(LintCode::DanglingGate.to_string(), "L008");
        assert_eq!(Severity::Error.to_string(), "error");
        assert_eq!(Severity::Warning.to_string(), "warning");
    }

    #[test]
    fn diagnostics_are_deterministic() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, g1)\ng1 = OR(a, g2)\ng2 = NOT(g1)\n";
        assert_eq!(lint_source(src).unwrap(), lint_source(src).unwrap());
    }
}
