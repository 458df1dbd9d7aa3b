//! Seeded random circuits for differential fuzzing — test support.
//!
//! [`generate`](crate::generate) builds *realistic* synthetic analogs of
//! the ISCAS-89 benchmarks. This module builds *adversarial* ones: a
//! seeded stream of circuits whose shapes deliberately include the
//! degenerate corners a simulation-engine rewrite is most likely to
//! break — zero-gate netlists whose primary outputs are wired straight
//! to primary inputs or flip-flops, single-gate circuits of every
//! opcode, chains much deeper than any benchmark, and stems with extreme
//! fanout next to gates with extreme fanin — interleaved with general
//! random levelized circuits over all opcodes.
//!
//! It is test support: every crate's differential/fuzz tests call
//! [`fuzz_circuit`] with consecutive seeds to get a deterministic,
//! shape-diverse corpus. Every returned circuit is fully validated by
//! [`CircuitBuilder`] — the corpus contains no *invalid* netlists, only
//! structurally extreme valid ones.
//!
//! [`dirty_circuit`] is the deliberate exception: it emits `.bench`
//! *source text* with known defects seeded in (cycles, floating nets,
//! duplicate drivers…) and records which lint codes it planted, so the
//! `bist-verify` linter's recall is testable rather than anecdotal.
//! Dirty sources never become [`Circuit`] values — the builder refuses
//! them, which is the point.
//!
//! # Example
//!
//! ```
//! use bist_netlist::fuzz::{fuzz_circuit, FuzzShape};
//!
//! let c = fuzz_circuit(0);
//! assert_eq!(FuzzShape::of_seed(0), FuzzShape::ZeroGate);
//! assert_eq!(c.num_gates(), 0); // POs wired straight to PIs/DFFs
//! ```

use crate::generate::GeneratorSpec;
use crate::{Circuit, CircuitBuilder, GateKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shape class of one fuzz seed. Seeds cycle through the degenerate
/// classes and then a run of general circuits, so any contiguous seed
/// range covers every class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzShape {
    /// No gates at all: primary outputs wired directly to primary
    /// inputs and flip-flop outputs; flip-flops fed straight from PIs.
    ZeroGate,
    /// Exactly one gate (opcode cycles through all eight kinds with the
    /// seed), plus a PI observed directly.
    SingleGate,
    /// A chain of single/double-input gates far deeper than any
    /// benchmark, optionally threaded through a flip-flop.
    DeepChain,
    /// One stem feeding dozens of consumers plus one gate with a very
    /// wide fanin window (`RunArity::Many` territory).
    HighFanout,
    /// A general random levelized sequential circuit over all opcodes
    /// (via [`GeneratorSpec`]) with randomized shape parameters.
    General,
}

impl FuzzShape {
    /// The shape class a given seed produces.
    #[must_use]
    pub fn of_seed(seed: u64) -> FuzzShape {
        match seed % 8 {
            0 => FuzzShape::ZeroGate,
            1 => FuzzShape::SingleGate,
            2 => FuzzShape::DeepChain,
            3 => FuzzShape::HighFanout,
            _ => FuzzShape::General,
        }
    }
}

/// Deterministically builds the fuzz circuit of `seed`. Same seed, same
/// circuit — a corpus is just a seed range.
#[must_use]
pub fn fuzz_circuit(seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xf0f2);
    match FuzzShape::of_seed(seed) {
        FuzzShape::ZeroGate => zero_gate(seed, &mut rng),
        FuzzShape::SingleGate => single_gate(seed, &mut rng),
        FuzzShape::DeepChain => deep_chain(seed, &mut rng),
        FuzzShape::HighFanout => high_fanout(seed, &mut rng),
        FuzzShape::General => general(seed, &mut rng),
    }
}

/// POs wired straight to PIs/DFFs; DFFs fed straight from PIs (and from
/// each other, forming gate-free shift paths).
fn zero_gate(seed: u64, rng: &mut StdRng) -> Circuit {
    let mut b = CircuitBuilder::new(format!("fuzz{seed}_zerogate"));
    let inputs = rng.gen_range(1..=4usize);
    let dffs = rng.gen_range(0..=3usize);
    for i in 0..inputs {
        b.add_input(format!("I{i}"));
    }
    for k in 0..dffs {
        // First DFF reads a PI; later ones may chain off earlier DFFs.
        let d = if k > 0 && rng.gen_bool(0.5) {
            format!("Q{}", rng.gen_range(0..k))
        } else {
            format!("I{}", rng.gen_range(0..inputs))
        };
        b.add_dff(format!("Q{k}"), d);
    }
    // Every PI and every DFF is observable; at least one PO is a PI.
    b.add_output("I0");
    for i in 1..inputs {
        if rng.gen_bool(0.7) {
            b.add_output(format!("I{i}"));
        }
    }
    for k in 0..dffs {
        b.add_output(format!("Q{k}"));
    }
    b.finish().expect("zero-gate fuzz circuit is valid")
}

/// One gate; the opcode cycles through all eight kinds with the seed.
fn single_gate(seed: u64, rng: &mut StdRng) -> Circuit {
    let kind = GateKind::ALL[(seed / 8) as usize % GateKind::ALL.len()];
    let arity = match kind.arity() {
        (1, 1) => 1,
        _ => rng.gen_range(2..=4usize),
    };
    let mut b = CircuitBuilder::new(format!("fuzz{seed}_single"));
    for i in 0..arity.max(2) {
        b.add_input(format!("I{i}"));
    }
    b.add_gate("G0", kind, (0..arity).map(|i| format!("I{i}")));
    b.add_output("G0");
    // A PI observed directly next to the gate (PO wired to PI).
    b.add_output("I0");
    b.finish().expect("single-gate fuzz circuit is valid")
}

/// A deep chain of gates, optionally threaded through a flip-flop so the
/// chain also exercises sequential feedback.
fn deep_chain(seed: u64, rng: &mut StdRng) -> Circuit {
    let depth = rng.gen_range(24..=160usize);
    let with_dff = rng.gen_bool(0.5);
    let mut b = CircuitBuilder::new(format!("fuzz{seed}_chain"));
    b.add_input("I0");
    b.add_input("I1");
    if with_dff {
        // The DFF closes a long sequential loop over the whole chain.
        b.add_dff("Q0", format!("G{}", depth - 1));
        b.add_output("Q0");
    }
    let mut prev = "I0".to_string();
    for g in 0..depth {
        let kind = GateKind::ALL[rng.gen_range(0..GateKind::ALL.len())];
        let name = format!("G{g}");
        if kind.arity() == (1, 1) {
            b.add_gate(name.clone(), kind, [prev.clone()]);
        } else {
            let other = if g == 0 && with_dff {
                "Q0".to_string()
            } else if rng.gen_bool(0.3) {
                format!("I{}", rng.gen_range(0..2usize))
            } else {
                prev.clone()
            };
            if other == prev {
                b.add_gate(name.clone(), kind, [prev.clone(), "I1".to_string()]);
            } else {
                b.add_gate(name.clone(), kind, [prev.clone(), other]);
            }
        }
        prev = name;
    }
    b.add_output(prev);
    b.finish().expect("deep-chain fuzz circuit is valid")
}

/// One stem with dozens of consumers (maximal fanout branching) plus one
/// gate with a very wide fanin window.
fn high_fanout(seed: u64, rng: &mut StdRng) -> Circuit {
    let consumers = rng.gen_range(16..=48usize);
    let inputs = rng.gen_range(2..=5usize);
    let mut b = CircuitBuilder::new(format!("fuzz{seed}_fanout"));
    for i in 0..inputs {
        b.add_input(format!("I{i}"));
    }
    // The stem: a gate so its output faults are gate faults too.
    b.add_gate("stem", GateKind::And, ["I0".to_string(), "I1".to_string()]);
    for g in 0..consumers {
        let kind = GateKind::ALL[rng.gen_range(0..GateKind::ALL.len())];
        let name = format!("G{g}");
        if kind.arity() == (1, 1) {
            b.add_gate(name, kind, ["stem".to_string()]);
        } else {
            let other = format!("I{}", rng.gen_range(0..inputs));
            b.add_gate(name, kind, ["stem".to_string(), other]);
        }
    }
    // One wide gate over many distinct consumer outputs: RunArity::Many.
    let wide = rng.gen_range(5..=12usize).min(consumers);
    let wide_kind = if rng.gen_bool(0.5) { GateKind::Nand } else { GateKind::Xor };
    b.add_gate("wide", wide_kind, (0..wide).map(|g| format!("G{g}")));
    b.add_output("wide");
    b.add_output("stem");
    for g in wide..consumers {
        if rng.gen_bool(0.25) {
            b.add_output(format!("G{g}"));
        }
    }
    b.finish().expect("high-fanout fuzz circuit is valid")
}

/// A general random levelized sequential circuit with randomized shape.
fn general(seed: u64, rng: &mut StdRng) -> Circuit {
    GeneratorSpec::new(format!("fuzz{seed}_general"))
        .inputs(rng.gen_range(1..=8usize))
        .outputs(rng.gen_range(1..=6usize))
        .dffs(rng.gen_range(0..=10usize))
        .gates(rng.gen_range(1..=250usize))
        .target_depth(rng.gen_range(2..=12usize))
        .max_fanin(rng.gen_range(2..=6usize))
        .seed(seed)
        .build()
        .expect("general fuzz circuit is valid")
}

/// A deliberately defective `.bench` source, plus the lint codes its
/// defects must trigger.
///
/// Produced by [`dirty_circuit`]. The source is *text*, not a
/// [`Circuit`]: the planted defects (duplicate drivers, combinational
/// cycles, undriven nets…) are exactly the ones
/// [`CircuitBuilder`]/[`parser`](crate::parser::parse_bench) refuse, so
/// they can only exist at the source level — which is also the level the
/// linter's source pass runs at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyCircuit {
    /// Circuit name (`dirty<seed>`).
    pub name: String,
    /// The `.bench` text with defects seeded in.
    pub source: String,
    /// Stable lint codes (`"L001"`…) of every planted defect, sorted and
    /// deduplicated. A linter with full recall reports **at least** these
    /// codes on `source` (a planted defect may legitimately trip extra
    /// codes — a self-driving gate is also a one-gate cycle).
    pub planted: Vec<&'static str>,
}

/// The defect classes [`dirty_circuit`] can seed, with the lint code
/// each one plants.
const DIRTY_CLASSES: [&str; 7] = ["L001", "L002", "L003", "L004", "L005", "L006", "L007"];

/// Deterministically builds a defective `.bench` source for `seed`.
///
/// A small clean circuit from [`GeneratorSpec`] is rendered to text and
/// then vandalized. Seeds cycle through the defect classes: `seed % 9`
/// selects one of the seven error-class defects ([`DIRTY_CLASSES`]), a
/// warnings-only netlist (dangling gate, unused input, always-X cone,
/// duplicate-cone pair), or a compound
/// netlist with several error defects at once — so any contiguous run of
/// 9+ seeds exercises every class, making linter recall testable rather
/// than anecdotal.
#[must_use]
pub fn dirty_circuit(seed: u64) -> DirtyCircuit {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1d7);
    let name = format!("dirty{seed}");
    let base = GeneratorSpec::new(name.clone())
        .inputs(rng.gen_range(2..=4usize))
        .outputs(rng.gen_range(1..=3usize))
        .dffs(rng.gen_range(0..=3usize))
        .gates(rng.gen_range(3..=20usize))
        .target_depth(rng.gen_range(2..=5usize))
        .max_fanin(3)
        .seed(seed ^ 0xbad)
        .build()
        .expect("dirty base circuit is valid");
    let mut lines: Vec<String> = crate::writer::to_bench(&base).lines().map(String::from).collect();
    // Generator names are I*/Q*/G*; planted nets use a Z prefix, so a
    // mutation never collides with the base netlist.
    let pi = |k: usize| base.node(base.inputs()[k % base.num_inputs()]).name().to_string();
    let mut planted: Vec<&'static str> = Vec::new();

    let plant = |lines: &mut Vec<String>, planted: &mut Vec<&'static str>, code: &'static str| {
        match code {
            // Two fresh gates reading each other: a combinational cycle.
            "L001" => {
                lines.push(format!("ZC0 = AND({}, ZC1)", pi(0)));
                lines.push(format!("ZC1 = OR(ZC0, {})", pi(1)));
            }
            // A gate reading a net nothing drives.
            "L002" => lines.push(format!("ZU0 = NAND(ZGHOST, {})", pi(0))),
            // A second driver for an existing non-input signal.
            "L003" => {
                let victim = base
                    .eval_order()
                    .first()
                    .copied()
                    .or_else(|| base.dffs().first().copied())
                    .expect("base has gates");
                let victim = base.node(victim).name();
                lines.push(format!("{victim} = NOR({}, {})", pi(0), pi(1)));
            }
            // A single-input AND (degenerate arity).
            "L004" => lines.push(format!("ZD0 = AND({})", pi(0))),
            // A gate reading its own output.
            "L005" => lines.push(format!("ZS0 = XOR({}, ZS0)", pi(0))),
            // A driver for a declared primary input.
            "L006" => lines.push(format!("{} = OR({}, {})", pi(0), pi(1), pi(1))),
            // An OUTPUT over a signal that is never defined.
            "L007" => lines.push("OUTPUT(ZNOPE)".to_string()),
            // Warning pack: a dangling gate, an unused input, an always-X
            // cone and a duplicate-cone pair. These plant *warnings*, so
            // they only go into otherwise-clean sources (the warning
            // analyses are skipped on broken graphs).
            "L008" => lines.push(format!("ZW0 = AND({}, {})", pi(0), pi(1))),
            "L010" => lines.push("INPUT(ZIDLE)".to_string()),
            "L014" => {
                // A DFF self-loop never leaves X; the NOT rides in the
                // closure with it and the OUTPUT keeps the cone live.
                lines.push("ZX0 = DFF(ZX0)".to_string());
                lines.push("ZXG = NOT(ZX0)".to_string());
                lines.push("OUTPUT(ZXG)".to_string());
            }
            "L015" => {
                lines.push(format!("ZP0 = NOR({}, {})", pi(0), pi(1)));
                lines.push(format!("ZP1 = NOR({}, {})", pi(0), pi(1)));
            }
            _ => unreachable!("unknown dirty class {code}"),
        }
        planted.push(code);
    };

    match seed % 9 {
        k @ 0..=6 => plant(&mut lines, &mut planted, DIRTY_CLASSES[k as usize]),
        7 => {
            plant(&mut lines, &mut planted, "L008");
            plant(&mut lines, &mut planted, "L010");
            plant(&mut lines, &mut planted, "L014");
            plant(&mut lines, &mut planted, "L015");
        }
        _ => {
            // Compound: several distinct error defects in one netlist.
            let mut classes = DIRTY_CLASSES;
            for i in (1..classes.len()).rev() {
                classes.swap(i, rng.gen_range(0..=i));
            }
            let n = rng.gen_range(2..=3usize);
            for code in classes.into_iter().take(n) {
                plant(&mut lines, &mut planted, code);
            }
        }
    }
    planted.sort_unstable();
    planted.dedup();
    let mut source = lines.join("\n");
    source.push('\n');
    DirtyCircuit { name, source, planted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateTape;

    #[test]
    fn deterministic_per_seed() {
        for seed in 0..16 {
            assert_eq!(fuzz_circuit(seed), fuzz_circuit(seed), "seed {seed}");
        }
    }

    #[test]
    fn shape_classes_hold_their_promises() {
        for base in [0u64, 8, 16, 24] {
            let zero = fuzz_circuit(base);
            assert_eq!(zero.num_gates(), 0);
            // At least one PO is wired straight to a PI.
            assert!(zero.outputs().iter().any(|o| zero.inputs().contains(o)));

            let single = fuzz_circuit(base + 1);
            assert_eq!(single.num_gates(), 1);

            let chain = fuzz_circuit(base + 2);
            assert!(chain.depth() >= 24, "depth {}", chain.depth());

            let fanout = fuzz_circuit(base + 3);
            let stem = fanout.find("stem").unwrap();
            assert!(fanout.fanout_table()[stem.index()].len() >= 16);
            let wide = fanout.find("wide").unwrap();
            assert!(fanout.node(wide).fanin().len() >= 5);
        }
    }

    #[test]
    fn single_gate_cycles_all_opcodes() {
        let mut seen = std::collections::HashSet::new();
        for seed in (0..64).map(|k| 8 * k + 1) {
            let c = fuzz_circuit(seed);
            let g = c.eval_order()[0];
            let crate::NodeKind::Gate(kind) = c.node(g).kind() else { unreachable!() };
            seen.insert(*kind);
        }
        assert_eq!(seen.len(), GateKind::ALL.len(), "all opcodes appear");
    }

    #[test]
    fn dirty_circuits_are_deterministic() {
        for seed in 0..18 {
            assert_eq!(dirty_circuit(seed), dirty_circuit(seed), "seed {seed}");
        }
    }

    #[test]
    fn dirty_seeds_cover_every_class() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..18 {
            for code in dirty_circuit(seed).planted {
                seen.insert(code);
            }
        }
        for code in DIRTY_CLASSES {
            assert!(seen.contains(code), "no seed plants {code}");
        }
        for code in ["L008", "L010", "L014", "L015"] {
            assert!(seen.contains(code), "warning pack missing {code}");
        }
    }

    #[test]
    fn dirty_error_sources_fail_strict_parsing() {
        // Every error-class defect is one the strict parser/builder
        // refuses; the warnings-only netlists must parse fine.
        for seed in 0..27 {
            let dirty = dirty_circuit(seed);
            let errors_planted = dirty.planted.iter().any(|c| *c < "L008");
            let parsed = crate::parser::parse_bench(&*dirty.name, &dirty.source);
            if errors_planted {
                assert!(parsed.is_err(), "seed {seed} planted {:?} yet parsed", dirty.planted);
            } else {
                assert!(parsed.is_ok(), "seed {seed}: {:?}", parsed.err());
            }
        }
    }

    #[test]
    fn corpus_builds_and_compiles_everywhere() {
        let mut kinds = std::collections::HashSet::new();
        for seed in 0..120 {
            let c = fuzz_circuit(seed);
            assert!(c.num_inputs() >= 1);
            assert!(c.num_outputs() >= 1);
            let tape = GateTape::compile(&c);
            assert_eq!(tape.num_gates(), c.num_gates());
            let covered: usize = tape.runs().iter().map(|r| (r.end - r.start) as usize).sum();
            assert_eq!(covered, c.num_gates(), "runs partition seed {seed}");
            for &g in c.eval_order() {
                let crate::NodeKind::Gate(kind) = c.node(g).kind() else { unreachable!() };
                kinds.insert(*kind);
            }
        }
        assert_eq!(kinds.len(), GateKind::ALL.len(), "corpus covers all opcodes");
    }
}
