//! Degenerate-tape behavior, pinned: circuits with **zero gates** and
//! primary outputs fed **directly** from primary inputs or flip-flops
//! must compile and simulate without panics on every engine, producing
//! the identity results the three-valued semantics dictate.
//!
//! These shapes appear in the randomized fuzz corpus too; this file pins
//! the exact expected results rather than just oracle agreement. Fault
//! sites past the circuit's nodes are pinned here as well: one typed
//! error from every engine, query and the oracle, never a panic.

use bist_expand::TestSequence;
use bist_netlist::{CircuitBuilder, GateTape, NodeId};
use bist_sim::{
    collapse, fault_universe, reference, simulate_faulty, simulate_good, Fault, FaultSimulator,
    Logic, MachineState, Obs, SimError, SteppedSim,
};

mod common;

/// `a → PO`, `q = DFF(a) → PO`: no gates at all.
fn zero_gate_circuit() -> bist_netlist::Circuit {
    let mut b = CircuitBuilder::new("zero_gate");
    b.add_input("a");
    b.add_dff("q", "a");
    b.add_output("a");
    b.add_output("q");
    b.finish().expect("zero-gate circuit is valid")
}

#[test]
fn zero_gate_tape_is_an_empty_program() {
    let c = zero_gate_circuit();
    let tape = GateTape::compile(&c);
    assert_eq!(tape.num_gates(), 0);
    assert!(tape.runs().is_empty());
    assert_eq!(tape.fanin_start(), &[0]);
    assert!(tape.fanin().is_empty());
    assert_eq!(tape.num_nodes(), 2);
    assert_eq!(tape.gate_pos(0), None);
    assert_eq!(tape.gate_pos(1), None);
    assert_eq!(tape.num_dffs(), 1);
    assert_eq!(tape.dff_src(), &[0]);
}

#[test]
fn zero_gate_good_simulation_is_the_identity() {
    let c = zero_gate_circuit();
    let seq: TestSequence = "1 0 1 1".parse().unwrap();
    let trace = simulate_good(&c, &seq).unwrap();
    // PO "a" mirrors the input; PO "q" is the input delayed by one cycle
    // (X at t=0, before anything was latched).
    let a: Vec<Logic> = trace.po.iter().map(|po| po[0]).collect();
    let q: Vec<Logic> = trace.po.iter().map(|po| po[1]).collect();
    assert_eq!(a, [Logic::One, Logic::Zero, Logic::One, Logic::One]);
    assert_eq!(q, [Logic::X, Logic::One, Logic::Zero, Logic::One]);
    assert_eq!(trace.final_state, [Logic::One]);

    // The stepped simulator agrees.
    let mut sim = SteppedSim::new(&c);
    for (t, v) in seq.iter().enumerate() {
        assert_eq!(sim.step(v).unwrap(), trace.po[t], "t={t}");
    }
}

#[test]
fn zero_gate_detection_times_are_exact_on_every_engine() {
    let c = zero_gate_circuit();
    let tape = GateTape::compile(&c);
    let a = c.find("a").unwrap();
    let q = c.find("q").unwrap();
    let seq: TestSequence = "1 0 1 1".parse().unwrap();
    // a s-a-0: seen the moment a=1 drives the PO (t=0).
    // a s-a-1: first a=0 vector is t=1.
    // q s-a-0: q must be binary-1 in the good machine: t=1 (latched 1).
    // q s-a-1: good q first binary-0 at t=2.
    let faults = vec![
        Fault::output(a, false),
        Fault::output(a, true),
        Fault::output(q, false),
        Fault::output(q, true),
    ];
    let expect = vec![Some(0), Some(1), Some(1), Some(2)];
    let oracle = reference::detection_times(&c, &seq, &faults).unwrap();
    assert_eq!(oracle, expect);
    for engine in common::engine_grid() {
        let times = engine.detection_times_tape(&tape, &seq, &faults).unwrap();
        assert_eq!(times, expect, "{}", engine.name());
    }
}

#[test]
fn zero_gate_universe_collapses_without_panicking() {
    let c = zero_gate_circuit();
    let universe = fault_universe(&c);
    // Two nodes, no fanout branching: 4 stem faults.
    assert_eq!(universe.len(), 4);
    let collapsed = collapse(&c, &universe);
    assert!(!collapsed.representatives().is_empty());
    let sim = FaultSimulator::new(&c);
    let seq: TestSequence = "1 0".parse().unwrap();
    let times = sim.detection_times(&seq, collapsed.representatives()).unwrap();
    assert_eq!(times.len(), collapsed.representatives().len());
}

#[test]
fn po_fed_directly_from_pi_next_to_gates() {
    // A mixed circuit: one real gate plus POs wired straight to a PI and
    // a DFF — the tape must route the pass-through observations around
    // the gate program.
    let mut b = CircuitBuilder::new("mixed");
    b.add_input("a");
    b.add_input("b");
    b.add_dff("q", "g");
    b.add_gate("g", bist_netlist::GateKind::Nand, ["a", "b"]);
    b.add_output("a"); // PO = PI
    b.add_output("q"); // PO = DFF
    b.add_output("g");
    let c = b.finish().unwrap();
    let tape = GateTape::compile(&c);
    assert_eq!(tape.num_gates(), 1);
    let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
    let seq: TestSequence = "11 01 10 00 11 10".parse().unwrap();
    let oracle = reference::detection_times(&c, &seq, &faults).unwrap();
    for engine in common::engine_grid() {
        let times = engine.detection_times_tape(&tape, &seq, &faults).unwrap();
        assert_eq!(times, oracle, "{}", engine.name());
    }
    // Full coverage is reachable: every fault site feeds a PO.
    assert!(oracle.iter().filter(|t| t.is_some()).count() >= faults.len() - 1);
}

#[test]
fn fault_sites_past_the_circuit_are_a_typed_error_everywhere() {
    let c = bist_netlist::benchmarks::s27();
    let tape = GateTape::compile(&c);
    let nodes = c.num_nodes();
    let t0: TestSequence = "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse().unwrap();
    let valid = collapse(&c, &fault_universe(&c)).representatives()[0];
    let reset = MachineState::reset();
    let obs = Obs::noop();
    for fault in [
        Fault::output(NodeId::from_index(nodes + 5), true),
        Fault::input(NodeId::from_index(nodes), 0, false),
    ] {
        let want = SimError::FaultSiteOutOfRange { fault, nodes };
        // Rejected before any pass runs, wherever the fault sits in the list.
        let faults = [valid, fault];
        assert_eq!(reference::detection_times(&c, &t0, &faults), Err(want.clone()), "oracle");
        for engine in common::engine_grid() {
            let name = engine.name();
            assert_eq!(
                engine.detection_times_tape(&tape, &t0, &faults),
                Err(want.clone()),
                "{name}"
            );
            let resumed = engine.resume_tape_obs(&tape, &reset, &t0, &faults, &[3], &obs);
            assert_eq!(resumed, Err(want.clone()), "{name}");
            let probe = engine.first_detecting_tape_obs(&tape, &[&t0, &t0], fault, &obs);
            assert_eq!(probe, Err(want.clone()), "{name}");
        }
        assert_eq!(FaultSimulator::new(&c).detection_times(&t0, &[fault]), Err(want.clone()));
        assert_eq!(FaultSimulator::scalar(&c).detection_times(&t0, &[fault]), Err(want.clone()));
        assert_eq!(simulate_faulty(&c, &t0, fault), Err(want));
    }
}
