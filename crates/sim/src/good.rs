//! Fault-free (good-machine) and single-faulty-machine scalar simulation.
//!
//! Both are loops over the crate's one scalar machine (see
//! [`SteppedSim`](crate::SteppedSim)), which executes the compiled
//! [`GateTape`] — the flat, cache-linear instruction form of a
//! [`Circuit`] — never the node graph itself. The public entry points
//! compile the tape on the fly (compilation is `O(nodes)`, trivial next to
//! any simulation pass); [`FaultSimulator::good`](crate::FaultSimulator::good)
//! reuses its cached tape.

use crate::stepped::Machine;
use crate::{Fault, Logic, SimError};
use bist_expand::{TestSequence, VectorSource};
use bist_netlist::{Circuit, GateTape};

/// The fault-free response of a circuit to a test sequence, starting from
/// the all-unknown state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoodTrace {
    /// `po[t][i]` = value of the `i`-th primary output at time unit `t`.
    pub po: Vec<Vec<Logic>>,
    /// Flip-flop values after the last vector (circuit DFF order).
    pub final_state: Vec<Logic>,
}

impl GoodTrace {
    /// Number of simulated time units.
    #[must_use]
    pub fn len(&self) -> usize {
        self.po.len()
    }

    /// True if no time units were simulated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.po.is_empty()
    }

    /// First time unit at which *every* primary output is binary, if any —
    /// the earliest point from which a MISR can start compacting without
    /// capturing unknowns.
    #[must_use]
    pub fn first_fully_binary_time(&self) -> Option<usize> {
        self.po.iter().position(|outs| outs.iter().all(|v| v.is_binary()))
    }
}

/// Simulates the fault-free circuit under `seq` from the all-`X` state.
///
/// # Errors
///
/// [`SimError::WidthMismatch`] if the sequence width differs from the
/// circuit's primary input count; [`SimError::EmptySequence`] for an empty
/// sequence.
pub fn simulate_good(circuit: &Circuit, seq: &TestSequence) -> Result<GoodTrace, SimError> {
    simulate_machine(&GateTape::compile(circuit), seq, None)
}

/// Simulates the circuit with a single stuck-at fault injected, from the
/// all-`X` state — the faulty machine a MISR would observe.
///
/// # Errors
///
/// Same as [`simulate_good`], plus [`SimError::FaultSiteOutOfRange`] if
/// `fault` names a node the circuit does not have.
pub fn simulate_faulty(
    circuit: &Circuit,
    seq: &TestSequence,
    fault: Fault,
) -> Result<GoodTrace, SimError> {
    simulate_machine(&GateTape::compile(circuit), seq, Some(fault))
}

/// Input validation shared by every simulation engine and the node-graph
/// oracle: rejects mismatched and empty streams, and faults on nodes the
/// circuit does not have, before anything runs — so all of them fail
/// identically on bad input, including with an empty fault list.
pub(crate) fn validate(
    num_inputs: usize,
    num_nodes: usize,
    source: &dyn VectorSource,
    faults: &[Fault],
) -> Result<(), SimError> {
    if source.width() != num_inputs {
        return Err(SimError::WidthMismatch {
            circuit_inputs: num_inputs,
            sequence_width: source.width(),
        });
    }
    if source.is_empty() {
        return Err(SimError::EmptySequence);
    }
    if let Some(&fault) = faults.iter().find(|f| f.site.node().index() >= num_nodes) {
        return Err(SimError::FaultSiteOutOfRange { fault, nodes: num_nodes });
    }
    Ok(())
}

/// One scalar machine over `seq` from the all-`X` state, every clock's
/// outputs collected, on a caller-compiled tape.
pub(crate) fn simulate_machine(
    tape: &GateTape,
    seq: &TestSequence,
    fault: Option<Fault>,
) -> Result<GoodTrace, SimError> {
    validate(tape.num_inputs(), tape.num_nodes(), seq, fault.as_slice())?;
    let mut machine = Machine::new(tape, fault);
    let po = seq.iter().map(|vector| machine.step(tape, vector).to_vec()).collect();
    Ok(GoodTrace { po, final_state: machine.state().to_vec() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_expand::TestSequence;
    use bist_netlist::benchmarks;

    fn seq(s: &str) -> TestSequence {
        s.parse().unwrap()
    }

    #[test]
    fn shift_register_propagates_after_unknown_flush() {
        let c = benchmarks::shift_register3();
        // din=1,en=1 for 5 cycles: q2 = X,X,X then 1s.
        let t = simulate_good(&c, &seq("11 11 11 11 11")).unwrap();
        assert_eq!(t.po[0][0], Logic::X);
        assert_eq!(t.po[1][0], Logic::X);
        assert_eq!(t.po[2][0], Logic::X);
        assert_eq!(t.po[3][0], Logic::One);
        assert_eq!(t.po[4][0], Logic::One);
        assert_eq!(t.first_fully_binary_time(), Some(3));
    }

    #[test]
    fn shift_register_delays_by_three() {
        let c = benchmarks::shift_register3();
        // Pattern 1,0,1,1,0 on din with en=1: q2 at t = din at t-3.
        let t = simulate_good(&c, &seq("11 01 11 11 01 01 01 01")).unwrap();
        let dins = [true, false, true, true, false];
        for (i, &d) in dins.iter().enumerate() {
            assert_eq!(t.po[i + 3][0], Logic::from_bool(d), "t={}", i + 3);
        }
    }

    #[test]
    fn toggle_counts() {
        let c = benchmarks::toggle();
        // en=1 first cycle resolves nothing (q unknown: X xor 1 = X).
        let t = simulate_good(&c, &seq("1 1 1")).unwrap();
        assert_eq!(t.po[0][0], Logic::X);
        assert_eq!(t.po[2][0], Logic::X, "toggle never self-synchronizes from X");
    }

    #[test]
    fn comb_mix_truth() {
        let c = benchmarks::comb_mix();
        // inputs a,b,c = 1,1,0: maj=1, par=0, out=NAND(1,0)=1.
        let t = simulate_good(&c, &seq("110")).unwrap();
        assert_eq!(t.po[0], vec![Logic::One, Logic::Zero, Logic::One]);
        // 1,1,1: maj=1, par=1, out=0.
        let t = simulate_good(&c, &seq("111")).unwrap();
        assert_eq!(t.po[0], vec![Logic::One, Logic::One, Logic::Zero]);
    }

    #[test]
    fn s27_synchronizes() {
        // The s27 state is fully determined after a few vectors of the
        // paper's Table 2 sequence.
        let c = benchmarks::s27();
        let t0 = seq("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011");
        let t = simulate_good(&c, &t0).unwrap();
        assert_eq!(t.len(), 10);
        assert!(t.first_fully_binary_time().is_some());
        assert!(t.final_state.iter().all(|v| v.is_binary()));
    }

    #[test]
    fn width_mismatch_rejected() {
        let c = benchmarks::s27();
        assert_eq!(
            simulate_good(&c, &seq("000")),
            Err(SimError::WidthMismatch { circuit_inputs: 4, sequence_width: 3 })
        );
    }

    #[test]
    fn final_state_feeds_forward() {
        let c = benchmarks::shift_register3();
        let t = simulate_good(&c, &seq("11 11 11 11")).unwrap();
        assert_eq!(t.final_state, vec![Logic::One; 3]);
    }

    #[test]
    fn faulty_trace_differs_where_simulator_detects() {
        use crate::{Fault, FaultSimulator};
        let c = benchmarks::shift_register3();
        let q2 = c.find("q2").unwrap();
        let f = Fault::output(q2, false);
        let s = seq("11 11 11 11 11");
        let good = simulate_good(&c, &s).unwrap();
        let bad = simulate_faulty(&c, &s, f).unwrap();
        // Detection time from the packed simulator must be exactly the
        // first time the scalar traces differ with binary values.
        let t = FaultSimulator::new(&c).first_detection(&s, f).unwrap().unwrap();
        assert_ne!(good.po[t], bad.po[t]);
        for u in 0..t {
            let observable = good.po[u]
                .iter()
                .zip(&bad.po[u])
                .any(|(g, b)| g.is_binary() && b.is_binary() && g != b);
            assert!(!observable, "difference before detection time at u={u}");
        }
    }

    #[test]
    fn faulty_trace_with_input_pin_fault() {
        use crate::Fault;
        let c = benchmarks::s27();
        let g17 = c.find("G17").unwrap();
        let s = seq("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011");
        let good = simulate_good(&c, &s).unwrap();
        let bad = simulate_faulty(&c, &s, Fault::input(g17, 0, true)).unwrap();
        assert_ne!(good.po, bad.po, "branch fault must perturb the PO trace");
    }
}
