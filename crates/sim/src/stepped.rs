//! The scalar machine: one circuit copy stepped clock by clock.
//!
//! [`Machine`] is the crate's one scalar tape walker — a value table, the
//! flip-flop state and an optional stuck-at fault, advanced one vector at
//! a time over the compiled [`GateTape`]. Everything scalar is a loop over
//! it: [`SteppedSim`] wraps one for hardware-in-the-loop style tests,
//! [`crate::simulate_good`] / [`crate::simulate_faulty`] collect one's
//! outputs, and the [`ScalarBackend`](crate::ScalarBackend) reference
//! engine steps a good and a faulty machine in lockstep per fault (the
//! shape of quaigh's `SimpleSimulator`: reset, then one step, the fault
//! an option on the machine). Only the node-graph oracle in
//! [`crate::reference`] and the transition-fault model walk separately.

use crate::{eval, Fault, FaultSite, Logic, SimError};
use bist_expand::TestVector;
use bist_netlist::{Circuit, GateTape};

/// The single-fault injection hooks of a scalar machine, decomposed from
/// a [`Fault`] once up front — the one definition of scalar force
/// semantics.
#[derive(Debug, Clone, Copy)]
struct ScalarForce {
    out: Option<(usize, Logic)>,
    input: Option<(usize, u32, Logic)>,
}

impl ScalarForce {
    fn of(fault: Option<Fault>) -> Self {
        let out = match fault {
            Some(Fault { site: FaultSite::Output(n), stuck }) => {
                Some((n.index(), Logic::from_bool(stuck)))
            }
            _ => None,
        };
        let input = match fault {
            Some(Fault { site: FaultSite::Input { node, pin }, stuck }) => {
                Some((node.index(), pin, Logic::from_bool(stuck)))
            }
            _ => None,
        };
        ScalarForce { out, input }
    }

    #[inline]
    fn read(&self, values: &[Logic], consumer: usize, pin: u32, src: usize) -> Logic {
        match self.input {
            Some((n, p, v)) if n == consumer && p == pin => v,
            _ => values[src],
        }
    }

    #[inline]
    fn force_out(&self, node: usize, v: Logic) -> Logic {
        match self.out {
            Some((n, f)) if n == node => f,
            _ => v,
        }
    }
}

/// One scalar machine over a compiled tape: fault-free, or with one
/// stuck-at fault injected. The tape is passed to each call rather than
/// held, so callers that already share one compile nothing.
#[derive(Debug, Clone)]
pub(crate) struct Machine {
    force: ScalarForce,
    values: Vec<Logic>,
    state: Vec<Logic>,
    outputs: Vec<Logic>,
}

impl Machine {
    /// A machine for `tape` in the all-`X` power-up state.
    pub(crate) fn new(tape: &GateTape, fault: Option<Fault>) -> Self {
        Machine {
            force: ScalarForce::of(fault),
            values: vec![Logic::X; tape.num_nodes()],
            state: vec![Logic::X; tape.num_dffs()],
            outputs: Vec::with_capacity(tape.num_outputs()),
        }
    }

    /// Restarts from the flip-flop values `state` — one row of a
    /// [`MachineState`](crate::MachineState) — or from all-`X` when
    /// `state` is empty, as the reset state's rows are.
    pub(crate) fn load(&mut self, state: &[Logic]) {
        self.values.fill(Logic::X);
        if state.is_empty() {
            self.state.fill(Logic::X);
        } else {
            self.state.copy_from_slice(state);
        }
    }

    /// The current flip-flop values (tape DFF order).
    pub(crate) fn state(&self) -> &[Logic] {
        &self.state
    }

    /// Applies one vector of the tape's input width: drives the inputs
    /// and the present state, sweeps the tape, latches the next state
    /// (with D-pin injection) and returns the primary outputs of this
    /// clock.
    pub(crate) fn step(&mut self, tape: &GateTape, vector: &TestVector) -> &[Logic] {
        let Machine { force, values, state, outputs } = self;
        for (i, &pi) in tape.inputs().iter().enumerate() {
            let pi = pi as usize;
            values[pi] = force.force_out(pi, Logic::from_bool(vector.get(i)));
        }
        for (k, &dff) in tape.dffs().iter().enumerate() {
            let dff = dff as usize;
            values[dff] = force.force_out(dff, state[k]);
        }
        let (ops, outs, starts, fanin) =
            (tape.ops(), tape.gate_out(), tape.fanin_start(), tape.fanin());
        for g in 0..ops.len() {
            let out = outs[g] as usize;
            let window = &fanin[starts[g] as usize..starts[g + 1] as usize];
            let v = eval::eval_scalar_fold(
                ops[g],
                window
                    .iter()
                    .enumerate()
                    .map(|(p, &f)| force.read(values, out, p as u32, f as usize)),
            );
            values[out] = force.force_out(out, v);
        }
        outputs.clear();
        outputs.extend(tape.outputs().iter().map(|&o| values[o as usize]));
        for (k, (&dff, &src)) in tape.dffs().iter().zip(tape.dff_src()).enumerate() {
            state[k] = force.read(values, dff as usize, 0, src as usize);
        }
        outputs
    }
}

/// A stateful one-vector-at-a-time simulator.
///
/// [`SteppedSim`] plays the role of the chip in hardware-in-the-loop
/// style tests: feed one input vector per call, get the primary-output
/// response, and keep the flip-flop state across calls. An optional
/// stuck-at fault turns it into the defective chip. It is the crate's
/// scalar machine behind a public, width-checked interface — an
/// interaction surface, not a throughput path.
///
/// # Example
///
/// ```
/// use bist_netlist::benchmarks;
/// use bist_sim::{Logic, SteppedSim};
/// use bist_expand::TestVector;
///
/// let c = benchmarks::shift_register3();
/// let mut sim = SteppedSim::new(&c);
/// let ones: TestVector = "11".parse()?;
/// for _ in 0..3 {
///     sim.step(&ones)?;          // flush the unknown state
/// }
/// assert_eq!(sim.step(&ones)?, vec![Logic::One]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SteppedSim<'c> {
    circuit: &'c Circuit,
    /// The compiled instruction form every [`step`](Self::step) executes.
    tape: GateTape,
    machine: Machine,
    fault: Option<Fault>,
    cycles: usize,
}

impl<'c> SteppedSim<'c> {
    /// Creates a fault-free simulator in the all-unknown state, compiling
    /// the circuit's tape once for the simulator's lifetime.
    #[must_use]
    pub fn new(circuit: &'c Circuit) -> Self {
        SteppedSim::build(circuit, None)
    }

    /// Creates a simulator with a stuck-at fault injected.
    #[must_use]
    pub fn with_fault(circuit: &'c Circuit, fault: Fault) -> Self {
        SteppedSim::build(circuit, Some(fault))
    }

    fn build(circuit: &'c Circuit, fault: Option<Fault>) -> Self {
        let tape = GateTape::compile(circuit);
        let machine = Machine::new(&tape, fault);
        SteppedSim { circuit, tape, machine, fault, cycles: 0 }
    }

    /// The simulated circuit.
    #[must_use]
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The injected fault, if any.
    #[must_use]
    pub fn fault(&self) -> Option<Fault> {
        self.fault
    }

    /// Number of clock cycles applied since construction or
    /// [`reset`](Self::reset).
    #[must_use]
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// The current flip-flop values (circuit DFF order).
    #[must_use]
    pub fn state(&self) -> &[Logic] {
        self.machine.state()
    }

    /// Returns to the all-unknown power-on state.
    pub fn reset(&mut self) {
        self.machine.load(&[]);
        self.cycles = 0;
    }

    /// Applies one input vector: evaluates the combinational logic,
    /// returns the primary-output values, and clocks the flip-flops.
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] if the vector width differs from the
    /// circuit's input count.
    pub fn step(&mut self, vector: &TestVector) -> Result<Vec<Logic>, SimError> {
        if vector.width() != self.tape.num_inputs() {
            return Err(SimError::WidthMismatch {
                circuit_inputs: self.tape.num_inputs(),
                sequence_width: vector.width(),
            });
        }
        let outputs = self.machine.step(&self.tape, vector).to_vec();
        self.cycles += 1;
        Ok(outputs)
    }

    /// Reads the current value of a node (after the last
    /// [`step`](Self::step)); useful for debugging and waveform dumps.
    #[must_use]
    pub fn value(&self, node: bist_netlist::NodeId) -> Logic {
        self.machine.values[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_faulty, simulate_good};
    use bist_expand::TestSequence;
    use bist_netlist::benchmarks;

    fn seq(s: &str) -> TestSequence {
        s.parse().unwrap()
    }

    #[test]
    fn stepped_matches_batch_good() {
        let c = benchmarks::s27();
        let t0 = seq("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011");
        let batch = simulate_good(&c, &t0).unwrap();
        let mut sim = SteppedSim::new(&c);
        for (u, v) in t0.iter().enumerate() {
            assert_eq!(sim.step(v).unwrap(), batch.po[u], "u={u}");
        }
        assert_eq!(sim.state(), &batch.final_state[..]);
        assert_eq!(sim.cycles(), 10);
    }

    #[test]
    fn stepped_matches_batch_faulty() {
        let c = benchmarks::s27();
        let g8 = c.find("G8").unwrap();
        let t0 = seq("0111 1001 0111 1001 0100 1011");
        for fault in [Fault::output(g8, true), Fault::input(g8, 0, false)] {
            let batch = simulate_faulty(&c, &t0, fault).unwrap();
            let mut sim = SteppedSim::with_fault(&c, fault);
            assert_eq!(sim.fault(), Some(fault));
            for (u, v) in t0.iter().enumerate() {
                assert_eq!(sim.step(v).unwrap(), batch.po[u], "u={u} {fault}");
            }
        }
    }

    #[test]
    fn reset_restores_power_on_state() {
        let c = benchmarks::shift_register3();
        let mut sim = SteppedSim::new(&c);
        let v: TestVector = "11".parse().unwrap();
        for _ in 0..4 {
            sim.step(&v).unwrap();
        }
        assert!(sim.state().iter().all(|s| s.is_binary()));
        sim.reset();
        assert!(sim.state().iter().all(|s| !s.is_binary()));
        assert_eq!(sim.cycles(), 0);
    }

    #[test]
    fn width_mismatch_rejected() {
        let c = benchmarks::s27();
        let mut sim = SteppedSim::new(&c);
        let v: TestVector = "01".parse().unwrap();
        assert!(matches!(sim.step(&v), Err(SimError::WidthMismatch { .. })));
    }

    #[test]
    fn value_inspection() {
        let c = benchmarks::comb_mix();
        let mut sim = SteppedSim::new(&c);
        sim.step(&"110".parse().unwrap()).unwrap();
        let maj = c.find("maj").unwrap();
        assert_eq!(sim.value(maj), Logic::One);
    }

    #[test]
    fn dff_input_pin_fault_latches_forced_value() {
        // A branch fault on a DFF's D pin must affect the *next* cycle.
        let c = benchmarks::s27();
        let g5 = c.dffs()[0]; // G5 = DFF(G10)
        let fault = Fault::input(g5, 0, true);
        let t0 = seq("0111 1001 0111 1001");
        let batch = simulate_faulty(&c, &t0, fault).unwrap();
        let mut sim = SteppedSim::with_fault(&c, fault);
        for (u, v) in t0.iter().enumerate() {
            assert_eq!(sim.step(v).unwrap(), batch.po[u], "u={u}");
        }
    }
}
