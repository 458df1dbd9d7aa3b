use crate::Fault;
use std::fmt;

/// Errors from the simulation engines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The test sequence width does not match the circuit's input count.
    WidthMismatch {
        /// Number of primary inputs of the circuit.
        circuit_inputs: usize,
        /// Width of the supplied sequence.
        sequence_width: usize,
    },
    /// An empty test sequence was supplied where at least one vector is
    /// required.
    EmptySequence,
    /// A lane index addressed a lane beyond what the operation has
    /// available — e.g. reading past a packed word's width, or a fault
    /// chunk larger than an engine's per-pass capacity (word width minus
    /// the reserved good-machine lane).
    LaneOutOfRange {
        /// The offending lane index.
        lane: usize,
        /// Number of lanes available to the operation.
        lanes: usize,
    },
    /// A sharded backend was configured with zero worker threads.
    ZeroThreads,
    /// A compiled [`GateTape`](bist_netlist::GateTape) was injected for a
    /// circuit it was not compiled from (interface shape differs). The
    /// shape tuples are `(nodes, inputs, outputs, DFFs, gates)` — an
    /// O(1) fingerprint that catches miskeyed caches without walking
    /// either structure.
    TapeMismatch {
        /// Shape of the injected tape.
        tape_shape: (usize, usize, usize, usize, usize),
        /// Shape of the circuit it was paired with.
        circuit_shape: (usize, usize, usize, usize, usize),
    },
    /// The sweep observed a cancelled
    /// [`CancelToken`](bist_obs::CancelToken) (riding the `Obs` handle)
    /// at a chunk boundary and stopped early. Partial detection results
    /// are discarded: the caller asked the job to stop, not for an
    /// incomplete answer.
    Cancelled {
        /// Whether the token's deadline expired (as opposed to an
        /// explicit cancellation request).
        deadline_expired: bool,
    },
    /// A fault names a node the circuit does not have.
    FaultSiteOutOfRange {
        /// The offending fault.
        fault: Fault,
        /// Number of nodes of the circuit.
        nodes: usize,
    },
    /// A [`MachineState`](crate::MachineState) was resumed on a tape
    /// with a different number of flip-flops.
    StateMismatch {
        /// Flip-flops the state holds per machine.
        state_dffs: usize,
        /// Flip-flops of the tape.
        tape_dffs: usize,
    },
    /// A resumed pass was asked to simulate a fault the (non-reset)
    /// machine state does not track — typically one detected before the
    /// state was captured.
    MissingFaultState {
        /// The untracked fault.
        fault: Fault,
    },
    /// A capture time was not strictly after the resumed state's time
    /// and every earlier capture time.
    InvalidCapture {
        /// The offending capture time.
        time: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WidthMismatch { circuit_inputs, sequence_width } => write!(
                f,
                "sequence width {sequence_width} does not match circuit input count {circuit_inputs}"
            ),
            SimError::EmptySequence => write!(f, "test sequence is empty"),
            SimError::LaneOutOfRange { lane, lanes } => {
                write!(f, "lane {lane} out of range ({lanes} lanes available)")
            }
            SimError::ZeroThreads => {
                write!(f, "sharded backend requires at least one worker thread")
            }
            SimError::TapeMismatch { tape_shape, circuit_shape } => write!(
                f,
                "compiled tape shape {tape_shape:?} does not match circuit shape \
                 {circuit_shape:?} (nodes/inputs/outputs/DFFs/gates)"
            ),
            SimError::Cancelled { deadline_expired } => {
                if *deadline_expired {
                    write!(f, "sweep cancelled: job deadline expired")
                } else {
                    write!(f, "sweep cancelled by request")
                }
            }
            SimError::FaultSiteOutOfRange { fault, nodes } => {
                write!(f, "fault {fault} is not on one of the circuit's {nodes} nodes")
            }
            SimError::StateMismatch { state_dffs, tape_dffs } => write!(
                f,
                "machine state holds {state_dffs} flip-flops per machine, the tape has {tape_dffs}"
            ),
            SimError::MissingFaultState { fault } => {
                write!(f, "machine state does not track fault {fault}")
            }
            SimError::InvalidCapture { time } => {
                write!(f, "capture time {time} is not after the resume point and earlier captures")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = SimError::WidthMismatch { circuit_inputs: 4, sequence_width: 3 };
        assert!(e.to_string().contains('4'));
        assert!(!SimError::EmptySequence.to_string().is_empty());
        let lane = SimError::LaneOutOfRange { lane: 64, lanes: 64 };
        assert!(lane.to_string().contains("64"));
        assert!(SimError::ZeroThreads.to_string().contains("thread"));
        let tape = SimError::TapeMismatch {
            tape_shape: (17, 3, 2, 1, 11),
            circuit_shape: (12, 3, 2, 1, 6),
        };
        assert!(tape.to_string().contains("17"));
        assert!(SimError::Cancelled { deadline_expired: true }.to_string().contains("deadline"));
        assert!(SimError::Cancelled { deadline_expired: false }.to_string().contains("request"));
        let fault = Fault::output(bist_netlist::NodeId::from_index(40), true);
        let site = SimError::FaultSiteOutOfRange { fault, nodes: 17 };
        assert!(site.to_string().contains("17"));
        let state = SimError::StateMismatch { state_dffs: 3, tape_dffs: 14 };
        assert!(state.to_string().contains("14"));
        let fault = Fault::output(bist_netlist::NodeId::from_index(7), true);
        assert!(SimError::MissingFaultState { fault }.to_string().contains("s-a-1"));
        assert!(SimError::InvalidCapture { time: 12 }.to_string().contains("12"));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SimError>();
    }
}
