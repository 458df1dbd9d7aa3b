//! Explicit machine state of a fault-simulation pass.
//!
//! A pass over a vector stream advances one fault-free machine and one
//! faulty machine per fault; between vectors, everything a machine
//! remembers is its flip-flop values. [`MachineState`] is that memory,
//! made explicit and cloneable (quaigh's `SimpleSimulator` keeps the
//! same split between reset state and stepped flip-flop values): the
//! good machine's flip-flops plus, per fault, the faulty machine's. A
//! pass resumed from the state a prefix `P` left behind, over a
//! continuation `B`, reports exactly the detection times the from-reset
//! pass over `P ++ B` reports for every fault `P` did not detect — so
//! callers that grow or edit a sequence (test generation, static
//! compaction) simulate only the vectors that changed.
//!
//! [`MachineState::reset`] is the all-`X` power-up state every
//! from-scratch pass starts from; it holds no per-fault rows and costs
//! no allocation. States at later times come out of
//! [`SimBackend::resume_tape_obs`](crate::SimBackend::resume_tape_obs)
//! as [`Resumed::states`] snapshots. Every engine loads and captures
//! them — the packed engines one lane per machine, the scalar reference
//! one scalar machine each — and a state captured by one engine resumes
//! on any other with the same result.

use crate::{Fault, Logic};

/// Flip-flop values of the good machine and of a set of faulty machines
/// after [`time`](Self::time) vectors of some stream.
///
/// Per-fault values are stored row by row in the order the pass captured
/// them, with an index sorted by fault on top, so a resumed pass can
/// re-pack any subset of the tracked faults, in any order, into its
/// lanes. Two states are equal when they hold the same values for the
/// same faults, whatever the capture order.
#[derive(Debug, Clone, Default)]
pub struct MachineState {
    time: usize,
    /// Good-machine flip-flop values in tape DFF order (empty at reset).
    good: Vec<Logic>,
    /// Tracked faults, in capture order.
    faults: Vec<Fault>,
    /// `faults.len()` rows of `good.len()` flip-flop values each.
    faulty: Vec<Logic>,
    /// Row indices sorted by fault, for lookup.
    order: Vec<u32>,
}

impl MachineState {
    /// The power-up state: time 0, every flip-flop of every machine `X`.
    /// Any fault may resume from it.
    #[must_use]
    pub const fn reset() -> Self {
        MachineState {
            time: 0,
            good: Vec::new(),
            faults: Vec::new(),
            faulty: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Builds a state from captured rows: `faulty` holds one row of
    /// `good.len()` values per fault, in the order of `faults`.
    pub(crate) fn captured(
        time: usize,
        good: Vec<Logic>,
        mut faults: Vec<Fault>,
        mut faulty: Vec<Logic>,
    ) -> Self {
        debug_assert_eq!(faulty.len(), faults.len() * good.len());
        let rows = u32::try_from(faults.len()).expect("fewer than 2^32 faults per pass");
        let mut order: Vec<u32> = (0..rows).collect();
        order.sort_unstable_by_key(|&r| faults[r as usize]);
        faults.shrink_to_fit();
        faulty.shrink_to_fit();
        MachineState { time, good, faults, faulty, order }
    }

    /// Number of vectors applied since reset.
    #[must_use]
    pub fn time(&self) -> usize {
        self.time
    }

    /// Whether this is the all-`X` power-up state.
    #[must_use]
    pub fn is_reset(&self) -> bool {
        self.time == 0
    }

    /// The good machine's flip-flop values in tape DFF order — empty for
    /// the reset state, whose flip-flops are all `X`.
    #[must_use]
    pub fn good(&self) -> &[Logic] {
        &self.good
    }

    /// The faults whose faulty machines this state tracks, in capture
    /// order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The flip-flop values of `fault`'s machine, if tracked.
    #[must_use]
    pub fn fault_state(&self, fault: Fault) -> Option<&[Logic]> {
        self.row(fault).map(|r| self.row_values(r))
    }

    /// This state relabelled as the state at `time`, tracking only the
    /// faults `keep` accepts. Static compaction uses it when omitting a
    /// vector shifts the tail of a walk one step earlier: the flip-flop
    /// values stay valid, only their time and the faults still worth
    /// tracking change. Rows are copied only if some are dropped.
    #[must_use]
    pub fn retimed(self, time: usize, keep: impl Fn(Fault) -> bool) -> Self {
        debug_assert!(!self.is_reset() && time > 0, "only captured states can be retimed");
        if self.faults.iter().all(|&f| keep(f)) {
            return MachineState { time, ..self };
        }
        let mut faults = Vec::new();
        let mut faulty = Vec::new();
        for (r, &f) in self.faults.iter().enumerate().filter(|&(_, &f)| keep(f)) {
            faults.push(f);
            faulty.extend_from_slice(self.row_values(r));
        }
        MachineState::captured(time, self.good, faults, faulty)
    }

    /// Row index of `fault`, if tracked.
    pub(crate) fn row(&self, fault: Fault) -> Option<usize> {
        let k = self.order.binary_search_by_key(&fault, |&r| self.faults[r as usize]).ok()?;
        Some(self.order[k] as usize)
    }

    /// The values of row `r`.
    pub(crate) fn row_values(&self, r: usize) -> &[Logic] {
        let w = self.good.len();
        &self.faulty[r * w..(r + 1) * w]
    }
}

impl PartialEq for MachineState {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
            && self.good == other.good
            && self.order.len() == other.order.len()
            && self.order.iter().zip(&other.order).all(|(&a, &b)| {
                let (a, b) = (a as usize, b as usize);
                self.faults[a] == other.faults[b] && self.row_values(a) == other.row_values(b)
            })
    }
}

impl Eq for MachineState {}

/// The outcome of a resumed pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resumed {
    /// First detection time of every fault, as a time since reset (the
    /// stream's first vector is applied at the resumed state's
    /// [`time`](MachineState::time)), or `None` if the stream does not
    /// detect it.
    pub times: Vec<Option<usize>>,
    /// One snapshot per requested capture time, tracking exactly the
    /// faults not yet detected before it. `None` when no faulty machine's
    /// walk reached that time — every fault was detected earlier, the
    /// fault list is empty or the stream ends first — because the pass
    /// steps the good machine only alongside faulty ones.
    pub states: Vec<Option<MachineState>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_netlist::NodeId;

    #[test]
    fn reset_tracks_nothing_and_allocates_nothing() {
        let s = MachineState::reset();
        assert!(s.is_reset());
        assert_eq!(s.time(), 0);
        assert!(s.good().is_empty() && s.faults().is_empty());
        assert_eq!(s.good.capacity() + s.faulty.capacity(), 0);
        assert_eq!(s, MachineState::default());
    }

    #[test]
    fn rows_are_keyed_by_fault_in_any_order() {
        let a = Fault::output(NodeId::from_index(3), true);
        let b = Fault::output(NodeId::from_index(1), false);
        let (ra, rb) = ([Logic::One, Logic::X], [Logic::Zero, Logic::One]);
        let good = vec![Logic::One, Logic::Zero];
        let s = MachineState::captured(5, good.clone(), vec![a, b], [ra, rb].concat());
        assert_eq!(s.time(), 5);
        assert!(!s.is_reset());
        assert_eq!(s.faults(), &[a, b]);
        assert_eq!(s.fault_state(a), Some(&ra[..]));
        assert_eq!(s.fault_state(b), Some(&rb[..]));
        assert_eq!(s.fault_state(Fault::output(NodeId::from_index(9), true)), None);
        // Equality ignores capture order but not values.
        let swapped = MachineState::captured(5, good.clone(), vec![b, a], [rb, ra].concat());
        assert_eq!(s, swapped);
        let changed = MachineState::captured(5, good, vec![b, a], [ra, rb].concat());
        assert_ne!(s, changed);
    }

    #[test]
    fn retimed_relabels_and_drops_rows() {
        let a = Fault::output(NodeId::from_index(3), true);
        let b = Fault::output(NodeId::from_index(1), false);
        let (ra, rb) = ([Logic::One, Logic::X], [Logic::Zero, Logic::One]);
        let good = vec![Logic::One, Logic::Zero];
        let s = MachineState::captured(5, good.clone(), vec![a, b], [ra, rb].concat());
        let all = s.clone().retimed(4, |_| true);
        assert_eq!(all.time(), 4);
        assert_eq!(all.good(), &good[..]);
        assert_eq!((all.fault_state(a), all.fault_state(b)), (Some(&ra[..]), Some(&rb[..])));
        let only_b = s.retimed(4, |f| f == b);
        assert_eq!(only_b, MachineState::captured(4, good, vec![b], rb.to_vec()));
        assert_eq!(only_b.fault_state(a), None);
    }
}
