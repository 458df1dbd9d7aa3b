//! The node-graph reference oracle.
//!
//! Every production engine in this crate executes the compiled
//! [`GateTape`](bist_netlist::GateTape). This module deliberately does
//! **not**: it walks the [`Circuit`] node graph exactly the way the seed
//! implementation did — per gate it dereferences the
//! [`Node`](bist_netlist::Node), matches on its
//! [`NodeKind`](bist_netlist::NodeKind) and folds over its fanin `Vec` —
//! so the differential suite can prove that tape compilation plus the
//! tape-executing engines never change a single detection time. It is a
//! test oracle, not a throughput path; keep it boring.

use crate::{Fault, FaultSite, Logic, SimError};
use bist_expand::VectorSource;
use bist_netlist::{Circuit, NodeKind};

/// First detection time of every fault in `faults` under the vector
/// stream, computed by a fused good/faulty scalar pair walking the
/// **node graph** (never the tape). Semantics are identical to every
/// [`SimBackend`](crate::SimBackend): a fault is detected at time `u`
/// when some primary output is binary in the fault-free machine and the
/// complementary binary value in the faulty machine, both machines
/// starting from the all-`X` state.
///
/// # Errors
///
/// [`SimError::WidthMismatch`] / [`SimError::EmptySequence`] for bad
/// streams and [`SimError::FaultSiteOutOfRange`] for a fault on a node
/// the circuit does not have, exactly like the engines.
pub fn detection_times(
    circuit: &Circuit,
    source: &dyn VectorSource,
    faults: &[Fault],
) -> Result<Vec<Option<usize>>, SimError> {
    crate::good::validate(circuit.num_inputs(), circuit.num_nodes(), source, faults)?;
    faults.iter().map(|&fault| first_detection(circuit, source, fault)).collect()
}

/// One fused good/faulty node-graph walk with early exit at detection.
fn first_detection(
    circuit: &Circuit,
    source: &dyn VectorSource,
    fault: Fault,
) -> Result<Option<usize>, SimError> {
    let out_force: Option<(usize, Logic)> = match fault {
        Fault { site: FaultSite::Output(n), stuck } => Some((n.index(), Logic::from_bool(stuck))),
        _ => None,
    };
    let in_force: Option<(usize, u32, Logic)> = match fault {
        Fault { site: FaultSite::Input { node, pin }, stuck } => {
            Some((node.index(), pin, Logic::from_bool(stuck)))
        }
        _ => None,
    };
    let read = |values: &[Logic], consumer: usize, pin: u32, src: usize| -> Logic {
        match in_force {
            Some((n, p, v)) if n == consumer && p == pin => v,
            _ => values[src],
        }
    };
    let force_out = |node: usize, v: Logic| -> Logic {
        match out_force {
            Some((n, f)) if n == node => f,
            _ => v,
        }
    };

    let n = circuit.num_nodes();
    let mut good = vec![Logic::X; n];
    let mut bad = vec![Logic::X; n];
    let mut good_state = vec![Logic::X; circuit.num_dffs()];
    let mut bad_state = vec![Logic::X; circuit.num_dffs()];
    let mut first = None;

    source.visit(&mut |t, vector| {
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            let v = Logic::from_bool(vector.get(i));
            good[pi.index()] = v;
            bad[pi.index()] = force_out(pi.index(), v);
        }
        for (k, &dff) in circuit.dffs().iter().enumerate() {
            good[dff.index()] = good_state[k];
            bad[dff.index()] = force_out(dff.index(), bad_state[k]);
        }
        for &g in circuit.eval_order() {
            let node = circuit.node(g);
            let NodeKind::Gate(kind) = node.kind() else { unreachable!() };
            let gi = g.index();
            good[gi] =
                crate::eval::eval_scalar_fold(*kind, node.fanin().iter().map(|&f| good[f.index()]));
            let v = crate::eval::eval_scalar_fold(
                *kind,
                node.fanin().iter().enumerate().map(|(p, &f)| read(&bad, gi, p as u32, f.index())),
            );
            bad[gi] = force_out(gi, v);
        }
        let observable = circuit.outputs().iter().any(|&o| {
            let (g, b) = (good[o.index()], bad[o.index()]);
            g.is_binary() && b.is_binary() && g != b
        });
        if observable {
            first = Some(t);
            return false;
        }
        for (k, &dff) in circuit.dffs().iter().enumerate() {
            let src = circuit.node(dff).fanin()[0];
            good_state[k] = good[src.index()];
            bad_state[k] = read(&bad, dff.index(), 0, src.index());
        }
        true
    });

    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collapse, fault_universe, PackedBackend, SimBackend};
    use bist_expand::TestSequence;
    use bist_netlist::benchmarks;

    #[test]
    fn oracle_matches_packed_on_s27() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let t0: TestSequence = "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse().unwrap();
        let oracle = detection_times(&c, &t0, &faults).unwrap();
        let packed = PackedBackend.detection_times(&c, &t0, &faults).unwrap();
        assert_eq!(oracle, packed);
        assert_eq!(oracle.iter().filter(|t| t.is_some()).count(), 32);
    }

    #[test]
    fn oracle_validates_like_the_engines() {
        let c = benchmarks::s27();
        let bad: TestSequence = "000".parse().unwrap();
        assert!(matches!(detection_times(&c, &bad, &[]), Err(SimError::WidthMismatch { .. })));
    }
}
