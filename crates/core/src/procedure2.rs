//! Procedure 2: finding the subsequence `T'` for a target fault.
//!
//! Given a fault `f` detected by `T0` at time `udet(f)`, Procedure 2 finds
//! a short sequence `T'` whose *expansion* detects `f`:
//!
//! 1. Start with the window `T' = T0[udet, udet]` and grow it backwards
//!    (`ustart -= 1`) until `T'exp` detects `f`. The window
//!    `T0[0, udet]` always works: `T'exp` begins with `T'` itself, which
//!    detects `f` by the definition of `udet`.
//! 2. Then shrink `T'` by *vector omission*: visit the remaining time
//!    units in random order; drop a vector if `T'exp` still detects `f`
//!    after the omission, restarting the scan after every success, until
//!    no single omission is possible.
//!
//! Both steps are scans for the first detecting candidate, so they hand
//! their candidates to [`FaultSimulator::first_detecting`] 32 at a time
//! — one 64-lane pass on the packed engines instead of 32 one-fault
//! passes — and keep the scan's order, its winner and its counts.

use bist_expand::expansion::Expand;
use bist_expand::{ExpansionIter, TestSequence, VectorSource};
use bist_sim::{Fault, FaultSimulator, SimError, PROBE_LANES};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A subsequence selected for one target fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectedSequence {
    /// The (compacted) loaded sequence `S`.
    pub sequence: TestSequence,
    /// The window `[ustart, udet]` of `T0` the sequence was carved from
    /// (before omission).
    pub window: (usize, usize),
    /// The fault this sequence was generated for.
    pub target: Fault,
}

impl SelectedSequence {
    /// Length of the loaded sequence.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// True if the sequence is empty (never produced by Procedure 2).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

/// Statistics of one Procedure 2 invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Procedure2Stats {
    /// Windows probed while growing the window (step 1): the expanded
    /// sequences the paper's one-at-a-time scan simulates. The packed
    /// engines test up to 32 of them per pass.
    pub grow_simulations: usize,
    /// Omission candidates probed (step 2), counted the same way.
    pub omit_simulations: usize,
    /// Vectors removed by omission.
    pub omitted: usize,
}

/// Runs Procedure 2 for `fault` with detection time `udet` under `t0`.
///
/// Returns the selected sequence and simulation-count statistics. Both
/// steps submit their candidates [`PROBE_LANES`] (32) at a time to
/// [`FaultSimulator::first_detecting`] and accept the first one in scan
/// order that detects, so the result — and every statistic, which counts
/// the candidates the sequential scan would have simulated — is the
/// paper's one-candidate-at-a-time procedure, bit for bit.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `udet >= t0.len()` (an inconsistent detection time) or if
/// even the full prefix `T0[0, udet]` fails to expand into a detecting
/// sequence — impossible when `udet` really is the first detection time
/// of `fault` under `t0`.
pub fn find_subsequence(
    sim: &FaultSimulator<'_>,
    t0: &TestSequence,
    fault: Fault,
    udet: usize,
    expansion: &dyn Expand,
    seed: u64,
) -> Result<(SelectedSequence, Procedure2Stats), SimError> {
    assert!(udet < t0.len(), "udet {udet} out of range for |T0| = {}", t0.len());
    let mut stats = Procedure2Stats::default();

    // Step 1: grow the window backwards until the expansion detects f.
    // The windows T0[udet - k, udet] for k = 0, 1, ... are probed in
    // order, so the first detecting one has the maximal ustart. The
    // expansions are streamed (neither materialized nor copied): each
    // probe replays its window of T0 through the phase schedule exactly
    // as the hardware would.
    let mut k0 = 0;
    let ustart = loop {
        let k1 = (k0 + PROBE_LANES).min(udet + 1);
        let windows: Vec<ExpansionIter<'_>> =
            (k0..k1).map(|k| expansion.stream(t0).window(udet - k, udet)).collect();
        if let Some(i) = first_detecting(sim, &windows, fault, &mut stats.grow_simulations)? {
            break udet - (k0 + i);
        }
        assert!(k1 <= udet, "T0[0, udet] must detect the fault; inconsistent udet or fault list");
        k0 = k1;
    };
    let mut current = t0.subsequence(ustart, udet);
    let window = (ustart, udet);

    // Step 2: omission of test vectors in random order; restart the scan
    // after every accepted omission.
    let mut rng = StdRng::seed_from_u64(seed ^ mix(fault));
    'scan: loop {
        if current.len() <= 1 {
            break;
        }
        let mut order: Vec<usize> = (0..current.len()).collect();
        order.shuffle(&mut rng);
        for batch in order.chunks(PROBE_LANES) {
            let candidates: Vec<ExpansionIter<'_>> =
                batch.iter().map(|&u| expansion.stream(&current).without(u)).collect();
            if let Some(i) = first_detecting(sim, &candidates, fault, &mut stats.omit_simulations)?
            {
                current = current.without(batch[i]);
                stats.omitted += 1;
                continue 'scan;
            }
        }
        break;
    }

    Ok((SelectedSequence { sequence: current, window, target: fault }, stats))
}

/// The first of the candidate expansions that detects `fault`. Adds to
/// `probes` the simulations the sequential scan would have run (the
/// winner's index + 1, or every candidate) and records them and the
/// call on the simulator's `core.p2_probes` / `core.p2_passes` counters.
fn first_detecting(
    sim: &FaultSimulator<'_>,
    candidates: &[ExpansionIter<'_>],
    fault: Fault,
    probes: &mut usize,
) -> Result<Option<usize>, SimError> {
    let sources: Vec<&dyn VectorSource> =
        candidates.iter().map(|s| s as &dyn VectorSource).collect();
    let found = sim.first_detecting(&sources, fault)?;
    let scanned = found.map_or(candidates.len(), |i| i + 1);
    *probes += scanned;
    sim.obs().counter_add("core.p2_probes", scanned as u64);
    sim.obs().counter_add("core.p2_passes", 1);
    Ok(found)
}

/// Mixes a fault into the omission-order seed so different targets explore
/// different orders deterministically.
fn mix(fault: Fault) -> u64 {
    use bist_sim::FaultSite;
    let (a, b, c) = match fault.site {
        FaultSite::Output(n) => (n.index() as u64, 0u64, 0u64),
        FaultSite::Input { node, pin } => (node.index() as u64, u64::from(pin), 1u64),
    };
    let mut h = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(c)
        .wrapping_add(u64::from(fault.stuck));
    h ^= h >> 31;
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_expand::expansion::ExpansionConfig;
    use bist_netlist::benchmarks;
    use bist_sim::{collapse, fault_universe, FaultCoverage, FaultSimulator};

    fn s27_t0() -> TestSequence {
        "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse().unwrap()
    }

    fn s27_setup() -> (bist_netlist::Circuit, Vec<Fault>) {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        (c, faults)
    }

    #[test]
    fn finds_sequence_for_the_hardest_s27_fault() {
        // Recreate the paper's worked example: the fault with udet = 9
        // (called f10 in Table 2) under n = 1.
        let (c, faults) = s27_setup();
        let sim = FaultSimulator::new(&c);
        let t0 = s27_t0();
        let cov = FaultCoverage::simulate(&sim, &t0, faults).unwrap();
        assert_eq!(cov.max_detection_time(), Some(9));
        let (f, udet) = cov.detected().find(|&(_, u)| u == 9).unwrap();
        let expansion = ExpansionConfig::new(1).unwrap();
        let (sel, stats) = find_subsequence(&sim, &t0, f, udet, &expansion, 0).unwrap();
        // The paper finds ustart = 6 and compacts T' down to 2 vectors;
        // the exact result depends on the fault representative and the
        // random omission order, but the structure must hold:
        assert!(sel.window.1 == 9);
        assert!(sel.window.0 <= 9);
        assert!(!sel.sequence.is_empty());
        assert!(sel.len() <= sel.window.1 - sel.window.0 + 1);
        assert!(stats.grow_simulations >= 1);
        // And the defining property: the expansion detects the fault.
        assert!(sim.detects(&expansion.expand(&sel.sequence), f).unwrap());
    }

    #[test]
    fn expansion_detects_target_for_every_s27_fault() {
        let (c, faults) = s27_setup();
        let sim = FaultSimulator::new(&c);
        let t0 = s27_t0();
        let cov = FaultCoverage::simulate(&sim, &t0, faults).unwrap();
        let expansion = ExpansionConfig::new(1).unwrap();
        for (f, udet) in cov.detected() {
            let (sel, _) = find_subsequence(&sim, &t0, f, udet, &expansion, 42).unwrap();
            assert!(
                sim.detects(&expansion.expand(&sel.sequence), f).unwrap(),
                "expansion must detect {}",
                f.describe(&c)
            );
            assert!(sel.len() <= udet + 1);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (c, faults) = s27_setup();
        let sim = FaultSimulator::new(&c);
        let t0 = s27_t0();
        let cov = FaultCoverage::simulate(&sim, &t0, faults).unwrap();
        let (f, udet) = cov.detected().max_by_key(|&(_, u)| u).unwrap();
        let expansion = ExpansionConfig::new(2).unwrap();
        let (a, _) = find_subsequence(&sim, &t0, f, udet, &expansion, 7).unwrap();
        let (b, _) = find_subsequence(&sim, &t0, f, udet, &expansion, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn window_grows_only_when_needed() {
        // A fault detected at time 0 must give the single-vector window.
        let (c, faults) = s27_setup();
        let sim = FaultSimulator::new(&c);
        let t0 = s27_t0();
        let cov = FaultCoverage::simulate(&sim, &t0, faults).unwrap();
        if let Some((f, udet)) = cov.detected().min_by_key(|&(_, u)| u) {
            let expansion = ExpansionConfig::new(1).unwrap();
            let (sel, _) = find_subsequence(&sim, &t0, f, udet, &expansion, 1).unwrap();
            assert!(sel.window.0 <= udet);
            assert!(!sel.sequence.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_udet_panics() {
        let (c, faults) = s27_setup();
        let sim = FaultSimulator::new(&c);
        let t0 = s27_t0();
        let expansion = ExpansionConfig::new(1).unwrap();
        let _ = find_subsequence(&sim, &t0, faults[0], 99, &expansion, 0);
    }
}
