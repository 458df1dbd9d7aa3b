//! Walk fast-forward telemetry on the scheme's real passes.
//!
//! The packed engines skip the rest of an expansion phase once a memory
//! walk returns the machines they still track to the state the walk began
//! in, and count what they skipped as `sim.walks_skipped` /
//! `sim.vectors_skipped` (never as `sim.vectors`). On a298 at `n = 8` the
//! drop pass and Procedure 2's omission probes both skip; a pass over a
//! stored `T0`, which declares no repeated walks, skips nothing.

use std::sync::Arc;

use bist_core::select_subsequences;
use bist_expand::expansion::{Expand, ExpansionConfig};
use bist_expand::VectorSource;
use bist_netlist::benchmarks;
use bist_obs::{Obs, Registry};
use bist_sim::{collapse, fault_universe, Fault, FaultSimulator};
use bist_tgen::{generate_t0_with_faults, TgenConfig};

/// `(walks_skipped, vectors_skipped, vectors)` recorded by `registry`.
fn skips(registry: &Registry) -> (u64, u64, u64) {
    let snap = registry.snapshot();
    let read = |name| snap.counter(name).unwrap_or(0);
    (read("sim.walks_skipped"), read("sim.vectors_skipped"), read("sim.vectors"))
}

/// A simulator whose sweep telemetry lands in a fresh registry.
fn observed<'c>(circuit: &'c bist_netlist::Circuit) -> (FaultSimulator<'c>, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let sim = FaultSimulator::new(circuit).with_obs(Obs::with_registry(Arc::clone(&registry)));
    (sim, registry)
}

#[test]
fn drop_passes_and_omission_probes_skip_and_stored_sequences_do_not() {
    let circuit = benchmarks::suite().into_iter().find(|e| e.name == "a298").unwrap();
    let circuit = circuit.build().unwrap();
    let faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
    let config = TgenConfig::new().max_length(256).compaction_budget(20).seed(1999);
    let t0 = generate_t0_with_faults(&circuit, &config, faults).unwrap();
    let detected: Vec<Fault> = t0.coverage.detected().map(|(f, _)| f).collect();
    let expansion = ExpansionConfig::new(8).unwrap();
    let plain = FaultSimulator::new(&circuit);
    let selection =
        select_subsequences(&plain, &t0.sequence, &t0.coverage, &expansion, 1999).unwrap();
    let first = &selection.sequences[0];

    // A drop pass: one selected sequence's expansion against every
    // detected fault.
    let (sim, registry) = observed(&circuit);
    let stream = expansion.stream(&first.sequence);
    let times = sim.detection_times_stream(&stream, &detected).unwrap();
    assert_eq!(times, plain.detection_times_stream(&stream, &detected).unwrap());
    let (walks, vectors_skipped, vectors) = skips(&registry);
    assert!(walks > 0 && vectors_skipped > 0, "drop pass: {walks} walks, {vectors_skipped}");
    assert!(vectors > 0);

    // A Procedure 2 omission call: every single-vector omission of a
    // selected sequence, probed for its target.
    let sel = selection.sequences.iter().find(|s| s.len() >= 2).expect("a multi-vector sequence");
    let (sim, registry) = observed(&circuit);
    let candidates: Vec<_> =
        (0..sel.len()).map(|u| expansion.stream(&sel.sequence).without(u)).collect();
    let sources: Vec<&dyn VectorSource> =
        candidates.iter().map(|c| c as &dyn VectorSource).collect();
    let found = sim.first_detecting(&sources, sel.target).unwrap();
    let scan = sources.iter().position(|c| plain.detects_stream(*c, sel.target).unwrap());
    assert_eq!(found, scan);
    let (walks, vectors_skipped, _) = skips(&registry);
    assert!(walks > 0 && vectors_skipped > 0, "omission call: {walks} walks, {vectors_skipped}");

    // A stored sequence declares one walk: nothing to skip.
    let (sim, registry) = observed(&circuit);
    sim.detection_times(&t0.sequence, &detected).unwrap();
    let (walks, vectors_skipped, vectors) = skips(&registry);
    assert_eq!((walks, vectors_skipped), (0, 0));
    assert!(vectors > 0);
}
