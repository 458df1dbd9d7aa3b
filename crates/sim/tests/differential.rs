//! Seeded differential suite over the full benchmark suite: the seed's
//! node-graph scalar oracle ([`bist_sim::reference`], which never touches
//! the compiled tape) vs every tape-executing engine — the scalar tape
//! engine, the packed engine and the sharded engine on 2 and 4 threads —
//! on all 13 suite circuits.
//!
//! Equality is asserted on *detection times*, not just detected /
//! undetected — the paper's selection procedures key off `udet(f)`, so a
//! backend that detects the right faults at the wrong time units would
//! silently produce different (possibly invalid) subsequence selections.
//! Because the oracle bypasses [`GateTape`] entirely, agreement proves
//! that tape compilation plus tape execution is bit-identical to the seed
//! node-graph walk.
//!
//! Fault lists are seeded random samples of each circuit's collapsed
//! universe, sized down on the big analogs to keep the scalar oracle
//! affordable in debug builds.

use bist_expand::expansion::{Expand, ExpansionConfig};
use bist_expand::{TestSequence, TestVector, VectorSource};
use bist_netlist::{benchmarks, Circuit, GateTape};
use bist_sim::{collapse, fault_universe, reference, Fault};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded sample of `k` collapsed faults (the whole universe if smaller).
fn sample_faults(circuit: &Circuit, k: usize, rng: &mut StdRng) -> Vec<Fault> {
    let mut faults = collapse(circuit, &fault_universe(circuit)).representatives().to_vec();
    while faults.len() > k {
        let victim = rng.gen_range(0usize..faults.len());
        faults.swap_remove(victim);
    }
    faults
}

fn random_sequence(circuit: &Circuit, len: usize, rng: &mut StdRng) -> TestSequence {
    let width = circuit.num_inputs();
    TestSequence::from_vectors(
        (0..len).map(|_| TestVector::from_fn(width, |_| rng.gen_bool(0.5))).collect(),
    )
    .expect("uniform width")
}

mod common;

/// Fault-sample and sequence sizes per circuit, scaled down as the
/// scalar oracle gets more expensive.
fn budget(gates: usize) -> (usize, usize) {
    match gates {
        0..=200 => (96, 24),
        201..=1000 => (64, 16),
        1001..=4000 => (32, 12),
        _ => (16, 8),
    }
}

#[test]
fn all_tape_engines_match_the_node_graph_oracle_on_every_suite_circuit() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_e7e5);
    let entries = benchmarks::suite();
    assert_eq!(entries.len(), 13, "the differential suite must cover all 13 circuits");
    for entry in entries {
        let circuit = entry.build().expect("suite circuit builds");
        let tape = GateTape::compile(&circuit);
        let (num_faults, seq_len) = budget(entry.gates);
        let faults = sample_faults(&circuit, num_faults, &mut rng);
        let seq = random_sequence(&circuit, seq_len, &mut rng);

        let oracle =
            reference::detection_times(&circuit, &seq, &faults).expect("node-graph oracle runs");
        for engine in common::engine_grid() {
            // Both entry points: on-the-fly compilation and the shared
            // precompiled tape must agree with the seed oracle.
            let times = engine.detection_times(&circuit, &seq, &faults).expect("engine runs");
            assert_eq!(times, oracle, "{} vs node-graph oracle on {}", engine.name(), entry.name);
            let on_tape =
                engine.detection_times_tape(&tape, &seq, &faults).expect("tape engine runs");
            assert_eq!(on_tape, oracle, "{} (shared tape) on {}", engine.name(), entry.name);
        }
    }
}

#[test]
fn engines_agree_on_expanded_streams() {
    // The workload that matters: lazily expanded `8·n·|S|` streams, where
    // early-exit and replay interact with chunking and sharding.
    let mut rng = StdRng::seed_from_u64(0xe8a_5eed);
    for entry in benchmarks::suite_up_to(600) {
        let circuit = entry.build().expect("suite circuit builds");
        let tape = GateTape::compile(&circuit);
        let faults = sample_faults(&circuit, 48, &mut rng);
        let s = random_sequence(&circuit, 3, &mut rng);
        for n in [1, 2] {
            let cfg = ExpansionConfig::new(n).expect("n >= 1");
            let stream = cfg.stream(&s);
            let oracle =
                reference::detection_times(&circuit, &stream, &faults).expect("oracle runs");
            for engine in common::engine_grid() {
                let times =
                    engine.detection_times_tape(&tape, &stream, &faults).expect("engine runs");
                assert_eq!(times, oracle, "{} on {} n={n}", engine.name(), entry.name);
            }
            // The stream view itself must match the materialized Sexp.
            assert_eq!(stream.materialize(), cfg.expand(&s), "{} n={n}", entry.name);
        }
    }
}

#[test]
fn duplicate_faults_get_identical_times_across_chunk_boundaries() {
    // Duplicating the fault list beyond one 511-lane chunk exercises the
    // lane bookkeeping of every width: duplicates must resolve to the
    // same time regardless of which chunk/shard/lane they land in.
    let circuit = benchmarks::suite()[2].build().expect("a344 builds");
    let tape = GateTape::compile(&circuit);
    let mut rng = StdRng::seed_from_u64(77);
    let base = sample_faults(&circuit, 96, &mut rng);
    let mut tripled = base.clone();
    tripled.extend(base.iter().copied());
    tripled.extend(base.iter().copied());
    let seq = random_sequence(&circuit, 12, &mut rng);
    for engine in common::engine_grid() {
        let times = engine.detection_times_tape(&tape, &seq, &tripled).expect("runs");
        for i in 0..base.len() {
            assert_eq!(times[i], times[i + base.len()], "{} copy 1", engine.name());
            assert_eq!(times[i], times[i + 2 * base.len()], "{} copy 2", engine.name());
        }
    }
}

#[test]
fn site_sorted_and_seed_ordered_fault_lists_agree_everywhere() {
    // The collapse layer now emits representatives in fault-site order
    // (locality for chunking); this must be invisible to results. Compare
    // per-fault times between the site order and the seed's derived-Ord
    // order on a mid-size circuit, for every engine.
    let circuit = benchmarks::suite()[3].build().expect("suite circuit builds");
    let tape = GateTape::compile(&circuit);
    let mut rng = StdRng::seed_from_u64(0x5072);
    let site_ordered = sample_faults(&circuit, 128, &mut rng);
    let mut derived = site_ordered.clone();
    derived.sort();
    let seq = random_sequence(&circuit, 10, &mut rng);
    for engine in common::engine_grid() {
        let a = engine.detection_times_tape(&tape, &seq, &site_ordered).expect("runs");
        let b = engine.detection_times_tape(&tape, &seq, &derived).expect("runs");
        let by_fault: std::collections::HashMap<Fault, Option<usize>> =
            site_ordered.iter().copied().zip(a).collect();
        for (f, t) in derived.iter().zip(b) {
            assert_eq!(by_fault[f], t, "{} under {}", f, engine.name());
        }
    }
}
