//! Bit-identity pins for Procedure 1/2 and the §3.2 static compaction.
//!
//! Each case generates `T0` at the campaign defaults (1024-vector cap,
//! 300-trial budget), runs Procedure 1 and `compact_set` on it and hashes
//! everything they return: every selected sequence with its window and
//! target, the selection statistics (targets, growth, omission and drop
//! simulations) and the compacted set with its drop count. The pinned
//! values were recorded with the one-candidate-per-pass Procedure 2 and
//! the compaction that re-simulated every remaining fault; batched
//! probing and the compaction's outcome cache must reproduce them exactly.

use bist_core::{compact_set, select_subsequences, SelectedSequence};
use bist_expand::expansion::ExpansionConfig;
use bist_netlist::{benchmarks, Circuit};
use bist_sim::{collapse, fault_universe, Fault, FaultSimulator};
use bist_tgen::{generate_t0_with_faults, TgenConfig};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: usize) {
        self.bytes(&(w as u64).to_le_bytes());
    }

    fn sequences(&mut self, sequences: &[SelectedSequence]) {
        self.word(sequences.len());
        for sel in sequences {
            self.bytes(sel.sequence.to_string().as_bytes());
            self.word(sel.window.0);
            self.word(sel.window.1);
            self.bytes(sel.target.to_string().as_bytes());
        }
    }
}

fn suite_circuit(name: &str) -> Circuit {
    benchmarks::suite().into_iter().find(|e| e.name == name).unwrap().build().unwrap()
}

/// Hashes Procedure 1's selection and its compaction for each `n`.
fn scheme_digests(name: &str, seed: u64) -> Vec<u64> {
    let circuit = suite_circuit(name);
    let faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
    let config = TgenConfig::new().max_length(1024).compaction_budget(300).seed(seed);
    let t0 = generate_t0_with_faults(&circuit, &config, faults).unwrap();
    let sim = FaultSimulator::new(&circuit);
    let detected: Vec<Fault> = t0.coverage.detected().map(|(f, _)| f).collect();
    [2, 16]
        .into_iter()
        .map(|n| {
            let expansion = ExpansionConfig::new(n).unwrap();
            let selection =
                select_subsequences(&sim, &t0.sequence, &t0.coverage, &expansion, seed).unwrap();
            let (kept, stats) =
                compact_set(&sim, selection.sequences.clone(), &detected, &expansion).unwrap();
            let mut h = Fnv::new();
            h.sequences(&selection.sequences);
            h.word(selection.stats.targets);
            h.word(selection.stats.grow_simulations);
            h.word(selection.stats.omit_simulations);
            h.word(selection.stats.drop_simulations);
            h.sequences(&kept);
            h.word(stats.dropped);
            h.0
        })
        .collect()
}

#[test]
fn pinned_scheme_s27() {
    assert_eq!(scheme_digests("s27", 1999), [0xa1922f98c5e09678, 0xa1922f98c5e09678]);
    assert_eq!(scheme_digests("s27", 2027), [0x0af5846716ba25e2, 0x0af5846716ba25e2]);
}

#[test]
fn pinned_scheme_a298() {
    assert_eq!(scheme_digests("a298", 1999), [0x51a3ab89969d592f, 0x9407beb29fee7679]);
    assert_eq!(scheme_digests("a298", 2027), [0x526765c9dc2da688, 0xb6153c1706bf9c55]);
}

#[test]
fn pinned_scheme_a382() {
    assert_eq!(scheme_digests("a382", 1999), [0x9ded3dc3f62f22e2, 0xbdd07ec0193ad746]);
    assert_eq!(scheme_digests("a382", 2027), [0x9da36fcd7a74122e, 0xa8aa01182a2b7798]);
}
