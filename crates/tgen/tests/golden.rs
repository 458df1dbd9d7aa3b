//! Bit-identity pins for `T0` generation and static compaction.
//!
//! Each case hashes the `T0` bytes, the detection times of the collapsed
//! universe and the compaction statistics `(trials, removed)` at the
//! campaign defaults (1024-vector cap, 300-trial budget). The pinned
//! values were recorded with the from-X re-simulating generator and
//! compactor; the resumable ones must reproduce them exactly.

use bist_netlist::{benchmarks, Circuit};
use bist_sim::{collapse, fault_universe, Fault};
use bist_tgen::{generate_t0_with_faults, static_compact, TgenConfig};

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

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

fn suite_circuit(name: &str) -> Circuit {
    benchmarks::suite().into_iter().find(|e| e.name == name).unwrap().build().unwrap()
}

/// Generates `T0` with and without the built-in compaction, checks the
/// two routes agree, and hashes everything a campaign consumes.
fn t0_digest(name: &str, seed: u64) -> u64 {
    let circuit = suite_circuit(name);
    let faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
    let config = TgenConfig::new().max_length(1024).compaction_budget(300).seed(seed);
    let raw =
        generate_t0_with_faults(&circuit, &config.clone().compaction_budget(0), faults.clone())
            .unwrap();
    let detected: Vec<Fault> = raw.detected_faults();
    let stats = static_compact(&circuit, &raw.sequence, &detected, 300, seed).unwrap();
    let t0 = generate_t0_with_faults(&circuit, &config, faults).unwrap();
    assert_eq!(t0.sequence, stats.sequence, "{name}/{seed}: both compaction routes agree");

    let mut h = Fnv::new();
    h.bytes(t0.sequence.to_string().as_bytes());
    for t in t0.coverage.times() {
        h.word(t.map_or(u64::MAX, |t| t as u64));
    }
    h.word(stats.trials as u64);
    h.word(stats.removed as u64);
    h.0
}

#[test]
fn pinned_t0_s27() {
    assert_eq!(t0_digest("s27", 1999), 0xc4a18749fa854ae9);
    assert_eq!(t0_digest("s27", 2027), 0x4a493632ca2288dd);
}

#[test]
fn pinned_t0_a298() {
    assert_eq!(t0_digest("a298", 1999), 0x3e55da2a02ff97ca);
    assert_eq!(t0_digest("a298", 2027), 0x68919faafa0afa33);
}

#[test]
fn pinned_t0_a382() {
    assert_eq!(t0_digest("a382", 1999), 0x789693fc9d6469ee);
    assert_eq!(t0_digest("a382", 2027), 0xc5302d69b8a48d33);
}
