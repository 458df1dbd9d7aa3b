//! Whole-corpus static analysis acceptance suite.
//!
//! The unit tests in `bist_verify` pin each lint code and tape invariant
//! on minimal circuits; this suite runs all three passes over everything
//! the workspace can produce — the 13-circuit benchmark suite and the
//! full 208-seed fuzz corpus (the same seeds as the sim crate's
//! differential sweep). No pass simulates anything, so unlike the
//! differential sweep the full corpus runs ungated in debug builds.

use bist_netlist::fuzz::{dirty_circuit, fuzz_circuit};
use bist_netlist::parser::parse_bench;
use bist_netlist::{benchmarks, writer, GateTape};
use bist_verify::{check_equiv, lint_circuit, lint_source, structural_hash, verify_tape};

/// Same corpus size as `randomized_differential_full_sweep`: 26 of each
/// degenerate shape class, 104 general circuits.
const CORPUS_SEEDS: u64 = 208;

#[test]
fn suite_is_lint_clean() {
    for entry in benchmarks::suite() {
        let c = entry.build().unwrap();
        let diags = lint_circuit(&c);
        assert!(
            bist_verify::lint::is_clean(&diags),
            "{}: error-severity lint on a benchmark circuit: {diags:?}",
            entry.name
        );
    }
}

#[test]
fn full_fuzz_corpus_is_lint_clean() {
    for seed in 0..CORPUS_SEEDS {
        let c = fuzz_circuit(seed);
        let diags = lint_circuit(&c);
        assert!(
            bist_verify::lint::is_clean(&diags),
            "seed {seed} ({}): error-severity lint on a generated circuit: {diags:?}",
            c.name()
        );
    }
}

#[test]
fn source_level_lint_agrees_on_the_suite() {
    // The `.bench` text of every suite circuit lints clean through the
    // raw-statement path too — the path `subseq-bist lint FILE` takes.
    for entry in benchmarks::suite_up_to(2000) {
        let c = entry.build().unwrap();
        let diags = lint_source(&writer::to_bench(&c)).unwrap();
        assert!(bist_verify::lint::is_clean(&diags), "{}: {diags:?}", entry.name);
    }
}

#[test]
fn every_compiled_tape_verifies() {
    for entry in benchmarks::suite() {
        let c = entry.build().unwrap();
        assert_eq!(verify_tape(&c, &GateTape::compile(&c)), Ok(()), "{}", entry.name);
    }
    for seed in 0..CORPUS_SEEDS {
        let c = fuzz_circuit(seed);
        assert_eq!(verify_tape(&c, &GateTape::compile(&c)), Ok(()), "seed {seed}");
    }
}

#[test]
fn suite_round_trips_are_structurally_equivalent() {
    for entry in benchmarks::suite() {
        let c = entry.build().unwrap();
        let back = parse_bench(entry.name, &writer::to_bench(&c)).unwrap();
        assert_eq!(check_equiv(&c, &back), Ok(()), "{}", entry.name);
        assert_eq!(structural_hash(&c), structural_hash(&back), "{}", entry.name);
    }
}

#[test]
fn corpus_round_trips_are_structurally_equivalent() {
    for seed in 0..CORPUS_SEEDS {
        let c = fuzz_circuit(seed);
        let back = parse_bench("rt", &writer::to_bench(&c)).unwrap();
        assert_eq!(check_equiv(&c, &back), Ok(()), "seed {seed}");
    }
}

#[test]
fn linter_recall_on_the_dirty_corpus_is_total() {
    // Every planted defect class must be reported with its planted code
    // — 100% recall, measured, not assumed. Extra codes are legitimate
    // (a self-driving gate is also a one-gate cycle), missing ones are a
    // linter hole. 90 seeds = 10 full passes over the 9 seed classes.
    for seed in 0..90u64 {
        let dirty = dirty_circuit(seed);
        let diags = lint_source(&dirty.source)
            .unwrap_or_else(|e| panic!("seed {seed}: dirty source failed to tokenize: {e}"));
        let reported: std::collections::HashSet<&str> =
            diags.iter().map(|d| d.code.code()).collect();
        for code in &dirty.planted {
            assert!(
                reported.contains(code),
                "seed {seed}: planted {code} not reported (planted {:?}, reported {reported:?})",
                dirty.planted
            );
        }
    }
}

#[test]
fn single_gate_mutations_are_rejected() {
    // Flip one gate's opcode in the `.bench` text of each small suite
    // circuit; the checker must refuse every mutant. (Textual mutation
    // keeps the mutant a valid circuit — only its structure changes.)
    let mut mutants = 0usize;
    for entry in benchmarks::suite_up_to(600) {
        let c = entry.build().unwrap();
        let text = writer::to_bench(&c);
        let mutated: Vec<String> = text
            .lines()
            .map(|l| {
                if mutants == 0 && l.contains("= AND(") {
                    mutants += 1;
                    l.replace("= AND(", "= NAND(")
                } else if mutants == 0 && l.contains("= OR(") {
                    mutants += 1;
                    l.replace("= OR(", "= NOR(")
                } else {
                    l.to_string()
                }
            })
            .collect();
        if mutants == 0 {
            continue;
        }
        mutants = 0;
        let mutant = parse_bench(entry.name, &mutated.join("\n")).unwrap();
        assert!(
            check_equiv(&c, &mutant).is_err(),
            "{}: opcode-flipped mutant accepted",
            entry.name
        );
        assert_ne!(structural_hash(&c), structural_hash(&mutant), "{}", entry.name);
    }
}
