//! Benchmarks of the paper's procedures on s27: Procedure 1 (selection)
//! and the §3.2 static compaction, across repetition counts. The ratio of
//! these times to the `t0_simulation_baseline` is the quantity Table 4
//! reports.
//!
//! Writes `BENCH_procedure1.json` into the workspace root.

use bist_bench::timing::{self, Report};
use subseq_bist::core::{compact_set, find_subsequence, select_subsequences};
use subseq_bist::expand::expansion::ExpansionConfig;
use subseq_bist::expand::TestSequence;
use subseq_bist::netlist::benchmarks;
use subseq_bist::sim::{collapse, fault_universe, Fault, FaultCoverage, FaultSimulator};

fn main() {
    timing::init_cli();
    let mut report = Report::new("procedure1");

    let circuit = benchmarks::s27();
    let faults: Vec<Fault> =
        collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
    let sim = FaultSimulator::new(&circuit);
    let t0: TestSequence =
        "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse().expect("valid");
    let cov = FaultCoverage::simulate(&sim, &t0, faults.clone()).expect("simulates");

    for n in [1usize, 4, 16] {
        let expansion = ExpansionConfig::new(n).expect("n >= 1");
        report.run(format!("select/n{n}"), || {
            select_subsequences(&sim, &t0, &cov, &expansion, 0).expect("ok")
        });
        let selection = select_subsequences(&sim, &t0, &cov, &expansion, 0).expect("ok");
        let detected: Vec<Fault> = cov.detected().map(|(f, _)| f).collect();
        report.run(format!("compact/n{n}"), || {
            compact_set(&sim, selection.sequences.clone(), &detected, &expansion).expect("ok")
        });
    }
    report.run("t0_simulation_baseline", || sim.detection_times(&t0, &faults).expect("ok"));

    // Procedure 2 alone (linear window growth and omission), over every
    // detected fault.
    let expansion = ExpansionConfig::new(2).expect("valid");
    report.run("grow_linear", || {
        for (f, udet) in cov.detected() {
            find_subsequence(&sim, &t0, f, udet, &expansion, 0).expect("ok");
        }
    });

    let path = report.write_json().expect("write BENCH_procedure1.json");
    println!("wrote {}", path.display());
}
