//! Fault-simulation benchmarks: the engine ladder from one-fault-at-a-time
//! scalar simulation up to the thread-sharded packed engine, on small
//! circuits and on the `a5378`/`a35932` analogs where throughput on the
//! expanded vector stream is the binding constraint.
//!
//! Every engine executes the compiled gate tape; the historic row names
//! (`packed64/*`, `sharded/*`) are kept so `BENCH_fault_sim.json` tracks
//! the node-graph → compiled-core trajectory. Groups covering the tape
//! itself: `compile_tape/*` (one-off tape construction per circuit) and
//! `detect/tape/*` (detection over a shared precompiled tape — the
//! Session/campaign hot path). `detect/burst/*` times the shape of a
//! rejected T0-generation burst — one 128-vector resumed pass over the
//! whole collapsed list, capturing the state it leaves — on
//! `PackedBackend`.
//!
//! Writes `BENCH_fault_sim.json` into the workspace root. Run with
//! `--smoke` (as CI does) for a fast schema-checking pass, which writes
//! `BENCH_fault_sim.smoke.json` instead.

use bist_bench::timing::{self, Report};
use subseq_bist::expand::expansion::{Expand, ExpansionConfig};
use subseq_bist::netlist::{benchmarks, GateTape};
use subseq_bist::sim::{
    collapse, fault_universe, Fault, FaultSimulator, MachineState, Obs, PackedBackend,
    ShardedBackend, SimBackend,
};
use subseq_bist::tgen::Lfsr;

/// The sharded-engine sweep: a progression of thread counts over the same
/// fault list.
const SWEEP: [usize; 3] = [1, 2, 4];

fn main() {
    timing::init_cli();
    let mut report = Report::new("fault_sim");

    // Small circuits: the full ladder including the scalar oracle.
    let circuits = vec![benchmarks::s27(), benchmarks::suite()[1].build().expect("a298 builds")];
    for circuit in &circuits {
        let faults = collapse(circuit, &fault_universe(circuit)).representatives().to_vec();
        let sim = FaultSimulator::new(circuit);
        let scalar = FaultSimulator::scalar(circuit);
        let seq = Lfsr::new(42).sequence(circuit.num_inputs(), 64);
        let name = circuit.name().to_string();

        report.run(format!("compile_tape/{name}"), || GateTape::compile(circuit));
        report
            .run(format!("parallel64/{name}"), || sim.detection_times(&seq, &faults).expect("ok"));
        report.run(format!("serial/{name}"), || {
            faults.iter().map(|&f| sim.first_detection(&seq, f).expect("ok")).collect::<Vec<_>>()
        });
        report.run(format!("scalar_backend/{name}"), || {
            scalar.detection_times(&seq, &faults).expect("ok")
        });
        report.run(format!("good_only/{name}"), || sim.good(&seq).expect("ok"));
    }

    // Rejected-burst shape: one resumed pass steps the whole collapsed
    // list through 128 vectors and captures the state the survivors end in.
    for name in ["a298", "a526"] {
        let entry =
            benchmarks::suite().into_iter().find(|e| e.name == name).expect("circuit in suite");
        let circuit = entry.build().expect("circuit builds");
        let faults = collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
        let tape = GateTape::compile(&circuit);
        let burst = Lfsr::new(128).sequence(circuit.num_inputs(), 128);
        let reset = MachineState::reset();
        report.run(format!("detect/burst/{name}/packed64"), || {
            PackedBackend
                .resume_tape_obs(&tape, &reset, &burst, &faults, &[128], &Obs::noop())
                .expect("ok")
        });
    }

    // Large analogs: packed vs the sharded sweep on an expanded stream —
    // the workload the paper's scheme actually runs (8·n·|S| vectors).
    let large: &[(&str, usize, usize)] = if timing::smoke() {
        &[("a5378", 256, 2)] // tiny sample: schema check only
    } else {
        &[("a5378", 2048, 4), ("a35932", 1024, 2)]
    };
    for &(name, max_faults, s_len) in large {
        let entry =
            benchmarks::suite().into_iter().find(|e| e.name == name).expect("analog in suite");
        let circuit = entry.build().expect("analog builds");
        let mut faults: Vec<Fault> =
            collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec();
        faults.truncate(max_faults);
        let s = Lfsr::new(5378).sequence(circuit.num_inputs(), s_len);
        let cfg = ExpansionConfig::new(2).expect("n >= 1");
        let stream = cfg.stream(&s);
        let tape = GateTape::compile(&circuit);
        let packed = FaultSimulator::new(&circuit);

        // Tape construction is a one-off per circuit; the row exists to
        // prove it stays negligible next to a single detection pass.
        report.run(format!("compile_tape/{name}"), || GateTape::compile(&circuit));
        // The compiled-core hot path: detection over a shared,
        // precompiled tape (what Session/campaign runs actually execute).
        report.run(format!("detect/tape/{name}/f{max_faults}"), || {
            PackedBackend.detection_times_tape(&tape, &stream, &faults).expect("ok")
        });
        let baseline = report
            .run(format!("packed64/{name}/f{max_faults}"), || {
                packed.detection_times_stream(&stream, &faults).expect("ok")
            })
            .median_ns;
        let mut best = f64::INFINITY;
        for threads in SWEEP {
            let engine = ShardedBackend::new(threads).expect("threads >= 1");
            let m = report.run(format!("sharded/{name}/t{threads}"), || {
                engine.detection_times_tape(&tape, &stream, &faults).expect("ok")
            });
            best = best.min(m.median_ns);
        }
        println!(
            "{name}: packed64 {:.1} ms vs best sharded {:.1} ms ({:.2}x)",
            baseline / 1e6,
            best / 1e6,
            baseline / best
        );
    }

    let path = report.write_json().expect("write BENCH_fault_sim.json");
    println!("wrote {}", path.display());
}
