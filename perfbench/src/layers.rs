//! The traced rebuild: one job of the paper's flow, reassembled from the
//! public calls of each layer with a span around every call.
//!
//! `build → GateTape::compile → collapse → generate (budget 0) →
//! static_compact → FaultCoverage::simulate → per n: select_subsequences
//! + compact_set → verify_full_coverage`
//!
//! reproduces what `Session::run` (behind `CampaignEngine::run` or the
//! campaign service) computes for the same inputs, so its outputs are
//! compared bit for bit against the untraced run.

use crate::trace::Tracer;
use bist_batch::{JobMetrics, JobRecord, JobSpec, JobStatus};
use std::sync::Arc;
use subseq_bist::core::{
    compact_set, monolithic_cost, scheme_cost, select_subsequences, verify_full_coverage,
    SelectedSequence, SetStats,
};
use subseq_bist::expand::expansion::ExpansionConfig;
use subseq_bist::expand::TestSequence;
use subseq_bist::netlist::{benchmarks, Circuit, GateTape};
use subseq_bist::sim::{
    collapse, fault_universe, Fault, FaultCoverage, FaultSimulator, PackedBackend,
};
use subseq_bist::tgen::{generate_t0_with_artifacts, static_compact, TgenConfig};
use subseq_bist::{Obs, SessionReport};

/// Work counts of the layers, summed over rebuilt jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub raw_len: usize,
    pub t0_len: usize,
    pub compact_trials: usize,
    pub compact_removed: usize,
    pub targets: usize,
    pub p2_simulations: usize,
    pub drop_simulations: usize,
    pub postprocess_simulations: usize,
    pub postprocess_dropped: usize,
}

/// A circuit with its compiled tape and collapsed fault universe.
pub struct Prepared {
    pub circuit: Arc<Circuit>,
    pub tape: Arc<GateTape>,
    pub faults: Vec<Fault>,
}

/// Builds, compiles and collapses a suite circuit under spans.
pub fn prepare(tracer: &Tracer, request: u64, name: &str) -> Result<Prepared, String> {
    let circuit = tracer.time("netlist.build", request, || build_circuit(name))?;
    let circuit = Arc::new(circuit);
    let tape =
        tracer.time("netlist.compile_tape", request, || Arc::new(GateTape::compile(&circuit)));
    let faults = tracer.time("sim.collapse", request, || {
        collapse(&circuit, &fault_universe(&circuit)).representatives().to_vec()
    });
    Ok(Prepared { circuit, tape, faults })
}

/// Materialises a suite circuit by name.
fn build_circuit(name: &str) -> Result<Circuit, String> {
    let entry = benchmarks::suite()
        .into_iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown suite circuit `{name}`"))?;
    entry.build().map_err(|e| format!("building `{name}`: {e}"))
}

/// A generated `T0` with its coverage.
pub struct T0 {
    pub sequence: TestSequence,
    pub coverage: FaultCoverage,
}

/// `T0` length cap and compaction budget of both workloads: the paper's
/// (also the CLI and service defaults), or the CLI's smoke sizes.
pub fn tgen_limits(smoke: bool) -> (usize, usize) {
    if smoke {
        (48, 20)
    } else {
        (1024, 300)
    }
}

/// `T0` generation as the artifact cache performs it for the given
/// `(cap, budget)` limits, split into the generate loop (compaction
/// budget 0) and the static compaction.
pub fn generate_t0(
    tracer: &Tracer,
    request: u64,
    prepared: &Prepared,
    (cap, budget): (usize, usize),
    seed: u64,
    obs: &Obs,
    counts: &mut Counts,
) -> Result<T0, String> {
    let raw = tracer
        .time("tgen.generate", request, || {
            generate_t0_with_artifacts(
                &prepared.circuit,
                &TgenConfig::new().max_length(cap).seed(seed).compaction_budget(0),
                prepared.faults.clone(),
                Arc::clone(&prepared.tape),
            )
        })
        .map_err(|e| e.to_string())?;
    counts.raw_len += raw.sequence.len();
    let detected: Vec<Fault> = raw.coverage.detected().map(|(f, _)| f).collect();
    let sequence = if budget > 0 && !detected.is_empty() {
        let stats = tracer
            .time("tgen.compact", request, || {
                static_compact(&prepared.circuit, &raw.sequence, &detected, budget, seed)
            })
            .map_err(|e| e.to_string())?;
        counts.compact_trials += stats.trials;
        counts.compact_removed += stats.removed;
        stats.sequence
    } else {
        raw.sequence
    };
    let sim = simulator(prepared, obs)?;
    let coverage = tracer
        .time("sim.t0_coverage", request, || {
            FaultCoverage::simulate(&sim, &sequence, prepared.faults.clone())
        })
        .map_err(|e| e.to_string())?;
    counts.t0_len += sequence.len();
    Ok(T0 { sequence, coverage })
}

/// A fault simulator on the packed engine, the campaign default.
fn simulator<'c>(prepared: &'c Prepared, obs: &Obs) -> Result<FaultSimulator<'c>, String> {
    Ok(FaultSimulator::with_backend_and_tape(
        &prepared.circuit,
        Arc::clone(&prepared.tape),
        Arc::new(PackedBackend),
    )
    .map_err(|e| e.to_string())?
    .with_obs(obs.clone()))
}

/// One `n` of the sweep: the stats before and after the §3.2 compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    pub n: usize,
    pub before: SetStats,
    pub after: SetStats,
}

/// The outputs compared against the untraced run.
pub struct SchemeOutcome {
    pub runs: Vec<RunStats>,
    pub best: usize,
    pub verified: Option<bool>,
    pub backend: &'static str,
}

impl SchemeOutcome {
    pub fn best_run(&self) -> &RunStats {
        &self.runs[self.best]
    }

    /// Makes the run for `n` the best one when it ties the best on
    /// (max len, total len). The paper's rule breaks such ties by
    /// Procedure 1 run time, so two runs on the same inputs may pick
    /// different `n`; everything else must agree.
    pub fn prefer(&mut self, n: usize) {
        let key = |r: &RunStats| (r.after.max_len, r.after.total_len);
        let best = key(self.best_run());
        if let Some(i) = self.runs.iter().position(|r| r.n == n && key(r) == best) {
            self.best = i;
        }
    }
}

fn set_stats(sequences: &[SelectedSequence]) -> SetStats {
    SetStats {
        count: sequences.len(),
        total_len: sequences.iter().map(SelectedSequence::len).sum(),
        max_len: sequences.iter().map(SelectedSequence::len).max().unwrap_or(0),
    }
}

/// The scheme sweep and verification over a given `T0`, as `Session::run`
/// performs them: the `T0` baseline simulation, Procedure 1 and the
/// §3.2 compaction per `n`, the paper's best-`n` rule, then verification
/// of the best run.
#[allow(clippy::too_many_arguments)]
pub fn run_scheme(
    tracer: &Tracer,
    request: u64,
    prepared: &Prepared,
    obs: &Obs,
    t0: &T0,
    ns: &[usize],
    postprocess: bool,
    verify: bool,
    seed: u64,
    counts: &mut Counts,
) -> Result<SchemeOutcome, String> {
    let sim = simulator(prepared, obs)?;
    let err = |e: subseq_bist::sim::SimError| e.to_string();
    tracer
        .time("core.t0_sim", request, || sim.detection_times(&t0.sequence, t0.coverage.faults()))
        .map_err(err)?;
    let detected: Vec<Fault> = t0.coverage.detected().map(|(f, _)| f).collect();
    let mut runs = Vec::with_capacity(ns.len());
    let mut keys = Vec::with_capacity(ns.len());
    let mut finals = Vec::with_capacity(ns.len());
    for &n in ns {
        let expansion = ExpansionConfig::new(n).map_err(|e| e.to_string())?;
        let started = std::time::Instant::now();
        let selection = tracer
            .time("core.procedure1", request, || {
                select_subsequences(&sim, &t0.sequence, &t0.coverage, &expansion, seed)
            })
            .map_err(err)?;
        let proc1_time = started.elapsed();
        counts.targets += selection.stats.targets;
        counts.p2_simulations +=
            selection.stats.grow_simulations + selection.stats.omit_simulations;
        counts.drop_simulations += selection.stats.drop_simulations;
        let before = set_stats(&selection.sequences);
        let sequences = if postprocess {
            let (kept, stats) = tracer
                .time("core.postprocess", request, || {
                    compact_set(&sim, selection.sequences.clone(), &detected, &expansion)
                })
                .map_err(err)?;
            counts.postprocess_simulations += stats.simulations;
            counts.postprocess_dropped += stats.dropped;
            kept
        } else {
            selection.sequences
        };
        let after = set_stats(&sequences);
        keys.push((after.max_len, after.total_len, proc1_time));
        runs.push(RunStats { n, before, after });
        finals.push(sequences);
    }
    let best = (0..runs.len()).min_by_key(|&i| keys[i]).ok_or("empty n sweep")?;
    let verified = if verify {
        let n = runs[best].n;
        let expansion = ExpansionConfig::new(n).map_err(|e| e.to_string())?;
        Some(
            tracer
                .time("core.verify", request, || {
                    verify_full_coverage(&sim, &finals[best], &expansion, &detected)
                })
                .map_err(err)?,
        )
    } else {
        None
    };
    Ok(SchemeOutcome { runs, best, verified, backend: sim.backend().name() })
}

/// Differences between a rebuilt job and the untraced report (empty when
/// bit-identical: same `T0` bytes, coverage, per-`n` stats, best `n` and
/// verification outcome).
pub fn compare(report: &SessionReport, t0: &T0, scheme: &SchemeOutcome) -> Vec<String> {
    let mut diffs = Vec::new();
    let name = report.circuit().name();
    if report.t0() != &t0.sequence {
        diffs.push(format!("{name}: T0 bytes differ"));
    }
    if report.coverage() != &t0.coverage {
        diffs.push(format!("{name}: T0 coverage differs"));
    }
    let untraced: Vec<RunStats> = report
        .scheme()
        .runs
        .iter()
        .map(|r| RunStats { n: r.n, before: r.before, after: r.after })
        .collect();
    if untraced != scheme.runs {
        diffs.push(format!("{name}: per-n set stats differ"));
    }
    if report.best().n != scheme.best_run().n {
        diffs.push(format!("{name}: best n differs"));
    }
    if report.verified() != scheme.verified {
        diffs.push(format!("{name}: verification outcome differs"));
    }
    diffs
}

/// The JSONL record the campaign engine would stream for this job — the
/// input of the campaign summary digest.
pub fn record(spec: &JobSpec, prepared: &Prepared, t0: &T0, scheme: &SchemeOutcome) -> JobRecord {
    let best = scheme.best_run();
    let width = prepared.circuit.num_inputs();
    JobRecord {
        job: spec.id,
        circuit: spec.circuit.label(),
        backend: spec.backend_label(),
        scheme: spec.scheme.label.clone(),
        seed: spec.seed,
        status: JobStatus::Ok,
        seconds: 0.0,
        queue_seconds: 0.0,
        exec_seconds: 0.0,
        metrics: Some(JobMetrics {
            engine: scheme.backend.to_string(),
            faults_total: prepared.faults.len(),
            faults_detected: t0.coverage.detected_count(),
            t0_len: t0.sequence.len(),
            n: best.n,
            set_count: best.after.count,
            total_len: best.after.total_len,
            max_len: best.after.max_len,
            applied_test_len: 8 * best.n * best.after.total_len,
            loaded_fraction: best.after.total_len as f64 / t0.sequence.len().max(1) as f64,
            scheme_data_bits: scheme_cost(best.after.max_len.max(1), width, best.n).data_bits,
            monolithic_data_bits: monolithic_cost(t0.sequence.len().max(1), width).data_bits,
            gates_removed: 0,
            verified: scheme.verified,
        }),
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, max_len: usize, total_len: usize) -> RunStats {
        let after = SetStats { count: 1, total_len, max_len };
        RunStats { n, before: after, after }
    }

    #[test]
    fn prefer_moves_the_best_only_among_ties() {
        let mut scheme = SchemeOutcome {
            runs: vec![run(2, 5, 20), run(4, 6, 18), run(8, 5, 20)],
            best: 0,
            verified: Some(true),
            backend: "packed64",
        };
        scheme.prefer(8);
        assert_eq!(scheme.best_run().n, 8);
        // n = 4 does not tie on max len, and n = 16 did not run.
        scheme.prefer(4);
        scheme.prefer(16);
        assert_eq!(scheme.best_run().n, 8);
        scheme.prefer(2);
        assert_eq!(scheme.best_run().n, 2);
    }
}
