//! The end-to-end scheme: Procedure 1 + static compaction, swept over the
//! repetition counts the paper evaluates (`n ∈ {2, 4, 8, 16}`), with the
//! paper's best-`n` selection rule.

use crate::postprocess::compact_set;
use crate::procedure1::{select_subsequences, SelectionResult};
use crate::procedure2::SelectedSequence;
use bist_expand::expansion::ExpansionConfig;
use bist_expand::TestSequence;
use bist_sim::{Fault, FaultCoverage, FaultSimulator, SimError};
use std::time::{Duration, Instant};

/// Configuration of a scheme run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeConfig {
    /// Repetition counts to sweep (default `[2, 4, 8, 16]`, the paper's).
    pub ns: Vec<usize>,
    /// Seed for Procedure 2's random omission order.
    pub seed: u64,
    /// Whether to run the §3.2 static compaction of `S`.
    pub postprocess: bool,
}

impl SchemeConfig {
    /// The paper's configuration: `n ∈ {2, 4, 8, 16}`, postprocessing on.
    #[must_use]
    pub fn new() -> Self {
        SchemeConfig { ns: vec![2, 4, 8, 16], seed: 0, postprocess: true }
    }

    /// Sets the repetition counts to sweep.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is empty or contains 0.
    #[must_use]
    pub fn ns(mut self, ns: Vec<usize>) -> Self {
        assert!(!ns.is_empty() && ns.iter().all(|&n| n > 0), "ns must be nonempty, all > 0");
        self.ns = ns;
        self
    }

    /// Sets the omission-order seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables/disables the §3.2 postprocessing.
    #[must_use]
    pub fn postprocess(mut self, on: bool) -> Self {
        self.postprocess = on;
        self
    }
}

impl Default for SchemeConfig {
    fn default() -> Self {
        SchemeConfig::new()
    }
}

/// Size statistics of a sequence set (the `|S| / tot len / max len`
/// triple reported throughout the paper's tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetStats {
    /// Number of sequences.
    pub count: usize,
    /// Total loaded length.
    pub total_len: usize,
    /// Maximum loaded length.
    pub max_len: usize,
}

impl SetStats {
    fn of(sequences: &[SelectedSequence]) -> Self {
        SetStats {
            count: sequences.len(),
            total_len: sequences.iter().map(SelectedSequence::len).sum(),
            max_len: sequences.iter().map(SelectedSequence::len).max().unwrap_or(0),
        }
    }
}

/// The outcome of the scheme for one repetition count `n`.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// The repetition count.
    pub n: usize,
    /// Stats before static compaction of `S`.
    pub before: SetStats,
    /// Stats after static compaction (equal to `before` when
    /// postprocessing is disabled).
    pub after: SetStats,
    /// The final sequence set.
    pub sequences: Vec<SelectedSequence>,
    /// Wall-clock time of Procedure 1.
    pub proc1_time: Duration,
    /// Wall-clock time of the compaction.
    pub compact_time: Duration,
    /// Selection-phase statistics.
    pub selection: SelectionResult,
}

impl SchemeRun {
    /// Applied at-speed test length: `8·n·total_len` (after compaction).
    #[must_use]
    pub fn applied_test_len(&self) -> usize {
        8 * self.n * self.after.total_len
    }
}

/// The outcome of a full sweep.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// One run per `n`, in sweep order.
    pub runs: Vec<SchemeRun>,
    /// Index into [`runs`](Self::runs) of the best run: smallest max
    /// len, then smallest total len — the paper's rule — then the smaller
    /// `n`. The paper breaks the last tie by Procedure 1 run time; the
    /// smaller `n` is deterministic, so served and offline runs on the
    /// same inputs pick the same `n`, and it gives the shorter applied
    /// test `8·n·tot len`.
    pub best: usize,
    /// Wall-clock time of one fault simulation of `T0` over the full
    /// fault list — the normalization baseline of Table 4.
    pub t0_sim_time: Duration,
}

impl SchemeResult {
    /// The best run.
    #[must_use]
    pub fn best_run(&self) -> &SchemeRun {
        &self.runs[self.best]
    }

    /// Table 4 normalization: Procedure 1 time of the best run divided by
    /// the `T0` simulation time.
    #[must_use]
    pub fn normalized_proc1_time(&self) -> f64 {
        ratio(self.best_run().proc1_time, self.t0_sim_time)
    }

    /// Table 4 normalization for the compaction phase.
    #[must_use]
    pub fn normalized_compact_time(&self) -> f64 {
        ratio(self.best_run().compact_time, self.t0_sim_time)
    }
}

fn ratio(a: Duration, b: Duration) -> f64 {
    let denom = b.as_secs_f64();
    if denom == 0.0 {
        f64::INFINITY
    } else {
        a.as_secs_f64() / denom
    }
}

/// Runs the scheme for a single `n`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_for_n(
    sim: &FaultSimulator<'_>,
    t0: &TestSequence,
    coverage: &FaultCoverage,
    n: usize,
    seed: u64,
    postprocess: bool,
) -> Result<SchemeRun, SimError> {
    let expansion = ExpansionConfig::new(n).expect("n validated by SchemeConfig");
    let span = sim.obs().span("core.procedure1_us", format!("n={n}"));
    let start = Instant::now();
    let selection = select_subsequences(sim, t0, coverage, &expansion, seed)?;
    let proc1_time = start.elapsed();
    drop(span);
    let before = SetStats::of(&selection.sequences);

    let detected: Vec<Fault> = coverage.detected().map(|(f, _)| f).collect();
    let span = sim.obs().span("core.postprocess_us", format!("n={n}"));
    let start = Instant::now();
    let sequences = if postprocess {
        compact_set(sim, selection.sequences.clone(), &detected, &expansion)?.0
    } else {
        selection.sequences.clone()
    };
    let compact_time = start.elapsed();
    drop(span);
    let after = SetStats::of(&sequences);

    Ok(SchemeRun { n, before, after, sequences, proc1_time, compact_time, selection })
}

/// Runs the full sweep over `config.ns` and picks the best `n`.
///
/// `coverage` must be the simulation of `t0` over the fault list of
/// interest (see [`FaultCoverage::simulate`]).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_scheme(
    sim: &FaultSimulator<'_>,
    t0: &TestSequence,
    coverage: &FaultCoverage,
    config: &SchemeConfig,
) -> Result<SchemeResult, SimError> {
    // Table 4 baseline: time to fault simulate T0.
    let span = sim.obs().span("core.t0_sim_us", String::new());
    let start = Instant::now();
    let _ = sim.detection_times(t0, coverage.faults())?;
    let t0_sim_time = start.elapsed();
    drop(span);

    let mut runs = Vec::with_capacity(config.ns.len());
    for &n in &config.ns {
        runs.push(run_for_n(sim, t0, coverage, n, config.seed, config.postprocess)?);
    }

    let best = best_index(&runs).expect("ns nonempty");
    Ok(SchemeResult { runs, best, t0_sim_time })
}

/// The best run's index: lexicographic (max len, tot len, n) — see
/// [`SchemeResult::best`].
fn best_index(runs: &[SchemeRun]) -> Option<usize> {
    (0..runs.len()).min_by_key(|&i| (runs[i].after.max_len, runs[i].after.total_len, runs[i].n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure1::verify_full_coverage;
    use bist_netlist::benchmarks;
    use bist_sim::{collapse, fault_universe};

    fn s27_setup() -> (bist_netlist::Circuit, TestSequence, Vec<Fault>) {
        let c = benchmarks::s27();
        let t0: TestSequence = "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse().unwrap();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        (c, t0, faults)
    }

    #[test]
    fn sweep_keeps_coverage_for_every_n() {
        let (c, t0, faults) = s27_setup();
        let sim = FaultSimulator::new(&c);
        let cov = FaultCoverage::simulate(&sim, &t0, faults.clone()).unwrap();
        let result = run_scheme(&sim, &t0, &cov, &SchemeConfig::new().ns(vec![1, 2, 4])).unwrap();
        assert_eq!(result.runs.len(), 3);
        for run in &result.runs {
            assert!(
                verify_full_coverage(
                    &sim,
                    &run.sequences,
                    &ExpansionConfig::new(run.n).unwrap(),
                    &faults
                )
                .unwrap(),
                "n = {}",
                run.n
            );
            assert!(run.after.count <= run.before.count);
            assert!(run.after.total_len <= run.before.total_len);
            assert!(run.after.max_len <= run.before.max_len);
        }
    }

    #[test]
    fn best_run_minimizes_max_len_first() {
        let (c, t0, faults) = s27_setup();
        let sim = FaultSimulator::new(&c);
        let cov = FaultCoverage::simulate(&sim, &t0, faults).unwrap();
        let result = run_scheme(&sim, &t0, &cov, &SchemeConfig::new().ns(vec![1, 2, 4])).unwrap();
        let best = result.best_run();
        for run in &result.runs {
            assert!(best.after.max_len <= run.after.max_len);
        }
    }

    #[test]
    fn ties_go_to_the_smaller_n_not_the_faster_run() {
        let (c, t0, faults) = s27_setup();
        let sim = FaultSimulator::new(&c);
        let cov = FaultCoverage::simulate(&sim, &t0, faults).unwrap();
        let run = run_for_n(&sim, &t0, &cov, 2, 0, true).unwrap();
        // Three runs with equal (max len, tot len); the smallest n ran
        // slowest and sits in the middle of the sweep.
        let mut runs = vec![run.clone(), run.clone(), run];
        for (r, (n, ms)) in runs.iter_mut().zip([(8, 1), (2, 50), (4, 2)]) {
            r.n = n;
            r.proc1_time = Duration::from_millis(ms);
        }
        assert_eq!(best_index(&runs), Some(1));
        // A strictly shorter max len still wins over a smaller n.
        runs[0].after.max_len -= 1;
        assert_eq!(best_index(&runs), Some(0));
        assert_eq!(best_index(&[]), None);
    }

    #[test]
    fn postprocess_flag_respected() {
        let (c, t0, faults) = s27_setup();
        let sim = FaultSimulator::new(&c);
        let cov = FaultCoverage::simulate(&sim, &t0, faults).unwrap();
        let cfg = SchemeConfig::new().ns(vec![2]).postprocess(false);
        let result = run_scheme(&sim, &t0, &cov, &cfg).unwrap();
        let run = &result.runs[0];
        assert_eq!(run.before, run.after);
    }

    #[test]
    fn applied_test_len_formula() {
        let (c, t0, faults) = s27_setup();
        let sim = FaultSimulator::new(&c);
        let cov = FaultCoverage::simulate(&sim, &t0, faults).unwrap();
        let result = run_scheme(&sim, &t0, &cov, &SchemeConfig::new().ns(vec![2])).unwrap();
        let run = &result.runs[0];
        assert_eq!(run.applied_test_len(), 8 * 2 * run.after.total_len);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_ns_rejected() {
        let _ = SchemeConfig::new().ns(vec![]);
    }
}
