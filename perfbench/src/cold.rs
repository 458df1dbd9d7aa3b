//! `cold_suite`: campaigns over six small suite circuits, each with a
//! fresh artifact cache and two worker threads — the first-contact cost
//! of a new circuit set or seed.
//!
//! A run first executes the campaign on the pinned default seed, untimed:
//! it warms the process before anything is timed, is checked against the
//! pinned digest, and gives the quality ratios. It then times a fixed
//! number of campaigns (set by `--seconds`), one per seed of the workload
//! seed's roster, and checks that every job verified. `wall_s` and
//! `cpu_s` are the median campaign's: on a shared 2-vCPU host one
//! campaign repeated for two minutes took from 3.5 to 5.0 s, and a median
//! passes over the slow spells that a total adds up. The roster averages
//! out how much generation and compaction work a `T0` seed brings: one
//! campaign's time varied by 15% (standard deviation over mean) between
//! seeds. `a820` is left out: alone it filled one worker for the whole
//! 9 s campaign, so a run held too few campaigns for a steady figure.

use crate::layers::{self, Counts};
use crate::report::{self, BatchFigures, Outcome, Samples, ServeFigures, JOB_SPAN};
use crate::stats::median;
use crate::trace::Tracer;
use crate::RunConfig;
use bist_batch::{Campaign, CampaignEngine, CampaignOutcome, CampaignSummary};
use std::sync::Arc;
use std::time::Instant;
use subseq_bist::tgen::TgenConfig;
use subseq_bist::{Obs, Registry};

const CIRCUITS: [&str; 6] = ["s27", "a298", "a344", "a382", "a400", "a526"];
const SMOKE_CIRCUITS: [&str; 2] = ["s27", "a298"];
const THREADS: usize = 2;
/// Set-up repetitions before each timed campaign; the median of all of
/// them is reported. Spreading them over the run samples the same host
/// conditions as the campaigns: run back to back on a 2-vCPU host they
/// took under half a second, and their median moved by a quarter between
/// runs.
const SETUP_REPEATS: usize = 12;
/// Seconds of `--seconds` that buy one campaign (a little under its wall
/// time on a 2-core host), so that 30 s hold an odd count of 9.
const NOMINAL_OP_S: f64 = 3.5;

fn circuits(config: &RunConfig) -> &'static [&'static str] {
    if config.smoke {
        &SMOKE_CIRCUITS
    } else {
        &CIRCUITS
    }
}

/// The campaign `subseq-bist run --circuits ... --threads 2 --seeds <seed>`
/// runs.
fn campaign(config: &RunConfig, seed: u64) -> Campaign {
    let (cap, budget) = layers::tgen_limits(config.smoke);
    Campaign::new()
        .suite_circuits(circuits(config).iter().copied())
        .seeds([seed])
        .tgen(TgenConfig::new().max_length(cap).compaction_budget(budget))
}

fn run_campaign(campaign: &Campaign) -> Result<CampaignOutcome, String> {
    CampaignEngine::new()
        .threads(THREADS)
        .keep_going(true)
        .run(campaign, &mut [])
        .map_err(|e| e.to_string())
}

/// Set-up: every input circuit built, compiled and collapsed, repeated
/// (the campaign itself starts from a fresh cache and redoes this).
fn setup(config: &RunConfig) -> Result<Vec<f64>, String> {
    let tracer = Tracer::new();
    (0..SETUP_REPEATS)
        .map(|_| {
            let started = Instant::now();
            for name in circuits(config) {
                std::hint::black_box(layers::prepare(&tracer, 0, name)?);
            }
            Ok(started.elapsed().as_secs_f64())
        })
        .collect()
}

/// Checks every job verified and, on the pinned seed, the digest; the
/// quality ratios are sampled from the default-seed campaign only.
fn check(
    config: &RunConfig,
    seed: u64,
    outcome: &CampaignOutcome,
    samples: &mut Samples,
    problems: &mut Vec<String>,
) {
    let summary = &outcome.summary;
    samples.attempted += summary.jobs_total as u64;
    samples.failed += (summary.jobs_failed + summary.jobs_skipped) as u64;
    for job in &outcome.outcomes {
        match &job.result {
            Ok(report) => {
                if report.verified() != Some(true) {
                    samples.failed += 1;
                    problems.push(format!(
                        "{}: verified = {:?}",
                        job.spec.circuit.label(),
                        report.verified()
                    ));
                }
                if seed == config.default_seed {
                    let t0_len = report.t0().len().max(1) as f64;
                    samples.coverage.push(report.coverage().fraction());
                    samples.loaded.push(report.loaded_fraction());
                    samples.max_len.push(report.best().after.max_len as f64 / t0_len);
                }
            }
            Err(e) => problems.push(format!("{}: {e}", job.spec.circuit.label())),
        }
    }
    if let Some(expected) = config.pinned_digest(seed) {
        let digest = format!("{:016x}", summary.digest());
        if digest != expected {
            problems.push(format!("campaign digest {digest} != pinned {expected} (seed {seed})"));
        }
    }
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut samples = Samples::default();
    if config.trace {
        return traced(config, samples, outcome);
    }
    let seed = config.default_seed;
    let result = run_campaign(&campaign(config, seed))?;
    check(config, seed, &result, &mut samples, &mut outcome.problems);
    outcome
        .notes
        .push(format!("pinned seed {seed} (untimed): digest {:016x}", result.summary.digest()));
    let roster = crate::roster(config.seed, crate::op_count(config, NOMINAL_OP_S) as usize);
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    for seed in roster {
        samples.setup.extend(setup(config)?);
        let (cpu, wall) = (crate::sys::cpu_seconds(), Instant::now());
        let result = run_campaign(&campaign(config, seed))?;
        let (wall, cpu) = (wall.elapsed().as_secs_f64(), crate::sys::cpu_seconds() - cpu);
        walls.push(wall);
        cpus.push(cpu);
        samples.latency.extend(result.outcomes.iter().map(|job| job.seconds));
        check(config, seed, &result, &mut samples, &mut outcome.problems);
        outcome.notes.push(format!(
            "seed {seed}: {wall:.3} s wall, {cpu:.3} s cpu, digest {:016x}",
            result.summary.digest()
        ));
    }
    samples.window = median(&walls).ok_or("no campaign was timed")?;
    samples.cpu = median(&cpus).ok_or("no campaign was timed")?;
    samples.window_ops = circuits(config).len();
    report::end_to_end(&samples, &mut outcome);
    Ok(outcome)
}

/// One untraced campaign, then the same jobs rebuilt from layer calls
/// under spans, compared bit for bit.
fn traced(
    config: &RunConfig,
    mut samples: Samples,
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    // The first campaign of the untraced run's roster.
    let seed = crate::roster(config.seed, 1)[0];
    let campaign = campaign(config, seed);
    let wall = Instant::now();
    let untraced = run_campaign(&campaign)?;
    let wall = wall.elapsed().as_secs_f64();
    check(config, seed, &untraced, &mut samples, &mut outcome.problems);
    outcome.attempted = samples.attempted;
    outcome.failed = samples.failed;

    let registry = Arc::new(Registry::new());
    let obs = Obs::with_registry(Arc::clone(&registry));
    let tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut records = Vec::new();
    // Longest-first, the order the engine dispatches in.
    let plan = CampaignEngine::new().plan(&campaign).map_err(|e| e.to_string())?;
    for spec in &plan {
        let request = spec.id as u64;
        let (prepared, t0, mut scheme) =
            tracer.time(JOB_SPAN, request, || -> Result<_, String> {
                let prepared = layers::prepare(&tracer, request, &spec.circuit.key())?;
                let t0 = layers::generate_t0(
                    &tracer,
                    request,
                    &prepared,
                    layers::tgen_limits(config.smoke),
                    spec.seed,
                    &obs,
                    &mut counts,
                )?;
                let scheme = layers::run_scheme(
                    &tracer,
                    request,
                    &prepared,
                    &obs,
                    &t0,
                    &spec.scheme.ns,
                    spec.scheme.postprocess,
                    campaign.verifies(),
                    spec.seed,
                    &mut counts,
                )?;
                Ok((prepared, t0, scheme))
            })?;
        match untraced.report(spec.id) {
            Some(report) => {
                scheme.prefer(report.best().n);
                outcome.problems.extend(layers::compare(report, &t0, &scheme));
            }
            None => outcome.problems.push(format!("job {} has no untraced report", spec.id)),
        }
        records.push(layers::record(spec, &prepared, &t0, &scheme));
    }
    records.sort_by_key(|r| r.job);
    let rebuilt = CampaignSummary::build(&records, plan.len(), 0.0).digest();
    if rebuilt != untraced.summary.digest() {
        outcome.problems.push(format!(
            "traced digest {rebuilt:016x} != untraced {:016x}",
            untraced.summary.digest()
        ));
    }
    let cache = untraced.cache;
    let batch = BatchFigures {
        queue_wait: untraced.outcomes.iter().map(|o| o.queue_seconds).sum(),
        exec: untraced.outcomes.iter().map(|o| o.exec_seconds).sum(),
        threads: THREADS,
        wall,
        cache_hits: (cache.circuit_hits
            + cache.tape_hits
            + cache.compiled_hits
            + cache.fault_hits
            + cache.t0_hits) as u64,
        cache_misses: (cache.circuit_misses
            + cache.tape_misses
            + cache.compiled_misses
            + cache.fault_misses
            + cache.t0_misses) as u64,
    };
    let vectors = registry.snapshot().counter("sim.vectors").unwrap_or(0);
    report::per_layer(
        tracer.spans(),
        &counts,
        vectors,
        &batch,
        &ServeFigures::default(),
        batch.exec,
        &mut outcome,
    );
    Ok(outcome)
}
