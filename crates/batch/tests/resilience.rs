//! Chaos acceptance suite for the resilience layer: deterministic fault
//! injection ([`bist_batch::faultpoint`]), panic quarantine, deadlines,
//! retries, bounded-cache eviction and crash-safe resume.
//!
//! The headline property mirrors the paper's reproducibility claim at
//! the infrastructure level: a campaign bombarded with injected faults —
//! panics, transient errors, poisoned cache computes, evictions, even a
//! kill and resume — must converge to the *bit-identical* summary of a
//! fault-free run. Timing differs; results may not.

use std::sync::Arc;
use std::time::Duration;

use bist_batch::faultpoint::{FaultPlan, FaultPoint, FaultSite};
use bist_batch::{
    BatchError, CachePolicy, Campaign, CampaignEngine, JobStatus, JsonlSink, MemorySink,
    ReportSink, ResumeLog, RetryPolicy,
};
use subseq_bist::netlist::benchmarks;
use subseq_bist::tgen::TgenConfig;
use subseq_bist::{Backend, Obs, Registry};

/// A short-`T0` configuration affordable on the biggest analogs.
fn tiny_tgen() -> TgenConfig {
    TgenConfig::new().max_length(12).burst_len(6).max_stall(2).compaction_budget(0)
}

fn campaign_over(names: &[&'static str]) -> Campaign {
    Campaign::new()
        .suite_circuits(names.iter().copied())
        .backends([Backend::Packed, Backend::Sharded { threads: 0, width: 256 }])
        .seeds([1999])
        .ns(vec![1])
        .tgen(tiny_tgen())
        .verify(false)
}

/// One-backend campaign for the cancellation matrix (threads(1) keeps
/// the worker/queue interleaving deterministic).
fn serial_campaign(names: &[&'static str]) -> Campaign {
    Campaign::new()
        .suite_circuits(names.iter().copied())
        .backends([Backend::Packed])
        .seeds([1999])
        .ns(vec![1])
        .tgen(tiny_tgen())
        .verify(false)
}

// --- Cancellation-path matrix -------------------------------------------
//
// Four ways a campaign stops or survives, each with exact counters and a
// drained queue: first-error cancellation, keep_going, deadline timeout
// and panic quarantine.

/// First-error mode: a quarantined panic cancels the campaign, every
/// queued job drains as a counted cancellation, nothing hangs.
#[test]
fn first_error_panic_cancels_and_drains_the_queue() {
    let names = ["s27", "a298", "a344", "a382"];
    let registry = Arc::new(Registry::new());
    // Empty patterns ride whichever job the cost-ordered plan dequeues
    // first: the delay keeps the single worker busy long enough for the
    // producer to enqueue the whole tail, then the panic fires and the
    // remaining three jobs drain as cancelled without ever consulting
    // the fault plan.
    let plan = Arc::new(
        FaultPlan::new(1)
            .point(FaultPoint::new(FaultSite::JobDelay, "").delay(Duration::from_millis(150)))
            .point(FaultPoint::new(FaultSite::JobPanic, "")),
    );
    let err = CampaignEngine::new()
        .threads(1)
        .obs(Obs::with_registry(Arc::clone(&registry)))
        .chaos(plan)
        .run(&serial_campaign(&names), &mut [])
        .unwrap_err();
    match &err {
        BatchError::JobFailed { message, .. } => {
            assert!(message.contains("panicked"), "{message}");
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("pool.panics"), Some(1));
    assert_eq!(snap.counter("pool.cancellations"), Some(3), "whole tail drained as cancelled");
    assert_eq!(snap.counter("pool.timeouts"), Some(0));
    assert_eq!(snap.counter("pool.retries"), Some(0));
    assert_eq!(snap.gauge("pool.queue_depth"), Some(0), "queue drained to zero");
}

/// keep_going mode: the same panic is quarantined and recorded, the rest
/// of the matrix still runs, nothing is cancelled.
#[test]
fn keep_going_quarantines_the_panic_and_finishes() {
    let names = ["s27", "a298", "a344", "a382"];
    let registry = Arc::new(Registry::new());
    let plan = Arc::new(FaultPlan::new(1).point(FaultPoint::new(FaultSite::JobPanic, ":s27:")));
    let mut sink = MemorySink::new();
    let outcome = {
        let mut sinks: [&mut dyn ReportSink; 1] = [&mut sink];
        CampaignEngine::new()
            .threads(1)
            .keep_going(true)
            .obs(Obs::with_registry(Arc::clone(&registry)))
            .chaos(plan)
            .run(&serial_campaign(&names), &mut sinks)
            .unwrap()
    };
    assert_eq!(outcome.summary.jobs_total, 4);
    assert_eq!(outcome.summary.jobs_ok, 3);
    assert_eq!(outcome.summary.jobs_failed, 1);
    assert_eq!(outcome.summary.jobs_skipped, 0);
    let failed: Vec<_> = sink.records.iter().filter(|r| r.status == JobStatus::Failed).collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].circuit, "s27");
    let error = failed[0].error.as_deref().unwrap();
    assert!(error.contains("panicked after 1 attempt"), "{error}");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("pool.panics"), Some(1));
    assert_eq!(snap.counter("pool.cancellations"), Some(0), "keep_going never cancels");
    assert_eq!(snap.counter("pool.timeouts"), Some(0));
    assert_eq!(snap.gauge("pool.queue_depth"), Some(0));
}

/// Deadline mode: a job held past its deadline is cooperatively
/// cancelled by the sweep, counted as a timeout, and — unlike a
/// transient — never retried.
#[test]
fn expired_deadline_times_the_job_out_without_retries() {
    let names = ["s27", "a298", "a344"];
    let registry = Arc::new(Registry::new());
    let plan =
        Arc::new(FaultPlan::new(3).point(
            FaultPoint::new(FaultSite::JobDelay, ":a298:").delay(Duration::from_millis(2500)),
        ));
    let mut sink = MemorySink::new();
    let outcome = {
        let mut sinks: [&mut dyn ReportSink; 1] = [&mut sink];
        CampaignEngine::new()
            .threads(1)
            .keep_going(true)
            .deadline(Duration::from_millis(500))
            .retry(RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(1) })
            .obs(Obs::with_registry(Arc::clone(&registry)))
            .chaos(plan)
            .run(&serial_campaign(&names), &mut sinks)
            .unwrap()
    };
    assert_eq!(outcome.summary.jobs_ok, 2);
    assert_eq!(outcome.summary.jobs_failed, 1);
    let failed = sink.records.iter().find(|r| r.status == JobStatus::Failed).unwrap();
    assert_eq!(failed.circuit, "a298");
    let error = failed.error.as_deref().unwrap();
    assert!(error.contains("timed out after 1 attempt"), "{error}");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("pool.timeouts"), Some(1));
    assert_eq!(snap.counter("pool.retries"), Some(0), "deadline expiry is not retryable");
    assert_eq!(snap.counter("pool.panics"), Some(0));
    assert_eq!(snap.counter("pool.cancellations"), Some(0));
    assert_eq!(snap.gauge("pool.queue_depth"), Some(0));
}

/// Retry mode: injected transient failures heal within the attempt
/// budget — every job succeeds, the retry counter is exact, and the
/// campaign needs neither keep_going nor cancellation.
#[test]
fn transient_faults_heal_within_the_retry_budget() {
    let names = ["s27", "a298", "a344", "a382"];
    let registry = Arc::new(Registry::new());
    let plan = Arc::new(FaultPlan::new(9).point(FaultPoint::new(FaultSite::JobTransient, "")));
    let outcome = CampaignEngine::new()
        .threads(1)
        .retry(RetryPolicy { max_attempts: 2, backoff: Duration::from_millis(1) })
        .obs(Obs::with_registry(Arc::clone(&registry)))
        .chaos(Arc::clone(&plan))
        .run(&serial_campaign(&names), &mut [])
        .unwrap();
    assert_eq!(outcome.summary.jobs_ok, 4);
    assert_eq!(outcome.summary.jobs_failed, 0);
    assert_eq!(plan.injected(), 4, "one injected transient per job");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("pool.retries"), Some(4), "exactly one retry per job");
    assert_eq!(snap.counter("pool.panics"), Some(0));
    assert_eq!(snap.counter("pool.timeouts"), Some(0));
    assert_eq!(snap.counter("pool.cancellations"), Some(0));
    assert_eq!(snap.gauge("pool.queue_depth"), Some(0));
}

// --- Chaos acceptance ----------------------------------------------------

/// The tentpole acceptance property: a campaign under deterministic
/// fault injection (transient errors + poisoned cache computes), with
/// the artifact cache squeezed under a byte budget, killed mid-journal
/// and resumed, produces the bit-identical summary digest of a
/// fault-free, unbounded, uninterrupted run.
fn assert_chaos_campaign_converges(names: &[&'static str]) {
    let campaign = campaign_over(names);
    let jobs = 2 * names.len();
    let fingerprint = campaign.fingerprint();

    // Ground truth: fault-free, unbounded, uninterrupted.
    let baseline = CampaignEngine::new().run(&campaign, &mut []).unwrap();
    assert_eq!(baseline.summary.jobs_ok, jobs);
    let digest = baseline.summary.digest();

    let dir = std::env::temp_dir().join("bist_batch_resilience_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("chaos_{}.jsonl", names.len()));

    // Chaos pass: every job takes one injected transient, every T0
    // compute is poisoned once, and the cache budget of one byte forces
    // an eviction after every job (recompute-on-miss must stay
    // bit-identical for the digest to survive).
    let chaos = || {
        Arc::new(
            FaultPlan::new(2024)
                .point(FaultPoint::new(FaultSite::JobTransient, ""))
                .point(FaultPoint::new(FaultSite::CachePoison, "t0:")),
        )
    };
    let engine = |registry: &Arc<Registry>| {
        CampaignEngine::new()
            .obs(Obs::with_registry(Arc::clone(registry)))
            .chaos(chaos())
            .retry(RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(1) })
            .cache_policy(CachePolicy::bounded(1))
    };

    let registry = Arc::new(Registry::new());
    let outcome = {
        let mut sink = JsonlSink::create(&path).unwrap().with_fingerprint(&fingerprint);
        let mut sinks: [&mut dyn ReportSink; 1] = [&mut sink];
        let outcome = engine(&registry).run(&campaign, &mut sinks).unwrap();
        assert_eq!(sink.rows(), jobs);
        outcome
    };
    assert_eq!(outcome.summary.jobs_ok, jobs, "every injected fault healed");
    assert_eq!(outcome.summary.digest(), digest, "chaos run must converge to the baseline");
    assert!(outcome.cache.total_evictions() > 0, "the byte budget must actually evict");
    assert!(
        outcome.residency.total_approx_bytes() <= 1,
        "cache ended over budget: {}",
        outcome.residency
    );
    let snap = registry.snapshot();
    assert!(snap.counter("pool.retries").unwrap_or(0) >= jobs as u64, "one retry per job minimum");
    assert_eq!(snap.counter("pool.panics"), Some(0));

    // Kill simulation: keep half the journal plus a torn fragment of the
    // next row — exactly what a `kill -9` mid-write leaves behind.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let keep = jobs / 2;
    let mut wreck: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
    wreck.push_str(&lines[keep][..lines[keep].len() - 10]);
    std::fs::write(&path, &wreck).unwrap();

    // Resume: replay the surviving rows, rerun exactly the missing jobs
    // (under fresh chaos — the restarted process re-injects), merge.
    let log = ResumeLog::load(&path, &fingerprint).unwrap();
    assert!(log.truncated(), "the torn row must be detected");
    assert_eq!(log.records().len(), keep);
    let resumed_registry = Arc::new(Registry::new());
    let resumed = {
        let mut sink = JsonlSink::append(&path).unwrap().with_fingerprint(&fingerprint);
        assert_eq!(sink.rows(), keep, "append repairs the tear and keeps the survivors");
        let mut sinks: [&mut dyn ReportSink; 1] = [&mut sink];
        let resumed =
            engine(&resumed_registry).run_resumed(&campaign, &mut sinks, log.records()).unwrap();
        assert_eq!(sink.rows(), jobs, "journal holds the full matrix again");
        resumed
    };
    assert_eq!(resumed.summary.jobs_total, jobs);
    assert_eq!(resumed.summary.jobs_ok, jobs);
    assert_eq!(resumed.summary.jobs_skipped, 0);
    assert_eq!(resumed.summary.digest(), digest, "killed+resumed must merge bit-identically");
    // Exactly the missing jobs executed — no replayed job ran again.
    let snap = resumed_registry.snapshot();
    assert_eq!(
        snap.histogram("pool.exec_us").map(|h| h.count),
        Some((jobs - keep) as u64),
        "resume must execute exactly the missing jobs"
    );
    // The repaired, completed journal is strictly schema-valid.
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(bist_batch::jsonl::validate_jsonl(&text).unwrap(), jobs);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn chaos_campaign_converges_up_to_3000_gates() {
    let names: Vec<&'static str> = benchmarks::suite_up_to(3000).iter().map(|e| e.name).collect();
    assert_eq!(names.len(), 12);
    assert_chaos_campaign_converges(&names);
}

/// The full 13-circuit chaos matrix, including the `s35932` analog —
/// ignored in debug builds like the plain 13-circuit acceptance test; CI
/// runs it via
/// `cargo test --release -p bist-batch --test resilience full_13_circuit`.
#[test]
#[cfg_attr(debug_assertions, ignore = "a35932 jobs take minutes unoptimized; run with --release")]
fn full_13_circuit_chaos_campaign_converges() {
    let names: Vec<&'static str> = benchmarks::suite().iter().map(|e| e.name).collect();
    assert_eq!(names.len(), 13);
    assert_chaos_campaign_converges(&names);
}

/// A journal whose rows carry the fingerprint an older build computed
/// for this very campaign — when the fingerprint still hashed a compile
/// pass selection — must be refused, not merged: the digest inputs of
/// that build are not this one's to vouch for.
#[test]
fn journal_stamped_by_an_older_fingerprint_is_refused() {
    const OLD_FINGERPRINT: &str = "21161d443b2f451d";
    let campaign = serial_campaign(&["s27"]);
    let fingerprint = campaign.fingerprint();
    assert_ne!(fingerprint, OLD_FINGERPRINT);
    let row = format!(
        "{{\"job\": 0, \"circuit\": \"s27\", \"backend\": \"packed\", \"scheme\": \"default\", \
         \"seed\": 1999, \"status\": \"ok\", \"seconds\": 0.002076, \"queue_seconds\": 0.000066, \
         \"exec_seconds\": 0.002010, \"engine\": \"packed64\", \"faults_total\": 32, \
         \"faults_detected\": 21, \"t0_len\": 12, \"n\": 1, \"set_count\": 2, \"total_len\": 3, \
         \"max_len\": 2, \"applied_test_len\": 24, \"loaded_fraction\": 0.25, \
         \"scheme_data_bits\": 8, \"monolithic_data_bits\": 48, \"gates_removed\": 0, \
         \"verified\": null, \"fp\": \"{OLD_FINGERPRINT}\"}}\n"
    );
    let dir = std::env::temp_dir().join("bist_batch_resilience_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("old_fingerprint.jsonl");
    std::fs::write(&path, &row).unwrap();
    match ResumeLog::load(&path, &fingerprint) {
        Err(BatchError::Config(message)) => {
            assert!(message.contains(OLD_FINGERPRINT), "{message}");
            assert!(message.contains("different campaign configuration"), "{message}");
        }
        other => panic!("a stale journal must be a config error, got {other:?}"),
    }
    // The row itself is sound: under its own stamp it loads, so the
    // refusal above is the fingerprint's doing alone.
    let log = ResumeLog::load(&path, OLD_FINGERPRINT).unwrap();
    assert_eq!(log.records().len(), 1);
    std::fs::remove_file(&path).unwrap();
}

/// A circuit file whose stem is not ASCII must journal and replay under
/// the same label: the resumed summary digests exactly like the offline
/// run, so the replayed rows land on the same axis line as the rerun
/// ones would have.
#[test]
fn non_ascii_circuit_label_resumes_to_the_offline_digest() {
    let dir = std::env::temp_dir().join(format!("bist_batch_non_ascii_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bench = dir.join("café.bench");
    std::fs::write(&bench, subseq_bist::netlist::writer::to_bench(&benchmarks::s27())).unwrap();
    let campaign = Campaign::new()
        .circuit_file(&bench)
        .backends([Backend::Packed])
        .seeds([1999, 2000])
        .ns(vec![1])
        .tgen(tiny_tgen())
        .verify(false);
    let fingerprint = campaign.fingerprint();
    let offline = CampaignEngine::new().run(&campaign, &mut []).unwrap();
    assert_eq!(offline.summary.jobs_ok, 2);
    assert_eq!(offline.summary.circuits[0].label, "café");

    let path = dir.join("journal.jsonl");
    {
        let mut sink = JsonlSink::create(&path).unwrap().with_fingerprint(&fingerprint);
        let mut sinks: [&mut dyn ReportSink; 1] = [&mut sink];
        CampaignEngine::new().run(&campaign, &mut sinks).unwrap();
    }
    // Keep the first row only, as a kill after one job would.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, format!("{}\n", text.lines().next().unwrap())).unwrap();
    let log = ResumeLog::load(&path, &fingerprint).unwrap();
    assert_eq!(log.records().len(), 1);
    assert_eq!(log.records()[0].circuit, "café");
    let resumed = CampaignEngine::new().run_resumed(&campaign, &mut [], log.records()).unwrap();
    let labels: Vec<&str> = resumed.summary.circuits.iter().map(|l| l.label.as_str()).collect();
    assert_eq!(labels, ["café"], "replayed and rerun jobs share one axis line");
    assert_eq!(resumed.summary.digest(), offline.summary.digest());
    std::fs::remove_dir_all(&dir).unwrap();
}
