//! Result streaming and roll-up: [`JobRecord`]s flow through pluggable
//! [`ReportSink`]s as jobs complete, and a [`CampaignSummary`] rolls up
//! coverage, storage and wall time per axis at the end.

use crate::jsonl::{parse_record, record_row, validate_jsonl_line};
use crate::BatchError;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Terminal state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The session ran to completion.
    Ok,
    /// The session (or an artifact it needed) failed.
    Failed,
}

impl JobStatus {
    /// The status string used in JSONL rows (`"ok"` / `"failed"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Failed => "failed",
        }
    }
}

/// The result metrics of one successful job (a flattened
/// [`SessionReport`](subseq_bist::SessionReport)).
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// Name the simulation engine reported (e.g. `"sharded"`).
    pub engine: String,
    /// Size of the collapsed fault universe.
    pub faults_total: usize,
    /// Faults detected by `T0`.
    pub faults_detected: usize,
    /// `|T0|`.
    pub t0_len: usize,
    /// Best repetition count.
    pub n: usize,
    /// `|S|` after compaction.
    pub set_count: usize,
    /// Total loaded length after compaction.
    pub total_len: usize,
    /// Maximum loaded length after compaction.
    pub max_len: usize,
    /// Applied at-speed test length (`8·n·total_len`).
    pub applied_test_len: usize,
    /// `total_len / |T0|` — the paper's headline ratio.
    pub loaded_fraction: f64,
    /// On-chip test-data bits of the scheme memory.
    pub scheme_data_bits: usize,
    /// Test-data bits of storing all of `T0` monolithically.
    pub monolithic_data_bits: usize,
    /// Always 0: every job simulates the circuit's full tape. Kept as a
    /// JSONL column so the journal schema stays stable.
    pub gates_removed: usize,
    /// Post-run verification outcome (`None` if disabled).
    pub verified: Option<bool>,
}

/// One completed (or failed) job, flattened for streaming to sinks.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id (position in the campaign matrix).
    pub job: usize,
    /// Circuit label.
    pub circuit: String,
    /// Backend label from the job spec (stable even on failure).
    pub backend: String,
    /// Scheme spec label.
    pub scheme: String,
    /// Job seed.
    pub seed: u64,
    /// Terminal state.
    pub status: JobStatus,
    /// Wall-clock seconds the job took: `queue_seconds + exec_seconds`
    /// (kept as the sum so the historical column stays comparable).
    pub seconds: f64,
    /// Seconds the job waited in the dispatch queue before a worker
    /// picked it up.
    pub queue_seconds: f64,
    /// Seconds the job executed (including artifact-cache waits).
    pub exec_seconds: f64,
    /// Metrics of a successful run.
    pub metrics: Option<JobMetrics>,
    /// Error message of a failed run.
    pub error: Option<String>,
}

/// A consumer of job records, invoked in completion order as the
/// campaign runs — the streaming half of the engine's output (the other
/// half being the [`CampaignOutcome`](crate::CampaignOutcome) returned
/// at the end).
pub trait ReportSink: Send {
    /// Consumes one record. An error cancels the campaign.
    ///
    /// # Errors
    ///
    /// Sink-specific; treated as a hard campaign error.
    fn accept(&mut self, record: &JobRecord) -> Result<(), BatchError>;

    /// Called once after the last record (flush point).
    ///
    /// # Errors
    ///
    /// Sink-specific; surfaced by [`CampaignEngine::run`](crate::CampaignEngine::run).
    fn finish(&mut self) -> Result<(), BatchError> {
        Ok(())
    }
}

/// A sink that keeps every record in memory.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// The records, in completion order.
    pub records: Vec<JobRecord>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        MemorySink::default()
    }
}

impl ReportSink for MemorySink {
    fn accept(&mut self, record: &JobRecord) -> Result<(), BatchError> {
        self.records.push(record.clone());
        Ok(())
    }
}

/// A sink writing one JSON object per line (JSONL), schema-validating
/// every row before it is written — a schema regression fails the
/// campaign instead of silently corrupting the output file.
///
/// The sink doubles as the campaign's write-ahead journal: every row is
/// flushed to the OS as soon as it is accepted, so a killed process
/// loses at most the one row it was writing (a torn final line), and
/// `--resume` can replay every completed job from the file. Stamp rows
/// with [`with_fingerprint`](JsonlSink::with_fingerprint) so a resume
/// against a *different* campaign configuration is refused instead of
/// silently merged.
pub struct JsonlSink {
    path: PathBuf,
    out: std::io::BufWriter<std::fs::File>,
    rows: usize,
    fingerprint: Option<String>,
}

impl JsonlSink {
    /// Creates/truncates `path`.
    ///
    /// # Errors
    ///
    /// I/O errors from file creation.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, BatchError> {
        let path = path.into();
        let file = std::fs::File::create(&path).map_err(|e| {
            BatchError::Io(std::io::Error::new(
                e.kind(),
                format!("creating JSONL file `{}`: {e}", path.display()),
            ))
        })?;
        Ok(JsonlSink { path, out: std::io::BufWriter::new(file), rows: 0, fingerprint: None })
    }

    /// Reopens an existing journal for appending, repairing a torn
    /// trailing line first (the file is truncated back to its last
    /// complete, schema-valid row). [`rows`](JsonlSink::rows) starts at
    /// the count of surviving rows, so it always reflects the journal's
    /// total. An invalid line *before* the end is a hard error — torn
    /// writes only ever damage the tail.
    ///
    /// # Errors
    ///
    /// I/O errors, or mid-file schema violations.
    pub fn append(path: impl Into<PathBuf>) -> Result<Self, BatchError> {
        let path = path.into();
        let decorate = |verb: &str, e: std::io::Error| {
            BatchError::Io(std::io::Error::new(
                e.kind(),
                format!("{verb} JSONL journal `{}`: {e}", path.display()),
            ))
        };
        let text = std::fs::read_to_string(&path).map_err(|e| decorate("reading", e))?;
        let mut rows = 0;
        let mut valid_len = 0u64;
        let mut offset = 0usize;
        // A valid final row may have lost only its newline; keep it and
        // terminate it below instead of rerunning its job.
        let mut needs_newline = false;
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for (i, raw) in lines.iter().enumerate() {
            let line = raw.trim_end_matches(['\n', '\r']);
            if line.trim().is_empty() {
                offset += raw.len();
                valid_len = offset as u64;
                continue;
            }
            match validate_jsonl_line(line) {
                Ok(()) => {
                    offset += raw.len();
                    valid_len = offset as u64;
                    rows += 1;
                    needs_newline = !raw.ends_with('\n');
                }
                // A torn trailing row is the crash signature; drop it.
                Err(_) if i == lines.len() - 1 => break,
                Err(e) => {
                    return Err(BatchError::Config(format!(
                        "JSONL journal `{}` line {}: {e}",
                        path.display(),
                        i + 1
                    )))
                }
            }
        }
        if valid_len < text.len() as u64 {
            let repair = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| decorate("repairing", e))?;
            repair.set_len(valid_len).map_err(|e| decorate("repairing", e))?;
        }
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| decorate("appending to", e))?;
        let mut out = std::io::BufWriter::new(file);
        if needs_newline {
            out.write_all(b"\n").map_err(|e| decorate("repairing", e))?;
        }
        Ok(JsonlSink { path, out, rows, fingerprint: None })
    }

    /// Stamps every subsequent row with an `"fp"` key carrying the
    /// campaign's configuration fingerprint (see
    /// [`Campaign::fingerprint`](crate::Campaign::fingerprint)).
    #[must_use]
    pub fn with_fingerprint(mut self, fingerprint: impl Into<String>) -> Self {
        self.fingerprint = Some(fingerprint.into());
        self
    }

    /// The output path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rows written so far (including rows inherited through
    /// [`append`](JsonlSink::append)).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }
}

impl ReportSink for JsonlSink {
    fn accept(&mut self, record: &JobRecord) -> Result<(), BatchError> {
        let line = record_row(record, self.fingerprint.as_deref());
        validate_jsonl_line(&line).map_err(|e| {
            BatchError::Config(format!("JSONL row failed schema validation: {e}: {line}"))
        })?;
        writeln!(self.out, "{line}")?;
        // Write-ahead discipline: the row reaches the OS before the job
        // is considered recorded, so a crash strands at most a torn
        // final line (which append()/ResumeLog repair).
        self.out.flush()?;
        self.rows += 1;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), BatchError> {
        self.out.flush()?;
        Ok(())
    }
}

/// The replayable contents of a crash-interrupted JSONL journal: every
/// complete, fingerprint-matching `"ok"` row parsed back into its
/// [`JobRecord`]. Failed rows are dropped (their jobs rerun), and a torn
/// trailing line is tolerated and reported via
/// [`truncated`](ResumeLog::truncated).
#[derive(Debug)]
pub struct ResumeLog {
    records: Vec<JobRecord>,
    rows: usize,
    truncated: bool,
}

impl ResumeLog {
    /// Loads `path` and keeps the `"ok"` rows stamped with
    /// `fingerprint`. A row stamped with a *different* fingerprint (or
    /// none) is a configuration mismatch and a hard error: replaying it
    /// would merge results from a different campaign.
    ///
    /// # Errors
    ///
    /// I/O errors, mid-file corruption, or a fingerprint mismatch.
    pub fn load(path: impl AsRef<Path>, fingerprint: &str) -> Result<Self, BatchError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            BatchError::Io(std::io::Error::new(
                e.kind(),
                format!("reading resume journal `{}`: {e}", path.display()),
            ))
        })?;
        let lines: Vec<(usize, &str)> =
            text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).collect();
        let mut records = Vec::new();
        let mut rows = 0;
        let mut truncated = false;
        for (position, (i, line)) in lines.iter().enumerate() {
            let parsed = match parse_record(line) {
                Ok(parsed) => parsed,
                Err(_) if position == lines.len() - 1 => {
                    truncated = true;
                    break;
                }
                Err(e) => {
                    return Err(BatchError::Config(format!(
                        "resume journal `{}` line {}: {e}",
                        path.display(),
                        i + 1
                    )))
                }
            };
            rows += 1;
            if parsed.fingerprint.as_deref() != Some(fingerprint) {
                return Err(BatchError::Config(format!(
                    "resume journal `{}` line {} was written by a different campaign \
                     configuration (fingerprint {} != {fingerprint})",
                    path.display(),
                    i + 1,
                    parsed.fingerprint.as_deref().unwrap_or("<missing>"),
                )));
            }
            if parsed.record.status == JobStatus::Ok {
                records.push(parsed.record);
            }
        }
        Ok(ResumeLog { records, rows, truncated })
    }

    /// The replayable `"ok"` records, in journal order.
    #[must_use]
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Complete rows read (ok + failed) before any torn tail.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether a torn trailing line was dropped.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

impl Drop for JsonlSink {
    /// Best-effort flush for sinks dropped without
    /// [`finish`](ReportSink::finish) — an early-returning campaign still
    /// leaves every accepted row on disk (I/O errors are deliberately
    /// swallowed here; `finish` is the checked flush point).
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Per-axis roll-up line (one circuit or one backend).
#[derive(Debug, Clone, PartialEq)]
pub struct AxisLine {
    /// Axis value (circuit or backend label).
    pub label: String,
    /// Jobs that completed successfully.
    pub jobs: usize,
    /// Seconds the axis value's jobs spent executing, queue waits
    /// excluded (those depend on what else was queued, not on the job).
    pub exec_seconds: f64,
    /// Mean `T0` fault coverage (detected / total) over ok jobs.
    pub mean_coverage: f64,
    /// Mean loaded fraction (`total_len / |T0|`) over ok jobs.
    pub mean_loaded_fraction: f64,
    /// Mean on-chip storage ratio (scheme bits / monolithic bits).
    pub mean_storage_ratio: f64,
}

/// The campaign's final roll-up: totals plus per-circuit and per-backend
/// axis lines.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Jobs in the expanded matrix.
    pub jobs_total: usize,
    /// Jobs that completed successfully.
    pub jobs_ok: usize,
    /// Jobs that ran and failed.
    pub jobs_failed: usize,
    /// Jobs skipped after cancellation.
    pub jobs_skipped: usize,
    /// Wall-clock seconds of the whole campaign.
    pub wall_seconds: f64,
    /// Sum of per-job seconds (> wall when workers run concurrently).
    pub job_seconds: f64,
    /// Sum of per-job queue-wait seconds (time spent in the dispatch
    /// queue, not executing).
    pub queue_seconds: f64,
    /// Sum of per-job execute seconds (`job_seconds` minus queue waits).
    pub exec_seconds: f64,
    /// One line per circuit, in label order.
    pub circuits: Vec<AxisLine>,
    /// One line per backend, in label order.
    pub backends: Vec<AxisLine>,
    /// Telemetry snapshot of the campaign's registry (empty unless the
    /// engine ran with an active [`Obs`](bist_obs::Obs) sink).
    pub metrics: bist_obs::MetricsSnapshot,
}

impl CampaignSummary {
    /// Rolls up the records of a finished campaign.
    #[must_use]
    pub fn build(records: &[JobRecord], jobs_total: usize, wall_seconds: f64) -> Self {
        let jobs_ok = records.iter().filter(|r| r.status == JobStatus::Ok).count();
        let jobs_failed = records.len() - jobs_ok;
        let axis = |key: fn(&JobRecord) -> &str| -> Vec<AxisLine> {
            let mut groups: BTreeMap<&str, Vec<&JobRecord>> = BTreeMap::new();
            for r in records {
                groups.entry(key(r)).or_default().push(r);
            }
            groups
                .into_iter()
                .map(|(label, rs)| {
                    let ok: Vec<&&JobRecord> =
                        rs.iter().filter(|r| r.status == JobStatus::Ok).collect();
                    let mean = |f: fn(&JobMetrics) -> f64| {
                        if ok.is_empty() {
                            0.0
                        } else {
                            ok.iter().filter_map(|r| r.metrics.as_ref()).map(f).sum::<f64>()
                                / ok.len() as f64
                        }
                    };
                    AxisLine {
                        label: label.to_string(),
                        jobs: ok.len(),
                        exec_seconds: rs.iter().map(|r| r.exec_seconds).sum(),
                        mean_coverage: mean(|m| {
                            m.faults_detected as f64 / m.faults_total.max(1) as f64
                        }),
                        mean_loaded_fraction: mean(|m| m.loaded_fraction),
                        mean_storage_ratio: mean(|m| {
                            m.scheme_data_bits as f64 / m.monolithic_data_bits.max(1) as f64
                        }),
                    }
                })
                .collect()
        };
        CampaignSummary {
            jobs_total,
            jobs_ok,
            jobs_failed,
            jobs_skipped: jobs_total - records.len(),
            wall_seconds,
            job_seconds: records.iter().map(|r| r.seconds).sum(),
            queue_seconds: records.iter().map(|r| r.queue_seconds).sum(),
            exec_seconds: records.iter().map(|r| r.exec_seconds).sum(),
            circuits: axis(|r| &r.circuit),
            backends: axis(|r| &r.backend),
            metrics: bist_obs::MetricsSnapshot::default(),
        }
    }

    /// FNV-1a digest of the summary's *deterministic* fields: job
    /// counts, per-axis labels, ok-job counts and means (hashed via
    /// [`f64::to_bits`]), plus one zero word per axis line where a
    /// gates-removed count once sat, so that pinned digests still
    /// reproduce. All timing (wall, job, queue, exec seconds) and
    /// telemetry are excluded, so a chaos run that healed through
    /// retries — or a killed campaign merged back together with
    /// `--resume` — digests identically to the fault-free run of the
    /// same campaign. That equality is the resilience
    /// layer's acceptance criterion.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for count in [self.jobs_total, self.jobs_ok, self.jobs_failed, self.jobs_skipped] {
            eat(&mut h, &(count as u64).to_le_bytes());
        }
        for axis in [&self.circuits, &self.backends] {
            for line in axis {
                eat(&mut h, line.label.as_bytes());
                eat(&mut h, &[0]);
                eat(&mut h, &(line.jobs as u64).to_le_bytes());
                eat(&mut h, &line.mean_coverage.to_bits().to_le_bytes());
                eat(&mut h, &line.mean_loaded_fraction.to_bits().to_le_bytes());
                eat(&mut h, &line.mean_storage_ratio.to_bits().to_le_bytes());
                eat(&mut h, &0u64.to_le_bytes());
            }
        }
        h
    }
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign: {} jobs ({} ok, {} failed, {} skipped) in {:.2}s wall / {:.2}s job time \
             ({:.2}s queued + {:.2}s executing)",
            self.jobs_total,
            self.jobs_ok,
            self.jobs_failed,
            self.jobs_skipped,
            self.wall_seconds,
            self.job_seconds,
            self.queue_seconds,
            self.exec_seconds,
        )?;
        writeln!(
            f,
            "  {:<10} {:>4} {:>9} {:>9} {:>8} {:>8}",
            "circuit", "ok", "exec s", "coverage", "loaded", "storage"
        )?;
        for line in &self.circuits {
            writeln!(
                f,
                "  {:<10} {:>4} {:>9.3} {:>8.1}% {:>7.0}% {:>7.0}%",
                line.label,
                line.jobs,
                line.exec_seconds,
                100.0 * line.mean_coverage,
                100.0 * line.mean_loaded_fraction,
                100.0 * line.mean_storage_ratio,
            )?;
        }
        writeln!(f, "  {:<18} {:>4} {:>9}", "backend", "ok", "exec s")?;
        for line in &self.backends {
            writeln!(f, "  {:<18} {:>4} {:>9.3}", line.label, line.jobs, line.exec_seconds)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::record_to_json;

    fn ok_record(job: usize, circuit: &str, backend: &str, seconds: f64) -> JobRecord {
        JobRecord {
            job,
            circuit: circuit.to_string(),
            backend: backend.to_string(),
            scheme: "default".to_string(),
            seed: 1,
            status: JobStatus::Ok,
            seconds,
            queue_seconds: seconds * 0.25,
            exec_seconds: seconds * 0.75,
            metrics: Some(JobMetrics {
                engine: "packed64".to_string(),
                faults_total: 32,
                faults_detected: 32,
                t0_len: 10,
                n: 2,
                set_count: 2,
                total_len: 5,
                max_len: 3,
                applied_test_len: 80,
                loaded_fraction: 0.5,
                scheme_data_bits: 12,
                monolithic_data_bits: 40,
                gates_removed: 0,
                verified: Some(true),
            }),
            error: None,
        }
    }

    fn failed_record(job: usize) -> JobRecord {
        JobRecord {
            job,
            circuit: "bad".to_string(),
            backend: "packed".to_string(),
            scheme: "default".to_string(),
            seed: 1,
            status: JobStatus::Failed,
            seconds: 0.0,
            queue_seconds: 0.0,
            exec_seconds: 0.0,
            metrics: None,
            error: Some("boom".to_string()),
        }
    }

    #[test]
    fn summary_rolls_up_axes_and_counts() {
        let records = vec![
            ok_record(0, "s27", "packed", 0.5),
            ok_record(1, "s27", "scalar", 1.5),
            ok_record(2, "a298", "packed", 2.0),
            failed_record(3),
        ];
        let summary = CampaignSummary::build(&records, 6, 3.0);
        assert_eq!(summary.jobs_total, 6);
        assert_eq!(summary.jobs_ok, 3);
        assert_eq!(summary.jobs_failed, 1);
        assert_eq!(summary.jobs_skipped, 2);
        assert!((summary.job_seconds - 4.0).abs() < 1e-9);
        // Queue + execute reconcile to total job time.
        assert!((summary.queue_seconds - 1.0).abs() < 1e-9);
        assert!((summary.exec_seconds - 3.0).abs() < 1e-9);
        assert!((summary.queue_seconds + summary.exec_seconds - summary.job_seconds).abs() < 1e-9);
        assert!(summary.metrics.is_empty(), "build() starts with no telemetry");
        assert!(summary.to_string().contains("queued"));
        assert_eq!(summary.circuits.len(), 3); // a298, bad, s27
        let s27 = summary.circuits.iter().find(|l| l.label == "s27").unwrap();
        assert_eq!(s27.jobs, 2);
        assert!((s27.mean_coverage - 1.0).abs() < 1e-9);
        assert!((s27.mean_loaded_fraction - 0.5).abs() < 1e-9);
        // Axis lines sum execution time only: 0.75 of each job's 0.5 + 1.5
        // seconds; the queued quarter shows in the header line alone.
        assert!((s27.exec_seconds - 1.5).abs() < 1e-9);
        let packed = summary.backends.iter().find(|l| l.label == "packed").unwrap();
        assert_eq!(packed.jobs, 2);
        assert!((packed.exec_seconds - 1.875).abs() < 1e-9);
        let rendered = summary.to_string();
        assert!(rendered.contains("6 jobs"));
        assert!(rendered.contains("s27"));
        assert!(rendered.contains("1.00s queued + 3.00s executing"), "{rendered}");
        let s27_row = rendered.lines().find(|l| l.trim_start().starts_with("s27")).unwrap();
        assert!(s27_row.contains("1.500") && !s27_row.contains("2.000"), "{s27_row}");
    }

    #[test]
    fn memory_sink_collects() {
        let mut sink = MemorySink::new();
        sink.accept(&ok_record(0, "s27", "packed", 0.1)).unwrap();
        sink.accept(&failed_record(1)).unwrap();
        sink.finish().unwrap();
        assert_eq!(sink.records.len(), 2);
        assert_eq!(sink.records[1].status, JobStatus::Failed);
    }

    #[test]
    fn jsonl_sink_writes_valid_rows() {
        let dir = std::env::temp_dir().join("bist_batch_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.accept(&ok_record(0, "s27", "packed", 0.1)).unwrap();
        sink.accept(&failed_record(1)).unwrap();
        sink.finish().unwrap();
        assert_eq!(sink.rows(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::jsonl::validate_jsonl(&text).unwrap(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn jsonl_sink_flushes_on_drop_without_finish() {
        // A sink dropped mid-campaign (early return, cancellation) must
        // leave byte-identical output to one that was finish()ed: the
        // Drop impl flushes the BufWriter.
        let dir = std::env::temp_dir().join("bist_batch_drop_flush_test");
        std::fs::create_dir_all(&dir).unwrap();
        let records = [ok_record(0, "s27", "packed", 0.1), failed_record(1)];

        let finished = dir.join("finished.jsonl");
        let mut sink = JsonlSink::create(&finished).unwrap();
        for r in &records {
            sink.accept(r).unwrap();
        }
        sink.finish().unwrap();
        drop(sink);

        let dropped = dir.join("dropped.jsonl");
        let mut sink = JsonlSink::create(&dropped).unwrap();
        for r in &records {
            sink.accept(r).unwrap();
        }
        drop(sink); // no finish()

        let a = std::fs::read(&finished).unwrap();
        let b = std::fs::read(&dropped).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "drop-flushed bytes differ from finished bytes");
        assert_eq!(crate::jsonl::validate_jsonl(&String::from_utf8(b).unwrap()).unwrap(), 2);
        std::fs::remove_file(&finished).unwrap();
        std::fs::remove_file(&dropped).unwrap();
    }

    #[test]
    fn rows_reach_disk_before_finish() {
        // Write-ahead discipline: after accept() returns, the row is
        // readable by another handle even though the sink is still open.
        let dir = std::env::temp_dir().join("bist_batch_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.accept(&ok_record(0, "s27", "packed", 0.1)).unwrap();
        let mid = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::jsonl::validate_jsonl(&mid).unwrap(), 1, "row not flushed per accept");
        sink.accept(&failed_record(1)).unwrap();
        drop(sink);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_rows_round_trip_through_parse_record() {
        for record in [ok_record(3, "s27", "sharded:0", 0.25), failed_record(7)] {
            let line = record_to_json(&record);
            let parsed = parse_record(&line).unwrap();
            assert_eq!(format!("{:?}", parsed.record), format!("{record:?}"));
            assert_eq!(parsed.fingerprint, None);
        }
    }

    #[test]
    fn fingerprint_stamp_survives_validation_and_round_trips() {
        let dir = std::env::temp_dir().join("bist_batch_fp_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fp.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap().with_fingerprint("deadbeef00000001");
        sink.accept(&ok_record(0, "s27", "packed", 0.1)).unwrap();
        sink.finish().unwrap();
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::jsonl::validate_jsonl(&text).unwrap(), 1, "fp key must stay valid");
        let parsed = parse_record(text.lines().next().unwrap()).unwrap();
        assert_eq!(parsed.fingerprint.as_deref(), Some("deadbeef00000001"));
        // ResumeLog accepts the matching fingerprint, refuses another.
        let log = ResumeLog::load(&path, "deadbeef00000001").unwrap();
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.rows(), 1);
        assert!(!log.truncated());
        let err = ResumeLog::load(&path, "0000000000000000").unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_repairs_a_torn_tail_and_resume_drops_it() {
        let dir = std::env::temp_dir().join("bist_batch_torn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap().with_fingerprint("feedface01020304");
        sink.accept(&ok_record(0, "s27", "packed", 0.1)).unwrap();
        sink.accept(&failed_record(1)).unwrap();
        sink.finish().unwrap();
        drop(sink);
        // Simulate a kill mid-write: chop the journal mid-row.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 17]).unwrap();

        let log = ResumeLog::load(&path, "feedface01020304").unwrap();
        assert!(log.truncated(), "torn tail must be reported");
        assert_eq!(log.rows(), 1);
        assert_eq!(log.records().len(), 1, "only the complete ok row replays");
        assert_eq!(log.records()[0].job, 0);

        let mut sink = JsonlSink::append(&path).unwrap().with_fingerprint("feedface01020304");
        assert_eq!(sink.rows(), 1, "append inherits the surviving row");
        sink.accept(&failed_record(1)).unwrap();
        sink.finish().unwrap();
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::jsonl::validate_jsonl(&text).unwrap(), 2, "repaired + appended");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_refuses_a_mistyped_row_resume_could_not_replay() {
        let dir = std::env::temp_dir().join("bist_batch_mistyped_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mistyped.jsonl");
        let good = record_to_json(&ok_record(0, "s27", "packed", 0.1));
        let bad = good.replacen("\"faults_total\": ", "\"faults_total\": \"x\", \"was\": ", 1);
        assert_ne!(bad, good);
        std::fs::write(&path, format!("{bad}\n{good}\n")).unwrap();
        let Err(err) = JsonlSink::append(&path) else { panic!("a mistyped row was accepted") };
        let err = err.to_string();
        assert!(err.contains("line 1") && err.contains("faults_total"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_only_journal_resumes_as_a_fresh_run() {
        // A client killed mid-first-write strands a journal holding only
        // a torn trailing fragment — zero valid rows. Resuming from it
        // must behave exactly like a fresh campaign run, not a hard
        // error.
        let dir = std::env::temp_dir().join("bist_batch_torn_only_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn_only.jsonl");
        std::fs::write(&path, "{\"job\": 0, \"circ").unwrap();

        let log = ResumeLog::load(&path, "feedface01020304").unwrap();
        assert!(log.truncated(), "the fragment is reported, not fatal");
        assert_eq!(log.rows(), 0);
        assert!(log.records().is_empty(), "nothing replays — every job reruns");

        // Appending repairs the fragment away and starts from row zero.
        let mut sink = JsonlSink::append(&path).unwrap().with_fingerprint("feedface01020304");
        assert_eq!(sink.rows(), 0);
        sink.accept(&ok_record(0, "s27", "packed", 0.1)).unwrap();
        sink.finish().unwrap();
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::jsonl::validate_jsonl(&text).unwrap(), 1);
        assert_eq!(text.lines().count(), 1, "the fragment is gone, not prepended");

        // An empty journal — created at submission, never written — is
        // the same story without even a truncation flag.
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        let log = ResumeLog::load(&empty, "feedface01020304").unwrap();
        assert_eq!(log.rows(), 0);
        assert!(!log.truncated());
        assert!(log.records().is_empty());
        let sink = JsonlSink::append(&empty).unwrap();
        assert_eq!(sink.rows(), 0);
        drop(sink);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&empty).unwrap();
    }

    #[test]
    fn append_keeps_a_valid_unterminated_final_row() {
        let dir = std::env::temp_dir().join("bist_batch_noeol_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("noeol.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.accept(&ok_record(0, "s27", "packed", 0.1)).unwrap();
        sink.finish().unwrap();
        drop(sink);
        // Crash stranded a complete row missing only its newline.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 1]).unwrap();
        let mut sink = JsonlSink::append(&path).unwrap();
        assert_eq!(sink.rows(), 1, "complete row is kept, not rerun");
        sink.accept(&failed_record(1)).unwrap();
        sink.finish().unwrap();
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::jsonl::validate_jsonl(&text).unwrap(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_rejects_mid_file_corruption() {
        let dir = std::env::temp_dir().join("bist_batch_midcorrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.jsonl");
        let good = record_to_json(&ok_record(0, "s27", "packed", 0.1));
        std::fs::write(&path, format!("{{\"not\": \"a row\"}}\n{good}\n")).unwrap();
        let err = JsonlSink::append(&path).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = ResumeLog::load(&path, "x").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn deep_nesting_mid_journal_is_an_error_not_a_stack_overflow() {
        let dir = std::env::temp_dir().join("bist_batch_deep_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deep.jsonl");
        let good = record_row(&ok_record(0, "s27", "packed", 0.1), Some("x"));
        std::fs::write(&path, format!("{good}\n{{\"x\": {}\n{good}\n", "[".repeat(500_000)))
            .unwrap();
        let err = ResumeLog::load(&path, "x").unwrap_err();
        assert!(err.to_string().contains("line 2") && err.to_string().contains("nesting"), "{err}");
        let err = JsonlSink::append(&path).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn digest_tracks_results_and_ignores_timing() {
        let records = vec![
            ok_record(0, "s27", "packed", 0.5),
            ok_record(1, "s27", "scalar", 1.5),
            failed_record(2),
        ];
        let a = CampaignSummary::build(&records, 3, 3.0);
        // Same results with totally different timings digest identically.
        let slow: Vec<JobRecord> = records
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.seconds *= 100.0;
                r.exec_seconds *= 100.0;
                r
            })
            .collect();
        let b = CampaignSummary::build(&slow, 3, 500.0);
        assert_eq!(a.digest(), b.digest(), "timing must not affect the digest");
        // A changed result does.
        let mut fewer = records.clone();
        fewer.pop();
        let c = CampaignSummary::build(&fewer, 3, 3.0);
        assert_ne!(a.digest(), c.digest());
    }
}
