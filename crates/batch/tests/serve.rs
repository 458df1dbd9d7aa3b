//! End-to-end acceptance for `subseq-bist serve`: real sockets, real
//! concurrent clients, and the properties the service exists for —
//! streamed results bit-identical to offline runs, one shared artifact
//! cache across campaigns, bounded admission, and a graceful drain that
//! leaves every journal resumable.
//!
//! The HTTP client below is hand-rolled over [`TcpStream`] for the same
//! reason the server is hand-rolled over [`TcpListener`]: the container
//! has no HTTP dependency, and the tests should exercise the exact
//! bytes a curl user would see (status line, `Content-Length` bodies,
//! chunked transfer-encoding).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

use bist_batch::jsonl::validate_jsonl_line;
use bist_batch::{
    campaign_from_spec, CachePolicy, CampaignEngine, CampaignServer, ResumeLog, ServeConfig,
};
use bist_obs::json::Json;
use bist_obs::{export, Registry};

/// A small two-circuit spec; `SPEC_A` and `SPEC_B` share `s27` so a
/// warm cache is observable across campaigns.
const SPEC_A: &str = r#"{"circuits": ["s27", "a298"], "seeds": [1999], "ns": [1], "t0_cap": 12, "t0_budget": 0, "verify": false}"#;
const SPEC_B: &str = r#"{"circuits": ["s27", "a344"], "seeds": [1999], "ns": [1], "t0_cap": 12, "t0_budget": 0, "verify": false}"#;

fn temp_journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("subseq-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(config: ServeConfig) -> (SocketAddr, Arc<Registry>, JoinHandle<()>) {
    let server = CampaignServer::bind(config).expect("bind");
    let addr = server.local_addr();
    let registry = server.registry();
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, registry, handle)
}

struct Response {
    status: u16,
    body: String,
}

/// Sends one HTTP/1.1 request and reads the full response (the server
/// always closes the connection afterwards).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    send_request(&stream, method, path, headers, body);
    read_response(&mut BufReader::new(stream))
}

fn send_request(
    mut stream: &TcpStream,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) {
    let mut head =
        format!("{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n", body.len());
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    stream.flush().expect("flush");
}

/// Reads status line + headers, leaving the reader at the body.
/// Returns (status, content-length, chunked).
fn read_head(reader: &mut impl BufRead) -> (u16, usize, bool) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
        .parse()
        .expect("numeric status");
    let mut length = 0usize;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else { continue };
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => length = value.trim().parse().expect("content-length"),
            "transfer-encoding" if value.trim() == "chunked" => chunked = true,
            _ => {}
        }
    }
    (status, length, chunked)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let (status, length, chunked) = read_head(reader);
    let body = if chunked {
        read_chunks(reader)
    } else {
        let mut buf = vec![0u8; length];
        reader.read_exact(&mut buf).expect("body");
        String::from_utf8(buf).expect("utf-8 body")
    };
    Response { status, body }
}

/// Decodes a chunked body to completion (terminal zero-size chunk).
fn read_chunks(reader: &mut impl BufRead) -> String {
    let mut body = String::new();
    while read_one_chunk(reader, &mut body) {}
    body
}

/// Reads one chunk; returns false on the terminal chunk.
fn read_one_chunk(reader: &mut impl BufRead, body: &mut String) -> bool {
    let mut size_line = String::new();
    reader.read_line(&mut size_line).expect("chunk size");
    let size = usize::from_str_radix(size_line.trim(), 16)
        .unwrap_or_else(|_| panic!("bad chunk size {size_line:?}"));
    let mut data = vec![0u8; size + 2]; // chunk data + trailing CRLF
    reader.read_exact(&mut data).expect("chunk data");
    body.push_str(std::str::from_utf8(&data[..size]).expect("utf-8 chunk"));
    size != 0
}

/// The numeric field `key` of a JSON object body.
fn json_u64(body: &str, key: &str) -> u64 {
    let doc = Json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    doc.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("no `{key}` in {body}"))
}

/// The string field `key` of a JSON object body.
fn json_str(body: &str, key: &str) -> String {
    let doc = Json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no `{key}` in {body}"))
        .to_string()
}

/// The tentpole acceptance test: two clients drive the real socket
/// concurrently; each streamed campaign matches an offline
/// [`CampaignEngine::run`] of the identical spec bit-for-bit, the shared
/// circuit is parsed/compiled/generated once *process-wide*, and
/// `GET /metrics` survives the strict validator.
#[test]
fn concurrent_clients_match_offline_digests_and_share_one_cache() {
    let dir = temp_journal_dir("concurrent");
    let (addr, registry, server) = start(ServeConfig {
        journal_dir: dir.clone(),
        cache_policy: CachePolicy::unbounded(),
        ..ServeConfig::default()
    });

    let health = request(addr, "GET", "/healthz", &[], "");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    // /metrics is valid before any campaign has run (near-empty registry).
    let metrics = request(addr, "GET", "/metrics", &[], "");
    assert_eq!(metrics.status, 200);
    export::validate_metrics_json(&metrics.body).expect("cold metrics validate");

    let client = |tag: &'static str, spec: &'static str| {
        std::thread::spawn(move || {
            let submitted = request(addr, "POST", "/campaigns", &[("X-Client", tag)], spec);
            assert_eq!(submitted.status, 200, "submit: {}", submitted.body);
            let id = json_u64(&submitted.body, "id");
            let fingerprint = json_str(&submitted.body, "fingerprint");

            // The results stream ends exactly when the campaign does.
            let results = request(addr, "GET", &format!("/campaigns/{id}/results"), &[], "");
            assert_eq!(results.status, 200);
            let rows: Vec<&str> = results.body.lines().collect();
            assert_eq!(rows.len(), 2, "one row per job:\n{}", results.body);
            for row in &rows {
                validate_jsonl_line(row).expect("streamed row validates");
                assert!(
                    row.contains(&format!("\"fp\": \"{fingerprint}\"")),
                    "streamed row carries the campaign fingerprint: {row}"
                );
            }

            let summary = request(addr, "GET", &format!("/campaigns/{id}/summary"), &[], "");
            assert_eq!(summary.status, 200, "summary: {}", summary.body);
            (id, fingerprint, summary.body)
        })
    };
    let alice = client("alice", SPEC_A);
    let bob = client("bob", SPEC_B);
    let (id_a, fp_a, summary_a) = alice.join().expect("client a");
    let (id_b, fp_b, summary_b) = bob.join().expect("client b");

    // Each served summary is bit-identical to an offline run of the
    // very same JSON spec (same parser, fresh engine, private cache).
    for (spec, fingerprint, summary) in [(SPEC_A, &fp_a, &summary_a), (SPEC_B, &fp_b, &summary_b)] {
        let campaign = campaign_from_spec(spec).expect("spec parses offline too");
        assert_eq!(&campaign.fingerprint(), fingerprint);
        let offline = CampaignEngine::new().run(&campaign, &mut []).expect("offline run");
        assert_eq!(
            json_str(summary, "digest"),
            format!("{:016x}", offline.summary.digest()),
            "served digest == offline digest for {spec}"
        );
        assert_eq!(json_u64(summary, "jobs_total"), offline.summary.jobs_total as u64);
        assert_eq!(json_u64(summary, "jobs_ok"), offline.summary.jobs_ok as u64);
        assert_eq!(json_u64(summary, "jobs_failed"), 0);
    }

    // Cross-campaign sharing: four jobs over three distinct circuits —
    // the shared `s27` missed once for the whole process, not once per
    // campaign.
    let snap = registry.snapshot();
    for shelf in ["circuit", "tape", "fault", "t0"] {
        assert_eq!(
            snap.counter(&format!("cache.{shelf}.miss")),
            Some(3),
            "≤ 1 cache.{shelf}.miss per distinct (circuit, seed)"
        );
        assert_eq!(
            snap.counter(&format!("cache.{shelf}.hit")),
            Some(1),
            "the second campaign's s27 job hit the warm cache.{shelf}"
        );
    }
    assert_eq!(snap.counter("serve.campaigns.accepted"), Some(2));
    assert_eq!(snap.counter("serve.campaigns.completed"), Some(2));
    assert_eq!(snap.counter("serve.campaigns.rejected").unwrap_or(0), 0);
    assert_eq!(snap.gauge("serve.queue.pending"), Some(0), "queue drained");

    // The warm /metrics render also survives the strict validator.
    let metrics = request(addr, "GET", "/metrics", &[], "");
    assert_eq!(metrics.status, 200);
    let rows = export::validate_metrics_json(&metrics.body).expect("warm metrics validate");
    assert!(rows > 0, "registry is non-trivial after two campaigns");

    // Journals landed on disk, fingerprint-stamped and resumable.
    for (id, fp) in [(id_a, &fp_a), (id_b, &fp_b)] {
        let journal = dir.join(format!("campaign-{id}.jsonl"));
        let log = ResumeLog::load(&journal, fp).expect("journal loads");
        assert_eq!(log.rows(), 2);
        assert!(!log.truncated());
    }

    let shutdown = request(addr, "POST", "/shutdown", &[], "");
    assert_eq!(shutdown.status, 200);
    assert!(shutdown.body.contains("draining"));
    server.join().expect("server thread exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: a full pending queue answers `429` (and counts
/// the rejection), malformed specs answer `400` at submission, and
/// unknown routes answer `404` — none of them crash the daemon.
#[test]
fn admission_bounds_and_submission_errors_are_typed_http_statuses() {
    let dir = temp_journal_dir("admission");
    let (addr, registry, server) =
        start(ServeConfig { journal_dir: dir.clone(), max_pending: 0, ..ServeConfig::default() });

    let rejected = request(addr, "POST", "/campaigns", &[], SPEC_A);
    assert_eq!(rejected.status, 429, "{}", rejected.body);
    assert!(rejected.body.contains("queue is full"), "{}", rejected.body);

    let misspelled = request(addr, "POST", "/campaigns", &[], r#"{"circuitz": ["s27"]}"#);
    assert_eq!(misspelled.status, 400);
    assert!(misspelled.body.contains("unknown key"), "{}", misspelled.body);

    // Compile-pass selection is not part of the spec vocabulary.
    let optimize = request(addr, "POST", "/campaigns", &[], r#"{"optimize": "xfds"}"#);
    assert_eq!(optimize.status, 400);
    assert!(optimize.body.contains("unknown key `optimize`"), "{}", optimize.body);

    let empty_matrix = request(addr, "POST", "/campaigns", &[], r#"{"seeds": []}"#);
    assert_eq!(empty_matrix.status, 400, "bad matrices fail at submission");

    let missing = request(addr, "GET", "/campaigns/99/summary", &[], "");
    assert_eq!(missing.status, 404);
    let no_route = request(addr, "GET", "/nope", &[], "");
    assert_eq!(no_route.status, 404);

    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.campaigns.rejected"), Some(1));
    assert_eq!(snap.counter("serve.campaigns.accepted").unwrap_or(0), 0);

    let shutdown = request(addr, "POST", "/shutdown", &[], "");
    assert_eq!(shutdown.status, 200);
    server.join().expect("server thread exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful drain: shutdown while a campaign is mid-flight finishes that
/// campaign (every row streamed and journaled), cancels the queued one,
/// and leaves BOTH journals resumable — the cancelled campaign's empty
/// journal replays as a fresh run through `run_resumed`.
#[test]
fn graceful_drain_finishes_in_flight_work_and_leaves_resumable_journals() {
    let dir = temp_journal_dir("drain");
    let (addr, _registry, server) =
        start(ServeConfig { journal_dir: dir.clone(), threads: 1, ..ServeConfig::default() });

    // Big enough that it is still mid-flight while the test queues a
    // second campaign and posts the shutdown.
    let big = r#"{"circuits": ["s27", "a298", "a344"], "seeds": [1, 2, 3], "ns": [1, 2], "t0_cap": 32, "t0_budget": 16, "verify": false}"#;
    let first = request(addr, "POST", "/campaigns", &[("X-Client", "alice")], big);
    assert_eq!(first.status, 200, "{}", first.body);
    let first_id = json_u64(&first.body, "id");
    let first_fp = json_str(&first.body, "fingerprint");
    let jobs = campaign_from_spec(big).expect("spec").expand().expect("matrix").len();

    // Open the results stream and wait for the first row — proof the
    // campaign is in flight before anything else happens.
    let stream = TcpStream::connect(addr).expect("connect");
    send_request(&stream, "GET", &format!("/campaigns/{first_id}/results"), &[], "");
    let mut reader = BufReader::new(stream);
    let (status, _, chunked) = read_head(&mut reader);
    assert_eq!(status, 200);
    assert!(chunked, "results are streamed chunked");
    let mut streamed = String::new();
    assert!(read_one_chunk(&mut reader, &mut streamed), "first row arrives mid-run");

    // Queue a second campaign behind the running one, and park a
    // summary reader on it before the listener goes away.
    let second = request(addr, "POST", "/campaigns", &[("X-Client", "bob")], SPEC_B);
    assert_eq!(second.status, 200, "{}", second.body);
    let second_id = json_u64(&second.body, "id");
    let second_fp = json_str(&second.body, "fingerprint");
    let second_summary = std::thread::spawn(move || {
        request(addr, "GET", &format!("/campaigns/{second_id}/summary"), &[], "")
    });
    // Let the summary connection be accepted before shutdown closes the
    // listener (its handler then blocks on the campaign, not the socket).
    std::thread::sleep(std::time::Duration::from_millis(100));

    let shutdown = request(addr, "POST", "/shutdown", &[], "");
    assert_eq!(shutdown.status, 200);

    // Drain semantics: the in-flight campaign runs to completion — the
    // stream keeps delivering rows after the shutdown and terminates
    // normally with the full matrix.
    while read_one_chunk(&mut reader, &mut streamed) {}
    assert_eq!(streamed.lines().count(), jobs, "every job of the in-flight campaign streamed");

    // The queued campaign was cancelled (or, if the in-flight one raced
    // to completion first, ran normally) — either way it answered.
    let second_outcome = second_summary.join().expect("summary reader");

    server.join().expect("server thread exits cleanly");

    // Both journals are resumable: the finished one replays complete,
    // and the queued one is a valid journal in EITHER drain outcome —
    // an empty fresh-start journal when cancelled (the torn-tail
    // contract of `ResumeLog`), a complete one when it slipped in.
    let first_log =
        ResumeLog::load(dir.join(format!("campaign-{first_id}.jsonl")), &first_fp).expect("first");
    assert_eq!(first_log.rows(), jobs);
    assert!(!first_log.truncated());

    let second_log = ResumeLog::load(dir.join(format!("campaign-{second_id}.jsonl")), &second_fp)
        .expect("queued journal still loads");
    if second_outcome.status == 500 {
        assert!(second_outcome.body.contains("cancelled by shutdown"), "{}", second_outcome.body);
        assert_eq!(second_log.rows(), 0, "cancelled before any job ran");
    } else {
        assert_eq!(second_outcome.status, 200, "{}", second_outcome.body);
        assert_eq!(second_log.rows(), 2, "raced to completion: fully journaled");
    }
    let resumed = CampaignEngine::new()
        .run_resumed(&campaign_from_spec(SPEC_B).expect("spec"), &mut [], second_log.records())
        .expect("queued campaign resumes offline from its journal");
    assert_eq!(resumed.summary.jobs_ok, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The request head is capped: a client streaming 64 KiB without a
/// newline gets a `400` once the cap is reached, instead of growing the
/// server's memory, and the next request is served as usual.
#[test]
fn oversized_request_head_is_a_400_and_the_server_keeps_serving() {
    let dir = temp_journal_dir("head");
    let (addr, _registry, server) =
        start(ServeConfig { journal_dir: dir.clone(), ..ServeConfig::default() });

    let mut stream = TcpStream::connect(addr).expect("connect");
    // The server may stop reading (and close) before all bytes are
    // written; only its answer matters.
    let _ = stream.write_all(&vec![b'a'; 64 << 10]);
    let mut reader = BufReader::new(stream);
    let (status, length, _) = read_head(&mut reader);
    assert_eq!(status, 400);
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("error body");
    let body = String::from_utf8(body).expect("utf-8 body");
    assert!(json_str(&body, "error").contains("exceeds"), "{body}");
    drop(reader);

    let health = request(addr, "GET", "/healthz", &[], "");
    assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
    let shutdown = request(addr, "POST", "/shutdown", &[], "");
    assert_eq!(shutdown.status, 200);
    server.join().expect("server thread exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submission bodies are untrusted: nesting far past the grammar's cap
/// is a spec error under a known key and under an unknown one, never a
/// stack overflow.
#[test]
fn deeply_nested_specs_are_errors_not_a_stack_overflow() {
    for key in ["circuits", "seeds", "smoke", "no_such_key"] {
        for open in ["[", "{\"x\": "] {
            let spec = format!("{{\"{key}\": {}", open.repeat(500_000));
            let err = campaign_from_spec(&spec).map(|_| ()).unwrap_err().to_string();
            assert!(err.contains("nesting"), "{key}: {err}");
        }
    }
}
