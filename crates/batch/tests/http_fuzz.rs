//! Seeded HTTP request fuzz cases for the `subseq-bist serve` request
//! reader, over a real socket.
//!
//! Every case is a pure function of its seed, in the style of
//! `json_fuzz.rs`: a failure names the seed that reproduces it. A case is
//! one of three well-formed base requests with one kind of damage:
//!
//! * mutated request lines (bytes replaced, inserted or deleted, line
//!   breaks and non-UTF-8 bytes included);
//! * header lines: random, colon-less, folded, oversized and non-UTF-8
//!   ones, any `Transfer-Encoding` and repeated `Content-Length` headers;
//! * `Content-Length` values that are non-numeric, overflowing or signed;
//! * truncated and non-UTF-8 bodies, and bytes past the declared body.
//!
//! The client sends the bytes, half-closes and reads to the end. Each
//! case must be answered well before the server's request deadline with
//! a `4xx` or, when the damage left the request meaningful, the base
//! request's correct answer; framing the server cannot honour must be a
//! `400`. After every case `/healthz` must still answer, and the server
//! must still shut down cleanly at the end.
//!
//! A fast subset runs in `cargo test`; the full sweep is ignored there
//! and runs in release CI with `--include-ignored`.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bist_batch::{CampaignServer, ServeConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The undamaged requests and their answers: `(method, path, body,
/// status, 200 body)`. No damage can turn one into a request with side
/// effects: the spec's unknown key rejects it, and no campaign ever
/// exists.
const BASES: [(&str, &str, &str, u16, &str); 3] = [
    ("GET", "/healthz", "", 200, "ok\n"),
    ("POST", "/campaigns", r#"{"circuits": ["s27"], "fuzz": true}"#, 400, ""),
    ("GET", "/campaigns/7/summary", "", 404, ""),
];

/// Bytes a request reader is most likely to mishandle.
const HOSTILE: [u8; 12] = [b' ', b'\t', b'\r', b'\n', b':', 0, b'/', b'%', 0x7f, 0x80, 0xc3, 0xff];

/// Invalid `Content-Length` values: non-numeric, signed or overflowing.
const BAD_LENGTHS: [&str; 14] = [
    "abc",
    "",
    "1e3",
    "0x10",
    "1.0",
    "5 5",
    "5, 5",
    "-1",
    "+2",
    "-0",
    "\u{663}",
    "18446744073709551616",
    "99999999999999999999999999",
    "1048577",
];

/// What a case must get back.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// Exactly `400`: the request is malformed whatever else it holds.
    BadRequest,
    /// A `4xx`, or base `i`'s correct answer.
    Base(usize),
}

/// One damaged request.
struct Case {
    bytes: Vec<u8>,
    expect: Expect,
}

fn request(method: &str, path: &str, headers: &[Vec<u8>], body: &[u8]) -> Vec<u8> {
    let mut bytes = format!("{method} {path} HTTP/1.1\r\nHost: fuzz\r\n").into_bytes();
    for header in headers {
        bytes.extend_from_slice(header);
        bytes.extend_from_slice(b"\r\n");
    }
    bytes.extend_from_slice(b"\r\n");
    bytes.extend_from_slice(body);
    bytes
}

fn hostile_byte(rng: &mut StdRng) -> u8 {
    if rng.gen_bool(0.5) {
        *HOSTILE.choose(rng).expect("non-empty")
    } else {
        rng.gen_range(0x20..0x7fu8)
    }
}

fn content_length(len: usize) -> Vec<u8> {
    format!("Content-Length: {len}").into_bytes()
}

/// The damaged request of `seed`.
fn case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = rng.gen_range(0..BASES.len());
    let (method, path, body, ..) = BASES[base];
    let length = content_length(body.len());
    match seed % 4 {
        // Request line: one to three bytes replaced, inserted or deleted.
        0 => {
            let mut line = format!("{method} {path} HTTP/1.1").into_bytes();
            for _ in 0..rng.gen_range(1..=3u32) {
                let at = rng.gen_range(0..line.len());
                match rng.gen_range(0..3u32) {
                    0 => line[at] = hostile_byte(&mut rng),
                    1 => line.insert(at, hostile_byte(&mut rng)),
                    _ => {
                        line.remove(at);
                    }
                }
            }
            let mut bytes = line;
            bytes.extend_from_slice(b"\r\n");
            bytes.extend_from_slice(&length);
            bytes.extend_from_slice(b"\r\n\r\n");
            bytes.extend_from_slice(body.as_bytes());
            Case { bytes, expect: Expect::Base(base) }
        }
        // Header lines.
        1 => {
            let mut headers = vec![length];
            let mut expect = Expect::Base(base);
            for _ in 0..rng.gen_range(1..=3u32) {
                let header = match rng.gen_range(0..7u32) {
                    0 => {
                        // Without line feeds, so that no header after this
                        // one moves into the body.
                        let value: Vec<u8> = (0..rng.gen_range(0..16u32))
                            .map(|_| hostile_byte(&mut rng))
                            .filter(|&b| b != b'\n')
                            .collect();
                        [b"X-Fuzz: ".as_slice(), &value].concat()
                    }
                    1 => b"X-Fuzz no colon".to_vec(),
                    2 => b" folded: onto the previous line".to_vec(),
                    3 => [b"X-Fuzz: ".as_slice(), &vec![b'a'; rng.gen_range(1..24usize) << 10]]
                        .concat(),
                    4 => b"X-Fuzz: \xff\xfe".to_vec(),
                    5 => {
                        expect = Expect::BadRequest;
                        let coding = ["chunked", "identity", "gzip, chunked", ""].choose(&mut rng);
                        format!("Transfer-Encoding: {}", coding.expect("non-empty")).into_bytes()
                    }
                    _ => {
                        // A repeated length: harmless when it agrees.
                        let len = body.len() + usize::from(rng.gen_bool(0.5));
                        if len != body.len() {
                            expect = Expect::BadRequest;
                        }
                        content_length(len)
                    }
                };
                headers.insert(rng.gen_range(0..=headers.len()), header);
            }
            Case { bytes: request(method, path, &headers, body.as_bytes()), expect }
        }
        // Content-Length values.
        2 => {
            let value = BAD_LENGTHS.choose(&mut rng).expect("non-empty");
            let header = format!("Content-Length: {value}").into_bytes();
            Case {
                bytes: request(method, path, &[header], body.as_bytes()),
                expect: Expect::BadRequest,
            }
        }
        // Bodies: cut short of the declared length, not UTF-8, or
        // followed by more bytes than the server's read buffer holds.
        _ => {
            let mut body = format!("{body} trailing text").into_bytes();
            let header = content_length(body.len());
            let mut expect = Expect::BadRequest;
            match rng.gen_range(0..3u32) {
                0 => body.truncate(rng.gen_range(0..body.len())),
                1 => {
                    let at = rng.gen_range(0..body.len());
                    body[at] = *[0x80, 0xc0, 0xfe, 0xff].choose(&mut rng).expect("non-empty");
                }
                _ => {
                    body.resize(body.len() + (rng.gen_range(16..64usize) << 10), b'x');
                    expect = Expect::Base(base);
                }
            }
            Case { bytes: request(method, path, &[header], &body), expect }
        }
    }
}

/// Sends `bytes`, half-closes and reads the answer to the end: its
/// status and body.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    // A bound on this client's own wait, well past the server's.
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    // The server may answer before it has read everything; only the
    // answer matters.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("no answer: {e}"))?;
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or("no response head")?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or("bad status line")?;
    Ok((status, raw[split + 4..].to_vec()))
}

fn run_cases(seeds: std::ops::Range<u64>) {
    let dir = std::env::temp_dir().join(format!("subseq-http-fuzz-{}", std::process::id()));
    let server =
        CampaignServer::bind(ServeConfig { journal_dir: dir.clone(), ..ServeConfig::default() })
            .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    for seed in seeds {
        let case = case(seed);
        let shown = String::from_utf8_lossy(&case.bytes[..case.bytes.len().min(160)]);
        let started = Instant::now();
        let (status, body) =
            exchange(addr, &case.bytes).unwrap_or_else(|e| panic!("seed {seed}: {e}: {shown:?}"));
        // Every case is complete once the client half-closes: none may
        // wait for the request deadline.
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(4), "seed {seed}: answered after {elapsed:?}");
        match case.expect {
            Expect::BadRequest => assert_eq!(status, 400, "seed {seed}: {shown:?}"),
            Expect::Base(i) => {
                let (_, _, _, want, want_body) = BASES[i];
                let correct = status == want && (want != 200 || body == want_body.as_bytes());
                assert!(
                    correct || (400..500).contains(&status),
                    "seed {seed}: {status} for {shown:?}"
                );
            }
        }
        assert_eq!(
            exchange(addr, b"GET /healthz HTTP/1.1\r\n\r\n"),
            Ok((200, b"ok\n".to_vec())),
            "seed {seed}: the server stopped serving"
        );
    }
    assert_eq!(exchange(addr, b"POST /shutdown HTTP/1.1\r\n\r\n").map(|(s, _)| s), Ok(200));
    handle.join().expect("server thread exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_requests_get_a_4xx_or_the_correct_answer_fast_subset() {
    run_cases(0..64);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full sweep; run in release with --include-ignored")]
fn damaged_requests_get_a_4xx_or_the_correct_answer_full_sweep() {
    run_cases(0..4000);
}
