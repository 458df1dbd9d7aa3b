//! Seeded JSON fuzz cases for the workspace's one JSON grammar
//! (`bist_obs::json`) and the untrusted readers built on it: the
//! campaign journal (`ResumeLog::load`) and the serve spec parser
//! (`campaign_from_spec`).
//!
//! Every case is a pure function of its seed, in the style of
//! `bist_netlist::fuzz`: a failure names the seed that reproduces it.
//!
//! * hostile strings — control characters, quotes, backslashes, astral
//!   characters — must survive escape → parse unchanged;
//! * `\u` escapes of random UTF-16 code units, lone surrogates included,
//!   must decode exactly like [`char::decode_utf16`] or be rejected;
//! * every byte prefix of a valid fingerprint-stamped journal row, as
//!   the last line of a journal, must load as a torn tail (or fail as
//!   non-UTF-8), never panic;
//! * mutated spec bodies must never panic the spec parser.
//!
//! A fast subset runs in `cargo test`; the full sweep is ignored there
//! and runs in release CI with `--include-ignored`.

use bist_batch::{
    campaign_from_spec, JobMetrics, JobRecord, JobStatus, JsonlSink, ReportSink, ResumeLog,
};
use bist_obs::json::{quote, Json};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Characters a string escaper is most likely to get wrong.
const HOSTILE: [char; 16] = [
    '"', '\\', '/', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\n', '\r', '\t', '\u{1f}', '\u{7f}', 'é',
    '\u{2028}', '\u{ffff}', '😀',
];

/// A seeded hostile string: hostile characters, printable ASCII and
/// random Unicode scalar values (astral ones included).
fn hostile_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..24usize);
    (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 | 1 => *HOSTILE.choose(rng).expect("non-empty"),
            2 => char::from(rng.gen_range(0x20..0x7fu8)),
            _ => loop {
                if let Some(c) = char::from_u32(rng.gen_range(0..0x11_0000u32)) {
                    break c;
                }
            },
        })
        .collect()
}

fn escape_round_trips(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = hostile_string(&mut rng);
        let quoted = quote(&s);
        assert_eq!(Json::parse(&quoted), Ok(Json::Str(s.clone())), "seed {seed}: {quoted:?}");
        let doc = format!("{{{quoted}: [{quoted}]}}");
        let parsed = Json::parse(&doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(parsed.get(&s), Some(&Json::Arr(vec![Json::Str(s.clone())])), "seed {seed}");
    }
}

/// A seeded run of UTF-16 code units: ASCII, BMP, proper surrogate
/// pairs, and lone high or low surrogates.
fn code_units(rng: &mut StdRng) -> Vec<u16> {
    let mut units = Vec::new();
    for _ in 0..rng.gen_range(1..6usize) {
        match rng.gen_range(0..5u32) {
            0 => units.push(u16::from(rng.gen_range(0..0x80u8))),
            1 => units.push(rng.gen_range(0xE000..=0xFFFFu32) as u16),
            2 => {
                units.push(rng.gen_range(0xD800..0xDC00u32) as u16);
                units.push(rng.gen_range(0xDC00..0xE000u32) as u16);
            }
            3 => units.push(rng.gen_range(0xD800..0xDC00u32) as u16),
            _ => units.push(rng.gen_range(0xDC00..0xE000u32) as u16),
        }
    }
    units
}

fn unicode_escapes_decode_like_utf16(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0075_7466_3136);
        let units = code_units(&mut rng);
        let mut text = String::from("\"");
        for &unit in &units {
            if rng.gen_bool(0.5) {
                let _ = write!(text, "\\u{unit:04x}");
            } else {
                let _ = write!(text, "\\u{unit:04X}");
            }
        }
        text.push('"');
        let expected: Result<String, _> = char::decode_utf16(units.iter().copied()).collect();
        match (Json::parse(&text), expected) {
            (Ok(Json::Str(got)), Ok(want)) => assert_eq!(got, want, "seed {seed}: {text}"),
            (Err(_), Err(_)) => {}
            (got, want) => panic!("seed {seed}: {text} parsed to {got:?}, UTF-16 says {want:?}"),
        }
    }
}

fn record(job: usize, status: JobStatus, label: &str) -> JobRecord {
    JobRecord {
        job,
        circuit: label.to_string(),
        backend: "sharded:0".to_string(),
        scheme: "default".to_string(),
        seed: u64::MAX,
        status,
        seconds: 0.25,
        queue_seconds: 0.05,
        exec_seconds: 0.2,
        metrics: (status == JobStatus::Ok).then(|| JobMetrics {
            engine: "sharded".to_string(),
            faults_total: 32,
            faults_detected: 31,
            t0_len: 12,
            n: 2,
            set_count: 2,
            total_len: 5,
            max_len: 3,
            applied_test_len: 80,
            loaded_fraction: 1.0 / 3.0,
            scheme_data_bits: 12,
            monolithic_data_bits: 40,
            gates_removed: 0,
            verified: None,
        }),
        error: (status == JobStatus::Failed).then(|| format!("{label}\tfailed\n\u{1}")),
    }
}

/// Writes `records` through a fingerprint-stamped sink and returns the
/// journal's rows.
fn stamped_rows(dir: &std::path::Path, records: &[JobRecord]) -> Vec<String> {
    let path = dir.join("rows.jsonl");
    let mut sink = JsonlSink::create(&path).unwrap().with_fingerprint("fp0123456789abcd");
    for r in records {
        sink.accept(r).unwrap();
    }
    sink.finish().unwrap();
    drop(sink);
    std::fs::read_to_string(&path).unwrap().lines().map(str::to_string).collect()
}

/// One complete row followed by every byte prefix of `torn` as the last
/// line: an empty prefix loads clean, a non-UTF-8 one fails to read,
/// every other one is a torn tail dropped from the replay.
fn journal_prefixes_load_as_torn_tails(torn_rows: &[JobRecord], tag: &str) {
    let dir = std::env::temp_dir().join(format!("bist_json_fuzz_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut records = vec![record(0, JobStatus::Ok, "s27")];
    records.extend(torn_rows.iter().cloned());
    let rows = stamped_rows(&dir, &records);
    let path = dir.join("torn.jsonl");
    for torn in &rows[1..] {
        for cut in 0..torn.len() {
            let mut bytes = format!("{}\n", rows[0]).into_bytes();
            bytes.extend_from_slice(&torn.as_bytes()[..cut]);
            std::fs::write(&path, &bytes).unwrap();
            let loaded = ResumeLog::load(&path, "fp0123456789abcd");
            if !torn.is_char_boundary(cut) {
                assert!(loaded.is_err(), "cut {cut} of {torn}: non-UTF-8 journal loaded");
                continue;
            }
            let log = loaded.unwrap_or_else(|e| panic!("cut {cut} of {torn}: {e}"));
            assert_eq!(log.truncated(), cut > 0, "cut {cut} of {torn}");
            assert_eq!((log.rows(), log.records().len()), (1, 1), "cut {cut} of {torn}");
            let text = std::str::from_utf8(&bytes).unwrap();
            let lenient = bist_batch::jsonl::validate_jsonl_lenient(text);
            assert_eq!(lenient, Ok((1, cut > 0)), "cut {cut} of {torn}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Valid spec bodies the mutations start from.
const SPECS: [&str; 3] = [
    r#"{"smoke": true}"#,
    r#"{"circuits": ["s27", "a298"], "seeds": [1999], "ns": [1], "t0_cap": 12, "t0_budget": 0, "verify": false}"#,
    r#"{"upto": 300, "backends": ["packed", "sharded:0"], "seeds": [1, 18446744073709551615], "ns": [1, 2], "postprocess": false, "verify": true, "smoke": false}"#,
];

/// Fragments that stress the grammar when spliced into a spec.
const FRAGMENTS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    "\"",
    ",",
    ":",
    "\\",
    "\\u",
    "\\ud800",
    "\\udc00\\u0041",
    "0",
    "-",
    "01",
    "1e999",
    "18446744073709551616",
    "true",
    "null",
    " ",
    "\u{c}",
    "é",
    "😀",
    "\u{0}",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
];

/// A seeded mutation of one of the [`SPECS`]: a few deletions,
/// insertions, duplications, substitutions and truncations, capped in
/// length so a mutated matrix stays small.
fn mutated_spec(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bec_f022);
    let mut body: Vec<char> = SPECS.choose(&mut rng).expect("non-empty").chars().collect();
    for _ in 0..rng.gen_range(1..5usize) {
        let at = rng.gen_range(0..=body.len());
        match rng.gen_range(0..5u32) {
            0 if at < body.len() => {
                let end = (at + rng.gen_range(1..8usize)).min(body.len());
                body.drain(at..end);
            }
            1 => {
                let fragment = FRAGMENTS.choose(&mut rng).expect("non-empty");
                body.splice(at..at, fragment.chars());
            }
            2 if at < body.len() => {
                let end = (at + rng.gen_range(1..16usize)).min(body.len());
                let copy: Vec<char> = body[at..end].to_vec();
                body.splice(at..at, copy);
            }
            3 if at < body.len() => {
                body[at] = *HOSTILE.choose(&mut rng).expect("non-empty");
            }
            _ => body.truncate(at),
        }
    }
    body.truncate(300);
    body.into_iter().collect()
}

fn mutated_specs_never_panic(seeds: std::ops::Range<u64>) {
    let (mut accepted, mut rejected) = (0, 0);
    for seed in seeds {
        let body = mutated_spec(seed);
        // A spec the reader accepts is, first of all, JSON.
        if campaign_from_spec(&body).is_ok() {
            assert!(Json::parse(&body).is_ok(), "seed {seed}: accepted non-JSON {body:?}");
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    // The mutations reach both sides of the reader.
    assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
}

#[test]
fn json_fuzz_fast_subset() {
    escape_round_trips(0..500);
    unicode_escapes_decode_like_utf16(0..500);
    journal_prefixes_load_as_torn_tails(&[record(1, JobStatus::Ok, "café 😀")], "fast");
    mutated_specs_never_panic(0..300);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the full sweep runs optimized: cargo test --release")]
fn json_fuzz_full_sweep() {
    escape_round_trips(0..50_000);
    unicode_escapes_decode_like_utf16(0..50_000);
    journal_prefixes_load_as_torn_tails(
        &[
            record(1, JobStatus::Ok, "café 😀"),
            record(2, JobStatus::Failed, "\"q\"\\/\u{7f}"),
            record(3, JobStatus::Ok, "s27"),
        ],
        "full",
    );
    mutated_specs_never_panic(0..20_000);
}
