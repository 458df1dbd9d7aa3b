//! Command-line surface of the `subseq-bist` binary.

use std::process::Command;

/// The retired compile-pass flag is not a `run` flag: it fails at
/// argument parsing with the typed unknown-flag error, before any job is
/// scheduled.
#[test]
fn optimize_is_an_unknown_run_flag() {
    let flag = format!("--{}", "optimize");
    let output = Command::new(env!("CARGO_BIN_EXE_subseq-bist"))
        .args(["run", "--smoke", &flag])
        .output()
        .expect("the binary starts");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{stderr}");
    // Rejected while parsing: smoke mode never announced itself.
    assert!(String::from_utf8_lossy(&output.stdout).is_empty());
}
