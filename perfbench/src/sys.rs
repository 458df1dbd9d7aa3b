//! Host measurements (process CPU time, peak memory) and the metadata
//! stamped on every result.

use crate::json::escape;
use std::process::Command;

/// User + system CPU seconds this process has used so far (all threads),
/// from `/proc/self/stat`; 0 where that file does not exist.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / clock_ticks_per_second()
}

/// `getconf CLK_TCK`; the near-universal 100 when it cannot be asked.
fn clock_ticks_per_second() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        command_output("getconf", &["CLK_TCK"]).and_then(|s| s.parse().ok()).unwrap_or(100.0)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kib.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Trimmed stdout of a command that exited successfully.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `HEAD` of the git checkout in the working directory. Git may not look
/// above it: a copied tree must not report an enclosing repository's
/// revision.
fn git_revision() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent()?)
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how a result was produced.
pub struct RunMeta {
    pub git_revision: String,
    pub nproc: usize,
    pub rustc: String,
    pub profile: &'static str,
    pub smoke: bool,
}

impl RunMeta {
    /// Collects the metadata at run time. Outside a git checkout the
    /// revision reads `unknown`.
    pub fn collect(smoke: bool) -> Self {
        RunMeta {
            git_revision: git_revision().unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            rustc: command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            smoke,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_revision\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \"smoke\": {}}}",
            escape(&self.git_revision),
            self.nproc,
            escape(&self.rustc),
            self.profile,
            self.smoke
        )
    }
}
