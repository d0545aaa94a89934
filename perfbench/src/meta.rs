//! The run tag printed with every result, and the process's peak memory.

use brel_engine::Json;

/// Machine and build facts a result depends on.
pub fn run_tag(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    let env: Vec<(String, Json)> = {
        let mut vars: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("BREL_BDD_"))
            .collect();
        vars.sort();
        vars.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()
    };
    Json::object(vec![
        ("git_rev", Json::Str(git_rev())),
        (
            "nproc",
            Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload", Json::str(workload)),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::UInt(seconds)),
        ("trace", Json::Bool(trace)),
        ("env", Json::Object(env)),
    ])
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout.
fn git_rev() -> String {
    command_line("git", &["rev-parse", "--short=12", "HEAD"])
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set (by writing
/// `5` to `/proc/self/clear_refs`), so the next [`peak_rss_mb`] covers
/// only what runs from here. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
