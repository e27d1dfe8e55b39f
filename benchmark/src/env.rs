//! The machine and process facts a result depends on.

use std::process::Command;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far (`VmHWM`), in bytes.
/// 0 where `/proc` is not there to ask.
pub fn peak_rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0)
}

/// Environment variables that change what is measured. The benchmark
/// sets none of them and never re-executes itself to: a capped arena
/// count made `full.*` bimodal (see README), so the allocator runs with
/// whatever the caller's environment says, and that is printed.
pub fn relevant_env() -> String {
    let set: Vec<String> = std::env::vars()
        .filter(|(k, _)| {
            k.starts_with("MALLOC_")
                || k.starts_with("GLIBC_TUNABLES")
                || k.starts_with("QTASK_")
                || k == "RUSTFLAGS"
                || k == "CARGO_TARGET_DIR"
        })
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    if set.is_empty() {
        "none set".to_string()
    } else {
        set.join(" ")
    }
}

/// First line a tool prints, or `unknown` when it cannot be run (a
/// checkout that is not a git repository has no commit to name).
pub fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
