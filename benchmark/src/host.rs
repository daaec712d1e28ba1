//! Facts about the host a result was measured on.

/// Hardware threads available to this process. `SWBENCH_NPROC` can lower
/// (never raise) the answer, to see what a smaller host would report.
pub fn nproc() -> usize {
    let real = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::var("SWBENCH_NPROC")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(real, |cap| cap.clamp(1, real))
}

/// Worker threads the benchmark may use: never more than two, never more
/// than the host has.
pub fn bench_threads() -> usize {
    nproc().min(2)
}

/// CPU model string from `/proc/cpuinfo` (`unknown` elsewhere).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process in MB (`VmHWM`), if the OS tells.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
