//! Process-level measurements: peak resident memory of this process and
//! of the socket worker processes it launches.

use std::path::{Path, PathBuf};

/// Environment variable naming the directory where each socket worker
/// leaves its peak resident set size (kB) on exit, in a file named after
/// its pid. The benchmark sets it before launching any fleet; the
/// workers inherit it.
pub const WORKER_HWM_DIR_ENV: &str = "PERFBENCH_WORKER_HWM_DIR";

/// Peak resident set size of the calling process in kB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Resets this process's peak RSS to its current RSS, so the next
/// [`peak_rss_kb`] covers only what runs from here on.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Records the calling worker's peak RSS for the benchmark, if it asked.
pub fn write_worker_hwm() {
    if let Some(dir) = std::env::var_os(WORKER_HWM_DIR_ENV) {
        let path = Path::new(&dir).join(std::process::id().to_string());
        // Best effort: a missing file fails the benchmark's worker check.
        let _ = std::fs::write(path, peak_rss_kb().to_string());
    }
}

/// Drains the worker peak files left by one fleet: returns how many
/// workers reported and the sum of their peaks in kB.
pub fn drain_worker_hwm(dir: &Path) -> (usize, u64) {
    let mut reports = 0;
    let mut total_kb = 0;
    let entries: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(_) => return (0, 0),
    };
    for path in entries {
        if let Some(kb) =
            std::fs::read_to_string(&path).ok().and_then(|s| s.trim().parse::<u64>().ok())
        {
            reports += 1;
            total_kb += kb;
        }
        let _ = std::fs::remove_file(&path);
    }
    (reports, total_kb)
}

/// Number of processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
