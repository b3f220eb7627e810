//! Estimators and `/proc` readers.

use std::time::Duration;

/// The `q`-quantile by linear interpolation between closest ranks
/// (`q` in `[0, 1]`). Panics on an empty sample: every caller measures at
/// least one operation.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One `kB` field (`VmHWM`, `VmRSS`) of `/proc/<pid>/status`, in KiB.
pub fn proc_status_kib(pid: &str, field: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// This process's I/O accounting (`/proc/self/io`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    pub syscr: u64,
    pub write_bytes: u64,
}

pub fn self_io() -> Io {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    Io { syscr: field("syscr"), write_bytes: field("write_bytes") }
}

/// System CPU time this process has used (`stime` of `/proc/self/stat`,
/// which the kernel reports in 1/100 s ticks).
pub fn self_system_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name; stime is field 15
    let ticks = stat
        .rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(12)?.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// Bytes of regular files under `dir`, recursively.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&entry.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(proc_status_kib("self", "VmHWM") > 0);
        assert!(proc_status_kib("self", "VmRSS") > 0);
    }
}
