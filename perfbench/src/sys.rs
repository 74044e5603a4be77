//! Process-level host measurements: CPU time and peak resident memory.

/// Clock ticks per second of the `/proc` time fields (`USER_HZ`, which
/// Linux fixes at 100 in its user-space ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, counting
/// every thread including pool workers that have already exited.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_seconds(&stat)
}

/// utime + stime from a `/proc/<pid>/stat` line. The command name is in
/// parentheses and may contain spaces, so fields are counted from the last
/// `)`: the state is field 3, utime field 14 and stime field 15.
fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    cmap_obs::rss::peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0))
}

/// Current resident set size of this process (`VmRSS`) in MiB.
pub fn current_rss_mib() -> Option<f64> {
    cmap_obs::rss::current_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_utime_and_stime_after_a_spaced_command_name() {
        let line = "4242 (cmap perf) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 99 1000 200";
        let s = parse_cpu_seconds(line).expect("parses");
        assert!((s - 3.0).abs() < 1e-12, "{s}");
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn live_probes_read_this_process() {
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
