//! Readers for the `/proc/self` files the benchmark samples: process CPU
//! time, peak resident set and live thread count.

/// Kernel clock ticks per second. `/proc/self/stat` counts CPU time in
/// `USER_HZ` ticks, which Linux fixes at 100 on every architecture this
/// repository builds for (reading `sysconf(_SC_CLK_TCK)` would need libc).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU ticks of the whole process (all threads), from the
/// text of `/proc/<pid>/stat`. The command name (field 2) may contain spaces
/// and parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The numeric value of a `Key:   <n> [kB]` line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

fn status_field(key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_status_field(&status, key).ok_or_else(|| format!("/proc/self/status has no {key} line"))
}

/// CPU milliseconds (user + system, all threads) this process has used.
pub fn cpu_ms() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    let ticks = parse_cpu_ticks(&stat).ok_or("/proc/self/stat: unexpected format")?;
    Ok(ticks as f64 * 1_000.0 / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) of this process, in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(status_field("VmHWM")? as f64 / 1024.0)
}

/// Number of threads currently alive in this process.
pub fn threads() -> Result<u64, String> {
    status_field("Threads")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (garfield (bench) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                        731 58 0 0 20 0 9 0 123456 1000000 2500 18446744073709551615 1 1 0 0 0 0 \
                        0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tgarfield-benchm\nUmask:\t0022\nState:\tR (running)\n\
                          VmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n\
                          Threads:\t11\nSigQ:\t0/63432\n";

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        assert_eq!(parse_cpu_ticks(STAT), Some(731 + 58));
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(51_200));
        assert_eq!(parse_status_field(STATUS, "Threads"), Some(11));
        // "Vm" is a prefix of several keys but names none of them.
        assert_eq!(parse_status_field(STATUS, "Vm"), None);
        assert_eq!(parse_status_field(STATUS, "VmSwap"), None);
    }

    #[test]
    fn live_readers_work_on_this_kernel() {
        assert!(cpu_ms().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(threads().unwrap() >= 1);
    }
}
