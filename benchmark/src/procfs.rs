//! Process and host facts read from `/proc`: CPU time, peak resident set,
//! and the hypervisor steal the shared host imposes on a run.

use std::fs;

/// Microseconds per clock tick of the `/proc` CPU counters.  `USER_HZ` is
/// 100 on every Linux ABI, whatever the kernel's internal `HZ`.
const TICK_US: u64 = 10_000;

/// utime + stime, in microseconds, from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is parenthesised and may itself contain spaces
/// and parentheses, so fields are counted from the *last* `)`.
pub fn parse_cpu_us(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * TICK_US)
}

/// CPU time this process (all threads) has used so far, in microseconds.
pub fn process_cpu_us() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_us(&s))
        .unwrap_or(0)
}

/// `VmHWM` in MiB from the text of `/proc/<pid>/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mb(&s))
        .unwrap_or(0.0)
}

/// (steal, total) clock ticks of the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already counted in user and nice.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// (steal, total) host clock ticks so far; zeros when `/proc/stat` is
/// unreadable.
pub fn host_ticks() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_ticks(&s))
        .unwrap_or((0, 0))
}

/// Share of the host's CPU time stolen by the hypervisor between two
/// [`host_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_survives_a_hostile_comm() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 150 0 0 0 \
                    37 5 0 0 20 0 9 0 123456 1000000 256 18446744073709551615";
        assert_eq!(parse_cpu_us(stat), Some(420_000));
        assert_eq!(parse_cpu_us("no parenthesis"), None);
        assert_eq!(parse_cpu_us("1 (x) R 1 2"), None);
    }

    #[test]
    fn cpu_time_of_this_process_advances() {
        let before = process_cpu_us();
        let mut x = 0u64;
        while process_cpu_us() < before + 2 * TICK_US {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_us() > before);
    }

    #[test]
    fn peak_rss_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(20.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn steal_is_a_share_of_all_ticks() {
        let before = parse_host_ticks("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(before, (35, 1000));
        let after = parse_host_ticks("cpu  150 0 70 1200 10 0 5 65 7 0\n").unwrap();
        assert!((steal_share(before, after) - 0.06).abs() < 1e-12);
        assert_eq!(steal_share(after, after), 0.0);
    }
}
