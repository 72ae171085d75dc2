//! Host resources of this process, read from `/proc/self`.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User CPU time of the whole process so far (all threads), in seconds.
pub fn user_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    parse_utime_ticks(&stat).map(|ticks| ticks as f64 / USER_HZ)
}

fn parse_utime_ticks(stat: &str) -> Option<u64> {
    // `pid (comm) state ...`: comm may hold spaces and parentheses, so
    // fields are counted from the last `)`. utime is field 14 overall,
    // the 12th after the comm.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(11)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_fields() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        let stat = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 1234 56 0 0";
        assert_eq!(parse_utime_ticks(stat), Some(1234));
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
        assert!(user_cpu_s().is_some());
    }
}
