//! Process CPU time and peak resident memory from Linux `/proc`.

use std::io;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User + system ticks from the text of `/proc/self/stat`. The
/// process-level fields cover every thread, including threads that
/// have already exited. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: field 3 (state) is index 0, so utime (field 14)
    // is index 11 and stime (field 15) index 12.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` (peak resident set) line of `/proc/self/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb)
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {what}"))
}

/// CPU time (user + system, all threads) the process has used so far.
pub fn process_cpu_s() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let ticks = parse_cpu_ticks(&stat).ok_or_else(|| invalid("/proc/self/stat"))?;
    Ok(ticks as f64 / USER_HZ)
}

/// Peak resident memory of the process so far, in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = parse_vm_hwm_kb(&status).ok_or_else(|| invalid("VmHWM"))?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (ros (x) y) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 56 0 0 20 0 3 0 777 123456 789 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(parse_cpu_ticks("no parens at all"), None);
        assert_eq!(parse_cpu_ticks("1 (short) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\trosbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51200));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_process_reports_positive_figures() {
        let cpu = process_cpu_s().expect("readable /proc/self/stat");
        assert!(cpu >= 0.0);
        assert!(peak_rss_mb().expect("readable /proc/self/status") > 0.0);
    }
}
