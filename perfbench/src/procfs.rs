//! Process CPU time and memory from `/proc/self`.
//!
//! CPU comes from `/proc/self/stat` (user + system time of every
//! thread the process ever ran, exited ones included), in clock ticks
//! of 1/100 s — the fixed `USER_HZ` of Linux' user-space ABI. Memory
//! comes from the `VmRSS` and `VmHWM` lines of `/proc/self/status`.

use std::io;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`).
pub const TICKS_PER_S: f64 = 100.0;

/// `utime + stime`, in ticks, from the text of a `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces or parentheses, so fields are counted from the last `)`.
pub fn cpu_ticks_from_stat(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state (3) … utime is field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value, in kB, of a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn kb_from_status(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = value.split_whitespace();
        let kb = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(kb)
    })
}

/// User + system CPU seconds the process has used so far.
pub fn process_cpu_s() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let ticks = cpu_ticks_from_stat(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparsable /proc/self/stat"))?;
    Ok(ticks as f64 / TICKS_PER_S)
}

/// Resident and peak-resident set size, in kB: `(VmRSS, VmHWM)`.
pub fn rss_kb() -> io::Result<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let field = |key| {
        kb_from_status(&status, key).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("no {key} in /proc/self/status"),
            )
        })
    };
    Ok((field("VmRSS")?, field("VmHWM")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        // A command name with spaces and a ')' must not shift fields.
        let stat = "4242 (my (odd) bin) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    1234 56 0 0 20 0 7 0 1000 12345678 2000 18446744073709551615";
        assert_eq!(cpu_ticks_from_stat(stat), Some(1234 + 56));
        assert_eq!(cpu_ticks_from_stat("garbage"), None);
        assert_eq!(cpu_ticks_from_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_lines_parse_by_exact_key() {
        let status = "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  512000 kB\n\
                      VmRSS:\t  480000 kB\nRssAnon:\t 1 kB\nThreads:\t7\n";
        assert_eq!(kb_from_status(status, "VmRSS"), Some(480_000));
        assert_eq!(kb_from_status(status, "VmHWM"), Some(512_000));
        // `Threads` has no unit; `Vm` alone is not a key.
        assert_eq!(kb_from_status(status, "Threads"), None);
        assert_eq!(kb_from_status(status, "Vm"), None);
    }

    #[test]
    fn live_process_reports_cpu_and_memory() {
        let cpu = process_cpu_s().expect("cpu");
        assert!(cpu >= 0.0);
        let (rss, hwm) = rss_kb().expect("rss");
        assert!(rss > 0 && hwm >= rss);
    }
}
