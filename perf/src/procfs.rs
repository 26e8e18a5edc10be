//! Process-wide CPU time, context switches and peak memory from `/proc`.

use std::fs;

/// `sysconf(_SC_CLK_TCK)` is 100 on every Linux ABI Rust targets; reading
/// it properly needs libc, which the benchmark does not link.
const TICK_US: u64 = 10_000;

#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSnapshot {
    /// User and system CPU time of every thread, living or reaped, in µs.
    pub user_us: u64,
    pub sys_us: u64,
    /// Voluntary context switches summed over the living threads: one per
    /// charged sleep, condvar park or futex wait.
    pub vol_ctx_switches: u64,
}

impl ProcSnapshot {
    pub fn take() -> ProcSnapshot {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the line, i.e. 12 and 13 after the name.
        let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
        let field = |i: usize| -> u64 {
            after
                .split_ascii_whitespace()
                .nth(i)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
        };
        let mut vol = 0;
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
                vol += status_field(&status, "voluntary_ctxt_switches:");
            }
        }
        ProcSnapshot {
            user_us: field(11) * TICK_US,
            sys_us: field(12) * TICK_US,
            vol_ctx_switches: vol,
        }
    }
}

/// CPU time of every living thread in ns, from the scheduler's per-task
/// accounting (`/proc/self/task/*/schedstat`): finer than the 10 ms ticks of
/// `/proc/self/stat`, which is what a one-second slice needs. Threads that
/// have exited are not counted, so compare snapshots only across a span in
/// which the thread set is stable (the measured window is).
pub fn live_threads_cpu_ns() -> u64 {
    let mut total = 0;
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let stat = fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
            total += stat
                .split_ascii_whitespace()
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    total
}

/// Time the hypervisor gave this VM's CPUs to someone else, in ms since
/// boot (the `steal` column of `/proc/stat`; 0 where the host hides it).
pub fn host_steal_ms() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_ascii_whitespace().nth(8))
        .and_then(|s| s.parse::<u64>().ok())
        .map_or(0, |ticks| ticks * TICK_US / 1_000)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field(s, "VmHWM:"), 20480);
        assert_eq!(status_field(s, "voluntary_ctxt_switches:"), 17);
        assert_eq!(status_field(s, "Missing:"), 0);
    }

    #[test]
    fn live_snapshot_is_plausible() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(peak_rss_mb() > 0.5);
        // CPU time is monotonic; a tick may or may not have elapsed.
        let a = ProcSnapshot::take();
        let b = ProcSnapshot::take();
        assert!(b.user_us + b.sys_us >= a.user_us + a.sys_us);
        assert!(live_threads_cpu_ns() > 0);
    }
}
