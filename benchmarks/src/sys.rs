//! What the operating system knows about this process: CPU time, peak
//! resident memory, core count.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. Linux has reported 100 to user space on every
/// architecture for two decades; without libc there is no `sysconf` to ask.
const CLK_TCK: f64 = 100.0;

/// User and system CPU seconds consumed by all threads of this process.
#[derive(Copy, Clone, Debug, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    /// Reads `/proc/self/stat`. Zeroes where `/proc` is unavailable.
    pub fn now() -> CpuTimes {
        let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
            return CpuTimes::default();
        };
        // The command name (field 2) may contain spaces; fields are
        // counted from the closing parenthesis, where field 3 starts.
        let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
            return CpuTimes::default();
        };
        let mut fields = rest.split_whitespace().skip(11);
        let mut ticks = || {
            fields
                .next()
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let user_s = ticks() / CLK_TCK;
        let sys_s = ticks() / CLK_TCK;
        CpuTimes { user_s, sys_s }
    }

    pub fn total(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads of every measured runtime fleet: one. The thread that
/// generates the load is a thread too, so on the 2-core sizing box a second
/// worker makes three; and two workers are bistable there — the same
/// `storm` waves take ~50 ms or ~105 ms depending on whether the second
/// worker stays asleep, which flips with the host's wake-up latency (see
/// `runtime.two_worker_wave_ratio` and the README's Calibration).
pub const RUNTIME_WORKERS: usize = 1;

/// Worker threads of the one contended probe: two, but never more threads
/// than cores.
pub fn contended_workers() -> usize {
    nproc().min(2)
}
