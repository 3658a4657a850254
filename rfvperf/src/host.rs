//! Host diagnostics and child-process control.
//!
//! `steal_frac` and `calib_ms` are reported beside the metrics and never
//! used to rescale them, so drift in the host stays visible. Children are
//! reaped with `wait4(2)`, whose resource usage gives each child's own
//! peak RSS (the benchmark's own memory is never counted).

use std::hint::black_box;
use std::process::Child;
use std::time::{Duration, Instant};

/// Cumulative CPU time counters from the `cpu` line of `/proc/stat`.
#[derive(Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    pub fn now() -> Option<CpuTimes> {
        let text = std::fs::read_to_string("/proc/stat").ok()?;
        let line = text.lines().find(|l| l.starts_with("cpu "))?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so only the first 8 sum
        let total = fields.iter().take(8).sum();
        let steal = fields.get(7).copied().unwrap_or(0);
        Some(CpuTimes { total, steal })
    }

    /// Share of all CPU time between `earlier` and `self` that the
    /// hypervisor gave to other guests.
    pub fn steal_frac_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Time of a fixed integer loop in the benchmark's own code, in ms: a
/// yardstick for how fast this host runs right now.
pub fn calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x1234_5678;
    for i in 0..20_000_000u64 {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 29));
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

// libc is already linked through std, so these bindings add no dependency
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const WNOHANG: i32 = 1;
const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// How a reaped child ended.
pub struct Exit {
    /// Exited normally with status 0.
    pub success: bool,
    /// Peak resident set size of the child, MiB.
    pub peak_rss_mb: f64,
}

fn child_pid(child: &Child) -> i32 {
    i32::try_from(child.id()).expect("pids fit in i32 on Linux")
}

/// Reaps `child` without blocking; `None` while it is still running.
fn try_reap(child: &Child) -> Option<Exit> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // wait4(2) expects; the pid is our own unreaped child, since `Child`
    // only reaps inside `wait`/`try_wait`, which this program never calls.
    let pid = unsafe { wait4(child_pid(child), &mut status, WNOHANG, &mut usage) };
    if pid <= 0 {
        return None;
    }
    // WIFEXITED && WEXITSTATUS == 0 is exactly a zero status word
    Some(Exit {
        success: status == 0,
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
    })
}

fn signal(child: &Child, sig: i32) {
    // SAFETY: kill(2) takes plain integers; the pid is our unreaped child,
    // so it cannot have been recycled for another process.
    unsafe {
        kill(child_pid(child), sig);
    }
}

/// Waits for `child` to exit, killing it after `limit`.
pub fn reap(child: Child, limit: Duration) -> Exit {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(exit) = try_reap(&child) {
            return exit;
        }
        if Instant::now() >= deadline {
            signal(&child, SIGKILL);
            let mut exit = reap(child, Duration::from_secs(3600));
            exit.success = false;
            return exit;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Asks `child` to drain with SIGTERM, then reaps it.
pub fn terminate(child: Child, limit: Duration) -> Exit {
    signal(&child, SIGTERM);
    reap(child, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    #[test]
    fn reap_reports_status_and_rss() {
        let child = Command::new("true").spawn().expect("spawn true");
        let exit = reap(child, Duration::from_secs(10));
        assert!(exit.success);
        assert!(exit.peak_rss_mb > 0.0);
        let child = Command::new("false").spawn().expect("spawn false");
        assert!(!reap(child, Duration::from_secs(10)).success);
    }

    #[test]
    fn terminate_stops_a_sleeper() {
        let child = Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        let t0 = Instant::now();
        let exit = terminate(child, Duration::from_secs(10));
        assert!(!exit.success);
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn steal_is_a_fraction() {
        let a = CpuTimes::now().expect("/proc/stat");
        calib_ms();
        let b = CpuTimes::now().expect("/proc/stat");
        let f = b.steal_frac_since(&a);
        assert!((0.0..=1.0).contains(&f));
    }
}
