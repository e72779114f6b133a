//! Host resources of this process, read from `/proc/self`.
//!
//! Each workload runs in a process of its own, so these numbers belong to
//! that workload alone. `utime`/`stime` in `/proc/self/stat` include
//! threads that have already exited, which matters here: the simulator
//! fans work out to short-lived threads, and the server runs on threads.

use std::time::Instant;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// the Linux ABI fixes at 100).
const USER_HZ: f64 = 100.0;

/// CPU time consumed so far, split into user and system seconds.
#[derive(Debug, Clone, Copy)]
pub struct Cpu {
    user_s: f64,
    sys_s: f64,
    at: Instant,
}

/// Read this process's CPU times.
pub fn cpu() -> Result<Cpu, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name, starting at `state`
    // (field 3); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    Ok(Cpu { user_s: ticks(11)?, sys_s: ticks(12)?, at: Instant::now() })
}

/// CPU use between two readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSpan {
    pub user_s: f64,
    pub sys_s: f64,
    pub wall_s: f64,
}

impl CpuSpan {
    pub fn between(a: Cpu, b: Cpu) -> Self {
        CpuSpan {
            user_s: b.user_s - a.user_s,
            sys_s: b.sys_s - a.sys_s,
            wall_s: b.at.duration_since(a.at).as_secs_f64(),
        }
    }

    pub fn add(&mut self, other: CpuSpan) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.wall_s += other.wall_s;
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// The `host.*` metrics of a span that simulated `macc` million
    /// accesses.
    pub fn metrics(&self, macc: f64) -> [(&'static str, f64); 3] {
        [
            ("host.cpu_per_wall", self.cpu_s() / self.wall_s),
            ("host.sys_share", self.sys_s / self.cpu_s().max(f64::MIN_POSITIVE)),
            ("host.cpu_s_per_macc", self.cpu_s() / macc),
        ]
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}
