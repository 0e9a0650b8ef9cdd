//! OS accounting for the server's threads, read from `/proc/self/task`.
//!
//! The server names its threads `senseaid-serve` (the engine) and
//! `senseaid-serve-worker-N` (socket workers); the kernel truncates names
//! to 15 bytes, so workers read back as `senseaid-serve-`. CPU time comes
//! from `schedstat` (nanoseconds on CPU), wakeups from the voluntary
//! context-switch count in `status`.

use std::fs;

/// Summed counters for one class of server thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadTotals {
    pub cpu_ns: u64,
    pub voluntary_switches: u64,
}

/// A snapshot of the server's threads.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerThreads {
    pub engine: ThreadTotals,
    pub workers: ThreadTotals,
}

impl ServerThreads {
    pub fn cpu_ns(&self) -> u64 {
        self.engine.cpu_ns + self.workers.cpu_ns
    }

    /// Counters summed over two disjoint intervals.
    pub fn plus(&self, other: &ServerThreads) -> ServerThreads {
        let s = |a: ThreadTotals, b: ThreadTotals| ThreadTotals {
            cpu_ns: a.cpu_ns + b.cpu_ns,
            voluntary_switches: a.voluntary_switches + b.voluntary_switches,
        };
        ServerThreads {
            engine: s(self.engine, other.engine),
            workers: s(self.workers, other.workers),
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ServerThreads) -> ServerThreads {
        let d = |a: ThreadTotals, b: ThreadTotals| ThreadTotals {
            cpu_ns: a.cpu_ns.saturating_sub(b.cpu_ns),
            voluntary_switches: a.voluntary_switches.saturating_sub(b.voluntary_switches),
        };
        ServerThreads {
            engine: d(self.engine, earlier.engine),
            workers: d(self.workers, earlier.workers),
        }
    }
}

/// Reads every `senseaid-serve*` thread of this process.
pub fn server_threads() -> ServerThreads {
    let mut out = ServerThreads::default();
    let Ok(entries) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        let comm = comm.trim_end();
        let slot = if comm == "senseaid-serve" {
            &mut out.engine
        } else if comm.starts_with("senseaid-serve-") {
            &mut out.workers
        } else {
            continue;
        };
        let cpu_ns = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
        let switches = fs::read_to_string(dir.join("status"))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                    .and_then(|v| v.trim().parse::<u64>().ok())
            })
            .unwrap_or(0);
        slot.cpu_ns += cpu_ns;
        slot.voluntary_switches += switches;
    }
    out
}

/// The host's CPU time so far, from the first line of `/proc/stat`:
/// `(stolen, total)` in clock ticks. Stolen time is what the hypervisor
/// ran elsewhere while this machine had work; nothing the process does
/// changes it.
pub fn cpu_ticks() -> (u64, u64) {
    let line = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_owned));
    let fields: Vec<u64> = line
        .as_deref()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Resident set size of this process, bytes.
pub fn rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// `nproc` and the CPU model, for the result header.
pub fn machine() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    (nproc, model)
}
