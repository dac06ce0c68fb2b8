//! Pinning the process to one CPU, and the `/proc` readers behind
//! `peak_rss_mb` and the `bench.os.*` metrics.

use std::fs;

extern "C" {
    /// `sched_setaffinity(2)`; `pid` 0 is the calling thread. Threads
    /// spawned afterwards inherit the mask.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The value of `key:` in `/proc/<path>/status`-style text.
fn status_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

/// CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let mut cpus = Vec::new();
    for part in status_field(&status, "Cpus_allowed_list")
        .unwrap_or("")
        .split(',')
    {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Pin the whole process (this thread, and every thread spawned later) to
/// the highest-numbered allowed CPU — the one least likely to take the
/// host's interrupts — and read the mask back to confirm. An error means
/// the run would float between CPUs, which roughly halves its speed and
/// widens its spread (README, "One CPU"), so the caller refuses to run.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus()
        .last()
        .ok_or("cannot read Cpus_allowed_list from /proc/self/status")?;
    if cpu >= 1024 {
        return Err(format!("cpu {cpu} does not fit the 1024-bit mask"));
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly aligned array of exactly the
    // `size_of_val(&mask)` bytes passed as its size, and the kernel only
    // reads it for the duration of the call.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity to cpu {cpu} failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    match allowed_cpus().as_slice() {
        [only] if *only == cpu => Ok(cpu),
        other => Err(format!("pinned to cpu {cpu} but the mask reads {other:?}")),
    }
}

/// `VmHWM`, the process's peak resident set so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1-minute load average.
pub fn load_average() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| s.split(' ').take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Whether `path` sits on a memory-backed filesystem (tmpfs/ramfs),
/// judged by the longest mount point in `/proc/mounts` that prefixes it.
pub fn is_memory_backed(path: &std::path::Path) -> bool {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .is_some_and(|(_, fstype)| matches!(fstype, "tmpfs" | "ramfs"))
}

/// Counters of the whole process at one instant. Only threads alive at
/// the instant are counted, so take both samples of a pair while the same
/// threads exist (the load generator parks its callers on a barrier).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// Nanoseconds on a CPU, summed over threads (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Voluntary context switches (a thread blocked), summed over threads.
    pub vol_switches: u64,
    /// Involuntary context switches (a thread was preempted).
    pub invol_switches: u64,
    /// Ticks the hypervisor ran something else on the pinned CPU.
    pub steal_ticks: u64,
    /// All ticks of the pinned CPU.
    pub total_ticks: u64,
}

impl ProcSample {
    /// Sample now; `cpu` selects the `/proc/stat` line for steal time.
    pub fn take(cpu: usize) -> ProcSample {
        let mut s = ProcSample::default();
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let dir = task.path();
                if let Ok(text) = fs::read_to_string(dir.join("schedstat")) {
                    s.cpu_ns += text
                        .split(' ')
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0);
                }
                if let Ok(text) = fs::read_to_string(dir.join("status")) {
                    let field = |key| {
                        status_field(&text, key)
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0)
                    };
                    s.vol_switches += field("voluntary_ctxt_switches");
                    s.invol_switches += field("nonvoluntary_ctxt_switches");
                }
            }
        }
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let label = format!("cpu{cpu} ");
        if let Some(line) = stat.lines().find(|l| l.starts_with(&label)) {
            // user nice system idle iowait irq softirq steal [guest…]
            let ticks: Vec<u64> = line
                .split_ascii_whitespace()
                .skip(1)
                .take(8)
                .filter_map(|v| v.parse().ok())
                .collect();
            s.total_ticks = ticks.iter().sum();
            s.steal_ticks = ticks.get(7).copied().unwrap_or(0);
        }
        s
    }

    /// Component-wise `self − earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            vol_switches: self.vol_switches.saturating_sub(earlier.vol_switches),
            invol_switches: self.invol_switches.saturating_sub(earlier.invol_switches),
            steal_ticks: self.steal_ticks.saturating_sub(earlier.steal_ticks),
            total_ticks: self.total_ticks.saturating_sub(earlier.total_ticks),
        }
    }

    /// Component-wise sum (accumulating the measured phases of a run).
    pub fn add(&mut self, other: &ProcSample) {
        self.cpu_ns += other.cpu_ns;
        self.vol_switches += other.vol_switches;
        self.invol_switches += other.invol_switches;
        self.steal_ticks += other.steal_ticks;
        self.total_ticks += other.total_ticks;
    }
}
