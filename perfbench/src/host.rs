//! Host-side measurements of the benchmark process: CPU time and context
//! switches summed over every thread the process ever ran (`getrusage`),
//! peak resident set (`VmHWM`), and the host's core count; and the one
//! allocator setting the benchmark fixes.
//!
//! Linux with glibc only: the simulator's PE threads are OS threads, and
//! these are the kernel's own counters for them.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s
/// (`ru_maxrss` .. `ru_nivcsw`).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

/// Index of `ru_nvcsw` (voluntary switches) in [`Rusage::longs`];
/// `ru_nivcsw` (involuntary) follows it.
const NVCSW: usize = 12;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!("perfbench reads 64-bit Linux process counters and sets glibc's malloc");

/// `M_MMAP_THRESHOLD` in glibc's `malloc.h`.
const M_MMAP_THRESHOLD: i32 = -3;
/// The top of glibc's dynamic mmap threshold on 64-bit hosts (32 MiB).
const MMAP_THRESHOLD_MAX: i32 = 32 << 20;

/// Fix glibc's mmap threshold at the top of its dynamic range.
///
/// By default glibc raises the threshold as it frees mapped blocks, so
/// where it stands when a launch allocates its PE heaps depends on the
/// process's history. Each process then settled at random into one of two
/// modes: PE heaps from fresh mappings, faulted in on every launch, or from
/// the malloc arenas. On `dht_locked` the first mode tripled `setup_s` in a
/// quarter of the runs. A threshold fixed where the dynamic rule tops out
/// puts every run in the second mode, the one most runs were in anyway.
pub fn pin_mmap_threshold() {
    // SAFETY: `mallopt` takes two ints and only changes allocator settings.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// Cumulative CPU time and context switches of the whole process, all
/// threads included (live and exited).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
}

impl Usage {
    /// The process's counters now.
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
        // Linux layout (checked by the `compile_error!` above), and
        // `getrusage` writes only within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(&ru.utime),
            sys_s: secs(&ru.stime),
            ctx_switches: (ru.longs[NVCSW] + ru.longs[NVCSW + 1]) as u64,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Peak resident set of the process so far (`VmHWM`), MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn usage_grows_with_work() {
        let a = Usage::now();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let d = Usage::now().since(a);
        assert!(d.cpu_s() > 0.01, "{d:?}");
        assert!(peak_rss_mb() > 0.0);
    }
}
