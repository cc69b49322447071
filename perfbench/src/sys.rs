//! Process and host probes: CPU time, peak resident set and host CPU steal
//! (Linux).

use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU time of the whole process so far, every thread
/// included (exited ones too).
pub fn process_cpu() -> Duration {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        _rest: [0; 14],
    };
    // SAFETY: `ru` is a writable, properly aligned `struct rusage` of the
    // size the kernel fills on 64-bit Linux; getrusage writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: &Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1000);
    tv(&ru.ru_utime) + tv(&ru.ru_stime)
}

/// Hands freed heap pages back to the kernel (glibc `malloc_trim`). A
/// stopped daemon's threads leave freed memory parked in their allocator
/// arenas; without this, how much of it lingers varies from run to run and
/// so does the next set-up's peak RSS.
pub fn release_free_memory() {
    // SAFETY: malloc_trim takes a plain padding size, touches only the
    // allocator's own free lists, and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Resets the peak-RSS watermark to the current RSS, so each workload's
/// `peak_rss_mb` covers only its own set-up and window.
pub fn reset_peak_rss() {
    // Best effort: "5" is the kernel's reset-peak-RSS command.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time the host has stolen from this machine's CPUs so far, in
/// seconds (the `steal` column of `/proc/stat`, in USER_HZ = 100 ticks per
/// second); `None` where the kernel does not report it.
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: u64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}
