//! Clocks, order statistics and run stamps.
//!
//! The workspace links no libc, so the process CPU clock is read with a
//! raw `clock_gettime` syscall on x86_64 Linux (the same technique as
//! `fastbuf_bench::thread_cpu_ns`, but for the whole process); memory
//! and host steal come from `/proc`.

use std::path::Path;

/// Nearest-rank percentile of `values` (any order): the smallest value
/// with at least `p`% of the samples at or below it. `p` is clamped to
/// `[0, 100]`; `p = 0` is the minimum. Returns `None` for no samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// The nearest-rank median.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Nanoseconds of CPU time used so far by every thread of this process
/// (`CLOCK_PROCESS_CPUTIME_ID`), including threads that have exited.
/// `None` off x86_64 Linux, where the raw syscall is not available.
pub fn process_cpu_ns() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SYS_CLOCK_GETTIME: i64 = 228;
        const CLOCK_PROCESS_CPUTIME_ID: i64 = 2;
        let mut ts = [0i64; 2]; // struct timespec { tv_sec, tv_nsec }
        let ret: i64;
        // SAFETY: clock_gettime writes exactly one `struct timespec` (two
        // i64 on x86_64 Linux) through the pointer in rsi, which points at
        // the live, writable 16-byte `ts`; the syscall clobbers only rax
        // (the return value), rcx and r11, all declared here, and touches
        // no stack memory.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_CLOCK_GETTIME => ret,
                in("rdi") CLOCK_PROCESS_CPUTIME_ID,
                in("rsi") ts.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        (ret == 0).then(|| ts[0] as u64 * 1_000_000_000 + ts[1] as u64)
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        None
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host steal time so far, in milliseconds summed over all CPUs (the
/// eighth counter of the `cpu` line of `/proc/stat`, in 10 ms ticks).
/// `None` where `/proc/stat` is unavailable.
pub fn steal_ms() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks * 10)
}

/// Hardware threads available to this process.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The commit checked out in `root`, read from `.git` without running
/// git; `"unknown"` when `root` is not a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a hash of this executable's bytes: two runs with the same hash
/// ran the same code.
pub fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 10.0), Some(1.0));
        assert_eq!(percentile(&v, 11.0), Some(2.0));
    }

    #[test]
    fn percentile_ignores_input_order_and_handles_edges() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // An even count takes the lower middle value, never an average.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0], 150.0), Some(2.0));
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn process_clock_advances_with_work() {
        let before = process_cpu_ns().unwrap();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(x != 1);
        assert!(process_cpu_ns().unwrap() > before);
    }
}
