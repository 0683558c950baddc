//! Process-level counters for the traced run: a counting wrapper around
//! the system allocator and the kernel's fault and CPU counters.
//!
//! The allocator is registered by the benchmark binary (and the smoke
//! test) with `#[global_allocator]`. It only forwards to `System` until
//! [`set_counting`] turns counting on, which only the traced pass does,
//! so the untraced run pays one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, plus allocation counting while [`set_counting`] is on.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Turn allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// A reading of every process counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSnapshot {
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Minor page faults of the whole process.
    pub minflt: u64,
    /// CPU time of all threads, in nanoseconds.
    pub cpu_ns: u64,
}

/// Counter deltas over one invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcDelta {
    pub allocs: f64,
    pub alloc_bytes: f64,
    pub minflt: f64,
    pub cpu_us: f64,
}

impl ProcSnapshot {
    /// Read the allocation counters and `/proc/self`. A counter the
    /// kernel does not expose reads as 0.
    pub fn take() -> ProcSnapshot {
        ProcSnapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            minflt: minor_faults().unwrap_or(0),
            cpu_ns: cpu_ns().unwrap_or(0),
        }
    }

    /// Counters accrued since `earlier`.
    pub fn since(&self, earlier: &ProcSnapshot) -> ProcDelta {
        ProcDelta {
            allocs: self.allocs.saturating_sub(earlier.allocs) as f64,
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes) as f64,
            minflt: self.minflt.saturating_sub(earlier.minflt) as f64,
            cpu_us: self.cpu_ns.saturating_sub(earlier.cpu_ns) as f64 / 1e3,
        }
    }
}

/// Field 10 of `/proc/self/stat`, summed over every thread by the kernel.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields restart after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// Sum of the first field (nanoseconds on a CPU) of every thread's
/// `schedstat`, which unlike `stat` is not rounded to clock ticks.
fn cpu_ns() -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path().join("schedstat");
        // A thread that exits between listing and reading is skipped.
        if let Ok(s) = std::fs::read_to_string(path) {
            total += s.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(total)
}
