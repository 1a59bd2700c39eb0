//! The process-level layer: CPU time, page faults and peak RSS from
//! `/proc/self`, and a counting global allocator that is switched on only
//! while traced ops run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// Linux reports `utime`/`stime` in clock ticks; `USER_HZ` is 100 on
/// every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// One reading of `/proc/self/stat` (all threads of the process).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl ProcStat {
    pub fn read() -> ProcStat {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name (field 2) may hold spaces; fields are counted
        // from the closing parenthesis. minflt, utime and stime are
        // fields 10, 14 and 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let field = |i: usize| -> u64 {
            rest.split_ascii_whitespace()
                .nth(i - 3)
                .and_then(|f| f.parse().ok())
                .unwrap_or(0)
        };
        ProcStat {
            user_s: field(14) as f64 / TICKS_PER_S,
            sys_s: field(15) as f64 / TICKS_PER_S,
            minor_faults: field(10),
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }

    pub fn plus(&self, other: &ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
            minor_faults: self.minor_faults + other.minor_faults,
        }
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Accumulates process time and page faults over the stretches between
/// `resume` and `pause`, so output checks between ops stay out of the
/// timed section.
#[derive(Debug, Default)]
pub struct SectionClock {
    pub proc: ProcStat,
    open: Option<ProcStat>,
}

impl SectionClock {
    pub fn resume(&mut self) {
        self.open = Some(ProcStat::read());
    }

    pub fn pause(&mut self) {
        if let Some(p0) = self.open.take() {
            self.proc = self.proc.plus(&ProcStat::read().since(&p0));
        }
    }
}

/// The system allocator plus four counters. Counting is off unless
/// [`count_allocs`] switched it on, so the untraced pass pays one relaxed
/// load per call. The counters are thread-local cells — an atomic
/// read-modify-write per call would slow the traced ops it is meant to
/// observe — so only the thread that drives the ops (every timed op runs
/// under `StepRunner` on the main thread) is counted.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

/// One thread's counters, behind a single thread-local so a counted call
/// computes the TLS address once.
struct Counters {
    calls: Cell<u64>,
    bytes: Cell<u64>,
    live: Cell<u64>,
    peak_live: Cell<u64>,
}

thread_local! {
    // `const` and without a destructor: reading it never allocates.
    static COUNTERS: Counters = const {
        Counters { calls: Cell::new(0), bytes: Cell::new(0), live: Cell::new(0), peak_live: Cell::new(0) }
    };
}

fn note_alloc(size: usize) {
    COUNTERS.with(|c| {
        c.calls.set(c.calls.get() + 1);
        c.bytes.set(c.bytes.get() + size as u64);
        let live = c.live.get() + size as u64;
        c.live.set(live);
        if live > c.peak_live.get() {
            c.peak_live.set(live);
        }
    });
}

fn note_free(size: usize) {
    // Blocks allocated before counting began are freed while it is on;
    // saturate so `live` never wraps.
    COUNTERS.with(|c| c.live.set(c.live.get().saturating_sub(size as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            note_free(layout.size());
        }
        // SAFETY: `ptr` came from `System` through this allocator with
        // the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            note_free(layout.size());
            note_alloc(new_size);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the allocator counted on this thread while counting was on.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounts {
    pub calls: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

/// Switch allocation counting on or off. Switching it on restarts the
/// live-byte count, so `peak_live_bytes` is the largest growth within one
/// counted stretch (an op) rather than a sum over blocks that were freed
/// while counting was off.
pub fn count_allocs(on: bool) {
    if on {
        COUNTERS.with(|c| c.live.set(0));
    }
    COUNTING.store(on, Relaxed);
}

pub fn alloc_counts() -> AllocCounts {
    COUNTERS.with(|c| AllocCounts {
        calls: c.calls.get(),
        bytes: c.bytes.get(),
        peak_live_bytes: c.peak_live.get(),
    })
}
