//! Peak live heap of a workload, counted by a pass-through allocator.
//!
//! Peak resident memory (`VmHWM`) of a multi-threaded run depends on
//! which glibc arena each short-lived `ros_exec` worker thread draws
//! from: one full_pipeline seed read between 25 and 35 MB across
//! identical runs (and a steady 25 MB with a single arena). The bytes
//! the program holds live do not depend on that, so they are the
//! memory metric; `VmHWM` is kept in the run's record.
//!
//! Counting is off unless [`enable`] is called, and a process that
//! enables it does no timed work: the timed run reads the peak from a
//! child process of its own (see `e2e::heap_probe`), so the counters
//! never share a cache line with the timed reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Forwards to the system allocator, tracking live and peak bytes
/// once [`enable`] has been called.
pub struct PeakAlloc;

static ON: AtomicBool = AtomicBool::new(false);
// Signed: a block allocated before `enable` and freed after it takes
// its bytes off the count without wrapping.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

// The counters are statistics that publish no other data, so relaxed
// ordering suffices.
fn grow(bytes: usize) {
    if !ON.load(Ordering::Relaxed) {
        return;
    }
    let bytes = bytes as isize;
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // Read first: most allocations do not set a new peak, and a plain
    // load keeps the shared cache line uncontended.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`
// and returns its result unchanged; the counters never touch the
// memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` carry over.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

/// Starts counting. Blocks allocated before this call are not counted.
pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

fn mib(bytes: isize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The heap held live now, in MiB.
pub fn live_mb() -> f64 {
    mib(LIVE.load(Ordering::Relaxed))
}

/// The most heap held live at once since counting started or the last
/// [`reset_peak`], in MiB.
pub fn peak_mb() -> f64 {
    mib(PEAK.load(Ordering::Relaxed))
}

/// Restarts the peak from the heap held live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the counters are process-wide, so parallel tests
    // would move each other's figures.
    #[test]
    fn peak_covers_a_live_allocation_and_restarts_from_the_live_heap() {
        enable();
        let base = live_mb();
        let block = vec![1u8; 32 << 20];
        assert!(peak_mb() >= base + 31.9, "a 32 MiB vector is live");
        drop(block);
        assert!(peak_mb() >= base + 31.9, "the peak survives the free");
        reset_peak();
        assert!(peak_mb() < base + 16.0, "the block is no longer live");
    }
}
