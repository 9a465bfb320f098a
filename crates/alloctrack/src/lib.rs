//! A counting global allocator and the stage-window accounting built on
//! it.
//!
//! The pipeline's per-stage [`MemMetrics`] needs two quantities only a
//! real allocator can observe: the high-water mark of live heap bytes
//! during a stage window, and how many `realloc` calls the stage
//! issued. This crate provides both without adding any allocation-path
//! branching beyond four relaxed atomics:
//!
//! * [`TrackingAlloc`] — a [`GlobalAlloc`] wrapper around
//!   [`System`] that maintains `CUR` (live bytes), `PEAK`
//!   (high-water of `CUR`) and `REALLOCS` counters;
//! * [`MemMark`] — a stage-window snapshot. [`stage_mark`] resets the
//!   high-water mark to the current live-byte level and records the
//!   realloc baseline; `MemMark::peak()` / `MemMark::reallocs()` then
//!   read the *within-window* peak and realloc count.
//!
//! Binaries opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: fscan_alloctrack::TrackingAlloc = fscan_alloctrack::TrackingAlloc;
//! ```
//!
//! When no tracking allocator is installed every counter stays 0, so
//! [`installed`] reports `false` and callers emit zeroed peaks —
//! library unit tests never pay for tracking they did not ask for.
//!
//! The counters are process-wide: with several shard threads running, a
//! stage's peak is the peak of the whole process during that window —
//! an upper bound on any single shard's footprint, and inherently
//! nondeterministic. Consumers treat `peak_bytes`/`reallocs` like
//! wall-clock times: reported, trended, but stripped from determinism
//! diffs.
//!
//! This is the one place in the workspace that needs `unsafe` (a
//! `GlobalAlloc` impl cannot be written without it); the simulation and
//! netlist crates keep their `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live heap bytes right now (allocated minus freed through the
/// tracking allocator).
static CUR: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`CUR`] since the last [`stage_mark`] reset.
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Total `realloc` calls since process start.
static REALLOCS: AtomicU64 = AtomicU64::new(0);
/// Total allocation calls (`alloc` + `alloc_zeroed` + `realloc`) since
/// process start. Also serves as the "is a tracker installed?" probe.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn add_live(bytes: u64) {
    let now = CUR.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // Lock-free high-water update. Relaxed is fine: these counters are
    // diagnostics, not synchronization.
    PEAK.fetch_max(now, Ordering::Relaxed);
}

#[inline]
fn sub_live(bytes: u64) {
    CUR.fetch_sub(bytes, Ordering::Relaxed);
}

/// A [`GlobalAlloc`] that forwards to [`System`] and maintains the
/// process-wide live/peak/realloc counters. Install with
/// `#[global_allocator]` in a binary to make [`stage_mark`] windows
/// observe real traffic.
pub struct TrackingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates never touch the returned
// memory.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            add_live(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        sub_live(layout.size() as u64);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            add_live(layout.size() as u64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            REALLOCS.fetch_add(1, Ordering::Relaxed);
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                add_live(new - old);
            } else {
                sub_live(old - new);
            }
        }
        p
    }
}

/// `true` when a [`TrackingAlloc`] is installed as the global allocator
/// (detected by having observed at least one allocation — any Rust
/// program allocates long before user code can ask).
pub fn installed() -> bool {
    ALLOCS.load(Ordering::Relaxed) > 0
}

/// Live heap bytes right now (0 without a tracking allocator).
pub fn current_bytes() -> u64 {
    CUR.load(Ordering::Relaxed)
}

/// Total allocation calls since process start (0 without a tracking
/// allocator). Useful for "this path allocates at most N bytes" pins.
pub fn total_allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Total `realloc` calls since process start (0 without a tracking
/// allocator). Unlike [`MemMark::reallocs`] this never resets — it is
/// the whole-process figure surfaced by long-lived services.
pub fn total_reallocs() -> u64 {
    REALLOCS.load(Ordering::Relaxed)
}

/// A stage-window baseline returned by [`stage_mark`].
///
/// # Examples
///
/// ```
/// let mark = fscan_alloctrack::stage_mark();
/// let data = vec![0u8; 1 << 16];
/// drop(data);
/// // Without a tracking allocator installed both read 0; with one, the
/// // window peak includes the vector.
/// let _ = (mark.peak(), mark.reallocs());
/// ```
#[derive(Copy, Clone, Debug)]
pub struct MemMark {
    reallocs_at: u64,
}

/// Opens a stage window: resets the process high-water mark down to the
/// current live-byte level and snapshots the realloc counter. The
/// returned [`MemMark`] reads the peak and realloc count *within* the
/// window.
///
/// Windows are not reentrant — a later `stage_mark` resets the shared
/// peak, so finish reading one window before opening the next (the
/// pipeline's stages are strictly sequential, which is exactly this
/// shape).
pub fn stage_mark() -> MemMark {
    PEAK.store(CUR.load(Ordering::Relaxed), Ordering::Relaxed);
    MemMark {
        reallocs_at: REALLOCS.load(Ordering::Relaxed),
    }
}

impl MemMark {
    /// High-water mark of process live heap bytes since this mark was
    /// taken. 0 when no tracking allocator is installed.
    pub fn peak(&self) -> u64 {
        if installed() {
            PEAK.load(Ordering::Relaxed)
        } else {
            0
        }
    }

    /// `realloc` calls since this mark was taken. 0 when no tracking
    /// allocator is installed.
    pub fn reallocs(&self) -> u64 {
        REALLOCS
            .load(Ordering::Relaxed)
            .saturating_sub(self.reallocs_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so counters stay
    // flat: this pins the "absent tracker reads as zero" contract.
    #[test]
    fn without_installation_everything_reads_zero() {
        assert!(!installed());
        let mark = stage_mark();
        let v: Vec<u64> = (0..1024).collect();
        assert_eq!(v.len(), 1024);
        assert_eq!(mark.peak(), 0);
        assert_eq!(mark.reallocs(), 0);
        assert_eq!(current_bytes(), 0);
        assert_eq!(total_allocs(), 0);
        assert_eq!(total_reallocs(), 0);
    }
}
