//! The benchmark's global allocator.
//!
//! Every allocation goes through [`fscan_alloctrack::TrackingAlloc`], so
//! each pipeline stage still books its own `MemMetrics`. On top of it this
//! wrapper keeps one more high-water mark of live heap bytes that only the
//! benchmark resets. `fscan_alloctrack::stage_mark` resets the tracker's
//! process-wide peak at every stage boundary, so a tracker window opened
//! around a whole operation would read only its last stage's peak; this
//! mark sees all of them.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

use fscan_alloctrack::TrackingAlloc;

/// `TrackingAlloc` plus a benchmark-owned peak of live heap bytes.
pub struct PeakAlloc;

/// High-water mark of `fscan_alloctrack::current_bytes()` since the last
/// [`reset_peak`]. A statistic only: it publishes no other data, so
/// relaxed ordering is enough.
static PEAK: AtomicU64 = AtomicU64::new(0);

fn bump_peak() {
    PEAK.fetch_max(fscan_alloctrack::current_bytes(), Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `TrackingAlloc`,
// which forwards them to `System`; the only addition is an atomic update
// that neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { TrackingAlloc.alloc(layout) };
        bump_peak();
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { TrackingAlloc.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { TrackingAlloc.alloc_zeroed(layout) };
        bump_peak();
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { TrackingAlloc.realloc(ptr, layout, new_size) };
        bump_peak();
        p
    }
}

/// Restarts the peak at the live heap right now.
pub fn reset_peak() {
    PEAK.store(fscan_alloctrack::current_bytes(), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// One operation's window over the live heap.
pub struct Window {
    live: u64,
}

impl Window {
    /// Opens the window at the live heap right now.
    pub fn open() -> Window {
        let live = fscan_alloctrack::current_bytes();
        reset_peak();
        Window { live }
    }

    /// How far the live heap has risen above where the window opened.
    pub fn rise(&self) -> u64 {
        peak_bytes().saturating_sub(self.live)
    }
}

/// The peak live heap of a batch run's timed phase: the heap when the
/// phase starts, plus the largest rise any one operation makes above the
/// heap at its own start.
pub struct PeakMeter {
    start: u64,
    rise: u64,
}

impl PeakMeter {
    pub fn start() -> PeakMeter {
        PeakMeter {
            start: fscan_alloctrack::current_bytes(),
            rise: 0,
        }
    }

    /// Books one operation's window once the operation has ended.
    pub fn close(&mut self, window: &Window) {
        self.rise = self.rise.max(window.rise());
    }

    pub fn peak_bytes(&self) -> u64 {
        self.start + self.rise
    }
}

/// Serialises the tests that reset a heap peak, the benchmark's or the
/// tracker's. Every pipeline stage opens a `stage_mark`, which resets the
/// tracker's, so tests that run stages hold this too.
#[cfg(test)]
pub fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Run;
    use std::hint::black_box;

    /// A block allocated and freed inside one stage window must still
    /// show in a batch operation's `peak_mb` after the next stage resets
    /// the tracker's own high-water mark.
    #[test]
    fn allocation_inside_a_stage_shows_in_peak_mb() {
        const BLOCK: usize = 64 << 20;
        let _serial = serial();
        let mut meter = PeakMeter::start();
        let window = Window::open();
        let whole_op = fscan_alloctrack::stage_mark();
        // What a pipeline stage does: open its window, allocate, free.
        let stage = fscan_alloctrack::stage_mark();
        drop(black_box(vec![1u8; BLOCK]));
        assert!(stage.peak() >= BLOCK as u64);
        // The next stage opens its own window.
        let _next_stage = fscan_alloctrack::stage_mark();
        assert!(
            whole_op.peak() < BLOCK as u64,
            "the tracker's window no longer sees the block"
        );
        meter.close(&window);
        let run = Run {
            peak_bytes: meter.peak_bytes(),
            latencies_ms: vec![1.0],
            pass_s: vec![1.0],
            setup_s: 1.0,
            attempted: 1,
            ..Run::default()
        };
        let peak_mb = run
            .end_to_end()
            .into_iter()
            .find(|m| m.name == "peak_mb")
            .expect("peak_mb is an end-to-end metric")
            .value;
        assert!(peak_mb >= BLOCK as f64 / 1e6, "peak_mb {peak_mb} misses it");
    }
}
