//! CI guard: the event-driven fault simulator's word loop performs zero
//! steady-state heap allocation.
//!
//! The per-thread [`fscan_sim::SimScratch`] arena is sized on first use
//! and *reset* — not reallocated — between 64-fault words. This test
//! pins that property with a counting global allocator: after one
//! warm-up call, an identical [`ParallelFaultSim::fault_sim_into`] call
//! must not touch the allocator at all. It lives in its own
//! integration-test binary because a `#[global_allocator]` is
//! process-wide.
//!
//! The assertion counts the measuring thread's allocations only: the
//! call runs serially on the calling thread, while another thread of the
//! test process (the harness's, say) may allocate inside the measured
//! window. The process-wide count is printed alongside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use fscan_fault::{all_faults, collapse};
use fscan_netlist::{generate, CompiledTopology, GeneratorConfig};
use fscan_sim::{ParallelFaultSim, V3};

/// Counts every allocator entry point that can hand out memory, per
/// process and per thread; `dealloc` is deliberately uncounted (freeing
/// is not an allocation).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's allocations. Const-initialized with no destructor,
    /// so the allocator can bump it without allocating.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn warm_fault_sim_word_loop_allocates_nothing() {
    let circuit = generate(&GeneratorConfig::new("alloc", 41).gates(220).dffs(12));
    let faults = collapse(&circuit, &all_faults(&circuit));
    assert!(faults.len() > 64, "need several 64-fault words");
    let vectors = fscan_atpg::random_vectors(circuit.inputs().len(), 16, &[], 7);
    let init = vec![V3::X; circuit.dffs().len()];

    let sim = ParallelFaultSim::with_topology(CompiledTopology::shared(&circuit));
    let trace = sim.good_trace(&vectors, &init);
    let mut scratch = sim.scratch();
    let mut out = Vec::new();

    // Warm-up: sizes the arena's cone/injection tables and the verdict
    // vector to this workload.
    let warm = sim.fault_sim_into(&faults, &trace, &mut scratch, &mut out);
    let warm_verdicts = out.clone();

    // Steady state: the identical call must not allocate.
    let (process_before, before) = (ALLOCS.load(Ordering::Relaxed), thread_allocs());
    let counters = sim.fault_sim_into(&faults, &trace, &mut scratch, &mut out);
    let delta = thread_allocs() - before;
    let process = ALLOCS.load(Ordering::Relaxed) - process_before;
    assert_eq!(
        delta, 0,
        "steady-state fault_sim_into hit the allocator {delta} times \
         ({process} allocations process-wide)"
    );

    // And it is a genuine re-run, not a cached no-op.
    assert_eq!(counters, warm, "work counters differ between passes");
    assert_eq!(out, warm_verdicts, "verdicts differ between passes");
    assert_eq!(counters.scratch_reuses, (faults.len() as u64).div_ceil(64));
}
