//! CI guard: streaming `.bench` ingestion never materializes a second
//! whole-file copy of the input.
//!
//! [`BenchReader::feed`] consumes chunks as they arrive: complete lines
//! are parsed in place and only a partial trailing line is carried
//! between chunks. This test pins that property with a counting global
//! allocator: parsing a ~1 MB netlist in small chunks must not perform
//! any single allocation approaching the file size (the failure mode of
//! buffering the input before parsing), and chunked feeding must not
//! cost meaningfully more total heap traffic than handing the text over
//! in one piece. It lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use fscan_netlist::{generate, write_bench, BenchReader, Circuit, GeneratorConfig};

/// Tracks total allocated bytes and the largest single allocation;
/// `dealloc` is deliberately uncounted (freeing is not an allocation).
struct WatermarkAlloc;

static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static MAX_SINGLE: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    TOTAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    MAX_SINGLE.fetch_max(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for WatermarkAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static WATERMARK: WatermarkAlloc = WatermarkAlloc;

fn parse_streamed(text: &str, chunk: usize) -> Circuit {
    let mut reader = BenchReader::new("ingest");
    let mut rest = text;
    while !rest.is_empty() {
        let take = chunk.min(rest.len());
        reader.feed(&rest[..take]).unwrap();
        rest = &rest[take..];
    }
    reader.finish().unwrap()
}

#[test]
fn chunked_ingest_never_copies_the_whole_file() {
    // ~1 MB of netlist text: a real structural core plus heavy comment
    // padding, so the input dwarfs every table the parser legitimately
    // builds (node storage, name interner, carry buffer).
    let circuit = generate(&GeneratorConfig::new("ingest", 9).gates(1200).dffs(40));
    let mut text = write_bench(&circuit);
    let pad = "x".repeat(110);
    for i in 0..8000 {
        text.push_str("# pad ");
        text.push_str(&pad);
        text.push(' ');
        text.push_str(&i.to_string());
        text.push('\n');
    }
    assert!(
        text.len() > 900_000,
        "padding underdelivered: {}",
        text.len()
    );

    // Whole-text baseline: one feed covering the entire input.
    let whole_before = TOTAL_BYTES.load(Ordering::Relaxed);
    MAX_SINGLE.store(0, Ordering::Relaxed);
    let whole = {
        let mut reader = BenchReader::new("ingest");
        reader.feed(&text).unwrap();
        reader.finish().unwrap()
    };
    let whole_total = TOTAL_BYTES.load(Ordering::Relaxed) - whole_before;

    // Streamed in 997-byte chunks (prime, so the boundaries drift
    // across lines instead of landing on a fixed stride).
    let chunk_before = TOTAL_BYTES.load(Ordering::Relaxed);
    MAX_SINGLE.store(0, Ordering::Relaxed);
    let streamed = parse_streamed(&text, 997);
    let chunk_total = TOTAL_BYTES.load(Ordering::Relaxed) - chunk_before;
    let chunk_max = MAX_SINGLE.load(Ordering::Relaxed);

    // Same circuit either way.
    assert_eq!(whole.num_nodes(), streamed.num_nodes());
    assert_eq!(write_bench(&whole), write_bench(&streamed));

    // The pin: no allocation during the chunked parse comes anywhere
    // near the input size — a second whole-file copy would need one.
    assert!(
        chunk_max < text.len() / 2,
        "single {chunk_max} B allocation while streaming a {} B file",
        text.len()
    );
    // And chunking costs at most carry-buffer traffic on top of the
    // whole-text parse — not a re-buffering of the input (which would
    // blow past this bound by orders of magnitude).
    assert!(
        chunk_total < whole_total + text.len() as u64,
        "chunked parse allocated {chunk_total} B vs {whole_total} B whole-text"
    );
}
