//! The batch output path streams: peak heap while extracting a batch
//! through `XmlWriterSink` does not grow with the batch size, while the
//! buffered path (materialise the `XmlDocument`, then the whole response
//! string) grows with it. A tracking global allocator measures real
//! peak heap, so this file is its own test binary and holds one test:
//! a second test running beside it would move the peak.

use retroweb_service::testdata::{cluster_from, demo_cluster_json, demo_pages};
use retrozilla::{
    extract_cluster_parallel_compiled_to, CollectSink, CompiledCluster, XmlWriterSink,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every live heap byte and keeps the peak.
struct PeakAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's layout; the
// counters only observe sizes and never touch the memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(p, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// One measurement: output bytes and the peak heap growth above the
/// live heap at the start.
struct Run {
    output_bytes: u64,
    peak_heap_bytes: usize,
}

fn run(
    rules: &CompiledCluster,
    pages: &[(String, String)],
    threads: usize,
    streaming: bool,
) -> Run {
    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let output_bytes = if streaming {
        // The served path: the sink writes straight through, as the
        // chunked connection consumes it.
        let mut sink = XmlWriterSink::new(std::io::sink());
        extract_cluster_parallel_compiled_to(rules, pages, threads, &mut sink)
            .expect("a discarding writer never fails");
        sink.bytes_written()
    } else {
        let mut sink = CollectSink::new();
        extract_cluster_parallel_compiled_to(rules, pages, threads, &mut sink)
            .expect("CollectSink never fails");
        sink.into_result().xml.to_string_with(2).len() as u64
    };
    Run { output_bytes, peak_heap_bytes: PEAK.load(Ordering::Relaxed).saturating_sub(before) }
}

#[test]
fn streaming_peak_heap_is_flat_across_batch_sizes() {
    let rules = cluster_from(&demo_cluster_json()).compile();
    let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(4).clamp(2, 8);
    let [(buffered_small, streaming_small), (buffered_large, streaming_large)] =
        [256, 2048].map(|size| {
            let pages = demo_pages(size);
            // Warm both paths once so allocator pools settle.
            run(&rules, &pages, threads, false);
            run(&rules, &pages, threads, true);
            let buffered = run(&rules, &pages, threads, false);
            let streaming = run(&rules, &pages, threads, true);
            assert_eq!(
                buffered.output_bytes, streaming.output_bytes,
                "both paths must write the same document at batch size {size}"
            );
            println!(
                "batch {size}: {} output bytes, peak heap buffered {} B, streaming {} B",
                streaming.output_bytes, buffered.peak_heap_bytes, streaming.peak_heap_bytes
            );
            (buffered.peak_heap_bytes.max(1) as f64, streaming.peak_heap_bytes.max(1) as f64)
        });
    let streaming_growth = streaming_large / streaming_small;
    let buffered_growth = buffered_large / buffered_small;
    // 8x the pages: the buffered path grows about 8x; the streaming
    // path stays flat, with 3x slack for allocator jitter.
    assert!(
        buffered_growth >= 4.0,
        "buffered peak heap grew only {buffered_growth:.1}x over 8x the pages: the \
         allocator no longer sees the output path"
    );
    assert!(
        streaming_growth < 3.0,
        "streaming peak heap grew {streaming_growth:.1}x over 8x the pages"
    );
}
