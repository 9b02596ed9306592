//! The sliding window bounds the online identifier's heap.
//!
//! A windowed [`OnlineIdentifier`] re-derives every snapshot from the
//! frames its replay log still holds, so what it owns must scale with
//! the window, not with the stream it has seen. This binary counts live
//! heap bytes through its own global allocator and holds a single test,
//! so no other test's allocations land in the count.

use sno_core::{OnlineIdentifier, Pipeline, StreamOptions};
use sno_types::records::NdtRecord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, plus a gauge of the bytes currently live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes of one replay-log frame (the SNOC codec's fixed frame).
const FRAME_BYTES: usize = 52;

/// Heap allowed per frame of the window, in frames of [`FRAME_BYTES`].
/// The replay log is one `Vec<u8>`: it grows by doubling and eviction
/// drains its front without shrinking it, so its capacity stays under
/// twice the most frames it ever held (k = 2). The third frame's worth
/// covers the state whose size does not depend on the stream — the ASN
/// mapping, its operator index and the stage cache, a few KiB in all —
/// which is small beside a window of thousands of frames.
const K: usize = 3;

#[test]
fn windowed_identifier_heap_is_bounded_by_the_window() {
    let mut records: Vec<NdtRecord> = sno_synth::MlabGenerator::new(sno_synth::SynthConfig {
        scale: 2e-3,
        min_sessions: 40,
        threads: 1,
        ..sno_synth::SynthConfig::test_corpus()
    })
    .generate()
    .records;
    records.sort_by_key(|r| r.timestamp.0);
    let span = records[records.len() - 1].timestamp.0 - records[0].timestamp.0;
    let window = span / 16;

    let mut online = OnlineIdentifier::with_window(Pipeline::with_threads(1), window);
    // The most frames the log ever holds: the window left by the last
    // snapshot plus the chunk ingested since, before it is evicted.
    let mut peak_frames = 0usize;
    for chunk in records.chunks(512) {
        online.ingest(chunk);
        peak_frames = peak_frames.max(online.resident_frames());
        let _ = online.snapshot(StreamOptions::default());
    }
    assert_eq!(online.ingested(), records.len());
    assert!(
        records.len() >= 8 * peak_frames,
        "the stream ({} frames) must dwarf the window ({peak_frames} frames)",
        records.len()
    );

    let before = LIVE.load(Ordering::Relaxed);
    drop(online);
    let owned = before.saturating_sub(LIVE.load(Ordering::Relaxed));
    let bound = K * FRAME_BYTES * peak_frames;
    eprintln!(
        "identifier owns {owned} B after {} frames; window peak {peak_frames} frames; bound {bound} B",
        records.len()
    );
    assert!(
        owned <= bound,
        "identifier owns {owned} B, over {K} x {FRAME_BYTES} B x {peak_frames} frames = {bound} B \
         after {} frames: its heap grows with the stream, not the window",
        records.len()
    );
}
