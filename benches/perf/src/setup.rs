//! Inputs shared by every workload: the corpus configuration, the
//! set-up steps `setup_s` times, and a timing chunk-stream wrapper.

use crate::calib::Calibration;
use crate::{median, THREADS};
use sno_synth::{MlabGenerator, SynthConfig};
use sno_types::chunk::RecordChunks;
use sno_types::codec::{EncodedCorpus, Encoder};
use sno_types::records::NdtRecord;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Corpus scale: 5e-3 of the paper's M-Lab volume (~62 k records). The
/// generator costs ~50 µs/record on one thread, so a streamed `table1`
/// job (two generation passes) takes ~6 s and a run still times several,
/// while the replayed and polled workloads see every operator's ASNs
/// and prefixes with enough tests for a KDE verdict.
pub const SCALE: f64 = 5e-3;

/// Chunk length of every streamed pass (`repro table1 --chunk 4096`).
pub const CHUNK_LEN: usize = 4096;

/// Records per arrival batch of the polled online workload.
pub const ARRIVAL_BATCH: usize = 1024;

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// The generator configuration of every workload: the default corpus
/// at [`SCALE`], seeded by the benchmark seed, on [`THREADS`] threads.
pub fn config(seed: u64) -> SynthConfig {
    SynthConfig {
        seed,
        scale: SCALE,
        threads: THREADS,
        ..SynthConfig::default_corpus()
    }
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Run a set-up step [`SETUP_REPEATS`] times; keep the last result and
/// report the median time. Earlier results are dropped before the next
/// repetition starts, so the peak RSS is that of one set-up. `calib`
/// reads the host's speed before, between and after the repetitions.
pub fn repeat_setup<T>(calib: &mut Calibration, mut step: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        calib.tick();
        let (out, secs) = timed(&mut step);
        times.push(secs);
        last = Some(out);
    }
    calib.tick();
    (last.expect("SETUP_REPEATS > 0"), median(&times))
}

/// Generate the corpus through the chunked generator and encode it to
/// SNOC, the in-tree binary corpus format.
pub fn encode_corpus(generator: &MlabGenerator) -> EncodedCorpus {
    encode_stream(generator.generate_chunks(CHUNK_LEN))
}

/// Encode every chunk of a stream.
pub fn encode_stream(mut stream: impl RecordChunks<Item = NdtRecord>) -> EncodedCorpus {
    let mut encoder = Encoder::new();
    while let Some(chunk) = stream.next_chunk() {
        encoder.extend_records(&chunk);
    }
    encoder.finish()
}

/// Split a record stream into its chunks (arrival batches).
pub fn collect_chunks<C: RecordChunks>(mut stream: C) -> Vec<Vec<C::Item>> {
    let mut chunks = Vec::new();
    while let Some(chunk) = stream.next_chunk() {
        chunks.push(chunk);
    }
    chunks
}

/// A chunk stream that adds the time spent inside the wrapped
/// `next_chunk` to `busy` and the records it yielded to `records`.
pub struct TimedChunks<'a, C> {
    pub inner: C,
    pub busy: &'a Cell<Duration>,
    pub records: &'a Cell<usize>,
}

impl<C: RecordChunks> RecordChunks for TimedChunks<'_, C> {
    type Item = C::Item;

    fn next_chunk(&mut self) -> Option<Vec<C::Item>> {
        let start = Instant::now();
        let chunk = self.inner.next_chunk();
        self.busy.set(self.busy.get() + start.elapsed());
        if let Some(chunk) = &chunk {
            self.records.set(self.records.get() + chunk.len());
        }
        chunk
    }
}
