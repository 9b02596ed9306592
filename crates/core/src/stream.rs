//! The streaming pipeline: bounded-memory identification over chunked
//! corpora.
//!
//! [`Pipeline::run`](crate::pipeline::Pipeline::run) materializes the
//! whole corpus and a dense per-record `Vec<Option<Operator>>`; at
//! paper scale (11.92 M sessions) neither fits comfortably in memory.
//! [`Pipeline::run_streamed`] reproduces the exact same report from a
//! re-streamable chunked source in two passes:
//!
//! 1. **Statistics pass** — every chunk is columnarized into a
//!    [`RecordBatch`] and folded into a [`CorpusStats`] accumulator
//!    (per-ASN latency samples for stage 3, per-`(operator, /24)`
//!    samples for the strict filter). Accumulators merge in shard
//!    order, so every bucket holds its samples in record order —
//!    byte-identical to the serial bucketing the materialized path
//!    performs.
//! 2. **Accept pass** — the records are streamed again and each is
//!    decided through the per-ASN [`AcceptTable`](crate::accept)
//!    derived from pass 1, emitting per-operator counts plus a compact
//!    [`AcceptBitmap`] (one bit per record) instead of the dense
//!    vector, unless the caller opts into it via [`StreamOptions`].
//!
//! By default pass 2 re-streams `source` (paying generation twice but
//! holding nothing). With [`StreamOptions::replay_encoded`] the first
//! pass also encodes every chunk into the compact binary corpus format
//! ([`sno_types::codec`], 52 bytes/record) and pass 2 replays those
//! bytes instead of regenerating — a memory-for-time trade the
//! bounded-corpus benchmarks opt into.
//!
//! Peak memory is the per-bucket statistics (latency samples, not
//! records) plus one generation wave — the corpus itself is never
//! resident (unless replay is requested). Equivalence with the
//! materialized path is pinned by `tests/stream_determinism.rs` at
//! chunk sizes {1, 1024, whole} × threads {1, 2, 8}, with and without
//! replay.

use crate::accept::{AcceptTable, AsnOps};
use crate::asn_map::{map_asns, AsnMapping};
use crate::pipeline::Pipeline;
use crate::prefix_filter::StrictOutcome;
use crate::validate::AsnProfile;
use sno_types::chunk::{self, RecordChunks};
use sno_types::codec;
use sno_types::records::NdtRecord;
use sno_types::{Asn, Operator, OrbitClass, Prefix24, RecordBatch};
use std::collections::BTreeMap;
use std::ops::Range;

/// Chunk length pass 2 decodes at when replaying an encoded corpus
/// (shared with the online identifier's snapshot replay).
pub(crate) const REPLAY_CHUNK_LEN: usize = 4096;

/// Per-chunk accumulator for the statistics pass: everything stages
/// 3–3c need, with the records themselves discarded.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    /// Records observed.
    pub records: usize,
    /// Per-ASN p5 latencies, in record order (stage-3 validation input).
    pub by_asn: BTreeMap<Asn, Vec<f64>>,
    /// Per-`(operator, /24)` samples for non-LEO operators, tagged with
    /// the source ASN so the strict filter can drop outlier ASNs after
    /// stage 3 rules (strict-filter input).
    pub by_prefix: BTreeMap<(Operator, Prefix24), Vec<(Asn, f64)>>,
}

impl CorpusStats {
    /// An empty accumulator.
    pub fn new() -> CorpusStats {
        CorpusStats::default()
    }

    /// Fold one record in.
    pub fn observe(&mut self, mapping: &AsnMapping, rec: &NdtRecord) {
        self.records += 1;
        self.by_asn
            .entry(rec.asn)
            .or_default()
            .push(rec.latency_p5.0);
        let Some(op) = mapping.operator_of(rec.asn) else {
            return;
        };
        let access = sno_registry::sources::access_of(op);
        if access.includes(OrbitClass::Leo) {
            return; // LEO is identified at ASN level
        }
        self.by_prefix
            .entry((op, rec.client.prefix24()))
            .or_default()
            .push((rec.asn, rec.latency_p5.0));
    }

    /// Merge `other` (the later shard) into `self`, appending per-key
    /// samples so bucket order equals record order when accumulators
    /// merge in shard order.
    pub fn merge(mut self, other: CorpusStats) -> CorpusStats {
        self.records += other.records;
        for (asn, mut latencies) in other.by_asn {
            self.by_asn.entry(asn).or_default().append(&mut latencies);
        }
        for (key, mut samples) in other.by_prefix {
            self.by_prefix.entry(key).or_default().append(&mut samples);
        }
        self
    }

    /// Fold a range of batch rows in, column-wise. Buckets come out
    /// identical to row-at-a-time [`CorpusStats::observe`] calls over
    /// the same rows; the per-ASN mapping/access lookups go through the
    /// prebuilt sorted [`AsnOps`] index instead of a linear scan per
    /// record.
    pub fn observe_batch(&mut self, index: &AsnOps, batch: &RecordBatch, range: Range<usize>) {
        let asns = &batch.asns()[range.clone()];
        let latencies = &batch.latency_p5()[range.clone()];
        let clients = &batch.clients()[range];
        self.records += asns.len();
        for ((&asn, &lat), client) in asns.iter().zip(latencies).zip(clients) {
            self.by_asn.entry(asn).or_default().push(lat);
            if let Some(op) = index.prefix_op(asn) {
                self.by_prefix
                    .entry((op, client.prefix24()))
                    .or_default()
                    .push((asn, lat));
            }
        }
    }

    /// Accumulate over a materialized slice, in parallel shards merged
    /// in shard order — the same buckets a serial pass would build.
    pub fn collect(mapping: &AsnMapping, records: &[NdtRecord], threads: usize) -> CorpusStats {
        chunk::accumulate(
            records.len(),
            1024,
            threads,
            CorpusStats::new(),
            |_, range| {
                let mut stats = CorpusStats::new();
                for rec in &records[range] {
                    stats.observe(mapping, rec);
                }
                stats
            },
            CorpusStats::merge,
        )
    }

    /// Accumulate over a columnar batch, in parallel shards merged in
    /// shard order — the same buckets [`CorpusStats::collect`] builds
    /// from the equivalent row slice.
    pub fn collect_batch(mapping: &AsnMapping, batch: &RecordBatch, threads: usize) -> CorpusStats {
        let index = AsnOps::new(mapping);
        chunk::accumulate(
            batch.len(),
            1024,
            threads,
            CorpusStats::new(),
            |_, range| {
                let mut stats = CorpusStats::new();
                stats.observe_batch(&index, batch, range);
                stats
            },
            CorpusStats::merge,
        )
    }
}

/// What the accept pass should keep beyond the catalog.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamOptions {
    /// Also keep the dense per-record `Vec<Option<Operator>>` (as the
    /// materialized report carries). Off by default — the bitmap plus
    /// counts serve the catalog paths.
    pub dense_acceptance: bool,
    /// Collect accepted latency samples per operator (the Figure 3c
    /// input) during the accept pass.
    pub operator_latencies: bool,
    /// Encode the statistics pass into the compact binary corpus format
    /// and replay those bytes in the accept pass instead of re-running
    /// `source`. Trades ~52 bytes/record of resident memory for paying
    /// generation once — off by default so the constant-memory
    /// guarantee holds; benchmarks and bounded corpora opt in.
    pub replay_encoded: bool,
    /// Emit a heartbeat line to stderr every this many records per pass
    /// (`0` = silent). Heartbeats are record-count based — never
    /// wall-clock — so they cannot perturb determinism; they make a
    /// multi-minute `--scale 1` run observable.
    pub progress_every: usize,
}

/// A compact per-record acceptance map: one bit per record, in stream
/// order.
#[derive(Debug, Clone, Default)]
pub struct AcceptBitmap {
    words: Vec<u64>,
    len: usize,
}

impl AcceptBitmap {
    /// An empty bitmap.
    pub fn new() -> AcceptBitmap {
        AcceptBitmap::default()
    }

    /// Append one record's accept/reject bit.
    pub fn push(&mut self, accepted: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if accepted {
            self.words[word] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Was record `i` accepted?
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Records recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no records were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Accepted records.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Append `other`'s bits after this bitmap's, preserving order —
    /// the merge step when per-chunk bitmaps fold in chunk order. The
    /// result is bit-for-bit what pushing `other`'s bits one at a time
    /// would build, including at non-word-aligned boundaries.
    pub fn append(&mut self, other: &AcceptBitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
            self.len += other.len;
            return;
        }
        for (i, &w) in other.words.iter().enumerate() {
            // shift != 0 implies a last word exists; `if let` keeps the
            // merge total instead of aborting on a broken invariant.
            if let Some(last) = self.words.last_mut() {
                *last |= w << shift;
            }
            // The high `shift` bits overflow into a fresh word — but
            // only when `other` actually has bits past this boundary.
            if i * 64 + (64 - shift) < other.len {
                self.words.push(w >> (64 - shift));
            }
        }
        self.len += other.len;
    }
}

/// Everything [`Pipeline::run_streamed`] produced. Field-for-field the
/// materialized [`PipelineReport`](crate::pipeline::PipelineReport),
/// except the dense acceptance vector is opt-in and the record count /
/// bitmap stand in for it.
#[derive(Debug, Clone)]
pub struct StreamedReport {
    /// Stage 1–2 output.
    pub mapping: AsnMapping,
    /// Stage 3 output: per-ASN band-mass profiles and verdicts.
    pub profiles: Vec<AsnProfile>,
    /// Stage 3b output.
    pub strict: StrictOutcome,
    /// Stage 3c: per-operator relaxed thresholds.
    pub thresholds: BTreeMap<Operator, f64>,
    /// Stage 3c: the default threshold for uncovered operators.
    pub default_threshold: f64,
    /// Records streamed.
    pub records: usize,
    /// Stage 4: the catalog — operators with accepted tests, by volume
    /// descending (Table 1).
    pub catalog: Vec<(Operator, u64)>,
    /// Per-record accept bit, in stream order.
    pub bitmap: AcceptBitmap,
    /// The dense acceptance vector, when
    /// [`StreamOptions::dense_acceptance`] asked for it.
    pub accepted: Option<Vec<Option<Operator>>>,
    /// Accepted latency samples per operator, when
    /// [`StreamOptions::operator_latencies`] asked for them.
    pub latencies_by_operator: Option<BTreeMap<Operator, Vec<f64>>>,
}

impl StreamedReport {
    /// Number of operators in the catalog.
    pub fn sno_count(&self) -> usize {
        self.catalog.len()
    }

    /// Records the accept pass kept.
    pub fn accepted_count(&self) -> usize {
        self.bitmap.count_ones()
    }
}

impl Pipeline {
    /// Run all stages over a re-streamable chunked source in bounded
    /// memory. `source` is called once per pass (statistics, then
    /// accept) and must yield the same record stream both times —
    /// chunked generators rebuilt from a seed satisfy this by
    /// construction.
    ///
    /// The report is byte-identical to [`Pipeline::run`] over the
    /// materialized stream, at any chunk length and thread count.
    // sno-lint: allow(panic-reachable): identification is total over validated batches; remaining reachable sites are leaf-justified length invariants in the columnar hot path
    pub fn run_streamed<C, F>(&self, source: F, opts: StreamOptions) -> StreamedReport
    where
        C: RecordChunks<Item = NdtRecord>,
        F: Fn() -> C,
    {
        // Stages 1–2: registry mapping + curation.
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);

        // Pass 1: columnarize each chunk and fold it into the
        // statistics accumulator, optionally encoding the stream for
        // replay. Chunks are mapped to per-chunk partials on the worker
        // pool and merged in chunk order on this thread, so every
        // bucket holds its samples in record order — byte-identical to
        // the serial fold at any thread count.
        let mut progress = Progress::new(opts.progress_every, "stats pass");
        let (stats, encoder) = chunk::par_fold_chunks(
            source(),
            self.threads,
            (
                CorpusStats::new(),
                opts.replay_encoded.then(codec::Encoder::new),
            ),
            |chunk| {
                let batch = RecordBatch::from_records(chunk);
                let mut part = CorpusStats::new();
                part.observe_batch(&index, &batch, 0..batch.len());
                let encoded = opts.replay_encoded.then(|| {
                    let mut enc = codec::Encoder::new();
                    enc.extend_records(chunk);
                    enc
                });
                (part, encoded)
            },
            |(stats, mut encoder), (part, part_enc)| {
                progress.advance(part.records);
                if let (Some(enc), Some(part_enc)) = (encoder.as_mut(), part_enc.as_ref()) {
                    enc.append(part_enc);
                }
                (stats.merge(part), encoder)
            },
        );

        // Stages 3–3c over the accumulated buckets, folded into the
        // per-ASN decision table. The buckets (one f64 per record) are
        // the dominant resident set at paper scale — release them
        // before pass 2 runs.
        let stages = self.derive_stages(&mapping, &stats);
        let total_records = stats.records;
        drop(stats);

        // Pass 2: decide each record — replaying the encoded bytes, or
        // re-streaming the source.
        let encoded = encoder.map(codec::Encoder::finish);
        let pass = match &encoded {
            Some(corpus) => accept_pass(
                &stages.table,
                corpus.chunks(REPLAY_CHUNK_LEN),
                opts,
                self.threads,
            ),
            None => accept_pass(&stages.table, source(), opts, self.threads),
        };
        debug_assert_eq!(pass.bitmap.len(), total_records, "source must re-stream");

        let mut catalog: Vec<(Operator, u64)> = pass.counts.into_iter().collect();
        catalog.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        StreamedReport {
            mapping,
            profiles: stages.profiles,
            strict: stages.strict,
            thresholds: stages.thresholds,
            default_threshold: stages.default_threshold,
            records: total_records,
            catalog,
            bitmap: pass.bitmap,
            accepted: pass.dense,
            latencies_by_operator: pass.latencies,
        }
    }
}

/// Record-count heartbeat state for one streaming pass: prints to
/// stderr every `every` records (never wall-clock, so the lint's
/// determinism rules hold), silent when `every == 0`.
struct Progress {
    every: usize,
    label: &'static str,
    done: usize,
}

impl Progress {
    fn new(every: usize, label: &'static str) -> Progress {
        Progress {
            every,
            label,
            done: 0,
        }
    }

    fn advance(&mut self, records: usize) {
        if self.every == 0 {
            self.done += records;
            return;
        }
        let before = self.done / self.every;
        self.done += records;
        if self.done / self.every > before {
            eprintln!("    [{}] {} records", self.label, self.done);
        }
    }
}

/// What one accept pass over a chunked stream produced (shared with the
/// online identifier's snapshot path).
#[derive(Debug, Clone)]
pub(crate) struct AcceptPass {
    pub(crate) counts: BTreeMap<Operator, u64>,
    pub(crate) bitmap: AcceptBitmap,
    pub(crate) dense: Option<Vec<Option<Operator>>>,
    pub(crate) latencies: Option<BTreeMap<Operator, Vec<f64>>>,
}

impl AcceptPass {
    pub(crate) fn empty(opts: StreamOptions) -> AcceptPass {
        AcceptPass {
            counts: BTreeMap::new(),
            bitmap: AcceptBitmap::new(),
            dense: opts.dense_acceptance.then(Vec::new),
            latencies: opts
                .operator_latencies
                .then(BTreeMap::<Operator, Vec<f64>>::new),
        }
    }

    /// Fold `other` (the later chunk) in after `self`, preserving record
    /// order in the bitmap, dense vector, and per-operator samples.
    pub(crate) fn absorb(&mut self, other: AcceptPass) {
        for (op, n) in other.counts {
            *self.counts.entry(op).or_default() += n;
        }
        self.bitmap.append(&other.bitmap);
        if let (Some(dense), Some(mut other)) = (self.dense.as_mut(), other.dense) {
            dense.append(&mut other);
        }
        if let (Some(by_op), Some(other)) = (self.latencies.as_mut(), other.latencies) {
            for (op, mut samples) in other {
                by_op.entry(op).or_default().append(&mut samples);
            }
        }
    }

    /// Decide one record into this pass — the row body of
    /// [`accept_pass`], shared with the compacted-slot replay so both
    /// build byte-identical state.
    pub(crate) fn decide_into(&mut self, table: &AcceptTable, asn: Asn, lat: f64) {
        let decision = table.decide(asn, lat);
        self.bitmap.push(decision.is_some());
        if let Some(op) = decision {
            *self.counts.entry(op).or_default() += 1;
            if let Some(by_op) = self.latencies.as_mut() {
                by_op.entry(op).or_default().push(lat);
            }
        }
        if let Some(dense) = self.dense.as_mut() {
            dense.push(decision);
        }
    }

    /// Merge `other` (the later chunk) after `self` by value (the
    /// fold-step shape).
    fn merge(mut self, other: AcceptPass) -> AcceptPass {
        self.absorb(other);
        self
    }
}

/// Decide every record of a chunked stream through the per-ASN table,
/// column-wise per chunk. Chunks are decided on the worker pool and the
/// per-chunk partials merge in chunk order, so counts, bitmap, dense
/// vector, and per-operator samples are byte-identical to a serial pass
/// at every thread count.
pub(crate) fn accept_pass<C>(
    table: &AcceptTable,
    stream: C,
    opts: StreamOptions,
    threads: usize,
) -> AcceptPass
where
    C: RecordChunks<Item = NdtRecord>,
    C::Item: Sync,
{
    let mut progress = Progress::new(opts.progress_every, "accept pass");
    chunk::par_fold_chunks(
        stream,
        threads,
        AcceptPass::empty(opts),
        |chunk| {
            let batch = RecordBatch::from_records(chunk);
            let mut part = AcceptPass::empty(opts);
            for (&asn, &lat) in batch.asns().iter().zip(batch.latency_p5()) {
                part.decide_into(table, asn, lat);
            }
            part
        },
        |acc, part| {
            progress.advance(part.bitmap.len());
            acc.merge(part)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sno_synth::{MlabGenerator, SynthConfig};
    use sno_types::chunk::slice_chunks;

    fn small_config() -> SynthConfig {
        SynthConfig {
            scale: 5e-5,
            min_sessions: 40,
            ..SynthConfig::test_corpus()
        }
    }

    #[test]
    fn bitmap_round_trips_bits() {
        let mut bitmap = AcceptBitmap::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        for &bit in &pattern {
            bitmap.push(bit);
        }
        assert_eq!(bitmap.len(), pattern.len());
        assert!(!bitmap.is_empty());
        for (i, &bit) in pattern.iter().enumerate() {
            assert_eq!(bitmap.get(i), bit, "bit {i}");
        }
        assert!(!bitmap.get(pattern.len()));
        assert_eq!(bitmap.count_ones(), pattern.iter().filter(|&&b| b).count());
    }

    #[test]
    fn bitmap_append_matches_bitwise_push_at_any_alignment() {
        let pattern: Vec<bool> = (0..300).map(|i| i % 3 == 0 || i % 11 == 0).collect();
        // Split the pattern at every alignment class and a few long
        // tails; appending the halves must equal pushing every bit.
        for split in [0, 1, 5, 63, 64, 65, 128, 200, 300] {
            let mut left = AcceptBitmap::new();
            for &bit in &pattern[..split] {
                left.push(bit);
            }
            let mut right = AcceptBitmap::new();
            for &bit in &pattern[split..] {
                right.push(bit);
            }
            left.append(&right);
            assert_eq!(left.len(), pattern.len(), "split {split}");
            for (i, &bit) in pattern.iter().enumerate() {
                assert_eq!(left.get(i), bit, "split {split} bit {i}");
            }
            assert_eq!(
                left.count_ones(),
                pattern.iter().filter(|&&b| b).count(),
                "split {split}"
            );
        }
        // Repeated small appends (the per-chunk merge shape).
        let mut acc = AcceptBitmap::new();
        for piece in pattern.chunks(7) {
            let mut part = AcceptBitmap::new();
            for &bit in piece {
                part.push(bit);
            }
            acc.append(&part);
        }
        for (i, &bit) in pattern.iter().enumerate() {
            assert_eq!(acc.get(i), bit, "chunked bit {i}");
        }
    }

    #[test]
    fn corpus_stats_parallel_collect_matches_serial() {
        let corpus = MlabGenerator::new(small_config()).generate();
        let mapping = map_asns();
        let mut serial = CorpusStats::new();
        for rec in &corpus.records {
            serial.observe(&mapping, rec);
        }
        for threads in [1, 2, 8] {
            let par = CorpusStats::collect(&mapping, &corpus.records, threads);
            assert_eq!(par.records, serial.records, "threads {threads}");
            assert_eq!(par.by_asn, serial.by_asn, "threads {threads}");
            assert_eq!(par.by_prefix, serial.by_prefix, "threads {threads}");
        }
    }

    #[test]
    fn corpus_stats_batch_collect_matches_row_collect() {
        let corpus = MlabGenerator::new(small_config()).generate();
        let mapping = map_asns();
        let serial = CorpusStats::collect(&mapping, &corpus.records, 1);
        let batch = sno_types::RecordBatch::from_records(&corpus.records);
        for threads in [1, 2, 8] {
            let columnar = CorpusStats::collect_batch(&mapping, &batch, threads);
            assert_eq!(columnar.records, serial.records, "threads {threads}");
            assert_eq!(columnar.by_asn, serial.by_asn, "threads {threads}");
            assert_eq!(columnar.by_prefix, serial.by_prefix, "threads {threads}");
        }
    }

    #[test]
    fn encoded_replay_matches_restreamed_pass() {
        let corpus = MlabGenerator::new(small_config()).generate();
        let opts_base = StreamOptions {
            dense_acceptance: true,
            operator_latencies: true,
            ..StreamOptions::default()
        };
        let restreamed =
            Pipeline::new().run_streamed(|| slice_chunks(&corpus.records, 512), opts_base);
        let replayed = Pipeline::new().run_streamed(
            || slice_chunks(&corpus.records, 512),
            StreamOptions {
                replay_encoded: true,
                ..opts_base
            },
        );
        assert_eq!(replayed.records, restreamed.records);
        assert_eq!(replayed.catalog, restreamed.catalog);
        assert_eq!(replayed.accepted, restreamed.accepted);
        assert_eq!(
            replayed.latencies_by_operator,
            restreamed.latencies_by_operator
        );
        for i in 0..restreamed.records {
            assert_eq!(replayed.bitmap.get(i), restreamed.bitmap.get(i), "bit {i}");
        }
    }

    #[test]
    fn streamed_report_matches_materialized_run() {
        let corpus = MlabGenerator::new(small_config()).generate();
        let materialized = Pipeline::new().run(&corpus.records);
        for chunk_len in [1usize, 1024, corpus.records.len()] {
            let streamed = Pipeline::new().run_streamed(
                || slice_chunks(&corpus.records, chunk_len),
                StreamOptions {
                    dense_acceptance: true,
                    ..StreamOptions::default()
                },
            );
            assert_eq!(streamed.records, corpus.records.len());
            assert_eq!(streamed.catalog, materialized.catalog, "chunk {chunk_len}");
            assert_eq!(
                streamed.default_threshold, materialized.default_threshold,
                "chunk {chunk_len}"
            );
            assert_eq!(
                streamed.thresholds, materialized.thresholds,
                "chunk {chunk_len}"
            );
            assert_eq!(
                streamed.strict.examined, materialized.strict.examined,
                "chunk {chunk_len}"
            );
            assert_eq!(
                streamed.accepted.as_deref(),
                Some(materialized.accepted.as_slice()),
                "chunk {chunk_len}"
            );
            for (i, acc) in materialized.accepted.iter().enumerate() {
                assert_eq!(streamed.bitmap.get(i), acc.is_some(), "bit {i}");
            }
        }
    }

    #[test]
    fn streamed_chunked_generation_matches_materialized_run() {
        let config = small_config();
        let corpus = MlabGenerator::new(config.clone()).generate();
        let materialized = Pipeline::new().run(&corpus.records);
        let generator = MlabGenerator::new(config);
        let streamed = Pipeline::new().run_streamed(
            || generator.generate_chunks(512),
            StreamOptions {
                operator_latencies: true,
                ..StreamOptions::default()
            },
        );
        assert_eq!(streamed.catalog, materialized.catalog);
        assert!(streamed.accepted.is_none());
        // The per-operator latency samples match a dense-scan rebuild.
        let by_op = streamed.latencies_by_operator.expect("requested");
        let mut expect: BTreeMap<Operator, Vec<f64>> = BTreeMap::new();
        for (rec, acc) in corpus.records.iter().zip(&materialized.accepted) {
            if let Some(op) = acc {
                expect.entry(*op).or_default().push(rec.latency_p5.0);
            }
        }
        assert_eq!(by_op, expect);
    }
}
