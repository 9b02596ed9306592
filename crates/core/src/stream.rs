//! The identification engine: bounded-memory identification over
//! chunked corpora.
//!
//! [`Pipeline::run_streamed`] is the one body every identification
//! entry point runs. It streams its chunked source once and makes two
//! passes over the records:
//!
//! 1. **Statistics pass** — every chunk is columnarized into a
//!    [`RecordBatch`] and folded into a [`CorpusStats`] accumulator
//!    (per-ASN latency samples for stage 3, per-`(operator, /24)`
//!    samples for the strict filter). Accumulators merge in chunk
//!    order, so every bucket holds its samples in record order at any
//!    chunk length and thread count. The same in-order fold appends
//!    each record's `(asn, latency_p5)` pair — the only two values
//!    pass 2 reads — to an anonymous spill file.
//! 2. **Accept pass** — the spill is read back in fixed blocks and each
//!    pair is decided through the per-ASN [`AcceptTable`](crate::accept)
//!    derived from pass 1, emitting per-operator counts plus a compact
//!    [`AcceptBitmap`] (one bit per record) instead of the dense
//!    vector, unless the caller opts into it via [`StreamOptions`].
//!
//! Stages 3–3c between the passes are a fresh [`StageCache`] derivation
//! (a cache with nothing memoized *is* the batch derivation). The
//! other entry points call this body:
//! [`Pipeline::run`](crate::pipeline::Pipeline::run) over one slice
//! with dense acceptance, and the online identifier's full-replay and
//! windowed snapshots over its replay log. Only the incremental online
//! snapshot derives through a persistent cache, and it builds its
//! report with the same constructor.
//!
//! The spill costs 12 bytes per record of disk under
//! [`std::env::temp_dir`] (`TMPDIR`), ~142 MB at paper scale, and no
//! resident memory beyond one small write buffer and one read block:
//! peak memory is the per-bucket statistics (latency samples, not
//! records) plus one generation wave. The file is unlinked as soon as
//! it is opened, so a killed run leaves nothing behind. If any spill
//! I/O fails, pass 2 re-streams `source` instead, and the report is
//! byte-identical either way. Chunk-length and thread-count
//! independence is pinned by `tests/stream_determinism.rs` at chunk
//! sizes {1, 1024, whole} × threads {1, 2, 8}, over generated and
//! encoded sources.

use crate::accept::{AcceptTable, AsnOps};
use crate::asn_map::{map_asns, AsnMapping};
use crate::pipeline::{DerivedStages, Pipeline, StageCache};
use crate::prefix_filter::StrictOutcome;
use crate::validate::AsnProfile;
use sno_types::chunk::{self, RecordChunks};
use sno_types::records::NdtRecord;
use sno_types::{Asn, Operator, OrbitClass, Prefix24, RecordBatch};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Chunk length for in-memory sources: [`Pipeline::run`]'s slice and
/// the online identifier's replay log.
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

impl StreamedReport {
    /// Assemble a report from stages 1–3c and an accept pass over
    /// `records` records: the counts sort into the catalog (by volume
    /// descending, then operator). The one report constructor — the
    /// streamed run and the incremental online snapshot both end here.
    pub(crate) fn assemble(
        mapping: AsnMapping,
        stages: DerivedStages,
        records: usize,
        pass: AcceptPass,
    ) -> StreamedReport {
        let mut catalog: Vec<(Operator, u64)> = pass.counts.into_iter().collect();
        catalog.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        StreamedReport {
            mapping,
            profiles: stages.profiles,
            strict: stages.strict,
            thresholds: stages.thresholds,
            default_threshold: stages.default_threshold,
            records,
            catalog,
            bitmap: pass.bitmap,
            accepted: pass.dense,
            latencies_by_operator: pass.latencies,
        }
    }
}

impl Pipeline {
    /// Run all stages over a chunked source in bounded memory.
    /// `source` is called once: pass 1 spills the `(asn, latency)`
    /// pairs pass 2 needs to an unlinked temp file (12 B/record of disk
    /// under `TMPDIR`). Only if a spill I/O step fails — create, write,
    /// read, or a pair count that differs from the records seen — is
    /// `source` called a second time and re-streamed, so it must yield
    /// the same record stream on every call; chunked generators rebuilt
    /// from a seed satisfy this by construction.
    ///
    /// The report is byte-identical at any chunk length and thread
    /// count, spilled or re-streamed.
    // sno-lint: allow(panic-reachable): identification is total over validated batches; remaining reachable sites are leaf-justified length invariants in the columnar hot path
    pub fn run_streamed<C, F>(&self, source: F, opts: StreamOptions) -> StreamedReport
    where
        C: RecordChunks<Item = NdtRecord>,
        F: Fn() -> C,
    {
        self.streamed_with_spill(source, opts, Spill::create())
    }

    /// [`Pipeline::run_streamed`] with the spill supplied, so tests can
    /// inject a failed or broken one.
    fn streamed_with_spill<C, F>(
        &self,
        source: F,
        opts: StreamOptions,
        spill: io::Result<Spill>,
    ) -> StreamedReport
    where
        C: RecordChunks<Item = NdtRecord>,
        F: Fn() -> C,
    {
        // Stages 1–2: registry mapping + curation.
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);

        // Pass 1: columnarize each chunk and fold it into the
        // statistics accumulator. Chunks are mapped to per-chunk
        // partials on the worker pool and merged in chunk order on this
        // thread, so every bucket holds its samples in record order —
        // byte-identical to the serial fold at any thread count — and
        // the spill holds the pairs in record order.
        let mut spill = spill.ok();
        let mut progress = Progress::new(opts.progress_every, "stats pass");
        let stats = chunk::par_fold_chunks(
            source(),
            self.threads,
            CorpusStats::new(),
            |chunk| {
                let batch = RecordBatch::from_records(chunk);
                let mut part = CorpusStats::new();
                part.observe_batch(&index, &batch, 0..batch.len());
                (part, spill_pairs(&batch))
            },
            |stats, (part, pairs)| {
                progress.advance(part.records);
                // A failed write drops the spill; pass 2 then re-streams.
                if spill.as_mut().is_some_and(|s| s.write(&pairs).is_err()) {
                    spill = None;
                }
                stats.merge(part)
            },
        );

        // Stages 3–3c over the accumulated buckets, folded into the
        // per-ASN decision table. The buckets (one f64 per record) are
        // the dominant resident set at paper scale — release them
        // before pass 2 runs.
        let stages = StageCache::default().derive(self, &mapping, &stats, 0);
        let records = stats.records;
        drop(stats);

        // Pass 2: decide each spilled pair, or re-stream the source if
        // the spill failed anywhere.
        let pass = spill
            .and_then(|s| s.replay(&stages.table, records, opts).ok())
            .unwrap_or_else(|| accept_pass(&stages.table, source(), opts, self.threads));
        debug_assert_eq!(pass.bitmap.len(), records, "pass 2 must see every record");
        StreamedReport::assemble(mapping, stages, records, pass)
    }
}

/// Bytes per spilled record: `asn: u32` then `latency_p5.to_bits():
/// u64`, both little-endian.
const PAIR_LEN: usize = 12;

/// Pairs per read block in the spilled accept pass.
const SPILL_BLOCK: usize = REPLAY_CHUNK_LEN;

/// Distinguishes the spills of concurrent runs in one process.
static SPILL_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Pass 1's `(asn, latency_p5)` pairs, in record order, on disk.
struct Spill {
    writer: BufWriter<File>,
    pairs: usize,
}

impl Spill {
    /// A fresh spill in [`std::env::temp_dir`]: created exclusively,
    /// owner-only, and unlinked at once — the open handle keeps the
    /// data, and nothing outlives the run.
    fn create() -> io::Result<Spill> {
        if !cfg!(unix) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "an open spill file can be unlinked on Unix only",
            ));
        }
        let name = format!(
            "sno-spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = std::env::temp_dir().join(name);
        let mut options = OpenOptions::new();
        options.read(true).write(true).create_new(true);
        #[cfg(unix)]
        std::os::unix::fs::OpenOptionsExt::mode(&mut options, 0o600);
        let file = options.open(&path)?;
        std::fs::remove_file(&path)?;
        Ok(Spill::from_file(file))
    }

    /// Spill into `file`, which must be open for reading and writing.
    fn from_file(file: File) -> Spill {
        Spill {
            writer: BufWriter::with_capacity(8 << 10, file),
            pairs: 0,
        }
    }

    /// Append encoded pairs (see [`spill_pairs`]).
    fn write(&mut self, pairs: &[u8]) -> io::Result<()> {
        self.writer.write_all(pairs)?;
        self.pairs += pairs.len() / PAIR_LEN;
        Ok(())
    }

    /// The accept pass over the spilled pairs, read back in blocks of
    /// [`SPILL_BLOCK`] pairs. Fails unless exactly `records` pairs were
    /// spilled and all of them read back.
    fn replay(
        self,
        table: &AcceptTable,
        records: usize,
        opts: StreamOptions,
    ) -> io::Result<AcceptPass> {
        if self.pairs != records {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "spilled pairs differ from the records seen",
            ));
        }
        let mut file = self.writer.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(0))?;
        let mut progress = Progress::new(opts.progress_every, "accept pass");
        let mut pass = AcceptPass::empty(opts);
        let mut block = vec![0; records.min(SPILL_BLOCK) * PAIR_LEN];
        let mut remaining = records;
        while remaining > 0 {
            let n = remaining.min(SPILL_BLOCK);
            block.truncate(n * PAIR_LEN);
            file.read_exact(&mut block)?;
            for &[a0, a1, a2, a3, ref lat @ ..] in block.as_chunks::<PAIR_LEN>().0 {
                let asn = Asn(u32::from_le_bytes([a0, a1, a2, a3]));
                pass.decide_into(table, asn, f64::from_bits(u64::from_le_bytes(*lat)));
            }
            progress.advance(n);
            remaining -= n;
        }
        Ok(pass)
    }
}

/// One batch's `(asn, latency_p5)` pairs in spill encoding: raw
/// `to_bits`, so NaN payloads and signed zeros survive.
fn spill_pairs(batch: &RecordBatch) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(batch.len() * PAIR_LEN);
    for (asn, lat) in batch.asns().iter().zip(batch.latency_p5()) {
        bytes.extend_from_slice(&asn.0.to_le_bytes());
        bytes.extend_from_slice(&lat.to_bits().to_le_bytes());
    }
    bytes
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
    use sno_check::prelude::*;
    use sno_synth::{MlabGenerator, SynthConfig};
    use sno_types::chunk::slice_chunks;
    use sno_types::{Ipv4, Mbps, Millis, Timestamp};
    use std::cell::Cell;

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
        let index = AsnOps::new(&mapping);
        let serial = CorpusStats::collect(&mapping, &corpus.records, 1);
        let batch = sno_types::RecordBatch::from_records(&corpus.records);
        // Column-wise folds over ranges of any length, merged in order.
        for step in [1usize, 1024, batch.len()] {
            let mut columnar = CorpusStats::new();
            for start in (0..batch.len()).step_by(step) {
                let mut part = CorpusStats::new();
                part.observe_batch(&index, &batch, start..(start + step).min(batch.len()));
                columnar = columnar.merge(part);
            }
            assert_eq!(columnar.records, serial.records, "step {step}");
            assert_eq!(columnar.by_asn, serial.by_asn, "step {step}");
            assert_eq!(columnar.by_prefix, serial.by_prefix, "step {step}");
        }
    }

    #[test]
    fn encoded_replay_matches_restreamed_pass() {
        let corpus = MlabGenerator::new(small_config()).generate();
        let encoded = sno_types::codec::encode_records(&corpus.records);
        let opts = StreamOptions {
            dense_acceptance: true,
            operator_latencies: true,
            ..StreamOptions::default()
        };
        let restreamed = Pipeline::new().run_streamed(|| slice_chunks(&corpus.records, 512), opts);
        for chunk in [1usize, 512, corpus.records.len()] {
            for threads in [1usize, 2] {
                let replayed =
                    Pipeline::with_threads(threads).run_streamed(|| encoded.chunks(chunk), opts);
                assert_eq!(
                    format!("{replayed:?}"),
                    format!("{restreamed:?}"),
                    "chunk {chunk} threads {threads}"
                );
            }
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

    fn all_outputs() -> StreamOptions {
        StreamOptions {
            dense_acceptance: true,
            operator_latencies: true,
            ..StreamOptions::default()
        }
    }

    /// A file in the temp directory, unlinked once `open` has its
    /// handle.
    fn unlinked(tag: &str, open: impl FnOnce(&std::path::Path) -> File) -> File {
        let path =
            std::env::temp_dir().join(format!("sno-spill-test-{}-{tag}", std::process::id()));
        let file = open(&path);
        std::fs::remove_file(&path).expect("remove scratch file");
        file
    }

    #[test]
    fn source_is_called_once() {
        let corpus = MlabGenerator::new(small_config()).generate();
        let calls = Cell::new(0);
        let report = Pipeline::with_threads(2).run_streamed(
            || {
                calls.set(calls.get() + 1);
                slice_chunks(&corpus.records, 512)
            },
            all_outputs(),
        );
        assert_eq!(calls.get(), 1);
        assert_eq!(report.records, corpus.records.len());
        assert_eq!(report.bitmap.len(), corpus.records.len());
    }

    #[test]
    fn spill_failure_falls_back_byte_identically() {
        let corpus = MlabGenerator::new(small_config()).generate();
        let pipeline = Pipeline::with_threads(2);
        let spilled = pipeline.run_streamed(|| slice_chunks(&corpus.records, 512), all_outputs());
        // A spill that already holds one pair more than the corpus.
        let mut miscounted = Spill::create().expect("create spill");
        miscounted.write(&[0; PAIR_LEN]).expect("write spill");
        let failures: [(&str, io::Result<Spill>); 4] = [
            ("create", Err(io::Error::other("no temp dir"))),
            // `File::create` is write-only: the read-back fails.
            (
                "read",
                Ok(Spill::from_file(unlinked("read", |p| {
                    File::create(p).expect("create scratch file")
                }))),
            ),
            // A read-only handle: the first write fails.
            (
                "write",
                Ok(Spill::from_file(unlinked("write", |p| {
                    File::create(p).expect("create scratch file");
                    File::open(p).expect("open scratch file")
                }))),
            ),
            ("count", Ok(miscounted)),
        ];
        for (what, spill) in failures {
            let calls = Cell::new(0);
            let fallback = pipeline.streamed_with_spill(
                || {
                    calls.set(calls.get() + 1);
                    slice_chunks(&corpus.records, 512)
                },
                all_outputs(),
                spill,
            );
            assert_eq!(calls.get(), 2, "{what}: the fallback re-streams");
            assert_eq!(
                format!("{fallback:?}"),
                format!("{spilled:?}"),
                "{what} failure"
            );
        }
    }

    #[test]
    fn spill_leaves_nothing_in_the_temp_dir() {
        let prefix = format!("sno-spill-{}-", std::process::id());
        let leftovers = || -> Vec<std::ffi::OsString> {
            std::fs::read_dir(std::env::temp_dir())
                .expect("read temp dir")
                .filter_map(|e| e.ok().map(|e| e.file_name()))
                .filter(|name| name.to_string_lossy().starts_with(&prefix))
                .collect()
        };
        let spill = Spill::create().expect("create spill");
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            let mode = spill.writer.get_ref().metadata().expect("stat spill");
            assert_eq!(mode.permissions().mode() & 0o777, 0o600);
        }
        drop(spill);
        let corpus = MlabGenerator::new(small_config()).generate();
        Pipeline::new().run_streamed(|| slice_chunks(&corpus.records, 512), all_outputs());
        // Other tests in this process spill concurrently, and their
        // files exist for the instant between open and unlink; a leaked
        // file is still there half a second later.
        let mut leaked = leftovers();
        for _ in 0..20 {
            if leaked.is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
            let now = leftovers();
            leaked.retain(|name| now.contains(name));
        }
        assert!(leaked.is_empty(), "leaked spill files: {leaked:?}");
    }

    /// Latency class `kind` drawn from `bits` and `unit` in [0, 1):
    /// values no generator emits but a caller can feed in — NaNs with
    /// payloads, signed zeros, infinities, subnormals, negatives — plus
    /// ordinary values around the thresholds.
    fn hostile_latency(kind: usize, bits: u64, unit: f64) -> f64 {
        let sign = bits & 1 << 63;
        match kind {
            0 => f64::from_bits(bits | 0x7ff0_0000_0000_0001), // NaN, any payload
            1 => f64::from_bits(sign),                         // ±0
            2 => f64::from_bits(sign | 0x7ff0_0000_0000_0000), // ±∞
            3 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff), // ±subnormal
            4 => -1e6 * unit,
            _ => 20.0 + 880.0 * unit,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The spilled accept pass equals `accept_pass` over the same
        /// records bit for bit, hostile latencies included.
        #[test]
        fn spilled_pass_round_trips_hostile_latencies(
            rows in prop::collection::vec((0..6usize, 0..7usize, any::<u64>(), 0.0..1.0f64), 1..300),
        ) {
            // Starlink (LEO), O3b (MEO), Hughes and Marlink (GEO), and
            // an ASN no registry knows.
            const ASNS: [u32; 6] = [14593, 14593, 60725, 6621, 5377, 999_999];
            let records: Vec<NdtRecord> = rows
                .iter()
                .enumerate()
                .map(|(i, &(a, kind, bits, unit))| NdtRecord {
                    timestamp: Timestamp(1_000 + i as u64),
                    client: Ipv4::new(61, 0, (i % 3) as u8, 10),
                    asn: Asn(ASNS[a]),
                    latency_p5: Millis(hostile_latency(kind, bits, unit)),
                    jitter_p95: Millis(1.0),
                    retrans_fraction: 0.01,
                    download: Mbps(10.0),
                })
                .collect();
            let mapping = map_asns();
            let latency_bits = |by_op: &Option<BTreeMap<Operator, Vec<f64>>>| {
                by_op.as_ref().map(|m| {
                    m.iter()
                        .map(|(op, l)| (*op, l.iter().map(|x| x.to_bits()).collect::<Vec<_>>()))
                        .collect::<Vec<_>>()
                })
            };
            for chunk in [1usize, 7, 4096] {
                for threads in [1usize, 2] {
                    let pipeline = Pipeline::with_threads(threads);
                    let spilled = pipeline.streamed_with_spill(
                        || slice_chunks(&records, chunk),
                        all_outputs(),
                        Spill::create(),
                    );
                    let stats = CorpusStats::collect(&mapping, &records, threads);
                    let stages = StageCache::default().derive(&pipeline, &mapping, &stats, 0);
                    let oracle = accept_pass(
                        &stages.table,
                        slice_chunks(&records, chunk),
                        all_outputs(),
                        threads,
                    );
                    let at = format!("chunk {chunk} threads {threads}");
                    prop_assert_eq!(spilled.records, records.len(), "{}", at);
                    prop_assert_eq!(
                        format!("{:?}", spilled.bitmap),
                        format!("{:?}", oracle.bitmap),
                        "{}", at
                    );
                    prop_assert_eq!(&spilled.accepted, &oracle.dense, "{}", at);
                    prop_assert_eq!(
                        latency_bits(&spilled.latencies_by_operator),
                        latency_bits(&oracle.latencies),
                        "{}", at
                    );
                    let counts: BTreeMap<Operator, u64> = spilled.catalog.iter().copied().collect();
                    prop_assert_eq!(counts, oracle.counts, "{}", at);
                }
            }
        }
    }
}
