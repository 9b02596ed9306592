//! The online identification service: incremental ingest with
//! snapshot-on-demand reporting in O(delta), not O(corpus).
//!
//! The batch pipelines ([`Pipeline::run`] and [`Pipeline::run_streamed`])
//! assume the corpus is complete before stage 3 runs. A continuously
//! operating service instead receives measurement chunks in arrival-time
//! order and must answer "who are the SNOs right now?" at any point. The
//! [`OnlineIdentifier`] supports exactly that:
//!
//! * **Ingest** — each arriving chunk is columnarized and folded into the
//!   same [`CorpusStats`] accumulator the streamed pipeline uses (per-ASN
//!   latency buckets for stage-3 validation, per-`(operator, /24)` buckets
//!   for the strict filter) and appended to a compact codec replay log
//!   (~52 bytes/record). A windowed identifier keeps only the log (see
//!   below). Every ingest step is O(chunk), never O(corpus).
//! * **Merge** — identifiers built over disjoint shards of a stream merge
//!   in shard order into the exact state serial ingest would have built:
//!   `CorpusStats::merge` appends buckets and the replay logs
//!   concatenate byte-wise. This is what lets `sno_types::par` shard the
//!   ingest across threads without changing a single output byte. The
//!   absorbed shard must be *raw* — never compacted or evicted — because its
//!   frames land in the middle of the merged stream, where dropped bytes
//!   could no longer be re-decided on an epoch bump (merge-then-compact
//!   is sound; compact-then-merge is not — see DESIGN §7).
//! * **Snapshot** — [`OnlineIdentifier::snapshot`] re-derives stages
//!   3–3c through a memoizing [`StageCache`] (only buckets that grew
//!   since the last snapshot are re-evaluated) and compares the
//!   resulting [`AcceptTable`](crate::accept::AcceptTable) with the one
//!   the persistent [`AcceptState`] was decided under. *Unchanged* →
//!   only the frames appended since the last snapshot replay through
//!   the accept pass (O(delta)). *Shifted* → the *epoch* bumps and the
//!   whole stream is re-decided: compacted frames from their retained
//!   ASN slots plus the cumulative per-ASN latency buckets, resident
//!   frames from the log (the bounded re-replay).
//!   Either way the report is byte-identical to [`Pipeline::run_streamed`]
//!   over the same records — online verdicts *are* batch verdicts,
//!   pinned by `tests/online_determinism.rs` across interleaved
//!   ingest/snapshot/merge/compact schedules. The cache runs the same
//!   per-bucket derivation `run_streamed` runs with a fresh cache, and
//!   the report comes out of the same constructor.
//! * **Compaction** — [`OnlineIdentifier::compact`] drops the decided
//!   prefix of the replay log, retaining only each dropped frame's ASN
//!   (4 bytes instead of 52). An accept decision is a function of
//!   `(asn, latency_p5)` alone, and the cumulative per-ASN buckets
//!   already hold every latency in record order — so an epoch bump can
//!   replay compacted frames exactly, via per-ASN cursors into the
//!   buckets. Resident log size stays bounded by the frames ingested
//!   since the last `compact()`.
//!
//! With a sliding window ([`OnlineIdentifier::with_window`]), snapshots
//! first *evict* the leading run of frames older than `window_secs`
//! behind the newest timestamp seen — sound because the cutoff only
//! moves forward, so an expired frame can never re-enter a later
//! window — then hand the in-window records to
//! [`Pipeline::run_streamed`]. [`OnlineIdentifier::snapshot_full`], the
//! full-replay oracle, is `run_streamed` over the replay log. The
//! unwindowed default keeps the whole stream (resident or compacted)
//! and therefore matches the batch report exactly.

use crate::accept::{AcceptState, AsnOps};
use crate::asn_map::{map_asns, AsnMapping};
use crate::pipeline::{Pipeline, StageCache};
use crate::stream::{
    accept_pass, AcceptPass, CorpusStats, StreamOptions, StreamedReport, REPLAY_CHUNK_LEN,
};
use sno_types::chunk::slice_chunks;
use sno_types::records::NdtRecord;
use sno_types::{codec, RecordBatch, Timestamp};

/// Incremental SNO identification over an arriving measurement stream.
/// See the module docs for the state layout and merge contract.
#[derive(Debug, Clone)]
pub struct OnlineIdentifier {
    pipeline: Pipeline,
    mapping: AsnMapping,
    index: AsnOps,
    stats: CorpusStats,
    /// Bumped on every statistics mutation — the stage cache's
    /// whole-derivation key.
    stats_rev: u64,
    log: codec::Encoder,
    /// Records ingested over the identifier's lifetime (the log shrinks
    /// under compaction and eviction, so this is tracked explicitly).
    ingested: usize,
    /// ASNs of compacted frames, in stream order (unwindowed only): all
    /// an epoch-bump replay needs, since the cumulative per-ASN buckets
    /// hold the latencies.
    compacted_slots: Vec<u32>,
    /// Frames dropped by windowed eviction (windowed only).
    evicted: usize,
    window_secs: Option<u64>,
    latest: Option<Timestamp>,
    cache: StageCache,
    accept: AcceptState,
}

impl OnlineIdentifier {
    /// An identifier that keeps the whole stream (snapshots equal batch
    /// reports over everything ingested).
    pub fn new(pipeline: Pipeline) -> OnlineIdentifier {
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);
        OnlineIdentifier {
            pipeline,
            mapping,
            index,
            stats: CorpusStats::new(),
            stats_rev: 0,
            log: codec::Encoder::new(),
            ingested: 0,
            compacted_slots: Vec::new(),
            evicted: 0,
            window_secs: None,
            latest: None,
            cache: StageCache::default(),
            accept: AcceptState::new(),
        }
    }

    /// An identifier whose snapshots only consider records within
    /// `window_secs` of the newest timestamp ingested (a sliding
    /// window over near-time-ordered arrivals).
    pub fn with_window(pipeline: Pipeline, window_secs: u64) -> OnlineIdentifier {
        OnlineIdentifier {
            window_secs: Some(window_secs),
            ..OnlineIdentifier::new(pipeline)
        }
    }

    /// Ingest one chunk of records in arrival order.
    // sno-lint: allow(panic-reachable): identification is total over validated batches; remaining reachable sites are leaf-justified length invariants in the columnar hot path
    pub fn ingest(&mut self, records: &[NdtRecord]) {
        // A windowed identifier never reads the cumulative statistics
        // (every snapshot re-derives from the retained log), so it
        // skips accumulating them — the buckets would otherwise grow
        // with the whole stream, defeating the window's memory bound.
        if self.window_secs.is_none() {
            let batch = RecordBatch::from_records(records);
            self.stats
                .observe_batch(&self.index, &batch, 0..batch.len());
            self.stats_rev += 1;
        }
        self.log.extend_records(records);
        self.ingested += records.len();
        self.latest = self.latest.max(records.iter().map(|r| r.timestamp).max());
    }

    /// Merge another identifier (built over the *following* shard of the
    /// stream) into this one. Merging per-shard identifiers in shard
    /// order reproduces serial ingest exactly — state and snapshots are
    /// byte-identical.
    ///
    /// The absorbed shard must be raw: never compacted, never evicted.
    /// Its frames land in the middle of the merged stream, where an
    /// epoch bump must still be able to re-decide them from the log —
    /// so compact (and evict) only the accumulating side, *after* the
    /// merge. `self` may already be compacted: its decided prefix stays
    /// a prefix of the merged stream, so its accept state stays valid.
    // sno-lint: allow(panic-reachable): identification is total over validated batches; remaining reachable sites are leaf-justified length invariants in the columnar hot path
    pub fn merge(&mut self, other: OnlineIdentifier) {
        debug_assert_eq!(
            self.window_secs, other.window_secs,
            "merged identifiers must share a window"
        );
        debug_assert!(
            other.compacted_slots.is_empty() && other.evicted == 0,
            "merge absorbs raw shards; compact/evict only the accumulating side"
        );
        let caught_up = self.accept.decided() == self.ingested;
        self.stats = std::mem::take(&mut self.stats).merge(other.stats);
        self.stats_rev += 1;
        self.log.append(&other.log);
        self.ingested += other.ingested;
        self.latest = self.latest.max(other.latest);
        if other.accept.decided() > 0 {
            // Both sides have decided frames. Concatenating the accept
            // passes equals the serial pass only when self was fully
            // caught up (no undecided gap between the two decided runs)
            // and both decided under the same table — otherwise the
            // next snapshot re-decides from scratch.
            if !caught_up {
                self.accept.invalidate();
            } else {
                let _ = self.accept.merge(other.accept);
            }
        }
        // other.accept.decided() == 0: the shard contributes fresh
        // frames only; self's decided prefix is still a stream prefix.
    }

    /// Records ingested over the identifier's lifetime (compacted and
    /// evicted frames included).
    pub fn ingested(&self) -> usize {
        self.ingested
    }

    /// Frames currently resident in the replay log.
    pub fn resident_frames(&self) -> usize {
        self.log.len()
    }

    /// Bytes held by the replay log plus the compacted-slot store — the
    /// gauge the compaction bound is asserted on.
    pub fn resident_log_bytes(&self) -> usize {
        self.log.byte_len() + self.compacted_slots.len() * std::mem::size_of::<u32>()
    }

    /// How many times the accept table shifted under a snapshot,
    /// forcing a full re-decide (0 until the first snapshot).
    pub fn accept_epoch(&self) -> u64 {
        self.accept.epoch()
    }

    /// True when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.ingested == 0
    }

    /// The newest timestamp ingested.
    pub fn latest(&self) -> Option<Timestamp> {
        self.latest
    }

    /// Render the current state through the standard report path. The
    /// report is byte-identical to [`Pipeline::run_streamed`] over the
    /// same records (the whole stream, or the sliding window if one was
    /// configured).
    ///
    /// Unwindowed, the cost is O(frames since the last snapshot) while
    /// the derived accept table is stable, and O(stream) on the rare
    /// epoch bump. Windowed, expired frames are evicted first and the
    /// retained window replays in full.
    // sno-lint: allow(panic-reachable): identification is total over validated batches; remaining reachable sites are leaf-justified length invariants in the columnar hot path
    pub fn snapshot(&mut self, opts: StreamOptions) -> StreamedReport {
        match self.window_cutoff() {
            Some(cutoff) => self.windowed_snapshot(cutoff, opts),
            None => self.incremental_snapshot(opts),
        }
    }

    /// The unwindowed path: maintain the persistent accept state,
    /// deciding only what the current epoch has not decided yet.
    fn incremental_snapshot(&mut self, opts: StreamOptions) -> StreamedReport {
        let stages = self
            .cache
            .derive(&self.pipeline, &self.mapping, &self.stats, self.stats_rev);
        if !self.accept.compatible(&stages.table, opts) {
            // Epoch bump: the table shifted (or this is the first
            // snapshot / the pass shape changed) — re-decide the whole
            // stream. Compacted frames replay from their ASN slots,
            // resident frames from the log.
            self.accept.reset(stages.table.clone(), opts);
            self.accept
                .replay_compacted(&self.compacted_slots, &self.stats.by_asn);
            let pass = accept_pass(
                &stages.table,
                self.log.chunks(REPLAY_CHUNK_LEN),
                opts,
                self.pipeline.threads,
            );
            let frames = pass.bitmap.len();
            self.accept.absorb(pass, frames);
        } else if self.accept.decided() < self.ingested {
            // O(delta): only the frames appended since the last
            // snapshot. `decided` indexes the whole stream; the log
            // starts at frame `compacted_slots.len()`.
            let from = self.accept.decided() - self.compacted_slots.len();
            let pass = accept_pass(
                &stages.table,
                self.log.tail_chunks(from, REPLAY_CHUNK_LEN),
                opts,
                self.pipeline.threads,
            );
            let frames = pass.bitmap.len();
            self.accept.absorb(pass, frames);
        }
        debug_assert_eq!(self.accept.decided(), self.ingested);

        // The state always holds a pass here: the first snapshot (and
        // any invalidating merge) took the epoch-bump branch above.
        let pass = self
            .accept
            .pass()
            .cloned()
            .unwrap_or_else(|| AcceptPass::empty(opts));
        StreamedReport::assemble(self.mapping.clone(), stages, self.ingested, pass)
    }

    /// The full-replay reference snapshot: the streamed engine over the
    /// resident log, ignoring (and not touching) the persistent accept
    /// state and the stage cache. Kept as the oracle the incremental
    /// path is tested and benchmarked against. Unwindowed, uncompacted
    /// identifiers only: the whole stream must still be resident.
    // sno-lint: allow(panic-reachable): identification is total over validated batches; remaining reachable sites are leaf-justified length invariants in the columnar hot path
    pub fn snapshot_full(&self, opts: StreamOptions) -> StreamedReport {
        debug_assert!(
            self.window_secs.is_none() && self.compacted_slots.is_empty(),
            "snapshot_full replays the resident log; use snapshot() after compaction/windowing"
        );
        self.pipeline
            .run_streamed(|| self.log.chunks(REPLAY_CHUNK_LEN), opts)
    }

    /// Fold the decided prefix of the replay log into the persistent
    /// accept state and drop its frames, keeping only their ASN slots.
    /// Bounds the resident log to the frames ingested since the last
    /// snapshot-then-compact, at 4 bytes per compacted frame. No-op for
    /// windowed identifiers (they evict instead) and before the first
    /// snapshot (nothing is decided yet).
    // sno-lint: allow(panic-reachable): identification is total over validated batches; remaining reachable sites are leaf-justified length invariants in the columnar hot path
    pub fn compact(&mut self) {
        use sno_types::chunk::RecordChunks;
        if self.window_secs.is_some() {
            return;
        }
        let decided_resident = self
            .accept
            .decided()
            .saturating_sub(self.compacted_slots.len());
        if decided_resident == 0 {
            return;
        }
        let mut remaining = decided_resident;
        let mut chunks = self.log.chunks(REPLAY_CHUNK_LEN);
        while remaining > 0 {
            let Some(chunk) = chunks.next_chunk() else {
                break;
            };
            for rec in chunk.iter().take(remaining) {
                self.compacted_slots.push(rec.asn.0);
            }
            remaining = remaining.saturating_sub(chunk.len());
        }
        self.log.drop_front(decided_resident);
    }

    /// The oldest timestamp a windowed snapshot keeps, if a window is
    /// configured and anything has been ingested.
    fn window_cutoff(&self) -> Option<u64> {
        let window = self.window_secs?;
        let latest = self.latest?;
        Some(latest.0.saturating_sub(window))
    }

    /// The windowed path: evict the expired leading run of the log,
    /// then run the streamed engine over the retained window. Eviction
    /// is sound because `latest` (hence the cutoff) only moves forward:
    /// a frame older than today's cutoff is older than every future
    /// cutoff too, so dropping it can never change a later snapshot.
    /// Out-of-order stragglers *behind* newer frames are filtered per
    /// snapshot and evicted once the run ahead of them expires.
    fn windowed_snapshot(&mut self, cutoff: u64, opts: StreamOptions) -> StreamedReport {
        use sno_types::chunk::RecordChunks;
        self.evict(cutoff);
        // Collect the window from the retained log, filtering the
        // stragglers eviction could not reach (no clone of the encoder —
        // chunks borrow its bytes).
        let mut kept: Vec<NdtRecord> = Vec::new();
        let mut chunks = self.log.chunks(REPLAY_CHUNK_LEN);
        while let Some(chunk) = chunks.next_chunk() {
            kept.extend(chunk.into_iter().filter(|r| r.timestamp.0 >= cutoff));
        }
        self.pipeline
            .run_streamed(|| slice_chunks(&kept, REPLAY_CHUNK_LEN), opts)
    }

    /// Drop the leading run of frames older than `cutoff` from the
    /// replay log (windowed identifiers only).
    fn evict(&mut self, cutoff: u64) {
        use sno_types::chunk::RecordChunks;
        let mut expired = 0usize;
        let mut chunks = self.log.chunks(REPLAY_CHUNK_LEN);
        'scan: while let Some(chunk) = chunks.next_chunk() {
            for rec in &chunk {
                if rec.timestamp.0 >= cutoff {
                    break 'scan;
                }
                expired += 1;
            }
        }
        if expired > 0 {
            self.log.drop_front(expired);
            self.evicted += expired;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sno_types::chunk::{slice_chunks, RecordChunks};

    fn small_config() -> sno_synth::SynthConfig {
        sno_synth::SynthConfig {
            scale: 5e-5,
            min_sessions: 40,
            ..sno_synth::SynthConfig::test_corpus()
        }
    }

    fn corpus() -> Vec<NdtRecord> {
        sno_synth::MlabGenerator::new(small_config())
            .generate()
            .records
    }

    fn assert_reports_equal(a: &StreamedReport, b: &StreamedReport) {
        assert_eq!(a.records, b.records);
        assert_eq!(a.catalog, b.catalog);
        assert_eq!(a.thresholds, b.thresholds);
        assert_eq!(a.default_threshold, b.default_threshold);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.latencies_by_operator, b.latencies_by_operator);
        assert_eq!(a.strict.examined, b.strict.examined);
        for i in 0..a.records {
            assert_eq!(a.bitmap.get(i), b.bitmap.get(i), "bit {i}");
        }
    }

    #[test]
    fn snapshot_matches_streamed_pipeline() {
        let records = corpus();
        let opts = StreamOptions {
            dense_acceptance: true,
            operator_latencies: true,
            ..StreamOptions::default()
        };
        let batch_report = Pipeline::new().run_streamed(|| slice_chunks(&records, 512), opts);
        let mut online = OnlineIdentifier::new(Pipeline::new());
        let mut stream = slice_chunks(&records, 512);
        while let Some(chunk) = stream.next_chunk() {
            online.ingest(&chunk);
        }
        assert_eq!(online.ingested(), records.len());
        assert_reports_equal(&online.snapshot_full(opts), &batch_report);
        assert_reports_equal(&online.snapshot(opts), &batch_report);
    }

    #[test]
    fn repeated_snapshots_are_stable_and_tail_incremental() {
        let records = corpus();
        let opts = StreamOptions::default();
        let mut online = OnlineIdentifier::new(Pipeline::new());
        let (head, tail) = records.split_at(records.len() / 2);
        online.ingest(head);
        let first = online.snapshot(opts);
        assert_eq!(online.accept_epoch(), 1, "first snapshot opens epoch 1");
        // Unchanged corpus: the snapshot is answered from state alone.
        let again = online.snapshot(opts);
        assert_reports_equal(&first, &again);
        assert_eq!(online.accept_epoch(), 1);
        // Growing the corpus re-decides either just the tail (epoch
        // stable) or everything (epoch bump) — both must equal batch.
        online.ingest(tail);
        let full = online.snapshot(opts);
        let expect = Pipeline::new().run_streamed(|| slice_chunks(&records, 512), opts);
        assert_reports_equal(&full, &expect);
    }

    #[test]
    fn compaction_preserves_snapshots_and_bounds_the_log() {
        let records = corpus();
        let opts = StreamOptions::default();
        let expect = Pipeline::new().run_streamed(|| slice_chunks(&records, 512), opts);

        let mut online = OnlineIdentifier::new(Pipeline::new());
        let step = records.len() / 4 + 1;
        for chunk in records.chunks(step) {
            online.ingest(chunk);
            online.snapshot(opts);
            online.compact();
            // Everything decided is compacted away: the resident log
            // holds only the not-yet-snapshotted suffix (here: nothing).
            assert_eq!(online.resident_frames(), 0);
        }
        // Compacted slots cost 4 bytes/frame vs 52 resident.
        assert!(online.resident_log_bytes() < records.len() * 52 / 10);
        let report = online.snapshot(opts);
        assert_reports_equal(&report, &expect);
        assert_eq!(report.records, records.len());
    }

    #[test]
    fn compact_before_any_snapshot_is_a_noop() {
        let records = corpus();
        let mut online = OnlineIdentifier::new(Pipeline::new());
        online.ingest(&records);
        online.compact();
        assert_eq!(online.resident_frames(), records.len());
        let expect =
            Pipeline::new().run_streamed(|| slice_chunks(&records, 512), StreamOptions::default());
        assert_reports_equal(&online.snapshot(StreamOptions::default()), &expect);
    }

    #[test]
    fn sharded_merge_matches_serial_ingest() {
        let records = corpus();
        let mut serial = OnlineIdentifier::new(Pipeline::new());
        serial.ingest(&records);

        let bounds = [0, records.len() / 3, records.len() / 2, records.len()];
        let shards: Vec<OnlineIdentifier> = sno_types::par::shard_map(3, 2, |i| {
            let mut shard = OnlineIdentifier::new(Pipeline::new());
            shard.ingest(&records[bounds[i]..bounds[i + 1]]);
            shard
        });
        let mut merged = OnlineIdentifier::new(Pipeline::new());
        for shard in shards {
            merged.merge(shard);
        }
        assert_eq!(merged.ingested(), serial.ingested());
        let opts = StreamOptions {
            dense_acceptance: true,
            ..StreamOptions::default()
        };
        assert_reports_equal(&merged.snapshot(opts), &serial.snapshot(opts));
    }

    #[test]
    fn merge_into_snapshotted_and_compacted_identifier() {
        let records = corpus();
        let opts = StreamOptions::default();
        let (head, tail) = records.split_at(records.len() / 2);
        // Accumulating side: snapshot + compact before the merge.
        let mut acc = OnlineIdentifier::new(Pipeline::new());
        acc.ingest(head);
        acc.snapshot(opts);
        acc.compact();
        // Raw shard arrives and merges in.
        let mut shard = OnlineIdentifier::new(Pipeline::new());
        shard.ingest(tail);
        acc.merge(shard);
        assert_eq!(acc.ingested(), records.len());
        let expect = Pipeline::new().run_streamed(|| slice_chunks(&records, 512), opts);
        assert_reports_equal(&acc.snapshot(opts), &expect);
    }

    #[test]
    fn window_drops_old_records() {
        let records = corpus();
        let latest = records.iter().map(|r| r.timestamp.0).max().unwrap();
        let earliest = records.iter().map(|r| r.timestamp.0).min().unwrap();
        let window = (latest - earliest) / 2;
        let mut windowed = OnlineIdentifier::with_window(Pipeline::new(), window);
        windowed.ingest(&records);
        let report = windowed.snapshot(StreamOptions::default());
        // The windowed snapshot equals a batch run over the retained
        // suffix of the stream.
        let cutoff = latest - window;
        let kept: Vec<NdtRecord> = records
            .iter()
            .filter(|r| r.timestamp.0 >= cutoff)
            .cloned()
            .collect();
        assert!(kept.len() < records.len(), "window must drop something");
        let expect =
            Pipeline::new().run_streamed(|| slice_chunks(&kept, 512), StreamOptions::default());
        assert_reports_equal(&report, &expect);
    }

    #[test]
    fn windowed_eviction_bounds_the_resident_log() {
        // Time-ordered records: after a snapshot, everything older than
        // the cutoff must have left the log, not just the report.
        let mut records = corpus();
        records.sort_by_key(|r| r.timestamp.0);
        let latest = records.last().unwrap().timestamp.0;
        let earliest = records[0].timestamp.0;
        let window = (latest - earliest) / 4;
        let cutoff = latest - window;
        let in_window = records.iter().filter(|r| r.timestamp.0 >= cutoff).count();
        let mut windowed = OnlineIdentifier::with_window(Pipeline::new(), window);
        for chunk in records.chunks(512) {
            windowed.ingest(chunk);
        }
        assert_eq!(windowed.resident_frames(), records.len());
        windowed.snapshot(StreamOptions::default());
        assert_eq!(windowed.resident_frames(), in_window);
        assert_eq!(windowed.ingested(), records.len());
        assert!(windowed.resident_log_bytes() < records.len() * 52);
    }

    #[test]
    fn empty_identifier_snapshot() {
        let mut online = OnlineIdentifier::new(Pipeline::new());
        assert!(online.is_empty());
        assert_eq!(online.latest(), None);
        let report = online.snapshot(StreamOptions::default());
        assert_eq!(report.records, 0);
        assert!(report.catalog.is_empty());
    }
}
