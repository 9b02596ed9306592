//! Row/column equivalence over a full generated corpus: the columnar
//! batch builders, the columnar pipeline, the binary corpus codec, and
//! the grouped stability analysis must reproduce the row-at-a-time
//! results bit for bit.

use sno_bench::FIG4A_OPS;
use sno_dissect::core::analysis;
use sno_dissect::core::asn_map::map_asns;
use sno_dissect::core::pipeline::Pipeline;
use sno_dissect::core::{
    profiles_from_buckets, relaxed_thresholds, strict_filter_from_buckets, AcceptTable,
    CorpusStats, LatencyBands,
};
use sno_dissect::stats::{daily_medians, timeseries::daily_variation_p95};
use sno_dissect::synth::{MlabGenerator, SynthConfig};
use sno_dissect::types::chunk::RecordChunks;
use sno_dissect::types::{codec, RecordBatch};
use std::collections::BTreeMap;

/// The small-but-sharded corpus of `tests/par_determinism.rs`.
fn cfg() -> SynthConfig {
    SynthConfig {
        scale: 5e-5,
        min_sessions: 40,
        ..SynthConfig::test_corpus()
    }
}

#[test]
fn batch_builders_agree_with_row_records() {
    let corpus = MlabGenerator::new(cfg()).generate();
    let from_records = RecordBatch::from_records(&corpus.records);
    assert_eq!(from_records.len(), corpus.records.len());
    // Every column round-trips back into the source record.
    for (i, rec) in corpus.records.iter().enumerate() {
        assert_eq!(&from_records.record(i), rec, "record {i}");
    }
    // The chunked builder lands on the same batch at any chunk length.
    let generator = MlabGenerator::new(cfg());
    for chunk in [1usize, 1024, 1 << 30] {
        let from_chunks = RecordBatch::from_chunks(generator.generate_chunks(chunk));
        assert_eq!(from_chunks, from_records, "chunk {chunk}");
    }
}

#[test]
fn batch_pipeline_matches_row_pipeline() {
    // The row pipeline: the public stage functions over row-at-a-time
    // statistics, then one table decision per record.
    let corpus = MlabGenerator::new(cfg()).generate();
    let mapping = map_asns();
    let stats = CorpusStats::collect(&mapping, &corpus.records, 1);
    let profiles = profiles_from_buckets(&mapping, &stats.by_asn, LatencyBands::default(), 1);
    let strict = strict_filter_from_buckets(&profiles, &stats.by_prefix, 1);
    let (thresholds, default_threshold) = relaxed_thresholds(&strict);
    let verdicts: BTreeMap<_, _> = profiles
        .iter()
        .map(|p| (p.asn, p.verdict.clone()))
        .collect();
    let table = AcceptTable::build(&mapping, &verdicts, &thresholds, default_threshold);
    let accepted: Vec<_> = corpus
        .records
        .iter()
        .map(|rec| table.decide(rec.asn, rec.latency_p5.0))
        .collect();
    for threads in [1usize, 2, 8] {
        let col = Pipeline::with_threads(threads).run(&corpus.records);
        assert_eq!(col.accepted, accepted, "threads {threads}");
        assert_eq!(col.thresholds, thresholds, "threads {threads}");
        assert_eq!(
            col.default_threshold, default_threshold,
            "threads {threads}"
        );
        assert_eq!(
            format!("{:?}", col.profiles),
            format!("{profiles:?}"),
            "threads {threads}"
        );
        assert_eq!(
            format!("{:?}", col.strict),
            format!("{strict:?}"),
            "threads {threads}"
        );
        let mut counts: BTreeMap<_, u64> = BTreeMap::new();
        for op in accepted.iter().flatten() {
            *counts.entry(*op).or_default() += 1;
        }
        let mut catalog: Vec<_> = counts.into_iter().collect();
        catalog.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        assert_eq!(col.catalog, catalog, "threads {threads}");
    }
}

#[test]
fn codec_round_trips_a_generated_corpus() {
    let corpus = MlabGenerator::new(cfg()).generate();
    let encoded = codec::encode_records(&corpus.records);
    assert_eq!(encoded.len(), corpus.records.len());
    // Whole-buffer decode, chunked decode, and a byte-level round trip
    // all land on the source records.
    assert_eq!(encoded.decode_records(), corpus.records);
    for chunk in [1usize, 4096, 1 << 30] {
        assert_eq!(
            encoded.chunks(chunk).collect_records(),
            corpus.records,
            "chunk {chunk}"
        );
    }
    let reparsed = codec::EncodedCorpus::from_bytes(encoded.bytes().to_vec())
        .expect("self-produced bytes parse");
    assert_eq!(reparsed.decode_records(), corpus.records);
}

#[test]
fn grouped_stability_matches_per_operator_filter() {
    // The grouped single pass against a per-operator row filter.
    let corpus = MlabGenerator::new(cfg()).generate();
    let report = Pipeline::with_threads(1).run(&corpus.records);
    let ops = FIG4A_OPS.to_vec();
    let grouped = analysis::stability_by_operator(&corpus.records, &report, &ops);
    assert_eq!(grouped.len(), ops.len());
    for op in ops {
        let samples: Vec<_> = corpus
            .records
            .iter()
            .zip(&report.accepted)
            .filter(|&(_, acc)| *acc == Some(op))
            .map(|(rec, _)| (rec.timestamp, rec.latency_p5.0))
            .collect();
        let daily = daily_medians(&samples);
        let variation = daily_variation_p95(&daily);
        assert_eq!(grouped[&op], (daily, variation), "{op:?}");
    }
}
