//! Chunk-length and thread-count independence of the streaming corpus
//! path: chunked generation must yield exactly the records the
//! materialized generators yield, and the streamed pipeline (and the
//! experiment text built on it) must be byte-identical to the
//! materialized run at every chunk length × thread count.

use sno_bench::{run_experiment, ReproContext};
use sno_check::prelude::*;
use sno_dissect::atlas::{pop_rtt_series_by_probe, pop_rtt_series_from_chunks};
use sno_dissect::core::pipeline::Pipeline;
use sno_dissect::core::stream::StreamOptions;
use sno_dissect::synth::{AtlasGenerator, MlabGenerator, SynthConfig};
use sno_dissect::types::chunk::RecordChunks;
use sno_dissect::types::codec;

/// A chunk length larger than any corpus here: one chunk per stream.
const WHOLE: usize = 1 << 30;

/// The small-but-sharded corpus of `tests/par_determinism.rs`.
fn cfg(seed: u64, threads: usize) -> SynthConfig {
    SynthConfig {
        seed,
        threads,
        scale: 5e-5,
        min_sessions: 40,
        ..SynthConfig::test_corpus()
    }
}

#[test]
fn experiment_text_identical_streamed_and_materialized() {
    // The baseline: materialized corpora, serial.
    let baseline = ReproContext::with_config(cfg(0x5A7E_1117, 1));
    let table1 = run_experiment(&baseline, "table1").expect("known id");
    let fig3c = run_experiment(&baseline, "fig3c").expect("known id");
    for chunk in [1usize, 1024, WHOLE] {
        for threads in [1usize, 2, 8] {
            let ctx = ReproContext::with_chunk(cfg(0x5A7E_1117, threads), chunk);
            assert_eq!(
                run_experiment(&ctx, "table1").expect("known id"),
                table1,
                "table1 at chunk {chunk} threads {threads}"
            );
            assert_eq!(
                run_experiment(&ctx, "fig3c").expect("known id"),
                fig3c,
                "fig3c at chunk {chunk} threads {threads}"
            );
        }
    }
}

#[test]
fn streamed_pipeline_identical_across_chunk_and_thread_matrix() {
    // Both passes of the streamed pipeline run chunk-parallel now, so
    // this matrix also pins the parallel fold: partials must merge in
    // chunk order at every thread count (bitmap bits, dense verdicts,
    // and per-operator latency sample order included).
    let corpus = MlabGenerator::new(cfg(7, 0)).generate();
    let materialized = Pipeline::with_threads(1).run(&corpus.records);
    let opts = StreamOptions {
        dense_acceptance: true,
        operator_latencies: true,
        ..StreamOptions::default()
    };
    let serial_gen = MlabGenerator::new(cfg(7, 1));
    let serial = Pipeline::with_threads(1).run_streamed(|| serial_gen.generate_chunks(WHOLE), opts);
    for chunk in [1usize, 1024, WHOLE] {
        for threads in [1usize, 2, 8] {
            let generator = MlabGenerator::new(cfg(7, threads));
            let streamed = Pipeline::with_threads(threads)
                .run_streamed(|| generator.generate_chunks(chunk), opts);
            let label = format!("chunk {chunk} threads {threads}");
            assert_eq!(streamed.records, corpus.records.len(), "{label}");
            assert_eq!(streamed.catalog, materialized.catalog, "{label}");
            assert_eq!(streamed.thresholds, materialized.thresholds, "{label}");
            assert_eq!(
                streamed.default_threshold, materialized.default_threshold,
                "{label}"
            );
            assert_eq!(
                streamed.accepted.as_deref(),
                Some(materialized.accepted.as_slice()),
                "{label}"
            );
            assert_eq!(
                streamed.latencies_by_operator, serial.latencies_by_operator,
                "{label}"
            );
            let bits: Vec<bool> = (0..streamed.bitmap.len())
                .map(|i| streamed.bitmap.get(i))
                .collect();
            let serial_bits: Vec<bool> = (0..serial.bitmap.len())
                .map(|i| serial.bitmap.get(i))
                .collect();
            assert_eq!(bits, serial_bits, "{label}");
        }
    }
}

#[test]
fn encoded_replay_identical_across_chunk_and_thread_matrix() {
    // A corpus encoded once to the compact binary format and replayed
    // through the streamed pipeline (the path a caller takes to pay
    // generation once) must not change the report by a bit anywhere in
    // the matrix.
    let corpus = MlabGenerator::new(cfg(7, 0)).generate();
    let encoded = codec::encode_records(&corpus.records);
    let materialized = Pipeline::with_threads(1).run(&corpus.records);
    for chunk in [1usize, 1024, WHOLE] {
        for threads in [1usize, 2, 8] {
            let streamed = Pipeline::with_threads(threads).run_streamed(
                || encoded.chunks(chunk),
                StreamOptions {
                    dense_acceptance: true,
                    ..StreamOptions::default()
                },
            );
            let label = format!("replay chunk {chunk} threads {threads}");
            assert_eq!(streamed.records, corpus.records.len(), "{label}");
            assert_eq!(streamed.catalog, materialized.catalog, "{label}");
            assert_eq!(streamed.thresholds, materialized.thresholds, "{label}");
            assert_eq!(
                streamed.default_threshold, materialized.default_threshold,
                "{label}"
            );
            assert_eq!(
                streamed.accepted.as_deref(),
                Some(materialized.accepted.as_slice()),
                "{label}"
            );
        }
    }
}

#[test]
fn fig4a_text_identical_across_chunk_and_thread_matrix() {
    // Regression: fig4a used to materialize its own corpus with a bare
    // `Pipeline::new()`, so `repro --threads/--chunk` silently did not
    // apply to it. It now routes through the context like every other
    // experiment; the rendered text must be byte-identical everywhere.
    let baseline = ReproContext::with_config(cfg(0x5A7E_1117, 1));
    let fig4a = run_experiment(&baseline, "fig4a").expect("known id");
    for chunk in [1024usize, WHOLE] {
        for threads in [1usize, 2, 8] {
            let ctx = ReproContext::with_chunk(cfg(0x5A7E_1117, threads), chunk);
            assert_eq!(
                run_experiment(&ctx, "fig4a").expect("known id"),
                fig4a,
                "fig4a at chunk {chunk} threads {threads}"
            );
        }
    }
}

#[test]
fn atlas_series_identical_streamed_and_materialized() {
    let corpus = AtlasGenerator::new(cfg(1, 1)).generate();
    let series = pop_rtt_series_by_probe(&corpus.traceroutes);
    for chunk in [251usize, WHOLE] {
        for threads in [1usize, 2, 8] {
            let generator = AtlasGenerator::new(cfg(1, threads));
            let streamed = pop_rtt_series_from_chunks(generator.traceroute_chunks(chunk));
            assert_eq!(streamed, series, "chunk {chunk} threads {threads}");
        }
    }
}

#[test]
fn probes_identical_streamed_and_materialized() {
    let serial = AtlasGenerator::new(cfg(3, 1)).probes();
    for chunk in [1usize, 1024, WHOLE] {
        for threads in [1usize, 2, 8] {
            let got = AtlasGenerator::new(cfg(3, threads))
                .probe_chunks(chunk)
                .collect_records();
            assert_eq!(got, serial, "chunk {chunk} threads {threads}");
        }
    }
}

#[test]
fn sslcerts_identical_streamed_and_materialized() {
    // The chunked stream is per-probe chronological in probe-id order;
    // `sslcerts()` interleaves globally with a *stable* sort by
    // (timestamp, probe). The same stable sort over the chunked records
    // must reproduce it exactly — which also proves every per-probe
    // subsequence matches, the property the PoP-change detector needs.
    let serial = AtlasGenerator::new(cfg(3, 1)).sslcerts();
    for chunk in [1usize, 1024, WHOLE] {
        for threads in [1usize, 2, 8] {
            let mut got = AtlasGenerator::new(cfg(3, threads))
                .sslcert_chunks(chunk)
                .collect_records();
            got.sort_by_key(|s| (s.timestamp, s.probe.0));
            assert_eq!(got, serial, "chunk {chunk} threads {threads}");
        }
    }
}

#[test]
fn census_identical_streamed_and_materialized() {
    let serial = sno_dissect::synth::census_responses(11);
    for chunk in [1usize, 7, WHOLE] {
        let got = sno_dissect::synth::census_chunks(11, chunk).collect_records();
        assert_eq!(got, serial, "chunk {chunk}");
    }
}

#[test]
fn path_samples_identical_streamed_and_materialized() {
    use sno_dissect::synth::paths::PathSampler;
    use sno_dissect::types::Operator;
    let ops = [
        Operator::Starlink,
        Operator::Oneweb,
        Operator::O3b,
        Operator::Viasat,
        Operator::Hughes,
    ];
    let serial_sampler = PathSampler::new(cfg(5, 1));
    let serial: Vec<_> = ops
        .iter()
        .flat_map(|&op| serial_sampler.samples_for(op))
        .collect();
    assert!(!serial.is_empty());
    for chunk in [1usize, 1024, WHOLE] {
        for threads in [1usize, 2, 8] {
            let sampler = PathSampler::new(cfg(5, threads));
            let got = sampler.sample_chunks(&ops, chunk).collect_records();
            assert_eq!(got, serial, "chunk {chunk} threads {threads}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Chunked generation yields exactly the materialized records for
    /// *any* (seed, chunk length, thread count), not just the pinned
    /// matrix.
    #[test]
    fn any_seed_chunked_generation_matches_materialized(
        seed in any::<u64>(),
        chunk in prop_oneof![4 => 1..2_048usize, 1 => WHOLE..WHOLE + 1],
        threads in 1..9usize,
    ) {
        let generator = MlabGenerator::new(cfg(seed, threads));
        let streamed = generator.generate_chunks(*chunk).collect_records();
        let materialized = generator.generate();
        prop_assert_eq!(streamed.len(), materialized.records.len());
        prop_assert_eq!(streamed, materialized.records);
    }
}
