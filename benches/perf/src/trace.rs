//! The traced run: times each layer from outside, by composing the
//! layers' public functions with a span around every call.
//!
//! Every workload's traced run profiles the same layers over that
//! workload's corpus, so every per-layer metric exists for every
//! workload. What differs per workload is the job the tracing overhead
//! and the stage-sum check are taken against: the streamed `table1`
//! job, the replayed identification job, or one online polling pass.

use crate::check::streamed_diff;
use crate::setup::{
    collect_chunks, config, encode_stream, timed, TimedChunks, ARRIVAL_BATCH, CHUNK_LEN,
};
use crate::{median, Metric, Outcome, Workload, THREADS};
use sno_core::accept::AsnOps;
use sno_core::asn_map::map_asns;
use sno_core::prefix_filter::strict_filter_from_buckets;
use sno_core::validate::{profile_one, profiles_from_buckets, MIN_TESTS_FOR_VERDICT};
use sno_core::{
    relaxed_thresholds, AcceptBitmap, AcceptTable, CorpusStats, LatencyBands, OnlineIdentifier,
    Pipeline, StreamOptions, StreamedReport,
};
use sno_netsim::{PepMode, TcpConfig, TcpFlow};
use sno_registry::prefixes::allocation_for;
use sno_registry::profile::profile_of;
use sno_synth::paths::scatter;
use sno_synth::{ClientPath, MlabGenerator};
use sno_types::chunk::{slice_chunks, RecordChunks};
use sno_types::codec::EncodedCorpus;
use sno_types::records::NdtRecord;
use sno_types::time::SECS_PER_DAY;
use sno_types::{par, Asn, LinkKind, Operator, OrbitClass, RecordBatch, Rng, UtcDay};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Untraced/traced pairs of the replayed identification job.
const IDENTIFY_REPS: usize = 25;
/// Untraced/traced pairs of one online polling pass.
const ONLINE_REPS: usize = 7;
/// Untraced/traced pairs of the streamed `table1` job.
const TABLE1_REPS: usize = 3;
/// Clones of the loaded identifier timed per snapshot delta.
const DELTA_REPS: usize = 5;
/// Fresh frames ingested before each timed delta snapshot.
const DELTAS: [usize; 3] = [0, 1024, 65_536];
/// Sessions sampled per orbit class for the generator split.
const SPLIT_SESSIONS: usize = 1_000;
/// How far `trace.stage_sum_ratio` may sit from 1 before the stage-sum
/// check reports that the traced stages do not account for the job.
const STAGE_SUM_TOLERANCE: f64 = 0.2;

/// Counts of the traced run's own output checks.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn expect_empty(&mut self, what: &str, diffs: Vec<String>) {
        self.attempted += 1;
        if !diffs.is_empty() {
            self.failed += 1;
            eprintln!("sno-perfbench: check failed: {what}: {}", diffs.join("; "));
        }
    }
}

pub fn run(workload: Workload, seed: u64) -> Outcome {
    let mut checks = Checks::default();
    let generator = MlabGenerator::new(config(seed));
    let pipeline = Pipeline::with_threads(THREADS);

    // Set-up, with the generator behind the timing wrapper.
    let busy = Cell::new(Duration::ZERO);
    let pulled = Cell::new(0);
    let corpus = encode_stream(TimedChunks {
        inner: generator.generate_chunks(CHUNK_LEN),
        busy: &busy,
        records: &pulled,
    });
    let arrivals = collect_chunks(corpus.chunks(ARRIVAL_BATCH));

    let ident = profile_identify(&pipeline, &corpus, &mut checks);
    // Generation plus identification for the streamed job: every stage
    // but the decode, which that job does not run.
    let ident_ms = ident.stage_sum_ms() - ident.decode_ms;
    let online = profile_online(&arrivals, &mut checks);
    let split = generator_split(seed);

    // The workload's own job: generator time and the tracing ratios.
    let setup_busy_ms = busy.get().as_secs_f64() * 1e3;
    let (gen_busy_ms, gen_records, ratios) = match workload {
        Workload::Table1Streamed => {
            let t1 = profile_table1(&pipeline, &generator, ident_ms, &mut checks);
            (t1.gen_busy_ms, t1.gen_records, t1.ratios)
        }
        Workload::IdentifyReplay => (setup_busy_ms, pulled.get() as f64, ident.ratios),
        Workload::OnlinePoll => (setup_busy_ms, pulled.get() as f64, online.ratios),
    };
    let (overhead, stage_sum) = (ratios.overhead, ratios.stage_sum);

    let verdict = if (stage_sum - 1.0).abs() <= STAGE_SUM_TOLERANCE {
        "holds"
    } else {
        "FAILS"
    };
    eprintln!(
        "sno-perfbench: stage-sum check {verdict}: traced stages / untraced job = {stage_sum:.3} (tolerance ±{STAGE_SUM_TOLERANCE})"
    );

    let ms = "ms";
    let count = "count";
    let metric = |name, value, unit| Metric { name, value, unit };
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: vec![
            metric("synth.mlab.busy_ms", gen_busy_ms, ms),
            metric("synth.mlab.records", gen_records, count),
            metric("synth.paths.for_session_us", split.for_session_us, "us"),
            metric("netsim.tcp.run_us", split.run_us, "us"),
            metric(
                "netsim.tcp.rounds_per_session",
                split.rounds_per_session,
                count,
            ),
            metric("netsim.tcp.pkts_per_session", split.pkts_per_session, count),
            metric("types.codec.decode_ms", ident.decode_ms, ms),
            metric("types.batch.columnarize_ms", ident.columnarize_ms, ms),
            metric("core.asn_map.map_ms", ident.map_ms, ms),
            metric("core.stream.stats_ms", ident.stats_ms, ms),
            metric("core.validate.kde_ms", ident.kde_ms, ms),
            metric(
                "core.validate.kde_share",
                ident.kde_ms / ident.stage_sum_ms(),
                "ratio",
            ),
            metric("core.validate.asns_profiled", ident.asns_profiled, count),
            metric("core.validate.kde_samples", ident.kde_samples, count),
            metric("core.prefix_filter.strict_ms", ident.strict_ms, ms),
            metric("core.prefix_filter.buckets", ident.buckets, count),
            metric("core.accept.table_ms", ident.table_ms, ms),
            metric("core.accept.decide_ms", ident.decide_ms, ms),
            metric("core.accept.accept_ratio", ident.accept_ratio, "ratio"),
            metric("core.online.ingest_ms", online.ingest_ms, ms),
            metric("core.online.snapshot_ms", online.snapshot_ms, ms),
            metric("core.online.compact_ms", online.compact_ms, ms),
            metric("core.online.epoch_bumps", online.epoch_bumps, count),
            metric(
                "core.online.resident_log_bytes",
                online.resident_log_bytes,
                "bytes",
            ),
            metric("core.online.snapshot_delta_0_ms", online.delta_ms[0], ms),
            metric("core.online.snapshot_delta_1k_ms", online.delta_ms[1], ms),
            metric("core.online.snapshot_delta_64k_ms", online.delta_ms[2], ms),
            metric(
                "core.online.snapshot_delta_1k_epoch_bumps",
                online.delta_bumps[1],
                count,
            ),
            metric(
                "core.online.snapshot_delta_64k_epoch_bumps",
                online.delta_bumps[2],
                count,
            ),
            metric("core.validate.refit_1k_ms", online.refit_1k_ms, ms),
            metric("core.validate.refit_1k_asns", online.refit_1k_asns, count),
            metric("trace.overhead_ratio", overhead, "ratio"),
            metric("trace.stage_sum_ratio", stage_sum, "ratio"),
        ],
    }
}

/// Medians over traced/untraced pairs of one job, each pair run back to
/// back so the host's speed drift cancels in the ratio.
#[derive(Clone, Copy)]
struct Ratios {
    /// traced wall time / untraced wall time.
    overhead: f64,
    /// traced spans' sum / untraced wall time.
    stage_sum: f64,
}

impl Ratios {
    fn from_pairs(untraced_ms: &[f64], traced_ms: &[f64], spans_ms: &[f64]) -> Ratios {
        let ratio = |num: &[f64]| {
            let r: Vec<f64> = num.iter().zip(untraced_ms).map(|(n, d)| n / d).collect();
            median(&r)
        };
        Ratios {
            overhead: ratio(traced_ms),
            stage_sum: ratio(spans_ms),
        }
    }
}

/// Per-stage medians of the traced identification job over the
/// replayed corpus, and its tracing ratios.
struct IdentifyProfile {
    map_ms: f64,
    decode_ms: f64,
    columnarize_ms: f64,
    stats_ms: f64,
    kde_ms: f64,
    strict_ms: f64,
    table_ms: f64,
    decide_ms: f64,
    asns_profiled: f64,
    kde_samples: f64,
    buckets: f64,
    accept_ratio: f64,
    ratios: Ratios,
}

impl IdentifyProfile {
    /// Sum of the stages' median spans.
    fn stage_sum_ms(&self) -> f64 {
        self.map_ms
            + self.decode_ms
            + self.columnarize_ms
            + self.stats_ms
            + self.kde_ms
            + self.strict_ms
            + self.table_ms
            + self.decide_ms
    }
}

/// Span totals (ms) of one traced identification job, per stage.
#[derive(Default)]
struct StageSpans {
    map: f64,
    pull: f64,
    columnarize: f64,
    stats: f64,
    kde: f64,
    strict: f64,
    table: f64,
    decide: f64,
}

impl StageSpans {
    fn total(&self) -> f64 {
        self.map
            + self.pull
            + self.columnarize
            + self.stats
            + self.kde
            + self.strict
            + self.table
            + self.decide
    }
}

/// Add the seconds `f` took to `span` (in ms).
fn span<T>(span: &mut f64, f: impl FnOnce() -> T) -> T {
    let (out, secs) = timed(f);
    *span += secs * 1e3;
    out
}

/// Chunks pulled per wave: `par_fold_chunks` pulls two per worker.
const WAVE: usize = THREADS * 2;

/// Stream `corpus` the way `par_fold_chunks` does — a wave of chunks
/// pulled on this thread, then columnarized on the pool — with a span
/// around each step, handing every wave's batches to `consume`.
fn traced_waves(
    corpus: &EncodedCorpus,
    spans: &mut StageSpans,
    mut consume: impl FnMut(Vec<RecordBatch>, &mut StageSpans),
) {
    let mut stream = corpus.chunks(CHUNK_LEN);
    loop {
        let wave: Vec<Vec<NdtRecord>> = span(&mut spans.pull, || {
            (0..WAVE).map_while(|_| stream.next_chunk()).collect()
        });
        if wave.is_empty() {
            return;
        }
        let batches = span(&mut spans.columnarize, || {
            par::shard_map(wave.len(), THREADS, |i| RecordBatch::from_records(&wave[i]))
        });
        let exhausted = wave.len() < WAVE;
        consume(batches, spans);
        if exhausted {
            return;
        }
    }
}

/// One traced identification job: `Pipeline::run_streamed`'s two passes
/// rebuilt from the stages' public functions, one span per stage.
/// Returns the report, the number of `(operator, /24)` buckets, and the
/// spans.
fn traced_identify(
    pipeline: &Pipeline,
    corpus: &EncodedCorpus,
) -> (StreamedReport, usize, StageSpans) {
    let mut spans = StageSpans::default();
    let (mapping, index) = span(&mut spans.map, || {
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);
        (mapping, index)
    });

    // Pass 1: fold each wave's statistics in chunk order.
    let mut stats = CorpusStats::new();
    traced_waves(corpus, &mut spans, |batches, spans| {
        span(&mut spans.stats, || {
            let parts = par::shard_map(batches.len(), THREADS, |i| {
                let mut part = CorpusStats::new();
                part.observe_batch(&index, &batches[i], 0..batches[i].len());
                part
            });
            for part in parts {
                stats = std::mem::take(&mut stats).merge(part);
            }
        });
    });

    // Stages 3–3c.
    let profiles = span(&mut spans.kde, || {
        profiles_from_buckets(&mapping, &stats.by_asn, pipeline.bands, THREADS)
    });
    let (strict, thresholds, default_threshold) = span(&mut spans.strict, || {
        let strict = strict_filter_from_buckets(&profiles, &stats.by_prefix, THREADS);
        let (thresholds, default_threshold) = relaxed_thresholds(&strict);
        (strict, thresholds, default_threshold)
    });
    let table = span(&mut spans.table, || {
        let verdict_of: BTreeMap<_, _> = profiles
            .iter()
            .map(|p| (p.asn, p.verdict.clone()))
            .collect();
        AcceptTable::build(&mapping, &verdict_of, &thresholds, default_threshold)
    });
    let buckets = stats.by_prefix.len();
    let records = stats.records;
    drop(stats);

    // Pass 2: decide every record, merging in chunk order.
    let mut bitmap = AcceptBitmap::new();
    let mut counts: BTreeMap<Operator, u64> = BTreeMap::new();
    traced_waves(corpus, &mut spans, |batches, spans| {
        span(&mut spans.decide, || {
            let parts = par::shard_map(batches.len(), THREADS, |i| {
                let batch = &batches[i];
                let mut bits = AcceptBitmap::new();
                let mut part_counts: BTreeMap<Operator, u64> = BTreeMap::new();
                for (&asn, &lat) in batch.asns().iter().zip(batch.latency_p5()) {
                    let decision = table.decide(asn, lat);
                    bits.push(decision.is_some());
                    if let Some(op) = decision {
                        *part_counts.entry(op).or_default() += 1;
                    }
                }
                (bits, part_counts)
            });
            for (bits, part_counts) in parts {
                bitmap.append(&bits);
                for (op, n) in part_counts {
                    *counts.entry(op).or_default() += n;
                }
            }
        });
    });
    let catalog = span(&mut spans.decide, || {
        let mut catalog: Vec<(Operator, u64)> = counts.into_iter().collect();
        catalog.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        catalog
    });

    let report = StreamedReport {
        mapping,
        profiles,
        strict,
        thresholds,
        default_threshold,
        records,
        catalog,
        bitmap,
        accepted: None,
        latencies_by_operator: None,
    };
    (report, buckets, spans)
}

fn profile_identify(
    pipeline: &Pipeline,
    corpus: &EncodedCorpus,
    checks: &mut Checks,
) -> IdentifyProfile {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut all_spans = Vec::new();
    let mut last = None;
    for rep in 0..IDENTIFY_REPS {
        // Alternate which side runs first.
        let mut run_untraced = || {
            let (report, secs) = timed(|| {
                pipeline.run_streamed(|| corpus.chunks(CHUNK_LEN), StreamOptions::default())
            });
            untraced.push(secs * 1e3);
            report
        };
        let mut run_traced = || {
            let (out, secs) = timed(|| traced_identify(pipeline, corpus));
            traced.push(secs * 1e3);
            out
        };
        let (plain, (spanned, buckets, spans)) = if rep % 2 == 0 {
            let plain = run_untraced();
            (plain, run_traced())
        } else {
            let spanned = run_traced();
            (run_untraced(), spanned)
        };
        checks.expect_empty("traced identification", streamed_diff(&spanned, &plain));
        all_spans.push(spans);
        last = Some((spanned, buckets));
    }
    let (report, buckets) = last.expect("IDENTIFY_REPS > 0");
    let fitted: Vec<usize> = report
        .profiles
        .iter()
        .map(|p| p.tests)
        .filter(|&n| n >= MIN_TESTS_FOR_VERDICT)
        .collect();
    let totals: Vec<f64> = all_spans.iter().map(StageSpans::total).collect();
    let med = |f: fn(&StageSpans) -> f64| median(&all_spans.iter().map(f).collect::<Vec<_>>());
    IdentifyProfile {
        map_ms: med(|s| s.map),
        decode_ms: med(|s| s.pull),
        columnarize_ms: med(|s| s.columnarize),
        stats_ms: med(|s| s.stats),
        kde_ms: med(|s| s.kde),
        strict_ms: med(|s| s.strict),
        table_ms: med(|s| s.table),
        decide_ms: med(|s| s.decide),
        asns_profiled: fitted.len() as f64,
        kde_samples: fitted.iter().sum::<usize>() as f64,
        buckets: buckets as f64,
        accept_ratio: report.accepted_count() as f64 / report.records as f64,
        ratios: Ratios::from_pairs(&untraced, &traced, &totals),
    }
}

/// The online layers: per-call spans over polling passes, the snapshot
/// delta sweep, and the KDE re-fit probe.
struct OnlineProfile {
    ingest_ms: f64,
    snapshot_ms: f64,
    compact_ms: f64,
    epoch_bumps: f64,
    resident_log_bytes: f64,
    ratios: Ratios,
    delta_ms: [f64; 3],
    delta_bumps: [f64; 3],
    refit_1k_ms: f64,
    refit_1k_asns: f64,
}

/// What one polling pass left: the loaded identifier, its last report,
/// and the loop's and each call kind's total ms.
struct Pass {
    online: OnlineIdentifier,
    last: StreamedReport,
    loop_ms: f64,
    calls_ms: [f64; 3],
}

/// One polling pass over the arrivals: ingest, snapshot, compact per
/// batch. Traced, each call gets its own span; untraced, only the
/// whole loop is timed.
fn poll_pass(arrivals: &[Vec<NdtRecord>], opts: StreamOptions, traced: bool) -> Pass {
    let mut online = OnlineIdentifier::new(Pipeline::with_threads(THREADS));
    let mut calls_ms = [0.0; 3];
    let mut last = None;
    let start = Instant::now();
    for batch in arrivals {
        if traced {
            span(&mut calls_ms[0], || online.ingest(batch));
            last = Some(span(&mut calls_ms[1], || online.snapshot(opts)));
            span(&mut calls_ms[2], || online.compact());
        } else {
            online.ingest(batch);
            last = Some(online.snapshot(opts));
            online.compact();
        }
    }
    let loop_ms = start.elapsed().as_secs_f64() * 1e3;
    Pass {
        online,
        last: last.expect("the corpus has records"),
        loop_ms,
        calls_ms,
    }
}

/// Ingest `count` fresh frames into a clone of `loaded`, cycling
/// through the arrival batches (repeat tests of the same population),
/// and time the next snapshot. Returns the snapshot's ms and the epoch
/// bumps it caused.
fn snapshot_after(
    loaded: &OnlineIdentifier,
    arrivals: &[Vec<NdtRecord>],
    count: usize,
    opts: StreamOptions,
) -> (f64, f64) {
    let mut online = loaded.clone();
    let mut left = count;
    for batch in arrivals.iter().cycle() {
        if left == 0 {
            break;
        }
        let take = left.min(batch.len());
        online.ingest(&batch[..take]);
        left -= take;
    }
    let epoch = online.accept_epoch();
    let (snapshot, secs) = timed(|| online.snapshot(opts));
    black_box(snapshot);
    (secs * 1e3, (online.accept_epoch() - epoch) as f64)
}

/// Time re-fitting the KDE of exactly the ASN buckets that `fresh`
/// grows — the work a snapshot redoes if every grown bucket is re-fit.
/// Returns the median ms and the number of grown (operator, ASN) pairs.
fn refit_probe(arrivals: &[Vec<NdtRecord>], fresh: &[NdtRecord]) -> (f64, f64) {
    let mapping = map_asns();
    let mut records = arrivals.concat();
    records.extend_from_slice(fresh);
    let stats = CorpusStats::collect(&mapping, &records, THREADS);
    let grown: BTreeSet<Asn> = fresh.iter().map(|r| r.asn).collect();
    let pairs: Vec<(Operator, Asn)> = mapping
        .mapping
        .iter()
        .flat_map(|(&op, asns)| asns.iter().map(move |&asn| (op, asn)))
        .filter(|(_, asn)| grown.contains(asn))
        .collect();
    let bands = LatencyBands::default();
    let times: Vec<f64> = (0..DELTA_REPS)
        .map(|_| {
            let (profiles, secs) = timed(|| {
                par::shard_map(pairs.len(), THREADS, |i| {
                    let (op, asn) = pairs[i];
                    let bucket = stats.by_asn.get(&asn).map(Vec::as_slice).unwrap_or(&[]);
                    profile_one(op, asn, bucket, bands)
                })
            });
            black_box(profiles);
            secs * 1e3
        })
        .collect();
    (median(&times), pairs.len() as f64)
}

fn profile_online(arrivals: &[Vec<NdtRecord>], checks: &mut Checks) -> OnlineProfile {
    let opts = StreamOptions {
        operator_latencies: true,
        ..StreamOptions::default()
    };
    let all = arrivals.concat();
    let reference =
        Pipeline::with_threads(THREADS).run_streamed(|| slice_chunks(&all, CHUNK_LEN), opts);

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for rep in 0..ONLINE_REPS {
        let (plain, spanned) = if rep % 2 == 0 {
            let plain = poll_pass(arrivals, opts, false);
            (plain, poll_pass(arrivals, opts, true))
        } else {
            let spanned = poll_pass(arrivals, opts, true);
            (poll_pass(arrivals, opts, false), spanned)
        };
        checks.expect_empty(
            "untraced online pass",
            streamed_diff(&plain.last, &reference),
        );
        checks.expect_empty(
            "traced online pass",
            streamed_diff(&spanned.last, &reference),
        );
        untraced.push(plain.loop_ms);
        traced.push(spanned);
    }
    let call = |k: usize| median(&traced.iter().map(|p| p.calls_ms[k]).collect::<Vec<_>>());
    let (ingest_ms, snapshot_ms, compact_ms) = (call(0), call(1), call(2));
    let ratios = Ratios::from_pairs(
        &untraced,
        &traced.iter().map(|p| p.loop_ms).collect::<Vec<_>>(),
        &traced
            .iter()
            .map(|p| p.calls_ms.iter().sum())
            .collect::<Vec<_>>(),
    );
    let loaded = traced.pop().expect("ONLINE_REPS > 0").online;

    let mut delta_ms = [0.0; 3];
    let mut delta_bumps = [0.0; 3];
    for (k, &count) in DELTAS.iter().enumerate() {
        let runs: Vec<(f64, f64)> = (0..DELTA_REPS)
            .map(|_| snapshot_after(&loaded, arrivals, count, opts))
            .collect();
        delta_ms[k] = median(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
        delta_bumps[k] = runs[0].1;
    }
    let (refit_1k_ms, refit_1k_asns) = refit_probe(arrivals, &arrivals[0]);

    OnlineProfile {
        ingest_ms,
        snapshot_ms,
        compact_ms,
        epoch_bumps: loaded.accept_epoch() as f64,
        resident_log_bytes: loaded.resident_log_bytes() as f64,
        ratios,
        delta_ms,
        delta_bumps,
        refit_1k_ms,
        refit_1k_asns,
    }
}

/// Generator and tracing ratios of the streamed `table1` job.
struct Table1Profile {
    gen_busy_ms: f64,
    gen_records: f64,
    ratios: Ratios,
}

fn profile_table1(
    pipeline: &Pipeline,
    generator: &MlabGenerator,
    ident_ms: f64,
    checks: &mut Checks,
) -> Table1Profile {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut busy_ms = Vec::new();
    let mut records = 0;
    for rep in 0..TABLE1_REPS {
        let run_untraced = || {
            timed(|| {
                pipeline.run_streamed(
                    || generator.generate_chunks(CHUNK_LEN),
                    StreamOptions::default(),
                )
            })
        };
        let run_traced = || {
            let busy = Cell::new(Duration::ZERO);
            let pulled = Cell::new(0);
            let (report, secs) = timed(|| {
                pipeline.run_streamed(
                    || TimedChunks {
                        inner: generator.generate_chunks(CHUNK_LEN),
                        busy: &busy,
                        records: &pulled,
                    },
                    StreamOptions::default(),
                )
            });
            (report, secs, busy.get(), pulled.get())
        };
        let ((plain, plain_s), (spanned, spanned_s, busy, pulled)) = if rep % 2 == 0 {
            let plain = run_untraced();
            (plain, run_traced())
        } else {
            let spanned = run_traced();
            (run_untraced(), spanned)
        };
        checks.expect_empty("traced table1 job", streamed_diff(&spanned, &plain));
        untraced.push(plain_s * 1e3);
        traced.push(spanned_s * 1e3);
        busy_ms.push(busy.as_secs_f64() * 1e3);
        records = pulled;
    }
    let spans: Vec<f64> = busy_ms.iter().map(|b| b + ident_ms).collect();
    Table1Profile {
        gen_busy_ms: median(&busy_ms),
        gen_records: records as f64,
        ratios: Ratios::from_pairs(&untraced, &traced, &spans),
    }
}

/// Per-call cost of the generator's two halves — `ClientPath::for_session`
/// (path construction) and `TcpFlow::run` (TCP rounds) — over a seeded
/// sample of satellite sessions per orbit class, built as the generator
/// builds them.
struct GeneratorSplit {
    for_session_us: f64,
    run_us: f64,
    rounds_per_session: f64,
    pkts_per_session: f64,
}

fn generator_split(seed: u64) -> GeneratorSplit {
    let cfg = config(seed);
    let start_day = cfg.mlab_start.to_day();
    let span_days = u64::from(cfg.mlab_end.to_day().0 - start_day.0);
    let classes = [
        (Operator::Starlink, OrbitClass::Leo),
        (Operator::O3b, OrbitClass::Meo),
        (Operator::Hughes, OrbitClass::Geo),
    ];
    let (mut path_s, mut path_calls) = (0.0, 0u64);
    let (mut tcp_s, mut sessions) = (0.0, 0u64);
    let (mut rounds, mut pkts) = (0u64, 0u64);
    for (k, &(op, orbit)) in classes.iter().enumerate() {
        let kind = LinkKind::Satellite(orbit);
        let specs: Vec<_> = allocation_for(op)
            .into_iter()
            .flat_map(|(_, specs)| specs)
            .filter(|spec| spec.kind == kind)
            .collect();
        let weights: Vec<f64> = specs.iter().map(|s| s.weight).collect();
        let pep = if profile_of(op).uses_pep && orbit == OrbitClass::Geo {
            PepMode::typical()
        } else {
            PepMode::None
        };
        let flow = TcpFlow::new(TcpConfig {
            pep,
            ..TcpConfig::ndt()
        });
        let mut rng = Rng::new(seed)
            .substream_named("perfbench-generator-split")
            .substream(k as u64);
        let mut done = 0;
        // The generator's rejection budget: four attempts per session.
        for _ in 0..SPLIT_SESSIONS * 4 {
            if done == SPLIT_SESSIONS {
                break;
            }
            let spec = specs[rng.choose_weighted(&weights)];
            let day = UtcDay(start_day.0 + rng.below(span_days) as u32);
            let sec_of_day = rng.below(SECS_PER_DAY);
            let client = scatter(spec.home, spec.scatter_km, &mut rng);
            let (path, secs) =
                timed(|| ClientPath::for_session(op, kind, client, day, seed, &mut rng));
            path_s += secs;
            path_calls += 1;
            let Some(path) = path else {
                continue; // out of coverage; resample as the generator does
            };
            let orbital_t = (u64::from(day.0) * SECS_PER_DAY + sec_of_day) as f64;
            let (stats, secs) = timed(|| flow.run(&path, orbital_t, &mut rng));
            tcp_s += secs;
            sessions += 1;
            rounds += stats.rtt_samples.len() as u64;
            pkts += stats.pkts_sent;
            done += 1;
        }
    }
    GeneratorSplit {
        for_session_us: path_s * 1e6 / path_calls as f64,
        run_us: tcp_s * 1e6 / sessions as f64,
        rounds_per_session: rounds as f64 / sessions as f64,
        pkts_per_session: pkts as f64 / sessions as f64,
    }
}
