//! The untraced run: each workload through the user-facing entry points
//! only, timed end to end.

use crate::calib::Calibration;
use crate::check::{oracle_diff, streamed_diff, Repeats, TABLE1_SNOS};
use crate::setup::{
    collect_chunks, config, encode_corpus, repeat_setup, timed, ARRIVAL_BATCH, CHUNK_LEN,
};
use crate::{median, peak_rss_mb, quantile, Metric, Outcome, Workload, THREADS};
use sno_core::{OnlineIdentifier, Pipeline, StreamOptions};
use sno_synth::MlabGenerator;
use sno_types::chunk::slice_chunks;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fewest batch jobs a run times, however short `--seconds` is.
const MIN_JOBS: usize = 3;

/// Fewest polls a run times, so the p90 has ten samples beyond it.
const MIN_POLLS: usize = 100;

pub fn run(workload: Workload, seed: u64, seconds: Duration) -> Outcome {
    match workload {
        Workload::Table1Streamed => table1_streamed(seed, seconds),
        Workload::IdentifyReplay => identify_replay(seed, seconds),
        Workload::OnlinePoll => online_poll(seed, seconds),
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order, with every time
/// scaled to the reference host: set-up by the readings taken around
/// it, the rest by those taken between the timed operations.
/// `snapshot_ms` holds one latency per report the workload returned: a
/// whole job for the batch workloads, one `snapshot()` call for the
/// polled one.
fn end_to_end(
    setup_calib: &Calibration,
    calib: &Calibration,
    setup_s: f64,
    records_per_s: f64,
    peak_mb: f64,
    snapshot_ms: &[f64],
) -> Vec<Metric> {
    let (p50, p90) = (quantile(snapshot_ms, 0.5), quantile(snapshot_ms, 0.9));
    eprintln!(
        "sno-perfbench: {} report latencies sampled; raw setup_s {setup_s}, records_per_s {records_per_s}, snapshot p50 {p50} ms, p90 {p90} ms",
        snapshot_ms.len()
    );
    for (what, c) in [("set-up", setup_calib), ("timed loop", calib)] {
        eprintln!(
            "sno-perfbench: {what}: calibration kernel {:.4} ms (median of {} readings), times scaled by {:.4}",
            c.kernel_ms(),
            c.readings(),
            c.factor()
        );
    }
    let f = calib.factor();
    let setup_s = setup_s * setup_calib.factor();
    let (records_per_s, p50, p90) = (records_per_s / f, p50 * f, p90 * f);
    vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "records_per_s",
            value: records_per_s,
            unit: "records/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_mb,
            unit: "MB",
        },
        Metric {
            name: "snapshot_p50_ms",
            value: p50,
            unit: "ms",
        },
        Metric {
            name: "snapshot_p90_ms",
            value: p90,
            unit: "ms",
        },
    ]
}

/// Time repeated runs of one batch job until `seconds` have passed.
fn time_jobs(
    seconds: Duration,
    calib: &mut Calibration,
    mut job: impl FnMut() -> sno_core::StreamedReport,
) -> (Repeats, Vec<f64>) {
    let mut repeats = Repeats::default();
    let mut job_s = Vec::new();
    let start = Instant::now();
    calib.tick();
    while job_s.len() < MIN_JOBS || start.elapsed() < seconds {
        let (report, secs) = timed(&mut job);
        job_s.push(secs);
        repeats.observe(black_box(report));
        calib.tick();
    }
    (repeats, job_s)
}

/// `repro table1 --chunk 4096`: the streamed pipeline over the
/// generator, which runs once per pass inside the timed job.
fn table1_streamed(seed: u64, seconds: Duration) -> Outcome {
    // Set-up is everything before the first record is generated:
    // constructing the generator and the pipeline, and building the chunk
    // stream with its per-operator shard plan. It takes microseconds, so
    // time batches of set-ups for two seconds, long enough to average
    // over the host's speed swings, and report the median per set-up.
    const BATCH: u32 = 200;
    const WINDOW: Duration = Duration::from_secs(2);
    let mut setup_calib = Calibration::default();
    let mut per_setup = Vec::new();
    let start = Instant::now();
    while per_setup.len() < 15 || start.elapsed() < WINDOW {
        let (_, secs) = timed(|| {
            for _ in 0..BATCH {
                let generator = MlabGenerator::new(black_box(config(seed)));
                black_box(Pipeline::with_threads(black_box(THREADS)));
                black_box(generator.generate_chunks(CHUNK_LEN));
            }
        });
        per_setup.push(secs / f64::from(BATCH));
        setup_calib.tick();
    }
    let setup_s = median(&per_setup);
    let generator = MlabGenerator::new(config(seed));
    let pipeline = Pipeline::with_threads(THREADS);

    let mut calib = Calibration::default();
    let (repeats, job_s) = time_jobs(seconds, &mut calib, || {
        pipeline.run_streamed(
            || generator.generate_chunks(CHUNK_LEN),
            StreamOptions::default(),
        )
    });
    let peak_mb = peak_rss_mb();

    // Reference: identify_replay's report for the same seed.
    let corpus = encode_corpus(&generator);
    let reference = pipeline.run_streamed(|| corpus.chunks(CHUNK_LEN), StreamOptions::default());
    let first = repeats.first.as_ref().expect("at least one job ran");
    let mut diffs = streamed_diff(first, &reference);
    if first.sno_count() != TABLE1_SNOS {
        diffs.push(format!("catalog has {} SNOs", first.sno_count()));
    }
    let records = first.records as f64;
    let job_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    Outcome {
        attempted: repeats.runs,
        failed: repeats.failed(&diffs),
        metrics: end_to_end(
            &setup_calib,
            &calib,
            setup_s,
            records / median(&job_s),
            peak_mb,
            &job_ms,
        ),
    }
}

/// Identification over a corpus pre-encoded to SNOC during set-up; the
/// timed job replays it through `Pipeline::run_streamed`.
fn identify_replay(seed: u64, seconds: Duration) -> Outcome {
    let mut setup_calib = Calibration::default();
    let (corpus, setup_s) = repeat_setup(&mut setup_calib, || {
        encode_corpus(&MlabGenerator::new(config(seed)))
    });
    let pipeline = Pipeline::with_threads(THREADS);

    let mut calib = Calibration::default();
    let (repeats, job_s) = time_jobs(seconds, &mut calib, || {
        pipeline.run_streamed(|| corpus.chunks(CHUNK_LEN), StreamOptions::default())
    });
    let peak_mb = peak_rss_mb();

    let oracle = pipeline.run(&corpus.decode_records());
    let first = repeats.first.as_ref().expect("at least one job ran");
    let diffs = oracle_diff(first, &oracle);
    let records = first.records as f64;
    let job_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    Outcome {
        attempted: repeats.runs,
        failed: repeats.failed(&diffs),
        metrics: end_to_end(
            &setup_calib,
            &calib,
            setup_s,
            records / median(&job_s),
            peak_mb,
            &job_ms,
        ),
    }
}

/// The monitoring-service loop, closed with one poller: ingest an
/// arrival batch of [`ARRIVAL_BATCH`] records, then `snapshot()`, then
/// `compact()`. A pass feeds the whole corpus to a fresh identifier;
/// passes repeat until `seconds` have passed.
fn online_poll(seed: u64, seconds: Duration) -> Outcome {
    let mut setup_calib = Calibration::default();
    let (arrivals, setup_s) = repeat_setup(&mut setup_calib, || {
        collect_chunks(MlabGenerator::new(config(seed)).generate_chunks(ARRIVAL_BATCH))
    });
    let opts = StreamOptions {
        operator_latencies: true,
        ..StreamOptions::default()
    };

    let mut snapshot_ms = Vec::new();
    let mut loop_s = 0.0;
    let mut records = 0usize;
    let mut finals = Repeats::default();
    let mut inconsistent_polls = 0u64;
    let mut calib = Calibration::default();
    let start = Instant::now();
    calib.tick();
    while snapshot_ms.len() < MIN_POLLS || start.elapsed() < seconds {
        let mut online = OnlineIdentifier::new(Pipeline::with_threads(THREADS));
        let mut last = None;
        for batch in &arrivals {
            let t0 = Instant::now();
            online.ingest(batch);
            let t1 = Instant::now();
            let snapshot = online.snapshot(opts);
            let t2 = Instant::now();
            online.compact();
            let t3 = Instant::now();
            loop_s += (t3 - t0).as_secs_f64();
            snapshot_ms.push((t2 - t1).as_secs_f64() * 1e3);
            let accepted: u64 = snapshot.catalog.iter().map(|&(_, n)| n).sum();
            if snapshot.records != online.ingested()
                || snapshot.bitmap.len() != snapshot.records
                || accepted != snapshot.bitmap.count_ones() as u64
            {
                inconsistent_polls += 1;
            }
            last = Some(snapshot);
            calib.tick();
        }
        records += online.ingested();
        finals.observe(last.expect("the corpus has records"));
    }
    let peak_mb = peak_rss_mb();

    // Reference: the batch streamed run over the same records
    // (`repro --online --verify-batch`).
    let all = arrivals.concat();
    let reference =
        Pipeline::with_threads(THREADS).run_streamed(|| slice_chunks(&all, CHUNK_LEN), opts);
    let first = finals.first.as_ref().expect("at least one pass ran");
    let mut diffs = streamed_diff(first, &reference);
    if first.sno_count() != TABLE1_SNOS {
        diffs.push(format!("catalog has {} SNOs", first.sno_count()));
    }
    if inconsistent_polls > 0 {
        eprintln!("sno-perfbench: check failed: {inconsistent_polls} polls returned an inconsistent report");
    }
    // A pass whose final report is wrong fails every poll it made.
    let polls = snapshot_ms.len() as u64;
    let failed = (finals.failed(&diffs) * arrivals.len() as u64 + inconsistent_polls).min(polls);
    Outcome {
        attempted: polls,
        failed,
        metrics: end_to_end(
            &setup_calib,
            &calib,
            setup_s,
            records as f64 / loop_s,
            peak_mb,
            &snapshot_ms,
        ),
    }
}
