//! Regenerate the paper's tables and figures from the synthetic corpora.
//!
//! ```text
//! repro                 # run everything
//! repro table1 fig4c    # run selected experiments
//! repro --list          # list experiment ids
//! repro --scale 1e-2    # denser corpus (slower, smoother statistics);
//!                       # a fraction of the paper volume, in (0, 1]
//! repro --threads 4     # worker pool size (0 = all cores; output
//!                       # is byte-identical at every setting)
//! repro --chunk 4096    # stream the streamable experiments through
//!                       # chunked generation (bounded memory; output
//!                       # is byte-identical at every chunk length)
//! repro --progress 500000
//!                       # stderr heartbeat every N records through the
//!                       # streamed pipeline (liveness for paper-scale
//!                       # runs; record counts, never wall-clock, so
//!                       # output stays deterministic)
//! repro --online        # drive the corpus chunk-by-chunk through the
//!                       # incremental OnlineIdentifier and print its
//!                       # snapshot through the shared report renderer
//! repro --online --verify-batch
//!                       # also run the batch streamed pipeline over the
//!                       # same corpus and exit non-zero on any verdict
//!                       # mismatch (the ci.sh online-equivalence gate)
//! repro --bench         # time every experiment, write BENCH_N.json
//! repro --bench-diff BENCH_1.json BENCH_2.json
//!                       # compare two snapshots, fail on >20% median
//!                       # regressions or any absolute budget breach
//!                       # (the ci.sh perf gate)
//! repro --sim-sweep --seeds 32 --quick
//!                       # deterministic fault-injection campaign over
//!                       # 32 seeds (the ci.sh sim gate); failing seeds
//!                       # persist to tests/corpora/sim_sweep.seeds
//! repro --sim-sweep --seed 12345
//!                       # replay one seed verbosely
//! repro --lint          # determinism & hermeticity lint pass (the
//!                       # ci.sh lint gate); --json for machine output
//! ```

use sno_bench::{run_experiment, streamed_report_text, ReproContext, EXPERIMENTS};
use sno_check::bench::{bench_group, BenchReport, BenchResult, GroupReport};
use sno_core::pipeline::Pipeline;
use sno_core::stream::StreamOptions;
use sno_core::OnlineIdentifier;
use sno_netsim::sim::{run_seed, run_sweep, SweepConfig};
use sno_synth::{MlabGenerator, SynthConfig};
use sno_types::chunk::RecordChunks as _;

/// Median regressions beyond this fraction fail `--bench-diff`.
const REGRESSION_LIMIT: f64 = 0.20;

/// Benches with medians below this are dominated by scheduler and
/// code-layout jitter (observed swinging ±30% between sweeps of the
/// *identical* binary on a shared box), so `--bench-diff` skips them
/// rather than gating on noise. The macro benches — corpus generation,
/// the full pipeline, fig4a, the filter ablation — all sit well above
/// the floor and are what the perf trajectory is for.
const NOISE_FLOOR_MS: f64 = 2.0;

/// Absolute per-bench budgets, in ms, checked against the NEW snapshot
/// by `--bench-diff` alongside the relative gate. Relative diffs ratchet
/// slowly — ten successive "only 19% worse" runs compound to 5×; a
/// budget pins the benches whose wall time is itself a deliverable.
const BUDGETS: &[(&str, &str, f64)] = &[
    ("experiments", "fig4a", 100.0),
    // A steady-state snapshot must stay O(frames since the last one) —
    // at the bench corpus that is near-zero work plus report assembly,
    // so the budget is deliberately tight relative to full replay.
    ("online", "online_snapshot_steady", 25.0),
];

/// Groups `--bench-diff` never compares relatively: calibration exists
/// only to estimate machine drift.
const DIFF_SKIP_GROUPS: &[&str] = &["calibration"];

/// Groups whose values are throughputs (sessions/second), not wall
/// times: higher is better, so they regress *downward*. A slower
/// machine depresses throughput by the drift factor, so the gated ratio
/// is `(new/old) × drift` — the mirror image of the wall-time
/// correction — and the noise floor (a wall-time threshold in ms) does
/// not apply.
const THROUGHPUT_GROUPS: &[&str] = &["throughput"];

/// Groups whose values are machine-independent (megabytes, not wall
/// time): compared raw, never drift-corrected.
const RAW_GROUPS: &[&str] = &["memory"];

/// Iterations of the calibration spin (fixed xorshift-mix arithmetic,
/// no memory traffic): ~20–40 ms on current hardware. The absolute
/// time is irrelevant — only the ratio between two snapshots is used,
/// as an estimate of how much faster or slower the recording machine
/// was. Snapshots are taken on whatever box CI lands on, and observed
/// machine-to-machine drift (~1.2× on identical binaries) exceeds the
/// 20% regression limit on its own.
const CALIBRATION_ITERS: u64 = 10_000_000;

/// The fixed workload behind `calibration/spin`.
fn calibration_spin() -> u64 {
    let mut x = std::hint::black_box(0x5A7E_1117_u64);
    for _ in 0..CALIBRATION_ITERS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x ^= x >> 33;
    }
    x
}

/// The next free `BENCH_N.json` in the invocation directory, so each
/// `--bench` run extends the perf trajectory instead of clobbering it.
fn next_bench_path() -> String {
    let mut n = 1u32;
    if let Ok(entries) = std::fs::read_dir(".") {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|num| num.parse::<u32>().ok())
            {
                n = n.max(num + 1);
            }
        }
    }
    format!("BENCH_{n}.json")
}

/// `--bench`: per-experiment median wall time over a shared context,
/// written as a perf-trajectory snapshot (next free `BENCH_N.json` by
/// default, in the invocation directory — the repo root under
/// `cargo run`). A `scaling` group records serial (1 thread) against
/// pooled (`--threads`, default all cores) medians for corpus
/// generation and the pipeline.
fn run_bench_mode(config: SynthConfig, chunk: Option<usize>, out_path: &str) {
    let ctx = match chunk {
        Some(c) => ReproContext::with_chunk(config.clone(), c),
        None => ReproContext::with_config(config.clone()),
    };

    // Memory high-water marks. VmHWM is monotone over the process
    // lifetime, so the streamed pipeline must run (and be sampled)
    // before anything materializes a corpus.
    let mut mem_results = Vec::new();
    let mut sample_hwm = |name: &str| {
        if let Some(mb) = sno_bench::mem::peak_rss_mb() {
            mem_results.push(BenchResult {
                name: name.to_string(),
                iters_per_sample: 1,
                sample_ms: vec![mb],
            });
        }
    };
    let _ = ctx.streamed();
    sample_hwm("streamed_peak_rss_mb");
    // Force the corpora and pipeline once, outside the timing loops.
    let _ = ctx.report();
    let _ = ctx.atlas();
    sample_hwm("materialized_peak_rss_mb");

    let mut report = BenchReport::new();
    let mut group = bench_group("experiments");
    group.sample_size(5).warm_up_ms(50.0).sample_budget_ms(50.0);
    for (id, ..) in EXPERIMENTS {
        group.bench_function(*id, |b| {
            // sno-lint: allow(unwrap-in-lib): ids iterate the static EXPERIMENTS table
            b.iter(|| std::hint::black_box(run_experiment(&ctx, id).expect("known id")))
        });
    }
    report.push(group.finish());

    let mut group = bench_group("pipeline");
    group.sample_size(5).warm_up_ms(50.0).sample_budget_ms(50.0);
    let records = &ctx.mlab().records;
    group.bench_function("table1_pipeline_full", |b| {
        b.iter(|| std::hint::black_box(sno_core::pipeline::Pipeline::new().run(records)))
    });
    let generator = MlabGenerator::new(config.clone());
    let chunk_len = ctx.chunk_len();
    group.bench_function("table1_pipeline_streamed", |b| {
        b.iter(|| {
            std::hint::black_box(sno_core::pipeline::Pipeline::new().run_streamed(
                || generator.generate_chunks(chunk_len),
                sno_core::stream::StreamOptions::default(),
            ))
        })
    });
    let pipeline_group = group.finish();

    // Sessions/second through each pipeline path, derived from the
    // medians just measured. Not wall times — higher is better, so
    // `--bench-diff` gates this group in the opposite direction: it
    // fails when a drift-corrected rate drops more than the limit.
    let sessions = records.len() as f64;
    let mut throughput: Vec<BenchResult> = pipeline_group
        .results
        .iter()
        .filter(|r| r.median_ms() > 0.0)
        .map(|r| BenchResult {
            name: format!("{}_sessions_per_sec", r.name),
            iters_per_sample: 1,
            sample_ms: vec![sessions / (r.median_ms() / 1000.0)],
        })
        .collect();
    report.push(pipeline_group);

    // The online identification service: end-to-end chunked ingest into
    // a fresh identifier, full-replay snapshot latency on the loaded
    // state (the pre-incremental reference), and steady-state snapshot
    // latency — what a monitoring poll pays per report once the accept
    // state is warm. The steady/full ratio is the incremental payoff.
    let mut group = bench_group("online");
    group.sample_size(5).warm_up_ms(50.0).sample_budget_ms(50.0);
    group.bench_function("online_ingest", |b| {
        b.iter(|| std::hint::black_box(ingest_corpus(&generator, config.threads, chunk_len, 0).0))
    });
    let (loaded, _) = ingest_corpus(&generator, config.threads, chunk_len, 0);
    let online_opts = StreamOptions {
        operator_latencies: true,
        ..StreamOptions::default()
    };
    group.bench_function("online_snapshot", |b| {
        b.iter(|| std::hint::black_box(loaded.snapshot_full(online_opts)))
    });
    let mut steady = loaded.clone();
    let _ = steady.snapshot(online_opts);
    group.bench_function("online_snapshot_steady", |b| {
        b.iter(|| std::hint::black_box(steady.snapshot(online_opts)))
    });
    let online_group = group.finish();

    // Resident-log gauge: bytes held for replay after a snapshot-then-
    // compact cycle vs the uncompacted log (machine-independent, so it
    // rides in the raw-compared memory group).
    let mut compacted = loaded.clone();
    let _ = compacted.snapshot(online_opts);
    compacted.compact();
    for (name, bytes) in [
        ("online_log_mb", loaded.resident_log_bytes()),
        ("online_log_compacted_mb", compacted.resident_log_bytes()),
    ] {
        mem_results.push(BenchResult {
            name: name.to_string(),
            iters_per_sample: 1,
            sample_ms: vec![bytes as f64 / (1024.0 * 1024.0)],
        });
    }
    if let Some(ms) = online_group
        .results
        .iter()
        .find(|r| r.name == "online_ingest")
        .map(|r| r.median_ms())
        .filter(|&ms| ms > 0.0)
    {
        throughput.push(BenchResult {
            name: "online_ingest_sessions_per_sec".to_string(),
            iters_per_sample: 1,
            sample_ms: vec![sessions / (ms / 1000.0)],
        });
    }
    report.push(online_group);

    report.push(GroupReport {
        name: "throughput".to_string(),
        results: throughput,
    });

    // Serial vs pooled, same work: the pair documents what the worker
    // pool buys on this machine (and that it costs nothing when it
    // cannot help — the outputs are byte-identical by construction).
    let mut group = bench_group("scaling");
    group.sample_size(5).warm_up_ms(50.0).sample_budget_ms(50.0);
    let serial = SynthConfig {
        threads: 1,
        ..config.clone()
    };
    group.bench_function("mlab_generate_serial", |b| {
        b.iter(|| std::hint::black_box(MlabGenerator::new(serial.clone()).generate()))
    });
    group.bench_function("mlab_generate_pooled", |b| {
        b.iter(|| std::hint::black_box(MlabGenerator::new(config.clone()).generate()))
    });
    group.bench_function("pipeline_serial", |b| {
        b.iter(|| std::hint::black_box(sno_core::pipeline::Pipeline::with_threads(1).run(records)))
    });
    group.bench_function("pipeline_pooled", |b| {
        b.iter(|| {
            std::hint::black_box(
                sno_core::pipeline::Pipeline::with_threads(config.threads).run(records),
            )
        })
    });
    report.push(group.finish());

    report.push(GroupReport {
        name: "memory".to_string(),
        results: mem_results,
    });

    // Machine-speed reference for cross-snapshot drift correction; see
    // `run_bench_diff`.
    let mut group = bench_group("calibration");
    group.sample_size(5).warm_up_ms(50.0).sample_budget_ms(50.0);
    group.bench_function("spin", |b| {
        b.iter(|| std::hint::black_box(calibration_spin()))
    });
    report.push(group.finish());

    report.write_json(out_path).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out_path}");
}

/// `--bench-diff OLD NEW`: compare the benches the two snapshots share
/// and exit non-zero when any median regressed by more than
/// [`REGRESSION_LIMIT`] or when the NEW snapshot breaches an absolute
/// [`BUDGETS`] entry.
///
/// Snapshots are recorded on whatever machine CI lands on, so raw
/// medians are only comparable after correcting for machine speed:
/// the `calibration/spin` ratio between the two snapshots estimates
/// the drift, and wall-time changes are gated after dividing it out
/// ([`RAW_GROUPS`] stay raw — megabytes do not scale with the CPU).
/// When the baseline predates the calibration bench the relative
/// changes cannot be drift-corrected, so they are reported as advisory
/// only; the absolute budgets still gate.
fn run_bench_diff(old_path: &str, new_path: &str) -> ! {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        BenchReport::parse_json(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let old = load(old_path);
    let new = load(new_path);

    let spin_of = |snap: &[sno_check::bench::ParsedBench]| {
        snap.iter()
            .find(|b| b.group == "calibration" && b.name == "spin")
            .map(|b| b.median_ms)
            .filter(|&ms| ms > 0.0)
    };
    let drift = match (spin_of(&old), spin_of(&new)) {
        (Some(o), Some(n)) => {
            let d = n / o;
            println!("machine drift: calibration/spin {o:.4} -> {n:.4} ms (x{d:.3}); wall-time changes gated after dividing it out");
            Some(d)
        }
        _ => {
            println!(
                "note: {old_path} has no calibration bench — raw changes below are advisory \
                 (cross-machine medians are not comparable); budgets still gate"
            );
            None
        }
    };

    let mut compared = 0usize;
    let mut skipped = 0usize;
    let mut regressions = Vec::new();
    for b in &new {
        if DIFF_SKIP_GROUPS.contains(&b.group.as_str()) {
            continue;
        }
        let Some(base) = old.iter().find(|o| o.group == b.group && o.name == b.name) else {
            continue;
        };
        let throughput = THROUGHPUT_GROUPS.contains(&b.group.as_str());
        if !throughput && (base.median_ms < NOISE_FLOOR_MS || b.median_ms < NOISE_FLOOR_MS) {
            skipped += 1;
            continue;
        }
        compared += 1;
        let raw = b.median_ms / base.median_ms;
        // `slowdown` > 1 is worse, whatever the units: wall times divide
        // the drift out, throughputs multiply it in and invert (higher
        // is better), raw groups compare as-is.
        let slowdown = match drift {
            Some(d) if throughput => 1.0 / (raw * d),
            Some(d) if !RAW_GROUPS.contains(&b.group.as_str()) => raw / d,
            _ if throughput => 1.0 / raw,
            _ => raw,
        };
        let change = slowdown - 1.0;
        let units = if throughput { "sessions/s" } else { "ms" };
        println!(
            "{}/{:<32} {:>10.4} -> {:>10.4} {units}  (raw {:+.1}%, gated {:+.1}% {})",
            b.group,
            b.name,
            base.median_ms,
            b.median_ms,
            (raw - 1.0) * 100.0,
            change * 100.0,
            if throughput { "slower" } else { "change" },
        );
        if change > REGRESSION_LIMIT {
            regressions.push(format!(
                "{}/{}: {:.4} -> {:.4} {units} ({:+.1}% gated regression)",
                b.group,
                b.name,
                base.median_ms,
                b.median_ms,
                change * 100.0
            ));
        }
    }
    if skipped > 0 {
        println!("({skipped} sub-{NOISE_FLOOR_MS}ms benches skipped as timer noise)");
    }
    if compared == 0 {
        println!("warning: {old_path} and {new_path} share no comparable benches");
    }

    // Absolute budgets apply to the NEW snapshot regardless of what the
    // baseline looked like.
    let mut over_budget = Vec::new();
    for &(group, name, budget) in BUDGETS {
        let Some(b) = new.iter().find(|b| b.group == group && b.name == name) else {
            continue;
        };
        let within = b.median_ms <= budget;
        println!(
            "{group}/{name:<32} {:>10.4} ms  budget {budget:>7.1} ms  [{}]",
            b.median_ms,
            if within { "ok" } else { "OVER" },
        );
        if !within {
            over_budget.push(format!(
                "{group}/{name}: {:.4} ms exceeds the {budget:.1} ms budget",
                b.median_ms
            ));
        }
    }

    // Without a drift estimate the relative numbers cannot gate — an
    // identical binary on a slower box would "regress" everything — so
    // they stay advisory and only the budgets decide.
    if drift.is_none() && !regressions.is_empty() {
        println!(
            "advisory: {} bench(es) changed more than {:.0}% raw (not gated without calibration):",
            regressions.len(),
            REGRESSION_LIMIT * 100.0
        );
        for r in &regressions {
            println!("  {r}");
        }
        regressions.clear();
    }

    if regressions.is_empty() && over_budget.is_empty() {
        println!(
            "ok: no bench regressed more than {:.0}% and every budget holds",
            REGRESSION_LIMIT * 100.0
        );
        std::process::exit(0);
    }
    if !regressions.is_empty() {
        eprintln!(
            "FAIL: {} bench(es) regressed more than {:.0}%:",
            regressions.len(),
            REGRESSION_LIMIT * 100.0
        );
        for r in &regressions {
            eprintln!("  {r}");
        }
    }
    if !over_budget.is_empty() {
        eprintln!(
            "FAIL: {} bench(es) over their absolute budget:",
            over_budget.len()
        );
        for r in &over_budget {
            eprintln!("  {r}");
        }
    }
    std::process::exit(1);
}

/// The committed corpus of sweep seeds that ever failed. Relative to
/// the invocation directory (the repo root under `cargo run`).
const SWEEP_CORPUS: &str = "tests/corpora/sim_sweep.seeds";

/// `--sim-sweep`: the deterministic fault-injection campaign. Corpus
/// seeds (past failures) replay first, then `--seeds N` fresh seeds
/// derived from the fixed campaign id — the same list on every machine.
/// Any failing seed is appended to the corpus and printed as a replay
/// command; the process exits non-zero.
fn run_sim_sweep(seeds: usize, single: Option<u64>, threads: usize, quick: bool) -> ! {
    if let Some(seed) = single {
        let report = run_seed(seed, quick);
        println!(
            "replaying seed {seed} ({} mode)",
            if quick { "quick" } else { "full" }
        );
        for line in &report.summary {
            println!("  {line}");
        }
        println!("{}", report.render_line());
        for v in &report.violations {
            println!("    {v}");
        }
        std::process::exit(i32::from(!report.passed()));
    }

    let corpus: Vec<u64> = std::fs::read_to_string(SWEEP_CORPUS)
        .map_or_else(|_| Vec::new(), |s| sno_check::corpus::parse_seeds(&s));
    let mut all = corpus.clone();
    for s in SweepConfig::fresh_seeds(0, seeds) {
        if !all.contains(&s) {
            all.push(s);
        }
    }
    println!(
        "sim-sweep: {} corpus + {} fresh seeds, {} mode",
        corpus.len(),
        all.len() - corpus.len(),
        if quick { "quick" } else { "full" }
    );
    let report = run_sweep(&SweepConfig {
        seeds: all,
        threads,
        quick,
    });
    print!("{}", report.render());
    let failing = report.failing_seeds();
    for &s in &failing {
        if !corpus.contains(&s) {
            if let Err(e) = append_sweep_seed(s) {
                eprintln!("cannot record seed {s} in {SWEEP_CORPUS}: {e}");
            } else {
                println!("recorded seed {s} in {SWEEP_CORPUS}");
            }
        }
    }
    std::process::exit(i32::from(!failing.is_empty()));
}

/// Append one failing seed to [`SWEEP_CORPUS`], creating it on demand.
fn append_sweep_seed(seed: u64) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = std::path::Path::new(SWEEP_CORPUS).parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(SWEEP_CORPUS)?;
    writeln!(file, "{seed}")
}

/// `--lint`: run the determinism & hermeticity pass over the workspace
/// rooted at the invocation directory (the repo root under `cargo run`)
/// and exit non-zero on any surviving diagnostic. The replay line makes
/// a CI failure reproducible with one paste.
fn run_lint(json: bool) -> ! {
    let report = match sno_lint::lint_workspace(std::path::Path::new(".")) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("repro --lint: cannot scan the workspace: {e}");
            std::process::exit(2);
        }
    };
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if !report.passed() {
        eprintln!("replay locally with: cargo run --release -p sno-bench --bin repro -- --lint");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Ingest the whole NDT stream into a fresh [`OnlineIdentifier`],
/// returning it plus the number of chunks delivered. `progress_every`
/// emits a stderr heartbeat each time that many records have been
/// absorbed (0 = silent) — record counts, never wall-clock, matching
/// the batch streamed path's `StreamOptions::progress_every`.
fn ingest_corpus(
    generator: &MlabGenerator,
    threads: usize,
    chunk_len: usize,
    progress_every: usize,
) -> (OnlineIdentifier, usize) {
    let mut online = OnlineIdentifier::new(Pipeline::with_threads(threads));
    let mut stream = generator.generate_chunks(chunk_len);
    let mut chunks = 0usize;
    let mut milestones = 0usize;
    while let Some(records) = stream.next_chunk() {
        online.ingest(&records);
        chunks += 1;
        if progress_every > 0 && online.ingested() / progress_every > milestones {
            milestones = online.ingested() / progress_every;
            eprintln!("    [online ingest] {} records", online.ingested());
        }
    }
    (online, chunks)
}

/// `--online`: drive the corpus chunk-by-chunk through the incremental
/// identifier and print its snapshot through the shared report renderer.
/// With `--verify-batch`, also run the batch streamed pipeline over the
/// same corpus and exit non-zero unless the online verdicts match
/// field-for-field and the two reports render byte-identically.
fn run_online(config: SynthConfig, chunk: Option<usize>, verify: bool, progress: usize) -> ! {
    let chunk_len = chunk.unwrap_or(sno_bench::context::DEFAULT_CHUNK_LEN);
    let opts = StreamOptions {
        operator_latencies: true,
        progress_every: progress,
        ..StreamOptions::default()
    };
    let generator = MlabGenerator::new(config.clone());
    let (mut online, chunks) = ingest_corpus(&generator, config.threads, chunk_len, progress);
    let resident_before = online.resident_log_bytes();
    let snapshot = online.snapshot(opts);
    online.compact();
    let text = streamed_report_text(&snapshot, config.scale);
    println!(
        "==== online: {} sessions ingested in {chunks} chunks of <= {chunk_len} ====",
        online.ingested()
    );
    println!(
        "resident log: {resident_before} bytes ingested -> {} bytes after snapshot+compact (epoch {})",
        online.resident_log_bytes(),
        online.accept_epoch()
    );
    print!("{text}");
    if !verify {
        std::process::exit(0);
    }

    let batch = Pipeline::with_threads(config.threads)
        .run_streamed(|| generator.generate_chunks(chunk_len), opts);
    let mut mismatches = Vec::new();
    if snapshot.records != batch.records {
        mismatches.push(format!(
            "record count: online {} vs batch {}",
            snapshot.records, batch.records
        ));
    }
    if snapshot.catalog != batch.catalog {
        mismatches.push("catalog (operator, sessions) rows differ".to_string());
    }
    if snapshot.thresholds != batch.thresholds
        || snapshot.default_threshold != batch.default_threshold
    {
        mismatches.push("relaxed thresholds differ".to_string());
    }
    if snapshot.latencies_by_operator != batch.latencies_by_operator {
        mismatches.push("per-operator latency samples differ".to_string());
    }
    let bits_differ = snapshot.bitmap.len() != batch.bitmap.len()
        || (0..snapshot.bitmap.len()).any(|i| snapshot.bitmap.get(i) != batch.bitmap.get(i));
    if bits_differ {
        mismatches.push(format!(
            "acceptance bitmap differs ({} vs {} accepted)",
            snapshot.bitmap.count_ones(),
            batch.bitmap.count_ones()
        ));
    }
    let batch_text = streamed_report_text(&batch, config.scale);
    if text != batch_text {
        mismatches.push("rendered reports are not byte-identical".to_string());
    }
    // The compacted identifier must keep answering byte-identically
    // from its folded state (the resident log is gone by now).
    let recompacted = online.snapshot(opts);
    if streamed_report_text(&recompacted, config.scale) != batch_text {
        mismatches.push("post-compaction snapshot diverges from the batch run".to_string());
    }
    if mismatches.is_empty() {
        println!("verify-batch: online == batch (verdicts and rendered report byte-identical)");
        std::process::exit(0);
    }
    eprintln!("FAIL: online snapshot diverges from the batch run:");
    for m in &mismatches {
        eprintln!("  {m}");
    }
    std::process::exit(1);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--lint") {
        run_lint(args.iter().any(|a| a == "--json"));
    }

    if args.iter().any(|a| a == "--list") {
        for (id, what, _) in EXPERIMENTS {
            println!("{id:<10} {what}");
        }
        return;
    }

    if let Some(pos) = args.iter().position(|a| a == "--bench-diff") {
        let (Some(old_path), Some(new_path)) = (args.get(pos + 1), args.get(pos + 2)) else {
            eprintln!("--bench-diff needs two snapshot paths, e.g. BENCH_1.json BENCH_2.json");
            std::process::exit(2);
        };
        run_bench_diff(old_path, new_path);
    }

    if args.iter().any(|a| a == "--sim-sweep") {
        let grab = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|pos| args.get(pos + 1))
                .map(|v| {
                    v.parse::<u64>().unwrap_or_else(|_| {
                        eprintln!("{flag} needs an unsigned integer, got {v:?}");
                        std::process::exit(2);
                    })
                })
        };
        let seeds = grab("--seeds").map_or(64, |n| n as usize);
        let single = grab("--seed");
        let threads = grab("--threads").map_or(0, |n| n as usize);
        let quick = args.iter().any(|a| a == "--quick");
        run_sim_sweep(seeds, single, threads, quick);
    }

    let bench = if let Some(pos) = args.iter().position(|a| a == "--bench") {
        args.remove(pos);
        true
    } else {
        false
    };
    let online = if let Some(pos) = args.iter().position(|a| a == "--online") {
        args.remove(pos);
        true
    } else {
        false
    };
    let verify_batch = if let Some(pos) = args.iter().position(|a| a == "--verify-batch") {
        args.remove(pos);
        true
    } else {
        false
    };
    if verify_batch && !online {
        eprintln!("--verify-batch only makes sense with --online");
        std::process::exit(2);
    }
    let bench_out = if let Some(pos) = args.iter().position(|a| a == "--bench-out") {
        let path = args.get(pos + 1).cloned().unwrap_or_else(|| {
            eprintln!("--bench-out needs a path");
            std::process::exit(2);
        });
        args.drain(pos..=pos + 1);
        path
    } else {
        next_bench_path()
    };

    // Benches default to the small test corpus so a full sweep stays
    // fast; `--scale` still overrides.
    let mut config = if bench {
        SynthConfig::test_corpus()
    } else {
        SynthConfig::default_corpus()
    };
    if let Some(pos) = args.iter().position(|a| a == "--scale") {
        let value = args
            .get(pos + 1)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| {
                eprintln!("--scale needs a number, e.g. --scale 1e-2");
                std::process::exit(2);
            });
        // `SynthConfig::scale` is a fraction of the paper volume. Above
        // 1 the generators reserve past the paper corpus (1e6 asks for
        // terabytes, ∞ overflows a capacity); NaN, 0 and negatives
        // would silently run at the per-operator session floors.
        if !(value > 0.0 && value <= 1.0) {
            eprintln!("--scale is a fraction of the paper volume in (0, 1], got {value}");
            std::process::exit(2);
        }
        config.scale = value;
        args.drain(pos..=pos + 1);
    }
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        let value = args
            .get(pos + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                eprintln!("--threads needs a count, e.g. --threads 4 (0 = all cores)");
                std::process::exit(2);
            });
        config.threads = value;
        args.drain(pos..=pos + 1);
    }
    let mut chunk: Option<usize> = None;
    if let Some(pos) = args.iter().position(|a| a == "--chunk") {
        let value = args
            .get(pos + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                eprintln!("--chunk needs a positive record count, e.g. --chunk 4096");
                std::process::exit(2);
            });
        chunk = Some(value);
        args.drain(pos..=pos + 1);
    }
    let mut progress = 0usize;
    if let Some(pos) = args.iter().position(|a| a == "--progress") {
        let value = args
            .get(pos + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                eprintln!("--progress needs a record count, e.g. --progress 500000 (0 = silent)");
                std::process::exit(2);
            });
        progress = value;
        args.drain(pos..=pos + 1);
    }

    if online {
        run_online(config, chunk, verify_batch, progress);
    }

    if bench {
        run_bench_mode(config, chunk, &bench_out);
        return;
    }

    let ctx = match chunk {
        Some(c) => ReproContext::with_chunk(config, c),
        None => ReproContext::with_config(config),
    }
    .with_progress(progress);
    let selected: Vec<&str> = if args.is_empty() {
        EXPERIMENTS.iter().map(|(id, ..)| *id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };

    for id in selected {
        match run_experiment(&ctx, id) {
            Some(output) => {
                let what = EXPERIMENTS
                    .iter()
                    .find(|(eid, ..)| *eid == id)
                    .map(|(_, w, _)| *w)
                    .unwrap_or("");
                println!("==== {id}: {what} ====");
                println!("{output}");
            }
            None => {
                eprintln!("unknown experiment '{id}' (try --list)");
                std::process::exit(2);
            }
        }
    }
}
