//! The SNO identification benchmark: three workloads, measured end to
//! end, plus a separate traced run that times each layer from outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path benches/perf/Cargo.toml -- \
//!     --workload identify_replay --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The untraced run (`--trace 0`) calls only the user-facing entry
//! points (`MlabGenerator::generate_chunks`, the SNOC codec,
//! `Pipeline::run_streamed`, `OnlineIdentifier::{ingest, snapshot,
//! compact}`) and reports the end-to-end metrics. The traced run
//! (`--trace 1`) composes the layers' public functions itself and
//! reports the per-layer metrics. Both check the program's outputs; the
//! last line of stdout is one JSON object, and any failed check makes
//! the process exit non-zero. Workloads, sizes and the layer map are
//! documented in `benches/perf/README.md`.

mod calib;
mod check;
mod setup;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

/// Worker threads for every sharded stage. Outputs are byte-identical
/// at any setting. One thread: on the two-vCPU reference box a second
/// worker measured slower for identification and the online loop (one
/// ASN bucket dominates the KDE stage, and every sharded call spawns
/// its workers), and a parallel section stalls whenever the host
/// preempts either vCPU, which widened the run-to-run spread.
pub const THREADS: usize = 1;

/// One named metric value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run produced: the output-check tally and its metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    Table1Streamed,
    IdentifyReplay,
    OnlinePoll,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "table1_streamed" => Some(Workload::Table1Streamed),
            "identify_replay" => Some(Workload::IdentifyReplay),
            "online_poll" => Some(Workload::OnlinePoll),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        format!("unknown workload {workload:?} (table1_streamed, identify_replay, online_poll)")
    })?;
    let seed = value("--seed")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("--seed needs an unsigned integer, got {seed:?}"))?;
    let seconds = value("--seconds")?;
    let seconds = seconds
        .parse::<u64>()
        .ok()
        .filter(|&s| s > 0)
        .ok_or_else(|| format!("--seconds needs a positive integer, got {seconds:?}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace needs 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a sample, `q` in `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; such a value fails the run.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("sno-perfbench: {msg}");
            eprintln!(
                "usage: sno-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "sno-perfbench: workload {:?}, seed {}, {} s, trace {}, threads {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        THREADS,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut outcome = if args.trace {
        trace::run(args.workload, args.seed)
    } else {
        workloads::run(args.workload, args.seed, args.seconds)
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("sno-perfbench: metric {} is not finite", bad.name);
        outcome.failed += 1;
    }
    eprintln!(
        "sno-perfbench: fail_ratio {}/{} = {}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for m in &outcome.metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
