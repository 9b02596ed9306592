//! Output checks: every timed job's report is compared with a reference
//! computed outside the timed region.

use sno_core::{PipelineReport, StreamedReport};

/// Operators the paper's Table 1 catalogs.
pub const TABLE1_SNOS: usize = 18;

/// Where `got` differs from `want` in what a user of the report reads:
/// record count, catalog, relaxed thresholds, the per-record acceptance
/// bitmap, and the per-operator accepted latencies.
pub fn streamed_diff(got: &StreamedReport, want: &StreamedReport) -> Vec<String> {
    let mut diffs = Vec::new();
    if got.records != want.records {
        diffs.push(format!("records {} vs {}", got.records, want.records));
    }
    if got.catalog != want.catalog {
        diffs.push("catalog rows differ".to_string());
    }
    if got.thresholds != want.thresholds || got.default_threshold != want.default_threshold {
        diffs.push("relaxed thresholds differ".to_string());
    }
    let bits_differ = got.bitmap.len() != want.bitmap.len()
        || (0..got.bitmap.len()).any(|i| got.bitmap.get(i) != want.bitmap.get(i));
    if bits_differ {
        diffs.push("acceptance bitmap differs".to_string());
    }
    if got.latencies_by_operator != want.latencies_by_operator {
        diffs.push("per-operator latencies differ".to_string());
    }
    diffs
}

/// Where a streamed report differs from the materialized
/// `Pipeline::run` oracle, plus a catalog that is not the paper's 18
/// operators.
pub fn oracle_diff(got: &StreamedReport, oracle: &PipelineReport) -> Vec<String> {
    let mut diffs = Vec::new();
    if got.records != oracle.accepted.len() {
        diffs.push(format!(
            "records {} vs oracle {}",
            got.records,
            oracle.accepted.len()
        ));
    }
    if got.catalog != oracle.catalog {
        diffs.push("catalog differs from Pipeline::run".to_string());
    }
    if got.thresholds != oracle.thresholds || got.default_threshold != oracle.default_threshold {
        diffs.push("thresholds differ from Pipeline::run".to_string());
    }
    let bits_differ = got.bitmap.len() != oracle.accepted.len()
        || oracle
            .accepted
            .iter()
            .enumerate()
            .any(|(i, a)| got.bitmap.get(i) != a.is_some());
    if bits_differ {
        diffs.push("bitmap differs from Pipeline::run".to_string());
    }
    if got.sno_count() != TABLE1_SNOS {
        diffs.push(format!(
            "catalog has {} SNOs, not {TABLE1_SNOS}",
            got.sno_count()
        ));
    }
    diffs
}

/// Repeated runs of one deterministic job: every report must equal the
/// first, which is judged against a reference once timing is over.
#[derive(Default)]
pub struct Repeats {
    pub first: Option<StreamedReport>,
    pub runs: u64,
    differing: u64,
}

impl Repeats {
    pub fn observe(&mut self, report: StreamedReport) {
        self.runs += 1;
        match &self.first {
            None => self.first = Some(report),
            Some(first) => {
                if !streamed_diff(&report, first).is_empty() {
                    self.differing += 1;
                }
            }
        }
    }

    /// Failed runs, given the first report's differences from the
    /// reference: with a wrong first report every run counts as failed
    /// (those equal to it are wrong, the rest are nondeterministic).
    pub fn failed(&self, first_diffs: &[String]) -> u64 {
        for diff in first_diffs {
            eprintln!("sno-perfbench: check failed: {diff}");
        }
        if self.differing > 0 {
            eprintln!(
                "sno-perfbench: check failed: {} of {} runs differ from the first",
                self.differing, self.runs
            );
        }
        if first_diffs.is_empty() {
            self.differing
        } else {
            self.runs
        }
    }
}
