//! Stage 3b–3c: strict per-`/24` filtering and its relaxation.
//!
//! With LEO operators already identified at ASN granularity, the paper
//! introduces **strict** per-prefix filters for the remaining regimes:
//! keep a `/24` only if it has at least 10 speed tests and *every* test
//! sits above the regime floor (MEO > 200 ms — the 10th percentile of
//! O3b's distribution; GEO > 500 ms, from prior work). This retains 25
//! prefixes across 6 operators but throws away almost everything — pure
//! prefixes die to a handful of outliers (Viasat's `75.105.63.0/24`),
//! and hybrid satellite-backup prefixes mix in terrestrial latencies by
//! design.
//!
//! The **relaxed** filter therefore derives, from the strictly-retained
//! prefixes, each covered operator's minimum plausible satellite
//! latency (548.9 ms for Viasat in the paper) and accepts any test above
//! it; operators not covered by the strict stage use the minimum across
//! covered operators (527 ms in the paper).

use crate::asn_map::AsnMapping;
use crate::validate::{AsnProfile, AsnVerdict};
use sno_stats::FiveNumber;
use sno_types::par;
use sno_types::records::NdtRecord;
use sno_types::{AccessKind, Asn, Operator, OrbitClass, Prefix24};
use std::collections::{BTreeMap, BTreeSet};

/// Minimum tests for a prefix to be considered by the strict filter.
pub const STRICT_MIN_TESTS: usize = 10;

/// MEO regime floor, ms (10th percentile of O3b's latency distribution).
pub const MEO_FLOOR_MS: f64 = 200.0;

/// GEO regime floor, ms (from prior SatCom measurements).
pub const GEO_FLOOR_MS: f64 = 500.0;

/// One strictly-retained prefix.
#[derive(Debug, Clone)]
pub struct PrefixStat {
    pub operator: Operator,
    pub prefix: Prefix24,
    /// Tests observed in this prefix.
    pub tests: usize,
    /// Minimum latency observed (feeds the relaxed thresholds).
    pub min_latency_ms: f64,
    /// Boxplot summary of the prefix's latencies.
    pub summary: FiveNumber,
}

/// Outcome of the strict stage.
#[derive(Debug, Clone)]
pub struct StrictOutcome {
    /// Prefixes that survived.
    pub retained: Vec<PrefixStat>,
    /// `/24`s examined (non-LEO operators, non-outlier ASNs).
    pub examined: usize,
    /// Prefixes that had enough tests but failed the latency-band test.
    pub rejected_band: usize,
    /// Prefixes with fewer than [`STRICT_MIN_TESTS`] tests.
    pub rejected_thin: usize,
}

impl StrictOutcome {
    /// Operators covered by at least one retained prefix.
    pub fn covered(&self) -> BTreeSet<Operator> {
        self.retained.iter().map(|p| p.operator).collect()
    }
}

/// The regime floor for an operator's advertised access.
fn floor_of(access: AccessKind) -> f64 {
    match access {
        AccessKind::Satellite(OrbitClass::Meo) | AccessKind::MeoGeo => MEO_FLOOR_MS,
        _ => GEO_FLOOR_MS,
    }
}

/// How the strict stage ruled on one `(operator, /24)` bucket.
///
/// A bucket's outcome depends only on its own samples and the current
/// outlier-ASN set, which makes it a unit of memoization for the
/// incremental pipeline: buckets are append-only, so an unchanged
/// `(sample count, outlier set)` pair implies an unchanged outcome.
#[derive(Debug, Clone)]
pub(crate) enum BucketOutcome {
    /// Every sample came from an outlier ASN; the bucket was never
    /// examined.
    Empty,
    /// Fewer than [`STRICT_MIN_TESTS`] non-outlier samples.
    Thin,
    /// At least one sample at or below the regime floor.
    Band,
    /// Survived the strict filter.
    Retained(PrefixStat),
}

/// Evaluate the strict filter on a single `(operator, /24)` bucket.
pub(crate) fn strict_eval_bucket(
    op: Operator,
    prefix: Prefix24,
    samples: &[(Asn, f64)],
    outlier_asns: &BTreeSet<Asn>,
) -> BucketOutcome {
    let latencies: Vec<f64> = samples
        .iter()
        .filter(|(asn, _)| !outlier_asns.contains(asn))
        .map(|&(_, l)| l)
        .collect();
    if latencies.is_empty() {
        return BucketOutcome::Empty;
    }
    if latencies.len() < STRICT_MIN_TESTS {
        return BucketOutcome::Thin;
    }
    let floor = floor_of(sno_registry::sources::access_of(op));
    if latencies.iter().all(|&l| l > floor) {
        let min = latencies.iter().cloned().fold(f64::INFINITY, f64::min);
        match FiveNumber::of(&latencies) {
            Some(summary) => BucketOutcome::Retained(PrefixStat {
                operator: op,
                prefix,
                tests: latencies.len(),
                min_latency_ms: min,
                summary,
            }),
            // Unsummarisable means empty, which the thin-prefix gate
            // already counts.
            None => BucketOutcome::Thin,
        }
    } else {
        BucketOutcome::Band
    }
}

/// One borrowed `(key, samples)` entry of a per-`(operator, /24)`
/// bucket map, as sharded by the strict filter and its stage cache.
pub(crate) type PrefixEntry<'a> = (&'a (Operator, Prefix24), &'a Vec<(Asn, f64)>);

/// Fold per-bucket outcomes (in bucket order) into a [`StrictOutcome`].
pub(crate) fn collect_strict<'a>(
    outcomes: impl IntoIterator<Item = &'a BucketOutcome>,
) -> StrictOutcome {
    let mut retained = Vec::new();
    let mut examined = 0usize;
    let mut rejected_band = 0usize;
    let mut rejected_thin = 0usize;
    for outcome in outcomes {
        match outcome {
            BucketOutcome::Empty => continue,
            BucketOutcome::Thin => rejected_thin += 1,
            BucketOutcome::Band => rejected_band += 1,
            BucketOutcome::Retained(stat) => retained.push(stat.clone()),
        }
        examined += 1;
    }
    StrictOutcome {
        retained,
        examined,
        rejected_band,
        rejected_thin,
    }
}

/// The outlier-ASN set a profile pass implies (the strict stage drops
/// samples originating from these ASNs).
pub(crate) fn outlier_set(profiles: &[AsnProfile]) -> BTreeSet<Asn> {
    profiles
        .iter()
        .filter(|p| matches!(p.verdict, AsnVerdict::Outlier(_)))
        .map(|p| p.asn)
        .collect()
}

/// Run the strict per-prefix filter over non-LEO operators.
pub fn strict_filter(
    mapping: &AsnMapping,
    profiles: &[AsnProfile],
    records: &[NdtRecord],
) -> StrictOutcome {
    strict_filter_threaded(mapping, profiles, records, 0)
}

/// [`strict_filter`] with an explicit worker-thread count (`0` = all
/// cores). Prefix buckets are evaluated in fixed-size shards and the
/// per-shard results merged in prefix order, so the outcome is
/// identical at every thread count.
pub fn strict_filter_threaded(
    mapping: &AsnMapping,
    profiles: &[AsnProfile],
    records: &[NdtRecord],
    threads: usize,
) -> StrictOutcome {
    // Group record latencies by (operator, /24), keeping the source ASN
    // so the bucket stage below can drop outlier-ASN samples.
    let mut by_prefix: BTreeMap<(Operator, Prefix24), Vec<(Asn, f64)>> = BTreeMap::new();
    for rec in records {
        let Some(op) = mapping.operator_of(rec.asn) else {
            continue;
        };
        let access = sno_registry::sources::access_of(op);
        if access.includes(OrbitClass::Leo) {
            continue; // LEO is identified at ASN level
        }
        by_prefix
            .entry((op, rec.client.prefix24()))
            .or_default()
            .push((rec.asn, rec.latency_p5.0));
    }
    strict_filter_from_buckets(profiles, &by_prefix, threads)
}

/// The filtering half of [`strict_filter_threaded`], starting from
/// already-bucketed per-`(operator, /24)` samples (non-LEO operators
/// only, each bucket in record order, tagged with the source ASN).
/// This is the entry point for the streaming pipeline: the buckets are
/// accumulated per chunk *before* stage 3 has ruled on any ASN,
/// so outlier-ASN samples are dropped here, and buckets left empty by
/// that cut were never examined.
pub fn strict_filter_from_buckets(
    profiles: &[AsnProfile],
    by_prefix: &BTreeMap<(Operator, Prefix24), Vec<(Asn, f64)>>,
    threads: usize,
) -> StrictOutcome {
    let outlier_asns = outlier_set(profiles);
    let entries: Vec<PrefixEntry> = by_prefix.iter().collect();
    let ranges = par::shard_ranges(entries.len(), par::DEFAULT_CHUNK);
    let parts = par::shard_map(ranges.len(), threads, |s| {
        entries[ranges[s].clone()]
            .iter()
            .map(|(&(op, prefix), samples)| strict_eval_bucket(op, prefix, samples, &outlier_asns))
            .collect::<Vec<_>>()
    });
    collect_strict(parts.iter().flatten())
}

/// Per-operator relaxed thresholds plus the default for operators the
/// strict stage did not cover. Returns `(per_operator, default)`.
///
/// Returns an empty map and `f64::INFINITY` when nothing was retained
/// (then nothing can be relaxed either).
pub fn relaxed_thresholds(strict: &StrictOutcome) -> (BTreeMap<Operator, f64>, f64) {
    let mut per_op: BTreeMap<Operator, f64> = BTreeMap::new();
    for stat in &strict.retained {
        per_op
            .entry(stat.operator)
            .and_modify(|m| *m = m.min(stat.min_latency_ms))
            .or_insert(stat.min_latency_ms);
    }
    let default = per_op.values().cloned().fold(f64::INFINITY, f64::min);
    (per_op, default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn_map::map_asns;
    use crate::validate::{validate_asns, LatencyBands};
    use sno_synth::{MlabGenerator, SynthConfig};

    fn run_stages() -> (StrictOutcome, BTreeMap<Operator, f64>, f64) {
        let corpus = MlabGenerator::new(SynthConfig::test_corpus()).generate();
        let mapping = map_asns();
        let profiles = validate_asns(&mapping, &corpus.records, LatencyBands::default());
        let strict = strict_filter(&mapping, &profiles, &corpus.records);
        let (per_op, default) = relaxed_thresholds(&strict);
        (strict, per_op, default)
    }

    #[test]
    fn strict_stage_retains_a_handful_of_prefixes() {
        let (strict, ..) = run_stages();
        // Paper: 25 prefixes from 6 SNOs. Shape: a few dozen prefixes,
        // a small set of operators, with plenty rejected.
        assert!(
            (10..=45).contains(&strict.retained.len()),
            "retained {} prefixes",
            strict.retained.len()
        );
        let covered = strict.covered();
        assert!((4..=8).contains(&covered.len()), "covered {covered:?}");
        assert!(strict.rejected_thin > 0, "thin prefixes must exist");
    }

    #[test]
    fn high_volume_geo_operators_are_covered() {
        let (strict, ..) = run_stages();
        let covered = strict.covered();
        assert!(covered.contains(&Operator::Viasat));
        assert!(covered.contains(&Operator::Ses));
        // LEO operators never enter the prefix stage.
        assert!(!covered.contains(&Operator::Starlink));
        assert!(!covered.contains(&Operator::Oneweb));
    }

    #[test]
    fn viasat_outlier_prefix_is_discarded_by_strict() {
        let (strict, ..) = run_stages();
        let has_outlier_prefix = strict
            .retained
            .iter()
            .any(|p| p.prefix == Prefix24::new(75, 105, 63));
        assert!(
            !has_outlier_prefix,
            "75.105.63.0/24 must fall to its low-latency outliers"
        );
        // The hybrid prefixes cannot survive either.
        for c in [115u8, 116, 117] {
            assert!(!strict
                .retained
                .iter()
                .any(|p| p.prefix == Prefix24::new(45, 232, c)));
        }
    }

    #[test]
    fn relaxed_thresholds_sit_above_the_geo_floor() {
        let (_, per_op, default) = run_stages();
        let viasat = per_op[&Operator::Viasat];
        assert!(viasat > GEO_FLOOR_MS, "viasat threshold {viasat}");
        assert!(default.is_finite());
        // The default is the minimum across covered operators — SES's
        // MEO prefixes pull it down toward the MEO floor.
        assert!(default <= viasat);
        assert!(default > MEO_FLOOR_MS);
    }

    #[test]
    fn empty_strict_outcome_yields_infinite_default() {
        let strict = StrictOutcome {
            retained: Vec::new(),
            examined: 0,
            rejected_band: 0,
            rejected_thin: 0,
        };
        let (per_op, default) = relaxed_thresholds(&strict);
        assert!(per_op.is_empty());
        assert!(default.is_infinite());
    }
}
