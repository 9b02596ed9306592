//! Section 4's bird's-eye analyses over the identified traffic.
//!
//! Every function takes the original record slice plus the pipeline
//! report, so nothing here ever sees a record the identification stage
//! rejected.

use crate::pipeline::PipelineReport;
use sno_stats::{
    daily_medians, timeseries::daily_variation_p95, DailyPoint, Ecdf, FiveNumber, QuantileSketch,
};
use sno_types::records::NdtRecord;
use sno_types::{AccessKind, Operator, OrbitClass};
use std::collections::BTreeMap;

/// The four transport populations of Figure 4c.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OrbitGroup {
    Leo,
    Meo,
    /// GEO operators running Performance Enhancing Proxies.
    GeoPep,
    /// All other GEO operators.
    GeoOther,
}

impl std::fmt::Display for OrbitGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OrbitGroup::Leo => "LEO",
            OrbitGroup::Meo => "MEO",
            OrbitGroup::GeoPep => "GEO (PEP)",
            OrbitGroup::GeoOther => "GEO (others)",
        })
    }
}

/// The orbit a single accepted record rode on. SES records split by
/// latency (its MEO and GEO fleets share ASNs); everyone else follows
/// their advertised access.
pub fn orbit_of(op: Operator, record: &NdtRecord) -> OrbitClass {
    match sno_registry::sources::access_of(op) {
        AccessKind::Satellite(orbit) => orbit,
        AccessKind::MeoGeo => {
            if record.latency_p5.0 < 450.0 {
                OrbitClass::Meo
            } else {
                OrbitClass::Geo
            }
        }
    }
}

/// The Figure 4c population of a record.
pub fn orbit_group_of(op: Operator, record: &NdtRecord) -> OrbitGroup {
    match orbit_of(op, record) {
        OrbitClass::Leo => OrbitGroup::Leo,
        OrbitClass::Meo => OrbitGroup::Meo,
        OrbitClass::Geo => {
            if sno_registry::profile::profile_of(op).uses_pep {
                OrbitGroup::GeoPep
            } else {
                OrbitGroup::GeoOther
            }
        }
    }
}

/// Figure 3c: per-operator boxplot statistics of accepted access
/// latencies, sorted by median ascending.
pub fn latency_by_operator(
    records: &[NdtRecord],
    report: &PipelineReport,
) -> Vec<(Operator, FiveNumber)> {
    let mut by_op: BTreeMap<Operator, Vec<f64>> = BTreeMap::new();
    for (rec, acc) in records.iter().zip(&report.accepted) {
        if let Some(op) = acc {
            by_op.entry(*op).or_default().push(rec.latency_p5.0);
        }
    }
    latency_table(&by_op)
}

/// The Figure 3c table from already-bucketed accepted latencies (the
/// shape the streamed accept pass emits): per-operator boxplot
/// statistics sorted by median ascending.
pub fn latency_table(by_op: &BTreeMap<Operator, Vec<f64>>) -> Vec<(Operator, FiveNumber)> {
    let mut out: Vec<(Operator, FiveNumber)> = by_op
        .iter()
        .filter_map(|(&op, lat)| FiveNumber::of(lat).map(|s| (op, s)))
        .collect();
    out.sort_by(|a, b| a.1.median.total_cmp(&b.1.median));
    out
}

/// [`latency_table`] plus per-operator latency ECDFs from a *single*
/// sort per operator: the samples are sorted once and both the
/// five-number summary and the ECDF are built over the shared sorted
/// vector ([`FiveNumber::from_sorted`] / [`Ecdf::from_sorted`]), instead
/// of each constructor re-sorting its own copy.
pub fn latency_table_with_ecdfs(
    by_op: &BTreeMap<Operator, Vec<f64>>,
) -> (Vec<(Operator, FiveNumber)>, BTreeMap<Operator, Ecdf>) {
    let mut table = Vec::new();
    let mut ecdfs = BTreeMap::new();
    for (&op, lat) in by_op {
        let mut sorted = lat.clone();
        sorted.sort_by(f64::total_cmp);
        let Some(summary) = FiveNumber::from_sorted(&sorted) else {
            continue;
        };
        table.push((op, summary));
        if let Some(ecdf) = Ecdf::from_sorted(sorted) {
            ecdfs.insert(op, ecdf);
        }
    }
    table.sort_by(|a, b| a.1.median.total_cmp(&b.1.median));
    (table, ecdfs)
}

/// The Figure 3c table shape from per-operator streaming sketches (what
/// [`OnlineIdentifier`](crate::online::OnlineIdentifier) maintains):
/// counts, minima and maxima are exact, the quartiles carry the
/// sketch's bounded relative error. Sorted by median ascending, as
/// [`latency_table`].
pub fn latency_table_from_sketches(
    by_op: &BTreeMap<Operator, QuantileSketch>,
) -> Vec<(Operator, FiveNumber)> {
    let mut out: Vec<(Operator, FiveNumber)> = by_op
        .iter()
        .filter_map(|(&op, sketch)| FiveNumber::from_sketch(sketch).map(|s| (op, s)))
        .collect();
    out.sort_by(|a, b| a.1.median.total_cmp(&b.1.median));
    out
}

/// Figure 4a: daily latency medians for one operator, plus the paper's
/// "daily latency variation (95th %ile)" figure.
///
/// One full corpus scan per call — figure paths that need several
/// operators should use [`stability_by_operator`].
pub fn stability(
    records: &[NdtRecord],
    report: &PipelineReport,
    op: Operator,
) -> (Vec<DailyPoint>, Option<f64>) {
    let mut by_op = stability_by_operator(records, report, &[op]);
    by_op.remove(&op).unwrap_or_default()
}

/// [`stability`] for several operators in a single pass over the
/// corpus: samples are grouped per operator while scanning once, then
/// reduced to daily medians and the variation figure per operator.
pub fn stability_by_operator(
    records: &[NdtRecord],
    report: &PipelineReport,
    ops: &[Operator],
) -> BTreeMap<Operator, (Vec<DailyPoint>, Option<f64>)> {
    let mut samples: BTreeMap<Operator, Vec<(sno_types::Timestamp, f64)>> =
        ops.iter().map(|&op| (op, Vec::new())).collect();
    for (rec, acc) in records.iter().zip(&report.accepted) {
        if let Some(op) = acc {
            if let Some(bucket) = samples.get_mut(op) {
                bucket.push((rec.timestamp, rec.latency_p5.0));
            }
        }
    }
    samples
        .into_iter()
        .map(|(op, s)| {
            let daily = daily_medians(&s);
            let variation = daily_variation_p95(&daily);
            (op, (daily, variation))
        })
        .collect()
}

/// Figure 4b: jitter variation (`jitter_p95 / latency_p5`) samples per
/// orbit, plus the absolute jitter samples for the inset.
#[derive(Debug, Clone)]
pub struct JitterAnalysis {
    /// Relative jitter-variation samples per orbit.
    pub variation: BTreeMap<OrbitClass, Vec<f64>>,
    /// Absolute jitter (ms) samples per orbit.
    pub absolute: BTreeMap<OrbitClass, Vec<f64>>,
}

impl JitterAnalysis {
    /// Median jitter variation of one orbit, if sampled.
    pub fn median_variation(&self, orbit: OrbitClass) -> Option<f64> {
        sno_stats::median(self.variation.get(&orbit)?)
    }

    /// Fraction of one orbit's sessions with absolute jitter at or above
    /// `ms` (the inset's "over 80% of GEO at 100 ms or more").
    pub fn tail_at_least(&self, orbit: OrbitClass, ms: f64) -> Option<f64> {
        Ecdf::new(self.absolute.get(&orbit)?).map(|e| e.tail_at_least(ms))
    }
}

/// Compute Figure 4b's jitter populations.
pub fn jitter_by_orbit(records: &[NdtRecord], report: &PipelineReport) -> JitterAnalysis {
    let mut variation: BTreeMap<OrbitClass, Vec<f64>> = BTreeMap::new();
    let mut absolute: BTreeMap<OrbitClass, Vec<f64>> = BTreeMap::new();
    for (rec, acc) in records.iter().zip(&report.accepted) {
        if let Some(op) = acc {
            let orbit = orbit_of(*op, rec);
            variation
                .entry(orbit)
                .or_default()
                .push(rec.jitter_variation());
            absolute.entry(orbit).or_default().push(rec.jitter_p95.0);
        }
    }
    JitterAnalysis {
        variation,
        absolute,
    }
}

/// Figure 4c: retransmitted-byte fractions per transport population.
pub fn retransmissions(
    records: &[NdtRecord],
    report: &PipelineReport,
) -> BTreeMap<OrbitGroup, Vec<f64>> {
    let mut out: BTreeMap<OrbitGroup, Vec<f64>> = BTreeMap::new();
    for (rec, acc) in records.iter().zip(&report.accepted) {
        if let Some(op) = acc {
            out.entry(orbit_group_of(*op, rec))
                .or_default()
                .push(rec.retrans_fraction);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use sno_synth::{MlabCorpus, MlabGenerator, SynthConfig};
    use std::sync::OnceLock;

    fn fixture() -> &'static (MlabCorpus, PipelineReport) {
        static FIXTURE: OnceLock<(MlabCorpus, PipelineReport)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let corpus = MlabGenerator::new(SynthConfig::test_corpus()).generate();
            let report = Pipeline::new().run(&corpus.records);
            (corpus, report)
        })
    }

    #[test]
    fn latency_ladder_matches_figure_3c() {
        let (corpus, report) = fixture();
        let table = latency_by_operator(&corpus.records, report);
        let median_of = |op: Operator| {
            table
                .iter()
                .find(|(o, _)| *o == op)
                .map(|(_, s)| s.median)
                .unwrap()
        };
        let starlink = median_of(Operator::Starlink);
        let oneweb = median_of(Operator::Oneweb);
        let o3b = median_of(Operator::O3b);
        let ssi = median_of(Operator::Ssi);
        let kvh = median_of(Operator::Kvh);
        assert!((40.0..80.0).contains(&starlink), "starlink {starlink}");
        assert!(starlink < oneweb, "starlink {starlink} oneweb {oneweb}");
        assert!(oneweb < o3b, "oneweb {oneweb} o3b {o3b}");
        assert!(o3b < ssi, "o3b {o3b} ssi {ssi}");
        assert!(ssi < kvh, "ssi {ssi} kvh {kvh}");
        assert!((550.0..730.0).contains(&ssi), "ssi {ssi}");
        assert!(kvh > 780.0, "kvh {kvh}");
    }

    #[test]
    fn shared_sort_table_matches_per_constructor_sorts() {
        let (corpus, report) = fixture();
        let mut by_op: BTreeMap<Operator, Vec<f64>> = BTreeMap::new();
        for (rec, acc) in corpus.records.iter().zip(&report.accepted) {
            if let Some(op) = acc {
                by_op.entry(*op).or_default().push(rec.latency_p5.0);
            }
        }
        let (table, ecdfs) = latency_table_with_ecdfs(&by_op);
        assert_eq!(table, latency_table(&by_op));
        assert_eq!(ecdfs.len(), by_op.len());
        for (op, lat) in &by_op {
            let fresh = Ecdf::new(lat).unwrap();
            let shared = &ecdfs[op];
            assert_eq!(shared.len(), fresh.len(), "{op:?}");
            assert_eq!(shared.steps(), fresh.steps(), "{op:?}");
        }
    }

    #[test]
    fn sketch_table_tracks_exact_table() {
        let (corpus, report) = fixture();
        let mut by_op: BTreeMap<Operator, Vec<f64>> = BTreeMap::new();
        let mut sketches: BTreeMap<Operator, QuantileSketch> = BTreeMap::new();
        for (rec, acc) in corpus.records.iter().zip(&report.accepted) {
            if let Some(op) = acc {
                by_op.entry(*op).or_default().push(rec.latency_p5.0);
                sketches.entry(*op).or_default().push(rec.latency_p5.0);
            }
        }
        let exact = latency_table(&by_op);
        let approx = latency_table_from_sketches(&sketches);
        assert_eq!(approx.len(), exact.len());
        let exact_of = |op: Operator| exact.iter().find(|(o, _)| *o == op).unwrap().1;
        for &(op, got) in &approx {
            let want = exact_of(op);
            assert_eq!(got.count, want.count, "{op:?}");
            assert_eq!(got.min, want.min, "{op:?}");
            assert_eq!(got.max, want.max, "{op:?}");
            let bound = QuantileSketch::RELATIVE_ERROR * want.max.abs() + 1e-12;
            for (g, w) in [
                (got.q1, want.q1),
                (got.median, want.median),
                (got.q3, want.q3),
            ] {
                assert!((g - w).abs() <= bound, "{op:?}: {g} vs {w} (bound {bound})");
            }
        }
    }

    #[test]
    fn geo_median_near_the_papers_673ms() {
        let (corpus, report) = fixture();
        let geo: Vec<f64> = corpus
            .records
            .iter()
            .zip(&report.accepted)
            .filter_map(|(rec, acc)| {
                let op = (*acc)?;
                (orbit_of(op, rec) == OrbitClass::Geo).then_some(rec.latency_p5.0)
            })
            .collect();
        let med = sno_stats::median(&geo).unwrap();
        assert!((600.0..760.0).contains(&med), "GEO median {med}");
    }

    #[test]
    fn stability_ranking_matches_figure_4a() {
        // Daily medians need daily volume; use a concentrated window so
        // each day holds a few dozen Starlink sessions (the full-scale
        // corpus has thousands per day).
        use sno_types::Date;
        let cfg = sno_synth::SynthConfig {
            mlab_start: Date::new(2022, 12, 1),
            mlab_end: Date::new(2022, 12, 31),
            ..sno_synth::SynthConfig::test_corpus()
        };
        let corpus = MlabGenerator::new(cfg).generate();
        let report = Pipeline::new().run(&corpus.records);
        let var = |op: Operator| stability(&corpus.records, &report, op).1.unwrap();
        let starlink = var(Operator::Starlink);
        let hughes = var(Operator::Hughes);
        assert!(
            starlink < 0.25,
            "Starlink daily variation should be small: {starlink}"
        );
        assert!(
            hughes > 2.0 * starlink,
            "HughesNet {hughes} vs Starlink {starlink}"
        );
    }

    #[test]
    fn grouped_stability_matches_single_operator_scans() {
        let (corpus, report) = fixture();
        let ops = [Operator::Starlink, Operator::Viasat];
        let grouped = stability_by_operator(&corpus.records, report, &ops);
        assert_eq!(grouped.len(), ops.len());
        for op in ops {
            let (daily, variation) = stability(&corpus.records, report, op);
            assert_eq!(grouped[&op].0, daily, "{op:?}");
            assert_eq!(grouped[&op].1, variation, "{op:?}");
        }
    }

    #[test]
    fn leo_jitter_variation_exceeds_geo() {
        let (corpus, report) = fixture();
        let j = jitter_by_orbit(&corpus.records, report);
        let leo = j.median_variation(OrbitClass::Leo).unwrap();
        let geo = j.median_variation(OrbitClass::Geo).unwrap();
        assert!(leo > geo, "leo {leo} vs geo {geo}");
        assert!((0.2..1.2).contains(&leo), "leo {leo}");
    }

    #[test]
    fn absolute_jitter_flips_the_comparison() {
        // The Figure 4b inset: GEO dominates in *absolute* jitter.
        let (corpus, report) = fixture();
        let j = jitter_by_orbit(&corpus.records, report);
        let geo_tail = j.tail_at_least(OrbitClass::Geo, 100.0).unwrap();
        let leo_tail = j.tail_at_least(OrbitClass::Leo, 100.0).unwrap();
        assert!(geo_tail > 0.5, "GEO ≥100 ms share {geo_tail}");
        assert!(leo_tail < 0.25, "LEO ≥100 ms share {leo_tail}");
        assert!(geo_tail > leo_tail);
    }

    #[test]
    fn pep_flattens_geo_retransmissions() {
        let (corpus, report) = fixture();
        let groups = retransmissions(&corpus.records, report);
        let med = |g: OrbitGroup| sno_stats::median(&groups[&g]).unwrap();
        let leo = med(OrbitGroup::Leo);
        let geo_pep = med(OrbitGroup::GeoPep);
        let geo_other = med(OrbitGroup::GeoOther);
        assert!(
            geo_other > 4.0 * geo_pep.max(0.002),
            "others {geo_other} vs pep {geo_pep}"
        );
        assert!(geo_pep < leo + 0.02, "pep {geo_pep} vs leo {leo}");
        assert!(
            (0.03..0.20).contains(&geo_other),
            "GEO (others) median {geo_other}"
        );
    }

    #[test]
    fn meo_retransmits_more_than_leo() {
        let (corpus, report) = fixture();
        let groups = retransmissions(&corpus.records, report);
        let leo = sno_stats::median(&groups[&OrbitGroup::Leo]).unwrap();
        let meo = sno_stats::median(&groups[&OrbitGroup::Meo]).unwrap();
        assert!(meo > leo, "meo {meo} vs leo {leo}");
    }
}
