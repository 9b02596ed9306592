//! Stage 3: latency-profile validation of ASN→SNO mappings.
//!
//! For every (operator, ASN) with enough speed tests, count the share
//! of per-session p5 latencies inside each latency regime and compare
//! it to the regimes the operator's advertised access technology can
//! produce. The paper reads these regimes off a KDE of each ASN's
//! latencies (Figure 2); the verdicts here need only the empirical band
//! masses, so they are counted straight off the bucket and no density
//! is fitted. The KDE grid only draws Figure 2 ([`kde_modes`]). The
//! checks reproduce Figure 2's findings:
//!
//! * AS27277 (Starlink) has a terrestrial profile → corporate outlier;
//! * AS201554 (SES) lacks the expected MEO+GEO bimodality → outlier;
//! * AS10538 (TelAlaska) mixes a GEO mode with a terrestrial mode inside
//!   one ASN → cannot be resolved at ASN granularity, needs the prefix
//!   stage.

use crate::asn_map::AsnMapping;
use sno_registry::sources::access_of;
use sno_stats::{Kde, QuantileSketch};
use sno_types::par;
use sno_types::{AccessKind, Asn, Operator, OrbitClass};
use std::collections::BTreeMap;

/// Latency bands (ms) per regime, used to interrogate the sample mass.
#[derive(Debug, Clone, Copy)]
pub struct LatencyBands {
    /// Anything below this is terrestrial-like.
    pub terrestrial_max: f64,
    /// LEO regime.
    pub leo: (f64, f64),
    /// MEO regime.
    pub meo: (f64, f64),
    /// GEO regime.
    pub geo: (f64, f64),
}

impl Default for LatencyBands {
    fn default() -> Self {
        LatencyBands {
            terrestrial_max: 100.0,
            leo: (35.0, 300.0),
            meo: (150.0, 450.0),
            geo: (450.0, 1_200.0),
        }
    }
}

impl LatencyBands {
    /// The band for one orbit class.
    pub fn band(&self, orbit: OrbitClass) -> (f64, f64) {
        match orbit {
            OrbitClass::Leo => self.leo,
            OrbitClass::Meo => self.meo,
            OrbitClass::Geo => self.geo,
        }
    }
}

/// The verdict on one ASN.
#[derive(Debug, Clone, PartialEq)]
pub enum AsnVerdict {
    /// Latency profile matches the operator's access technology.
    Consistent,
    /// Profile matches, but a minority mass sits in foreign regimes
    /// (hybrid lines or outliers inside the ASN) — the prefix stage has
    /// to sort it out. Carries the fraction of mass outside the
    /// expected bands.
    MixedWithinAsn(f64),
    /// Profile is incompatible with the advertised technology (e.g. a
    /// terrestrial corporate network); exclude the ASN.
    Outlier(&'static str),
    /// Too few tests to judge.
    Insufficient,
}

/// Latency-profile summary for one (operator, ASN): counted band masses
/// and the verdict. The Figure 2 KDE mode count is not part of it — see
/// [`kde_modes`].
#[derive(Debug, Clone)]
pub struct AsnProfile {
    pub operator: Operator,
    pub asn: Asn,
    /// Number of speed tests observed.
    pub tests: usize,
    /// Mass below `terrestrial_max`.
    pub terrestrial_mass: f64,
    /// Mass inside each expected band of the operator's access kind.
    pub expected_mass: f64,
    /// The verdict.
    pub verdict: AsnVerdict,
}

/// Minimum tests before a verdict is attempted.
pub const MIN_TESTS_FOR_VERDICT: usize = 25;

/// Validate every mapped ASN from its bucket of latency samples (each
/// bucket in record order, as [`CorpusStats`](crate::stream::CorpusStats)
/// accumulates them; an ASN without a bucket has no samples). Each
/// (operator, ASN) profile is an independent band count, so the
/// profiles fan out across the pool and merge in mapping order — the
/// output is identical at every thread count (`0` = all cores).
pub fn profiles_from_buckets(
    mapping: &AsnMapping,
    by_asn: &BTreeMap<Asn, Vec<f64>>,
    bands: LatencyBands,
    threads: usize,
) -> Vec<AsnProfile> {
    let pairs: Vec<(Operator, Asn)> = mapping
        .mapping
        .iter()
        .flat_map(|(&op, asns)| asns.iter().map(move |&asn| (op, asn)))
        .collect();
    par::shard_map(pairs.len(), threads, |i| {
        let (op, asn) = pairs[i];
        let latencies = by_asn.get(&asn).map(Vec::as_slice).unwrap_or(&[]);
        profile_one(op, asn, latencies, bands)
    })
}

/// Validate one ASN's latency sample. Band masses are counted straight
/// off the unsorted bucket (see [`counted_mass`]); no density is fitted.
pub fn profile_one(
    operator: Operator,
    asn: Asn,
    latencies: &[f64],
    bands: LatencyBands,
) -> AsnProfile {
    profile_with(operator, asn, latencies.len(), bands, |lo, hi| {
        counted_mass(latencies, lo, hi)
    })
}

/// Fraction of `latencies` inside `[lo, hi)`: `#{s : lo <= s < hi} / n`.
///
/// Bitwise equal to `Kde::fit(latencies).mass_in(lo, hi)` (the sorted
/// `partition_point` difference) for any `lo <= hi` and every NaN-free
/// sample, infinities, duplicates and band-edge values included. A NaN
/// sample counts in no band. (On the sorted path a negative NaN sorts
/// first and breaks the partition, so its answer there is unspecified.)
/// Empty input has no mass.
pub fn counted_mass(latencies: &[f64], lo: f64, hi: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let inside = latencies.iter().filter(|&&s| lo <= s && s < hi).count();
    inside as f64 / latencies.len() as f64
}

/// The KDE mode count Figure 2 prints for one ASN's latencies: the
/// local maxima of the Gaussian KDE over a 400-point 0–1200 ms grid
/// that rise above 20% of the peak. `0` below
/// [`MIN_TESTS_FOR_VERDICT`] samples. Descriptive only — no verdict
/// rule reads it.
pub fn kde_modes(latencies: &[f64]) -> usize {
    if latencies.len() < MIN_TESTS_FOR_VERDICT {
        return 0;
    }
    Kde::fit(latencies).map_or(0, |kde| kde.modes_on_grid(0.0, 1_200.0, 400, 0.2))
}

/// Validate one ASN from its streaming latency sketch instead of a
/// retained sample buffer — the online service's buffer-free verdict
/// path. Band masses come from [`QuantileSketch::mass_in`], whose
/// per-boundary error is one sketch bin (~0.05% relative), so verdicts
/// agree with [`profile_one`]'s counted masses except for samples
/// landing *exactly* on a band edge at bin resolution.
pub fn profile_from_sketch(
    operator: Operator,
    asn: Asn,
    sketch: &QuantileSketch,
    bands: LatencyBands,
) -> AsnProfile {
    profile_with(operator, asn, sketch.count() as usize, bands, |lo, hi| {
        sketch.mass_in(lo, hi)
    })
}

/// Build a profile from `tests` samples whose band masses `mass_in`
/// answers: `Insufficient` below [`MIN_TESTS_FOR_VERDICT`], otherwise
/// the terrestrial and expected-band masses plus [`judge`]'s verdict.
fn profile_with(
    operator: Operator,
    asn: Asn,
    tests: usize,
    bands: LatencyBands,
    mass_in: impl Fn(f64, f64) -> f64,
) -> AsnProfile {
    if tests < MIN_TESTS_FOR_VERDICT {
        return AsnProfile {
            operator,
            asn,
            tests,
            terrestrial_mass: 0.0,
            expected_mass: 0.0,
            verdict: AsnVerdict::Insufficient,
        };
    }
    let access = access_of(operator);
    let terrestrial_mass = mass_in(0.0, bands.terrestrial_max);
    let expected_mass: f64 = access
        .orbits()
        .iter()
        .map(|&orbit| {
            let (lo, hi) = bands.band(orbit);
            mass_in(lo, hi)
        })
        .sum();
    let verdict = judge(access, expected_mass, mass_in, bands);
    AsnProfile {
        operator,
        asn,
        tests,
        terrestrial_mass,
        expected_mass,
        verdict,
    }
}

/// The verdict rules, abstracted over the band-mass query so the
/// counted ([`profile_one`]) and sketch-backed
/// ([`profile_from_sketch`]) paths share one rule set: given the same
/// masses, they return the same verdict by construction.
fn judge(
    access: AccessKind,
    expected_mass: f64,
    mass_in: impl Fn(f64, f64) -> f64,
    bands: LatencyBands,
) -> AsnVerdict {
    // A mapping whose traffic is mostly terrestrial is not satellite
    // subscriber traffic at all. The terrestrial cut-off is the lower
    // edge of the operator's lowest expected band (35 ms for LEO — a
    // bent pipe plus uplink scheduling cannot go faster; 100 ms cap for
    // everything else).
    let lowest_lo = access
        .orbits()
        .iter()
        .map(|&o| bands.band(o).0)
        .fold(f64::INFINITY, f64::min);
    let floor = bands.terrestrial_max.min(lowest_lo);
    if mass_in(0.0, floor) > 0.5 {
        return AsnVerdict::Outlier("terrestrial latency profile");
    }
    // Hybrid MEO+GEO access must actually show both modes.
    if access == AccessKind::MeoGeo {
        let (mlo, mhi) = bands.meo;
        let (glo, ghi) = bands.geo;
        let meo_mass = mass_in(mlo, mhi);
        let geo_mass = mass_in(glo, ghi);
        if meo_mass < 0.10 || geo_mass < 0.10 {
            return AsnVerdict::Outlier("expected bimodal MEO+GEO profile missing");
        }
    }
    if expected_mass >= 0.9 {
        AsnVerdict::Consistent
    } else if expected_mass >= 0.5 {
        AsnVerdict::MixedWithinAsn(1.0 - expected_mass)
    } else {
        AsnVerdict::Outlier("latency mass outside the advertised regime")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn_map::map_asns;
    use sno_types::Rng;

    fn bands() -> LatencyBands {
        LatencyBands::default()
    }

    fn sample(mut f: impl FnMut(&mut Rng) -> f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| f(&mut rng)).collect()
    }

    #[test]
    fn clean_leo_asn_is_consistent() {
        let lat = sample(|r| r.normal_with(56.0, 8.0).max(25.0), 500, 1);
        let p = profile_one(Operator::Starlink, Asn(14593), &lat, bands());
        assert_eq!(p.verdict, AsnVerdict::Consistent);
        assert!(p.expected_mass > 0.9);
    }

    #[test]
    fn corporate_terrestrial_asn_is_outlier() {
        let lat = sample(|r| r.normal_with(18.0, 5.0).max(3.0), 300, 2);
        let p = profile_one(Operator::Starlink, Asn(27277), &lat, bands());
        // A pile of sub-25 ms latencies has little mass in the LEO band.
        assert!(
            matches!(p.verdict, AsnVerdict::Outlier(_)),
            "{:?}",
            p.verdict
        );
    }

    #[test]
    fn geo_with_terrestrial_majority_is_outlier() {
        let lat = sample(|r| r.normal_with(25.0, 6.0).max(5.0), 300, 3);
        let p = profile_one(Operator::Ses, Asn(201554), &lat, bands());
        assert_eq!(
            p.verdict,
            AsnVerdict::Outlier("terrestrial latency profile")
        );
    }

    #[test]
    fn unimodal_hybrid_is_outlier() {
        // SES advertises MEO+GEO but this ASN only shows GEO.
        let lat = sample(|r| r.normal_with(650.0, 40.0), 300, 4);
        let p = profile_one(Operator::Ses, Asn(201554), &lat, bands());
        assert_eq!(
            p.verdict,
            AsnVerdict::Outlier("expected bimodal MEO+GEO profile missing")
        );
    }

    #[test]
    fn genuine_hybrid_is_consistent() {
        let lat = sample(
            |r| {
                if r.chance(0.45) {
                    r.normal_with(280.0, 30.0)
                } else {
                    r.normal_with(680.0, 50.0)
                }
            },
            600,
            5,
        );
        let p = profile_one(Operator::Ses, Asn(12684), &lat, bands());
        assert_eq!(p.verdict, AsnVerdict::Consistent, "{p:?}");
        assert_eq!(kde_modes(&lat), 2);
    }

    #[test]
    fn mixed_geo_and_terrestrial_flagged_as_mixed() {
        // TelAlaska-style: 65% GEO, 35% wireline.
        let lat = sample(
            |r| {
                if r.chance(0.35) {
                    r.normal_with(30.0, 8.0).max(5.0)
                } else {
                    r.normal_with(680.0, 50.0)
                }
            },
            600,
            6,
        );
        let p = profile_one(Operator::Telalaska, Asn(10538), &lat, bands());
        match p.verdict {
            AsnVerdict::MixedWithinAsn(foreign) => {
                assert!((0.2..0.5).contains(&foreign), "foreign {foreign}")
            }
            other => panic!("expected Mixed, got {other:?}"),
        }
    }

    #[test]
    fn too_few_tests_is_insufficient() {
        let lat = vec![600.0; 10];
        let p = profile_one(Operator::Kacific, Asn(135409), &lat, bands());
        assert_eq!(p.verdict, AsnVerdict::Insufficient);
        assert_eq!(kde_modes(&lat), 0);
    }

    #[test]
    fn sketch_profiles_agree_with_counted_profiles() {
        // The sketch-backed path must reproduce the counted verdicts on
        // every synthetic profile shape: clean LEO, terrestrial
        // corporate, unimodal hybrid, genuine hybrid, GEO+terrestrial
        // mix, and thin samples.
        let cases: Vec<(Operator, Asn, Vec<f64>)> = vec![
            (
                Operator::Starlink,
                Asn(14593),
                sample(|r| r.normal_with(56.0, 8.0).max(25.0), 500, 1),
            ),
            (
                Operator::Starlink,
                Asn(27277),
                sample(|r| r.normal_with(18.0, 5.0).max(3.0), 300, 2),
            ),
            (
                Operator::Ses,
                Asn(201554),
                sample(|r| r.normal_with(650.0, 40.0), 300, 4),
            ),
            (
                Operator::Ses,
                Asn(12684),
                sample(
                    |r| {
                        if r.chance(0.45) {
                            r.normal_with(280.0, 30.0)
                        } else {
                            r.normal_with(680.0, 50.0)
                        }
                    },
                    600,
                    5,
                ),
            ),
            (
                Operator::Telalaska,
                Asn(10538),
                sample(
                    |r| {
                        if r.chance(0.35) {
                            r.normal_with(30.0, 8.0).max(5.0)
                        } else {
                            r.normal_with(680.0, 50.0)
                        }
                    },
                    600,
                    6,
                ),
            ),
            (Operator::Kacific, Asn(135409), vec![600.0; 10]),
        ];
        for (op, asn, latencies) in cases {
            let counted = profile_one(op, asn, &latencies, bands());
            let mut sketch = sno_stats::QuantileSketch::new();
            sketch.extend(latencies.iter().copied());
            let sk = profile_from_sketch(op, asn, &sketch, bands());
            assert_eq!(sk.tests, counted.tests, "{op:?}/{asn:?}");
            assert_eq!(
                std::mem::discriminant(&sk.verdict),
                std::mem::discriminant(&counted.verdict),
                "{op:?}/{asn:?}: sketch {:?} vs counted {:?}",
                sk.verdict,
                counted.verdict
            );
            // Band masses agree to sketch-bin resolution.
            assert!(
                (sk.expected_mass - counted.expected_mass).abs() < 0.01,
                "{op:?}/{asn:?}: expected mass {} vs {}",
                sk.expected_mass,
                counted.expected_mass
            );
            assert!(
                (sk.terrestrial_mass - counted.terrestrial_mass).abs() < 0.01,
                "{op:?}/{asn:?}: terrestrial mass {} vs {}",
                sk.terrestrial_mass,
                counted.terrestrial_mass
            );
        }
    }

    #[test]
    fn full_corpus_validation_flags_the_planted_anomalies() {
        let corpus =
            sno_synth::MlabGenerator::new(sno_synth::SynthConfig::test_corpus()).generate();
        let mapping = map_asns();
        let stats = crate::stream::CorpusStats::collect(&mapping, &corpus.records, 0);
        let profiles = profiles_from_buckets(&mapping, &stats.by_asn, bands(), 0);
        let verdict_of = |asn: u32| {
            profiles
                .iter()
                .find(|p| p.asn == Asn(asn))
                .map(|p| p.verdict.clone())
                .unwrap()
        };
        // The subscriber ASNs hold up.
        assert_eq!(verdict_of(14593), AsnVerdict::Consistent);
        // The planted anomalies are caught.
        assert!(matches!(verdict_of(27277), AsnVerdict::Outlier(_)));
        assert!(matches!(verdict_of(201554), AsnVerdict::Outlier(_)));
        // TelAlaska's single ASN is recognisably mixed.
        assert!(matches!(
            verdict_of(10538),
            AsnVerdict::MixedWithinAsn(_) | AsnVerdict::Consistent
        ));
    }
}
