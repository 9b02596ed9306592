//! Failure injection: the pipeline must stay correct — and never panic —
//! on degenerate, hostile or malformed corpora.

use sno_core::pipeline::Pipeline;
use sno_core::validate::{profile_one, AsnVerdict, LatencyBands};
use sno_types::records::NdtRecord;
use sno_types::{Asn, Ipv4, Mbps, Millis, Operator, Timestamp};

fn record(asn: u32, latency: f64) -> NdtRecord {
    NdtRecord {
        timestamp: Timestamp(1_000),
        client: Ipv4::new(61, 0, 0, 10),
        asn: Asn(asn),
        latency_p5: Millis(latency),
        jitter_p95: Millis(latency * 0.3),
        retrans_fraction: 0.01,
        download: Mbps(10.0),
    }
}

#[test]
fn empty_corpus_yields_empty_catalog() {
    let report = Pipeline::new().run(&[]);
    assert_eq!(report.sno_count(), 0);
    assert!(report.accepted.is_empty());
    assert!(report.strict.retained.is_empty());
    assert!(report.default_threshold.is_infinite());
}

#[test]
fn single_record_corpus() {
    let recs = vec![record(14593, 55.0)];
    let report = Pipeline::new().run(&recs);
    assert_eq!(report.accepted.len(), 1);
    // One LEO record from a known ASN with too little data for a
    // verdict: LEO acceptance is ASN-level, so it is kept.
    assert_eq!(report.accepted[0], Some(Operator::Starlink));
}

#[test]
fn unknown_asns_are_ignored_not_fatal() {
    let recs = vec![record(999_999, 60.0), record(0, 700.0), record(14593, 55.0)];
    let report = Pipeline::new().run(&recs);
    assert_eq!(report.accepted[0], None);
    assert_eq!(report.accepted[1], None);
    assert_eq!(report.accepted[2], Some(Operator::Starlink));
    assert_eq!(report.sno_count(), 1);
}

#[test]
fn extreme_latencies_do_not_panic() {
    let mut recs = Vec::new();
    for &lat in &[1e-6, 0.5, 1.0, 1e5, 1e9] {
        recs.push(record(14593, lat));
        recs.push(record(13955, lat));
        recs.push(record(60725, lat));
    }
    let report = Pipeline::new().run(&recs);
    assert_eq!(report.accepted.len(), recs.len());
    // GEO records above the huge thresholds may or may not pass; the
    // point is graceful handling. A 1e9 ms "GEO" record has no sane
    // threshold to compare against because nothing was retained, so the
    // default (infinite) rejects it.
    for acc in &report.accepted {
        let _ = acc;
    }
}

#[test]
fn identical_records_mass_duplicated() {
    // A /24 stuffed with ten thousand byte-identical GEO tests must pass
    // the strict filter without numeric issues (zero-variance samples).
    let recs = vec![record(13955, 650.0); 10_000];
    let report = Pipeline::new().run(&recs);
    let accepted = report.accepted.iter().flatten().count();
    assert_eq!(accepted, 10_000);
    assert_eq!(report.catalog[0], (Operator::Viasat, 10_000));
}

#[test]
fn adversarial_mixture_is_contained() {
    // An attacker-ish ASN profile: a Viasat ASN flooded with terrestrial
    // latencies. Stage 3 must flag it and the pipeline must drop
    // every record rather than pollute the catalog.
    let recs: Vec<NdtRecord> = (0..500).map(|_| record(25222, 12.0)).collect();
    let report = Pipeline::new().run(&recs);
    assert_eq!(report.accepted.iter().flatten().count(), 0);
}

#[test]
fn verdicts_on_degenerate_samples() {
    let bands = LatencyBands::default();
    // Zero-spread sample.
    let p = profile_one(Operator::Viasat, Asn(13955), &vec![600.0; 100], bands);
    assert_eq!(p.verdict, AsnVerdict::Consistent);
    // Two points at the regime edge.
    let p = profile_one(Operator::Viasat, Asn(13955), &[450.0, 450.0], bands);
    assert_eq!(p.verdict, AsnVerdict::Insufficient);
    // Empty sample.
    let p = profile_one(Operator::Viasat, Asn(13955), &[], bands);
    assert_eq!(p.verdict, AsnVerdict::Insufficient);
}

#[test]
fn timestamps_out_of_order_are_fine() {
    // Analyses sort internally; pipeline acceptance is order-free.
    let mut recs: Vec<NdtRecord> = (0..200)
        .map(|i| {
            let mut r = record(14593, 50.0 + (i % 30) as f64);
            r.timestamp = Timestamp(1_000_000 - i * 1_000);
            r
        })
        .collect();
    let report_sorted = {
        let mut sorted = recs.clone();
        sorted.sort_by_key(|r| r.timestamp);
        Pipeline::new().run(&sorted)
    };
    let report_shuffled = Pipeline::new().run(&recs);
    assert_eq!(
        report_sorted.catalog, report_shuffled.catalog,
        "acceptance must not depend on record order"
    );
    recs.reverse();
    let report_reversed = Pipeline::new().run(&recs);
    assert_eq!(report_sorted.catalog, report_reversed.catalog);
}

#[test]
fn all_operators_simultaneously_terrestrial_collapses_catalog() {
    // If every mapped ASN suddenly shows terrestrial traffic, stage 3
    // must zero out the whole catalog (fail closed).
    let mut recs = Vec::new();
    for profile in sno_registry::PROFILES {
        for &asn in profile.asns {
            for _ in 0..40 {
                recs.push(record(asn, 15.0));
            }
        }
    }
    let report = Pipeline::new().run(&recs);
    assert_eq!(
        report.accepted.iter().flatten().count(),
        0,
        "terrestrial-everything must be fully rejected"
    );
}

/// NaN latencies count in no band: they stay in the test count but add
/// mass nowhere, so a NaN-only bucket has no mass in any regime and a
/// NaN mixed into a clean bucket dilutes every band alike. The sign of
/// the NaN does not matter.
#[test]
fn nan_latencies_count_in_no_band() {
    let bands = LatencyBands::default();
    for nan in [f64::NAN, -f64::NAN] {
        let all_nan = vec![nan; 100];
        let p = profile_one(Operator::Starlink, Asn(14593), &all_nan, bands);
        assert_eq!(p.tests, 100);
        assert_eq!((p.terrestrial_mass, p.expected_mass), (0.0, 0.0));
        assert_eq!(
            p.verdict,
            AsnVerdict::Outlier("latency mass outside the advertised regime")
        );
        // The MEO+GEO rule fires first for a hybrid operator.
        let p = profile_one(Operator::Ses, Asn(12684), &all_nan, bands);
        assert_eq!(
            p.verdict,
            AsnVerdict::Outlier("expected bimodal MEO+GEO profile missing")
        );

        // One NaN in a clean LEO bucket: 99 of 100 samples in band.
        let mut leo: Vec<f64> = (0..99).map(|i| 45.0 + (i % 20) as f64).collect();
        leo.insert(40, nan);
        let p = profile_one(Operator::Starlink, Asn(14593), &leo, bands);
        assert_eq!(p.tests, 100);
        assert_eq!(p.expected_mass, 0.99);
        assert_eq!(p.verdict, AsnVerdict::Consistent);

        // Thirty NaNs in seventy clean samples: the NaNs are foreign mass.
        let mut diluted: Vec<f64> = (0..70).map(|i| 45.0 + (i % 20) as f64).collect();
        diluted.extend([nan; 30]);
        let p = profile_one(Operator::Starlink, Asn(14593), &diluted, bands);
        assert_eq!(p.expected_mass, 0.7);
        assert_eq!(p.verdict, AsnVerdict::MixedWithinAsn(1.0 - 0.7));
    }
}

#[test]
fn nan_records_do_not_panic_the_pipeline() {
    let mut recs: Vec<NdtRecord> = (0..200)
        .map(|i| record(14593, 45.0 + (i % 20) as f64))
        .collect();
    recs.extend((0..50).map(|_| record(13955, f64::NAN)));
    recs.extend((0..50).map(|_| record(13955, -f64::NAN)));
    recs.push(record(14593, -f64::NAN));
    let report = Pipeline::new().run(&recs);
    assert_eq!(report.accepted.len(), recs.len());
    // The all-NaN Viasat ASN is an outlier: none of its records pass.
    assert!(report.accepted[200..300].iter().all(Option::is_none));
}

// ---------------------------------------------------------------------
// Hostile input through the online identifier. Every case asserts that
// `OnlineIdentifier::snapshot` equals `Pipeline::run_streamed` over the
// records the identifier keeps (all of them, or the window), so online
// verdicts stay batch verdicts on these inputs too.

use sno_core::online::OnlineIdentifier;
use sno_core::stream::{StreamOptions, StreamedReport};
use sno_types::chunk::slice_chunks;

fn record_at(asn: u32, latency: f64, timestamp: u64, host: [u8; 2]) -> NdtRecord {
    NdtRecord {
        timestamp: Timestamp(timestamp),
        client: Ipv4::new(61, 0, host[0], host[1]),
        ..record(asn, latency)
    }
}

fn online_opts() -> StreamOptions {
    StreamOptions {
        dense_acceptance: true,
        operator_latencies: true,
        ..StreamOptions::default()
    }
}

/// The batch report over `records`, at a chunk length that splits them.
fn batch_report(records: &[NdtRecord]) -> StreamedReport {
    Pipeline::new().run_streamed(|| slice_chunks(records, 7), online_opts())
}

/// Every field of two reports, floats by their bits (through `Debug`).
fn assert_same_report(got: &StreamedReport, want: &StreamedReport, label: &str) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{label}");
}

/// ±∞ and negative latencies count in no band, like NaN: `lo <= s < hi`
/// fails for every finite band. They stay in the test count, so they
/// dilute the ASN's expected mass. Acceptance then compares them as
/// numbers:
/// - a LEO ASN is accepted at ASN level, so its ±∞ and negative records
///   are accepted with the rest unless stage 3 rules the ASN an outlier;
/// - for a GEO operator, +∞ clears any finite relaxed threshold and
///   −∞ or a negative latency clears none;
/// - in the strict filter, one −∞ or negative sample fails its `/24`
///   (every sample must sit above the regime floor).
#[test]
fn online_infinite_and_negative_latencies_have_batch_verdicts() {
    let mut records = Vec::new();
    for i in 0..90 {
        records.push(record_at(14593, 45.0 + (i % 20) as f64, 1_000 + i, [0, 1]));
    }
    for (i, lat) in [f64::INFINITY, f64::NEG_INFINITY, -10.0]
        .into_iter()
        .flat_map(|l| [l; 5])
        .enumerate()
    {
        records.push(record_at(14593, lat, 2_000 + i as u64, [0, 2]));
        records.push(record_at(13955, lat, 2_000 + i as u64, [2, 2]));
    }
    for i in 0..40 {
        records.push(record_at(13955, 650.0, 3_000 + i, [1, 1]));
    }

    let mut online = OnlineIdentifier::new(Pipeline::new());
    let (head, tail) = records.split_at(records.len() / 2);
    online.ingest(head);
    assert_same_report(
        &online.snapshot(online_opts()),
        &batch_report(head),
        "first half",
    );
    online.compact();
    online.ingest(tail);
    let report = online.snapshot(online_opts());
    assert_same_report(&report, &batch_report(&records), "whole stream");

    let verdict = |asn: u32| {
        let p = report.profiles.iter().find(|p| p.asn == Asn(asn)).unwrap();
        (p.tests, p.expected_mass, p.verdict.clone())
    };
    // Starlink: 90 of 105 samples in the LEO band.
    let (tests, mass, v) = verdict(14593);
    assert_eq!((tests, mass), (105, 90.0 / 105.0));
    assert_eq!(v, AsnVerdict::MixedWithinAsn(1.0 - 90.0 / 105.0));
    // Viasat: 40 of 55 samples in the GEO band.
    let (tests, mass, v) = verdict(13955);
    assert_eq!((tests, mass), (55, 40.0 / 55.0));
    assert_eq!(v, AsnVerdict::MixedWithinAsn(1.0 - 40.0 / 55.0));
    // The clean Viasat /24 is retained; the hostile one fails the band.
    assert_eq!(report.strict.retained.len(), 1);
    assert_eq!(report.strict.rejected_band, 1);
    assert_eq!(report.thresholds[&Operator::Viasat], 650.0);
    // Every Starlink record, and Viasat's 40 clean plus 5 +∞ records.
    assert_eq!(
        report.catalog,
        vec![(Operator::Starlink, 105), (Operator::Viasat, 45)]
    );
}

/// Under `with_window`, a record counts iff its timestamp is at least
/// the newest timestamp seen so far minus the window, at snapshot time.
/// Arrival order does not matter: a late record inside the window
/// counts, and a record behind the cutoff never counts. The newest
/// timestamp never moves back, so neither does the cutoff.
#[test]
fn online_window_with_backwards_timestamps_keeps_the_batch_window() {
    const WINDOW: u64 = 1_000;
    let burst = |from: u64, step: i64, n: u64, host: u8| -> Vec<NdtRecord> {
        (0..n)
            .flat_map(|i| {
                let ts = (from as i64 + step * i as i64) as u64;
                [
                    record_at(14593, 45.0 + (i % 20) as f64, ts, [0, host]),
                    record_at(13955, 600.0 + (i % 7) as f64, ts, [1, host]),
                ]
            })
            .collect()
    };
    // Descending timestamps from 10 000 down to 9 010.
    let a = burst(10_000, -10, 100, 1);
    // Stragglers: behind the cutoff (8 500..), then inside it (9 400..).
    let mut b = burst(8_500, 1, 20, 2);
    b.extend(burst(9_400, 1, 20, 3));
    // The clock jumps forward; a's tail and some of b expire.
    let c = burst(10_600, -1, 30, 4);

    let mut online = OnlineIdentifier::with_window(Pipeline::new(), WINDOW);
    let mut seen: Vec<NdtRecord> = Vec::new();
    for (step, chunk) in [a, b, c].iter().enumerate() {
        online.ingest(chunk);
        seen.extend_from_slice(chunk);
        let newest = seen.iter().map(|r| r.timestamp.0).max().unwrap();
        let kept: Vec<NdtRecord> = seen
            .iter()
            .filter(|r| r.timestamp.0 >= newest - WINDOW)
            .cloned()
            .collect();
        let report = online.snapshot(online_opts());
        assert_same_report(&report, &batch_report(&kept), &format!("step {step}"));
        assert_eq!(report.records, kept.len());
        if step == 1 {
            // The 8 500.. stragglers never count; the 9 400.. ones do.
            assert_eq!(report.records, 2 * (100 + 20));
        }
    }
}

/// Records from ASNs outside the curated mapping are counted in
/// `records` and rejected: their bits are 0. They form no profile (profiles
/// cover the curated ASNs only) and no strict `/24` bucket, so they
/// cannot move any verdict or threshold.
#[test]
fn online_unregistered_asns_are_rejected_like_batch() {
    let mut records = Vec::new();
    for i in 0..60u64 {
        records.push(record_at(999_999, 650.0, 1_000 + i, [0, 1]));
        records.push(record_at(0, 30.0, 1_000 + i, [0, 2]));
        records.push(record_at(14593, 45.0 + (i % 20) as f64, 1_000 + i, [0, 3]));
    }
    let mut online = OnlineIdentifier::new(Pipeline::new());
    for chunk in records.chunks(50) {
        online.ingest(chunk);
    }
    let report = online.snapshot(online_opts());
    assert_same_report(&report, &batch_report(&records), "unregistered");
    assert_eq!(report.records, 180);
    assert_eq!(report.catalog, vec![(Operator::Starlink, 60)]);
    assert_eq!(report.strict.examined, 0);
    assert!(report
        .profiles
        .iter()
        .all(|p| p.asn != Asn(999_999) && p.asn != Asn(0)));
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(report.bitmap.get(i), rec.asn == Asn(14593), "bit {i}");
    }
}

/// Duplicate records are not collapsed: each copy is one more test, in
/// the ASN profile, in the strict filter's test count and in the
/// catalog. So ten copies of one GEO record meet the strict filter's
/// ten-test minimum. This holds for copies ingested again and for
/// copies merged in from a shard.
#[test]
fn online_duplicate_records_each_count_like_batch() {
    let geo = vec![record_at(13955, 650.0, 1_000, [0, 1])];
    let leo: Vec<NdtRecord> = (0..30)
        .map(|i| record_at(14593, 45.0 + (i % 20) as f64, 1_000 + i, [0, 2]))
        .collect();
    let mut online = OnlineIdentifier::new(Pipeline::new());
    let mut all = Vec::new();
    for _ in 0..5 {
        online.ingest(&geo);
        online.ingest(&leo);
        all.extend_from_slice(&geo);
        all.extend_from_slice(&leo);
    }
    online.snapshot(online_opts());
    online.compact();
    for _ in 0..5 {
        let mut shard = OnlineIdentifier::new(Pipeline::new());
        shard.ingest(&geo);
        online.merge(shard);
        all.extend_from_slice(&geo);
    }
    let report = online.snapshot(online_opts());
    assert_same_report(&report, &batch_report(&all), "duplicates");
    assert_eq!(report.records, 160);
    assert_eq!(report.strict.retained.len(), 1);
    assert_eq!(report.strict.retained[0].tests, 10);
    assert_eq!(
        report.catalog,
        vec![(Operator::Starlink, 150), (Operator::Viasat, 10)]
    );
}
