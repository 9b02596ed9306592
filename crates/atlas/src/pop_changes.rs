//! Longitudinal PoP-change detection (Figure 8b).
//!
//! The probe→PoP RTT series of most probes is statistically flat over
//! the year. A PoP reassignment shows up as a sustained level shift; we
//! find those with mean-shift segmentation and cross-check each detected
//! shift against the reverse-DNS PoP history, attributing the shift to a
//! PoP change when one happened nearby in time.

use crate::pop_rtt::{pop_rtt_series, pop_rtt_series_from_chunks};
use crate::popmap::{pop_history, PopLink};
use sno_stats::OnlineShiftDetector;
use sno_types::chunk::RecordChunks;
use sno_types::records::{SslCertRecord, TracerouteRecord};
use sno_types::{par, Ipv4, ProbeId, Timestamp};
use std::collections::BTreeMap;

/// One detected RTT level shift, possibly explained by a PoP change.
#[derive(Debug, Clone)]
pub struct PopChange {
    /// The probe.
    pub probe: ProbeId,
    /// When the shift happened (timestamp of the first post-shift
    /// measurement).
    pub at: Timestamp,
    /// Mean RTT before the shift, ms.
    pub before_ms: f64,
    /// Mean RTT after, ms.
    pub after_ms: f64,
    /// The PoP codes involved, when the reverse-DNS history confirms a
    /// change within `attribution_window_secs` of the shift:
    /// `(old, new)`.
    pub pops: Option<(&'static str, &'static str)>,
}

/// How close (in seconds) a reverse-DNS transition must be to an RTT
/// shift to be considered its cause (two weeks — generous because the
/// downsampled corpus observes both signals sparsely).
pub const ATTRIBUTION_WINDOW_SECS: u64 = 14 * 86_400;

/// Detect level shifts of at least `min_shift_ms` (sustained for at
/// least `min_segment` measurements) in one probe's RTT series, and
/// attribute them to PoP changes from `history`.
pub fn detect_pop_changes(
    traceroutes: &[TracerouteRecord],
    probe: ProbeId,
    history: &[PopLink],
    min_shift_ms: f64,
    min_segment: usize,
) -> Vec<PopChange> {
    detect_in_series(
        &pop_rtt_series(traceroutes, probe),
        probe,
        history,
        min_shift_ms,
        min_segment,
    )
}

/// Detect PoP changes for **every** probe, over chunked traceroute and
/// SSLCert streams. One pass buckets the RTT series per probe and
/// another the cert histories; only those buckets are ever resident,
/// never a record corpus. The per-probe segmentations then run on the
/// worker pool (`threads`, `0` = all cores) and merge in ascending
/// probe order, so the output is identical at every thread count — and
/// identical to calling [`detect_pop_changes`] per probe, without its
/// per-probe rescan of the whole corpus.
///
/// A materialized corpus streams through `slice_chunks`. The series
/// builder stably sorts each probe's series by timestamp and cert
/// bucketing keeps each probe's arrival order, so any stream whose
/// per-probe cert subsequences match the materialized corpus gives the
/// same result (the synthesizer's chunked and sorted forms both deliver
/// each probe's certs chronologically).
pub fn detect_all_pop_changes<C, D>(
    traceroutes: C,
    sslcerts: D,
    resolve: impl Fn(Ipv4) -> Option<String> + Sync,
    min_shift_ms: f64,
    min_segment: usize,
    threads: usize,
) -> Vec<PopChange>
where
    C: RecordChunks<Item = TracerouteRecord>,
    D: RecordChunks<Item = SslCertRecord>,
{
    let series = pop_rtt_series_from_chunks(traceroutes);
    let certs = cert_buckets_from_chunks(sslcerts);
    let probes: Vec<&ProbeId> = series.keys().collect();
    let per_probe = par::shard_map(probes.len(), threads, |i| {
        let probe = *probes[i];
        let history = certs
            .get(&probe)
            .map(|c| pop_history(c, probe, &resolve))
            .unwrap_or_default();
        detect_in_series(&series[&probe], probe, &history, min_shift_ms, min_segment)
    });
    per_probe.into_iter().flatten().collect()
}

/// Bucket a chunked cert stream per probe, preserving arrival order.
fn cert_buckets_from_chunks<D>(stream: D) -> BTreeMap<ProbeId, Vec<SslCertRecord>>
where
    D: RecordChunks<Item = SslCertRecord>,
{
    stream.fold_records(BTreeMap::new(), |mut certs: BTreeMap<_, Vec<_>>, s| {
        certs.entry(s.probe).or_default().push(s);
        certs
    })
}

/// Segment one probe's RTT series and attribute the shifts.
///
/// Runs through the changepoint detector
/// ([`sno_stats::OnlineShiftDetector`]), which replays the batch
/// segmentation over its buffered window.
fn detect_in_series(
    series: &[(Timestamp, f64)],
    probe: ProbeId,
    history: &[PopLink],
    min_shift_ms: f64,
    min_segment: usize,
) -> Vec<PopChange> {
    if series.len() < 2 * min_segment {
        return Vec::new();
    }
    let mut detector = OnlineShiftDetector::new(min_shift_ms, min_segment);
    for &(_, v) in series {
        detector.push(v);
    }
    detector
        .shifts()
        .into_iter()
        .map(|shift| {
            let at = series[shift.index].0;
            let pops = attribute(history, at);
            PopChange {
                probe,
                at,
                before_ms: shift.before,
                after_ms: shift.after,
                pops,
            }
        })
        .collect()
}

/// Find the PoP transition nearest to `at`, within the attribution
/// window.
fn attribute(history: &[PopLink], at: Timestamp) -> Option<(&'static str, &'static str)> {
    let mut best: Option<(u64, (&'static str, &'static str))> = None;
    for w in history.windows(2) {
        let boundary = w[1].first_seen;
        let distance = boundary.0.abs_diff(at.0);
        if distance <= ATTRIBUTION_WINDOW_SECS && best.is_none_or(|(d, _)| distance < d) {
            best = Some((distance, (w[0].pop.code, w[1].pop.code)));
        }
    }
    best.map(|(_, pops)| pops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pop_rtt::tests::corpus;
    use crate::popmap::pop_history;
    use sno_types::chunk::slice_chunks;
    use sno_types::records::CountryCode;

    fn changes_for(probe: ProbeId) -> Vec<PopChange> {
        let c = corpus();
        let history = pop_history(&c.sslcerts, probe, sno_synth::atlas::reverse_dns);
        detect_pop_changes(&c.traceroutes, probe, &history, 8.0, 8)
    }

    #[test]
    fn nz_shift_detected_and_attributed() {
        let c = corpus();
        let nz = c
            .probes
            .iter()
            .find(|p| p.country == CountryCode::new("NZ"))
            .unwrap();
        let changes = changes_for(nz.id);
        assert_eq!(changes.len(), 1, "{changes:?}");
        let ch = &changes[0];
        // ~20 ms improvement when Sydney → Auckland.
        assert!(ch.after_ms < ch.before_ms - 10.0, "{ch:?}");
        assert_eq!(ch.pops, Some(("sydnaus1", "aklnnzl1")));
        let when = ch.at.date();
        assert_eq!((when.year, when.month), (2022, 7), "{when}");
    }

    #[test]
    fn nevada_shows_regression_and_revert() {
        let c = corpus();
        let nv = c.probes.iter().find(|p| p.state == Some("NV")).unwrap();
        let changes = changes_for(nv.id);
        assert_eq!(changes.len(), 2, "{changes:?}");
        assert!(
            changes[0].after_ms > changes[0].before_ms,
            "regression first"
        );
        assert!(changes[1].after_ms < changes[1].before_ms, "then revert");
        assert_eq!(changes[0].pops, Some(("lsancax1", "dnvrcox1")));
        assert_eq!(changes[1].pops, Some(("dnvrcox1", "lsancax1")));
    }

    #[test]
    fn netherlands_drop_attributed_to_london() {
        let c = corpus();
        let nl = c
            .probes
            .iter()
            .find(|p| p.country == CountryCode::new("NL"))
            .unwrap();
        let changes = changes_for(nl.id);
        assert_eq!(changes.len(), 1, "{changes:?}");
        assert_eq!(changes[0].pops, Some(("frntdeu1", "lndngbr1")));
        assert!(changes[0].after_ms < changes[0].before_ms);
    }

    #[test]
    fn stable_probes_report_no_changes() {
        let c = corpus();
        let mut stable = 0;
        for p in c
            .probes
            .iter()
            .filter(|p| matches!(p.country.as_str(), "DE" | "GB" | "AT" | "CA"))
        {
            let changes = changes_for(p.id);
            assert!(changes.is_empty(), "{}: {changes:?}", p.id);
            stable += 1;
        }
        assert!(stable >= 8);
    }

    #[test]
    fn short_series_yields_nothing() {
        let c = corpus();
        let changes = detect_pop_changes(&c.traceroutes, ProbeId(99_999), &[], 8.0, 8);
        assert!(changes.is_empty());
    }

    fn assert_same_changes(got: &[PopChange], expect: &[PopChange], what: &str) {
        assert_eq!(got.len(), expect.len(), "{what}");
        for (a, b) in got.iter().zip(expect) {
            assert_eq!((a.probe, a.at, a.pops), (b.probe, b.at, b.pops), "{what}");
            assert_eq!(a.before_ms, b.before_ms, "{what}");
            assert_eq!(a.after_ms, b.after_ms, "{what}");
        }
    }

    #[test]
    fn streamed_detection_matches_materialized() {
        use sno_synth::{AtlasGenerator, SynthConfig};
        let c = corpus();
        for (chunk_len, threads) in [(512usize, 1usize), (usize::MAX, 2)] {
            let expect = detect_all_pop_changes(
                slice_chunks(&c.traceroutes, chunk_len),
                slice_chunks(&c.sslcerts, chunk_len),
                sno_synth::atlas::reverse_dns,
                8.0,
                8,
                threads,
            );
            assert!(!expect.is_empty());
            let mut config = SynthConfig::test_corpus();
            config.threads = threads;
            let gen = AtlasGenerator::new(config);
            let got = detect_all_pop_changes(
                gen.traceroute_chunks(chunk_len),
                gen.sslcert_chunks(chunk_len),
                sno_synth::atlas::reverse_dns,
                8.0,
                8,
                threads,
            );
            assert_same_changes(
                &got,
                &expect,
                &format!("chunk {chunk_len} threads {threads}"),
            );
        }
    }

    #[test]
    fn all_probe_detection_matches_per_probe_loop() {
        let c = corpus();
        let mut expect = Vec::new();
        for p in &c.probes {
            let history = pop_history(&c.sslcerts, p.id, sno_synth::atlas::reverse_dns);
            expect.extend(detect_pop_changes(&c.traceroutes, p.id, &history, 8.0, 8));
        }
        for threads in [1, 2, 8] {
            let all = detect_all_pop_changes(
                slice_chunks(&c.traceroutes, 4096),
                slice_chunks(&c.sslcerts, 4096),
                sno_synth::atlas::reverse_dns,
                8.0,
                8,
                threads,
            );
            assert_same_changes(&all, &expect, &format!("threads {threads}"));
        }
    }
}
