//! Property-based tests over the core data structures and invariants.

use sno_check::prelude::*;
use sno_dissect::core::validate::{counted_mass, LatencyBands};
use sno_dissect::netsim::path::{PathDynamics, StaticPath, SteppedPath};
use sno_dissect::netsim::tcp::{TcpConfig, TcpFlow};
use sno_dissect::stats::{detect_mean_shifts, Ecdf, FiveNumber, Kde};
use sno_dissect::types::{Ipv4, Rng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantiles are monotone in q and bounded by the sample range.
    #[test]
    fn quantiles_monotone_and_bounded(
        mut data in prop::collection::vec(-1e6..1e6f64, 1..200),
        qa in 0.0..=1.0f64,
        qb in 0.0..=1.0f64,
    ) {
        let (lo, hi) = (qa.min(qb), qa.max(qb));
        let va = sno_dissect::stats::quantile(&data, lo).unwrap();
        let vb = sno_dissect::stats::quantile(&data, hi).unwrap();
        prop_assert!(va <= vb);
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert!(va >= data[0] && vb <= *data.last().unwrap());
    }

    /// Five-number summaries are always ordered.
    #[test]
    fn five_number_is_ordered(data in prop::collection::vec(-1e4..1e4f64, 1..100)) {
        let s = FiveNumber::of(&data).unwrap();
        prop_assert!(s.min <= s.q1 && s.q1 <= s.median);
        prop_assert!(s.median <= s.q3 && s.q3 <= s.max);
        let (wl, wh) = s.whiskers();
        prop_assert!(s.min <= wl && wh <= s.max);
    }

    /// ECDF is monotone, within [0,1], and its inverse is consistent.
    #[test]
    fn ecdf_invariants(
        data in prop::collection::vec(-1e3..1e3f64, 1..100),
        x in -2e3..2e3f64,
        q in 0.01..=1.0f64,
    ) {
        let e = Ecdf::new(&data).unwrap();
        let f = e.eval(x);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(e.eval(x + 1.0) >= f);
        // P(X <= inverse(q)) >= q.
        let v = e.inverse(q);
        prop_assert!(e.eval(v) + 1e-12 >= q);
        // tail + cdf(open complement) == 1.
        let t = e.tail_at_least(x);
        let below = e.eval(x) - data.iter().filter(|&&d| (d - x).abs() == 0.0).count() as f64
            / data.len() as f64;
        prop_assert!((t + below - 1.0).abs() < 1e-9);
    }

    /// KDE sample mass over the full range is 1, and band masses add up.
    #[test]
    fn kde_mass_partitions(data in prop::collection::vec(0.0..1000.0f64, 2..150)) {
        let kde = Kde::fit(&data).unwrap();
        let total = kde.mass_in(-1.0, 1001.0);
        prop_assert!((total - 1.0).abs() < 1e-12);
        let a = kde.mass_in(-1.0, 500.0);
        let b = kde.mass_in(500.0, 1001.0);
        prop_assert!((a + b - 1.0).abs() < 1e-12);
    }

    /// Changepoint indices are interior and respect min_segment.
    #[test]
    fn changepoints_are_interior(
        data in prop::collection::vec(0.0..100.0f64, 20..200),
        min_shift in 1.0..50.0f64,
    ) {
        let shifts = detect_mean_shifts(&data, min_shift, 5);
        for s in &shifts {
            prop_assert!(s.index >= 5);
            prop_assert!(s.index <= data.len() - 5);
            prop_assert!(s.magnitude() >= min_shift);
        }
    }

    /// IPv4/prefix round trips.
    #[test]
    fn prefix_contains_its_hosts(a in any::<u8>(), b in any::<u8>(), c in any::<u8>(), h in any::<u8>()) {
        let p = sno_dissect::types::Prefix24::new(a, b, c);
        let addr = p.addr(h);
        prop_assert!(p.contains(addr));
        prop_assert_eq!(addr.prefix24(), p);
        prop_assert_eq!(addr.host(), h);
        prop_assert_eq!(Ipv4::new(a, b, c, h), addr);
    }

    /// RNG bounded draws stay in range; binomial never exceeds n.
    #[test]
    fn rng_bounds(seed in any::<u64>(), n in 1..10_000u64, p in 0.0..=1.0f64) {
        let mut rng = Rng::new(seed);
        prop_assert!(rng.below(n) < n);
        prop_assert!(rng.binomial(n, p) <= n);
        let x = rng.range_u64(3, 9);
        prop_assert!((3..=9).contains(&x));
        let f = rng.f64();
        prop_assert!((0.0..1.0).contains(&f));
    }

    /// TCP flow conservation: acked + retransmitted <= sent (in bytes),
    /// retrans fraction in [0,1], and throughput never exceeds the
    /// bottleneck.
    #[test]
    fn tcp_flow_conservation(
        rtt in 5.0..800.0f64,
        loss in 0.0..0.2f64,
        rate in 1.0..200.0f64,
        seed in any::<u64>(),
    ) {
        let path = StaticPath { rtt_ms: rtt, loss, rate_mbps: rate, buffer_ms: 150.0 };
        let stats = TcpFlow::new(TcpConfig::ndt()).run(&path, 0.0, &mut Rng::new(seed));
        prop_assert!(stats.bytes_acked + stats.bytes_retrans <= stats.bytes_sent + 1);
        let f = stats.retrans_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
        // Mean goodput cannot beat the bottleneck (with slack for the
        // fluid model's rounding).
        prop_assert!(stats.mean_throughput().0 <= rate * 1.15 + 1.0);
        // RTT samples are at least half the base (noise floor).
        for &s in &stats.rtt_samples {
            prop_assert!(s >= rtt * 0.5 - 1e-9);
        }
    }

    /// Orbit geometry: satellites stay on their shell, visible
    /// satellites respect the elevation mask.
    #[test]
    fn orbit_invariants(
        lat in -60.0..60.0f64,
        lon in -180.0..180.0f64,
        t in 0.0..20_000.0f64,
    ) {
        use sno_dissect::orbit::{ecef_of, STARLINK_SHELL};
        use sno_dissect::geo::GeoPoint;
        let obs = ecef_of(GeoPoint::new(lat, lon));
        if let Some(v) = STARLINK_SHELL.best_visible(obs, t, 25.0) {
            prop_assert!(v.elevation_deg >= 25.0);
            prop_assert!(v.slant.0 >= STARLINK_SHELL.altitude_km - 1.0);
            let sat = STARLINK_SHELL.sat_position(v.plane, v.index, t);
            prop_assert!((sat.norm() - STARLINK_SHELL.orbit_radius_km()).abs() < 1e-6);
        }
    }

    /// Daily medians: one point per day, medians bounded by the day's
    /// samples, chronological order.
    #[test]
    fn daily_medians_invariants(
        samples in prop::collection::vec((0u32..50, 0.0..1000.0f64), 1..300),
    ) {
        use sno_dissect::types::{Timestamp, UtcDay};
        let ts: Vec<(Timestamp, f64)> = samples
            .iter()
            .map(|&(d, v)| (Timestamp::from_day(UtcDay(d)), v))
            .collect();
        let daily = sno_dissect::stats::daily_medians(&ts);
        for w in daily.windows(2) {
            prop_assert!(w[0].day < w[1].day);
        }
        let total: usize = daily.iter().map(|d| d.count).sum();
        prop_assert_eq!(total, samples.len());
    }

    /// TCP throughput is finite and non-negative under random path and
    /// flow configurations, and byte accounting stays consistent.
    #[test]
    fn tcp_throughput_finite_nonnegative(
        rtt in 1.0..1000.0f64,
        loss in 0.0..0.5f64,
        rate in 0.5..500.0f64,
        buffer in 1.0..500.0f64,
        mss in 500u32..3000,
        init_cwnd in 1.0..20.0f64,
        seed in any::<u64>(),
    ) {
        let path = StaticPath { rtt_ms: rtt, loss, rate_mbps: rate, buffer_ms: buffer };
        let config = TcpConfig {
            mss,
            initial_cwnd: init_cwnd,
            max_duration_secs: 3.0,
            ..TcpConfig::ndt()
        };
        let stats = TcpFlow::new(config).run(&path, 0.0, &mut Rng::new(seed));
        let tput = stats.mean_throughput().0;
        prop_assert!(tput.is_finite(), "throughput {tput}");
        prop_assert!(tput >= 0.0, "throughput {tput}");
        prop_assert!(stats.duration_secs.is_finite() && stats.duration_secs >= 0.0);
        prop_assert!(stats.bytes_acked <= stats.bytes_sent);
        prop_assert!(stats.rtt_samples.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    /// The TCP simulation is deterministic given a seed (the
    /// FoundationDB-style property every netsim invariant leans on).
    #[test]
    fn tcp_is_deterministic_given_seed(
        rtt in 5.0..600.0f64,
        loss in 0.0..0.1f64,
        rate in 1.0..100.0f64,
        seed in any::<u64>(),
    ) {
        let path = StaticPath { rtt_ms: rtt, loss, rate_mbps: rate, buffer_ms: 100.0 };
        let config = TcpConfig { max_duration_secs: 2.0, ..TcpConfig::ndt() };
        let a = TcpFlow::new(config.clone()).run(&path, 0.0, &mut Rng::new(seed));
        let b = TcpFlow::new(config).run(&path, 0.0, &mut Rng::new(seed));
        prop_assert_eq!(a.bytes_sent, b.bytes_sent);
        prop_assert_eq!(a.bytes_acked, b.bytes_acked);
        prop_assert_eq!(a.bytes_retrans, b.bytes_retrans);
        prop_assert_eq!(a.rtt_samples, b.rtt_samples);
    }

    /// A static path reports the same dynamics at every instant: its RTT
    /// is the whole (single-hop) delay budget, loss and rate are fixed,
    /// and no handoffs ever happen.
    #[test]
    fn static_path_dynamics_are_constant(
        rtt in 1.0..1000.0f64,
        loss in 0.0..=1.0f64,
        rate in 0.1..1000.0f64,
        t in 0.0..1e6f64,
    ) {
        let p = StaticPath { rtt_ms: rtt, loss, rate_mbps: rate, buffer_ms: 80.0 };
        prop_assert_eq!(p.base_rtt_ms(t), Some(rtt));
        prop_assert_eq!(p.loss_prob(t), loss);
        prop_assert_eq!(p.bottleneck_mbps(), rate);
        prop_assert_eq!(p.generation(t), p.generation(0.0));
        prop_assert_eq!(p.handoff_loss_prob(), 0.0);
    }

    /// A stepped path's RTT at time `t` equals the schedule segment
    /// containing `t`, and its generation counts exactly the boundaries
    /// crossed (so it is monotone in `t`).
    #[test]
    fn stepped_path_follows_its_schedule(
        rtts in prop::collection::vec(10.0..200.0f64, 1..10),
        dt in 1.0..30.0f64,
        t in 0.0..400.0f64,
    ) {
        let steps: Vec<(f64, f64)> = rtts
            .iter()
            .enumerate()
            .map(|(k, &r)| ((k as f64 + 1.0) * dt, r))
            .collect();
        let p = SteppedPath {
            steps: steps.clone(),
            loss: 0.0,
            rate_mbps: 50.0,
            handoff_loss: 0.0,
        };
        let expected = steps
            .iter()
            .find(|&&(until, _)| t < until)
            .map(|&(_, r)| r)
            .unwrap_or(steps.last().unwrap().1);
        prop_assert_eq!(p.base_rtt_ms(t), Some(expected));
        let crossed = steps.iter().filter(|&&(until, _)| t >= until).count() as u64;
        prop_assert_eq!(p.generation(t), crossed);
        prop_assert!(p.generation(t + dt) >= p.generation(t));
    }

    /// The binary corpus codec round-trips arbitrary records — field
    /// values are carried as raw bits, so NaNs and negative zeros
    /// survive too. Compared via a re-encode (bytes are total-ordered
    /// where `f64` equality is not).
    #[test]
    fn codec_round_trips_arbitrary_records(
        fields in prop::collection::vec(
            (any::<u64>(), any::<u32>(), any::<u32>(),
             any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..64,
        ),
    ) {
        use sno_dissect::types::records::NdtRecord;
        use sno_dissect::types::{codec, Asn, Ipv4, Millis, Mbps, Timestamp};
        // Floats from raw bit patterns: exercises NaNs, infinities, and
        // negative zero, which value-space generators never produce.
        let records: Vec<NdtRecord> = fields
            .iter()
            .map(|&(ts, client, asn, lat, jit, retrans, down)| NdtRecord {
                timestamp: Timestamp(ts),
                client: Ipv4::new(
                    (client >> 24) as u8,
                    (client >> 16) as u8,
                    (client >> 8) as u8,
                    client as u8,
                ),
                asn: Asn(asn),
                latency_p5: Millis(f64::from_bits(lat)),
                jitter_p95: Millis(f64::from_bits(jit)),
                retrans_fraction: f64::from_bits(retrans),
                download: Mbps(f64::from_bits(down)),
            })
            .collect();
        let encoded = codec::encode_records(&records);
        prop_assert_eq!(encoded.len(), records.len());
        let decoded = encoded.decode_records();
        let reencoded = codec::encode_records(&decoded);
        prop_assert_eq!(reencoded.bytes(), encoded.bytes());
        let reparsed = codec::EncodedCorpus::from_bytes(encoded.bytes().to_vec());
        prop_assert!(reparsed.is_ok());
    }

    /// `EncodedCorpus::from_bytes` is total: arbitrary bytes, and a valid
    /// header and frames followed by a cut, garbage edits, a rewritten
    /// record count or a garbage tail (optionally behind a valid frame
    /// length), return `Ok` or `Err` and never panic. Whatever parses
    /// decodes to exactly its record count, and an untouched encoding
    /// parses.
    #[test]
    fn codec_from_bytes_is_total(
        raw in prop::collection::vec(any::<u8>(), 0..80),
        frames in 0..6usize,
        cut in any::<u64>(),
        edits in prop::collection::vec((any::<u64>(), any::<u8>()), 0..6),
        recount in prop::collection::vec(any::<u64>(), 0..2),
        tail in prop::collection::vec(any::<u8>(), 0..120),
        framed_tail in any::<bool>(),
    ) {
        use sno_dissect::types::chunk::RecordChunks;
        use sno_dissect::types::codec::{encode_records, EncodedCorpus};
        let _ = EncodedCorpus::from_bytes(raw);

        const HEADER_LEN: usize = 16;
        let valid = encode_records(&codec_records(frames)).bytes().to_vec();
        let mut bytes = valid.clone();
        bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize);
        if bytes.len() > HEADER_LEN {
            let body = bytes.len() - HEADER_LEN;
            for &(at, b) in &edits {
                bytes[HEADER_LEN + (at % body as u64) as usize] = b;
            }
        }
        if let (Some(&count), true) = (recount.first(), bytes.len() >= HEADER_LEN) {
            bytes[8..HEADER_LEN].copy_from_slice(&count.to_le_bytes());
        }
        if framed_tail {
            bytes.extend_from_slice(&48u32.to_le_bytes());
        }
        bytes.extend_from_slice(&tail);
        let untouched = bytes == valid;
        match EncodedCorpus::from_bytes(bytes) {
            Ok(corpus) => {
                let mut decoded = 0usize;
                let mut chunks = corpus.chunks(3);
                while let Some(chunk) = chunks.next_chunk() {
                    decoded += chunk.len();
                }
                prop_assert_eq!(decoded, corpus.len());
            }
            Err(err) => prop_assert!(!untouched, "a valid encoding failed: {err:?}"),
        }
    }

    /// Decoding at any chunk length up to `usize::MAX` reserves no more
    /// than it fills: every chunk's capacity is at most
    /// `min(chunk_len, frames remaining)`, and every chunk but the last
    /// is full.
    #[test]
    fn codec_chunks_reserve_at_most_the_frames_left(
        frames in 0..80usize,
        chunk_len in prop_oneof![
            1..100usize,
            1..=usize::MAX,
            (usize::MAX - 4)..=usize::MAX,
        ],
    ) {
        use sno_dissect::types::chunk::RecordChunks;
        let chunk_len: usize = *chunk_len;
        let corpus = sno_dissect::types::codec::encode_records(&codec_records(frames));
        let mut remaining = frames;
        let mut chunks = corpus.chunks(chunk_len);
        while let Some(chunk) = chunks.next_chunk() {
            let bound = chunk_len.min(remaining);
            prop_assert!(
                chunk.capacity() <= bound,
                "capacity {} > min({chunk_len}, {remaining})",
                chunk.capacity()
            );
            prop_assert_eq!(chunk.len(), bound);
            remaining -= chunk.len();
        }
        prop_assert_eq!(remaining, 0);
    }

    /// The batched (windowed) KDE grid is bitwise-identical to the
    /// naive pointwise density at every grid point: skipped kernel
    /// terms underflow to +0.0, which is an exact no-op in the sum.
    #[test]
    fn kde_grid_is_bitwise_pointwise(
        data in prop::collection::vec(0.0..1000.0f64, 2..150),
        lo in -100.0..400.0f64,
        span in 1.0..800.0f64,
        points in 2..200usize,
    ) {
        let kde = Kde::fit(&data).unwrap();
        let hi = lo + span;
        let grid = kde.density_grid(lo, hi, points);
        prop_assert_eq!(grid.len(), points);
        let step = (hi - lo) / (points - 1) as f64;
        for (k, &(x, d)) in grid.iter().enumerate() {
            let expected_x = lo + k as f64 * step;
            prop_assert_eq!(x.to_bits(), expected_x.to_bits(), "x at {k}");
            prop_assert_eq!(
                d.to_bits(),
                kde.density(x).to_bits(),
                "density at {k} (x {x})"
            );
        }
    }

    /// Stage 3's counted band masses are bitwise equal to the sorted
    /// `Kde::mass_in` oracle on every band the default bands query —
    /// over samples dense in band edges and their float neighbours,
    /// duplicates, negatives and ±∞.
    #[test]
    fn counted_band_mass_matches_kde_mass(
        drawn in prop::collection::vec((0..5u32, -200.0..1_500.0f64, 0..64usize), 1..200),
    ) {
        let edges = band_edges();
        let data: Vec<f64> = drawn
            .iter()
            .map(|&(kind, x, i)| hostile_latency(&edges, kind, x, i))
            .collect();
        let kde = Kde::fit(&data).unwrap();
        for (lo, hi) in queried_bands() {
            prop_assert_eq!(
                counted_mass(&data, lo, hi).to_bits(),
                kde.mass_in(lo, hi).to_bits(),
                "band [{lo}, {hi})"
            );
        }
    }

    /// Changepoint detection finds no shifts in a constant series, no
    /// matter its level, length, or the threshold.
    #[test]
    fn no_shifts_in_constant_series(
        level in -1e3..1e3f64,
        n in 10..300usize,
        min_shift in 0.5..100.0f64,
    ) {
        let series = vec![level; n];
        let shifts = detect_mean_shifts(&series, min_shift, 5);
        prop_assert!(shifts.is_empty(), "found {} shifts", shifts.len());
    }
}

/// Every band `LatencyBands::default()` and the verdict floors query:
/// terrestrial, LEO/MEO/GEO, and the three `[0, min(terrestrial, lo))`
/// floors.
fn queried_bands() -> [(f64, f64); 7] {
    let b = LatencyBands::default();
    let floor = |lo: f64| (0.0, b.terrestrial_max.min(lo));
    [
        (0.0, b.terrestrial_max),
        b.leo,
        b.meo,
        b.geo,
        floor(b.leo.0),
        floor(b.meo.0),
        floor(b.geo.0),
    ]
}

/// Every distinct bound of `queried_bands()`, plus both signed zeros.
fn band_edges() -> Vec<f64> {
    let mut edges = vec![-0.0, 0.0];
    for (lo, hi) in queried_bands() {
        for x in [lo, hi] {
            if !edges.iter().any(|e: &f64| e.to_bits() == x.to_bits()) {
                edges.push(x);
            }
        }
    }
    edges
}

/// One latency draw for the band-mass property: uniform (`kind` 0), a
/// band edge (1), an edge's float neighbour below or above (2), a whole
/// millisecond so draws collide (3), or -∞/+∞ (4).
fn hostile_latency(edges: &[f64], kind: u32, x: f64, i: usize) -> f64 {
    let edge = edges[i % edges.len()];
    let below = (i / edges.len()).is_multiple_of(2);
    match kind {
        1 => edge,
        2 if below => edge.next_down(),
        2 => edge.next_up(),
        3 => x.round(),
        4 if below => f64::NEG_INFINITY,
        4 => f64::INFINITY,
        _ => x,
    }
}

/// `n` distinct records for the codec properties.
fn codec_records(n: usize) -> Vec<sno_dissect::types::records::NdtRecord> {
    use sno_dissect::types::{Asn, Mbps, Millis, Timestamp};
    (0..n)
        .map(|i| sno_dissect::types::records::NdtRecord {
            timestamp: Timestamp(i as u64),
            client: Ipv4::new(10, 0, 0, i as u8),
            asn: Asn(i as u32),
            latency_p5: Millis(600.0 + i as f64),
            jitter_p95: Millis(12.0),
            retrans_fraction: 0.01,
            download: Mbps(10.0),
        })
        .collect()
}
