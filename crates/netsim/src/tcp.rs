//! A round-based TCP Reno flow model.
//!
//! This is the engine behind every synthetic NDT speed test and
//! application download. The model advances one congestion round at a
//! time (one round ≈ one RTT, as in classic fluid analyses of Reno):
//!
//! * the congestion window's worth of packets is sent;
//! * queueing at the bottleneck follows a DropTail buffer: the standing
//!   queue adds delay up to `buffer_ms`, and anything beyond the buffer
//!   is dropped (bufferbloat and congestion loss emerge from this, they
//!   are not sampled);
//! * random link loss (and extra handoff loss when the serving-satellite
//!   generation changed) is sampled per packet;
//! * recovery follows Reno: fast retransmit halves the window when a few
//!   packets are lost, full retransmission timeouts (RFC 6298 estimator
//!   with exponential backoff) fire when most of a window or the whole
//!   link vanished — which is what a GEO path without a PEP keeps doing;
//! * each round contributes one `TCP_Info`-style RTT poll, from which
//!   the paper's per-session p5 latency and p95 jitter are computed.
//!
//! With [`PepMode::SplitConnection`], the satellite segment's losses are
//! mostly recovered locally (they never surface as TCP retransmissions)
//! and the window grows at terrestrial cadence thanks to ACK spoofing.

use crate::path::PathDynamics;
use crate::pep::PepMode;
use sno_types::{Mbps, Millis, Rng};

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size, bytes.
    pub mss: u32,
    /// Initial congestion window, packets.
    pub initial_cwnd: f64,
    /// Receive-window cap, packets.
    pub max_cwnd: f64,
    /// Minimum retransmission timeout, ms (Linux default 200 ms).
    pub min_rto_ms: f64,
    /// Maximum RTO after backoff, ms.
    pub max_rto_ms: f64,
    /// Stop after this much simulated transfer time, seconds.
    pub max_duration_secs: f64,
    /// Stop once this many bytes are delivered (`u64::MAX` = unlimited).
    pub byte_limit: u64,
    /// Standard deviation of per-round RTT measurement noise, ms.
    pub rtt_noise_ms: f64,
    /// Proxy configuration.
    pub pep: PepMode,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1_460,
            initial_cwnd: 10.0,
            max_cwnd: 4_096.0,
            min_rto_ms: 200.0,
            max_rto_ms: 60_000.0,
            max_duration_secs: 10.0,
            byte_limit: u64::MAX,
            rtt_noise_ms: 1.0,
            pep: PepMode::None,
        }
    }
}

impl TcpConfig {
    /// An NDT7-style 10-second bulk download.
    pub fn ndt() -> TcpConfig {
        TcpConfig::default()
    }

    /// A bounded object download of `bytes` (web asset, video chunk).
    pub fn download(bytes: u64) -> TcpConfig {
        TcpConfig {
            byte_limit: bytes,
            max_duration_secs: 120.0,
            ..TcpConfig::default()
        }
    }
}

/// Results of one flow.
#[derive(Debug, Clone)]
pub struct TcpStats {
    /// Wall-clock time the flow ran, seconds.
    pub duration_secs: f64,
    /// Bytes delivered to the receiver.
    pub bytes_acked: u64,
    /// Bytes handed to the network (including retransmissions).
    pub bytes_sent: u64,
    /// Bytes retransmitted end-to-end.
    pub bytes_retrans: u64,
    /// One RTT sample per round (the TCP_Info polls).
    pub rtt_samples: Vec<f64>,
    /// Retransmission timeouts that fired.
    pub timeouts: u32,
    /// Whether the byte limit was reached (vs. the time limit).
    pub completed: bool,
    /// Packets handed to the network across all rounds.
    pub pkts_sent: u64,
    /// Packets delivered to the receiver.
    pub pkts_delivered: u64,
    /// Packets lost on the link or dropped at the bottleneck queue.
    /// Conservation holds exactly: `pkts_sent == pkts_delivered +
    /// pkts_lost` (the fault-injection sweeps assert it).
    pub pkts_lost: u64,
    /// Lost packets that surfaced as *end-to-end* retransmissions. With
    /// a split-connection PEP most satellite-segment losses are
    /// recovered locally, so this is at most `pkts_lost` and equals it
    /// only without a proxy.
    pub pkts_retrans_visible: u64,
    /// Largest congestion window the flow ever reached, packets.
    pub max_cwnd_observed: f64,
}

impl TcpStats {
    /// The paper's access-latency estimate: 5th percentile of the RTT
    /// polls. `None` when the flow never completed a round.
    pub fn latency_p5(&self) -> Option<Millis> {
        self.rtt_summary().0
    }

    /// 95th percentile of the RTT excursion above the session minimum —
    /// the `TCP_Info`-style jitter the paper normalises by the p5
    /// latency. `None` with fewer than two polls.
    pub fn jitter_p95(&self) -> Option<Millis> {
        self.rtt_summary().1
    }

    /// Both per-session RTT reductions, `(latency_p5, jitter_p95)`.
    ///
    /// Each quantile interpolates between two order statistics of the
    /// polls, found by selection on `f64::total_cmp`-order integer keys
    /// (equal keys are equal bits) instead of a sort. Subtracting the
    /// session minimum is monotone on finite polls (also across ±0.0
    /// under `total_cmp`), so the order statistics of the polls minus
    /// the minimum are those of the excursions, and both quantiles are
    /// bit for bit those of sorting each series on its own. The polls
    /// are finite: each is at least half a finite base RTT.
    pub fn rtt_summary(&self) -> (Option<Millis>, Option<Millis>) {
        let n = self.rtt_samples.len();
        if n == 0 {
            return (None, None);
        }
        debug_assert!(self.rtt_samples.iter().all(|x| !x.is_nan()), "NaN RTT poll");
        let mut keys: Vec<i64> = self
            .rtt_samples
            .iter()
            .map(|x| total_order_key(x.to_bits() as i64))
            .collect();
        let p5 = sno_stats::QuantileRanks::new(n, 0.05);
        let (lo, hi) = order_stats(&mut keys, p5.lo(), p5.hi());
        let latency = Millis(p5.interpolate(lo, hi));
        if n < 2 {
            return (Some(latency), None);
        }
        let floor = self
            .rtt_samples
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        // p95's ranks are at or above p5's lower rank, and the selection
        // left exactly the keys of that rank and up in `keys[p5.lo()..]`.
        let p95 = sno_stats::QuantileRanks::new(n, 0.95);
        let (lo, hi) = order_stats(&mut keys[p5.lo()..], p95.lo() - p5.lo(), p95.hi() - p5.lo());
        let jitter = Millis(p95.interpolate(lo - floor, hi - floor));
        (Some(latency), Some(jitter))
    }

    /// Fraction of sent bytes that were retransmissions.
    pub fn retrans_fraction(&self) -> f64 {
        if self.bytes_sent == 0 {
            0.0
        } else {
            self.bytes_retrans as f64 / self.bytes_sent as f64
        }
    }

    /// Mean goodput over the flow's lifetime.
    pub fn mean_throughput(&self) -> Mbps {
        Mbps::from_bytes(
            self.bytes_acked as f64,
            Millis(self.duration_secs * 1_000.0),
        )
    }
}

/// The integer that `f64::total_cmp` compares in place of the float
/// with these bits: negative floats get their magnitude bits flipped.
/// Applied twice it gives back the bits.
fn total_order_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The floats of ranks `lo` and `hi` (`hi` is `lo` or `lo + 1`) among
/// `keys`, by one selection and, for `hi`, the minimum of the keys the
/// selection left above `lo`. Leaves `keys[lo..]` holding the keys of
/// rank `lo` and up.
fn order_stats(keys: &mut [i64], lo: usize, hi: usize) -> (f64, f64) {
    let (_, &mut lo_key, above) = keys.select_nth_unstable(lo);
    let hi_key = if hi > lo {
        above.iter().copied().fold(i64::MAX, i64::min)
    } else {
        lo_key
    };
    let value = |key: i64| f64::from_bits(total_order_key(key) as u64);
    (value(lo_key), value(hi_key))
}

/// A runnable TCP flow.
///
/// ```
/// use sno_netsim::{StaticPath, TcpConfig, TcpFlow};
/// use sno_types::Rng;
/// // A clean 20 ms / 100 Mbps path fills the pipe within a 10 s NDT run.
/// let path = StaticPath::clean(20.0, 100.0);
/// let stats = TcpFlow::new(TcpConfig::ndt()).run(&path, 0.0, &mut Rng::new(1));
/// assert!(stats.mean_throughput().0 > 60.0);
/// // The RTT polls sit between the unloaded RTT and RTT + bufferbloat.
/// let p5 = stats.latency_p5().unwrap().0;
/// assert!((18.0..130.0).contains(&p5));
/// ```
pub struct TcpFlow {
    config: TcpConfig,
}

impl TcpFlow {
    /// Create a flow with the given configuration.
    pub fn new(config: TcpConfig) -> TcpFlow {
        TcpFlow { config }
    }

    /// Run the flow over `path`, starting at absolute path time
    /// `start_secs`, drawing randomness from `rng`.
    pub fn run<P: PathDynamics + ?Sized>(
        &self,
        path: &P,
        start_secs: f64,
        rng: &mut Rng,
    ) -> TcpStats {
        let cfg = &self.config;
        let mss = f64::from(cfg.mss);
        let rate_pkts_per_ms = path.bottleneck_mbps() * 1e6 / 8.0 / mss / 1_000.0;
        debug_assert!(rate_pkts_per_ms > 0.0, "zero bottleneck rate");
        let buffer_ms = path.buffer_ms();
        let buffer_pkts = rate_pkts_per_ms * buffer_ms;

        let mut cwnd = cfg.initial_cwnd;
        let mut ssthresh = f64::INFINITY;
        let mut srtt: Option<f64> = None;
        let mut rttvar = 0.0;
        let mut rto_ms: f64 = 1_000.0;
        let mut backoff: f64 = 1.0;
        let mut t_ms = 0.0; // elapsed flow time
        let mut last_generation = path.generation(start_secs);

        let mut stats = TcpStats {
            duration_secs: 0.0,
            bytes_acked: 0,
            bytes_sent: 0,
            bytes_retrans: 0,
            rtt_samples: Vec::new(),
            timeouts: 0,
            completed: false,
            pkts_sent: 0,
            pkts_delivered: 0,
            pkts_lost: 0,
            pkts_retrans_visible: 0,
            max_cwnd_observed: 0.0,
        };

        while t_ms < cfg.max_duration_secs * 1_000.0 && stats.bytes_acked < cfg.byte_limit {
            let now_secs = start_secs + t_ms / 1_000.0;
            let Some(base_rtt) = path.base_rtt_ms(now_secs) else {
                // Outage: the retransmission timer expires and backs off.
                stats.timeouts += 1;
                t_ms += (rto_ms * backoff).min(cfg.max_rto_ms);
                backoff = (backoff * 2.0).min(64.0);
                cwnd = 1.0;
                ssthresh = 2.0;
                continue;
            };
            backoff = 1.0;

            // DropTail queue at the bottleneck.
            let bdp_pkts = rate_pkts_per_ms * base_rtt;
            let queue_pkts = (cwnd - bdp_pkts).max(0.0);
            let queue_delay = (queue_pkts / rate_pkts_per_ms).min(buffer_ms);
            let overflow = (queue_pkts - buffer_pkts).max(0.0).round() as u64;
            let rtt = (base_rtt + queue_delay + rng.normal_with(0.0, cfg.rtt_noise_ms))
                .max(base_rtt * 0.5);
            stats.rtt_samples.push(rtt);

            // RFC 6298 RTO estimation.
            let smoothed = match srtt {
                None => {
                    rttvar = rtt / 2.0;
                    rtt
                }
                Some(s) => {
                    rttvar = 0.75 * rttvar + 0.25 * (s - rtt).abs();
                    0.875 * s + 0.125 * rtt
                }
            };
            srtt = Some(smoothed);
            rto_ms = (smoothed + 4.0 * rttvar).clamp(cfg.min_rto_ms, cfg.max_rto_ms);

            // Send a window.
            stats.max_cwnd_observed = stats.max_cwnd_observed.max(cwnd);
            let pkts = cwnd.round().max(1.0) as u64;
            stats.bytes_sent += pkts * u64::from(cfg.mss);
            stats.pkts_sent += pkts;

            // Loss: random link loss (PEP-suppressed), handoff burst,
            // queue overflow.
            let generation = path.generation(now_secs);
            let mut p_loss = cfg.pep.effective_loss(path.loss_prob(now_secs));
            if generation != last_generation {
                p_loss += cfg.pep.effective_loss(path.handoff_loss_prob());
                last_generation = generation;
            }
            let random_losses = rng.binomial(pkts, p_loss.min(1.0));
            let overflow_drops = overflow.min(pkts.saturating_sub(random_losses));
            let losses = random_losses + overflow_drops;
            // A split-connection PEP recovers bottleneck drops locally
            // too: only the residual fraction surfaces as end-to-end
            // retransmissions (congestion response still happens — the
            // proxy backs off — but the server-side TCP_Info stays
            // clean).
            let visible_losses = match cfg.pep {
                PepMode::None => losses,
                PepMode::SplitConnection(p) => {
                    random_losses + rng.binomial(overflow_drops, p.residual_loss_factor)
                }
            };

            let delivered = pkts - losses.min(pkts);
            stats.pkts_delivered += delivered;
            stats.pkts_lost += losses.min(pkts);
            stats.pkts_retrans_visible += visible_losses.min(pkts);
            stats.bytes_acked = (stats.bytes_acked + delivered * u64::from(cfg.mss))
                .min(cfg.byte_limit.max(stats.bytes_acked));
            stats.bytes_retrans += visible_losses.min(pkts) * u64::from(cfg.mss);

            if losses == 0 {
                // Window growth; a PEP grows the window several times per
                // satellite round trip thanks to spoofed ACKs — but its
                // buffer applies backpressure, so the extra steps stop
                // once the pipe (BDP + bottleneck buffer) is full.
                let steps = cfg.pep.growth_steps(base_rtt);
                let pipe_cap = bdp_pkts + buffer_pkts;
                for step in 0..steps {
                    if step > 0 && cwnd >= pipe_cap {
                        break;
                    }
                    if cwnd < ssthresh {
                        cwnd = (cwnd * 2.0).min(ssthresh);
                    } else {
                        cwnd += 1.0;
                    }
                }
                cwnd = cwnd.min(cfg.max_cwnd);
                t_ms += rtt;
            } else if losses * 2 >= pkts || pkts < 4 {
                // Lost most of the window (or too few dupacks): RTO.
                stats.timeouts += 1;
                ssthresh = (cwnd / 2.0).max(2.0);
                cwnd = 1.0;
                t_ms += rtt + rto_ms;
            } else {
                // Fast retransmit / fast recovery.
                ssthresh = (cwnd / 2.0).max(2.0);
                cwnd = ssthresh;
                t_ms += rtt;
            }
        }

        stats.duration_secs = t_ms / 1_000.0;
        stats.completed = stats.bytes_acked >= cfg.byte_limit;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{StaticPath, SteppedPath};
    use sno_check::prelude::*;

    fn run(path: &dyn PathDynamics, cfg: TcpConfig, seed: u64) -> TcpStats {
        TcpFlow::new(cfg).run(path, 0.0, &mut Rng::new(seed))
    }

    /// Stats carrying `rtt_samples` (the rest from a flow whose zero
    /// byte limit ends it before the first round).
    fn with_polls(rtt_samples: Vec<f64>) -> TcpStats {
        TcpStats {
            rtt_samples,
            ..run(&StaticPath::clean(20.0, 10.0), TcpConfig::download(0), 0)
        }
    }

    /// The two copy-and-sort quantiles `rtt_summary` replaced, kept as
    /// its oracle: p5 of the polls, p95 of the excursions above their
    /// minimum, each sorted on its own. Compared as bits.
    fn copy_and_sort_oracle(polls: &[f64]) -> (Option<u64>, Option<u64>) {
        let latency = sno_stats::quantile(polls, 0.05);
        let jitter = if polls.len() < 2 {
            None
        } else {
            let floor = polls.iter().cloned().fold(f64::INFINITY, f64::min);
            let excursions: Vec<f64> = polls.iter().map(|&r| r - floor).collect();
            sno_stats::quantile(&excursions, 0.95)
        };
        (latency.map(f64::to_bits), jitter.map(f64::to_bits))
    }

    fn summary_bits(polls: &[f64]) -> (Option<u64>, Option<u64>) {
        let stats = with_polls(polls.to_vec());
        let (latency, jitter) = stats.rtt_summary();
        assert_eq!(latency, stats.latency_p5());
        assert_eq!(jitter, stats.jitter_p95());
        (
            latency.map(|m| m.0.to_bits()),
            jitter.map(|m| m.0.to_bits()),
        )
    }

    #[test]
    fn rtt_summary_matches_oracle_on_every_short_series() {
        // Every series of length 0..=3 over values with duplicates and
        // both signed zeros.
        let pool = [-0.0, 0.0, 1.0, 2.5, -3.0];
        let mut level: Vec<Vec<f64>> = vec![Vec::new()];
        let mut series = level.clone();
        for _ in 0..3 {
            level = level
                .iter()
                .flat_map(|s| pool.iter().map(move |&x| [s.as_slice(), &[x]].concat()))
                .collect();
            series.extend(level.iter().cloned());
        }
        assert_eq!(series.len(), 1 + 5 + 25 + 125);
        for polls in &series {
            assert_eq!(
                summary_bits(polls),
                copy_and_sort_oracle(polls),
                "{polls:?}"
            );
        }
    }

    #[test]
    fn rtt_summary_matches_oracle_where_ranks_coincide() {
        // At n = 21, 41 and 101 both 0.05·(n − 1) and 0.95·(n − 1) are
        // integers, so each quantile reads one rank (`lo == hi`). At
        // n = 1 there is no jitter, and at n = 2 both quantiles read the
        // same two polls.
        let mut rng = Rng::new(0xED6E);
        for n in [1usize, 2, 21, 41, 101] {
            let mut series: Vec<Vec<f64>> = vec![
                vec![7.5; n],
                vec![0.0; n],
                vec![-0.0; n],
                (0..n)
                    .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                    .collect(),
                (0..n)
                    .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                    .collect(),
            ];
            for _ in 0..50 {
                series.push(
                    (0..n)
                        .map(|_| match rng.below(4) {
                            0 => 0.0,
                            1 => -0.0,
                            2 => rng.below(3) as f64,
                            _ => rng.range_f64(-50.0, 50.0),
                        })
                        .collect(),
                );
                series.push((0..n).map(|_| 20.0 + rng.range_f64(0.0, 80.0)).collect());
            }
            for polls in &series {
                assert_eq!(
                    summary_bits(polls),
                    copy_and_sort_oracle(polls),
                    "{polls:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-sort summary is bitwise the copy-and-sort quantiles,
        /// on series with many duplicates and signed zeros.
        #[test]
        fn rtt_summary_is_bitwise_copy_and_sort(
            picks in prop::collection::vec((0u8..6, -1e4..1e4f64), 0..200),
        ) {
            let polls: Vec<f64> = picks
                .iter()
                .map(|&(k, x)| match k {
                    0 => 0.0,
                    1 => -0.0,
                    2 => x.round(),
                    _ => x,
                })
                .collect();
            prop_assert_eq!(summary_bits(&polls), copy_and_sort_oracle(&polls));
        }
    }

    #[test]
    fn clean_fast_path_fills_the_pipe() {
        let path = StaticPath::clean(20.0, 100.0);
        let stats = run(&path, TcpConfig::ndt(), 1);
        let tput = stats.mean_throughput().0;
        assert!(tput > 60.0, "throughput {tput}");
        assert!(stats.retrans_fraction() < 0.05);
        assert!((stats.duration_secs - 10.0).abs() < 1.0);
    }

    #[test]
    fn throughput_bounded_by_bottleneck() {
        let path = StaticPath::clean(20.0, 10.0);
        let stats = run(&path, TcpConfig::ndt(), 2);
        assert!(
            stats.mean_throughput().0 <= 10.5,
            "{}",
            stats.mean_throughput()
        );
    }

    #[test]
    fn latency_p5_tracks_base_rtt() {
        let path = StaticPath::clean(600.0, 20.0);
        let stats = run(&path, TcpConfig::ndt(), 3);
        let p5 = stats.latency_p5().unwrap().0;
        assert!((p5 - 600.0).abs() < 30.0, "p5 {p5}");
    }

    #[test]
    fn lossy_long_path_retransmits_heavily() {
        // GEO without PEP: noisy Ka-band link at 600 ms RTT.
        let geo = StaticPath {
            rtt_ms: 600.0,
            loss: 0.03,
            rate_mbps: 20.0,
            buffer_ms: 300.0,
        };
        let geo_stats = run(&geo, TcpConfig::ndt(), 4);
        // LEO: clean short path.
        let leo = StaticPath {
            rtt_ms: 50.0,
            loss: 0.003,
            rate_mbps: 100.0,
            buffer_ms: 60.0,
        };
        let leo_stats = run(&leo, TcpConfig::ndt(), 5);
        assert!(
            geo_stats.retrans_fraction() > 3.0 * leo_stats.retrans_fraction(),
            "geo {} vs leo {}",
            geo_stats.retrans_fraction(),
            leo_stats.retrans_fraction()
        );
        // The long-RTT lossy flow also moves far less data.
        assert!(geo_stats.mean_throughput().0 < leo_stats.mean_throughput().0);
    }

    #[test]
    fn pep_suppresses_retransmissions_and_speeds_ramp() {
        let geo = StaticPath {
            rtt_ms: 600.0,
            loss: 0.015,
            rate_mbps: 20.0,
            buffer_ms: 300.0,
        };
        let plain = run(&geo, TcpConfig::ndt(), 6);
        let pepped = run(
            &geo,
            TcpConfig {
                pep: PepMode::typical(),
                ..TcpConfig::ndt()
            },
            6,
        );
        assert!(
            pepped.retrans_fraction() < plain.retrans_fraction() / 2.0,
            "pep {} vs plain {}",
            pepped.retrans_fraction(),
            plain.retrans_fraction()
        );
        assert!(
            pepped.mean_throughput().0 > plain.mean_throughput().0,
            "pep {} vs plain {}",
            pepped.mean_throughput(),
            plain.mean_throughput()
        );
    }

    #[test]
    fn byte_limited_download_completes() {
        let path = StaticPath::clean(30.0, 50.0);
        let stats = run(&path, TcpConfig::download(1_000_000), 7);
        assert!(stats.completed);
        assert!(stats.bytes_acked >= 1_000_000);
        assert!(stats.duration_secs < 2.0, "took {}s", stats.duration_secs);
    }

    #[test]
    fn small_download_dominated_by_rtt() {
        // A 32 KB object on a 600 ms path: a few round trips, ~1–3 s.
        let path = StaticPath::clean(600.0, 20.0);
        let stats = run(&path, TcpConfig::download(32_000), 8);
        assert!(stats.completed);
        assert!(
            (1.0..4.0).contains(&stats.duration_secs),
            "took {}s",
            stats.duration_secs
        );
    }

    #[test]
    fn outage_causes_timeouts_not_panic() {
        #[derive(Debug)]
        struct Dead;
        impl PathDynamics for Dead {
            fn base_rtt_ms(&self, _t: f64) -> Option<f64> {
                None
            }
            fn loss_prob(&self, _t: f64) -> f64 {
                0.0
            }
            fn bottleneck_mbps(&self) -> f64 {
                10.0
            }
        }
        let stats = run(&Dead, TcpConfig::ndt(), 9);
        assert_eq!(stats.bytes_acked, 0);
        assert!(stats.timeouts > 0);
        assert!(!stats.completed);
    }

    #[test]
    fn handoffs_create_jitter() {
        // RTT stepping every second (aggressive cadence for the test) vs
        // a flat path: stepped must show more jitter. The rate is set so
        // high that the window cap keeps the bottleneck queue empty —
        // isolating the handoff contribution.
        let steps: Vec<(f64, f64)> = (1..60)
            .map(|k| (k as f64, 45.0 + 12.0 * ((k * 7) % 5) as f64 / 4.0))
            .collect();
        let stepped = SteppedPath {
            steps,
            loss: 0.0,
            rate_mbps: 2_000.0,
            handoff_loss: 0.0,
        };
        let flat = StaticPath {
            rtt_ms: 50.0,
            loss: 0.0,
            rate_mbps: 2_000.0,
            buffer_ms: 100.0,
        };
        let cfg = TcpConfig {
            rtt_noise_ms: 0.2,
            ..TcpConfig::ndt()
        };
        let js = run(&stepped, cfg.clone(), 10).jitter_p95().unwrap().0;
        let jf = run(&flat, cfg, 10).jitter_p95().unwrap().0;
        assert!(js > jf + 5.0, "stepped {js} vs flat {jf}");
    }

    #[test]
    fn deep_buffers_bloat_the_rtt() {
        let shallow = StaticPath {
            rtt_ms: 600.0,
            loss: 0.0,
            rate_mbps: 20.0,
            buffer_ms: 50.0,
        };
        let deep = StaticPath {
            rtt_ms: 600.0,
            loss: 0.0,
            rate_mbps: 20.0,
            buffer_ms: 400.0,
        };
        let cfg = TcpConfig::ndt();
        let s = run(&shallow, cfg.clone(), 11);
        let d = run(&deep, cfg, 11);
        let max_s = s.rtt_samples.iter().cloned().fold(0.0, f64::max);
        let max_d = d.rtt_samples.iter().cloned().fold(0.0, f64::max);
        assert!(max_d > max_s + 200.0, "deep {max_d} vs shallow {max_s}");
        // p5 latency stays near base either way — that is why the paper
        // uses p5 as the access-latency estimate.
        assert!((s.latency_p5().unwrap().0 - 600.0).abs() < 40.0);
        assert!((d.latency_p5().unwrap().0 - 600.0).abs() < 40.0);
    }

    #[test]
    fn packet_accounting_is_conserved() {
        let path = StaticPath {
            rtt_ms: 300.0,
            loss: 0.02,
            rate_mbps: 20.0,
            buffer_ms: 100.0,
        };
        for seed in [1, 2, 3] {
            let s = run(&path, TcpConfig::ndt(), seed);
            assert_eq!(s.pkts_sent, s.pkts_delivered + s.pkts_lost);
            // Without a PEP, every loss surfaces as a retransmission.
            assert_eq!(s.pkts_retrans_visible, s.pkts_lost);
            assert_eq!(s.bytes_retrans, s.pkts_retrans_visible * 1_460);
            assert!(s.max_cwnd_observed <= TcpConfig::ndt().max_cwnd);
            let pepped = run(
                &path,
                TcpConfig {
                    pep: PepMode::typical(),
                    ..TcpConfig::ndt()
                },
                seed,
            );
            assert_eq!(pepped.pkts_sent, pepped.pkts_delivered + pepped.pkts_lost);
            assert!(pepped.pkts_retrans_visible <= pepped.pkts_lost);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let path = StaticPath {
            rtt_ms: 80.0,
            loss: 0.01,
            rate_mbps: 30.0,
            buffer_ms: 100.0,
        };
        let a = run(&path, TcpConfig::ndt(), 42);
        let b = run(&path, TcpConfig::ndt(), 42);
        assert_eq!(a.bytes_acked, b.bytes_acked);
        assert_eq!(a.rtt_samples, b.rtt_samples);
    }
}
