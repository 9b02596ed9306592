//! Per-session network paths built on the orbital model.
//!
//! A [`ClientPath`] implements [`PathDynamics`] for one subscriber
//! session: bent-pipe satellite propagation (time-varying for LEO/MEO),
//! access-scheduling overhead, terrestrial backhaul from the operator's
//! egress to the measurement server, random loss, bufferbloat and
//! handoff loss. Hybrid-backup lines and corporate terrestrial lines are
//! built here too, because a session on those is indistinguishable *in
//! shape* from any other — only its latency profile differs, which is
//! the paper's whole identification problem.

use crate::config::{link_quality, LinkQuality, SynthConfig};
use sno_geo::{haversine_km, GeoPoint};
use sno_netsim::path::PathDynamics;
use sno_netsim::terrestrial::terrestrial_rtt;
use sno_orbit::access::{BentPipe, GeoAccess, MeoAccess};
use sno_orbit::geostationary::GeoSlot;
use sno_orbit::meo::O3B_RING;
use sno_orbit::shell::{ONEWEB_SHELL, STARLINK_SHELL};
use sno_registry::assets::{egress_of, geo_slots_of, service_plan_of};
use sno_registry::prefixes::{allocation_for, PrefixSpec};
use sno_registry::profile::profile_of;
use sno_types::chunk::{self, RecordChunks};
use sno_types::par;
use sno_types::time::SECS_PER_DAY;
use sno_types::{Asn, Kilometers, LinkKind, Operator, OrbitClass, Rng, UtcDay};
use std::cell::Cell;
use std::sync::OnceLock;

/// Metro areas hosting NDT measurement servers. The client's flow exits
/// the operator's network at its egress and rides ordinary transit to
/// the server nearest the *client* — which is how a GEO subscriber ends
/// up measured against a server one continent from the teleport.
pub const MLAB_SITES: &[GeoPoint] = &[
    GeoPoint {
        lat: 47.61,
        lon: -122.33,
    }, // Seattle
    GeoPoint {
        lat: 34.05,
        lon: -118.24,
    }, // Los Angeles
    GeoPoint {
        lat: 39.74,
        lon: -104.99,
    }, // Denver
    GeoPoint {
        lat: 41.88,
        lon: -87.63,
    }, // Chicago
    GeoPoint {
        lat: 40.71,
        lon: -74.01,
    }, // New York
    GeoPoint {
        lat: 33.75,
        lon: -84.39,
    }, // Atlanta
    GeoPoint {
        lat: 43.65,
        lon: -79.38,
    }, // Toronto
    GeoPoint {
        lat: 19.43,
        lon: -99.13,
    }, // Mexico City
    GeoPoint {
        lat: -23.55,
        lon: -46.63,
    }, // São Paulo
    GeoPoint {
        lat: -33.45,
        lon: -70.67,
    }, // Santiago
    GeoPoint {
        lat: 51.51,
        lon: -0.13,
    }, // London
    GeoPoint {
        lat: 50.11,
        lon: 8.68,
    }, // Frankfurt
    GeoPoint {
        lat: 40.42,
        lon: -3.70,
    }, // Madrid
    GeoPoint {
        lat: 59.33,
        lon: 18.07,
    }, // Stockholm
    GeoPoint {
        lat: 25.28,
        lon: 55.30,
    }, // Dubai
    GeoPoint {
        lat: 19.08,
        lon: 72.88,
    }, // Mumbai
    GeoPoint {
        lat: 1.35,
        lon: 103.82,
    }, // Singapore
    GeoPoint {
        lat: 35.68,
        lon: 139.69,
    }, // Tokyo
    GeoPoint {
        lat: -33.87,
        lon: 151.21,
    }, // Sydney
    GeoPoint {
        lat: -36.85,
        lon: 174.76,
    }, // Auckland
    GeoPoint {
        lat: -26.20,
        lon: 28.05,
    }, // Johannesburg
];

/// Nearest point of `candidates` to `from`: the first of the closest
/// under `total_cmp` of `haversine_km`.
pub fn nearest(from: GeoPoint, candidates: &[GeoPoint]) -> GeoPoint {
    nearest_site(Site::new(from), candidates.iter().map(|&c| Site::new(c))).0
}

/// A surface point with its unit vector from the Earth's centre.
#[derive(Clone, Copy)]
struct Site {
    point: GeoPoint,
    unit: [f64; 3],
}

impl Site {
    fn new(point: GeoPoint) -> Site {
        let (sin_lat, cos_lat) = point.lat.to_radians().sin_cos();
        let (sin_lon, cos_lon) = point.lon.to_radians().sin_cos();
        Site {
            point,
            unit: [cos_lat * cos_lon, cos_lat * sin_lon, sin_lat],
        }
    }

    /// Cosine of the central angle to `other`.
    fn dot(&self, other: &Site) -> f64 {
        self.unit[0] * other.unit[0] + self.unit[1] * other.unit[1] + self.unit[2] * other.unit[2]
    }
}

/// [`MLAB_SITES`] with their unit vectors, built once.
fn mlab_sites() -> &'static [Site] {
    static SITES: OnceLock<Vec<Site>> = OnceLock::new();
    SITES.get_or_init(|| MLAB_SITES.iter().map(|&p| Site::new(p)).collect())
}

/// `egress_of(op)` with their unit vectors, built once for every
/// operator.
fn egress_sites(op: Operator) -> &'static [Site] {
    static SITES: OnceLock<Vec<Vec<Site>>> = OnceLock::new();
    &SITES.get_or_init(|| {
        Operator::ALL
            .iter()
            .map(|&op| egress_of(op).iter().map(|&p| Site::new(p)).collect())
            .collect()
    })[op.index()]
}

/// The point of `sites` nearest to `from` and its `haversine_km`
/// distance: the first of the closest under `total_cmp`, as a
/// `min_by` over every site's haversine picks it, but with the
/// haversine computed only for the sites whose unit-vector dot product
/// is within `DOT_GUARD` of the best one.
///
/// A site whose dot product is lower by δ is further by a central angle
/// of at least δ (|d cos θ/dθ| ≤ 1). The dot products are off by a few
/// ε = f64::EPSILON, and the haversine's angle by at most ~6·10⁻⁸ rad,
/// worst near the antipode where `asin` of a square root near 1 turns
/// ~4ε of error in `h` into 2·√(4ε). So with DOT_GUARD = 10⁻⁶ a skipped
/// site's haversine is strictly larger than the best-dot site's: it can
/// neither be the closest nor tie it.
///
/// # Panics
/// Panics when `sites` is empty.
fn nearest_site(from: Site, sites: impl Iterator<Item = Site> + Clone) -> (GeoPoint, f64) {
    const DOT_GUARD: f64 = 1e-6;
    let best_dot = sites
        .clone()
        .map(|site| from.dot(&site))
        .fold(f64::NEG_INFINITY, f64::max);
    sites
        .filter(|site| from.dot(site) >= best_dot - DOT_GUARD)
        .map(|site| (site.point, haversine_km(from.point, site.point).0))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        // sno-lint: allow(unwrap-in-lib): callers pass the static gateway/PoP tables, never empty
        .expect("non-empty candidate list")
}

/// The satellite (or wire) segment of a session path.
enum Segment {
    Leo {
        pipe: BentPipe,
        /// Memo of the last handoff epoch's propagation RTT: the flow
        /// model polls the path every round, but the answer only changes
        /// at 15-second epoch boundaries, and a full constellation scan
        /// per poll would dominate corpus generation.
        memo: Cell<Option<(u64, Option<f64>)>>,
    },
    Meo(MeoLink),
    /// GEO propagation is constant; precomputed.
    Geo(f64),
    /// Terrestrial line with a fixed RTT.
    Fixed(f64),
}

/// An O3b access link with a memo of the last instant's serving
/// satellite, keyed by the instant's bits: each flow round asks for the
/// RTT and then the generation at the same time, and both read one ring
/// scan.
struct MeoLink {
    access: MeoAccess,
    memo: Cell<Option<(u64, Serving)>>,
}

/// A MEO serving satellite and its slant range; `None` outside coverage.
type Serving = Option<(u32, Kilometers)>;

impl MeoLink {
    fn serving(&self, t_secs: f64) -> Serving {
        let key = t_secs.to_bits();
        match self.memo.get() {
            Some((k, serving)) if k == key => serving,
            _ => {
                let serving = self.access.serving(t_secs);
                self.memo.set(Some((key, serving)));
                serving
            }
        }
    }
}

/// Queueing induced by *other* subscribers sharing the bottleneck
/// (transponder, beam or DSLAM): a slow oscillation the single measured
/// flow cannot control. This is what gives GEO its hundred-millisecond
/// absolute jitter (Figure 4b inset) — consumer satellite gear is both
/// deeply buffered and heavily shared.
#[derive(Debug, Clone, Copy)]
struct CrossTraffic {
    /// Peak-to-trough amplitude, ms.
    amp_ms: f64,
    /// Oscillation period, seconds.
    period_s: f64,
    /// Phase offset, radians.
    phase: f64,
}

impl CrossTraffic {
    fn sample(rng: &mut Rng, amp_lo: f64, amp_hi: f64) -> CrossTraffic {
        CrossTraffic {
            amp_ms: rng.range_f64(amp_lo, amp_hi),
            period_s: rng.range_f64(2.5, 8.0),
            phase: rng.range_f64(0.0, std::f64::consts::TAU),
        }
    }

    fn at(&self, t_secs: f64) -> f64 {
        self.amp_ms
            * 0.5
            * (1.0 + (std::f64::consts::TAU * t_secs / self.period_s + self.phase).sin())
    }
}

/// One subscriber session's end-to-end path to its measurement server.
pub struct ClientPath {
    segment: Segment,
    /// Session-constant overhead: access scheduling plus terrestrial
    /// backhaul/tail, ms.
    overhead_ms: f64,
    cross: CrossTraffic,
    loss: f64,
    buffer_ms: f64,
    handoff_loss: f64,
    rate_mbps: f64,
}

impl ClientPath {
    /// Build the path for one session.
    ///
    /// `day` selects the operator's shared day-of-corpus condition (all
    /// sessions of an operator on one day see the same wander factor —
    /// that is what makes Figure 4a's daily medians move). Returns
    /// `None` when the client sits outside the constellation's coverage
    /// (callers resample the client location).
    pub fn for_session(
        op: Operator,
        kind: LinkKind,
        client: GeoPoint,
        day: UtcDay,
        corpus_seed: u64,
        rng: &mut Rng,
    ) -> Option<ClientPath> {
        let client = Site::new(client);
        let (server, _) = nearest_site(client, mlab_sites().iter().copied());
        match kind {
            LinkKind::Terrestrial => Some(ClientPath::terrestrial(client.point, server, rng)),
            LinkKind::HybridBackup(orbit) => {
                // Three regimes: healthy fibre, degraded DSL, satellite
                // backup — the three latency clusters of Figure 3b. The
                // satellite regime dominates (the paper's hybrid
                // prefixes keep GEO-like medians with ~30% of tests
                // below 70 ms).
                let draw = rng.f64();
                if draw < 0.30 {
                    Some(ClientPath::terrestrial(client.point, server, rng))
                } else if draw < 0.45 {
                    Some(ClientPath::degraded_dsl(client.point, server, rng))
                } else {
                    ClientPath::satellite(op, orbit, client, server, day, corpus_seed, rng)
                }
            }
            LinkKind::Satellite(orbit) => {
                ClientPath::satellite(op, orbit, client, server, day, corpus_seed, rng)
            }
        }
    }

    /// A healthy terrestrial line.
    fn terrestrial(client: GeoPoint, server: GeoPoint, rng: &mut Rng) -> ClientPath {
        let wire = terrestrial_rtt(client, server).0;
        ClientPath {
            segment: Segment::Fixed(wire),
            overhead_ms: rng.range_f64(4.0, 20.0), // last-mile
            cross: CrossTraffic::sample(rng, 1.0, 8.0),
            loss: 1e-4,
            buffer_ms: 60.0,
            handoff_loss: 0.0,
            rate_mbps: rng.range_f64(100.0, 600.0),
        }
    }

    /// A degraded DSL line (the 100–150 ms cluster of Figure 3b).
    fn degraded_dsl(client: GeoPoint, server: GeoPoint, rng: &mut Rng) -> ClientPath {
        let wire = terrestrial_rtt(client, server).0;
        ClientPath {
            segment: Segment::Fixed(wire),
            overhead_ms: rng.range_f64(90.0, 140.0), // interleaving
            cross: CrossTraffic::sample(rng, 20.0, 70.0),
            loss: 2e-3,
            buffer_ms: 150.0,
            handoff_loss: 0.0,
            rate_mbps: rng.range_f64(3.0, 12.0),
        }
    }

    /// A satellite line of the given orbit.
    fn satellite(
        op: Operator,
        orbit: OrbitClass,
        site: Site,
        server: GeoPoint,
        day: UtcDay,
        corpus_seed: u64,
        rng: &mut Rng,
    ) -> Option<ClientPath> {
        let quality = link_quality(op, orbit);
        let plan = service_plan_of(op);
        let client = site.point;
        let (egress, egress_km) = nearest_site(site, egress_sites(op).iter().copied());
        let day_factor = daily_wander_factor(op, day, corpus_seed, quality);
        // Session overhead: uplink scheduling (lognormal around the
        // operator median, scaled by the day's condition) plus the
        // terrestrial tail egress → server.
        let sched = quality.overhead_ms * day_factor * rng.lognormal(0.0, 0.18).clamp(0.6, 2.5);
        let tail = terrestrial_rtt(egress, server).0;
        let overhead_ms = sched + tail;
        let cross = match orbit {
            OrbitClass::Leo => CrossTraffic::sample(rng, 16.0, 42.0),
            OrbitClass::Meo => CrossTraffic::sample(rng, 45.0, 150.0),
            OrbitClass::Geo => CrossTraffic::sample(rng, 120.0, 320.0),
        };

        let segment = match orbit {
            OrbitClass::Leo => {
                let shell = if op == Operator::Oneweb {
                    ONEWEB_SHELL
                } else {
                    STARLINK_SHELL
                };
                // The downlink gateway sits near the client (gateway
                // networks are dense); backhaul gateway → egress is part
                // of the overhead via `tail` only when the egress is the
                // serving PoP, so add the extra hop here.
                let gw = if egress_km > 1_500.0 {
                    // No nearby egress: gateway lands near the client and
                    // traffic backhauls over fibre (OneWeb's US-only
                    // egress; Starlink Philippines → Tokyo).
                    GeoPoint::new(
                        (client.lat + 2.0).clamp(-89.0, 89.0),
                        (client.lon - 2.0).clamp(-179.9, 179.9),
                    )
                } else {
                    egress
                };
                let pipe = BentPipe::new(shell, client, gw);
                // Validate coverage at a sample instant.
                if !pipe.covers(0.0) {
                    return None;
                }
                let backhaul = terrestrial_rtt(gw, egress).0;
                return Some(ClientPath {
                    segment: Segment::Leo {
                        pipe,
                        memo: Cell::new(None),
                    },
                    overhead_ms: overhead_ms + backhaul * 0.75, // cable routes beat the 1.6 default
                    cross,
                    loss: quality.loss,
                    buffer_ms: quality.buffer_ms,
                    handoff_loss: quality.handoff_loss,
                    rate_mbps: rng.range_f64(plan.down_lo, plan.down_hi),
                });
            }
            OrbitClass::Meo => {
                let access = MeoAccess::new(O3B_RING, client, egress);
                access.serving(0.0)?;
                Segment::Meo(MeoLink {
                    access,
                    memo: Cell::new(None),
                })
            }
            OrbitClass::Geo => {
                let prop = geo_slots_of(op)
                    .iter()
                    .filter_map(|&lon| {
                        GeoAccess::new(GeoSlot { lon_deg: lon }, client, egress).propagation_rtt()
                    })
                    .map(|m| m.0)
                    .fold(None::<f64>, |best, rtt| {
                        Some(best.map_or(rtt, |b| b.min(rtt)))
                    })?;
                Segment::Geo(prop)
            }
        };
        Some(ClientPath {
            segment,
            overhead_ms,
            cross,
            loss: quality.loss,
            buffer_ms: quality.buffer_ms,
            handoff_loss: quality.handoff_loss,
            rate_mbps: rng.range_f64(plan.down_lo, plan.down_hi),
        })
    }

    /// The bottleneck rate chosen for this session.
    pub fn rate_mbps(&self) -> f64 {
        self.rate_mbps
    }
}

/// Scatter a client around a home point by roughly `scatter_km`.
pub fn scatter(home: GeoPoint, scatter_km: f64, rng: &mut Rng) -> GeoPoint {
    // Convert a km-scale displacement to degrees (approximate; fine for
    // placing subscribers).
    let dlat = rng.normal_with(0.0, scatter_km / 111.0 / 2.0);
    let lat = (home.lat + dlat).clamp(-65.0, 66.0); // stay in service belts
    let dlon = rng.normal_with(
        0.0,
        scatter_km / 111.0 / 2.0 / lat.to_radians().cos().max(0.2),
    );
    let mut lon = home.lon + dlon;
    while lon > 180.0 {
        lon -= 360.0;
    }
    while lon < -180.0 {
        lon += 360.0;
    }
    GeoPoint::new(lat, lon)
}

/// One session's ground-truth link characterization: what the path
/// itself offers at session start, before any TCP dynamics. This is the
/// corpus the path-model validation experiment consumes — the injected
/// access-latency ground truth the identification pipeline must
/// re-detect through the NDT reductions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSample {
    /// The operator whose network the session rides.
    pub operator: Operator,
    /// Ground-truth link kind for the drawn prefix.
    pub kind: LinkKind,
    /// Base RTT at session start (propagation + scheduling + backhaul +
    /// cross-traffic), ms.
    pub base_rtt_ms: f64,
    /// The session's bottleneck rate, Mbps.
    pub rate_mbps: f64,
}

/// Generates [`PathSample`] corpora: one sample per would-be session,
/// drawn from the operator's prefix plan exactly like the NDT generator
/// draws its sessions, but reduced to the link-level ground truth.
///
/// Samples are generated in fixed-size shards, each from its own RNG
/// substream (`"paths"` / operator index / shard), so the materialized
/// and chunked paths are byte-identical at every `config.threads`
/// setting and chunk length.
pub struct PathSampler {
    config: SynthConfig,
}

impl PathSampler {
    /// Create a sampler.
    pub fn new(config: SynthConfig) -> PathSampler {
        PathSampler { config }
    }

    /// How many samples [`PathSampler::samples_for`] targets for `op`
    /// (the same scaled session count the NDT generator uses). Sparse
    /// coverage can come in slightly under via the rejection budget.
    pub fn sample_count(&self, op: Operator) -> usize {
        self.config.scaled_sessions(profile_of(op).mlab_tests) as usize
    }

    /// Materialize every sample for one operator.
    pub fn samples_for(&self, op: Operator) -> Vec<PathSample> {
        let n = self.sample_count(op);
        if n == 0 {
            return Vec::new();
        }
        let (table, weights, op_rng) = self.op_inputs(op);
        par::shard_map_chunks(
            n,
            par::DEFAULT_CHUNK,
            self.config.threads,
            |shard, range| {
                let mut rng = op_rng.substream_shard(shard);
                self.sample_batch(op, &table, &weights, range.len(), &mut rng)
            },
        )
    }

    /// Stream the concatenated samples of the listed operators, in list
    /// order — exactly the concatenation of [`PathSampler::samples_for`]
    /// per operator — delivered in chunks of at most `chunk_len`
    /// records, without materializing any operator's corpus.
    pub fn sample_chunks<'a>(
        &'a self,
        ops: &[Operator],
        chunk_len: usize,
    ) -> impl RecordChunks<Item = PathSample> + 'a {
        struct OpPlan {
            op: Operator,
            table: Vec<(Asn, PrefixSpec)>,
            weights: Vec<f64>,
            rng: Rng,
            ranges: Vec<std::ops::Range<usize>>,
        }
        let mut plans: Vec<OpPlan> = Vec::new();
        let mut shard_index: Vec<(usize, usize)> = Vec::new();
        for &op in ops {
            let n = self.sample_count(op);
            if n == 0 {
                continue;
            }
            let (table, weights, rng) = self.op_inputs(op);
            let ranges = par::shard_ranges(n, par::DEFAULT_CHUNK);
            for shard in 0..ranges.len() {
                shard_index.push((plans.len(), shard));
            }
            plans.push(OpPlan {
                op,
                table,
                weights,
                rng,
                ranges,
            });
        }
        chunk::sharded(
            shard_index.len(),
            self.config.threads,
            chunk_len,
            move |global| {
                let (plan_idx, shard) = shard_index[global];
                let plan = &plans[plan_idx];
                let mut rng = plan.rng.substream_shard(shard);
                self.sample_batch(
                    plan.op,
                    &plan.table,
                    &plan.weights,
                    plan.ranges[shard].len(),
                    &mut rng,
                )
            },
        )
    }

    /// The per-operator inputs: the flattened weighted prefix table and
    /// the operator's RNG substream root (its own `"paths"` label, so
    /// the NDT corpus and the path samples never share draws).
    fn op_inputs(&self, op: Operator) -> (Vec<(Asn, PrefixSpec)>, Vec<f64>, Rng) {
        let allocation = allocation_for(op);
        let mut table: Vec<(Asn, PrefixSpec)> = Vec::new();
        for (asn, specs) in &allocation {
            for spec in specs {
                table.push((*asn, *spec));
            }
        }
        let weights: Vec<f64> = table.iter().map(|(_, s)| s.weight).collect();
        let rng = Rng::new(self.config.seed)
            .substream_named("paths")
            .substream(op.index() as u64);
        (table, weights, rng)
    }

    /// Up to `count` samples for one shard, with the NDT generator's
    /// `4 × count` rejection budget for sparse coverage.
    fn sample_batch(
        &self,
        op: Operator,
        table: &[(Asn, PrefixSpec)],
        weights: &[f64],
        count: usize,
        rng: &mut Rng,
    ) -> Vec<PathSample> {
        let start_day = self.config.mlab_start.to_day();
        let end_day = self.config.mlab_end.to_day();
        let span_days = (end_day - start_day) as u64;
        let mut out = Vec::with_capacity(count);
        let mut attempts = 0usize;
        while out.len() < count && attempts < count * 4 {
            attempts += 1;
            let (_, spec) = table[rng.choose_weighted(weights)];
            let day = UtcDay(start_day.0 + rng.below(span_days) as u32);
            let sec_of_day = rng.below(SECS_PER_DAY);
            let kind = spec.kind;
            let client = scatter(spec.home, spec.scatter_km, rng);
            let Some(path) = ClientPath::for_session(op, kind, client, day, self.config.seed, rng)
            else {
                continue; // out of coverage; resample
            };
            let orbital_t = (u64::from(day.0) * SECS_PER_DAY + sec_of_day) as f64;
            let Some(base_rtt_ms) = path.base_rtt_ms(orbital_t) else {
                continue; // outage at session start
            };
            out.push(PathSample {
                operator: op,
                kind,
                base_rtt_ms,
                rate_mbps: path.rate_mbps(),
            });
        }
        out
    }
}

/// The shared day-of-corpus wander factor for an operator: every session
/// of `op` on `day` sees the same multiplicative latency condition.
pub fn daily_wander_factor(
    op: Operator,
    day: UtcDay,
    corpus_seed: u64,
    quality: LinkQuality,
) -> f64 {
    let mut day_rng = Rng::new(corpus_seed)
        .substream_named("daily-wander")
        .substream(op.index() as u64)
        .substream(u64::from(day.0));
    // Half-normal excursions above 1.0: latency degrades, it rarely
    // improves below the engineered floor. The multiplier is sized so a
    // HughesNet-class wander (0.75) can double the access overhead on a
    // bad day — the paper measures day-over-day median swings of up to
    // 72 % for HughesNet and 120 % for OneWeb.
    1.0 + quality.daily_wander * day_rng.normal().abs() * 2.0
}

impl PathDynamics for ClientPath {
    fn base_rtt_ms(&self, t_secs: f64) -> Option<f64> {
        let prop = match &self.segment {
            Segment::Leo { pipe, memo } => {
                let epoch = pipe.generation(t_secs);
                let rtt = match memo.get() {
                    Some((e, rtt)) if e == epoch => rtt,
                    _ => {
                        let rtt = pipe.propagation_rtt(t_secs).map(|m| m.0);
                        memo.set(Some((epoch, rtt)));
                        rtt
                    }
                };
                rtt?
            }
            Segment::Meo(link) => link.access.rtt_via(link.serving(t_secs)?, t_secs).0,
            Segment::Geo(prop) => *prop,
            Segment::Fixed(rtt) => *rtt,
        };
        Some(prop + self.overhead_ms + self.cross.at(t_secs))
    }

    fn loss_prob(&self, _t: f64) -> f64 {
        self.loss
    }

    fn bottleneck_mbps(&self) -> f64 {
        self.rate_mbps
    }

    fn buffer_ms(&self) -> f64 {
        self.buffer_ms
    }

    fn generation(&self, t_secs: f64) -> u64 {
        match &self.segment {
            Segment::Leo { pipe, .. } => pipe.generation(t_secs),
            Segment::Meo(link) => link.serving(t_secs).map_or(0, |(i, _)| u64::from(i)),
            _ => 0,
        }
    }

    fn handoff_loss_prob(&self) -> f64 {
        self.handoff_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sno_types::Date;

    fn day() -> UtcDay {
        Date::new(2022, 6, 1).to_day()
    }

    fn mk(op: Operator, kind: LinkKind, client: GeoPoint, seed: u64) -> Option<ClientPath> {
        let mut rng = Rng::new(seed);
        ClientPath::for_session(op, kind, client, day(), 7, &mut rng)
    }

    #[test]
    fn starlink_us_session_latency_band() {
        let p = mk(
            Operator::Starlink,
            LinkKind::Satellite(OrbitClass::Leo),
            GeoPoint::new(45.5, -100.0),
            1,
        )
        .unwrap();
        let rtt = p.base_rtt_ms(0.0).unwrap();
        assert!((25.0..110.0).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn geo_session_latency_band() {
        let p = mk(
            Operator::Viasat,
            LinkKind::Satellite(OrbitClass::Geo),
            GeoPoint::new(39.0, -98.0),
            2,
        )
        .unwrap();
        let rtt = p.base_rtt_ms(0.0).unwrap();
        assert!((500.0..900.0).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn meo_session_latency_band() {
        let p = mk(
            Operator::O3b,
            LinkKind::Satellite(OrbitClass::Meo),
            GeoPoint::new(-3.0, 115.0),
            3,
        )
        .unwrap();
        let rtt = p.base_rtt_ms(0.0).unwrap();
        assert!((200.0..420.0).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn terrestrial_session_is_fast() {
        let p = mk(
            Operator::Starlink,
            LinkKind::Terrestrial,
            GeoPoint::new(47.0, -122.0),
            4,
        )
        .unwrap();
        let rtt = p.base_rtt_ms(0.0).unwrap();
        assert!(rtt < 60.0, "rtt {rtt}");
        assert_eq!(p.generation(0.0), p.generation(1e5));
    }

    #[test]
    fn hybrid_sessions_cluster_into_three_regimes() {
        let mut clusters = [0usize; 3]; // fast / mid / satellite
        for seed in 0..300 {
            let p = mk(
                Operator::Viasat,
                LinkKind::HybridBackup(OrbitClass::Geo),
                GeoPoint::new(-20.0, -55.0),
                seed,
            )
            .unwrap();
            let rtt = p.base_rtt_ms(0.0).unwrap();
            if rtt < 90.0 {
                clusters[0] += 1;
            } else if rtt < 300.0 {
                clusters[1] += 1;
            } else {
                clusters[2] += 1;
            }
        }
        assert!(clusters.iter().all(|&c| c > 30), "clusters {clusters:?}");
    }

    #[test]
    fn geo_coverage_hole_returns_none() {
        // Far-north user cannot see any Viasat slot.
        assert!(mk(
            Operator::Viasat,
            LinkKind::Satellite(OrbitClass::Geo),
            GeoPoint::new(83.0, -98.0),
            5,
        )
        .is_none());
    }

    #[test]
    fn oneweb_latency_above_starlink() {
        // Median over several sessions: OneWeb's US-only egress makes it
        // clearly slower than Starlink for comparable users.
        let sample = |op: Operator, client: GeoPoint| -> f64 {
            let rtts: Vec<f64> = (0..40)
                .filter_map(|s| mk(op, LinkKind::Satellite(OrbitClass::Leo), client, 100 + s))
                .filter_map(|p| p.base_rtt_ms(0.0))
                .collect();
            sno_stats::median(&rtts).expect("some sessions in coverage")
        };
        let starlink = sample(Operator::Starlink, GeoPoint::new(49.0, 8.0));
        let oneweb = sample(Operator::Oneweb, GeoPoint::new(49.0, 8.0));
        assert!(
            oneweb > starlink + 40.0,
            "oneweb {oneweb} vs starlink {starlink}"
        );
    }

    #[test]
    fn daily_factor_shared_within_a_day() {
        let q = link_quality(Operator::Hughes, OrbitClass::Geo);
        let a = daily_wander_factor(Operator::Hughes, UtcDay(100), 7, q);
        let b = daily_wander_factor(Operator::Hughes, UtcDay(100), 7, q);
        let c = daily_wander_factor(Operator::Hughes, UtcDay(101), 7, q);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a >= 1.0);
    }

    #[test]
    fn wander_amplitude_ranks_operators() {
        // Across many days, HughesNet's day factors must swing far more
        // than Starlink's.
        let spread = |op: Operator, orbit: OrbitClass| -> f64 {
            let q = link_quality(op, orbit);
            let factors: Vec<f64> = (0..200)
                .map(|d| daily_wander_factor(op, UtcDay(d), 7, q))
                .collect();
            let hi = factors.iter().cloned().fold(f64::MIN, f64::max);
            let lo = factors.iter().cloned().fold(f64::MAX, f64::min);
            hi - lo
        };
        assert!(
            spread(Operator::Hughes, OrbitClass::Geo)
                > 5.0 * spread(Operator::Starlink, OrbitClass::Leo)
        );
    }

    /// The plain nearest-site search the dot-product bound replaced,
    /// kept as its oracle: one haversine per site, the first of the
    /// closest under `total_cmp`.
    fn haversine_oracle(from: GeoPoint, sites: &[GeoPoint]) -> (GeoPoint, f64) {
        sites
            .iter()
            .map(|&c| (c, haversine_km(from, c).0))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
    }

    fn bits(p: GeoPoint) -> (u64, u64) {
        (p.lat.to_bits(), p.lon.to_bits())
    }

    /// Every site table the generator searches, with its unit vectors.
    fn tables() -> Vec<(&'static [GeoPoint], &'static [Site])> {
        std::iter::once((MLAB_SITES, mlab_sites()))
            .chain(
                Operator::ALL
                    .iter()
                    .map(|&op| (egress_of(op), egress_sites(op))),
            )
            .collect()
    }

    /// The static-table search (and, with `public`, also `nearest`)
    /// picks the oracle's point bit for bit, and its distance is the
    /// oracle's haversine.
    fn assert_nearest_matches(from: GeoPoint, sites: &[GeoPoint], units: &[Site], public: bool) {
        let (point, km) = haversine_oracle(from, sites);
        if public {
            assert_eq!(bits(nearest(from, sites)), bits(point), "{from:?}");
        }
        let (fast, fast_km) = nearest_site(Site::new(from), units.iter().copied());
        assert_eq!(bits(fast), bits(point), "{from:?}");
        assert_eq!(fast_km.to_bits(), km.to_bits(), "{from:?}");
    }

    #[test]
    fn nearest_site_matches_haversine_oracle_at_random_clients() {
        let tables = tables();
        let mut rng = Rng::new(0x5175);
        for i in 0..100_000 {
            let from = GeoPoint::new(rng.range_f64(-89.0, 89.0), rng.range_f64(-180.0, 180.0));
            for &(sites, units) in &tables {
                // `nearest` builds its unit vectors per call; checking it
                // at every eighth client keeps the debug run short.
                assert_nearest_matches(from, sites, units, i % 8 == 0);
            }
        }
    }

    #[test]
    fn nearest_site_matches_haversine_oracle_at_near_ties() {
        for (sites, units) in tables() {
            for (i, a) in units.iter().enumerate() {
                // A site itself, then the great-circle midpoint of it and
                // every later site: two (or more) sites at nearly equal
                // distances.
                assert_nearest_matches(a.point, sites, units, true);
                for b in &units[i + 1..] {
                    let sum: [f64; 3] = std::array::from_fn(|k| a.unit[k] + b.unit[k]);
                    let norm = sum.iter().map(|x| x * x).sum::<f64>().sqrt();
                    if norm < 1e-9 {
                        continue; // antipodal: no unique midpoint
                    }
                    let mid = GeoPoint {
                        lat: (sum[2] / norm).clamp(-1.0, 1.0).asin().to_degrees(),
                        lon: sum[1].atan2(sum[0]).to_degrees(),
                    };
                    assert_nearest_matches(mid, sites, units, true);
                }
            }
        }
    }
}
