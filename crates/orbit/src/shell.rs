//! Walker-delta constellation shells.
//!
//! A shell is a set of circular orbits at one altitude and inclination:
//! `planes` orbital planes with evenly spaced ascending nodes, each
//! carrying `sats_per_plane` satellites evenly spaced in mean anomaly,
//! with a per-plane phase offset (the Walker phasing parameter). Both
//! LEO constellations in the paper are modelled this way.

use crate::vec3::{look, Vec3, EARTH_ROTATION_RAD_S, MU_EARTH};
use sno_types::Kilometers;
use std::f64::consts::TAU;
use std::ops::ControlFlow;

/// A Walker-delta shell of circular orbits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shell {
    /// Orbit altitude above the surface, km.
    pub altitude_km: f64,
    /// Inclination, degrees.
    pub inclination_deg: f64,
    /// Number of orbital planes.
    pub planes: u32,
    /// Satellites per plane.
    pub sats_per_plane: u32,
    /// Walker phasing parameter `F`: satellites in adjacent planes are
    /// offset by `F / (planes · sats_per_plane)` of a full revolution.
    pub phasing: u32,
}

/// Starlink's first (and closest) orbital shell: 550 km, 53°, 72 planes
/// of 22 satellites.
pub const STARLINK_SHELL: Shell = Shell {
    altitude_km: 550.0,
    inclination_deg: 53.0,
    planes: 72,
    sats_per_plane: 22,
    phasing: 39,
};

/// OneWeb's polar shell: 1 200 km, 87.4°, 18 planes of 36 satellites.
pub const ONEWEB_SHELL: Shell = Shell {
    altitude_km: 1_200.0,
    inclination_deg: 87.4,
    planes: 18,
    sats_per_plane: 36,
    phasing: 1,
};

/// A visible satellite: where it is relative to an observer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Visibility {
    /// Orbital plane index.
    pub plane: u32,
    /// Satellite index within the plane.
    pub index: u32,
    /// Line-of-sight distance observer → satellite.
    pub slant: Kilometers,
    /// Elevation above the observer's horizon, degrees.
    pub elevation_deg: f64,
}

impl Shell {
    /// Total satellites in the shell.
    pub fn num_sats(&self) -> u32 {
        self.planes * self.sats_per_plane
    }

    /// Orbital radius (from Earth's centre), km.
    pub fn orbit_radius_km(&self) -> f64 {
        crate::vec3::EARTH_RADIUS_KM + self.altitude_km
    }

    /// Orbital period from Kepler's third law, seconds.
    pub fn period_secs(&self) -> f64 {
        let a = self.orbit_radius_km();
        TAU * (a.powi(3) / MU_EARTH).sqrt()
    }

    /// ECEF position of satellite (`plane`, `index`) at `t_secs` after
    /// the epoch.
    ///
    /// The orbit is circular: the satellite's in-plane angle (argument of
    /// latitude) advances at the mean motion; the plane's ascending node
    /// regresses in ECEF at the Earth rotation rate (nodal precession is
    /// negligible over the study window for our purposes).
    ///
    /// # Panics
    /// Panics in debug builds when the indices are out of range.
    pub fn sat_position(&self, plane: u32, index: u32, t_secs: f64) -> Vec3 {
        debug_assert!(plane < self.planes, "plane out of range");
        debug_assert!(index < self.sats_per_plane, "index out of range");
        let a = self.orbit_radius_km();
        let inc = self.inclination_deg.to_radians();
        let mean_motion = TAU / self.period_secs();
        // Ascending node in ECEF (inertial node minus Earth rotation).
        let raan = TAU * f64::from(plane) / f64::from(self.planes) - EARTH_ROTATION_RAD_S * t_secs;
        // Argument of latitude: initial spacing + Walker phasing + motion.
        let u = TAU * f64::from(index) / f64::from(self.sats_per_plane)
            + TAU * f64::from(self.phasing) * f64::from(plane) / f64::from(self.num_sats())
            + mean_motion * t_secs;
        let (sin_u, cos_u) = u.sin_cos();
        let (sin_raan, cos_raan) = raan.sin_cos();
        let (sin_i, cos_i) = inc.sin_cos();
        Vec3::new(
            a * (cos_raan * cos_u - sin_raan * sin_u * cos_i),
            a * (sin_raan * cos_u + cos_raan * sin_u * cos_i),
            a * (sin_u * sin_i),
        )
    }

    /// The visible satellite with the highest elevation above
    /// `min_elevation_deg`, as seen from `observer` (an ECEF surface
    /// point) at `t_secs`. `None` when no satellite clears the mask.
    ///
    /// Exact pruned search, not a full scan. On the spherical Earth,
    /// elevation is strictly monotone in the central angle ψ between
    /// observer and satellite, so a satellite clears the mask iff
    /// ψ ≤ ψmax = acos((r/a)·cos(mask)) − mask. Each plane's satellites
    /// lie on a great circle of the orbit sphere whose nearest approach
    /// to the observer direction is asin(|ô·n̂|); planes further away
    /// than ψmax are skipped without touching their satellites. Within
    /// a surviving plane the dot product ô·pos(u) is sinusoidal in the
    /// argument of latitude, so the plane's best satellite is the
    /// sample nearest its peak — only that sample, and a neighbour when
    /// the peak lies near half-way to it, are evaluated. The plane
    /// nearest the observer goes first, and a later plane whose nearest
    /// approach cannot match a satellite already found is skipped too.
    /// For Starlink's 72×22 shell at the 25° user mask and mid-latitude
    /// users, ~15 of the 72 planes pass the plane test, ~5 of them
    /// survive the second bound, and ~5 of the 1,584 satellites are
    /// evaluated.
    pub fn best_visible(
        &self,
        observer: Vec3,
        t_secs: f64,
        min_elevation_deg: f64,
    ) -> Option<Visibility> {
        self.best_visible_at(observer, t_secs, min_elevation_deg)
            .map(|(vis, _)| vis)
    }

    /// Whether any satellite clears `min_elevation_deg` from `observer`
    /// at `t_secs`: exactly `best_visible(..).is_some()`, but the scan
    /// stops at the first satellite above the mask.
    pub fn covers(&self, observer: Vec3, t_secs: f64, min_elevation_deg: f64) -> bool {
        self.scan(observer, t_secs, min_elevation_deg, |_, _| {
            ControlFlow::Break(())
        })
    }

    /// [`Shell::best_visible`] together with the chosen satellite's ECEF
    /// position (bit for bit `sat_position(vis.plane, vis.index, t_secs)`).
    pub(crate) fn best_visible_at(
        &self,
        observer: Vec3,
        t_secs: f64,
        min_elevation_deg: f64,
    ) -> Option<(Visibility, Vec3)> {
        let mut best: Option<(Visibility, Vec3)> = None;
        // The scan visits one plane out of order, so a tie goes to the
        // lower plane: the satellite a scan in plane order keeps.
        self.scan(observer, t_secs, min_elevation_deg, |vis, sat| {
            if best.as_ref().is_none_or(|(b, _)| {
                vis.elevation_deg > b.elevation_deg
                    || (vis.elevation_deg == b.elevation_deg && vis.plane < b.plane)
            }) {
                best = Some((vis, sat));
            }
            ControlFlow::Continue(())
        });
        best
    }

    /// n̂·ô for every plane in order, approximately: the ascending nodes
    /// are evenly spaced, so their `(sin, cos)` follow a rotation
    /// recurrence seeded by one `sin_cos`, instead of one `sin_cos` per
    /// plane. Off by at most [`Shell::normal_guard`] from the exact
    /// `n_dot` of [`Shell::scan`].
    fn approx_normals(
        &self,
        o: Vec3,
        node_drift: f64,
        sin_i: f64,
        cos_i: f64,
    ) -> impl Iterator<Item = (u32, f64)> {
        let (step_sin, step_cos) = (TAU / f64::from(self.planes)).sin_cos();
        let (mut sin_raan, mut cos_raan) = (-node_drift).sin_cos();
        (0..self.planes).map(move |plane| {
            let n_dot = o.x * sin_raan * sin_i - o.y * cos_raan * sin_i + o.z * cos_i;
            (sin_raan, cos_raan) = (
                sin_raan * step_cos + cos_raan * step_sin,
                cos_raan * step_cos - sin_raan * step_sin,
            );
            (plane, n_dot)
        })
    }

    /// Bound on the error of [`Shell::approx_normals`] against the exact
    /// `n_dot`. With ε = f64::EPSILON and P planes:
    /// - the exact node `TAU·p/P − node_drift` rounds to within
    ///   ε/2·(|node_drift| + 2π) + 3ε·2π of the real angle, and the
    ///   recurrence starts at plane 0's node, which is −node_drift
    ///   exactly;
    /// - the step `TAU/P` and its `sin_cos` are each off by at most ε
    ///   relatively, so P steps drift by at most (2π + P)·ε;
    /// - each step rounds each component by at most 3√2·ε, and a
    ///   rotation carries earlier errors along unchanged in size;
    /// - n̂·ô weights the (sin, cos) errors by sin i·(|ô.x| + |ô.y|) ≤ √2,
    ///   and its own evaluation, in both versions, by ≤ 8ε.
    ///
    /// That sums to under (0.71·|node_drift| + 7.5·P + 40)·ε. The bound
    /// is twice that. It needs no lower bound on ô's equatorial
    /// projection, so it holds for observers at the poles too.
    fn normal_guard(&self, node_drift: f64) -> f64 {
        2.0 * f64::EPSILON * (node_drift.abs() + 8.0 * f64::from(self.planes) + 64.0)
    }

    /// The pruned search both [`Shell::best_visible`] and
    /// [`Shell::covers`] run: hands evaluated satellites that clear the
    /// mask to `visit`, with their ECEF positions, until `visit` breaks.
    /// Returns whether it broke.
    ///
    /// The plane whose normal is most nearly perpendicular to the
    /// observer (smallest |n̂·ô|) is searched first, then the others in
    /// plane order. A plane is skipped when no satellite on it can reach
    /// the elevation of one already visited (it could neither beat nor
    /// tie it), so `visit` sees every satellite that can be the best but
    /// not every satellite above the mask.
    ///
    /// The shell-wide and per-plane terms of [`Shell::sat_position`] and
    /// `vec3::elevation_deg` are hoisted out of the loops, but every
    /// value handed to `visit` is the same float expression evaluated in
    /// the same order, so positions, elevations and slants are bit for
    /// bit those of the per-satellite functions.
    fn scan(
        &self,
        observer: Vec3,
        t_secs: f64,
        min_elevation_deg: f64,
        mut visit: impl FnMut(Visibility, Vec3) -> ControlFlow<()>,
    ) -> bool {
        let a = self.orbit_radius_km();
        let o = observer.unit();
        let mask = min_elevation_deg.to_radians();
        let cos_arg = ((observer.norm() / a) * mask.cos()).min(1.0);
        let psi_max = cos_arg.acos() - mask;
        if psi_max <= 0.0 {
            return false;
        }
        // Slack so float rounding in the plane-distance test can never
        // drop a plane whose best satellite sits exactly at the mask.
        let sin_psi_max = (psi_max + 1e-9).sin();
        let mean_motion = TAU / self.period_secs();
        let motion = mean_motion * t_secs;
        let node_drift = EARTH_ROTATION_RAD_S * t_secs;
        let (sin_i, cos_i) = self.inclination_deg.to_radians().sin_cos();
        let s = f64::from(self.sats_per_plane);
        let normal_guard = self.normal_guard(node_drift);
        let approx_normals = || self.approx_normals(o, node_drift, sin_i, cos_i);
        let Some(first) = approx_normals().min_by(|x, y| x.1.abs().total_cmp(&y.1.abs())) else {
            return false;
        };
        // Highest ô·sat/a of the satellites visited so far.
        let mut best_dot = f64::NEG_INFINITY;
        let order =
            std::iter::once(first).chain(approx_normals().filter(|&(plane, _)| plane != first.0));
        for (plane, approx_n_dot) in order {
            if approx_n_dot.abs() > sin_psi_max + normal_guard {
                continue;
            }
            // Every satellite of the plane lies on the great circle with
            // normal n̂, so its ô·sat/a is at most √(1 − (n̂·ô)²) (plus a
            // few ε for the rounding of `sat` off that circle), taking
            // the smallest |n̂·ô| the guard allows. A satellite whose
            // ô·sat/a is lower by δ has a central angle ψ larger by at
            // least δ (|d cos ψ/dψ| ≤ 1), and so an elevation lower by
            // at least δ/2 radians: with r the observer's radius and d
            // the slant, elevation falls with ψ at the rate
            // a·(a − r·cos ψ)/d², which is at least a/(a + r) > 1/2 (its
            // value at ψ = π), and at least 1 above the horizon
            // (cos ψ ≥ r/a). The computed elevation's error is at
            // most ~7·10⁻⁸ rad (`asin` of a sine with ~10ε of error,
            // worst at the zenith), and ô·sat/a is off by ~10ε, so
            // DOT_GUARD = 10⁻⁶ leaves a skipped plane's satellites
            // strictly below the visited one's computed elevation: they
            // can neither win nor tie.
            const DOT_GUARD: f64 = 1e-6;
            let n_floor = (approx_n_dot.abs() - normal_guard).max(0.0);
            if (1.0 - n_floor * n_floor).sqrt() < best_dot - DOT_GUARD {
                continue;
            }
            let raan = TAU * f64::from(plane) / f64::from(self.planes) - node_drift;
            let (sin_raan, cos_raan) = raan.sin_cos();
            // Unit normal of the orbit plane in ECEF.
            let n_dot = o.x * sin_raan * sin_i - o.y * cos_raan * sin_i + o.z * cos_i;
            if n_dot.abs() > sin_psi_max {
                continue;
            }
            // pos(u) = a·(p1·cos u + p2·sin u): ô·pos peaks at
            // u* = atan2(ô·p2, ô·p1), and elevation peaks with it.
            let p1 = Vec3::new(cos_raan, sin_raan, 0.0);
            let p2 = Vec3::new(-sin_raan * cos_i, cos_raan * cos_i, sin_i);
            let u_star = o.dot(p2).atan2(o.dot(p1));
            let phase =
                TAU * f64::from(self.phasing) * f64::from(plane) / f64::from(self.num_sats());
            // Elevation falls strictly with |u − u*| (the plane test
            // keeps |ô·n̂| ≤ sin ψmax, so the sinusoid's amplitude is at
            // least cos ψmax), and the satellites sit one step apart in
            // `peak`. The sample nearest the peak is therefore the
            // plane's best, unless the peak lies within rounding error of
            // half-way to a neighbour. That neighbour is also evaluated
            // when the peak lies within 0.05 step of half-way to it: a
            // guard band ~10⁶ times the rounding error of `peak` (~10⁻⁸
            // of a step at t = 10¹⁰ s). A skipped neighbour is strictly
            // lower than the evaluated sample, so it can neither win nor
            // be the only satellite above the mask.
            let peak = (u_star - (phase + motion)) / TAU * s;
            let nearest = peak.round();
            let offset = peak - nearest;
            for k in [-1.0, 0.0, 1.0] {
                if k != 0.0 && k * offset <= 0.45 {
                    continue;
                }
                let index =
                    ((nearest + k) as i64).rem_euclid(i64::from(self.sats_per_plane)) as u32;
                let u = TAU * f64::from(index) / s + phase + motion;
                let (sin_u, cos_u) = u.sin_cos();
                let sat = Vec3::new(
                    a * (cos_raan * cos_u - sin_raan * sin_u * cos_i),
                    a * (sin_raan * cos_u + cos_raan * sin_u * cos_i),
                    a * (sin_u * sin_i),
                );
                let (elevation_deg, slant) = look(observer, o, sat);
                if elevation_deg < min_elevation_deg {
                    continue;
                }
                best_dot = best_dot.max(o.dot(sat) / a);
                let vis = Visibility {
                    plane,
                    index,
                    slant,
                    elevation_deg,
                };
                if visit(vis, sat).is_break() {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::{ecef_of, EARTH_RADIUS_KM};
    use sno_check::prelude::*;
    use sno_geo::GeoPoint;

    #[test]
    fn starlink_period_about_95_minutes() {
        let p = STARLINK_SHELL.period_secs() / 60.0;
        assert!((p - 95.6).abs() < 1.0, "period {p} min");
    }

    #[test]
    fn oneweb_period_about_109_minutes() {
        let p = ONEWEB_SHELL.period_secs() / 60.0;
        assert!((p - 109.0).abs() < 2.0, "period {p} min");
    }

    #[test]
    fn satellites_stay_on_their_sphere() {
        let shell = STARLINK_SHELL;
        let r = shell.orbit_radius_km();
        for t in [0.0, 300.0, 4_000.0, 86_400.0] {
            let pos = shell.sat_position(7, 3, t);
            assert!((pos.norm() - r).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn constellation_sizes() {
        assert_eq!(STARLINK_SHELL.num_sats(), 1_584);
        assert_eq!(ONEWEB_SHELL.num_sats(), 648);
    }

    #[test]
    fn mid_latitude_user_always_sees_starlink() {
        // At 53° inclination the shell is densest at mid latitudes; a
        // Seattle user should see a satellite above 25° at any time.
        let obs = ecef_of(GeoPoint::new(47.6, -122.3));
        for t in (0..12).map(|k| k as f64 * 450.0) {
            let vis = STARLINK_SHELL.best_visible(obs, t, 25.0);
            assert!(vis.is_some(), "no satellite at t={t}");
            let v = vis.unwrap();
            // Slant is bounded below by the altitude and above by the
            // horizon distance.
            assert!(v.slant.0 >= 550.0 - 1.0, "slant {}", v.slant);
            assert!(v.slant.0 < 1_500.0, "slant {}", v.slant);
        }
    }

    #[test]
    fn starlink_shell_does_not_cover_high_latitudes() {
        // 53°-inclined shell leaves the far north uncovered (Alaska's
        // far-north users rely on later shells; our Anchorage probe at
        // 61°N is near the edge but the pole is definitely dark).
        let obs = ecef_of(GeoPoint::new(82.0, 0.0));
        let vis = STARLINK_SHELL.best_visible(obs, 0.0, 25.0);
        assert!(vis.is_none());
    }

    #[test]
    fn oneweb_polar_shell_covers_high_latitudes() {
        let obs = ecef_of(GeoPoint::new(78.0, 15.0));
        let vis = ONEWEB_SHELL.best_visible(obs, 0.0, 20.0);
        assert!(vis.is_some());
    }

    #[test]
    fn selection_changes_over_time() {
        // LEO satellites sweep overhead in minutes; the chosen satellite
        // must differ across a quarter orbit.
        let obs = ecef_of(GeoPoint::new(40.0, -100.0));
        let a = STARLINK_SHELL.best_visible(obs, 0.0, 25.0).unwrap();
        let b = STARLINK_SHELL
            .best_visible(obs, STARLINK_SHELL.period_secs() / 4.0, 25.0)
            .unwrap();
        assert!(a.plane != b.plane || a.index != b.index);
    }

    #[test]
    fn elevation_mask_respected() {
        let obs = ecef_of(GeoPoint::new(47.6, -122.3));
        for t in [0.0, 777.0, 5_000.0] {
            if let Some(v) = STARLINK_SHELL.best_visible(obs, t, 40.0) {
                assert!(v.elevation_deg >= 40.0);
            }
        }
    }

    /// The pre-pruning full scan, kept as the reference the pruned
    /// search must match exactly.
    fn best_visible_scan(
        shell: &Shell,
        observer: Vec3,
        t_secs: f64,
        min_elevation_deg: f64,
    ) -> Option<Visibility> {
        let mut best: Option<Visibility> = None;
        for plane in 0..shell.planes {
            for index in 0..shell.sats_per_plane {
                let sat = shell.sat_position(plane, index, t_secs);
                let el = crate::vec3::elevation_deg(observer, sat);
                if el < min_elevation_deg {
                    continue;
                }
                if best.as_ref().is_none_or(|b| el > b.elevation_deg) {
                    best = Some(Visibility {
                        plane,
                        index,
                        slant: observer.distance_to(sat),
                        elevation_deg: el,
                    });
                }
            }
        }
        best
    }

    #[test]
    fn pruned_search_matches_full_scan() {
        for shell in [STARLINK_SHELL, ONEWEB_SHELL] {
            for lat in [-78.0, -53.0, -40.0, 0.0, 33.9, 47.6, 53.0, 61.2, 82.0] {
                for lon in [-122.3, 0.0, 15.0, 174.8] {
                    let obs = ecef_of(GeoPoint::new(lat, lon));
                    for t in [0.0, 777.0, 5_000.0, 86_400.0, 9_999_999.0] {
                        for mask in [10.0, 25.0, 40.0] {
                            let fast = shell.best_visible(obs, t, mask);
                            let slow = best_visible_scan(&shell, obs, t, mask);
                            assert_eq!(
                                fast, slow,
                                "shell {}km lat {lat} lon {lon} t {t} mask {mask}",
                                shell.altitude_km
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The pruned search matches the full scan at random observers,
        /// times and masks, not only on the fixed grid: also within 0.5°
        /// of either pole, where every plane normal is nearly equally far
        /// from the observer, and at times up to 10¹⁰ s, where the node
        /// recurrence starts from a seed ~7·10⁵ rad from zero.
        #[test]
        fn pruned_search_matches_full_scan_anywhere(
            lat in prop_oneof![-89.0..89.0f64, 89.5..=90.0f64, -90.0..=-89.5f64],
            lon in -180.0..180.0f64,
            t in prop_oneof![0.0..2e9f64, 0.0..1e10f64],
            mask in 5.0..60.0f64,
        ) {
            let (lat, t) = (*lat, *t);
            let obs = ecef_of(GeoPoint::new(lat, lon));
            for shell in [STARLINK_SHELL, ONEWEB_SHELL] {
                prop_assert_eq!(
                    shell.best_visible(obs, t, mask),
                    best_visible_scan(&shell, obs, t, mask)
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The node recurrence stays within half its guard of the exact
        /// per-plane `n_dot`, for every plane of both shells, at the poles
        /// and at times up to 10¹⁰ s.
        #[test]
        fn approx_normals_stay_within_half_the_guard(
            lat in prop_oneof![-89.0..89.0f64, 89.5..=90.0f64, -90.0..=-89.5f64],
            lon in -180.0..180.0f64,
            t in prop_oneof![0.0..2e9f64, 0.0..1e10f64],
        ) {
            let o = ecef_of(GeoPoint::new(*lat, lon)).unit();
            let node_drift = EARTH_ROTATION_RAD_S * *t;
            for shell in [STARLINK_SHELL, ONEWEB_SHELL] {
                let (sin_i, cos_i) = shell.inclination_deg.to_radians().sin_cos();
                let half_guard = shell.normal_guard(node_drift) / 2.0;
                for (plane, approx) in shell.approx_normals(o, node_drift, sin_i, cos_i) {
                    let raan = TAU * f64::from(plane) / f64::from(shell.planes) - node_drift;
                    let (sin_raan, cos_raan) = raan.sin_cos();
                    let exact = o.x * sin_raan * sin_i - o.y * cos_raan * sin_i + o.z * cos_i;
                    prop_assert!(
                        (approx - exact).abs() <= half_guard,
                        "plane {} error {:e} half guard {:e}",
                        plane,
                        (approx - exact).abs(),
                        half_guard
                    );
                }
            }
        }
    }

    #[test]
    fn covers_matches_best_visible() {
        for shell in [STARLINK_SHELL, ONEWEB_SHELL] {
            for lat in [-78.0, -53.0, -40.0, 0.0, 33.9, 47.6, 53.0, 61.2, 82.0] {
                for lon in [-122.3, 0.0, 15.0, 174.8] {
                    let obs = ecef_of(GeoPoint::new(lat, lon));
                    for t in [0.0, 777.0, 5_000.0, 86_400.0, 9_999_999.0] {
                        for mask in [10.0, 25.0, 40.0] {
                            assert_eq!(
                                shell.covers(obs, t, mask),
                                shell.best_visible(obs, t, mask).is_some(),
                                "shell {}km lat {lat} lon {lon} t {t} mask {mask}",
                                shell.altitude_km
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn best_visible_at_returns_the_sat_position() {
        let obs = ecef_of(GeoPoint::new(47.6, -122.3));
        for t in [0.0, 777.0, 1.65e9] {
            let (vis, sat) = STARLINK_SHELL.best_visible_at(obs, t, 25.0).unwrap();
            assert_eq!(sat, STARLINK_SHELL.sat_position(vis.plane, vis.index, t));
        }
    }

    #[test]
    fn slant_lower_bound_is_altitude() {
        // Geometry sanity: slant >= altitude for any satellite above the
        // observer's horizon.
        let obs = ecef_of(GeoPoint::new(0.0, 0.0));
        let v = ONEWEB_SHELL.best_visible(obs, 123.0, 10.0).unwrap();
        assert!(v.slant.0 >= ONEWEB_SHELL.altitude_km - 1.0);
        let horizon = ((ONEWEB_SHELL.orbit_radius_km()).powi(2) - EARTH_RADIUS_KM.powi(2)).sqrt();
        assert!(v.slant.0 <= horizon);
    }
}
