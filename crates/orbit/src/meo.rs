//! The O3b MEO ring.
//!
//! O3b (acquired by SES in 2016) flies an equatorial ring at 8 062 km.
//! Coverage spans roughly ±50° latitude; users track satellites that
//! drift much more slowly than LEO, so handoffs are rare — but when one
//! happens, recovery is harder because the ring is sparse (the paper's
//! explanation for MEO's heavy jitter tail in Figure 4b).

use crate::vec3::{look, Vec3, EARTH_ROTATION_RAD_S, MU_EARTH};
use sno_types::Kilometers;
use std::f64::consts::TAU;

/// An equatorial circular ring of satellites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeoRing {
    /// Altitude above the surface, km.
    pub altitude_km: f64,
    /// Number of satellites, evenly spaced.
    pub sats: u32,
}

/// The O3b ring: 8 062 km, 20 satellites (the fleet size in the study
/// window).
pub const O3B_RING: MeoRing = MeoRing {
    altitude_km: 8_062.0,
    sats: 20,
};

impl MeoRing {
    /// Orbital radius, km.
    pub fn orbit_radius_km(&self) -> f64 {
        crate::vec3::EARTH_RADIUS_KM + self.altitude_km
    }

    /// Orbital period, seconds (about 288 minutes for O3b).
    pub fn period_secs(&self) -> f64 {
        TAU * (self.orbit_radius_km().powi(3) / MU_EARTH).sqrt()
    }

    /// ECEF position of satellite `index` at `t_secs`.
    ///
    /// # Panics
    /// Panics in debug builds when `index` is out of range.
    pub fn sat_position(&self, index: u32, t_secs: f64) -> Vec3 {
        debug_assert!(index < self.sats, "index out of range");
        self.position(self.orbit_radius_km(), self.drift_rad_s() * t_secs, index)
    }

    /// Angular rate of the ring in ECEF: the mean motion minus Earth
    /// rotation, rad/s.
    fn drift_rad_s(&self) -> f64 {
        TAU / self.period_secs() - EARTH_ROTATION_RAD_S
    }

    /// Position of satellite `index` on a ring of radius `a` that has
    /// drifted by `drift` radians since the epoch.
    fn position(&self, a: f64, drift: f64, index: u32) -> Vec3 {
        // Equatorial ring: position is a longitude that advances at the
        // mean motion minus Earth rotation (ECEF).
        let angle = TAU * f64::from(index) / f64::from(self.sats) + drift;
        Vec3::new(a * angle.cos(), a * angle.sin(), 0.0)
    }

    /// The highest-elevation satellite above `min_elevation_deg` seen
    /// from `observer`, with its slant range. `None` outside the
    /// coverage belt.
    pub fn best_visible(
        &self,
        observer: Vec3,
        t_secs: f64,
        min_elevation_deg: f64,
    ) -> Option<(u32, Kilometers, f64)> {
        // The ring radius, drift and observer up vector are the same
        // for every satellite; hoisting them changes no bit.
        let a = self.orbit_radius_km();
        let drift = self.drift_rad_s() * t_secs;
        let up = observer.unit();
        let mut best: Option<(u32, Kilometers, f64)> = None;
        for index in 0..self.sats {
            let (el, slant) = look(observer, up, self.position(a, drift, index));
            if el < min_elevation_deg {
                continue;
            }
            if best.as_ref().is_none_or(|&(_, _, b)| el > b) {
                best = Some((index, slant, el));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::ecef_of;
    use sno_geo::GeoPoint;

    #[test]
    fn o3b_period_about_288_minutes() {
        let p = O3B_RING.period_secs() / 60.0;
        assert!((p - 287.9).abs() < 3.0, "period {p} min");
    }

    #[test]
    fn equatorial_user_sees_a_satellite_near_zenith() {
        let obs = ecef_of(GeoPoint::new(0.0, 30.0));
        let (_, slant, el) = O3B_RING.best_visible(obs, 0.0, 10.0).unwrap();
        assert!(el > 60.0, "elevation {el}");
        assert!(slant.0 < 9_500.0, "slant {slant}");
        assert!(slant.0 >= O3B_RING.altitude_km - 1.0);
    }

    #[test]
    fn mid_latitude_covered_polar_not() {
        let mid = ecef_of(GeoPoint::new(45.0, -100.0));
        assert!(O3B_RING.best_visible(mid, 0.0, 10.0).is_some());
        let polar = ecef_of(GeoPoint::new(75.0, 0.0));
        assert!(O3B_RING.best_visible(polar, 0.0, 10.0).is_none());
    }

    #[test]
    fn satellites_drift_slowly() {
        // With 20 satellites spaced 18° and ~1°/min of relative drift,
        // the serving satellite changes roughly every 18 minutes — so a
        // 10-minute window sees at most one handoff.
        let obs = ecef_of(GeoPoint::new(5.0, 10.0));
        let mut changes = 0;
        let mut last = O3B_RING.best_visible(obs, 0.0, 10.0).unwrap().0;
        for t in (1..=20).map(|k| k as f64 * 30.0) {
            let (i, ..) = O3B_RING.best_visible(obs, t, 10.0).unwrap();
            if i != last {
                changes += 1;
                last = i;
            }
        }
        assert!(changes <= 1, "{changes} handoffs in 10 min");
    }

    /// The hoisted scan must pick exactly what evaluating
    /// `sat_position` + `elevation_deg` + `distance_to` per satellite
    /// picks, bit for bit.
    #[test]
    fn hoisted_scan_matches_per_satellite_oracle() {
        for lat in [-60.0, -30.0, -5.0, 0.0, 12.5, 45.0, 75.0] {
            for lon in [-150.0, 0.0, 101.0] {
                let obs = ecef_of(GeoPoint::new(lat, lon));
                for t in [0.0, 600.0, 86_400.0, 1.65e9] {
                    let mut oracle: Option<(u32, Kilometers, f64)> = None;
                    for index in 0..O3B_RING.sats {
                        let sat = O3B_RING.sat_position(index, t);
                        let el = crate::vec3::elevation_deg(obs, sat);
                        if el >= 10.0 && oracle.is_none_or(|(_, _, b)| el > b) {
                            oracle = Some((index, obs.distance_to(sat), el));
                        }
                    }
                    assert_eq!(
                        O3B_RING.best_visible(obs, t, 10.0),
                        oracle,
                        "lat {lat} lon {lon} t {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_is_equatorial() {
        for i in 0..O3B_RING.sats {
            assert_eq!(O3B_RING.sat_position(i, 1234.0).z, 0.0);
        }
    }
}
