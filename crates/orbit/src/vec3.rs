//! Minimal 3-vector algebra in an Earth-centred, Earth-fixed frame.

use sno_geo::GeoPoint;
use sno_types::Kilometers;

/// Earth radius used by the orbital model (spherical Earth), km.
pub const EARTH_RADIUS_KM: f64 = 6_371.0;

/// Earth's sidereal rotation rate, radians per second.
pub const EARTH_ROTATION_RAD_S: f64 = 7.292_115e-5;

/// Standard gravitational parameter of Earth, km³/s².
pub const MU_EARTH: f64 = 398_600.441_8;

/// A vector in kilometres, ECEF frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const fn new(x: f64, y: f64, z: f64) -> Vec3 {
        Vec3 { x, y, z }
    }

    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    #[allow(clippy::should_implement_trait)] // tiny internal algebra, not a public ops impl
    pub fn sub(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x - other.x, self.y - other.y, self.z - other.z)
    }

    pub fn scale(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }

    /// Unit vector in the same direction.
    ///
    /// # Panics
    /// Panics in debug builds on the zero vector.
    pub fn unit(self) -> Vec3 {
        let n = self.norm();
        debug_assert!(n > 0.0, "unit of zero vector");
        self.scale(1.0 / n)
    }

    /// Distance to another point.
    pub fn distance_to(self, other: Vec3) -> Kilometers {
        Kilometers(self.sub(other).norm())
    }
}

/// ECEF position of a point on the (spherical) Earth's surface.
pub fn ecef_of(p: GeoPoint) -> Vec3 {
    let lat = p.lat.to_radians();
    let lon = p.lon.to_radians();
    Vec3::new(
        EARTH_RADIUS_KM * lat.cos() * lon.cos(),
        EARTH_RADIUS_KM * lat.cos() * lon.sin(),
        EARTH_RADIUS_KM * lat.sin(),
    )
}

/// Elevation angle (degrees) of `target` as seen from surface point
/// `observer`: the angle between the line of sight and the local
/// horizontal plane. Negative values mean below the horizon.
pub fn elevation_deg(observer: Vec3, target: Vec3) -> f64 {
    look(observer, observer.unit(), target).0
}

/// Elevation (degrees) and slant range of `target` from `observer`,
/// given the observer's up vector `up = observer.unit()`, so a scan
/// over many targets computes it once. The slant is bit for bit
/// `observer.distance_to(target)`: `observer − target` is the exact
/// negation of the line of sight, so both have the same norm.
pub(crate) fn look(observer: Vec3, up: Vec3, target: Vec3) -> (f64, Kilometers) {
    let los = target.sub(observer);
    let n = los.norm();
    debug_assert!(n > 0.0, "unit of zero vector");
    let sin_el = los.scale(1.0 / n).dot(up);
    (sin_el.asin().to_degrees(), Kilometers(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_points_have_earth_radius() {
        for (lat, lon) in [(0.0, 0.0), (47.6, -122.3), (-36.85, 174.76), (89.0, 10.0)] {
            let v = ecef_of(GeoPoint::new(lat, lon));
            assert!((v.norm() - EARTH_RADIUS_KM).abs() < 1e-6);
        }
    }

    #[test]
    fn ecef_distance_close_to_haversine_for_nearby_points() {
        let a = GeoPoint::new(47.61, -122.33);
        let b = GeoPoint::new(45.52, -122.68);
        let chord = ecef_of(a).distance_to(ecef_of(b)).0;
        let arc = sno_geo::haversine_km(a, b).0;
        // Chord is slightly shorter than the arc; within 1% here.
        assert!(chord <= arc && arc - chord < arc * 0.01);
    }

    #[test]
    fn zenith_satellite_has_ninety_degree_elevation() {
        let obs = ecef_of(GeoPoint::new(10.0, 20.0));
        let sat = obs.scale((EARTH_RADIUS_KM + 550.0) / EARTH_RADIUS_KM);
        let el = elevation_deg(obs, sat);
        assert!((el - 90.0).abs() < 1e-6, "el {el}");
    }

    #[test]
    fn antipodal_satellite_below_horizon() {
        let obs = ecef_of(GeoPoint::new(0.0, 0.0));
        let sat = ecef_of(GeoPoint::new(0.0, 180.0)).scale(1.1);
        assert!(elevation_deg(obs, sat) < 0.0);
    }

    #[test]
    fn vector_algebra() {
        let a = Vec3::new(1.0, 2.0, 2.0);
        assert_eq!(a.norm(), 3.0);
        assert_eq!(a.unit().norm(), 1.0);
        assert_eq!(a.dot(Vec3::new(1.0, 0.0, 0.0)), 1.0);
        assert_eq!(a.sub(a).norm(), 0.0);
        assert_eq!(a.scale(2.0).norm(), 6.0);
    }
}
