//! Property-based tests for the orbital geometry.

use sno_check::prelude::*;
use sno_geo::GeoPoint;
use sno_orbit::access::{BentPipe, GeoAccess, MeoAccess, HANDOFF_PERIOD_SECS};
use sno_orbit::geostationary::{GeoSlot, GEO_ALTITUDE_KM};
use sno_orbit::meo::O3B_RING;
use sno_orbit::shell::{ONEWEB_SHELL, STARLINK_SHELL};
use sno_orbit::vec3::{ecef_of, elevation_deg, EARTH_RADIUS_KM};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every satellite of every modelled system stays on its sphere at
    /// all times.
    #[test]
    fn satellites_stay_on_their_spheres(
        t in 0.0..1e6f64,
        plane in 0u32..72,
        idx in 0u32..22,
        meo_idx in 0u32..20,
    ) {
        let s = STARLINK_SHELL.sat_position(plane, idx, t);
        prop_assert!((s.norm() - (EARTH_RADIUS_KM + 550.0)).abs() < 1e-6);
        let o = ONEWEB_SHELL.sat_position(plane % 18, idx % 36, t);
        prop_assert!((o.norm() - (EARTH_RADIUS_KM + 1_200.0)).abs() < 1e-6);
        let m = O3B_RING.sat_position(meo_idx, t);
        prop_assert!((m.norm() - (EARTH_RADIUS_KM + 8_062.0)).abs() < 1e-6);
    }

    /// Elevation is bounded and reaches 90° only straight up.
    #[test]
    fn elevation_bounds(
        lat in -89.0..89.0f64,
        lon in -179.0..179.0f64,
        slat in -89.0..89.0f64,
        slon in -179.0..179.0f64,
        alt in 200.0..40_000.0f64,
    ) {
        let obs = ecef_of(GeoPoint::new(lat, lon));
        let sat = ecef_of(GeoPoint::new(slat, slon)).scale((EARTH_RADIUS_KM + alt) / EARTH_RADIUS_KM);
        let el = elevation_deg(obs, sat);
        prop_assert!((-90.0..=90.0).contains(&el));
    }

    /// Bent-pipe propagation RTT is bounded by physics: at least the
    /// vertical double-bounce, at most four horizon slants.
    #[test]
    fn leo_rtt_physical_bounds(
        lat in -55.0..55.0f64,
        lon in -180.0..180.0f64,
        t in 0.0..50_000.0f64,
    ) {
        let user = GeoPoint::new(lat, lon);
        let gw = GeoPoint::new((lat + 2.0).clamp(-60.0, 60.0), lon);
        let pipe = BentPipe::new(STARLINK_SHELL, user, gw);
        if let Some(rtt) = pipe.propagation_rtt(t) {
            let min_ms = 2.0 * 2.0 * 550.0 / 299_792.458 * 1_000.0; // up+down, vertical
            let horizon =
                ((EARTH_RADIUS_KM + 550.0f64).powi(2) - EARTH_RADIUS_KM.powi(2)).sqrt();
            let max_ms = 2.0 * 2.0 * horizon / 299_792.458 * 1_000.0;
            prop_assert!(rtt.0 >= min_ms - 1e-9, "{rtt}");
            prop_assert!(rtt.0 <= max_ms + 1e-9, "{rtt}");
        }
    }

    /// The early-exit coverage scan answers exactly what the full
    /// best-satellite scan answers, for both shells and the bent pipe,
    /// also within 0.5° of either pole and at times up to 10¹⁰ s.
    #[test]
    fn covers_agrees_with_best_visible(
        lat in prop_oneof![-89.0..89.0f64, 89.5..=90.0f64, -90.0..=-89.5f64],
        lon in -180.0..180.0f64,
        t in prop_oneof![0.0..2e9f64, 0.0..1e10f64],
        mask in 5.0..60.0f64,
    ) {
        let (lat, t) = (*lat, *t);
        let obs = ecef_of(GeoPoint::new(lat, lon));
        for shell in [STARLINK_SHELL, ONEWEB_SHELL] {
            prop_assert_eq!(
                shell.covers(obs, t, mask),
                shell.best_visible(obs, t, mask).is_some()
            );
        }
        let mut pipe = BentPipe::new(STARLINK_SHELL, GeoPoint::new(lat, lon), GeoPoint::new(lat, lon));
        pipe.min_elevation_deg = mask;
        prop_assert_eq!(pipe.covers(t), pipe.propagation_rtt(t).is_some());
    }

    /// LEO RTT is constant within a handoff epoch.
    #[test]
    fn leo_rtt_epoch_constant(
        lat in -50.0..50.0f64,
        t in 0.0..10_000.0f64,
        frac in 0.01..0.99f64,
    ) {
        let user = GeoPoint::new(lat, 10.0);
        let gw = GeoPoint::new(lat + 1.0, 11.0);
        let pipe = BentPipe::new(STARLINK_SHELL, user, gw);
        let epoch_start = (t / HANDOFF_PERIOD_SECS).floor() * HANDOFF_PERIOD_SECS;
        let a = pipe.propagation_rtt(epoch_start + 0.001);
        let b = pipe.propagation_rtt(epoch_start + frac * HANDOFF_PERIOD_SECS);
        prop_assert_eq!(a.map(|m| m.0), b.map(|m| m.0));
    }

    /// GEO propagation RTT sits between the vertical bounce (~477 ms)
    /// and the grazing-path maximum (~560 ms) whenever defined.
    #[test]
    fn geo_rtt_physical_bounds(
        lat in -70.0..70.0f64,
        lon in -70.0..70.0f64,
        slot_lon in -30.0..30.0f64,
        glat in -45.0..45.0f64,
    ) {
        let access = GeoAccess::new(
            GeoSlot { lon_deg: slot_lon },
            GeoPoint::new(lat, lon),
            GeoPoint::new(glat, slot_lon),
        );
        if let Some(rtt) = access.propagation_rtt() {
            let min_ms = 2.0 * 2.0 * GEO_ALTITUDE_KM / 299_792.458 * 1_000.0;
            prop_assert!(rtt.0 >= min_ms - 1e-9, "{rtt}");
            prop_assert!(rtt.0 <= 600.0, "{rtt}");
        }
    }

    /// MEO coverage is an equatorial belt: inside ±45° there is always a
    /// satellite; beyond ±62° never.
    #[test]
    fn meo_coverage_belt(lon in -180.0..180.0f64, t in 0.0..100_000.0f64) {
        let inside = MeoAccess::new(
            O3B_RING,
            GeoPoint::new(20.0, lon),
            GeoPoint::new(18.0, lon),
        );
        prop_assert!(inside.propagation_rtt(t).is_some());
        let outside = MeoAccess::new(
            O3B_RING,
            GeoPoint::new(70.0, lon),
            GeoPoint::new(0.0, lon),
        );
        prop_assert!(outside.propagation_rtt(t).is_none());
    }
}
