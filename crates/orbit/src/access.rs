//! The subscriber access link: satellite selection + bent-pipe delay.
//!
//! A subscriber terminal talks to the internet through a *bent pipe*:
//! user → satellite → gateway (ground station), with the gateway wired to
//! the operator's PoP. Propagation delay is pure geometry; this module
//! computes it per orbit regime and exposes the *satellite generation*
//! counter that drives handoff effects:
//!
//! * **LEO** re-plans its beam assignments on a fixed 15-second cadence
//!   (the well-documented Starlink reconfiguration interval), so the
//!   serving satellite — and hence the path length — jumps every epoch.
//! * **MEO** satellites drift slowly; the serving satellite changes only
//!   every tens of minutes, but the ring is sparse so a handoff is a
//!   bigger event.
//! * **GEO** never hands off.

use crate::geostationary::GeoSlot;
use crate::meo::MeoRing;
use crate::shell::Shell;
use crate::vec3::{ecef_of, Vec3};
use sno_geo::GeoPoint;
use sno_types::{Kilometers, Millis};

/// LEO beam re-planning cadence, seconds.
pub const HANDOFF_PERIOD_SECS: f64 = 15.0;

/// Default user-terminal elevation mask, degrees (Starlink dishes refuse
/// satellites below 25°).
pub const USER_ELEVATION_MASK_DEG: f64 = 25.0;

/// A LEO bent-pipe access link.
#[derive(Debug, Clone)]
pub struct BentPipe {
    /// The serving shell.
    pub shell: Shell,
    /// Subscriber terminal position.
    pub user: Vec3,
    /// Serving gateway position (near the PoP).
    pub gateway: Vec3,
    /// Elevation mask applied at the user terminal, degrees.
    pub min_elevation_deg: f64,
}

impl BentPipe {
    /// Build for a user and gateway given as geographic points.
    pub fn new(shell: Shell, user: GeoPoint, gateway: GeoPoint) -> BentPipe {
        BentPipe {
            shell,
            user: ecef_of(user),
            gateway: ecef_of(gateway),
            min_elevation_deg: USER_ELEVATION_MASK_DEG,
        }
    }

    /// The handoff epoch `t_secs` falls in.
    pub fn generation(&self, t_secs: f64) -> u64 {
        (t_secs / HANDOFF_PERIOD_SECS).floor() as u64
    }

    /// Bent-pipe propagation RTT at `t_secs`, or `None` during an outage
    /// (no satellite above the mask).
    ///
    /// Selection is frozen at the epoch start, so the value is constant
    /// within an epoch and jumps at epoch boundaries — exactly the
    /// sawtooth that shows up as LEO jitter.
    pub fn propagation_rtt(&self, t_secs: f64) -> Option<Millis> {
        let (vis, sat) = self.shell.best_visible_at(
            self.user,
            self.epoch_start(t_secs),
            self.min_elevation_deg,
        )?;
        let up = vis.slant;
        let down = sat.distance_to(self.gateway);
        Some(Millis::light_over(Kilometers(2.0 * (up.0 + down.0))))
    }

    /// Whether a satellite serves the user at `t_secs`: exactly
    /// `propagation_rtt(t_secs).is_some()`, but the constellation scan
    /// stops at the first satellite above the mask.
    pub fn covers(&self, t_secs: f64) -> bool {
        self.shell
            .covers(self.user, self.epoch_start(t_secs), self.min_elevation_deg)
    }

    /// Start of the handoff epoch `t_secs` falls in: the instant the
    /// serving satellite is chosen.
    fn epoch_start(&self, t_secs: f64) -> f64 {
        self.generation(t_secs) as f64 * HANDOFF_PERIOD_SECS
    }
}

/// A MEO (O3b-style) access link.
#[derive(Debug, Clone)]
pub struct MeoAccess {
    /// The serving ring.
    pub ring: MeoRing,
    /// Subscriber terminal position.
    pub user: Vec3,
    /// Serving gateway position.
    pub gateway: Vec3,
    /// Elevation mask, degrees.
    pub min_elevation_deg: f64,
}

impl MeoAccess {
    /// Build for geographic points, with O3b's ~10° mask.
    pub fn new(ring: MeoRing, user: GeoPoint, gateway: GeoPoint) -> MeoAccess {
        MeoAccess {
            ring,
            user: ecef_of(user),
            gateway: ecef_of(gateway),
            min_elevation_deg: 10.0,
        }
    }

    /// Which satellite serves the user at `t_secs` (the MEO analogue of a
    /// handoff generation), or `None` outside coverage.
    pub fn generation(&self, t_secs: f64) -> Option<u64> {
        self.serving(t_secs).map(|(i, _)| u64::from(i))
    }

    /// Bent-pipe propagation RTT at `t_secs`.
    pub fn propagation_rtt(&self, t_secs: f64) -> Option<Millis> {
        self.serving(t_secs).map(|s| self.rtt_via(s, t_secs))
    }

    /// The serving satellite at `t_secs` and its slant range from the
    /// user, or `None` outside coverage: the one ring scan that both
    /// [`MeoAccess::generation`] and [`MeoAccess::propagation_rtt`]
    /// read, so a caller asking both at one instant can scan once.
    pub fn serving(&self, t_secs: f64) -> Option<(u32, Kilometers)> {
        self.ring
            .best_visible(self.user, t_secs, self.min_elevation_deg)
            .map(|(i, up, _)| (i, up))
    }

    /// Bent-pipe propagation RTT at `t_secs` through `serving`, a
    /// [`MeoAccess::serving`] answer for the same instant.
    pub fn rtt_via(&self, serving: (u32, Kilometers), t_secs: f64) -> Millis {
        let (index, up) = serving;
        let down = self
            .ring
            .sat_position(index, t_secs)
            .distance_to(self.gateway);
        Millis::light_over(Kilometers(2.0 * (up.0 + down.0)))
    }
}

/// A GEO access link.
#[derive(Debug, Clone)]
pub struct GeoAccess {
    /// The serving slot.
    pub slot: GeoSlot,
    /// Subscriber terminal position.
    pub user: Vec3,
    /// Teleport (gateway) position.
    pub gateway: Vec3,
    /// Elevation mask, degrees.
    pub min_elevation_deg: f64,
}

impl GeoAccess {
    /// Build for geographic points with a 5° mask.
    pub fn new(slot: GeoSlot, user: GeoPoint, gateway: GeoPoint) -> GeoAccess {
        GeoAccess {
            slot,
            user: ecef_of(user),
            gateway: ecef_of(gateway),
            min_elevation_deg: 5.0,
        }
    }

    /// Bent-pipe propagation RTT (time-invariant), or `None` when the
    /// slot is below the mask for the user or the gateway.
    pub fn propagation_rtt(&self) -> Option<Millis> {
        let (up, _) = self.slot.visible_from(self.user, self.min_elevation_deg)?;
        let (down, _) = self
            .slot
            .visible_from(self.gateway, self.min_elevation_deg)?;
        Some(Millis::light_over(Kilometers(2.0 * (up.0 + down.0))))
    }
}

/// A unified access link across the three regimes.
#[derive(Debug, Clone)]
pub enum SatelliteAccess {
    Leo(BentPipe),
    Meo(MeoAccess),
    Geo(GeoAccess),
}

impl SatelliteAccess {
    /// Bent-pipe propagation RTT at `t_secs`, `None` during outage.
    pub fn propagation_rtt(&self, t_secs: f64) -> Option<Millis> {
        match self {
            SatelliteAccess::Leo(l) => l.propagation_rtt(t_secs),
            SatelliteAccess::Meo(m) => m.propagation_rtt(t_secs),
            SatelliteAccess::Geo(g) => g.propagation_rtt(),
        }
    }

    /// Serving-satellite generation at `t_secs`: changes exactly when a
    /// handoff happens. GEO reports a constant.
    pub fn generation(&self, t_secs: f64) -> Option<u64> {
        match self {
            SatelliteAccess::Leo(l) => Some(l.generation(t_secs)),
            SatelliteAccess::Meo(m) => m.generation(t_secs),
            SatelliteAccess::Geo(_) => Some(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geostationary::GeoSlot;
    use crate::meo::O3B_RING;
    use crate::shell::STARLINK_SHELL;

    fn seattle_pipe() -> BentPipe {
        BentPipe::new(
            STARLINK_SHELL,
            GeoPoint::new(47.2, -121.8),
            GeoPoint::new(47.61, -122.33), // Seattle gateway
        )
    }

    #[test]
    fn leo_propagation_is_single_digit_milliseconds() {
        let pipe = seattle_pipe();
        let mut seen = 0;
        for t in (0..40).map(|k| k as f64 * 60.0) {
            if let Some(rtt) = pipe.propagation_rtt(t) {
                assert!((7.0..25.0).contains(&rtt.0), "rtt {rtt}");
                seen += 1;
            }
        }
        assert!(seen >= 35, "too many outages: {seen}/40");
    }

    #[test]
    fn leo_rtt_constant_within_epoch_jumps_between() {
        let pipe = seattle_pipe();
        let a = pipe.propagation_rtt(0.0).unwrap();
        let b = pipe.propagation_rtt(14.9).unwrap();
        assert_eq!(a, b, "same epoch must give same RTT");
        // Across many epochs the RTT must take several distinct values.
        let mut values = std::collections::BTreeSet::new();
        for epoch in 0..40 {
            if let Some(r) = pipe.propagation_rtt(epoch as f64 * 15.0) {
                values.insert((r.0 * 1000.0) as i64);
            }
        }
        assert!(values.len() > 5, "only {} distinct RTTs", values.len());
    }

    #[test]
    fn generation_counter_matches_cadence() {
        let pipe = seattle_pipe();
        assert_eq!(pipe.generation(0.0), 0);
        assert_eq!(pipe.generation(14.99), 0);
        assert_eq!(pipe.generation(15.0), 1);
        assert_eq!(pipe.generation(61.0), 4);
    }

    #[test]
    fn meo_propagation_about_110_to_150_ms() {
        let access = MeoAccess::new(
            O3B_RING,
            GeoPoint::new(-5.0, 120.0),
            GeoPoint::new(-6.0, 118.0),
        );
        let rtt = access.propagation_rtt(0.0).unwrap();
        assert!((105.0..165.0).contains(&rtt.0), "rtt {rtt}");
    }

    #[test]
    fn geo_propagation_about_480_to_520_ms() {
        let access = GeoAccess::new(
            GeoSlot { lon_deg: -101.0 },
            GeoPoint::new(40.0, -95.0),
            GeoPoint::new(39.0, -77.0),
        );
        let rtt = access.propagation_rtt().unwrap();
        assert!((470.0..530.0).contains(&rtt.0), "rtt {rtt}");
    }

    #[test]
    fn geo_never_hands_off() {
        let access = SatelliteAccess::Geo(GeoAccess::new(
            GeoSlot { lon_deg: -101.0 },
            GeoPoint::new(40.0, -95.0),
            GeoPoint::new(39.0, -77.0),
        ));
        assert_eq!(access.generation(0.0), access.generation(86_400.0));
    }

    #[test]
    fn meo_handoffs_much_rarer_than_leo() {
        let leo = SatelliteAccess::Leo(seattle_pipe());
        let meo = SatelliteAccess::Meo(MeoAccess::new(
            O3B_RING,
            GeoPoint::new(0.0, 100.0),
            GeoPoint::new(1.0, 101.0),
        ));
        let count_changes = |acc: &SatelliteAccess| {
            let mut changes = 0;
            let mut last = acc.generation(0.0);
            for t in (1..240).map(|k| k as f64 * 15.0) {
                let g = acc.generation(t);
                if g != last {
                    changes += 1;
                    last = g;
                }
            }
            changes
        };
        let leo_changes = count_changes(&leo);
        let meo_changes = count_changes(&meo);
        assert!(leo_changes > 100, "LEO changes {leo_changes}");
        assert!(meo_changes < 5, "MEO changes {meo_changes}");
    }

    #[test]
    fn out_of_coverage_user_has_no_rtt() {
        let access = MeoAccess::new(O3B_RING, GeoPoint::new(70.0, 0.0), GeoPoint::new(0.0, 0.0));
        assert!(access.propagation_rtt(0.0).is_none());
        assert!(access.generation(0.0).is_none());
    }
}
