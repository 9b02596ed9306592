//! Section 5's Starlink analyses over RIPE-Atlas-style data.
//!
//! Everything operates on plain record slices plus light probe metadata,
//! so the analyses run unchanged whether the records come from the
//! synthetic deployment or a real BigQuery export:
//!
//! * [`summary`] — the Table 2 per-country dataset summary;
//! * [`pop_rtt`] — probe→PoP RTT (the `100.64.0.1` CGNAT hop) grouped by
//!   country (Figure 6a) and by US state/region (Figure 8a);
//! * [`popmap`] — PoP geolocation from SSLCert source addresses and
//!   reverse DNS, including the active/inactive link history (Figure 7);
//! * [`root_dns`] — RTT and hop counts to the 13 root letters
//!   (Figures 6b, 6c);
//! * [`pop_changes`] — longitudinal PoP-change detection by mean-shift
//!   segmentation of the RTT series, cross-checked against the
//!   reverse-DNS history (Figure 8b).

pub mod pop_changes;
pub mod pop_rtt;
pub mod popmap;
pub mod root_dns;
pub mod summary;

pub use pop_changes::{detect_all_pop_changes, detect_pop_changes, PopChange};
pub use pop_rtt::{
    pop_rtt_by_country, pop_rtt_by_state, pop_rtt_series_by_probe, pop_rtt_series_from_chunks,
    ProbeIndex, ProbeInfo,
};
pub use popmap::{pop_history, PopLink};
pub use root_dns::{hops_by_country, root_rtt_by_country};
pub use summary::{country_summary, CountrySummary};
