//! Statistical toolkit for the measurement analyses.
//!
//! Everything the paper's analysis needs, implemented from scratch:
//!
//! * [`mod@quantile`] — percentiles with linear interpolation (the paper's
//!   p5 access latency, p95 jitter, medians);
//! * [`summary`] — five-number summaries / boxplot statistics;
//! * [`kde`] — Gaussian kernel density estimation with Silverman's
//!   bandwidth rule (Figure 2's per-ASN latency profiles);
//! * [`ecdf`] — empirical CDFs (Figures 4b, 4c, 10c);
//! * [`histogram`] — fixed-width binning;
//! * [`timeseries`] — daily binning and daily-variation statistics
//!   (Figure 4a);
//! * [`changepoint`] — mean-shift segmentation used to detect Starlink
//!   PoP reassignment events in RTT series (Figure 8b);
//! * [`sketch`] — mergeable streaming sketches (quantiles, moments,
//!   changepoints) for the online identification service.

pub mod changepoint;
pub mod ecdf;
pub mod histogram;
pub mod kde;
pub mod quantile;
pub mod sketch;
pub mod summary;
pub mod timeseries;

pub use changepoint::{detect_mean_shifts, Shift};
pub use ecdf::Ecdf;
pub use histogram::Histogram;
pub use kde::Kde;
pub use quantile::{median, quantile, quantile_of_sorted, QuantileRanks};
pub use sketch::{OnlineShiftDetector, QuantileSketch, RunningMoments};
pub use summary::FiveNumber;
pub use timeseries::{daily_medians, DailyPoint};
