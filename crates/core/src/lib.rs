//! The paper's primary contribution: identifying satellite network
//! operator (SNO) measurements inside public datasets, and the
//! orbit-level analyses built on the identified traffic.
//!
//! The pipeline follows Figure 1 of the paper stage by stage:
//!
//! 1. [`asn_map`] — build the ASN→SNO mapping from an ASdb-style
//!    category search plus Hurricane-Electric-style name search, then
//!    manually curate away the lookalikes (cable TV, teleports, fleet
//!    tracking);
//! 2. [`validate`] — check each ASN's latency band masses against the
//!    access technology its operator sells; flag corporate/terrestrial ASNs
//!    (Starlink AS27277), broken hybrids (SES AS201554) and ASNs mixing
//!    regimes internally (TelAlaska AS10538);
//! 3. [`prefix_filter`] — the strict per-`/24` filter (≥ 10 tests, all
//!    latencies inside the MEO > 200 ms / GEO > 500 ms bands), and the
//!    relaxed filter derived from it (per-operator minimum latency,
//!    527 ms default);
//! 4. [`pipeline`] — the end-to-end orchestration producing the SNO
//!    catalog (Table 1) and per-record acceptance, running columnar
//!    over struct-of-arrays [`sno_types::RecordBatch`]es with the
//!    per-ASN decision tables of [`accept`];
//! 5. [`stream`] — the same stages over a chunked record stream in
//!    bounded memory (per-chunk accumulators, a streamed accept pass,
//!    and a compact acceptance bitmap), byte-identical to the
//!    materialized run;
//! 6. [`online`] — the incremental service on top of [`stream`]: an
//!    [`OnlineIdentifier`] ingests chunks in arrival order, merges
//!    across shards, and snapshots through the same report path with
//!    verdicts byte-identical to the batch pipelines;
//! 7. [`analysis`] — the bird's-eye analyses of Section 4: latency
//!    distributions (Figure 3c), latency-over-time stability (4a),
//!    jitter variation (4b) and retransmissions with/without PEPs (4c).

pub mod accept;
pub mod accuracy;
pub mod analysis;
pub mod asn_map;
pub mod online;
pub mod pipeline;
pub mod prefix_filter;
pub mod stream;
pub mod validate;

pub use accept::{AcceptTable, AsnOps};
pub use accuracy::{attribution_accuracy, score, Confusion};
pub use analysis::{jitter_by_orbit, latency_by_operator, retransmissions, stability, OrbitGroup};
pub use asn_map::{map_asns, AsnMapping};
pub use online::OnlineIdentifier;
pub use pipeline::{Pipeline, PipelineReport};
pub use prefix_filter::{relaxed_thresholds, strict_filter_from_buckets, StrictOutcome};
pub use stream::{AcceptBitmap, CorpusStats, StreamOptions, StreamedReport};
pub use validate::{profiles_from_buckets, AsnVerdict, LatencyBands};
