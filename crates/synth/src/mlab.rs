//! The synthetic M-Lab NDT corpus.
//!
//! For every operator with Table-1 presence, the generator runs a scaled
//! number of 10-second NDT download flows over paths built from the
//! operator's prefix plan and the orbital model, and reduces each flow's
//! TCP_Info polls to an [`NdtRecord`]. GEO operators that deploy PEPs
//! (HughesNet, Viasat, Eutelsat, Avanti) run their satellite flows
//! through the split-connection model.

use crate::config::SynthConfig;
use crate::paths::{scatter, ClientPath};
use sno_netsim::pep::PepMode;
use sno_netsim::tcp::{TcpConfig, TcpFlow};
use sno_registry::prefixes::{allocation_for, PrefixSpec};
use sno_registry::profile::{profile_of, PROFILES};
use sno_types::chunk::{self, RecordChunks};
use sno_types::par;
use sno_types::records::NdtRecord;
use sno_types::time::SECS_PER_DAY;
use sno_types::{Asn, LinkKind, Operator, OrbitClass, Rng, Timestamp, UtcDay};

/// A generated corpus: the records plus ground truth for validation.
#[derive(Debug, Clone)]
pub struct MlabCorpus {
    /// All NDT records, in generation order (grouped by operator).
    pub records: Vec<NdtRecord>,
}

/// Ground truth of one record (never shown to the pipeline; used by
/// integration tests to score identification accuracy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionTruth {
    pub operator: Operator,
    pub kind: LinkKind,
}

/// NDT corpus generator.
pub struct MlabGenerator {
    config: SynthConfig,
}

impl MlabGenerator {
    /// Create a generator.
    pub fn new(config: SynthConfig) -> MlabGenerator {
        MlabGenerator { config }
    }

    /// Total sessions [`MlabGenerator::generate`] (and
    /// [`MlabGenerator::generate_chunks`]) targets: the sum of the
    /// scaled per-operator counts. Sparse-coverage shards can come in
    /// slightly under their target via the rejection budget, so treat
    /// this as the progress ceiling, not an exact count.
    pub fn session_count(&self) -> u64 {
        PROFILES
            .iter()
            .filter(|p| p.mlab_tests > 0)
            .map(|p| self.config.scaled_sessions(p.mlab_tests))
            .sum()
    }

    /// Generate records for every Table-1 operator.
    pub fn generate(&self) -> MlabCorpus {
        let mut records = Vec::new();
        for profile in PROFILES {
            if profile.mlab_tests > 0 {
                records.extend(self.generate_for(profile.operator));
            }
        }
        MlabCorpus { records }
    }

    /// Generate the corpus together with per-record ground truth.
    pub fn generate_with_truth(&self) -> (MlabCorpus, Vec<SessionTruth>) {
        let mut records = Vec::new();
        let mut truth = Vec::new();
        for profile in PROFILES {
            if profile.mlab_tests > 0 {
                for (rec, t) in self.sessions_for(profile.operator) {
                    records.push(rec);
                    truth.push(t);
                }
            }
        }
        (MlabCorpus { records }, truth)
    }

    /// Generate records for one operator.
    pub fn generate_for(&self, op: Operator) -> Vec<NdtRecord> {
        self.sessions_for(op)
            .into_iter()
            .map(|(rec, _)| rec)
            .collect()
    }

    /// Generate `(record, truth)` pairs for one operator.
    ///
    /// Sessions are generated in fixed-size shards, each from its own
    /// RNG substream, so the output is byte-identical at every
    /// `config.threads` setting (shard boundaries depend only on the
    /// session count — see `sno_types::par`).
    pub fn sessions_for(&self, op: Operator) -> Vec<(NdtRecord, SessionTruth)> {
        let profile = profile_of(op);
        let n = self.config.scaled_sessions(profile.mlab_tests) as usize;
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
                self.session_batch(op, &table, &weights, range.len(), &mut rng)
            },
        )
    }

    /// Stream the exact record sequence [`MlabGenerator::generate`]
    /// materializes, in the same order, delivered in chunks of at most
    /// `chunk_len` records.
    ///
    /// The stream runs the same shard plan as the materialized path:
    /// shard boundaries come from `par::DEFAULT_CHUNK` over each
    /// operator's session count, and every shard draws from
    /// `substream_shard(shard)` of the operator substream — neither
    /// `chunk_len` nor `config.threads` can perturb the records. Peak
    /// memory is one wave of shard outputs plus the re-buffer, not the
    /// corpus. Call again for a second pass; the stream is rebuilt from
    /// the seed.
    pub fn generate_chunks(&self, chunk_len: usize) -> impl RecordChunks<Item = NdtRecord> + '_ {
        let ops: Vec<Operator> = PROFILES
            .iter()
            .filter(|p| p.mlab_tests > 0)
            .map(|p| p.operator)
            .collect();
        self.chunked_ops(ops, chunk_len)
    }

    /// Stream the record sequence of the listed operators only, in
    /// list order — exactly the concatenation of
    /// [`MlabGenerator::generate_for`] per operator — delivered in
    /// chunks of at most `chunk_len` records. Shares the shard plan
    /// (and therefore the byte-identical output guarantee) of
    /// [`MlabGenerator::generate_chunks`].
    pub fn generate_chunks_for<'a>(
        &'a self,
        ops: &[Operator],
        chunk_len: usize,
    ) -> impl RecordChunks<Item = NdtRecord> + 'a {
        self.chunked_ops(ops.to_vec(), chunk_len)
    }

    /// The shared chunked-generation plan: one shard list concatenating
    /// the per-operator shard plans, evaluated in deterministic waves.
    fn chunked_ops(
        &self,
        ops: Vec<Operator>,
        chunk_len: usize,
    ) -> impl RecordChunks<Item = NdtRecord> + '_ {
        // One entry per requested operator, in list order; the global
        // shard list concatenates their shard plans.
        struct OpPlan {
            op: Operator,
            table: Vec<(Asn, PrefixSpec)>,
            weights: Vec<f64>,
            rng: Rng,
            ranges: Vec<std::ops::Range<usize>>,
        }
        let mut plans: Vec<OpPlan> = Vec::new();
        let mut shard_index: Vec<(usize, usize)> = Vec::new();
        for op in ops {
            let n = self.config.scaled_sessions(profile_of(op).mlab_tests) as usize;
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
                self.session_batch(
                    plan.op,
                    &plan.table,
                    &plan.weights,
                    plan.ranges[shard].len(),
                    &mut rng,
                )
                .into_iter()
                .map(|(rec, _)| rec)
                .collect()
            },
        )
    }

    /// The per-operator generation inputs shared by the materialized
    /// and chunked paths: the flattened weighted prefix table and the
    /// operator's RNG substream root.
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
            .substream_named("mlab")
            .substream(op.index() as u64);
        (table, weights, rng)
    }

    /// Generate up to `count` sessions for one shard, drawing from the
    /// shard's own `rng`. A rejection budget of `4 × count` bounds the
    /// work when an operator's coverage is sparse, exactly as the old
    /// whole-operator loop did per session on average.
    fn session_batch(
        &self,
        op: Operator,
        table: &[(Asn, PrefixSpec)],
        weights: &[f64],
        count: usize,
        rng: &mut Rng,
    ) -> Vec<(NdtRecord, SessionTruth)> {
        let profile = profile_of(op);
        let start_day = self.config.mlab_start.to_day();
        let end_day = self.config.mlab_end.to_day();
        let span_days = (end_day - start_day) as u64;

        let mut out = Vec::with_capacity(count);
        let mut attempts = 0usize;
        while out.len() < count && attempts < count * 4 {
            attempts += 1;
            let (asn, spec) = table[rng.choose_weighted(weights)];
            let day = UtcDay(start_day.0 + rng.below(span_days) as u32);
            let sec_of_day = rng.below(SECS_PER_DAY);
            let timestamp = Timestamp::from_day(day) + sec_of_day;

            // Ground-truth link kind; pure prefixes can still carry
            // occasional terrestrial outliers (VPNs, misattribution).
            let kind = if spec.outlier_fraction > 0.0 && rng.chance(spec.outlier_fraction) {
                LinkKind::Terrestrial
            } else {
                spec.kind
            };

            let client = scatter(spec.home, spec.scatter_km, rng);
            let Some(path) = ClientPath::for_session(op, kind, client, day, self.config.seed, rng)
            else {
                continue; // out of coverage; resample
            };

            let pep = if profile.uses_pep && matches!(kind, LinkKind::Satellite(OrbitClass::Geo)) {
                PepMode::typical()
            } else {
                PepMode::None
            };
            let flow = TcpFlow::new(TcpConfig {
                pep,
                ..TcpConfig::ndt()
            });
            // Orbital time: seconds since corpus start, so satellites are
            // in distinct positions across sessions.
            let orbital_t = (u64::from(day.0) * SECS_PER_DAY + sec_of_day) as f64;
            let stats = flow.run(&path, orbital_t, rng);

            let (Some(latency_p5), Some(jitter_p95)) = stats.rtt_summary() else {
                continue; // total outage; M-Lab would record nothing
            };
            // A limited host pool per prefix makes repeat tests from the
            // same address common; hybrid prefixes are small residential
            // pools, so single IPs accumulate enough history for the
            // Figure 3b inset.
            let pool: u64 = match spec.kind {
                LinkKind::HybridBackup(_) => 5,
                _ => 48,
            };
            let host = 1 + rng.below(pool) as u8;
            out.push((
                NdtRecord {
                    timestamp,
                    client: spec.prefix.addr(host),
                    asn,
                    latency_p5,
                    jitter_p95,
                    retrans_fraction: stats.retrans_fraction(),
                    download: stats.mean_throughput(),
                },
                SessionTruth { operator: op, kind },
            ));
        }
        out
    }
}

/// Convenience: all records of a fresh default corpus (used by examples).
pub fn default_corpus() -> MlabCorpus {
    MlabGenerator::new(SynthConfig::default_corpus()).generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sno_stats::median;

    fn test_gen() -> MlabGenerator {
        MlabGenerator::new(SynthConfig::test_corpus())
    }

    #[test]
    fn starlink_records_look_leo() {
        let recs = test_gen().generate_for(Operator::Starlink);
        assert!(recs.len() > 1_000, "got {}", recs.len());
        let lat: Vec<f64> = recs.iter().map(|r| r.latency_p5.0).collect();
        let med = median(&lat).unwrap();
        assert!((40.0..80.0).contains(&med), "median {med}");
        // Mostly AS14593, with some corporate AS27277.
        assert!(recs.iter().any(|r| r.asn == Asn(14593)));
        assert!(recs.iter().any(|r| r.asn == Asn(27277)));
    }

    #[test]
    fn corporate_asn_is_fast() {
        let recs = test_gen().generate_for(Operator::Starlink);
        let corp: Vec<f64> = recs
            .iter()
            .filter(|r| r.asn == Asn(27277))
            .map(|r| r.latency_p5.0)
            .collect();
        assert!(!corp.is_empty());
        let med = median(&corp).unwrap();
        assert!(med < 45.0, "corporate median {med}");
    }

    #[test]
    fn geo_operator_latency_band() {
        let recs = test_gen().generate_for(Operator::Viasat);
        let sat: Vec<f64> = recs
            .iter()
            .map(|r| r.latency_p5.0)
            .filter(|&l| l > 400.0)
            .collect();
        let med = median(&sat).unwrap();
        assert!((540.0..800.0).contains(&med), "median {med}");
    }

    #[test]
    fn viasat_hybrid_prefixes_mix_latencies() {
        let recs = test_gen().generate_for(Operator::Viasat);
        let hybrid: Vec<&NdtRecord> = recs
            .iter()
            .filter(|r| {
                let p = r.client.prefix24();
                [115u8, 116, 117]
                    .iter()
                    .any(|&c| p == sno_types::Prefix24::new(45, 232, c))
            })
            .collect();
        assert!(hybrid.len() >= 5, "only {} hybrid records", hybrid.len());
        let nonsat = hybrid.iter().filter(|r| r.latency_p5.0 < 300.0).count();
        let slow = hybrid.iter().filter(|r| r.latency_p5.0 > 450.0).count();
        assert!(nonsat > 0, "no terrestrial/DSL cluster");
        assert!(slow > 0, "no satellite cluster");
    }

    #[test]
    fn meo_sits_between_leo_and_geo() {
        let gen = test_gen();
        let med_of = |op: Operator| {
            let recs = gen.generate_for(op);
            let lat: Vec<f64> = recs.iter().map(|r| r.latency_p5.0).collect();
            median(&lat).unwrap()
        };
        let leo = med_of(Operator::Starlink);
        let meo = med_of(Operator::O3b);
        let geo = med_of(Operator::Kvh);
        assert!(leo < meo, "leo {leo} meo {meo}");
        assert!(meo < geo, "meo {meo} geo {geo}");
        assert!((200.0..400.0).contains(&meo), "meo {meo}");
    }

    #[test]
    fn pep_operators_retransmit_less_than_bare_geo() {
        let gen = test_gen();
        let retrans_median = |op: Operator| {
            let recs = gen.generate_for(op);
            let r: Vec<f64> = recs
                .iter()
                .filter(|r| r.latency_p5.0 > 400.0) // satellite sessions only
                .map(|r| r.retrans_fraction)
                .collect();
            median(&r).unwrap()
        };
        let viasat = retrans_median(Operator::Viasat); // PEP
        let kvh = retrans_median(Operator::Kvh); // no PEP
        assert!(viasat < kvh / 2.0, "viasat {viasat} vs kvh {kvh}");
    }

    #[test]
    fn scaled_volumes_respect_table1_order() {
        let gen = test_gen();
        let starlink = gen.generate_for(Operator::Starlink).len();
        let viasat = gen.generate_for(Operator::Viasat).len();
        let kacific = gen.generate_for(Operator::Kacific).len();
        assert!(starlink > viasat);
        assert!(viasat > kacific);
        assert!(kacific >= 25, "kacific floored near its 34 tests");
    }

    #[test]
    fn deterministic_generation() {
        let a = test_gen().generate_for(Operator::Oneweb);
        let b = test_gen().generate_for(Operator::Oneweb);
        assert_eq!(a, b);
    }

    #[test]
    fn chunked_generation_matches_materialized() {
        let cfg = SynthConfig {
            scale: 5e-5,
            min_sessions: 40,
            ..SynthConfig::test_corpus()
        };
        let serial = MlabGenerator::new(cfg.clone()).generate().records;
        assert!(!serial.is_empty());
        for chunk_len in [1usize, 137, serial.len()] {
            for threads in [1usize, 2] {
                let gen = MlabGenerator::new(SynthConfig {
                    threads,
                    ..cfg.clone()
                });
                let got = gen.generate_chunks(chunk_len).collect_records();
                assert_eq!(got, serial, "chunk_len {chunk_len} threads {threads}");
            }
        }
    }

    #[test]
    fn chunked_generation_for_ops_matches_concatenated_generate_for() {
        let cfg = SynthConfig {
            scale: 5e-5,
            min_sessions: 40,
            ..SynthConfig::test_corpus()
        };
        let ops = [Operator::Starlink, Operator::Viasat, Operator::O3b];
        let serial: Vec<NdtRecord> = {
            let gen = MlabGenerator::new(cfg.clone());
            ops.iter().flat_map(|&op| gen.generate_for(op)).collect()
        };
        assert!(!serial.is_empty());
        for chunk_len in [1usize, 137, serial.len()] {
            for threads in [1usize, 2, 8] {
                let gen = MlabGenerator::new(SynthConfig {
                    threads,
                    ..cfg.clone()
                });
                let got = gen.generate_chunks_for(&ops, chunk_len).collect_records();
                assert_eq!(got, serial, "chunk_len {chunk_len} threads {threads}");
            }
        }
    }

    #[test]
    fn chunked_generation_is_restreamable() {
        let cfg = SynthConfig {
            scale: 5e-5,
            min_sessions: 40,
            ..SynthConfig::test_corpus()
        };
        let gen = MlabGenerator::new(cfg);
        let first = gen.generate_chunks(256).collect_records();
        let second = gen.generate_chunks(256).collect_records();
        assert_eq!(first, second);
    }

    #[test]
    fn truth_aligns_with_records() {
        let (corpus, truth) = test_gen().generate_with_truth();
        assert_eq!(corpus.records.len(), truth.len());
        // Every Starlink-truth record carries a Starlink ASN.
        for (rec, t) in corpus.records.iter().zip(&truth) {
            if t.operator == Operator::Starlink {
                assert!(rec.asn == Asn(14593) || rec.asn == Asn(27277));
            }
        }
    }
}
