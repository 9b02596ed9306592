//! Stage 4: the end-to-end pipeline and the SNO catalog (Table 1).

use crate::accept::AcceptTable;
use crate::asn_map::AsnMapping;
use crate::prefix_filter::{
    collect_strict, outlier_set, relaxed_thresholds, strict_eval_bucket, BucketOutcome,
    PrefixEntry, StrictOutcome,
};
use crate::stream::{CorpusStats, StreamOptions, REPLAY_CHUNK_LEN};
use crate::validate::{profile_one, AsnProfile, LatencyBands};
use sno_types::chunk::slice_chunks;
use sno_types::records::NdtRecord;
use sno_types::{par, Asn, Operator, Prefix24};
use std::collections::{BTreeMap, BTreeSet};

/// The configured pipeline.
///
/// ```no_run
/// use sno_core::pipeline::Pipeline;
/// use sno_synth::{MlabGenerator, SynthConfig};
/// let corpus = MlabGenerator::new(SynthConfig::default_corpus()).generate();
/// let report = Pipeline::new().run(&corpus.records);
/// assert_eq!(report.sno_count(), 18); // the paper's Table 1
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    /// Latency bands for the band-mass validation stage.
    pub bands: LatencyBands,
    /// Worker threads for the sharded stages (`0` = all cores). The
    /// report is byte-identical at every setting; see `sno_types::par`.
    pub threads: usize,
}

/// Everything the pipeline produced.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Stage 1–2 output.
    pub mapping: AsnMapping,
    /// Stage 3 output: per-ASN band-mass profiles and verdicts.
    pub profiles: Vec<AsnProfile>,
    /// Stage 3b output.
    pub strict: StrictOutcome,
    /// Stage 3c: per-operator relaxed thresholds.
    pub thresholds: BTreeMap<Operator, f64>,
    /// Stage 3c: the default threshold for uncovered operators.
    pub default_threshold: f64,
    /// Per input record: the operator the record was attributed to, or
    /// `None` if rejected. Indexes match the input slice.
    pub accepted: Vec<Option<Operator>>,
    /// Stage 4: the catalog — operators with accepted tests, by volume
    /// descending (Table 1).
    pub catalog: Vec<(Operator, u64)>,
}

impl PipelineReport {
    /// Indices of the records attributed to `op`.
    ///
    /// One full scan per call — callers that need several operators
    /// should use [`PipelineReport::accepted_by_operator`] instead.
    pub fn accepted_indices(&self, op: Operator) -> Vec<usize> {
        self.accepted
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == Some(op)).then_some(i))
            .collect()
    }

    /// Per-operator accepted-record indices, grouped in one pass over
    /// the acceptance vector (each list ascending).
    pub fn accepted_by_operator(&self) -> BTreeMap<Operator, Vec<usize>> {
        let mut by_op: BTreeMap<Operator, Vec<usize>> = BTreeMap::new();
        for (i, acc) in self.accepted.iter().enumerate() {
            if let Some(op) = acc {
                by_op.entry(*op).or_default().push(i);
            }
        }
        by_op
    }

    /// Number of operators in the catalog.
    pub fn sno_count(&self) -> usize {
        self.catalog.len()
    }
}

/// The stage 3–3c outputs plus the per-ASN accept table they determine.
#[derive(Debug, Clone)]
pub(crate) struct DerivedStages {
    pub profiles: Vec<AsnProfile>,
    pub strict: StrictOutcome,
    pub thresholds: BTreeMap<Operator, f64>,
    pub default_threshold: f64,
    pub table: AcceptTable,
}

/// The stage 3–3c derivation: the only one in the crate.
///
/// A fresh cache (`StageCache::default()`) evaluates every ASN profile
/// and every strict prefix bucket: that is the batch derivation
/// [`Pipeline::run_streamed`] runs between its passes. The online
/// identifier keeps one cache across snapshots, where re-evaluating
/// every bucket would be the O(corpus) cost it is built to avoid. The
/// cache exploits that both stages decompose into pure per-bucket
/// evaluations over *append-only* buckets:
///
/// - a per-ASN profile depends only on that ASN's latency bucket, so an
///   unchanged sample count means an unchanged profile;
/// - a strict `/24` outcome depends only on that bucket's samples and
///   the outlier-ASN set, so it is keyed on `(sample count, outlier
///   revision)`;
/// - relaxed thresholds and the accept table are cheap folds over the
///   above and are recomputed every call.
///
/// The whole derivation is additionally memoized on the caller's
/// statistics revision, making snapshots of an unchanged corpus O(1).
/// A warm cache returns exactly what a fresh one would — same bucket
/// order, same per-bucket evaluation — pinned by the test below
/// against the public stage functions.
#[derive(Debug, Clone, Default)]
pub(crate) struct StageCache {
    /// Statistics revision the cached `stages` were derived at.
    rev: Option<u64>,
    stages: Option<DerivedStages>,
    /// `(operator, asn)` → (bucket length at profile time, profile).
    profile_memo: BTreeMap<(Operator, Asn), (usize, AsnProfile)>,
    /// `(operator, /24)` → (bucket length, outlier revision, outcome).
    strict_memo: BTreeMap<(Operator, Prefix24), (usize, u64, BucketOutcome)>,
    /// Bumped whenever the outlier-ASN set shifts (invalidates every
    /// strict-bucket memo entry at once).
    outlier_rev: u64,
    outliers: BTreeSet<Asn>,
}

impl StageCache {
    /// Stages 3–3c over `stats`, reusing every per-bucket result whose
    /// inputs did not change since the previous call. `rev` is the
    /// caller's statistics revision (bump it on every mutation).
    pub(crate) fn derive(
        &mut self,
        pipeline: &Pipeline,
        mapping: &AsnMapping,
        stats: &CorpusStats,
        rev: u64,
    ) -> DerivedStages {
        if self.rev == Some(rev) {
            if let Some(stages) = &self.stages {
                return stages.clone();
            }
        }

        // Stage 3: per-(operator, ASN) profiles. Buckets only append,
        // so an unchanged sample count implies an unchanged bucket, and
        // profile_one is a pure function of the bucket.
        let pairs: Vec<(Operator, Asn)> = mapping
            .mapping
            .iter()
            .flat_map(|(&op, asns)| asns.iter().map(move |&asn| (op, asn)))
            .collect();
        let bucket_len = |asn: Asn| stats.by_asn.get(&asn).map_or(0, Vec::len);
        let mut profiles: Vec<Option<AsnProfile>> = pairs
            .iter()
            .map(|&(op, asn)| {
                self.profile_memo
                    .get(&(op, asn))
                    .and_then(|(len, p)| (*len == bucket_len(asn)).then(|| p.clone()))
            })
            .collect();
        let missing: Vec<usize> = profiles
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_none().then_some(i))
            .collect();
        let fresh = par::shard_map(missing.len(), pipeline.threads, |k| {
            let (op, asn) = pairs[missing[k]];
            let latencies = stats.by_asn.get(&asn).map(Vec::as_slice).unwrap_or(&[]);
            profile_one(op, asn, latencies, pipeline.bands)
        });
        for (profile, &i) in fresh.into_iter().zip(&missing) {
            let (op, asn) = pairs[i];
            self.profile_memo
                .insert((op, asn), (bucket_len(asn), profile.clone()));
            profiles[i] = Some(profile);
        }
        let profiles: Vec<AsnProfile> = profiles.into_iter().flatten().collect();
        let verdict_of: BTreeMap<_, _> = profiles
            .iter()
            .map(|p| (p.asn, p.verdict.clone()))
            .collect();

        // Stage 3b: strict prefix filter, memoized per bucket. An
        // outcome can change only when its bucket grows or the outlier
        // set shifts.
        let outliers = outlier_set(&profiles);
        if outliers != self.outliers {
            self.outlier_rev += 1;
            self.outliers = outliers.clone();
        }
        let entries: Vec<PrefixEntry> = stats.by_prefix.iter().collect();
        let mut outcomes: Vec<Option<BucketOutcome>> = entries
            .iter()
            .map(|(key, samples)| {
                self.strict_memo.get(key).and_then(|(len, orev, out)| {
                    (*len == samples.len() && *orev == self.outlier_rev).then(|| out.clone())
                })
            })
            .collect();
        let missing: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.is_none().then_some(i))
            .collect();
        let fresh = par::shard_map(missing.len(), pipeline.threads, |k| {
            let (&(op, prefix), samples) = entries[missing[k]];
            strict_eval_bucket(op, prefix, samples, &outliers)
        });
        for (outcome, &i) in fresh.into_iter().zip(&missing) {
            let (&key, samples) = entries[i];
            self.strict_memo
                .insert(key, (samples.len(), self.outlier_rev, outcome.clone()));
            outcomes[i] = Some(outcome);
        }
        let outcomes: Vec<BucketOutcome> = outcomes.into_iter().flatten().collect();
        let strict = collect_strict(&outcomes);

        // Stage 3c + accept table: cheap folds, recomputed every call.
        let (thresholds, default_threshold) = relaxed_thresholds(&strict);
        let table = AcceptTable::build(mapping, &verdict_of, &thresholds, default_threshold);
        let stages = DerivedStages {
            profiles,
            strict,
            thresholds,
            default_threshold,
            table,
        };
        self.rev = Some(rev);
        self.stages = Some(stages.clone());
        stages
    }
}

impl Pipeline {
    /// A pipeline with the default latency bands.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// A pipeline with an explicit worker-thread count (`0` = all
    /// cores).
    pub fn with_threads(threads: usize) -> Pipeline {
        Pipeline {
            threads,
            ..Pipeline::default()
        }
    }

    /// Run all stages over a materialized NDT corpus: the streamed
    /// engine over the slice with dense acceptance, so the report is
    /// byte-identical to [`Pipeline::run_streamed`] over the same
    /// records.
    // sno-lint: allow(panic-reachable): identification is total over validated batches; remaining reachable sites are leaf-justified length invariants in the columnar hot path
    pub fn run(&self, records: &[NdtRecord]) -> PipelineReport {
        let report = self.run_streamed(
            || slice_chunks(records, REPLAY_CHUNK_LEN),
            StreamOptions {
                dense_acceptance: true,
                ..StreamOptions::default()
            },
        );
        PipelineReport {
            mapping: report.mapping,
            profiles: report.profiles,
            strict: report.strict,
            thresholds: report.thresholds,
            default_threshold: report.default_threshold,
            accepted: report.accepted.unwrap_or_default(),
            catalog: report.catalog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sno_synth::mlab::SessionTruth;
    use sno_synth::{MlabCorpus, MlabGenerator, SynthConfig};
    use sno_types::{Asn, LinkKind};
    use std::sync::OnceLock;

    fn fixture() -> &'static (MlabCorpus, Vec<SessionTruth>, PipelineReport) {
        static FIXTURE: OnceLock<(MlabCorpus, Vec<SessionTruth>, PipelineReport)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let (corpus, truth) =
                MlabGenerator::new(SynthConfig::test_corpus()).generate_with_truth();
            let report = Pipeline::new().run(&corpus.records);
            (corpus, truth, report)
        })
    }

    #[test]
    fn catalog_has_the_papers_18_snos() {
        let (.., report) = fixture();
        assert_eq!(report.sno_count(), 18, "catalog: {:?}", report.catalog);
    }

    #[test]
    fn starlink_tops_the_catalog() {
        let (.., report) = fixture();
        assert_eq!(report.catalog[0].0, Operator::Starlink);
        // The other volume-floored operators cluster behind it; O3b must
        // stay in that leading pack with nearly all its records kept.
        let o3b_rank = report
            .catalog
            .iter()
            .position(|&(op, _)| op == Operator::O3b)
            .unwrap();
        assert!(o3b_rank <= 6, "O3b rank {o3b_rank}: {:?}", report.catalog);
        let (_, o3b_count) = report.catalog[o3b_rank];
        assert!(o3b_count > 250, "O3b kept only {o3b_count}");
    }

    #[test]
    fn corporate_asn_records_all_rejected() {
        let (corpus, _, report) = fixture();
        for (rec, acc) in corpus.records.iter().zip(&report.accepted) {
            if rec.asn == Asn(27277) {
                assert_eq!(*acc, None, "corporate record accepted: {rec:?}");
            }
        }
    }

    #[test]
    fn terrestrial_truth_records_mostly_rejected() {
        let (corpus, truth, report) = fixture();
        let mut wrong = 0usize;
        let mut total = 0usize;
        for ((rec, t), acc) in corpus.records.iter().zip(truth).zip(&report.accepted) {
            if t.kind == LinkKind::Terrestrial {
                total += 1;
                if acc.is_some() {
                    wrong += 1;
                    let _ = rec;
                }
            }
        }
        assert!(total > 50, "fixture should contain terrestrial lines");
        let fpr = wrong as f64 / total as f64;
        assert!(fpr < 0.05, "terrestrial false-accept rate {fpr}");
    }

    #[test]
    fn satellite_truth_records_mostly_accepted() {
        let (corpus, truth, report) = fixture();
        let mut missed = 0usize;
        let mut total = 0usize;
        for ((rec, t), acc) in corpus.records.iter().zip(truth).zip(&report.accepted) {
            if matches!(t.kind, LinkKind::Satellite(_)) && rec.asn != Asn(201554) {
                total += 1;
                if acc.is_none() {
                    missed += 1;
                }
            }
        }
        let fnr = missed as f64 / total as f64;
        assert!(fnr < 0.08, "satellite miss rate {fnr} over {total}");
    }

    #[test]
    fn accepted_operator_matches_truth_operator() {
        let (corpus, truth, report) = fixture();
        for ((rec, t), acc) in corpus.records.iter().zip(truth).zip(&report.accepted) {
            if let Some(op) = acc {
                assert_eq!(*op, t.operator, "record {rec:?} misattributed");
            }
        }
    }

    #[test]
    fn catalog_volumes_track_table1_ordering_at_the_top() {
        let (.., report) = fixture();
        let pos = |op: Operator| {
            report
                .catalog
                .iter()
                .position(|&(o, _)| o == op)
                .unwrap_or(usize::MAX)
        };
        assert!(pos(Operator::Starlink) < pos(Operator::Viasat));
        assert!(pos(Operator::O3b) < pos(Operator::Viasat));
        assert!(pos(Operator::Viasat) < pos(Operator::Kacific));
    }

    #[test]
    fn accepted_indices_helper() {
        let (corpus, _, report) = fixture();
        let idx = report.accepted_indices(Operator::Starlink);
        assert!(!idx.is_empty());
        for i in idx {
            assert_eq!(report.accepted[i], Some(Operator::Starlink));
            assert!(i < corpus.records.len());
        }
    }

    #[test]
    fn stage_cache_matches_fresh_derivation_at_every_step() {
        use crate::asn_map::map_asns;
        use crate::prefix_filter::strict_filter_from_buckets;
        use crate::validate::profiles_from_buckets;
        let corpus = MlabGenerator::new(SynthConfig {
            scale: 5e-5,
            min_sessions: 40,
            ..SynthConfig::test_corpus()
        })
        .generate();
        let mapping = map_asns();
        let pipeline = Pipeline::new();
        let mut cache = StageCache::default();
        let mut stats = CorpusStats::new();
        let mut rev = 0u64;
        let step = corpus.records.len() / 5 + 1;
        for chunk in corpus.records.chunks(step) {
            for rec in chunk {
                stats.observe(&mapping, rec);
            }
            rev += 1;
            let cached = cache.derive(&pipeline, &mapping, &stats, rev);
            // The reference: the public stage functions, composed.
            let profiles =
                profiles_from_buckets(&mapping, &stats.by_asn, pipeline.bands, pipeline.threads);
            let strict = strict_filter_from_buckets(&profiles, &stats.by_prefix, pipeline.threads);
            let (thresholds, default_threshold) = relaxed_thresholds(&strict);
            let verdict_of: BTreeMap<_, _> = profiles
                .iter()
                .map(|p| (p.asn, p.verdict.clone()))
                .collect();
            let table = AcceptTable::build(&mapping, &verdict_of, &thresholds, default_threshold);
            assert_eq!(cached.table, table);
            assert_eq!(cached.thresholds, thresholds);
            assert_eq!(
                cached.default_threshold.to_bits(),
                default_threshold.to_bits()
            );
            assert_eq!(format!("{:?}", cached.profiles), format!("{profiles:?}"));
            assert_eq!(format!("{:?}", cached.strict), format!("{strict:?}"));
            // Unchanged revision: the whole-derivation memo answers.
            let again = cache.derive(&pipeline, &mapping, &stats, rev);
            assert_eq!(again.table, cached.table);
            assert_eq!(
                format!("{:?}", again.strict),
                format!("{:?}", cached.strict)
            );
        }
    }

    #[test]
    fn grouped_indices_match_per_operator_scans() {
        let (.., report) = fixture();
        let grouped = report.accepted_by_operator();
        assert_eq!(grouped.len(), report.catalog.len());
        for &(op, count) in &report.catalog {
            assert_eq!(grouped[&op].len() as u64, count, "{op:?}");
            assert_eq!(grouped[&op], report.accepted_indices(op), "{op:?}");
        }
    }
}
