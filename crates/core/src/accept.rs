//! Precomputed per-ASN decision tables for the columnar accept and
//! statistics passes.
//!
//! The row path re-derives the same facts for every record: a linear
//! [`AsnMapping::operator_of`] scan, a verdict lookup, the registry's
//! access kind, and the operator threshold. All of those are functions
//! of the ASN alone — only the final latency comparison needs the
//! record. This module folds the per-ASN work into sorted lookup
//! tables built once per pipeline run, so the per-record cost drops to
//! a binary search over ~67 ASNs plus one comparison, with decisions
//! *identical* to the row-at-a-time reference `Pipeline::accept` that
//! the tests below keep as their oracle.

use crate::asn_map::AsnMapping;
use crate::prefix_filter::MEO_FLOOR_MS;
use crate::stream::{AcceptPass, StreamOptions};
use crate::validate::AsnVerdict;
use sno_types::{AccessKind, Asn, Operator, OrbitClass};
use std::collections::BTreeMap;

/// Sorted ASN→operator index: what [`AsnMapping::operator_of`] answers,
/// without the per-call linear scan. Ties (an ASN listed under two
/// operators) resolve to the first operator in mapping order, exactly
/// as the linear scan does.
#[derive(Debug, Clone)]
pub struct AsnOps {
    asns: Vec<Asn>,
    ops: Vec<Operator>,
    /// The operator for the *prefix-statistics* path: `None` for ASNs
    /// of LEO-including operators (identified at ASN granularity, so
    /// the strict prefix filter never sees them) as well as unmapped
    /// ASNs.
    prefix_ops: Vec<Option<Operator>>,
}

impl AsnOps {
    /// Build the index from a curated mapping.
    pub fn new(mapping: &AsnMapping) -> AsnOps {
        let mut pairs: Vec<(Asn, Operator)> = Vec::new();
        for (&op, asns) in &mapping.mapping {
            for &asn in asns {
                if !pairs.iter().any(|&(a, _)| a == asn) {
                    pairs.push((asn, op));
                }
            }
        }
        pairs.sort_by_key(|&(asn, _)| asn);
        let asns: Vec<Asn> = pairs.iter().map(|&(a, _)| a).collect();
        let ops: Vec<Operator> = pairs.iter().map(|&(_, op)| op).collect();
        let prefix_ops: Vec<Option<Operator>> = ops
            .iter()
            .map(|&op| {
                let access = sno_registry::sources::access_of(op);
                (!access.includes(OrbitClass::Leo)).then_some(op)
            })
            .collect();
        AsnOps {
            asns,
            ops,
            prefix_ops,
        }
    }

    /// The operator an ASN maps to (the indexed `operator_of`).
    pub fn get(&self, asn: Asn) -> Option<Operator> {
        let i = self.asns.binary_search(&asn).ok()?;
        Some(self.ops[i])
    }

    /// The operator an ASN contributes prefix statistics to: `None`
    /// for unmapped ASNs and LEO-including operators.
    pub fn prefix_op(&self, asn: Asn) -> Option<Operator> {
        let i = self.asns.binary_search(&asn).ok()?;
        self.prefix_ops[i]
    }
}

/// What to do with a record from one ASN, given only its latency.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AsnRule {
    /// Unconditionally rejected (stage-3 outlier verdict).
    Reject,
    /// Unconditionally attributed (LEO: identified at ASN level).
    Accept(Operator),
    /// Attributed when `latency > floor` (the MEO regime cut).
    AboveExclusive(Operator, f64),
    /// Attributed when `latency >= threshold` (the relaxed GEO filter).
    AtLeast(Operator, f64),
}

/// The per-ASN accept table: stage 4's decision logic with everything
/// but the latency comparison precomputed.
///
/// Equality compares every rule bit-for-bit (thresholds included) —
/// the incremental path uses it as the *epoch trigger*: as long as the
/// table derived from the updated statistics equals the one acceptance
/// state was built under, previously decided records would decide the
/// same way today, so the state stays valid and only new frames need
/// deciding.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptTable {
    asns: Vec<Asn>,
    rules: Vec<AsnRule>,
}

impl AcceptTable {
    /// Build the table from the stage 1–3c outputs. One entry per
    /// curated ASN, rules mirroring the row oracle `Pipeline::accept`
    /// (in the tests below) comparison for comparison (strict `>` for
    /// the MEO floor, `>=` for relaxed thresholds).
    pub fn build(
        mapping: &AsnMapping,
        verdicts: &BTreeMap<Asn, AsnVerdict>,
        thresholds: &BTreeMap<Operator, f64>,
        default_threshold: f64,
    ) -> AcceptTable {
        let index = AsnOps::new(mapping);
        let rules: Vec<AsnRule> = index
            .asns
            .iter()
            .zip(&index.ops)
            .map(|(&asn, &op)| {
                if matches!(verdicts.get(&asn), Some(AsnVerdict::Outlier(_))) {
                    return AsnRule::Reject;
                }
                match sno_registry::sources::access_of(op) {
                    AccessKind::Satellite(OrbitClass::Leo) => AsnRule::Accept(op),
                    AccessKind::Satellite(OrbitClass::Meo) => {
                        AsnRule::AboveExclusive(op, MEO_FLOOR_MS)
                    }
                    _ => {
                        let threshold = thresholds.get(&op).copied().unwrap_or(default_threshold);
                        AsnRule::AtLeast(op, threshold)
                    }
                }
            })
            .collect();
        AcceptTable {
            asns: index.asns,
            rules,
        }
    }

    /// Decide one record from its ASN and p5 latency (ms).
    pub fn decide(&self, asn: Asn, latency_ms: f64) -> Option<Operator> {
        let i = self.asns.binary_search(&asn).ok()?;
        match self.rules[i] {
            AsnRule::Reject => None,
            AsnRule::Accept(op) => Some(op),
            AsnRule::AboveExclusive(op, floor) => (latency_ms > floor).then_some(op),
            AsnRule::AtLeast(op, threshold) => (latency_ms >= threshold).then_some(op),
        }
    }
}

/// Persistent acceptance state for the incremental online path.
///
/// Pass 2 of the streamed pipeline decides every record against the
/// [`AcceptTable`] derived from pass-1 statistics; replaying it per
/// snapshot costs O(corpus). `AcceptState` keeps the pass-2 outputs
/// (per-operator counts, [`AcceptBitmap`], optional dense vector and
/// per-operator samples) *across* snapshots, together with the exact
/// table they were decided under, so a snapshot only has to:
///
/// 1. re-derive the table from the updated statistics;
/// 2. if it equals the stored table ([`AcceptState::compatible`]),
///    absorb just the frames appended since `decided` — O(delta);
/// 3. otherwise bump the epoch ([`AcceptState::reset`]) and re-decide
///    the whole stream — the *bounded re-replay*: compacted frames
///    replay from their retained `(asn)` slots plus the cumulative
///    per-ASN latency buckets ([`AcceptState::replay_compacted`]),
///    resident frames through the normal chunked accept pass.
///
/// Because every row decision goes through
/// [`AcceptPass::decide_into`] in stream order, the state after any
/// schedule of steps 2–3 is byte-identical to one serial accept pass
/// over the full stream — the invariant the online determinism suite
/// pins.
#[derive(Debug, Clone, Default)]
pub struct AcceptState {
    /// Bumps every time the table shifted and the stream was re-decided.
    epoch: u64,
    /// The table the current pass state was decided under; `None` until
    /// the first snapshot (or after an invalidating merge).
    table: Option<AcceptTable>,
    /// The accept-pass outputs accumulated so far.
    pass: Option<AcceptPass>,
    /// Pass options the state was built under (dense vector and
    /// per-operator samples are shape-changing, so a flip invalidates).
    opts: StreamOptions,
    /// Frames decided so far — a high-water index into the record
    /// stream (compacted frames included).
    decided: usize,
}

impl AcceptState {
    /// A state that has decided nothing (first snapshot re-derives).
    pub fn new() -> AcceptState {
        AcceptState::default()
    }

    /// How many times the accept table shifted under this state,
    /// forcing a full re-decide. Starts at 0; the first snapshot
    /// always counts one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Frames decided so far (high-water index into the stream).
    pub fn decided(&self) -> usize {
        self.decided
    }

    /// Can the current state absorb new frames under `table`, or must
    /// the stream be re-decided? True iff the freshly derived table
    /// equals the stored one and the pass shape (dense / latencies)
    /// matches.
    pub(crate) fn compatible(&self, table: &AcceptTable, opts: StreamOptions) -> bool {
        self.table.as_ref() == Some(table)
            && self.opts.dense_acceptance == opts.dense_acceptance
            && self.opts.operator_latencies == opts.operator_latencies
    }

    /// Start a new epoch under `table`: drop all decisions, keep the
    /// epoch counter monotone. The caller replays the stream from
    /// frame 0 afterwards.
    pub(crate) fn reset(&mut self, table: AcceptTable, opts: StreamOptions) {
        self.epoch += 1;
        self.pass = Some(AcceptPass::empty(opts));
        self.table = Some(table);
        self.opts = opts;
        self.decided = 0;
    }

    /// Forget the table (e.g. after a merge of differently-tabled
    /// shards): the next snapshot re-derives and re-decides.
    pub(crate) fn invalidate(&mut self) {
        self.table = None;
        self.pass = None;
        self.decided = 0;
    }

    /// Absorb an accept pass over `frames` stream frames appended after
    /// the `decided` high-water mark.
    pub(crate) fn absorb(&mut self, pass: AcceptPass, frames: usize) {
        match self.pass.as_mut() {
            Some(acc) => acc.absorb(pass),
            None => self.pass = Some(pass),
        }
        self.decided += frames;
    }

    /// Re-decide compacted frames from their retained ASN slots. The
    /// per-ASN latency buckets (`by_asn`) are cumulative and in record
    /// order, and the compacted slots are exactly the first
    /// `slots.len()` frames of the stream — so walking the slots with a
    /// per-ASN cursor replays the exact `(asn, latency)` sequence those
    /// frames carried, and `decide_into` rebuilds byte-identical pass
    /// state. Must run right after [`AcceptState::reset`], before any
    /// resident frames are absorbed.
    pub(crate) fn replay_compacted(&mut self, slots: &[u32], by_asn: &BTreeMap<Asn, Vec<f64>>) {
        let (Some(table), Some(pass)) = (self.table.as_ref(), self.pass.as_mut()) else {
            return;
        };
        debug_assert_eq!(self.decided, 0, "compacted frames replay first");
        let mut cursors: BTreeMap<Asn, usize> = BTreeMap::new();
        for &raw in slots {
            let asn = Asn(raw);
            let cursor = cursors.entry(asn).or_insert(0);
            // The bucket always covers the cursor by the compaction
            // invariant; NAN (which every rule rejects) keeps the walk
            // total if it ever does not.
            let lat = by_asn
                .get(&asn)
                .and_then(|lats| lats.get(*cursor))
                .copied()
                .unwrap_or(f64::NAN);
            debug_assert!(lat.is_finite(), "compacted slot past its ASN bucket");
            *cursor += 1;
            pass.decide_into(table, asn, lat);
        }
        self.decided = slots.len();
    }

    /// Merge a shard's state after this one (stream order: `self`'s
    /// frames precede `other`'s). Both shards must have been decided
    /// under the same table and pass shape, and both must be fully
    /// caught up with their streams — then concatenating the passes is
    /// exactly the serial pass over the concatenated stream. Returns
    /// `false` (and invalidates) when the tables differ, so the next
    /// snapshot re-derives from the merged statistics.
    pub(crate) fn merge(&mut self, other: AcceptState) -> bool {
        let same_table = match (&self.table, &other.table) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        };
        if !same_table
            || self.opts.dense_acceptance != other.opts.dense_acceptance
            || self.opts.operator_latencies != other.opts.operator_latencies
        {
            self.invalidate();
            return false;
        }
        if let (Some(acc), Some(part)) = (self.pass.as_mut(), other.pass) {
            acc.absorb(part);
        }
        self.decided += other.decided;
        self.epoch = self.epoch.max(other.epoch);
        true
    }

    /// The accumulated pass outputs (None until the first snapshot).
    pub(crate) fn pass(&self) -> Option<&AcceptPass> {
        self.pass.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn_map::map_asns;
    use crate::pipeline::Pipeline;
    use sno_types::records::NdtRecord;
    use sno_types::OrbitClass;

    impl Pipeline {
        /// Decide one record row-at-a-time: the reference implementation
        /// the per-ASN [`AcceptTable`] is checked against (the hot paths
        /// use the table).
        pub fn accept(
            &self,
            rec: &NdtRecord,
            mapping: &AsnMapping,
            verdicts: &BTreeMap<sno_types::Asn, AsnVerdict>,
            thresholds: &BTreeMap<Operator, f64>,
            default_threshold: f64,
        ) -> Option<Operator> {
            let op = mapping.operator_of(rec.asn)?;
            // ASNs whose latency profile contradicts the technology are out
            // wholesale (corporate networks, broken hybrids).
            if matches!(verdicts.get(&rec.asn), Some(AsnVerdict::Outlier(_))) {
                return None;
            }
            let access = sno_registry::sources::access_of(op);
            match access {
                // LEO operators are identified at ASN granularity; stage 3
                // already removed the bad ASNs.
                AccessKind::Satellite(OrbitClass::Leo) => Some(op),
                // The MEO operator likewise, with the regime floor as a
                // sanity cut.
                AccessKind::Satellite(OrbitClass::Meo) => {
                    (rec.latency_p5.0 > MEO_FLOOR_MS).then_some(op)
                }
                // GEO and hybrid operators go through the relaxed filter.
                _ => {
                    let threshold = thresholds.get(&op).copied().unwrap_or(default_threshold);
                    (rec.latency_p5.0 >= threshold).then_some(op)
                }
            }
        }
    }

    #[test]
    fn index_matches_linear_operator_of() {
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);
        // Every curated ASN, plus unmapped probes around them.
        for asns in mapping.mapping.values() {
            for &asn in asns {
                assert_eq!(index.get(asn), mapping.operator_of(asn), "{asn:?}");
                assert_eq!(
                    index.get(Asn(asn.0 + 1_000_000)),
                    mapping.operator_of(Asn(asn.0 + 1_000_000))
                );
            }
        }
        assert_eq!(index.get(Asn(398101)), None);
    }

    #[test]
    fn prefix_op_skips_leo_and_unmapped() {
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);
        for asns in mapping.mapping.values() {
            for &asn in asns {
                let op = mapping.operator_of(asn).expect("curated");
                let expect =
                    (!sno_registry::sources::access_of(op).includes(OrbitClass::Leo)).then_some(op);
                assert_eq!(index.prefix_op(asn), expect, "{asn:?}");
            }
        }
        assert_eq!(index.prefix_op(Asn(398101)), None);
    }

    #[test]
    fn table_decisions_match_row_accept_on_a_real_corpus() {
        let corpus = sno_synth::MlabGenerator::new(sno_synth::SynthConfig {
            scale: 5e-5,
            min_sessions: 40,
            ..sno_synth::SynthConfig::test_corpus()
        })
        .generate();
        let pipeline = Pipeline::new();
        let report = pipeline.run(&corpus.records);
        let verdict_of: BTreeMap<Asn, AsnVerdict> = report
            .profiles
            .iter()
            .map(|p| (p.asn, p.verdict.clone()))
            .collect();
        let table = AcceptTable::build(
            &report.mapping,
            &verdict_of,
            &report.thresholds,
            report.default_threshold,
        );
        for (rec, want) in corpus.records.iter().zip(&report.accepted) {
            let got = table.decide(rec.asn, rec.latency_p5.0);
            assert_eq!(got, *want, "{rec:?}");
            // And both agree with the row-at-a-time reference.
            let row = pipeline.accept(
                rec,
                &report.mapping,
                &verdict_of,
                &report.thresholds,
                report.default_threshold,
            );
            assert_eq!(got, row, "{rec:?}");
        }
    }

    #[test]
    fn latency_boundaries_follow_the_row_comparisons() {
        let mapping = map_asns();
        let verdicts = BTreeMap::new();
        let mut thresholds = BTreeMap::new();
        thresholds.insert(Operator::Viasat, 548.9);
        let table = AcceptTable::build(&mapping, &verdicts, &thresholds, 527.0);
        // Relaxed GEO thresholds are inclusive (>=).
        let viasat_asn = mapping.mapping[&Operator::Viasat][0];
        assert_eq!(table.decide(viasat_asn, 548.9), Some(Operator::Viasat));
        assert_eq!(table.decide(viasat_asn, 548.89), None);
        // The MEO floor is exclusive (>).
        let o3b_asn = mapping.mapping[&Operator::O3b][0];
        assert_eq!(table.decide(o3b_asn, MEO_FLOOR_MS), None);
        assert_eq!(
            table.decide(o3b_asn, MEO_FLOOR_MS + 0.001),
            Some(Operator::O3b)
        );
        // Unmapped ASNs never match.
        assert_eq!(table.decide(Asn(398101), 600.0), None);
    }
}
