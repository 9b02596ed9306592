//! Walk the identification methodology stage by stage (Figure 1),
//! narrating what each stage keeps, flags and rejects.
//!
//! ```sh
//! cargo run --release --example identify_snos
//! ```

use sno_dissect::core::prefix_filter::{relaxed_thresholds, strict_filter_from_buckets};
use sno_dissect::core::validate::{profiles_from_buckets, AsnVerdict, LatencyBands};
use sno_dissect::core::{asn_map, pipeline::Pipeline, CorpusStats};
use sno_dissect::synth::{MlabGenerator, SynthConfig};

fn main() {
    let corpus = MlabGenerator::new(SynthConfig::default_corpus()).generate();
    println!("corpus: {} NDT speed tests\n", corpus.records.len());

    // Stage 1-2: registry mapping + manual curation.
    let mapping = asn_map::map_asns();
    println!("== stage 1-2: ASN-to-SNO mapping ==");
    println!(
        "candidates (ASdb + HE search): {}",
        mapping.candidates.len()
    );
    println!(
        "curated: {} SNOs over {} ASNs; rejected lookalikes:",
        mapping.operator_count(),
        mapping.asn_count()
    );
    for (asn, why) in &mapping.rejected {
        println!("  {asn}: {why}");
    }

    // One pass buckets the latencies the next stages read: per ASN for
    // stage 3, per (operator, /24) for stage 3b.
    let stats = CorpusStats::collect(&mapping, &corpus.records, 0);

    // Stage 3: latency band masses against the advertised technology.
    println!("\n== stage 3: latency band-mass validation ==");
    let profiles = profiles_from_buckets(&mapping, &stats.by_asn, LatencyBands::default(), 0);
    for p in &profiles {
        match &p.verdict {
            AsnVerdict::Outlier(reason) => {
                println!("  {} / {}: OUTLIER — {reason}", p.operator.name(), p.asn)
            }
            AsnVerdict::MixedWithinAsn(foreign) => println!(
                "  {} / {}: mixed within ASN ({:.0}% foreign mass) — prefix stage needed",
                p.operator.name(),
                p.asn,
                foreign * 100.0
            ),
            _ => {}
        }
    }

    // Stage 3b: the strict per-/24 filter.
    println!("\n== stage 3b: strict prefix filter ==");
    let strict = strict_filter_from_buckets(&profiles, &stats.by_prefix, 0);
    println!(
        "retained {} /24s across {} SNOs (examined {}, thin {}, band-violations {})",
        strict.retained.len(),
        strict.covered().len(),
        strict.examined,
        strict.rejected_thin,
        strict.rejected_band
    );

    // Stage 3c: relax using the observed minima.
    let (thresholds, default) = relaxed_thresholds(&strict);
    println!("\n== stage 3c: relaxed thresholds ==");
    for (op, t) in &thresholds {
        println!("  {:<12} accept latency >= {t:.1} ms", op.name());
    }
    println!("  (others)     accept latency >= {default:.1} ms  [paper: 527 ms]");

    // Stage 4: the catalog.
    let report = Pipeline::new().run(&corpus.records);
    println!("\n== stage 4: the SNO catalog (Table 1) ==");
    for (op, n) in &report.catalog {
        println!("  {:<12} {n}", op.name());
    }
}
