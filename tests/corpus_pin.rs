//! Byte-level pins of the generated corpora.
//!
//! The synthetic generators are the spec of every reproduced table: a
//! speed-up in the orbit, path or TCP layers must not move a single
//! generated byte. These tests hash the SNOC encoding of the M-Lab
//! stream and the Debug rendering of the Atlas traceroute stream with
//! FNV-1a and compare against constants recorded from the reference
//! implementation. A mismatch means a generator changed its output:
//! either a float expression was reordered, an RNG draw was added,
//! dropped or moved, or the model itself changed (in which case the
//! constants are re-recorded deliberately, with the reason in CHANGES).

use sno_dissect::synth::{AtlasGenerator, MlabGenerator, SynthConfig};
use sno_dissect::types::chunk::RecordChunks;
use sno_dissect::types::codec::Encoder;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A corpus small enough for a debug build, still sharded and still
/// covering every operator and orbit class.
fn cfg(seed: u64) -> SynthConfig {
    SynthConfig {
        seed,
        scale: 2e-4,
        min_sessions: 40,
        ..SynthConfig::test_corpus()
    }
}

/// (record count, FNV-1a of the SNOC bytes) of the M-Lab stream.
fn mlab_pin(seed: u64) -> (usize, u64) {
    let gen = MlabGenerator::new(cfg(seed));
    let mut chunks = gen.generate_chunks(4096);
    let mut enc = Encoder::new();
    while let Some(chunk) = chunks.next_chunk() {
        enc.extend_records(&chunk);
    }
    let corpus = enc.finish();
    (corpus.len(), fnv1a(FNV_OFFSET, corpus.bytes()))
}

#[test]
fn mlab_snoc_bytes_are_pinned_seed_1() {
    assert_eq!(mlab_pin(1), (3_006, 13_951_237_999_196_251_839));
}

#[test]
fn mlab_snoc_bytes_are_pinned_seed_601() {
    assert_eq!(mlab_pin(601), (3_006, 7_765_023_709_053_822_191));
}

#[test]
fn atlas_traceroutes_are_pinned() {
    let gen = AtlasGenerator::new(cfg(3));
    let mut chunks = gen.traceroute_chunks(4096);
    let (mut count, mut hash) = (0usize, FNV_OFFSET);
    while let Some(chunk) = chunks.next_chunk() {
        for rec in &chunk {
            // Debug prints every f64 in its shortest round-trip form, so
            // equal text means equal bits.
            hash = fnv1a(hash, format!("{rec:?}\n").as_bytes());
        }
        count += chunk.len();
    }
    assert_eq!((count, hash), (8_040, 7_488_267_296_335_464_441));
}
