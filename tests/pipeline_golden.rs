//! Golden output of the integration pipeline: the fingerprint of every
//! committed link and duplicate of the small datagen world, pinned per seed.
//!
//! Each link becomes one line, `from|to|kind|score|evidence`, with the score
//! printed in full precision (`{:?}` round-trips an `f64`) and the `evidence`
//! text verbatim. The lines are sorted and hashed with 64-bit FNV-1a, a `\n`
//! after each, so the fingerprint moves when any link or duplicate is gained,
//! lost, re-scored by one ulp or re-worded, and does not move when only the
//! order of the lists changes. A speed-up of a discovery step that claims
//! identical output must leave these values alone; a change that means to
//! alter the output re-pins them and says why.

use aladin::core::{Aladin, AladinConfig, Link};
use aladin::datagen::{Corpus, CorpusConfig};

/// 64-bit FNV-1a over the sorted lines, each followed by `\n`.
fn fingerprint(links: &[Link], duplicates: &[Link]) -> u64 {
    let mut lines: Vec<String> = links
        .iter()
        .chain(duplicates)
        .map(|l| {
            format!(
                "{:?}|{:?}|{:?}|{:?}|{}",
                l.from, l.to, l.kind, l.score, l.evidence
            )
        })
        .collect();
    lines.sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for line in &lines {
        for byte in line.bytes().chain(std::iter::once(b'\n')) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Integrate the small world of `seed` and return (fingerprint, links,
/// duplicates).
fn integrate_small(seed: u64, workers: usize) -> (String, usize, usize) {
    let corpus = Corpus::generate(&CorpusConfig::small(seed));
    let dbs = corpus.import_all().expect("corpus imports cleanly");
    let mut aladin = Aladin::new(AladinConfig::default().with_workers(workers));
    aladin.add_databases(dbs).expect("corpus integrates");
    let repo = aladin.metadata();
    (
        format!("{:016x}", fingerprint(repo.links(), repo.duplicates())),
        repo.links().len(),
        repo.duplicates().len(),
    )
}

#[test]
fn small_world_seed_3_output_is_pinned() {
    for workers in [0, 1] {
        assert_eq!(
            integrate_small(3, workers),
            ("bb555b949b0de9c7".to_string(), 1_542, 21),
            "workers = {workers}"
        );
    }
}

#[test]
fn small_world_seed_1009_output_is_pinned() {
    for workers in [0, 1] {
        assert_eq!(
            integrate_small(1009, workers),
            ("06f192226bc558ba".to_string(), 1_420, 19),
            "workers = {workers}"
        );
    }
}

#[test]
fn the_fingerprint_sees_score_bits_evidence_and_nothing_of_order() {
    let corpus = Corpus::generate(&CorpusConfig::small(3));
    let mut aladin = Aladin::new(AladinConfig::default());
    aladin
        .add_databases(corpus.import_all().expect("corpus imports cleanly"))
        .expect("corpus integrates");
    let repo = aladin.metadata();
    let (links, duplicates) = (repo.links().to_vec(), repo.duplicates().to_vec());
    let pinned = fingerprint(&links, &duplicates);

    let mut reversed = links.clone();
    reversed.reverse();
    assert_eq!(fingerprint(&reversed, &duplicates), pinned);

    let mut one_ulp = links.clone();
    one_ulp[0].score = f64::from_bits(one_ulp[0].score.to_bits() - 1);
    assert_ne!(fingerprint(&one_ulp, &duplicates), pinned);

    let mut reworded = duplicates.clone();
    reworded[0].evidence.push(' ');
    assert_ne!(fingerprint(&links, &reworded), pinned);
}
