//! The oracle cache's code invariant: every cache key covers the
//! sources of every crate that can change oracle bytes.
//!
//! `compstat_core::sources::TABLE` compiles those sources in, and
//! `CacheKey::digest` folds their digest into every content address.
//! These tests pin the three links of that chain: the table lists every
//! source file, an edit to any listed file moves the keys of every
//! oracle sweep, and the address a key actually uses is the digest of
//! the sources this process was built from.

use compstat_bigfloat::Context;
use compstat_core::cache::CacheKey;
use compstat_core::sources::{self, digest_table, HASHED_CRATES, TABLE};
use compstat_hmm::{forward_oracle_cache_key, DirichletSweep, Hmm};
use compstat_pbd::{oracle_cache_key, Column};
use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively, as a path from the
/// workspace root with `/` separators.
fn rust_sources(dir: &Path, out: &mut Vec<String>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path: PathBuf = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(workspace_root()).expect("under the root");
            let parts: Vec<_> = rel.iter().map(|p| p.to_string_lossy()).collect();
            out.push(parts.join("/"));
        }
    }
}

/// The keys of the three oracle sweep families: the PBD corpus
/// p-values, a batch of forward passes over one model, and the
/// Dirichlet-model sweep behind fig10 and hdr.
fn oracle_keys() -> [CacheKey; 3] {
    let ctx = Context::new(256);
    let columns = vec![
        Column::new(vec![0.25, 0.125, 0.5], 2),
        Column::new(vec![0.4; 5], 1),
    ];
    let model = Hmm::new(
        2,
        2,
        vec![0.7, 0.3, 0.3, 0.7],
        vec![0.9, 0.1, 0.2, 0.8],
        vec![0.5, 0.5],
    );
    let sequences = vec![vec![0, 1, 1, 0], vec![1, 1]];
    let sweep = DirichletSweep {
        experiment: "fig10",
        t_len: 1_500,
        models: 4,
        states: 4,
        symbols: 16,
        alpha: 0.8,
        seed: 7,
    };
    [
        oracle_cache_key("test", "quick", 7, &columns, &ctx),
        forward_oracle_cache_key("test", "quick", 7, &model, &sequences, &ctx),
        sweep.cache_key(&ctx),
    ]
}

#[test]
fn every_source_file_of_the_hashed_crates_is_in_the_table() {
    let listed: Vec<&str> = TABLE.iter().map(|(path, _)| *path).collect();
    let mut sorted = listed.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(listed, sorted, "the table must be sorted, without repeats");

    let mut on_disk = Vec::new();
    for krate in HASHED_CRATES {
        rust_sources(&workspace_root().join(krate).join("src"), &mut on_disk);
    }
    let missing: Vec<&String> = on_disk
        .iter()
        .filter(|path| !listed.contains(&path.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "source files missing from compstat_core::sources::TABLE: {missing:?}"
    );
    for path in &listed {
        assert!(
            HASHED_CRATES
                .iter()
                .any(|krate| path.starts_with(&format!("{krate}/src/"))),
            "{path} is not under a hashed crate's src/"
        );
    }
}

#[test]
fn one_changed_source_byte_moves_every_oracle_key() {
    let original = digest_table(&TABLE);
    let keys = oracle_keys();
    for (i, (path, bytes)) in TABLE.iter().enumerate() {
        let mut edited: Vec<(&str, Vec<u8>)> =
            TABLE.iter().map(|(p, b)| (*p, b.to_vec())).collect();
        let mut changed = bytes.to_vec();
        let mid = changed.len() / 2;
        changed[mid] ^= 0x01;
        edited[i].1 = changed;
        let moved = digest_table(&edited);
        assert_ne!(
            moved, original,
            "a byte of {path} does not reach the digest"
        );
        if *path == "crates/hmm/src/forward.rs" {
            for key in &keys {
                assert_ne!(
                    key.digest_with(&moved),
                    key.digest_with(&original),
                    "an edit to {path} leaves {} unchanged",
                    key.describe()
                );
            }
        }
    }
}

#[test]
fn key_digests_use_the_digest_of_this_build_sources() {
    assert_eq!(sources::digest(), &digest_table(&TABLE));
    for key in oracle_keys() {
        assert_eq!(key.digest(), key.digest_with(sources::digest()));
        assert_ne!(key.digest(), key.digest_with(&[0; 32]));
    }
}
