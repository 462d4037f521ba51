//! The distributed-run invariant, end to end: for any shard count N,
//! running the registry as N separate `--shard K/N` runs and merging
//! the outputs produces **byte-for-byte** the directory an unsharded
//! run writes — same report bytes, same canonical `index.json` — at
//! mixed thread counts.
//!
//! Everything here goes through the same library surfaces the CLI
//! uses: `registry_shard` for the selection, `Runtime::with_shard` for
//! the work-item partition inside the big oracle sweeps,
//! `write_report` and `write_index` for the report directories (the
//! writers `run --out` uses), `load_index` for the stamps, and
//! `merge_shard_dirs` for the fan-in.

use compstat_bench::registry::{registry, registry_shard};
use compstat_core::merge::{load_index, merge_shard_dirs, write_index, write_report, IndexEntry};
use compstat_core::Scale;
use compstat_runtime::{CacheMode, Runtime, Shard};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Every file in `dir` (flat — report dirs have no subdirectories),
/// name → bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        assert!(path.is_file(), "unexpected subdirectory {}", path.display());
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        out.insert(name, std::fs::read(&path).unwrap());
    }
    out
}

#[test]
fn merged_shard_runs_are_byte_identical_to_unsharded_for_many_n() {
    // One shared cache directory for the whole test, like a fleet
    // sharing a warm store: the unsharded pass populates it, so the
    // 11 sharded registry passes below serve their oracle sweeps from
    // monolithic cache hits instead of recomputing them (the sweeps'
    // bit-identity under sharding is proven separately, at the
    // runtime/pbd level and by the CLI's cold-cache e2e test).
    let root = std::env::temp_dir().join(format!("compstat-sharded-runs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::env::set_var("COMPSTAT_CACHE_DIR", root.join("oracle-cache"));

    let scale = Scale::Quick;
    let unsharded_dir = root.join("unsharded");
    let rt = Runtime::with_threads(4).with_cache_mode(CacheMode::ReadWrite);
    std::fs::create_dir_all(&unsharded_dir).unwrap();
    let entries: Vec<IndexEntry> = registry()
        .iter()
        .map(|e| write_report(&unsharded_dir, &e.run(&rt, scale)).unwrap())
        .collect();
    write_index(&unsharded_dir, scale.as_str(), None, &entries).unwrap();
    let want = dir_bytes(&unsharded_dir);
    assert_eq!(want.len(), registry().len() + 1, "17 reports + index.json");

    for n in [1usize, 2, 3, 5] {
        let mut shard_dirs: Vec<PathBuf> = Vec::new();
        for k in 1..=n {
            let shard = Shard::new(k, n).unwrap();
            // Mixed thread counts across shards: byte-identity must
            // not depend on any shard's parallelism.
            let rt = Runtime::with_threads(1 + (k + n) % 3)
                .with_cache_mode(CacheMode::ReadWrite)
                .with_shard(shard);
            let dir = root.join(format!("n{n}-shard-{k}"));
            std::fs::create_dir_all(&dir).unwrap();
            let mine: Vec<IndexEntry> = registry_shard(shard)
                .iter()
                .map(|e| write_report(&dir, &e.run(&rt, scale)).unwrap())
                .collect();
            write_index(&dir, scale.as_str(), Some(shard), &mine).unwrap();
            // The shard dir carries its stamp.
            let index = load_index(&dir).unwrap();
            assert_eq!(index.shard, Some(shard));
            assert_eq!(index.scale, "quick");
            shard_dirs.push(dir);
        }

        // Merge (in reversed argument order — it must not matter) and
        // compare every byte against the unsharded directory.
        shard_dirs.reverse();
        let merged = root.join(format!("n{n}-merged"));
        let summary = merge_shard_dirs(&shard_dirs, &merged).unwrap();
        assert_eq!(summary.shards, n);
        assert_eq!(summary.experiments, registry().len());
        let got = dir_bytes(&merged);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "N={n}: merged directory lists different files"
        );
        for (name, bytes) in &want {
            assert_eq!(
                got.get(name).unwrap(),
                bytes,
                "N={n}: {name} differs between merged and unsharded"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&root);
}
