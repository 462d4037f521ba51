//! Shard-stamped report indexes and the `compstat merge` fan-in.
//!
//! A distributed run fans the registry out over N machines with
//! `compstat run --shard K/N --out <dir>`: shard K owns every
//! experiment whose registry position `i` satisfies `i % N == K - 1`
//! (round-robin), runs those experiments *whole*, and writes a normal
//! report directory whose `index.json` carries a **shard stamp**
//! (`"shard": {"index": K, "count": N}`). Because reports are
//! deterministic, each shard's files are byte-for-byte the files an
//! unsharded run would have written.
//!
//! [`merge_shard_dirs`] is the fan-in: it validates that the input
//! directories form a complete, non-overlapping shard set (same N,
//! same scale, every shard 1..=N exactly once, per-shard counts
//! matching the round-robin profile), copies every report verbatim,
//! and re-emits the canonical **unstamped** `index.json` by
//! interleaving the shard indexes — canonical entry `j` comes from
//! shard `(j % N) + 1` at position `j / N`. The merged directory is
//! byte-identical (`diff -r`) to an unsharded `run --all` at the same
//! scale; CI enforces exactly that.

use crate::cache::write_atomic;
use crate::json::Json;
use crate::report::{Report, INDEX_SCHEMA};
use crate::scale::Scale;
use compstat_runtime::Shard;
use std::fmt;
use std::path::{Path, PathBuf};

/// An error raised while loading or merging shard report directories.
///
/// Mirrors [`DiffError`](crate::diff::DiffError): an optional file and
/// a message naming exactly what is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError {
    /// The file or directory involved, when the failure is tied to one.
    pub path: Option<PathBuf>,
    /// What went wrong.
    pub message: String,
}

impl MergeError {
    fn new(message: impl Into<String>) -> MergeError {
        MergeError {
            path: None,
            message: message.into(),
        }
    }

    fn at(path: impl Into<PathBuf>, message: impl Into<String>) -> MergeError {
        MergeError {
            path: Some(path.into()),
            message: message.into(),
        }
    }
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.path {
            Some(path) => write!(f, "{}: {}", path.display(), self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for MergeError {}

/// One experiment line of an `index.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// Registry name of the experiment (e.g. `fig09`).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// Report file name inside the directory (`<name>.json`).
    pub file: String,
    /// Number of report blocks.
    pub blocks: usize,
    /// Number of scalar metrics.
    pub metrics: usize,
}

impl IndexEntry {
    /// Builds the index line for a finished report.
    #[must_use]
    pub fn for_report(report: &Report) -> IndexEntry {
        IndexEntry {
            name: report.name.to_string(),
            title: report.title.to_string(),
            file: format!("{}.json", report.name),
            blocks: report.blocks.len(),
            metrics: report.metrics.len(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("title", Json::str(&self.title)),
            ("file", Json::str(&self.file)),
            ("blocks", Json::Num(self.blocks as f64)),
            ("metrics", Json::Num(self.metrics as f64)),
        ])
    }
}

/// Builds an `index.json` document: deterministic (no timestamps or
/// thread counts), so a serial and a parallel run emit identical
/// bytes. With `shard` set, a `"shard": {"index": K, "count": N}`
/// stamp is inserted between `scale` and `count`; an unstamped
/// document (`shard: None`) is exactly the unsharded layout, which is
/// why a merged index can byte-match an unsharded run's.
#[must_use]
pub fn index_doc(scale: &str, shard: Option<Shard>, entries: &[IndexEntry]) -> Json {
    let mut fields = vec![
        ("schema", Json::str(INDEX_SCHEMA)),
        ("scale", Json::str(scale)),
    ];
    if let Some(shard) = shard {
        fields.push((
            "shard",
            Json::obj(vec![
                ("index", Json::Num(shard.index() as f64)),
                ("count", Json::Num(shard.count() as f64)),
            ]),
        ));
    }
    fields.push(("count", Json::Num(entries.len() as f64)));
    fields.push((
        "experiments",
        Json::Arr(entries.iter().map(IndexEntry::to_json).collect()),
    ));
    Json::obj(fields)
}

/// [`index_doc`] over finished reports — what `compstat run --out`
/// writes.
#[must_use]
pub fn index_doc_for_reports(scale: Scale, shard: Option<Shard>, reports: &[Report]) -> Json {
    let entries: Vec<IndexEntry> = reports.iter().map(IndexEntry::for_report).collect();
    index_doc(scale.as_str(), shard, &entries)
}

/// A parsed report-directory index, shard stamp included.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardIndex {
    /// The directory the index was loaded from.
    pub dir: PathBuf,
    /// Canonical scale name (`quick` / `default` / `full`).
    pub scale: String,
    /// The shard stamp, if the directory was written by `run --shard`.
    pub shard: Option<Shard>,
    /// Experiment lines, in index order.
    pub entries: Vec<IndexEntry>,
}

/// A JSON number that is a whole, non-negative count
/// ([`Json::as_count`]).
fn whole_number(v: &Json) -> Option<usize> {
    v.as_count().map(|x| x as usize)
}

/// Loads and validates `<dir>/index.json`, including the shard stamp
/// if present.
///
/// # Errors
///
/// Fails on a missing/unparsable index, a wrong `schema`, a malformed
/// shard stamp, an entry missing a required field, or a `count` that
/// is not the number of entries.
pub fn load_shard_index(dir: &Path) -> Result<ShardIndex, MergeError> {
    let index_path = dir.join("index.json");
    let text = std::fs::read_to_string(&index_path)
        .map_err(|e| MergeError::at(&index_path, format!("cannot read index: {e}")))?;
    let doc = Json::parse(&text).map_err(|e| MergeError::at(&index_path, e.to_string()))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| MergeError::at(&index_path, "index missing schema field"))?;
    if schema != INDEX_SCHEMA {
        return Err(MergeError::at(
            &index_path,
            format!("expected schema {INDEX_SCHEMA:?}, found {schema:?}"),
        ));
    }
    let scale = doc
        .get("scale")
        .and_then(Json::as_str)
        .ok_or_else(|| MergeError::at(&index_path, "index missing scale field"))?
        .to_string();
    let shard =
        match doc.get("shard") {
            None => None,
            Some(stamp) => {
                let field = |name: &str| {
                    stamp.get(name).and_then(whole_number).ok_or_else(|| {
                        MergeError::at(&index_path, format!("shard stamp missing {name} field"))
                    })
                };
                let (index, count) = (field("index")?, field("count")?);
                Some(Shard::new(index, count).map_err(|e| {
                    MergeError::at(&index_path, format!("invalid shard stamp: {e}"))
                })?)
            }
        };
    let raw = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or_else(|| MergeError::at(&index_path, "index missing experiments array"))?;
    let mut entries = Vec::with_capacity(raw.len());
    for (i, item) in raw.iter().enumerate() {
        let text_field = |name: &str| {
            item.get(name)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| {
                    MergeError::at(&index_path, format!("experiment {i} missing {name} field"))
                })
        };
        let num_field = |name: &str| {
            item.get(name).and_then(whole_number).ok_or_else(|| {
                MergeError::at(&index_path, format!("experiment {i} missing {name} field"))
            })
        };
        entries.push(IndexEntry {
            name: text_field("name")?,
            title: text_field("title")?,
            file: text_field("file")?,
            blocks: num_field("blocks")?,
            metrics: num_field("metrics")?,
        });
    }
    if let Some(count) = doc.get("count") {
        if whole_number(count) != Some(entries.len()) {
            return Err(MergeError::at(
                &index_path,
                format!(
                    "count field says {} but the index lists {} experiment(s)",
                    count.to_json_string(),
                    entries.len()
                ),
            ));
        }
    }
    Ok(ShardIndex {
        dir: dir.to_path_buf(),
        scale,
        shard,
        entries,
    })
}

/// What a successful merge produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSummary {
    /// Number of shards merged (the common N).
    pub shards: usize,
    /// Total experiments in the canonical index.
    pub experiments: usize,
    /// The common scale of every shard.
    pub scale: String,
}

/// Merges a complete set of shard report directories into `out`,
/// re-emitting the canonical unstamped `index.json`.
///
/// Validation before anything is written:
///
/// * every directory's index must carry a shard stamp (an unsharded
///   run is already canonical — nothing to merge);
/// * every stamp must agree on the shard count N and the scale;
/// * each shard 1..=N must appear exactly once — **overlap** (the same
///   shard twice) and **missing shards** are named in the error;
/// * per-shard experiment counts must match the round-robin profile
///   (shard K of N holds `ceil((T - K + 1) / N)` of T experiments),
///   and no experiment may appear in two shards;
/// * every listed report file must exist in its shard directory;
/// * `out` must not already contain files (stale droppings would make
///   the merged directory diverge from a fresh unsharded run).
///
/// Report files are copied **byte-verbatim** — merging never rewrites
/// a report — and the canonical index is written last, atomically, so
/// a half-finished merge never looks complete.
///
/// # Errors
///
/// The first inconsistency found, per the list above.
pub fn merge_shard_dirs(dirs: &[PathBuf], out: &Path) -> Result<MergeSummary, MergeError> {
    if dirs.is_empty() {
        return Err(MergeError::new("no shard directories to merge"));
    }
    let mut indexes = Vec::with_capacity(dirs.len());
    for dir in dirs {
        indexes.push(load_shard_index(dir)?);
    }

    let first = &indexes[0];
    let Some(first_shard) = first.shard else {
        return Err(MergeError::at(
            first.dir.join("index.json"),
            "index has no shard stamp (not written by `run --shard`) — nothing to merge",
        ));
    };
    let count = first_shard.count();
    let scale = first.scale.clone();
    // One slot per shard index; filled exactly once each.
    let mut slots: Vec<Option<&ShardIndex>> = vec![None; count];
    for index in &indexes {
        let Some(shard) = index.shard else {
            return Err(MergeError::at(
                index.dir.join("index.json"),
                "index has no shard stamp (not written by `run --shard`) — nothing to merge",
            ));
        };
        if shard.count() != count {
            return Err(MergeError::at(
                index.dir.join("index.json"),
                format!(
                    "shard stamp {shard} disagrees with {} about the shard count ({})",
                    first.dir.display(),
                    first_shard
                ),
            ));
        }
        if index.scale != scale {
            return Err(MergeError::at(
                index.dir.join("index.json"),
                format!(
                    "scale {:?} disagrees with {} (scale {:?})",
                    index.scale,
                    first.dir.display(),
                    scale
                ),
            ));
        }
        if let Some(prev) = slots[shard.index() - 1] {
            return Err(MergeError::at(
                index.dir.join("index.json"),
                format!(
                    "shard {shard} appears twice (also in {}) — overlapping shard set",
                    prev.dir.display()
                ),
            ));
        }
        slots[shard.index() - 1] = Some(index);
    }
    let missing: Vec<String> = (1..=count)
        .filter(|&k| slots[k - 1].is_none())
        .map(|k| format!("{k}/{count}"))
        .collect();
    if !missing.is_empty() {
        return Err(MergeError::new(format!(
            "incomplete shard set: missing shard(s) {}",
            missing.join(", ")
        )));
    }
    let shards: Vec<&ShardIndex> = slots.into_iter().map(|s| s.unwrap()).collect();

    // Per-shard counts must match the round-robin profile of the
    // implied total, or interleaving would scramble the registry order.
    let total: usize = shards.iter().map(|s| s.entries.len()).sum();
    for (k, shard) in shards.iter().enumerate() {
        let want = Shard::new(k + 1, count)
            .expect("1 <= k+1 <= count")
            .len_of(total);
        if shard.entries.len() != want {
            return Err(MergeError::at(
                shard.dir.join("index.json"),
                format!(
                    "shard {}/{count} lists {} experiment(s) but a round-robin partition \
                     of {total} gives it {want} — shards ran different selections",
                    k + 1,
                    shard.entries.len()
                ),
            ));
        }
    }

    // Canonical registry order: entry j came from shard (j % N) + 1 at
    // position j / N.
    let mut canonical: Vec<(&ShardIndex, &IndexEntry)> = Vec::with_capacity(total);
    for j in 0..total {
        let shard = shards[j % count];
        canonical.push((shard, &shard.entries[j / count]));
    }
    for (i, (owner, entry)) in canonical.iter().enumerate() {
        if let Some((prev_owner, _)) = canonical[..i]
            .iter()
            .find(|(_, prior)| prior.name == entry.name)
        {
            return Err(MergeError::new(format!(
                "experiment {:?} appears in both {} and {}",
                entry.name,
                prev_owner.dir.display(),
                owner.dir.display()
            )));
        }
    }
    for (owner, entry) in &canonical {
        if !owner.dir.join(&entry.file).is_file() {
            return Err(MergeError::at(
                owner.dir.join(&entry.file),
                format!("report file for {:?} is missing", entry.name),
            ));
        }
    }

    std::fs::create_dir_all(out)
        .map_err(|e| MergeError::at(out, format!("cannot create output directory: {e}")))?;
    let leftover = std::fs::read_dir(out)
        .map_err(|e| MergeError::at(out, format!("cannot list output directory: {e}")))?
        .next();
    if leftover.is_some() {
        return Err(MergeError::at(
            out,
            "output directory is not empty — merge writes a canonical report \
             directory and will not mix with existing files",
        ));
    }

    for (owner, entry) in &canonical {
        let src = owner.dir.join(&entry.file);
        let bytes = std::fs::read(&src)
            .map_err(|e| MergeError::at(&src, format!("cannot read report: {e}")))?;
        write_atomic(&out.join(&entry.file), &bytes)
            .map_err(|e| MergeError::at(out.join(&entry.file), format!("cannot write: {e}")))?;
    }
    // Canonical index last: its presence marks a complete directory.
    let entries: Vec<IndexEntry> = canonical.iter().map(|(_, e)| (*e).clone()).collect();
    let mut text = index_doc(&scale, None, &entries).to_json_string();
    text.push('\n');
    write_atomic(&out.join("index.json"), text.as_bytes())
        .map_err(|e| MergeError::at(out.join("index.json"), format!("cannot write: {e}")))?;

    Ok(MergeSummary {
        shards: count,
        experiments: total,
        scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("compstat-merge-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry(name: &str) -> IndexEntry {
        IndexEntry {
            name: name.to_string(),
            title: format!("Title of {name}"),
            file: format!("{name}.json"),
            blocks: 2,
            metrics: 3,
        }
    }

    /// Writes a shard report dir the way `run --shard` does: one file
    /// per entry plus a stamped index.
    fn write_shard_dir(dir: &Path, scale: &str, shard: Shard, entries: &[IndexEntry]) {
        std::fs::create_dir_all(dir).unwrap();
        for e in entries {
            std::fs::write(dir.join(&e.file), format!("report bytes of {}\n", e.name)).unwrap();
        }
        let mut text = index_doc(scale, Some(shard), entries).to_json_string();
        text.push('\n');
        std::fs::write(dir.join("index.json"), text).unwrap();
    }

    fn names(n: usize) -> Vec<IndexEntry> {
        (0..n).map(|i| entry(&format!("exp{i:02}"))).collect()
    }

    /// Splits `all` round-robin and writes one dir per shard under
    /// `root`, returning the dirs in shard order.
    fn write_shard_set(root: &Path, count: usize, all: &[IndexEntry]) -> Vec<PathBuf> {
        (1..=count)
            .map(|k| {
                let shard = Shard::new(k, count).unwrap();
                let mine: Vec<IndexEntry> =
                    shard.indices(all.len()).map(|i| all[i].clone()).collect();
                let dir = root.join(format!("shard-{k}"));
                write_shard_dir(&dir, "quick", shard, &mine);
                dir
            })
            .collect()
    }

    #[test]
    fn stamped_and_unstamped_docs_differ_only_in_the_stamp() {
        let entries = names(2);
        let plain = index_doc("quick", None, &entries).to_json_string();
        let stamped =
            index_doc("quick", Some(Shard::new(2, 3).unwrap()), &entries).to_json_string();
        assert!(!plain.contains("\"shard\""));
        assert!(stamped.contains("\"shard\":{\"index\":2,\"count\":3}"));
        // The stamp sits between scale and count, nothing else moves.
        assert_eq!(
            stamped.replace(",\"shard\":{\"index\":2,\"count\":3}", ""),
            plain
        );
        // Round trip through the loader.
        let dir = tmp("roundtrip");
        write_shard_dir(&dir, "quick", Shard::new(2, 3).unwrap(), &entries);
        let loaded = load_shard_index(&dir).unwrap();
        assert_eq!(loaded.scale, "quick");
        assert_eq!(loaded.shard, Some(Shard::new(2, 3).unwrap()));
        assert_eq!(loaded.entries, entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_reassembles_canonical_order_for_many_shard_counts() {
        for &(total, count) in &[(7usize, 3usize), (5, 5), (4, 1), (9, 2), (2, 5)] {
            let root = tmp(&format!("ok-{total}-{count}"));
            let all = names(total);
            let dirs = write_shard_set(&root, count, &all);
            // Merge must not depend on argument order.
            let mut reversed = dirs.clone();
            reversed.reverse();
            let out = root.join("merged");
            let summary = merge_shard_dirs(&reversed, &out).unwrap();
            assert_eq!(summary.shards, count);
            assert_eq!(summary.experiments, total);
            assert_eq!(summary.scale, "quick");

            // Canonical index: byte-identical to an unsharded one.
            let mut want = index_doc("quick", None, &all).to_json_string();
            want.push('\n');
            assert_eq!(
                std::fs::read_to_string(out.join("index.json")).unwrap(),
                want,
                "total {total} count {count}"
            );
            // Report bytes are verbatim copies.
            for e in &all {
                assert_eq!(
                    std::fs::read_to_string(out.join(&e.file)).unwrap(),
                    format!("report bytes of {}\n", e.name)
                );
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn load_shard_index_rejects_a_malformed_count() {
        let dir = tmp("bad-count");
        std::fs::create_dir_all(&dir).unwrap();
        let index = |count: &str, n: usize| {
            let mut doc = index_doc("quick", None, &names(n));
            if let Json::Obj(fields) = &mut doc {
                let slot = fields.iter_mut().find(|(k, _)| k == "count").unwrap();
                slot.1 = Json::parse(count).unwrap();
            }
            std::fs::write(dir.join("index.json"), doc.to_json_string()).unwrap();
            load_shard_index(&dir)
        };
        assert_eq!(index("2", 2).unwrap().entries.len(), 2);
        for (count, n) in [("2.5", 2), ("-0.5", 0), ("\"two\"", 2), ("3", 2)] {
            let err = index(count, n).unwrap_err();
            assert!(
                err.message
                    .contains(&format!("count field says {count} but the index lists {n}")),
                "{err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_inconsistent_shard_sets() {
        let root = tmp("bad-sets");
        let all = names(7);
        let dirs = write_shard_set(&root, 3, &all);

        // Unstamped directory in the mix.
        let plain = root.join("plain");
        std::fs::create_dir_all(&plain).unwrap();
        let mut text = index_doc("quick", None, &names(2)).to_json_string();
        text.push('\n');
        std::fs::write(plain.join("index.json"), text).unwrap();
        let err =
            merge_shard_dirs(&[dirs[0].clone(), plain.clone()], &root.join("m0")).unwrap_err();
        assert!(err.message.contains("no shard stamp"), "{err}");

        // Overlap: the same shard twice.
        let err = merge_shard_dirs(
            &[dirs[0].clone(), dirs[1].clone(), dirs[0].clone()],
            &root.join("m1"),
        )
        .unwrap_err();
        assert!(err.message.contains("appears twice"), "{err}");

        // Missing shards are named.
        let err =
            merge_shard_dirs(&[dirs[0].clone(), dirs[2].clone()], &root.join("m2")).unwrap_err();
        assert!(err.message.contains("missing shard(s) 2/3"), "{err}");

        // Disagreeing shard count.
        let odd = root.join("odd-count");
        write_shard_dir(&odd, "quick", Shard::new(2, 4).unwrap(), &names(1));
        let err = merge_shard_dirs(&[dirs[0].clone(), odd.clone()], &root.join("m3")).unwrap_err();
        assert!(err.message.contains("shard count"), "{err}");

        // Disagreeing scale.
        let other = root.join("other-scale");
        write_shard_dir(
            &other,
            "default",
            Shard::new(2, 3).unwrap(),
            &names(7)[1..2],
        );
        let err = merge_shard_dirs(&[dirs[0].clone(), other, dirs[2].clone()], &root.join("m4"))
            .unwrap_err();
        assert!(err.message.contains("scale"), "{err}");

        // Round-robin profile violation: shard 2 lists too few.
        let thin = root.join("thin");
        write_shard_dir(&thin, "quick", Shard::new(2, 3).unwrap(), &names(7)[1..2]);
        let err = merge_shard_dirs(&[dirs[0].clone(), thin, dirs[2].clone()], &root.join("m5"))
            .unwrap_err();
        assert!(err.message.contains("round-robin"), "{err}");

        // Duplicate experiment across shards (counts kept consistent).
        let dup_entries: Vec<IndexEntry> = Shard::new(2, 3)
            .unwrap()
            .indices(7)
            .map(|_| all[0].clone())
            .collect();
        let dup = root.join("dup");
        write_shard_dir(&dup, "quick", Shard::new(2, 3).unwrap(), &dup_entries);
        let err = merge_shard_dirs(&[dirs[0].clone(), dup, dirs[2].clone()], &root.join("m6"))
            .unwrap_err();
        assert!(err.message.contains("appears in both"), "{err}");

        // Missing report file.
        std::fs::remove_file(dirs[1].join("exp01.json")).unwrap();
        let err = merge_shard_dirs(&dirs, &root.join("m7")).unwrap_err();
        assert!(err.message.contains("missing"), "{err}");
        std::fs::write(dirs[1].join("exp01.json"), "report bytes of exp01\n").unwrap();

        // Non-empty output directory.
        let out = root.join("m8");
        std::fs::create_dir_all(&out).unwrap();
        std::fs::write(out.join("stale.json"), "{}").unwrap();
        let err = merge_shard_dirs(&dirs, &out).unwrap_err();
        assert!(err.message.contains("not empty"), "{err}");

        // Empty input list.
        assert!(merge_shard_dirs(&[], &root.join("m9")).is_err());

        let _ = std::fs::remove_dir_all(&root);
    }
}
