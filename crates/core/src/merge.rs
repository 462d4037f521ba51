//! The report-directory layout, and the `compstat merge` fan-in.
//!
//! A report directory is what `compstat run --out` writes: one
//! `<name>.json` document per experiment ([`write_report`]) and, last,
//! an `index.json` listing them ([`write_index`]). This module is the
//! only place that knows that layout. [`parse_index`] is the one
//! `index.json` parser: `merge`, [`load_report_dir`] (and so `diff`),
//! `compstat validate` and the tests all read indexes through it, so a
//! directory one of them accepts the others accept too.
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
//!
//! [`load_report_dir`]: crate::diff::load_report_dir

use crate::cache::write_atomic;
use crate::diff::DiffError;
use crate::json::{FieldError, Json};
use crate::report::{Report, INDEX_SCHEMA};
use compstat_runtime::Shard;
use std::path::{Path, PathBuf};

/// File name of a report directory's index.
const INDEX_FILE: &str = "index.json";

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

    /// Reads one entry of an index's `experiments` array, the inverse
    /// of [`IndexEntry::to_json`].
    fn from_json(v: &Json) -> Result<IndexEntry, FieldError> {
        Ok(IndexEntry {
            name: v.str_at("name")?.to_string(),
            title: v.str_at("title")?.to_string(),
            file: v.str_at("file")?.to_string(),
            blocks: v.count_at("blocks")?,
            metrics: v.count_at("metrics")?,
        })
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

/// A parsed `index.json`, shard stamp included.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportIndex {
    /// Canonical scale name (`quick` / `default` / `full`).
    pub scale: String,
    /// The shard stamp, if the directory was written by `run --shard`.
    pub shard: Option<Shard>,
    /// Experiment lines, in index order.
    pub entries: Vec<IndexEntry>,
}

/// Interprets an already-parsed JSON value as an `index.json`
/// document — the one index parser.
///
/// # Errors
///
/// Returns a [`DiffError`] (without a path) on a wrong `schema`, a
/// missing `scale`, a malformed shard stamp, an entry missing one of
/// its five fields, or a `count` that is not the number of entries.
pub fn parse_index(doc: &Json) -> Result<ReportIndex, DiffError> {
    let schema = doc.str_at("schema")?;
    if schema != INDEX_SCHEMA {
        return Err(DiffError::new(format!(
            "expected schema {INDEX_SCHEMA:?}, found {schema:?}"
        )));
    }
    let scale = doc.str_at("scale")?.to_string();
    let shard = match doc.get("shard") {
        None => None,
        Some(stamp) => {
            let at = |e: FieldError| DiffError::new(format!("shard stamp: {e}"));
            let index = stamp.count_at("index").map_err(at)?;
            let count = stamp.count_at("count").map_err(at)?;
            Some(
                Shard::new(index, count)
                    .map_err(|e| DiffError::new(format!("invalid shard stamp: {e}")))?,
            )
        }
    };
    let entries = doc
        .arr_at("experiments")?
        .iter()
        .enumerate()
        .map(|(i, item)| {
            IndexEntry::from_json(item).map_err(|e| DiffError::new(format!("experiment {i}: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(count) = doc.get("count") {
        if count.as_count() != Some(entries.len()) {
            return Err(DiffError::new(format!(
                "count field says {} but the index lists {} experiment(s)",
                count.to_json_string(),
                entries.len()
            )));
        }
    }
    Ok(ReportIndex {
        scale,
        shard,
        entries,
    })
}

/// Reads and parses `<dir>/index.json` ([`parse_index`]).
///
/// # Errors
///
/// Fails on a missing, unreadable or unparsable index, or any
/// [`parse_index`] error; every error names the `index.json` path.
pub fn load_index(dir: &Path) -> Result<ReportIndex, DiffError> {
    let path = dir.join(INDEX_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| DiffError::at(&path, format!("cannot read index: {e}")))?;
    let doc = Json::parse(&text).map_err(|e| DiffError::at(&path, e.to_string()))?;
    parse_index(&doc).map_err(|e| DiffError::at(&path, e.message))
}

/// Writes `bytes` to `path` atomically, naming the path on failure.
fn write_file(path: &Path, bytes: &[u8]) -> Result<(), DiffError> {
    write_atomic(path, bytes).map_err(|e| DiffError::at(path, format!("cannot write: {e}")))
}

/// Writes `report` to `<dir>/<name>.json`, newline-terminated and
/// atomically, so an interrupted run leaves no truncated report.
/// Returns its line for [`write_index`].
///
/// # Errors
///
/// Fails, naming the file, if it cannot be written.
pub fn write_report(dir: &Path, report: &Report) -> Result<IndexEntry, DiffError> {
    let entry = IndexEntry::for_report(report);
    write_file(&dir.join(&entry.file), report.to_json_string().as_bytes())?;
    Ok(entry)
}

/// Writes `<dir>/index.json` ([`index_doc`]), newline-terminated and
/// atomically. Call it after every report is written: its presence
/// marks a complete directory, so a half-written run never half-loads.
/// Returns the path written.
///
/// # Errors
///
/// Fails, naming the file, if it cannot be written.
pub fn write_index(
    dir: &Path,
    scale: &str,
    shard: Option<Shard>,
    entries: &[IndexEntry],
) -> Result<PathBuf, DiffError> {
    let path = dir.join(INDEX_FILE);
    let mut text = index_doc(scale, shard, entries).to_json_string();
    text.push('\n');
    write_file(&path, text.as_bytes())?;
    Ok(path)
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
/// a report — and the canonical index is written last
/// ([`write_index`]), so a half-finished merge never looks complete.
///
/// # Errors
///
/// The first inconsistency found, per the list above.
pub fn merge_shard_dirs(dirs: &[PathBuf], out: &Path) -> Result<MergeSummary, DiffError> {
    let mut indexes: Vec<(&Path, ReportIndex)> = Vec::with_capacity(dirs.len());
    for dir in dirs {
        indexes.push((dir.as_path(), load_index(dir)?));
    }
    let Some((first_dir, first)) = indexes.first() else {
        return Err(DiffError::new("no shard directories to merge"));
    };
    let stamp = |dir: &Path, index: &ReportIndex| {
        index.shard.ok_or_else(|| {
            DiffError::at(
                &dir.join(INDEX_FILE),
                "index has no shard stamp (not written by `run --shard`) — nothing to merge",
            )
        })
    };
    let first_shard = stamp(first_dir, first)?;
    let count = first_shard.count();
    let scale = first.scale.clone();
    // One slot per shard index; filled exactly once each.
    let mut slots: Vec<Option<(&Path, &ReportIndex)>> = vec![None; count];
    for (dir, index) in &indexes {
        let shard = stamp(dir, index)?;
        let at = |message: String| DiffError::at(&dir.join(INDEX_FILE), message);
        if shard.count() != count {
            return Err(at(format!(
                "shard stamp {shard} disagrees with {} about the shard count ({first_shard})",
                first_dir.display(),
            )));
        }
        if index.scale != scale {
            return Err(at(format!(
                "scale {:?} disagrees with {} (scale {scale:?})",
                index.scale,
                first_dir.display(),
            )));
        }
        if let Some((prev, _)) = slots[shard.index() - 1] {
            return Err(at(format!(
                "shard {shard} appears twice (also in {}) — overlapping shard set",
                prev.display()
            )));
        }
        slots[shard.index() - 1] = Some((*dir, index));
    }
    let missing: Vec<String> = (1..=count)
        .filter(|&k| slots[k - 1].is_none())
        .map(|k| format!("{k}/{count}"))
        .collect();
    if !missing.is_empty() {
        return Err(DiffError::new(format!(
            "incomplete shard set: missing shard(s) {}",
            missing.join(", ")
        )));
    }
    let shards: Vec<(&Path, &ReportIndex)> = slots.into_iter().flatten().collect();

    // Per-shard counts must match the round-robin profile of the
    // implied total, or interleaving would scramble the registry order.
    let total: usize = shards.iter().map(|(_, s)| s.entries.len()).sum();
    for (k, (dir, shard)) in shards.iter().enumerate() {
        let want = Shard::new(k + 1, count)
            .expect("1 <= k+1 <= count")
            .len_of(total);
        if shard.entries.len() != want {
            return Err(DiffError::at(
                &dir.join(INDEX_FILE),
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
    let canonical: Vec<(&Path, &IndexEntry)> = (0..total)
        .map(|j| {
            let (dir, shard) = shards[j % count];
            (dir, &shard.entries[j / count])
        })
        .collect();
    for (i, (owner, entry)) in canonical.iter().enumerate() {
        if let Some((prev_owner, _)) = canonical[..i]
            .iter()
            .find(|(_, prior)| prior.name == entry.name)
        {
            return Err(DiffError::new(format!(
                "experiment {:?} appears in both {} and {}",
                entry.name,
                prev_owner.display(),
                owner.display()
            )));
        }
    }
    // Every report is read before anything is written.
    let mut reports: Vec<(&IndexEntry, Vec<u8>)> = Vec::with_capacity(total);
    for (owner, entry) in canonical {
        let src = owner.join(&entry.file);
        let bytes = std::fs::read(&src).map_err(|e| {
            let message = format!(
                "report file for {:?} is missing or unreadable: {e}",
                entry.name
            );
            DiffError::at(&src, message)
        })?;
        reports.push((entry, bytes));
    }

    std::fs::create_dir_all(out)
        .map_err(|e| DiffError::at(out, format!("cannot create output directory: {e}")))?;
    let leftover = std::fs::read_dir(out)
        .map_err(|e| DiffError::at(out, format!("cannot list output directory: {e}")))?
        .next();
    if leftover.is_some() {
        return Err(DiffError::at(
            out,
            "output directory is not empty — merge writes a canonical report \
             directory and will not mix with existing files",
        ));
    }

    for (entry, bytes) in &reports {
        write_file(&out.join(&entry.file), bytes)?;
    }
    let entries: Vec<IndexEntry> = reports.into_iter().map(|(e, _)| e.clone()).collect();
    write_index(out, &scale, None, &entries)?;

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
        write_index(dir, scale, Some(shard), entries).unwrap();
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
        let loaded = load_index(&dir).unwrap();
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
    fn parse_index_rejects_a_malformed_count() {
        let index = |count: &str, n: usize| {
            let mut doc = index_doc("quick", None, &names(n));
            if let Json::Obj(fields) = &mut doc {
                let slot = fields.iter_mut().find(|(k, _)| k == "count").unwrap();
                slot.1 = Json::parse(count).unwrap();
            }
            parse_index(&doc)
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
    }

    #[test]
    fn merge_rejects_inconsistent_shard_sets() {
        let root = tmp("bad-sets");
        let all = names(7);
        let dirs = write_shard_set(&root, 3, &all);

        // Unstamped directory in the mix.
        let plain = root.join("plain");
        std::fs::create_dir_all(&plain).unwrap();
        write_index(&plain, "quick", None, &names(2)).unwrap();
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
