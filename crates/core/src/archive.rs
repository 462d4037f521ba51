//! Fleet-portable oracle-cache archives (`compstat cache export` /
//! `cache import`).
//!
//! The `.compstat-cache/` store is content-addressed — every entry is
//! a `<sha256>.bfc` file whose name is the cache-key digest — so the
//! whole directory can be shipped between machines and merged by plain
//! file copy. This module packs those entries into a **ustar** archive
//! (POSIX.1-1988 tar; readable by any stock `tar xf`) and unpacks one
//! back into a store, with zero external dependencies: the build
//! environment has no registry access, so the writer and reader are
//! hand-rolled here.
//!
//! The writer is deterministic: entries are sorted by name, all
//! metadata is pinned (`mode 0644`, `uid/gid 0`, `mtime 0`), so two
//! exports of the same store are byte-identical — archives themselves
//! diff cleanly in CI.
//!
//! [`import_cache`] is strict: entry names must look like cache
//! entries (64 hex digits + `.bfc`) and every payload must decode as a
//! cache file *before* anything is written, so a corrupt or hostile
//! archive cannot plant droppings (or path-traversing names) in the
//! store.

use crate::cache::{decode_values, entry_paths, is_cache_entry_name, write_atomic, CACHE_FILE_EXT};
use std::fmt;
use std::path::Path;

/// Size of a tar block — headers occupy one, payloads are padded to a
/// multiple.
pub const TAR_BLOCK: usize = 512;

/// An error raised by archive packing, parsing, or cache import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveError {
    /// Human-readable description, naming the offending entry/offset.
    pub message: String,
}

impl ArchiveError {
    fn new(message: impl Into<String>) -> ArchiveError {
        ArchiveError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ArchiveError {}

/// One file inside a tar archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TarEntry {
    /// Path inside the archive (no leading `/`).
    pub name: String,
    /// File contents.
    pub data: Vec<u8>,
}

// ---------------------------------------------------------------------
// ustar writer
// ---------------------------------------------------------------------

/// Writes `value` as `digits` zero-padded octal characters plus a
/// terminating NUL into `field`.
fn write_octal(field: &mut [u8], value: u64, digits: usize) {
    let text = format!("{value:0digits$o}");
    field[..digits].copy_from_slice(text.as_bytes());
    field[digits] = 0;
}

fn header(name: &str, size: usize) -> Result<[u8; TAR_BLOCK], ArchiveError> {
    if name.is_empty() || name.len() > 100 {
        return Err(ArchiveError::new(format!(
            "entry name {name:?} does not fit a ustar header (1..=100 bytes)"
        )));
    }
    if size as u64 > 0o777_7777_7777 {
        return Err(ArchiveError::new(format!(
            "entry {name:?} is too large for a ustar size field ({size} bytes)"
        )));
    }
    let mut h = [0u8; TAR_BLOCK];
    h[..name.len()].copy_from_slice(name.as_bytes());
    write_octal(&mut h[100..108], 0o644, 7); // mode
    write_octal(&mut h[108..116], 0, 7); // uid
    write_octal(&mut h[116..124], 0, 7); // gid
    write_octal(&mut h[124..136], size as u64, 11); // size
    write_octal(&mut h[136..148], 0, 11); // mtime
    h[148..156].fill(b' '); // chksum counts as spaces
    h[156] = b'0'; // typeflag: regular file
    h[257..263].copy_from_slice(b"ustar\0");
    h[263..265].copy_from_slice(b"00");
    write_octal(&mut h[329..337], 0, 7); // devmajor
    write_octal(&mut h[337..345], 0, 7); // devminor
    let sum: u32 = h.iter().map(|&b| u32::from(b)).sum();
    let digits = format!("{sum:06o}");
    h[148..154].copy_from_slice(digits.as_bytes());
    h[154] = 0;
    h[155] = b' ';
    Ok(h)
}

/// Packs `entries` into a ustar archive, **sorted by name** so the
/// output bytes are a pure function of the entry set.
///
/// # Errors
///
/// Fails if an entry name is empty, longer than 100 bytes, duplicated,
/// or a payload exceeds the 8 GiB ustar size field.
pub fn tar_create(entries: &[TarEntry]) -> Result<Vec<u8>, ArchiveError> {
    let mut order: Vec<&TarEntry> = entries.iter().collect();
    order.sort_by(|a, b| a.name.cmp(&b.name));
    for pair in order.windows(2) {
        if pair[0].name == pair[1].name {
            return Err(ArchiveError::new(format!(
                "duplicate entry name {:?}",
                pair[0].name
            )));
        }
    }
    let mut out = Vec::new();
    for entry in order {
        out.extend_from_slice(&header(&entry.name, entry.data.len())?);
        out.extend_from_slice(&entry.data);
        let pad = entry.data.len().next_multiple_of(TAR_BLOCK) - entry.data.len();
        out.extend(std::iter::repeat_n(0u8, pad));
    }
    out.extend(std::iter::repeat_n(0u8, 2 * TAR_BLOCK)); // end-of-archive
    Ok(out)
}

// ---------------------------------------------------------------------
// ustar reader
// ---------------------------------------------------------------------

/// Parses a NUL/space-padded octal field.
fn parse_octal(field: &[u8], what: &str, offset: usize) -> Result<u64, ArchiveError> {
    let text: &[u8] = field
        .split(|&b| b == 0)
        .next()
        .unwrap_or(field)
        .trim_ascii();
    let mut value: u64 = 0;
    if text.is_empty() {
        return Ok(0);
    }
    for &b in text {
        if !(b'0'..=b'7').contains(&b) {
            return Err(ArchiveError::new(format!(
                "bad octal digit in {what} field of header at offset {offset}"
            )));
        }
        value = value
            .checked_mul(8)
            .and_then(|v| v.checked_add(u64::from(b - b'0')))
            .ok_or_else(|| {
                ArchiveError::new(format!("{what} field overflows at header offset {offset}"))
            })?;
    }
    Ok(value)
}

/// Reads a NUL-terminated UTF-8 string field.
fn read_str(field: &[u8], what: &str, offset: usize) -> Result<String, ArchiveError> {
    let raw = field.split(|&b| b == 0).next().unwrap_or(field);
    String::from_utf8(raw.to_vec()).map_err(|_| {
        ArchiveError::new(format!(
            "{what} field is not UTF-8 in header at offset {offset}"
        ))
    })
}

/// Unpacks a ustar archive into its regular-file entries.
///
/// Non-file entries (directories, links, pax extension headers) are
/// skipped along with their payloads; `prefix`-split long names are
/// rejoined. The archive ends at the first all-zero block (stock
/// terminator) or, tolerantly, at end-of-input.
///
/// # Errors
///
/// Fails on a truncated header or payload, a header checksum mismatch,
/// a missing `ustar` magic, or a malformed size field — with the byte
/// offset of the bad header in the message.
pub fn tar_extract(bytes: &[u8]) -> Result<Vec<TarEntry>, ArchiveError> {
    let mut entries = Vec::new();
    let mut off = 0usize;
    loop {
        if off == bytes.len() {
            break; // tolerated: archive without terminator blocks
        }
        if off + TAR_BLOCK > bytes.len() {
            return Err(ArchiveError::new(format!(
                "truncated tar header at offset {off} ({} trailing byte(s))",
                bytes.len() - off
            )));
        }
        let h = &bytes[off..off + TAR_BLOCK];
        if h.iter().all(|&b| b == 0) {
            break; // end-of-archive marker
        }
        let stored = parse_octal(&h[148..156], "checksum", off)?;
        let actual: u64 = h
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                if (148..156).contains(&i) {
                    32 // the checksum field counts as spaces
                } else {
                    u64::from(b)
                }
            })
            .sum();
        if stored != actual {
            return Err(ArchiveError::new(format!(
                "tar header checksum mismatch at offset {off} (stored {stored:o}, computed {actual:o})"
            )));
        }
        if &h[257..262] != b"ustar" {
            return Err(ArchiveError::new(format!(
                "header at offset {off} is not ustar format"
            )));
        }
        let size = parse_octal(&h[124..136], "size", off)? as usize;
        let data_start = off + TAR_BLOCK;
        let data_end = data_start.checked_add(size).filter(|&e| e <= bytes.len());
        let Some(data_end) = data_end else {
            return Err(ArchiveError::new(format!(
                "entry at offset {off} claims {size} bytes but the archive ends early"
            )));
        };
        let typeflag = h[156];
        if typeflag == b'0' || typeflag == 0 {
            let name = read_str(&h[..100], "name", off)?;
            let prefix = read_str(&h[345..500], "prefix", off)?;
            let full = if prefix.is_empty() {
                name
            } else {
                format!("{prefix}/{name}")
            };
            entries.push(TarEntry {
                name: full,
                data: bytes[data_start..data_end].to_vec(),
            });
        }
        off = data_start + size.next_multiple_of(TAR_BLOCK);
    }
    Ok(entries)
}

// ---------------------------------------------------------------------
// Cache export / import
// ---------------------------------------------------------------------

/// Packs every cache entry under `dir` into a deterministic ustar
/// archive, returning the bytes and the number of entries packed.
///
/// Only `<sha256>.bfc` entry files are included — `stats.json` and
/// temp droppings are local state and stay home. A missing or empty
/// directory exports a valid empty archive.
///
/// # Errors
///
/// Fails if an entry cannot be read or does not decode as a cache
/// file (a corrupt store should be `cache clear`ed, not shipped).
pub fn export_cache(dir: &Path) -> Result<(Vec<u8>, usize), ArchiveError> {
    let paths = entry_paths(dir).map_err(|e| {
        ArchiveError::new(format!(
            "cannot list cache directory {}: {e}",
            dir.display()
        ))
    })?;
    let mut entries = Vec::with_capacity(paths.len());
    for path in paths {
        let data = std::fs::read(&path).map_err(|e| {
            ArchiveError::new(format!("cannot read cache entry {}: {e}", path.display()))
        })?;
        if let Err(e) = decode_values(&data) {
            return Err(ArchiveError::new(format!(
                "cache entry {} is corrupt ({e}); run `compstat cache clear` and re-export",
                path.display()
            )));
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("entry_paths yields UTF-8 file names")
            .to_owned();
        entries.push(TarEntry { name, data });
    }
    let count = entries.len();
    Ok((tar_create(&entries)?, count))
}

/// What [`import_cache`] did, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImportSummary {
    /// Entries written that were not present before.
    pub added: usize,
    /// Entries that already existed (overwritten with identical-key
    /// content — content-addressed, so a no-op in practice).
    pub existing: usize,
}

impl ImportSummary {
    /// Total entries in the archive.
    #[must_use]
    pub fn total(&self) -> usize {
        self.added + self.existing
    }
}

/// Unpacks a cache archive produced by [`export_cache`] (or any tar of
/// `.bfc` entries) into the store at `dir`, creating it if needed.
///
/// Validation is all-or-nothing and happens **before** any write:
/// every entry name must be a plain `<64-hex>.bfc` (an optional
/// leading `./` is tolerated — stock `tar cf` adds one) and every
/// payload must decode as a cache file. Entries are then written
/// atomically, so a concurrent reader never sees a partial entry.
///
/// # Errors
///
/// Fails on any malformed archive, foreign/traversing entry name, or
/// payload that does not decode — naming the offender.
pub fn import_cache(dir: &Path, bytes: &[u8]) -> Result<ImportSummary, ArchiveError> {
    let raw = tar_extract(bytes)?;
    let mut entries = Vec::with_capacity(raw.len());
    for entry in raw {
        let name = entry.name.strip_prefix("./").unwrap_or(&entry.name);
        if !is_cache_entry_name(name) {
            return Err(ArchiveError::new(format!(
                "archive entry {:?} is not a cache entry (want <64-hex>.{CACHE_FILE_EXT})",
                entry.name
            )));
        }
        if let Err(e) = decode_values(&entry.data) {
            return Err(ArchiveError::new(format!(
                "archive entry {:?} does not decode as a cache file: {e}",
                entry.name
            )));
        }
        entries.push(TarEntry {
            name: name.to_owned(),
            data: entry.data,
        });
    }
    std::fs::create_dir_all(dir).map_err(|e| {
        ArchiveError::new(format!(
            "cannot create cache directory {}: {e}",
            dir.display()
        ))
    })?;
    let mut summary = ImportSummary::default();
    for entry in &entries {
        let path = dir.join(&entry.name);
        if path.is_file() {
            summary.existing += 1;
        } else {
            summary.added += 1;
        }
        write_atomic(&path, &entry.data).map_err(|e| {
            ArchiveError::new(format!("cannot write cache entry {}: {e}", path.display()))
        })?;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{encode_values, CacheKey, OracleCache};
    use compstat_bigfloat::{bit_identical, BigFloat, Context};
    use compstat_runtime::{CacheMode, Runtime};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("compstat-archive-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_values(n: usize) -> Vec<BigFloat> {
        let ctx = Context::new(256);
        (0..n)
            .map(|i| {
                let x = BigFloat::from_u64(i as u64 * 3 + 1);
                ctx.div(&x, &BigFloat::from_u64(7))
                    .mul_pow2(-(i as i64) * 1000)
            })
            .collect()
    }

    #[test]
    fn tar_round_trips_and_is_deterministic() {
        let entries = vec![
            TarEntry {
                name: "b.bin".into(),
                data: vec![7u8; 513], // crosses a block boundary
            },
            TarEntry {
                name: "a.bin".into(),
                data: Vec::new(), // empty payload
            },
            TarEntry {
                name: "c.bin".into(),
                data: b"hello tar".to_vec(),
            },
        ];
        let bytes = tar_create(&entries).unwrap();
        assert_eq!(bytes.len() % TAR_BLOCK, 0);
        // Entry order in the input must not matter.
        let mut shuffled = entries.clone();
        shuffled.rotate_left(1);
        assert_eq!(bytes, tar_create(&shuffled).unwrap());

        let back = tar_extract(&bytes).unwrap();
        let names: Vec<&str> = back.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.bin", "b.bin", "c.bin"], "sorted by name");
        for entry in &entries {
            let got = back.iter().find(|e| e.name == entry.name).unwrap();
            assert_eq!(got.data, entry.data);
        }
    }

    #[test]
    fn tar_create_rejects_bad_names() {
        let long = TarEntry {
            name: "x".repeat(101),
            data: Vec::new(),
        };
        assert!(tar_create(std::slice::from_ref(&long)).is_err());
        let dup = TarEntry {
            name: "same".into(),
            data: Vec::new(),
        };
        assert!(tar_create(&[dup.clone(), dup]).is_err());
        assert!(tar_create(&[TarEntry {
            name: String::new(),
            data: Vec::new(),
        }])
        .is_err());
    }

    #[test]
    fn tar_extract_rejects_corruption() {
        let entries = vec![TarEntry {
            name: "entry.bin".into(),
            data: vec![1u8; 100],
        }];
        let good = tar_create(&entries).unwrap();

        // Truncations that cut a header or payload must fail; cutting
        // only terminator blocks is tolerated.
        assert!(tar_extract(&good[..100]).is_err(), "mid-header cut");
        assert!(
            tar_extract(&good[..TAR_BLOCK + 50]).is_err(),
            "mid-payload cut"
        );
        assert_eq!(tar_extract(&good[..2 * TAR_BLOCK]).unwrap(), entries);

        // A flipped name byte breaks the checksum.
        let mut bad = good.clone();
        bad[0] ^= 0x01;
        let err = tar_extract(&bad).unwrap_err();
        assert!(err.message.contains("checksum"), "{err}");

        // Wrong magic.
        let mut bad = good.clone();
        bad[257..262].copy_from_slice(b"zstar");
        // fix the checksum so the magic check is what trips
        let sum: u64 = bad[..512]
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                if (148..156).contains(&i) {
                    32
                } else {
                    u64::from(b)
                }
            })
            .sum();
        let digits = format!("{sum:06o}");
        bad[148..154].copy_from_slice(digits.as_bytes());
        let err = tar_extract(&bad).unwrap_err();
        assert!(err.message.contains("ustar"), "{err}");

        // Garbage in the size field.
        let mut bad = good;
        bad[124] = b'9';
        assert!(tar_extract(&bad).is_err());
    }

    #[test]
    fn tar_extract_joins_prefix_and_skips_non_files() {
        // Hand-build a header using the prefix field plus a directory
        // entry, as a stock tar might produce.
        let mut h = header("leaf.bin", 0).unwrap();
        h[345..348].copy_from_slice(b"dir");
        h[148..156].fill(b' ');
        let sum: u64 = h.iter().map(|&b| u64::from(b)).sum();
        let digits = format!("{sum:06o}");
        h[148..154].copy_from_slice(digits.as_bytes());
        h[154] = 0;
        h[155] = b' ';

        let mut d = header("some-dir", 0).unwrap();
        d[156] = b'5'; // directory typeflag
        d[148..156].fill(b' ');
        let sum: u64 = d.iter().map(|&b| u64::from(b)).sum();
        let digits = format!("{sum:06o}");
        d[148..154].copy_from_slice(digits.as_bytes());
        d[154] = 0;
        d[155] = b' ';

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&d);
        bytes.extend_from_slice(&h);
        bytes.extend(std::iter::repeat_n(0u8, 2 * TAR_BLOCK));
        let entries = tar_extract(&bytes).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "dir/leaf.bin");
    }

    #[test]
    fn cache_export_import_round_trip() {
        let src = tmp("export-src");
        let dst = tmp("export-dst");
        let cache = OracleCache::new(&src, CacheMode::ReadWrite);
        let keys: Vec<CacheKey> = (0..3)
            .map(|i| CacheKey::new("test/archive").field("i", i))
            .collect();
        let mut want = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let values = sample_values(i + 2);
            assert!(cache.store(key, &values));
            want.push(values);
        }

        let (bytes, count) = export_cache(&src).unwrap();
        assert_eq!(count, 3);
        // Determinism: a second export is byte-identical.
        assert_eq!(bytes, export_cache(&src).unwrap().0);
        // stats.json must not be shipped.
        crate::cache::record_run_stats(&src, &cache.stats()).unwrap();
        assert_eq!(bytes, export_cache(&src).unwrap().0);

        let summary = import_cache(&dst, &bytes).unwrap();
        assert_eq!(summary.added, 3);
        assert_eq!(summary.existing, 0);
        let imported = OracleCache::new(&dst, CacheMode::ReadWrite);
        for (key, values) in keys.iter().zip(&want) {
            let got = imported.sweep(&Runtime::serial(), key, values.len(), |_| {
                unreachable!("must be warm")
            });
            assert!(got.iter().zip(values).all(|(a, b)| bit_identical(a, b)));
        }
        assert_eq!(imported.stats().hits, 3);

        // Re-import is idempotent and counts existing entries.
        let again = import_cache(&dst, &bytes).unwrap();
        assert_eq!(again.added, 0);
        assert_eq!(again.existing, 3);

        // An empty or missing store exports a valid empty archive.
        let (empty, n) = export_cache(&tmp("does-not-exist")).unwrap();
        assert_eq!(n, 0);
        assert_eq!(import_cache(&dst, &empty).unwrap().total(), 0);

        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&dst);
    }

    #[test]
    fn cache_import_is_strict() {
        let dst = tmp("import-strict");
        let payload = encode_values(&sample_values(1));
        let hex = "0".repeat(64);

        // A foreign name is rejected before anything is written.
        let evil = tar_create(&[
            TarEntry {
                name: format!("{hex}.bfc"),
                data: payload.clone(),
            },
            TarEntry {
                name: "../escape.bfc".into(),
                data: payload.clone(),
            },
        ])
        .unwrap();
        let err = import_cache(&dst, &evil).unwrap_err();
        assert!(err.message.contains("../escape.bfc"), "{err}");
        assert!(!dst.exists(), "nothing written on rejection");

        // A payload that does not decode is rejected, also pre-write.
        let corrupt = tar_create(&[TarEntry {
            name: format!("{hex}.bfc"),
            data: b"not a cache file".to_vec(),
        }])
        .unwrap();
        let err = import_cache(&dst, &corrupt).unwrap_err();
        assert!(err.message.contains("does not decode"), "{err}");
        assert!(!dst.exists());

        // `./`-prefixed names (stock tar) are accepted.
        let mut bytes = tar_create(&[]).unwrap();
        bytes.clear();
        let name = format!("./{hex}.bfc");
        let mut h = header(&name, payload.len()).unwrap();
        h[148..156].fill(b' ');
        let sum: u64 = h.iter().map(|&b| u64::from(b)).sum();
        let digits = format!("{sum:06o}");
        h[148..154].copy_from_slice(digits.as_bytes());
        h[154] = 0;
        h[155] = b' ';
        bytes.extend_from_slice(&h);
        bytes.extend_from_slice(&payload);
        let pad = payload.len().next_multiple_of(TAR_BLOCK) - payload.len();
        bytes.extend(std::iter::repeat_n(0u8, pad));
        bytes.extend(std::iter::repeat_n(0u8, 2 * TAR_BLOCK));
        let summary = import_cache(&dst, &bytes).unwrap();
        assert_eq!(summary.added, 1);
        assert!(dst.join(format!("{hex}.bfc")).is_file());

        // A corrupt entry in the store blocks export with a clear
        // message instead of shipping poison.
        std::fs::write(dst.join(format!("{}.bfc", "1".repeat(64))), b"junk").unwrap();
        let err = export_cache(&dst).unwrap_err();
        assert!(err.message.contains("corrupt"), "{err}");

        let _ = std::fs::remove_dir_all(&dst);
    }
}
