//! Which files the audit walks, and where `float-format` applies.
//!
//! The default audit set is the workspace's own first-party sources:
//! the umbrella crate's `src/lib.rs` plus every `crates/<name>/src`
//! tree except `crates/vendor` (vendored third-party code is not held
//! to this project's invariants). `float-format` binds in the
//! report-rendering paths (the report and diff models, the CLI, the
//! bench experiments, the serve wire encoder). Explicitly named paths —
//! as used by the fixture tests — carry no scoping information and are
//! always checked.
//!
//! The invariants clippy enforces are scoped by lint levels in the
//! sources themselves, not here (see CONTRIBUTING).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Report-rendering paths where `float-format` binds.
const FLOAT_FORMAT_SCOPE: &[&str] = &[
    "crates/core/src/report.rs",
    "crates/core/src/diff.rs",
    "crates/core/src/bench_doc.rs",
    "crates/core/src/accuracy.rs",
    "crates/cli/src/",
    "crates/bench/src/",
    "crates/serve/src/proto.rs",
];

/// True when `rel` (workspace-relative, forward slashes) is part of
/// the default audit set.
#[must_use]
pub fn in_default_set(rel: &str) -> bool {
    rel == "src/lib.rs"
        || (rel.starts_with("crates/")
            && !rel.starts_with("crates/vendor/")
            && rel.contains("/src/")
            && rel.ends_with(".rs"))
}

/// Whether `float-format` applies to `rel`: in its report-rendering
/// scope, or anywhere outside the default set (an explicit path).
#[must_use]
pub fn float_format_applies(rel: &str) -> bool {
    !in_default_set(rel)
        || FLOAT_FORMAT_SCOPE.iter().any(|p| {
            if p.ends_with('/') {
                rel.starts_with(p)
            } else {
                rel == *p
            }
        })
}

/// The workspace-relative path of `path` under `root`, with forward
/// slashes (the spelling used in findings and fingerprints).
#[must_use]
pub fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Collects the default audit set under `root`, sorted for
/// deterministic output.
pub fn default_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let umbrella = root.join("src/lib.rs");
    if umbrella.is_file() {
        out.push(umbrella);
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in sorted_entries(&crates)? {
            if entry.file_name().and_then(|n| n.to_str()) == Some("vendor") {
                continue;
            }
            let src = entry.join("src");
            if src.is_dir() {
                walk_rs(&src, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Expands explicitly named paths: files are taken as-is, directories
/// are walked for `.rs` files.
pub fn expand_paths(paths: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for p in paths {
        if p.is_dir() {
            walk_rs(p, &mut out)?;
        } else if p.is_file() {
            out.push(p.clone());
        } else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file or directory: {}", p.display()),
            ));
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in sorted_entries(dir)? {
        if entry.is_dir() {
            walk_rs(&entry, out)?;
        } else if entry.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(entry);
        }
    }
    Ok(())
}

fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_format_binds_in_report_paths_only() {
        assert!(float_format_applies("crates/core/src/report.rs"));
        assert!(float_format_applies("crates/cli/src/main.rs"));
        assert!(float_format_applies("crates/serve/src/proto.rs"));
        assert!(!float_format_applies("crates/serve/src/server.rs"));
        assert!(!float_format_applies("crates/hmm/src/forward.rs"));
    }

    #[test]
    fn out_of_tree_paths_are_always_checked() {
        let fixture = "crates/analysis/tests/fixtures/float_format.rs";
        assert!(!in_default_set(fixture));
        assert!(float_format_applies(fixture));
        assert!(!in_default_set("crates/vendor/rand/src/lib.rs"));
        assert!(in_default_set("crates/analysis/src/lexer.rs"));
        assert!(in_default_set("src/lib.rs"));
    }
}
