//! # compstat-analysis
//!
//! A zero-dependency, token-aware static-analysis engine for the
//! workspace's own Rust sources — the `compstat audit` subcommand.
//!
//! Every accuracy claim this reproduction makes rests on source-level
//! invariants. Most of them are clippy lints, configured in the root
//! `clippy.toml` and scoped by lint levels in the sources: no clocks,
//! environment reads or hash-ordered collections outside the declared
//! modules, no `powf` (the `2f64.powf(x)` debug/release `exp2`
//! divergence), no silent casts in the numeric kernels, no panics in
//! the serve request path, and a reason on every waiver. This crate
//! keeps the two invariants clippy cannot express:
//!
//! * `float-format` — floats in report paths must go through the
//!   fixed-decimal/scientific renderers, never bare `{}` / `{:?}`;
//! * `kernel-tag-guard` — `ORACLE_KERNEL_TAG` must be bumped whenever
//!   an oracle kernel's code changes.
//!
//! Its modules:
//!
//! * [`lexer`] — a hand-rolled Rust lexer (comments, strings, raw
//!   strings, char literals vs. lifetimes), so rules match real tokens
//!   instead of grep hits inside string literals;
//! * [`rules`] — the `float-format` rule and the per-file analysis;
//! * [`scope`] — the default file set and where `float-format` binds;
//! * [`fingerprint`] — the `kernel-tag-guard` rule: SHA-256
//!   fingerprints of every `ORACLE_KERNEL_TAG`-carrying file against
//!   the committed `goldens/kernel_fingerprints.json`;
//! * [`doc`] — the `compstat-audit/v2` result document (text + JSON).
//!
//! The engine depends only on `compstat-core` (for its SHA-256 and
//! JSON model) and the standard library.

#![warn(missing_docs)]

pub mod doc;
pub mod fingerprint;
pub mod lexer;
pub mod rules;
pub mod scope;

use std::fs;
use std::io;
use std::path::PathBuf;

/// What to audit.
pub struct AuditOptions {
    /// Workspace root (paths in findings are relative to it).
    pub root: PathBuf,
    /// Explicit files/directories to audit; empty means the default
    /// workspace set. Explicit paths always get `float-format` (they
    /// carry no scoping information) and skip the whole-tree
    /// `kernel-tag-guard`.
    pub paths: Vec<PathBuf>,
    /// Fingerprints file; `None` means
    /// `<root>/goldens/kernel_fingerprints.json`.
    pub fingerprints: Option<PathBuf>,
}

impl AuditOptions {
    /// Audits the default workspace set under `root`.
    #[must_use]
    pub fn workspace(root: impl Into<PathBuf>) -> AuditOptions {
        AuditOptions {
            root: root.into(),
            paths: Vec::new(),
            fingerprints: None,
        }
    }

    /// The effective fingerprints path.
    #[must_use]
    pub fn fingerprints_path(&self) -> PathBuf {
        self.fingerprints
            .clone()
            .unwrap_or_else(|| self.root.join(fingerprint::DEFAULT_PATH))
    }
}

/// Runs the audit and returns the sorted result document.
pub fn run_audit(opts: &AuditOptions) -> io::Result<doc::AuditDoc> {
    let files = if opts.paths.is_empty() {
        scope::default_files(&opts.root)?
    } else {
        scope::expand_paths(&opts.paths)?
    };
    let mut out = doc::AuditDoc {
        files_scanned: files.len(),
        ..doc::AuditDoc::default()
    };
    for path in &files {
        let rel = scope::rel_path(&opts.root, path);
        if scope::float_format_applies(&rel) {
            let analysis = rules::FileAnalysis::new(&rel, &fs::read_to_string(path)?);
            out.findings.extend(rules::float_format(&analysis));
        }
    }
    if opts.paths.is_empty() {
        out.findings
            .extend(fingerprint::check(&opts.root, &opts.fingerprints_path())?);
    }
    out.sort();
    Ok(out)
}
