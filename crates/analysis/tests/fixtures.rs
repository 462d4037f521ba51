//! Fixture-based rule tests: the known-bad file in `tests/fixtures/`
//! trips `float-format` at an exact `file:line`, and the second
//! fixture — a kernel edit without a tag bump — is built as a
//! throwaway mini-workspace and caught by `kernel-tag-guard`. The
//! clippy-enforced invariants have their known-bad probes in
//! `scripts/lint-gates.sh`.

use compstat_analysis::doc::AuditDoc;
use compstat_analysis::{fingerprint, run_audit, AuditOptions};
use std::fs;
use std::path::{Path, PathBuf};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn audit_fixture(name: &str) -> AuditDoc {
    let opts = AuditOptions {
        root: manifest_dir(),
        paths: vec![manifest_dir().join("tests/fixtures").join(name)],
        fingerprints: None,
    };
    run_audit(&opts).expect("fixture audits")
}

/// Asserts the fixture yields exactly one finding, of `rule`, at
/// `line`, attributed to the fixture's workspace-relative path.
fn assert_single_finding(name: &str, rule: &str, line: u32) {
    let doc = audit_fixture(name);
    assert_eq!(doc.findings.len(), 1, "{name}: {}", doc.render_text());
    let f = &doc.findings[0];
    assert_eq!(f.rule.as_str(), rule, "{name}");
    assert_eq!(f.line, line, "{name}");
    assert_eq!(f.file, format!("tests/fixtures/{name}"));
    assert!(!doc.is_clean());
}

#[test]
fn float_format_fixture() {
    assert_single_finding("float_format.rs", "float-format", 4);
}

#[test]
fn fixtures_audited_together_report_every_rule() {
    let opts = AuditOptions {
        root: manifest_dir(),
        paths: vec![manifest_dir().join("tests/fixtures")],
        fingerprints: None,
    };
    let doc = run_audit(&opts).expect("fixtures audit");
    let mut rules: Vec<&str> = doc.findings.iter().map(|f| f.rule.as_str()).collect();
    rules.sort_unstable();
    // `kernel-tag-guard` runs on whole trees only (see below).
    assert_eq!(rules, ["float-format"], "{}", doc.render_text());
}

// ---------------------------------------------------------------------
// kernel-tag-guard: a throwaway mini-workspace
// ---------------------------------------------------------------------

const KERNEL_V1: &str = r#"
/// A demo oracle kernel.
pub const ORACLE_KERNEL_TAG: &str = "demo-oracle/v1";

pub fn kernel(x: u64) -> u64 {
    x.wrapping_mul(3)
}
"#;

fn mini_workspace(name: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/demo/src");
    fs::create_dir_all(&src).expect("mkdir src");
    fs::create_dir_all(root.join("goldens")).expect("mkdir goldens");
    fs::write(src.join("kernel.rs"), KERNEL_V1).expect("write kernel");
    root
}

fn edit_kernel(root: &Path, from: &str, to: &str) {
    let path = root.join("crates/demo/src/kernel.rs");
    let text = fs::read_to_string(&path).expect("read kernel");
    assert!(text.contains(from), "edit target present");
    fs::write(path, text.replace(from, to)).expect("write kernel");
}

fn tag_guard_findings(root: &Path) -> Vec<String> {
    let doc = run_audit(&AuditOptions::workspace(root)).expect("audit runs");
    doc.findings
        .iter()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule.as_str(), f.message))
        .collect()
}

#[test]
fn kernel_edit_without_tag_bump_is_caught() {
    let root = mini_workspace("tag-guard-edit");
    let fp = root.join(fingerprint::DEFAULT_PATH);
    fingerprint::regen(&root, &fp).expect("regen");
    assert_eq!(tag_guard_findings(&root), Vec::<String>::new());

    // Edit the kernel code without bumping the tag: hard violation,
    // attributed to the tag constant's line.
    edit_kernel(&root, "wrapping_mul(3)", "wrapping_mul(5)");
    let findings = tag_guard_findings(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].starts_with("crates/demo/src/kernel.rs:3 [kernel-tag-guard]"),
        "{findings:?}"
    );
    assert!(
        findings[0].contains("ORACLE_KERNEL_TAG is still"),
        "{findings:?}"
    );

    // Comment/whitespace edits must NOT trip the guard.
    edit_kernel(&root, "wrapping_mul(5)", "wrapping_mul(3)");
    edit_kernel(
        &root,
        "A demo oracle kernel.",
        "A demo oracle kernel, reworded.",
    );
    assert_eq!(tag_guard_findings(&root), Vec::<String>::new());
}

#[test]
fn tag_bump_requires_fingerprint_regen() {
    let root = mini_workspace("tag-guard-bump");
    let fp = root.join(fingerprint::DEFAULT_PATH);
    fingerprint::regen(&root, &fp).expect("regen");

    // Bump the tag alongside a code edit: the guard now asks for a
    // regen instead of reporting a policy violation.
    edit_kernel(&root, "wrapping_mul(3)", "wrapping_mul(7)");
    edit_kernel(&root, "demo-oracle/v1", "demo-oracle/v2");
    let findings = tag_guard_findings(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].contains("regen-fingerprints"), "{findings:?}");

    fingerprint::regen(&root, &fp).expect("regen after bump");
    assert_eq!(tag_guard_findings(&root), Vec::<String>::new());
}

#[test]
fn missing_fingerprints_file_is_a_finding() {
    let root = mini_workspace("tag-guard-missing");
    let findings = tag_guard_findings(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].contains("kernel-tag-guard"), "{findings:?}");
}
