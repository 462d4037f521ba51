//! Tier-1 gate: the repository audits clean at HEAD.
//!
//! `compstat audit` checks the two source invariants clippy cannot
//! express: no Display-formatted floats in report paths, and no
//! oracle-kernel edits without an `ORACLE_KERNEL_TAG` bump. A
//! violation anywhere in the tree — including a stale
//! `goldens/kernel_fingerprints.json` — fails this test with the full
//! findings listing. (Clocks, env reads, hash order, `powf`, kernel
//! casts, serve panics and waiver reasons are clippy lints, configured
//! in `clippy.toml` and the workspace lint table.)

use compstat_analysis::{run_audit, AuditOptions};

#[test]
fn repository_audits_clean() {
    let root = env!("CARGO_MANIFEST_DIR");
    let audit = run_audit(&AuditOptions::workspace(root)).expect("audit runs");
    assert!(audit.files_scanned > 50, "suspiciously small audit set");
    assert!(
        audit.is_clean(),
        "compstat audit found violations:\n{}",
        audit.render_text()
    );
}
