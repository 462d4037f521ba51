//! Workspace smoke test: every example must compile and exit 0.
//!
//! Each test shells out to `cargo run --example`, so they are `#[ignore]`
//! by default to keep plain `cargo test` hermetic and fast; CI runs them
//! with `--include-ignored` (see .github/workflows/ci.yml). The examples
//! use fixed workload sizes that finish in seconds (they take no scale;
//! only `compstat run` and `compstat bench` do).

use std::process::Command;

fn run_example(name: &str) {
    // Use the same cargo that is running this test, against this
    // workspace (CARGO and CARGO_MANIFEST_DIR are set by cargo for
    // integration tests).
    #[expect(
        clippy::disallowed_methods,
        reason = "a test harness locating the cargo that runs it; no report reads this"
    )]
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let output = Command::new(cargo)
        .current_dir(manifest_dir)
        .args(["run", "--release", "--quiet", "--example", name])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
    assert!(
        output.status.success(),
        "example {name} exited with {}:\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(
        !output.stdout.is_empty(),
        "example {name} printed nothing; its report is its whole point"
    );
}

#[test]
#[ignore = "spawns cargo; run in CI via --include-ignored"]
fn quickstart_runs() {
    run_example("quickstart");
}

#[test]
#[ignore = "spawns cargo; run in CI via --include-ignored"]
fn accelerator_design_space_runs() {
    run_example("accelerator_design_space");
}

#[test]
#[ignore = "spawns cargo; run in CI via --include-ignored"]
fn vicar_phylogenetics_runs() {
    run_example("vicar_phylogenetics");
}

#[test]
#[ignore = "spawns cargo; run in CI via --include-ignored"]
fn lofreq_variant_calling_runs() {
    run_example("lofreq_variant_calling");
}
