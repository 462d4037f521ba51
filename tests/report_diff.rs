//! The accuracy regression gate: a fresh quick-scale run of the whole
//! experiment registry must match the committed golden corpus under
//! `goldens/quick/` cell for cell, byte for byte.
//!
//! Any change to bigfloat, posit, logspace, or the HMM kernels either
//! leaves this test green (every report cell bit-identical) or fails
//! it with the exact experiment, table, cell, old/new values, and
//! relative delta — at which point the delta is reviewed and the
//! corpus regenerated:
//!
//! ```text
//! cargo run --release -p compstat-cli -- run --all --scale quick --out goldens/quick
//! ```

use compstat_core::diff::{diff_reports, diff_sets, load_report_dir, DiffStatus};
use compstat_core::{Report, Scale};
use compstat_runtime::{CacheMode, Runtime};
use std::path::Path;

fn goldens() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/goldens/quick"))
}

#[test]
fn fresh_quick_run_matches_the_golden_corpus() {
    let golden = load_report_dir(goldens()).expect("golden corpus loads");
    let rt = Runtime::from_env();
    let fresh: Vec<Report> = compstat_bench::registry()
        .iter()
        .map(|e| e.run(&rt, Scale::Quick))
        .collect();
    let diff = diff_sets(&golden, &fresh);
    assert_eq!(
        diff.status(),
        DiffStatus::Clean,
        "fresh quick run differs from goldens/quick — review the deltas and \
         regenerate with `compstat run --all --scale quick --out goldens/quick`:\n{}",
        diff.render_text()
    );
    assert_eq!(diff.compared.len(), compstat_bench::registry().len());
}

/// The 17 experiments that predate the HDR backend. Listed by
/// name, not derived from the registry, so a registry reshuffle cannot
/// silently shrink this guard's coverage.
const PRE_HDR_EXPERIMENTS: [&str; 17] = [
    "fig01",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "tab01",
    "tab02",
    "tab03",
    "tab04",
    "ablation-es",
    "ablation-lse",
    "ablation-scaled",
];

#[test]
fn pre_hdr_experiments_are_byte_identical_on_a_cold_cache() {
    // The HDR routing through fig01/fig03/the trace path must not
    // move a single pre-existing report byte — and not merely because a
    // warm cache replayed old oracle sweeps. Force the cache off so
    // every 256-bit sweep is recomputed through the current kernels,
    // then hold the 17 pre-HDR experiments to exact equality with the
    // committed goldens.
    let rt = Runtime::from_env().with_cache_mode(CacheMode::Off);
    let golden: Vec<Report> = load_report_dir(goldens())
        .expect("golden corpus loads")
        .into_iter()
        .filter(|r| PRE_HDR_EXPERIMENTS.contains(&r.name.as_str()))
        .collect();
    assert_eq!(golden.len(), PRE_HDR_EXPERIMENTS.len());
    let fresh: Vec<Report> = PRE_HDR_EXPERIMENTS
        .iter()
        .map(|n| {
            let e = compstat_bench::find(n).expect("pre-HDR experiment is registered");
            e.run(&rt, Scale::Quick)
        })
        .collect();
    let diff = diff_sets(&golden, &fresh);
    assert_eq!(
        diff.status(),
        DiffStatus::Clean,
        "cold-cache pre-HDR reports differ from goldens/quick:\n{}",
        diff.render_text()
    );
    assert_eq!(diff.compared.len(), PRE_HDR_EXPERIMENTS.len());
}

#[test]
fn golden_index_lists_exactly_the_registry() {
    // The corpus index lists one report per registered experiment, in
    // registry order, no more and no fewer.
    let by_index = load_report_dir(goldens()).expect("index.json loads");
    let names: Vec<&str> = by_index.iter().map(|r| r.name.as_str()).collect();
    let registry: Vec<&str> = compstat_bench::registry()
        .iter()
        .map(|e| e.name())
        .collect();
    assert_eq!(names, registry);
    for r in &by_index {
        assert_eq!(
            r.scale,
            Scale::Quick,
            "{} golden is not quick-scale",
            r.name
        );
    }
}

#[test]
fn perturbing_a_golden_metric_is_caught_with_exact_location() {
    // The gate actually bites: flip one metric in one loaded golden
    // and the differ names it with deltas.
    let golden = load_report_dir(goldens()).unwrap();
    let mut perturbed = golden.clone();
    let victim = perturbed
        .iter_mut()
        .find(|r| !r.metrics.is_empty())
        .expect("some golden has metrics");
    let name = victim.name.clone();
    let (key, value) = victim.metrics[0].clone();
    victim.metrics[0].1 = value + value.abs().max(1.0) * 0.25;

    let diff = diff_sets(&golden, &perturbed);
    assert_eq!(diff.status(), DiffStatus::Violations);
    assert_eq!(diff.changes.len(), 1, "{}", diff.render_text());
    let c = &diff.changes[0];
    assert_eq!(c.experiment, name);
    assert_eq!(c.location, format!("metric '{key}'"));
    assert!(c.rel.is_some() && c.abs.is_some(), "{c:?}");
}

#[test]
fn every_golden_report_diffs_clean_against_itself() {
    // Reflexivity over the real corpus: no false positives from the
    // differ on any committed report, table, or text block — and each
    // report, read back, writes exactly its committed bytes.
    let golden = load_report_dir(goldens()).unwrap();
    for r in &golden {
        let changes = diff_reports(r, r);
        assert!(changes.is_empty(), "{}: {changes:?}", r.name);
        let bytes = std::fs::read_to_string(goldens().join(format!("{}.json", r.name))).unwrap();
        assert_eq!(r.to_json_string(), bytes, "{} does not round-trip", r.name);
    }
}
