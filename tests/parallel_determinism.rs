//! The differential test suite behind the parallel runtime's central
//! guarantee: for every wired experiment, the report produced with
//! `COMPSTAT_THREADS=1` is **bit-identical** to the one produced with
//! `COMPSTAT_THREADS=4` (and any other thread count).
//!
//! Thread counts are pinned through explicit [`Runtime`] values rather
//! than the environment variable so the cases are self-contained and
//! can run concurrently under the default test harness.

use compstat::runtime::Runtime;
use compstat_bench::experiments;
use compstat_bench::Scale;

fn serial() -> Runtime {
    Runtime::with_threads(1)
}

fn four() -> Runtime {
    Runtime::with_threads(4)
}

/// An experiment's quick-scale text report, rendered through the
/// registry.
fn text(name: &str, rt: &Runtime) -> String {
    compstat_bench::find(name)
        .expect("registered")
        .run(rt, Scale::Quick)
        .render_text()
}

#[test]
fn fig01_trace_report_is_bitwise_identical_across_thread_counts() {
    let a = text("fig01", &serial());
    let b = text("fig01", &four());
    assert_eq!(a, b);
}

#[test]
fn fig03_op_accuracy_report_is_bitwise_identical_across_thread_counts() {
    let a = text("fig03", &serial());
    let b = text("fig03", &four());
    assert_eq!(a, b);
}

#[test]
fn fig06_forward_sweep_is_bitwise_identical_across_thread_counts() {
    // The sweep's deterministic payload (posit likelihood bit
    // patterns); the timing report around it is measurement, not data.
    let a = experiments::figure6_sweep_likelihoods(Scale::Quick, &serial());
    let b = experiments::figure6_sweep_likelihoods(Scale::Quick, &four());
    let c = experiments::figure6_sweep_likelihoods(Scale::Quick, &Runtime::with_threads(3));
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn fig07_column_unit_rows_are_identical_across_thread_counts_and_match_the_serial_path() {
    // fig07 and fig08 read one per-process copy of these rows, so the
    // registry-wide comparison below sees that copy twice; this test
    // recomputes the rows at each thread count instead.
    use compstat::fpga::{perf_per_resource, perf_per_resource_from, ColumnUnit, Design};
    use compstat::pbd::{perf_dataset, perf_datasets};
    use experiments::fig07_column::column_unit_rows;

    let rows = column_unit_rows(&serial());
    assert_eq!(rows, column_unit_rows(&Runtime::with_threads(3)));
    assert_eq!(rows, column_unit_rows(&four()));

    // Field for field against the one-pass path: every dataset
    // synthesized in order, then timed from an `(N, K)` slice.
    let posit = ColumnUnit::new(Design::Posit64Es12, 8);
    let log = ColumnUnit::new(Design::LogSpace, 8);
    let datasets = perf_datasets();
    assert_eq!(rows.len(), datasets.len());
    for (i, (row, ds)) in rows.iter().zip(&datasets).enumerate() {
        let one = perf_dataset(i);
        assert_eq!((&one.name, &one.columns), (&ds.name, &ds.columns), "D{i}");
        let dims: Vec<(u64, u64)> = ds.columns.iter().map(|c| (c.n, c.k)).collect();
        assert_eq!(row.name, ds.name);
        assert_eq!(row.columns, dims.len());
        assert_eq!(row.mean_n.to_bits(), ds.mean_n().to_bits());
        for (unit, seconds) in [(&posit, row.posit_seconds), (&log, row.log_seconds)] {
            assert_eq!(seconds.to_bits(), unit.dataset_seconds(&dims).to_bits());
            let whole = perf_per_resource(unit, &dims);
            assert_eq!(whole.total_ops, row.total_ops);
            assert_eq!(perf_per_resource_from(unit, row.total_ops, seconds), whole);
        }
    }
}

#[test]
fn fig09_fig11_corpus_evals_are_identical_across_thread_counts() {
    // fig09 and fig11 read one per-process copy of these evaluations,
    // so the report comparisons below see that copy every time; this
    // test recomputes them at each thread count instead.
    use compstat::bigfloat::Context;
    use compstat::core::ErrorClass;
    use experiments::fig09_pvalues::{
        corpus_cache_key, corpus_for, evaluate_corpus_cached, FORMATS,
    };

    // `Runtime::with_threads` leaves the oracle cache off.
    let ctx = Context::new(256);
    let corpus = corpus_for(Scale::Quick);
    let key = corpus_cache_key(Scale::Quick, &corpus, &ctx);
    // One `(oracle exponent, error bits, class)` per column and format.
    let bits = |rt: Runtime| -> Vec<(Option<i64>, u64, ErrorClass)> {
        evaluate_corpus_cached(&corpus, &ctx, &rt, &key)
            .iter()
            .flat_map(|e| {
                let errors = e.errors.iter();
                errors.map(|(_, m)| (e.oracle_exp, m.log10_rel.to_bits(), m.class))
            })
            .collect()
    };
    let serial_bits = bits(serial());
    assert_eq!(serial_bits.len(), corpus.len() * FORMATS.len());
    assert_eq!(serial_bits, bits(Runtime::with_threads(3)));
    assert_eq!(serial_bits, bits(four()));
    assert_eq!(serial_bits, bits(Runtime::with_threads(64)));
}

#[test]
fn fig09_pvalue_report_is_bitwise_identical_across_thread_counts() {
    let a = text("fig09", &serial());
    let b = text("fig09", &four());
    assert_eq!(a, b);
}

#[test]
fn fig10_vicar_report_is_bitwise_identical_across_thread_counts() {
    // The RNG-dependent sweep: every model and observation sequence is
    // drawn inside the parallel region from per-item split streams, so
    // even the sampled corpus must be independent of the thread count.
    let a = text("fig10", &serial());
    let b = text("fig10", &four());
    assert_eq!(a, b);
}

#[test]
fn fig10_error_samples_are_bitwise_identical_across_thread_counts() {
    // Stronger than string equality: the raw f64 error samples.
    let a = experiments::fig10_vicar::vicar_errors(1_200, 5, 4, 99, &serial());
    let b = experiments::fig10_vicar::vicar_errors(1_200, 5, 4, 99, &four());
    assert_eq!(a.log_errors.len(), 5);
    for (x, y) in a.log_errors.iter().zip(&b.log_errors) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    for (x, y) in a.posit_errors.iter().zip(&b.posit_errors) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn fig11_lofreq_report_is_bitwise_identical_across_thread_counts() {
    let a = text("fig11", &serial());
    let b = text("fig11", &four());
    assert_eq!(a, b);
}

#[test]
fn oversubscribed_runtimes_change_nothing() {
    // More threads than work items: chunking degenerates to one item
    // per thread and the merge order still reproduces the serial run.
    let a = text("fig09", &serial());
    let b = text("fig09", &Runtime::with_threads(64));
    assert_eq!(a, b);
}

#[test]
fn every_registered_experiment_emits_identical_json_across_thread_counts() {
    // The engine-wide guarantee behind `compstat run --out`: for every
    // experiment in the registry, the full JSON document (params,
    // metrics, tables, text — everything the CLI writes to disk) is
    // byte-identical between the serial fallback and a 4-thread
    // runtime. This is the exact property `diff -r reports-t1
    // reports-t4` checks in CI, run here at the library level.
    for e in compstat_bench::registry() {
        let a = e.run(&serial(), Scale::Quick);
        let b = e.run(&four(), Scale::Quick);
        assert_eq!(
            a.to_json_string(),
            b.to_json_string(),
            "{} JSON drifts with the thread count",
            e.name()
        );
    }
}
