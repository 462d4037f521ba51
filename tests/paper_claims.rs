//! End-to-end assertions of the paper's headline claims, each tagged
//! with where the paper makes it — plus golden-value regression
//! snapshots of the quick-scale reports, so future refactors cannot
//! silently drift the numbers the reports stand on.

use compstat::fpga::{
    column_unit_resources, forward_pe, forward_unit_resources, paper_column_rows,
    perf_per_resource, units_per_slr, ColumnUnit, Design, ForwardUnit,
};
use compstat::posit::{FormatInfo, P64E18, P8E2};
use compstat::runtime::Runtime;
use compstat_bench::{experiments, Scale};

#[test]
fn abstract_two_orders_of_magnitude_accuracy_machinery() {
    // The accuracy side is covered at scale by the bench suite; here we
    // verify the *mechanism*: at VICAR-like magnitudes (2^-600_000) the
    // log representation has ~2^-33 granularity while posit(64,18) keeps
    // ~2^-44 — an ~11-bit (3+ decade) per-value advantage.
    let scale: i64 = -600_000;
    // log-space: ln(2^-600000) ~ -415888; ulp of that f64:
    let ln_val = scale as f64 * std::f64::consts::LN_2;
    let ulp_ln = ln_val.abs() * f64::EPSILON; // relative granularity of the value itself
    let granularity_log = ulp_ln; // d(e^l)/e^l = dl
                                  // posit(64,18) at that scale: fraction bits available.
    let frac_bits = FormatInfo::new(64, 18).fraction_bits_at_scale(scale);
    let granularity_posit = 2f64.powi(-(frac_bits as i32));
    assert!(
        granularity_log / granularity_posit > 100.0,
        "log granularity {granularity_log:e} vs posit {granularity_posit:e}"
    );
}

#[test]
fn abstract_up_to_60_percent_lower_resource_utilization() {
    let l = column_unit_resources(&ColumnUnit::new(Design::LogSpace, 8));
    let p = column_unit_resources(&ColumnUnit::new(Design::Posit64Es12, 8));
    let lut_reduction = 1.0 - p.lut as f64 / l.lut as f64;
    assert!(lut_reduction > 0.55, "LUT reduction {lut_reduction}");
    let dsp_reduction = 1.0 - p.dsp as f64 / l.dsp as f64;
    assert!(dsp_reduction > 0.55, "DSP reduction {dsp_reduction}");
}

#[test]
fn abstract_up_to_1_3x_speedup() {
    // "up to 1.3x speedup" == up to ~33% single-unit improvement.
    let mut best = 0.0f64;
    for h in [13u64, 32, 64, 128] {
        let p = ForwardUnit::new(Design::Posit64Es18, h).wall_clock_seconds(500_000);
        let l = ForwardUnit::new(Design::LogSpace, h).wall_clock_seconds(500_000);
        best = best.max(l / p);
    }
    assert!(best > 1.25 && best < 1.45, "best speedup {best}");
}

#[test]
fn abstract_2x_performance_per_resource() {
    let cols: Vec<(u64, u64)> = (0..128).map(|i| (300_000, 100 + (i % 9) * 80)).collect();
    let p = perf_per_resource(&ColumnUnit::new(Design::Posit64Es12, 8), &cols);
    let l = perf_per_resource(&ColumnUnit::new(Design::LogSpace, 8), &cols);
    let ratio = p.mmaps_per_clb / l.mmaps_per_clb;
    assert!(ratio > 1.7, "performance-per-CLB ratio {ratio}");
}

#[test]
#[expect(
    clippy::unusual_byte_groupings,
    reason = "groups are posit fields: sign_regime_exp_frac"
)]
fn section3_posit_worked_example() {
    // posit(8,2) pattern 0_0001_10_1 == 1.5 * 2^-10 (Section III).
    assert_eq!(P8E2::from_bits(0b0_0001_10_1).to_f64(), 1.5 / 1024.0);
}

#[test]
fn section5_pe_latency_formulas() {
    for h in [13u64, 32, 64, 128] {
        let t = 64 - (h - 1).leading_zeros() as u64;
        assert_eq!(forward_pe(Design::LogSpace, h).latency(), 62 + 9 * t);
        assert_eq!(forward_pe(Design::Posit64Es18, h).latency(), 24 + 8 * t);
    }
}

#[test]
fn section6_slr_packing() {
    let rows = paper_column_rows();
    assert_eq!(
        units_per_slr(rows[0].resources.clb),
        4,
        "at most 4 log units"
    );
    assert!(
        units_per_slr(rows[1].resources.clb) >= 10,
        "easily 10 posit units"
    );
}

#[test]
fn table1_smallest_positive_numbers() {
    for (es, exp) in [
        (6u32, -3_968i64),
        (9, -31_744),
        (12, -253_952),
        (15, -2_031_616),
        (18, -16_252_928),
        (21, -130_023_424),
    ] {
        assert_eq!(
            FormatInfo::new(64, es).min_positive_exp(),
            exp,
            "posit(64,{es})"
        );
    }
    // And the runtime value agrees for the headline config.
    assert_eq!(P64E18::MIN_POSITIVE.scale(), Some(-16_252_928));
}

#[test]
fn figure6_shape_posit_always_wins_gap_narrows() {
    let imp = |h: u64| {
        let p = ForwardUnit::new(Design::Posit64Es18, h).wall_clock_seconds(500_000);
        let l = ForwardUnit::new(Design::LogSpace, h).wall_clock_seconds(500_000);
        (l - p) / l
    };
    let series: Vec<f64> = [13u64, 32, 64, 128].iter().map(|&h| imp(h)).collect();
    assert!(
        series.iter().all(|&x| x > 0.05),
        "posit wins everywhere: {series:?}"
    );
    assert!(series[3] < series[0], "gap narrows with H: {series:?}");
}

// ---------------------------------------------------------------------
// Golden-value regression snapshots (quick scale).
//
// These strings were captured from the current implementation and are
// deterministic by construction: seeded corpora, and the parallel
// runtime guarantees bitwise-identical reports for every thread count
// (see tests/parallel_determinism.rs). If one of these fails after a
// refactor, the refactor changed a reported number — that must be a
// deliberate, documented decision, never a silent drift.
// ---------------------------------------------------------------------

#[test]
fn golden_fig01_quick_scale_trace() {
    let r = experiments::figure1_report(Scale::Quick, &Runtime::from_env());
    // Exact decay-rate summary of the HCG-like model at T=500.
    assert!(
        r.contains("decay rate: 5.82 bits/site"),
        "fig01 decay rate drifted:\n{r}"
    );
    // Anchor points of the exponent series: start, the binary64
    // crossing, and the final recorded iteration.
    for row in [
        "0            -6",
        "200          -1168              <- below binary64's smallest positive (2^-1074)",
        "480          -2794",
    ] {
        assert!(r.contains(row), "fig01 trace row drifted: {row:?}\n{r}");
    }
}

#[test]
fn golden_fig09_quick_scale_summary() {
    let r = experiments::figure9_report(Scale::Quick, &Runtime::from_env());
    // The range-failure tallies across the 40-column quick corpus.
    for line in [
        "binary64: 5 underflows, 0 results with relative error >= 1",
        "Log: 0 underflows, 0 results with relative error >= 1",
        "posit(64,9): 0 underflows, 0 results with relative error >= 1",
        "posit(64,12): 0 underflows, 0 results with relative error >= 1",
        "posit(64,18): 0 underflows, 0 results with relative error >= 1",
    ] {
        assert!(r.contains(line), "fig09 tally drifted: {line:?}\n{r}");
    }
    // One full box-statistics row per regime: beyond binary64's range
    // (posit(64,12) at its accuracy peak) and the shallow bucket.
    for row in [
        "[-16000, -4096)       binary64      -       -       -       5   0              5",
        "[-16000, -4096)       posit(64,12)  -14.39  -14.26  -14.25  5   0              0",
        "[-200, 1)             binary64      -15.85  -15.72  -15.47  26  0              0",
        "[-200, 1)             Log           -14.62  -14.21  -13.99  26  0              0",
    ] {
        assert!(r.contains(row), "fig09 bucket row drifted: {row:?}\n{r}");
    }
}

#[test]
fn golden_table2_arithmetic_unit_catalog() {
    // Table II is the model's calibration backbone: every cell pinned.
    let want = "\
Arithmetic Unit         LUT   Register  DSP  Cycles  Fmax (MHz)
---------------------------------------------------------------
binary64 add            679   587       0    6       480
Log add (binary64 LSE)  5076  5287      34   64      346
posit(64,12) add        1064  1005      0    8       354
posit(64,18) add        1012  974       0    8       358
binary64 mul            213   484       6    8       480
Log mul (binary64 add)  679   587       0    6       480
posit(64,12) mul        618   1004      9    12      336
posit(64,18) mul        558   969       10   12      336
";
    let got = experiments::table2_report();
    assert!(
        got.starts_with(want),
        "Table II drifted.\nwant prefix:\n{want}\ngot:\n{got}"
    );
    assert!(got.contains("10x slower, ~8x LUTs/FFs"));
}

#[test]
fn golden_reports_flow_unchanged_through_the_engine() {
    // Differential lockdown of the engine refactor: running an
    // experiment through its registry `Experiment` object renders the
    // byte-identical text the pre-refactor free functions produced
    // (which the golden tests above pin value-for-value).
    let rt = Runtime::from_env();
    let cases: [(&str, String); 3] = [
        ("fig01", experiments::figure1_report(Scale::Quick, &rt)),
        ("fig09", experiments::figure9_report(Scale::Quick, &rt)),
        ("tab02", experiments::table2_report()),
    ];
    for (name, legacy) in cases {
        let engine = compstat_bench::find(name)
            .expect("registered")
            .run(&rt, Scale::Quick)
            .render_text();
        assert_eq!(engine, legacy, "{name} text drifted through the engine");
    }
}

#[test]
fn golden_tab02_json_document() {
    // The full JSON byte stream of the cheapest fully-static report:
    // pins the hand-rolled writer (key order, escaping, number
    // formatting) and the Table II cells in one assertion. If this
    // fails, either the report content or the report *format* changed —
    // both must be deliberate, documented decisions.
    let want = concat!(
        r#"{"schema":"compstat-report/v1","experiment":"tab02","title":"Table II: "#,
        r#"resource utilization of individual arithmetic units","scale":"quick","#,
        r#""params":{},"metrics":{"lse_latency_ratio":10.666666666666666,"#,
        r#""lse_lut_ratio":7.475699558173785},"blocks":[{"kind":"table","#,
        r#""headers":["Arithmetic Unit","LUT","Register","DSP","Cycles","Fmax (MHz)"],"#,
        r#""rows":[["binary64 add","679","587","0","6","480"],"#,
        r#"["Log add (binary64 LSE)","5076","5287","34","64","346"],"#,
        r#"["posit(64,12) add","1064","1005","0","8","354"],"#,
        r#"["posit(64,18) add","1012","974","0","8","358"],"#,
        r#"["binary64 mul","213","484","6","8","480"],"#,
        r#"["Log mul (binary64 add)","679","587","0","6","480"],"#,
        r#"["posit(64,12) mul","618","1004","9","12","336"],"#,
        r#"["posit(64,18) mul","558","969","10","12","336"]]},"#,
        r#"{"kind":"text","text":"\nkey ratios: LSE/binary64-add latency = 10.7x, "#,
        r#"LUT = 7.5x (the paper's '10x slower, ~8x LUTs/FFs')\n"}]}"#,
        "\n",
    );
    let got = compstat_bench::find("tab02")
        .expect("registered")
        .run(&Runtime::from_env(), Scale::Quick)
        .to_json_string();
    assert_eq!(got, want, "tab02 JSON drifted");
}

#[test]
fn resource_model_tracks_reported_tables_loosely() {
    // Sanity guard: composed estimates stay within 30% of every reported
    // LUT cell (tighter assertions live in the fpga crate's tests).
    for row in compstat::fpga::paper_forward_rows() {
        let got = forward_unit_resources(&ForwardUnit::new(row.design, row.param));
        let rel = (got.lut as f64 - row.resources.lut as f64).abs() / row.resources.lut as f64;
        assert!(rel < 0.30, "{:?} H={}: {rel}", row.design, row.param);
    }
}
