//! Model-driven tables and figures: Table I (format ranges), Table II
//! (arithmetic units), Figure 4 (PE latency), Figure 5 (timeline),
//! Tables III/IV (accelerator resources, model vs paper).

use compstat_core::report::{fmt_reduction, Report, Table};
use compstat_core::Scale;
use compstat_fpga::{
    column_pe, column_unit_resources, forward_pe, forward_unit_resources, paper_column_rows,
    paper_forward_rows, render_timeline, simulate_forward, table2_units, units_per_slr, ColumnUnit,
    Design, ForwardUnit,
};
use compstat_posit::FormatInfo;

/// Registry name of the Table I experiment.
pub const NAME_TAB1: &str = "tab01";
/// Registry title of the Table I experiment.
pub const TITLE_TAB1: &str = "Table I: dynamic range and precision of number formats";
/// Registry name of the Table II experiment.
pub const NAME_TAB2: &str = "tab02";
/// Registry title of the Table II experiment.
pub const TITLE_TAB2: &str = "Table II: resource utilization of individual arithmetic units";
/// Registry name of the Figure 4 experiment.
pub const NAME_FIG4: &str = "fig04";
/// Registry title of the Figure 4 experiment.
pub const TITLE_FIG4: &str = "Figure 4: PE stage structure and latency formulas";
/// Registry name of the Figure 5 experiment.
pub const NAME_FIG5: &str = "fig05";
/// Registry title of the Figure 5 experiment.
pub const TITLE_FIG5: &str = "Figure 5: forward-unit execution timeline";
/// Registry name of the Table III experiment.
pub const NAME_TAB3: &str = "tab03";
/// Registry title of the Table III experiment.
pub const TITLE_TAB3: &str = "Table III: forward-unit resources (model vs paper)";
/// Registry name of the Table IV experiment.
pub const NAME_TAB4: &str = "tab04";
/// Registry title of the Table IV experiment.
pub const TITLE_TAB4: &str = "Table IV: column-unit resources (model vs paper)";

/// Table I report: dynamic range and precision of the number formats.
#[must_use]
pub fn tab1_report(scale: Scale) -> Report {
    let mut t = Table::new(vec![
        "Format".into(),
        "useed".into(),
        "Smallest positive".into(),
        "Max fraction bits".into(),
    ]);
    t.row(vec![
        "binary64".into(),
        "-".into(),
        "2^-1074".into(),
        "52".into(),
    ]);
    for es in [6u32, 9, 12, 15, 18, 21] {
        let info = FormatInfo::new(64, es);
        t.row(vec![
            format!("posit(64,{es})"),
            format!("2^{}", info.useed_log2()),
            format!("2^{}", info.min_positive_exp()),
            info.max_fraction_bits().to_string(),
        ]);
    }
    let mut r = Report::new(NAME_TAB1, TITLE_TAB1, scale);
    r.table(t);
    r
}

/// Table II report: per-unit resource/latency catalog (the model's
/// calibration constants).
#[must_use]
pub fn tab2_report(scale: Scale) -> Report {
    let mut t = Table::new(vec![
        "Arithmetic Unit".into(),
        "LUT".into(),
        "Register".into(),
        "DSP".into(),
        "Cycles".into(),
        "Fmax (MHz)".into(),
    ]);
    for u in table2_units() {
        t.row(vec![
            u.name.into(),
            u.lut.to_string(),
            u.register.to_string(),
            u.dsp.to_string(),
            u.cycles.to_string(),
            u.fmax_mhz.to_string(),
        ]);
    }
    let mut r = Report::new(NAME_TAB2, TITLE_TAB2, scale);
    r.metric("lse_latency_ratio", 64.0 / 6.0);
    r.metric("lse_lut_ratio", 5_076.0 / 679.0);
    r.table(t);
    r.text(format!(
        "\nkey ratios: LSE/binary64-add latency = {:.1}x, LUT = {:.1}x (the paper's '10x slower, ~8x LUTs/FFs')\n",
        64.0 / 6.0,
        5_076.0 / 679.0
    ));
    r
}

/// Figure 4 report: PE stage structure and the latency formulas.
#[must_use]
pub fn fig4_report(scale: Scale) -> Report {
    let mut r = Report::new(NAME_FIG4, TITLE_FIG4, scale);
    let mut out = String::new();
    for design in [Design::LogSpace, Design::Posit64Es18] {
        let pe = forward_pe(design, 64);
        out.push_str(&format!("{} (H=64):\n", pe.name));
        for s in &pe.stages {
            out.push_str(&format!("  {:<55} {:>3} cycles\n", s.name, s.latency));
        }
        out.push_str(&format!("  total: {} cycles\n\n", pe.latency()));
    }
    r.text(out);
    let mut t = Table::new(vec![
        "H".into(),
        "log PE (62+9log2H)".into(),
        "posit PE (24+8log2H)".into(),
        "reduction (38+log2H)".into(),
    ]);
    for h in [13u64, 32, 64, 128] {
        let l = forward_pe(Design::LogSpace, h).latency();
        let p = forward_pe(Design::Posit64Es18, h).latency();
        t.row(vec![
            h.to_string(),
            l.to_string(),
            p.to_string(),
            (l - p).to_string(),
        ]);
    }
    r.table(t);
    r.text(format!(
        "\ncolumn-unit PEs: log {} cycles, posit {} cycles (paper: 73 vs 30)\n",
        column_pe(Design::LogSpace).latency(),
        column_pe(Design::Posit64Es12).latency()
    ));
    r
}

/// Figure 5 report: execution timeline trace from the event simulator.
#[must_use]
pub fn fig5_report(scale: Scale) -> Report {
    let mut r = Report::new(NAME_FIG5, TITLE_FIG5, scale).param("sites", 6);
    for design in [Design::LogSpace, Design::Posit64Es18] {
        let unit = ForwardUnit::new(design, 13);
        let events = simulate_forward(&unit, 6);
        r.text(format!(
            "{} forward unit, H=13 (prefetch-bound: {}):\n{}\n",
            design.name(),
            unit.is_prefetch_bound(),
            render_timeline(&events, 6)
        ));
    }
    r
}

/// Table III report: forward-unit resources, model vs paper.
#[must_use]
pub fn tab3_report(scale: Scale) -> Report {
    let mut t = Table::new(vec![
        "Design".into(),
        "H".into(),
        "CLB".into(),
        "LUT".into(),
        "Register".into(),
        "DSP".into(),
        "SRAM".into(),
        "Fmax".into(),
        "source".into(),
    ]);
    for h in [13u64, 32, 64, 128] {
        for design in [Design::LogSpace, Design::Posit64Es18] {
            let unit = ForwardUnit::new(design, h);
            let m = forward_unit_resources(&unit);
            t.row(vec![
                design.name().into(),
                h.to_string(),
                m.clb.to_string(),
                m.lut.to_string(),
                m.register.to_string(),
                m.dsp.to_string(),
                m.sram.to_string(),
                format!("{:.0}", unit.max_clock_mhz()),
                "model".into(),
            ]);
            if let Some(row) = paper_forward_rows()
                .iter()
                .find(|r| r.design == design && r.param == h)
            {
                t.row(vec![
                    "".into(),
                    "".into(),
                    row.resources.clb.to_string(),
                    row.resources.lut.to_string(),
                    row.resources.register.to_string(),
                    row.resources.dsp.to_string(),
                    row.resources.sram.to_string(),
                    row.fmax_mhz.to_string(),
                    "paper".into(),
                ]);
            }
        }
        // Reduction row (model).
        let l = forward_unit_resources(&ForwardUnit::new(Design::LogSpace, h));
        let p = forward_unit_resources(&ForwardUnit::new(Design::Posit64Es18, h));
        t.row(vec![
            "Reduction".into(),
            h.to_string(),
            fmt_reduction(l.clb as f64, p.clb as f64),
            fmt_reduction(l.lut as f64, p.lut as f64),
            fmt_reduction(l.register as f64, p.register as f64),
            fmt_reduction(l.dsp as f64, p.dsp as f64),
            fmt_reduction(l.sram as f64, p.sram as f64),
            "".into(),
            "model".into(),
        ]);
    }
    let mut r = Report::new(NAME_TAB3, TITLE_TAB3, scale);
    r.table(t);
    r
}

/// Table IV report: column-unit resources, model vs paper, plus the SLR
/// packing claim of Section VI-C.
#[must_use]
pub fn tab4_report(scale: Scale) -> Report {
    let mut t = Table::new(vec![
        "Design".into(),
        "PEs".into(),
        "CLB".into(),
        "LUT".into(),
        "Register".into(),
        "DSP".into(),
        "SRAM".into(),
        "source".into(),
    ]);
    for design in [Design::LogSpace, Design::Posit64Es12] {
        let unit = ColumnUnit::new(design, 8);
        let m = column_unit_resources(&unit);
        t.row(vec![
            design.name().into(),
            "8".into(),
            m.clb.to_string(),
            m.lut.to_string(),
            m.register.to_string(),
            m.dsp.to_string(),
            m.sram.to_string(),
            "model".into(),
        ]);
        if let Some(row) = paper_column_rows().iter().find(|r| r.design == design) {
            t.row(vec![
                "".into(),
                "8".into(),
                row.resources.clb.to_string(),
                row.resources.lut.to_string(),
                row.resources.register.to_string(),
                row.resources.dsp.to_string(),
                row.resources.sram.to_string(),
                "paper".into(),
            ]);
        }
    }
    let l = column_unit_resources(&ColumnUnit::new(Design::LogSpace, 8));
    let p = column_unit_resources(&ColumnUnit::new(Design::Posit64Es12, 8));
    t.row(vec![
        "Reduction".into(),
        "-".into(),
        fmt_reduction(l.clb as f64, p.clb as f64),
        fmt_reduction(l.lut as f64, p.lut as f64),
        fmt_reduction(l.register as f64, p.register as f64),
        fmt_reduction(l.dsp as f64, p.dsp as f64),
        "-".into(),
        "model".into(),
    ]);
    let log_per_slr = units_per_slr(paper_column_rows()[0].resources.clb);
    let posit_per_slr = units_per_slr(paper_column_rows()[1].resources.clb);
    let mut r = Report::new(NAME_TAB4, TITLE_TAB4, scale);
    r.metric("log_units_per_slr", log_per_slr as f64);
    r.metric("posit_units_per_slr", posit_per_slr as f64);
    r.table(t);
    r.text(format!(
        "\nSLR packing (paper CLB counts): {log_per_slr} log-based vs {posit_per_slr} posit-based column units per SLR\n"
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_runtime::Runtime;

    /// The experiment's text report, through the registry.
    fn text(name: &str) -> String {
        crate::find(name)
            .unwrap()
            .run(&Runtime::serial(), Scale::Default)
            .render_text()
    }

    #[test]
    fn table1_contains_table_one_values() {
        let r = text(NAME_TAB1);
        assert!(r.contains("2^-31744"));
        assert!(r.contains("2^-16252928"));
        assert!(r.contains("posit(64,21)"));
    }

    #[test]
    fn table2_lists_all_units() {
        let r = text(NAME_TAB2);
        for name in [
            "binary64 add",
            "Log add",
            "posit(64,12) add",
            "posit(64,18) mul",
        ] {
            assert!(r.contains(name), "missing {name}");
        }
    }

    #[test]
    fn figure4_shows_formulas() {
        let r = text(NAME_FIG4);
        assert!(r.contains("116")); // log PE at H=64: 62+9*6
        assert!(r.contains("72")); // posit PE at H=64: 24+8*6
        assert!(r.contains("73 vs 30") || r.contains("log 73"));
    }

    #[test]
    fn figure5_renders_two_timelines() {
        let r = text(NAME_FIG5);
        assert!(r.matches("outer").count() >= 2);
        assert!(r.contains("prefetch-bound: true"));
    }

    #[test]
    fn tables_3_and_4_have_model_and_paper_rows() {
        let r3 = text(NAME_TAB3);
        assert!(r3.contains("model"));
        assert!(r3.contains("paper"));
        assert!(r3.contains("68966")); // paper LUT at H=13
        let r4 = text(NAME_TAB4);
        assert!(r4.contains("75894"));
        assert!(r4.contains("per SLR"));
    }
}
