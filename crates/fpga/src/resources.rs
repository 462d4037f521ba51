//! Resource modeling: bottom-up composition from the Table II unit
//! catalog plus shell (prefetcher/control/interconnect) terms, CLB
//! packing, and SLR fitting — reproducing Tables III and IV and the
//! Section VI-C packing claims.
//!
//! The paper's reported tables are embedded as [`paper_forward_rows`]
//! and [`paper_column_rows`] so every bench prints *model vs paper*
//! side by side; the composition itself uses only unit costs and the
//! documented shell constants below.

use crate::forward_unit::{ColumnUnit, ForwardUnit};
use crate::units::Design;

/// A resource bundle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Resources {
    /// Configurable logic blocks (computed via [`clb_estimate`]).
    pub clb: u64,
    /// Lookup tables.
    pub lut: u64,
    /// Flip-flops.
    pub register: u64,
    /// DSP slices.
    pub dsp: u64,
    /// Block-SRAM tiles.
    pub sram: u64,
}

/// Shell cost (prefetcher, AXI/DRAM interface, control FSM,
/// interconnect) for a forward unit: calibrated affine model
/// `base + slope * H`. The log design's wide LSE datapath needs more
/// routing per state.
fn forward_shell(design: Design, h: u64) -> Resources {
    match design {
        Design::LogSpace => Resources {
            clb: 0,
            lut: 16_000 + 574 * h,
            register: 12_000 + 380 * h,
            dsp: 80 + h / 2,
            sram: 0,
        },
        _ => Resources {
            clb: 0,
            lut: 4_500 + 120 * h,
            register: 9_000 + 320 * h,
            dsp: 17,
            sram: 0,
        },
    }
}

/// SRAM tiles for a forward unit: A/B/alpha banked three ways per state
/// for single-cycle inner-loop issue, plus the A matrix's own 36Kb
/// tiles; at H=128 the dual-pass design fully partitions A per lane and
/// pass, which is what blows Table III's SRAM column up from ~250 to
/// ~1,400 tiles.
fn forward_sram(h: u64) -> u64 {
    if h >= 128 {
        // Full per-lane, per-pass partitioning: ~11 tiles per state.
        11 * h
    } else {
        // 3 banks per state + A's raw capacity in 36Kb tiles.
        let a_tiles = (h * h * 8 * 8).div_ceil(36 * 1024);
        3 * h + a_tiles
    }
}

/// CLB estimate from LUT/FF totals: a U250 CLB has 8 LUTs and 16 FFs;
/// real designs pack at 40-75% efficiency. `eff` is calibrated per
/// design family against Tables III/IV (see [`clb_estimate`]).
#[must_use]
fn clb_estimate_with_eff(lut: u64, register: u64, eff: f64) -> u64 {
    let by_lut = lut as f64 / 8.0;
    let by_ff = register as f64 / 16.0;
    (by_lut.max(by_ff) / eff).round() as u64
}

/// CLB estimate for *forward units* (log packs at ~0.62, posit ~0.52).
#[must_use]
pub fn clb_estimate(lut: u64, register: u64, design: Design) -> u64 {
    let eff = match design {
        Design::LogSpace => 0.62,
        _ => 0.52,
    };
    clb_estimate_with_eff(lut, register, eff)
}

/// Composed resource estimate for a forward unit.
#[must_use]
pub fn forward_unit_resources(unit: &ForwardUnit) -> Resources {
    let pe = unit.pe();
    let shell = forward_shell(unit.design(), unit.h());
    let lut = pe.lut() + shell.lut;
    let register = pe.register() + shell.register;
    let dsp = pe.dsp() + shell.dsp;
    let sram = forward_sram(unit.h());
    Resources {
        clb: clb_estimate(lut, register, unit.design()),
        lut,
        register,
        dsp,
        sram,
    }
}

/// Composed resource estimate for a column unit (8 PEs in the paper).
#[must_use]
pub fn column_unit_resources(unit: &ColumnUnit) -> Resources {
    let pe = unit.pe();
    let pes = unit.num_pes();
    let (shell_lut, shell_reg, shell_dsp, sram) = match unit.design() {
        // The log column unit's shell: per-PE LSE plumbing is heavy.
        Design::LogSpace => (
            17_000 + 1_000 * pes,
            15_000 + 1_200 * pes,
            50 + 5 * pes,
            236,
        ),
        // Posit shell includes the shared complement adder per PE.
        _ => (8_000 + 110 * pes, 8_000 + 700 * pes, 9, 258),
    };
    let lut = pe.lut() * pes + shell_lut;
    let register = pe.register() * pes + shell_reg;
    let dsp = pe.dsp() * pes + shell_dsp;
    // Column units pack less densely (Table IV: posit at ~0.43).
    let eff = match unit.design() {
        Design::LogSpace => 0.62,
        _ => 0.43,
    };
    Resources {
        clb: clb_estimate_with_eff(lut, register, eff),
        lut,
        register,
        dsp,
        sram,
    }
}

/// One row of Table III as reported in the paper.
#[derive(Clone, Copy, Debug)]
pub struct PaperRow {
    /// Design.
    pub design: Design,
    /// H (forward units) or PE count (column units).
    pub param: u64,
    /// Reported resources.
    pub resources: Resources,
    /// Reported maximum clock frequency (MHz).
    pub fmax_mhz: u64,
}

/// Table III: resource use of forward algorithm units (paper-reported).
#[must_use]
pub fn paper_forward_rows() -> Vec<PaperRow> {
    use Design::{LogSpace as L, Posit64Es18 as P};
    let row = |design, param, clb, lut, register, dsp, sram, fmax| PaperRow {
        design,
        param,
        resources: Resources {
            clb,
            lut,
            register,
            dsp,
            sram,
        },
        fmax_mhz: fmax,
    };
    vec![
        row(L, 13, 14_308, 68_966, 61_720, 275, 43, 345),
        row(P, 13, 6_272, 26_093, 32_271, 143, 43, 330),
        row(L, 32, 27_264, 145_300, 119_435, 560, 98, 345),
        row(P, 32, 12_090, 55_910, 67_906, 314, 102, 330),
        row(L, 64, 47_058, 273_525, 216_083, 1_021, 250, 332),
        row(P, 64, 23_187, 103_948, 125_875, 602, 258, 330),
        row(L, 128, 50_690, 308_719, 258_834, 1_040, 1_406, 308),
        row(P, 128, 23_775, 123_011, 157_696, 602, 1_410, 300),
    ]
}

/// Table IV: resource use of column units (paper-reported).
#[must_use]
pub fn paper_column_rows() -> Vec<PaperRow> {
    let row = |design, param, clb, lut, register, dsp, sram, fmax| PaperRow {
        design,
        param,
        resources: Resources {
            clb,
            lut,
            register,
            dsp,
            sram,
        },
        fmax_mhz: fmax,
    };
    vec![
        row(Design::LogSpace, 8, 15_476, 75_894, 76_300, 386, 236, 341),
        row(Design::Posit64Es12, 8, 8_619, 27_270, 37_963, 153, 258, 330),
    ]
}

/// SLR (super logic region) packing model for Section VI-C: a U250 SLR
/// offers ~54,000 usable CLBs; replicated units share one shell
/// (prefetcher + DRAM interface), so each extra unit costs
/// `unit_clb - SHELL_SHARED_CLB`.
pub const SLR_CLBS: u64 = 54_000;

/// CLBs of the shared shell (amortized across replicated units).
pub const SHELL_SHARED_CLB: u64 = 5_000;

/// How many copies of a unit with `unit_clb` CLBs fit in one SLR.
#[must_use]
pub fn units_per_slr(unit_clb: u64) -> u64 {
    if unit_clb == 0 {
        return 0;
    }
    let incremental = unit_clb.saturating_sub(SHELL_SHARED_CLB).max(1);
    if unit_clb > SLR_CLBS {
        return 0;
    }
    1 + (SLR_CLBS - unit_clb) / incremental
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Design;

    fn pct_err(model: u64, paper: u64) -> f64 {
        (model as f64 - paper as f64).abs() / paper as f64
    }

    #[test]
    fn forward_resources_track_table3() {
        for row in paper_forward_rows() {
            let unit = ForwardUnit::new(row.design, row.param);
            let got = forward_unit_resources(&unit);
            assert!(
                pct_err(got.lut, row.resources.lut) < 0.30,
                "{} H={}: LUT model {} vs paper {}",
                unit.design().name(),
                row.param,
                got.lut,
                row.resources.lut
            );
            assert!(
                pct_err(got.register, row.resources.register) < 0.30,
                "{} H={}: FF model {} vs paper {}",
                unit.design().name(),
                row.param,
                got.register,
                row.resources.register
            );
            assert!(
                pct_err(got.dsp, row.resources.dsp) < 0.30,
                "{} H={}: DSP model {} vs paper {}",
                unit.design().name(),
                row.param,
                got.dsp,
                row.resources.dsp
            );
            assert!(
                pct_err(got.clb, row.resources.clb) < 0.35,
                "{} H={}: CLB model {} vs paper {}",
                unit.design().name(),
                row.param,
                got.clb,
                row.resources.clb
            );
        }
    }

    #[test]
    fn forward_reduction_percentages_match_paper_shape() {
        // Paper: posit uses ~60-62% fewer LUTs, ~39-48% fewer registers,
        // ~41-48% fewer DSPs, >50% fewer CLBs.
        for h in [13u64, 32, 64, 128] {
            let l = forward_unit_resources(&ForwardUnit::new(Design::LogSpace, h));
            let p = forward_unit_resources(&ForwardUnit::new(Design::Posit64Es18, h));
            let lut_red = 1.0 - p.lut as f64 / l.lut as f64;
            assert!(
                (0.50..0.72).contains(&lut_red),
                "H={h}: LUT reduction {lut_red}"
            );
            let ff_red = 1.0 - p.register as f64 / l.register as f64;
            assert!(
                (0.30..0.60).contains(&ff_red),
                "H={h}: FF reduction {ff_red}"
            );
            let clb_red = 1.0 - p.clb as f64 / l.clb as f64;
            assert!(
                (0.40..0.70).contains(&clb_red),
                "H={h}: CLB reduction {clb_red}"
            );
        }
    }

    #[test]
    fn column_resources_track_table4() {
        for row in paper_column_rows() {
            let unit = ColumnUnit::new(row.design, row.param);
            let got = column_unit_resources(&unit);
            assert!(
                pct_err(got.lut, row.resources.lut) < 0.30,
                "{}: LUT model {} vs paper {}",
                row.design.name(),
                got.lut,
                row.resources.lut
            );
            assert!(
                pct_err(got.clb, row.resources.clb) < 0.35,
                "{}: CLB model {} vs paper {}",
                row.design.name(),
                got.clb,
                row.resources.clb
            );
        }
        // The headline: ~44% CLB, ~64% LUT reduction.
        let l = column_unit_resources(&ColumnUnit::new(Design::LogSpace, 8));
        let p = column_unit_resources(&ColumnUnit::new(Design::Posit64Es12, 8));
        let lut_red = 1.0 - p.lut as f64 / l.lut as f64;
        assert!((0.5..0.75).contains(&lut_red), "LUT reduction {lut_red}");
    }

    #[test]
    fn slr_fits_4_log_and_10_posit_column_units() {
        // Section VI-C: "an FPGA die slice (SLR) on a U250 can implement
        // at most 4 log-based column units. In contrast, it can easily
        // fit 10 posit-based column units."
        let log_clb = paper_column_rows()[0].resources.clb;
        let posit_clb = paper_column_rows()[1].resources.clb;
        assert_eq!(units_per_slr(log_clb), 4);
        assert!(units_per_slr(posit_clb) >= 10);
    }

    #[test]
    fn units_per_slr_edge_cases() {
        assert_eq!(units_per_slr(0), 0);
        assert_eq!(units_per_slr(SLR_CLBS + 1), 0);
        assert_eq!(units_per_slr(SLR_CLBS), 1);
    }

    #[test]
    fn sram_explodes_at_h128() {
        // Table III: SRAM 250 -> 1,406 tiles between H=64 and H=128.
        let s64 = forward_sram(64);
        let s128 = forward_sram(128);
        assert!(s64 < 300, "H=64 SRAM {s64}");
        assert!(s128 > 1_200, "H=128 SRAM {s128}");
    }
}
