//! The forward-algorithm unit: timing model reproducing Figure 6.
//!
//! Execution follows Figure 5: each outer iteration (one observation
//! site) issues its inner iterations into the fully pipelined PE, one
//! per cycle, overlapped with prefetching the next observation from
//! DRAM:
//!
//! `cycles/outer = max(pipeline_fill, dram_prefetch) + PE latency`
//!
//! For H beyond the lane budget the PE folds the innermost loop into
//! multiple passes (initiation interval > 1), which is what bends the
//! paper's H=128 points upward in both time and the resource tables.

use crate::pe::{column_pe, forward_pe_with_tree, PeModel};
use crate::units::Design;
use std::borrow::Borrow;

/// Accelerator clock for evaluation: "all accelerators are implemented
/// to operate at 300 MHz for evaluation" (Section VI-A).
pub const CLOCK_HZ: f64 = 300.0e6;

/// Maximum fully-parallel inner-loop lanes in one PE (the paper's H=128
/// designs show per-lane resources consistent with 64 lanes and two
/// passes).
pub const MAX_LANES: u64 = 64;

/// DRAM prefetch cycles per outer iteration (one dependent access
/// latency at 300 MHz; the Figure 5 prefetcher hides bandwidth but not
/// latency). This is what makes small-H posit units prefetch-bound —
/// "using posit shifts the performance bottleneck from the PEs to the
/// prefetcher when H (or K) is small" (Section V-C).
pub const DRAM_PREFETCH_CYCLES: u64 = 80;

/// Fixed per-run overhead (kernel launch, DRAM warm-up, drain),
/// calibrated against Figure 6's wall-clock values (~0.02 s at 300 MHz).
pub const FIXED_OVERHEAD_CYCLES: u64 = 6_000_000;

/// A configured forward-algorithm unit.
#[derive(Clone, Debug)]
pub struct ForwardUnit {
    design: Design,
    h: u64,
    lanes: u64,
    passes: u64,
    pe: PeModel,
}

impl ForwardUnit {
    /// Builds the unit for `H` hidden states.
    ///
    /// # Panics
    ///
    /// Panics if `h == 0`.
    #[must_use]
    pub fn new(design: Design, h: u64) -> ForwardUnit {
        assert!(h >= 1, "H must be positive");
        let lanes = h.min(MAX_LANES);
        let passes = h.div_ceil(lanes);
        // Units are replicated per lane; the reduction tree still spans
        // all H terms (partial sums from later passes merge into it).
        ForwardUnit {
            design,
            h,
            lanes,
            passes,
            pe: forward_pe_with_tree(design, lanes, h),
        }
    }

    /// The design (log-space or posit).
    #[must_use]
    pub fn design(&self) -> Design {
        self.design
    }

    /// Hidden-state count H.
    #[must_use]
    pub fn h(&self) -> u64 {
        self.h
    }

    /// Parallel lanes in the PE.
    #[must_use]
    pub fn lanes(&self) -> u64 {
        self.lanes
    }

    /// Inner-loop passes per outer iteration (1 unless H > lanes).
    #[must_use]
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// The PE model.
    #[must_use]
    pub fn pe(&self) -> &PeModel {
        &self.pe
    }

    /// PE latency (the reduction tree spans all H inputs, so no extra
    /// join latency is needed for multi-pass configurations).
    #[must_use]
    pub fn pe_latency(&self) -> u64 {
        self.pe.latency()
    }

    /// Cycles consumed by one outer iteration (one observation site):
    /// `max(pipeline fill + PE latency, prefetch)` — the prefetcher for
    /// the next site overlaps the entire current iteration (Figure 5),
    /// so it only binds when the compute side is shorter than one DRAM
    /// access.
    #[must_use]
    pub fn cycles_per_outer(&self) -> u64 {
        let fill = self.h * self.passes; // initiation interval = passes
        (fill + self.pe_latency()).max(DRAM_PREFETCH_CYCLES)
    }

    /// True when the DRAM prefetcher, not the PE, bounds the outer loop.
    #[must_use]
    pub fn is_prefetch_bound(&self) -> bool {
        self.h * self.passes + self.pe_latency() < DRAM_PREFETCH_CYCLES
    }

    /// Total cycles to process a `T`-site observation sequence.
    #[must_use]
    pub fn total_cycles(&self, t: u64) -> u64 {
        t * self.cycles_per_outer() + FIXED_OVERHEAD_CYCLES
    }

    /// Wall-clock seconds at the 300 MHz evaluation clock.
    #[must_use]
    pub fn wall_clock_seconds(&self, t: u64) -> f64 {
        self.total_cycles(t) as f64 / CLOCK_HZ
    }

    /// Maximum achievable clock frequency (MHz): bounded by the slowest
    /// unit, degraded ~4% per doubling of H beyond 13 (routing pressure,
    /// calibrated against Tables III's Fmax column).
    #[must_use]
    pub fn max_clock_mhz(&self) -> f64 {
        let base = self
            .pe
            .stages
            .iter()
            .flat_map(|s| &s.units)
            .map(|(u, _)| u.fmax_mhz)
            .min()
            .unwrap_or(346) as f64;
        let doublings = (self.h as f64 / 13.0).log2().max(0.0);
        (base * (1.0 - 0.04 * doublings)).max(300.0)
    }
}

/// The LoFreq column unit: `pes` processing elements, each fully
/// pipelined over one column's inner (K) loop; columns are distributed
/// across PEs (Section V-B; the paper's units have 8 PEs).
#[derive(Clone, Debug)]
pub struct ColumnUnit {
    design: Design,
    pes: u64,
    pe: PeModel,
}

impl ColumnUnit {
    /// Builds a column unit with `pes` PEs.
    ///
    /// # Panics
    ///
    /// Panics if `pes == 0`.
    #[must_use]
    pub fn new(design: Design, pes: u64) -> ColumnUnit {
        assert!(pes >= 1, "need at least one PE");
        ColumnUnit {
            design,
            pes,
            pe: column_pe(design),
        }
    }

    /// The design.
    #[must_use]
    pub fn design(&self) -> Design {
        self.design
    }

    /// Number of PEs.
    #[must_use]
    pub fn num_pes(&self) -> u64 {
        self.pes
    }

    /// The per-PE model.
    #[must_use]
    pub fn pe(&self) -> &PeModel {
        &self.pe
    }

    /// Cycles for one column: `N * (K + PE latency)` (Figure 5 with
    /// outer bound N and pipeline latency K), floored by the prefetch
    /// latency per outer iteration.
    #[must_use]
    pub fn column_cycles(&self, n: u64, k: u64) -> u64 {
        let per_outer = k.max(DRAM_PREFETCH_CYCLES / 4).max(1) + self.pe.latency();
        n * per_outer
    }

    /// Total cycles for a dataset of `(N, K)` columns, distributed over
    /// the PEs (greedy longest-first assignment — the scheduler used by
    /// the column unit driver). `columns` is a slice or any iterator of
    /// pairs, so callers holding columns in another shape need not copy
    /// them; the result does not depend on their order.
    #[must_use]
    pub fn dataset_cycles<C: Borrow<(u64, u64)>>(
        &self,
        columns: impl IntoIterator<Item = C>,
    ) -> u64 {
        let mut work: Vec<u64> = columns
            .into_iter()
            .map(|c| {
                let &(n, k) = c.borrow();
                self.column_cycles(n, k)
            })
            .collect();
        work.sort_unstable_by(|a, b| b.cmp(a));
        let mut pe_load = vec![0u64; self.pes as usize];
        for w in work {
            // The first least-loaded PE. Carrying its load along lets the
            // scan compile to selects rather than branches.
            let (mut min, mut least) = (0, pe_load[0]);
            for (pe, &load) in pe_load.iter().enumerate().skip(1) {
                let less = load < least;
                min = if less { pe } else { min };
                least = if less { load } else { least };
            }
            pe_load[min] = least + w;
        }
        pe_load.into_iter().max().unwrap_or(0) + FIXED_OVERHEAD_CYCLES
    }

    /// Dataset wall-clock seconds at 300 MHz ([`ColumnUnit::dataset_cycles`]).
    #[must_use]
    pub fn dataset_seconds<C: Borrow<(u64, u64)>>(
        &self,
        columns: impl IntoIterator<Item = C>,
    ) -> f64 {
        self.dataset_cycles(columns) as f64 / CLOCK_HZ
    }
}

/// Figure 6's configuration sweep.
#[cfg(test)]
fn figure6_h_values() -> [u64; 4] {
    [13, 32, 64, 128]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::log2_ceil;

    #[test]
    fn figure6_wall_clock_matches_paper_within_tolerance() {
        // Paper Figure 6(a), T = 500,000 at 300 MHz:
        let t = 500_000;
        let paper: [(u64, f64, f64); 4] = [
            // (H, posit seconds, log seconds)
            (13, 0.14, 0.21),
            (32, 0.17, 0.25),
            (64, 0.25, 0.32),
            (128, 0.55, 0.66),
        ];
        for (h, posit_s, log_s) in paper {
            let p = ForwardUnit::new(Design::Posit64Es18, h).wall_clock_seconds(t);
            let l = ForwardUnit::new(Design::LogSpace, h).wall_clock_seconds(t);
            assert!(
                (p - posit_s).abs() / posit_s < 0.12,
                "posit H={h}: model {p:.3}s vs paper {posit_s}s"
            );
            assert!(
                (l - log_s).abs() / log_s < 0.12,
                "log H={h}: model {l:.3}s vs paper {log_s}s"
            );
            assert!(p < l, "posit must be faster at H={h}");
        }
    }

    #[test]
    fn relative_improvement_shrinks_with_h() {
        // Figure 6(b): the posit advantage shrinks as H grows because
        // pipeline fill dominates PE latency.
        let t = 500_000;
        let imp = |h: u64| {
            let p = ForwardUnit::new(Design::Posit64Es18, h).wall_clock_seconds(t);
            let l = ForwardUnit::new(Design::LogSpace, h).wall_clock_seconds(t);
            (l - p) / l
        };
        let i13 = imp(13);
        let i128 = imp(128);
        assert!(i13 > 0.15 && i13 < 0.40, "improvement at 13: {i13}");
        assert!(i128 < i13, "improvement must shrink: {i128} vs {i13}");
        // Single units are "consistently 15% to 33% faster" except where
        // multi-pass fill dominates; require 5%..40% overall.
        for h in figure6_h_values() {
            let i = imp(h);
            assert!((0.05..0.40).contains(&i), "H={h}: improvement {i}");
        }
    }

    #[test]
    fn small_h_posit_is_prefetch_bound() {
        // Section V-C's bottleneck-shift claim, emergent from the model:
        // at H=13 the posit unit finishes compute (13 + 56 = 69 cycles)
        // inside one DRAM access (80), so the prefetcher binds — while
        // the log unit (13 + 98 = 111) is still compute-bound.
        let u = ForwardUnit::new(Design::Posit64Es18, 13);
        assert!(u.is_prefetch_bound());
        assert_eq!(u.cycles_per_outer(), DRAM_PREFETCH_CYCLES);
        let l = ForwardUnit::new(Design::LogSpace, 13);
        assert!(!l.is_prefetch_bound());
        assert_eq!(l.cycles_per_outer(), 13 + l.pe_latency());
        // At larger H the posit unit becomes compute-bound again.
        assert!(!ForwardUnit::new(Design::Posit64Es18, 32).is_prefetch_bound());
    }

    #[test]
    fn h128_uses_two_passes() {
        let u = ForwardUnit::new(Design::Posit64Es18, 128);
        assert_eq!(u.lanes(), 64);
        assert_eq!(u.passes(), 2);
        // Tree spans all 128 terms: 24 + 8*7.
        assert_eq!(u.pe_latency(), 24 + 8 * log2_ceil(128));
        let small = ForwardUnit::new(Design::Posit64Es18, 64);
        assert_eq!(small.passes(), 1);
    }

    #[test]
    fn column_unit_speedup_depends_on_k() {
        let log = ColumnUnit::new(Design::LogSpace, 8);
        let posit = ColumnUnit::new(Design::Posit64Es12, 8);
        // Per-column improvement = 43/(K+73).
        for (k, want) in [(100u64, 43.0 / 173.0), (800, 43.0 / 873.0)] {
            let l = log.column_cycles(1_000, k) as f64;
            let p = posit.column_cycles(1_000, k) as f64;
            let imp = (l - p) / l;
            assert!(
                (imp - want).abs() < 0.01,
                "K={k}: improvement {imp} want {want}"
            );
        }
    }

    #[test]
    fn dataset_cycles_balance_across_pes() {
        let unit = ColumnUnit::new(Design::Posit64Es12, 8);
        // 8 identical columns: perfectly balanced = one column per PE.
        let cols: Vec<(u64, u64)> = (0..8).map(|_| (10_000, 100)).collect();
        let total = unit.dataset_cycles(&cols) - FIXED_OVERHEAD_CYCLES;
        assert_eq!(total, unit.column_cycles(10_000, 100));
        // 16 identical columns: two rounds.
        let cols: Vec<(u64, u64)> = (0..16).map(|_| (10_000, 100)).collect();
        let total = unit.dataset_cycles(&cols) - FIXED_OVERHEAD_CYCLES;
        assert_eq!(total, 2 * unit.column_cycles(10_000, 100));
    }

    /// Deterministic Fisher-Yates shuffle driven by splitmix64.
    fn shuffle<T>(items: &mut [T], seed: u64) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..items.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    #[test]
    fn dataset_cycles_ignore_column_order() {
        // Varied N and K with repeated columns, so the sort sees ties.
        let cols: Vec<(u64, u64)> = (0..300u64)
            .map(|i| (10_000 + (i * 7_919) % 90_000, 10 + (i * 104_729) % 900))
            .chain((0..20).map(|_| (50_000, 200)))
            .collect();
        for design in [Design::Posit64Es12, Design::LogSpace] {
            for pes in [1, 3, 8] {
                let unit = ColumnUnit::new(design, pes);
                let want = unit.dataset_cycles(&cols);
                for seed in 0..16 {
                    let mut shuffled = cols.clone();
                    shuffle(&mut shuffled, seed);
                    // Owned pairs here, borrowed ones for `want`.
                    assert_eq!(
                        unit.dataset_cycles(shuffled.iter().copied()),
                        want,
                        "{design:?}, {pes} PEs, shuffle seed {seed}"
                    );
                }
            }
        }
    }

    /// Every makespan LPT can reach on `work` (sorted longest first):
    /// each column may go to *any* least-loaded PE.
    fn lpt_makespans(work: &[u64], loads: &mut [u64], out: &mut Vec<u64>) {
        let Some((&w, rest)) = work.split_first() else {
            out.push(loads.iter().copied().max().unwrap_or(0));
            return;
        };
        let min = loads.iter().copied().min().expect("pes >= 1");
        for pe in 0..loads.len() {
            if loads[pe] == min {
                loads[pe] += w;
                lpt_makespans(rest, loads, out);
                loads[pe] -= w;
            }
        }
    }

    /// Every permutation of `items`, by Heap's algorithm.
    fn permutations<T: Clone>(items: &mut [T], k: usize, out: &mut Vec<Vec<T>>) {
        if k <= 1 {
            out.push(items.to_vec());
            return;
        }
        for i in 0..k - 1 {
            permutations(items, k - 1, out);
            let j = if k % 2 == 0 { i } else { 0 };
            items.swap(j, k - 1);
        }
        permutations(items, k - 1, out);
    }

    #[test]
    fn dataset_cycles_match_brute_force_lpt_on_a_small_case() {
        // Eight columns with equal-work pairs, so both LPT choices
        // (order among equal columns, PE among equally loaded ones)
        // actually arise.
        let mut cols = vec![
            (9_000, 100),
            (9_000, 100),
            (4_000, 300),
            (20_000, 20),
            (20_000, 20),
            (1_000, 500),
            (30_000, 60),
            (12_000, 150),
        ];
        let mut orders = Vec::new();
        permutations(&mut cols, 8, &mut orders);
        assert_eq!(orders.len(), 40_320);
        for design in [Design::Posit64Es12, Design::LogSpace] {
            for pes in [1, 3, 8] {
                let unit = ColumnUnit::new(design, pes);
                let mut work: Vec<u64> = cols
                    .iter()
                    .map(|&(n, k)| unit.column_cycles(n, k))
                    .collect();
                work.sort_unstable_by(|a, b| b.cmp(a));
                let mut spans = Vec::new();
                lpt_makespans(&work, &mut vec![0; pes as usize], &mut spans);
                let want = spans[0] + FIXED_OVERHEAD_CYCLES;
                assert!(
                    spans.iter().all(|&s| s == spans[0]),
                    "{design:?}, {pes} PEs: LPT choices disagree: {spans:?}"
                );
                for order in &orders {
                    assert_eq!(unit.dataset_cycles(order), want, "{design:?}, {pes} PEs");
                }
            }
        }
    }

    #[test]
    fn max_clock_within_table3_band() {
        for h in figure6_h_values() {
            let log = ForwardUnit::new(Design::LogSpace, h).max_clock_mhz();
            assert!((300.0..=347.0).contains(&log), "log H={h}: {log} MHz");
            let posit = ForwardUnit::new(Design::Posit64Es18, h).max_clock_mhz();
            assert!((300.0..=340.0).contains(&posit), "posit H={h}: {posit} MHz");
        }
    }
}
