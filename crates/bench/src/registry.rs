//! The experiment registry: every figure, table, and ablation of the
//! paper's evaluation as one [`Experiment`] table.
//!
//! This is the single wiring point of the unified engine — the bench
//! targets, the `compstat` CLI, and the differential test suites all
//! resolve experiments here instead of hard-coding per-figure entry
//! points. Adding a workload means adding one row to the registry
//! table.
//!
//! ## Contract
//!
//! * `run` is **deterministic**: for a fixed scale, the returned report
//!   is byte-identical for every runtime thread count (the engine
//!   inherits `compstat-runtime`'s parallel ≡ serial guarantee), and
//!   contains no wall-clock or environment-dependent data.
//! * `name` is a stable, filesystem-safe identifier (lowercase
//!   alphanumerics and `-`), unique within the registry.

use crate::experiments::*;
use compstat_core::{Report, Scale};
use compstat_runtime::{Runtime, Shard};

/// A runnable experiment of the paper's evaluation: a named unit of
/// work that runs at any [`Scale`], on any [`Runtime`] thread budget,
/// and returns a structured [`Report`].
pub struct Experiment {
    name: &'static str,
    title: &'static str,
    run: fn(Scale, &Runtime) -> Report,
}

impl Experiment {
    /// Stable registry identifier (e.g. `fig09`, `tab02`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Human-readable title, as printed above the text report.
    #[must_use]
    pub fn title(&self) -> &'static str {
        self.title
    }

    /// Runs the experiment at `scale`, dispatching parallel sweeps
    /// through `rt`. See the [module docs](self) for the determinism
    /// contract.
    #[must_use]
    pub fn run(&self, rt: &Runtime, scale: Scale) -> Report {
        (self.run)(scale, rt)
    }
}

/// The registry table behind [`registry`].
static REGISTRY: [Experiment; 18] = [
    Experiment {
        name: fig01_alpha::NAME,
        title: fig01_alpha::TITLE,
        run: fig01_alpha::report,
    },
    Experiment {
        name: fig03_ops::NAME,
        title: fig03_ops::TITLE,
        run: fig03_ops::report,
    },
    Experiment {
        name: model_tables::NAME_FIG4,
        title: model_tables::TITLE_FIG4,
        run: |s, _| model_tables::fig4_report(s),
    },
    Experiment {
        name: model_tables::NAME_FIG5,
        title: model_tables::TITLE_FIG5,
        run: |s, _| model_tables::fig5_report(s),
    },
    Experiment {
        name: fig06_forward::NAME,
        title: fig06_forward::TITLE,
        run: fig06_forward::report,
    },
    Experiment {
        name: fig07_column::NAME_FIG7,
        title: fig07_column::TITLE_FIG7,
        run: fig07_column::fig7_report,
    },
    Experiment {
        name: fig07_column::NAME_FIG8,
        title: fig07_column::TITLE_FIG8,
        run: fig07_column::fig8_report,
    },
    Experiment {
        name: fig09_pvalues::NAME,
        title: fig09_pvalues::TITLE,
        run: fig09_pvalues::report,
    },
    Experiment {
        name: fig10_vicar::NAME,
        title: fig10_vicar::TITLE,
        run: fig10_vicar::report,
    },
    Experiment {
        name: fig11_lofreq::NAME,
        title: fig11_lofreq::TITLE,
        run: fig11_lofreq::report,
    },
    Experiment {
        name: model_tables::NAME_TAB1,
        title: model_tables::TITLE_TAB1,
        run: |s, _| model_tables::tab1_report(s),
    },
    Experiment {
        name: model_tables::NAME_TAB2,
        title: model_tables::TITLE_TAB2,
        run: |s, _| model_tables::tab2_report(s),
    },
    Experiment {
        name: model_tables::NAME_TAB3,
        title: model_tables::TITLE_TAB3,
        run: |s, _| model_tables::tab3_report(s),
    },
    Experiment {
        name: model_tables::NAME_TAB4,
        title: model_tables::TITLE_TAB4,
        run: |s, _| model_tables::tab4_report(s),
    },
    Experiment {
        name: ablations::NAME_ES,
        title: ablations::TITLE_ES,
        run: |s, _| ablations::es_report(s),
    },
    Experiment {
        name: ablations::NAME_LSE,
        title: ablations::TITLE_LSE,
        run: |s, _| ablations::lse_report(s),
    },
    Experiment {
        name: ablations::NAME_SCALED,
        title: ablations::TITLE_SCALED,
        run: |s, _| ablations::scaled_report(s),
    },
    Experiment {
        name: hdr_format::NAME,
        title: hdr_format::TITLE,
        run: hdr_format::report,
    },
];

/// Every registered experiment, in paper order (figures and tables
/// first, ablations, then workspace-native format studies).
#[must_use]
pub fn registry() -> &'static [Experiment] {
    &REGISTRY
}

/// Looks up an experiment by registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The experiments `shard` owns, in registry order — shard K of N
/// takes every registry position `i` with `i % N == K - 1`
/// (round-robin), so the union over shards 1..=N is exactly
/// [`registry`], disjointly, and `compstat merge` can reassemble
/// registry order from the shard stamps alone.
#[must_use]
pub fn registry_shard(shard: Shard) -> Vec<&'static Experiment> {
    shard
        .indices(REGISTRY.len())
        .map(|i| &REGISTRY[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_filesystem_safe() {
        let mut seen = std::collections::BTreeSet::new();
        for e in registry() {
            assert!(seen.insert(e.name()), "duplicate name {}", e.name());
            assert!(
                e.name()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "unsafe name {}",
                e.name()
            );
            assert!(!e.title().is_empty());
        }
        assert_eq!(registry().len(), 18);
    }

    #[test]
    fn find_resolves_registered_names_only() {
        assert_eq!(find("fig09").unwrap().name(), "fig09");
        assert_eq!(find("tab02").unwrap().name(), "tab02");
        assert!(find("fig02").is_none());
        assert!(find("").is_none());
    }

    #[test]
    fn registry_shards_partition_the_registry() {
        let all = registry();
        for n in 1..=8 {
            let mut seen = vec![0usize; all.len()];
            for k in 1..=n {
                let shard = Shard::new(k, n).unwrap();
                let mine = registry_shard(shard);
                assert_eq!(mine.len(), shard.len_of(all.len()));
                // Deterministic across calls.
                let again: Vec<&str> = registry_shard(shard).iter().map(|e| e.name()).collect();
                assert_eq!(mine.iter().map(|e| e.name()).collect::<Vec<_>>(), again);
                for e in mine {
                    let i = all.iter().position(|x| x.name() == e.name()).unwrap();
                    seen[i] += 1;
                    assert!(shard.owns(i));
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "N={n}: not a partition");
        }
        // Shard 1 of 1 is the whole registry, in order.
        let whole = registry_shard(Shard::new(1, 1).unwrap());
        assert_eq!(
            whole.iter().map(|e| e.name()).collect::<Vec<_>>(),
            all.iter().map(|e| e.name()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_reports_carry_the_registry_identity() {
        // Model-only experiments are cheap enough to run here.
        for name in [
            "tab01", "tab02", "tab03", "tab04", "fig04", "fig05", "fig07", "fig08",
        ] {
            let e = find(name).unwrap();
            let r = e.run(&Runtime::serial(), Scale::Quick);
            assert_eq!(r.name, e.name());
            assert_eq!(r.title, e.title());
            assert!(!r.render_text().is_empty());
        }
    }
}
