//! The experiment registry: every figure, table, and ablation of the
//! paper's evaluation as a uniform [`Experiment`] catalog.
//!
//! This is the single wiring point of the unified engine — the bench
//! targets, the `compstat` CLI, and the differential test suites all
//! resolve experiments here instead of hard-coding per-figure entry
//! points. Adding a workload means adding one `entry!` line.

use crate::experiments::*;
use compstat_core::{Experiment, Report, Scale};
use compstat_runtime::{Runtime, Shard};

macro_rules! entry {
    ($strukt:ident, $name:expr, $title:expr, $run:expr) => {
        #[doc = "Registry entry (see [`registry`])."]
        pub struct $strukt;

        impl Experiment for $strukt {
            fn name(&self) -> &'static str {
                $name
            }
            fn title(&self) -> &'static str {
                $title
            }
            fn run(&self, rt: &Runtime, scale: Scale) -> Report {
                let f: fn(Scale, &Runtime) -> Report = $run;
                f(scale, rt)
            }
        }
    };
}

entry!(
    Fig01,
    fig01_alpha::NAME,
    fig01_alpha::TITLE,
    fig01_alpha::report
);
entry!(Fig03, fig03_ops::NAME, fig03_ops::TITLE, fig03_ops::report);
entry!(
    Fig04,
    model_tables::NAME_FIG4,
    model_tables::TITLE_FIG4,
    |s, _| { model_tables::fig4_report(s) }
);
entry!(
    Fig05,
    model_tables::NAME_FIG5,
    model_tables::TITLE_FIG5,
    |s, _| { model_tables::fig5_report(s) }
);
entry!(
    Fig06,
    fig06_forward::NAME,
    fig06_forward::TITLE,
    fig06_forward::report
);
entry!(
    Fig07,
    fig07_column::NAME_FIG7,
    fig07_column::TITLE_FIG7,
    fig07_column::fig7_report
);
entry!(
    Fig08,
    fig07_column::NAME_FIG8,
    fig07_column::TITLE_FIG8,
    fig07_column::fig8_report
);
entry!(
    Fig09,
    fig09_pvalues::NAME,
    fig09_pvalues::TITLE,
    fig09_pvalues::report
);
entry!(
    Fig10,
    fig10_vicar::NAME,
    fig10_vicar::TITLE,
    fig10_vicar::report
);
entry!(
    Fig11,
    fig11_lofreq::NAME,
    fig11_lofreq::TITLE,
    fig11_lofreq::report
);
entry!(
    Tab01,
    model_tables::NAME_TAB1,
    model_tables::TITLE_TAB1,
    |s, _| { model_tables::tab1_report(s) }
);
entry!(
    Tab02,
    model_tables::NAME_TAB2,
    model_tables::TITLE_TAB2,
    |s, _| { model_tables::tab2_report(s) }
);
entry!(
    Tab03,
    model_tables::NAME_TAB3,
    model_tables::TITLE_TAB3,
    |s, _| { model_tables::tab3_report(s) }
);
entry!(
    Tab04,
    model_tables::NAME_TAB4,
    model_tables::TITLE_TAB4,
    |s, _| { model_tables::tab4_report(s) }
);
entry!(
    AblationEs,
    ablations::NAME_ES,
    ablations::TITLE_ES,
    |s, _| { ablations::es_report(s) }
);
entry!(
    AblationLse,
    ablations::NAME_LSE,
    ablations::TITLE_LSE,
    |s, _| { ablations::lse_report(s) }
);
entry!(
    AblationScaled,
    ablations::NAME_SCALED,
    ablations::TITLE_SCALED,
    |s, _| { ablations::scaled_report(s) }
);
entry!(Hdr, hdr_format::NAME, hdr_format::TITLE, hdr_format::report);

/// Every registered experiment, in paper order (figures and tables
/// first, ablations, then workspace-native format studies).
#[must_use]
pub fn registry() -> &'static [&'static dyn Experiment] {
    &[
        &Fig01,
        &Fig03,
        &Fig04,
        &Fig05,
        &Fig06,
        &Fig07,
        &Fig08,
        &Fig09,
        &Fig10,
        &Fig11,
        &Tab01,
        &Tab02,
        &Tab03,
        &Tab04,
        &AblationEs,
        &AblationLse,
        &AblationScaled,
        &Hdr,
    ]
}

/// Looks up an experiment by registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.name() == name)
}

/// The experiments `shard` owns, in registry order — shard K of N
/// takes every registry position `i` with `i % N == K - 1`
/// (round-robin), so the union over shards 1..=N is exactly
/// [`registry`], disjointly, and `compstat merge` can reassemble
/// registry order from the shard stamps alone.
#[must_use]
pub fn registry_shard(shard: Shard) -> Vec<&'static dyn Experiment> {
    let all = registry();
    shard.indices(all.len()).map(|i| all[i]).collect()
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
