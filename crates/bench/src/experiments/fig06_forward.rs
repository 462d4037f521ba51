//! Figure 6: forward-algorithm unit wall-clock performance (model),
//! posit vs logarithm, H in {13, 32, 64, 128}, T = 500,000 — plus a
//! software forward sweep whose likelihoods are bitwise identical for
//! every thread count (`compstat bench`'s `formats` suite times it
//! serial and parallel).

use crate::Scale;
use compstat_core::report::{fmt_f64, Report, Table};
use compstat_fpga::{Design, ForwardUnit};
use compstat_hmm::{dirichlet_hmm, forward, uniform_observations};
use compstat_posit::P64E18;
use compstat_runtime::Runtime;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Paper-reported Figure 6(a) values for comparison.
const PAPER: [(u64, f64, f64); 4] = [
    (13, 0.14, 0.21),
    (32, 0.17, 0.25),
    (64, 0.25, 0.32),
    (128, 0.55, 0.66),
];

/// Registry name of this experiment.
pub const NAME: &str = "fig06";
/// Registry title of this experiment.
pub const TITLE: &str = "Figure 6: forward algorithm unit wall-clock (model vs paper)";

/// The unified-engine report: the Figure 6(a)/(b) model table at the
/// paper's T = 500,000, plus a digest of the *software* forward sweep
/// computed through `rt` — the likelihood bit patterns themselves, not
/// wall-clock, so the report stays byte-identical for every thread
/// count (timing lives in `compstat bench`'s `formats` suite).
#[must_use]
pub fn report(scale: Scale, rt: &Runtime) -> Report {
    let t_sites = 500_000u64;
    let (n_seqs, t_len, h) = sweep_dims(scale);
    let mut r = Report::new(NAME, TITLE, scale)
        .param("t_sites", t_sites)
        .param("sweep_sequences", n_seqs)
        .param("sweep_sites", t_len)
        .param("sweep_states", h);
    r.text(format!("T = {t_sites} observation sites, 300 MHz\n"));
    r.table(model_table(t_sites));

    let likelihoods = figure6_sweep_likelihoods(scale, rt);
    let exps: Vec<i64> = likelihoods.iter().filter_map(|p| p.scale()).collect();
    let lo = exps.iter().min().copied().unwrap_or(0);
    let hi = exps.iter().max().copied().unwrap_or(0);
    r.metric("sweep_likelihoods", likelihoods.len() as f64);
    r.metric("sweep_min_exponent", lo as f64);
    r.metric("sweep_max_exponent", hi as f64);
    r.text(format!(
        "\nsoftware forward sweep digest: {n_seqs} sequences x {t_len} sites, H = {h}, \
         posit(64,18)\nlikelihood exponents span [{lo}, {hi}]; \
         all nonzero: {}\n",
        likelihoods.iter().all(|p| !p.is_zero()),
    ));
    r
}

fn model_table(t_sites: u64) -> Table {
    let mut t = Table::new(vec![
        "H".into(),
        "posit s (model)".into(),
        "log s (model)".into(),
        "improvement (model)".into(),
        "posit s (paper)".into(),
        "log s (paper)".into(),
        "improvement (paper)".into(),
    ]);
    for (h, paper_p, paper_l) in PAPER {
        let p = ForwardUnit::new(Design::Posit64Es18, h).wall_clock_seconds(t_sites);
        let l = ForwardUnit::new(Design::LogSpace, h).wall_clock_seconds(t_sites);
        t.row(vec![
            h.to_string(),
            fmt_f64(p, 3),
            fmt_f64(l, 3),
            format!("{:.1}%", (l - p) / l * 100.0),
            fmt_f64(paper_p, 2),
            fmt_f64(paper_l, 2),
            format!("{:.1}%", (paper_l - paper_p) / paper_l * 100.0),
        ]);
    }
    t
}

/// Workload of the software forward sweep at a given scale:
/// `(sequences, sites, states)`.
#[must_use]
pub fn sweep_dims(scale: Scale) -> (usize, usize, usize) {
    (
        scale.pick(8, 16, 64),
        scale.pick(1_500, 8_000, 100_000),
        scale.pick(8, 13, 13),
    )
}

/// The deterministic payload of the software forward sweep: posit
/// likelihoods of a seeded batch of sequences under a seeded Dirichlet
/// model, computed through `rt`.
///
/// Observation sequences are drawn from per-item
/// [`split`](rand::rngs::StdRng::split) streams, so both the corpus
/// and the likelihoods are bitwise-identical for every thread count.
#[must_use]
pub fn figure6_sweep_likelihoods(scale: Scale, rt: &Runtime) -> Vec<P64E18> {
    let (n_seqs, t_len, h) = sweep_dims(scale);
    let mut rng = StdRng::seed_from_u64(6);
    let model = dirichlet_hmm(&mut rng, h, 16, 0.8);
    let base = StdRng::seed_from_u64(0xF06);
    let seqs = rt.par_map_seeded(n_seqs, &base, |_, stream| {
        uniform_observations(stream, 16, t_len)
    });
    let prepared = model.prepare::<P64E18>();
    rt.par_map(&seqs, |obs| forward(&prepared, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_core::report::Block;

    #[test]
    fn sweep_is_bitwise_deterministic_across_thread_counts() {
        let serial = figure6_sweep_likelihoods(Scale::Quick, &Runtime::serial());
        let parallel = figure6_sweep_likelihoods(Scale::Quick, &Runtime::with_threads(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), sweep_dims(Scale::Quick).0);
        assert!(serial.iter().all(|p| !p.is_zero()));
    }

    #[test]
    fn report_contains_all_h_values_and_positive_improvements() {
        let r = report(Scale::Quick, &Runtime::serial());
        let table = r
            .blocks
            .iter()
            .find_map(|b| match b {
                Block::Table(t) => Some(t),
                Block::Text(_) => None,
            })
            .expect("the model table");
        let hs: Vec<&str> = table.rows().iter().map(|row| row[0].as_str()).collect();
        assert_eq!(hs, ["13", "32", "64", "128"]);
        // Every improvement, model and paper, is positive.
        for row in table.rows() {
            for imp in [&row[3], &row[6]] {
                let v: f64 = imp.strip_suffix('%').unwrap().parse().unwrap();
                assert!(v > 0.0, "non-positive improvement in {row:?}");
            }
        }
    }
}
