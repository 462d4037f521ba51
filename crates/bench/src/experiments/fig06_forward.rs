//! Figure 6: forward-algorithm unit wall-clock performance (model),
//! posit vs logarithm, H in {13, 32, 64, 128}, T = 500,000 — plus a
//! *measured* software forward sweep that demonstrates the runtime's
//! parallel speedup without changing a single result bit.

use crate::Scale;
use compstat_core::report::{fmt_f64, Report, Table};
use compstat_fpga::{Design, ForwardUnit};
use compstat_hmm::{dirichlet_hmm, forward_batch, uniform_observations};
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
/// count (timing lives in the `fig06_forward_perf` bench target).
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

/// Renders Figure 6(a) (seconds) and 6(b) (relative improvement).
#[must_use]
pub fn figure6_report(t_sites: u64) -> String {
    format!(
        "T = {t_sites} observation sites, 300 MHz\n{}",
        model_table(t_sites).render()
    )
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
    forward_batch(&model.prepare::<P64E18>(), &seqs, rt)
}

/// Renders the measured software forward sweep: wall-clock at 1 thread
/// vs `rt`'s thread count, the speedup, and the bitwise-equality check.
///
/// The timing lines are measurements and naturally vary run to run;
/// determinism tests compare [`figure6_sweep_likelihoods`] instead.
#[must_use]
pub fn figure6_sweep_report(scale: Scale, rt: &Runtime) -> String {
    let (n_seqs, t_len, h) = sweep_dims(scale);
    #[expect(
        clippy::disallowed_methods,
        reason = "declared-measured sweep; this text goes to the bench output, never into a byte-stable report (see doc comment)"
    )]
    let start = std::time::Instant::now();
    let serial = figure6_sweep_likelihoods(scale, &Runtime::serial());
    let serial_s = start.elapsed().as_secs_f64();
    let mut out = format!(
        "software forward sweep (measured): {n_seqs} sequences x {t_len} sites, H = {h}, posit(64,18)\n\
         serial (1 thread):        {serial_s:.3} s\n"
    );
    if rt.threads() == 1 {
        // A second serial run would only double the bench's wall-clock
        // to print a vacuous 1.00x.
        out.push_str("parallel run skipped: runtime is the serial fallback (COMPSTAT_THREADS=1)\n");
        return out;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "second measured leg of the same declared-measured sweep"
    )]
    let start = std::time::Instant::now();
    let parallel = figure6_sweep_likelihoods(scale, rt);
    let parallel_s = start.elapsed().as_secs_f64();
    #[expect(
        clippy::disallowed_methods,
        reason = "the core count annotates the measured speedup line; it never reaches report bytes"
    )]
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    out.push_str(&format!(
        "parallel ({} threads):    {parallel_s:.3} s\n\
         speedup:                  {:.2}x (machine exposes {cores} core{})\n\
         parallel == serial (bitwise): {}\n",
        rt.threads(),
        serial_s / parallel_s,
        if cores == 1 { "" } else { "s" },
        serial == parallel,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_bitwise_deterministic_across_thread_counts() {
        let serial = figure6_sweep_likelihoods(Scale::Quick, &Runtime::serial());
        let parallel = figure6_sweep_likelihoods(Scale::Quick, &Runtime::with_threads(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), sweep_dims(Scale::Quick).0);
        assert!(serial.iter().all(|p| !p.is_zero()));
    }

    #[test]
    fn sweep_report_carries_the_speedup_fields() {
        let r = figure6_sweep_report(Scale::Quick, &Runtime::with_threads(2));
        assert!(r.contains("speedup:"));
        assert!(r.contains("parallel == serial (bitwise): true"), "{r}");
        // A serial runtime skips the redundant second run.
        let s = figure6_sweep_report(Scale::Quick, &Runtime::serial());
        assert!(s.contains("parallel run skipped"), "{s}");
        assert!(!s.contains("speedup:"));
    }

    #[test]
    fn report_contains_all_h_values_and_positive_improvements() {
        let r = figure6_report(500_000);
        for h in ["13", "32", "64", "128"] {
            assert!(r.lines().any(|l| l.starts_with(h)), "missing H={h}");
        }
        // Every improvement positive.
        for line in r.lines().skip(3) {
            if let Some(imp) = line.split_whitespace().nth(3) {
                if let Some(v) = imp.strip_suffix('%') {
                    let v: f64 = v.parse().unwrap();
                    assert!(v > 0.0, "non-positive improvement in {line}");
                }
            }
        }
    }
}
