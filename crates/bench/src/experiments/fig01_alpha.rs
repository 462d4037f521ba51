//! Figure 1: base-2 exponent of `alpha` over forward-algorithm
//! iterations on an HCG-like model (exact, tracked in the oracle).

use crate::Scale;
use compstat_bigfloat::Context;
use compstat_core::report::{Report, Table};
use compstat_hmm::{forward_trace_rt, hcg_like, uniform_observations};
use compstat_runtime::Runtime;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Registry name of this experiment.
pub const NAME: &str = "fig01";
/// Registry title of this experiment.
pub const TITLE: &str = "Figure 1: base-2 exponent of alpha over iterations (HCG-like model)";

/// Runs the trace and builds the (t, exponent) series report. The
/// paper's figure spans 5,000 iterations dropping to about -30,000,
/// with the binary64 floor (-1,074) crossed within the first few
/// hundred sites.
///
/// The recurrence is sequential; the per-snapshot exact exponent
/// extraction runs through `rt` (bitwise-identical for any thread
/// count).
#[must_use]
pub fn report(scale: Scale, rt: &Runtime) -> Report {
    let t_len = scale.pick(500, 5_000, 5_000);
    let stride = (t_len / 25).max(1);
    let mut rng = StdRng::seed_from_u64(1);
    let model = hcg_like(&mut rng, 4);
    let obs = uniform_observations(&mut rng, model.num_symbols(), t_len);
    let ctx = Context::new(192);
    let trace = forward_trace_rt(&model, &obs, &ctx, stride, rt);

    let mut table = Table::new(vec![
        "iteration t".into(),
        "exponent of alpha".into(),
        "note".into(),
    ]);
    let mut crossed = false;
    for p in &trace {
        let note = if !crossed && p.exponent < -1_074 {
            crossed = true;
            "<- below binary64's smallest positive (2^-1074)"
        } else {
            ""
        };
        table.row(vec![p.t.to_string(), p.exponent.to_string(), note.into()]);
    }
    let last = trace.last().expect("nonempty trace");
    let per_site = -(last.exponent as f64) / last.t.max(1) as f64;

    let mut r = Report::new(NAME, TITLE, scale)
        .param("t_len", t_len)
        .param("stride", stride)
        .param("states", 4)
        .param("seed", 1);
    r.metric("decay_bits_per_site", per_site);
    r.metric("final_exponent", last.exponent as f64);
    r.table(table);
    r.text(format!(
        "\ndecay rate: {per_site:.2} bits/site (paper's HCG data: ~5.8, reaching 2^-2.9M at T=500k)\n"
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shows_monotone_decay_and_f64_crossing() {
        let r = crate::find(NAME)
            .unwrap()
            .run(&Runtime::serial(), Scale::Quick)
            .render_text();
        assert!(r.contains("below binary64"));
        assert!(r.contains("decay rate"));
        // Parse decay rate and check it is in the HCG band.
        let rate: f64 = r
            .split("decay rate: ")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((5.0..6.5).contains(&rate), "decay {rate}");
    }
}
