//! The oracle, format and cache layers, replayed on one workload's
//! inputs with one span per layer call.

use std::hint::black_box;
use std::path::Path;

use compstat_bench::experiments::{fig09_pvalues, fig10_vicar, hdr_format};
use compstat_bigfloat::{bit_identical, BigFloat, Context, HdrFloat};
use compstat_core::cache::{CacheKey, OracleCache};
use compstat_core::error::{measure, ErrorMeasurement};
use compstat_core::{Scale, StatFloat};
use compstat_hmm::{
    dirichlet_hmm, forward, forward_log, forward_oracle, uniform_observations, Hmm,
};
use compstat_logspace::LogF64;
use compstat_pbd::{oracle_cache_key, oracle_pvalues, Column};
use compstat_posit::{P64E12, P64E18, P64E9};
use compstat_runtime::{CacheMode, Runtime};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::{median, Trace};

/// Seed of `hdr`'s forward-pass sweep. It must match the private
/// `FWD_SEED` of `hdr_format.rs`, or the replay draws other models.
const HDR_FWD_SEED: u64 = 0x4D8_0001;

/// Seed of one `fig10` panel of sequence length `t`. It must match the
/// seed `fig10_vicar::report` passes to `vicar_errors`.
fn fig10_seed(t: usize) -> u64 {
    0xF16_0000 + t as u64
}

/// One oracle sweep over HMM sequences, each with its own model, and
/// the formats the workload scores them in.
pub struct HmmSweep {
    pub items: Vec<(Hmm, Vec<usize>)>,
    pub formats: &'static [&'static str],
}

/// The oracle inputs of one workload: PBD column sets (one oracle
/// call each) and HMM sweeps, at one oracle precision.
pub struct Inputs {
    pub prec: u32,
    pub pbd: Vec<Vec<Column>>,
    pub pbd_formats: &'static [&'static str],
    pub hmm: Vec<HmmSweep>,
}

/// The oracle inputs of `fig09`/`fig11` (one shared corpus), both
/// `fig10` panels and `hdr`'s forward sweep at `scale`, generated under
/// `pbd.corpus` and `hmm.gen` spans.
pub fn registry_inputs(trace: &mut Trace, scale: Scale, rt: &Runtime) -> Inputs {
    let corpus = trace.span("pbd.corpus", None, || fig09_pvalues::corpus_for(scale));
    let (t1, t2, models, h) = fig10_vicar::scale_params(scale);
    let (t_hdr, models_hdr, h_hdr) = hdr_format::scale_params(scale);
    // Each sweep draws its models with its own experiment's constants.
    let fig10_formats = &["Log", "posit(64,18)"][..];
    let sweeps = [
        (
            t1,
            models,
            h,
            fig10_seed(t1),
            fig10_vicar::SYMBOLS,
            fig10_vicar::ALPHA,
            fig10_formats,
        ),
        (
            t2,
            models,
            h,
            fig10_seed(t2),
            fig10_vicar::SYMBOLS,
            fig10_vicar::ALPHA,
            fig10_formats,
        ),
        (
            t_hdr,
            models_hdr,
            h_hdr,
            HDR_FWD_SEED,
            hdr_format::SYMBOLS,
            hdr_format::ALPHA,
            &["hdr(53)", "Log", "posit(64,18)"][..],
        ),
    ];
    let hmm = sweeps
        .into_iter()
        .map(|(t, n, h, seed, symbols, alpha, formats)| {
            let items = trace.span("hmm.gen", None, || {
                rt.par_map_seeded(n, &StdRng::seed_from_u64(seed), |_, stream| {
                    let model = dirichlet_hmm(stream, h, symbols, alpha);
                    let obs = uniform_observations(stream, symbols, t);
                    (model, obs)
                })
            });
            HmmSweep { items, formats }
        })
        .collect();
    Inputs {
        prec: 256,
        pbd: vec![corpus],
        pbd_formats: &fig09_pvalues::FORMATS,
        hmm,
    }
}

fn score<T: StatFloat>(value: T, oracle: &BigFloat, ctx: &Context) -> ErrorMeasurement {
    measure(oracle, &value, ctx)
}

/// Scores every column in the named format against its oracle.
fn pbd_format(name: &str, cols: &[Column], oracles: &[BigFloat], ctx: &Context, rt: &Runtime) {
    fn run<T: StatFloat>(cols: &[Column], oracles: &[BigFloat], ctx: &Context, rt: &Runtime) {
        black_box(rt.par_map_index(cols.len(), |i| {
            score(cols[i].pvalue_in::<T>(), &oracles[i], ctx)
        }));
    }
    match name {
        "binary64" => run::<f64>(cols, oracles, ctx, rt),
        "Log" => run::<LogF64>(cols, oracles, ctx, rt),
        "hdr(53)" => run::<HdrFloat>(cols, oracles, ctx, rt),
        "posit(64,9)" => run::<P64E9>(cols, oracles, ctx, rt),
        "posit(64,12)" => run::<P64E12>(cols, oracles, ctx, rt),
        "posit(64,18)" => run::<P64E18>(cols, oracles, ctx, rt),
        other => panic!("no replay for format {other:?}"),
    }
}

/// Runs every sequence's forward pass in the named format against its
/// oracle (`Log` through the log-space kernel, as the figures do).
fn hmm_format(
    name: &str,
    items: &[(Hmm, Vec<usize>)],
    oracles: &[BigFloat],
    ctx: &Context,
    rt: &Runtime,
) {
    fn run<T: StatFloat>(
        items: &[(Hmm, Vec<usize>)],
        oracles: &[BigFloat],
        ctx: &Context,
        rt: &Runtime,
    ) {
        black_box(rt.par_map_index(items.len(), |i| {
            let (model, obs) = &items[i];
            score(forward::<T>(&model.prepare(), obs), &oracles[i], ctx)
        }));
    }
    match name {
        "Log" => {
            black_box(rt.par_map_index(items.len(), |i| {
                let (model, obs) = &items[i];
                score(forward_log(model, obs), &oracles[i], ctx)
            }));
        }
        "binary64" => run::<f64>(items, oracles, ctx, rt),
        "hdr(53)" => run::<HdrFloat>(items, oracles, ctx, rt),
        "posit(64,18)" => run::<P64E18>(items, oracles, ctx, rt),
        other => panic!("no replay for format {other:?}"),
    }
}

/// Bigfloat operations the oracle kernels perform on these inputs,
/// computed from their sizes: `3nk` per PBD column and
/// `h + (T-1)(2h^2 + h) + (h-1)` per forward pass.
fn oracle_ops(inputs: &Inputs) -> f64 {
    let pbd: usize = inputs.pbd.iter().flatten().map(|c| 3 * c.n() * c.k).sum();
    let hmm: usize = inputs
        .hmm
        .iter()
        .flat_map(|s| &s.items)
        .map(|(m, obs)| {
            let h = m.num_states();
            h + obs.len().saturating_sub(1) * (2 * h * h + h) + h - 1
        })
        .sum();
    (pbd + hmm) as f64
}

/// Replays the oracle and format layers, then the cache and the
/// runtime, recording `pbd.*`, `hmm.*`, `cache.{key_us,store_ms,load_ms}`,
/// `runtime.speedup` and `bigfloat.oracle_ops`.
pub fn replay(trace: &mut Trace, inputs: &Inputs, rt: &Runtime, scratch: &Path) {
    let ctx = Context::new(inputs.prec);
    let rt = rt.with_cache_mode(CacheMode::Off);
    let mut vectors = Vec::new();
    for cols in &inputs.pbd {
        let oracles = trace.span("pbd.oracle", None, || oracle_pvalues(cols, &ctx, &rt));
        trace.span("pbd.format", None, || {
            for f in inputs.pbd_formats {
                pbd_format(f, cols, &oracles, &ctx, &rt);
            }
        });
        vectors.push(oracles);
    }
    for sweep in &inputs.hmm {
        let oracles = trace.span("hmm.oracle", None, || {
            rt.par_map(&sweep.items, |(model, obs)| {
                forward_oracle(model, obs, &ctx)
            })
        });
        trace.span("hmm.format", None, || {
            for f in sweep.formats {
                hmm_format(f, &sweep.items, &oracles, &ctx, &rt);
            }
        });
        vectors.push(oracles);
    }
    for layer in [
        "pbd.corpus",
        "pbd.oracle",
        "pbd.format",
        "hmm.gen",
        "hmm.oracle",
        "hmm.format",
    ] {
        if trace.has(layer) {
            let ms = trace.total_secs(layer) * 1e3;
            trace.metric(format!("{layer}_ms"), ms, "ms");
        }
    }
    trace.metric("bigfloat.oracle_ops", oracle_ops(inputs), "count");

    // Cache keys hash the column data, so their cost grows with it.
    let mut key_us = Vec::new();
    for cols in &inputs.pbd {
        for _ in 0..5 {
            let id = trace.open("cache.key", None);
            black_box(oracle_cache_key("perfbench", "replay", 0, cols, &ctx).digest());
            trace.close(id);
            key_us.push(trace.secs(id) * 1e6);
        }
    }
    trace.metric("cache.key_us", median(&key_us), "us");

    let cache = OracleCache::new(scratch.join("replay-cache"), CacheMode::ReadWrite);
    for (i, values) in vectors.iter().enumerate() {
        let key = CacheKey::new("perfbench/replay").field("vector", i);
        let stored = trace.span("cache.store", None, || cache.store(&key, values));
        let loaded = trace.span("cache.load", None, || cache.load(&key));
        let same = loaded.is_some_and(|l| {
            l.len() == values.len() && l.iter().zip(values).all(|(a, b)| bit_identical(a, b))
        });
        assert!(
            stored && same,
            "cache round trip of oracle vector {i} failed"
        );
    }
    let store_ms = trace.total_secs("cache.store") * 1e3;
    let load_ms = trace.total_secs("cache.load") * 1e3;
    trace.metric("cache.store_ms", store_ms, "ms");
    trace.metric("cache.load_ms", load_ms, "ms");

    // The PBD oracle sweep on one thread against the runtime's threads.
    let all: Vec<Column> = inputs.pbd.iter().flatten().cloned().collect();
    let serial = Runtime::serial();
    trace.span("runtime.serial", None, || {
        black_box(oracle_pvalues(&all, &ctx, &serial))
    });
    trace.span("runtime.parallel", None, || {
        black_box(oracle_pvalues(&all, &ctx, &rt))
    });
    let speedup = trace.total_secs("runtime.serial") / trace.total_secs("runtime.parallel");
    trace.metric("runtime.speedup", speedup, "x");
}
