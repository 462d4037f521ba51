//! Wall-clock timing suites behind `compstat bench`.
//!
//! Everything else this workspace emits is deterministic by contract;
//! these suites are the deliberate exception. They measure how long the
//! kernels actually take on the current host and package the results as
//! [`BenchDoc`]s (schema `compstat-bench/v1`, stamped
//! `non_deterministic: true`), which never enter a report directory and
//! therefore never reach the `compstat diff` gate.
//!
//! Four suites:
//!
//! * [`bigfloat_suite`] — serial micro-benchmarks of the arbitrary-
//!   precision kernels (`add`/`mul`/`div` at 128/256/1024 bits, the
//!   oracle's own mixed-width `mul` of a 128- or 256-bit state by a
//!   53-bit coefficient, and the log-space conversions `ln`/`exp` at
//!   192/256 bits), plus the retired bit-by-bit restoring division and
//!   unreduced `ln`/`exp` series as baseline rows so a single run shows
//!   each speedup;
//! * [`hdr_suite`] — the 53-bit ladder rung: `HdrFloat` (binary64
//!   mantissa, software exponent) per-op and forward-pass timings next
//!   to the same work on the 256-bit BigFloat path, so the ladder
//!   speedup is measured from one binary rather than asserted;
//! * [`oracle_suite`] — the end-to-end 256-bit oracle passes the
//!   figures pay for: the shared Figure 9/11 p-value sweep and both
//!   Figure 10 VICAR forward sweeps, run cache-off so the arithmetic is
//!   actually exercised;
//! * [`formats_suite`] — the formats the paper compares, in software:
//!   per-op add/mul for binary64, log-space and posit(64,12), the
//!   16-ary `log_sum_exp`, the forward and PBD kernels per format, and
//!   the Figure 6 posit forward sweep serial vs parallel.
//!
//! Timing methodology: each entry runs `iters` iterations per
//! repetition, `reps` repetitions after one untimed warm-up, and
//! summarizes ns/op as min / median / mean. Results feed
//! [`std::hint::black_box`] so the optimizer cannot delete the work.

#![expect(
    clippy::disallowed_methods,
    reason = "the measured-timing harness; its output is quarantined in compstat-bench/v1 docs"
)]

use crate::experiments::{fig06_forward, fig07_column, fig09_pvalues, fig10_vicar};
use crate::Scale;
use compstat_bigfloat::{testing, BigFloat, Context, HdrFloat, MAX_PREC, MIN_PREC};
use compstat_core::bench_doc::{BenchDoc, BenchEntry};
use compstat_core::StatFloat;
use compstat_logspace::LogF64;
use compstat_pbd::PbdResult;
use compstat_posit::{P64E12, P64E18};
use compstat_runtime::{CacheMode, Runtime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Errors from building a timing suite's inputs.
///
/// Suite precisions are compile-time constants today, but the operand
/// pool builder rounds a requested precision up to whole limbs
/// before building a [`Context`], and that widened precision — not the
/// requested one — is what must stay inside the context's legal range.
/// Validating here turns a future bad suite constant into a named,
/// reportable error instead of an opaque assert deep in `bigfloat`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingError {
    /// The requested precision (or its whole-limb round-up) falls
    /// outside `MIN_PREC..=MAX_PREC`.
    PrecisionOutOfRange {
        /// The precision the suite asked for.
        requested: u32,
        /// The whole-limb precision the pool would have built at.
        rounded: u32,
    },
}

impl core::fmt::Display for TimingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::PrecisionOutOfRange { requested, rounded } => write!(
                f,
                "bench operand pool precision {requested} (rounds to {rounded} \
                 for limb construction) is outside {MIN_PREC}..={MAX_PREC}"
            ),
        }
    }
}

impl std::error::Error for TimingError {}

/// Times one operation: one untimed warm-up repetition, then `reps`
/// timed repetitions of `iters` calls each, summarized in ns per call.
///
/// # Panics
///
/// Panics if `iters` or `reps` is zero (the summary would be empty).
#[must_use]
pub fn time_entry(id: &str, iters: u64, reps: u32, mut op: impl FnMut()) -> BenchEntry {
    assert!(iters > 0 && reps > 0, "empty measurement for {id:?}");
    for _ in 0..iters {
        op();
    }
    let mut per_rep = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        per_rep.push(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    per_rep.sort_by(f64::total_cmp);
    let n = per_rep.len();
    let median = if n % 2 == 1 {
        per_rep[n / 2]
    } else {
        (per_rep[n / 2 - 1] + per_rep[n / 2]) / 2.0
    };
    BenchEntry {
        id: id.to_string(),
        iters,
        reps,
        min_ns: per_rep[0],
        median_ns: median,
        mean_ns: per_rep.iter().sum::<f64>() / n as f64,
    }
}

/// Wall-clock milliseconds since the Unix epoch (0 if the clock is
/// before the epoch — bench documents are diagnostics, not evidence).
#[must_use]
pub fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// A deterministic pool of full-width `prec`-bit operands with
/// exponents spread over ±500, built through the public exact API (same
/// construction as the kernel differential tests).
///
/// # Errors
///
/// Returns [`TimingError::PrecisionOutOfRange`] when `prec`, or the
/// whole-limb precision it rounds up to for construction, is outside
/// `MIN_PREC..=MAX_PREC` — the limb round-up means `prec` values near
/// `MAX_PREC` that a bare `Context::new(prec)` would accept can still
/// be unbuildable here.
fn operand_pool(prec: u32, count: usize, mut state: u64) -> Result<Vec<BigFloat>, TimingError> {
    let nl = (prec as usize).div_ceil(64);
    let rounded = u32::try_from(nl)
        .ok()
        .and_then(|n| n.checked_mul(64))
        .unwrap_or(u32::MAX);
    if !(MIN_PREC..=MAX_PREC).contains(&prec) || rounded > MAX_PREC {
        return Err(TimingError::PrecisionOutOfRange {
            requested: prec,
            rounded,
        });
    }
    let mut splitmix = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let build = Context::new(rounded);
    Ok((0..count)
        .map(|_| {
            let mut acc = BigFloat::zero();
            for i in 0..nl {
                let mut limb = splitmix();
                if i == 0 {
                    limb |= 1 << 63;
                }
                acc = build.add(&acc.mul_pow2(64), &BigFloat::from_u64(limb));
            }
            acc.round_to(prec)
                .mul_pow2((splitmix() % 1001) as i64 - 500)
        })
        .collect())
}

/// The bigfloat precisions the suite times.
pub const BIGFLOAT_PRECS: [u32; 3] = [128, 256, 1024];

/// The state precisions of the suite's mixed-width `mul/{prec}x53` rows.
pub const MIXED_MUL_PRECS: [u32; 2] = [128, 256];

/// The precisions of the suite's `ln`/`exp` rows: log-space
/// measurement (`MEASURE_PREC`) and the oracle.
pub const ELEMENTARY_PRECS: [u32; 2] = [192, 256];

/// The precision of the suite's `ln-series`/`exp-series` baseline rows.
pub const ELEMENTARY_SERIES_PREC: u32 = 192;

/// Builds the bigfloat kernel suite: `add`/`mul`/`div` at each of
/// [`BIGFLOAT_PRECS`], plus a `div-restoring` baseline row per
/// precision (the retired bit-by-bit division, kept callable exactly so
/// the Knuth-D speedup stays measurable from one binary), plus a
/// `mul/{prec}x53` row per [`MIXED_MUL_PRECS`] entry: a state times a
/// 53-bit coefficient, the product shape every oracle sweep runs. The
/// log-space conversions get `ln`/`exp` rows at [`ELEMENTARY_PRECS`]
/// and `ln-series`/`exp-series` baseline rows (the unreduced series
/// they replaced) at [`ELEMENTARY_SERIES_PREC`].
///
/// The kernels are serial, so the document's `threads` is always 1.
#[must_use]
pub fn bigfloat_suite(scale: Scale) -> BenchDoc {
    // Iteration budget per repetition, scaled down for the slower
    // precisions and kernels so one suite stays interactive at every
    // scale.
    bigfloat_doc(
        scale,
        scale.pick(5, 7, 9) as u32,
        scale.pick(2_000, 10_000, 40_000) as u64,
    )
}

/// [`bigfloat_suite`] at `reps` repetitions and a per-repetition
/// iteration budget of `base` cheap operations (a unit test runs the
/// same rows at a debug-build budget).
fn bigfloat_doc(scale: Scale, reps: u32, base: u64) -> BenchDoc {
    let mut entries = Vec::new();
    for prec in BIGFLOAT_PRECS {
        let pool = operand_pool(prec, 64, 0xBE7C_0000 + u64::from(prec))
            .expect("BIGFLOAT_PRECS are whole limbs inside MIN_PREC..=MAX_PREC");
        let ctx = Context::new(prec);
        let cost = u64::from(prec / 128).max(1);
        let mut cursor = 0usize;
        let mut pairs = move || {
            cursor = (cursor + 1) % (pool.len() - 1);
            (pool[cursor].clone(), pool[cursor + 1].clone())
        };
        let (a, b) = pairs();
        entries.push(time_entry(
            &format!("bigfloat/add/{prec}"),
            (base / cost).max(64),
            reps,
            || {
                black_box(ctx.add(black_box(&a), black_box(&b)));
            },
        ));
        let (a, b) = pairs();
        entries.push(time_entry(
            &format!("bigfloat/mul/{prec}"),
            (base / cost).max(64),
            reps,
            || {
                black_box(ctx.mul(black_box(&a), black_box(&b)));
            },
        ));
        let (a, b) = pairs();
        entries.push(time_entry(
            &format!("bigfloat/div/{prec}"),
            (base / (4 * cost)).max(64),
            reps,
            || {
                black_box(ctx.div(black_box(&a), black_box(&b)));
            },
        ));
        let (a, b) = pairs();
        entries.push(time_entry(
            &format!("bigfloat/div-restoring/{prec}"),
            (base / (16 * cost * cost)).max(16),
            reps,
            || {
                black_box(testing::div_restoring(black_box(&a), black_box(&b), prec));
            },
        ));
    }
    let coeffs = operand_pool(53, 64, 0xBE7C_0035).expect("53 bits is inside MIN_PREC..=MAX_PREC");
    for prec in MIXED_MUL_PRECS {
        let pool = operand_pool(prec, 64, 0xBE7C_1000 + u64::from(prec))
            .expect("MIXED_MUL_PRECS are whole limbs inside MIN_PREC..=MAX_PREC");
        let ctx = Context::new(prec);
        let (a, b) = (&pool[1], &coeffs[2]);
        entries.push(time_entry(
            &format!("bigfloat/mul/{prec}x53"),
            (base / u64::from(prec / 128)).max(64),
            reps,
            || {
                black_box(ctx.mul(black_box(a), black_box(b)));
            },
        ));
    }
    // ln runs on full-width values (what `LogF64::from_bigfloat`
    // converts); exp on 53-bit logs of them (what `LogF64::to_bigfloat`
    // gets), |x| up to ~350. Each row cycles through the pool.
    let elementary_row =
        |id: &str, iters: u64, f: &dyn Fn(&BigFloat) -> BigFloat, xs: &[BigFloat]| {
            let mut i = 0;
            time_entry(id, iters, reps, || {
                i = (i + 1) % xs.len();
                black_box(f(black_box(&xs[i])));
            })
        };
    let (ln_iters, series_iters) = ((base / 8).max(16), (base / 32).max(8));
    for prec in ELEMENTARY_PRECS {
        let ctx = Context::new(prec);
        let xs = operand_pool(prec, 64, 0xBE7C_2000 + u64::from(prec))
            .expect("ELEMENTARY_PRECS are whole limbs inside MIN_PREC..=MAX_PREC");
        let logs: Vec<BigFloat> = xs
            .iter()
            .map(|x| BigFloat::from_f64(ctx.ln(x).to_f64()))
            .collect();
        entries.push(elementary_row(
            &format!("bigfloat/ln/{prec}"),
            ln_iters,
            &|x| ctx.ln(x),
            &xs,
        ));
        entries.push(elementary_row(
            &format!("bigfloat/exp/{prec}"),
            ln_iters,
            &|x| ctx.exp(x),
            &logs,
        ));
        if prec == ELEMENTARY_SERIES_PREC {
            entries.push(elementary_row(
                &format!("bigfloat/ln-series/{prec}"),
                series_iters,
                &|x| testing::ln_series(x, prec),
                &xs,
            ));
            entries.push(elementary_row(
                &format!("bigfloat/exp-series/{prec}"),
                series_iters,
                &|x| testing::exp_series(x, prec),
                &logs,
            ));
        }
    }
    BenchDoc {
        suite: "bigfloat".into(),
        scale: scale.as_str().into(),
        threads: 1,
        unix_ms: unix_ms_now(),
        entries,
    }
}

/// Oracle precision the hdr suite's baseline rows run at.
pub const HDR_BASELINE_PREC: u32 = 256;

/// Builds the `HdrFloat` suite: the 53-bit HDR rung (`hdr/{op}/53`,
/// `hdr/forward/53`) timed next to the same operands and the same
/// forward sweep on the 256-bit BigFloat path
/// (`bigfloat/{op}/256`, `oracle/forward/256`), so one document holds
/// both sides of the ladder-speedup claim.
///
/// Per-op rows draw from one wide-exponent operand pool, rounded to
/// 53-bit `HdrFloat` for the HDR rows; forward rows map the same
/// model and observation batch through `rt` with
/// [`compstat_hmm::forward`] over `HdrFloat` and
/// [`compstat_hmm::forward_oracle`] at 256 bits (the forward pass is
/// where the paper's sweeps actually spend their time).
#[must_use]
pub fn hdr_suite(scale: Scale, rt: &Runtime) -> BenchDoc {
    let reps = scale.pick(5, 7, 9) as u32;
    let base = scale.pick(20_000, 100_000, 400_000) as u64;
    let ctx = Context::new(HDR_BASELINE_PREC);
    let mut entries = Vec::new();

    let pool = operand_pool(HDR_BASELINE_PREC, 64, 0x4DB_0000)
        .expect("HDR_BASELINE_PREC is whole limbs inside MIN_PREC..=MAX_PREC");
    let hdr_pool: Vec<HdrFloat> = pool.iter().map(HdrFloat::from_bigfloat).collect();
    // The BigFloat rows get ~1/10 the iteration budget: they are the
    // slow side of the comparison, and ns/op is budget-independent.
    for (op, div_cost) in [("add", 1), ("mul", 1), ("div", 4)] {
        let (ha, hb) = (hdr_pool[3], hdr_pool[4]);
        entries.push(time_entry(
            &format!("hdr/{op}/{}", compstat_bigfloat::HDR_FAST_PREC),
            base,
            reps,
            || {
                black_box(match op {
                    "add" => black_box(ha) + black_box(hb),
                    "mul" => black_box(ha) * black_box(hb),
                    _ => black_box(ha) / black_box(hb),
                });
            },
        ));
        let (a, b) = (&pool[3], &pool[4]);
        entries.push(time_entry(
            &format!("bigfloat/{op}/{HDR_BASELINE_PREC}"),
            (base / (10 * div_cost)).max(64),
            reps,
            || {
                black_box(match op {
                    "add" => ctx.add(black_box(a), black_box(b)),
                    "mul" => ctx.mul(black_box(a), black_box(b)),
                    _ => ctx.div(black_box(a), black_box(b)),
                });
            },
        ));
    }

    // Forward sweep: one Dirichlet model, a batch of sequences, both
    // formats over the identical batch.
    let t_len = scale.pick(600, 2_000, 10_000);
    let n_seq = scale.pick(8, 16, 32);
    let h = 6;
    let mut rng = StdRng::seed_from_u64(0x0004_DBF0_0001);
    let model = compstat_hmm::dirichlet_hmm(&mut rng, h, fig10_vicar::SYMBOLS, fig10_vicar::ALPHA);
    let batch: Vec<Vec<usize>> = (0..n_seq)
        .map(|_| compstat_hmm::uniform_observations(&mut rng, fig10_vicar::SYMBOLS, t_len))
        .collect();
    let prepared = model.prepare::<HdrFloat>();
    entries.push(time_entry(
        &format!("hdr/forward/{}", compstat_bigfloat::HDR_FAST_PREC),
        scale.pick(20, 40, 60) as u64,
        reps,
        || {
            black_box(rt.par_map(black_box(&batch), |obs| {
                compstat_hmm::forward(black_box(&prepared), obs)
            }));
        },
    ));
    entries.push(time_entry(
        &format!("oracle/forward/{HDR_BASELINE_PREC}"),
        1,
        reps,
        || {
            black_box(rt.par_map(black_box(&batch), |obs| {
                compstat_hmm::forward_oracle(black_box(&model), obs, &ctx)
            }));
        },
    ));

    BenchDoc {
        suite: "hdr".into(),
        scale: scale.as_str().into(),
        threads: rt.threads(),
        unix_ms: unix_ms_now(),
        entries,
    }
}

/// Builds the oracle-pass suite: the 256-bit sweeps behind the
/// accuracy figures, timed end to end with the cache forced off (a
/// cache hit would time disk reads, not arithmetic).
///
/// Entries:
///
/// * `oracle/fig09-fig11` — the p-value sweep over the shared
///   Figure 9/11 accuracy corpus (one sweep serves both figures, so it
///   is one entry);
/// * `oracle/fig10` and `oracle/fig10-long` — the Figure 10 VICAR
///   forward sweeps at the scale's short and long sequence lengths,
///   exactly the work `fig10`'s report pays for in panels (a) and (b).
#[must_use]
pub fn oracle_suite(scale: Scale, rt: &Runtime) -> BenchDoc {
    let rt = rt.with_cache_mode(CacheMode::Off);
    let reps = scale.pick(3, 5, 5) as u32;
    let ctx = Context::new(256);
    let mut entries = Vec::new();

    let corpus = fig09_pvalues::corpus_for(scale);
    entries.push(time_entry("oracle/fig09-fig11", 1, reps, || {
        black_box(compstat_pbd::batch::oracle_pvalues(
            black_box(&corpus),
            &ctx,
            &rt,
        ));
    }));

    let (t_short, t_long, models, h) = fig10_vicar::scale_params(scale);
    for (id, t_len) in [("oracle/fig10", t_short), ("oracle/fig10-long", t_long)] {
        let sweep = fig10_vicar::oracle_sweep(t_len, models, h, fig10_vicar::panel_seed(t_len));
        let base = sweep.base();
        entries.push(time_entry(id, 1, reps, || {
            black_box(
                rt.par_map_seeded(models, &base, |_, stream| sweep.oracle_item(stream, &ctx)),
            );
        }));
    }

    BenchDoc {
        suite: "oracle".into(),
        scale: scale.as_str().into(),
        threads: rt.threads(),
        unix_ms: unix_ms_now(),
        entries,
    }
}

/// Builds the number-format suite: what each format the paper compares
/// costs in software, per operation and per kernel.
///
/// Entries:
///
/// * `{binary64,log,posit64_12}/{add,mul}` — one operation per call,
///   cycling through 256 seeded operand pairs in `(1e-10, 1)`;
/// * `log/lse16` — one 16-ary [`compstat_logspace::log_sum_exp`];
/// * `forward/512x8/{binary64,posit64_18,log}` — one forward pass,
///   T = 512, H = 8, through [`compstat_hmm::forward`] (model prepared
///   once) and [`compstat_hmm::forward_log`];
/// * `pbd/200x24/{binary64,posit64_12,log}` — one
///   [`compstat_pbd::pbd_pvalue`] over 200 trials at k = 24;
/// * `fig06-sweep/serial` and `fig06-sweep/parallel` —
///   [`fig06_forward::figure6_sweep_likelihoods`] on
///   [`Runtime::serial`] and on `rt`. The likelihoods are bitwise
///   equal (`fig06`'s tests pin that); only the wall-clock differs;
/// * `fig07-rows/serial` and `fig07-rows/parallel` —
///   [`fig07_column::column_unit_rows`] (the synthesis and cycle model
///   behind Figures 7 and 8, one item per dataset, uncached) on
///   [`Runtime::serial`] and on `rt`.
#[must_use]
pub fn formats_suite(scale: Scale, rt: &Runtime) -> BenchDoc {
    let budget = FormatsBudget {
        reps: scale.pick(5, 7, 9) as u32,
        op_iters: scale.pick(20_000, 100_000, 400_000) as u64,
        kernel_iters: scale.pick(4, 20, 50) as u64,
        sweep_reps: scale.pick(3, 5, 5) as u32,
    };
    formats_doc(scale, rt, &budget)
}

/// Iteration budgets of one [`formats_suite`] run (a unit test runs the
/// same rows at a debug-build budget).
struct FormatsBudget {
    /// Timed repetitions of every row but the fig06 sweep.
    reps: u32,
    /// Calls per repetition of the per-op rows.
    op_iters: u64,
    /// Calls per repetition of the forward and PBD rows.
    kernel_iters: u64,
    /// Timed repetitions of each fig06 sweep and fig07 row-set row (one
    /// sweep or row set per rep).
    sweep_reps: u32,
}

fn formats_doc(scale: Scale, rt: &Runtime, budget: &FormatsBudget) -> BenchDoc {
    let &FormatsBudget {
        reps,
        op_iters,
        kernel_iters,
        sweep_reps,
    } = budget;
    let mut entries = Vec::new();

    let mut rng = StdRng::seed_from_u64(1);
    let pairs: Vec<(f64, f64)> = (0..OP_POOL)
        .map(|_| (rng.gen_range(1e-10..1.0), rng.gen_range(1e-10..1.0)))
        .collect();
    entries.extend(op_rows::<f64>("binary64", &pairs, op_iters, reps));
    entries.extend(op_rows::<LogF64>("log", &pairs, op_iters, reps));
    entries.extend(op_rows::<P64E12>("posit64_12", &pairs, op_iters, reps));
    let terms: Vec<LogF64> = pairs[..16]
        .iter()
        .map(|&(x, _)| LogF64::from_f64(x))
        .collect();
    entries.push(time_entry(
        "log/lse16",
        (op_iters / 10).max(1),
        reps,
        || {
            black_box(compstat_logspace::log_sum_exp(
                black_box(&terms).iter().copied(),
            ));
        },
    ));

    let mut rng = StdRng::seed_from_u64(2);
    let model = compstat_hmm::dirichlet_hmm(&mut rng, 8, 8, 0.8);
    let obs = compstat_hmm::uniform_observations(&mut rng, 8, 512);
    entries.push(forward_row::<f64>(
        "binary64",
        &model,
        &obs,
        kernel_iters,
        reps,
    ));
    entries.push(forward_row::<P64E18>(
        "posit64_18",
        &model,
        &obs,
        kernel_iters,
        reps,
    ));
    entries.push(time_entry("forward/512x8/log", kernel_iters, reps, || {
        black_box(compstat_hmm::forward_log(
            black_box(&model),
            black_box(&obs),
        ));
    }));

    let probs: Vec<f64> = (0..200).map(|_| rng.gen_range(1e-6..1e-2)).collect();
    entries.push(pbd_row::<f64>("binary64", &probs, kernel_iters, reps));
    entries.push(pbd_row::<P64E12>("posit64_12", &probs, kernel_iters, reps));
    entries.push(pbd_row::<LogF64>("log", &probs, kernel_iters, reps));

    for (id, sweep_rt) in [
        ("fig06-sweep/serial", &Runtime::serial()),
        ("fig06-sweep/parallel", rt),
    ] {
        entries.push(time_entry(id, 1, sweep_reps, || {
            black_box(fig06_forward::figure6_sweep_likelihoods(scale, sweep_rt));
        }));
    }
    for (id, rows_rt) in [
        ("fig07-rows/serial", &Runtime::serial()),
        ("fig07-rows/parallel", rt),
    ] {
        entries.push(time_entry(id, 1, sweep_reps, || {
            black_box(fig07_column::column_unit_rows(rows_rt));
        }));
    }

    BenchDoc {
        suite: "formats".into(),
        scale: scale.as_str().into(),
        threads: rt.threads(),
        unix_ms: unix_ms_now(),
        entries,
    }
}

/// Operand pairs the per-op rows of [`formats_suite`] cycle through (a
/// power of two, so the cursor wraps with a mask, not a division).
const OP_POOL: usize = 256;

/// The `{label}/add` and `{label}/mul` rows of [`formats_suite`]: one
/// format operation per call, cycling through `pairs` rounded into `T`.
fn op_rows<T: StatFloat>(
    label: &str,
    pairs: &[(f64, f64)],
    iters: u64,
    reps: u32,
) -> [BenchEntry; 2] {
    let pool: Vec<(T, T)> = pairs
        .iter()
        .map(|&(x, y)| (T::from_f64(x), T::from_f64(y)))
        .collect();
    [
        op_row(&format!("{label}/add"), &pool, iters, reps, T::add),
        op_row(&format!("{label}/mul"), &pool, iters, reps, T::mul),
    ]
}

/// One per-op row. `op` is a fn item (`T::add`, `T::mul`), so the
/// timed closure is monomorphized around it rather than branching per
/// call.
fn op_row<T: StatFloat>(
    id: &str,
    pool: &[(T, T)],
    iters: u64,
    reps: u32,
    op: impl Fn(T, T) -> T,
) -> BenchEntry {
    let mut cursor = 0usize;
    time_entry(id, iters, reps, || {
        cursor = (cursor + 1) % OP_POOL;
        let (x, y) = black_box(pool[cursor]);
        black_box(op(x, y));
    })
}

/// The `forward/512x8/{label}` row of [`formats_suite`] for a
/// linear-space format (the model is prepared once, outside the timing).
fn forward_row<T: StatFloat>(
    label: &str,
    model: &compstat_hmm::Hmm,
    obs: &[usize],
    iters: u64,
    reps: u32,
) -> BenchEntry {
    let prepared = model.prepare::<T>();
    time_entry(&format!("forward/512x8/{label}"), iters, reps, || {
        black_box(compstat_hmm::forward(black_box(&prepared), black_box(obs)));
    })
}

/// The `pbd/200x24/{label}` row of [`formats_suite`].
fn pbd_row<T: StatFloat>(label: &str, probs: &[f64], iters: u64, reps: u32) -> BenchEntry {
    time_entry(&format!("pbd/200x24/{label}"), iters, reps, || {
        black_box::<PbdResult<T>>(compstat_pbd::pbd_pvalue(black_box(probs), 24));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_core::json::Json;

    #[test]
    fn time_entry_summarizes_sanely() {
        let mut calls = 0u64;
        let e = time_entry("demo/op", 10, 4, || calls += 1);
        // One warm-up repetition plus four timed ones.
        assert_eq!(calls, 50);
        assert_eq!((e.iters, e.reps), (10, 4));
        assert!(e.min_ns <= e.median_ns && e.min_ns <= e.mean_ns);
        assert!(e.min_ns >= 0.0 && e.mean_ns.is_finite());
    }

    #[test]
    fn operand_pools_are_deterministic_and_full_width() {
        let a = operand_pool(256, 8, 7).unwrap();
        let b = operand_pool(256, 8, 7).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!(compstat_bigfloat::bit_identical(x, y));
            assert_eq!(x.precision(), 256);
        }
        assert!(!compstat_bigfloat::bit_identical(&a[0], &a[1]));
    }

    /// One tiny end-to-end document per suite: every entry id present,
    /// and the emitted JSON survives the validating parser. Runs the
    /// real suites at tiny budgets by reusing their building blocks
    /// rather than paying quick-scale oracle passes in a unit test.
    #[test]
    fn suite_documents_validate() {
        let ctx = Context::new(128);
        let pool = operand_pool(128, 4, 1).unwrap();
        let doc = BenchDoc {
            suite: "bigfloat".into(),
            scale: "quick".into(),
            threads: 1,
            unix_ms: unix_ms_now(),
            entries: vec![time_entry("bigfloat/div/128", 8, 3, || {
                black_box(ctx.div(&pool[0], &pool[1]));
            })],
        };
        let parsed = Json::parse(&doc.to_json_string()).expect("parses");
        let back = BenchDoc::from_json(&parsed).expect("validates");
        assert_eq!(back.entries[0].id, "bigfloat/div/128");
    }

    #[test]
    fn out_of_range_pool_precisions_get_a_named_error() {
        use compstat_bigfloat::{MAX_PREC, MIN_PREC};
        // In range, including the exact ceiling.
        assert!(operand_pool(MIN_PREC, 1, 0).is_ok());
        assert!(operand_pool(MAX_PREC, 1, 0).is_ok());
        // Below the floor and above the ceiling: named error, no panic.
        assert_eq!(
            operand_pool(0, 1, 0),
            Err(TimingError::PrecisionOutOfRange {
                requested: 0,
                rounded: 0,
            })
        );
        // A precision whose whole-limb round-up would overshoot
        // MAX_PREC is rejected by the same named error even though
        // Context::new would have accepted the un-rounded request —
        // this is the case the old `Context::new((nl as u32) * 64)`
        // turned into an opaque assert.
        let e = operand_pool(MAX_PREC * 2, 1, 0).unwrap_err();
        let TimingError::PrecisionOutOfRange { requested, rounded } = e;
        assert_eq!(requested, MAX_PREC * 2);
        assert!(rounded > MAX_PREC);
        assert!(e.to_string().contains("outside"));
    }

    /// Tiny-budget pass over [`hdr_suite`]'s id grid: both sides of
    /// every comparison present and the document validates.
    #[test]
    fn hdr_suite_pairs_every_fast_row_with_a_baseline() {
        let ctx = Context::new(HDR_BASELINE_PREC);
        let pool = operand_pool(HDR_BASELINE_PREC, 4, 2).unwrap();
        let hdr: Vec<HdrFloat> = pool.iter().map(HdrFloat::from_bigfloat).collect();
        let mut entries = Vec::new();
        for op in ["add", "mul", "div"] {
            entries.push(time_entry(&format!("hdr/{op}/53"), 2, 2, || {
                black_box(match op {
                    "add" => hdr[0] + hdr[1],
                    "mul" => hdr[0] * hdr[1],
                    _ => hdr[0] / hdr[1],
                });
            }));
            entries.push(time_entry(&format!("bigfloat/{op}/256"), 2, 2, || {
                black_box(match op {
                    "add" => ctx.add(&pool[0], &pool[1]),
                    "mul" => ctx.mul(&pool[0], &pool[1]),
                    _ => ctx.div(&pool[0], &pool[1]),
                });
            }));
        }
        let doc = BenchDoc {
            suite: "hdr".into(),
            scale: "quick".into(),
            threads: 1,
            unix_ms: unix_ms_now(),
            entries,
        };
        for op in ["add", "mul", "div"] {
            assert!(doc.entries.iter().any(|e| e.id == format!("hdr/{op}/53")));
            assert!(doc
                .entries
                .iter()
                .any(|e| e.id == format!("bigfloat/{op}/256")));
        }
        assert!(BenchDoc::from_json(&doc.to_json()).is_ok());
        // The HDR rows really are 53-bit HdrFloat: same value, binary64
        // mantissa (the speedup measured in release mode is over these
        // exact operands).
        assert!(compstat_bigfloat::bit_identical(
            &hdr[0].to_bigfloat(),
            &pool[0].round_to(53)
        ));
    }

    /// Debug-budget pass over [`formats_suite`]'s rows: every format
    /// on every row family, both fig06 sweep legs, ids unique, and the
    /// document validates.
    #[test]
    fn formats_suite_covers_every_format_and_kernel() {
        let budget = FormatsBudget {
            reps: 1,
            op_iters: 2,
            kernel_iters: 1,
            sweep_reps: 1,
        };
        let doc = formats_doc(Scale::Quick, &Runtime::with_threads(2), &budget);
        let ids = ["binary64", "log", "posit64_12"]
            .iter()
            .flat_map(|f| ["add", "mul"].map(|op| format!("{f}/{op}")))
            .chain(["binary64", "posit64_18", "log"].map(|f| format!("forward/512x8/{f}")))
            .chain(["binary64", "posit64_12", "log"].map(|f| format!("pbd/200x24/{f}")))
            .chain(
                [
                    "log/lse16",
                    "fig06-sweep/serial",
                    "fig06-sweep/parallel",
                    "fig07-rows/serial",
                    "fig07-rows/parallel",
                ]
                .map(String::from),
            );
        for id in ids {
            assert!(doc.entries.iter().any(|e| e.id == id), "missing {id}");
        }
        assert_eq!(doc.entries.len(), 17);
        assert_eq!((doc.suite.as_str(), doc.threads), ("formats", 2));
        assert!(BenchDoc::from_json(&doc.to_json()).is_ok());
    }

    #[test]
    fn bigfloat_suite_covers_every_kernel_and_precision() {
        // The real suite's rows at the smallest budget (its iteration
        // counts are sized for release-mode benchmarking).
        let doc = bigfloat_doc(Scale::Quick, 1, 1);
        let ids: Vec<String> = BIGFLOAT_PRECS
            .iter()
            .flat_map(|prec| {
                ["add", "mul", "div", "div-restoring"].map(|op| format!("bigfloat/{op}/{prec}"))
            })
            .chain(MIXED_MUL_PRECS.map(|prec| format!("bigfloat/mul/{prec}x53")))
            .chain(
                ELEMENTARY_PRECS
                    .iter()
                    .flat_map(|prec| ["ln", "exp"].map(|op| format!("bigfloat/{op}/{prec}"))),
            )
            .chain(
                ["ln-series", "exp-series"]
                    .map(|op| format!("bigfloat/{op}/{ELEMENTARY_SERIES_PREC}")),
            )
            .collect();
        for id in &ids {
            assert!(doc.entries.iter().any(|e| &e.id == id), "missing {id}");
        }
        assert_eq!(doc.entries.len(), ids.len());
        assert!(BenchDoc::from_json(&doc.to_json()).is_ok());
    }
}
