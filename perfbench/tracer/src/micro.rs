//! Per-operation costs of the number formats, with operands rotated
//! through a seeded pool so no single operand pair sets the figure.

use std::hint::black_box;

use compstat_bigfloat::{BigFloat, Context, HdrFloat};
use compstat_core::{error, StatFloat};
use compstat_logspace::LogF64;
use compstat_posit::P64E18;

use crate::trace::{median, Trace};

/// Operands per pool. Call `i` takes the pair `(i, 7i + 1) mod POOL`,
/// so a timed loop rotates through `POOL` distinct operand pairs.
const POOL: usize = 61;
/// Timed repetitions per operation; the median is reported.
const REPS: usize = 7;

/// splitmix64: the seeded stream behind every operand pool.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[1, 2)`.
    fn unit(&mut self) -> f64 {
        1.0 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Median ns per call of `op(i)` over `iters` calls, `REPS` times,
/// recording one span per repetition under `name`.
fn time_op(trace: &mut Trace, name: &str, iters: usize, mut op: impl FnMut(usize)) -> f64 {
    for i in 0..iters {
        op(i);
    }
    let mut per_call = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let id = trace.open(name, None);
        for i in 0..iters {
            op(i);
        }
        trace.close(id);
        per_call.push(trace.secs(id) * 1e9 / iters as f64);
    }
    median(&per_call)
}

/// Full-width `prec`-bit operands with exponents spread over ±500.
fn bigfloat_pool(prec: u32, rng: &mut SplitMix) -> Vec<BigFloat> {
    let ctx = Context::new(prec);
    (0..POOL)
        .map(|_| {
            let q = ctx.div(
                &BigFloat::from_f64(rng.unit()),
                &BigFloat::from_f64(rng.unit() * 3.0),
            );
            q.mul_pow2((rng.next_u64() % 1001) as i64 - 500)
        })
        .collect()
}

/// Values in a format, magnitudes spread over 2^-1000..1: the deep
/// range the paper's accumulations live in.
fn format_pool<T: StatFloat>(rng: &mut SplitMix) -> Vec<T> {
    (0..POOL)
        .map(|_| {
            let e = (rng.next_u64() % 1000) as i32;
            T::from_f64(rng.unit() / 2.0 * 2f64.powi(-e))
        })
        .collect()
}

fn format_ops<T: StatFloat>(trace: &mut Trace, layer: &str, rng: &mut SplitMix) {
    let pool = format_pool::<T>(rng);
    let iters = 100_000;
    let add = time_op(trace, &format!("{layer}.add"), iters, |i| {
        black_box(black_box(pool[i % POOL]).add(black_box(pool[(i * 7 + 1) % POOL])));
    });
    let mul = time_op(trace, &format!("{layer}.mul"), iters, |i| {
        black_box(black_box(pool[i % POOL]).mul(black_box(pool[(i * 7 + 1) % POOL])));
    });
    trace.metric(format!("{layer}.add_ns"), add, "ns");
    trace.metric(format!("{layer}.mul_ns"), mul, "ns");
}

type BinOp = fn(&Context, &BigFloat, &BigFloat) -> BigFloat;

/// Times the kernels under every workload: bigfloat at the serve and
/// oracle precisions, the three compact formats, and `error::measure`.
pub fn run(trace: &mut Trace, seed: u64) {
    let mut rng = SplitMix(seed ^ 0x7E7C_E000);
    for (prec, ops) in [
        (128u32, &["add", "mul"][..]),
        (256, &["add", "mul", "div"][..]),
    ] {
        let ctx = Context::new(prec);
        let pool = bigfloat_pool(prec, &mut rng);
        for &op in ops {
            let (f, iters): (BinOp, usize) = match op {
                "add" => (Context::add, 20_000),
                "mul" => (Context::mul, 20_000),
                _ => (Context::div, 5_000),
            };
            let name = format!("bigfloat.{op}.{prec}");
            let ns = time_op(trace, &name, iters, |i| {
                let (a, b) = (&pool[i % POOL], &pool[(i * 7 + 1) % POOL]);
                black_box(f(&ctx, black_box(a), black_box(b)));
            });
            trace.metric(format!("bigfloat.{op}_ns.{prec}"), ns, "ns");
        }
    }
    format_ops::<P64E18>(trace, "posit", &mut rng);
    format_ops::<LogF64>(trace, "logspace", &mut rng);
    format_ops::<HdrFloat>(trace, "hdr", &mut rng);

    // error::measure as the figures call it: a 256-bit oracle against a
    // posit result near it.
    let ctx = Context::new(256);
    let oracles = bigfloat_pool(256, &mut rng);
    let computed: Vec<P64E18> = oracles.iter().map(P64E18::from_bigfloat).collect();
    let ns = time_op(trace, "core.measure", 5_000, |i| {
        black_box(error::measure(
            black_box(&oracles[i % POOL]),
            black_box(&computed[i % POOL]),
            &ctx,
        ));
    });
    trace.metric("core.measure_ns", ns, "ns");
}
