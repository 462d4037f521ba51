//! Criterion micro-benchmarks: software per-op cost of each number
//! system (the software-side complement of Table II — the paper notes
//! "software-emulated posit is too slow for practical use"; these
//! numbers quantify exactly how the operation mix shifts cost between
//! formats on a CPU).

use compstat_bigfloat::{BigFloat, Context};
use compstat_hmm::{dirichlet_hmm, forward, forward_log, uniform_observations};
use compstat_logspace::{log_sum_exp, LogF64};
use compstat_pbd::{pbd_pvalue, PbdResult};
use compstat_posit::{P64E12, P64E18};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_scalar_ops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let xs: Vec<f64> = (0..256).map(|_| rng.gen_range(1e-10..1.0)).collect();
    let ys: Vec<f64> = (0..256).map(|_| rng.gen_range(1e-10..1.0)).collect();

    let mut g = c.benchmark_group("scalar_ops");
    g.bench_function("f64_add", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for (&x, &y) in xs.iter().zip(&ys) {
                acc += black_box(x) + black_box(y);
            }
            acc
        })
    });
    g.bench_function("f64_mul", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for (&x, &y) in xs.iter().zip(&ys) {
                acc += black_box(x) * black_box(y);
            }
            acc
        })
    });
    let lx: Vec<LogF64> = xs.iter().map(|&x| LogF64::from_f64(x)).collect();
    let ly: Vec<LogF64> = ys.iter().map(|&y| LogF64::from_f64(y)).collect();
    g.bench_function("logspace_add_lse", |b| {
        b.iter(|| {
            let mut acc = LogF64::ZERO;
            for (&x, &y) in lx.iter().zip(&ly) {
                acc *= black_box(x) + black_box(y);
            }
            acc
        })
    });
    g.bench_function("logspace_mul", |b| {
        b.iter(|| {
            let mut acc = LogF64::ONE;
            for (&x, &y) in lx.iter().zip(&ly) {
                acc = acc * black_box(x) * black_box(y);
            }
            acc
        })
    });
    let px: Vec<P64E12> = xs.iter().map(|&x| P64E12::from_f64(x)).collect();
    let py: Vec<P64E12> = ys.iter().map(|&y| P64E12::from_f64(y)).collect();
    g.bench_function("posit64_12_add", |b| {
        b.iter(|| {
            let mut acc = P64E12::ZERO;
            for (&x, &y) in px.iter().zip(&py) {
                acc = black_box(x) + black_box(y);
                black_box(acc);
            }
            acc
        })
    });
    g.bench_function("posit64_12_mul", |b| {
        b.iter(|| {
            let mut acc = P64E12::ONE;
            for (&x, &y) in px.iter().zip(&py) {
                acc = black_box(x) * black_box(y);
                black_box(acc);
            }
            acc
        })
    });
    let bx: Vec<BigFloat> = xs.iter().map(|&x| BigFloat::from_f64(x)).collect();
    let by: Vec<BigFloat> = ys.iter().map(|&y| BigFloat::from_f64(y)).collect();
    let ctx = Context::new(256);
    g.bench_function("bigfloat256_mul", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for (x, y) in bx.iter().zip(&by) {
                n += ctx.mul(black_box(x), black_box(y)).limbs().len();
            }
            n
        })
    });
    g.bench_function("lse_16ary", |b| {
        let terms: Vec<LogF64> = lx.iter().take(16).copied().collect();
        b.iter(|| log_sum_exp(black_box(&terms).iter().copied()))
    });
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let model = dirichlet_hmm(&mut rng, 8, 8, 0.8);
    let obs = uniform_observations(&mut rng, 8, 512);
    let mut g = c.benchmark_group("forward_512x8");
    g.bench_function("binary64", |b| {
        let m = model.prepare::<f64>();
        b.iter(|| forward::<f64>(black_box(&m), black_box(&obs)))
    });
    g.bench_function("posit64_18", |b| {
        let m = model.prepare::<P64E18>();
        b.iter(|| forward::<P64E18>(black_box(&m), black_box(&obs)))
    });
    g.bench_function("log_space", |b| {
        b.iter(|| forward_log(black_box(&model), black_box(&obs)))
    });
    g.finish();

    let probs: Vec<f64> = (0..200).map(|_| rng.gen_range(1e-6..1e-2)).collect();
    let mut g = c.benchmark_group("pbd_200x24");
    g.bench_function("binary64", |b| {
        b.iter(|| -> PbdResult<f64> { pbd_pvalue(black_box(&probs), 24) })
    });
    g.bench_function("posit64_12", |b| {
        b.iter(|| -> PbdResult<P64E12> { pbd_pvalue(black_box(&probs), 24) })
    });
    g.bench_function("log_space", |b| {
        b.iter(|| -> PbdResult<LogF64> { pbd_pvalue(black_box(&probs), 24) })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(core::time::Duration::from_secs(2)).warm_up_time(core::time::Duration::from_millis(500));
    targets = bench_scalar_ops, bench_kernels
}
criterion_main!(benches);
