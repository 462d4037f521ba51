//! Quickstart: the paper's motivating problem in five minutes.
//!
//! Statistical computations multiply probabilities iteratively; the
//! products quickly fall below binary64's smallest positive value
//! (2^-1074) and underflow to zero. This example shows the three
//! strategies side by side — binary64, log-space (the standard fix), and
//! posit (the paper's proposal) — against an exact oracle.
//!
//! Run with: `cargo run --release --example quickstart`

use compstat::bigfloat::{BigFloat, Context};
use compstat::core::error::measure;
use compstat::logspace::LogF64;
use compstat::posit::{P64E12, P64E18};

fn main() {
    println!("== The underflow problem (Section II of the paper) ==\n");

    // P = 0.3^N underflows binary64 for N > 618.
    let p = 0.3f64;
    for n in [600usize, 618, 619, 1_000, 10_000] {
        let mut f = 1.0f64;
        for _ in 0..n {
            f *= p;
        }
        println!("binary64: 0.3^{n:<6} = {f:e}");
    }
    println!();

    // The same chain in each system, measured against the oracle.
    let ctx = Context::new(256);
    let n = 10_000usize;
    let mut oracle = BigFloat::one();
    let mut in_f64 = 1.0f64;
    let mut in_log = LogF64::ONE;
    let mut in_p12 = P64E12::ONE;
    let mut in_p18 = P64E18::ONE;
    let pb = BigFloat::from_f64(p);
    for _ in 0..n {
        oracle = ctx.mul(&oracle, &pb);
        in_f64 *= p;
        in_log *= LogF64::from_f64(p);
        in_p12 *= P64E12::from_f64(p);
        in_p18 *= P64E18::from_f64(p);
    }
    println!("exact value of 0.3^{n}: {}", oracle.to_sci_string(4));
    println!("(base-2 exponent {})\n", oracle.exponent().unwrap());

    println!("format        survives?  log10(relative error vs 256-bit oracle)");
    println!("------------  ---------  ----------------------------------------");
    let m = measure(&oracle, &in_f64, &ctx);
    println!("binary64      {:<9}  {:?}", in_f64 != 0.0, m.class);
    for (name, err) in [
        ("Log", measure(&oracle, &in_log, &ctx)),
        ("posit(64,12)", measure(&oracle, &in_p12, &ctx)),
        ("posit(64,18)", measure(&oracle, &in_p18, &ctx)),
    ] {
        println!("{name:<12}  {:<9}  {:.2}", true, err.log10_rel);
    }

    println!("\nTakeaway: log-space and posit both avoid underflow, but their");
    println!("*accuracy* differs — that trade-off is what the paper (and the");
    println!("rest of this workspace: vicar_phylogenetics, lofreq_variant_calling,");
    println!("accelerator_design_space examples, plus `compstat run`) quantifies.");
}
