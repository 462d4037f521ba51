//! # compstat-bigfloat
//!
//! Arbitrary-precision binary floating point — the workspace's stand-in
//! for the 256-bit MPFR oracle used throughout the paper *"Design and
//! accuracy trade-offs in Computational Statistics"* (IISWC 2025).
//!
//! The paper measures every 64-bit number format (binary64, log-space,
//! posit) against results computed at 256-bit precision. This crate
//! provides that reference arithmetic:
//!
//! * [`BigFloat`] — sign + `i64` binary exponent + limb significand, so
//!   magnitudes like `2^-2_900_000` (a VICAR likelihood over 500k sites)
//!   are ordinary values, not underflow.
//! * [`Context`] — MPFR-style rounding contexts; `+ - * /` are correctly
//!   rounded (round to nearest, ties to even), `ln`/`exp` are faithfully
//!   rounded with generous guard bits.
//! * [`HdrFloat`] — a binary64 mantissa with an `i64` software
//!   exponent: bit-identical to `Context::new(53)` at hardware speed,
//!   for the precision-ladder rungs that need BigFloat's range but not
//!   its precision.
//!
//! # Examples
//!
//! Repeatedly multiplying probabilities, the motivating computation of
//! the paper (binary64 would underflow after 618 iterations at p = 0.3):
//!
//! ```
//! use compstat_bigfloat::{BigFloat, Context};
//!
//! let ctx = Context::new(256);
//! let p = BigFloat::from_f64(0.3);
//! let mut prob = BigFloat::one();
//! for _ in 0..1000 {
//!     prob = ctx.mul(&prob, &p);
//! }
//! // 0.3^1000 = 2^(1000 * log2(0.3)) ~ 2^-1737: far below binary64's
//! // reach, exactly representable here.
//! assert_eq!(prob.exponent(), Some(-1737));
//! assert_eq!(prob.to_f64(), 0.0); // the demotion the paper warns about
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arith;
mod cmp;
mod convert;
mod elementary;
mod fmt;
mod hdr;
pub mod limb;
mod repr;
pub mod serial;

#[doc(hidden)]
pub use arith::testing;
pub use arith::Context;
pub use elementary::ln2;
pub use hdr::{HdrFloat, HDR_FAST_PREC};
pub use repr::{BigFloat, Kind, Sign, DEFAULT_PREC, MAX_PREC, MIN_PREC};
pub use serial::{bit_identical, SerialError};
