//! # compstat-hmm
//!
//! Hidden Markov Models and the forward algorithm — the first of the two
//! statistical bioinformatics case studies in *"Design and accuracy
//! trade-offs in Computational Statistics"* (IISWC 2025), where VICAR
//! (a phylogenetics tool) computes likelihoods as small as
//! `2^-2_900_000` over 500,000-site Human-Chimp-Gorilla sequences.
//!
//! The forward algorithm (Listing 1 of the paper) is written once, as a
//! recurrence generic over [`compstat_core::Arith`], and instantiated:
//!
//! * over every [`compstat_core::StatFloat`] format ([`forward`]),
//! * in explicit log-space with n-ary LSE (Listing 3, [`forward_log`]),
//! * at 256-bit oracle precision ([`forward_oracle`]),
//! * with per-step rescaling (the Section VII baseline,
//!   [`forward_scaled`]),
//! * as an exact exponent trace reproducing Figure 1
//!   ([`forward_trace`]),
//! * and batched over many observation sequences through the
//!   deterministic parallel runtime ([`forward_batch`],
//!   [`forward_log_batch`], [`forward_oracle_batch`] — bitwise-identical
//!   results for any `COMPSTAT_THREADS`).
//!
//! Viterbi decoding and the backward algorithm are included as
//! extensions with the same numerical structure.
//!
//! # Examples
//!
//! ```
//! use compstat_hmm::{dirichlet_hmm, forward, uniform_observations};
//! use compstat_posit::P64E18;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let model = dirichlet_hmm(&mut rng, 8, 4, 0.8);
//! let obs = uniform_observations(&mut rng, 4, 2_000);
//!
//! let in_f64: f64 = forward(&model.prepare(), &obs);
//! let in_posit: P64E18 = forward(&model.prepare(), &obs);
//! // Long sequences underflow binary64 but not posit(64,18):
//! assert_eq!(in_f64, 0.0);
//! assert!(!in_posit.is_zero());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod batch;
mod forward;
mod gen;
mod model;
mod viterbi;

pub use batch::{
    forward_batch, forward_log_batch, forward_oracle_batch, forward_oracle_batch_cached,
    forward_oracle_cache_key, ORACLE_KERNEL_TAG,
};
pub use forward::{
    forward, forward_log, forward_oracle, forward_scaled, forward_trace, forward_trace_rt,
    ScaledForward, TracePoint,
};
pub use gen::{dirichlet_hmm, hcg_like, model_observations, uniform_observations};
pub use model::{Hmm, PreparedHmm};
pub use viterbi::{backward, backward_log, viterbi, ViterbiPath};
