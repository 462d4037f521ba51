//! The cached 256-bit oracle sweeps over many HMM inputs.
//!
//! The forward recurrence is sequential in `t`, but the paper's
//! workloads sweep it over *thousands of sequences and models* — an
//! embarrassingly parallel outer loop. Both sweeps here run that loop
//! through [`OracleCache::sweep`]: each item is evaluated independently
//! and results are merged in input order, so for any
//! `COMPSTAT_THREADS`, shard count or cache state the returned vector
//! is bitwise-identical to the serial sweep. The cheap per-format
//! passes map [`forward`](crate::forward) straight over the batch with
//! [`Runtime::par_map`].

use crate::forward::forward_oracle;
use crate::gen::{dirichlet_hmm, uniform_observations};
use crate::model::Hmm;
use compstat_bigfloat::{BigFloat, Context};
use compstat_core::cache::{sha256_hex, CacheKey, OracleCache};
use compstat_runtime::Runtime;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the cache key for [`forward_oracle_batch_cached`]: sweep
/// provenance (`experiment`, `scale`, `seed`), the oracle precision,
/// and a SHA-256 fingerprint of the model parameters and every
/// observation sequence — so edits to model or data generation
/// invalidate entries even without a seed change. The kernel's own
/// code is covered by the source digest every [`CacheKey`] folds in.
#[must_use]
pub fn forward_oracle_cache_key<S>(
    experiment: &str,
    scale: &str,
    seed: u64,
    model: &Hmm,
    batch: &[S],
    ctx: &Context,
) -> CacheKey
where
    S: AsRef<[usize]>,
{
    let mut data = Vec::new();
    let h = model.num_states();
    let m = model.num_symbols();
    data.extend_from_slice(&(h as u64).to_le_bytes());
    data.extend_from_slice(&(m as u64).to_le_bytes());
    for i in 0..h {
        data.extend_from_slice(&model.pi(i).to_bits().to_le_bytes());
        for j in 0..h {
            data.extend_from_slice(&model.a(i, j).to_bits().to_le_bytes());
        }
        for o in 0..m {
            data.extend_from_slice(&model.b(i, o).to_bits().to_le_bytes());
        }
    }
    for obs in batch {
        let obs = obs.as_ref();
        data.extend_from_slice(&(obs.len() as u64).to_le_bytes());
        for &sym in obs {
            data.extend_from_slice(&(sym as u64).to_le_bytes());
        }
    }
    CacheKey::new("hmm/forward-oracle")
        .field("experiment", experiment)
        .field("scale", scale)
        .field("seed", seed)
        .field("sequences", batch.len())
        .field("prec", ctx.prec())
        .field("inputs-sha256", sha256_hex(&data))
}

/// The 256-bit oracle [`forward_oracle`] of every sequence in `batch`
/// under `model`, behind the persistent oracle cache: one
/// [`OracleCache::sweep`] over the sequences, so the result is
/// bit-for-bit the uncached sweep's whether it is served whole, in
/// shard parts, or computed (always, with
/// [`CacheMode::Off`](compstat_runtime::CacheMode)). This is the
/// cost-dominant pass of every HMM accuracy figure.
#[must_use]
pub fn forward_oracle_batch_cached<S>(
    model: &Hmm,
    batch: &[S],
    ctx: &Context,
    rt: &Runtime,
    cache: &OracleCache,
    key: &CacheKey,
) -> Vec<BigFloat>
where
    S: AsRef<[usize]> + Sync,
{
    cache.sweep(rt, key, batch.len(), |i| {
        forward_oracle(model, batch[i].as_ref(), ctx)
    })
}

/// One Dirichlet-HMM oracle sweep, the shape behind `fig10` and `hdr`:
/// `models` items, item `i` drawing a model whose `A`, `B` and `pi`
/// rows come from a symmetric Dirichlet(`alpha`) and then `t_len`
/// uniform observations, both from stream `i` of `seed`
/// (`StdRng::seed_from_u64(seed).split(i)`). An item's stream depends
/// only on its index, so every thread count and every shard computes
/// the same bytes.
///
/// The sweep is parameter-addressed: the items are regenerated per
/// stream rather than held in memory, so its cache key lists the
/// generation parameters instead of fingerprinting the data the way
/// [`forward_oracle_cache_key`] does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DirichletSweep {
    /// The experiment the sweep belongs to. It is a key field, so two
    /// experiments never share entries.
    pub experiment: &'static str,
    /// Observation sequence length.
    pub t_len: usize,
    /// Number of items, one model each.
    pub models: usize,
    /// Hidden states per model.
    pub states: usize,
    /// Observation symbols per model.
    pub symbols: usize,
    /// Dirichlet concentration of the sampled rows.
    pub alpha: f64,
    /// Seed of the base stream.
    pub seed: u64,
}

impl DirichletSweep {
    /// The base stream: item `i` draws from `base().split(i)`, as
    /// [`Runtime::par_map_seeded`] hands it out.
    #[must_use]
    pub fn base(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// Draws one item from its stream: the model, then the
    /// observations. A format pass that redraws from the same stream
    /// evaluates exactly the inputs the oracle saw.
    pub fn draw(&self, stream: &mut StdRng) -> (Hmm, Vec<usize>) {
        let model = dirichlet_hmm(stream, self.states, self.symbols, self.alpha);
        let obs = uniform_observations(stream, self.symbols, self.t_len);
        (model, obs)
    }

    /// The oracle likelihood of the item drawn from `stream`: the
    /// per-item work of the sweep.
    pub fn oracle_item(&self, stream: &mut StdRng, ctx: &Context) -> BigFloat {
        let (model, obs) = self.draw(stream);
        forward_oracle(&model, &obs, ctx)
    }

    /// The sweep's cache key: every generation parameter plus the
    /// oracle precision.
    #[must_use]
    pub fn cache_key(&self, ctx: &Context) -> CacheKey {
        CacheKey::new("hmm/dirichlet-forward-oracle")
            .field("experiment", self.experiment)
            .field("t_len", self.t_len)
            .field("models", self.models)
            .field("states", self.states)
            .field("symbols", self.symbols)
            .field("alpha", self.alpha)
            .field("seed", self.seed)
            .field("prec", ctx.prec())
    }

    /// Every item's oracle likelihood, in item order, behind `cache`:
    /// one [`OracleCache::sweep`] in which item `i` draws from stream
    /// `base().split(i)`, its global index, on any shard.
    #[must_use]
    pub fn oracle_cached(&self, ctx: &Context, rt: &Runtime, cache: &OracleCache) -> Vec<BigFloat> {
        let base = self.base();
        cache.sweep(rt, &self.cache_key(ctx), self.models, |i| {
            self.oracle_item(&mut base.split(i as u64), ctx)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::{forward, forward_log};

    fn toy() -> Hmm {
        Hmm::new(
            2,
            2,
            vec![0.7, 0.3, 0.3, 0.7],
            vec![0.9, 0.1, 0.2, 0.8],
            vec![0.5, 0.5],
        )
    }

    fn sequences(n: usize, t: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|s| (0..t).map(|i| (i * 7 + s) % 2).collect())
            .collect()
    }

    #[test]
    fn oracle_batch_matches_serial() {
        use compstat_runtime::CacheMode;
        let m = toy();
        let batch = sequences(5, 60);
        let ctx = Context::new(192);
        let key = forward_oracle_cache_key("batch-test", "quick", 7, &m, &batch, &ctx);
        let off = OracleCache::new("never-created", CacheMode::Off);
        let itemwise: Vec<BigFloat> = batch.iter().map(|o| forward_oracle(&m, o, &ctx)).collect();
        for threads in [1, 3] {
            let rt = Runtime::with_threads(threads);
            let got = forward_oracle_batch_cached(&m, &batch, &ctx, &rt, &off, &key);
            assert_eq!(got, itemwise, "threads={threads}");
        }
    }

    #[test]
    fn cached_oracle_batch_is_bit_identical_cold_warm_and_off() {
        use compstat_bigfloat::bit_identical;
        use compstat_runtime::CacheMode;
        let m = toy();
        let batch = sequences(4, 50);
        let ctx = Context::new(256);
        let rt = Runtime::serial();
        let key = forward_oracle_cache_key("batch-test", "quick", 7, &m, &batch, &ctx);
        let dir = std::env::temp_dir().join(format!("compstat-hmm-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let uncached = rt.par_map(&batch, |o| forward_oracle(&m, o, &ctx));
        let cache = OracleCache::new(&dir, CacheMode::ReadWrite);
        let cold = forward_oracle_batch_cached(&m, &batch, &ctx, &rt, &cache, &key);
        let warm = forward_oracle_batch_cached(&m, &batch, &ctx, &rt, &cache, &key);
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
        let off = OracleCache::new(&dir, CacheMode::Off);
        let disabled = forward_oracle_batch_cached(&m, &batch, &ctx, &rt, &off, &key);
        for (i, u) in uncached.iter().enumerate() {
            assert!(bit_identical(u, &cold[i]), "cold[{i}]");
            assert!(bit_identical(u, &warm[i]), "warm[{i}]");
            assert!(bit_identical(u, &disabled[i]), "off[{i}]");
        }
        // Changing the observations or the model changes the key.
        let other_batch = sequences(4, 51);
        assert_ne!(
            forward_oracle_cache_key("batch-test", "quick", 7, &m, &other_batch, &ctx).digest(),
            key.digest()
        );
        let other = Hmm::new(
            2,
            2,
            vec![0.6, 0.4, 0.4, 0.6],
            vec![0.9, 0.1, 0.2, 0.8],
            vec![0.5, 0.5],
        );
        assert_ne!(
            forward_oracle_cache_key("batch-test", "quick", 7, &other, &batch, &ctx).digest(),
            key.digest()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirichlet_sweep_is_bit_identical_cold_warm_sharded_and_off() {
        use compstat_bigfloat::bit_identical;
        use compstat_runtime::{CacheMode, Shard};
        let sweep = DirichletSweep {
            experiment: "sweep-test",
            t_len: 40,
            models: 5,
            states: 3,
            symbols: 4,
            alpha: 0.8,
            seed: 11,
        };
        let ctx = Context::new(128);
        let base = sweep.base();
        let direct: Vec<BigFloat> = (0..sweep.models)
            .map(|i| sweep.oracle_item(&mut base.split(i as u64), &ctx))
            .collect();
        let dir = std::env::temp_dir().join(format!("compstat-hmm-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = OracleCache::new(&dir, CacheMode::ReadWrite);
        let off = OracleCache::new(dir.join("never-created"), CacheMode::Off);
        let key = sweep.cache_key(&ctx);
        let sharded = Runtime::with_threads(2).with_shard(Shard::new(2, 3).unwrap());
        let runs = [
            sweep.oracle_cached(&ctx, &sharded, &cache),
            sweep.oracle_cached(&ctx, &Runtime::serial(), &cache),
            sweep.oracle_cached(&ctx, &Runtime::with_threads(3), &off),
        ];
        assert_eq!(cache.stats().misses, 3, "three cold parts");
        assert_eq!(cache.stats().hits, 1, "the reunited entry serves");
        assert!(!dir.join("never-created").exists());
        for run in &runs {
            assert_eq!(run.len(), direct.len());
            assert!(run.iter().zip(&direct).all(|(a, b)| bit_identical(a, b)));
        }
        // Every generation parameter is in the key.
        let variants = [
            DirichletSweep {
                experiment: "other",
                ..sweep
            },
            DirichletSweep { t_len: 41, ..sweep },
            DirichletSweep { models: 6, ..sweep },
            DirichletSweep { states: 4, ..sweep },
            DirichletSweep {
                symbols: 5,
                ..sweep
            },
            DirichletSweep {
                alpha: 0.9,
                ..sweep
            },
            DirichletSweep { seed: 12, ..sweep },
        ];
        for v in variants {
            assert_ne!(v.cache_key(&ctx).digest(), key.digest(), "{v:?}");
        }
        assert_ne!(sweep.cache_key(&Context::new(256)).digest(), key.digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degenerate_batches_are_pinned() {
        // Reachable from the network: empty sequence lists and empty
        // observation sequences must not panic.
        use compstat_runtime::CacheMode;
        let m = toy();
        let ctx = Context::new(128);
        let off = OracleCache::new("never-created", CacheMode::Off);
        let f64_pass = |batch: &[Vec<usize>], rt: &Runtime| -> Vec<f64> {
            let prepared = m.prepare::<f64>();
            rt.par_map(batch, |o| forward(&prepared, o))
        };
        for threads in [1, 4] {
            let rt = Runtime::with_threads(threads);
            // Empty batch, through the oracle sweep and a format pass.
            let none: Vec<Vec<usize>> = Vec::new();
            let key = forward_oracle_cache_key("degenerate", "quick", 0, &m, &none, &ctx);
            assert!(forward_oracle_batch_cached(&m, &none, &ctx, &rt, &off, &key).is_empty());
            assert!(f64_pass(&none, &rt).is_empty());
            assert!(rt.par_map(&none, |o| forward_log(&m, o)).is_empty());
            // A batch whose sequences are empty: the forward recurrence
            // over zero steps is the empty product, likelihood 1.
            let empties: Vec<Vec<usize>> = vec![Vec::new(), Vec::new()];
            assert_eq!(f64_pass(&empties, &rt), vec![1.0, 1.0]);
            let key = forward_oracle_cache_key("degenerate", "quick", 0, &m, &empties, &ctx);
            let oracle = forward_oracle_batch_cached(&m, &empties, &ctx, &rt, &off, &key);
            assert_eq!(oracle.len(), 2);
            assert!(oracle.iter().all(|v| v.exponent() == Some(0)));
        }
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(
            Hmm::try_new(0, 2, vec![], vec![], vec![]).unwrap_err(),
            "empty model"
        );
        assert_eq!(
            Hmm::try_new(2, 2, vec![1.0; 3], vec![0.5; 4], vec![0.5, 0.5]).unwrap_err(),
            "A must be H x H"
        );
        assert_eq!(
            Hmm::try_new(1, 2, vec![1.0], vec![0.5; 3], vec![1.0]).unwrap_err(),
            "B must be H x M"
        );
        assert_eq!(
            Hmm::try_new(1, 1, vec![1.0], vec![1.0], vec![]).unwrap_err(),
            "pi must have H entries"
        );
        assert_eq!(
            Hmm::try_new(1, 2, vec![1.0], vec![f64::NAN, 1.0], vec![1.0]).unwrap_err(),
            "B row: bad probability"
        );
        assert!(Hmm::try_new(1, 2, vec![1.0], vec![0.5, 0.4], vec![1.0])
            .unwrap_err()
            .contains("row sums to"));
        // Hostile dimensions whose products overflow usize must error,
        // not wrap into a small allocation that passes the length check.
        assert!(Hmm::try_new(usize::MAX, 2, vec![], vec![], vec![]).is_err());
        assert!(Hmm::try_new(2, usize::MAX, vec![], vec![], vec![]).is_err());
    }
}
