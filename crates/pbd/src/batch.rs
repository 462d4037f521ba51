//! Dataset-level column sweeps dispatched through the deterministic
//! parallel runtime.
//!
//! A LoFreq run evaluates the PBD recurrence over every column of a
//! dataset — hundreds of thousands of independent kernels. These
//! helpers parallelize the outer per-column loop and merge results in
//! column order, so for any `COMPSTAT_THREADS` the output vectors are
//! bitwise-identical to the serial sweep (`threads = 1` runs the same
//! code path on the calling thread).

use crate::column::{call_column_with_oracle, CallOutcome, Column};
use compstat_bigfloat::{BigFloat, Context};
use compstat_core::cache::{sha256_hex, CacheKey, OracleCache};
use compstat_core::StatFloat;
use compstat_runtime::Runtime;

/// Computes every column's 256-bit oracle p-value, in parallel — the
/// cost-dominant pass behind Figures 9 and 11.
#[must_use]
pub fn oracle_pvalues(columns: &[Column], ctx: &Context, rt: &Runtime) -> Vec<BigFloat> {
    rt.par_map(columns, |col| col.pvalue_oracle(ctx))
}

/// Builds the cache key for [`oracle_pvalues_cached`] over `columns`.
///
/// The key combines the sweep's provenance (`experiment`, `scale`,
/// `seed` — how the corpus was built), the oracle precision, and — belt
/// and braces — a SHA-256 fingerprint of the column *data itself*
/// (every success probability's bits plus `k`), so a change to corpus
/// generation invalidates entries even without a seed change. The
/// kernel's own code is covered by the source digest every
/// [`CacheKey`] folds in.
#[must_use]
pub fn oracle_cache_key(
    experiment: &str,
    scale: &str,
    seed: u64,
    columns: &[Column],
    ctx: &Context,
) -> CacheKey {
    let mut data = Vec::with_capacity(columns.len() * 64);
    for col in columns {
        data.extend_from_slice(&(col.success_probs.len() as u64).to_le_bytes());
        data.extend_from_slice(&(col.k as u64).to_le_bytes());
        for p in &col.success_probs {
            data.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
    CacheKey::new("pbd/oracle-pvalues")
        .field("experiment", experiment)
        .field("scale", scale)
        .field("seed", seed)
        .field("columns", columns.len())
        .field("prec", ctx.prec())
        .field("corpus-sha256", sha256_hex(&data))
}

/// [`oracle_pvalues`] behind the persistent oracle cache: one
/// [`OracleCache::sweep`] over the columns, so the result is bit-for-bit
/// the uncached sweep's whether it is served whole, in shard parts, or
/// computed (always, with
/// [`CacheMode::Off`](compstat_runtime::CacheMode)). Each column's
/// value depends on that column alone, which is what lets a sharded
/// runtime compute and cache the sweep in round-robin parts.
#[must_use]
pub fn oracle_pvalues_cached(
    columns: &[Column],
    ctx: &Context,
    rt: &Runtime,
    cache: &OracleCache,
    key: &CacheKey,
) -> Vec<BigFloat> {
    cache.sweep(rt, key, columns.len(), |i| columns[i].pvalue_oracle(ctx))
}

/// Calls every column in format `T` against precomputed oracle
/// p-values (`oracles[i]` belongs to `columns[i]`), in parallel.
///
/// # Panics
///
/// Panics if `columns` and `oracles` differ in length.
#[must_use]
pub fn call_columns<T>(
    columns: &[Column],
    oracles: &[BigFloat],
    ctx: &Context,
    rt: &Runtime,
) -> Vec<CallOutcome>
where
    T: StatFloat + Send + Sync,
{
    assert_eq!(
        columns.len(),
        oracles.len(),
        "one oracle p-value per column"
    );
    rt.par_map_index(columns.len(), |i| {
        call_column_with_oracle::<T>(&columns[i], &oracles[i], ctx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_logspace::LogF64;
    use compstat_posit::P64E12;

    fn corpus() -> Vec<Column> {
        crate::datasets::accuracy_corpus(7, 24)
            .into_iter()
            .filter(|c| c.n() * c.k < 20_000) // keep the test quick
            .collect()
    }

    #[test]
    fn parallel_sweeps_match_serial_bitwise() {
        let columns = corpus();
        assert!(columns.len() > 10);
        let serial = Runtime::serial();
        let par = Runtime::with_threads(4);
        let ctx = Context::new(256);
        let oracles = oracle_pvalues(&columns, &ctx, &serial);
        assert_eq!(oracles, oracle_pvalues(&columns, &ctx, &par));
        let pvalues = |outcomes: Vec<CallOutcome>| -> Vec<Vec<u8>> {
            outcomes.iter().map(|o| o.pvalue.to_bytes()).collect()
        };
        assert_eq!(
            pvalues(call_columns::<f64>(&columns, &oracles, &ctx, &serial)),
            pvalues(call_columns::<f64>(&columns, &oracles, &ctx, &par))
        );
        assert_eq!(
            pvalues(call_columns::<P64E12>(&columns, &oracles, &ctx, &serial)),
            pvalues(call_columns::<P64E12>(&columns, &oracles, &ctx, &par))
        );
    }

    #[test]
    fn call_columns_agrees_with_itemwise_calls() {
        let columns = corpus();
        let ctx = Context::new(256);
        let rt = Runtime::with_threads(4);
        let oracles = oracle_pvalues(&columns, &ctx, &rt);
        let outcomes = call_columns::<LogF64>(&columns, &oracles, &ctx, &rt);
        for (i, out) in outcomes.iter().enumerate() {
            let want = call_column_with_oracle::<LogF64>(&columns[i], &oracles[i], &ctx);
            assert_eq!(out.pvalue, want.pvalue);
            assert_eq!(out.called_variant, want.called_variant);
            assert_eq!(out.oracle_variant, want.oracle_variant);
        }
    }

    #[test]
    fn empty_dataset_yields_empty_sweeps() {
        use compstat_runtime::CacheMode;
        let rt = Runtime::with_threads(4);
        let ctx = Context::new(128);
        assert!(oracle_pvalues(&[], &ctx, &rt).is_empty());
        let off = OracleCache::new("never-created", CacheMode::Off);
        let key = oracle_cache_key("empty", "quick", 0, &[], &ctx);
        assert!(oracle_pvalues_cached(&[], &ctx, &rt, &off, &key).is_empty());
    }

    #[test]
    fn cached_oracle_sweep_is_bit_identical_cold_warm_and_off() {
        use compstat_bigfloat::bit_identical;
        use compstat_runtime::CacheMode;
        let columns = corpus();
        let ctx = Context::new(256);
        let rt = Runtime::serial();
        let key = oracle_cache_key("batch-test", "quick", 7, &columns, &ctx);
        let dir = std::env::temp_dir().join(format!("compstat-pbd-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let uncached = oracle_pvalues(&columns, &ctx, &rt);
        let cache = OracleCache::new(&dir, CacheMode::ReadWrite);
        let cold = oracle_pvalues_cached(&columns, &ctx, &rt, &cache, &key);
        let warm = oracle_pvalues_cached(&columns, &ctx, &rt, &cache, &key);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        let off = OracleCache::new(&dir, CacheMode::Off);
        let disabled = oracle_pvalues_cached(&columns, &ctx, &rt, &off, &key);
        for (i, u) in uncached.iter().enumerate() {
            assert!(bit_identical(u, &cold[i]), "cold[{i}]");
            assert!(bit_identical(u, &warm[i]), "warm[{i}]");
            assert!(bit_identical(u, &disabled[i]), "off[{i}]");
        }
        // A different corpus (or precision) must key differently.
        let fewer = &columns[..columns.len() - 1];
        assert_ne!(
            oracle_cache_key("batch-test", "quick", 7, fewer, &ctx).digest(),
            key.digest()
        );
        assert_ne!(
            oracle_cache_key("batch-test", "quick", 7, &columns, &Context::new(128)).digest(),
            key.digest()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_runtime_splits_the_cached_sweep_without_changing_bits() {
        use compstat_bigfloat::bit_identical;
        use compstat_runtime::{CacheMode, Shard};
        let columns = corpus();
        let ctx = Context::new(256);
        let plain = Runtime::with_threads(3);
        let key = oracle_cache_key("shard-test", "quick", 7, &columns, &ctx);
        let dir =
            std::env::temp_dir().join(format!("compstat-pbd-shard-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let want = oracle_pvalues(&columns, &ctx, &plain);
        // A 3-way sharded runtime computes the sweep in 3 cached parts
        // and reassembles — bit-identical to the unsharded sweep.
        let cache = OracleCache::new(&dir, CacheMode::ReadWrite);
        let sharded = plain.with_shard(Shard::new(2, 3).unwrap());
        let got = oracle_pvalues_cached(&columns, &ctx, &sharded, &cache, &key);
        assert!(got.iter().zip(&want).all(|(a, b)| bit_identical(a, b)));
        assert_eq!(cache.stats().misses, 3, "one miss per part");
        // Part entries and the reunited monolithic entry are on disk,
        // so a later *unsharded* run hits without recomputing.
        assert!(cache.path_for(&key).is_file());
        let warm = OracleCache::new(&dir, CacheMode::ReadWrite);
        let again = oracle_pvalues_cached(&columns, &ctx, &plain, &warm, &key);
        assert!(again.iter().zip(&want).all(|(a, b)| bit_identical(a, b)));
        assert_eq!((warm.stats().hits, warm.stats().misses), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "one oracle p-value per column")]
    fn call_columns_rejects_mismatched_lengths() {
        let columns = vec![Column::new(vec![0.5; 4], 2)];
        let ctx = Context::new(128);
        let _ = call_columns::<f64>(&columns, &[], &ctx, &Runtime::serial());
    }

    #[test]
    fn zero_columns_is_an_empty_outcome_batch() {
        // The degenerate batch a network client can submit: no columns,
        // no oracles — an empty result, not a panic.
        let ctx = Context::new(128);
        for threads in [1, 4] {
            let rt = Runtime::with_threads(threads);
            assert!(call_columns::<f64>(&[], &[], &ctx, &rt).is_empty());
            assert!(call_columns::<LogF64>(&[], &[], &ctx, &rt).is_empty());
        }
    }
}
