//! # compstat-runtime
//!
//! A deterministic, work-balanced parallel-map engine for the experiment
//! harness, built on [`std::thread::scope`] — no external thread-pool
//! crate is available in this build environment, and none is needed:
//! every sweep in the paper's evaluation is an embarrassingly parallel
//! map over independent work items (observation sequences, alignment
//! columns, sampled operations, Dirichlet models).
//!
//! ## The determinism contract
//!
//! Parallelism here buys wall-clock time **without changing the
//! estimator**: for any thread count, every API in this crate returns
//! results that are *bitwise identical* to the serial (`threads = 1`)
//! run. The contract rests on three design rules:
//!
//! 1. **Pure per-item work.** The mapped closure receives only its item
//!    (and index); it shares no mutable state, so item results cannot
//!    depend on scheduling.
//! 2. **Placement by index.** Workers claim items one at a time from a
//!    shared counter, so an expensive item never holds up a fixed share
//!    of the others; each result lands in its item's slot, so the output
//!    `Vec` is index-for-index the serial output.
//! 3. **Index-derived RNG streams.** Randomized sweeps draw from one
//!    independent generator per work *item*, derived from a base
//!    generator via the vendored xoshiro's jump-equivalent
//!    [`split`](rand::rngs::StdRng::split) reseeding keyed by item
//!    index. Which thread claims an item never touches its
//!    stream, so sample draws are independent of thread count.
//!
//! The serial path maps the same per-item closure over `0..n` in order
//! on the calling thread; the parallel path differs only in who runs
//! each item. The workspace's differential test suite
//! (`tests/parallel_determinism.rs`) locks the contract down
//! experiment by experiment.
//!
//! ## Thread-count selection
//!
//! [`Runtime::from_env`] reads the `COMPSTAT_THREADS` environment
//! variable:
//!
//! * `1` — serial fallback (run everything on the calling thread);
//! * `0`, unset, or empty/whitespace — use
//!   [`std::thread::available_parallelism`];
//! * any other `n` up to [`MAX_THREADS`] — use exactly `n` worker
//!   threads;
//! * anything else (non-numeric, negative, or beyond the cap) is a
//!   *misconfiguration*: [`Runtime::try_from_env`] returns a
//!   [`ThreadsEnvError`] naming the bad value, and the infallible
//!   [`Runtime::from_env`] prints that error as a warning to stderr and
//!   falls back to all cores — never a silent "behaves like unset".
//!
//! ## Cache mode
//!
//! The runtime also carries the oracle-cache switch ([`CacheMode`]) so
//! one value threads both knobs through the experiment engine. Plain
//! constructors ([`Runtime::with_threads`], [`Runtime::serial`]) and
//! [`Runtime::from_env`] leave caching [`CacheMode::Off`]; no
//! environment variable switches it. The `compstat` CLI turns it on
//! for `run` and `serve` unless `--no-cache` is passed.
//!
//! ## Panic propagation
//!
//! If a mapped closure panics, the panic payload is re-raised on the
//! calling thread (after all in-flight workers finish) — a panicking
//! experiment fails its test the same way it would serially.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![expect(
    clippy::disallowed_methods,
    reason = "the runtime owns COMPSTAT_THREADS validation and the core-count fallback"
)]

use rand::rngs::StdRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on an explicitly requested thread count. Real spawns are
/// capped at the item count, so larger values could not help —
/// they only ever indicate a unit mix-up in `COMPSTAT_THREADS`.
pub const MAX_THREADS: usize = 4096;

/// Upper bound on a shard count (`--shard K/N`). A fleet wider than
/// this could not be fed work anyway — the registry and the sweeps top
/// out far below it — so larger values only ever indicate a mangled
/// `K/N` spelling.
pub const MAX_SHARDS: usize = 4096;

/// A rejected shard spelling (see [`Shard::parse`] / [`Shard::new`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardError {
    /// The verbatim value that was rejected.
    pub raw: String,
    /// Why it was rejected.
    pub reason: String,
}

impl core::fmt::Display for ShardError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "shard {:?} is invalid: {} (use K/N with 1 <= K <= N <= {MAX_SHARDS}, \
             e.g. 2/3 for the second of three shards)",
            self.raw, self.reason
        )
    }
}

impl std::error::Error for ShardError {}

/// One shard of a deterministic `K/N` partition.
///
/// A shard is the unit of distributed execution: `--shard K/N` names
/// the `K`-th of `N` equal partitions (1-based, so the spelling on the
/// command line matches the spelling in a CI matrix). The assignment
/// rule is **round-robin by index** — shard `K` owns every item `i`
/// with `i % N == K - 1` — at both granularities the engine shards:
///
/// * **registry level**: experiment `j` (in registry order) is run by
///   shard `(j % N) + 1`, which spreads the three expensive sweeps
///   (fig09/fig10/fig11, adjacent in registry order) across shards;
/// * **work-item level**: inside a big sweep, part `p` of `N` computes
///   the items `p - 1, p - 1 + N, ...`, each from its own
///   index-derived RNG stream, so any shard computes exactly the bytes
///   the unsharded sweep would for those items.
///
/// The partition is a pure function of `(K, N)` and the item count:
/// disjoint, complete, and identical across calls, machines, and
/// thread counts — the property the sharded-union-equals-unsharded
/// guarantee rests on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// Builds shard `index` of `count` (both 1-based, `index <= count
    /// <= MAX_SHARDS`).
    ///
    /// # Errors
    ///
    /// Returns a [`ShardError`] naming the bad combination: a zero
    /// index or count, an index beyond the count, or a count beyond
    /// [`MAX_SHARDS`].
    pub fn new(index: usize, count: usize) -> Result<Shard, ShardError> {
        let raw = format!("{index}/{count}");
        if count == 0 {
            return Err(ShardError {
                raw,
                reason: "the shard count N must be at least 1".into(),
            });
        }
        if count > MAX_SHARDS {
            return Err(ShardError {
                raw,
                reason: format!("the shard count {count} exceeds the {MAX_SHARDS}-shard cap"),
            });
        }
        if index == 0 {
            return Err(ShardError {
                raw,
                reason: "shards are numbered from 1, not 0".into(),
            });
        }
        if index > count {
            return Err(ShardError {
                raw,
                reason: format!("the shard index {index} exceeds the shard count {count}"),
            });
        }
        Ok(Shard { index, count })
    }

    /// Parses a `K/N` spelling (`2/3` = the second of three shards).
    ///
    /// # Errors
    ///
    /// Returns a [`ShardError`] naming the verbatim value when it is
    /// not two `/`-separated integers, or the integers fail
    /// [`Shard::new`]'s range checks (`0/3`, `4/3`, `3/0`, ...).
    pub fn parse(raw: &str) -> Result<Shard, ShardError> {
        let bad = |reason: &str| ShardError {
            raw: raw.to_string(),
            reason: reason.to_string(),
        };
        let (k, n) = raw
            .trim()
            .split_once('/')
            .ok_or_else(|| bad("expected the form K/N"))?;
        let index: usize = k
            .trim()
            .parse()
            .map_err(|_| bad(&format!("the shard index {:?} is not an integer", k.trim())))?;
        let count: usize = n
            .trim()
            .parse()
            .map_err(|_| bad(&format!("the shard count {:?} is not an integer", n.trim())))?;
        Shard::new(index, count).map_err(|e| ShardError {
            raw: raw.to_string(),
            reason: e.reason,
        })
    }

    /// This shard's 1-based index (`K` in `K/N`).
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The total shard count (`N` in `K/N`).
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether this shard owns item `i` of a round-robin partition.
    #[must_use]
    pub fn owns(&self, i: usize) -> bool {
        i % self.count == self.index - 1
    }

    /// The items of `0..n` this shard owns, in ascending order.
    pub fn indices(&self, n: usize) -> impl Iterator<Item = usize> {
        (self.index - 1..n).step_by(self.count)
    }

    /// How many of `0..n` this shard owns.
    #[must_use]
    pub fn len_of(&self, n: usize) -> usize {
        n.saturating_sub(self.index - 1).div_ceil(self.count)
    }

    /// Reassembles a full result vector from per-shard parts:
    /// `parts[k - 1]` must hold shard `k/count`'s results in its own
    /// index order, and the output restores global item order
    /// (`out[i] = parts[i % count][i / count]`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first part whose length does not
    /// match its share of `n` — a partial or mixed-up part set must
    /// never silently reassemble.
    pub fn assemble<T>(count: usize, n: usize, parts: Vec<Vec<T>>) -> Result<Vec<T>, String> {
        if count == 0 || count > MAX_SHARDS {
            return Err(format!("bad shard count {count}"));
        }
        if parts.len() != count {
            return Err(format!("{} part(s) for {count} shard(s)", parts.len()));
        }
        for (k, part) in parts.iter().enumerate() {
            let want = Shard {
                index: k + 1,
                count,
            }
            .len_of(n);
            if part.len() != want {
                return Err(format!(
                    "part {}/{count} holds {} item(s), expected {want} of {n}",
                    k + 1,
                    part.len()
                ));
            }
        }
        let mut iters: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(iters[i % count].next().expect("length checked above"));
        }
        Ok(out)
    }
}

impl core::fmt::Display for Shard {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Whether oracle sweeps may read and write the persistent cache.
///
/// Carried by the [`Runtime`] so the experiment engine threads one
/// value through every sweep. The cache itself (location, file format,
/// statistics) lives in `compstat-core`; this is only the switch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Never touch the cache: always recompute (the `--no-cache` path,
    /// and the default for programmatic [`Runtime`] construction).
    #[default]
    Off,
    /// Read cached oracle results when present, write them after a
    /// miss.
    ReadWrite,
}

/// A rejected `COMPSTAT_THREADS` value (see [`Runtime::try_from_env`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadsEnvError {
    /// The environment variable's verbatim contents.
    pub raw: String,
    /// Why it was rejected.
    pub reason: String,
}

impl core::fmt::Display for ThreadsEnvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "COMPSTAT_THREADS={:?} is invalid: {} (use 0 or unset for all cores, 1 for serial, \
             or a thread count up to {MAX_THREADS})",
            self.raw, self.reason
        )
    }
}

impl std::error::Error for ThreadsEnvError {}

/// Parses a `COMPSTAT_THREADS` value. `Ok(None)` means "treat as
/// unset" (empty or whitespace-only — the documented convenience for
/// `COMPSTAT_THREADS= cmd` spellings); numbers above [`MAX_THREADS`],
/// negative numbers, and non-numeric text are errors.
fn parse_threads_env(raw: &str) -> Result<Option<usize>, ThreadsEnvError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n <= MAX_THREADS => Ok(Some(n)),
        Ok(n) => Err(ThreadsEnvError {
            raw: raw.to_string(),
            reason: format!("{n} exceeds the {MAX_THREADS}-thread cap"),
        }),
        Err(_) => Err(ThreadsEnvError {
            raw: raw.to_string(),
            reason: "not a non-negative integer".to_string(),
        }),
    }
}

/// Deterministic parallel-map executor with a fixed thread budget.
///
/// Construction is cheap (no pool is kept alive); threads are scoped to
/// each call. See the crate docs for the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Runtime {
    threads: usize,
    cache: CacheMode,
    shard: Option<Shard>,
}

impl Runtime {
    /// Builds a runtime from the `COMPSTAT_THREADS` environment
    /// variable, reporting a bad thread count instead of guessing (see
    /// the crate docs). Caching starts [`CacheMode::Off`].
    ///
    /// # Errors
    ///
    /// Returns a [`ThreadsEnvError`] when `COMPSTAT_THREADS` is set to
    /// something that is neither empty nor a thread count in
    /// `0..=MAX_THREADS`.
    pub fn try_from_env() -> Result<Runtime, ThreadsEnvError> {
        let threads = match std::env::var("COMPSTAT_THREADS") {
            Ok(raw) => parse_threads_env(&raw)?.unwrap_or(0),
            Err(_) => 0,
        };
        Ok(Runtime::with_threads(threads))
    }

    /// Infallible [`Runtime::try_from_env`]: a bad `COMPSTAT_THREADS`
    /// value prints a warning to stderr and falls back to all cores
    /// (the documented misconfiguration behavior — never silent).
    #[must_use]
    pub fn from_env() -> Runtime {
        match Runtime::try_from_env() {
            Ok(rt) => rt,
            Err(e) => {
                eprintln!("compstat-runtime: warning: {e}; falling back to all cores");
                Runtime::with_threads(0)
            }
        }
    }

    /// Builds a runtime with an explicit thread budget; `0` means
    /// [`std::thread::available_parallelism`]. Caching starts
    /// [`CacheMode::Off`].
    #[must_use]
    pub fn with_threads(threads: usize) -> Runtime {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        Runtime {
            threads,
            cache: CacheMode::Off,
            shard: None,
        }
    }

    /// The serial runtime: everything runs on the calling thread.
    #[must_use]
    pub fn serial() -> Runtime {
        Runtime::with_threads(1)
    }

    /// Returns this runtime with the given oracle-cache mode (builder
    /// style).
    #[must_use]
    pub fn with_cache_mode(mut self, cache: CacheMode) -> Runtime {
        self.cache = cache;
        self
    }

    /// The oracle-cache switch carried by this runtime.
    #[must_use]
    pub fn cache_mode(&self) -> CacheMode {
        self.cache
    }

    /// Returns this runtime stamped with a distributed-run shard
    /// (builder style). The shard never changes what a sweep computes
    /// — results stay bitwise-identical to an unsharded run — it only
    /// tells shard-aware consumers (the experiment engine's
    /// registry partition, the oracle cache's part-wise sweeps) which
    /// `K/N` slice of the fleet this process is.
    #[must_use]
    pub fn with_shard(mut self, shard: Shard) -> Runtime {
        self.shard = Some(shard);
        self
    }

    /// The distributed-run shard carried by this runtime, if any.
    #[must_use]
    pub fn shard(&self) -> Option<Shard> {
        self.shard
    }

    /// The resolved thread budget (always at least 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in item order.
    ///
    /// Bitwise-deterministic in the thread count for pure `f` (see the
    /// crate docs).
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.run_items(items.len(), |i| f(&items[i]))
    }

    /// Maps `f` over the index range `0..n`, returning results in index
    /// order — for sweeps whose items are generated, not stored.
    pub fn par_map_index<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        self.run_items(n, f)
    }

    /// Maps `f` over `0..n` where each item draws from its own RNG
    /// stream, derived from `base` by item index.
    ///
    /// Stream `i` is `base.split(i)`: a function of the base generator's
    /// state and the item index only. Chunk layout and thread count
    /// never influence any draw, so randomized sweeps stay
    /// bitwise-identical from `threads = 1` to `threads = N` — the
    /// property the paper's "buy wall-clock with parallel resources
    /// without changing the estimator" trade demands. `base` is not
    /// advanced.
    pub fn par_map_seeded<U, F>(&self, n: usize, base: &StdRng, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, &mut StdRng) -> U + Sync,
    {
        self.run_items(n, |i| {
            let mut rng = base.split(i as u64);
            f(i, &mut rng)
        })
    }

    /// Maps `f` over an explicit list of *global* item indices,
    /// returning results aligned with `indices` — the shard-aware
    /// subset map behind part-wise sweeps.
    ///
    /// `f(i)` receives the global index, so an item computes the exact
    /// bytes it would in a full [`Runtime::par_map_index`] sweep no
    /// matter which subset (or machine) it runs in. A randomized item
    /// draws from `base.split(i)`, exactly the stream
    /// [`Runtime::par_map_seeded`] would hand it, so a shard's slice of
    /// a randomized sweep is bitwise the same items of the unsharded run.
    pub fn par_map_at<U, F>(&self, indices: &[usize], f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        self.run_items(indices.len(), |k| f(indices[k]))
    }

    /// The engine behind every map: runs `item(i)` for each `i` in
    /// `0..n` and returns the results in index order. With more than one
    /// thread, scoped workers claim one index at a time from a shared
    /// counter, so a sweep whose cost sits in a few items is not held up
    /// behind a fixed split; each result is placed by its index, so the
    /// output never depends on which worker ran what.
    ///
    /// If any worker panics, the first panic (in worker order) is
    /// propagated on the calling thread after the scope joins every
    /// worker.
    fn run_items<U, I>(&self, n: usize, item: I) -> Vec<U>
    where
        U: Send,
        I: Fn(usize) -> U + Sync,
    {
        let threads = self.threads.min(n);
        if threads <= 1 {
            return (0..n).map(item).collect();
        }
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
                // Relaxed: the counter only hands out indices; results
                // travel back through `join`, which synchronizes.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                done.push((i, item(i)));
            }
        };
        let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            // A panic payload is carried out of the scope (which still
            // joins the remaining workers) and re-raised for the caller.
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for handle in handles {
                match handle.join() {
                    Ok(part) => {
                        for (i, u) in part {
                            slots[i] = Some(u);
                        }
                    }
                    Err(payload) => {
                        panic.get_or_insert(payload);
                    }
                }
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
        });
        slots
            .into_iter()
            .map(|u| u.expect("every index is claimed exactly once"))
            .collect()
    }
}

impl Default for Runtime {
    /// Equivalent to [`Runtime::from_env`].
    fn default() -> Runtime {
        Runtime::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn with_threads_zero_resolves_to_available_parallelism() {
        assert!(Runtime::with_threads(0).threads() >= 1);
        assert_eq!(Runtime::with_threads(3).threads(), 3);
        assert_eq!(Runtime::serial().threads(), 1);
    }

    #[test]
    fn programmatic_runtimes_default_to_cache_off() {
        assert_eq!(Runtime::with_threads(4).cache_mode(), CacheMode::Off);
        assert_eq!(Runtime::serial().cache_mode(), CacheMode::Off);
        assert_eq!(
            Runtime::serial()
                .with_cache_mode(CacheMode::ReadWrite)
                .cache_mode(),
            CacheMode::ReadWrite
        );
    }

    #[test]
    fn threads_env_parsing_rejects_garbage_loudly() {
        // Empty / whitespace: documented "treat as unset".
        assert_eq!(parse_threads_env(""), Ok(None));
        assert_eq!(parse_threads_env("  "), Ok(None));
        // Valid counts, including the serial and all-cores spellings.
        assert_eq!(parse_threads_env("0"), Ok(Some(0)));
        assert_eq!(parse_threads_env("1"), Ok(Some(1)));
        assert_eq!(parse_threads_env(" 16 "), Ok(Some(16)));
        assert_eq!(parse_threads_env("4096"), Ok(Some(MAX_THREADS)));
        // Misconfigurations are errors naming the bad value, not a
        // silent fall-through to "unset".
        for bad in ["abc", "-1", "999999999999", "4097", "1.5", "0x10"] {
            let err = parse_threads_env(bad).expect_err(bad);
            assert_eq!(err.raw, bad);
            assert!(err.to_string().contains("COMPSTAT_THREADS"), "{err}");
        }
        // Overflow beyond u64 also errors (not wraps).
        assert!(parse_threads_env("99999999999999999999999999").is_err());
    }

    #[test]
    fn par_map_preserves_order_for_every_thread_count() {
        let items: Vec<u64> = (0..1_000).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 4, 7, 16, 64] {
            let got = Runtime::with_threads(threads).par_map(&items, |x| x * x);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let rt = Runtime::with_threads(4);
        assert!(rt.par_map(&[] as &[u64], |x| *x).is_empty());
        assert!(rt.par_map_index(0, |i| i).is_empty());
        let base = StdRng::seed_from_u64(1);
        assert!(rt.par_map_seeded(0, &base, |i, _| i).is_empty());
    }

    #[test]
    fn chunk_size_edge_cases_cover_every_index_exactly_once() {
        // n not divisible by threads, n == threads, n < threads,
        // n == 1: each index must appear exactly once, in order.
        for (n, threads) in [(10, 3), (10, 4), (4, 4), (3, 8), (1, 8), (2, 2)] {
            let got = Runtime::with_threads(threads).par_map_index(n, |i| i);
            assert_eq!(got, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
        }
    }

    #[test]
    fn a_slow_item_does_not_hold_up_the_others() {
        // Item 0 waits until every other item has run. Workers that
        // claim items one at a time get there with one thread stuck on
        // item 0; a fixed split would leave items queued behind it, so
        // item 0 gives up after the timeout instead of hanging.
        use std::sync::{mpsc, Mutex};
        use std::time::Duration;
        let n = 16;
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let got = Runtime::with_threads(2).par_map_index(n, |i| {
            if i > 0 {
                tx.send(i).expect("the receiver outlives the map");
                return true;
            }
            let rx = rx.lock().expect("only item 0 takes the lock");
            (1..n).all(|_| rx.recv_timeout(Duration::from_secs(10)).is_ok())
        });
        assert!(got[0], "items stayed queued behind the slow item 0");
        assert_eq!(got, vec![true; n]);
    }

    #[test]
    fn seeded_draws_are_independent_of_thread_count() {
        let base = StdRng::seed_from_u64(42);
        let serial = Runtime::serial().par_map_seeded(97, &base, |i, rng| {
            (i, rng.gen::<u64>(), rng.gen_range(0.0f64..1.0))
        });
        for threads in [2, 4, 5, 97] {
            let parallel = Runtime::with_threads(threads).par_map_seeded(97, &base, |i, rng| {
                (i, rng.gen::<u64>(), rng.gen_range(0.0f64..1.0))
            });
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn seeded_streams_differ_between_items() {
        let base = StdRng::seed_from_u64(7);
        let draws = Runtime::with_threads(4).par_map_seeded(64, &base, |_, rng| rng.gen::<u64>());
        let distinct: std::collections::BTreeSet<u64> = draws.iter().copied().collect();
        assert_eq!(distinct.len(), draws.len(), "per-item streams must differ");
    }

    #[test]
    fn panic_propagates_with_payload() {
        let result = std::panic::catch_unwind(|| {
            Runtime::with_threads(4).par_map_index(100, |i| {
                assert!(i != 61, "item 61 exploded");
                i
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .expect("panic payload is a message");
        assert!(msg.contains("item 61 exploded"), "payload: {msg}");
    }

    #[test]
    fn shard_parse_accepts_every_valid_spelling() {
        let s = Shard::parse("2/3").unwrap();
        assert_eq!((s.index(), s.count()), (2, 3));
        assert_eq!(s.to_string(), "2/3");
        assert_eq!(Shard::parse(" 1/1 ").unwrap(), Shard::new(1, 1).unwrap());
        assert_eq!(
            Shard::parse(&format!("{MAX_SHARDS}/{MAX_SHARDS}"))
                .unwrap()
                .count(),
            MAX_SHARDS
        );
    }

    #[test]
    fn shard_parse_rejects_garbage_naming_the_value() {
        for bad in [
            "0/3", "4/3", "a/b", "3/0", "3", "", "1/2/3", "-1/3", "1/99999",
        ] {
            let err = Shard::parse(bad).expect_err(bad);
            assert_eq!(err.raw, bad, "{bad}");
            assert!(err.to_string().contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn shard_round_robin_partitions_any_range() {
        for n in [0, 1, 7, 100] {
            for count in [1, 2, 3, 5, 8] {
                let mut seen = vec![false; n];
                for k in 1..=count {
                    let shard = Shard::new(k, count).unwrap();
                    let owned: Vec<usize> = shard.indices(n).collect();
                    assert_eq!(owned.len(), shard.len_of(n), "{k}/{count} over {n}");
                    for i in owned {
                        assert!(shard.owns(i));
                        assert!(!seen[i], "item {i} owned twice ({k}/{count})");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "incomplete partition {count}/{n}");
            }
        }
    }

    #[test]
    fn shard_assemble_restores_global_order() {
        let n = 11;
        let count = 3;
        let parts: Vec<Vec<usize>> = (1..=count)
            .map(|k| Shard::new(k, count).unwrap().indices(n).collect())
            .collect();
        let whole = Shard::assemble(count, n, parts).unwrap();
        assert_eq!(whole, (0..n).collect::<Vec<_>>());

        // A short part must be rejected, not silently misassembled.
        let mut bad: Vec<Vec<usize>> = (1..=count)
            .map(|k| Shard::new(k, count).unwrap().indices(n).collect())
            .collect();
        bad[1].pop();
        let err = Shard::assemble(count, n, bad).unwrap_err();
        assert!(err.contains("part 2/3"), "{err}");
        assert!(Shard::assemble(count, n, vec![vec![0usize]]).is_err());
    }

    #[test]
    fn subset_maps_match_the_full_sweep_itemwise() {
        let base = StdRng::seed_from_u64(42);
        let full = Runtime::serial().par_map_seeded(50, &base, |i, rng| (i, rng.gen::<u64>()));
        let plain: Vec<usize> = Runtime::serial().par_map_index(50, |i| i * 3);
        for count in [1, 2, 3, 5] {
            for k in 1..=count {
                let shard = Shard::new(k, count).unwrap();
                let indices: Vec<usize> = shard.indices(50).collect();
                for threads in [1, 4] {
                    let rt = Runtime::with_threads(threads).with_shard(shard);
                    assert_eq!(rt.shard(), Some(shard));
                    let sub = rt.par_map_at(&indices, |i| (i, base.split(i as u64).gen::<u64>()));
                    for (pos, &i) in indices.iter().enumerate() {
                        assert_eq!(sub[pos], full[i], "seeded item {i} ({k}/{count})");
                    }
                    let sub_plain = rt.par_map_at(&indices, |i| i * 3);
                    for (pos, &i) in indices.iter().enumerate() {
                        assert_eq!(sub_plain[pos], plain[i]);
                    }
                }
            }
        }
    }

    #[test]
    fn panic_in_serial_path_propagates_too() {
        let result = std::panic::catch_unwind(|| {
            Runtime::serial().par_map_index(3, |i| {
                assert!(i != 2, "serial boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
