//! Content-addressed persistence for 256-bit oracle sweeps.
//!
//! The paper's accuracy methodology compares every number system
//! against a high-precision BigFloat oracle, so the oracle sweeps
//! (fig09/fig11 corpus p-values, fig10 forward passes) dominate
//! `compstat run --all` wall-clock — yet each sweep is a *pure
//! function* of its inputs (experiment, scale, seed, oracle precision)
//! and of the code that computes it. This module trades disk for that
//! recomputation, the statistics-vs-computation trade the paper's
//! related work formalizes:
//!
//! * [`CacheKey`] — a structured description of one sweep, hashed
//!   (SHA-256) into the content address;
//! * [`OracleCache`] — the store under `.compstat-cache/` (or
//!   `$COMPSTAT_CACHE_DIR`): one file per key holding the exact binary
//!   serialization of the result vector
//!   ([`compstat_bigfloat::serial`]), FNV-checksummed, written via
//!   temp-file + atomic rename;
//! * [`CacheStats`] — hit/miss/write/error counters, both per-instance
//!   and process-global (the CLI reports and persists them).
//!
//! ## Safety properties
//!
//! Reads are corruption-tolerant: a truncated, tampered, or
//! wrong-format file logs a warning, counts an error, and falls back to
//! recomputing (and rewriting) — it never panics and never yields wrong
//! bytes, because the checksum and the strict BigFloat decoder reject
//! anything that is not exactly what [`OracleCache::store`] wrote. The
//! `compstat diff` golden gate then enforces end-to-end that cached and
//! uncached runs emit byte-identical reports.
//!
//! ## Invalidation
//!
//! Every key also hashes the sources of the crates that can change
//! oracle bytes ([`crate::sources`]): an edit to a kernel, a sampler or
//! the arithmetic under them addresses new entries, and the old ones
//! are never served again. The key cannot see the compiler or the
//! target, so `compstat cache clear` stays the reset after a toolchain
//! change; CI's cold-cache leg backstops that case.

#![expect(
    clippy::disallowed_methods,
    reason = "the oracle cache owns COMPSTAT_CACHE_DIR and mtime-based staleness checks"
)]

use compstat_bigfloat::BigFloat;
use compstat_runtime::{CacheMode, Runtime, Shard};
use std::cell::Cell;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic line opening every cache file.
pub const CACHE_MAGIC: &[u8] = b"compstat-oracle-cache/v1\n";

/// File extension of cache entries (`<sha256>.bfc`, "BigFloat cache").
pub const CACHE_FILE_EXT: &str = "bfc";

/// Default cache directory (relative to the working directory) when
/// `COMPSTAT_CACHE_DIR` is unset.
pub const DEFAULT_CACHE_DIR: &str = ".compstat-cache";

/// Schema identifier of the `stats.json` document kept next to the
/// entries.
pub const CACHE_STATS_SCHEMA: &str = "compstat-cache-stats/v1";

// ---------------------------------------------------------------------
// SHA-256 (the build environment has no registry access, so no `sha2`)
// ---------------------------------------------------------------------

/// Computes the SHA-256 digest of `data` (FIPS 180-4).
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padded message: data || 0x80 || zeros || bit-length (u64 BE).
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 as lowercase hex (the content-address spelling).
#[must_use]
pub fn sha256_hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(64);
    for b in sha256(data) {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// FNV-1a 64-bit — the cache-file integrity checksum (corruption
/// detection only; the content address is SHA-256).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------

/// A structured description of one oracle sweep, hashed into the
/// content address.
///
/// A key is a sweep kind (e.g. `pbd/oracle-pvalues`) plus ordered
/// `name=value` fields — experiment, scale, seed, oracle precision,
/// counts, content fingerprints. Every component is length-prefixed
/// before hashing, so no two distinct keys can collide by
/// concatenation tricks; changing *any* field changes the digest, and
/// so does any edit to the oracle crates' sources.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    kind: String,
    fields: Vec<(String, String)>,
}

impl CacheKey {
    /// Starts a key for the given sweep kind.
    #[must_use]
    pub fn new(kind: impl Into<String>) -> CacheKey {
        CacheKey {
            kind: kind.into(),
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style). Field order is significant —
    /// callers build keys from literal sequences, not maps.
    #[must_use]
    pub fn field(mut self, name: &str, value: impl ToString) -> CacheKey {
        self.fields.push((name.to_string(), value.to_string()));
        self
    }

    /// The content address: SHA-256 (hex) over the canonical encoding
    /// of the oracle crates' source digest ([`crate::sources::digest`]),
    /// kind and fields. Every key covers the code that computes its
    /// entry, so a source edit addresses new entries.
    #[must_use]
    pub fn digest(&self) -> String {
        self.digest_with(crate::sources::digest())
    }

    /// [`CacheKey::digest`] under an explicit source digest — what the
    /// address would be if the oracle crates' sources hashed to
    /// `sources`.
    #[must_use]
    pub fn digest_with(&self, sources: &[u8; 32]) -> String {
        let mut buf = Vec::new();
        let push = |buf: &mut Vec<u8>, s: &str| {
            buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        };
        buf.extend_from_slice(b"compstat-cache-key/v2\0");
        buf.extend_from_slice(sources);
        push(&mut buf, &self.kind);
        for (name, value) in &self.fields {
            push(&mut buf, name);
            push(&mut buf, value);
        }
        sha256_hex(&buf)
    }

    /// Human-readable form for logs: `kind name=value ...`.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut s = self.kind.clone();
        for (name, value) in &self.fields {
            let _ = write!(s, " {name}={value}");
        }
        s
    }
}

// ---------------------------------------------------------------------
// Result-vector encoding
// ---------------------------------------------------------------------

/// A failed cache read (corrupt, truncated, or wrong-format file).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheError {
    /// What was wrong with the file.
    pub message: String,
}

impl CacheError {
    fn new(message: impl Into<String>) -> CacheError {
        CacheError {
            message: message.into(),
        }
    }
}

impl core::fmt::Display for CacheError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CacheError {}

/// Encodes a result vector as cache-file bytes: magic, count, the
/// exact binary serialization of every value, and a trailing FNV-1a 64
/// checksum over everything before it.
#[must_use]
pub fn encode_values(values: &[BigFloat]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CACHE_MAGIC.len() + 8 + values.len() * 48 + 8);
    out.extend_from_slice(CACHE_MAGIC);
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        v.write_bytes(&mut out);
    }
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes cache-file bytes back into the result vector, verifying the
/// magic, the checksum, every value's representation invariants, and
/// that nothing trails the declared count.
///
/// # Errors
///
/// Returns a [`CacheError`] describing the first defect; no partially
/// decoded data escapes.
pub fn decode_values(bytes: &[u8]) -> Result<Vec<BigFloat>, CacheError> {
    let min = CACHE_MAGIC.len() + 8 + 8;
    if bytes.len() < min {
        return Err(CacheError::new(format!(
            "truncated: {} bytes, need at least {min}",
            bytes.len()
        )));
    }
    if &bytes[..CACHE_MAGIC.len()] != CACHE_MAGIC {
        return Err(CacheError::new("not a compstat-oracle-cache/v1 file"));
    }
    let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if fnv1a64(payload) != stored {
        return Err(CacheError::new("checksum mismatch (corrupt or tampered)"));
    }
    let mut at = CACHE_MAGIC.len();
    let count = u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
    at += 8;
    let count = usize::try_from(count).map_err(|_| CacheError::new("absurd value count"))?;
    let mut values = Vec::new();
    values
        .try_reserve(count.min(1 << 20))
        .map_err(|_| CacheError::new("value count too large"))?;
    for i in 0..count {
        let (v, used) = BigFloat::read_bytes(&payload[at..])
            .map_err(|e| CacheError::new(format!("value {i}: {e}")))?;
        at += used;
        values.push(v);
    }
    if at != payload.len() {
        return Err(CacheError::new("trailing bytes after the declared values"));
    }
    Ok(values)
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Hit/miss/write/error counters for cache activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Sweeps served from the cache.
    pub hits: u64,
    /// Sweeps recomputed (no usable entry).
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Corrupt/unreadable entries encountered (each also counts a
    /// miss).
    pub errors: u64,
}

impl CacheStats {
    /// Component-wise sum.
    #[must_use]
    pub fn plus(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            writes: self.writes + other.writes,
            errors: self.errors + other.errors,
        }
    }
}

static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_WRITES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_ERRORS: AtomicU64 = AtomicU64::new(0);

/// Process-wide cache activity since startup, summed over every
/// [`OracleCache`] instance (what `compstat run` reports).
#[must_use]
pub fn global_stats() -> CacheStats {
    CacheStats {
        hits: GLOBAL_HITS.load(Ordering::Relaxed),
        misses: GLOBAL_MISSES.load(Ordering::Relaxed),
        writes: GLOBAL_WRITES.load(Ordering::Relaxed),
        errors: GLOBAL_ERRORS.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// The content-addressed oracle store: one `<sha256>.bfc` file per
/// [`CacheKey`] under the cache directory.
///
/// All operations are best-effort and non-panicking: I/O failures and
/// corrupt entries degrade to recomputation. Writes go through a
/// temp file in the same directory followed by an atomic rename, so
/// concurrent runs never observe a partial entry.
#[derive(Debug)]
pub struct OracleCache {
    dir: PathBuf,
    mode: CacheMode,
    hits: Cell<u64>,
    misses: Cell<u64>,
    writes: Cell<u64>,
    errors: Cell<u64>,
}

impl OracleCache {
    /// A cache rooted at `dir` with the given mode.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, mode: CacheMode) -> OracleCache {
        OracleCache {
            dir: dir.into(),
            mode,
            hits: Cell::new(0),
            misses: Cell::new(0),
            writes: Cell::new(0),
            errors: Cell::new(0),
        }
    }

    /// The cache the experiment engine uses: mode from the runtime,
    /// directory from `COMPSTAT_CACHE_DIR` (default
    /// [`DEFAULT_CACHE_DIR`]). Nothing touches the filesystem until a
    /// lookup or store happens, so an `Off` cache is free.
    #[must_use]
    pub fn from_runtime(rt: &Runtime) -> OracleCache {
        OracleCache::new(default_dir(), rt.cache_mode())
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured mode.
    #[must_use]
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Entry path for a key.
    #[must_use]
    pub fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.{CACHE_FILE_EXT}", key.digest()))
    }

    /// Instance counters since construction.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            writes: self.writes.get(),
            errors: self.errors.get(),
        }
    }

    /// Loads the entry for `key`, if present and intact. A corrupt or
    /// unreadable entry logs a warning, counts an error, and reads as
    /// absent. Does not bump hit/miss counters (that is
    /// [`OracleCache::sweep`]'s job).
    #[must_use]
    pub fn load(&self, key: &CacheKey) -> Option<Vec<BigFloat>> {
        if self.mode == CacheMode::Off {
            return None;
        }
        let path = self.path_for(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                self.note_error(&format!("cannot read {}: {e}", path.display()));
                return None;
            }
        };
        match decode_values(&bytes) {
            Ok(values) => Some(values),
            Err(e) => {
                self.note_error(&format!(
                    "discarding corrupt cache entry {}: {e} (will recompute)",
                    path.display()
                ));
                None
            }
        }
    }

    /// Writes the entry for `key` (temp file + atomic rename). Returns
    /// whether the entry landed; failures only log.
    pub fn store(&self, key: &CacheKey, values: &[BigFloat]) -> bool {
        if self.mode == CacheMode::Off {
            return false;
        }
        let path = self.path_for(key);
        let bytes = encode_values(values);
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            self.note_error(&format!("cannot create {}: {e}", self.dir.display()));
            return false;
        }
        if let Err(e) = write_atomic(&path, &bytes) {
            self.note_error(&format!("cannot write {}: {e}", path.display()));
            return false;
        }
        self.writes.set(self.writes.get() + 1);
        GLOBAL_WRITES.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The cached oracle sweep: `n` independent items, item `i` worth
    /// `item(i)`, served from the store under `key` when present and
    /// otherwise computed through `rt` and stored. Every value is
    /// bit-for-bit what `item` returns, whichever path serves it, and
    /// with [`CacheMode::Off`] this is exactly the uncached sweep.
    ///
    /// On a sharded runtime ([`Runtime::shard`], shard K of N) the sweep
    /// is split into N round-robin parts, each cached under its own
    /// part-stamped key (`key + part=p/N`) — the work-item granularity
    /// of distributed runs. Part `p` owns the *global* indices
    /// `p - 1, p - 1 + N, ...` and computes each through
    /// [`Runtime::par_map_at`], so a part's bytes are identical no
    /// matter which machine runs it. Lookup order:
    ///
    /// 1. the monolithic entry for `key` (what an unsharded run
    ///    caches) — a hit serves the whole sweep;
    /// 2. per-part entries — warm parts are served, cold parts are
    ///    computed and stored;
    /// 3. the reassembled full vector is stored under the monolithic
    ///    `key` too, so a later *unsharded* run (or another shard
    ///    sharing this sweep through `cache export`/`import`) hits
    ///    without recomputation in either direction.
    ///
    /// Unsharded, the sweep is one entry under `key`: one hit or one
    /// miss. With a shared cache directory, concurrent shards running
    /// the same underlying sweep (fig09 and fig11 share one) interleave
    /// at part granularity: whichever writes a part first saves the
    /// others that part's work.
    pub fn sweep(
        &self,
        rt: &Runtime,
        key: &CacheKey,
        n: usize,
        item: impl Fn(usize) -> BigFloat + Sync,
    ) -> Vec<BigFloat> {
        let whole = || rt.par_map_index(n, &item);
        let parts = rt.shard().map_or(1, |s| s.count());
        if parts <= 1 {
            return self.get_or_compute(key, n, whole);
        }
        if self.mode == CacheMode::Off {
            return whole();
        }
        // Monolithic entry first: an unsharded (or already reunited)
        // sweep serves every part at once.
        if let Some(values) = self.lookup(key, n) {
            return values;
        }
        let mut part_values = Vec::with_capacity(parts);
        for p in 1..=parts {
            let shard = Shard::new(p, parts).expect("1 <= p <= parts");
            let part_key = key.clone().field("part", shard);
            let indices: Vec<usize> = shard.indices(n).collect();
            part_values.push(
                self.get_or_compute(&part_key, indices.len(), || rt.par_map_at(&indices, &item)),
            );
        }
        match Shard::assemble(parts, n, part_values) {
            Ok(values) => {
                // Store the reunited sweep under the monolithic key so
                // part entries and full entries stay interchangeable.
                self.store(key, &values);
                values
            }
            Err(e) => {
                // Unreachable while lookups and `par_map_at` both keep
                // one value per owned index; if a part set ever fails to
                // reassemble, fall back to one honest full computation.
                self.note_error(&format!(
                    "discarding inconsistent part set for {}: {e} (recomputing whole sweep)",
                    key.describe()
                ));
                whole()
            }
        }
    }

    /// One cache entry: the stored result for `key` when present and
    /// exactly `expected_len` values long, otherwise `compute()`,
    /// stored. With [`CacheMode::Off`] this is exactly `compute()`.
    fn get_or_compute(
        &self,
        key: &CacheKey,
        expected_len: usize,
        compute: impl FnOnce() -> Vec<BigFloat>,
    ) -> Vec<BigFloat> {
        if self.mode == CacheMode::Off {
            return compute();
        }
        if let Some(values) = self.lookup(key, expected_len) {
            return values;
        }
        self.misses.set(self.misses.get() + 1);
        GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
        let values = compute();
        self.store(key, &values);
        values
    }

    /// The hit path of [`OracleCache::sweep`]: the stored entry for
    /// `key` if it holds exactly `expected_len` values, counted as a
    /// hit. A miss is not counted here: the callers count it, or not.
    fn lookup(&self, key: &CacheKey, expected_len: usize) -> Option<Vec<BigFloat>> {
        let values = self.load(key)?;
        if values.len() == expected_len {
            self.hits.set(self.hits.get() + 1);
            GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
            return Some(values);
        }
        // A length mismatch means the key under-describes the sweep
        // (or a digest collision, vanishingly unlikely): never serve it.
        self.note_error(&format!(
            "cache entry for {} holds {} values, expected {expected_len} (recomputing)",
            key.describe(),
            values.len()
        ));
        None
    }

    fn note_error(&self, message: &str) {
        eprintln!("compstat-cache: warning: {message}");
        self.errors.set(self.errors.get() + 1);
        GLOBAL_ERRORS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The cache directory the engine resolves: `$COMPSTAT_CACHE_DIR` or
/// [`DEFAULT_CACHE_DIR`] under the working directory.
#[must_use]
pub fn default_dir() -> PathBuf {
    match std::env::var_os("COMPSTAT_CACHE_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(DEFAULT_CACHE_DIR),
    }
}

// ---------------------------------------------------------------------
// stats.json persistence (read by `compstat cache stats`)
// ---------------------------------------------------------------------

use crate::json::Json;

fn stats_obj(s: &CacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::Num(s.hits as f64)),
        ("misses", Json::Num(s.misses as f64)),
        ("writes", Json::Num(s.writes as f64)),
        ("errors", Json::Num(s.errors as f64)),
    ])
}

/// Reads a counter object; `None` unless every counter is present and
/// a whole, non-negative number.
fn stats_from_obj(v: &Json) -> Option<CacheStats> {
    let get = |k: &str| v.get(k).and_then(Json::as_count);
    Some(CacheStats {
        hits: get("hits")?,
        misses: get("misses")?,
        writes: get("writes")?,
        errors: get("errors")?,
    })
}

/// Loads `(last_run, total)` counters from the cache directory's
/// `stats.json`, if present and well-formed: the right `schema`, and
/// both counter objects with every counter a whole, non-negative
/// number. Anything else reads as absent.
#[must_use]
pub fn load_stats_file(dir: &Path) -> Option<(CacheStats, CacheStats)> {
    let text = std::fs::read_to_string(dir.join("stats.json")).ok()?;
    let doc = Json::parse(&text).ok()?;
    if doc.get("schema").and_then(Json::as_str) != Some(CACHE_STATS_SCHEMA) {
        return None;
    }
    Some((
        stats_from_obj(doc.get("last_run")?)?,
        stats_from_obj(doc.get("total")?)?,
    ))
}

/// How long a `stats.lock` file may sit unchanged before a new writer
/// treats its holder as dead and steals the lock.
const STATS_LOCK_STALE_MS: u64 = 10_000;

/// An exclusive advisory lock over a cache directory's `stats.json`,
/// held as a `stats.lock` file created with `O_EXCL`. The file body is
/// `"<pid> <unix-millis>"`; a lock whose timestamp is older than ten
/// seconds (`STATS_LOCK_STALE_MS`) is presumed abandoned (crashed
/// writer) and is broken. Released on drop.
#[derive(Debug)]
pub struct StatsLock {
    path: PathBuf,
}

impl StatsLock {
    /// Acquires the lock, retrying for up to ~5 s before giving up.
    pub fn acquire(dir: &Path) -> std::io::Result<StatsLock> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("stats.lock");
        let now_ms = || {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0)
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use std::io::Write as _;
                    // One write call: `write!` on a bare File issues one
                    // per argument, and a waiter reading the pid before
                    // its timestamp lands would break a live lock.
                    let body = format!("{} {}", std::process::id(), now_ms());
                    let _ = f.write_all(body.as_bytes());
                    return Ok(StatsLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    // Stale-holder check: a body timestamp (or, for an
                    // empty body still being written, a file mtime) past
                    // the threshold means the writer died between create
                    // and remove. Break the lock and retry.
                    let stale = match std::fs::read_to_string(&path) {
                        Ok(body) if body.is_empty() => std::fs::metadata(&path)
                            .and_then(|m| m.modified())
                            .ok()
                            .and_then(|m| m.elapsed().ok())
                            .is_some_and(|age| age.as_millis() as u64 > STATS_LOCK_STALE_MS),
                        Ok(body) => body
                            .split_whitespace()
                            .nth(1)
                            .and_then(|t| t.parse::<u64>().ok())
                            .is_none_or(|t| now_ms().saturating_sub(t) > STATS_LOCK_STALE_MS),
                        // Holder released it between our create attempt
                        // and the read — just try again.
                        Err(_) => false,
                    };
                    if stale || std::time::Instant::now() >= deadline {
                        let _ = std::fs::remove_file(&path);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for StatsLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Records one run's counters into the cache directory's `stats.json`
/// (`last_run` replaced, `total` accumulated). The read-modify-write
/// runs under [`StatsLock`], so concurrent writers (serve workers,
/// parallel shard runs) never lose counts to last-writer-wins races.
/// Best-effort: failures are reported in the return value only.
pub fn record_run_stats(dir: &Path, run: &CacheStats) -> std::io::Result<()> {
    let _lock = StatsLock::acquire(dir)?;
    let total = match load_stats_file(dir) {
        Some((_, total)) => total.plus(run),
        None => *run,
    };
    let doc = Json::obj(vec![
        ("schema", Json::str(CACHE_STATS_SCHEMA)),
        ("last_run", stats_obj(run)),
        ("total", stats_obj(&total)),
    ]);
    let mut text = doc.to_json_string();
    text.push('\n');
    std::fs::create_dir_all(dir)?;
    write_atomic(&dir.join("stats.json"), text.as_bytes())
}

/// Distinguishes concurrent [`write_atomic`] calls within one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` via a same-directory temp file
/// (`.<name>.tmp-<pid>-<seq>`) and an atomic rename, removing the temp
/// file on failure — readers never observe a partial document and
/// failed writes leave no droppings. Shared by the cache store, the
/// stats file, and the CLI's report emission.
///
/// The per-process sequence number gives every call its own temp file,
/// so threads storing the same path at once (two serve workers missing
/// on one key) never write into or rename away each other's file; the
/// last rename wins with a complete document.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| std::io::Error::other("path has no file name"))?;
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{file_name}.tmp-{}-{seq}", std::process::id()));
    std::fs::write(&tmp, bytes).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_bigfloat::{bit_identical, Context};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("compstat-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_values(n: usize) -> Vec<BigFloat> {
        let ctx = Context::new(256);
        (0..n)
            .map(|i| {
                let x = BigFloat::from_u64(i as u64 * 3 + 1);
                ctx.div(&x, &BigFloat::from_u64(7))
                    .mul_pow2(-(i as i64) * 1000)
            })
            .collect()
    }

    #[test]
    fn sha256_matches_known_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // A multi-block message (> 64 bytes).
        let long = vec![b'a'; 1_000];
        assert_eq!(
            sha256_hex(&long),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    #[test]
    fn key_digest_is_sensitive_to_every_component() {
        let base = || {
            CacheKey::new("pbd/oracle-pvalues")
                .field("experiment", "fig09")
                .field("scale", "quick")
                .field("seed", 20_260_610u64)
                .field("prec", 256u32)
                .field("kernel", "v1")
        };
        let d0 = base().digest();
        assert_eq!(d0.len(), 64);
        assert_eq!(base().digest(), d0, "equal keys share a digest");
        let variants = [
            CacheKey::new("hmm/oracle").field("experiment", "fig09"),
            base().field("extra", 1),
            CacheKey::new("pbd/oracle-pvalues")
                .field("experiment", "fig10")
                .field("scale", "quick")
                .field("seed", 20_260_610u64)
                .field("prec", 256u32)
                .field("kernel", "v1"),
            CacheKey::new("pbd/oracle-pvalues")
                .field("experiment", "fig09")
                .field("scale", "default")
                .field("seed", 20_260_610u64)
                .field("prec", 256u32)
                .field("kernel", "v1"),
            CacheKey::new("pbd/oracle-pvalues")
                .field("experiment", "fig09")
                .field("scale", "quick")
                .field("seed", 20_260_611u64)
                .field("prec", 256u32)
                .field("kernel", "v1"),
            CacheKey::new("pbd/oracle-pvalues")
                .field("experiment", "fig09")
                .field("scale", "quick")
                .field("seed", 20_260_610u64)
                .field("prec", 128u32)
                .field("kernel", "v1"),
            CacheKey::new("pbd/oracle-pvalues")
                .field("experiment", "fig09")
                .field("scale", "quick")
                .field("seed", 20_260_610u64)
                .field("prec", 256u32)
                .field("kernel", "v2"),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(v.digest(), d0, "variant {i} must change the digest");
        }
        // Length-prefixing: shuffling bytes between adjacent fields
        // cannot collide.
        let a = CacheKey::new("k").field("x", "ab").field("y", "c");
        let b = CacheKey::new("k").field("x", "a").field("y", "bc");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        for n in [0, 1, 7] {
            let values = sample_values(n);
            let bytes = encode_values(&values);
            let back = decode_values(&bytes).expect("decodes");
            assert_eq!(back.len(), values.len());
            for (a, b) in values.iter().zip(&back) {
                assert!(bit_identical(a, b));
            }
        }
    }

    #[test]
    fn decode_rejects_corruption_everywhere() {
        let bytes = encode_values(&sample_values(3));
        // Truncation at every length.
        for n in 0..bytes.len() {
            assert!(decode_values(&bytes[..n]).is_err(), "prefix {n}");
        }
        // Any single flipped bit fails the checksum (or a stricter
        // structural check).
        for at in [0, CACHE_MAGIC.len(), CACHE_MAGIC.len() + 3, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(decode_values(&bad).is_err(), "flip at {at}");
        }
        // Trailing garbage after a valid document.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(decode_values(&bad).is_err());
    }

    #[test]
    fn cold_then_warm_then_corrupt_recovery() {
        let dir = tmp("roundtrip");
        let cache = OracleCache::new(&dir, CacheMode::ReadWrite);
        let key = CacheKey::new("test/sweep").field("seed", 7);
        let values = sample_values(5);

        // Cold: computes and writes.
        let mut computed = 0;
        let got = cache.get_or_compute(&key, 5, || {
            computed += 1;
            values.clone()
        });
        assert_eq!(computed, 1);
        assert!(got.iter().zip(&values).all(|(a, b)| bit_identical(a, b)));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().writes, 1);
        assert!(cache.path_for(&key).is_file());

        // Warm: served without computing.
        let got = cache.get_or_compute(&key, 5, || {
            computed += 1;
            values.clone()
        });
        assert_eq!(computed, 1, "warm lookup must not recompute");
        assert!(got.iter().zip(&values).all(|(a, b)| bit_identical(a, b)));
        assert_eq!(cache.stats().hits, 1);

        // Tamper: flip a payload byte — the read logs, recomputes, and
        // rewrites a good entry.
        let path = cache.path_for(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let got = cache.get_or_compute(&key, 5, || {
            computed += 1;
            values.clone()
        });
        assert_eq!(computed, 2, "corrupt entry must recompute");
        assert!(got.iter().zip(&values).all(|(a, b)| bit_identical(a, b)));
        assert!(cache.stats().errors >= 1);
        // The rewrite healed the entry.
        assert!(decode_values(&std::fs::read(&path).unwrap()).is_ok());

        // Truncate: same recovery story.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let got = cache.get_or_compute(&key, 5, || {
            computed += 1;
            values.clone()
        });
        assert_eq!(computed, 3);
        assert_eq!(got.len(), 5);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn off_mode_never_touches_disk() {
        let dir = tmp("off");
        let cache = OracleCache::new(&dir, CacheMode::Off);
        let key = CacheKey::new("test/off");
        let mut computed = 0;
        for _ in 0..2 {
            let _ = cache.get_or_compute(&key, 1, || {
                computed += 1;
                sample_values(1)
            });
        }
        assert_eq!(computed, 2, "Off always recomputes");
        assert!(!dir.exists(), "Off must not create the cache directory");
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn length_mismatch_is_never_served() {
        let dir = tmp("lenmismatch");
        let cache = OracleCache::new(&dir, CacheMode::ReadWrite);
        let key = CacheKey::new("test/len");
        let _ = cache.get_or_compute(&key, 3, || sample_values(3));
        // Same key, different expected length (an under-described key):
        // recompute, don't serve 3 values as 4.
        let got = cache.get_or_compute(&key, 4, || sample_values(4));
        assert_eq!(got.len(), 4);
        assert!(cache.stats().errors >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn part_wise_sweep_matches_monolithic_in_every_warmth_order() {
        let dir = tmp("parts");
        let cache = OracleCache::new(&dir, CacheMode::ReadWrite);
        let key = CacheKey::new("test/parts").field("seed", 9);
        let n = 11;
        let whole = sample_values(n);
        let item = |i: usize| whole[i].clone();
        let unsharded = Runtime::serial();
        let three_parts = Runtime::with_threads(2).with_shard(Shard::new(2, 3).unwrap());

        // Unsharded is exactly the monolithic path: one key on disk.
        let got = cache.sweep(&unsharded, &key, n, item);
        assert!(got.iter().zip(&whole).all(|(a, b)| bit_identical(a, b)));
        assert!(cache.path_for(&key).is_file());
        assert_eq!(cache.stats().misses, 1);

        // A 3-part sweep hits the monolithic entry the unsharded run left.
        let got = cache.sweep(&three_parts, &key, n, item);
        assert!(got.iter().zip(&whole).all(|(a, b)| bit_identical(a, b)));
        assert_eq!(cache.stats().hits, 1, "monolithic entry serves parts");

        // Cold part-wise sweep under a fresh key: 3 part entries plus
        // the reunited monolithic entry land on disk.
        let key2 = CacheKey::new("test/parts").field("seed", 10);
        let before = cache.stats();
        let got = cache.sweep(&three_parts, &key2, n, item);
        assert!(got.iter().zip(&whole).all(|(a, b)| bit_identical(a, b)));
        assert_eq!(cache.stats().misses - before.misses, 3, "one miss per part");
        assert_eq!(cache.stats().writes - before.writes, 4, "3 parts + whole");
        assert!(cache.path_for(&key2).is_file());
        for p in 1..=3 {
            let part_key = key2.clone().field("part", Shard::new(p, 3).unwrap());
            let path = cache.path_for(&part_key);
            assert!(path.is_file(), "part {p}/3 entry missing");
            let entry = decode_values(&std::fs::read(&path).unwrap()).unwrap();
            let want: Vec<usize> = Shard::new(p, 3).unwrap().indices(n).collect();
            assert_eq!(entry.len(), want.len());
            for (v, &i) in entry.iter().zip(&want) {
                assert!(bit_identical(v, &whole[i]), "part {p}/3 item {i}");
            }
        }

        // An unsharded lookup now hits the monolithic entry the
        // part-wise run reunited — fleet caches compose both ways.
        let before = cache.stats();
        let got = cache.sweep(&unsharded, &key2, n, |_| unreachable!("must be warm"));
        assert_eq!(got.len(), n);
        assert_eq!(cache.stats().hits - before.hits, 1);

        // Warm parts with a cold monolithic entry: delete the whole
        // entry, keep the parts — every part hits, nothing recomputes.
        std::fs::remove_file(cache.path_for(&key2)).unwrap();
        let before = cache.stats();
        let got = cache.sweep(&three_parts, &key2, n, |_| unreachable!("parts are warm"));
        assert!(got.iter().zip(&whole).all(|(a, b)| bit_identical(a, b)));
        assert_eq!(cache.stats().hits - before.hits, 3);
        assert!(
            cache.path_for(&key2).is_file(),
            "reassembly restores the monolithic entry"
        );

        // Off mode computes every item exactly once and touches nothing.
        let off = OracleCache::new(dir.join("never-created"), CacheMode::Off);
        let calls = AtomicU64::new(0);
        let got = off.sweep(&three_parts, &key, n, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            item(i)
        });
        assert_eq!(calls.into_inner(), n as u64, "Off computes each item once");
        assert_eq!(got.len(), n);
        assert!(!dir.join("never-created").exists());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn part_count_is_in_the_part_key() {
        // The same sweep sharded 2 ways vs 3 ways must not collide at
        // part granularity (part 1/2 and part 1/3 own different items).
        let key = CacheKey::new("test/partkeys");
        let two = key.clone().field("part", Shard::new(1, 2).unwrap());
        let three = key.clone().field("part", Shard::new(1, 3).unwrap());
        assert_ne!(two.digest(), three.digest());
        assert_ne!(two.digest(), key.digest());
    }

    #[test]
    fn stats_file_accumulates_across_runs() {
        let dir = tmp("stats");
        std::fs::create_dir_all(&dir).unwrap();
        let run1 = CacheStats {
            hits: 0,
            misses: 3,
            writes: 3,
            errors: 0,
        };
        record_run_stats(&dir, &run1).unwrap();
        let run2 = CacheStats {
            hits: 3,
            misses: 0,
            writes: 0,
            errors: 1,
        };
        record_run_stats(&dir, &run2).unwrap();
        let (last, total) = load_stats_file(&dir).expect("stats.json loads");
        assert_eq!(last, run2);
        assert_eq!(total, run1.plus(&run2));
        // A corrupt stats file reads as absent, and the next record
        // starts totals over rather than failing.
        std::fs::write(dir.join("stats.json"), "{broken").unwrap();
        assert!(load_stats_file(&dir).is_none());
        record_run_stats(&dir, &run1).unwrap();
        let (_, total) = load_stats_file(&dir).unwrap();
        assert_eq!(total, run1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_stats_counters_read_as_absent() {
        let dir = tmp("stats-malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let counters = r#"{"hits":1,"misses":2,"writes":3,"errors":0}"#;
        let doc = |last_run: &str, total: &str| {
            format!(r#"{{"schema":"{CACHE_STATS_SCHEMA}","last_run":{last_run},"total":{total}}}"#)
        };
        std::fs::write(dir.join("stats.json"), doc(counters, counters)).unwrap();
        let good = CacheStats {
            hits: 1,
            misses: 2,
            writes: 3,
            errors: 0,
        };
        assert_eq!(load_stats_file(&dir), Some((good, good)));
        let bad_counters = [
            r#"{"hits":-5,"misses":2,"writes":3,"errors":0}"#,
            r#"{"hits":2.5,"misses":2,"writes":3,"errors":0}"#,
            r#"{"hits":"many","misses":2,"writes":3,"errors":0}"#,
            r#"{"misses":2,"writes":3,"errors":0}"#,
            r#"[1,2,3,4]"#,
        ];
        for bad in bad_counters {
            for text in [doc(bad, counters), doc(counters, bad)] {
                std::fs::write(dir.join("stats.json"), &text).unwrap();
                assert_eq!(load_stats_file(&dir), None, "{text}");
            }
        }
        for text in [
            format!(r#"{{"schema":"{CACHE_STATS_SCHEMA}","last_run":{counters}}}"#),
            format!(r#"{{"schema":"{CACHE_STATS_SCHEMA}","total":{counters}}}"#),
        ] {
            std::fs::write(dir.join("stats.json"), &text).unwrap();
            assert_eq!(load_stats_file(&dir), None, "{text}");
        }
        // A malformed file restarts the totals instead of feeding
        // invented counts into them.
        record_run_stats(&dir, &good).unwrap();
        assert_eq!(load_stats_file(&dir), Some((good, good)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_lose_counts() {
        let dir = tmp("stats-race");
        std::fs::create_dir_all(&dir).unwrap();
        const WRITERS: u64 = 8;
        const ROUNDS: u64 = 25;
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                s.spawn(|| {
                    let run = CacheStats {
                        hits: 1,
                        misses: 2,
                        writes: 0,
                        errors: 0,
                    };
                    for _ in 0..ROUNDS {
                        record_run_stats(&dir, &run).unwrap();
                    }
                });
            }
        });
        let (_, total) = load_stats_file(&dir).expect("stats.json loads");
        // Without the lock this read-modify-write is last-writer-wins
        // and totals come up short.
        assert_eq!(total.hits, WRITERS * ROUNDS);
        assert_eq!(total.misses, 2 * WRITERS * ROUNDS);
        assert!(!dir.join("stats.lock").exists(), "lock released");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_stats_lock_is_broken() {
        let dir = tmp("stats-stale");
        std::fs::create_dir_all(&dir).unwrap();
        // A lock body stamped at the epoch is as stale as it gets.
        std::fs::write(dir.join("stats.lock"), "0 0").unwrap();
        let run = CacheStats {
            hits: 5,
            ..CacheStats::default()
        };
        let start = std::time::Instant::now();
        record_run_stats(&dir, &run).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(4));
        let (_, total) = load_stats_file(&dir).unwrap();
        assert_eq!(total.hits, 5);
        // Garbage lock bodies are treated as stale too.
        std::fs::write(dir.join("stats.lock"), "not a lock").unwrap();
        record_run_stats(&dir, &run).unwrap();
        let (_, total) = load_stats_file(&dir).unwrap();
        assert_eq!(total.hits, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_write_atomic_to_one_path_never_collides() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 25;
        let dir = tmp("write-atomic-race");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.bin");
        let payloads: Vec<Vec<u8>> = (0..THREADS)
            .map(|t| vec![u8::try_from(t).unwrap(); 4096 + t])
            .collect();
        let barrier = std::sync::Barrier::new(THREADS);
        let failures: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = payloads
                .iter()
                .map(|payload| {
                    let (path, barrier) = (&path, &barrier);
                    scope.spawn(move || {
                        // Every thread writes the same path in lockstep.
                        // Failures are counted, not raised, so no thread
                        // leaves the barrier early and strands the rest.
                        (0..ROUNDS)
                            .filter(|_| {
                                barrier.wait();
                                write_atomic(path, payload).is_err()
                            })
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(failures, 0, "write_atomic calls failed");
        let last = std::fs::read(&path).unwrap();
        assert!(payloads.contains(&last), "torn or foreign final bytes");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
