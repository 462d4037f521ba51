//! The oracle crates' sources, compiled in and hashed into every
//! [`CacheKey`](crate::cache::CacheKey).
//!
//! A cached oracle sweep is only worth serving if it holds the bytes
//! the current code would compute. The key fields describe a sweep's
//! inputs; this module describes the code. [`TABLE`] embeds every `.rs`
//! file under the `src/` of each crate in [`HASHED_CRATES`] — every
//! crate whose code can change oracle bytes: the `BigFloat`
//! arithmetic, the `Arith` recurrences' trait and the samplers, the
//! runtime's per-item RNG streams, the HMM and PBD kernels and
//! generators, and the vendored RNG. [`digest`] hashes the table once
//! per process, and `CacheKey::digest` folds the result into every
//! content address, so an edit anywhere in those crates addresses new
//! entries and no key builder can leave the code out.
//!
//! The cost is that a bit-exact edit to one of these crates (a
//! refactor, a comment) also cold-starts every cache. A new source
//! file must join [`TABLE`]; the workspace tests walk each hashed
//! crate's `src/` and fail on any file missing from it.

use crate::cache::sha256;
use std::sync::OnceLock;

/// The crates whose sources [`TABLE`] embeds, as paths from the
/// workspace root.
pub const HASHED_CRATES: [&str; 6] = [
    "crates/bigfloat",
    "crates/core",
    "crates/runtime",
    "crates/hmm",
    "crates/pbd",
    "crates/vendor/rand",
];

/// `(path from the workspace root, file bytes)` pairs, embedded with
/// `include_bytes!` so cargo also rebuilds this crate when one changes.
macro_rules! source_table {
    ($($path:literal),* $(,)?) => {
        [$(($path, include_bytes!(concat!("../../../", $path)) as &[u8])),*]
    };
}

/// Every `.rs` file under the `src/` of each [`HASHED_CRATES`] entry,
/// sorted by path.
pub static TABLE: [(&str, &[u8]); 38] = source_table![
    "crates/bigfloat/src/arith.rs",
    "crates/bigfloat/src/cmp.rs",
    "crates/bigfloat/src/convert.rs",
    "crates/bigfloat/src/elementary.rs",
    "crates/bigfloat/src/fmt.rs",
    "crates/bigfloat/src/hdr.rs",
    "crates/bigfloat/src/lib.rs",
    "crates/bigfloat/src/limb.rs",
    "crates/bigfloat/src/repr.rs",
    "crates/bigfloat/src/serial.rs",
    "crates/bigfloat/src/whole.rs",
    "crates/core/src/accuracy.rs",
    "crates/core/src/arith.rs",
    "crates/core/src/bench_doc.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/diff.rs",
    "crates/core/src/error.rs",
    "crates/core/src/json.rs",
    "crates/core/src/lib.rs",
    "crates/core/src/merge.rs",
    "crates/core/src/report.rs",
    "crates/core/src/sample.rs",
    "crates/core/src/scale.rs",
    "crates/core/src/sources.rs",
    "crates/core/src/statfloat.rs",
    "crates/core/src/stats.rs",
    "crates/hmm/src/batch.rs",
    "crates/hmm/src/forward.rs",
    "crates/hmm/src/gen.rs",
    "crates/hmm/src/lib.rs",
    "crates/hmm/src/model.rs",
    "crates/pbd/src/batch.rs",
    "crates/pbd/src/column.rs",
    "crates/pbd/src/datasets.rs",
    "crates/pbd/src/lib.rs",
    "crates/pbd/src/pmf.rs",
    "crates/runtime/src/lib.rs",
    "crates/vendor/rand/src/lib.rs",
];

/// Hashes a source table: SHA-256 over one `(path, length, SHA-256 of
/// the bytes)` record per file, in table order. Every path is
/// length-prefixed, so no two distinct tables can collide by moving
/// bytes between records.
#[must_use]
pub fn digest_table<B: AsRef<[u8]>>(files: &[(&str, B)]) -> [u8; 32] {
    let mut records = Vec::with_capacity(files.len() * 96);
    for (path, bytes) in files {
        let bytes = bytes.as_ref();
        records.extend_from_slice(&(path.len() as u64).to_le_bytes());
        records.extend_from_slice(path.as_bytes());
        records.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        records.extend_from_slice(&sha256(bytes));
    }
    sha256(&records)
}

/// [`digest_table`] of [`TABLE`], computed on first use and then kept
/// for the life of the process. Only hashing a cache key calls it, so
/// an uncached run or a server that has not yet touched its cache never
/// pays for it.
#[must_use]
pub fn digest() -> &'static [u8; 32] {
    static DIGEST: OnceLock<[u8; 32]> = OnceLock::new();
    DIGEST.get_or_init(|| digest_table(&TABLE))
}
