//! The `compstat` CLI: the unified experiment engine's front door.
//!
//! ```text
//! compstat list
//! compstat run <name>... | --all [--scale quick|default|paper]
//!              [--threads N] [--out DIR] [--shard K/N]
//! compstat merge <shard-dir>... --out DIR
//! compstat diff <baseline-dir> <new-dir> [--json]
//! compstat validate <dir-or-file>...
//! cache stats | clear | export <tar> | import <tar>
//! ```
//!
//! `run` resolves experiments in the `compstat-bench` registry and runs
//! them at the requested scale on the requested thread budget. Without
//! `--out` the text reports print to stdout; with `--out` one JSON
//! document per experiment is written plus an `index.json` summary.
//! Reports contain only deterministic data, so the emitted bytes are
//! identical for every `--threads` value — `diff -r` between a serial
//! and a parallel output directory is empty, and CI enforces exactly
//! that.
//!
//! `run --shard K/N` takes the K-th round-robin slice of the registry
//! (and splits the big oracle sweeps into cached parts), writing a
//! shard-stamped `index.json`; `merge` reassembles a complete shard
//! set into the canonical directory an unsharded `run --all` would
//! have written, byte for byte. `cache export`/`cache import` move the
//! oracle store between machines as a deterministic ustar archive.
//!
//! `diff` compares two report directories cell by cell, byte for byte,
//! and exits 0 (identical) or 2 (any difference); any usage or load
//! error exits 3 so the two verdict codes stay unambiguous.
//!
//! Argument parsing is hand-rolled: the build environment has no
//! registry access, so no `clap`.

use compstat_bench::registry::{find, registry, registry_shard};
use compstat_bench::timing;
use compstat_core::archive::{export_cache, import_cache};
use compstat_core::bench_doc::BenchDoc;
use compstat_core::cache;
use compstat_core::diff::diff_dirs;
use compstat_core::json::Json;
use compstat_core::merge::{merge_shard_dirs, parse_index, write_index, write_report, IndexEntry};
use compstat_core::{Report, Scale, INDEX_SCHEMA, REPORT_SCHEMA};
use compstat_runtime::{CacheMode, Runtime, Shard};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Outcome of a stdout write ([`emit`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Emit {
    /// Written in full.
    Ok,
    /// The reader closed the pipe (`compstat list | head`): stop
    /// writing and exit successfully — not an error, and `println!`
    /// would have panicked here.
    Closed,
    /// A real write failure (e.g. disk full behind a redirect): stop
    /// and exit nonzero, the output is incomplete.
    Failed,
}

/// Writes to stdout, distinguishing a closed pipe from a real failure.
fn emit(text: &str) -> Emit {
    use std::io::ErrorKind;
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Emit::Ok,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Emit::Closed,
        Err(e) => {
            eprintln!("compstat: cannot write to stdout: {e}");
            Emit::Failed
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help" | "--help" | "-h") | None => {
            // Through emit(), not print!: `compstat help | head -1`
            // must exit 0, not panic on the broken pipe.
            match emit(USAGE) {
                Emit::Failed => ExitCode::FAILURE,
                _ => ExitCode::SUCCESS,
            }
        }
        Some(other) => {
            eprintln!("compstat: unknown command {other:?}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
compstat — run the paper's experiments through the unified engine

USAGE:
    compstat list
    compstat run <name>... | --all [--scale quick|default|paper]
                 [--threads N] [--out DIR] [--no-cache] [--shard K/N]
    compstat bench [--quick | --scale quick|default|paper]
                   [--threads N] [--out DIR]
    compstat merge <shard-dir>... --out DIR
    compstat diff <baseline-dir> <new-dir> [--json]
    compstat validate <dir-or-file>...
    compstat cache stats | clear | export <tar> | import <tar>
    compstat serve [--addr H:P] [--workers N] [--threads N]
                   [--max-conns N] [--timeout-secs S] [--no-cache]
    compstat serve --send FILE --addr H:P | --offline FILE
    compstat help

COMMANDS:
    list        List every registered experiment (name and title)
    run         Run experiments; print text reports, or write one JSON
                report per experiment plus index.json with --out
    bench       Time the bigfloat kernels (add/mul/div at 128/256/1024
                bits, plus the retired restoring division), the HDR
                fast tier against the 256-bit path (per-op and forward
                sweep), the figures' 256-bit oracle passes, and the
                number formats (per-op, forward and PBD kernels, the
                fig06 sweep serial vs parallel). Emits wall-clock
                compstat-bench/v1 documents — explicitly
                non-deterministic, never part of a report directory,
                never compared by `diff`
    merge       Reassemble a complete set of `run --shard` output
                directories into the canonical directory an unsharded
                `run --all` would write (byte-identical); exit 0 on
                success, 1 on overlap/missing/inconsistent shards, 2 on
                usage errors
    diff        Compare two report directories cell by cell, byte for
                byte; exit 0 if identical, 2 on any changed value or
                added/removed experiment, 3 on errors
    validate    Parse every .json report under the given paths; report
                every malformed document with its reason
    cache       Inspect (`stats`), empty (`clear`), or move the
                persistent oracle cache ($COMPSTAT_CACHE_DIR, default
                .compstat-cache/) between machines as a deterministic
                ustar archive (`export <tar>` / `import <tar>`)
    serve       Run the batched scoring service: newline-delimited
                compstat-serve/v1 JSON frames over TCP (pbd
                call_columns + hmm forward_batch, ping/stats control
                verbs), scored on the deterministic runtime with the
                oracle cache as shared warm state. Served replies are
                byte-identical to the direct computation at any worker
                count. `--send FILE` plays scripted frames against a
                live server; `--offline FILE` answers the same frames
                without a network (the differential baseline)

OPTIONS (run):
    --all           Run every registered experiment, in registry order
    --scale SCALE   quick | default | paper (default: `default`;
                    `paper` = full paper-scale counts)
    --threads N     Worker threads (default: $COMPSTAT_THREADS or all
                    cores; emitted bytes are identical for every N)
    --out DIR       Write JSON reports to DIR instead of printing text
    --no-cache      Recompute every oracle sweep, bypassing the cache
                    (reports are byte-identical either way)
    --shard K/N     Run shard K of an N-way round-robin partition of
                    the registry (requires --all; big oracle sweeps are
                    cached in N parts). The index.json is shard-stamped
                    so `compstat merge` can reassemble the full set

OPTIONS (bench):
    --quick         Shorthand for --scale quick (the CI smoke budget)
    --scale SCALE   quick | default | paper (default: `default`)
    --threads N     Worker threads for the hdr forward rows, the oracle
                    suite and the parallel fig06 sweep row (the kernel
                    micro-benchmarks are always serial)
    --out DIR       Also write bench-bigfloat.json, bench-hdr.json,
                    bench-oracle.json and bench-formats.json to DIR.
                    Refused before any timing runs if DIR holds an
                    index.json — bench documents must not contaminate a
                    report directory

OPTIONS (diff):
    --json          Emit the structured compstat-diff/v2 document
                    instead of the human-readable summary

OPTIONS (serve):
    --addr H:P      Bind address (default 127.0.0.1:0 — a free port,
                    printed as `listening on H:P`). With --send: the
                    server to drive instead
    --workers N     Connection-handling worker threads (default 4)
    --threads N     Deterministic runtime threads per request
                    (default 1; replies are byte-identical for any N)
    --max-conns N   Connections queued/in-flight before new ones get
                    a busy frame (default 64)
    --timeout-secs S  Per-connection read timeout (default 10)
    --no-cache      Score without the persistent oracle cache
    --send FILE     Send FILE's newline-delimited frames to --addr,
                    print one reply line each
    --offline FILE  Answer FILE's frames directly, no network — the
                    baseline `--send` output is diffed against in CI
";

fn cmd_list(rest: &[String]) -> ExitCode {
    if !rest.is_empty() {
        eprintln!("compstat list takes no arguments");
        return ExitCode::from(2);
    }
    let width = registry().iter().map(|e| e.name().len()).max().unwrap_or(0);
    for e in registry() {
        match emit(&format!("{:width$}  {}\n", e.name(), e.title())) {
            Emit::Ok => {}
            Emit::Closed => break,
            Emit::Failed => return ExitCode::FAILURE,
        }
    }
    ExitCode::SUCCESS
}

struct RunArgs {
    names: Vec<String>,
    all: bool,
    scale: Scale,
    threads: Option<usize>,
    out: Option<PathBuf>,
    no_cache: bool,
    shard: Option<Shard>,
}

fn parse_run_args(rest: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        names: Vec::new(),
        all: false,
        scale: Scale::Default,
        threads: None,
        out: None,
        no_cache: false,
        shard: None,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--all" => parsed.all = true,
            "--no-cache" => parsed.no_cache = true,
            "--scale" => {
                let v = value_of("--scale")?;
                parsed.scale = Scale::parse(&v)
                    .ok_or_else(|| format!("unknown scale {v:?} (quick|default|paper)"))?;
            }
            "--threads" => {
                let v = value_of("--threads")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads needs a number, got {v:?}"))?;
                // Same cap as COMPSTAT_THREADS: a count this large is
                // always a unit mix-up, not a real thread budget.
                if n > compstat_runtime::MAX_THREADS {
                    return Err(format!(
                        "--threads {n} exceeds the {}-thread cap",
                        compstat_runtime::MAX_THREADS
                    ));
                }
                parsed.threads = Some(n);
            }
            "--out" => parsed.out = Some(PathBuf::from(value_of("--out")?)),
            "--shard" => {
                let v = value_of("--shard")?;
                // Same contract as the COMPSTAT_THREADS misparse
                // handling: a bad value is a usage error naming it.
                parsed.shard = Some(Shard::parse(&v).map_err(|e| e.to_string())?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name => parsed.names.push(name.to_string()),
        }
    }
    if parsed.all && !parsed.names.is_empty() {
        return Err("pass either experiment names or --all, not both".into());
    }
    if parsed.shard.is_some() && !parsed.names.is_empty() {
        return Err("--shard partitions the whole registry deterministically; \
             pass --all, not experiment names"
            .into());
    }
    if !parsed.all && parsed.names.is_empty() {
        return Err("nothing to run: pass experiment names or --all".into());
    }
    Ok(parsed)
}

fn cmd_run(rest: &[String]) -> ExitCode {
    let parsed = match parse_run_args(rest) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("compstat run: {msg}");
            return ExitCode::from(2);
        }
    };

    let experiments: Vec<&dyn compstat_core::Experiment> = if let Some(shard) = parsed.shard {
        registry_shard(shard)
    } else if parsed.all {
        registry().to_vec()
    } else {
        let mut selected = Vec::new();
        for name in &parsed.names {
            match find(name) {
                Some(e) => selected.push(e),
                None => {
                    eprintln!("compstat run: unknown experiment {name:?} (see `compstat list`)");
                    return ExitCode::from(2);
                }
            }
        }
        selected
    };

    let rt = match parsed.threads {
        Some(n) => Runtime::with_threads(n),
        // Unlike library callers (which warn and fall back), the CLI
        // treats a bad COMPSTAT_THREADS as the usage error it is.
        None => match Runtime::try_from_env() {
            Ok(rt) => rt,
            Err(e) => {
                eprintln!("compstat run: {e}");
                return ExitCode::from(2);
            }
        },
    };
    // `compstat run` caches oracle sweeps by default; `--no-cache`
    // forces recomputation. Reports are byte-identical either way —
    // that is the gate CI enforces.
    let cache_mode = if parsed.no_cache {
        CacheMode::Off
    } else {
        CacheMode::ReadWrite
    };
    let mut rt = rt.with_cache_mode(cache_mode);
    if let Some(shard) = parsed.shard {
        // The runtime carries the shard so the big oracle sweeps split
        // their work items (and cache entries) the same N ways.
        rt = rt.with_shard(shard);
    }
    let rt = rt;
    let stats_before = cache::global_stats();

    if let Some(dir) = &parsed.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("compstat run: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let mut entries: Vec<IndexEntry> = Vec::new();
    for e in &experiments {
        eprintln!("running {} ({} threads)...", e.name(), rt.threads());
        let report = e.run(&rt, parsed.scale);
        match &parsed.out {
            Some(dir) => match write_report(dir, &report) {
                Ok(entry) => {
                    eprintln!("wrote {}", dir.join(&entry.file).display());
                    entries.push(entry);
                }
                Err(err) => {
                    eprintln!("compstat run: {err}");
                    return ExitCode::FAILURE;
                }
            },
            None => {
                let banner = "=".repeat(64);
                match emit(&format!(
                    "\n{banner}\n{}\n{banner}\n{}\n",
                    e.title(),
                    report.render_text()
                )) {
                    Emit::Ok => {}
                    Emit::Closed => return ExitCode::SUCCESS,
                    Emit::Failed => return ExitCode::FAILURE,
                }
            }
        }
    }

    if let Some(dir) = &parsed.out {
        // The index goes last: its presence marks a complete directory.
        match write_index(dir, parsed.scale.as_str(), parsed.shard, &entries) {
            Ok(path) => eprintln!(
                "wrote {} ({} report{})",
                path.display(),
                entries.len(),
                if entries.len() == 1 { "" } else { "s" }
            ),
            Err(err) => {
                eprintln!("compstat run: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    if cache_mode != CacheMode::Off {
        let after = cache::global_stats();
        let run = cache::CacheStats {
            hits: after.hits - stats_before.hits,
            misses: after.misses - stats_before.misses,
            writes: after.writes - stats_before.writes,
            errors: after.errors - stats_before.errors,
        };
        let dir = cache::default_dir();
        // A run of cache-free experiments should not create the cache
        // directory just to record zeros.
        if run != cache::CacheStats::default() || dir.is_dir() {
            eprintln!(
                "oracle cache: {} hit(s), {} miss(es), {} write(s), {} error(s) in {}",
                run.hits,
                run.misses,
                run.writes,
                run.errors,
                dir.display()
            );
            if let Err(e) = cache::record_run_stats(&dir, &run) {
                eprintln!(
                    "compstat run: warning: cannot update {}: {e}",
                    dir.join("stats.json").display()
                );
            }
        }
    }
    ExitCode::SUCCESS
}

struct BenchArgs {
    scale: Scale,
    threads: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_bench_args(rest: &[String]) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs {
        scale: Scale::Default,
        threads: None,
        out: None,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--quick" => parsed.scale = Scale::Quick,
            "--scale" => {
                let v = value_of("--scale")?;
                parsed.scale = Scale::parse(&v)
                    .ok_or_else(|| format!("unknown scale {v:?} (quick|default|paper)"))?;
            }
            "--threads" => {
                let v = value_of("--threads")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads needs a number, got {v:?}"))?;
                if n > compstat_runtime::MAX_THREADS {
                    return Err(format!(
                        "--threads {n} exceeds the {}-thread cap",
                        compstat_runtime::MAX_THREADS
                    ));
                }
                parsed.threads = Some(n);
            }
            "--out" => parsed.out = Some(PathBuf::from(value_of("--out")?)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            other => {
                return Err(format!(
                    "bench takes no positional arguments, got {other:?}"
                ))
            }
        }
    }
    Ok(parsed)
}

fn cmd_bench(rest: &[String]) -> ExitCode {
    let parsed = match parse_bench_args(rest) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("compstat bench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &parsed.out {
        // The diff gate loads every .json under a report directory (one
        // holding an `index.json`); wall-clock documents there would
        // break the byte-stability contract, so refuse before any timing.
        if dir.join("index.json").exists() {
            eprintln!(
                "compstat bench: {} holds an index.json (a report directory); \
                 refusing to write non-deterministic bench documents there",
                dir.display()
            );
            return ExitCode::from(2);
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("compstat bench: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let rt = match parsed.threads {
        Some(n) => Runtime::with_threads(n),
        None => match Runtime::try_from_env() {
            Ok(rt) => rt,
            Err(e) => {
                eprintln!("compstat bench: {e}");
                return ExitCode::from(2);
            }
        },
    };

    eprintln!(
        "timing bigfloat kernels at scale {}...",
        parsed.scale.as_str()
    );
    let bigfloat = timing::bigfloat_suite(parsed.scale);
    eprintln!(
        "timing the hdr tier vs the 256-bit path at scale {} ({} threads, cache off)...",
        parsed.scale.as_str(),
        rt.threads()
    );
    let hdr = timing::hdr_suite(parsed.scale, &rt);
    eprintln!(
        "timing oracle passes at scale {} ({} threads, cache off)...",
        parsed.scale.as_str(),
        rt.threads()
    );
    let oracle = timing::oracle_suite(parsed.scale, &rt);
    eprintln!(
        "timing the number formats at scale {} ({} threads)...",
        parsed.scale.as_str(),
        rt.threads()
    );
    let formats = timing::formats_suite(parsed.scale, &rt);

    for doc in [&bigfloat, &hdr, &oracle, &formats] {
        match emit(&format!("\n{}", doc.render_text())) {
            Emit::Ok => {}
            Emit::Closed => return ExitCode::SUCCESS,
            Emit::Failed => return ExitCode::FAILURE,
        }
        if let Some(dir) = &parsed.out {
            let path = dir.join(format!("bench-{}.json", doc.suite));
            if let Err(e) = cache::write_atomic(&path, doc.to_json_string().as_bytes()) {
                eprintln!("compstat bench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

struct MergeArgs {
    dirs: Vec<PathBuf>,
    out: PathBuf,
}

fn parse_merge_args(rest: &[String]) -> Result<MergeArgs, String> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return Err("--out needs a directory".into()),
            },
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    if dirs.is_empty() {
        return Err("pass at least one shard report directory".into());
    }
    let Some(out) = out else {
        return Err("--out DIR is required (merge never writes in place)".into());
    };
    Ok(MergeArgs { dirs, out })
}

fn cmd_merge(rest: &[String]) -> ExitCode {
    let parsed = match parse_merge_args(rest) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("compstat merge: {msg}");
            return ExitCode::from(2);
        }
    };
    match merge_shard_dirs(&parsed.dirs, &parsed.out) {
        Ok(summary) => {
            match emit(&format!(
                "merged {} shard(s), {} experiment(s) at scale {} into {}\n",
                summary.shards,
                summary.experiments,
                summary.scale,
                parsed.out.display()
            )) {
                Emit::Failed => ExitCode::FAILURE,
                _ => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!("compstat merge: {e}");
            ExitCode::FAILURE
        }
    }
}

struct DiffArgs {
    baseline: PathBuf,
    new: PathBuf,
    json: bool,
}

fn parse_diff_args(rest: &[String]) -> Result<DiffArgs, String> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut json = false;
    for arg in rest {
        match arg.as_str() {
            "--json" => json = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    match <[PathBuf; 2]>::try_from(dirs) {
        Ok([baseline, new]) => Ok(DiffArgs {
            baseline,
            new,
            json,
        }),
        Err(_) => Err("pass exactly two report directories: <baseline-dir> <new-dir>".into()),
    }
}

/// Exit code for `diff` usage and load errors, distinct from the
/// 0/2 verdict codes.
const DIFF_TROUBLE: u8 = 3;

fn cmd_diff(rest: &[String]) -> ExitCode {
    let parsed = match parse_diff_args(rest) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("compstat diff: {msg}");
            return ExitCode::from(DIFF_TROUBLE);
        }
    };
    let report = match diff_dirs(&parsed.baseline, &parsed.new) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("compstat diff: {e}");
            return ExitCode::from(DIFF_TROUBLE);
        }
    };
    let rendered = if parsed.json {
        report.to_json_string()
    } else {
        report.render_text()
    };
    if emit(&rendered) == Emit::Failed {
        return ExitCode::from(DIFF_TROUBLE);
    }
    ExitCode::from(report.status().exit_code())
}

fn cmd_cache(rest: &[String]) -> ExitCode {
    match rest {
        [action] if action == "stats" => cmd_cache_stats(),
        [action] if action == "clear" => cmd_cache_clear(),
        [action, file] if action == "export" => cmd_cache_export(Path::new(file)),
        [action, file] if action == "import" => cmd_cache_import(Path::new(file)),
        _ => {
            eprintln!("compstat cache: pass `stats`, `clear`, `export <tar>`, or `import <tar>`");
            ExitCode::from(2)
        }
    }
}

fn cmd_cache_export(file: &Path) -> ExitCode {
    let dir = cache::default_dir();
    let (bytes, count) = match export_cache(&dir) {
        Ok(packed) => packed,
        Err(e) => {
            eprintln!("compstat cache: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = cache::write_atomic(file, &bytes) {
        eprintln!("compstat cache: cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    match emit(&format!(
        "exported {count} entr{} from {} to {} ({} bytes)\n",
        if count == 1 { "y" } else { "ies" },
        dir.display(),
        file.display(),
        bytes.len()
    )) {
        Emit::Failed => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}

fn cmd_cache_import(file: &Path) -> ExitCode {
    let bytes = match std::fs::read(file) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("compstat cache: cannot read {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    };
    let dir = cache::default_dir();
    match import_cache(&dir, &bytes) {
        Ok(summary) => {
            match emit(&format!(
                "imported {} entr{} into {} ({} new, {} already present)\n",
                summary.total(),
                if summary.total() == 1 { "y" } else { "ies" },
                dir.display(),
                summary.added,
                summary.existing
            )) {
                Emit::Failed => ExitCode::FAILURE,
                _ => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!("compstat cache: {}: {e}", file.display());
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

struct ServeArgs {
    addr: Option<String>,
    workers: usize,
    threads: usize,
    max_conns: usize,
    timeout_secs: u64,
    no_cache: bool,
    send: Option<PathBuf>,
    offline: Option<PathBuf>,
}

fn parse_serve_args(rest: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        addr: None,
        workers: 4,
        threads: 1,
        max_conns: 64,
        timeout_secs: 10,
        no_cache: false,
        send: None,
        offline: None,
    };
    let mut it = rest.iter();
    let value = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str, v: Option<&String>| -> Result<usize, String> {
        value(flag, v)?
            .parse::<usize>()
            .map_err(|_| format!("{flag} needs a number"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => args.addr = Some(value("--addr", it.next())?),
            "--workers" => args.workers = number("--workers", it.next())?.max(1),
            "--threads" => args.threads = number("--threads", it.next())?.max(1),
            "--max-conns" => args.max_conns = number("--max-conns", it.next())?.max(1),
            "--timeout-secs" => {
                args.timeout_secs = number("--timeout-secs", it.next())?.max(1) as u64;
            }
            "--no-cache" => args.no_cache = true,
            "--send" => args.send = Some(PathBuf::from(value("--send", it.next())?)),
            "--offline" => args.offline = Some(PathBuf::from(value("--offline", it.next())?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.send.is_some() && args.offline.is_some() {
        return Err("--send and --offline are mutually exclusive".into());
    }
    if args.send.is_some() && args.addr.is_none() {
        return Err("--send needs --addr pointing at a live server".into());
    }
    Ok(args)
}

fn serve_config(args: &ServeArgs) -> compstat_serve::ServerConfig {
    compstat_serve::ServerConfig {
        addr: args.addr.clone().unwrap_or_else(|| "127.0.0.1:0".into()),
        workers: args.workers,
        max_conns: args.max_conns,
        read_timeout: std::time::Duration::from_secs(args.timeout_secs),
        limits: compstat_serve::RequestLimits::default(),
        cache_mode: if args.no_cache {
            CacheMode::Off
        } else {
            CacheMode::ReadWrite
        },
        cache_dir: None,
        threads: args.threads,
    }
}

fn cmd_serve(rest: &[String]) -> ExitCode {
    let args = match parse_serve_args(rest) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("compstat serve: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(file) = &args.offline {
        return serve_offline(file, &args);
    }
    if let Some(file) = &args.send {
        return serve_send(file, args.addr.as_deref().expect("validated"));
    }
    // Foreground server: print the resolved address (port 0 binds a
    // free port), then serve until killed.
    let server = match compstat_serve::Server::spawn(serve_config(&args)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("compstat serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    if emit(&format!("listening on {}\n", server.local_addr())) == Emit::Failed {
        return ExitCode::FAILURE;
    }
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Reads the newline-delimited request frames of a script file,
/// skipping blank lines.
fn read_frames(file: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect())
}

fn serve_offline(file: &Path, args: &ServeArgs) -> ExitCode {
    let frames = match read_frames(file) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("compstat serve: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = serve_config(args);
    let responder = compstat_serve::Responder::new(cfg.limits, args.threads, cfg.cache_mode, None);
    for frame in &frames {
        match emit(&format!("{}\n", responder.respond_line(frame))) {
            Emit::Ok => {}
            Emit::Closed => return ExitCode::SUCCESS,
            Emit::Failed => return ExitCode::FAILURE,
        }
    }
    ExitCode::SUCCESS
}

fn serve_send(file: &Path, addr: &str) -> ExitCode {
    use std::io::{BufRead as _, BufReader};
    let frames = match read_frames(file) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("compstat serve: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut conn = match std::net::TcpStream::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compstat serve: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let read_half = match conn.try_clone() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compstat serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reader = BufReader::new(read_half);
    for frame in &frames {
        if let Err(e) = conn
            .write_all(frame.as_bytes())
            .and_then(|()| conn.write_all(b"\n"))
        {
            eprintln!("compstat serve: send failed: {e}");
            return ExitCode::FAILURE;
        }
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => {}
            _ => {
                eprintln!("compstat serve: server closed the connection mid-script");
                return ExitCode::FAILURE;
            }
        }
        match emit(&reply) {
            Emit::Ok => {}
            Emit::Closed => return ExitCode::SUCCESS,
            Emit::Failed => return ExitCode::FAILURE,
        }
    }
    ExitCode::SUCCESS
}

fn cmd_cache_stats() -> ExitCode {
    let dir = cache::default_dir();
    let mut text = format!("cache directory: {}\n", dir.display());
    if !dir.is_dir() {
        text.push_str("entries: 0 (directory does not exist yet)\n");
        return match emit(&text) {
            Emit::Failed => ExitCode::FAILURE,
            _ => ExitCode::SUCCESS,
        };
    }
    let entries = match cache::entry_paths(&dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("compstat cache: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let bytes: u64 = entries
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    text.push_str(&format!("entries: {} ({} bytes)\n", entries.len(), bytes));
    match cache::load_stats_file(&dir) {
        Some(last) => text.push_str(&format!(
            "last run: {} hit(s), {} miss(es), {} write(s), {} error(s)\n",
            last.hits, last.misses, last.writes, last.errors
        )),
        None => text.push_str("no run statistics recorded yet\n"),
    }
    match emit(&text) {
        Emit::Failed => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}

fn cmd_cache_clear() -> ExitCode {
    let dir = cache::default_dir();
    if !dir.is_dir() {
        return match emit("cache is already empty\n") {
            Emit::Failed => ExitCode::FAILURE,
            _ => ExitCode::SUCCESS,
        };
    }
    let entries = match cache::entry_paths(&dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("compstat cache: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    // A run killed mid-write leaves `.<name>.tmp-<pid>-<seq>` files behind;
    // clear owns those too, or they would accumulate invisibly
    // (`cache stats` only counts real entries).
    let orphans: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(iter) => iter
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.is_file()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with('.') && n.contains(".tmp-"))
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    let mut removed = 0usize;
    let mut failed = 0usize;
    // Remove only what the cache owns (entries, stats.json, and its
    // own temp droppings), never the directory wholesale —
    // COMPSTAT_CACHE_DIR may point anywhere.
    for path in entries
        .iter()
        .chain(std::iter::once(&dir.join("stats.json")))
        .chain(orphans.iter())
    {
        match std::fs::remove_file(path) {
            Ok(()) => removed += 1,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!("compstat cache: cannot remove {}: {e}", path.display());
                failed += 1;
            }
        }
    }
    if failed > 0 {
        return ExitCode::FAILURE;
    }
    match emit(&format!(
        "removed {removed} file(s) from {}\n",
        dir.display()
    )) {
        Emit::Failed => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}

fn cmd_validate(rest: &[String]) -> ExitCode {
    if rest.is_empty() {
        eprintln!("compstat validate: pass at least one directory or .json file");
        return ExitCode::from(2);
    }
    let mut files: Vec<PathBuf> = Vec::new();
    for arg in rest {
        let path = Path::new(arg);
        if path.is_dir() {
            match collect_json_files(path) {
                Ok(mut found) => files.append(&mut found),
                Err(e) => {
                    eprintln!("compstat validate: cannot read {arg}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            files.push(path.to_path_buf());
        }
    }
    if files.is_empty() {
        eprintln!("compstat validate: no .json files found");
        return ExitCode::FAILURE;
    }
    files.sort();
    // Check every file, accumulating failures: one invocation reports
    // every invalid document with its reason, not just the first.
    let mut invalid = 0usize;
    for path in &files {
        let reason = match std::fs::read_to_string(path) {
            Ok(text) => match Json::parse(&text) {
                Ok(doc) => match check_schema(path, &doc) {
                    Ok(()) => continue,
                    Err(msg) => msg,
                },
                Err(e) => e.to_string(),
            },
            Err(e) => format!("cannot read: {e}"),
        };
        eprintln!("compstat validate: {}: {reason}", path.display());
        invalid += 1;
    }
    if invalid > 0 {
        eprintln!(
            "compstat validate: {invalid} of {} document(s) invalid",
            files.len()
        );
        return ExitCode::FAILURE;
    }
    if emit(&format!("{} document(s) valid\n", files.len())) == Emit::Failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Collects every `.json` file under `dir`, recursively (sharded runs
/// nest report directories, e.g. `reports/run1/`, `reports/run2/`).
fn collect_json_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            out.append(&mut collect_json_files(&path)?);
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
    Ok(out)
}

/// Checks a document with the loader of its schema: the same code
/// `diff`, `merge` and `bench` read it with.
fn check_schema(path: &Path, doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema field")?;
    match schema {
        s if s == REPORT_SCHEMA => {
            let report = Report::from_json(doc).map_err(|e| e.message)?;
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if stem != report.name {
                return Err(format!(
                    "file name does not match experiment {:?}",
                    report.name
                ));
            }
            Ok(())
        }
        s if s == INDEX_SCHEMA => parse_index(doc).map(|_| ()).map_err(|e| e.message),
        s if s == compstat_core::BENCH_SCHEMA => {
            // Full structural validation, including the mandatory
            // `"non_deterministic": true` marker.
            BenchDoc::from_json(doc).map(|_| ())
        }
        other => Err(format!("unknown schema {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_args_parse_flags_and_names() {
        let p = parse_run_args(&strings(&[
            "fig01",
            "--scale",
            "quick",
            "--threads",
            "4",
            "--out",
            "reports",
        ]))
        .unwrap();
        assert_eq!(p.names, ["fig01"]);
        assert!(!p.all);
        assert_eq!(p.scale, Scale::Quick);
        assert_eq!(p.threads, Some(4));
        assert_eq!(p.out.as_deref(), Some(Path::new("reports")));
        assert!(!p.no_cache);

        let p = parse_run_args(&strings(&["--all", "--no-cache"])).unwrap();
        assert!(p.no_cache);
    }

    #[test]
    fn run_args_paper_scale_is_full() {
        let p = parse_run_args(&strings(&["--all", "--scale", "paper"])).unwrap();
        assert!(p.all);
        assert_eq!(p.scale, Scale::Full);
    }

    #[test]
    fn run_args_reject_bad_usage() {
        assert!(parse_run_args(&strings(&[])).is_err());
        assert!(parse_run_args(&strings(&["--all", "fig01"])).is_err());
        assert!(parse_run_args(&strings(&["--scale", "warp"])).is_err());
        assert!(parse_run_args(&strings(&["--threads", "many"])).is_err());
        assert!(parse_run_args(&strings(&["--bogus"])).is_err());
        assert!(parse_run_args(&strings(&["fig01", "--out"])).is_err());
    }

    #[test]
    fn bench_args_parse_flags() {
        let p = parse_bench_args(&strings(&[
            "--quick",
            "--threads",
            "2",
            "--out",
            "bench-docs",
        ]))
        .unwrap();
        assert_eq!(p.scale, Scale::Quick);
        assert_eq!(p.threads, Some(2));
        assert_eq!(p.out.as_deref(), Some(Path::new("bench-docs")));

        let p = parse_bench_args(&strings(&["--scale", "paper"])).unwrap();
        assert_eq!(p.scale, Scale::Full);
        assert_eq!(p.threads, None);
        assert_eq!(p.out, None);
    }

    #[test]
    fn bench_args_reject_bad_usage() {
        assert!(parse_bench_args(&strings(&["fig01"])).is_err());
        assert!(parse_bench_args(&strings(&["--scale", "warp"])).is_err());
        assert!(parse_bench_args(&strings(&["--threads", "many"])).is_err());
        assert!(parse_bench_args(&strings(&["--out"])).is_err());
        assert!(parse_bench_args(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn schema_check_accepts_valid_bench_documents_only() {
        let doc = Json::parse(
            r#"{"schema":"compstat-bench/v1","non_deterministic":true,
                "suite":"bigfloat","scale":"quick","threads":1,
                "unix_ms":1765000000000,
                "entries":[{"id":"bigfloat/div/256","iters":100,"reps":3,
                            "min_ns":300.0,"median_ns":310.0,"mean_ns":312.5}]}"#,
        )
        .unwrap();
        assert!(check_schema(Path::new("bench-bigfloat.json"), &doc).is_ok());
        // Without the non-determinism marker the document is invalid.
        let stripped = match &doc {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .filter(|(k, _)| k != "non_deterministic")
                    .cloned()
                    .collect(),
            ),
            _ => unreachable!(),
        };
        let err = check_schema(Path::new("bench-bigfloat.json"), &stripped).unwrap_err();
        assert!(err.contains("non_deterministic"), "{err}");
    }

    #[test]
    fn diff_args_parse_dirs_and_flags() {
        let p = parse_diff_args(&strings(&["goldens/quick", "fresh", "--json"])).unwrap();
        assert_eq!(p.baseline, Path::new("goldens/quick"));
        assert_eq!(p.new, Path::new("fresh"));
        assert!(p.json);

        let p = parse_diff_args(&strings(&["a", "b"])).unwrap();
        assert!(!p.json);
    }

    #[test]
    fn diff_args_reject_bad_usage() {
        assert!(parse_diff_args(&strings(&[])).is_err());
        assert!(parse_diff_args(&strings(&["only-one"])).is_err());
        assert!(parse_diff_args(&strings(&["a", "b", "c"])).is_err());
        let retired = ["--", "tolerances"].concat();
        assert!(parse_diff_args(&strings(&["a", "b", &retired, "x"])).is_err());
        assert!(parse_diff_args(&strings(&["a", "b", "--bogus"])).is_err());
    }

    #[test]
    fn run_args_parse_and_validate_shard() {
        let p = parse_run_args(&strings(&["--all", "--shard", "2/3"])).unwrap();
        assert_eq!(p.shard, Some(Shard::new(2, 3).unwrap()));

        for bad in ["0/3", "4/3", "a/b", "3/0", "3", ""] {
            let err = parse_run_args(&strings(&["--all", "--shard", bad]))
                .map(|_| ())
                .unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{bad}: {err}");
        }
        // --shard partitions the registry; explicit names conflict.
        assert!(parse_run_args(&strings(&["fig01", "--shard", "1/2"])).is_err());
        assert!(parse_run_args(&strings(&["--shard", "1/2"])).is_err());
        assert!(parse_run_args(&strings(&["--all", "--shard"])).is_err());
    }

    #[test]
    fn merge_args_require_dirs_and_out() {
        let p = parse_merge_args(&strings(&["shard-1", "shard-2", "--out", "merged"])).unwrap();
        assert_eq!(p.dirs, [PathBuf::from("shard-1"), PathBuf::from("shard-2")]);
        assert_eq!(p.out, Path::new("merged"));

        assert!(parse_merge_args(&strings(&[])).is_err());
        assert!(parse_merge_args(&strings(&["shard-1"])).is_err());
        assert!(parse_merge_args(&strings(&["shard-1", "--out"])).is_err());
        assert!(parse_merge_args(&strings(&["--out", "merged"])).is_err());
        assert!(parse_merge_args(&strings(&["a", "--bogus", "--out", "m"])).is_err());
    }

    #[test]
    fn schema_check_rejects_mismatched_file_names() {
        let report = find("tab01").unwrap().run(&Runtime::serial(), Scale::Quick);
        let doc = Json::parse(&report.to_json_string()).unwrap();
        assert!(check_schema(Path::new("tab01.json"), &doc).is_ok());
        assert!(check_schema(Path::new("tab02.json"), &doc).is_err());
    }
}
