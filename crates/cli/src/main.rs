//! The `compstat` CLI: the unified experiment engine's front door.
//!
//! ```text
//! compstat list
//! compstat run <name>... | --all [--scale quick|default|paper]
//!              [--threads N] [--out DIR] [--shard K/N]
//! compstat merge <shard-dir>... --out DIR
//! compstat diff <baseline-dir> <new-dir> [--json]
//! compstat validate <dir-or-file>...
//! compstat cache stats | clear
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
//! have written, byte for byte. The oracle store moves between
//! machines as a plain copy of its directory: every entry names its own
//! key, so a misplaced file is recomputed, never served.
//!
//! `diff` compares two report directories cell by cell, byte for byte,
//! and exits 0 (identical) or 2 (any difference); any usage or load
//! error exits 3 so the two verdict codes stay unambiguous.
//!
//! Every verb reads its command line through the one [`Args`] walker
//! (the build environment has no registry access, so no `clap`) and
//! ends through one exit path: it returns `Result<(), Exit>`, and
//! [`main`] prints the [`Exit`] message and picks the exit code.

use compstat_bench::registry::{find, registry, registry_shard};
use compstat_bench::timing;
use compstat_core::bench_doc::BenchDoc;
use compstat_core::cache;
use compstat_core::diff::{diff_dirs, DiffStatus};
use compstat_core::json::Json;
use compstat_core::merge::{merge_shard_dirs, parse_index, write_index, write_report, IndexEntry};
use compstat_core::{Report, Scale, INDEX_SCHEMA, REPORT_SCHEMA};
use compstat_runtime::{CacheMode, Runtime, Shard, MAX_THREADS};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Why a verb stopped before finishing its work; [`main`] prints the
/// message once and picks the exit code.
#[derive(Debug)]
enum Exit {
    /// A bad command line: exit 2.
    Usage(String),
    /// The work failed: exit 1.
    Failed(String),
    /// The reader closed stdout (`compstat list | head`): stop writing
    /// and exit successfully — not an error, and `println!` would have
    /// panicked here.
    Closed,
    /// `diff` found a difference: exit 2.
    Differs,
}

fn usage(msg: impl Into<String>) -> Exit {
    Exit::Usage(msg.into())
}

fn failed(msg: impl Into<String>) -> Exit {
    Exit::Failed(msg.into())
}

/// Writes to stdout, telling a closed pipe ([`Exit::Closed`]) from a
/// real failure such as a full disk behind a redirect.
fn emit(text: &str) -> Result<(), Exit> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Err(Exit::Closed),
        Err(e) => Err(failed(format!("cannot write to stdout: {e}"))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verb = args.first().map_or("help", String::as_str);
    let rest = args.get(1..).unwrap_or_default();
    let result = match verb {
        "list" => cmd_list(rest),
        "run" => cmd_run(rest),
        "bench" => cmd_bench(rest),
        "merge" => cmd_merge(rest),
        "diff" => cmd_diff(rest),
        "validate" => cmd_validate(rest),
        "cache" => cmd_cache(rest),
        "serve" => cmd_serve(rest),
        // Through emit(), not print!: `compstat help | head -1` must
        // exit 0, not panic on the broken pipe.
        "help" | "--help" | "-h" => emit(USAGE),
        other => {
            eprint!("compstat: unknown command {other:?}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (code, msg) = match result {
        Ok(()) | Err(Exit::Closed) => return ExitCode::SUCCESS,
        Err(Exit::Differs) => return ExitCode::from(2),
        Err(Exit::Usage(msg)) => (2, msg),
        Err(Exit::Failed(msg)) => (1, msg),
    };
    eprintln!("compstat {verb}: {msg}");
    // `diff` keeps 0 and 2 for its verdict, so any trouble there is 3.
    ExitCode::from(if verb == "diff" { 3 } else { code })
}

/// A verb's command line: the value of each flag given (the last one
/// wins; a switch's value is empty) and the positional arguments.
struct Args {
    flags: BTreeMap<&'static str, String>,
    positional: Vec<String>,
}

impl Args {
    /// Walks `rest`: each of `switches` stands alone, each of `values`
    /// takes the next argument, and any other argument starting with
    /// `-` is an unknown flag.
    fn parse(
        rest: &[String],
        switches: &[&'static str],
        values: &[&'static str],
    ) -> Result<Args, Exit> {
        let mut args = Args {
            flags: BTreeMap::new(),
            positional: Vec::new(),
        };
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            if let Some(&flag) = switches.iter().find(|&&f| f == arg) {
                args.flags.insert(flag, String::new());
            } else if let Some(&flag) = values.iter().find(|&&f| f == arg) {
                let value = it
                    .next()
                    .ok_or_else(|| usage(format!("{flag} needs a value")))?;
                args.flags.insert(flag, value.clone());
            } else if arg.starts_with('-') {
                return Err(usage(format!("unknown flag {arg:?}")));
            } else {
                args.positional.push(arg.clone());
            }
        }
        Ok(args)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// `--scale`, [`Scale::Default`] when absent.
    fn scale(&self) -> Result<Scale, Exit> {
        match self.value("--scale") {
            None => Ok(Scale::Default),
            Some(v) => Scale::parse(v)
                .ok_or_else(|| usage(format!("unknown scale {v:?} (quick|default|paper)"))),
        }
    }

    /// A whole-number flag, refused above `cap`.
    fn count(&self, flag: &str, cap: usize) -> Result<Option<usize>, Exit> {
        let Some(v) = self.value(flag) else {
            return Ok(None);
        };
        let n: usize = v
            .parse()
            .map_err(|_| usage(format!("{flag} needs a number, got {v:?}")))?;
        if n > cap {
            return Err(usage(format!("{flag} {n} exceeds the cap of {cap}")));
        }
        Ok(Some(n))
    }

    /// `--threads`, at most [`MAX_THREADS`]: the `COMPSTAT_THREADS`
    /// cap, since a larger count is always a unit mix-up.
    fn threads(&self) -> Result<Option<usize>, Exit> {
        self.count("--threads", MAX_THREADS)
    }

    /// The runtime `--threads` asks for, else the one `COMPSTAT_THREADS`
    /// asks for. Unlike library callers, which warn and fall back, the
    /// CLI treats a bad `COMPSTAT_THREADS` as the usage error it is.
    fn runtime(&self) -> Result<Runtime, Exit> {
        match self.threads()? {
            Some(n) => Ok(Runtime::with_threads(n)),
            None => Runtime::try_from_env().map_err(|e| usage(e.to_string())),
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
    compstat cache stats | clear
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
    cache       Inspect (`stats`) or empty (`clear`) the persistent
                oracle cache ($COMPSTAT_CACHE_DIR, default
                .compstat-cache/); copy the directory to move it
                between machines
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
    --workers N     Connection-handling worker threads (default 4,
                    at most 4096)
    --threads N     Deterministic runtime threads per request
                    (default 1, at most 4096; replies are
                    byte-identical for any N)
    --max-conns N   Connections queued/in-flight before new ones get
                    a busy frame (default 64, at most 4096)
    --timeout-secs S  Idle time between frames, and the most time one
                    frame may take (default 10, at most 86400)
    --no-cache      Score without the persistent oracle cache
    --send FILE     Send FILE's newline-delimited frames to --addr,
                    print one reply line each
    --offline FILE  Answer FILE's frames directly, no network — the
                    baseline `--send` output is diffed against in CI
";

fn cmd_list(rest: &[String]) -> Result<(), Exit> {
    if !Args::parse(rest, &[], &[])?.positional.is_empty() {
        return Err(usage("takes no arguments"));
    }
    let width = registry().iter().map(|e| e.name().len()).max().unwrap_or(0);
    for e in registry() {
        emit(&format!("{:width$}  {}\n", e.name(), e.title()))?;
    }
    Ok(())
}

fn cmd_run(rest: &[String]) -> Result<(), Exit> {
    let args = Args::parse(
        rest,
        &["--all", "--no-cache"],
        &["--scale", "--threads", "--out", "--shard"],
    )?;
    let all = args.has("--all");
    let names = &args.positional;
    let scale = args.scale()?;
    let out = args.path("--out");
    // Same contract as the COMPSTAT_THREADS misparse handling: a bad
    // value is a usage error naming it.
    let shard = args
        .value("--shard")
        .map(Shard::parse)
        .transpose()
        .map_err(|e| usage(e.to_string()))?;
    if all && !names.is_empty() {
        return Err(usage("pass either experiment names or --all, not both"));
    }
    if shard.is_some() && !names.is_empty() {
        return Err(usage(
            "--shard partitions the whole registry deterministically; \
             pass --all, not experiment names",
        ));
    }
    if !all && names.is_empty() {
        return Err(usage("nothing to run: pass experiment names or --all"));
    }
    let experiments = match shard {
        Some(shard) => registry_shard(shard),
        None if all => registry().iter().collect(),
        None => names
            .iter()
            .map(|name| {
                find(name).ok_or_else(|| {
                    usage(format!("unknown experiment {name:?} (see `compstat list`)"))
                })
            })
            .collect::<Result<Vec<_>, Exit>>()?,
    };

    // `compstat run` caches oracle sweeps by default; `--no-cache`
    // forces recomputation. Reports are byte-identical either way —
    // that is the gate CI enforces.
    let cache_mode = if args.has("--no-cache") {
        CacheMode::Off
    } else {
        CacheMode::ReadWrite
    };
    let mut rt = args.runtime()?.with_cache_mode(cache_mode);
    if let Some(shard) = shard {
        // The runtime carries the shard so the big oracle sweeps split
        // their work items (and cache entries) the same N ways.
        rt = rt.with_shard(shard);
    }
    let rt = rt;
    let stats_before = cache::global_stats();

    if let Some(dir) = &out {
        std::fs::create_dir_all(dir)
            .map_err(|e| failed(format!("cannot create {}: {e}", dir.display())))?;
    }

    let mut entries: Vec<IndexEntry> = Vec::new();
    for e in &experiments {
        eprintln!("running {} ({} threads)...", e.name(), rt.threads());
        let report = e.run(&rt, scale);
        match &out {
            Some(dir) => {
                let entry = write_report(dir, &report).map_err(|err| failed(err.to_string()))?;
                eprintln!("wrote {}", dir.join(&entry.file).display());
                entries.push(entry);
            }
            None => {
                let banner = "=".repeat(64);
                emit(&format!(
                    "\n{banner}\n{}\n{banner}\n{}\n",
                    e.title(),
                    report.render_text()
                ))?;
            }
        }
    }

    if let Some(dir) = &out {
        // The index goes last: its presence marks a complete directory.
        let path = write_index(dir, scale.as_str(), shard, &entries)
            .map_err(|err| failed(err.to_string()))?;
        eprintln!(
            "wrote {} ({} report{})",
            path.display(),
            entries.len(),
            if entries.len() == 1 { "" } else { "s" }
        );
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
    Ok(())
}

fn cmd_bench(rest: &[String]) -> Result<(), Exit> {
    let args = Args::parse(rest, &["--quick"], &["--scale", "--threads", "--out"])?;
    if let Some(other) = args.positional.first() {
        return Err(usage(format!(
            "takes no positional arguments, got {other:?}"
        )));
    }
    let scale = if args.has("--quick") {
        Scale::Quick
    } else {
        args.scale()?
    };
    let rt = args.runtime()?;
    let out = args.path("--out");
    if let Some(dir) = &out {
        // The diff gate loads every .json under a report directory (one
        // holding an `index.json`); wall-clock documents there would
        // break the byte-stability contract, so refuse before any timing.
        if dir.join("index.json").exists() {
            return Err(usage(format!(
                "{} holds an index.json (a report directory); \
                 refusing to write non-deterministic bench documents there",
                dir.display()
            )));
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| failed(format!("cannot create {}: {e}", dir.display())))?;
    }

    eprintln!("timing bigfloat kernels at scale {}...", scale.as_str());
    let bigfloat = timing::bigfloat_suite(scale);
    eprintln!(
        "timing the hdr tier vs the 256-bit path at scale {} ({} threads, cache off)...",
        scale.as_str(),
        rt.threads()
    );
    let hdr = timing::hdr_suite(scale, &rt);
    eprintln!(
        "timing oracle passes at scale {} ({} threads, cache off)...",
        scale.as_str(),
        rt.threads()
    );
    let oracle = timing::oracle_suite(scale, &rt);
    eprintln!(
        "timing the number formats at scale {} ({} threads)...",
        scale.as_str(),
        rt.threads()
    );
    let formats = timing::formats_suite(scale, &rt);

    for doc in [&bigfloat, &hdr, &oracle, &formats] {
        emit(&format!("\n{}", doc.render_text()))?;
        if let Some(dir) = &out {
            let path = dir.join(format!("bench-{}.json", doc.suite));
            cache::write_atomic(&path, doc.to_json_string().as_bytes())
                .map_err(|e| failed(format!("cannot write {}: {e}", path.display())))?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

fn cmd_merge(rest: &[String]) -> Result<(), Exit> {
    let args = Args::parse(rest, &[], &["--out"])?;
    if args.positional.is_empty() {
        return Err(usage("pass at least one shard report directory"));
    }
    let Some(out) = args.path("--out") else {
        return Err(usage("--out DIR is required (merge never writes in place)"));
    };
    let dirs: Vec<PathBuf> = args.positional.iter().map(PathBuf::from).collect();
    let summary = merge_shard_dirs(&dirs, &out).map_err(|e| failed(e.to_string()))?;
    emit(&format!(
        "merged {} shard(s), {} experiment(s) at scale {} into {}\n",
        summary.shards,
        summary.experiments,
        summary.scale,
        out.display()
    ))
}

fn cmd_diff(rest: &[String]) -> Result<(), Exit> {
    let args = Args::parse(rest, &["--json"], &[])?;
    let [baseline, new] = args.positional.as_slice() else {
        return Err(usage(
            "pass exactly two report directories: <baseline-dir> <new-dir>",
        ));
    };
    let report =
        diff_dirs(Path::new(baseline), Path::new(new)).map_err(|e| failed(e.to_string()))?;
    let rendered = if args.has("--json") {
        report.to_json_string()
    } else {
        report.render_text()
    };
    // The verdict stands even when nobody reads the rendering.
    match emit(&rendered) {
        Ok(()) | Err(Exit::Closed) => {}
        Err(e) => return Err(e),
    }
    match report.status() {
        DiffStatus::Clean => Ok(()),
        DiffStatus::Violations => Err(Exit::Differs),
    }
}

fn cmd_cache(rest: &[String]) -> Result<(), Exit> {
    match Args::parse(rest, &[], &[])?.positional.as_slice() {
        [action] if action == "stats" => cmd_cache_stats(),
        [action] if action == "clear" => cmd_cache_clear(),
        _ => Err(usage("pass `stats` or `clear`")),
    }
}

fn cmd_cache_stats() -> Result<(), Exit> {
    let dir = cache::default_dir();
    let mut text = format!("cache directory: {}\n", dir.display());
    if !dir.is_dir() {
        text.push_str("entries: 0 (directory does not exist yet)\n");
        return emit(&text);
    }
    let entries = cache::entry_paths(&dir)
        .map_err(|e| failed(format!("cannot read {}: {e}", dir.display())))?;
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
    emit(&text)
}

fn cmd_cache_clear() -> Result<(), Exit> {
    let dir = cache::default_dir();
    if !dir.is_dir() {
        return emit("cache is already empty\n");
    }
    let entries = cache::entry_paths(&dir)
        .map_err(|e| failed(format!("cannot read {}: {e}", dir.display())))?;
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
    let mut failures = 0usize;
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
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(failed(format!("{failures} file(s) not removed")));
    }
    emit(&format!(
        "removed {removed} file(s) from {}\n",
        dir.display()
    ))
}

fn cmd_validate(rest: &[String]) -> Result<(), Exit> {
    let args = Args::parse(rest, &[], &[])?;
    if args.positional.is_empty() {
        return Err(usage("pass at least one directory or .json file"));
    }
    let mut files: Vec<PathBuf> = Vec::new();
    for arg in &args.positional {
        let path = Path::new(arg);
        if path.is_dir() {
            let mut found =
                collect_json_files(path).map_err(|e| failed(format!("cannot read {arg}: {e}")))?;
            files.append(&mut found);
        } else {
            files.push(path.to_path_buf());
        }
    }
    if files.is_empty() {
        return Err(failed("no .json files found"));
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
        return Err(failed(format!(
            "{invalid} of {} document(s) invalid",
            files.len()
        )));
    }
    emit(&format!("{} document(s) valid\n", files.len()))
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
    match doc.str_at("schema")? {
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

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

/// `serve --max-conns` cap: every accept-queue slot is allocated up
/// front, so a larger count costs memory before the server binds.
const MAX_CONNS: usize = 4096;

/// `serve --timeout-secs` cap: one day.
const MAX_TIMEOUT_SECS: usize = 86_400;

fn cmd_serve(rest: &[String]) -> Result<(), Exit> {
    let args = Args::parse(
        rest,
        &["--no-cache"],
        &[
            "--addr",
            "--workers",
            "--threads",
            "--max-conns",
            "--timeout-secs",
            "--send",
            "--offline",
        ],
    )?;
    if let Some(other) = args.positional.first() {
        return Err(usage(format!(
            "takes no positional arguments, got {other:?}"
        )));
    }
    let addr = args.value("--addr");
    let send = args.path("--send");
    let offline = args.path("--offline");
    if send.is_some() && offline.is_some() {
        return Err(usage("--send and --offline are mutually exclusive"));
    }
    let config = compstat_serve::ServerConfig {
        addr: addr.unwrap_or("127.0.0.1:0").to_string(),
        workers: args.count("--workers", MAX_THREADS)?.unwrap_or(4).max(1),
        max_conns: args.count("--max-conns", MAX_CONNS)?.unwrap_or(64).max(1),
        read_timeout: std::time::Duration::from_secs(
            args.count("--timeout-secs", MAX_TIMEOUT_SECS)?
                .unwrap_or(10)
                .max(1) as u64,
        ),
        limits: compstat_serve::RequestLimits::default(),
        cache_mode: if args.has("--no-cache") {
            CacheMode::Off
        } else {
            CacheMode::ReadWrite
        },
        cache_dir: None,
        threads: args.threads()?.unwrap_or(1).max(1),
    };
    if let Some(file) = &offline {
        return serve_offline(file, &config);
    }
    if let Some(file) = &send {
        let addr = addr.ok_or_else(|| usage("--send needs --addr pointing at a live server"))?;
        return serve_send(file, addr);
    }
    // Foreground server: print the resolved address (port 0 binds a
    // free port), then serve until killed.
    let server =
        compstat_serve::Server::spawn(config).map_err(|e| failed(format!("cannot bind: {e}")))?;
    // A closed stdout stops nothing: the server keeps serving.
    if let Err(e @ Exit::Failed(_)) = emit(&format!("listening on {}\n", server.local_addr())) {
        return Err(e);
    }
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Reads the newline-delimited request frames of a script file,
/// skipping blank lines.
fn read_frames(file: &Path) -> Result<Vec<String>, Exit> {
    let text = std::fs::read_to_string(file)
        .map_err(|e| failed(format!("cannot read {}: {e}", file.display())))?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect())
}

fn serve_offline(file: &Path, config: &compstat_serve::ServerConfig) -> Result<(), Exit> {
    let frames = read_frames(file)?;
    let responder =
        compstat_serve::Responder::new(config.limits, config.threads, config.cache_mode, None);
    for frame in &frames {
        emit(&format!("{}\n", responder.respond_line(frame)))?;
    }
    Ok(())
}

fn serve_send(file: &Path, addr: &str) -> Result<(), Exit> {
    use std::io::{BufRead as _, BufReader};
    let frames = read_frames(file)?;
    let mut conn = std::net::TcpStream::connect(addr)
        .map_err(|e| failed(format!("cannot connect to {addr}: {e}")))?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| failed(e.to_string()))?);
    for frame in &frames {
        conn.write_all(frame.as_bytes())
            .and_then(|()| conn.write_all(b"\n"))
            .map_err(|e| failed(format!("send failed: {e}")))?;
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => {}
            _ => return Err(failed("server closed the connection mid-script")),
        }
        emit(&reply)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(
        args: &[&str],
        switches: &[&'static str],
        values: &[&'static str],
    ) -> Result<Args, Exit> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Args::parse(&args, switches, values)
    }

    fn usage_message(parsed: Result<Args, Exit>) -> String {
        match parsed {
            Err(Exit::Usage(msg)) => msg,
            other => panic!(
                "expected a usage error, got {:?}",
                other.map(|a| a.positional)
            ),
        }
    }

    const RUN_SWITCHES: &[&str] = &["--all", "--no-cache"];
    const RUN_VALUES: &[&str] = &["--scale", "--threads", "--out", "--shard"];

    #[test]
    fn args_split_flags_from_positionals() {
        let args = parse(
            &[
                "fig01",
                "--scale",
                "quick",
                "--threads",
                "4",
                "--out",
                "reports",
            ],
            RUN_SWITCHES,
            RUN_VALUES,
        )
        .unwrap();
        assert_eq!(args.positional, ["fig01"]);
        assert!(!args.has("--all") && !args.has("--no-cache"));
        assert_eq!(args.scale().unwrap(), Scale::Quick);
        assert_eq!(args.threads().unwrap(), Some(4));
        assert_eq!(args.path("--out").as_deref(), Some(Path::new("reports")));

        let args = parse(&["--all", "--no-cache"], RUN_SWITCHES, RUN_VALUES).unwrap();
        assert!(args.has("--all") && args.has("--no-cache"));
        assert!(args.positional.is_empty());
        assert_eq!(args.scale().unwrap(), Scale::Default);
        assert_eq!(args.threads().unwrap(), None);
        assert_eq!(args.path("--out"), None);

        // The last value wins; `paper` spells the full scale.
        let args = parse(
            &["--scale", "quick", "--scale", "paper"],
            RUN_SWITCHES,
            RUN_VALUES,
        )
        .unwrap();
        assert_eq!(args.scale().unwrap(), Scale::Full);

        let args = parse(&["goldens/quick", "fresh", "--json"], &["--json"], &[]).unwrap();
        assert_eq!(args.positional, ["goldens/quick", "fresh"]);
        assert!(args.has("--json"));
    }

    #[test]
    fn args_reject_unknown_flags_and_missing_values() {
        let msg = usage_message(parse(&["fig01", "--bogus"], RUN_SWITCHES, RUN_VALUES));
        assert!(msg.contains("unknown flag \"--bogus\""), "{msg}");
        // A flag of another verb is unknown here.
        let msg = usage_message(parse(&["a", "b", "--out", "m"], &["--json"], &[]));
        assert!(msg.contains("unknown flag \"--out\""), "{msg}");
        let msg = usage_message(parse(&["fig01", "--out"], RUN_SWITCHES, RUN_VALUES));
        assert!(msg.contains("--out needs a value"), "{msg}");
    }

    #[test]
    fn scale_and_counts_reject_bad_values() {
        let args = parse(
            &["--scale", "warp", "--threads", "many"],
            RUN_SWITCHES,
            RUN_VALUES,
        )
        .unwrap();
        assert!(matches!(args.scale(), Err(Exit::Usage(m)) if m.contains("\"warp\"")));
        assert!(matches!(args.threads(), Err(Exit::Usage(m)) if m.contains("\"many\"")));

        let at_cap = MAX_THREADS.to_string();
        let args = parse(&["--threads", &at_cap], RUN_SWITCHES, RUN_VALUES).unwrap();
        assert_eq!(args.threads().unwrap(), Some(MAX_THREADS));
        let over = (MAX_THREADS + 1).to_string();
        let args = parse(&["--threads", &over], RUN_SWITCHES, RUN_VALUES).unwrap();
        match args.threads() {
            Err(Exit::Usage(m)) => assert!(m.contains("--threads") && m.contains(&at_cap), "{m}"),
            other => panic!("{over} threads accepted: {other:?}"),
        }
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
    fn schema_check_rejects_mismatched_file_names() {
        let report = find("tab01").unwrap().run(&Runtime::serial(), Scale::Quick);
        let doc = Json::parse(&report.to_json_string()).unwrap();
        assert!(check_schema(Path::new("tab01.json"), &doc).is_ok());
        assert!(check_schema(Path::new("tab02.json"), &doc).is_err());
    }
}
