//! The `compstat` CLI: the unified experiment engine's front door.
//!
//! ```text
//! compstat list
//! compstat run <name>... | --all [--scale quick|default|paper]
//!              [--threads N] [--out DIR] [--shard K/N]
//! compstat merge <shard-dir>... --out DIR
//! compstat diff <baseline-dir> <new-dir> [--tolerances FILE] [--json]
//! compstat validate <dir-or-file>...
//! compstat audit [--json] [--out FILE] [--regen-fingerprints] [paths...]
//! cache stats | clear | export <tar> | import <tar>
//! ```
//!
//! `run` resolves experiments in the `compstat-bench` registry and runs
//! them at the requested scale on the requested thread budget. Without
//! `--out` the text reports print to stdout (what the bench targets
//! print); with `--out` one JSON document per experiment is written
//! plus an `index.json` summary. Reports contain only deterministic
//! data, so the emitted bytes are identical for every `--threads`
//! value — `diff -r` between a serial and a parallel output directory
//! is empty, and CI enforces exactly that.
//!
//! `run --shard K/N` takes the K-th round-robin slice of the registry
//! (and splits the big oracle sweeps into cached parts), writing a
//! shard-stamped `index.json`; `merge` reassembles a complete shard
//! set into the canonical directory an unsharded `run --all` would
//! have written, byte for byte. `cache export`/`cache import` move the
//! oracle store between machines as a deterministic ustar archive.
//!
//! `diff` compares two report directories cell by cell under a
//! [`TolerancePolicy`] and exits 0 (clean), 1 (changes, all within
//! tolerance), or 2 (violations); any usage or load error exits 3 so
//! the three verdict codes stay unambiguous.
//!
//! Argument parsing is hand-rolled: the build environment has no
//! registry access, so no `clap`.

use compstat_analysis::{fingerprint, run_audit, AuditOptions};
use compstat_bench::registry::{find, registry, registry_shard};
use compstat_bench::timing;
use compstat_core::archive::{export_cache, import_cache};
use compstat_core::bench_doc::BenchDoc;
use compstat_core::cache;
use compstat_core::diff::{diff_dirs, TolerancePolicy};
use compstat_core::json::Json;
use compstat_core::merge::{index_doc_for_reports, merge_shard_dirs};
use compstat_core::{Report, Scale, INDEX_SCHEMA};
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
        Some("audit") => cmd_audit(&args[1..]),
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
    compstat diff <baseline-dir> <new-dir> [--tolerances FILE] [--json]
    compstat validate <dir-or-file>...
    compstat audit [--json] [--out FILE] [--root DIR]
                   [--regen-fingerprints] [paths...]
    compstat cache stats | clear | export <tar> | import <tar>
    compstat serve [--addr H:P] [--workers N] [--threads N]
                   [--max-conns N] [--timeout-secs S] [--no-cache]
    compstat serve --bench [--connections N] [--requests M]
                   [--addr H:P] [--out DIR]
    compstat serve --send FILE --addr H:P | --offline FILE
    compstat help

COMMANDS:
    list        List every registered experiment (name and title)
    run         Run experiments; print text reports, or write one JSON
                report per experiment plus index.json with --out
    bench       Time the bigfloat kernels (add/mul/div at 128/256/1024
                bits, plus the retired restoring division), the HDR
                fast tier against the 256-bit path (per-op and forward
                sweep), and the figures' 256-bit oracle passes. Emits
                wall-clock compstat-bench/v1 documents — explicitly
                non-deterministic, never part of a report directory,
                never compared by `diff`
    merge       Reassemble a complete set of `run --shard` output
                directories into the canonical directory an unsharded
                `run --all` would write (byte-identical); exit 0 on
                success, 1 on overlap/missing/inconsistent shards, 2 on
                usage errors
    diff        Compare two report directories cell by cell; exit 0 if
                identical, 1 if all changes are within tolerance, 2 on
                violations or added/removed experiments, 3 on errors
    validate    Parse every .json report under the given paths; report
                every malformed document with its reason
    audit       Statically analyze the workspace's own sources for
                determinism/precision invariant violations
                (nondeterminism, float-format, powf-exp2, lossy-cast,
                panic-in-serve, suppression, kernel-tag-guard); exit 0
                if clean, 2 on findings, 3 on usage/IO errors. Inline
                waivers (`// compstat-audit: allow(<rule>): <reason>`)
                require a reason and stay visible in the output
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
                count. `--bench` drives a built-in load generator and
                reports a compstat-serve-bench/v1 latency document;
                `--send FILE` plays scripted frames against a live
                server; `--offline FILE` answers the same frames
                without a network (the differential baseline)

OPTIONS (run):
    --all           Run every registered experiment, in registry order
    --scale SCALE   quick | default | paper (default: $COMPSTAT_SCALE
                    or `default`; `paper` = full paper-scale counts)
    --threads N     Worker threads (default: $COMPSTAT_THREADS or all
                    cores; emitted bytes are identical for every N)
    --out DIR       Write JSON reports to DIR instead of printing text
    --no-cache      Recompute every oracle sweep, bypassing the cache
                    (reports are byte-identical either way; also
                    available as COMPSTAT_CACHE=off)
    --shard K/N     Run shard K of an N-way round-robin partition of
                    the registry (requires --all; big oracle sweeps are
                    cached in N parts). The index.json is shard-stamped
                    so `compstat merge` can reassemble the full set

OPTIONS (bench):
    --quick         Shorthand for --scale quick (the CI smoke budget)
    --scale SCALE   quick | default | paper (default: $COMPSTAT_SCALE
                    or `default`)
    --threads N     Worker threads for the hdr forward rows and the
                    oracle suite (the kernel micro-benchmarks are
                    always serial)
    --out DIR       Also write bench-bigfloat.json, bench-hdr.json and
                    bench-oracle.json to DIR. Refused if DIR holds an
                    index.json — bench documents must not contaminate a
                    report directory

OPTIONS (diff):
    --tolerances F  Load a compstat-tolerances/v1 JSON policy file
                    (default: every value must be byte-identical)
    --json          Emit the structured compstat-diff/v1 document
                    instead of the human-readable summary

OPTIONS (audit):
    --json          Print the structured compstat-audit/v1 document
                    instead of the human-readable findings
    --out FILE      Also write the compstat-audit/v1 JSON document to
                    FILE (the CI artifact)
    --root DIR      Workspace root (default: the enclosing workspace of
                    the current directory)
    --regen-fingerprints  Rewrite goldens/kernel_fingerprints.json from
                    the current tree before auditing — the second step
                    of the kernel-edit workflow (edit kernel, bump
                    ORACLE_KERNEL_TAG, regen, commit both)
    [paths...]      Audit only these files/directories (every token
                    rule applies; the whole-tree kernel-tag-guard is
                    skipped). Default: src/lib.rs and every
                    crates/*/src tree except crates/vendor

OPTIONS (serve):
    --addr H:P      Bind address (default 127.0.0.1:0 — a free port,
                    printed as `listening on H:P`). With --bench or
                    --send: the server to drive instead
    --workers N     Connection-handling worker threads (default 4)
    --threads N     Deterministic runtime threads per request
                    (default 1; replies are byte-identical for any N)
    --max-conns N   Connections queued/in-flight before new ones get
                    a busy frame (default 64)
    --timeout-secs S  Per-connection read timeout (default 10)
    --no-cache      Score without the persistent oracle cache
    --bench         Load-generate against --addr (or an in-process
                    server) and print a compstat-serve-bench/v1
                    latency/throughput document
    --connections N / --requests M  Bench shape (default 4 x 25)
    --out DIR       With --bench: also write bench-serve.json to DIR
                    (refused if DIR holds an index.json)
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
        scale: Scale::from_env(),
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
    // `compstat run` caches oracle sweeps by default; `--no-cache` (or
    // COMPSTAT_CACHE=off) forces recomputation. Reports are
    // byte-identical either way — that is the gate CI enforces.
    let cache_mode = if parsed.no_cache {
        CacheMode::Off
    } else {
        CacheMode::from_env_or(CacheMode::ReadWrite)
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

    let mut reports: Vec<Report> = Vec::new();
    for e in &experiments {
        eprintln!("running {} ({} threads)...", e.name(), rt.threads());
        let report = e.run(&rt, parsed.scale);
        match &parsed.out {
            Some(dir) => {
                // Temp-file + rename: an interrupted run leaves no
                // truncated report for `load_report_dir` to choke on.
                let path = dir.join(format!("{}.json", report.name));
                if let Err(err) = cache::write_atomic(&path, report.to_json_string().as_bytes()) {
                    eprintln!("compstat run: cannot write {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", path.display());
            }
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
        reports.push(report);
    }

    if let Some(dir) = &parsed.out {
        // index.json is written last (and atomically): its presence
        // marks a complete report directory, so a half-written run can
        // never half-load.
        let index = index_doc_for_reports(parsed.scale, parsed.shard, &reports);
        let path = dir.join("index.json");
        let mut bytes = index.to_json_string();
        bytes.push('\n');
        if let Err(err) = cache::write_atomic(&path, bytes.as_bytes()) {
            eprintln!("compstat run: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {} ({} report{})",
            path.display(),
            reports.len(),
            if reports.len() == 1 { "" } else { "s" }
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
    ExitCode::SUCCESS
}

struct BenchArgs {
    scale: Scale,
    threads: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_bench_args(rest: &[String]) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs {
        scale: Scale::from_env(),
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
    // Check the output directory *before* paying for the suites — and
    // refuse a report directory outright: the diff gate loads every
    // .json under an indexed directory, and wall-clock documents in it
    // would defeat the byte-stability contract.
    if let Some(dir) = &parsed.out {
        if dir.join("index.json").exists() {
            eprintln!(
                "compstat bench: {} holds an index.json (a report directory); \
                 bench documents are non-deterministic and must live elsewhere",
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

    for doc in [&bigfloat, &hdr, &oracle] {
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
    tolerances: Option<PathBuf>,
    json: bool,
}

fn parse_diff_args(rest: &[String]) -> Result<DiffArgs, String> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut tolerances = None;
    let mut json = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--tolerances" => match it.next() {
                Some(v) => tolerances = Some(PathBuf::from(v)),
                None => return Err("--tolerances needs a file".into()),
            },
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    match <[PathBuf; 2]>::try_from(dirs) {
        Ok([baseline, new]) => Ok(DiffArgs {
            baseline,
            new,
            tolerances,
            json,
        }),
        Err(_) => Err("pass exactly two report directories: <baseline-dir> <new-dir>".into()),
    }
}

/// Exit code for `diff` usage and load errors, distinct from the
/// 0/1/2 verdict codes.
const DIFF_TROUBLE: u8 = 3;

fn cmd_diff(rest: &[String]) -> ExitCode {
    let parsed = match parse_diff_args(rest) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("compstat diff: {msg}");
            return ExitCode::from(DIFF_TROUBLE);
        }
    };
    let policy = match &parsed.tolerances {
        Some(path) => match TolerancePolicy::load(path) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("compstat diff: {e}");
                return ExitCode::from(DIFF_TROUBLE);
            }
        },
        None => TolerancePolicy::exact(),
    };
    let report = match diff_dirs(&parsed.baseline, &parsed.new, &policy) {
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
    bench: bool,
    connections: usize,
    requests: usize,
    out: Option<PathBuf>,
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
        bench: false,
        connections: 4,
        requests: 25,
        out: None,
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
            "--bench" => args.bench = true,
            "--connections" => args.connections = number("--connections", it.next())?.max(1),
            "--requests" => args.requests = number("--requests", it.next())?.max(1),
            "--out" => args.out = Some(PathBuf::from(value("--out", it.next())?)),
            "--send" => args.send = Some(PathBuf::from(value("--send", it.next())?)),
            "--offline" => args.offline = Some(PathBuf::from(value("--offline", it.next())?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let modes = usize::from(args.bench)
        + usize::from(args.send.is_some())
        + usize::from(args.offline.is_some());
    if modes > 1 {
        return Err("--bench, --send and --offline are mutually exclusive".into());
    }
    if args.send.is_some() && args.addr.is_none() {
        return Err("--send needs --addr pointing at a live server".into());
    }
    if args.out.is_some() && !args.bench {
        return Err("--out only applies to --bench".into());
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
            CacheMode::from_env_or(CacheMode::ReadWrite)
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
    if args.bench {
        return serve_bench(&args);
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

fn serve_bench(args: &ServeArgs) -> ExitCode {
    // Bench an external server when --addr is given; otherwise spin up
    // an in-process one on a free port.
    let (_local, addr) = if let Some(addr) = &args.addr {
        (None, addr.clone())
    } else {
        match compstat_serve::Server::spawn(serve_config(args)) {
            Ok(s) => {
                let addr = s.local_addr().to_string();
                (Some(s), addr)
            }
            Err(e) => {
                eprintln!("compstat serve: cannot bind: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let opts = compstat_serve::BenchOptions {
        connections: args.connections,
        requests_per_conn: args.requests,
    };
    eprintln!(
        "driving {} connection(s) x {} request(s) against {addr}...",
        opts.connections, opts.requests_per_conn
    );
    let doc = compstat_serve::run_bench(&addr, &opts);
    if let Some(dir) = &args.out {
        // Same guard as `compstat bench`: never mix non-deterministic
        // timing documents into a byte-stable report directory.
        if dir.join("index.json").is_file() {
            eprintln!(
                "compstat serve: {} holds an index.json report directory; refusing to write bench documents there",
                dir.display()
            );
            return ExitCode::from(2);
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("compstat serve: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let path = dir.join("bench-serve.json");
        let mut text = doc.to_json().to_json_string();
        text.push('\n');
        if let Err(e) = cache::write_atomic(&path, text.as_bytes()) {
            eprintln!("compstat serve: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    match emit(&doc.render_text()) {
        Emit::Failed => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}

/// Collects the cache directory's entry files (`*.bfc`), non-recursive
/// — the store is flat by construction.
fn cache_entries(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_file() && path.extension().is_some_and(|e| e == cache::CACHE_FILE_EXT) {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
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
    let entries = match cache_entries(&dir) {
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
        Some((last, total)) => {
            let line = |s: &cache::CacheStats| {
                format!(
                    "{} hit(s), {} miss(es), {} write(s), {} error(s)",
                    s.hits, s.misses, s.writes, s.errors
                )
            };
            text.push_str(&format!("last run: {}\n", line(&last)));
            text.push_str(&format!("total:    {}\n", line(&total)));
        }
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
    let entries = match cache_entries(&dir) {
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

/// `audit` shares `diff`'s outer verdict codes: 0 = clean, 2 =
/// violations, 3 = usage or IO trouble.
const AUDIT_VIOLATIONS: u8 = 2;
const AUDIT_TROUBLE: u8 = 3;

struct AuditArgs {
    json: bool,
    out: Option<PathBuf>,
    root: Option<PathBuf>,
    regen: bool,
    paths: Vec<PathBuf>,
}

fn parse_audit_args(rest: &[String]) -> Result<AuditArgs, String> {
    let mut args = AuditArgs {
        json: false,
        out: None,
        root: None,
        regen: false,
        paths: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--regen-fingerprints" => args.regen = true,
            "--out" => {
                let v = it.next().ok_or("--out requires a file path")?;
                args.out = Some(PathBuf::from(v));
            }
            "--root" => {
                let v = it.next().ok_or("--root requires a directory")?;
                args.root = Some(PathBuf::from(v));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}"));
            }
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    if args.regen && !args.paths.is_empty() {
        return Err("--regen-fingerprints audits the whole tree; drop the explicit paths".into());
    }
    Ok(args)
}

/// Walks up from the current directory to the enclosing Cargo
/// workspace root (the audit's default path base).
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn cmd_audit(rest: &[String]) -> ExitCode {
    let args = match parse_audit_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("compstat audit: {e}");
            return ExitCode::from(AUDIT_TROUBLE);
        }
    };
    let Some(root) = args.root.clone().or_else(find_workspace_root) else {
        eprintln!("compstat audit: not inside a Cargo workspace (pass --root)");
        return ExitCode::from(AUDIT_TROUBLE);
    };
    let opts = AuditOptions {
        root,
        paths: args.paths,
        fingerprints: None,
    };
    if args.regen {
        match fingerprint::regen(&opts.root, &opts.fingerprints_path()) {
            Ok(n) => {
                let line = format!(
                    "regenerated {} with {n} kernel fingerprint(s)\n",
                    fingerprint::DEFAULT_PATH
                );
                if emit(&line) == Emit::Failed {
                    return ExitCode::from(AUDIT_TROUBLE);
                }
            }
            Err(e) => {
                eprintln!("compstat audit: cannot regenerate fingerprints: {e}");
                return ExitCode::from(AUDIT_TROUBLE);
            }
        }
    }
    let audit = match run_audit(&opts) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("compstat audit: {e}");
            return ExitCode::from(AUDIT_TROUBLE);
        }
    };
    if let Some(out) = &args.out {
        let text = format!("{}\n", audit.to_json().to_json_string());
        if let Err(e) = cache::write_atomic(out, text.as_bytes()) {
            eprintln!("compstat audit: cannot write {}: {e}", out.display());
            return ExitCode::from(AUDIT_TROUBLE);
        }
    }
    let rendering = if args.json {
        format!("{}\n", audit.to_json().to_json_string())
    } else {
        audit.render_text()
    };
    if emit(&rendering) == Emit::Failed {
        return ExitCode::from(AUDIT_TROUBLE);
    }
    if audit.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(AUDIT_VIOLATIONS)
    }
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

/// Checks the schema envelope of a report or index document.
fn check_schema(path: &Path, doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema field")?;
    match schema {
        s if s == compstat_core::REPORT_SCHEMA => {
            let name = doc
                .get("experiment")
                .and_then(Json::as_str)
                .ok_or("report missing experiment name")?;
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if stem != name {
                return Err(format!("file name does not match experiment {name:?}"));
            }
            doc.get("blocks")
                .and_then(Json::as_arr)
                .ok_or("report missing blocks array")?;
            Ok(())
        }
        s if s == INDEX_SCHEMA => {
            let entries = doc
                .get("experiments")
                .and_then(Json::as_arr)
                .ok_or("index missing experiments array")?;
            let count = doc.get("count").and_then(Json::as_f64).unwrap_or(-1.0);
            if count != entries.len() as f64 {
                return Err("index count does not match experiments length".into());
            }
            Ok(())
        }
        s if s == compstat_core::BENCH_SCHEMA => {
            // Full structural validation, including the mandatory
            // `"non_deterministic": true` marker.
            BenchDoc::from_json(doc).map(|_| ())
        }
        s if s == compstat_serve::SERVE_BENCH_SCHEMA => {
            compstat_serve::ServeBenchDoc::from_json(doc).map(|_| ())
        }
        s if s == compstat_analysis::doc::AUDIT_SCHEMA => {
            let errors = compstat_analysis::doc::validate_json(doc);
            if errors.is_empty() {
                Ok(())
            } else {
                Err(errors.join("; "))
            }
        }
        s if s == fingerprint::FINGERPRINTS_SCHEMA => {
            // Accumulate every problem (duplicates, non-hex digests,
            // missing fields), matching the diff-gate's
            // all-errors-at-once behavior.
            fingerprint::validate_doc(doc)
                .map(|_| ())
                .map_err(|errors| errors.join("; "))
        }
        s if s == compstat_core::diff::TOLERANCES_SCHEMA => {
            // Check through the real loader so bad tolerance spellings
            // fail validation, not the later diff run.
            TolerancePolicy::from_json(doc)
                .map(|_| ())
                .map_err(|e| e.message)
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
        assert_eq!(p.tolerances, None);

        let p = parse_diff_args(&strings(&["a", "b", "--tolerances", "tol.json"])).unwrap();
        assert_eq!(p.tolerances.as_deref(), Some(Path::new("tol.json")));
        assert!(!p.json);
    }

    #[test]
    fn diff_args_reject_bad_usage() {
        assert!(parse_diff_args(&strings(&[])).is_err());
        assert!(parse_diff_args(&strings(&["only-one"])).is_err());
        assert!(parse_diff_args(&strings(&["a", "b", "c"])).is_err());
        assert!(parse_diff_args(&strings(&["a", "b", "--tolerances"])).is_err());
        assert!(parse_diff_args(&strings(&["a", "b", "--bogus"])).is_err());
    }

    #[test]
    fn index_is_deterministic_and_self_consistent() {
        let reports: Vec<Report> = ["tab01", "tab02"]
            .iter()
            .map(|n| find(n).unwrap().run(&Runtime::serial(), Scale::Quick))
            .collect();
        let a = index_doc_for_reports(Scale::Quick, None, &reports).to_json_string();
        let b = index_doc_for_reports(Scale::Quick, None, &reports).to_json_string();
        assert_eq!(a, b);
        let doc = Json::parse(&a).unwrap();
        assert!(check_schema(Path::new("index.json"), &doc).is_ok());
        assert_eq!(doc.get("count").unwrap().as_f64(), Some(2.0));
        // A shard-stamped index still passes the schema check.
        let stamped =
            index_doc_for_reports(Scale::Quick, Some(Shard::new(1, 3).unwrap()), &reports)
                .to_json_string();
        let doc = Json::parse(&stamped).unwrap();
        assert!(check_schema(Path::new("index.json"), &doc).is_ok());
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
