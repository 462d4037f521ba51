//! End-to-end tests of the `compstat` binary: the acceptance criteria
//! of the unified engine. `run --all --scale quick --out dir/` must
//! complete offline, emit one schema-valid JSON report per registered
//! experiment plus an index, and the emitted bytes must be identical
//! for `--threads 1` vs `--threads 4`.

use compstat_core::json::Json;
use compstat_core::merge::load_index;
use compstat_runtime::Shard;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs the binary with the oracle cache pinned to a shared directory
/// under the target tmpdir, so tests never write `.compstat-cache/`
/// into the source tree (concurrent tests may share it — cache writes
/// are atomic and content-addressed, so races are harmless).
fn compstat(args: &[&str]) -> Output {
    compstat_env(args, &[])
}

fn compstat_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = compstat_command(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("compstat binary runs")
}

/// A scrubbed `Command` for tests that need to spawn rather than run
/// to completion (servers, broken-pipe scenarios).
fn compstat_command(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_compstat"));
    // Scrub the COMPSTAT_* knobs the developer may have exported — an
    // ambient COMPSTAT_THREADS=garbage must not change what these
    // tests assert, and the cache directory is pinned below.
    cmd.env_remove("COMPSTAT_THREADS");
    cmd.args(args).env(
        "COMPSTAT_CACHE_DIR",
        Path::new(env!("CARGO_TARGET_TMPDIR")).join("shared-oracle-cache"),
    );
    cmd
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    // A stale directory from a previous run would mask missing files.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn list_names_every_registered_experiment() {
    let out = compstat(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for e in compstat_bench::registry() {
        assert!(
            text.lines().any(|l| l.starts_with(e.name())),
            "missing {} in:\n{text}",
            e.name()
        );
    }
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["run"][..],
        &["run", "fig99"],
        &["run", "--all", "--scale", "warp"],
        &["frobnicate"],
        &["list", "extra"],
        &["serve", "--bench"],
        &["run", "--all", "fig01"],
        &["run", "--all", "--threads", "many"],
        &["bench", "--threads", "many"],
        &["merge"],
    ] {
        let out = compstat(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
    // help goes to stdout and exits 0.
    let out = compstat(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}

#[test]
fn every_verb_rejects_unknown_flags_and_missing_values_with_its_usage_code() {
    for (verb, code) in [
        ("list", 2),
        ("run", 2),
        ("bench", 2),
        ("merge", 2),
        ("diff", 3),
        ("validate", 2),
        ("cache", 2),
        ("serve", 2),
    ] {
        let out = compstat(&[verb, "--bogus"]);
        assert_eq!(out.status.code(), Some(code), "{verb} --bogus");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag \"--bogus\""), "{verb}: {err}");
    }
    for args in [
        &["run", "fig01", "--out"][..],
        &["bench", "--out"],
        &["merge", "some-dir", "--out"],
        &["serve", "--addr"],
    ] {
        let out = compstat(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("needs a value"), "args {args:?}: {err}");
    }
}

#[test]
fn serve_thread_pools_are_capped_like_run_and_bench() {
    // `--offline` starts no worker pool, and the flags are refused
    // before the (missing) frames file is read, so no thread starts.
    for flag in ["--threads", "--workers"] {
        let out = compstat(&["serve", flag, "4097", "--offline", "no-such-frames"]);
        assert_eq!(out.status.code(), Some(2), "{flag} 4097");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag) && err.contains("4096"), "{flag}: {err}");
    }
    // The accept queue and the frame deadline are capped the same way.
    for (flag, over, cap) in [
        ("--max-conns", "4097", "4096"),
        ("--timeout-secs", "86401", "86400"),
    ] {
        let out = compstat(&["serve", flag, over, "--offline", "no-such-frames"]);
        assert_eq!(out.status.code(), Some(2), "{flag} {over}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag) && err.contains(cap), "{flag}: {err}");
    }
}

#[test]
fn run_without_out_prints_text_reports() {
    let out = compstat(&["run", "tab01", "tab02", "--scale", "quick"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Table I: dynamic range"));
    assert!(text.contains("binary64 add"));
}

#[test]
fn run_all_quick_emits_identical_bytes_for_any_thread_count() {
    let dir1 = tmp_dir("reports-t1");
    let dir4 = tmp_dir("reports-t4");
    for (threads, dir) in [("1", &dir1), ("4", &dir4)] {
        let out = compstat(&[
            "run",
            "--all",
            "--scale",
            "quick",
            "--threads",
            threads,
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "threads={threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // One report per registered experiment, plus the index.
    let expected: Vec<String> = compstat_bench::registry()
        .iter()
        .map(|e| format!("{}.json", e.name()))
        .chain(std::iter::once("index.json".to_string()))
        .collect();
    let mut found: Vec<String> = std::fs::read_dir(&dir1)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    found.sort();
    let mut want = expected.clone();
    want.sort();
    assert_eq!(found, want);

    // Byte-for-byte identical across thread counts, and schema-valid.
    for file in &expected {
        let a = std::fs::read(dir1.join(file)).unwrap();
        let b = std::fs::read(dir4.join(file)).unwrap();
        assert_eq!(a, b, "{file} differs between --threads 1 and --threads 4");
        let doc =
            Json::parse(std::str::from_utf8(&a).unwrap()).unwrap_or_else(|e| panic!("{file}: {e}"));
        let schema = doc.get("schema").and_then(Json::as_str).unwrap();
        assert!(
            schema == "compstat-report/v1" || schema == "compstat-index/v1",
            "{file}: schema {schema}"
        );
    }

    // The index enumerates exactly the emitted reports.
    let index = load_index(&dir1).unwrap();
    assert_eq!(index.entries.len(), compstat_bench::registry().len());
    assert_eq!(index.scale, "quick");
    for entry in &index.entries {
        assert!(
            dir1.join(&entry.file).is_file(),
            "index names missing {}",
            entry.file
        );
    }

    // The validate subcommand agrees.
    let out = compstat(&["validate", dir1.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let valid_line = format!("{} document(s) valid", compstat_bench::registry().len() + 1);
    assert!(String::from_utf8(out.stdout).unwrap().contains(&valid_line));
}

#[test]
fn validate_reports_every_invalid_file_with_reasons() {
    // One invocation must name all invalid documents, not stop at the
    // first: three broken files plus one valid report.
    let dir = tmp_dir("reports-multi-bad");
    let out = compstat(&[
        "run",
        "tab01",
        "--scale",
        "quick",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    std::fs::write(dir.join("aa-truncated.json"), "{\"schema\": ").unwrap();
    std::fs::write(dir.join("zz-mystery.json"), "{\"schema\": \"mystery/v9\"}").unwrap();
    // A well-formed document of the retired serve load-generator
    // schema: no loader owns it any more, so it is unknown too.
    let retired = ["compstat", "serve", "bench/v1"].join("-");
    let bench_serve = format!(
        r#"{{"schema":"{retired}","non_deterministic":true,"connections":1,"requests_per_conn":1,"total_requests":1,"errors":0,"wall_ms":1,"throughput_rps":1000,"latency_us":{{"min":9,"p50":9,"p90":9,"p99":9,"max":9}},"histogram":[{{"le_us":16,"count":1}}]}}"#
    );
    std::fs::write(dir.join("bench-serve.json"), bench_serve).unwrap();
    // A well-formed document of the retired diff tolerance-policy
    // schema: unknown as well.
    let retired = ["compstat", "tolerances/v1"].join("-");
    let policy = format!(r#"{{"schema":"{retired}","default":"exact","overrides":{{}}}}"#);
    std::fs::write(dir.join("policy.json"), policy).unwrap();

    let out = compstat(&["validate", dir.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    // Both failures are named with per-file reasons, and the summary
    // counts them against the total.
    assert!(err.contains("aa-truncated.json"), "{err}");
    assert!(err.contains("JSON parse error"), "{err}");
    assert!(err.contains("zz-mystery.json"), "{err}");
    assert!(err.contains("unknown schema"), "{err}");
    for file in ["bench-serve.json", "policy.json"] {
        let named = format!("{}: unknown schema", dir.join(file).display());
        assert!(err.contains(&named), "{err}");
    }
    assert!(err.contains("4 of 6 document(s) invalid"), "{err}");
}

#[test]
fn validate_checks_reports_and_indexes_with_the_loaders_diff_and_merge_use() {
    // Three documents whose envelopes look fine but which `diff` or
    // `merge` would refuse: validate must refuse each one, by name,
    // because it checks them with the same parsers.
    let dir = tmp_dir("reports-loader-checks");
    std::fs::create_dir_all(&dir).unwrap();
    let index = r#"{"schema":"compstat-index/v1","scale":"quick","count":1,"experiments":[{"name":"a","title":"t"}]}"#;
    std::fs::write(dir.join("index.json"), index).unwrap();
    let stamped = r#"{"schema":"compstat-index/v1","scale":"quick","shard":{"index":4,"count":3},"count":0,"experiments":[]}"#;
    std::fs::write(dir.join("shard-index.json"), stamped).unwrap();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens/quick/fig09.json");
    let golden = std::fs::read_to_string(golden).unwrap();
    let numeric = golden.replace(r#""columns":"40""#, r#""columns":40"#);
    assert_ne!(numeric, golden);
    std::fs::write(dir.join("fig09.json"), numeric).unwrap();

    let out = compstat(&["validate", dir.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    for (file, reason) in [
        ("index.json", "experiment 0: missing string field: file"),
        ("shard-index.json", "invalid shard stamp"),
        ("fig09.json", r#"param "columns" is not a string"#),
    ] {
        let named = format!("{}: ", dir.join(file).display());
        assert!(
            err.lines()
                .any(|l| l.contains(&named) && l.contains(reason)),
            "{file}: want {reason:?} in\n{err}"
        );
    }
    assert!(err.contains("3 of 3 document(s) invalid"), "{err}");
}

#[test]
fn validate_refuses_a_number_beyond_f64_range() {
    // The writer emits a non-finite metric as `null`, so `1e999` is a
    // number no report can hold: it must not read back as infinity.
    let dir = tmp_dir("reports-overflowing-number");
    std::fs::create_dir_all(&dir).unwrap();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens/quick/fig09.json");
    let golden = std::fs::read_to_string(golden).unwrap();
    let huge = golden.replace(
        r#""binary64_underflows":5"#,
        r#""binary64_underflows":1e999"#,
    );
    assert_ne!(huge, golden);
    std::fs::write(dir.join("fig09.json"), huge).unwrap();

    let out = compstat(&["validate", dir.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    let named = format!("{}: ", dir.join("fig09.json").display());
    assert!(
        err.lines()
            .any(|l| l.contains(&named) && l.contains("number out of range: 1e999")),
        "{err}"
    );
    assert!(err.contains("1 of 1 document(s) invalid"), "{err}");
}

/// Reads, mutates, and rewrites one report's first metric value.
fn perturb_first_metric(path: &Path, factor: f64) -> (String, f64, f64) {
    let text = std::fs::read_to_string(path).unwrap();
    let doc = Json::parse(&text).unwrap();
    let (key, old) = match doc.get("metrics") {
        Some(Json::Obj(pairs)) if !pairs.is_empty() => (
            pairs[0].0.clone(),
            pairs[0].1.as_f64().expect("metric is numeric"),
        ),
        other => panic!("report has no metrics to perturb: {other:?}"),
    };
    let new = old * factor;
    let rebuilt = match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    if k == "metrics" {
                        let Json::Obj(metrics) = v else {
                            unreachable!()
                        };
                        let metrics = metrics
                            .into_iter()
                            .map(|(mk, mv)| {
                                if mk == key {
                                    (mk, Json::Num(new))
                                } else {
                                    (mk, mv)
                                }
                            })
                            .collect();
                        (k, Json::Obj(metrics))
                    } else {
                        (k, v)
                    }
                })
                .collect(),
        ),
        _ => unreachable!(),
    };
    let mut bytes = rebuilt.to_json_string();
    bytes.push('\n');
    std::fs::write(path, bytes).unwrap();
    (key, old, new)
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

#[test]
fn diff_verdicts_map_onto_exit_codes() {
    // Baseline: two quick experiments with metrics.
    let base = tmp_dir("diff-base");
    let out = compstat(&[
        "run",
        "fig01",
        "tab02",
        "--scale",
        "quick",
        "--out",
        base.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Identical copy: exit 0, clean.
    let same = tmp_dir("diff-same");
    copy_dir(&base, &same);
    let out = compstat(&["diff", base.to_str().unwrap(), same.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("status: clean"), "{text}");

    // Perturb one metric in one report: exit 2, and the output names
    // the experiment, the metric, both values, and the relative delta.
    let worse = tmp_dir("diff-worse");
    copy_dir(&base, &worse);
    let (key, old, new) = perturb_first_metric(&worse.join("fig01.json"), 1.5);
    let out = compstat(&["diff", base.to_str().unwrap(), worse.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains(&format!("fig01: metric '{key}'")), "{text}");
    assert!(text.contains("status: violations"), "{text}");
    assert!(text.contains("rel 5.000e-1"), "{text}");
    assert!(
        text.contains(&Json::Num(old).to_json_string())
            && text.contains(&Json::Num(new).to_json_string()),
        "{text}"
    );

    // --json emits a parseable compstat-diff/v2 document carrying the
    // same verdict and change.
    let out = compstat(&[
        "diff",
        base.to_str().unwrap(),
        worse.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("compstat-diff/v2")
    );
    assert_eq!(doc.get("status").unwrap().as_str(), Some("violations"));
    let changes = doc.get("changes").unwrap().as_arr().unwrap();
    assert_eq!(changes.len(), 1);
    assert_eq!(
        changes[0].get("experiment").unwrap().as_str(),
        Some("fig01")
    );
    let rel = changes[0].get("rel").unwrap().as_f64().unwrap();
    assert!((rel - 0.5).abs() < 1e-9, "rel {rel}");
}

#[test]
fn diff_detects_added_and_removed_experiments() {
    let small = tmp_dir("diff-small");
    let big = tmp_dir("diff-big");
    for (names, dir) in [(&["tab01"][..], &small), (&["tab01", "tab02"][..], &big)] {
        let mut args = vec!["run"];
        args.extend(names);
        args.extend(["--scale", "quick", "--out", dir.to_str().unwrap()]);
        assert!(compstat(&args).status.success());
    }
    let out = compstat(&["diff", small.to_str().unwrap(), big.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("added:   tab02"), "{text}");

    let out = compstat(&["diff", big.to_str().unwrap(), small.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("removed: tab02"), "{text}");
}

#[test]
fn diff_errors_exit_3_with_clear_messages() {
    let good = tmp_dir("diff-good");
    let out = compstat(&[
        "run",
        "tab01",
        "--scale",
        "quick",
        "--out",
        good.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // Missing index.json (empty directory): clear error, no panic.
    let empty = tmp_dir("diff-empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = compstat(&["diff", good.to_str().unwrap(), empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read index"), "{err}");

    // Corrupt index.json.
    let corrupt = tmp_dir("diff-corrupt");
    copy_dir(&good, &corrupt);
    std::fs::write(corrupt.join("index.json"), "{\"schema\": ").unwrap();
    let out = compstat(&["diff", good.to_str().unwrap(), corrupt.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("index.json"));

    // The retired tolerance option is an unknown flag.
    let retired = ["--", "tolerances"].concat();
    let out = compstat(&["diff", "a", "b", &retired, "x"]);
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"), "{err}");

    // Usage errors share the trouble code, keeping 0/2 as verdicts.
    for args in [
        &["diff"][..],
        &["diff", "one-dir-only"],
        &["diff", "a", "b", "c"],
        &["diff", "a", "b", "--bogus"],
    ] {
        let out = compstat(args);
        assert_eq!(out.status.code(), Some(3), "args {args:?}");
    }
}

#[test]
fn validate_recurses_into_nested_report_directories() {
    // Sharded runs nest report directories; validate must find them.
    let root = tmp_dir("reports-nested");
    let sub = root.join("run1");
    let out = compstat(&[
        "run",
        "tab01",
        "--scale",
        "quick",
        "--out",
        sub.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = compstat(&["validate", root.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("2 document(s) valid"));
}

#[test]
fn cache_cold_warm_and_no_cache_runs_are_byte_identical() {
    // The oracle-cache acceptance story end to end, on the three
    // cached experiments: a cold-cache run, a warm-cache run, and a
    // --no-cache run must emit byte-identical reports; the warm run
    // must actually hit; `cache stats` and `cache clear` must see it
    // all.
    let cache_dir = tmp_dir("oracle-cache-private");
    let env: Vec<(&str, &str)> = vec![("COMPSTAT_CACHE_DIR", cache_dir.to_str().unwrap())];
    let names = ["fig09", "fig10", "fig11"];

    let run = |out: &Path, extra: &[&str]| {
        let mut args = vec!["run"];
        args.extend(names);
        args.extend([
            "--scale",
            "quick",
            "--threads",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]);
        args.extend(extra);
        let got = compstat_env(&args, &env);
        assert!(
            got.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&got.stderr)
        );
        String::from_utf8_lossy(&got.stderr).into_owned()
    };

    let cold_dir = tmp_dir("cache-cold");
    let warm_dir = tmp_dir("cache-warm");
    let off_dir = tmp_dir("cache-off");
    let cold_log = run(&cold_dir, &[]);
    assert!(cold_log.contains("oracle cache:"), "{cold_log}");
    let warm_log = run(&warm_dir, &[]);
    let off_log = run(&off_dir, &["--no-cache"]);
    assert!(
        !off_log.contains("oracle cache:"),
        "--no-cache must not report cache activity:\n{off_log}"
    );

    // Byte-for-byte identical across all three modes.
    let files: Vec<String> = names
        .iter()
        .map(|n| format!("{n}.json"))
        .chain(std::iter::once("index.json".to_string()))
        .collect();
    for file in &files {
        let cold = std::fs::read(cold_dir.join(file)).unwrap();
        assert_eq!(
            cold,
            std::fs::read(warm_dir.join(file)).unwrap(),
            "{file}: cold vs warm"
        );
        assert_eq!(
            cold,
            std::fs::read(off_dir.join(file)).unwrap(),
            "{file}: cold vs --no-cache"
        );
    }
    // Atomic writes leave no temp droppings behind.
    for dir in [&cold_dir, &warm_dir, &off_dir, &cache_dir] {
        for entry in std::fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(
                !name.contains(".tmp-"),
                "leftover temp file {name} in {dir:?}"
            );
        }
    }

    // The warm run hit on every oracle sweep: fig09 and fig11 read one
    // in-process evaluation of the corpus (one lookup under its key),
    // fig10 has two (one per sequence length), so cold = 3 misses and
    // warm = exactly 3 hits.
    assert!(
        warm_log.contains("oracle cache: 3 hit(s), 0 miss(es)"),
        "{warm_log}"
    );
    // A stray `.bfc` file is not an entry: stats and clear count only
    // `<64 hex>.bfc` names, the ones the cache writes.
    std::fs::write(cache_dir.join("notes.bfc"), "not a cache entry\n").unwrap();
    let stats = compstat_env(&["cache", "stats"], &env);
    assert!(stats.status.success());
    let stats_text = String::from_utf8(stats.stdout).unwrap();
    assert!(stats_text.contains("entries: 3"), "{stats_text}");
    assert!(
        stats_text.contains("last run: 3 hit(s), 0 miss(es)"),
        "{stats_text}"
    );

    // clear empties the store and stats; a fresh run is cold again.
    let cleared = compstat_env(&["cache", "clear"], &env);
    assert!(cleared.status.success());
    let stats_text = String::from_utf8(compstat_env(&["cache", "stats"], &env).stdout).unwrap();
    assert!(stats_text.contains("entries: 0"), "{stats_text}");
    std::fs::remove_file(cache_dir.join("notes.bfc")).expect("clear leaves notes.bfc alone");

    // Corruption recovery end to end: rebuild the cache, tamper with
    // every entry, and re-run — reports stay byte-identical and the
    // entries are rewritten.
    let rebuilt = run(&tmp_dir("cache-rebuild"), &[]);
    assert!(rebuilt.contains("3 miss(es)"), "{rebuilt}");
    let mut tampered = 0;
    for entry in std::fs::read_dir(&cache_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "bfc") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
            tampered += 1;
        }
    }
    assert_eq!(tampered, 3);
    let recovered_dir = tmp_dir("cache-recovered");
    let recovered_log = run(&recovered_dir, &[]);
    assert!(
        recovered_log.contains("discarding corrupt cache entry"),
        "{recovered_log}"
    );
    for file in &files {
        assert_eq!(
            std::fs::read(cold_dir.join(file)).unwrap(),
            std::fs::read(recovered_dir.join(file)).unwrap(),
            "{file}: corrupt-cache run must recompute identical bytes"
        );
    }

    let usage = compstat_env(&["cache", "frobnicate"], &env);
    assert_eq!(usage.status.code(), Some(2));
}

#[test]
fn bad_compstat_threads_env_is_a_clear_error_not_a_silent_fallback() {
    for bad in ["abc", "-1", "999999999999"] {
        let out = compstat_env(
            &["run", "tab01", "--scale", "quick"],
            &[("COMPSTAT_THREADS", bad)],
        );
        assert_eq!(out.status.code(), Some(2), "COMPSTAT_THREADS={bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("COMPSTAT_THREADS"), "{err}");
        assert!(err.contains(bad), "{err}");
    }
    // Empty is the documented "treat as unset" convenience.
    let out = compstat_env(
        &["run", "tab01", "--scale", "quick"],
        &[("COMPSTAT_THREADS", "")],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_shard_values_exit_2_and_name_the_value() {
    for bad in ["0/3", "4/3", "a/b", "3/0", "3", ""] {
        let out = compstat(&["run", "--all", "--scale", "quick", "--shard", bad]);
        assert_eq!(out.status.code(), Some(2), "--shard {bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("\"{bad}\"")),
            "--shard {bad:?} error must name the value:\n{err}"
        );
    }
    // --shard partitions the registry; it cannot combine with names,
    // and requires --all.
    for args in [
        &["run", "fig01", "--scale", "quick", "--shard", "1/2"][..],
        &["run", "--scale", "quick", "--shard", "1/2"],
        &["run", "--all", "--scale", "quick", "--shard"],
    ] {
        let out = compstat(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}

fn read_dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            (
                path.file_name().unwrap().to_str().unwrap().to_string(),
                std::fs::read(&path).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn sharded_runs_merge_back_byte_identical_to_unsharded() {
    // The distributed-run acceptance story through the binary: three
    // `--shard K/3` runs at different thread counts, merged, must be
    // byte-for-byte the directory a single unsharded run writes. The
    // same shard dirs then exercise merge's refusal modes.
    let unsharded = tmp_dir("shard-unsharded");
    let out = compstat(&[
        "run",
        "--all",
        "--scale",
        "quick",
        "--threads",
        "2",
        "--out",
        unsharded.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut shard_dirs = Vec::new();
    for k in 1..=3usize {
        let dir = tmp_dir(&format!("shard-{k}-of-3"));
        let out = compstat(&[
            "run",
            "--all",
            "--scale",
            "quick",
            "--threads",
            &k.to_string(),
            "--shard",
            &format!("{k}/3"),
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "shard {k}/3: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Each shard's index carries its stamp.
        let index = load_index(&dir).unwrap();
        assert_eq!(index.shard, Some(Shard::new(k, 3).unwrap()));
        shard_dirs.push(dir);
    }
    // The stamped indexes validate, through the parser merge uses.
    let mut args = vec!["validate"];
    args.extend(shard_dirs.iter().map(|d| d.to_str().unwrap()));
    assert!(compstat(&args).status.success());

    let merged = tmp_dir("shard-merged");
    let mut args = vec!["merge"];
    // Reversed argument order: merge reassembles from the stamps.
    for dir in shard_dirs.iter().rev() {
        args.push(dir.to_str().unwrap());
    }
    args.extend(["--out", merged.to_str().unwrap()]);
    let out = compstat(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("merged 3 shard(s)") && text.contains("at scale quick"),
        "{text}"
    );

    let want = read_dir_bytes(&unsharded);
    let got = read_dir_bytes(&merged);
    assert_eq!(
        want.len(),
        compstat_bench::registry().len() + 1,
        "17 reports + index.json"
    );
    for ((wname, wbytes), (gname, gbytes)) in want.iter().zip(&got) {
        assert_eq!(wname, gname);
        assert_eq!(wbytes, gbytes, "{wname}: merged differs from unsharded");
    }
    assert_eq!(want.len(), got.len());

    // Refusal modes, all exit 1 with the problem named:
    // a missing shard...
    let out_dir = tmp_dir("shard-merge-missing");
    let out = compstat(&[
        "merge",
        shard_dirs[0].to_str().unwrap(),
        shard_dirs[2].to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("2/3"),
        "missing-shard error must name 2/3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // ...the same shard twice...
    let dup = tmp_dir("shard-1-again");
    copy_dir(&shard_dirs[0], &dup);
    let out = compstat(&[
        "merge",
        shard_dirs[0].to_str().unwrap(),
        dup.to_str().unwrap(),
        shard_dirs[1].to_str().unwrap(),
        shard_dirs[2].to_str().unwrap(),
        "--out",
        tmp_dir("shard-merge-dup").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("1/3"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // ...an unstamped input directory...
    let out = compstat(&[
        "merge",
        unsharded.to_str().unwrap(),
        "--out",
        tmp_dir("shard-merge-unstamped").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    // ...and a non-empty --out (merge never clobbers).
    let out = compstat(&[
        "merge",
        shard_dirs[0].to_str().unwrap(),
        shard_dirs[1].to_str().unwrap(),
        shard_dirs[2].to_str().unwrap(),
        "--out",
        merged.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));

    // Usage errors exit 2.
    for args in [
        &["merge", "--out", "somewhere"][..],
        &["merge", "some-dir"],
        &["merge", "some-dir", "--out"],
    ] {
        let out = compstat(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}

/// The oracle cache's entry files under `dir`, sorted by name.
fn cache_entries(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "bfc"))
        .collect();
    entries.sort();
    entries
}

#[test]
fn a_copied_cache_directory_serves_warm_and_refuses_misplaced_entries() {
    // Portability story: machine A runs cold, and machine B receives a
    // plain copy of A's entry files and runs warm, without computing a
    // single oracle value. A file under the wrong name is refused by
    // the key digest in its header and recomputed, never served.
    let machine_a = tmp_dir("cache-copy-a");
    let machine_b = tmp_dir("cache-copy-b");
    let env_a: Vec<(&str, &str)> = vec![("COMPSTAT_CACHE_DIR", machine_a.to_str().unwrap())];
    let env_b: Vec<(&str, &str)> = vec![("COMPSTAT_CACHE_DIR", machine_b.to_str().unwrap())];
    let run = |name: &str, env: &[(&str, &str)], out: &Path, extra: &[&str]| {
        let mut args = vec![
            "run",
            name,
            "--scale",
            "quick",
            "--out",
            out.to_str().unwrap(),
        ];
        args.extend(extra);
        let got = compstat_env(&args, env);
        let stderr = String::from_utf8_lossy(&got.stderr).into_owned();
        assert!(got.status.success(), "{args:?}: {stderr}");
        stderr
    };

    let out_a = tmp_dir("cache-copy-reports-a");
    let cold = run("fig09", &env_a, &out_a, &[]);
    assert!(
        cold.contains("oracle cache: 0 hit(s), 1 miss(es)"),
        "{cold}"
    );
    let [fig09_entry] = cache_entries(&machine_a).try_into().unwrap();
    run("fig10", &env_a, &tmp_dir("cache-copy-fig10-a"), &[]);
    let fig10_entry = cache_entries(&machine_a)
        .into_iter()
        .find(|p| *p != fig09_entry)
        .expect("fig10 wrote an entry");

    std::fs::create_dir_all(&machine_b).unwrap();
    for entry in cache_entries(&machine_a) {
        std::fs::copy(&entry, machine_b.join(entry.file_name().unwrap())).unwrap();
    }
    let out_b = tmp_dir("cache-copy-reports-b");
    let warm = run("fig09", &env_b, &out_b, &[]);
    assert!(
        warm.contains("oracle cache: 1 hit(s), 0 miss(es)"),
        "the copied cache must serve the sweep: {warm}"
    );
    assert_eq!(read_dir_bytes(&out_a), read_dir_bytes(&out_b));

    // fig10's bytes under fig09's name: an intact entry of the wrong
    // key. The run counts one error and one miss, recomputes, and
    // rewrites fig09's own entry.
    let fig09_on_b = machine_b.join(fig09_entry.file_name().unwrap());
    std::fs::copy(&fig10_entry, &fig09_on_b).unwrap();
    let out_misplaced = tmp_dir("cache-copy-reports-misplaced");
    let refused = run("fig09", &env_b, &out_misplaced, &[]);
    assert!(
        refused.contains("oracle cache: 0 hit(s), 1 miss(es), 1 write(s), 1 error(s)"),
        "{refused}"
    );
    let digest = |p: &Path| p.file_stem().unwrap().to_str().unwrap().to_string();
    assert!(refused.contains("key digest mismatch"), "{refused}");
    assert!(
        refused.contains(&digest(&fig09_entry)) && refused.contains(&digest(&fig10_entry)),
        "the warning names both digests: {refused}"
    );
    let out_off = tmp_dir("cache-copy-reports-off");
    run("fig09", &env_b, &out_off, &["--no-cache"]);
    assert_eq!(read_dir_bytes(&out_misplaced), read_dir_bytes(&out_off));
    assert_eq!(
        std::fs::read(&fig09_on_b).unwrap(),
        std::fs::read(&fig09_entry).unwrap(),
        "the rewrite restores fig09's own entry"
    );

    // The store moves by copy only: there is no archive verb.
    for verb in ["export", "import"] {
        let out = compstat_env(&["cache", verb, "x.tar"], &env_b);
        assert_eq!(out.status.code(), Some(2), "cache {verb}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("pass `stats` or `clear`"), "{err}");
    }
}

#[test]
fn bench_emits_validating_documents_and_stays_out_of_report_dirs() {
    // One quick bench run: prints human tables, writes one
    // compstat-bench/v1 document per suite (and no index.json, so the
    // directory can never be mistaken for a report directory).
    let dir = tmp_dir("bench-docs");
    let out = compstat(&[
        "bench",
        "--quick",
        "--threads",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("non-deterministic"), "{text}");
    assert!(text.contains("bigfloat/div/256"), "{text}");
    assert!(text.contains("bigfloat/div-restoring/256"), "{text}");
    assert!(text.contains("hdr/add/53"), "{text}");
    assert!(text.contains("hdr/forward/53"), "{text}");
    assert!(text.contains("oracle/forward/256"), "{text}");
    assert!(text.contains("oracle/fig09-fig11"), "{text}");
    assert!(text.contains("oracle/fig10"), "{text}");
    assert!(text.contains("posit64_12/add"), "{text}");
    assert!(text.contains("forward/512x8/log"), "{text}");
    assert!(text.contains("pbd/200x24/binary64"), "{text}");
    assert!(text.contains("fig06-sweep/parallel"), "{text}");

    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(
        files,
        [
            "bench-bigfloat.json",
            "bench-formats.json",
            "bench-hdr.json",
            "bench-oracle.json"
        ]
    );

    // All documents parse, carry the schema + marker, and pass the
    // validate subcommand.
    for file in &files {
        let doc = Json::parse(&std::fs::read_to_string(dir.join(file)).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("compstat-bench/v1"),
            "{file}"
        );
        assert_eq!(doc.get("non_deterministic"), Some(&Json::Bool(true)));
    }
    let out = compstat(&["validate", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("4 document(s) valid"));

    // A --out pointing at a report directory (holds index.json) is
    // refused before any timing runs, exit 2.
    let reports = tmp_dir("bench-refused");
    std::fs::create_dir_all(&reports).unwrap();
    std::fs::write(reports.join("index.json"), "{}").unwrap();
    let out = compstat(&["bench", "--quick", "--out", reports.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("index.json"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Usage errors exit 2.
    for args in [
        &["bench", "fig01"][..],
        &["bench", "--scale", "warp"],
        &["bench", "--out"],
    ] {
        let out = compstat(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}

#[test]
fn single_report_matches_the_library_run() {
    // The binary's emitted JSON is exactly what the library produces:
    // no CLI-layer drift in the report pipeline.
    let dir = tmp_dir("reports-one");
    let out = compstat(&[
        "run",
        "fig01",
        "--scale",
        "quick",
        "--threads",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let from_cli = std::fs::read_to_string(dir.join("fig01.json")).unwrap();
    let from_lib = compstat_bench::find("fig01")
        .unwrap()
        .run(
            &compstat_runtime::Runtime::serial(),
            compstat_core::Scale::Quick,
        )
        .to_json_string();
    assert_eq!(from_cli, from_lib);
}

#[test]
fn broken_pipe_exits_zero_instead_of_panicking() {
    use std::process::Stdio;
    // `compstat run ... | head -0`: the reader closes the pipe before
    // the report is printed. The binary must treat EPIPE as a normal
    // end of output — exit 0, no panic backtrace, no SIGPIPE death.
    for args in [&["run", "tab01", "--scale", "quick"][..], &["help"][..]] {
        let mut child = compstat_command(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn");
        // Dropping the handle closes the read end of the pipe, so the
        // child's first write after this point fails with EPIPE.
        drop(child.stdout.take());
        let status = child.wait().expect("wait");
        let mut stderr = String::new();
        use std::io::Read as _;
        child
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut stderr)
            .unwrap();
        assert_eq!(
            status.code(),
            Some(0),
            "args {args:?}: expected clean exit on broken pipe, got {status:?}\nstderr: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "args {args:?}: broken pipe must not panic:\n{stderr}"
        );
    }
}

#[test]
fn serve_send_replies_match_the_offline_baseline() {
    use std::io::{BufRead as _, BufReader};
    use std::process::Stdio;

    // A small script covering the control verb and both scoring verbs.
    let script = concat!(
        r#"{"schema":"compstat-serve/v1","id":"c0","verb":"ping"}"#,
        "\n",
        r#"{"schema":"compstat-serve/v1","id":"c1","verb":"pbd/call_columns","format":"Log","prec":128,"columns":[{"probs":[0.25,0.125,0.0625,0.5],"k":2}]}"#,
        "\n",
        r#"{"schema":"compstat-serve/v1","id":"c2","verb":"hmm/forward_batch","format":"binary64","prec":128,"model":{"states":2,"symbols":2,"a":[0.7,0.3,0.4,0.6],"b":[0.9,0.1,0.2,0.8],"pi":[0.5,0.5]},"sequences":[[0,1,1,0]]}"#,
        "\n",
    );
    let dir = tmp_dir("serve-send");
    std::fs::create_dir_all(&dir).unwrap();
    let script_path = dir.join("script.ndjson");
    std::fs::write(&script_path, script).unwrap();

    // Foreground server on a free port; the resolved address is the
    // first stdout line.
    let mut server = compstat_command(&["serve", "--workers", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn server");
    let mut addr_line = String::new();
    BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut addr_line)
        .expect("read address line");
    let addr = addr_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {addr_line:?}"))
        .to_string();

    let sent = compstat(&[
        "serve",
        "--send",
        script_path.to_str().unwrap(),
        "--addr",
        &addr,
    ]);
    server.kill().ok();
    server.wait().ok();
    assert!(
        sent.status.success(),
        "send failed: {}",
        String::from_utf8_lossy(&sent.stderr)
    );

    let offline = compstat(&["serve", "--offline", script_path.to_str().unwrap()]);
    assert!(offline.status.success());
    assert_eq!(
        String::from_utf8(sent.stdout).unwrap(),
        String::from_utf8(offline.stdout).unwrap(),
        "served replies must be byte-identical to the offline baseline"
    );
}
