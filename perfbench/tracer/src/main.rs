//! perfbench-tracer: the traced run of one perfbench workload.
//!
//! ```text
//! perfbench-tracer --workload oracle-cold|registry-warm|serve-mixed
//!                  --scale quick|default --threads N --seed N --work DIR
//!                  [--frames FILE]
//! ```
//!
//! Replays the workload's inputs through the crates' public functions
//! in this one process: the registry's `find(name).run`, the corpus and
//! sweep generators, the oracle and format kernels, the oracle cache,
//! and `Responder::respond_line`. Every call is a span, kept in memory
//! and written to `DIR/trace.jsonl` at the end. Reports go to
//! `DIR/reports/`, serve replies to `DIR/replies.txt`, so the caller can
//! check them against the untraced program's bytes. The last stdout
//! line is one JSON object of per-layer metrics.
//!
//! The oracle cache directory is `$COMPSTAT_CACHE_DIR`; the caller
//! points it at a fresh directory.

mod layers;
mod micro;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};

use compstat_bigfloat::Context;
use compstat_core::cache::write_atomic;
use compstat_core::json::{Json, ParseLimits};
use compstat_core::Scale;
use compstat_hmm::Hmm;
use compstat_pbd::{oracle_cache_key, Column};
use compstat_runtime::{CacheMode, Runtime};
use compstat_serve::{RequestLimits, Responder};

use layers::{HmmSweep, Inputs};
use trace::{median, Trace};

/// The experiments `oracle-cold` runs, in the order its command names them.
const ORACLE_COLD: [&str; 4] = ["fig09", "fig10", "fig11", "hdr"];

/// The formats `serve-mixed` rotates through.
const SERVE_FORMATS: [&str; 4] = ["binary64", "Log", "posit(64,18)", "hdr(53)"];

struct Args {
    workload: String,
    scale: Scale,
    threads: usize,
    seed: u64,
    work: PathBuf,
    frames: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut scale, mut threads, mut seed, mut work, mut frames) =
        (None, Scale::Quick, 1, 0, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--scale" => scale = Scale::parse(&value).ok_or(format!("bad scale {value:?}"))?,
            "--threads" => {
                threads = value
                    .parse()
                    .map_err(|_| format!("bad --threads {value:?}"))?
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--work" => work = Some(PathBuf::from(value)),
            "--frames" => frames = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        scale,
        threads,
        seed,
        work: work.ok_or("--work is required")?,
        frames,
    })
}

/// Runs the named experiments in one `pass` span: per experiment an
/// `exp.<name>` span around `run`, then `report.render` and
/// `report.write` spans around serializing and writing its report.
fn traced_pass(trace: &mut Trace, names: &[&str], scale: Scale, rt: &Runtime, out: &Path) {
    std::fs::create_dir_all(out).expect("create the report directory");
    let root = trace.open("pass", None);
    for &name in names {
        let e = compstat_bench::find(name).expect("registered experiment");
        let report = trace.span(&format!("exp.{name}"), Some(root), || e.run(rt, scale));
        let bytes = trace.span("report.render", Some(root), || report.to_json_string());
        trace.span("report.write", Some(root), || {
            write_atomic(&out.join(format!("{name}.json")), bytes.as_bytes())
                .expect("write the report")
        });
    }
    trace.close(root);
    for &name in names {
        let ms = trace.total_secs(&format!("exp.{name}")) * 1e3;
        trace.metric(format!("exp.{name}_ms"), ms, "ms");
    }
    let render = trace.total_secs("report.render") * 1e3;
    let write = trace.total_secs("report.write") * 1e3;
    trace.metric("report.render_ms", render, "ms");
    trace.metric("report.write_ms", write, "ms");
    let coverage = trace.coverage(root);
    trace.metric("trace.coverage", coverage, "ratio");
    trace.metric("trace.pass_s", trace.secs(root), "s");
}

/// The distinct oracle inputs of the serve frames: one PBD column set
/// per distinct `pbd/call_columns` request, one sweep per distinct
/// `hmm/forward_batch` request. Repeats are what the server's cache
/// answers, so they cost no oracle work.
fn serve_inputs(frames: &[String]) -> Inputs {
    let mut seen = std::collections::BTreeSet::new();
    let mut inputs = Inputs {
        prec: 0,
        pbd: Vec::new(),
        pbd_formats: &SERVE_FORMATS,
        hmm: Vec::new(),
    };
    let nums = |v: &Json, key: &str| -> Vec<f64> {
        v.get(key)
            .and_then(Json::as_arr)
            .expect("numeric array")
            .iter()
            .map(|x| x.as_f64().expect("number"))
            .collect()
    };
    let index =
        |v: &Json, key: &str| v.get(key).and_then(Json::as_f64).expect("whole number") as usize;
    for frame in frames {
        let doc = Json::parse(frame).expect("benchmark frames are valid JSON");
        let Some(prec) = doc.get("prec").and_then(Json::as_f64) else {
            continue;
        };
        inputs.prec = prec as u32;
        let ctx = Context::new(inputs.prec);
        match doc.get("verb").and_then(Json::as_str) {
            Some("pbd/call_columns") => {
                let cols: Vec<Column> = doc
                    .get("columns")
                    .and_then(Json::as_arr)
                    .expect("columns")
                    .iter()
                    .map(|c| Column::new(nums(c, "probs"), index(c, "k")))
                    .collect();
                if seen.insert(oracle_cache_key("serve", "adhoc", 0, &cols, &ctx).digest()) {
                    inputs.pbd.push(cols);
                }
            }
            Some("hmm/forward_batch") => {
                let m = doc.get("model").expect("model");
                let model = Hmm::new(
                    index(m, "states"),
                    index(m, "symbols"),
                    nums(m, "a"),
                    nums(m, "b"),
                    nums(m, "pi"),
                );
                let seqs: Vec<Vec<usize>> = doc
                    .get("sequences")
                    .and_then(Json::as_arr)
                    .expect("sequences")
                    .iter()
                    .map(|s| {
                        s.as_arr()
                            .expect("sequence")
                            .iter()
                            .map(|x| x.as_f64().expect("symbol") as usize)
                            .collect()
                    })
                    .collect();
                let key = compstat_hmm::forward_oracle_cache_key(
                    "serve", "adhoc", 0, &model, &seqs, &ctx,
                );
                if seen.insert(key.digest()) {
                    let items = seqs.into_iter().map(|s| (model.clone(), s)).collect();
                    inputs.hmm.push(HmmSweep {
                        items,
                        formats: &SERVE_FORMATS,
                    });
                }
            }
            _ => {}
        }
    }
    inputs
}

/// Answers every frame in-process, one `serve.respond` span per frame
/// inside a `pass` span, writing the replies to `DIR/replies.txt`; then
/// times the untrusted-input JSON parse of each frame.
fn serve_pass(trace: &mut Trace, frames: &[String], work: &Path) {
    let cache_dir = std::env::var_os("COMPSTAT_CACHE_DIR").map(PathBuf::from);
    let responder = Responder::new(RequestLimits::default(), 1, CacheMode::ReadWrite, cache_dir);
    let root = trace.open("pass", None);
    let replies: Vec<String> = frames
        .iter()
        .map(|f| trace.span("serve.respond", Some(root), || responder.respond_line(f)))
        .collect();
    trace.close(root);
    let coverage = trace.coverage(root);
    trace.metric("trace.coverage", coverage, "ratio");
    trace.metric("trace.pass_s", trace.secs(root), "s");
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(work.join("replies.txt")).expect("create replies.txt"),
    );
    for r in &replies {
        writeln!(out, "{r}").expect("write replies.txt");
    }
    out.flush().expect("write replies.txt");

    let parse_us: Vec<f64> = frames
        .iter()
        .map(|f| {
            let id = trace.open("serve.parse", None);
            let doc = Json::parse_with_limits(f, &ParseLimits::UNTRUSTED);
            trace.close(id);
            assert!(
                doc.is_ok(),
                "benchmark frames parse under the untrusted limits"
            );
            trace.secs(id) * 1e6
        })
        .collect();
    trace.metric("serve.parse_us", median(&parse_us), "us");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench-tracer: {msg}");
            std::process::exit(2);
        }
    };
    let rt = Runtime::with_threads(args.threads).with_cache_mode(CacheMode::ReadWrite);
    let mut trace = Trace::new();
    let reports = args.work.join("reports");
    let inputs = match args.workload.as_str() {
        "oracle-cold" => {
            traced_pass(&mut trace, &ORACLE_COLD, args.scale, &rt, &reports);
            layers::registry_inputs(&mut trace, args.scale, &rt)
        }
        "registry-warm" => {
            // Prime the cache, as the end-to-end workload does in set-up.
            for name in ORACLE_COLD {
                let e = compstat_bench::find(name).expect("registered experiment");
                trace.span("prime", None, || e.run(&rt, args.scale));
            }
            let names: Vec<&str> = compstat_bench::registry()
                .iter()
                .map(|e| e.name())
                .collect();
            traced_pass(&mut trace, &names, args.scale, &rt, &reports);
            let mut ds_ms = Vec::new();
            for _ in 0..3 {
                let id = trace.open("pbd.perf_datasets", None);
                std::hint::black_box(compstat_pbd::perf_datasets());
                trace.close(id);
                ds_ms.push(trace.secs(id) * 1e3);
            }
            trace.metric("pbd.perf_datasets_ms", median(&ds_ms), "ms");
            layers::registry_inputs(&mut trace, args.scale, &rt)
        }
        "serve-mixed" => {
            let path = args.frames.as_deref().expect("serve-mixed needs --frames");
            let text = std::fs::read_to_string(path).expect("read the frames file");
            let frames: Vec<String> = text
                .lines()
                .filter(|l| !l.is_empty())
                .map(str::to_string)
                .collect();
            serve_pass(&mut trace, &frames, &args.work);
            serve_inputs(&frames)
        }
        other => {
            eprintln!("perfbench-tracer: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    layers::replay(&mut trace, &inputs, &rt, &args.work);
    micro::run(&mut trace, args.seed);
    trace
        .write_spans(&args.work.join("trace.jsonl"))
        .expect("write trace.jsonl");
    println!("{}", trace.metrics_json());
}
