//! One whole-number rule for every reader of a JSON document. A count
//! is an integer from 0 to 2^53, the range in which the writer spells
//! every value digit for digit, so what a reader accepts it can write
//! back unchanged. The index, bench-document, cache-stats and serve
//! readers all refuse the same non-counts, and each error names its
//! field; the committed corpus reads back to its exact bytes.

use compstat_core::cache::{load_stats_file, CACHE_STATS_SCHEMA};
use compstat_core::json::Json;
use compstat_core::merge::{index_doc, parse_index};
use compstat_core::{BenchDoc, BenchEntry, Report};
use compstat_runtime::CacheMode;
use compstat_serve::{RequestLimits, Responder};
use std::path::Path;

/// Numbers that are not counts: past 2^53, negative, fractional.
const NOT_COUNTS: [&str; 3] = ["1e20", "-1", "2.5"];

fn goldens() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/goldens/quick"))
}

/// `text` with the number after the first `"key":` replaced by `with`.
fn replace_first_number(text: &str, key: &str, with: &str) -> String {
    let needle = format!("\"{key}\":");
    let start = text.find(&needle).expect("key present") + needle.len();
    let len = text[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .expect("number ends");
    format!("{}{with}{}", &text[..start], &text[start + len..])
}

#[test]
fn non_counts_are_refused_by_every_reader_naming_the_field() {
    let index = std::fs::read_to_string(goldens().join("index.json")).unwrap();
    let bench = BenchDoc {
        suite: "bigfloat".into(),
        scale: "quick".into(),
        threads: 1,
        unix_ms: 1,
        entries: vec![BenchEntry {
            id: "bigfloat/add/128".into(),
            iters: 1000,
            reps: 7,
            min_ns: 1.0,
            median_ns: 2.0,
            mean_ns: 3.0,
        }],
    }
    .to_json_string();
    let stats_dir =
        std::env::temp_dir().join(format!("compstat-json-readers-{}", std::process::id()));
    std::fs::create_dir_all(&stats_dir).unwrap();
    let serve = Responder::new(
        RequestLimits::default(),
        1,
        CacheMode::Off,
        Some(stats_dir.clone()),
    );

    for bad in NOT_COUNTS {
        let doc = Json::parse(&replace_first_number(&index, "blocks", bad)).unwrap();
        let err = parse_index(&doc).unwrap_err().message;
        assert_eq!(
            err, "experiment 0: missing whole-number field: blocks",
            "{bad}"
        );

        let doc = Json::parse(&replace_first_number(&bench, "iters", bad)).unwrap();
        let err = BenchDoc::from_json(&doc).unwrap_err();
        assert!(
            err.ends_with("missing whole-number field: iters"),
            "{bad}: {err}"
        );

        let frame = format!(
            r#"{{"schema":"compstat-serve/v1","id":"k","verb":"pbd/call_columns","format":"binary64","columns":[{{"probs":[0.5],"k":{bad}}}]}}"#
        );
        let reply = serve.respond_line(&frame);
        assert!(
            reply.contains(r#""message":"column 0: missing whole-number field: k""#),
            "{bad}: {reply}"
        );

        let stats = format!(
            r#"{{"schema":"{CACHE_STATS_SCHEMA}","last_run":{{"hits":{bad},"misses":0,"writes":0,"errors":0}}}}"#
        );
        std::fs::write(stats_dir.join("stats.json"), stats).unwrap();
        assert_eq!(load_stats_file(&stats_dir), None, "{bad}");
    }
    let _ = std::fs::remove_dir_all(&stats_dir);
}

#[test]
fn every_golden_document_reads_back_to_its_exact_bytes() {
    let mut files: Vec<_> = std::fs::read_dir(goldens())
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(files.len() > 1);
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let rewritten = if path.ends_with("index.json") {
            let index = parse_index(&Json::parse(&text).unwrap()).unwrap();
            index_doc(&index.scale, index.shard, &index.entries).to_json_string() + "\n"
        } else {
            Report::parse(&text).unwrap().to_json_string()
        };
        assert!(rewritten == text, "{} does not read back", path.display());
    }
}
