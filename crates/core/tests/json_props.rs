//! Property tests for the JSON layer the report differ depends on.
//!
//! The diff engine (`compstat diff`) only works if the on-disk report
//! format is a fixed point: serializing a report, parsing it back, and
//! serializing again must reproduce the same bytes, for *any* report
//! the engine could emit — including params, metrics, and table cells
//! full of escapes, unicode, and edge-case numbers. These tests
//! generate arbitrary reports through a custom proptest [`Strategy`]
//! and pin that round trip, plus the strict parser's rejection of
//! malformed documents.

use compstat_core::json::Json;
use compstat_core::report::{Report, Table};
use compstat_core::Scale;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Characters deliberately chosen to stress the writer's escaping and
/// the parser's string handling: quotes, backslashes, control
/// characters, multi-byte UTF-8, and an astral-plane emoji.
const CHARS: &[char] = &[
    'a', 'Z', '0', '9', ' ', '_', '-', '.', '%', '"', '\\', '/', '\n', '\t', '\r', '\u{1}',
    '\u{1f}', 'é', 'π', '😀',
];

fn arb_string(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

/// A non-empty, unique-ready identifier (object keys must be unique:
/// the strict parser rejects duplicate keys by design).
fn arb_key(rng: &mut StdRng, taken: &[String]) -> String {
    loop {
        let mut k = arb_string(rng, 6);
        if k.is_empty() {
            k.push('k');
        }
        if !taken.contains(&k) {
            return k;
        }
    }
}

/// A finite `f64` drawn from the value classes reports actually hold:
/// small integers (the writer's `i64` fast path), normals across the
/// full exponent range, subnormals, and signed zeros.
fn arb_metric(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..4) {
        0 => rng.gen_range(-1000i64..1000) as f64,
        1 => {
            let sign = if rng.gen::<bool>() { 1u64 << 63 } else { 0 };
            let exp = rng.gen_range(1u64..=2046) << 52;
            let frac = rng.gen::<u64>() & ((1u64 << 52) - 1);
            f64::from_bits(sign | exp | frac)
        }
        2 => f64::from_bits(rng.gen_range(1u64..(1u64 << 52))),
        _ => {
            if rng.gen::<bool>() {
                0.0
            } else {
                -0.0
            }
        }
    }
}

/// Generates arbitrary [`Report`]s: random params, metrics, text
/// blocks, and tables.
#[derive(Clone, Copy, Debug)]
struct ArbReport;

impl Strategy for ArbReport {
    type Value = Report;

    fn sample(&self, rng: &mut StdRng) -> Option<Report> {
        let scale = *[Scale::Quick, Scale::Default, Scale::Full]
            .get(rng.gen_range(0usize..3))
            .unwrap();
        let mut r = Report::new(arb_string(rng, 8), arb_string(rng, 12), scale);
        let mut keys: Vec<String> = Vec::new();
        for _ in 0..rng.gen_range(0usize..4) {
            let k = arb_key(rng, &keys);
            r = r.param(k.clone(), arb_string(rng, 10));
            keys.push(k);
        }
        let mut keys: Vec<String> = Vec::new();
        for _ in 0..rng.gen_range(0usize..4) {
            let k = arb_key(rng, &keys);
            r.metric(k.clone(), arb_metric(rng));
            keys.push(k);
        }
        for _ in 0..rng.gen_range(0usize..4) {
            if rng.gen::<bool>() {
                r.text(arb_string(rng, 20));
            } else {
                let ncols = rng.gen_range(1usize..4);
                let mut t = Table::new((0..ncols).map(|_| arb_string(rng, 6)).collect());
                for _ in 0..rng.gen_range(0usize..4) {
                    t.row(
                        (0..ncols)
                            .map(|_| {
                                if rng.gen::<bool>() {
                                    format!("{:.3}", arb_metric(rng))
                                } else {
                                    arb_string(rng, 8)
                                }
                            })
                            .collect(),
                    );
                }
                r.table(t);
            }
        }
        Some(r)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // The fixed-point property the golden corpus and differ rely on:
    // `to_json → parse → to_json` reproduces the exact bytes.
    #[test]
    fn report_json_round_trip_is_byte_stable(r in ArbReport) {
        let first = r.to_json_string();
        let doc = match Json::parse(&first) {
            Ok(d) => d,
            Err(e) => return Err(TestCaseError::fail(format!("emitted JSON failed to parse: {e}\n{first}"))),
        };
        let mut second = doc.to_json_string();
        second.push('\n');
        prop_assert_eq!(&first, &second);
    }

    // Reading a report back into [`Report`] loses nothing the writer
    // emits: `from_json → to_json` reproduces the exact bytes.
    #[test]
    fn report_from_json_round_trip_is_byte_exact(r in ArbReport) {
        let first = r.to_json_string();
        let doc = match Json::parse(&first) {
            Ok(d) => d,
            Err(e) => return Err(TestCaseError::fail(format!("emitted JSON failed to parse: {e}\n{first}"))),
        };
        let back = match Report::from_json(&doc) {
            Ok(back) => back,
            Err(e) => return Err(TestCaseError::fail(format!("emitted report failed to load: {e}\n{first}"))),
        };
        prop_assert_eq!(&back.to_json_string(), &first);
    }

    // Strictness: the parser refuses any document with bytes after
    // the value — the exact failure mode of a truncated or doubled
    // report write.
    #[test]
    fn trailing_garbage_is_rejected(r in ArbReport, junk in 0usize..4) {
        let doc = r.to_json_string();
        let tail = ["x", "{}", "\"\"", "0"][junk];
        prop_assert!(Json::parse(&format!("{doc}{tail}")).is_err());
        // The newline-terminated form itself stays valid.
        prop_assert!(Json::parse(&doc).is_ok());
    }
}

#[test]
fn duplicate_keys_are_rejected_everywhere() {
    for bad in [
        r#"{"a":1,"a":2}"#,
        r#"{"metrics":{"m":1,"m":1}}"#,
        r#"[{"x":0,"x":0}]"#,
        // Distinct escape spellings of the same key are duplicates.
        "{\"a\\n\":1,\"a\\u000a\":2}",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
    }
    // Same key in *different* objects is fine.
    assert!(Json::parse(r#"{"a":{"x":1},"b":{"x":2}}"#).is_ok());
}

#[test]
fn malformed_numbers_are_rejected() {
    for bad in [
        "01",
        "-01",
        "1.",
        ".5",
        "1e",
        "1e+",
        "0x10",
        "+1",
        "1_000",
        "NaN",
        "Infinity",
        "--1",
        "1..2",
        "[1.2e3.4]",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn non_finite_metrics_serialize_as_null_and_load_as_nan() {
    let mut r = Report::new("demo", "Demo", Scale::Quick);
    r.metric("bad", f64::NAN);
    let s = r.to_json_string();
    assert!(s.contains("\"bad\":null"), "{s}");
    // Byte-stable round trip even through the null spelling.
    let doc = Json::parse(&s).unwrap();
    let mut again = doc.to_json_string();
    again.push('\n');
    assert_eq!(s, again);
    // And the report reader maps it back to NaN.
    let back = Report::parse(&s).unwrap();
    assert!(back.metrics[0].1.is_nan());
    assert_eq!(back.to_json_string(), s);
}
