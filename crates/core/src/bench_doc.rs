//! The wall-clock timing document emitted by `compstat bench`.
//!
//! Reports (`compstat-report/v1`) are byte-stable by contract: no
//! timestamps, no thread counts, no timings, so the diff gate can
//! compare them across machines. Timing data is the opposite — every
//! number depends on the host, the load, and the run — so it gets its
//! own schema, `compstat-bench/v1`, stamped `"non_deterministic":
//! true`. Bench documents never carry an `index.json` and are never
//! written into a report directory, which keeps them structurally
//! outside the `compstat diff` gate: [`crate::diff::load_report_dir`]
//! only sees directories indexed by `compstat-index/v1`.
//!
//! One [`BenchDoc`] holds the results of one suite (e.g. the bigfloat
//! kernel micro-benchmarks, or the oracle-pass timings) as a list of
//! [`BenchEntry`] rows: per-op nanoseconds summarized as min / median /
//! mean over `reps` repetitions of `iters` iterations each.

use crate::json::Json;
use crate::report::Table;
use crate::scale::Scale;

/// The schema identifier stamped into every bench document.
pub const BENCH_SCHEMA: &str = "compstat-bench/v1";

/// One timed operation: `reps` repetitions of `iters` iterations,
/// summarized in nanoseconds per operation.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Stable identifier, e.g. `bigfloat/div/256` or `oracle/fig09`.
    pub id: String,
    /// Iterations per repetition (each rep's total time is divided by
    /// this before summarizing).
    pub iters: u64,
    /// Number of repetitions the summary statistics cover.
    pub reps: u32,
    /// Fastest repetition, in ns per operation.
    pub min_ns: f64,
    /// Median repetition, in ns per operation.
    pub median_ns: f64,
    /// Mean over all repetitions, in ns per operation.
    pub mean_ns: f64,
}

impl BenchEntry {
    /// Reads one entry whose `id` the caller has already read.
    fn from_json(id: &str, e: &Json) -> Result<BenchEntry, String> {
        let iters = e.count_at("iters")?;
        if iters == 0 {
            return Err("\"iters\" must be positive".to_string());
        }
        let reps = e.count_at("reps")?;
        if reps == 0 {
            return Err("\"reps\" must be positive".to_string());
        }
        let timing = |key: &str| -> Result<f64, String> {
            let x = e.num_at(key)?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!("field {key:?} is not a finite non-negative number"));
            }
            Ok(x)
        };
        let (min_ns, median_ns, mean_ns) =
            (timing("min_ns")?, timing("median_ns")?, timing("mean_ns")?);
        if min_ns > median_ns || min_ns > mean_ns {
            return Err("\"min_ns\" exceeds the median or mean".to_string());
        }
        Ok(BenchEntry {
            id: id.to_string(),
            iters,
            reps,
            min_ns,
            median_ns,
            mean_ns,
        })
    }
}

/// One suite's timing results — see the [module docs](self) for why
/// this is a separate schema from reports.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchDoc {
    /// Suite name, e.g. `bigfloat` or `oracle`.
    pub suite: String,
    /// The scale the suite ran at, in [`Scale::as_str`] spelling
    /// (`quick` / `default` / `full`).
    pub scale: String,
    /// Worker threads the run used (oracle passes are parallel).
    pub threads: usize,
    /// Wall-clock timestamp of the run, milliseconds since the Unix
    /// epoch. Deliberately present: bench documents are *supposed* to
    /// differ run to run, and the stamp makes that impossible to miss.
    pub unix_ms: u64,
    /// The timed operations, in suite order.
    pub entries: Vec<BenchEntry>,
}

impl BenchDoc {
    /// Serializes the document (schema `compstat-bench/v1`).
    ///
    /// Layout:
    ///
    /// ```json
    /// {
    ///   "schema": "compstat-bench/v1",
    ///   "non_deterministic": true,
    ///   "suite": "bigfloat",
    ///   "scale": "quick",
    ///   "threads": 4,
    ///   "unix_ms": 1765000000000,
    ///   "entries": [
    ///     {"id": "bigfloat/div/256", "iters": 1000, "reps": 7,
    ///      "min_ns": 310.5, "median_ns": 318.2, "mean_ns": 322.9}
    ///   ]
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> Json {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("id", Json::str(e.id.as_str())),
                    ("iters", Json::Num(e.iters as f64)),
                    ("reps", Json::Num(f64::from(e.reps))),
                    ("min_ns", Json::Num(e.min_ns)),
                    ("median_ns", Json::Num(e.median_ns)),
                    ("mean_ns", Json::Num(e.mean_ns)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str(BENCH_SCHEMA)),
            ("non_deterministic", Json::Bool(true)),
            ("suite", Json::str(self.suite.as_str())),
            ("scale", Json::str(self.scale.as_str())),
            ("threads", Json::Num(self.threads as f64)),
            ("unix_ms", Json::Num(self.unix_ms as f64)),
            ("entries", Json::Arr(entries)),
        ])
    }

    /// The JSON document as a string, newline-terminated (the exact
    /// bytes `compstat bench --out` writes to disk).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_json_string();
        s.push('\n');
        s
    }

    /// Parses and validates a bench document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first problem: wrong schema,
    /// missing field, wrong type, an unknown scale, a non-finite or
    /// negative timing, a duplicate entry id (rows are keyed by id), or
    /// a missing `"non_deterministic": true` marker.
    pub fn from_json(v: &Json) -> Result<BenchDoc, String> {
        let schema = v.str_at("schema")?;
        if schema != BENCH_SCHEMA {
            return Err(format!("schema {schema:?} is not {BENCH_SCHEMA:?}"));
        }
        if v.get("non_deterministic") != Some(&Json::Bool(true)) {
            return Err("bench documents must declare \"non_deterministic\": true".to_string());
        }
        let suite = v.str_at("suite")?.to_string();
        let scale = v.str_at("scale")?.to_string();
        if Scale::parse(&scale).is_none() {
            return Err(format!("unknown scale {scale:?}"));
        }
        let threads = v.count_at("threads")?;
        let unix_ms = v.count_at("unix_ms")?;
        let mut entries: Vec<BenchEntry> = Vec::new();
        for (i, e) in v.arr_at("entries")?.iter().enumerate() {
            let id = e.str_at("id").map_err(|m| format!("entry {i}: {m}"))?;
            if entries.iter().any(|prev| prev.id == id) {
                return Err(format!("entry {i}: duplicate id {id:?}"));
            }
            entries.push(
                BenchEntry::from_json(id, e).map_err(|m| format!("entry {i} ({id:?}): {m}"))?,
            );
        }
        Ok(BenchDoc {
            suite,
            scale,
            threads,
            unix_ms,
            entries,
        })
    }

    /// Renders the human-readable summary table the CLI prints.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "bench suite {:?} at scale {:?} ({} thread(s)) -- wall-clock, non-deterministic\n",
            self.suite, self.scale, self.threads
        );
        let mut t = Table::new(vec![
            "id".into(),
            "min ns/op".into(),
            "median ns/op".into(),
            "mean ns/op".into(),
            "iters x reps".into(),
        ]);
        for e in &self.entries {
            t.row(vec![
                e.id.clone(),
                fmt_ns(e.min_ns),
                fmt_ns(e.median_ns),
                fmt_ns(e.mean_ns),
                format!("{} x {}", e.iters, e.reps),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}

/// Formats a nanosecond figure with precision that scales with
/// magnitude (sub-microsecond timings keep a decimal; big ones don't).
fn fmt_ns(x: f64) -> String {
    if x < 1000.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchDoc {
        BenchDoc {
            suite: "bigfloat".into(),
            scale: "quick".into(),
            threads: 4,
            unix_ms: 1_765_000_000_000,
            entries: vec![
                BenchEntry {
                    id: "bigfloat/add/128".into(),
                    iters: 10_000,
                    reps: 7,
                    min_ns: 41.2,
                    median_ns: 43.0,
                    mean_ns: 44.5,
                },
                BenchEntry {
                    id: "bigfloat/div/256".into(),
                    iters: 1_000,
                    reps: 7,
                    min_ns: 310.5,
                    median_ns: 318.2,
                    mean_ns: 322.9,
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let doc = sample();
        let s = doc.to_json_string();
        assert!(s.ends_with('\n'));
        let v = Json::parse(&s).expect("bench JSON parses");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        assert_eq!(v.get("non_deterministic"), Some(&Json::Bool(true)));
        let back = BenchDoc::from_json(&v).expect("validates");
        assert_eq!(back, doc);
    }

    #[test]
    fn render_text_lists_every_entry() {
        let text = sample().render_text();
        assert!(text.contains("non-deterministic"), "{text}");
        assert!(text.contains("bigfloat/add/128"), "{text}");
        assert!(text.contains("bigfloat/div/256"), "{text}");
        assert!(text.contains("10000 x 7"), "{text}");
    }

    #[test]
    fn validation_rejects_broken_documents() {
        type Fields = Vec<(String, Json)>;
        let good = sample().to_json();
        let mutate = |f: &dyn Fn(&mut Fields)| {
            let Json::Obj(mut pairs) = good.clone() else {
                unreachable!()
            };
            f(&mut pairs);
            Json::Obj(pairs)
        };
        let set = |key: &str, val: Json| {
            mutate(&|pairs: &mut Fields| {
                if let Some(p) = pairs.iter_mut().find(|(k, _)| k == key) {
                    p.1 = val.clone();
                }
            })
        };
        let drop_key = |key: &str| mutate(&|pairs: &mut Fields| pairs.retain(|(k, _)| k != key));

        for (label, bad) in [
            (
                "wrong schema",
                set("schema", Json::str("compstat-report/v1")),
            ),
            ("missing marker", drop_key("non_deterministic")),
            ("marker false", set("non_deterministic", Json::Bool(false))),
            ("missing suite", drop_key("suite")),
            ("unknown scale", set("scale", Json::str("warp"))),
            ("fractional threads", set("threads", Json::Num(1.5))),
            ("negative timestamp", set("unix_ms", Json::Num(-1.0))),
            ("entries not array", set("entries", Json::Null)),
        ] {
            assert!(BenchDoc::from_json(&bad).is_err(), "accepted: {label}");
        }

        // Entry-level problems.
        let mut doc = sample();
        doc.entries[1].min_ns = 999.0; // min above median
        assert!(BenchDoc::from_json(&doc.to_json()).is_err());
        let mut doc = sample();
        doc.entries[0].iters = 0;
        assert!(BenchDoc::from_json(&doc.to_json()).is_err());
        let mut doc = sample();
        doc.entries[0].mean_ns = f64::INFINITY; // serializes as null
        assert!(BenchDoc::from_json(&doc.to_json()).is_err());
        let mut doc = sample();
        doc.entries[1].id = doc.entries[0].id.clone();
        assert!(BenchDoc::from_json(&doc.to_json()).is_err());
    }

    #[test]
    fn error_messages_name_the_entry() {
        let mut doc = sample();
        doc.entries[1].reps = 0;
        let err = BenchDoc::from_json(&doc.to_json()).unwrap_err();
        assert!(err.contains("bigfloat/div/256"), "{err}");
    }
}
