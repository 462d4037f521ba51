//! The structured report model of the experiment engine.
//!
//! Every experiment produces a [`Report`]: an ordered sequence of
//! [`Block`]s (aligned text [`Table`]s and verbatim text) plus named
//! parameters and scalar metrics. One report renders two ways:
//!
//! * [`Report::render_text`] — the human-readable figure/table text
//!   `compstat run` prints without `--out` (byte-compatible with the
//!   pre-engine report strings, which the golden tests in
//!   `tests/paper_claims.rs` pin);
//! * [`Report::to_json`] — a machine-readable document written by the
//!   hand-rolled [`crate::json`] writer (schema
//!   `compstat-report/v1`), emitted by `compstat run --out`.
//!
//! [`Report::from_json`] reads that document back into the same type,
//! so `diff` and `validate` work on exactly what `run` wrote, and
//! `to_json_string` of a read-back report reproduces its bytes.
//!
//! Reports contain only deterministic data — no timestamps, thread
//! counts, or wall-clock measurements — so the emitted JSON is
//! byte-identical for every `COMPSTAT_THREADS` setting.

use crate::diff::DiffError;
use crate::json::Json;
use crate::scale::Scale;
use core::fmt::Write as _;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use compstat_core::report::Table;
///
/// let mut t = Table::new(vec!["Format".into(), "LUT".into()]);
/// t.row(vec!["binary64 add".into(), "679".into()]);
/// let s = t.render();
/// assert!(s.contains("binary64 add"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Table {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// The column headers.
    #[must_use]
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders with single-space-padded column alignment.
    #[must_use]
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate().take(ncols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:width$}", c, width = widths[i]);
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// One content block of a [`Report`].
#[derive(Clone, Debug)]
pub enum Block {
    /// Verbatim text, rendered exactly as stored (the block carries its
    /// own newlines — rendering adds no glue between blocks).
    Text(String),
    /// An aligned table, rendered via [`Table::render`].
    Table(Table),
}

/// The structured result of one experiment run.
///
/// See the [module docs](self) for the dual text/JSON rendering and the
/// determinism contract.
#[derive(Clone, Debug)]
pub struct Report {
    /// Registry name of the experiment (e.g. `fig09`).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// The scale this run used.
    pub scale: Scale,
    /// Named run parameters (sample counts, sequence lengths, seeds),
    /// in insertion order.
    pub params: Vec<(String, String)>,
    /// Named scalar metrics (headline numbers), in insertion order.
    /// Metrics appear only in the JSON rendering.
    pub metrics: Vec<(String, f64)>,
    /// The report body, in order.
    pub blocks: Vec<Block>,
}

/// The schema identifier stamped into every report document.
pub const REPORT_SCHEMA: &str = "compstat-report/v1";

/// The schema identifier of the `index.json` summary `compstat run
/// --out` writes next to the reports (consumed by
/// [`crate::diff::load_report_dir`] and `compstat validate`).
pub const INDEX_SCHEMA: &str = "compstat-index/v1";

impl Report {
    /// Starts an empty report.
    #[must_use]
    pub fn new(name: impl Into<String>, title: impl Into<String>, scale: Scale) -> Report {
        Report {
            name: name.into(),
            title: title.into(),
            scale,
            params: Vec::new(),
            metrics: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Records a named parameter (builder style).
    ///
    /// # Panics
    ///
    /// Panics on a repeated key: the strict JSON parser (which every
    /// emitted report must survive — `validate`, `diff`, the golden
    /// gate) rejects duplicate object keys, so the writer refuses to
    /// produce them.
    #[must_use]
    pub fn param(mut self, key: impl Into<String>, value: impl ToString) -> Report {
        let key = key.into();
        assert!(
            !self.params.iter().any(|(k, _)| *k == key),
            "duplicate param key {key:?} in report {:?}",
            self.name
        );
        self.params.push((key, value.to_string()));
        self
    }

    /// Records a named scalar metric.
    ///
    /// # Panics
    ///
    /// Panics on a repeated key (see [`Report::param`]).
    pub fn metric(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        assert!(
            !self.metrics.iter().any(|(k, _)| *k == key),
            "duplicate metric key {key:?} in report {:?}",
            self.name
        );
        self.metrics.push((key, value));
    }

    /// Appends a verbatim text block.
    pub fn text(&mut self, s: impl Into<String>) {
        self.blocks.push(Block::Text(s.into()));
    }

    /// Appends a table block.
    pub fn table(&mut self, t: Table) {
        self.blocks.push(Block::Table(t));
    }

    /// Renders the human-readable body: the concatenation of every
    /// block (tables via [`Table::render`], text verbatim).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for block in &self.blocks {
            match block {
                Block::Text(s) => out.push_str(s),
                Block::Table(t) => out.push_str(&t.render()),
            }
        }
        out
    }

    /// Serializes the report as a compact JSON document.
    ///
    /// Layout (schema `compstat-report/v1`):
    ///
    /// ```json
    /// {
    ///   "schema": "compstat-report/v1",
    ///   "experiment": "fig09",
    ///   "title": "...",
    ///   "scale": "quick",
    ///   "params": {"columns": "40"},
    ///   "metrics": {"binary64_underflows": 5},
    ///   "blocks": [
    ///     {"kind": "table", "headers": ["..."], "rows": [["..."]]},
    ///     {"kind": "text", "text": "..."}
    ///   ]
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> Json {
        let params = self
            .params
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v.clone())))
            .collect();
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect();
        let blocks = self
            .blocks
            .iter()
            .map(|b| match b {
                Block::Text(s) => Json::obj(vec![
                    ("kind", Json::str("text")),
                    ("text", Json::str(s.clone())),
                ]),
                Block::Table(t) => Json::obj(vec![
                    ("kind", Json::str("table")),
                    (
                        "headers",
                        Json::Arr(t.headers().iter().map(|h| Json::str(h.as_str())).collect()),
                    ),
                    (
                        "rows",
                        Json::Arr(
                            t.rows()
                                .iter()
                                .map(|r| {
                                    Json::Arr(r.iter().map(|c| Json::str(c.as_str())).collect())
                                })
                                .collect(),
                        ),
                    ),
                ]),
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str(REPORT_SCHEMA)),
            ("experiment", Json::str(self.name.as_str())),
            ("title", Json::str(self.title.as_str())),
            ("scale", Json::str(self.scale.as_str())),
            ("params", Json::Obj(params)),
            ("metrics", Json::Obj(metrics)),
            ("blocks", Json::Arr(blocks)),
        ])
    }

    /// The JSON document as a string, newline-terminated (the exact
    /// bytes `compstat run --out` writes to disk).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_json_string();
        s.push('\n');
        s
    }

    /// Parses a report document from its JSON text
    /// ([`Report::from_json`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DiffError`] if the text is not valid JSON or not a
    /// valid `compstat-report/v1` document.
    pub fn parse(text: &str) -> Result<Report, DiffError> {
        let doc = Json::parse(text).map_err(|e| DiffError::new(e.to_string()))?;
        Report::from_json(&doc)
    }

    /// Reads a `compstat-report/v1` document back into a report — the
    /// inverse of [`Report::to_json`]. Non-finite metrics, which the
    /// writer spells `null`, read back as NaN. Two shapes the writer
    /// never produces are refused: a table row whose width differs
    /// from its headers, and a scale other than `quick`, `default` or
    /// `full`.
    ///
    /// # Errors
    ///
    /// Returns a [`DiffError`] naming the first missing, mistyped or
    /// malformed field.
    pub fn from_json(doc: &Json) -> Result<Report, DiffError> {
        let schema = doc.str_at("schema")?;
        if schema != REPORT_SCHEMA {
            return Err(DiffError::new(format!(
                "expected schema {REPORT_SCHEMA:?}, found {schema:?}"
            )));
        }
        let scale = doc.str_at("scale")?;
        let scale = [Scale::Quick, Scale::Default, Scale::Full]
            .into_iter()
            .find(|s| s.as_str() == scale)
            .ok_or_else(|| {
                DiffError::new(format!(
                    "unknown scale {scale:?} (want quick, default or full)"
                ))
            })?;
        let params = doc
            .obj_at("params")?
            .iter()
            .map(|(k, v)| match v.as_str() {
                Some(s) => Ok((k.clone(), s.to_string())),
                None => Err(DiffError::new(format!("param {k:?} is not a string"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = doc
            .obj_at("metrics")?
            .iter()
            .map(|(k, v)| match v {
                Json::Num(x) => Ok((k.clone(), *x)),
                Json::Null => Ok((k.clone(), f64::NAN)),
                _ => Err(DiffError::new(format!("metric {k:?} is not a number"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let blocks = doc
            .arr_at("blocks")?
            .iter()
            .enumerate()
            .map(|(i, b)| {
                Block::from_json(b).map_err(|m| DiffError::new(format!("block [{i}]: {m}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Report {
            name: doc.str_at("experiment")?.to_string(),
            title: doc.str_at("title")?.to_string(),
            scale,
            params,
            metrics,
            blocks,
        })
    }
}

impl Block {
    /// Reads one block of a report document.
    fn from_json(b: &Json) -> Result<Block, String> {
        let strings = |what: &str, v: &[Json]| -> Result<Vec<String>, String> {
            v.iter()
                .map(|c| {
                    c.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{what} cell is not a string"))
                })
                .collect()
        };
        match b.str_at("kind")? {
            "text" => Ok(Block::Text(b.str_at("text")?.to_string())),
            "table" => {
                let headers = strings("headers", b.arr_at("headers")?)?;
                let rows = b
                    .arr_at("rows")?
                    .iter()
                    .enumerate()
                    .map(|(r, row)| {
                        let cells = row
                            .as_arr()
                            .ok_or_else(|| format!("row {r} is not an array"))?;
                        let cells = strings("row", cells)?;
                        if cells.len() != headers.len() {
                            return Err(format!(
                                "row {r} has {} cell(s) but the table has {} header(s)",
                                cells.len(),
                                headers.len()
                            ));
                        }
                        Ok(cells)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Block::Table(Table { headers, rows }))
            }
            other => Err(format!("unknown block kind {other:?}")),
        }
    }
}

/// Formats a float for table cells: fixed decimals, `-` for NaN.
#[must_use]
pub fn fmt_f64(x: f64, decimals: usize) -> String {
    if x.is_nan() {
        "-".to_string()
    } else if x == f64::NEG_INFINITY {
        "-inf".to_string()
    } else if x == f64::INFINITY {
        "inf".to_string()
    } else {
        format!("{x:.decimals$}")
    }
}

/// Formats a percentage change `new` vs `base` (positive = improvement
/// when lower-is-better), e.g. the "Reduction" rows of Tables III/IV.
#[must_use]
pub fn fmt_reduction(base: f64, new: f64) -> String {
    if base == 0.0 {
        return "-".to_string();
    }
    format!("{:.2}%", (base - new) / base * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["A".into(), "Value".into()]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("A"));
        assert!(lines[1].starts_with("---"));
        // The "Value" column starts at the same offset in all rows.
        let col = lines[0].find("Value").unwrap();
        assert_eq!(&lines[2][col..col + 1], "1");
        assert_eq!(&lines[3][col..col + 2], "22");
    }

    #[test]
    fn row_padding() {
        let mut t = Table::new(vec!["A".into(), "B".into(), "C".into()]);
        t.row(vec!["only-one".into()]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(f64::NAN, 2), "-");
        assert_eq!(fmt_f64(f64::NEG_INFINITY, 2), "-inf");
        assert_eq!(fmt_reduction(100.0, 40.0), "60.00%");
        assert_eq!(fmt_reduction(0.0, 40.0), "-");
    }

    fn sample_report() -> Report {
        let mut r = Report::new("demo", "Demo experiment", Scale::Quick).param("samples", 12usize);
        r.metric("median", 5.82);
        let mut t = Table::new(vec!["k".into(), "v".into()]);
        t.row(vec!["a".into(), "1".into()]);
        r.table(t);
        r.text("\nnote line\n");
        r
    }

    #[test]
    fn report_text_is_block_concatenation() {
        let r = sample_report();
        let text = r.render_text();
        assert!(text.starts_with("k  v\n"), "{text}");
        assert!(text.ends_with("\nnote line\n"), "{text}");
    }

    #[test]
    #[should_panic(expected = "duplicate param key")]
    fn duplicate_param_keys_are_refused_at_build_time() {
        // The strict parser rejects duplicate object keys, so the
        // writer must never produce them.
        let _ = Report::new("demo", "Demo", Scale::Quick)
            .param("samples", 1usize)
            .param("samples", 2usize);
    }

    #[test]
    #[should_panic(expected = "duplicate metric key")]
    fn duplicate_metric_keys_are_refused_at_build_time() {
        let mut r = Report::new("demo", "Demo", Scale::Quick);
        r.metric("median", 1.0);
        r.metric("median", 2.0);
    }

    #[test]
    fn report_json_parses_and_carries_every_field() {
        let r = sample_report();
        let s = r.to_json_string();
        assert!(s.ends_with('\n'));
        let v = crate::json::Json::parse(&s).expect("report JSON parses");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(REPORT_SCHEMA));
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("demo"));
        assert_eq!(v.get("scale").unwrap().as_str(), Some("quick"));
        assert_eq!(
            v.get("params").unwrap().get("samples").unwrap().as_str(),
            Some("12")
        );
        assert_eq!(
            v.get("metrics").unwrap().get("median").unwrap().as_f64(),
            Some(5.82)
        );
        let blocks = v.get("blocks").unwrap().as_arr().unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].get("kind").unwrap().as_str(), Some("table"));
        assert_eq!(blocks[1].get("kind").unwrap().as_str(), Some("text"));
    }
}
