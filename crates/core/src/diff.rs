//! Tolerance-aware diffing of experiment reports — the accuracy
//! regression gate.
//!
//! The paper's deliverable is a grid of accuracy/cost numbers, so any
//! change to the number-system kernels must either leave every report
//! cell bit-identical or show up as an explicit, reviewed delta. This
//! module turns that policy into a tool:
//!
//! * [`ParsedReport`] — the owned, parsed form of a report document
//!   (what [`crate::report::Report::to_json`] emits and
//!   `compstat run --out` writes to disk);
//! * [`Tolerance`] / [`TolerancePolicy`] — how much drift a metric,
//!   param, or table column may show before it counts as a violation
//!   (`exact` by default; per-key overrides like `rel=1e-12`, loadable
//!   from a `tolerances.json` file);
//! * [`diff_reports`] / [`diff_sets`] / [`diff_dirs`] — param-by-param,
//!   metric-by-metric, table-cell-by-table-cell comparison producing a
//!   structured [`DiffReport`] with old/new values, absolute and
//!   relative deltas, and a per-change classification;
//! * [`load_report_dir`] — loads every report a `compstat run --out`
//!   directory lists, through the one index parser in
//!   [`crate::merge`], which owns the directory layout.
//!
//! The CLI's `compstat diff a/ b/` maps [`DiffStatus`] onto exit codes
//! 0 (clean) / 1 (within tolerance) / 2 (violations).

use crate::json::Json;
use crate::merge::load_index;
use crate::report::{Report, REPORT_SCHEMA};
use core::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema identifier of the JSON document [`DiffReport::to_json`]
/// emits (`compstat diff --json`).
pub const DIFF_SCHEMA: &str = "compstat-diff/v1";

/// Schema identifier of a tolerance-policy file
/// ([`TolerancePolicy::parse`]).
pub const TOLERANCES_SCHEMA: &str = "compstat-tolerances/v1";

/// A failure while loading, interpreting or merging report documents
/// and report directories.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffError {
    /// The file involved, when the failure is tied to one.
    pub path: Option<PathBuf>,
    /// What went wrong.
    pub message: String,
}

impl DiffError {
    pub(crate) fn new(message: impl Into<String>) -> DiffError {
        DiffError {
            path: None,
            message: message.into(),
        }
    }

    pub(crate) fn at(path: &Path, message: impl Into<String>) -> DiffError {
        DiffError {
            path: Some(path.to_path_buf()),
            message: message.into(),
        }
    }
}

impl core::fmt::Display for DiffError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.path {
            Some(p) => write!(f, "{}: {}", p.display(), self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for DiffError {}

// ---------------------------------------------------------------------
// Parsed report model
// ---------------------------------------------------------------------

/// One parsed content block of a [`ParsedReport`].
#[derive(Clone, Debug, PartialEq)]
pub enum ParsedBlock {
    /// A verbatim text block.
    Text(String),
    /// An aligned table: headers plus rows of string cells.
    Table {
        /// Column headers.
        headers: Vec<String>,
        /// Data rows (each as long as `headers`).
        rows: Vec<Vec<String>>,
    },
}

impl ParsedBlock {
    /// Short kind name (`text` / `table`), as stored in the JSON.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ParsedBlock::Text(_) => "text",
            ParsedBlock::Table { .. } => "table",
        }
    }
}

/// The owned, parsed form of a report document — what
/// [`Report::to_json`] emits, read back for diffing.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedReport {
    /// Registry name of the experiment (e.g. `fig09`).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// Canonical scale name (`quick` / `default` / `full`).
    pub scale: String,
    /// Named run parameters, in document order.
    pub params: Vec<(String, String)>,
    /// Named scalar metrics, in document order.
    pub metrics: Vec<(String, f64)>,
    /// The report body, in order.
    pub blocks: Vec<ParsedBlock>,
}

fn str_field(doc: &Json, key: &str) -> Result<String, DiffError> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| DiffError::new(format!("report missing string field {key:?}")))
}

impl ParsedReport {
    /// Parses a report document from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`DiffError`] if the text is not valid JSON or not a
    /// `compstat-report/v1` document.
    pub fn parse(text: &str) -> Result<ParsedReport, DiffError> {
        let doc = Json::parse(text).map_err(|e| DiffError::new(e.to_string()))?;
        ParsedReport::from_json(&doc)
    }

    /// Interprets an already-parsed JSON value as a report document.
    ///
    /// # Errors
    ///
    /// Returns a [`DiffError`] naming the first missing or mistyped
    /// field.
    pub fn from_json(doc: &Json) -> Result<ParsedReport, DiffError> {
        let schema = str_field(doc, "schema")?;
        if schema != REPORT_SCHEMA {
            return Err(DiffError::new(format!(
                "expected schema {REPORT_SCHEMA:?}, found {schema:?}"
            )));
        }
        let pairs = |key: &str| -> Result<&[(String, Json)], DiffError> {
            match doc.get(key) {
                Some(Json::Obj(pairs)) => Ok(pairs),
                _ => Err(DiffError::new(format!("report missing {key:?} object"))),
            }
        };
        let params = pairs("params")?
            .iter()
            .map(|(k, v)| match v.as_str() {
                Some(s) => Ok((k.clone(), s.to_string())),
                None => Err(DiffError::new(format!("param {k:?} is not a string"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = pairs("metrics")?
            .iter()
            .map(|(k, v)| match v {
                Json::Num(x) => Ok((k.clone(), *x)),
                // Non-finite metrics serialize as null; read them back
                // as NaN so the document still loads.
                Json::Null => Ok((k.clone(), f64::NAN)),
                _ => Err(DiffError::new(format!("metric {k:?} is not a number"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let blocks = doc
            .get("blocks")
            .and_then(Json::as_arr)
            .ok_or_else(|| DiffError::new("report missing \"blocks\" array"))?
            .iter()
            .enumerate()
            .map(|(i, b)| parse_block(i, b))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ParsedReport {
            name: str_field(doc, "experiment")?,
            title: str_field(doc, "title")?,
            scale: str_field(doc, "scale")?,
            params,
            metrics,
            blocks,
        })
    }

    /// The parsed form of an in-memory [`Report`], canonicalized
    /// through its JSON serialization (so diffing an in-memory run
    /// against a loaded file compares exactly what the file holds).
    #[must_use]
    pub fn of(report: &Report) -> ParsedReport {
        ParsedReport::parse(&report.to_json_string()).expect("emitted report JSON always parses")
    }
}

fn parse_block(index: usize, b: &Json) -> Result<ParsedBlock, DiffError> {
    let bad = |msg: &str| DiffError::new(format!("block [{index}]: {msg}"));
    let kind = b
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing kind"))?;
    match kind {
        "text" => Ok(ParsedBlock::Text(
            b.get("text")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("text block missing text"))?
                .to_string(),
        )),
        "table" => {
            let strings = |key: &str, v: &Json| -> Result<Vec<String>, DiffError> {
                v.as_arr()
                    .ok_or_else(|| bad(&format!("{key} is not an array")))?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| bad(&format!("{key} cell is not a string")))
                    })
                    .collect()
            };
            let headers = strings(
                "headers",
                b.get("headers")
                    .ok_or_else(|| bad("table missing headers"))?,
            )?;
            let rows = b
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("table missing rows"))?
                .iter()
                .map(|r| strings("row", r))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ParsedBlock::Table { headers, rows })
        }
        other => Err(bad(&format!("unknown block kind {other:?}"))),
    }
}

// ---------------------------------------------------------------------
// Tolerance policy
// ---------------------------------------------------------------------

/// How much drift one compared value may show.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tolerance {
    /// Byte-identical values only (the default).
    Exact,
    /// Numeric values whose absolute difference is at most the bound
    /// (inclusive). Non-numeric changes always violate.
    Abs(f64),
    /// Numeric values whose relative difference `|new-old| / |old|` is
    /// at most the bound (inclusive). Non-numeric changes always
    /// violate.
    Rel(f64),
    /// Any change is accepted (use sparingly, e.g. for prose text
    /// blocks that restate toleranced numbers).
    Any,
}

impl Tolerance {
    /// Parses the spelling used in tolerance files: `exact`, `any`,
    /// `abs=1e-9`, or `rel=1e-12`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Tolerance> {
        match s {
            "exact" => return Some(Tolerance::Exact),
            "any" => return Some(Tolerance::Any),
            _ => {}
        }
        let (kind, bound) = s.split_once('=')?;
        let bound: f64 = bound.parse().ok()?;
        if !bound.is_finite() || bound < 0.0 {
            return None;
        }
        match kind {
            "abs" => Some(Tolerance::Abs(bound)),
            "rel" => Some(Tolerance::Rel(bound)),
            _ => None,
        }
    }

    /// The canonical spelling ([`Tolerance::parse`]'s input format).
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Tolerance::Exact => "exact".to_string(),
            Tolerance::Any => "any".to_string(),
            Tolerance::Abs(b) => format!("abs={b}"),
            Tolerance::Rel(b) => format!("rel={b}"),
        }
    }

    /// Whether a change with the given numeric deltas is within this
    /// tolerance. `deltas` is `None` for non-numeric changes.
    fn admits(&self, deltas: Option<(f64, f64)>) -> bool {
        match (self, deltas) {
            (Tolerance::Any, _) => true,
            (Tolerance::Exact, _) => false, // equal values never reach here
            (Tolerance::Abs(bound), Some((abs, _))) => abs <= *bound,
            (Tolerance::Rel(bound), Some((_, rel))) => rel <= *bound,
            (Tolerance::Abs(_) | Tolerance::Rel(_), None) => false,
        }
    }
}

/// A tolerance lookup table: a default plus per-key overrides.
///
/// Lookup keys are metric names, param names, or table column headers;
/// an override may be scoped to one experiment as
/// `"<experiment>/<key>"` (scoped entries win over bare ones). Two key
/// names are reserved and shared with any same-named metric, param, or
/// column: `"text"` governs verbatim text blocks, `"title"` the report
/// title.
#[derive(Clone, Debug, PartialEq)]
pub struct TolerancePolicy {
    /// Applied when no override matches.
    pub default: Tolerance,
    /// `(key, tolerance)` overrides, in file order.
    pub overrides: Vec<(String, Tolerance)>,
}

impl Default for TolerancePolicy {
    fn default() -> TolerancePolicy {
        TolerancePolicy::exact()
    }
}

impl TolerancePolicy {
    /// The default policy: every value must be byte-identical.
    #[must_use]
    pub fn exact() -> TolerancePolicy {
        TolerancePolicy {
            default: Tolerance::Exact,
            overrides: Vec::new(),
        }
    }

    /// Adds (or replaces) an override, builder style.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, tol: Tolerance) -> TolerancePolicy {
        let key = key.into();
        self.overrides.retain(|(k, _)| *k != key);
        self.overrides.push((key, tol));
        self
    }

    /// Resolves the tolerance for one compared value:
    /// `"<experiment>/<key>"` override first, then bare `"<key>"`,
    /// then the default.
    #[must_use]
    pub fn lookup(&self, experiment: &str, key: &str) -> Tolerance {
        let scoped = format!("{experiment}/{key}");
        let find = |k: &str| {
            self.overrides
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, t)| *t)
        };
        find(&scoped).or_else(|| find(key)).unwrap_or(self.default)
    }

    /// Parses a `tolerances.json` document:
    ///
    /// ```json
    /// {
    ///   "schema": "compstat-tolerances/v1",
    ///   "default": "exact",
    ///   "overrides": {
    ///     "median_log10_rel": "rel=1e-12",
    ///     "fig09/binary64_underflows": "abs=0"
    ///   }
    /// }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`DiffError`] for malformed JSON, a wrong schema, or
    /// an unparsable tolerance spelling.
    pub fn parse(text: &str) -> Result<TolerancePolicy, DiffError> {
        let doc = Json::parse(text).map_err(|e| DiffError::new(e.to_string()))?;
        TolerancePolicy::from_json(&doc)
    }

    /// Interprets an already-parsed JSON value as a tolerance policy
    /// (the document format of [`TolerancePolicy::parse`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DiffError`] for a wrong schema or an unparsable
    /// tolerance spelling.
    pub fn from_json(doc: &Json) -> Result<TolerancePolicy, DiffError> {
        let schema = str_field(doc, "schema")?;
        if schema != TOLERANCES_SCHEMA {
            return Err(DiffError::new(format!(
                "expected schema {TOLERANCES_SCHEMA:?}, found {schema:?}"
            )));
        }
        let tol = |s: &str| {
            Tolerance::parse(s).ok_or_else(|| {
                DiffError::new(format!(
                    "bad tolerance {s:?} (want exact, any, abs=<bound>, or rel=<bound>)"
                ))
            })
        };
        let default = match doc.get("default") {
            Some(v) => tol(v
                .as_str()
                .ok_or_else(|| DiffError::new("tolerance \"default\" is not a string"))?)?,
            None => Tolerance::Exact,
        };
        let overrides = match doc.get("overrides") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    let s = v
                        .as_str()
                        .ok_or_else(|| DiffError::new(format!("override {k:?} is not a string")))?;
                    Ok((k.clone(), tol(s)?))
                })
                .collect::<Result<Vec<_>, DiffError>>()?,
            Some(_) => return Err(DiffError::new("\"overrides\" is not an object")),
            None => Vec::new(),
        };
        Ok(TolerancePolicy { default, overrides })
    }

    /// Loads a tolerance file from disk.
    ///
    /// # Errors
    ///
    /// Returns a [`DiffError`] naming the file for read or parse
    /// failures.
    pub fn load(path: &Path) -> Result<TolerancePolicy, DiffError> {
        let text = std::fs::read_to_string(path).map_err(|e| DiffError::at(path, e.to_string()))?;
        TolerancePolicy::parse(&text).map_err(|e| DiffError::at(path, e.message))
    }
}

// ---------------------------------------------------------------------
// The diff itself
// ---------------------------------------------------------------------

/// Classification of one change against its [`Tolerance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffClass {
    /// The change is admitted by the looked-up tolerance.
    WithinTolerance,
    /// The change exceeds the tolerance (or the values are not
    /// comparable under it).
    Violation,
}

impl DiffClass {
    /// The JSON/text spelling (`within-tolerance` / `violation`).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            DiffClass::WithinTolerance => "within-tolerance",
            DiffClass::Violation => "violation",
        }
    }
}

/// One changed value between two reports.
#[derive(Clone, Debug)]
pub struct Change {
    /// Name of the experiment the change is in.
    pub experiment: String,
    /// Exact location, e.g. `metric 'median'` or
    /// `table[2] row 3 ('binary64') col 'P'`.
    pub location: String,
    /// Tolerance lookup key that was used (metric/param/column name).
    pub key: String,
    /// Old (baseline) value, as written in the document.
    pub old: String,
    /// New value, as written in the document.
    pub new: String,
    /// `|new - old|`, when both values are numeric.
    pub abs: Option<f64>,
    /// `|new - old| / |old|`, when both values are numeric (infinite
    /// when the baseline is zero and the new value is not).
    pub rel: Option<f64>,
    /// The tolerance that classified this change.
    pub tolerance: Tolerance,
    /// Whether the tolerance admits the change.
    pub class: DiffClass,
}

/// Overall verdict of a diff, in increasing severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiffStatus {
    /// No differences at all.
    Clean,
    /// Differences exist, every one admitted by its tolerance.
    WithinTolerance,
    /// At least one violation (or experiments were added/removed).
    Violations,
}

impl DiffStatus {
    /// The JSON/text spelling.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            DiffStatus::Clean => "clean",
            DiffStatus::WithinTolerance => "within-tolerance",
            DiffStatus::Violations => "violations",
        }
    }

    /// The `compstat diff` exit code (0 / 1 / 2).
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            DiffStatus::Clean => 0,
            DiffStatus::WithinTolerance => 1,
            DiffStatus::Violations => 2,
        }
    }
}

/// The structured outcome of diffing two report sets.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Experiments present only in the new set.
    pub added: Vec<String>,
    /// Experiments present only in the baseline set.
    pub removed: Vec<String>,
    /// Experiments present in both and compared.
    pub compared: Vec<String>,
    /// Every changed value, in document order per experiment.
    pub changes: Vec<Change>,
}

impl DiffReport {
    /// The overall verdict. Added/removed experiments are structural
    /// violations.
    #[must_use]
    pub fn status(&self) -> DiffStatus {
        if !self.added.is_empty() || !self.removed.is_empty() {
            return DiffStatus::Violations;
        }
        match self
            .changes
            .iter()
            .map(|c| c.class)
            .max_by_key(|c| match c {
                DiffClass::WithinTolerance => 0,
                DiffClass::Violation => 1,
            }) {
            None => DiffStatus::Clean,
            Some(DiffClass::WithinTolerance) => DiffStatus::WithinTolerance,
            Some(DiffClass::Violation) => DiffStatus::Violations,
        }
    }

    /// Number of changes classified as violations.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.changes
            .iter()
            .filter(|c| c.class == DiffClass::Violation)
            .count()
    }

    /// Renders the human-readable summary (`compstat diff`'s default
    /// output).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "compared {} experiment(s); {} added, {} removed",
            self.compared.len(),
            self.added.len(),
            self.removed.len()
        );
        for name in &self.added {
            let _ = writeln!(out, "added:   {name} (only in the new set)");
        }
        for name in &self.removed {
            let _ = writeln!(out, "removed: {name} (only in the baseline set)");
        }
        for c in &self.changes {
            let deltas = match (c.abs, c.rel) {
                (Some(abs), Some(rel)) => format!(" (abs {abs:.3e}, rel {rel:.3e})"),
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "{}: {}: {} -> {}{} [{}; tolerance {}]",
                c.experiment,
                c.location,
                elide(&c.old),
                elide(&c.new),
                deltas,
                c.class.as_str(),
                c.tolerance.render()
            );
        }
        let within = self.changes.len() - self.violations();
        let _ = writeln!(
            out,
            "status: {} ({} change(s): {} within tolerance, {} violation(s))",
            self.status().as_str(),
            self.changes.len(),
            within,
            self.violations()
        );
        out
    }

    /// Serializes the diff as a `compstat-diff/v1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let names = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
        let changes = self
            .changes
            .iter()
            .map(|c| {
                // Non-numeric changes carry null; non-finite deltas
                // (e.g. rel against a zero baseline) must stay
                // distinguishable from them, and the JSON writer spells
                // every non-finite number as null — so emit those as
                // the strings "inf" / "nan" instead.
                let opt = |x: Option<f64>| match x {
                    None => Json::Null,
                    Some(v) if v.is_finite() => Json::Num(v),
                    Some(v) if v.is_nan() => Json::str("nan"),
                    Some(_) => Json::str("inf"),
                };
                Json::obj(vec![
                    ("experiment", Json::str(c.experiment.as_str())),
                    ("location", Json::str(c.location.as_str())),
                    ("key", Json::str(c.key.as_str())),
                    ("old", Json::str(c.old.as_str())),
                    ("new", Json::str(c.new.as_str())),
                    ("abs", opt(c.abs)),
                    ("rel", opt(c.rel)),
                    ("tolerance", Json::str(c.tolerance.render())),
                    ("class", Json::str(c.class.as_str())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str(DIFF_SCHEMA)),
            ("status", Json::str(self.status().as_str())),
            ("compared", Json::Num(self.compared.len() as f64)),
            ("added", names(&self.added)),
            ("removed", names(&self.removed)),
            ("violations", Json::Num(self.violations() as f64)),
            ("changes", Json::Arr(changes)),
        ])
    }

    /// The JSON document as a newline-terminated string.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_json_string();
        s.push('\n');
        s
    }
}

/// Truncates long values (e.g. whole text blocks) for one-line display.
fn elide(s: &str) -> String {
    let one_line = s.replace('\n', "\\n");
    if one_line.chars().count() <= 48 {
        one_line
    } else {
        let head: String = one_line.chars().take(45).collect();
        format!("{head}...")
    }
}

/// Parses a value as a number for delta computation. Accepts the table
/// cell spellings (`inf` / `-inf` parse; the NaN placeholder `-` does
/// not, and compares as text).
fn numeric(s: &str) -> Option<f64> {
    let t = s.trim();
    // `f64::from_str` accepts forms like "nan" and hex-ish strings are
    // already rejected by it; an empty string is not a number.
    if t.is_empty() {
        return None;
    }
    t.parse::<f64>().ok()
}

/// The canonical document spelling of a metric value (exactly the
/// bytes the JSON writer emits for it).
fn metric_repr(x: f64) -> String {
    Json::Num(x).to_json_string()
}

struct ChangeBuilder<'p> {
    experiment: String,
    policy: &'p TolerancePolicy,
    changes: Vec<Change>,
}

impl ChangeBuilder<'_> {
    /// Records a changed value pair, computing deltas and classifying
    /// against the looked-up tolerance. Call only when `old != new`.
    ///
    /// NaN/inf semantics (byte-different spellings only — byte-equal
    /// cells never reach here):
    ///
    /// * NaN vs NaN is *not a change*: both documents agree the value
    ///   is undefined, so differing spellings (`nan` vs `NaN`) stay
    ///   clean under every tolerance, `exact` included;
    /// * NaN vs number carries no deltas (`null` in the JSON), so it
    ///   violates `exact`/`abs`/`rel` and only `any` admits it;
    /// * numerically equal values (`inf` vs `inf`, `0` vs `0.0`) get
    ///   zero deltas rather than the NaN that naive `inf - inf`
    ///   arithmetic would produce — byte drift still violates `exact`,
    ///   but `abs`/`rel` correctly see no numeric movement;
    /// * an infinite baseline or an infinite difference yields an
    ///   infinite `rel` delta (never NaN), which violates every finite
    ///   bound.
    fn changed(&mut self, location: String, key: &str, old: String, new: String) {
        let tolerance = self.policy.lookup(&self.experiment, key);
        let nums = (numeric(&old), numeric(&new));
        if let (Some(a), Some(b)) = nums {
            if a.is_nan() && b.is_nan() {
                return;
            }
        }
        let deltas = match nums {
            (Some(a), Some(b)) if a.is_nan() || b.is_nan() => None,
            (Some(a), Some(b)) if a == b => Some((0.0, 0.0)),
            (Some(a), Some(b)) => {
                let abs = (b - a).abs();
                let rel = if a == 0.0 {
                    f64::INFINITY
                } else if a.is_infinite() || abs.is_infinite() {
                    // inf baselines / inf differences: the relative
                    // delta is unbounded, not NaN-poisoned.
                    f64::INFINITY
                } else {
                    abs / a.abs()
                };
                Some((abs, rel))
            }
            _ => None,
        };
        let class = if tolerance.admits(deltas) {
            DiffClass::WithinTolerance
        } else {
            DiffClass::Violation
        };
        self.changes.push(Change {
            experiment: self.experiment.clone(),
            location,
            key: key.to_string(),
            old,
            new,
            abs: deltas.map(|(a, _)| a),
            rel: deltas.map(|(_, r)| r),
            tolerance,
            class,
        });
    }

    /// Records a structural difference (shape mismatch): always a
    /// violation, no deltas.
    fn structural(&mut self, location: String, old: String, new: String) {
        self.changes.push(Change {
            experiment: self.experiment.clone(),
            location,
            key: "structure".to_string(),
            old,
            new,
            abs: None,
            rel: None,
            tolerance: Tolerance::Exact,
            class: DiffClass::Violation,
        });
    }
}

/// Diffs two parsed reports of the same experiment, value by value.
///
/// Params and metrics align by key (missing/extra keys are structural
/// violations); blocks align by position. Table cells compare
/// numerically when both sides parse as numbers, byte-exactly
/// otherwise. Returns every change, classified per `policy`.
#[must_use]
pub fn diff_reports(
    old: &ParsedReport,
    new: &ParsedReport,
    policy: &TolerancePolicy,
) -> Vec<Change> {
    let mut b = ChangeBuilder {
        experiment: old.name.clone(),
        policy,
        changes: Vec::new(),
    };
    if old.scale != new.scale {
        b.structural("scale".to_string(), old.scale.clone(), new.scale.clone());
    }
    if old.title != new.title {
        b.changed(
            "title".to_string(),
            "title",
            old.title.clone(),
            new.title.clone(),
        );
    }

    // Params and metrics: align by key, in baseline order.
    diff_keyed(&mut b, "param", &old.params, &new.params, |v| v.clone());
    diff_keyed(&mut b, "metric", &old.metrics, &new.metrics, |v| {
        metric_repr(*v)
    });

    // Blocks: positional. A count or kind mismatch is structural.
    if old.blocks.len() != new.blocks.len() {
        b.structural(
            "blocks".to_string(),
            format!("{} block(s)", old.blocks.len()),
            format!("{} block(s)", new.blocks.len()),
        );
    }
    for (i, (ob, nb)) in old.blocks.iter().zip(&new.blocks).enumerate() {
        match (ob, nb) {
            (ParsedBlock::Text(os), ParsedBlock::Text(ns)) => {
                if os != ns {
                    b.changed(format!("text block [{i}]"), "text", os.clone(), ns.clone());
                }
            }
            (
                ParsedBlock::Table {
                    headers: oh,
                    rows: or,
                },
                ParsedBlock::Table {
                    headers: nh,
                    rows: nr,
                },
            ) => diff_table(&mut b, i, (oh, or), (nh, nr)),
            _ => b.structural(
                format!("block [{i}]"),
                ob.kind().to_string(),
                nb.kind().to_string(),
            ),
        }
    }
    b.changes
}

/// Diffs two key-value lists aligned by key. `repr` renders a value as
/// its document spelling.
fn diff_keyed<V>(
    b: &mut ChangeBuilder<'_>,
    what: &str,
    old: &[(String, V)],
    new: &[(String, V)],
    repr: impl Fn(&V) -> String,
) {
    for (k, ov) in old {
        match new.iter().find(|(nk, _)| nk == k) {
            Some((_, nv)) => {
                let (o, n) = (repr(ov), repr(nv));
                if o != n {
                    b.changed(format!("{what} '{k}'"), k, o, n);
                }
            }
            None => b.structural(format!("{what} '{k}'"), repr(ov), "(missing)".to_string()),
        }
    }
    for (k, nv) in new {
        if !old.iter().any(|(ok, _)| ok == k) {
            b.structural(format!("{what} '{k}'"), "(missing)".to_string(), repr(nv));
        }
    }
}

/// Diffs two table blocks cell by cell. Header or row-count mismatches
/// are structural; otherwise each differing cell is one change keyed
/// by its column header, located by its row's first cell (the row
/// label).
fn diff_table(
    b: &mut ChangeBuilder<'_>,
    block: usize,
    (old_headers, old_rows): (&[String], &[Vec<String>]),
    (new_headers, new_rows): (&[String], &[Vec<String>]),
) {
    if old_headers != new_headers {
        b.structural(
            format!("table [{block}] headers"),
            old_headers.join(" | "),
            new_headers.join(" | "),
        );
        return;
    }
    if old_rows.len() != new_rows.len() {
        b.structural(
            format!("table [{block}] rows"),
            format!("{} row(s)", old_rows.len()),
            format!("{} row(s)", new_rows.len()),
        );
        return;
    }
    for (r, (orow, nrow)) in old_rows.iter().zip(new_rows).enumerate() {
        let label = orow.first().map(String::as_str).unwrap_or("");
        // Zipping unequal-width rows would silently compare only the
        // common prefix — a false negative the exact gate cannot
        // afford. (The writer pads rows to the header width, but
        // hand-edited documents may be ragged.)
        if orow.len() != nrow.len() {
            b.structural(
                format!("table [{block}] row {r} ('{label}')"),
                format!("{} cell(s)", orow.len()),
                format!("{} cell(s)", nrow.len()),
            );
            continue;
        }
        for (c, (ocell, ncell)) in orow.iter().zip(nrow).enumerate() {
            if ocell != ncell {
                let header = old_headers.get(c).map(String::as_str).unwrap_or("");
                b.changed(
                    format!("table [{block}] row {r} ('{label}') col '{header}'"),
                    header,
                    ocell.clone(),
                    ncell.clone(),
                );
            }
        }
    }
}

/// Diffs two report sets (e.g. a golden corpus vs a fresh run),
/// matching experiments by name.
///
/// A set holding two reports with the same experiment name is
/// pathological (only the first would be compared, letting a divergent
/// duplicate slip through unexamined), so every duplicate occurrence
/// is recorded as a structural violation.
#[must_use]
pub fn diff_sets(
    old: &[ParsedReport],
    new: &[ParsedReport],
    policy: &TolerancePolicy,
) -> DiffReport {
    let mut report = DiffReport::default();
    for (which, set) in [("baseline", old), ("new", new)] {
        // BTreeSet, not HashSet: this runs in the report-diff path,
        // where even container iteration order must be deterministic.
        let mut seen = std::collections::BTreeSet::new();
        for r in set {
            if !seen.insert(r.name.as_str()) {
                report.changes.push(Change {
                    experiment: r.name.clone(),
                    location: format!("{which} set"),
                    key: "structure".to_string(),
                    old: "one report per experiment".to_string(),
                    new: "duplicate report document".to_string(),
                    abs: None,
                    rel: None,
                    tolerance: Tolerance::Exact,
                    class: DiffClass::Violation,
                });
            }
        }
    }
    for o in old {
        match new.iter().find(|n| n.name == o.name) {
            Some(n) => {
                report.compared.push(o.name.clone());
                report.changes.extend(diff_reports(o, n, policy));
            }
            None => report.removed.push(o.name.clone()),
        }
    }
    for n in new {
        if !old.iter().any(|o| o.name == n.name) {
            report.added.push(n.name.clone());
        }
    }
    report
}

/// Loads every report listed in a `compstat run --out` directory's
/// `index.json` ([`load_index`]), in index order.
///
/// # Errors
///
/// Returns a [`DiffError`] naming the offending file when the index
/// fails to load, when a listed report is missing or malformed, or
/// when a report contradicts its index entry or repeats an experiment.
pub fn load_report_dir(dir: &Path) -> Result<Vec<ParsedReport>, DiffError> {
    let index = load_index(dir)?;
    let mut reports: Vec<ParsedReport> = Vec::with_capacity(index.entries.len());
    for entry in &index.entries {
        let path = dir.join(&entry.file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| DiffError::at(&path, format!("cannot read report: {e}")))?;
        let parsed = ParsedReport::parse(&text).map_err(|e| DiffError::at(&path, e.message))?;
        // A report document that contradicts its index entry, or a
        // second document for the same experiment, would let the
        // set-level differ silently skip data — refuse to load it.
        if parsed.name != entry.name {
            return Err(DiffError::at(
                &path,
                format!(
                    "report is for experiment {:?} but the index lists it as {:?}",
                    parsed.name, entry.name
                ),
            ));
        }
        if reports.iter().any(|r| r.name == parsed.name) {
            return Err(DiffError::at(
                &path,
                format!("duplicate report for experiment {:?}", parsed.name),
            ));
        }
        reports.push(parsed);
    }
    Ok(reports)
}

/// Diffs two `compstat run --out` directories: `old` is the baseline
/// (e.g. the golden corpus), `new` the candidate run.
///
/// # Errors
///
/// Returns a [`DiffError`] if either directory fails to load
/// ([`load_report_dir`]).
pub fn diff_dirs(
    old: &Path,
    new: &Path,
    policy: &TolerancePolicy,
) -> Result<DiffReport, DiffError> {
    let old_reports = load_report_dir(old)?;
    let new_reports = load_report_dir(new)?;
    Ok(diff_sets(&old_reports, &new_reports, policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{write_index, write_report, IndexEntry};
    use crate::report::Table;
    use crate::scale::Scale;

    fn sample_report() -> Report {
        let mut r = Report::new("demo", "Demo experiment", Scale::Quick)
            .param("samples", 12usize)
            .param("seed", 7usize);
        r.metric("median", 5.82);
        r.metric("spread", 0.25);
        let mut t = Table::new(vec!["Format".into(), "P".into(), "Note".into()]);
        t.row(vec!["binary64".into(), "0.125".into(), "ok".into()]);
        t.row(vec!["posit64".into(), "0.250".into(), "ok".into()]);
        r.table(t);
        r.text("closing note\n");
        r
    }

    fn parsed() -> ParsedReport {
        ParsedReport::of(&sample_report())
    }

    #[test]
    fn parses_back_every_field() {
        let p = parsed();
        assert_eq!(p.name, "demo");
        assert_eq!(p.scale, "quick");
        assert_eq!(
            p.params,
            vec![
                ("samples".to_string(), "12".to_string()),
                ("seed".to_string(), "7".to_string()),
            ]
        );
        assert_eq!(p.metrics[0], ("median".to_string(), 5.82));
        assert_eq!(p.blocks.len(), 2);
        match &p.blocks[0] {
            ParsedBlock::Table { headers, rows } => {
                assert_eq!(headers[1], "P");
                assert_eq!(rows[1][1], "0.250");
            }
            other => panic!("expected table, got {other:?}"),
        }
        assert_eq!(p.blocks[1], ParsedBlock::Text("closing note\n".into()));
    }

    #[test]
    fn from_json_rejects_non_report_documents() {
        for bad in [
            "{}",
            r#"{"schema":"mystery/v9"}"#,
            r#"{"schema":"compstat-report/v1","experiment":"x","title":"t","scale":"quick","params":{},"metrics":{"m":"oops"},"blocks":[]}"#,
            r#"{"schema":"compstat-report/v1","experiment":"x","title":"t","scale":"quick","params":{},"metrics":{},"blocks":[{"kind":"mystery"}]}"#,
        ] {
            assert!(ParsedReport::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn identical_reports_diff_clean() {
        let d = diff_sets(&[parsed()], &[parsed()], &TolerancePolicy::exact());
        assert!(d.changes.is_empty(), "{:?}", d.changes);
        assert_eq!(d.status(), DiffStatus::Clean);
        assert_eq!(d.status().exit_code(), 0);
        assert_eq!(d.compared, vec!["demo".to_string()]);
    }

    #[test]
    fn single_cell_perturbation_yields_exactly_one_change() {
        let old = parsed();
        let mut new = parsed();
        match &mut new.blocks[0] {
            ParsedBlock::Table { rows, .. } => rows[1][1] = "0.375".to_string(),
            _ => unreachable!(),
        }
        let changes = diff_reports(&old, &new, &TolerancePolicy::exact());
        assert_eq!(changes.len(), 1, "{changes:?}");
        let c = &changes[0];
        assert_eq!(c.experiment, "demo");
        assert_eq!(c.location, "table [0] row 1 ('posit64') col 'P'");
        assert_eq!(c.key, "P");
        assert_eq!(c.old, "0.250");
        assert_eq!(c.new, "0.375");
        assert_eq!(c.abs, Some(0.125));
        assert_eq!(c.rel, Some(0.5));
        assert_eq!(c.class, DiffClass::Violation);
    }

    #[test]
    fn metric_perturbation_names_the_metric_with_deltas() {
        let old = parsed();
        let mut new = parsed();
        new.metrics[0].1 = 5.82 * 1.5;
        let changes = diff_reports(&old, &new, &TolerancePolicy::exact());
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].location, "metric 'median'");
        assert_eq!(changes[0].old, "5.82");
        let rel = changes[0].rel.unwrap();
        assert!((rel - 0.5).abs() < 1e-12, "rel {rel}");
    }

    #[test]
    fn added_and_removed_experiments_are_detected() {
        let mut other = parsed();
        other.name = "demo2".to_string();
        let d = diff_sets(
            &[parsed()],
            &[parsed(), other.clone()],
            &TolerancePolicy::exact(),
        );
        assert_eq!(d.added, vec!["demo2".to_string()]);
        assert_eq!(d.status(), DiffStatus::Violations);

        let d = diff_sets(&[parsed(), other], &[parsed()], &TolerancePolicy::exact());
        assert_eq!(d.removed, vec!["demo2".to_string()]);
        assert_eq!(d.status(), DiffStatus::Violations);
        assert_eq!(d.status().exit_code(), 2);
    }

    #[test]
    fn rel_tolerance_boundary_is_inclusive() {
        // rel exactly at the threshold passes; just above fails.
        let old = parsed();
        let mut at = parsed();
        at.metrics[1].1 = 0.25 * 1.5; // rel = 0.5 exactly (binary-exact)
        let policy = TolerancePolicy::exact().with("spread", Tolerance::Rel(0.5));
        let changes = diff_reports(&old, &at, &policy);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].class, DiffClass::WithinTolerance);

        let mut above = parsed();
        above.metrics[1].1 = 0.25 * 1.5000001;
        let changes = diff_reports(&old, &above, &policy);
        assert_eq!(changes[0].class, DiffClass::Violation);

        // Within-tolerance changes produce status 1, not 0 or 2.
        let d = diff_sets(&[old], &[at], &policy);
        assert_eq!(d.status(), DiffStatus::WithinTolerance);
        assert_eq!(d.status().exit_code(), 1);
    }

    #[test]
    fn abs_tolerance_boundary_is_inclusive() {
        let old = parsed();
        let mut new = parsed();
        new.metrics[1].1 = 0.375; // abs = 0.125 exactly
        let policy = TolerancePolicy::exact().with("spread", Tolerance::Abs(0.125));
        assert_eq!(
            diff_reports(&old, &new, &policy)[0].class,
            DiffClass::WithinTolerance
        );
        let tighter = TolerancePolicy::exact().with("spread", Tolerance::Abs(0.1249));
        assert_eq!(
            diff_reports(&old, &new, &tighter)[0].class,
            DiffClass::Violation
        );
    }

    #[test]
    fn scoped_overrides_win_over_bare_ones() {
        let policy = TolerancePolicy::exact()
            .with("P", Tolerance::Rel(1.0))
            .with("demo/P", Tolerance::Exact);
        assert_eq!(policy.lookup("demo", "P"), Tolerance::Exact);
        assert_eq!(policy.lookup("other", "P"), Tolerance::Rel(1.0));
        assert_eq!(policy.lookup("other", "Q"), Tolerance::Exact);
    }

    #[test]
    fn non_numeric_changes_violate_numeric_tolerances() {
        let old = parsed();
        let mut new = parsed();
        match &mut new.blocks[0] {
            ParsedBlock::Table { rows, .. } => rows[0][2] = "subnormal".to_string(),
            _ => unreachable!(),
        }
        let policy = TolerancePolicy::exact().with("Note", Tolerance::Rel(1e9));
        let changes = diff_reports(&old, &new, &policy);
        assert_eq!(changes[0].class, DiffClass::Violation);
        // But "any" admits it.
        let policy = TolerancePolicy::exact().with("Note", Tolerance::Any);
        let changes = diff_reports(&old, &new, &policy);
        assert_eq!(changes[0].class, DiffClass::WithinTolerance);
    }

    #[test]
    fn structural_mismatches_are_violations() {
        let old = parsed();

        let mut new = parsed();
        new.params.remove(1);
        let changes = diff_reports(&old, &new, &TolerancePolicy::exact());
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].key, "structure");
        assert_eq!(changes[0].class, DiffClass::Violation);

        let mut new = parsed();
        new.blocks.pop();
        assert!(diff_reports(&old, &new, &TolerancePolicy::exact())
            .iter()
            .any(|c| c.location == "blocks"));

        let mut new = parsed();
        match &mut new.blocks[0] {
            ParsedBlock::Table { headers, .. } => headers[1] = "Q".to_string(),
            _ => unreachable!(),
        }
        let changes = diff_reports(&old, &new, &TolerancePolicy::exact());
        assert_eq!(changes.len(), 1);
        assert!(changes[0].location.contains("headers"));
    }

    #[test]
    fn duplicate_names_in_a_set_are_violations_not_skipped() {
        // Only the first of two same-named reports gets compared, so a
        // divergent duplicate must fail the gate, not slip through.
        let mut divergent = parsed();
        divergent.metrics[0].1 = 999.0;
        let d = diff_sets(
            &[parsed()],
            &[parsed(), divergent],
            &TolerancePolicy::exact(),
        );
        assert_eq!(d.status(), DiffStatus::Violations);
        let dup = d
            .changes
            .iter()
            .find(|c| c.location == "new set")
            .expect("duplicate flagged");
        assert_eq!(dup.experiment, "demo");
        assert_eq!(dup.class, DiffClass::Violation);
        // The baseline side is checked the same way.
        let d = diff_sets(
            &[parsed(), parsed()],
            &[parsed()],
            &TolerancePolicy::exact(),
        );
        assert!(d.changes.iter().any(|c| c.location == "baseline set"));
    }

    /// Diffs two single-cell tables holding `old` and `new` and returns
    /// the recorded changes.
    fn diff_cells(old: &str, new: &str, policy: &TolerancePolicy) -> Vec<Change> {
        let cell = |v: &str| {
            let mut r = Report::new("demo", "Demo", Scale::Quick);
            let mut t = Table::new(vec!["label".into(), "P".into()]);
            t.row(vec!["row0".into(), v.into()]);
            r.table(t);
            ParsedReport::of(&r)
        };
        diff_reports(&cell(old), &cell(new), policy)
    }

    #[test]
    fn nan_vs_nan_cells_are_clean_under_every_tolerance() {
        // Byte-equal NaN spellings never record a change, and
        // byte-*different* spellings of NaN agree the value is
        // undefined — clean under exact, abs, and rel alike.
        for policy in [
            TolerancePolicy::exact(),
            TolerancePolicy::exact().with("P", Tolerance::Abs(0.0)),
            TolerancePolicy::exact().with("P", Tolerance::Rel(1e-12)),
        ] {
            for (a, b) in [("nan", "nan"), ("nan", "NaN"), ("NaN", "nan")] {
                let changes = diff_cells(a, b, &policy);
                assert!(changes.is_empty(), "{a} vs {b}: {changes:?}");
            }
        }
    }

    #[test]
    fn nan_vs_number_cells_violate_numeric_tolerances() {
        for policy in [
            TolerancePolicy::exact(),
            TolerancePolicy::exact().with("P", Tolerance::Abs(1e9)),
            TolerancePolicy::exact().with("P", Tolerance::Rel(1e9)),
        ] {
            for (a, b) in [("nan", "0.5"), ("0.5", "nan"), ("-", "0.5"), ("nan", "inf")] {
                let changes = diff_cells(a, b, &policy);
                assert_eq!(changes.len(), 1, "{a} vs {b}");
                assert_eq!(changes[0].class, DiffClass::Violation, "{a} vs {b}");
                // No NaN-poisoned deltas: non-comparable pairs carry
                // none at all.
                assert_eq!(changes[0].abs, None, "{a} vs {b}");
                assert_eq!(changes[0].rel, None, "{a} vs {b}");
            }
        }
        // Only `any` admits replacing a NaN with a number.
        let any = TolerancePolicy::exact().with("P", Tolerance::Any);
        assert_eq!(
            diff_cells("nan", "0.5", &any)[0].class,
            DiffClass::WithinTolerance
        );
    }

    #[test]
    fn inf_pairings_yield_infinite_not_nan_deltas() {
        // Same infinity, different spelling: zero numeric movement —
        // abs/rel admit it, exact still flags the byte drift.
        let abs_pol = TolerancePolicy::exact().with("P", Tolerance::Abs(0.0));
        let changes = diff_cells("inf", "+inf", &abs_pol);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].abs, Some(0.0));
        assert_eq!(changes[0].class, DiffClass::WithinTolerance);
        assert_eq!(
            diff_cells("inf", "+inf", &TolerancePolicy::exact())[0].class,
            DiffClass::Violation
        );

        // Opposite infinities and inf-vs-finite: infinite deltas (never
        // NaN), violating every finite bound.
        let rel_pol = TolerancePolicy::exact().with("P", Tolerance::Rel(1e300));
        for (a, b) in [
            ("inf", "-inf"),
            ("inf", "1000"),
            ("1000", "inf"),
            ("-inf", "0.5"),
        ] {
            let changes = diff_cells(a, b, &rel_pol);
            assert_eq!(changes.len(), 1, "{a} vs {b}");
            let rel = changes[0].rel.expect("numeric pair has a rel delta");
            assert!(
                rel.is_infinite() && rel > 0.0,
                "{a} vs {b}: rel {rel} must be +inf, not NaN"
            );
            assert!(!changes[0].abs.unwrap().is_nan(), "{a} vs {b}");
            assert_eq!(changes[0].class, DiffClass::Violation, "{a} vs {b}");
        }
    }

    #[test]
    fn nan_metrics_follow_the_same_semantics() {
        // Non-finite metrics serialize as null and parse back as NaN:
        // NaN vs NaN is clean, NaN vs number is a violation.
        let mut old = parsed();
        old.metrics[0].1 = f64::NAN;
        let mut new = parsed();
        new.metrics[0].1 = f64::NAN;
        assert!(diff_reports(&old, &new, &TolerancePolicy::exact()).is_empty());
        new.metrics[0].1 = 5.82;
        let changes = diff_reports(&old, &new, &TolerancePolicy::exact());
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].class, DiffClass::Violation);
        let tol = TolerancePolicy::exact().with("median", Tolerance::Rel(1e9));
        assert_eq!(
            diff_reports(&old, &new, &tol)[0].class,
            DiffClass::Violation,
            "NaN -> number must not slip through a rel tolerance"
        );
    }

    #[test]
    fn infinite_rel_survives_the_json_rendering() {
        // rel against a zero baseline is infinite; the JSON document
        // must keep it distinguishable from a non-numeric change
        // (whose abs/rel are null).
        let mut old = parsed();
        old.metrics[0].1 = 0.0;
        let mut new = parsed();
        new.metrics[0].1 = 1.0;
        let d = diff_sets(&[old], &[new], &TolerancePolicy::exact());
        assert_eq!(d.changes[0].rel, Some(f64::INFINITY));
        let doc = Json::parse(&d.to_json_string()).unwrap();
        let change = &doc.get("changes").unwrap().as_arr().unwrap()[0];
        assert_eq!(change.get("rel").unwrap().as_str(), Some("inf"));
        assert_eq!(change.get("abs").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn ragged_rows_are_structural_not_silently_prefixed() {
        // A hand-trimmed row must not diff clean against its full-width
        // counterpart just because the shared prefix matches.
        let old = parsed();
        let mut new = parsed();
        match &mut new.blocks[0] {
            ParsedBlock::Table { rows, .. } => {
                rows[1].pop();
            }
            _ => unreachable!(),
        }
        let changes = diff_reports(&old, &new, &TolerancePolicy::exact());
        assert_eq!(changes.len(), 1, "{changes:?}");
        assert_eq!(changes[0].key, "structure");
        assert_eq!(changes[0].class, DiffClass::Violation);
        assert!(
            changes[0].location.contains("row 1 ('posit64')"),
            "{}",
            changes[0].location
        );
    }

    #[test]
    fn tolerance_spellings_round_trip() {
        for s in ["exact", "any", "abs=0.001", "rel=1e-12", "abs=0"] {
            let t = Tolerance::parse(s).unwrap();
            assert_eq!(Tolerance::parse(&t.render()), Some(t), "{s}");
        }
        for bad in ["", "rel", "rel=", "rel=-1", "rel=nan", "rel=inf", "ulp=3"] {
            assert!(Tolerance::parse(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn tolerance_policy_parses_and_rejects() {
        let policy = TolerancePolicy::parse(
            r#"{"schema":"compstat-tolerances/v1","default":"exact",
                "overrides":{"median":"rel=1e-12","demo/spread":"abs=0.5","text":"any"}}"#,
        )
        .unwrap();
        assert_eq!(policy.lookup("demo", "median"), Tolerance::Rel(1e-12));
        assert_eq!(policy.lookup("demo", "spread"), Tolerance::Abs(0.5));
        assert_eq!(policy.lookup("demo", "text"), Tolerance::Any);
        assert_eq!(policy.lookup("demo", "other"), Tolerance::Exact);

        for bad in [
            "{",
            r#"{"schema":"mystery/v9"}"#,
            r#"{"schema":"compstat-tolerances/v1","default":"close-enough"}"#,
            r#"{"schema":"compstat-tolerances/v1","overrides":{"m":3}}"#,
            r#"{"schema":"compstat-tolerances/v1","overrides":[1]}"#,
        ] {
            assert!(TolerancePolicy::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn diff_json_document_is_valid_and_complete() {
        let old = parsed();
        let mut new = parsed();
        new.metrics[0].1 = 6.0;
        let d = diff_sets(&[old], &[new], &TolerancePolicy::exact());
        let s = d.to_json_string();
        let doc = Json::parse(&s).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(DIFF_SCHEMA));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("violations"));
        assert_eq!(doc.get("violations").unwrap().as_f64(), Some(1.0));
        let changes = doc.get("changes").unwrap().as_arr().unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(
            changes[0].get("location").unwrap().as_str(),
            Some("metric 'median'")
        );
        assert!(changes[0].get("rel").unwrap().as_f64().is_some());
    }

    #[test]
    fn render_text_names_the_exact_cell() {
        let old = parsed();
        let mut new = parsed();
        match &mut new.blocks[0] {
            ParsedBlock::Table { rows, .. } => rows[0][1] = "0.126".to_string(),
            _ => unreachable!(),
        }
        let d = diff_sets(&[old], &[new], &TolerancePolicy::exact());
        let text = d.render_text();
        assert!(
            text.contains("demo: table [0] row 0 ('binary64') col 'P'"),
            "{text}"
        );
        assert!(text.contains("0.125 -> 0.126"), "{text}");
        assert!(text.contains("status: violations"), "{text}");
    }

    #[test]
    fn dir_loading_reports_clear_errors() {
        let base = std::env::temp_dir().join(format!("compstat-diff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);

        // Missing index.
        let empty = base.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = load_report_dir(&empty).unwrap_err();
        assert!(err.message.contains("cannot read index"), "{err}");

        // Corrupt index.
        let corrupt = base.join("corrupt");
        std::fs::create_dir_all(&corrupt).unwrap();
        std::fs::write(corrupt.join("index.json"), "{\"schema\": ").unwrap();
        assert!(load_report_dir(&corrupt).is_err());

        // A well-formed pair of directories round-trips through the
        // on-disk format and diffs clean.
        for name in ["a", "b"] {
            let dir = base.join(name);
            std::fs::create_dir_all(&dir).unwrap();
            let entry = write_report(&dir, &sample_report()).unwrap();
            write_index(&dir, "quick", None, &[entry]).unwrap();
        }
        let d = diff_dirs(&base.join("a"), &base.join("b"), &TolerancePolicy::exact()).unwrap();
        assert_eq!(d.status(), DiffStatus::Clean);

        // An index entry whose name contradicts the document, an index
        // listing the same experiment twice, and an index listing a
        // report that is not there all refuse to load, naming the file.
        let a = base.join("a");
        let entry = IndexEntry::for_report(&sample_report());
        let renamed = |name: &str, file: &str| IndexEntry {
            name: name.into(),
            file: file.into(),
            ..entry.clone()
        };
        let refused = |entries: &[IndexEntry], file: &str, want: &str| {
            write_index(&a, "quick", None, entries).unwrap();
            let err = load_report_dir(&a).unwrap_err();
            assert!(err.message.contains(want), "{err}");
            assert_eq!(err.path, Some(a.join(file)));
        };
        refused(
            &[renamed("other", "demo.json")],
            "demo.json",
            "index lists it as",
        );
        refused(
            &[entry.clone(), entry.clone()],
            "demo.json",
            "duplicate report",
        );
        let gone = renamed("gone", "gone.json");
        refused(&[entry.clone(), gone], "gone.json", "cannot read report");

        let _ = std::fs::remove_dir_all(&base);
    }
}
