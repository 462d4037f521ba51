//! Exact diffing of experiment reports — the accuracy regression gate.
//!
//! The paper's deliverable is a grid of accuracy/cost numbers, so any
//! change to the number-system kernels must either leave every report
//! cell byte-identical or show up as an explicit, reviewed delta. This
//! module turns that policy into a tool:
//!
//! * [`diff_reports`] / [`diff_sets`] / [`diff_dirs`] — param-by-param,
//!   metric-by-metric, table-cell-by-table-cell comparison of
//!   [`Report`]s producing a structured [`DiffReport`] with old/new
//!   values and, for numeric values, absolute and relative deltas;
//! * [`load_report_dir`] — loads every report a `compstat run --out`
//!   directory lists, through the one index parser in
//!   [`crate::merge`], which owns the directory layout, and
//!   [`Report::from_json`], which owns the report document.
//!
//! Every byte-level difference is a change. The CLI's `compstat diff
//! a/ b/` maps [`DiffStatus`] onto exit codes 0 (identical) / 2
//! (differences).

use crate::json::{FieldError, Json};
use crate::merge::load_index;
use crate::report::{Block, Report};
use core::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema identifier of the JSON document [`DiffReport::to_json`]
/// emits (`compstat diff --json`).
pub const DIFF_SCHEMA: &str = "compstat-diff/v2";

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

impl From<FieldError> for DiffError {
    fn from(e: FieldError) -> DiffError {
        DiffError::new(e)
    }
}

// ---------------------------------------------------------------------
// The diff itself
// ---------------------------------------------------------------------

/// One changed value between two reports.
#[derive(Clone, Debug)]
pub struct Change {
    /// Name of the experiment the change is in.
    pub experiment: String,
    /// Exact location, e.g. `metric 'median'` or
    /// `table[2] row 3 ('binary64') col 'P'`.
    pub location: String,
    /// Old (baseline) value, as written in the document.
    pub old: String,
    /// New value, as written in the document.
    pub new: String,
    /// `|new - old|`, when both values are numeric.
    pub abs: Option<f64>,
    /// `|new - old| / |old|`, when both values are numeric (infinite
    /// when the baseline is zero and the new value is not).
    pub rel: Option<f64>,
}

/// Overall verdict of a diff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffStatus {
    /// No differences at all.
    Clean,
    /// At least one changed value, or experiments were added/removed.
    Violations,
}

impl DiffStatus {
    /// The JSON/text spelling.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            DiffStatus::Clean => "clean",
            DiffStatus::Violations => "violations",
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
    /// The overall verdict: clean only when no value changed and no
    /// experiment was added or removed.
    #[must_use]
    pub fn status(&self) -> DiffStatus {
        if self.changes.is_empty() && self.added.is_empty() && self.removed.is_empty() {
            DiffStatus::Clean
        } else {
            DiffStatus::Violations
        }
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
                "{}: {}: {} -> {}{}",
                c.experiment,
                c.location,
                elide(&c.old),
                elide(&c.new),
                deltas
            );
        }
        let _ = writeln!(
            out,
            "status: {} ({} change(s))",
            self.status().as_str(),
            self.changes.len()
        );
        out
    }

    /// Serializes the diff as a `compstat-diff/v2` JSON document.
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
                    ("old", Json::str(c.old.as_str())),
                    ("new", Json::str(c.new.as_str())),
                    ("abs", opt(c.abs)),
                    ("rel", opt(c.rel)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str(DIFF_SCHEMA)),
            ("status", Json::str(self.status().as_str())),
            ("compared", Json::Num(self.compared.len() as f64)),
            ("added", names(&self.added)),
            ("removed", names(&self.removed)),
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

struct ChangeBuilder {
    experiment: String,
    changes: Vec<Change>,
}

impl ChangeBuilder {
    /// Records a changed value pair with its deltas. Call only when
    /// `old != new`.
    ///
    /// NaN/inf semantics (byte-different spellings only — byte-equal
    /// values never reach here):
    ///
    /// * NaN vs NaN is *not a change*: both documents agree the value
    ///   is undefined, so differing spellings (`nan` vs `NaN`) stay
    ///   clean;
    /// * NaN vs number is a change carrying no deltas (`null` in the
    ///   JSON);
    /// * numerically equal values (`inf` vs `+inf`, `0` vs `0.0`) are
    ///   a change with zero deltas rather than the NaN that naive
    ///   `inf - inf` arithmetic would produce;
    /// * an infinite baseline or an infinite difference yields an
    ///   infinite `rel` delta, never NaN.
    fn changed(&mut self, location: String, old: String, new: String) {
        let nums = (numeric(&old), numeric(&new));
        let deltas = match nums {
            (Some(a), Some(b)) if a.is_nan() && b.is_nan() => return,
            (Some(a), Some(b)) if a.is_nan() || b.is_nan() => None,
            (Some(a), Some(b)) if a == b => Some((0.0, 0.0)),
            (Some(a), Some(b)) => {
                let abs = (b - a).abs();
                // A zero or infinite baseline, or an infinite
                // difference: the relative delta is unbounded, not
                // NaN-poisoned.
                let rel = if a == 0.0 || a.is_infinite() || abs.is_infinite() {
                    f64::INFINITY
                } else {
                    abs / a.abs()
                };
                Some((abs, rel))
            }
            _ => None,
        };
        self.changes.push(Change {
            experiment: self.experiment.clone(),
            location,
            old,
            new,
            abs: deltas.map(|(a, _)| a),
            rel: deltas.map(|(_, r)| r),
        });
    }

    /// Records a structural difference (shape mismatch): no deltas.
    fn structural(&mut self, location: String, old: String, new: String) {
        self.changes.push(Change {
            experiment: self.experiment.clone(),
            location,
            old,
            new,
            abs: None,
            rel: None,
        });
    }
}

/// Diffs two reports of the same experiment, value by value.
///
/// Params and metrics align by key (missing/extra keys are structural
/// changes); blocks align by position. Metrics compare by their
/// document spelling, so an in-memory report diffs exactly as its
/// written file would. Table cells get deltas when both sides parse as
/// numbers. Returns every change.
#[must_use]
pub fn diff_reports(old: &Report, new: &Report) -> Vec<Change> {
    let mut b = ChangeBuilder {
        experiment: old.name.clone(),
        changes: Vec::new(),
    };
    if old.scale != new.scale {
        b.structural(
            "scale".to_string(),
            old.scale.as_str().to_string(),
            new.scale.as_str().to_string(),
        );
    }
    if old.title != new.title {
        b.changed("title".to_string(), old.title.clone(), new.title.clone());
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
            (Block::Text(os), Block::Text(ns)) => {
                if os != ns {
                    b.changed(format!("text block [{i}]"), os.clone(), ns.clone());
                }
            }
            (Block::Table(ot), Block::Table(nt)) => diff_table(
                &mut b,
                i,
                (ot.headers(), ot.rows()),
                (nt.headers(), nt.rows()),
            ),
            _ => b.structural(
                format!("block [{i}]"),
                block_kind(ob).to_string(),
                block_kind(nb).to_string(),
            ),
        }
    }
    b.changes
}

/// Short kind name (`text` / `table`), as stored in the JSON.
fn block_kind(b: &Block) -> &'static str {
    match b {
        Block::Text(_) => "text",
        Block::Table(_) => "table",
    }
}

/// Diffs two key-value lists aligned by key. `repr` renders a value as
/// its document spelling.
fn diff_keyed<V>(
    b: &mut ChangeBuilder,
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
                    b.changed(format!("{what} '{k}'"), o, n);
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
/// are structural; otherwise each differing cell is one change located
/// by its row's first cell (the row label) and its column header.
/// Every row is as wide as its headers ([`Report::from_json`] refuses
/// ragged rows, and [`crate::report::Table::row`] pads), so equal
/// headers mean equal row widths.
fn diff_table(
    b: &mut ChangeBuilder,
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
        for ((ocell, ncell), header) in orow.iter().zip(nrow).zip(old_headers) {
            if ocell != ncell {
                b.changed(
                    format!("table [{block}] row {r} ('{label}') col '{header}'"),
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
/// is recorded as a structural change.
#[must_use]
pub fn diff_sets(old: &[Report], new: &[Report]) -> DiffReport {
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
                    old: "one report per experiment".to_string(),
                    new: "duplicate report document".to_string(),
                    abs: None,
                    rel: None,
                });
            }
        }
    }
    for o in old {
        match new.iter().find(|n| n.name == o.name) {
            Some(n) => {
                report.compared.push(o.name.clone());
                report.changes.extend(diff_reports(o, n));
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
pub fn load_report_dir(dir: &Path) -> Result<Vec<Report>, DiffError> {
    let index = load_index(dir)?;
    let mut reports: Vec<Report> = Vec::with_capacity(index.entries.len());
    for entry in &index.entries {
        let path = dir.join(&entry.file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| DiffError::at(&path, format!("cannot read report: {e}")))?;
        let parsed = Report::parse(&text).map_err(|e| DiffError::at(&path, e.message))?;
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
pub fn diff_dirs(old: &Path, new: &Path) -> Result<DiffReport, DiffError> {
    let old_reports = load_report_dir(old)?;
    let new_reports = load_report_dir(new)?;
    Ok(diff_sets(&old_reports, &new_reports))
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

    /// The sample report read back from its document with the first
    /// occurrence of `from` replaced by `to`.
    fn edited(from: &str, to: &str) -> Report {
        let text = sample_report().to_json_string();
        assert!(text.contains(from), "{from:?} not in {text}");
        Report::parse(&text.replacen(from, to, 1)).unwrap()
    }

    #[test]
    fn parses_back_every_field() {
        let p = Report::parse(&sample_report().to_json_string()).unwrap();
        assert_eq!(p.name, "demo");
        assert_eq!(p.scale, Scale::Quick);
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
            Block::Table(t) => {
                assert_eq!(t.headers()[1], "P");
                assert_eq!(t.rows()[1][1], "0.250");
            }
            other => panic!("expected table, got {other:?}"),
        }
        assert!(matches!(&p.blocks[1], Block::Text(s) if s == "closing note\n"));
    }

    #[test]
    fn from_json_rejects_non_report_documents() {
        let doc = |scale: &str, metrics: &str, blocks: &str| {
            format!(
                r#"{{"schema":"compstat-report/v1","experiment":"x","title":"t","scale":"{scale}","params":{{}},"metrics":{{{metrics}}},"blocks":[{blocks}]}}"#
            )
        };
        for (bad, why) in [
            ("{}".to_string(), "missing string field"),
            (r#"{"schema":"mystery/v9"}"#.to_string(), "expected schema"),
            (
                doc("quick", r#""m":"oops""#, ""),
                "metric \"m\" is not a number",
            ),
            (
                doc("quick", "", r#"{"kind":"mystery"}"#),
                "unknown block kind",
            ),
            // The writer spells the scale canonically; the CLI alias
            // `paper` is not a document scale.
            (doc("paper", "", ""), "unknown scale \"paper\""),
            // A hand-trimmed row must not diff clean against its
            // full-width counterpart because the shared prefix matches.
            (
                doc(
                    "quick",
                    "",
                    r#"{"kind":"table","headers":["F","P"],"rows":[["a","1"],["b"]]}"#,
                ),
                "block [0]: row 1 has 1 cell(s) but the table has 2 header(s)",
            ),
        ] {
            let err = Report::parse(&bad).expect_err(&bad);
            assert!(err.message.contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn identical_reports_diff_clean() {
        let d = diff_sets(&[sample_report()], &[sample_report()]);
        assert!(d.changes.is_empty(), "{:?}", d.changes);
        assert_eq!(d.status(), DiffStatus::Clean);
        assert_eq!(d.compared, vec!["demo".to_string()]);
    }

    #[test]
    fn single_cell_perturbation_yields_exactly_one_change() {
        let changes = diff_reports(&sample_report(), &edited("\"0.250\"", "\"0.375\""));
        assert_eq!(changes.len(), 1, "{changes:?}");
        let c = &changes[0];
        assert_eq!(c.experiment, "demo");
        assert_eq!(c.location, "table [0] row 1 ('posit64') col 'P'");
        assert_eq!(c.old, "0.250");
        assert_eq!(c.new, "0.375");
        assert_eq!(c.abs, Some(0.125));
        assert_eq!(c.rel, Some(0.5));
    }

    #[test]
    fn metric_perturbation_names_the_metric_with_deltas() {
        let old = sample_report();
        let mut new = sample_report();
        new.metrics[0].1 = 5.82 * 1.5;
        let changes = diff_reports(&old, &new);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].location, "metric 'median'");
        assert_eq!(changes[0].old, "5.82");
        let rel = changes[0].rel.unwrap();
        assert!((rel - 0.5).abs() < 1e-12, "rel {rel}");
    }

    #[test]
    fn added_and_removed_experiments_are_detected() {
        let mut other = sample_report();
        other.name = "demo2".to_string();
        let d = diff_sets(&[sample_report()], &[sample_report(), other.clone()]);
        assert_eq!(d.added, vec!["demo2".to_string()]);
        assert_eq!(d.status(), DiffStatus::Violations);

        let d = diff_sets(&[sample_report(), other], &[sample_report()]);
        assert_eq!(d.removed, vec!["demo2".to_string()]);
        assert_eq!(d.status(), DiffStatus::Violations);
    }

    #[test]
    fn structural_mismatches_are_violations() {
        let old = sample_report();

        let mut new = sample_report();
        new.params.remove(1);
        let changes = diff_reports(&old, &new);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].location, "param 'seed'");
        assert_eq!(changes[0].new, "(missing)");

        let mut new = sample_report();
        new.blocks.pop();
        assert!(diff_reports(&old, &new)
            .iter()
            .any(|c| c.location == "blocks"));

        let changes = diff_reports(&old, &edited("\"P\"", "\"Q\""));
        assert_eq!(changes.len(), 1);
        assert!(changes[0].location.contains("headers"));
    }

    #[test]
    fn duplicate_names_in_a_set_are_violations_not_skipped() {
        // Only the first of two same-named reports gets compared, so a
        // divergent duplicate must fail the gate, not slip through.
        let mut divergent = sample_report();
        divergent.metrics[0].1 = 999.0;
        let d = diff_sets(&[sample_report()], &[sample_report(), divergent]);
        assert_eq!(d.status(), DiffStatus::Violations);
        let dup = d
            .changes
            .iter()
            .find(|c| c.location == "new set")
            .expect("duplicate flagged");
        assert_eq!(dup.experiment, "demo");
        // The baseline side is checked the same way.
        let d = diff_sets(&[sample_report(), sample_report()], &[sample_report()]);
        assert!(d.changes.iter().any(|c| c.location == "baseline set"));
    }

    /// Diffs two single-cell tables holding `old` and `new` and returns
    /// the recorded changes.
    fn diff_cells(old: &str, new: &str) -> Vec<Change> {
        let cell = |v: &str| {
            let mut r = Report::new("demo", "Demo", Scale::Quick);
            let mut t = Table::new(vec!["label".into(), "P".into()]);
            t.row(vec!["row0".into(), v.into()]);
            r.table(t);
            r
        };
        diff_reports(&cell(old), &cell(new))
    }

    #[test]
    fn nan_vs_nan_cells_are_clean() {
        // Byte-equal NaN spellings never record a change, and
        // byte-*different* spellings of NaN agree the value is
        // undefined.
        for (a, b) in [("nan", "nan"), ("nan", "NaN"), ("NaN", "nan")] {
            let changes = diff_cells(a, b);
            assert!(changes.is_empty(), "{a} vs {b}: {changes:?}");
        }
    }

    #[test]
    fn nan_vs_number_cells_are_changes_without_deltas() {
        for (a, b) in [("nan", "0.5"), ("0.5", "nan"), ("-", "0.5"), ("nan", "inf")] {
            let changes = diff_cells(a, b);
            assert_eq!(changes.len(), 1, "{a} vs {b}");
            // No NaN-poisoned deltas: non-comparable pairs carry none
            // at all.
            assert_eq!(changes[0].abs, None, "{a} vs {b}");
            assert_eq!(changes[0].rel, None, "{a} vs {b}");
        }
    }

    #[test]
    fn inf_pairings_yield_infinite_not_nan_deltas() {
        // Same infinity, different spelling: a change (the bytes
        // drifted) with zero numeric movement.
        let changes = diff_cells("inf", "+inf");
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].abs, Some(0.0));
        assert_eq!(changes[0].rel, Some(0.0));

        // Opposite infinities and inf-vs-finite: infinite deltas, never
        // NaN.
        for (a, b) in [
            ("inf", "-inf"),
            ("inf", "1000"),
            ("1000", "inf"),
            ("-inf", "0.5"),
        ] {
            let changes = diff_cells(a, b);
            assert_eq!(changes.len(), 1, "{a} vs {b}");
            let rel = changes[0].rel.expect("numeric pair has a rel delta");
            assert!(
                rel.is_infinite() && rel > 0.0,
                "{a} vs {b}: rel {rel} must be +inf, not NaN"
            );
            assert!(!changes[0].abs.unwrap().is_nan(), "{a} vs {b}");
        }
    }

    #[test]
    fn nan_metrics_follow_the_same_semantics() {
        // Non-finite metrics serialize as null and read back as NaN:
        // NaN vs NaN is clean, NaN vs number is a change.
        let mut old = sample_report();
        old.metrics[0].1 = f64::NAN;
        let mut new = sample_report();
        new.metrics[0].1 = f64::NAN;
        assert!(diff_reports(&old, &new).is_empty());
        new.metrics[0].1 = 5.82;
        let changes = diff_reports(&old, &new);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].rel, None);
    }

    #[test]
    fn infinite_rel_survives_the_json_rendering() {
        // rel against a zero baseline is infinite; the JSON document
        // must keep it distinguishable from a non-numeric change
        // (whose abs/rel are null).
        let mut old = sample_report();
        old.metrics[0].1 = 0.0;
        let mut new = sample_report();
        new.metrics[0].1 = 1.0;
        let d = diff_sets(&[old], &[new]);
        assert_eq!(d.changes[0].rel, Some(f64::INFINITY));
        let doc = Json::parse(&d.to_json_string()).unwrap();
        let change = &doc.get("changes").unwrap().as_arr().unwrap()[0];
        assert_eq!(change.get("rel").unwrap().as_str(), Some("inf"));
        assert_eq!(change.get("abs").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn diff_json_document_is_valid_and_complete() {
        let old = sample_report();
        let mut new = sample_report();
        new.metrics[0].1 = 6.0;
        let d = diff_sets(&[old], &[new]);
        let s = d.to_json_string();
        let doc = Json::parse(&s).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(DIFF_SCHEMA));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("violations"));
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
        let d = diff_sets(&[sample_report()], &[edited("\"0.125\"", "\"0.126\"")]);
        let text = d.render_text();
        assert!(
            text.contains("demo: table [0] row 0 ('binary64') col 'P'"),
            "{text}"
        );
        assert!(text.contains("0.125 -> 0.126"), "{text}");
        assert!(text.contains("status: violations (1 change(s))"), "{text}");
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
        let d = diff_dirs(&base.join("a"), &base.join("b")).unwrap();
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
