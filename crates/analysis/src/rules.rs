//! The audit rules and the per-file analysis they run on.
//!
//! `compstat audit` keeps only the invariants clippy cannot express
//! (see CONTRIBUTING's "Lint rules & waiver policy" for the clippy
//! side):
//!
//! * [`Rule::FloatFormat`] — no `{}` / `{:?}` formatting of floats in
//!   report-rendering paths. `Display` on `f64` picks the shortest
//!   round-trip spelling, which is stable but *layout-hostile* and has
//!   burned this project before; report cells go through
//!   [`fmt_f64`](https://docs.rs/)-style fixed-decimal helpers or the
//!   `to_sci_string` renderer. Telling a float argument from any other
//!   needs the format-string parse below, which no clippy lint does.
//! * [`Rule::KernelTagGuard`] — implemented in [`crate::fingerprint`]:
//!   an oracle-kernel source change without an `ORACLE_KERNEL_TAG`
//!   bump (or fingerprint regeneration) is a hard violation.
//!
//! Rules match the token stream of [`crate::lexer`] and skip
//! `#[cfg(test)]` regions (tests may print floats freely). There is no
//! waiver syntax: fix the finding.

use crate::lexer::{tokenize, Tok, TokKind};

/// The identity of one audit rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `{}` / `{:?}` on floats in report-rendering paths.
    FloatFormat,
    /// Oracle-kernel source drift without a tag bump (see
    /// [`crate::fingerprint`]).
    KernelTagGuard,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 2] = [Rule::FloatFormat, Rule::KernelTagGuard];

    /// The kebab-case name used in findings and docs.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::FloatFormat => "float-format",
            Rule::KernelTagGuard => "kernel-tag-guard",
        }
    }

    /// Parses a rule name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.as_str() == name)
    }
}

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The trimmed source line.
    pub snippet: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// The tokenized, classified view of one source file that rules run
/// over.
pub struct FileAnalysis {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Source lines (for snippets).
    lines: Vec<String>,
    /// All tokens.
    toks: Vec<Tok>,
    /// Indices into `toks` of non-comment tokens outside
    /// `#[cfg(test)]` regions.
    code: Vec<usize>,
    /// Identifiers with file-local float-type evidence.
    float_idents: Vec<String>,
}

/// Method names whose receiver (or result) is a float in practice —
/// integer types have none of these.
const FLOAT_METHODS: &[&str] = &[
    "to_f64",
    "as_f64",
    "as_secs_f64",
    "ln",
    "ln_1p",
    "ln_value",
    "log2",
    "log10",
    "exp",
    "exp2",
    "exp_m1",
    "sqrt",
    "powf",
    "powi",
    "hypot",
    "to_degrees",
    "to_radians",
    "round",
    "floor",
    "ceil",
    "trunc",
    "fract",
];

const FLOAT_TYPES: &[&str] = &["f32", "f64"];

impl FileAnalysis {
    /// Tokenizes and classifies one file.
    #[must_use]
    pub fn new(rel: &str, source: &str) -> FileAnalysis {
        let toks = tokenize(source);
        let code = code_indices(&toks);
        let mut fa = FileAnalysis {
            rel: rel.to_string(),
            lines: source.lines().map(str::to_string).collect(),
            toks,
            code,
            float_idents: Vec::new(),
        };
        fa.collect_float_evidence();
        fa
    }

    fn tok(&self, code_idx: usize) -> &Tok {
        &self.toks[self.code[code_idx]]
    }

    fn text(&self, code_idx: usize) -> &str {
        &self.tok(code_idx).text
    }

    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn finding(&self, rule: Rule, code_idx: usize, message: String) -> Finding {
        let t = self.tok(code_idx);
        Finding {
            rule,
            file: self.rel.clone(),
            line: t.line,
            col: t.col,
            snippet: self.snippet(t.line),
            message,
        }
    }

    /// Scans `ident : f64` ascriptions and `let x = …` initializers
    /// (a float literal first, or ending in `as f64;`) for float-type
    /// evidence.
    fn collect_float_evidence(&mut self) {
        let n = self.code.len();
        for i in 0..n {
            // `name : Ty` — let bindings, fn params, struct fields.
            if self.tok(i).kind == TokKind::Ident
                && i + 2 < n
                && self.text(i + 1) == ":"
                && self.text(i + 2) != ":"
                && self.tok(i + 2).kind == TokKind::Ident
            {
                if FLOAT_TYPES.contains(&self.text(i + 2)) {
                    self.float_idents.push(self.text(i).to_string());
                }
                continue;
            }
            // `let [mut] name = <float literal …>;` or `… as f64;`
            if self.text(i) == "let" {
                let mut j = i + 1;
                if j < n && self.text(j) == "mut" {
                    j += 1;
                }
                if j + 1 < n && self.tok(j).kind == TokKind::Ident && self.text(j + 1) == "=" {
                    let name = self.text(j).to_string();
                    let mut k = j + 2;
                    let mut depth = 0i32;
                    while k < n {
                        match self.text(k) {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ";" if depth <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    let float_literal = j + 2 < n && self.tok(j + 2).kind == TokKind::Float;
                    let float_cast = k < n
                        && k >= 2
                        && self.text(k - 2) == "as"
                        && FLOAT_TYPES.contains(&self.text(k - 1));
                    if float_literal || float_cast {
                        self.float_idents.push(name);
                    }
                }
            }
        }
        self.float_idents.sort();
        self.float_idents.dedup();
    }

    /// True when an expression (a set of code-token indices) carries
    /// float evidence: a float literal, a float-typed identifier, or a
    /// float-only method call.
    fn looks_float(&self, expr: &[usize]) -> bool {
        expr.iter().any(|&i| {
            let t = self.tok(i);
            match t.kind {
                TokKind::Float => true,
                TokKind::Ident => {
                    let name = t.text.as_str();
                    self.float_idents.iter().any(|f| f == name)
                        || (i > 0
                            && self.text(i - 1) == "."
                            && FLOAT_METHODS.contains(&name)
                            && i + 1 < self.code.len()
                            && self.text(i + 1) == "(")
                }
                _ => false,
            }
        })
    }
}

/// Indices of non-comment tokens lying outside `#[cfg(test)]` items.
fn code_indices(toks: &[Tok]) -> Vec<usize> {
    let non_comment: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut excluded = vec![false; toks.len()];
    let text = |ci: usize| toks[non_comment[ci]].text.as_str();
    let n = non_comment.len();
    let mut i = 0;
    while i < n {
        // `#[cfg(… test …)]`
        if text(i) == "#" && i + 4 < n && text(i + 1) == "[" && text(i + 2) == "cfg" {
            let mut j = i + 3;
            let mut depth = 0i32;
            let mut has_test = false;
            while j < n {
                match text(j) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" => has_test = true,
                    _ => {}
                }
                j += 1;
            }
            // Skip the closing `]`.
            if j + 1 < n && text(j + 1) == "]" {
                j += 2;
            }
            if has_test {
                // Skip any further attributes, then exclude the item:
                // through its braced body, or to the `;` of a bodiless
                // item.
                while j + 1 < n && text(j) == "#" && text(j + 1) == "[" {
                    let mut d = 0i32;
                    while j < n {
                        match text(j) {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    j += 1;
                }
                let mut d = 0i32;
                while j < n {
                    match text(j) {
                        "{" => d += 1,
                        "}" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        ";" if d == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                for ci in i..=j.min(n - 1) {
                    excluded[non_comment[ci]] = true;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    non_comment.into_iter().filter(|&i| !excluded[i]).collect()
}

/// Runs the `float-format` rule over one file.
#[must_use]
pub fn float_format(file: &FileAnalysis) -> Vec<Finding> {
    const MACROS: &[&str] = &["format", "write", "writeln", "print", "println"];
    let mut out = Vec::new();
    let n = file.code.len();
    for i in 0..n {
        if !MACROS.contains(&file.text(i))
            || i + 2 >= n
            || file.text(i + 1) != "!"
            || file.text(i + 2) != "("
        {
            continue;
        }
        // Collect the macro's top-level arguments.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut args: Vec<Vec<usize>> = vec![Vec::new()];
        while j < n {
            match file.text(j) {
                "(" | "[" | "{" => {
                    depth += 1;
                    if depth > 1 {
                        args.last_mut().expect("non-empty").push(j);
                    }
                }
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    args.last_mut().expect("non-empty").push(j);
                }
                "," if depth == 1 => args.push(Vec::new()),
                _ if depth >= 1 => args.last_mut().expect("non-empty").push(j),
                _ => {}
            }
            j += 1;
        }
        // The format string is the first string-literal argument;
        // format args follow it.
        let Some(fmt_pos) = args.iter().position(|a| {
            a.len() == 1 && file.tok(a[0]).kind == TokKind::Str && !file.text(a[0]).starts_with('b')
        }) else {
            continue;
        };
        let fmt_tok_idx = args[fmt_pos][0];
        let fmt_text = file.text(fmt_tok_idx).to_string();
        let fmt_args = &args[fmt_pos + 1..];
        let mut positional = 0usize;
        for ph in placeholders(&fmt_text) {
            let (name, spec) = ph;
            // Only bare Display (`{}`/`{x}`) and Debug (`{:?}`/`{x:?}`)
            // are suspect; an explicit precision (`{x:.3}`) is a
            // deliberate fixed-decimal rendering.
            if !(spec.is_empty() || spec == "?") {
                if name.is_empty() {
                    positional += 1;
                }
                continue;
            }
            let is_float = if name.is_empty() {
                let arg = fmt_args.get(positional);
                positional += 1;
                arg.is_some_and(|a| {
                    file.looks_float(a)
                        || a.windows(2).any(|w| {
                            file.text(w[0]) == "as" && FLOAT_TYPES.contains(&file.text(w[1]))
                        })
                })
            } else {
                // Named arg (`x = expr`) or inline capture (`{x}`).
                let named = fmt_args.iter().find(|a| {
                    a.len() >= 2 && file.text(a[0]) == name.as_str() && file.text(a[1]) == "="
                });
                match named {
                    Some(a) => file.looks_float(&a[2..]),
                    None => file.float_idents.iter().any(|f| f == &name),
                }
            };
            if is_float {
                out.push(file.finding(
                    Rule::FloatFormat,
                    fmt_tok_idx,
                    format!(
                        "float rendered with `{{{name}{}}}` in a report path — Display \
                         picks the shortest round-trip spelling; use fmt_f64 / \
                         to_sci_string (the sci renderer) or an explicit precision",
                        if spec.is_empty() {
                            String::new()
                        } else {
                            format!(":{spec}")
                        }
                    ),
                ));
            }
        }
    }
    out
}

/// Extracts `(name, spec)` pairs from a format string literal
/// (`"a {x:?} b {}"` → `[("x", "?"), ("", "")]`), honoring `{{`
/// escapes.
fn placeholders(lit: &str) -> Vec<(String, String)> {
    // Strip the quotes (and any raw-string guards).
    let inner = lit
        .trim_start_matches('r')
        .trim_matches('#')
        .trim_matches('"');
    let chars: Vec<char> = inner.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '{' if chars.get(i + 1) == Some(&'{') => i += 2,
            '}' if chars.get(i + 1) == Some(&'}') => i += 2,
            '{' => {
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && chars[j] != '}' {
                    j += 1;
                }
                let body: String = chars[start..j].iter().collect();
                let (name, spec) = match body.split_once(':') {
                    Some((n, s)) => (n.to_string(), s.to_string()),
                    None => (body, String::new()),
                };
                out.push((name, spec));
                i = j + 1;
            }
            _ => i += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(src: &str) -> Vec<u32> {
        float_format(&FileAnalysis::new("report.rs", src))
            .iter()
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let found = lines(
            r#"
            fn live(x: f64) -> String { format!("{}", x) }
            #[cfg(test)]
            mod tests {
                fn t(x: f64) -> String { format!("{}", x) }
            }
            "#,
        );
        assert_eq!(found, [2]);
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let found = lines(
            r#"
            fn f(x: f64) {
                let s = "format!(\"{}\", x) in a string";
                // format!("{}", x) in a comment
            }
            "#,
        );
        assert_eq!(found, Vec::<u32>::new());
    }

    #[test]
    fn float_format_flags_bare_display_and_debug_only() {
        let found = lines(
            r#"
            fn f(ratio: f64, count: u64) {
                let a = format!("{}", ratio);
                let b = format!("{ratio}");
                let c = format!("{:?}", ratio);
                let ok1 = format!("{ratio:.3}");
                let ok2 = format!("{}", count);
                let ok3 = format!("{}", "text");
            }
            "#,
        );
        assert_eq!(found, [3, 4, 5]);
    }

    #[test]
    fn float_format_resolves_named_args_methods_and_casts() {
        let found = lines(
            r#"
            fn f(d: std::time::Duration, n: u64) {
                let a = format!("{secs}", secs = d.as_secs_f64());
                let b = format!("{}", d.as_secs_f64());
                let c = format!("{}", n as f64);
                let half = 0.5;
                let e = format!("{half}");
            }
            "#,
        );
        assert_eq!(found, [3, 4, 5, 7]);
    }
}
