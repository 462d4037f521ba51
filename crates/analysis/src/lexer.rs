//! A hand-rolled Rust lexer for the audit engine.
//!
//! The rules in [`crate::rules`] and the kernel fingerprints in
//! [`crate::fingerprint`] work on *tokens*, not text — `grep` would
//! flag a `format!("{}", x)` inside a string literal or a doc comment,
//! and a text hash would move on every comment edit. This lexer
//! understands exactly enough Rust to make token matching sound:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`), kept as tokens so callers can tell code from
//!   prose;
//! * string literals with escapes, byte strings, and raw strings with
//!   any number of `#` guards (`r##"…"##`), all of which may span
//!   lines;
//! * char literals vs. lifetimes (`'a'` vs. `'a`), including escaped
//!   chars (`'\n'`, `'\u{1F600}'`);
//! * numeric literals with underscores, base prefixes, exponents, and
//!   type suffixes — classified into [`TokKind::Int`] vs.
//!   [`TokKind::Float`] with Rust's `1.` / `1..2` / `1.foo`
//!   disambiguation;
//! * identifiers (including raw `r#ident`) and single-char punctuation.
//!
//! The lexer never fails: any byte sequence tokenizes (unknown bytes
//! become [`TokKind::Punct`] tokens), a property the crate's proptest
//! suite hammers with escape- and unicode-heavy generated sources.

/// The classification of one [`Tok`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (including raw `r#ident`).
    Ident,
    /// A lifetime (`'a`) — *not* a char literal.
    Lifetime,
    /// An integer literal (any base, with suffix if present).
    Int,
    /// A float literal (decimal point, exponent, or f32/f64 suffix).
    Float,
    /// A string literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// A char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// A `//…` comment (text includes the slashes, excludes the
    /// newline).
    LineComment,
    /// A `/* … */` comment (text includes the delimiters).
    BlockComment,
    /// A single punctuation or unknown character.
    Punct,
}

/// One token: kind, verbatim text, and 1-based source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// What the token is.
    pub kind: TokKind,
    /// The verbatim source text of the token.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Tok {
    /// True for comment tokens (excluded from rule matching and from
    /// kernel fingerprints).
    #[must_use]
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

struct Lexer<'a> {
    src: &'a str,
    chars: Vec<(usize, char)>,
    /// Index into `chars`.
    pos: usize,
    line: u32,
    col: u32,
}

/// Tokenizes `src` completely. Infallible: every input produces a
/// token stream covering all non-whitespace characters.
#[must_use]
pub fn tokenize(src: &str) -> Vec<Tok> {
    let mut lx = Lexer {
        src,
        chars: src.char_indices().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(tok) = lx.next_token() {
        out.push(tok);
    }
    out
}

impl Lexer<'_> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let &(_, c) = self.chars.get(self.pos)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Byte offset of the current position (source length at EOF).
    fn offset(&self) -> usize {
        self.chars
            .get(self.pos)
            .map_or(self.src.len(), |&(off, _)| off)
    }

    fn next_token(&mut self) -> Option<Tok> {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
        let c = self.peek()?;
        let (line, col) = (self.line, self.col);
        let start = self.offset();
        let kind = match c {
            '/' if self.peek_at(1) == Some('/') => self.line_comment(),
            '/' if self.peek_at(1) == Some('*') => self.block_comment(),
            '"' => self.string(),
            '\'' => self.char_or_lifetime(),
            'r' if self.raw_string_ahead(1) => {
                self.bump();
                self.string()
            }
            'r' if self.peek_at(1) == Some('#') && is_ident_start(self.peek_at(2)) => {
                self.bump();
                self.bump();
                self.ident()
            }
            'b' if self.peek_at(1) == Some('"') => {
                self.bump();
                self.string()
            }
            'b' if self.peek_at(1) == Some('\'') => {
                self.bump();
                self.bump();
                self.char_body()
            }
            'b' if self.peek_at(1) == Some('r') && self.raw_string_ahead(2) => {
                self.bump();
                self.bump();
                self.string()
            }
            c if c.is_ascii_digit() => self.number(),
            c if is_ident_start(Some(c)) => self.ident(),
            _ => {
                self.bump();
                TokKind::Punct
            }
        };
        Some(Tok {
            kind,
            text: self.src[start..self.offset()].to_string(),
            line,
            col,
        })
    }

    /// True when the characters from `ahead` spell the start of a raw
    /// string body: zero or more `#` then `"`.
    fn raw_string_ahead(&self, ahead: usize) -> bool {
        let mut i = ahead;
        while self.peek_at(i) == Some('#') {
            i += 1;
        }
        self.peek_at(i) == Some('"')
    }

    fn line_comment(&mut self) -> TokKind {
        while matches!(self.peek(), Some(c) if c != '\n') {
            self.bump();
        }
        TokKind::LineComment
    }

    fn block_comment(&mut self) -> TokKind {
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                // Unterminated comment: consume to EOF, never loop.
                (None, _) => break,
            }
        }
        TokKind::BlockComment
    }

    /// Consumes a string starting at `"` or at the `#` guards of a raw
    /// string (the `r`/`b` prefixes are consumed by the caller).
    fn string(&mut self) -> TokKind {
        let mut guards = 0usize;
        while self.peek() == Some('#') {
            guards += 1;
            self.bump();
        }
        self.bump(); // opening '"'
        if guards > 0 {
            // Raw string: no escapes; ends at `"` followed by the same
            // number of `#`.
            while let Some(c) = self.peek() {
                if c == '"' {
                    let closes = (1..=guards).all(|i| self.peek_at(i) == Some('#'));
                    if closes {
                        self.bump();
                        for _ in 0..guards {
                            self.bump();
                        }
                        return TokKind::Str;
                    }
                }
                self.bump();
            }
            return TokKind::Str; // unterminated: EOF ends it
        }
        // Cooked string: `\` escapes the next char (enough to skip a
        // `\"` without modelling every escape class).
        while let Some(c) = self.peek() {
            match c {
                '"' => {
                    self.bump();
                    return TokKind::Str;
                }
                '\\' => {
                    self.bump();
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
        TokKind::Str
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime) after peeking
    /// `'`.
    fn char_or_lifetime(&mut self) -> TokKind {
        self.bump(); // '\''
        match self.peek() {
            // `'\…'` is always a char literal.
            Some('\\') => self.char_body(),
            Some(c) if is_ident_start(Some(c)) => {
                // `'a'` char vs `'a` / `'static` lifetime: a closing
                // quote right after one ident char means char literal.
                if self.peek_at(1) == Some('\'') {
                    self.char_body()
                } else {
                    while matches!(self.peek(), Some(c) if is_ident_continue(c)) {
                        self.bump();
                    }
                    TokKind::Lifetime
                }
            }
            // `'('`, `'+'`, `'''`… — char literal of a non-ident char.
            Some(_) => self.char_body(),
            None => TokKind::Lifetime,
        }
    }

    /// Consumes a char-literal body up to and including the closing
    /// quote (the opening quote — and `b` prefix if any — is already
    /// consumed).
    fn char_body(&mut self) -> TokKind {
        match self.peek() {
            Some('\\') => {
                self.bump();
                self.bump(); // the escaped char (or `u` of `\u{…}`)
                             // `\u{…}`: consume through the closing brace.
                if self.peek() == Some('{') {
                    while matches!(self.peek(), Some(c) if c != '}') {
                        self.bump();
                    }
                    self.bump();
                }
            }
            Some(_) => {
                self.bump();
            }
            None => return TokKind::Char,
        }
        if self.peek() == Some('\'') {
            self.bump();
        }
        TokKind::Char
    }

    fn ident(&mut self) -> TokKind {
        while matches!(self.peek(), Some(c) if is_ident_continue(c)) {
            self.bump();
        }
        TokKind::Ident
    }

    fn number(&mut self) -> TokKind {
        let mut float = false;
        if self.peek() == Some('0')
            && matches!(self.peek_at(1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'))
        {
            self.bump();
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_hexdigit() || c == '_') {
                self.bump();
            }
        } else {
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == '_') {
                self.bump();
            }
            // A '.' continues the number only when it is not `..`
            // (range) and not `.ident` (field/method access): `1.5`
            // and `1.` are floats, `1..2` and `1.max(2)` are not.
            if self.peek() == Some('.') {
                let next = self.peek_at(1);
                let part_of_number = match next {
                    Some(c) if c.is_ascii_digit() => true,
                    Some('.') => false,
                    Some(c) if is_ident_start(Some(c)) => false,
                    _ => true, // `1.` at end of expression
                };
                if part_of_number {
                    float = true;
                    self.bump();
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == '_') {
                        self.bump();
                    }
                }
            }
            // Exponent: `1e9`, `2.5E-3` (only when digits follow).
            if matches!(self.peek(), Some('e' | 'E')) {
                let mut i = 1;
                if matches!(self.peek_at(1), Some('+' | '-')) {
                    i = 2;
                }
                if matches!(self.peek_at(i), Some(c) if c.is_ascii_digit()) {
                    float = true;
                    for _ in 0..i {
                        self.bump();
                    }
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == '_') {
                        self.bump();
                    }
                }
            }
        }
        // Type suffix (`u64`, `f64`, `usize`, …): part of the literal.
        let suffix_start = self.offset();
        while matches!(self.peek(), Some(c) if is_ident_continue(c)) {
            self.bump();
        }
        let suffix = &self.src[suffix_start..self.offset()];
        if suffix.starts_with("f32") || suffix.starts_with("f64") {
            float = true;
        }
        if float {
            TokKind::Float
        } else {
            TokKind::Int
        }
    }
}

fn is_ident_start(c: Option<char>) -> bool {
    matches!(c, Some(c) if c.is_alphabetic() || c == '_')
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn strings_hide_their_contents_from_rules() {
        let toks = kinds(r#"let s = "Instant::now() // not a comment";"#);
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("Instant"));
        // No Ident token says "Instant".
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "Instant"));
    }

    #[test]
    fn raw_strings_and_guards() {
        let toks = kinds(r###"let s = r#"a "quoted" // body"#; let t = 1;"###);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("quoted")));
        // Lexing continued past the raw string.
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Int && t == "1"));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2, "{lifetimes:?}");
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(chars.len(), 2, "{chars:?}");
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        for (src, kind) in [
            ("1", TokKind::Int),
            ("0xFF_u64", TokKind::Int),
            ("1_000", TokKind::Int),
            ("1.5", TokKind::Float),
            ("1.", TokKind::Float),
            ("2f64", TokKind::Float),
            ("2.0f64", TokKind::Float),
            ("1e9", TokKind::Float),
            ("2.5E-3", TokKind::Float),
        ] {
            let toks = kinds(src);
            assert_eq!(toks.len(), 1, "{src}: {toks:?}");
            assert_eq!(toks[0].0, kind, "{src}");
        }
        // Range and method-call dots do not join the number.
        let toks = kinds("0..10");
        assert_eq!(toks[0].0, TokKind::Int);
        assert_eq!(toks.len(), 4, "{toks:?}"); // 0 . . 10
        let toks = kinds("1.max(2)");
        assert_eq!(toks[0], (TokKind::Int, "1".into()));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* a /* nested */ still comment */ let x = 1;");
        assert_eq!(toks[0].0, TokKind::BlockComment);
        assert!(toks[0].1.contains("nested"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "let"));
    }

    #[test]
    fn positions_are_one_based_and_accurate() {
        let toks = tokenize("let x = 1;\n  let y = 2;");
        let y = toks.iter().find(|t| t.text == "y").unwrap();
        assert_eq!((y.line, y.col), (2, 7));
    }

    #[test]
    fn unterminated_inputs_never_hang() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'", "b'", "'\\u{12"] {
            let toks = tokenize(src);
            assert!(!toks.is_empty(), "{src:?}");
        }
    }

    #[test]
    fn raw_idents_lex_as_idents() {
        let toks = kinds("let r#type = 1;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "r#type"));
    }
}
