//! Property tests for the hand-rolled Rust lexer: tokenizing
//! arbitrary escape/unicode-heavy source soup never panics, positions
//! stay within bounds, and comment tokens look like comments.

use compstat_analysis::lexer::{tokenize, TokKind};
use proptest::prelude::*;

/// Fragments chosen to stress every lexer mode: string escapes, raw
/// strings with guards, byte strings, chars vs. lifetimes, nested
/// comments, numeric suffixes, unicode (including multi-byte and
/// combining characters), and unterminated delimiters.
const FRAGMENTS: &[&str] = &[
    "fn f() {}",
    "let x = \"a\\\"b\\\\\";",
    "let u = \"\\u{1F600}\\u{0}\";",
    "r#\"raw \" inside\"#",
    "r##\"nested \"# guard\"##",
    "b\"bytes \\x00\"",
    "br#\"raw bytes\"#",
    "'a'",
    "'\\n'",
    "'\\u{3B1}'",
    "'static",
    "&'a str",
    "/* nested /* block */ comment */",
    "// line comment with \" and '",
    "//! doc with `code`",
    "1_000_000u64",
    "0xFF_u8",
    "0b1010",
    "1.5e-300f64",
    "2f64.powf(x)",
    "0..10",
    "1.max(2)",
    "r#match",
    "日本語識別子",
    "αβγ",
    "\u{301}\u{308}",
    "\"unterminated",
    "/* unterminated",
    "r##\"unterminated",
    "'",
    "\\",
    "{ } ( ) [ ]",
    "#[cfg(test)]",
    "\n\n\t  \r\n",
    "\"🦀 emoji in string\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Any concatenation of stress fragments tokenizes without
    // panicking, with every token's position inside the source.
    #[test]
    fn tokenize_never_panics(idx in proptest::collection::vec(0u64..FRAGMENTS.len() as u64, 0..40)) {
        let src: String = idx
            .iter()
            .map(|&i| FRAGMENTS[i as usize])
            .collect::<Vec<_>>()
            .join(" ");
        let toks = tokenize(&src);
        let line_count = src.lines().count().max(1) as u32;
        for t in &toks {
            prop_assert!(t.line >= 1 && t.line <= line_count, "line {} of {line_count}", t.line);
            prop_assert!(t.col >= 1);
            prop_assert!(!t.text.is_empty());
        }
        // Tokens are emitted in nondecreasing line order.
        for w in toks.windows(2) {
            prop_assert!(w[1].line >= w[0].line);
        }
    }

    // Lexing is total and loss-free on comment/string boundaries:
    // every comment token's text starts with a comment opener
    // (doc comments on these fns would not match the vendored
    // proptest! macro's `#[test] fn` pattern).
    #[test]
    fn comment_tokens_look_like_comments(idx in proptest::collection::vec(0u64..FRAGMENTS.len() as u64, 0..30)) {
        let src: String = idx.iter().map(|&i| FRAGMENTS[i as usize]).collect::<Vec<_>>().join("\n");
        for t in tokenize(&src) {
            if t.kind == TokKind::LineComment {
                prop_assert!(t.text.starts_with("//"), "{:?}", t.text);
            }
            if t.kind == TokKind::BlockComment {
                prop_assert!(t.text.starts_with("/*"), "{:?}", t.text);
            }
        }
    }
}
