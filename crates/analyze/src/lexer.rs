//! The shared Rust tokenizer of the static analyzer.
//!
//! One pass over a source file produces two synchronized views:
//!
//! * a [`Token`] stream with 1-based line numbers — identifiers, puncts,
//!   string-literal *contents*, char literals, lifetimes and numbers,
//!   with comments dropped and nothing else blanked — what the
//!   item-level parser and the call/match extractors consume;
//! * per-line [`LineView`]s — the line's code with string/char literal
//!   contents removed and comments stripped, plus the body of a trailing
//!   `//` comment — what the pattern-matching determinism rules and the
//!   acknowledgement scanner consume.
//!
//! The lexer understands the token shapes that break naive line scanners:
//! raw strings (`r#"…"#`, any hash depth, byte variants), nested block
//! comments, multi-line string literals, escaped quotes, and the lifetime
//! vs. char-literal ambiguity (`'a` vs `'a'`).

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (includes `_`).
    Ident,
    /// The *content* of a string literal (normal, raw or byte).
    Str,
    /// A char or byte-char literal (content not preserved).
    Char,
    /// A lifetime marker (`'a`), name without the quote.
    Lifetime,
    /// A numeric literal.
    Num,
    /// A single punctuation character.
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Identifier text, string content, lifetime name, number text or
    /// single punct character.
    pub text: String,
    /// 1-based line the token *starts* on.
    pub line: usize,
}

impl Token {
    /// Is this the punct `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    /// Is this the identifier `name`?
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// One source line split into code and trailing line comment.
#[derive(Debug, Clone, Default)]
pub struct LineView {
    /// The trimmed raw line (for finding snippets).
    pub raw: String,
    /// Code with string/char contents blanked and comments removed.
    pub code: String,
    /// Body of a trailing `//` comment, if any.
    pub comment: Option<String>,
    /// The trailing comment was a doc comment (`///` or `//!`).
    pub doc: bool,
}

/// The full lex of one file.
#[derive(Debug, Clone, Default)]
pub struct FileLex {
    /// Token stream in source order.
    pub tokens: Vec<Token>,
    /// Per-line views, index 0 = line 1.
    pub lines: Vec<LineView>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    /// Inside `/* … */` with nesting depth.
    BlockComment(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string closed by `"` + this many `#`s.
    RawStr(u8),
}

struct Lexer {
    state: State,
    out: FileLex,
    /// Content of the string literal currently being captured, with the
    /// line it started on.
    str_buf: String,
    str_line: usize,
}

impl Lexer {
    fn push_tok(&mut self, kind: TokKind, text: impl Into<String>, line: usize) {
        self.out.tokens.push(Token { kind, text: text.into(), line });
    }

    fn close_str(&mut self) {
        let text = std::mem::take(&mut self.str_buf);
        let line = self.str_line;
        self.push_tok(TokKind::Str, text, line);
        self.state = State::Code;
    }

    /// Lex one line (no terminator), appending its [`LineView`].
    fn line(&mut self, lineno: usize, line: &str) {
        let b = line.as_bytes();
        let mut view =
            LineView { raw: line.trim().to_string(), code: String::new(), ..Default::default() };
        let mut i = 0;
        while i < b.len() {
            match self.state {
                State::BlockComment(depth) => {
                    if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        self.state =
                            if depth > 1 { State::BlockComment(depth - 1) } else { State::Code };
                        i += 2;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        self.state = State::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                State::Str => {
                    if b[i] == b'\\' {
                        if let Some(&c) = b.get(i + 1) {
                            self.str_buf.push('\\');
                            self.str_buf.push(c as char);
                        }
                        i += 2; // skip the escaped char (or line continuation)
                    } else if b[i] == b'"' {
                        self.close_str();
                        i += 1;
                    } else {
                        self.str_buf.push(b[i] as char);
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    let close = b[i] == b'"'
                        && b[i + 1..].iter().take(hashes as usize).filter(|&&c| c == b'#').count()
                            == hashes as usize;
                    if close {
                        self.close_str();
                        i += 1 + hashes as usize;
                    } else {
                        self.str_buf.push(b[i] as char);
                        i += 1;
                    }
                }
                State::Code => i = self.code_at(lineno, line, i, &mut view),
            }
        }
        if matches!(self.state, State::Str | State::RawStr(_)) {
            // Multi-line string: the content spans lines; keep capturing.
            self.str_buf.push('\n');
        }
        self.out.lines.push(view);
    }

    /// Lex from position `i` of a line in code state; returns the next
    /// position (or the line length when a line comment consumed the rest).
    fn code_at(&mut self, lineno: usize, line: &str, i: usize, view: &mut LineView) -> usize {
        let b = line.as_bytes();
        let prev_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                view.comment = Some(line[i + 2..].to_string());
                view.doc = matches!(b.get(i + 2), Some(&b'/') | Some(&b'!'));
                line.len()
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                self.state = State::BlockComment(1);
                i + 2
            }
            b'"' => {
                self.state = State::Str;
                self.str_buf.clear();
                self.str_line = lineno;
                i + 1
            }
            b'r' | b'b' if !prev_ident => {
                // Raw / byte string starts: `r"`, `r#"`, `br#"`, `b"`.
                let mut j = i + 1;
                if b[i] == b'b' && b.get(j) == Some(&b'r') {
                    j += 1;
                }
                let mut hashes = 0u8;
                while b.get(j + hashes as usize) == Some(&b'#') {
                    hashes += 1;
                }
                let quoted = b.get(j + hashes as usize) == Some(&b'"');
                if quoted && (b[i] == b'r' || j > i + 1) {
                    self.state = State::RawStr(hashes);
                    self.str_buf.clear();
                    self.str_line = lineno;
                    j + hashes as usize + 1
                } else if b[i] == b'b' && b.get(i + 1) == Some(&b'"') {
                    self.state = State::Str;
                    self.str_buf.clear();
                    self.str_line = lineno;
                    i + 2
                } else {
                    self.ident_at(lineno, line, i, view)
                }
            }
            b'\'' if !prev_ident => {
                // Char literal vs lifetime: a literal closes with `'`
                // after one (possibly escaped) char.
                let lit_end = if b.get(i + 1) == Some(&b'\\') {
                    // Closing quote sits after the backslash + escaped
                    // char ('\n', '\'', '\x7f', '\u{…}').
                    b.get(i + 3..)
                        .and_then(|rest| rest.iter().position(|&c| c == b'\''))
                        .map(|p| i + 4 + p)
                } else if b.get(i + 2) == Some(&b'\'') && b.get(i + 1) != Some(&b'\'') {
                    Some(i + 3)
                } else {
                    None
                };
                match lit_end {
                    Some(end) => {
                        self.push_tok(TokKind::Char, "", lineno);
                        end // literal content blanked from the view too
                    }
                    None => {
                        // Lifetime: quote plus the following identifier.
                        let mut j = i + 1;
                        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                            j += 1;
                        }
                        view.code.push('\'');
                        view.code.push_str(&line[i + 1..j]);
                        self.push_tok(TokKind::Lifetime, &line[i + 1..j], lineno);
                        j.max(i + 1)
                    }
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => self.ident_at(lineno, line, i, view),
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_' || b[j] == b'.')
                {
                    // `0..n` range: stop the number before `..`.
                    if b[j] == b'.' && b.get(j + 1) == Some(&b'.') {
                        break;
                    }
                    j += 1;
                }
                view.code.push_str(&line[i..j]);
                self.push_tok(TokKind::Num, &line[i..j], lineno);
                j
            }
            c => {
                view.code.push(c as char);
                if !c.is_ascii_whitespace() {
                    self.push_tok(TokKind::Punct, (c as char).to_string(), lineno);
                }
                i + 1
            }
        }
    }

    fn ident_at(&mut self, lineno: usize, line: &str, i: usize, view: &mut LineView) -> usize {
        let b = line.as_bytes();
        let mut j = i;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        view.code.push_str(&line[i..j]);
        self.push_tok(TokKind::Ident, &line[i..j], lineno);
        j
    }
}

/// Lex a whole file.
pub fn lex(text: &str) -> FileLex {
    let mut lx =
        Lexer { state: State::Code, out: FileLex::default(), str_buf: String::new(), str_line: 0 };
    for (idx, line) in text.lines().enumerate() {
        lx.line(idx + 1, line);
    }
    lx.out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(text: &str) -> Vec<String> {
        lex(text).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_become_content_tokens() {
        let fx = lex("call(\"tag:{i}\", 2)");
        let strs: Vec<_> = fx.tokens.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "tag:{i}");
        assert_eq!(strs[0].line, 1);
        // The line view blanks the content.
        assert!(!fx.lines[0].code.contains("tag:"), "{}", fx.lines[0].code);
    }

    #[test]
    fn raw_string_with_hashes_and_quotes() {
        let fx = lex("let r = r#\"inner \"quoted\" text\"#; tail()");
        let strs: Vec<_> = fx.tokens.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs[0].text, "inner \"quoted\" text");
        assert!(idents("let r = r#\"x\"#; tail()").contains(&"tail".to_string()));
    }

    #[test]
    fn nested_block_comments_drop() {
        let src = "a /* one /* two */ still */ b";
        assert_eq!(idents(src), vec!["a", "b"]);
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let fx = lex("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        let lifetimes: Vec<_> = fx.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        let chars = fx.tokens.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn multiline_string_is_one_token_at_start_line() {
        let src = "a(\"first\nsecond with Instant::now()\nthird\");\nb()";
        let fx = lex(src);
        let strs: Vec<_> = fx.tokens.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].line, 1);
        assert!(strs[0].text.contains("second"));
        // Lines 2 and 3 carry no code from the string interior.
        assert!(fx.lines[1].code.is_empty());
        assert!(idents(src).contains(&"b".to_string()));
    }

    #[test]
    fn doc_comments_are_flagged_on_their_line_view() {
        let fx = lex("/// docs here\n// plain note\nfn f() {}");
        assert!(fx.lines[0].doc && fx.lines[0].comment.is_some());
        assert!(!fx.lines[1].doc && fx.lines[1].comment.is_some());
        assert_eq!(fx.tokens[0].text, "fn", "comments of either kind are not tokens");
    }

    #[test]
    fn byte_strings_and_numbers() {
        let fx = lex("let x = b\"ab\"; let n = 0x1f_u32; let r = 0..10;");
        assert!(fx.tokens.iter().any(|t| t.kind == TokKind::Str && t.text == "ab"));
        assert!(fx.tokens.iter().any(|t| t.kind == TokKind::Num && t.text == "0x1f_u32"));
        // `0..10` lexes as two numbers around a range, not one float.
        assert!(fx.tokens.iter().any(|t| t.kind == TokKind::Num && t.text == "0"));
        assert!(fx.tokens.iter().any(|t| t.kind == TokKind::Num && t.text == "10"));
    }
}
