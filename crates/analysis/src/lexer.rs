//! A dependency-free Rust lexer, just deep enough for lint pattern
//! matching.
//!
//! The workspace deliberately carries zero external dependencies, so the
//! lint engine cannot use `syn`. It does not need to: every lint in
//! [`crate::lints`] matches short token sequences (`Instant :: now`,
//! `name . iter ( )`, an `unsafe` keyword without a nearby `// SAFETY:`
//! comment), which only requires a lexer that is *exactly right* about
//! what is code and what is not — strings, char literals vs lifetimes,
//! nested block comments, raw strings — plus line numbers for reporting.
//!
//! Comments are not discarded: they are returned alongside the token
//! stream because the `U001` lint inspects them (a `// SAFETY:` comment
//! must precede every `unsafe` block) and doc-comment code fences must
//! *not* produce tokens (a `HashMap` iteration inside a `///` example is
//! not a finding).

/// What kind of token a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`for`, `unsafe`, `HashMap`, ...).
    Ident,
    /// A single punctuation character (`.`, `:`, `{`, ...). Multi-char
    /// operators are matched by the lints as adjacent punct tokens.
    Punct,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character literal (`'x'`, `'\n'`).
    Char,
    /// Numeric literal (`42`, `1.5e-3`, `0xFF_u64`).
    Num,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Raw text. For [`TokKind::Punct`] this is a single character; for
    /// string literals it is the *unquoted interior* (enough for lints,
    /// which never re-emit source).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// A comment (line, doc, or block) with its line span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment ends on (the line it starts on for `//`).
    pub end_line: u32,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
}

/// Lexes Rust source into tokens plus the comment list.
///
/// The lexer is total: malformed input (an unterminated string, say)
/// never panics — it consumes to end of input and returns what it has,
/// which is the right behavior for a linter that may see fixture files
/// engineered to be odd.
pub fn lex(src: &str) -> (Vec<Token>, Vec<Comment>) {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
        comments: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> (Vec<Token>, Vec<Comment>) {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(line),
                'r' | 'b' if self.raw_or_byte_prefix() => self.prefixed_literal(line),
                '\'' => self.char_or_lifetime(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c.is_alphabetic() || c == '_' => self.ident(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), line);
                }
            }
        }
        (self.tokens, self.comments)
    }

    /// True when the cursor sits on an `r"`, `r#"`, `b"`, `br"`, `br#"`
    /// literal prefix rather than an identifier starting with r/b.
    fn raw_or_byte_prefix(&self) -> bool {
        let mut i = 1;
        if self.peek(0) == Some('b') && self.peek(1) == Some('r') {
            i = 2;
        }
        loop {
            match self.peek(i) {
                Some('#') => i += 1,
                Some('"') => return true,
                Some('\'') if i == 1 && self.peek(0) == Some('b') => return true,
                _ => return false,
            }
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        self.bump();
        self.bump();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.comments.push(Comment {
            end_line: line,
            text,
        });
    }

    fn block_comment(&mut self) {
        let mut text = String::new();
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while let Some(c) = self.bump() {
            if c == '/' && self.peek(0) == Some('*') {
                self.bump();
                depth += 1;
            } else if c == '*' && self.peek(0) == Some('/') {
                self.bump();
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
            }
        }
        self.comments.push(Comment {
            end_line: self.line,
            text,
        });
    }

    fn string(&mut self, line: u32) {
        let mut text = String::new();
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    // Skip the escaped char so an escaped quote cannot
                    // terminate the literal.
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                '"' => break,
                _ => text.push(c),
            }
        }
        self.push(TokKind::Str, text, line);
    }

    /// Raw strings (`r#"…"#`), byte strings (`b"…"`), raw byte strings
    /// and byte char literals (`b'x'`).
    fn prefixed_literal(&mut self, line: u32) {
        if self.peek(0) == Some('b') {
            self.bump();
        }
        if self.peek(0) == Some('\'') {
            // Byte char literal b'x'.
            self.char_literal(line);
            return;
        }
        if self.peek(0) != Some('r') {
            self.string(line);
            return;
        }
        self.bump(); // r
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut text = String::new();
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                // A closing quote must be followed by `hashes` hashes.
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        text.push('"');
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            text.push(c);
        }
        self.push(TokKind::Str, text, line);
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // `'a` followed by anything but a closing quote is a lifetime;
        // `'a'` is a char literal.
        let first = self.peek(1);
        let second = self.peek(2);
        let is_lifetime =
            matches!(first, Some(c) if c.is_alphabetic() || c == '_') && second != Some('\'');
        if is_lifetime {
            self.bump(); // '
            let mut text = String::new();
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokKind::Lifetime, text, line);
        } else {
            self.char_literal(line);
        }
    }

    fn char_literal(&mut self, line: u32) {
        let mut text = String::new();
        self.bump(); // opening '
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                '\'' => break,
                _ => text.push(c),
            }
        }
        self.push(TokKind::Char, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        let mut seen_dot = false;
        while let Some(c) = self.peek(0) {
            match c {
                '0'..='9' | '_' => {
                    text.push(c);
                    self.bump();
                }
                // Hex/oct/bin digits, type suffixes (u64, f64), exponents.
                'a'..='z' | 'A'..='Z' => {
                    text.push(c);
                    self.bump();
                    // Exponent sign: 1e-3, 2.5E+10.
                    if (c == 'e' || c == 'E')
                        && matches!(self.peek(0), Some('+') | Some('-'))
                        && matches!(self.peek(1), Some(d) if d.is_ascii_digit())
                    {
                        text.push(self.bump().unwrap_or('+'));
                    }
                }
                '.' => {
                    // `1.5` continues the number; `1..n` is a range and
                    // `1.method()` is a call — both end it.
                    if seen_dot || !matches!(self.peek(1), Some(d) if d.is_ascii_digit()) {
                        break;
                    }
                    seen_dot = true;
                    text.push(c);
                    self.bump();
                }
                _ => break,
            }
        }
        self.push(TokKind::Num, text, line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_do_not_produce_tokens() {
        let src = "// HashMap iter()\n/* unsafe */ let x = 1; /// Instant::now\n";
        let (toks, comments) = lex(src);
        assert_eq!(
            idents("// HashMap\nlet x = 1;"),
            vec!["let".to_string(), "x".to_string()]
        );
        assert!(toks
            .iter()
            .all(|t| t.text != "HashMap" && t.text != "unsafe"));
        assert_eq!(comments.len(), 3);
        assert!(comments[0].text.contains("HashMap"));
    }

    #[test]
    fn nested_block_comments() {
        let (toks, comments) = lex("/* a /* b */ c */ fn f() {}");
        assert_eq!(toks[0].text, "fn");
        assert_eq!(comments.len(), 1);
    }

    #[test]
    fn strings_hide_their_contents_from_ident_matching() {
        let (toks, _) = lex(r#"let s = "HashMap.iter() unsafe"; let r = r#line"#);
        assert!(toks
            .iter()
            .all(|t| t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "unsafe")));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let (toks, _) = lex(r###"let s = r#"quote " inside"#; done"###);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.contains("quote")));
        assert!(toks.iter().any(|t| t.text == "done"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let (toks, _) = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn numbers_ranges_and_floats() {
        let (toks, _) = lex("for i in 0..10 { let x = 1.5e-3; let h = 0xFF_u64; }");
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e-3", "0xFF_u64"]);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let (toks, comments) = lex("let a = 1;\n// c\nlet b = 2;\n");
        let b = toks.iter().find(|t| t.text == "b").expect("b token");
        assert_eq!(b.line, 3);
        assert_eq!(comments[0].end_line, 2);
    }

    #[test]
    fn byte_literals() {
        let (toks, _) = lex(r#"let a = b"bytes"; let c = b'x'; let r = br"raw";"#);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }
}
