use crate::QasmError;

/// A lexical token with its source position. Tokens borrow their text
/// from the source, so they are `Copy` and lexing allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub line: u32,
    pub column: u32,
}

/// Token kinds of the OpenQASM 2.0 subset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum TokenKind<'a> {
    /// Identifier or keyword (`qreg`, `h`, `q`, ...).
    Ident(&'a str),
    /// Numeric literal (integers and reals lex to the same kind; the
    /// parser re-validates integrality where required).
    Number(f64),
    /// String literal (only used by `include`), without its quotes.
    Str(&'a str),
    /// `OPENQASM` keyword (case-sensitive per the grammar).
    OpenQasm,
    Semicolon,
    Comma,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Plus,
    Minus,
    Star,
    Slash,
    Arrow,
    Eof,
}

impl TokenKind<'_> {
    /// Short printable form for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("`{s}`"),
            TokenKind::Number(v) => format!("number `{v}`"),
            TokenKind::Str(s) => format!("string \"{s}\""),
            TokenKind::OpenQasm => "`OPENQASM`".into(),
            TokenKind::Semicolon => "`;`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::LBracket => "`[`".into(),
            TokenKind::RBracket => "`]`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::Plus => "`+`".into(),
            TokenKind::Minus => "`-`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::Slash => "`/`".into(),
            TokenKind::Arrow => "`->`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// Streaming lexer: [`Lexer::next_token`] yields one token at a time
/// (then `Eof` forever). `//` line comments are skipped. Columns count
/// bytes; a skipped comment does not advance the column.
///
/// A lexical error ends the token stream: the lexer keeps the error and
/// reports `Eof` from then on, so the parser never handles a lexical
/// error itself. [`Lexer::finish`] hands the error back, and it takes
/// precedence over whatever the parser made of the early `Eof`.
pub(crate) struct Lexer<'a> {
    source: &'a str,
    pos: usize,
    line: u32,
    column: u32,
    error: Option<QasmError>,
}

impl<'a> Lexer<'a> {
    pub fn new(source: &'a str) -> Self {
        Lexer {
            source,
            pos: 0,
            line: 1,
            column: 1,
            error: None,
        }
    }

    /// Lexes the rest of the input and returns its lexical error, if it
    /// has one. A lexical error anywhere in the source outranks a syntax
    /// error before it.
    pub fn finish(mut self) -> Option<QasmError> {
        while self.next_token().kind != TokenKind::Eof {}
        self.error
    }

    /// The next token; `Eof` at the end of the input or at a lexical
    /// error (unterminated string, malformed number, a character outside
    /// the grammar), which [`Lexer::finish`] then reports.
    ///
    /// Only the common tokens are lexed here; string literals, reals and
    /// errors have functions of their own.
    pub fn next_token(&mut self) -> Token<'a> {
        let bytes = self.source.as_bytes();
        let mut pos = self.pos;
        loop {
            match bytes.get(pos) {
                Some(b' ' | b'\t' | b'\r') => {
                    pos += 1;
                    self.column += 1;
                }
                Some(b'\n') => {
                    pos += 1;
                    self.line += 1;
                    self.column = 1;
                }
                Some(b'/') if bytes.get(pos + 1) == Some(&b'/') => {
                    pos += bytes[pos..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .unwrap_or(bytes.len() - pos);
                }
                _ => break,
            }
        }
        self.pos = pos;
        let Some(&first) = bytes.get(pos) else {
            return self.token(TokenKind::Eof, 0);
        };
        let kind = match first {
            b';' => TokenKind::Semicolon,
            b',' => TokenKind::Comma,
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'+' => TokenKind::Plus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'-' if bytes.get(pos + 1) == Some(&b'>') => {
                return self.token(TokenKind::Arrow, 2);
            }
            b'-' => TokenKind::Minus,
            b'0'..=b'9' => {
                // Register sizes and indices, the common case: a short
                // run of digits is exact in an `f64` and skips the
                // general float parser.
                let len = bytes[pos..]
                    .iter()
                    .position(|c| !c.is_ascii_digit())
                    .unwrap_or(bytes.len() - pos);
                if len > 15 || matches!(bytes.get(pos + len), Some(b'.' | b'e' | b'E')) {
                    return self.real();
                }
                let int = bytes[pos..pos + len]
                    .iter()
                    .fold(0u64, |n, &c| n * 10 + u64::from(c - b'0'));
                return self.token(TokenKind::Number(int as f64), len);
            }
            b'.' => return self.real(),
            b'"' => return self.string(),
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let len = bytes[pos..]
                    .iter()
                    .position(|&c| !(c.is_ascii_alphanumeric() || c == b'_'))
                    .unwrap_or(bytes.len() - pos);
                let text = &self.source[pos..pos + len];
                let kind = if text == "OPENQASM" {
                    TokenKind::OpenQasm
                } else {
                    TokenKind::Ident(text)
                };
                return self.token(kind, len);
            }
            // A non-ASCII character is reported as the Latin-1 reading of
            // its first byte (`é` shows as `Ã`).
            other => return self.fail(format!("unexpected character `{}`", other as char)),
        };
        self.token(kind, 1)
    }

    /// A numeric literal past the integer fast path: digits, at most one
    /// `.` before any exponent, and one `e`/`E` (not leading) with an
    /// optional sign. The text may still be malformed (`.`, `1e`); the
    /// float parser has the last word.
    fn real(&mut self) -> Token<'a> {
        let bytes = self.source.as_bytes();
        let start = self.pos;
        let mut end = start;
        let mut seen_dot = false;
        let mut seen_exp = false;
        while let Some(&b) = bytes.get(end) {
            if b.is_ascii_digit() {
                end += 1;
            } else if b == b'.' && !seen_dot && !seen_exp {
                seen_dot = true;
                end += 1;
            } else if (b == b'e' || b == b'E') && !seen_exp && end > start {
                seen_exp = true;
                end += 1;
                if matches!(bytes.get(end), Some(b'+' | b'-')) {
                    end += 1;
                }
            } else {
                break;
            }
        }
        let text = &self.source[start..end];
        match text.parse() {
            Ok(value) => self.token(TokenKind::Number(value), end - start),
            Err(_) => self.fail(format!("invalid number literal `{text}`")),
        }
    }

    /// A string literal, which may not span lines.
    fn string(&mut self) -> Token<'a> {
        let start = self.pos + 1;
        let body = &self.source.as_bytes()[start..];
        match body.iter().position(|&c| c == b'"' || c == b'\n') {
            Some(len) if body[len] == b'"' => {
                let text = &self.source[start..start + len];
                self.token(TokenKind::Str(text), len + 2)
            }
            _ => self.fail("unterminated string literal".into()),
        }
    }

    /// A token of `len` bytes at the current position; consumes it.
    fn token(&mut self, kind: TokenKind<'a>, len: usize) -> Token<'a> {
        let token = Token {
            kind,
            line: self.line,
            column: self.column,
        };
        self.pos += len;
        self.column += len as u32;
        token
    }

    /// Records a lexical error at the current position and ends the
    /// token stream there.
    fn fail(&mut self, message: String) -> Token<'a> {
        let eof = Token {
            kind: TokenKind::Eof,
            line: self.line,
            column: self.column,
        };
        self.error = Some(QasmError::new(self.line, self.column, message));
        self.pos = self.source.len();
        eof
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(source: &str) -> Result<Vec<Token<'_>>, QasmError> {
        let mut lexer = Lexer::new(source);
        let mut tokens = Vec::new();
        loop {
            let token = lexer.next_token();
            tokens.push(token);
            if token.kind == TokenKind::Eof {
                return lexer.finish().map_or(Ok(tokens), Err);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_header() {
        let k = kinds("OPENQASM 2.0;");
        assert_eq!(
            k,
            vec![
                TokenKind::OpenQasm,
                TokenKind::Number(2.0),
                TokenKind::Semicolon,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_gate_application() {
        let k = kinds("cx q[0], q[1];");
        assert_eq!(k[0], TokenKind::Ident("cx"));
        assert_eq!(k[1], TokenKind::Ident("q"));
        assert_eq!(k[2], TokenKind::LBracket);
        assert_eq!(k[3], TokenKind::Number(0.0));
        assert_eq!(k[4], TokenKind::RBracket);
        assert_eq!(k[5], TokenKind::Comma);
    }

    #[test]
    fn skips_comments_and_whitespace() {
        let k = kinds("h q[0]; // apply hadamard\nx q[1];");
        let idents: Vec<_> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::Ident(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["h", "q", "x", "q"]);
    }

    #[test]
    fn tracks_line_numbers() {
        let tokens = lex("h q[0];\nx q[1];").unwrap();
        let x_tok = tokens
            .iter()
            .find(|t| t.kind == TokenKind::Ident("x"))
            .unwrap();
        assert_eq!(x_tok.line, 2);
        assert_eq!(x_tok.column, 1);
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("3")[0], TokenKind::Number(3.0));
        assert_eq!(kinds("3.5")[0], TokenKind::Number(3.5));
        assert_eq!(kinds("1e-3")[0], TokenKind::Number(1e-3));
        assert_eq!(kinds("2.5E+2")[0], TokenKind::Number(250.0));
        assert_eq!(kinds(".5")[0], TokenKind::Number(0.5));
        assert_eq!(
            kinds("123456789012345")[0],
            TokenKind::Number(123_456_789_012_345.0)
        );
        assert_eq!(
            kinds("99999999999999999999")[0],
            TokenKind::Number(1e20),
            "long digit strings take the general float path"
        );
    }

    #[test]
    fn lexes_string_literal() {
        assert_eq!(
            kinds("include \"qelib1.inc\";")[1],
            TokenKind::Str("qelib1.inc")
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        let err = lex("include \"qelib1").unwrap_err();
        assert!(err.message().contains("unterminated"));
    }

    #[test]
    fn arrow_and_minus() {
        assert_eq!(kinds("->")[0], TokenKind::Arrow);
        assert_eq!(kinds("-")[0], TokenKind::Minus);
        assert_eq!(kinds("a -> b")[1], TokenKind::Arrow,);
    }

    #[test]
    fn rejects_unknown_character() {
        let err = lex("h q[0]; @").unwrap_err();
        assert!(err.message().contains('@'));
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn expression_tokens() {
        let k = kinds("(pi/2 + -0.5*3)");
        assert!(k.contains(&TokenKind::Ident("pi")));
        assert!(k.contains(&TokenKind::Slash));
        assert!(k.contains(&TokenKind::Plus));
        assert!(k.contains(&TokenKind::Minus));
        assert!(k.contains(&TokenKind::Star));
    }

    #[test]
    fn comment_at_end_of_input_keeps_the_column() {
        let tokens = lex("h q[0] // tail").unwrap();
        let eof = tokens.last().unwrap();
        assert_eq!((eof.line, eof.column), (1, 8));
    }

    #[test]
    fn an_error_ends_the_stream_and_finish_reports_it() {
        let mut lexer = Lexer::new("h q[0];\nx @ y");
        let kinds: Vec<_> = std::iter::from_fn(|| Some(lexer.next_token().kind))
            .take_while(|&k| k != TokenKind::Eof)
            .collect();
        assert_eq!(kinds.last(), Some(&TokenKind::Ident("x")));
        let err = lexer.finish().expect("the `@` is a lexical error");
        assert_eq!((err.line(), err.column()), (2, 3));
        assert!(Lexer::new("h q[0];").finish().is_none());
    }
}
