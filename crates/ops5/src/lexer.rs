//! Tokeniser for OPS5 source text.
//!
//! Tokens borrow the source: a name, a variable or a text is a slice of
//! it, so lexing allocates the token list and nothing else. The scan goes
//! over bytes and decodes a `char` only where a byte is not ASCII;
//! characters are classed as `char` classes them (`is_whitespace`,
//! `is_alphanumeric`), so a non-ASCII letter is a name character and a
//! non-ASCII space separates tokens.

use crate::{Error, Result};
use std::fmt::Display;

/// A lexical token.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Token<'a> {
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `<<` (disjunction open).
    LDisj,
    /// `>>` (disjunction close).
    RDisj,
    /// `-->`.
    Arrow,
    /// Standalone `-` (condition-element negation / compute operator).
    Minus,
    /// `^attr` — attribute selector.
    Attr(&'a str),
    /// `<x>` — variable reference.
    Var(&'a str),
    /// A predicate operator: `=`, `<>`, `<`, `<=`, `>`, `>=`, `<=>`.
    Pred(&'static str),
    /// A bare symbol / identifier (including `+`, `*`, `//`, `mod` which the
    /// parser interprets contextually inside `compute`).
    Sym(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `|quoted text|`.
    Text(&'a str),
}

/// A token plus its 1-based source line (for error messages).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spanned<'a> {
    /// The token.
    pub tok: Token<'a>,
    /// 1-based line number.
    pub line: u32,
}

/// The punctuation a name may hold besides letters and digits.
const NAME_PUNCTUATION: &str = "-_.?!*+/$&:#%";

fn is_sym_char(c: char) -> bool {
    c.is_alphanumeric() || NAME_PUNCTUATION.contains(c)
}

/// `is_sym_char` of each ASCII byte, for the scan's inner loop; `false`
/// for every byte of a non-ASCII character, which is classed as a `char`.
const NAME_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 128 {
        table[b] = (b as u8).is_ascii_alphanumeric();
        b += 1;
    }
    let mut i = 0;
    while i < NAME_PUNCTUATION.len() {
        table[NAME_PUNCTUATION.as_bytes()[i] as usize] = true;
        i += 1;
    }
    table
};

/// Tokenises OPS5 source. Comments run from `;` to end of line.
///
/// The tokens are counted before they are stored, so the list is the one
/// allocation and holds no spare capacity.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>> {
    let mut count = Lexer::new(src);
    let mut n = 0;
    while count.token()?.is_some() {
        n += 1;
    }
    let mut out = Vec::with_capacity(n);
    let mut lexer = Lexer::new(src);
    while let Some(tok) = lexer.token()? {
        out.push(Spanned {
            tok,
            line: lexer.line,
        });
    }
    Ok(out)
}

/// A position in the source and the line it is on.
struct Lexer<'a> {
    src: &'a str,
    at: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            at: 0,
            line: 1,
        }
    }

    /// The character at byte `i`, decoded only if its byte is not ASCII.
    fn char_at(&self, i: usize) -> Option<char> {
        match *self.src.as_bytes().get(i)? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.src[i..].chars().next(),
        }
    }

    /// Consumes the next byte if it is `b`.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.src.as_bytes().get(self.at) == Some(&b);
        self.at += usize::from(hit);
        hit
    }

    /// Consumes name characters; the name runs from `start` to them.
    fn name(&mut self, start: usize) -> &'a str {
        loop {
            let rest = &self.src.as_bytes()[self.at..];
            self.at += rest
                .iter()
                .take_while(|&&b| NAME_BYTE[usize::from(b)])
                .count();
            match self.char_at(self.at) {
                Some(c) if !c.is_ascii() && c.is_alphanumeric() => self.at += c.len_utf8(),
                _ => return &self.src[start..self.at],
            }
        }
    }

    /// Consumes up to and past the next `stop` byte, counting the lines it
    /// passes; what lies before it, or `None` (at the end) if there is none.
    fn until(&mut self, stop: u8) -> Option<&'a str> {
        let rest = &self.src[self.at..];
        let end = rest.bytes().position(|b| b == stop);
        let skipped = &rest[..end.unwrap_or(rest.len())];
        self.line += skipped.bytes().filter(|&b| b == b'\n').count() as u32;
        self.at += end.map_or(rest.len(), |k| k + 1);
        end.map(|_| skipped)
    }

    fn err(&self, msg: impl Display) -> Error {
        Error::Parse(format!("line {}: {msg}", self.line))
    }

    /// The next token, or `None` at the end of the source. Inlined into
    /// both of `lex`'s passes, so the counting one builds no token.
    #[inline(always)]
    fn token(&mut self) -> Result<Option<Token<'a>>> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.at) {
            let start = self.at;
            self.at += 1;
            let tok = match b {
                b'\n' => {
                    self.line += 1;
                    continue;
                }
                // The ASCII characters `char::is_whitespace` holds.
                b'\t' | 0x0B | 0x0C | b'\r' | b' ' => continue,
                b';' => {
                    // comment to end of line
                    if self.until(b'\n').is_some() {
                        self.line += 1;
                    }
                    continue;
                }
                b'(' => Token::LParen,
                b')' => Token::RParen,
                b'{' => Token::LBrace,
                b'}' => Token::RBrace,
                b'^' => match self.name(self.at) {
                    "" => return Err(self.err("'^' without attribute name")),
                    name => Token::Attr(name),
                },
                b'|' => match self.until(b'|') {
                    Some(text) => Token::Text(text),
                    None => return Err(self.err("unterminated |text|")),
                },
                b'=' => Token::Pred("="),
                b'>' if self.eat(b'>') => Token::RDisj,
                b'>' if self.eat(b'=') => Token::Pred(">="),
                b'>' => Token::Pred(">"),
                b'<' if self.eat(b'<') => Token::LDisj,
                b'<' if self.eat(b'>') => Token::Pred("<>"),
                b'<' if self.eat(b'=') => {
                    if self.eat(b'>') {
                        Token::Pred("<=>")
                    } else {
                        Token::Pred("<=")
                    }
                }
                b'<' if self.char_at(self.at).is_some_and(is_sym_char) => {
                    let name = self.name(self.at);
                    if !self.eat(b'>') {
                        return Err(self.err(format_args!("unterminated variable '<{name}'")));
                    }
                    Token::Var(name)
                }
                b'<' => Token::Pred("<"),
                b'-' if self.eat(b'-') => {
                    if !self.eat(b'>') {
                        return Err(self.err("expected '-->'"));
                    }
                    Token::Arrow
                }
                b'-' if matches!(bytes.get(self.at), Some(b'0'..=b'9' | b'.')) => {
                    self.number(start)?
                }
                b'-' => Token::Minus,
                b'0'..=b'9' => self.number(start)?,
                // `\\` is OPS5's modulus operator; lex as the symbol "mod".
                b'\\' => {
                    self.eat(b'\\');
                    Token::Sym("mod")
                }
                b if NAME_BYTE[usize::from(b)] => Token::Sym(self.name(start)),
                _ => {
                    let c = self.char_at(start).expect("a character starts here");
                    self.at = start + c.len_utf8();
                    if c.is_alphanumeric() {
                        Token::Sym(self.name(start))
                    } else if c.is_whitespace() {
                        continue;
                    } else {
                        return Err(self.err(format_args!("unexpected character '{c}'")));
                    }
                }
            };
            return Ok(Some(tok));
        }
        Ok(None)
    }

    /// A number from `start`, its sign or first digit, which is consumed.
    fn number(&mut self, start: usize) -> Result<Token<'a>> {
        let bytes = self.src.as_bytes();
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.at) {
            match b {
                b'0'..=b'9' => {}
                b'.' => is_float = true,
                b'e' | b'E' => {
                    is_float = true;
                    if matches!(bytes.get(self.at + 1), Some(b'+' | b'-')) {
                        self.at += 1;
                    }
                }
                _ => break,
            }
            self.at += 1;
        }
        let s = &self.src[start..self.at];
        if is_float {
            s.parse::<f64>()
                .map(Token::Float)
                .map_err(|_| self.err(format_args!("bad float literal '{s}'")))
        } else {
            s.parse::<i64>()
                .map(Token::Int)
                .map_err(|_| self.err(format_args!("bad integer literal '{s}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_production_shape() {
        let t = toks("(p r1 (a ^x 1) --> (make b))");
        assert_eq!(
            t,
            vec![
                Token::LParen,
                Token::Sym("p"),
                Token::Sym("r1"),
                Token::LParen,
                Token::Sym("a"),
                Token::Attr("x"),
                Token::Int(1),
                Token::RParen,
                Token::Arrow,
                Token::LParen,
                Token::Sym("make"),
                Token::Sym("b"),
                Token::RParen,
                Token::RParen,
            ]
        );
    }

    #[test]
    fn variables_vs_predicates() {
        assert_eq!(toks("<x>"), vec![Token::Var("x")]);
        assert_eq!(toks("<="), vec![Token::Pred("<=")]);
        assert_eq!(toks("<=>"), vec![Token::Pred("<=>")]);
        assert_eq!(toks("<>"), vec![Token::Pred("<>")]);
        assert_eq!(toks("<"), vec![Token::Pred("<")]);
        assert_eq!(toks(">="), vec![Token::Pred(">=")]);
        assert_eq!(
            toks("<< a b >>"),
            vec![Token::LDisj, Token::Sym("a"), Token::Sym("b"), Token::RDisj]
        );
        assert_eq!(toks("<r1>"), vec![Token::Var("r1")]);
    }

    #[test]
    fn numbers_and_negatives() {
        assert_eq!(toks("42"), vec![Token::Int(42)]);
        assert_eq!(toks("-42"), vec![Token::Int(-42)]);
        assert_eq!(toks("3.5"), vec![Token::Float(3.5)]);
        assert_eq!(toks("-3.5"), vec![Token::Float(-3.5)]);
        assert_eq!(toks("1e3"), vec![Token::Float(1000.0)]);
        assert_eq!(toks("- 5"), vec![Token::Minus, Token::Int(5)]);
    }

    #[test]
    fn arrow_vs_minus() {
        assert_eq!(toks("-->"), vec![Token::Arrow]);
        assert_eq!(
            toks("-(goal)"),
            vec![
                Token::Minus,
                Token::LParen,
                Token::Sym("goal"),
                Token::RParen
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let t = toks("(a) ; this is a comment\n(b)");
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn quoted_text() {
        assert_eq!(toks("|hello world|"), vec![Token::Text("hello world")]);
        assert!(lex("|unterminated").is_err());
    }

    #[test]
    fn symbols_with_hyphens() {
        assert_eq!(
            toks("terminal-building"),
            vec![Token::Sym("terminal-building")]
        );
    }

    #[test]
    fn error_positions_carry_line_numbers() {
        let err = lex("(a)\n(b ^)").unwrap_err();
        match err {
            Error::Parse(m) => assert!(m.contains("line 2"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn modulus_lexes_as_mod() {
        assert_eq!(toks("\\\\"), vec![Token::Sym("mod")]);
    }

    /// `line:token` for every token, or the error.
    fn render(src: &str) -> String {
        match lex(src) {
            Ok(toks) => toks
                .iter()
                .map(|s| format!("{}:{:?}", s.line, s.tok))
                .collect::<Vec<_>>()
                .join(" "),
            Err(e) => format!("{e}"),
        }
    }

    /// Every branch of the lexer on a source that reaches it: the tokens
    /// and their lines, or the error and its line.
    #[test]
    fn the_corpus_lexes_as_pinned() {
        let corpus: &[(&str, &str)] = &[
            // CRLF, TAB, VT and FF are whitespace; only LF counts a line.
            (
                "(a\r\n^b\t<c>\x0B\x0C)\r\n-",
                r#"1:LParen 1:Sym("a") 2:Attr("b") 2:Var("c") 2:RParen 3:Minus"#,
            ),
            // So are U+00A0, U+2028, U+2029 and U+0085, and none counts one.
            ("a\u{a0}b\u{2028}c", r#"1:Sym("a") 1:Sym("b") 1:Sym("c")"#),
            (
                "x\u{2029}\u{85}y ~",
                "parse error: line 1: unexpected character '~'",
            ),
            // A non-ASCII letter is a symbol character anywhere.
            (
                "café <état> ^nœud",
                r#"1:Sym("café") 1:Var("état") 1:Attr("nœud")"#,
            ),
            ("(a)\n\n é", r#"1:LParen 1:Sym("a") 1:RParen 3:Sym("é")"#),
            (".5 -é", r#"1:Sym(".5") 1:Minus 1:Sym("é")"#),
            (
                "a \u{2192}",
                "parse error: line 1: unexpected character '\u{2192}'",
            ),
            ("(a) @", "parse error: line 1: unexpected character '@'"),
            // Text spans lines; the lines it spans count.
            (
                "|one\ntwo| x\n\n^",
                "parse error: line 4: '^' without attribute name",
            ),
            (
                "|one\ntwo| x\n\n<y",
                "parse error: line 4: unterminated variable '<y'",
            ),
            (
                "a\n|open\nstill",
                "parse error: line 3: unterminated |text|",
            ),
            // Numbers.
            (
                "-.5 1. 1e3 -2E-1 7",
                "1:Float(-0.5) 1:Float(1.0) 1:Float(1000.0) 1:Float(-0.2) 1:Int(7)",
            ),
            ("1e+", "parse error: line 1: bad float literal '1e+'"),
            ("1.2.3", "parse error: line 1: bad float literal '1.2.3'"),
            ("-.x", "parse error: line 1: bad float literal '-.'"),
            (
                "99999999999999999999",
                "parse error: line 1: bad integer literal '99999999999999999999'",
            ),
            // Variables, predicates, disjunctions, braces.
            ("<1x> <a-b?>", r#"1:Var("1x") 1:Var("a-b?")"#),
            ("(<x", "parse error: line 1: unterminated variable '<x'"),
            (
                "<< >> <= <=> <> < > >= = {}",
                r#"1:LDisj 1:RDisj 1:Pred("<=") 1:Pred("<=>") 1:Pred("<>") 1:Pred("<") 1:Pred(">") 1:Pred(">=") 1:Pred("=") 1:LBrace 1:RBrace"#,
            ),
            // Symbols, the modulus, a lone `^`, a broken arrow.
            (
                "a + * / // $x &y :z #w %v !u",
                r##"1:Sym("a") 1:Sym("+") 1:Sym("*") 1:Sym("/") 1:Sym("//") 1:Sym("$x") 1:Sym("&y") 1:Sym(":z") 1:Sym("#w") 1:Sym("%v") 1:Sym("!u")"##,
            ),
            ("\\\\ \\ 5", r#"1:Sym("mod") 1:Sym("mod") 1:Int(5)"#),
            ("^", "parse error: line 1: '^' without attribute name"),
            ("--", "parse error: line 1: expected '-->'"),
            // Comments, one at EOF with no newline.
            (
                "(a) ; c\n(b)",
                r#"1:LParen 1:Sym("a") 1:RParen 2:LParen 2:Sym("b") 2:RParen"#,
            ),
            (
                "- (a) ; comment at EOF",
                r#"1:Minus 1:LParen 1:Sym("a") 1:RParen"#,
            ),
        ];
        for (src, want) in corpus {
            assert_eq!(render(src), *want, "lexing {src:?}");
        }
        assert!((0..=255u8)
            .all(|b| NAME_BYTE[usize::from(b)] == (b.is_ascii() && is_sym_char(char::from(b)))));
    }
}
