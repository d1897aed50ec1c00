//! SQL tokenizer.

use orthopt_common::{Error, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (identifiers lower-cased; keyword-ness is
    /// decided by the parser).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes removed, `''` unescaped).
    Str(String),
    /// Punctuation / operator.
    Symbol(Sym),
}

/// Punctuation and operator symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semi,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
}

/// A token as the scanner meets it, its text borrowed from the input:
/// an identifier before lower-casing, a string literal's body with its
/// `''` escapes still doubled.
enum Lexeme<'a> {
    Ident(&'a str),
    Int(i64),
    Float(f64),
    Str(&'a str),
    Symbol(Sym),
}

/// The one SQL scanner: hands each lexeme of `sql` to `emit`, skipping
/// whitespace and `--` comments.
fn scan<'a>(sql: &'a str, mut emit: impl FnMut(Lexeme<'a>)) -> Result<()> {
    let bytes = sql.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                emit(Lexeme::Symbol(Sym::LParen));
                i += 1;
            }
            ')' => {
                emit(Lexeme::Symbol(Sym::RParen));
                i += 1;
            }
            ',' => {
                emit(Lexeme::Symbol(Sym::Comma));
                i += 1;
            }
            '.' => {
                emit(Lexeme::Symbol(Sym::Dot));
                i += 1;
            }
            ';' => {
                emit(Lexeme::Symbol(Sym::Semi));
                i += 1;
            }
            '=' => {
                emit(Lexeme::Symbol(Sym::Eq));
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                emit(Lexeme::Symbol(Sym::Ne));
                i += 2;
            }
            '<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    emit(Lexeme::Symbol(Sym::Le));
                    i += 2;
                }
                Some(b'>') => {
                    emit(Lexeme::Symbol(Sym::Ne));
                    i += 2;
                }
                _ => {
                    emit(Lexeme::Symbol(Sym::Lt));
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    emit(Lexeme::Symbol(Sym::Ge));
                    i += 2;
                } else {
                    emit(Lexeme::Symbol(Sym::Gt));
                    i += 1;
                }
            }
            '+' => {
                emit(Lexeme::Symbol(Sym::Plus));
                i += 1;
            }
            '-' => {
                emit(Lexeme::Symbol(Sym::Minus));
                i += 1;
            }
            '*' => {
                emit(Lexeme::Symbol(Sym::Star));
                i += 1;
            }
            '/' => {
                emit(Lexeme::Symbol(Sym::Slash));
                i += 1;
            }
            '\'' => {
                let start = i + 1;
                i = start;
                loop {
                    match bytes.get(i) {
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => i += 2,
                        Some(b'\'') => break,
                        Some(_) => i += 1,
                        None => return Err(Error::Parse("unterminated string literal".into())),
                    }
                }
                emit(Lexeme::Str(&sql[start..i]));
                i += 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    is_float = true;
                    i += 1;
                    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &sql[start..i];
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| Error::Parse(format!("bad float literal {text}")))?;
                    emit(Lexeme::Float(v));
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| Error::Parse(format!("bad int literal {text}")))?;
                    emit(Lexeme::Int(v));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                emit(Lexeme::Ident(&sql[start..i]));
            }
            other => {
                return Err(Error::Parse(format!(
                    "unexpected character {other:?} at byte {i}"
                )))
            }
        }
    }
    Ok(())
}

/// Tokenizes SQL text.
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    scan(sql, |lexeme| {
        out.push(match lexeme {
            Lexeme::Ident(s) => Token::Ident(s.to_ascii_lowercase()),
            Lexeme::Int(v) => Token::Int(v),
            Lexeme::Float(v) => Token::Float(v),
            Lexeme::Str(body) => {
                let mut s = String::with_capacity(body.len());
                let mut bytes = body.bytes();
                while let Some(b) = bytes.next() {
                    s.push(b as char);
                    if b == b'\'' {
                        bytes.next(); // the second quote of `''`
                    }
                }
                Token::Str(s)
            }
            Lexeme::Symbol(s) => Token::Symbol(s),
        });
    })?;
    Ok(out)
}

/// `sql`'s token stream as one byte string, built without a per-token
/// allocation: two texts have equal fingerprints exactly when they
/// tokenize to equal streams, so layout, keyword case and comments drop
/// out while literals stay exact. The engine's plan cache keys on it.
pub fn fingerprint(sql: &str) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(sql.len() + 16);
    scan(sql, |lexeme| match lexeme {
        // Identifier bytes are alphanumerics or `_`, never a tag, so the
        // next tag ends one.
        Lexeme::Ident(s) => {
            out.push(0);
            out.extend(s.bytes().map(|b| b.to_ascii_lowercase()));
        }
        // A body has one spelling per unescaped string: every quote in
        // it is doubled.
        Lexeme::Str(body) => {
            out.push(1);
            out.extend(body.len().to_le_bytes());
            out.extend(body.bytes());
        }
        Lexeme::Int(v) => {
            out.push(2);
            out.extend(v.to_le_bytes());
        }
        // Never a NaN or a negative zero (a sign is a token of its own):
        // equal floats are equal bits.
        Lexeme::Float(v) => {
            out.push(3);
            out.extend(v.to_bits().to_le_bytes());
        }
        Lexeme::Symbol(s) => out.extend([4, s as u8]),
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_basic_query() {
        let toks = tokenize("SELECT a, b FROM t WHERE a >= 10.5").unwrap();
        assert_eq!(toks[0], Token::Ident("select".into()));
        assert!(toks.contains(&Token::Symbol(Sym::Ge)));
        assert!(toks.contains(&Token::Float(10.5)));
    }

    #[test]
    fn string_escapes() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's".into())]);
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("select -- comment\n 1").unwrap();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn ne_forms() {
        assert_eq!(
            tokenize("<> !=").unwrap(),
            vec![Token::Symbol(Sym::Ne), Token::Symbol(Sym::Ne)]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(tokenize("1e3").unwrap(), vec![Token::Float(1000.0)]);
    }

    #[test]
    fn fingerprints_agree_with_token_streams() {
        let texts = [
            "select k from t where s = 'a b'",
            "SELECT  k\nFROM t -- note\nwhere s = 'a b'",
            "select k from t where s = 'a  b'",
            "select k from t where s = 'it''s'",
            "select k from t where s = 'it''''s'",
            "select k from t -- x\nwhere v = 1",
            "select k from t -- x where v = 1",
            "select k from t where v = 1e3",
            "select k from t where v = 1000.0",
            "select k from t where v = 1000",
            "select k from t where v = '1000'",
            "select k from t where v = 007",
            "select k from t where v = 7",
            "select k from tv",
            "select k from t v",
        ];
        for a in texts {
            for b in texts {
                assert_eq!(
                    fingerprint(a).unwrap() == fingerprint(b).unwrap(),
                    tokenize(a).unwrap() == tokenize(b).unwrap(),
                    "{a:?} vs {b:?}"
                );
            }
        }
        assert!(fingerprint("'oops").is_err());
    }
}
