//! Pattern parser: text to AST.

use crate::RegexError;

/// A set of byte ranges, possibly negated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ByteClass {
    /// Inclusive `(lo, hi)` ranges.
    pub ranges: Vec<(u8, u8)>,
    /// Match bytes *not* in the ranges.
    pub negated: bool,
}

impl ByteClass {
    /// A class matching exactly one byte.
    pub fn single(b: u8) -> Self {
        ByteClass {
            ranges: vec![(b, b)],
            negated: false,
        }
    }

    /// The `.` class: any byte except newline, as grep treats lines.
    pub fn dot() -> Self {
        ByteClass {
            ranges: vec![(b'\n', b'\n')],
            negated: true,
        }
    }

    /// Tests a byte against the class.
    pub fn matches(&self, b: u8) -> bool {
        let inside = self.ranges.iter().any(|&(lo, hi)| lo <= b && b <= hi);
        inside != self.negated
    }
}

/// Parsed pattern syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// One byte from a class.
    Class(ByteClass),
    /// Start-of-text anchor `^`.
    AnchorStart,
    /// End-of-text anchor `$`.
    AnchorEnd,
    /// Concatenation.
    Concat(Vec<Ast>),
    /// Alternation `a|b`.
    Alternate(Vec<Ast>),
    /// `a*` (min 0), `a+` (min 1), `a?` (0 or 1).
    Repeat {
        /// Repeated node.
        node: Box<Ast>,
        /// Minimum repetitions (0 or 1).
        min: u8,
        /// Whether more than one repetition is allowed.
        unbounded: bool,
    },
}

/// Deepest group nesting a pattern may use. The parser recurses once per
/// level, so an unbounded depth would let a pattern overflow the stack.
pub const MAX_NESTING: usize = 250;

struct Parser<'a> {
    pat: &'a [u8],
    pos: usize,
    /// Groups open at `pos`.
    depth: usize,
}

/// Parses a pattern into an AST.
pub fn parse(pattern: &str) -> Result<Ast, RegexError> {
    let mut p = Parser {
        pat: pattern.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let ast = p.alternation()?;
    if p.pos != p.pat.len() {
        return Err(p.error("unexpected ')'"));
    }
    Ok(ast)
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> RegexError {
        RegexError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.pat.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn alternation(&mut self) -> Result<Ast, RegexError> {
        let mut branches = vec![self.concat()?];
        while self.peek() == Some(b'|') {
            self.bump();
            branches.push(self.concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Ast::Alternate(branches)
        })
    }

    fn concat(&mut self) -> Result<Ast, RegexError> {
        let mut parts = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.repeat()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("one part"),
            _ => Ast::Concat(parts),
        })
    }

    fn repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.atom()?;
        match self.peek() {
            Some(q @ (b'*' | b'+' | b'?')) => {
                if matches!(atom, Ast::AnchorStart | Ast::AnchorEnd) {
                    return Err(self.error("cannot repeat an anchor"));
                }
                self.bump();
                // Reject double quantifiers like `a**`.
                if matches!(self.peek(), Some(b'*' | b'+' | b'?')) {
                    return Err(self.error("nothing to repeat"));
                }
                Ok(Ast::Repeat {
                    node: Box::new(atom),
                    min: if q == b'+' { 1 } else { 0 },
                    unbounded: q != b'?',
                })
            }
            _ => Ok(atom),
        }
    }

    fn atom(&mut self) -> Result<Ast, RegexError> {
        match self.bump() {
            None => Err(self.error("unexpected end of pattern")),
            Some(b'(') => {
                if self.depth == MAX_NESTING {
                    self.pos -= 1;
                    return Err(self.error(format!("groups nested deeper than {MAX_NESTING}")));
                }
                self.depth += 1;
                let inner = self.alternation()?;
                self.depth -= 1;
                if self.bump() != Some(b')') {
                    self.pos -= 1;
                    return Err(self.error("unclosed group"));
                }
                Ok(inner)
            }
            Some(b'[') => Ok(Ast::Class(self.class()?)),
            Some(b'.') => Ok(Ast::Class(ByteClass::dot())),
            Some(b'^') => Ok(Ast::AnchorStart),
            Some(b'$') => Ok(Ast::AnchorEnd),
            Some(b'\\') => Ok(Ast::Class(self.escape()?)),
            Some(b @ (b'*' | b'+' | b'?')) => {
                self.pos -= 1;
                Err(self.error(format!("dangling quantifier '{}'", b as char)))
            }
            Some(b')') => {
                self.pos -= 1;
                Err(self.error("unmatched ')'"))
            }
            Some(b) => Ok(Ast::Class(ByteClass::single(b))),
        }
    }

    fn escape(&mut self) -> Result<ByteClass, RegexError> {
        let class = match self.bump() {
            None => return Err(self.error("trailing backslash")),
            Some(b'd') => ByteClass {
                ranges: vec![(b'0', b'9')],
                negated: false,
            },
            Some(b'D') => ByteClass {
                ranges: vec![(b'0', b'9')],
                negated: true,
            },
            Some(b'w') => ByteClass {
                ranges: vec![(b'a', b'z'), (b'A', b'Z'), (b'0', b'9'), (b'_', b'_')],
                negated: false,
            },
            Some(b'W') => ByteClass {
                ranges: vec![(b'a', b'z'), (b'A', b'Z'), (b'0', b'9'), (b'_', b'_')],
                negated: true,
            },
            Some(b's') => ByteClass {
                ranges: vec![(b' ', b' '), (b'\t', b'\r')],
                negated: false,
            },
            Some(b'S') => ByteClass {
                ranges: vec![(b' ', b' '), (b'\t', b'\r')],
                negated: true,
            },
            Some(b'n') => ByteClass::single(b'\n'),
            Some(b'r') => ByteClass::single(b'\r'),
            Some(b't') => ByteClass::single(b'\t'),
            Some(b'0') => ByteClass::single(0),
            Some(b) => ByteClass::single(b),
        };
        Ok(class)
    }

    fn class(&mut self) -> Result<ByteClass, RegexError> {
        let mut negated = false;
        if self.peek() == Some(b'^') {
            self.bump();
            negated = true;
        }
        let mut ranges = Vec::new();
        // POSIX quirk: a ']' immediately after '[' or '[^' is a literal.
        if self.peek() == Some(b']') {
            self.bump();
            ranges.push((b']', b']'));
        }
        loop {
            let lo = match self.bump() {
                None => return Err(self.error("unclosed character class")),
                Some(b']') => break,
                Some(b'\\') => {
                    let c = self.escape()?;
                    if c.ranges.len() == 1 && !c.negated && c.ranges[0].0 == c.ranges[0].1 {
                        c.ranges[0].0
                    } else {
                        // A multi-range escape inside a class contributes
                        // its ranges directly (e.g. `[\d]`).
                        if c.negated {
                            return Err(self.error("negated escape inside class"));
                        }
                        ranges.extend(c.ranges);
                        continue;
                    }
                }
                Some(b) => b,
            };
            if self.peek() == Some(b'-') && self.pat.get(self.pos + 1).is_some_and(|&b| b != b']') {
                self.bump(); // '-'
                let hi = match self.bump() {
                    None => return Err(self.error("unclosed character class")),
                    Some(b'\\') => {
                        let c = self.escape()?;
                        if c.ranges.len() == 1 && c.ranges[0].0 == c.ranges[0].1 {
                            c.ranges[0].0
                        } else {
                            return Err(self.error("bad range endpoint"));
                        }
                    }
                    Some(b) => b,
                };
                if hi < lo {
                    return Err(self.error("reversed range"));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        if ranges.is_empty() {
            return Err(self.error("empty character class"));
        }
        Ok(ByteClass { ranges, negated })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byteclass_matching() {
        let c = ByteClass {
            ranges: vec![(b'a', b'c'), (b'x', b'x')],
            negated: false,
        };
        assert!(c.matches(b'b'));
        assert!(c.matches(b'x'));
        assert!(!c.matches(b'd'));
        let n = ByteClass {
            ranges: c.ranges.clone(),
            negated: true,
        };
        assert!(!n.matches(b'b'));
        assert!(n.matches(b'd'));
    }

    #[test]
    fn parse_shapes() {
        assert_eq!(parse("").unwrap(), Ast::Empty);
        assert!(matches!(parse("a").unwrap(), Ast::Class(_)));
        assert!(matches!(parse("ab").unwrap(), Ast::Concat(_)));
        assert!(matches!(parse("a|b").unwrap(), Ast::Alternate(_)));
        assert!(matches!(parse("a*").unwrap(), Ast::Repeat { min: 0, .. }));
        assert!(matches!(parse("a+").unwrap(), Ast::Repeat { min: 1, .. }));
        assert!(matches!(
            parse("a?").unwrap(),
            Ast::Repeat {
                unbounded: false,
                ..
            }
        ));
    }

    #[test]
    fn parse_class_details() {
        let Ast::Class(c) = parse("[a-z]").unwrap() else {
            panic!("expected class");
        };
        assert_eq!(c.ranges, vec![(b'a', b'z')]);
        let Ast::Class(c) = parse("[-a]").unwrap() else {
            panic!("expected class");
        };
        assert!(c.matches(b'-'));
        let Ast::Class(c) = parse("[a-]").unwrap() else {
            panic!("expected class");
        };
        assert!(c.matches(b'-'));
        assert!(c.matches(b'a'));
    }

    #[test]
    fn parse_errors() {
        assert!(parse("[z-a]").is_err());
        assert!(parse("[").is_err());
        assert!(parse("(a").is_err());
        assert!(parse(")").is_err());
        assert!(parse("\\").is_err());
        assert!(parse("+a").is_err());
        assert!(parse("^*").is_err());
    }

    #[test]
    fn group_flattens_to_inner() {
        assert_eq!(parse("(a)").unwrap(), parse("a").unwrap());
    }
}
