//! A small byte-oriented regular expression engine.
//!
//! The simulated `grep` needs a matcher; this crate provides one built the
//! classical way — a recursive-descent parser to an AST ([`ast`]), a
//! compiler to NFA byte-code ([`compile`]), and a Pike-VM executor
//! ([`vm`]) that runs in `O(pattern × text)` with no backtracking blowup.
//!
//! Supported syntax: literals, `.`, classes `[a-z0-9]` / `[^...]`, escapes
//! (`\d \D \w \W \s \S \n \r \t \\` and escaped metacharacters), anchors
//! `^` / `$`, repetition `* + ?`, alternation `|`, and grouping `(...)`,
//! nested at most [`ast::MAX_NESTING`] deep.
//! Matching is leftmost-first: [`Regex::find`] returns the match that
//! starts earliest and, among those, the one the pattern prefers — the
//! left branch of an alternation, the longer run of a greedy repeat — so
//! `a|ab` finds `a` in `xab`.
//!
//! The compiler also derives a prefilter ([`compile::Prefilter`]) from the
//! start of the program: the bytes that can begin a match, extended to a
//! literal prefix where every match begins with the same bytes. The VM
//! skips straight to the next position that passes it, so a fixed-string
//! search costs about one word-at-a-time scan of the text plus the VM at
//! each candidate. The prefilter never changes an answer, and it leaves
//! the program — and [`Regex::instruction_count`] — as it was.

pub mod ast;
pub mod compile;
pub mod vm;

use ast::parse;
use compile::{compile, Prog};

/// A compile error, with the byte position in the pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegexError {
    /// Byte offset in the pattern where parsing failed.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for RegexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "regex error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for RegexError {}

/// A compiled regular expression.
#[derive(Clone, Debug)]
pub struct Regex {
    prog: Prog,
    pattern: String,
}

impl Regex {
    /// Compiles a pattern.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let ast = parse(pattern)?;
        Ok(Regex {
            prog: compile(&ast),
            pattern: pattern.to_string(),
        })
    }

    /// Compiles a fixed string (every byte literal), like `grep -F`.
    pub fn literal(text: &str) -> Regex {
        let mut escaped = String::with_capacity(text.len() * 2);
        for c in text.chars() {
            if "\\.^$*+?()[]|".contains(c) {
                escaped.push('\\');
            }
            escaped.push(c);
        }
        Regex::new(&escaped).expect("escaped literal always parses")
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of compiled instructions — a proxy for per-byte match cost,
    /// used by the simulator's CPU accounting.
    pub fn instruction_count(&self) -> usize {
        self.prog.insts.len()
    }

    /// Does the pattern match anywhere in `hay`?
    pub fn is_match(&self, hay: &[u8]) -> bool {
        vm::search(&self.prog, hay).is_some()
    }

    /// Finds the leftmost match, returning `(start, end)` byte offsets.
    pub fn find(&self, hay: &[u8]) -> Option<(usize, usize)> {
        vm::search(&self.prog, hay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, hay: &str) -> bool {
        Regex::new(pat).unwrap().is_match(hay.as_bytes())
    }

    fn f(pat: &str, hay: &str) -> Option<(usize, usize)> {
        Regex::new(pat).unwrap().find(hay.as_bytes())
    }

    #[test]
    fn literals() {
        assert!(m("abc", "xxabcxx"));
        assert!(!m("abc", "ab"));
        assert!(m("", "anything"));
    }

    #[test]
    fn dot_and_classes() {
        assert!(m("a.c", "abc"));
        assert!(m("a.c", "a:c"));
        assert!(!m("a.c", "ac"));
        assert!(m("[a-c]x", "bx"));
        assert!(!m("[a-c]x", "dx"));
        assert!(m("[^a-c]x", "dx"));
        assert!(!m("[^a-c]x", "ax"));
        assert!(m("[abc-]", "-"));
        assert!(m("[]]", "]"));
    }

    #[test]
    fn escapes() {
        assert!(m(r"\d+", "x42y"));
        assert!(!m(r"\d", "abc"));
        assert!(m(r"\w+", "hello_9"));
        assert!(m(r"\s", "a b"));
        assert!(m(r"\.", "a.b"));
        assert!(!m(r"\.", "ab"));
        assert!(m(r"a\\b", r"a\b"));
        assert!(m(r"\S\S", "ab"));
        assert!(m(r"\D", "x"));
        assert!(!m(r"\D", "5"));
        assert!(!m(r"\W", "a9_"));
    }

    #[test]
    fn anchors() {
        assert!(m("^abc", "abcdef"));
        assert!(!m("^abc", "xabc"));
        assert!(m("def$", "abcdef"));
        assert!(!m("def$", "defabc"));
        assert!(m("^$", ""));
        assert!(!m("^$", "x"));
        assert!(m("^abc$", "abc"));
        // A start closure that schedules no thread must not stop later
        // positions from being tried.
        assert_eq!(f("$", "ab"), Some((2, 2)));
        assert_eq!(f("^x|$", "ab"), Some((2, 2)));
    }

    #[test]
    fn repetition() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbc"));
        assert!(m("ab+c", "abc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab?c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(!m("ab?c", "abbc"));
        assert!(m("a[0-9]*z", "a123z"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "hotdog"));
        assert!(m("cat|dog", "catnip"));
        assert!(!m("cat|dog", "bird"));
        assert!(m("a(b|c)d", "acd"));
        assert!(m("(ab)+", "ababab"));
        assert!(!m("^(ab)+$", "aba"));
        assert!(m("^(a|bc)*$", "abcbca"));
    }

    #[test]
    fn find_is_leftmost() {
        assert_eq!(f("o", "foo"), Some((1, 2)));
        assert_eq!(f("o+", "foo"), Some((1, 3)));
        assert_eq!(f("a|ab", "xab"), Some((1, 2)));
        assert_eq!(f("ab|a", "xab"), Some((1, 3)));
        assert_eq!(f("x", "abc"), None);
        assert_eq!(f("", "ab"), Some((0, 0)));
    }

    #[test]
    fn literal_constructor_escapes_everything() {
        let r = Regex::literal("a.c*");
        assert!(r.is_match(b"xa.c*y"));
        assert!(!r.is_match(b"abc"));
        assert!(!r.is_match(b"a.ccc"));
        let r = Regex::literal(r"\d[");
        assert!(r.is_match(br"\d["));
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in ["a(", "a)", "[a", "a**", "*a", "a|*", "a\\"] {
            let e = Regex::new(bad);
            assert!(e.is_err(), "{bad:?} should fail");
        }
        let err = Regex::new("ab(").unwrap_err();
        assert_eq!(err.position, 2);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        assert!(m(&nested(ast::MAX_NESTING), "a"));
        let err = Regex::new(&nested(ast::MAX_NESTING + 1)).unwrap_err();
        assert_eq!(err.position, ast::MAX_NESTING);
        let err = Regex::new(&nested(100_000)).unwrap_err();
        assert_eq!(err.position, ast::MAX_NESTING);
        // Sibling groups do not nest, however many there are.
        assert!(m(&"(a)".repeat(1000), &"a".repeat(1000)));
    }

    #[test]
    fn kernel_grep_style_patterns() {
        // The paper's motivating example: searching a source tree for a
        // routine name.
        let r = Regex::new(r"sleds_pick_\w+\(").unwrap();
        assert!(r.is_match(b"    sleds_pick_init(fd, BUFSIZE);"));
        assert!(r.is_match(b"rc = sleds_pick_next_read(fd, &off, &n);"));
        assert!(!r.is_match(b"sleds_pick = 3;"));
    }

    #[test]
    fn binary_bytes_are_fine() {
        let r = Regex::new("a.c").unwrap();
        assert!(r.is_match(b"a\x00c"));
        assert!(r.is_match(b"\xffa\xfec\xfd"));
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // (a?)^n a^n on a^n — classic backtracking killer; the Pike VM
        // must handle it instantly.
        let n = 24;
        let pat = format!("{}{}", "a?".repeat(n), "a".repeat(n));
        let hay = "a".repeat(n);
        assert!(m(&pat, &hay));
    }

    #[test]
    fn instruction_count_reflects_size() {
        let small = Regex::new("abc").unwrap();
        let big = Regex::new("(abc|def)+[0-9]{0}x*y+z?").unwrap_or_else(|_| {
            // `{0}` isn't supported syntax; use an equivalent larger pattern.
            Regex::new("(abc|def)+x*y+z?").unwrap()
        });
        assert!(big.instruction_count() > small.instruction_count());
    }

    #[test]
    fn instruction_counts_of_shipped_patterns_are_pinned() {
        // The simulated grep charges virtual CPU from this count, so every
        // paper figure depends on these values.
        for (pat, count) in [
            ("needle", 7),
            ("zzz", 4),
            (r"sleds_pick_\w+\(", 15),
            ("ZQXJ", 5),
            ("x", 2),
            ("ZQXJKV", 7),
            ("abcdefgh", 9),
            ("[a-m]*nop", 7),
            ("cat|dog|bird|fish", 21),
            ("zyzzyva", 8),
        ] {
            assert_eq!(Regex::new(pat).unwrap().instruction_count(), count, "{pat}");
        }
        assert_eq!(Regex::literal("zyzzyva").instruction_count(), 8);
        assert_eq!(Regex::literal("needle").instruction_count(), 7);
    }
}
