//! Fuzz-style property tests: the engine must never panic, must agree
//! with naive algorithms on simple pattern classes, and must behave
//! linearly on adversarial inputs.
//!
//! Runs under the in-repo `check` harness; enable with
//! `cargo test -p sleds-textmatch --features proptests`.

use sleds_sim_core::{check, DetRng};
use sleds_textmatch::ast::parse;
use sleds_textmatch::compile::{compile, Inst, Prog};
use sleds_textmatch::Regex;

/// A random string drawn from an explicit alphabet, length in `[min, max]`.
fn from_alphabet(rng: &mut DetRng, alphabet: &[u8], min: usize, max: usize) -> String {
    let len = rng.range_usize(min, max + 1);
    (0..len)
        .map(|_| alphabet[rng.range_usize(0, alphabet.len())] as char)
        .collect()
}

/// Arbitrary pattern strings either compile or error — never panic —
/// and compiled patterns never panic on arbitrary haystacks.
#[test]
fn no_panics_on_arbitrary_patterns() {
    check::run("no_panics_on_arbitrary_patterns", |rng| {
        let pattern = check::ascii(rng, 20);
        let hay = check::bytes(rng, 200);
        if let Ok(re) = Regex::new(&pattern) {
            let _ = re.is_match(&hay);
            let _ = re.find(&hay);
        }
    });
}

/// Literal patterns agree with substring search.
#[test]
fn literals_agree_with_substring_search() {
    check::run("literals_agree_with_substring_search", |rng| {
        let needle = from_alphabet(rng, b"abcdefghijklmnopqrstuvwxyz", 1, 6);
        let hay = from_alphabet(rng, b"abcdefghijklmnopqrstuvwxyz\n ", 0, 300);
        let re = Regex::new(&needle).unwrap();
        let expect = hay
            .as_bytes()
            .windows(needle.len())
            .position(|w| w == needle.as_bytes());
        match (re.find(hay.as_bytes()), expect) {
            (Some((s, e)), Some(pos)) => {
                assert_eq!(s, pos);
                assert_eq!(e, pos + needle.len());
            }
            (None, None) => {}
            (got, want) => panic!("find {got:?} vs naive {want:?}"),
        }
    });
}

/// Alternations of literals agree with trying each literal.
#[test]
fn alternation_agrees_with_any() {
    check::run("alternation_agrees_with_any", |rng| {
        let nwords = rng.range_usize(1, 5);
        let words: Vec<String> = (0..nwords)
            .map(|_| from_alphabet(rng, b"abcdefghijklmnopqrstuvwxyz", 1, 5))
            .collect();
        let hay = from_alphabet(rng, b"abcdefghijklmnopqrstuvwxyz ", 0, 200);
        let pattern = words.join("|");
        let re = Regex::new(&pattern).unwrap();
        let naive = words.iter().any(|w| hay.contains(w.as_str()));
        assert_eq!(re.is_match(hay.as_bytes()), naive);
    });
}

/// Anchored exact matches agree with string equality.
#[test]
fn full_anchored_match_is_equality() {
    check::run("full_anchored_match_is_equality", |rng| {
        let word = from_alphabet(rng, b"abcdefghijklmnopqrstuvwxyz", 0, 8);
        let hay = from_alphabet(rng, b"abcdefghijklmnopqrstuvwxyz", 0, 8);
        let re = Regex::new(&format!("^{word}$")).unwrap();
        assert_eq!(re.is_match(hay.as_bytes()), word == hay);
    });
}

/// `find` always returns a valid, in-bounds span whose text rematches.
#[test]
fn find_spans_are_valid() {
    check::run("find_spans_are_valid", |rng| {
        let pattern = from_alphabet(rng, b"abc.?*|()[]", 1, 8);
        let hay = from_alphabet(rng, b"abc", 0, 100);
        if let Ok(re) = Regex::new(&pattern) {
            if let Some((s, e)) = re.find(hay.as_bytes()) {
                assert!(s <= e);
                assert!(e <= hay.len());
                assert!(
                    re.is_match(&hay.as_bytes()[s..]),
                    "suffix from match start must still match"
                );
            }
        }
    });
}

/// The Pike VM without its prefilter: seeds a thread at every position.
/// The reference the prefiltered [`Regex::find`] must agree with.
/// It is the search loop as it was before the prefilter, plus one fix.
mod oracle {
    use super::{Inst, Prog};

    #[derive(Clone, Copy)]
    struct Thread {
        pc: usize,
        start: usize,
    }

    struct ThreadList {
        threads: Vec<Thread>,
        seen_gen: Vec<u64>,
        gen: u64,
    }

    impl ThreadList {
        fn new(prog_len: usize) -> Self {
            ThreadList {
                threads: Vec::new(),
                seen_gen: vec![0; prog_len],
                gen: 1,
            }
        }

        fn clear(&mut self) {
            self.threads.clear();
            self.gen += 1;
        }

        fn add(&mut self, prog: &Prog, pc: usize, start: usize, pos: usize, len: usize) {
            if self.seen_gen[pc] == self.gen {
                return;
            }
            self.seen_gen[pc] = self.gen;
            match &prog.insts[pc] {
                Inst::Jump(next) => self.add(prog, *next, start, pos, len),
                Inst::Split(a, b) => {
                    let (a, b) = (*a, *b);
                    self.add(prog, a, start, pos, len);
                    self.add(prog, b, start, pos, len);
                }
                Inst::AssertStart(next) => {
                    if pos == 0 {
                        self.add(prog, *next, start, pos, len);
                    }
                }
                Inst::AssertEnd(next) => {
                    if pos == len {
                        self.add(prog, *next, start, pos, len);
                    }
                }
                Inst::Class(..) | Inst::Match => self.threads.push(Thread { pc, start }),
            }
        }
    }

    pub fn search(prog: &Prog, hay: &[u8]) -> Option<(usize, usize)> {
        let len = hay.len();
        let mut clist = ThreadList::new(prog.insts.len());
        let mut nlist = ThreadList::new(prog.insts.len());
        let mut matched = None;
        for pos in 0..=len {
            if matched.is_none() {
                clist.add(prog, 0, pos, pos, len);
            }
            if clist.threads.is_empty() {
                if matched.is_some() {
                    break;
                }
                // Without this the next seed would find pc 0 already
                // marked and add nothing, so `$` could never match
                // non-empty text.
                clist.clear();
                continue;
            }
            nlist.clear();
            let byte = hay.get(pos).copied();
            for th in &clist.threads {
                match &prog.insts[th.pc] {
                    Inst::Class(class, next) => {
                        if byte.is_some_and(|b| class.matches(b)) {
                            nlist.add(prog, *next, th.start, pos + 1, len);
                        }
                    }
                    Inst::Match => {
                        matched = Some((th.start, pos));
                        break;
                    }
                    _ => unreachable!("epsilon inst scheduled"),
                }
            }
            std::mem::swap(&mut clist, &mut nlist);
        }
        matched
    }
}

/// A random pattern over the whole syntax: literals, `.`, plain and
/// negated classes, escapes, anchors, quantifiers (so empty-matching
/// `x*` and `a?`), groups, and alternations whose branches begin with
/// different bytes.
fn pattern(rng: &mut DetRng, depth: usize) -> String {
    let alternatives = if depth > 0 && rng.chance(0.3) {
        rng.range_usize(2, 4)
    } else {
        1
    };
    let branches: Vec<String> = (0..alternatives)
        .map(|_| {
            (0..rng.range_usize(0, 4))
                .map(|_| piece(rng, depth))
                .collect()
        })
        .collect();
    branches.join("|")
}

/// One anchor, or one atom or group with an optional quantifier (on an
/// atom of several bytes it binds to the last).
fn piece(rng: &mut DetRng, depth: usize) -> String {
    // Multi-byte literals build prefixes that overlap themselves.
    const ATOMS: [&str; 15] = [
        "a", "b", "c", "n", "e", ".", "[ab]", "[^a]", "[^\\n]", r"\w", r"\s", "aa", "ab", "ne",
        "nee",
    ];
    const QUANTIFIERS: [&str; 6] = ["", "", "", "*", "+", "?"];
    let atom = match rng.range_usize(0, 10) {
        0 => return "^".into(),
        1 => return "$".into(),
        2 if depth > 0 => format!("({})", pattern(rng, depth - 1)),
        _ => ATOMS[rng.range_usize(0, ATOMS.len())].to_string(),
    };
    format!(
        "{atom}{}",
        QUANTIFIERS[rng.range_usize(0, QUANTIFIERS.len())]
    )
}

/// The prefiltered search agrees with the unfiltered Pike VM on every
/// suffix of random haystacks.
#[test]
fn prefilter_agrees_with_unfiltered_search() {
    check::run("prefilter_agrees_with_unfiltered_search", |rng| {
        // Several patterns a case: each costs microseconds, and a
        // pattern that exposes a skipping bug is a rare draw.
        for _ in 0..16 {
            let pat = pattern(rng, 2);
            // A quantified group holding only an anchor, like `(^)*`, is
            // rejected by the parser.
            let Ok(re) = Regex::new(&pat) else {
                continue;
            };
            let prog = compile(&parse(&pat).unwrap());
            // Narrow alphabets repeat bytes, so candidates overlap partial
            // literal prefixes, as `aab` does in `aaab`.
            let alphabets: [&[u8]; 3] = [b"abcne \n", b"ab", b"ne\n"];
            for alphabet in alphabets {
                let hay = from_alphabet(rng, alphabet, 0, 60);
                let hay = hay.as_bytes();
                for at in 0..=hay.len() {
                    assert_eq!(
                        re.find(&hay[at..]),
                        oracle::search(&prog, &hay[at..]),
                        "{pat:?} in {:?}",
                        String::from_utf8_lossy(&hay[at..])
                    );
                }
            }
        }
    });
}
