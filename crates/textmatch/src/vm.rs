//! The Pike VM: NFA execution in lockstep over the text.
//!
//! Threads carry their match start position and live in priority order
//! (earlier starts, and earlier alternatives, first). When a thread reaches
//! `Match`, every lower-priority thread is cut — so alternation prefers its
//! left branch and greedy loops keep extending — while higher-priority
//! threads may still produce a better match later. Runtime is
//! `O(instructions × text)`.
//!
//! Between match attempts the VM consults the program's [`Prefilter`]:
//! with no thread alive it jumps to the next position whose byte (or
//! literal prefix) can begin a match, found eight bytes at a time.

use crate::compile::{Inst, Prefilter, Prog};

/// A scheduled thread: program counter plus match start.
#[derive(Clone, Copy, Debug)]
struct Thread {
    pc: usize,
    start: usize,
}

/// Thread list with O(1) pc dedup via generation marks.
struct ThreadList {
    threads: Vec<Thread>,
    seen_gen: Vec<u64>,
    gen: u64,
}

impl ThreadList {
    fn new(prog_len: usize) -> Self {
        ThreadList {
            threads: Vec::with_capacity(prog_len),
            seen_gen: vec![0; prog_len],
            // Generations start at 1: a zeroed mark must mean "never seen".
            gen: 1,
        }
    }

    fn clear(&mut self) {
        self.threads.clear();
        self.gen += 1;
    }

    /// Adds `pc` (following epsilon edges) unless already present this
    /// generation. First add wins, preserving priority.
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

/// Searches `hay` for the leftmost match; returns `(start, end)` offsets.
///
/// Whenever no thread is alive and nothing has matched, the search jumps
/// to the next position the program's [`Prefilter`] admits; seeding at any
/// position in between would only schedule threads that die on the first
/// byte. The thread lists are allocated at the first admitted position.
pub fn search(prog: &Prog, hay: &[u8]) -> Option<(usize, usize)> {
    let len = hay.len();
    let mut pos = next_start(&prog.prefilter, hay, 0)?;
    let mut clist = ThreadList::new(prog.insts.len());
    let mut nlist = ThreadList::new(prog.insts.len());
    let mut matched: Option<(usize, usize)> = None;

    loop {
        // New start threads have the lowest priority; stop seeding once a
        // match exists (leftmost preference).
        if matched.is_none() {
            clist.add(prog, 0, pos, pos, len);
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
                    // This thread outranks every later one: record and cut.
                    matched = Some((th.start, pos));
                    break;
                }
                // Epsilon instructions never appear in a thread list.
                _ => unreachable!("epsilon inst scheduled"),
            }
        }
        std::mem::swap(&mut clist, &mut nlist);
        pos += 1;
        if pos > len {
            break;
        }
        if clist.threads.is_empty() {
            if matched.is_some() {
                break;
            }
            pos = next_start(&prog.prefilter, hay, pos)?;
        }
    }
    matched
}

/// The first position at or after `from` where `prefilter` admits a match.
fn next_start(prefilter: &Prefilter, hay: &[u8], from: usize) -> Option<usize> {
    match prefilter {
        Prefilter::Every => (from <= hay.len()).then_some(from),
        Prefilter::Anchored => (from == 0).then_some(0),
        Prefilter::Bytes(set) => {
            let skip = hay.get(from..)?.iter().position(|&b| set[b as usize])?;
            Some(from + skip)
        }
        Prefilter::Literal(literal) => {
            let mut at = from;
            loop {
                let cand = at + memchr(literal[0], hay.get(at..)?)?;
                // Too little text left for the literal here means too
                // little everywhere after, too.
                if hay.get(cand..cand + literal.len())? == literal.as_slice() {
                    return Some(cand);
                }
                at = cand + 1;
            }
        }
    }
}

/// Index of the first `needle` in `hay`, scanning eight bytes at a time.
fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let splat = LO * needle as u64;
    let mut words = hay.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ splat;
        // The lowest set high bit marks the first zero byte of `x`; bits
        // above it may be false positives from the borrow.
        let zeros = x.wrapping_sub(LO) & !x & HI;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == needle)?;
    Some(hay.len() - tail.len() + at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::compile::compile;

    fn search_str(pat: &str, hay: &str) -> Option<(usize, usize)> {
        search(&compile(&parse(pat).unwrap()), hay.as_bytes())
    }

    #[test]
    fn basic_spans() {
        assert_eq!(search_str("b", "abc"), Some((1, 2)));
        assert_eq!(search_str("bc", "abc"), Some((1, 3)));
        assert_eq!(search_str("z", "abc"), None);
    }

    #[test]
    fn greedy_extends() {
        assert_eq!(search_str("a+", "baaac"), Some((1, 4)));
        assert_eq!(search_str("a*", "baaac"), Some((0, 0)));
    }

    #[test]
    fn leftmost_beats_longer_later() {
        assert_eq!(search_str("ab|bcd", "xabcd"), Some((1, 3)));
    }

    #[test]
    fn anchors_at_vm_level() {
        assert_eq!(search_str("^ab", "ab"), Some((0, 2)));
        assert_eq!(search_str("^b", "ab"), None);
        assert_eq!(search_str("b$", "ab"), Some((1, 2)));
        assert_eq!(search_str("a$", "ab"), None);
        assert_eq!(search_str("^$", ""), Some((0, 0)));
    }

    #[test]
    fn empty_match_at_every_position() {
        assert_eq!(search_str("x*", "yyy"), Some((0, 0)));
    }

    #[test]
    fn thread_dedup_keeps_priority() {
        // Both branches reach the same state; the left one must win.
        assert_eq!(search_str("(a|a)b", "ab"), Some((0, 2)));
    }

    fn prefilter_kind(pat: &str) -> &'static str {
        match compile(&parse(pat).unwrap()).prefilter {
            Prefilter::Every => "every",
            Prefilter::Anchored => "anchored",
            Prefilter::Literal(_) => "literal",
            Prefilter::Bytes(_) => "bytes",
        }
    }

    #[test]
    fn prefilter_edge_cases() {
        let cases = [
            // No byte prefilter: the start closure matches empty text,
            // asserts the end, or is anchored.
            ("", "abc", "every", Some((0, 0))),
            ("", "", "every", Some((0, 0))),
            ("x*", "yyx", "every", Some((0, 0))),
            ("^ab", "abab", "anchored", Some((0, 2))),
            ("^ab", "xab", "anchored", None),
            ("$", "ab", "every", Some((2, 2))),
            ("a*$", "ba", "every", Some((1, 2))),
            ("^$", "", "anchored", Some((0, 0))),
            ("^$", "a", "anchored", None),
            // Start sets of several bytes.
            ("cat|dog", "a hotdog", "bytes", Some((5, 8))),
            ("cat|dog", "dogcat", "bytes", Some((0, 3))),
            ("cat|dog", "bird", "bytes", None),
            ("[^a]b", "abxb", "bytes", Some((2, 4))),
            (".x", "\nx ax", "bytes", Some((3, 5))),
            // An end anchor after the first byte leaves the literal.
            ("b$", "abab", "literal", Some((3, 4))),
            ("b$", "aba", "literal", None),
            // Branches that share their first byte.
            ("a|ab", "xab", "literal", Some((1, 2))),
            // A candidate at the first and at the last byte.
            ("needle", "needle in", "literal", Some((0, 6))),
            ("e", "abcde", "literal", Some((4, 5))),
            ("ab", "xxa", "literal", None),
            // A partial prefix before the real one.
            ("needle", "nee needl needle", "literal", Some((10, 16))),
            ("nee+dle", "nee needle", "literal", Some((4, 10))),
            ("aab", "aaab", "literal", Some((1, 4))),
            // No candidate at all.
            ("needle", "haystack without it", "literal", None),
            ("needle", "", "literal", None),
        ];
        for (pat, hay, kind, want) in cases {
            assert_eq!(prefilter_kind(pat), kind, "{pat:?}");
            assert_eq!(search_str(pat, hay), want, "{pat:?} in {hay:?}");
        }
    }

    #[test]
    fn literal_prefix_stops_at_the_first_branch() {
        let prog = compile(&parse("ab+c|d").unwrap());
        assert!(matches!(prog.prefilter, Prefilter::Bytes(_)));
        let prog = compile(&parse("ab+c").unwrap());
        assert_eq!(prog.prefilter, Prefilter::Literal(b"ab".to_vec()));
        let prog = compile(&parse(r"sleds_pick_\w+\(").unwrap());
        assert_eq!(prog.prefilter, Prefilter::Literal(b"sleds_pick_".to_vec()));
    }

    #[test]
    fn memchr_finds_the_first_needle_at_every_offset() {
        for len in 0..24 {
            // `needle ^ 1` bytes provoke the borrow's false positives.
            let mut hay = vec![b'n' ^ 1; len];
            assert_eq!(memchr(b'n', &hay), None);
            for at in (0..len).rev() {
                hay[at] = b'n';
                assert_eq!(memchr(b'n', &hay), Some(at), "len {len}");
            }
        }
    }
}
