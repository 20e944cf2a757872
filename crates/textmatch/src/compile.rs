//! AST to NFA byte-code.
//!
//! Thompson's construction: each AST node compiles to a small instruction
//! sequence; `Split` edges give the VM its nondeterminism. Instruction
//! operands are absolute program counters. Alongside the instructions the
//! compiler records a [`Prefilter`]: what the text must hold at a position
//! for a match to begin there, so the VM can skip the rest.

use crate::ast::{Ast, ByteClass};

/// One NFA instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inst {
    /// Consume one byte matching the class, then go to `next`.
    Class(ByteClass, usize),
    /// Try `a` first, then `b` (thread priority order).
    Split(usize, usize),
    /// Unconditional jump.
    Jump(usize),
    /// Zero-width start-of-text assertion.
    AssertStart(usize),
    /// Zero-width end-of-text assertion.
    AssertEnd(usize),
    /// Pattern matched.
    Match,
}

/// Where a match can begin, derived from the epsilon closure of pc 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Prefilter {
    /// The closure reaches `Match` or `AssertEnd`: any position may start
    /// a match, so every position is tried.
    Every,
    /// Every path passes `AssertStart`: only position 0 can start a match.
    Anchored,
    /// Every match begins with these bytes (at least one).
    Literal(Vec<u8>),
    /// Every match begins with a byte whose entry is true.
    Bytes(Box<[bool; 256]>),
}

/// A compiled program. Execution starts at pc 0.
#[derive(Clone, Debug)]
pub struct Prog {
    /// Instructions; `Match` terminates a thread.
    pub insts: Vec<Inst>,
    /// Positions the VM may skip; derived from `insts`, so only the
    /// compiler sets it.
    pub(crate) prefilter: Prefilter,
}

/// Compiles an AST to a program ending in `Match`.
pub fn compile(ast: &Ast) -> Prog {
    let mut insts = Vec::new();
    emit(ast, &mut insts);
    insts.push(Inst::Match);
    let prefilter = prefilter(&insts);
    Prog { insts, prefilter }
}

/// Walks the epsilon closure of pc 0 for the bytes that can begin a
/// match, then extends a single start byte to the literal prefix: the run
/// of single-byte classes from pc 0 that every match consumes first.
fn prefilter(insts: &[Inst]) -> Prefilter {
    let mut start = [false; 256];
    let mut zero_width = false;
    let mut unanchored = false;
    // Each pc is visited at most once before and once after `AssertStart`.
    let mut seen = vec![[false; 2]; insts.len()];
    let mut stack = vec![(0, false)];
    while let Some((pc, anchored)) = stack.pop() {
        if std::mem::replace(&mut seen[pc][anchored as usize], true) {
            continue;
        }
        match &insts[pc] {
            Inst::Jump(next) => stack.push((*next, anchored)),
            Inst::Split(a, b) => stack.extend([(*a, anchored), (*b, anchored)]),
            Inst::AssertStart(next) => stack.push((*next, true)),
            Inst::AssertEnd(_) | Inst::Match => {
                zero_width = true;
                unanchored |= !anchored;
            }
            Inst::Class(class, _) => {
                unanchored |= !anchored;
                for b in 0..=255u8 {
                    start[b as usize] |= class.matches(b);
                }
            }
        }
    }
    if !unanchored {
        return Prefilter::Anchored;
    }
    if zero_width {
        return Prefilter::Every;
    }
    let mut literal = Vec::new();
    let mut pc = 0;
    while let Inst::Class(class, next) = &insts[pc] {
        let Some(b) = only((0..=255).filter(|&b| class.matches(b))) else {
            break;
        };
        literal.push(b);
        pc = *next;
    }
    if literal.is_empty() {
        // Branches that all begin with one byte, as in `a|ab`.
        match only((0..=255).filter(|&b| start[b as usize])) {
            Some(b) => literal.push(b),
            None => return Prefilter::Bytes(Box::new(start)),
        }
    }
    Prefilter::Literal(literal)
}

/// The sole item of `items`, if there is exactly one.
fn only(mut items: impl Iterator<Item = u8>) -> Option<u8> {
    match (items.next(), items.next()) {
        (Some(b), None) => Some(b),
        _ => None,
    }
}

/// Emits code for `ast`; on fallthrough control reaches `insts.len()`.
fn emit(ast: &Ast, insts: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Class(c) => {
            let next = insts.len() + 1;
            insts.push(Inst::Class(c.clone(), next));
        }
        Ast::AnchorStart => {
            let next = insts.len() + 1;
            insts.push(Inst::AssertStart(next));
        }
        Ast::AnchorEnd => {
            let next = insts.len() + 1;
            insts.push(Inst::AssertEnd(next));
        }
        Ast::Concat(parts) => {
            for p in parts {
                emit(p, insts);
            }
        }
        Ast::Alternate(branches) => {
            // split b1, split b2, ... bn; each branch jumps to the end.
            let mut jump_fixups = Vec::new();
            let n = branches.len();
            for (i, b) in branches.iter().enumerate() {
                if i + 1 < n {
                    let split_at = insts.len();
                    insts.push(Inst::Split(0, 0)); // patched below
                    let branch_start = insts.len();
                    emit(b, insts);
                    jump_fixups.push(insts.len());
                    insts.push(Inst::Jump(0)); // patched at the very end
                    let after = insts.len();
                    insts[split_at] = Inst::Split(branch_start, after);
                } else {
                    emit(b, insts);
                }
            }
            let end = insts.len();
            for at in jump_fixups {
                insts[at] = Inst::Jump(end);
            }
        }
        Ast::Repeat {
            node,
            min,
            unbounded,
        } => match (min, unbounded) {
            (0, true) => {
                // a*: L: split body, out; body; jump L
                let l = insts.len();
                insts.push(Inst::Split(0, 0));
                let body = insts.len();
                emit(node, insts);
                insts.push(Inst::Jump(l));
                let out = insts.len();
                insts[l] = Inst::Split(body, out);
            }
            (1, true) => {
                // a+: body; split body, out
                let body = insts.len();
                emit(node, insts);
                let split_at = insts.len();
                insts.push(Inst::Split(0, 0));
                let out = insts.len();
                insts[split_at] = Inst::Split(body, out);
            }
            (_, false) => {
                // a?: split body, out; body
                let split_at = insts.len();
                insts.push(Inst::Split(0, 0));
                let body = insts.len();
                emit(node, insts);
                let out = insts.len();
                insts[split_at] = Inst::Split(body, out);
            }
            (_, true) => unreachable!("parser only produces min 0 or 1"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;

    fn prog(pat: &str) -> Prog {
        compile(&parse(pat).unwrap())
    }

    #[test]
    fn single_char_program() {
        let p = prog("a");
        assert_eq!(p.insts.len(), 2);
        assert!(matches!(p.insts[0], Inst::Class(_, 1)));
        assert_eq!(p.insts[1], Inst::Match);
    }

    #[test]
    fn star_builds_loop() {
        let p = prog("a*");
        // split, class, jump, match
        assert_eq!(p.insts.len(), 4);
        assert_eq!(p.insts[0], Inst::Split(1, 3));
        assert!(matches!(p.insts[1], Inst::Class(_, 2)));
        assert_eq!(p.insts[2], Inst::Jump(0));
    }

    #[test]
    fn plus_falls_through_then_splits_back() {
        let p = prog("a+");
        assert!(matches!(p.insts[0], Inst::Class(_, 1)));
        assert_eq!(p.insts[1], Inst::Split(0, 2));
        assert_eq!(p.insts[2], Inst::Match);
    }

    #[test]
    fn alternation_targets_are_in_bounds() {
        let p = prog("abc|de*f|[xyz]");
        for (i, inst) in p.insts.iter().enumerate() {
            let targets: Vec<usize> = match inst {
                Inst::Class(_, n) | Inst::Jump(n) | Inst::AssertStart(n) | Inst::AssertEnd(n) => {
                    vec![*n]
                }
                Inst::Split(a, b) => vec![*a, *b],
                Inst::Match => vec![],
            };
            for t in targets {
                assert!(t < p.insts.len(), "inst {i} jumps out of bounds to {t}");
            }
        }
    }

    #[test]
    fn every_program_ends_in_match() {
        for pat in ["", "a", "a|b|c", "(ab)*c+", "^x$"] {
            let p = prog(pat);
            assert_eq!(*p.insts.last().unwrap(), Inst::Match);
        }
    }
}
