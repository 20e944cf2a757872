//! Intraprocedural control-flow graphs over domain events.
//!
//! Each function body becomes a small graph whose nodes carry the *domain
//! events* the flow rules care about — priced-state mutations, generation
//! bumps, clock advances, Rusage posts, trace-span begins/ends, and calls —
//! in source order. Branches (`if`/`else`, `match`), loops (`loop`/`while`/
//! `for` with their zero-iteration edge), early exits (`return`, `?`,
//! `break`, `continue`) and closures all become edges, so "does every path
//! from X reach a Y" is answerable by [`crate::flow`].
//!
//! Closures are analyzed *inline*: a `?` or `return` inside a closure jumps
//! to the closure's local join (the closure returns, the enclosing function
//! continues), which is exactly why the kernel's
//! `begin; let r = (|| { … ? … })(); end;` span pattern verifies as
//! balanced. A closure also gets a skip edge, since `.map(|x| …)`-style
//! bodies may run zero times.

use crate::lexer::{Tok, TokKind};
use crate::parser::{match_brace, FnShape};

/// Field names holding SLED-priced state: mutating one without a
/// generation/epoch bump lets a memoized SLED vector go stale (D010).
/// `resident` is the page cache's residency extent set; `runs` is the
/// inode layout map.
pub const PRICED_FIELDS: &[&str] = &["resident", "runs"];

/// Container methods that mutate their receiver in place.
const MUT_METHODS: &[&str] = &[
    "insert",
    "remove",
    "insert_range",
    "remove_range",
    "push",
    "pop",
    "clear",
    "extend",
    "drain",
    "retain",
    "truncate",
    "append",
    "split_off",
    "push_back",
    "pop_front",
    "sort",
    "sort_by",
    "sort_by_key",
    "set",
];

/// A domain event the flow rules reason about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// In-place mutation of a SLED-priced field (the name carried).
    MutatePriced(String),
    /// A generation/epoch counter moved (`gen`/`*generation*`/`*epoch*`
    /// assignment, or a `bump_*`/`set_*` call naming one).
    BumpGeneration,
    /// The virtual clock advanced (`…clock.advance(…)`).
    AdvanceClock,
    /// A cost was posted to resource accounting (`…usage.… op …`).
    PostRusage,
    /// `…tracer.begin(…)` opened a trace span.
    BeginSpan,
    /// `…tracer.end(…)` closed a trace span.
    EndSpan,
    /// Any other call, by callee name — resolved against one-level
    /// same-file summaries at analysis time.
    Call(String),
}

/// One CFG node: events in source order, then successor edges.
#[derive(Clone, Debug, Default)]
pub struct Node {
    /// Events in this straight-line region, with their source lines.
    pub events: Vec<(Event, u32)>,
    /// Successor node indices.
    pub succs: Vec<usize>,
}

/// A function body's control-flow graph.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// All nodes; `entry` and `exit` index into this.
    pub nodes: Vec<Node>,
    /// Where execution starts.
    pub entry: usize,
    /// The single exit node (normal returns, `?`, and `return` all edge
    /// here). Carries no events.
    pub exit: usize,
}

impl Cfg {
    /// Nodes reachable from entry, as a membership vector.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(n) = stack.pop() {
            for &s in &self.nodes[n].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }
}

/// Builds the CFG for one function body.
pub fn build(toks: &[Tok], shape: &FnShape) -> Cfg {
    let mut b = Builder {
        toks,
        nodes: Vec::new(),
        loops: Vec::new(),
    };
    let entry = b.node();
    let exit = b.node();
    let last = b.block(shape.body.0 + 1, shape.body.1, entry, exit);
    b.edge(last, exit);
    Cfg {
        nodes: b.nodes,
        entry,
        exit,
    }
}

struct Builder<'a> {
    toks: &'a [Tok],
    nodes: Vec<Node>,
    /// Innermost-last `(continue_target, break_target)` pairs.
    loops: Vec<(usize, usize)>,
}

impl Builder<'_> {
    fn node(&mut self) -> usize {
        self.nodes.push(Node::default());
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.nodes[from].succs.contains(&to) {
            self.nodes[from].succs.push(to);
        }
    }

    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
    }

    /// Extracts events from `from..to` without control-flow interpretation
    /// (conditions, match scrutinees/patterns, return expressions).
    fn events_linear(&mut self, from: usize, to: usize, into: usize) {
        for k in from..to.min(self.toks.len()) {
            if let Some(ev) = event_at(self.toks, k) {
                let line = self.toks[k].line;
                self.nodes[into].events.push((ev, line));
            }
        }
    }

    /// First `{` at paren/bracket depth 0 in `from..to`. For `if let` /
    /// `while let` heads, pass `after_eq` to first skip to the top-level
    /// `=`, so struct *patterns*' braces are not mistaken for the body.
    fn block_open(&self, mut from: usize, to: usize, after_eq: bool) -> Option<usize> {
        let mut depth = 0i32;
        let mut need_eq = after_eq;
        while from < to {
            match self.text(from) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "=" if depth == 0 => need_eq = false,
                "{" if depth == 0 && !need_eq => return Some(from),
                _ => {}
            }
            from += 1;
        }
        None
    }

    /// Walks the statement list in `i..end` starting from node `cur`;
    /// `ret` is where `return` and `?` edges go (the fn exit, or a
    /// closure's local join). Returns the node that falls off the end.
    fn block(&mut self, mut i: usize, end: usize, mut cur: usize, ret: usize) -> usize {
        while i < end {
            let t = &self.toks[i];
            match (t.kind, t.text.as_str()) {
                (TokKind::Ident, "fn") => {
                    // Nested item: analyzed as its own shape; skip it here.
                    let mut j = i + 1;
                    let mut depth = 0i32;
                    let open = loop {
                        match self.text(j) {
                            "" => break None,
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "{" if depth == 0 => break Some(j),
                            ";" if depth == 0 => break None,
                            _ => {}
                        }
                        j += 1;
                    };
                    i = match open.and_then(|o| match_brace(self.toks, o)) {
                        Some(close) => close + 1,
                        None => j.max(i + 1),
                    };
                }
                (TokKind::Ident, "if") => {
                    let (join, next) = self.if_construct(i, end, cur, ret);
                    cur = join;
                    i = next;
                }
                (TokKind::Ident, "match") => {
                    let (join, next) = self.match_construct(i, end, cur, ret);
                    cur = join;
                    i = next;
                }
                (TokKind::Ident, "while") => {
                    let is_let = self.text(i + 1) == "let";
                    let Some(open) = self.block_open(i + 1, end, is_let) else {
                        i += 1;
                        continue;
                    };
                    let close = match_brace(self.toks, open).unwrap_or(end);
                    let head = self.node();
                    self.edge(cur, head);
                    self.events_linear(i + 1, open, head);
                    let join = self.node();
                    let bentry = self.node();
                    self.edge(head, bentry);
                    self.edge(head, join); // zero-iteration path
                    self.loops.push((head, join));
                    let bexit = self.block(open + 1, close, bentry, ret);
                    self.loops.pop();
                    self.edge(bexit, head);
                    cur = join;
                    i = close + 1;
                }
                (TokKind::Ident, "for") => {
                    let mut k = i + 1;
                    let mut depth = 0i32;
                    while k < end {
                        match self.text(k) {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "in" if depth == 0 && self.toks[k].kind == TokKind::Ident => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    let Some(open) = self.block_open(k, end, false) else {
                        i += 1;
                        continue;
                    };
                    let close = match_brace(self.toks, open).unwrap_or(end);
                    let head = self.node();
                    self.edge(cur, head);
                    self.events_linear(k + 1, open, head);
                    let join = self.node();
                    let bentry = self.node();
                    self.edge(head, bentry);
                    self.edge(head, join);
                    self.loops.push((head, join));
                    let bexit = self.block(open + 1, close, bentry, ret);
                    self.loops.pop();
                    self.edge(bexit, head);
                    cur = join;
                    i = close + 1;
                }
                (TokKind::Ident, "loop") => {
                    let Some(open) = self.block_open(i + 1, end, false) else {
                        i += 1;
                        continue;
                    };
                    let close = match_brace(self.toks, open).unwrap_or(end);
                    let bentry = self.node();
                    let join = self.node();
                    self.edge(cur, bentry);
                    self.loops.push((bentry, join));
                    let bexit = self.block(open + 1, close, bentry, ret);
                    self.loops.pop();
                    // No fallthrough to join: only `break` leaves a `loop`.
                    self.edge(bexit, bentry);
                    cur = join;
                    i = close + 1;
                }
                (TokKind::Ident, "return") => {
                    let stop = self.stmt_end(i + 1, end);
                    self.events_linear(i + 1, stop, cur);
                    self.edge(cur, ret);
                    cur = self.node(); // unreachable continuation
                    i = stop + 1;
                }
                (TokKind::Ident, "break") => {
                    let stop = self.stmt_end(i + 1, end);
                    self.events_linear(i + 1, stop, cur);
                    let target = self.loops.last().map(|&(_, b)| b).unwrap_or(ret);
                    self.edge(cur, target);
                    cur = self.node();
                    i = stop + 1;
                }
                (TokKind::Ident, "continue") => {
                    let target = self.loops.last().map(|&(c, _)| c).unwrap_or(ret);
                    self.edge(cur, target);
                    cur = self.node();
                    i = self.stmt_end(i + 1, end) + 1;
                }
                (TokKind::Punct, "?") => {
                    // Either early-exits or proceeds: split so events after
                    // the `?` cannot satisfy obligations on the exit path.
                    let next = self.node();
                    self.edge(cur, ret);
                    self.edge(cur, next);
                    cur = next;
                    i += 1;
                }
                (TokKind::Punct, "|") | (TokKind::Punct, "||") if self.closure_position(i) => {
                    let body_start = if t.text == "||" {
                        i + 1
                    } else {
                        let mut j = i + 1;
                        let mut depth = 0i32;
                        while j < end {
                            match self.text(j) {
                                "(" | "[" => depth += 1,
                                ")" | "]" => depth -= 1,
                                "|" if depth == 0 => break,
                                _ => {}
                            }
                            j += 1;
                        }
                        j + 1
                    };
                    let (bstart, bend, next) = if self.text(body_start) == "{" {
                        let close = match_brace(self.toks, body_start).unwrap_or(end);
                        (body_start + 1, close, close + 1)
                    } else {
                        let stop = self.expr_end(body_start, end);
                        (body_start, stop, stop)
                    };
                    let join = self.node();
                    self.edge(cur, join); // the closure may run zero times
                    let centry = self.node();
                    self.edge(cur, centry);
                    let saved = std::mem::take(&mut self.loops);
                    let cexit = self.block(bstart, bend, centry, join);
                    self.loops = saved;
                    self.edge(cexit, join);
                    cur = join;
                    i = next;
                }
                (TokKind::Punct, "{") => {
                    let close = match_brace(self.toks, i).unwrap_or(end);
                    cur = self.block(i + 1, close, cur, ret);
                    i = close + 1;
                }
                _ => {
                    if let Some(ev) = event_at(self.toks, i) {
                        let line = t.line;
                        self.nodes[cur].events.push((ev, line));
                    }
                    i += 1;
                }
            }
        }
        cur
    }

    /// `if` / `else if` / `else` chain starting at the `if` token.
    fn if_construct(&mut self, i: usize, end: usize, cur: usize, ret: usize) -> (usize, usize) {
        let join = self.node();
        let mut cond = cur;
        let mut p = i;
        loop {
            let is_let = self.text(p + 1) == "let";
            let Some(open) = self.block_open(p + 1, end, is_let) else {
                self.edge(cond, join);
                return (join, p + 1);
            };
            self.events_linear(p + 1, open, cond);
            let close = match_brace(self.toks, open).unwrap_or(end);
            let bentry = self.node();
            self.edge(cond, bentry);
            let bexit = self.block(open + 1, close, bentry, ret);
            self.edge(bexit, join);
            let q = close + 1;
            if q < end && self.text(q) == "else" {
                if self.text(q + 1) == "if" {
                    let c2 = self.node();
                    self.edge(cond, c2);
                    cond = c2;
                    p = q + 1;
                    continue;
                }
                if self.text(q + 1) == "{" {
                    let close2 = match_brace(self.toks, q + 1).unwrap_or(end);
                    let eentry = self.node();
                    self.edge(cond, eentry);
                    let eexit = self.block(q + 2, close2, eentry, ret);
                    self.edge(eexit, join);
                    return (join, close2 + 1);
                }
            }
            self.edge(cond, join); // condition false, no else
            return (join, q);
        }
    }

    /// `match` starting at the `match` token: one node per arm.
    fn match_construct(&mut self, i: usize, end: usize, cur: usize, ret: usize) -> (usize, usize) {
        let Some(open) = self.block_open(i + 1, end, false) else {
            return (cur, i + 1);
        };
        self.events_linear(i + 1, open, cur);
        let close = match_brace(self.toks, open).unwrap_or(end);
        let join = self.node();
        let mut any_arm = false;
        let mut j = open + 1;
        while j < close {
            // Pattern (and guard) up to the arm's `=>`.
            let mut depth = 0i32;
            let mut k = j;
            while k < close {
                match self.text(k) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=>" if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            if k >= close {
                break;
            }
            let aentry = self.node();
            self.edge(cur, aentry);
            self.events_linear(j, k, aentry);
            let (bstart, bend, next) = if self.text(k + 1) == "{" {
                let c2 = match_brace(self.toks, k + 1).unwrap_or(close);
                let after = if self.text(c2 + 1) == "," {
                    c2 + 2
                } else {
                    c2 + 1
                };
                (k + 2, c2, after)
            } else {
                let mut depth = 0i32;
                let mut m = k + 1;
                while m < close {
                    match self.text(m) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                    m += 1;
                }
                (k + 1, m, m + 1)
            };
            let aexit = self.block(bstart, bend, aentry, ret);
            self.edge(aexit, join);
            any_arm = true;
            j = next;
        }
        if !any_arm {
            self.edge(cur, join);
        }
        (join, close + 1)
    }

    /// End of a `return`/`break` expression: the `;` at depth 0, or `end`.
    fn stmt_end(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        while i < end {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => return i,
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// End of an expression-bodied closure: the `,`/`;`/`)`/`]` that closes
    /// it at relative depth 0 (exclusive).
    fn expr_end(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        while i < end {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => return i,
                ")" | "]" | "}" => depth -= 1,
                "," | ";" if depth == 0 => return i,
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Is the `|`/`||` at `i` a closure head (vs. binary or / or-pattern)?
    /// A closure can only start where an expression starts: after an
    /// opening delimiter, separator, assignment, or an expression-position
    /// keyword. After a value (ident, literal, `)`, `]`) it is an operator.
    fn closure_position(&self, i: usize) -> bool {
        let Some(prev) = i.checked_sub(1).and_then(|p| self.toks.get(p)) else {
            return true;
        };
        match prev.kind {
            TokKind::Ident => matches!(prev.text.as_str(), "move" | "return" | "else" | "in"),
            TokKind::Punct => matches!(
                prev.text.as_str(),
                "(" | "," | "=" | "=>" | "{" | ";" | ":" | "[" | "&" | "&&"
            ),
            _ => false,
        }
    }
}

/// `s` names a generation/epoch counter.
pub(crate) fn gen_ish(s: &str) -> bool {
    s == "gen" || s.contains("generation") || s.contains("epoch")
}

fn is_assign_op(s: &str) -> bool {
    matches!(
        s,
        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>="
    )
}

/// The field-access chain ending just before token `k` (exclusive):
/// `self.usage.cpu +=` at the `+=` yields `["self", "usage", "cpu"]`.
fn chain_before(toks: &[Tok], k: usize) -> Vec<&str> {
    let mut out = Vec::new();
    let mut j = k;
    while let Some(p) = j.checked_sub(1) {
        let Some(t) = toks.get(p) else { break };
        if t.kind != TokKind::Ident {
            break;
        }
        out.push(t.text.as_str());
        match p.checked_sub(1).map(|q| toks[q].text.as_str()) {
            Some(".") => j = p - 1,
            _ => break,
        }
    }
    out.reverse();
    out
}

/// Extracts the domain event anchored at token `i`, if any.
pub fn event_at(toks: &[Tok], i: usize) -> Option<Event> {
    let t = toks.get(i)?;
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
    match t.kind {
        TokKind::Punct if is_assign_op(&t.text) => {
            let chain = chain_before(toks, i);
            if chain.len() < 2 {
                return None;
            }
            let last = *chain.last().unwrap();
            if chain.contains(&"usage") {
                Some(Event::PostRusage)
            } else if PRICED_FIELDS.contains(&last) {
                Some(Event::MutatePriced(last.to_string()))
            } else if gen_ish(last) {
                Some(Event::BumpGeneration)
            } else {
                None
            }
        }
        // `&mut self.runs` handed to a helper mutates priced state too.
        TokKind::Punct if t.text == "&" && text(i + 1) == "mut" => {
            let mut j = i + 2;
            let mut last = None;
            let mut len = 0;
            while toks.get(j).is_some_and(|t| t.kind == TokKind::Ident) {
                last = Some(toks[j].text.as_str());
                len += 1;
                if text(j + 1) == "." {
                    j += 2;
                } else {
                    break;
                }
            }
            match last {
                Some(f) if len >= 2 && PRICED_FIELDS.contains(&f) => {
                    Some(Event::MutatePriced(f.to_string()))
                }
                _ => None,
            }
        }
        TokKind::Ident if text(i + 1) == "(" => {
            let name = t.text.as_str();
            if matches!(
                name,
                "if" | "while" | "for" | "match" | "loop" | "return" | "fn"
            ) {
                return None;
            }
            let method_of = (text(i.wrapping_sub(1)) == ".").then(|| chain_before(toks, i - 1));
            if let Some(chain) = &method_of {
                if name == "advance" && chain.contains(&"clock") {
                    return Some(Event::AdvanceClock);
                }
                if chain.contains(&"tracer") {
                    if name == "begin" {
                        return Some(Event::BeginSpan);
                    }
                    if name == "end" {
                        return Some(Event::EndSpan);
                    }
                }
                if MUT_METHODS.contains(&name) {
                    if let Some(f) = chain.last().filter(|f| PRICED_FIELDS.contains(f)) {
                        return Some(Event::MutatePriced((*f).to_string()));
                    }
                }
            }
            if (name.starts_with("bump") || name.starts_with("set_")) && gen_ish(name) {
                return Some(Event::BumpGeneration);
            }
            // Only calls that can plausibly resolve against same-file
            // summaries become Call events: bare `helper(..)`,
            // `self.helper(..)`, or `Self::helper(..)`. A method on another
            // receiver (`cache.contains(..)`, `PageKey::new(..)`) would
            // match a same-file fn name by coincidence only.
            let resolvable = match text(i.wrapping_sub(1)) {
                "." => text(i.wrapping_sub(2)) == "self",
                "::" => text(i.wrapping_sub(2)) == "Self",
                _ => true,
            };
            resolvable.then(|| Event::Call(name.to_string()))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_fns;

    fn cfg_of(src: &str) -> Cfg {
        let toks = lex(src).tokens;
        let shapes = parse_fns(&toks);
        assert_eq!(shapes.len(), 1, "expected one fn in {src}");
        build(&toks, &shapes[0])
    }

    fn all_events(cfg: &Cfg) -> Vec<Event> {
        cfg.nodes
            .iter()
            .flat_map(|n| n.events.iter().map(|(e, _)| e.clone()))
            .collect()
    }

    #[test]
    fn events_are_extracted_with_receivers() {
        let cfg = cfg_of(
            "fn f(&mut self) {\n\
             self.resident.remove(p);\n\
             self.generation += 1;\n\
             self.clock.advance(d);\n\
             self.usage.cpu += d;\n\
             self.tracer.begin(l, n, t, a);\n\
             self.tracer.end(t);\n\
             helper(&mut self.runs);\n\
             }\n",
        );
        let evs = all_events(&cfg);
        assert!(evs.contains(&Event::MutatePriced("resident".into())));
        assert!(evs.contains(&Event::BumpGeneration));
        assert!(evs.contains(&Event::AdvanceClock));
        assert!(evs.contains(&Event::PostRusage));
        assert!(evs.contains(&Event::BeginSpan));
        assert!(evs.contains(&Event::EndSpan));
        assert!(evs.contains(&Event::MutatePriced("runs".into())));
        assert!(evs.contains(&Event::Call("helper".into())));
    }

    #[test]
    fn range_updates_of_priced_state_are_mutations() {
        for call in ["insert_range(p, n)", "remove_range(p, n)"] {
            let cfg = cfg_of(&format!("fn f(&mut self) {{ self.resident.{call}; }}"));
            assert!(
                all_events(&cfg).contains(&Event::MutatePriced("resident".into())),
                "{call}"
            );
        }
    }

    #[test]
    fn getters_named_like_generations_are_not_bumps() {
        let cfg = cfg_of("fn f(&self) -> u64 { self.pages.generation() + self.fault_epoch(now) }");
        assert!(!all_events(&cfg).contains(&Event::BumpGeneration));
    }

    #[test]
    fn question_mark_splits_toward_exit() {
        let cfg = cfg_of("fn f(&mut self) -> R { let x = self.g()?; self.h(); Ok(x) }");
        // The node holding the `g` call must edge to both exit and the
        // continuation holding `h`.
        let g_node = cfg
            .nodes
            .iter()
            .position(|n| n.events.contains(&(Event::Call("g".into()), 1)))
            .unwrap();
        assert!(cfg.nodes[g_node].succs.contains(&cfg.exit));
        assert_eq!(cfg.nodes[g_node].succs.len(), 2);
    }

    #[test]
    fn loop_without_break_does_not_fall_through() {
        let cfg = cfg_of("fn f(&mut self) { loop { self.tick(); } self.done(); }");
        let reach = cfg.reachable();
        let done = cfg
            .nodes
            .iter()
            .position(|n| n.events.contains(&(Event::Call("done".into()), 1)));
        assert!(done.is_none_or(|n| !reach[n]));
    }

    #[test]
    fn closures_are_inline_with_local_early_exit() {
        // `?` inside the closure must NOT edge to the fn exit: the enclosing
        // fn continues (this is the kernel's span-balance pattern).
        let cfg = cfg_of(
            "fn f(&mut self) -> R {\n\
             self.tracer.begin(l, n, t, a);\n\
             let r = (|| { let x = self.g()?; Ok(x) })();\n\
             self.tracer.end(t);\n\
             r\n}\n",
        );
        let g_node = cfg
            .nodes
            .iter()
            .position(|n| n.events.iter().any(|(e, _)| *e == Event::Call("g".into())))
            .unwrap();
        assert!(!cfg.nodes[g_node].succs.contains(&cfg.exit));
    }

    #[test]
    fn logical_or_is_not_a_closure() {
        let cfg = cfg_of("fn f(a: bool, b: bool) { if a || b { self.g(); } }");
        let reach = cfg.reachable();
        let g = cfg
            .nodes
            .iter()
            .position(|n| n.events.iter().any(|(e, _)| *e == Event::Call("g".into())))
            .unwrap();
        assert!(reach[g]);
    }
}
