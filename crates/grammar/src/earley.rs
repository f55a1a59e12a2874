//! Earley recognition and parsing for [`Grammar`]s.
//!
//! GLADE needs general context-free parsing in three places:
//!
//! * **Target oracles** (Section 8.1): membership in a handwritten target
//!   grammar answers every oracle query of the language-inference runs.
//! * **Recall measurement** (Section 8.2): deciding whether a string sampled
//!   from the target language belongs to the synthesized grammar.
//! * **The grammar-based fuzzer** (Section 8.3): constructing the parse tree
//!   of a seed input under the synthesized grammar so subtrees can be
//!   replaced by freshly sampled derivations.
//!
//! Synthesized grammars are arbitrary CFGs (left-recursive star expansions,
//! ε-productions, ambiguity), so we use an Earley chart parser with the
//! Aycock–Horspool nullable-prediction fix, plus a memoized top-down walk of
//! the completed chart to extract a single parse tree.
//!
//! As an oracle the recognizer answers hundreds of thousands of short
//! queries per learning run, so the chart is built for that:
//!
//! * [`Earley::new`] compiles the grammar once into a flat table of dotted
//!   rules (what follows each dot), per-nonterminal prediction lists and the
//!   nullable set.
//! * An item is one `u64` packing its dotted rule and origin.
//! * Only the current set and the next one ever grow, so two rolling hash
//!   sets deduplicate items.
//! * Each position records the items waiting on each nonterminal, so a
//!   completion visits its parents only, not its whole origin set.
//! * The chart buffers are reused across runs on the same thread.

use crate::cfg::{Grammar, NtId, Sym};
use crate::CharClass;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// One node of a parse tree produced by [`Earley::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTree {
    /// A matched terminal byte at input position `pos`.
    Leaf {
        /// The matched byte.
        byte: u8,
        /// Its position in the input.
        pos: usize,
    },
    /// A nonterminal expansion.
    Node {
        /// The expanded nonterminal.
        nt: NtId,
        /// Index of the chosen production within `grammar.productions(nt)`.
        prod: usize,
        /// Child subtrees, one per right-hand-side symbol.
        children: Vec<ParseTree>,
        /// Start offset (inclusive) of the derived substring.
        start: usize,
        /// End offset (exclusive) of the derived substring.
        end: usize,
    },
}

impl ParseTree {
    /// The `(start, end)` byte span this subtree derives.
    pub fn span(&self) -> (usize, usize) {
        match self {
            ParseTree::Leaf { pos, .. } => (*pos, *pos + 1),
            ParseTree::Node { start, end, .. } => (*start, *end),
        }
    }

    /// Appends the derived bytes (the subtree's yield) to `out`.
    pub fn write_yield(&self, out: &mut Vec<u8>) {
        match self {
            ParseTree::Leaf { byte, .. } => out.push(*byte),
            ParseTree::Node { children, .. } => {
                for c in children {
                    c.write_yield(out);
                }
            }
        }
    }

    /// The derived bytes as a fresh vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_yield(&mut out);
        out
    }

    /// Collects references to every `Node` in the tree (preorder, including
    /// the root). Used by the grammar-based fuzzer to pick a random
    /// nonterminal occurrence.
    pub fn nodes(&self) -> Vec<&ParseTree> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(t) = stack.pop() {
            if let ParseTree::Node { children, .. } = t {
                out.push(t);
                for c in children {
                    stack.push(c);
                }
            }
        }
        out
    }
}

impl fmt::Display for ParseTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(t: &ParseTree, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for _ in 0..depth {
                write!(f, "  ")?;
            }
            match t {
                ParseTree::Leaf { byte, pos } => {
                    writeln!(f, "'{}' @{pos}", (*byte as char).escape_default())
                }
                ParseTree::Node { nt, prod, children, start, end } => {
                    writeln!(f, "{nt}/{prod} [{start}..{end}]")?;
                    for c in children {
                        go(c, depth + 1, f)?;
                    }
                    Ok(())
                }
            }
        }
        go(self, 0, f)
    }
}

/// What follows the dot of a dotted rule `A → α · β`.
#[derive(Clone, Copy, Debug)]
enum Next {
    /// `β` starts with nonterminal `B`: predict it.
    Nt(u32),
    /// `β` starts with a byte class: scan it.
    Class(CharClass),
    /// `β` is empty: the rule completes its left-hand side `A`.
    End(u32),
}

/// An Earley item, packed as `rule << 32 | origin`: a dotted rule (an index
/// into [`Table::rules`]) started at input position `origin`.
type Item = u64;

/// Added to an [`Item`], moves its dot past the next symbol.
const STEP: Item = 1 << 32;

fn item(rule: u32, origin: usize) -> Item {
    (u64::from(rule) << 32) | origin as u64
}

fn rule_of(it: Item) -> usize {
    (it >> 32) as usize
}

fn origin_of(it: Item) -> usize {
    it as u32 as usize
}

/// Hashes a packed [`Item`] with one folded multiply, so every bit of the
/// rule and the origin reaches the bucket index. Keys are chart-internal
/// `(rule, origin)` pairs, never outside bytes, so no collision-resistant
/// hasher is needed.
#[derive(Default)]
struct ItemHasher(u64);

impl Hasher for ItemHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ (m >> 64) as u64;
    }
}

type ItemSet = HashSet<Item, BuildHasherDefault<ItemHasher>>;

/// A grammar compiled for the chart: one entry per dotted rule.
#[derive(Clone, Debug)]
struct Table {
    /// Production `A → X₁…Xₖ` owns `k + 1` consecutive entries, one per dot
    /// position, so [`STEP`] advances an item to the next entry.
    rules: Vec<Next>,
    /// `first[at[a]..at[a + 1]]` are the dot-0 rules of nonterminal `a`.
    first: Vec<u32>,
    at: Vec<usize>,
    nullable: Vec<bool>,
    start: u32,
}

/// Chart buffers, reused across runs on one thread.
#[derive(Default)]
struct Chart {
    /// Item sets `0..=k`, concatenated; set `j` starts at `set_at[j]`.
    items: Vec<Item>,
    set_at: Vec<usize>,
    /// Set `k + 1` (scans) while set `k` is processed.
    next: Vec<Item>,
    /// The items of sets `k` and `k + 1` that are not dot-0 predictions.
    seen: ItemSet,
    seen_next: ItemSet,
    /// `(B, item)` for each processed item whose dot is before `B`; the
    /// entries of position `j` start at `wait_at[j]` and are sorted once its
    /// set is complete.
    waiting: Vec<(u32, Item)>,
    wait_at: Vec<usize>,
    /// `predicted[B] == k + 1` once `B` is predicted at position `k`.
    predicted: Vec<usize>,
}

/// Past this many items or waiting entries a thread drops its chart
/// buffers after the run instead of keeping them for the next one: oracle
/// queries stay well below it, while a one-off parse of a long input does
/// not pin its chart for the thread's lifetime.
const RETAINED_ITEMS: usize = 1 << 14;

thread_local! {
    static CHART: RefCell<Chart> = RefCell::default();
}

/// Runs `f` on this thread's chart buffers.
fn with_chart<R>(f: impl FnOnce(&mut Chart) -> R) -> R {
    CHART.with_borrow_mut(|chart| {
        let result = f(chart);
        if chart.items.capacity().max(chart.waiting.capacity()) > RETAINED_ITEMS {
            *chart = Chart::default();
        }
        result
    })
}

impl Table {
    fn new(grammar: &Grammar) -> Table {
        let mut t = Table {
            rules: Vec::new(),
            first: Vec::new(),
            at: vec![0],
            nullable: grammar.nullable_set(),
            start: grammar.start().0,
        };
        for a in grammar.nonterminals() {
            for rhs in grammar.productions(a) {
                t.first.push(t.rules.len() as u32);
                t.rules.extend(rhs.iter().map(|s| match *s {
                    Sym::Nt(b) => Next::Nt(b.0),
                    Sym::Class(c) => Next::Class(c),
                }));
                t.rules.push(Next::End(a.0));
            }
            t.at.push(t.first.len());
        }
        t
    }

    fn predictions(&self, a: u32) -> &[u32] {
        &self.first[self.at[a as usize]..self.at[a as usize + 1]]
    }

    /// Fills `chart` with the `n + 1` item sets of `input`. Stops early,
    /// returning `false`, when a set comes out empty: no prefix of the input
    /// survives, so the input is not a member.
    fn run(&self, input: &[u8], chart: &mut Chart) -> bool {
        let n = input.len();
        assert!(u32::try_from(n).is_ok(), "Earley inputs are limited to 4 GiB (u32 origins)");
        let Chart { items, set_at, next, seen, seen_next, waiting, wait_at, predicted } = chart;
        items.clear();
        set_at.clear();
        seen.clear();
        waiting.clear();
        wait_at.clear();
        predicted.clear();
        predicted.resize(self.nullable.len(), 0);

        set_at.push(0);
        wait_at.push(0);
        predicted[self.start as usize] = 1;
        items.extend(self.predictions(self.start).iter().map(|&r| item(r, 0)));
        for k in 0..=n {
            next.clear();
            seen_next.clear();
            let mut i = set_at[k];
            while i < items.len() {
                let it = items[i];
                i += 1;
                match self.rules[rule_of(it)] {
                    Next::Nt(b) => {
                        waiting.push((b, it));
                        // Dot-0 items arise only here, once per (B, k), so
                        // they skip the dedup set.
                        if predicted[b as usize] != k + 1 {
                            predicted[b as usize] = k + 1;
                            items.extend(self.predictions(b).iter().map(|&r| item(r, k)));
                        }
                        // Aycock–Horspool: step over a nullable B at once.
                        if self.nullable[b as usize] && seen.insert(it + STEP) {
                            items.push(it + STEP);
                        }
                    }
                    Next::Class(c) => {
                        if k < n && c.contains(input[k]) && seen_next.insert(it + STEP) {
                            next.push(it + STEP);
                        }
                    }
                    Next::End(a) => {
                        // An item completing at its own origin derived ε, and
                        // the nullable step above already advanced its parents.
                        let origin = origin_of(it);
                        if origin < k {
                            let parents = &waiting[wait_at[origin]..wait_at[origin + 1]];
                            let from = parents.partition_point(|&(b, _)| b < a);
                            for &(_, parent) in parents[from..].iter().take_while(|w| w.0 == a) {
                                if seen.insert(parent + STEP) {
                                    items.push(parent + STEP);
                                }
                            }
                        }
                    }
                }
            }
            waiting[wait_at[k]..].sort_unstable();
            wait_at.push(waiting.len());
            if k == n {
                break;
            }
            if next.is_empty() {
                return false;
            }
            set_at.push(items.len());
            items.append(next);
            std::mem::swap(seen, seen_next);
        }
        true
    }

    /// Whether the last set of a full run holds a completed start item.
    fn accepted(&self, chart: &Chart) -> bool {
        let last = chart.set_at[chart.set_at.len() - 1];
        chart.items[last..].iter().any(|&it| {
            origin_of(it) == 0 && matches!(self.rules[rule_of(it)], Next::End(a) if a == self.start)
        })
    }

    /// `(nt, start) →` ascending end positions of every completed item.
    fn completed(&self, chart: &Chart) -> HashMap<(u32, u32), Vec<u32>> {
        let mut completed: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
        let ends = chart.set_at[1..].iter().copied().chain([chart.items.len()]);
        for (k, (from, to)) in chart.set_at.iter().copied().zip(ends).enumerate() {
            let k = k as u32;
            for &it in &chart.items[from..to] {
                if let Next::End(a) = self.rules[rule_of(it)] {
                    let ends = completed.entry((a, origin_of(it) as u32)).or_default();
                    if ends.last() != Some(&k) {
                        ends.push(k);
                    }
                }
            }
        }
        completed
    }
}

/// An Earley recognizer/parser for a [`Grammar`].
///
/// Construction compiles the grammar into a table of dotted rules; each
/// call to [`Earley::accepts`] or [`Earley::parse`] runs the chart over one
/// input in buffers the calling thread keeps for its next call. Build the
/// parser once and reuse it: [`Earley::owned`] gives one that outlives any
/// borrow, e.g. inside a membership oracle.
///
/// # Examples
///
/// ```
/// use glade_grammar::cfg::{GrammarBuilder, lit, nt};
/// use glade_grammar::Earley;
///
/// let mut b = GrammarBuilder::new();
/// let a = b.nt("A");
/// b.prod(a, [lit(b"<a>"), nt(a), lit(b"</a>")].concat());
/// b.prod(a, vec![]);
/// let g = b.build(a).unwrap();
///
/// let parser = Earley::new(&g);
/// assert!(parser.accepts(b"<a><a></a></a>"));
/// assert!(!parser.accepts(b"<a></a></a>"));
/// ```
#[derive(Debug, Clone)]
pub struct Earley<'g> {
    grammar: Cow<'g, Grammar>,
    table: Table,
}

impl<'g> Earley<'g> {
    /// Creates a parser for `grammar`.
    pub fn new(grammar: &'g Grammar) -> Self {
        Earley { table: Table::new(grammar), grammar: Cow::Borrowed(grammar) }
    }

    /// The underlying grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// Decides membership of `input` in the grammar's language.
    pub fn accepts(&self, input: &[u8]) -> bool {
        with_chart(|chart| self.table.run(input, chart) && self.table.accepted(chart))
    }

    /// Parses `input`, returning one (arbitrary but deterministic) parse
    /// tree, or `None` if the input is not in the language.
    pub fn parse(&self, input: &[u8]) -> Option<ParseTree> {
        let completed = with_chart(|chart| {
            (self.table.run(input, chart) && self.table.accepted(chart))
                .then(|| self.table.completed(chart))
        })?;
        let mut builder = TreeBuilder {
            grammar: &self.grammar,
            input,
            completed,
            fail: HashSet::new(),
            in_progress: HashSet::new(),
        };
        builder.build(self.table.start, 0, input.len() as u32)
    }
}

impl Earley<'static> {
    /// Creates a parser that owns `grammar`.
    pub fn owned(grammar: Grammar) -> Self {
        Earley { table: Table::new(&grammar), grammar: Cow::Owned(grammar) }
    }
}

struct TreeBuilder<'a> {
    grammar: &'a Grammar,
    input: &'a [u8],
    completed: HashMap<(u32, u32), Vec<u32>>,
    fail: HashSet<(u32, u32, u32)>,
    in_progress: HashSet<(u32, u32, u32)>,
}

impl TreeBuilder<'_> {
    fn spans(&self, nt: u32, start: u32) -> &[u32] {
        self.completed.get(&(nt, start)).map(Vec::as_slice).unwrap_or(&[])
    }

    fn build(&mut self, nt: u32, start: u32, end: u32) -> Option<ParseTree> {
        let key = (nt, start, end);
        if self.fail.contains(&key) || !self.spans(nt, start).contains(&end) {
            return None;
        }
        // A minimal derivation never revisits the same (nt, span); blocking
        // re-entry keeps unary/ε cycles from looping forever.
        if !self.in_progress.insert(key) {
            return None;
        }
        let prods = self.grammar.productions(NtId(nt));
        let mut result = None;
        for (pi, rhs) in prods.iter().enumerate() {
            if let Some(children) = self.match_seq(rhs, 0, start, end) {
                result = Some(ParseTree::Node {
                    nt: NtId(nt),
                    prod: pi,
                    children,
                    start: start as usize,
                    end: end as usize,
                });
                break;
            }
        }
        self.in_progress.remove(&key);
        if result.is_none() {
            self.fail.insert(key);
        }
        result
    }

    fn match_seq(&mut self, rhs: &[Sym], k: usize, pos: u32, end: u32) -> Option<Vec<ParseTree>> {
        if k == rhs.len() {
            return (pos == end).then(Vec::new);
        }
        match rhs[k] {
            Sym::Class(c) => {
                if pos < end && c.contains(self.input[pos as usize]) {
                    let mut rest = self.match_seq(rhs, k + 1, pos + 1, end)?;
                    rest.insert(
                        0,
                        ParseTree::Leaf { byte: self.input[pos as usize], pos: pos as usize },
                    );
                    Some(rest)
                } else {
                    None
                }
            }
            Sym::Nt(n) => {
                let mids: Vec<u32> =
                    self.spans(n.0, pos).iter().copied().filter(|&m| m <= end).collect();
                for mid in mids {
                    if let Some(rest) = self.match_seq(rhs, k + 1, mid, end) {
                        if let Some(sub) = self.build(n.0, pos, mid) {
                            let mut children = Vec::with_capacity(rest.len() + 1);
                            children.push(sub);
                            children.extend(rest);
                            return Some(children);
                        }
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{cls, lit, nt, GrammarBuilder};
    use crate::CharClass;

    fn nested_tags() -> Grammar {
        let mut b = GrammarBuilder::new();
        let a = b.nt("A");
        b.prod(a, [lit(b"<a>"), nt(a), lit(b"</a>")].concat());
        b.prod(a, vec![]);
        b.build(a).unwrap()
    }

    /// The paper's synthesized running-example grammar:
    /// A → ε | A B ;  B → <a> A </a> | h | i   (equivalent to (<a>A</a> + h + i)*)
    fn running_example() -> Grammar {
        let mut b = GrammarBuilder::new();
        let a = b.nt("A");
        let t = b.nt("B");
        b.prod(a, vec![]);
        b.prod(a, [nt(a), nt(t)].concat());
        b.prod(t, [lit(b"<a>"), nt(a), lit(b"</a>")].concat());
        b.prod(t, lit(b"h"));
        b.prod(t, lit(b"i"));
        b.build(a).unwrap()
    }

    #[test]
    fn accepts_nested_tags() {
        let g = nested_tags();
        let p = Earley::new(&g);
        assert!(p.accepts(b""));
        assert!(p.accepts(b"<a></a>"));
        assert!(p.accepts(b"<a><a><a></a></a></a>"));
        assert!(!p.accepts(b"<a>"));
        assert!(!p.accepts(b"<a></a><a></a>")); // not a single nest
    }

    #[test]
    fn accepts_left_recursive_star_expansion() {
        let g = running_example();
        let p = Earley::new(&g);
        assert!(p.accepts(b""));
        assert!(p.accepts(b"hi"));
        assert!(p.accepts(b"<a>hi</a>"));
        assert!(p.accepts(b"<a><a>h</a>i</a>hh"));
        assert!(!p.accepts(b"<a>hi</a"));
        assert!(!p.accepts(b"x"));
    }

    #[test]
    fn rejects_byte_outside_class() {
        let mut b = GrammarBuilder::new();
        let a = b.nt("A");
        b.prod(a, cls(CharClass::range(b'0', b'9')));
        let g = b.build(a).unwrap();
        let p = Earley::new(&g);
        assert!(p.accepts(b"7"));
        assert!(!p.accepts(b"a"));
        assert!(!p.accepts(b""));
        assert!(!p.accepts(b"77"));
    }

    #[test]
    fn parse_tree_yield_equals_input() {
        let g = running_example();
        let p = Earley::new(&g);
        let input = b"<a><a>h</a>i</a>hh";
        let tree = p.parse(input).expect("member");
        assert_eq!(tree.to_bytes(), input.to_vec());
        let (s, e) = tree.span();
        assert_eq!((s, e), (0, input.len()));
    }

    #[test]
    fn parse_rejects_nonmember() {
        let g = running_example();
        let p = Earley::new(&g);
        assert!(p.parse(b"<a>").is_none());
        assert!(p.parse(b"z").is_none());
    }

    #[test]
    fn parse_of_empty_input_with_nullable_start() {
        let g = running_example();
        let p = Earley::new(&g);
        let tree = p.parse(b"").expect("ε is a member");
        assert_eq!(tree.to_bytes(), Vec::<u8>::new());
    }

    #[test]
    fn parse_tree_nodes_enumerates_nonterminals() {
        let g = running_example();
        let p = Earley::new(&g);
        let tree = p.parse(b"<a>h</a>").expect("member");
        let nodes = tree.nodes();
        // At least: root A, inner A (for "h"), B (tag), B (h), plus the
        // left-recursion spine nodes.
        assert!(nodes.len() >= 4, "got {} nodes", nodes.len());
        for n in nodes {
            let (s, e) = n.span();
            assert!(s <= e && e <= 8);
        }
    }

    #[test]
    fn handles_unary_cycles() {
        // A → B | x ; B → A. Unary cycle must not hang.
        let mut b = GrammarBuilder::new();
        let a = b.nt("A");
        let bb = b.nt("B");
        b.prod(a, nt(bb));
        b.prod(a, lit(b"x"));
        b.prod(bb, nt(a));
        let g = b.build(a).unwrap();
        let p = Earley::new(&g);
        assert!(p.accepts(b"x"));
        assert!(!p.accepts(b"y"));
        let tree = p.parse(b"x").expect("member");
        assert_eq!(tree.to_bytes(), b"x".to_vec());
    }

    #[test]
    fn handles_ambiguity() {
        // S → S S | 'a' | ε : highly ambiguous.
        let mut b = GrammarBuilder::new();
        let s = b.nt("S");
        b.prod(s, [nt(s), nt(s)].concat());
        b.prod(s, lit(b"a"));
        b.prod(s, vec![]);
        let g = b.build(s).unwrap();
        let p = Earley::new(&g);
        for n in 0..8 {
            let input = b"a".repeat(n);
            assert!(p.accepts(&input), "n={n}");
            let t = p.parse(&input).expect("member");
            assert_eq!(t.to_bytes(), input);
        }
        assert!(!p.accepts(b"b"));
    }

    #[test]
    fn matching_parentheses_with_regular_decoration() {
        // Generalized matching parentheses (Definition 5.2):
        // S → ( R (S)* R' )* with R = "(", R' = ")".
        let mut b = GrammarBuilder::new();
        let s = b.nt("S");
        let item = b.nt("I");
        b.prod(s, vec![]);
        b.prod(s, [nt(s), nt(item)].concat());
        b.prod(item, [lit(b"("), nt(s), lit(b")")].concat());
        let g = b.build(s).unwrap();
        let p = Earley::new(&g);
        assert!(p.accepts(b"()(())"));
        assert!(p.accepts(b"((()))()"));
        assert!(!p.accepts(b"(()"));
        assert!(!p.accepts(b")("));
    }
}
